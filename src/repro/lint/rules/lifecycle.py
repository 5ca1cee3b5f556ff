"""REP010 — shared-resource lifecycle across the process tree.

POSIX shared memory is the one resource in this repo the operating
system will not clean up for us: a ``SharedMemory`` segment created
with ``create=True`` and never ``unlink()``-ed outlives the process
in ``/dev/shm``, and the exception path is where that happens — an
allocation succeeds, a later call raises, and the handle leaks with
no test noticing.  This rule tracks every acquisition of a watched
resource and demands one of:

* acquisition inside a ``with`` block;
* cleanup (``close``/``unlink``/``shutdown``/``terminate``/
  ``release``/``join``) reachable on the exception path — i.e. in a
  ``finally`` or ``except`` body;
* no risky call between acquisition and the point the resource
  escapes (returned to the caller, who then owns the lifecycle).

The watched set starts at ``shared_memory.SharedMemory(create=True)``
and grows by a fixpoint over *factories*: any function that acquires
a watched resource and lets it escape through its return value
(directly or wrapped in a constructor call, the
``SharedStore.create`` pattern) becomes watched itself, so
``self._store = SharedStore.create(lock)`` two modules away is held
to the same standard as the raw ``SharedMemory`` call.  Attaching by
name (no ``create=True``) is exempt — the creator owns the segment.

A second check guards the process pool's fork boundary: threads and
thread locks created on a pre-fork path (any function reachable from
the parent-side functions of a module that constructs a
``ProcessPoolExecutor``) are flagged, because a lock held by another
thread at ``fork()`` time deadlocks the child.  Only
``multiprocessing`` primitives from the pool's own context are
fork-safe there.  Functions named ``_worker*`` (the pool initializer)
run post-fork in the child and are not roots.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.dataflow import _iter_calls, call_graph, reachable
from repro.lint.framework import ProjectRule, Violation
from repro.lint.project import (ExprIR, FunctionInfo, ModuleSummary,
                                Project, ResourceEvent)

__all__ = ["ResourceLifecycleRule"]

#: Base constructors: acquiring one of these with ``create=True``
#: allocates a kernel object that must be explicitly released.
_BASE_CREATORS = frozenset({
    "multiprocessing.shared_memory.SharedMemory",
})

_THREAD_CREATORS = frozenset({
    "threading.Thread", "threading.Timer",
    "threading.Lock", "threading.RLock",
    "threading.Condition", "threading.Event",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Barrier",
})

#: Constructors whose first task forks the workers: a module calling
#: one is a pool module, and its parent-side functions run pre-fork.
_POOL_CREATORS = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
})

_MAX_FACTORY_ROUNDS = 10


def _all_names(expr: ExprIR) -> set[str]:
    """Every variable name in the expression, call args included."""
    names = set(expr.names)
    for call in expr.calls:
        for arg in call.args:
            names.update(_all_names(arg))
        for _, value in call.keywords:
            names.update(_all_names(value))
        if call.recv is not None:
            names.update(_all_names(call.recv))
        if call.ref is not None:
            names.add(call.ref.split(".", 1)[0])
    return names


def _escaping_vars(info: FunctionInfo) -> set[str]:
    """Variables that reach a return value, one wrapper hop deep.

    Covers both ``return shm`` and the classmethod-factory idiom
    ``store = cls(shm, lock); return store``.
    """
    assigned_from: dict[str, set[str]] = {}
    returned: set[str] = set()
    for kind, targets, expr in info.ops:
        if kind == "assign" and len(targets) == 1:
            assigned_from.setdefault(targets[0], set()).update(
                _all_names(expr))
        elif kind == "return":
            returned.update(_all_names(expr))
    escaping = set(returned)
    for target in returned:
        escaping.update(assigned_from.get(target, ()))
    return escaping


class ResourceLifecycleRule(ProjectRule):
    """Shared-resource acquire/release pairing (REP010)."""

    rule_id = "REP010"
    summary = "shared-memory resource can leak on an exception path " \
              "or is never released; or thread primitive created " \
              "pre-fork"

    def check_project(self, project: Project) -> Iterable[Violation]:
        watched = self._watched_factories(project)
        for summary, info in project.iter_functions():
            for event in info.resources:
                if not self._is_watched(project, summary, info, event,
                                        watched):
                    continue
                violation = self._verdict(summary, event)
                if violation is not None:
                    yield violation
        yield from self._prefork_threads(project)

    # -- factory fixpoint ----------------------------------------------
    def _acquires(self, project: Project, summary: ModuleSummary,
                  info: FunctionInfo, ref: str | None, create: bool,
                  watched: set[str]) -> bool:
        qualified = project.resolve_ref(summary, info, ref)
        if qualified is None:
            return False
        if qualified in _BASE_CREATORS:
            return create
        return qualified in watched

    def _is_watched(self, project: Project, summary: ModuleSummary,
                    info: FunctionInfo, event: ResourceEvent,
                    watched: set[str]) -> bool:
        return self._acquires(project, summary, info, event.ref,
                              event.create_kw, watched)

    def _watched_factories(self, project: Project) -> set[str]:
        """Functions whose return value carries a watched resource."""
        watched: set[str] = set()
        for _ in range(_MAX_FACTORY_ROUNDS):
            changed = False
            for summary, info in project.iter_functions():
                qualified = f"{summary.name}.{info.qualname}"
                if qualified in watched:
                    continue
                if self._returns_resource(project, summary, info,
                                          watched):
                    watched.add(qualified)
                    changed = True
            if not changed:
                break
        return watched

    def _returns_resource(self, project: Project,
                          summary: ModuleSummary, info: FunctionInfo,
                          watched: set[str]) -> bool:
        for ref, create in info.return_call_refs:
            if self._acquires(project, summary, info, ref, create,
                              watched):
                return True
        escaping: set[str] | None = None
        for event in info.resources:
            if not self._acquires(project, summary, info, event.ref,
                                  event.create_kw, watched):
                continue
            if escaping is None:
                escaping = _escaping_vars(info)
            if event.var in escaping:
                return True
        return False

    # -- per-acquisition verdict ---------------------------------------
    def _verdict(self, summary: ModuleSummary,
                 event: ResourceEvent) -> Violation | None:
        if event.in_with or event.cleanup_protected:
            return None
        if event.risky_after:
            return Violation(
                path=summary.path, line=event.line, col=event.col,
                rule=self.rule_id,
                message=(f"shared resource `{event.var}` can leak: "
                         f"calls after this acquisition may raise "
                         f"before cleanup runs; release it in a "
                         f"try/finally or except block (or use "
                         f"`with`)"))
        if not event.cleanup_any and not event.returned:
            return Violation(
                path=summary.path, line=event.line, col=event.col,
                rule=self.rule_id,
                message=(f"shared resource `{event.var}` is never "
                         f"released: no close()/unlink() on any "
                         f"path and it does not escape this "
                         f"function"))
        return None

    # -- pre-fork thread primitives ------------------------------------
    def _prefork_threads(self, project: Project,
                         ) -> Iterable[Violation]:
        pool_modules = set()
        for summary, info in project.iter_functions():
            for _, _, expr in info.ops:
                for call in _iter_calls(expr):
                    if project.resolve_ref(summary, info, call.ref) \
                            in _POOL_CREATORS:
                        pool_modules.add(summary.name)
        roots = []
        for name in sorted(pool_modules):
            for qual in sorted(project.modules[name].functions):
                # Worker entry points run post-fork in the child;
                # everything else in a pool module is parent-side.
                leaf = qual.rsplit(".", 1)[-1]
                if leaf.startswith("_worker"):
                    continue
                roots.append((name, qual))
        if not roots:
            return
        graph = call_graph(project)
        prefork = reachable(graph, roots)
        emitted: set[tuple[str, int, int]] = set()
        for summary, info in project.iter_functions():
            if (summary.name, info.qualname) not in prefork:
                continue
            for _, _, expr in info.ops:
                for call in _iter_calls(expr):
                    qualified = project.resolve_ref(summary, info,
                                                    call.ref)
                    if qualified not in _THREAD_CREATORS:
                        continue
                    key = (summary.path, call.line, call.col)
                    if key in emitted:
                        continue
                    emitted.add(key)
                    yield Violation(
                        path=summary.path, line=call.line,
                        col=call.col, rule=self.rule_id,
                        message=(f"{qualified} created on a "
                                 f"pre-fork process-pool path; a "
                                 f"lock held at fork() deadlocks the "
                                 f"child — use the pool context's "
                                 f"multiprocessing primitives"))
