"""REP010 — thread primitives on the process pool's pre-fork path.

The process pool forks its workers.  A thread, or a thread lock held
by another thread at ``fork()`` time, does not survive into the child
intact: the child inherits the lock in its held state and deadlocks
the first time it takes it.  This rule flags ``threading`` primitives
created on a pre-fork path — any function reachable from the
parent-side functions of a module that constructs a
``ProcessPoolExecutor``.  Only ``multiprocessing`` primitives from the
pool's own context are fork-safe there.  Functions named ``_worker*``
(the pool initializer) run post-fork in the child and are not roots.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.dataflow import _iter_calls, call_graph, reachable
from repro.lint.framework import ProjectRule, Violation
from repro.lint.project import Project

__all__ = ["PreforkThreadRule"]

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


class PreforkThreadRule(ProjectRule):
    """Thread primitives on a pre-fork pool path (REP010)."""

    rule_id = "REP010"
    summary = "thread primitive created on a pre-fork process-pool path"

    def check_project(self, project: Project) -> Iterable[Violation]:
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
