"""The asyncio query server: admission, coalescing, deadlines, drain.

One event loop owns the sockets and the bookkeeping; dispatchers
(:mod:`repro.serve.dispatch`) own the CPU.  The request path:

1. **Admission** — at most ``queue_depth`` queries are in flight;
   request ``queue_depth + 1`` is answered ``429`` immediately
   (``serve.rejected``).  Refusing loudly beats queueing silently:
   a client that sees 429 can back off, a client whose request sits
   in an unbounded queue just sees latency.
2. **Coalescing** — the decoded query's
   :func:`repro.serve.protocol.query_key` is looked up in the
   in-flight table.  A hit (``serve.coalesced``) awaits the *same*
   future as the original request — one computation, one L2/L3 cache
   entry, N responses.  Equal keys imply byte-identical deterministic
   views, so sharing is invisible to clients (the ``served`` sidecar
   reports it for the curious).
3. **Deadline** — every waiter is bounded by
   ``asyncio.wait_for(asyncio.shield(future), deadline)``.  The
   shield matters twice over: a timed-out waiter (``504``,
   ``serve.timeouts``) must not cancel the computation its coalesced
   siblings still await, and even an answer nobody is left to receive
   still lands in the warm caches for the next asker.
4. **Drain** — SIGTERM/SIGINT stops the listener, waits up to one
   deadline for in-flight queries, then closes the dispatcher — which
   cancels queries still queued (503), lets running ones finish, and
   releases the worker pool; each worker's L2 store goes with it.

Counters live in the ``serve.`` namespace of the process
:class:`repro.obs.metrics.MetricsRegistry` (performance-class: they
depend on arrival timing); every request runs under a
``serve.request`` trace span.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass

from repro.errors import ReproError, ServiceError
from repro.serve.http import HttpRequest, read_request, response_bytes

__all__ = ["QueryServer", "ServeConfig", "serve_main"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything that parameterizes one server instance.

    ``workers=0`` evaluates on server threads (development, tests);
    ``workers>0`` runs a process pool for the server's life.
    ``port=0`` binds an ephemeral port (the bound address is printed /
    exposed via :attr:`QueryServer.address`).  ``queue_depth`` bounds
    admitted queries, not TCP connections.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 0
    queue_depth: int = 16
    deadline_s: float = 30.0


class QueryServer:
    """One listener + dispatcher + in-flight table.

    ``dispatcher`` is injectable for tests (anything with
    ``await dispatch(wire) -> payload`` and ``close()``, optionally a
    ``broken`` flag for ``/v1/healthz``); by default a
    :class:`repro.serve.dispatch.Dispatcher` for
    :attr:`ServeConfig.workers`.
    """

    def __init__(self, config: ServeConfig | None = None,
                 dispatcher=None) -> None:
        self.config = config if config is not None else ServeConfig()
        self._dispatcher = dispatcher
        self._server: asyncio.AbstractServer | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._admitted = 0
        self._draining = False

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening", status=503)
        name = self._server.sockets[0].getsockname()
        return str(name[0]), int(name[1])

    async def start(self) -> None:
        """Build the dispatcher and start listening."""
        if self._dispatcher is None:
            from repro.serve.dispatch import Dispatcher

            self._dispatcher = Dispatcher(self.config.workers)
        # The dispatcher may own worker processes from here: release
        # it if the listener fails to bind.
        try:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.config.host,
                port=self.config.port)
        except BaseException:
            self._dispatcher.close()
            raise

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, release everything.

        Idempotent.  Waits up to one deadline interval for in-flight
        queries; the dispatcher teardown then answers queries still
        queued with 503 and waits for running ones.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [future for future in self._inflight.values()
                   if not future.done()]
        if pending:
            await asyncio.wait(pending,
                               timeout=self.config.deadline_s)
        if self._dispatcher is not None:
            self._dispatcher.close()
            self._dispatcher = None

    # ------------------------------------------------------------------
    # Connection / routing
    # ------------------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ServiceError as exc:
                    writer.write(response_bytes(
                        exc.status, {"error": str(exc)}, close=True))
                    await writer.drain()
                    break
                if request is None:
                    break
                close = request.headers.get(
                    "connection", "").lower() == "close"
                status, payload = await self._route(request)
                writer.write(response_bytes(status, payload,
                                            close=close))
                await writer.drain()
                if close:
                    break
        except asyncio.CancelledError:
            # Loop teardown cancelled an idle keep-alive connection;
            # finishing quietly (instead of re-raising) keeps the
            # stream protocol's done-callback from logging it.
            pass
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client hung up; nothing left to tell it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, request: HttpRequest,
                     ) -> "tuple[int, dict]":
        if request.path == "/v1/query":
            if request.method != "POST":
                return 405, {"error": "query endpoint takes POST"}
            return await self._handle_query(request)
        if request.path == "/v1/healthz":
            if request.method != "GET":
                return 405, {"error": "healthz endpoint takes GET"}
            return 200, self._health_payload()
        if request.path == "/v1/metrics":
            if request.method != "GET":
                return 405, {"error": "metrics endpoint takes GET"}
            return 200, self._metrics_payload()
        return 404, {"error": f"unknown path {request.path!r}"}

    def _health_payload(self) -> dict:
        status = "ok"
        if self._draining:
            status = "draining"
        elif getattr(self._dispatcher, "broken", False):
            status = "broken"
        return {
            "status": status,
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "in_flight": self._admitted,
        }

    def _metrics_payload(self) -> dict:
        from repro.obs import metrics as _metrics

        snap = _metrics.registry().snapshot()
        return {
            "serve": {
                "counters": {
                    name: value for name, value
                    in snap.get("counters", {}).items()
                    if name.startswith("serve.")},
                "histograms": {
                    name: value for name, value
                    in snap.get("histograms", {}).items()
                    if name.startswith("serve.")},
            },
            "cache": _metrics.cache_metrics(),
        }

    # ------------------------------------------------------------------
    # The query path
    # ------------------------------------------------------------------

    async def _handle_query(self, request: HttpRequest,
                            ) -> "tuple[int, dict]":
        from repro.obs import clock
        from repro.obs import metrics as _metrics
        from repro.obs.trace import get_tracer
        from repro.serve.protocol import decode_query, query_key

        reg = _metrics.registry()
        reg.inc("serve.requests")
        if self._draining:
            reg.inc("serve.rejected")
            return 503, {"error": "server is draining"}
        if self._admitted >= self.config.queue_depth:
            reg.inc("serve.rejected")
            return 429, {"error": f"queue depth "
                                  f"{self.config.queue_depth} reached; "
                                  f"retry later"}
        try:
            wire = request.json()
            key = query_key(decode_query(wire))
        except ServiceError as exc:
            reg.inc("serve.errors")
            return exc.status, {"error": str(exc)}
        except ReproError as exc:
            reg.inc("serve.errors")
            return 422, {"error": str(exc)}

        self._admitted += 1
        started = clock.monotonic()
        kind = str(wire.get("kind", "?"))
        try:
            with get_tracer().span("serve.request", kind=kind):
                future = self._inflight.get(key)
                coalesced = future is not None
                if coalesced:
                    reg.inc("serve.coalesced")
                else:
                    reg.inc("serve.dispatched")
                    future = asyncio.ensure_future(
                        self._dispatch(key, wire))
                    self._inflight[key] = future
                try:
                    payload = await asyncio.wait_for(
                        asyncio.shield(future),
                        timeout=self.config.deadline_s)
                except asyncio.TimeoutError:
                    reg.inc("serve.timeouts")
                    return 504, {"error":
                                 f"deadline of "
                                 f"{self.config.deadline_s}s exceeded"}
                except ServiceError as exc:
                    reg.inc("serve.errors")
                    return exc.status, {"error": str(exc)}
            status = int(payload.get("status", 500))
            if status != 200:
                reg.inc("serve.errors")
                return status, {"error": str(payload.get(
                    "error", "query failed"))}
            elapsed_ms = (clock.monotonic() - started) * 1000.0
            reg.inc("serve.completed")
            reg.observe("serve.latency_ms", elapsed_ms)
            response = dict(payload["result"])
            response["served"] = {"coalesced": coalesced,
                                  "elapsed_ms": round(elapsed_ms, 3)}
            return 200, response
        finally:
            self._admitted -= 1

    async def _dispatch(self, key: str, wire: dict) -> dict:
        try:
            return await self._dispatcher.dispatch(wire)
        finally:
            # Retire the in-flight entry only if it is still ours: a
            # completed-then-reissued key may already map to a newer
            # future.
            if self._inflight.get(key) is asyncio.current_task():
                self._inflight.pop(key, None)


def serve_main(config: ServeConfig | None = None) -> int:
    """Run one server until SIGTERM/SIGINT, then drain.  Returns 0.

    Prints exactly one ``serving on HOST:PORT`` line once the socket
    is bound — the CLI, the smoke job and the benchmark harness all
    parse it to discover an ephemeral port.
    """
    config = config if config is not None else ServeConfig()

    async def _main() -> int:
        server = QueryServer(config)
        await server.start()
        host, port = server.address
        print(f"serving on {host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal support
        try:
            await stop.wait()
        finally:
            for signum in hooked:
                loop.remove_signal_handler(signum)
            await server.drain()
        print("drained", flush=True)
        return 0

    return asyncio.run(_main())
