"""The query server: byte-identity, coalescing, backpressure,
deadlines, and leak-free drain."""

import asyncio
import dataclasses
import http.client
import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    FormabilityQuery,
    RunQuery,
    SymmetricityQuery,
    as_points,
    evaluate_query,
)
from repro.errors import ServiceError
from repro.obs import metrics as _metrics
from repro.serve.client import ServeClient
from repro.serve.http import HttpRequest
from repro.serve.protocol import (
    canonical_result_text,
    decode_result,
    encode_query,
)
from repro.serve.server import QueryServer, ServeConfig

OCTAHEDRON = as_points([[1.0, 0, 0], [0, 1, 0], [0, 0, 1],
                        [-1.0, 0, 0], [0, -1, 0], [0, 0, -1]])


class _ServerThread:
    """Run one QueryServer on a private loop in a daemon thread."""

    def __init__(self, config, dispatcher=None):
        self._config = config
        self._dispatcher = dispatcher
        self._started = threading.Event()
        self._stop = None
        self.loop = None
        self.server = None
        self.error = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.server = QueryServer(self._config, self._dispatcher)
            self._stop = asyncio.Event()
            self.loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            finally:
                self._started.set()
            await self._stop.wait()
            await self.server.drain()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced in stop()
            self.error = exc
            self._started.set()

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(timeout=30), "server never started"
        if self.error is not None:
            raise self.error
        return self

    def __exit__(self, *exc):
        self.stop()

    @property
    def address(self):
        return self.server.address

    def stop(self):
        if self.loop is not None and self._stop is not None and \
                not self._stop.is_set():
            self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server failed to drain"
        if self.error is not None:
            raise self.error


def _serve_delta(before, after):
    deltas = {}
    for name, value in after.items():
        if name.startswith("serve."):
            deltas[name] = value - before.get(name, 0)
    return {name: value for name, value in deltas.items() if value}


class TestByteIdentity:
    def test_concurrent_clients_match_direct_api(self):
        queries = [
            FormabilityQuery(initial="cube", target="octagon"),
            FormabilityQuery(initial="octagon", target="cube"),
            SymmetricityQuery(points="icosahedron"),
            SymmetricityQuery(points=OCTAHEDRON),
        ]
        expected = [canonical_result_text(evaluate_query(q))
                    for q in queries]
        with _ServerThread(ServeConfig(queue_depth=16)) as st:
            host, port = st.address
            results = [None] * len(queries)

            def ask(i):
                with ServeClient(host, port) as client:
                    results[i] = canonical_result_text(
                        client.query(queries[i]))

            threads = [threading.Thread(target=ask, args=(i,))
                       for i in range(len(queries))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert results == expected

    def test_run_query_round_trip(self):
        from repro.api import ExperimentSpec

        query = RunQuery(name="lemma7", spec=ExperimentSpec(trials=2))
        expected = canonical_result_text(evaluate_query(query))
        with _ServerThread(ServeConfig()) as st:
            host, port = st.address
            with ServeClient(host, port) as client:
                assert canonical_result_text(client.query(query)) == \
                    expected

    def test_invalid_query_is_422(self):
        with _ServerThread(ServeConfig()) as st:
            host, port = st.address
            with ServeClient(host, port) as client:
                with pytest.raises(ServiceError) as info:
                    client.query(SymmetricityQuery(points="noshape"))
        assert info.value.status == 422

    @pytest.mark.parametrize("spec", [
        {"trials": -1}, {"trials": "x"}, {"seed": -3},
        {"trials": 8, "jobs": 8}, {"backend": "numpy"}])
    def test_malformed_run_spec_is_422(self, spec):
        wire = {"wire_schema": 1, "kind": "run", "name": "lemma7",
                "spec": spec}
        with _ServerThread(ServeConfig()) as st:
            host, port = st.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("POST", "/v1/query",
                         body=json.dumps(wire).encode("utf-8"),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
            conn.close()
        assert response.status == 422, body
        assert "spec" in body["error"]

    def test_unknown_path_and_bad_json(self):
        with _ServerThread(ServeConfig()) as st:
            host, port = st.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            conn.request("POST", "/v1/query", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON" in json.loads(response.read())["error"]
            conn.close()


class TestMalformedInput:
    def _post(self, conn, wire):
        conn.request("POST", "/v1/query",
                     body=json.dumps(wire).encode("utf-8"),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def test_ragged_rows_are_422_and_the_connection_lives_on(self):
        ragged = {"wire_schema": 1, "kind": "symmetricity",
                  "points": [[0.0, 0.0, 1.0], [1.0, 0.0],
                             [0.0, 1.0, 0.0]]}
        huge = {"wire_schema": 1, "kind": "symmetricity",
                "points": [[1e308, 0, 0], [-1e308, 0, 0], [0, 1e308, 0],
                           [0, 0, 1e308]]}
        query = SymmetricityQuery(points=OCTAHEDRON)
        expected = canonical_result_text(evaluate_query(query))
        reg = _metrics.registry()
        with _ServerThread(ServeConfig()) as st:
            host, port = st.address
            before = reg.snapshot()["counters"]
            conn = http.client.HTTPConnection(host, port, timeout=60)
            status, body = self._post(conn, ragged)
            assert status == 422, body
            assert "x, y, z" in body["error"]
            status, body = self._post(conn, huge)
            assert status == 422, body
            status, body = self._post(conn, encode_query(query))
            assert status == 200, body
            conn.close()
            after = reg.snapshot()["counters"]
        assert canonical_result_text(decode_result(body)) == expected
        delta = _serve_delta(before, after)
        assert delta["serve.errors"] == 2
        assert delta["serve.completed"] == 1


class _GatedDispatcher:
    """Holds every dispatch until ``expected`` requests are admitted,
    so a concurrent burst provably overlaps in flight."""

    def __init__(self, expected):
        self.expected = expected
        self.server = None  # bound by the test after construction
        self.dispatches = 0

    async def dispatch(self, wire):
        from repro.serve.dispatch import Dispatcher

        self.dispatches += 1
        while self.server._admitted < self.expected:
            await asyncio.sleep(0.005)
        return await Dispatcher(workers=0).dispatch(wire)

    def close(self):
        pass


class TestCoalescing:
    def test_equivalent_burst_is_one_computation(self):
        burst = 6
        gate = _GatedDispatcher(expected=burst)
        before = _metrics.registry().snapshot()["counters"]
        with _ServerThread(ServeConfig(queue_depth=2 * burst,
                                       deadline_s=120),
                           dispatcher=gate) as st:
            gate.server = st.server
            host, port = st.address
            results = [None] * burst

            def ask(i):
                # Same congruence class at an exact offset: same key.
                points = tuple(tuple(c + float(i % 2) for c in row)
                               for row in OCTAHEDRON)
                with ServeClient(host, port) as client:
                    results[i] = client.query(
                        SymmetricityQuery(points=points))

            threads = [threading.Thread(target=ask, args=(i,))
                       for i in range(burst)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        after = _metrics.registry().snapshot()["counters"]
        delta = _serve_delta(before, after)
        # The pinned contract: one dispatch, everyone else coalesces.
        assert gate.dispatches == 1
        assert delta["serve.dispatched"] == 1
        assert delta["serve.coalesced"] == burst - 1
        assert delta["serve.completed"] == burst
        texts = {canonical_result_text(r) for r in results}
        assert len(texts) == 1
        coalesced = [r.cache["served"]["coalesced"] for r in results]
        assert sorted(coalesced) == [False] + [True] * (burst - 1)

    def test_out_of_range_copy_is_refused_before_it_can_coalesce(self):
        """Scaled by 2**300, the octahedron keeps the unit one's key but
        leaves the range a configuration accepts: it answers 422 while
        the unit query is in flight, and never joins it.  Scaled by
        2**180 it is in range and shares the unit answer."""
        unit = SymmetricityQuery(points=OCTAHEDRON)
        near = SymmetricityQuery(points=tuple(
            tuple(c * 2.0 ** 180 for c in row) for row in OCTAHEDRON))
        far = SymmetricityQuery(points=tuple(
            tuple(c * 2.0 ** 300 for c in row) for row in OCTAHEDRON))
        expected = canonical_result_text(evaluate_query(unit))
        assert canonical_result_text(evaluate_query(near)) == expected
        gate = _GatedDispatcher(expected=2)
        before = _metrics.registry().snapshot()["counters"]
        with _ServerThread(ServeConfig(queue_depth=4, deadline_s=120),
                           dispatcher=gate) as st:
            gate.server = st.server
            host, port = st.address
            results = {}

            def ask(name, query):
                with ServeClient(host, port) as client:
                    results[name] = client.query(query)

            first = threading.Thread(target=ask, args=("unit", unit))
            first.start()
            # The gate holds the unit query until a second is admitted.
            while st.server._admitted < 1:
                time.sleep(0.005)
            with ServeClient(host, port) as client:
                with pytest.raises(ServiceError) as info:
                    client.query(far)
            assert info.value.status == 422
            assert "too large" in str(info.value)
            second = threading.Thread(target=ask, args=("near", near))
            second.start()
            for thread in (first, second):
                thread.join(timeout=120)
        after = _metrics.registry().snapshot()["counters"]
        delta = _serve_delta(before, after)
        assert gate.dispatches == 1
        assert delta["serve.coalesced"] == 1
        assert delta["serve.completed"] == 2
        assert delta["serve.errors"] == 1
        assert {canonical_result_text(r) for r in results.values()} == \
            {expected}
        assert results["near"].cache["served"]["coalesced"]


class _SlowDispatcher:
    def __init__(self, delay_s):
        self.delay_s = delay_s

    async def dispatch(self, wire):
        await asyncio.sleep(self.delay_s)
        return {"status": 200,
                "result": {"wire_schema": 1, "schema_version": 1,
                           "kind": "symmetricity", "verdict": "T",
                           "groups": {}, "explanation": "",
                           "payload": {}, "cache": {}, "timing": {}}}

    def close(self):
        pass


class _HeldDispatcher:
    """Holds each computation until the test sets :attr:`release`,
    then answers it as a worker would; counts what happened to it."""

    def __init__(self):
        self.entered = asyncio.Event()
        self.release = asyncio.Event()
        self.dispatches = 0
        self.completed = 0
        self.cancelled = 0

    async def dispatch(self, wire):
        from repro.serve.worker import run_query_task

        self.dispatches += 1
        self.entered.set()
        try:
            await self.release.wait()
        except asyncio.CancelledError:
            self.cancelled += 1
            raise
        self.completed += 1
        return run_query_task(wire)

    def close(self):
        pass


class TestBackpressureAndDeadlines:
    def test_queue_depth_exhaustion_is_429(self):
        before = _metrics.registry().snapshot()["counters"]
        with _ServerThread(ServeConfig(queue_depth=1, deadline_s=30),
                           dispatcher=_SlowDispatcher(1.5)) as st:
            host, port = st.address
            first_status = {}

            def slow_ask():
                with ServeClient(host, port) as client:
                    result = client.query(
                        SymmetricityQuery(points="cube"))
                    first_status["verdict"] = result.verdict

            t = threading.Thread(target=slow_ask)
            t.start()
            time.sleep(0.4)  # let the first request occupy the slot
            with ServeClient(host, port) as client:
                with pytest.raises(ServiceError) as info:
                    client.query(SymmetricityQuery(points="octagon"))
            assert info.value.status == 429
            t.join(timeout=60)
        assert first_status["verdict"] == "T"
        after = _metrics.registry().snapshot()["counters"]
        assert _serve_delta(before, after)["serve.rejected"] == 1

    def test_deadline_is_504_and_computation_survives(self):
        before = _metrics.registry().snapshot()["counters"]
        with _ServerThread(ServeConfig(queue_depth=4, deadline_s=0.3),
                           dispatcher=_SlowDispatcher(1.2)) as st:
            host, port = st.address
            with ServeClient(host, port) as client:
                with pytest.raises(ServiceError) as info:
                    client.query(SymmetricityQuery(points="cube"))
            assert info.value.status == 504
            # The shielded computation still completes and fills the
            # in-flight slot's cache entry; wait for it to finish so
            # drain has nothing to cut short.
            time.sleep(1.2)
        after = _metrics.registry().snapshot()["counters"]
        assert _serve_delta(before, after)["serve.timeouts"] == 1

    def test_deadline_racing_a_coalesced_completion(self):
        """The first waiter's deadline passes while the computation it
        dispatched is held: 504.  A sibling that joined the computation
        with a longer deadline gets its 200 once it is released; the
        computation is never cancelled, and its in-flight entry goes
        when it completes.  Events order every step; only the first
        waiter's deadline reads the clock."""
        query = SymmetricityQuery(points=OCTAHEDRON)
        expected = canonical_result_text(evaluate_query(query))
        body = json.dumps(encode_query(query)).encode("utf-8")
        reg = _metrics.registry()

        def ask(server):
            return asyncio.ensure_future(server._handle_query(
                HttpRequest(method="POST", path="/v1/query", body=body)))

        async def race():
            gate = _HeldDispatcher()
            server = QueryServer(ServeConfig(queue_depth=4,
                                             deadline_s=0.05),
                                 dispatcher=gate)
            before = reg.snapshot()["counters"]
            first = ask(server)
            await gate.entered.wait()
            server.config = dataclasses.replace(server.config,
                                                deadline_s=120.0)
            second = ask(server)
            status, payload = await first
            assert status == 504, payload
            assert "deadline" in payload["error"]
            (computation,) = server._inflight.values()
            assert not computation.done() and not second.done()
            assert server._admitted == 1
            mid = reg.snapshot()["counters"]
            gate.release.set()
            answer = await second
            after = reg.snapshot()["counters"]
            return (gate, server, computation, answer,
                    _serve_delta(before, mid), _serve_delta(mid, after))

        gate, server, computation, (status, response), raced, finished = \
            asyncio.run(race())
        assert raced == {"serve.requests": 2, "serve.dispatched": 1,
                         "serve.coalesced": 1, "serve.timeouts": 1}
        assert finished == {"serve.completed": 1}
        assert status == 200, response
        assert response.pop("served")["coalesced"] is True
        assert canonical_result_text(decode_result(response)) == expected
        assert (gate.dispatches, gate.completed, gate.cancelled) == (1, 1, 0)
        assert computation.done() and not computation.cancelled()
        assert server._inflight == {}
        assert server._admitted == 0

    def test_draining_server_refuses_new_queries(self):
        with _ServerThread(ServeConfig()) as st:
            host, port = st.address
            st.server._draining = True
            with ServeClient(host, port) as client:
                with pytest.raises(ServiceError) as info:
                    client.query(SymmetricityQuery(points="cube"))
            assert info.value.status == 503
            st.server._draining = False


def _shm_segments() -> set:
    """POSIX shared-memory segments this platform names ``psm_*``."""
    return {path.name for path in Path("/dev/shm").glob("psm_*")}


class TestPoolDrain:
    @pytest.mark.skipif(not Path("/dev/shm").is_dir(),
                        reason="needs /dev/shm to list segments")
    def test_pool_serving_leaves_no_workers_or_segments(self):
        before = _shm_segments()
        with _ServerThread(ServeConfig(workers=1,
                                       queue_depth=8)) as st:
            host, port = st.address
            with ServeClient(host, port) as client:
                for offset in (0.0, 3.0):
                    points = tuple(tuple(c + offset for c in row)
                                   for row in OCTAHEDRON)
                    result = client.query(
                        SymmetricityQuery(points=points))
                    assert result.verdict == "O"
            # Each worker keeps its L2 store in its own memory: serving
            # creates no shared-memory segment at all.
            assert _shm_segments() - before == set()
        # Drain happened in __exit__: pool workers are joined.
        assert _shm_segments() - before == set()
        for child in multiprocessing.active_children():
            child.join(timeout=5)
            assert not child.is_alive()

    def test_close_answers_queued_queries_503(self, tmp_path,
                                               monkeypatch):
        # One worker holds the first query until the close has
        # cancelled what is still queued.  The executor's call queue
        # takes two more, so the last of four is still queued at the
        # close whatever a query costs: it answers 503, while the held
        # one finishes normally.
        from repro.api import ExperimentSpec
        from repro.serve.dispatch import Dispatcher
        from repro.serve.protocol import encode_query
        from tests.serve.held_worker import (
            close_while_first_query_holds, held_query_task)

        monkeypatch.setattr("repro.serve.worker.run_query_task",
                            held_query_task)
        gate = tmp_path / "gate"
        wire = encode_query(RunQuery(name="lemma7",
                                     spec=ExperimentSpec(trials=4)))

        async def main():
            return await close_while_first_query_holds(
                Dispatcher(workers=1),
                [dict(wire, hold=str(gate)), wire, wire, wire], gate)

        outcomes = asyncio.run(main())
        statuses = [outcome.status if isinstance(outcome, ServiceError)
                    else outcome["status"] for outcome in outcomes]
        assert statuses[0] == 200
        assert statuses[-1] == 503

    def test_dead_worker_fails_fast_and_reports_broken(self):
        deadline_s = 5.0
        known = {child.pid for child in multiprocessing.active_children()}
        with _ServerThread(ServeConfig(workers=1,
                                       deadline_s=deadline_s)) as st:
            host, port = st.address
            with ServeClient(host, port) as client:
                assert client.query(
                    SymmetricityQuery(points="cube")).verdict == "O"
                (worker,) = [child for child
                             in multiprocessing.active_children()
                             if child.pid not in known]
                os.kill(worker.pid, signal.SIGKILL)
                for points in ("octahedron", "icosahedron"):
                    started = time.monotonic()
                    with pytest.raises(ServiceError) as info:
                        client.query(SymmetricityQuery(points=points))
                    assert info.value.status == 500
                    assert time.monotonic() - started < deadline_s / 5
                health = client.health()
        assert health["status"] == "broken"

    def test_health_and_metrics_endpoints(self):
        with _ServerThread(ServeConfig(queue_depth=7)) as st:
            host, port = st.address
            with ServeClient(host, port) as client:
                health = client.health()
                assert health["status"] == "ok"
                assert health["queue_depth"] == 7
                client.query(SymmetricityQuery(points="cube"))
                metrics = client.metrics()
        assert metrics["serve"]["counters"]["serve.completed"] >= 1
        assert "cache" in metrics
