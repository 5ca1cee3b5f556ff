"""Formation-as-a-service: the asyncio query server over ``repro.api``.

The paper's central artifact is a *decidable question* — is pattern
``F`` formable from ``P``, i.e. does ``ϱ(P) ⊆ ϱ(F)`` hold (Theorem
1.1)?  This package serves that question, plus ``γ(P)``/``ϱ(P)``
classification and full experiment runs, to many concurrent clients
as a long-running service:

* :mod:`repro.serve.protocol` — the versioned wire form of the typed
  query records (:class:`repro.api.FormabilityQuery` & friends) and
  the congruence-digest coalescing keys;
* :mod:`repro.serve.http` — a minimal HTTP/1.1 layer over
  ``asyncio.start_server`` (stdlib only, no new runtime deps);
* :mod:`repro.serve.worker` — the query task (one
  :func:`repro.api.evaluate_query` per request);
* :mod:`repro.serve.dispatch` — one ``loop.run_in_executor`` call
  that keeps CPU-bound kernels off the event loop: on the server's
  threads, or on the one process pool of
  :func:`repro.perf.parallel.process_pool`;
* :mod:`repro.serve.server` — queue-depth backpressure (429),
  per-request deadlines (504), congruence-keyed coalescing of
  in-flight queries, ``serve.*`` metrics, per-request trace spans and
  graceful drain on SIGTERM;
* :mod:`repro.serve.client` — the blocking client behind
  ``repro query … --server`` and the smoke/benchmark harness.

See ``docs/SERVICE.md`` for the protocol and operational contract.
"""

from __future__ import annotations

from repro.serve.client import ServeClient
from repro.serve.protocol import (
    WIRE_SCHEMA_VERSION,
    decode_query,
    decode_result,
    encode_query,
    encode_result,
    query_key,
)
from repro.serve.server import QueryServer, ServeConfig, serve_main

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "QueryServer",
    "ServeClient",
    "ServeConfig",
    "decode_query",
    "decode_result",
    "encode_query",
    "encode_result",
    "query_key",
    "serve_main",
]
