"""The query task: one ``evaluate_query`` per served query.

:func:`run_query_task` is the task the serve dispatcher runs through
:func:`repro.perf.parallel.worker_task` — in a pool worker process
for ``workers>0``, on a server thread for ``workers=0`` — so both
dispatch paths produce the same bytes for the same query.  It is a
module-level callable (it crosses the process boundary by pickling)
that decodes one wire query, answers it through the one façade
evaluator, and returns the wire result.

Error taxonomy: :class:`repro.errors.ReproError` means the *query*
was bad or unanswerable (unknown pattern, robot-count mismatch,
unsupported schema) — the task catches it and returns a structured
error payload the server maps to 422.  Anything else is a *server*
bug and propagates, surfacing as the task's failed outcome → 500.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ReproError

__all__ = ["run_query_task"]


def run_query_task(wire: Mapping[str, Any]) -> dict:
    """Decode, evaluate and re-encode one wire query in-process.

    Returns ``{"status": 200, "result": wire_result}`` on success and
    ``{"status": 422, "error": message}`` for invalid queries.
    """
    from repro.api import evaluate_query
    from repro.serve.protocol import decode_query, encode_result

    try:
        return {"status": 200,
                "result": encode_result(evaluate_query(decode_query(wire)))}
    except ReproError as exc:
        return {"status": 422, "error": str(exc)}
