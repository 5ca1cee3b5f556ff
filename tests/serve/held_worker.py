"""Helpers for ``test_server.py::TestPoolDrain``: a query task that
holds its pool worker on a gate file, and the close that opens it."""

import asyncio
import time
from pathlib import Path

from repro.serve.worker import run_query_task


def held_query_task(wire):
    """:func:`run_query_task`, except that a query whose wire names a
    ``hold`` gate file first marks itself started and then holds its
    worker until the gate file exists."""
    gate = wire.get("hold")
    if gate is not None:
        Path(f"{gate}.started").touch()
        while not Path(gate).exists():
            time.sleep(0.01)
        wire = {key: value for key, value in wire.items()
                if key != "hold"}
    return run_query_task(wire)


async def close_while_first_query_holds(dispatcher, queries, gate):
    """Dispatch ``queries``; once the first one holds its worker, close
    ``dispatcher`` on a thread — so that the loop sees the queued
    queries answer while the first still holds — and open ``gate``
    when the last query has answered.  Returns every outcome."""
    tasks = [asyncio.ensure_future(dispatcher.dispatch(query))
             for query in queries]
    try:
        await asyncio.wait_for(_until(Path(f"{gate}.started").exists),
                               timeout=60)
        closing = asyncio.ensure_future(
            asyncio.to_thread(dispatcher.close))
        await asyncio.wait(tasks[-1:], timeout=60)
    finally:
        Path(gate).touch()
    await asyncio.wait_for(closing, timeout=60)
    return await asyncio.gather(*tasks, return_exceptions=True)


async def _until(condition):
    while not condition():
        await asyncio.sleep(0.01)
