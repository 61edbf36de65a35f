"""Waiting for a served run to end.

A lock-step run completes a retired row's future before it takes its
key's next wave, so a client that submits again as soon as its result
arrives may join the run that is still open.  A test that needs each
sequential request to open its own run (one ``batches`` per request, or
a fixed event order in a trace) submits the next one only after the last
run has ended.
"""

from __future__ import annotations

import contextlib
import time

#: How long :func:`run_ends` waits for a run to end.
RUN_END_TIMEOUT_S = 60.0


@contextlib.contextmanager
def run_ends(server, timeout: float = RUN_END_TIMEOUT_S):
    """``with run_ends(srv): ...`` returns only after one of ``srv``'s runs
    (or micro-batches) has ended since the block began.

    A run's end adds its lifetime to ``stats().execute_s``, so the wait
    polls for that sum to advance; it raises :class:`TimeoutError` after
    ``timeout`` seconds.
    """
    before = server.stats().execute_s
    yield
    deadline = time.monotonic() + timeout
    while server.stats().execute_s == before:
        if time.monotonic() > deadline:
            raise TimeoutError(f"no served run ended within {timeout} s")
        time.sleep(0.001)
