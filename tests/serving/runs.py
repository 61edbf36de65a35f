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


def _idle(server) -> bool:
    """Nothing queued and no run or micro-batch in flight.

    A dispatch loop counts itself in flight from the moment it takes a
    queue (under the server lock that also guards the queue) until its
    run has ended, so an idle server holds no open run.  ``execute_s``
    cannot tell: a live run adds to it at every iteration boundary.
    """
    with server._cond:
        return not server._inflight and not server._batcher.pending_count


@contextlib.contextmanager
def run_ends(server, timeout: float = RUN_END_TIMEOUT_S):
    """``with run_ends(srv): ...`` returns only once every run (or
    micro-batch) the block's requests went into has ended: it waits for
    ``srv`` to be idle, and raises :class:`TimeoutError` after
    ``timeout`` seconds.
    """
    yield
    deadline = time.monotonic() + timeout
    while not _idle(server):
        if time.monotonic() > deadline:
            raise TimeoutError(f"no served run ended within {timeout} s")
        time.sleep(0.001)
