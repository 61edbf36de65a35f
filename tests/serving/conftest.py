"""Shared fixtures for the serving tests."""

from __future__ import annotations

import contextlib

import pytest

from repro.serving import MicroBatcher


@pytest.fixture
def hold_dispatch():
    """``with hold_dispatch(srv): ...`` keeps ``srv``'s dispatch loops from
    taking a queue for the length of the block.

    Every queued request is due at once, so a test that needs requests to
    share one batch, or to still be queued when it closes the server,
    submits them inside the block; leaving it wakes the loops.  Work a
    loop already holds is not paused: a live run still admits its own
    key's queued requests at its next iteration.  Close with
    ``drain=True`` only after leaving the block, since a held loop never
    takes the queue it would drain.
    """
    held = False
    pop_one = MicroBatcher.pop_one

    def gated(self, exclude=()):
        return None if held else pop_one(self, exclude)

    @contextlib.contextmanager
    def hold(srv):
        nonlocal held
        held = True
        try:
            yield srv
        finally:
            held = False
            with srv._cond:
                srv._cond.notify_all()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MicroBatcher, "pop_one", gated)
        yield hold
