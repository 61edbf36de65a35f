"""Unit tests for the per-key request queues.

The batcher reads no clock and every queued entry is due at once, so its
behaviour is exercised here deterministically, with no sleeps and no
threads.  ``tests/property/test_batcher_properties.py`` checks random
call sequences against a list model.
"""

from __future__ import annotations

import pytest

from repro.serving import GroupKey, MicroBatcher, PendingEntry


def _key(tag: str) -> GroupKey:
    return GroupKey(robot_key=tag, solver="JT-Speculation",
                    config_key=None, options_key=())


def _entry(key: GroupKey, t: float, tag: object = None) -> PendingEntry:
    return PendingEntry(request=tag, chain=None, key=key, target=None,
                        q0=None, future=None, enqueue_t=t)


class TestValidation:
    def test_max_batch_size_floor(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(max_batch_size=0)


class TestGrouping:
    def test_entries_group_by_key(self):
        batcher = MicroBatcher(max_batch_size=8)
        a, b = _key("robot-a"), _key("robot-b")
        for i in range(3):
            batcher.add(_entry(a, float(i)))
        batcher.add(_entry(b, 0.0))
        assert batcher.pending_count == 4

        # One batch per key, then nothing.
        batches = [batcher.pop_one(), batcher.pop_one()]
        assert {batch.key for batch in batches} == {a, b}
        sizes = {batch.key: len(batch) for batch in batches}
        assert sizes[a] == 3 and sizes[b] == 1
        assert batcher.pop_one() is None
        assert batcher.pending_count == 0

    def test_distinct_solver_or_config_splits_groups(self):
        base = _key("robot")
        other_solver = GroupKey("robot", "JT-DLS", None, ())
        other_options = GroupKey("robot", "JT-Speculation", None,
                                 (("speculations", "8"),))
        assert len({base, other_solver, other_options}) == 3


class TestDueAtOnce:
    def test_request_on_an_idle_key_pops_at_once(self):
        batcher = MicroBatcher(max_batch_size=32)
        batcher.add(_entry(_key("robot"), 10.0, tag="lone"))
        batch = batcher.pop_one()
        assert [e.request for e in batch.entries] == ["lone"]
        assert batcher.pending_count == 0

    def test_backlog_pops_in_max_batch_size_chunks(self):
        batcher = MicroBatcher(max_batch_size=3)
        key = _key("robot")
        for i in range(7):
            batcher.add(_entry(key, 0.0, tag=i))
        batches = [batcher.pop_one() for _ in range(3)]
        assert [len(b) for b in batches] == [3, 3, 1]
        assert [e.request for b in batches for e in b.entries] == list(range(7))
        assert batcher.pop_one() is None

    def test_excluded_key_is_left_for_its_run(self):
        batcher = MicroBatcher(max_batch_size=8)
        live, other = _key("live"), _key("other")
        batcher.add(_entry(live, 0.0, tag="joiner"))
        assert batcher.pop_one(exclude={live}) is None
        assert not batcher.has_queued(exclude={live})
        batcher.add(_entry(other, 1.0, tag="other"))
        assert batcher.has_queued(exclude={live})
        assert batcher.pop_one(exclude={live}).key == other
        # The live run takes its own key's requests.
        assert [e.request for e in batcher.take(live, 8)] == ["joiner"]
        assert batcher.pending_count == 0


class TestOrderingAndDrain:
    def test_batches_pop_oldest_first_across_groups(self):
        batcher = MicroBatcher(max_batch_size=32)
        batcher.add(_entry(_key("late"), 20.0, tag="late"))
        batcher.add(_entry(_key("early"), 10.0, tag="early"))
        batches = [batcher.pop_one(), batcher.pop_one()]
        assert [b.entries[0].request for b in batches] == ["early", "late"]

    def test_drain_returns_arrival_order_across_groups(self):
        batcher = MicroBatcher(max_batch_size=32)
        batcher.add(_entry(_key("a"), 1.0, tag=1))
        batcher.add(_entry(_key("b"), 0.0, tag=0))
        batcher.add(_entry(_key("a"), 2.0, tag=2))
        drained = batcher.drain()
        assert [e.request for e in drained] == [0, 1, 2]
        assert batcher.pending_count == 0
        assert batcher.pop_one() is None
