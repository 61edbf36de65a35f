"""Unit tests for the micro-batching flush policy.

The batcher is clock-free (callers pass ``now``), so every size/age trigger
is exercised here deterministically, with no sleeps and no threads.
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
            MicroBatcher(max_batch_size=0, max_wait_s=1.0)

    def test_negative_wait(self):
        with pytest.raises(ValueError, match="max_wait_s"):
            MicroBatcher(max_batch_size=4, max_wait_s=-0.1)


class TestGrouping:
    def test_entries_group_by_key(self):
        batcher = MicroBatcher(max_batch_size=8, max_wait_s=1.0)
        a, b = _key("robot-a"), _key("robot-b")
        for i in range(3):
            batcher.add(_entry(a, float(i)))
        batcher.add(_entry(b, 0.0))
        assert batcher.pending_count == 4

        # Everything aged out: one batch per group, then nothing.
        batches = [batcher.pop_one(now=100.0), batcher.pop_one(now=100.0)]
        assert {batch.key for batch in batches} == {a, b}
        sizes = {batch.key: len(batch) for batch in batches}
        assert sizes[a] == 3 and sizes[b] == 1
        assert batcher.pop_one(now=100.0) is None
        assert batcher.pending_count == 0

    def test_distinct_solver_or_config_splits_groups(self):
        base = _key("robot")
        other_solver = GroupKey("robot", "JT-DLS", None, ())
        other_options = GroupKey("robot", "JT-Speculation", None,
                                 (("speculations", "8"),))
        assert len({base, other_solver, other_options}) == 3


class TestSizeTrigger:
    def test_full_group_flushes_immediately(self):
        batcher = MicroBatcher(max_batch_size=3, max_wait_s=1000.0)
        key = _key("robot")
        for i in range(3):
            assert not batcher.has_ready(now=0.0)
            batcher.add(_entry(key, 0.0, tag=i))
        assert batcher.has_ready(now=0.0)

        batch = batcher.pop_one(now=0.0)
        assert [e.request for e in batch.entries] == [0, 1, 2]
        assert batcher.pending_count == 0

    def test_backlog_chunked_to_full_batches_partial_left(self):
        batcher = MicroBatcher(max_batch_size=3, max_wait_s=1000.0)
        key = _key("robot")
        for i in range(7):
            batcher.add(_entry(key, 0.0, tag=i))

        batches = [batcher.pop_one(now=0.0), batcher.pop_one(now=0.0)]
        assert [len(b) for b in batches] == [3, 3]
        assert [e.request for b in batches for e in b.entries] == list(range(6))
        # The trailing partial chunk is not size-ready; it waits for age.
        assert batcher.pop_one(now=0.0) is None
        assert batcher.pending_count == 1
        assert not batcher.has_ready(now=0.0)


class TestAgeTrigger:
    def test_lone_request_flushes_after_max_wait(self):
        batcher = MicroBatcher(max_batch_size=32, max_wait_s=2.0)
        batcher.add(_entry(_key("robot"), 10.0))
        assert not batcher.has_ready(now=11.9)
        assert batcher.has_ready(now=12.0)

        assert batcher.pop_one(now=11.9) is None
        batch = batcher.pop_one(now=12.0)
        assert len(batch) == 1

    def test_aged_group_pops_one_full_chunk_per_call(self):
        # Once the oldest request ages out, one call takes at most a full
        # batch; the rest waits until its own head ages out.
        batcher = MicroBatcher(max_batch_size=3, max_wait_s=2.0)
        key = _key("robot")
        for i in range(5):
            batcher.add(_entry(key, 10.0 + 0.1 * i, tag=i))
        batch = batcher.pop_one(now=12.0)
        assert [e.request for e in batch.entries] == [0, 1, 2]
        assert batcher.pop_one(now=12.0) is None
        batch = batcher.pop_one(now=13.0)
        assert [e.request for e in batch.entries] == [3, 4]
        assert batcher.pending_count == 0

    def test_next_flush_at_is_earliest_group_deadline(self):
        batcher = MicroBatcher(max_batch_size=32, max_wait_s=2.0)
        assert batcher.next_flush_at() is None
        batcher.add(_entry(_key("a"), 10.0))
        batcher.add(_entry(_key("b"), 5.0))
        assert batcher.next_flush_at() == pytest.approx(7.0)

    def test_zero_wait_means_always_ready(self):
        batcher = MicroBatcher(max_batch_size=32, max_wait_s=0.0)
        batcher.add(_entry(_key("robot"), 10.0))
        assert batcher.has_ready(now=10.0)
        batch = batcher.pop_one(now=10.0)
        assert len(batch) == 1


class TestOrderingAndDrain:
    def test_batches_pop_oldest_first_across_groups(self):
        batcher = MicroBatcher(max_batch_size=32, max_wait_s=1.0)
        batcher.add(_entry(_key("late"), 20.0, tag="late"))
        batcher.add(_entry(_key("early"), 10.0, tag="early"))
        batches = [batcher.pop_one(now=100.0), batcher.pop_one(now=100.0)]
        assert [b.entries[0].request for b in batches] == ["early", "late"]

    def test_force_pops_unready_groups(self):
        batcher = MicroBatcher(max_batch_size=32, max_wait_s=1000.0)
        batcher.add(_entry(_key("robot"), 0.0))
        assert not batcher.has_ready(now=0.0)
        assert batcher.pop_one(now=0.0) is None
        batch = batcher.pop_one(now=0.0, force=True)
        assert len(batch) == 1 and batcher.pending_count == 0

    def test_drain_returns_arrival_order_across_groups(self):
        batcher = MicroBatcher(max_batch_size=32, max_wait_s=1000.0)
        batcher.add(_entry(_key("a"), 1.0, tag=1))
        batcher.add(_entry(_key("b"), 0.0, tag=0))
        batcher.add(_entry(_key("a"), 2.0, tag=2))
        drained = batcher.drain()
        assert [e.request for e in drained] == [0, 1, 2]
        assert batcher.pending_count == 0
        assert batcher.next_flush_at() is None
