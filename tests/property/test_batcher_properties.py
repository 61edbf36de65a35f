"""Property tier: the serving layer's per-key request queues.

:class:`~repro.serving.batcher.MicroBatcher` is a plain FIFO per
compatibility key in which every entry is due at once.  Random sequences
of ``add`` / ``take`` / ``pop_one(exclude)`` / ``drain`` run against a
naive reference, one list of every queued entry in arrival order:

* order is FIFO within a key;
* ``pop_one`` takes the key whose head arrived first among the keys not
  excluded, and at most ``max_batch_size`` of its entries;
* ``pending_count`` is exact after every call;
* ``drain`` returns every entry in arrival order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.batcher import GroupKey, MicroBatcher, PendingEntry

KEYS = [GroupKey(f"robot-{i}", "JT-Speculation", None, ()) for i in range(4)]

keys = st.sampled_from(KEYS)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), keys),
        st.tuples(st.just("take"), keys, st.integers(min_value=0, max_value=6)),
        st.tuples(st.just("pop"), st.frozensets(keys)),
        st.tuples(st.just("drain")),
    ),
    max_size=80,
)


@given(max_batch_size=st.integers(min_value=1, max_value=5), ops=operations)
@settings(max_examples=200, deadline=None)
def test_queues_match_a_list_reference(max_batch_size, ops):
    batcher = MicroBatcher(max_batch_size)
    #: Every queued entry, oldest first (arrival times strictly increase).
    model: list[PendingEntry] = []
    arrivals = 0

    def take(key, count):
        mine = [e for e in model if e.key == key][:max(count, 0)]
        for entry in mine:
            model.remove(entry)
        return mine

    for op, *args in ops:
        if op == "add":
            (key,) = args
            entry = PendingEntry(
                request=arrivals, chain=None, key=key, target=None, q0=None,
                future=None, enqueue_t=float(arrivals),
            )
            arrivals += 1
            batcher.add(entry)
            model.append(entry)
        elif op == "take":
            key, count = args
            assert batcher.take(key, count) == take(key, count)
        elif op == "pop":
            (exclude,) = args
            allowed = [e for e in model if e.key not in exclude]
            assert batcher.has_queued(exclude=exclude) == bool(allowed)
            batch = batcher.pop_one(exclude=exclude)
            if not allowed:
                assert batch is None
            else:
                # The oldest entry outside ``exclude`` names the key.
                key = allowed[0].key
                assert batch.key == key
                assert batch.entries == take(key, max_batch_size)
                assert 1 <= len(batch) <= max_batch_size
        else:
            assert batcher.drain() == model
            model.clear()
        assert batcher.pending_count == len(model)

    assert batcher.drain() == model
    assert batcher.pending_count == 0
    assert batcher.pop_one() is None
