"""Self-time arithmetic and wrapper install/remove of the span tracer."""

import threading

import pytest

from perfbench.tracing import Instrumentation, Recorder, Span, layer_totals, self_times


class ScriptedClock:
    """Returns the scripted times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def span(index, name, start, end, parent=None, thread=0):
    s = Span(index, name, start, parent, thread, {})
    s.end = end
    return s


def test_nested_self_time_subtracts_children():
    spans = [
        span(0, "api", 0.0, 10.0),
        span(1, "engine", 1.0, 9.0, parent=0),
        span(2, "fk", 2.0, 5.0, parent=1),
        span(3, "fk", 6.0, 8.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 2.0])


def test_cross_thread_children_overlap_counts_once():
    # A tick on thread 1 whose work runs on threads 2 and 3 at once: the
    # children overlap on [3, 6] and one outlives the parent; only the
    # union inside the parent counts.
    spans = [
        span(0, "tick", 0.0, 10.0, thread=1),
        span(1, "batch", 2.0, 6.0, parent=0, thread=2),
        span(2, "batch", 3.0, 12.0, parent=0, thread=3),
    ]
    assert self_times(spans) == pytest.approx([2.0, 4.0, 9.0])


def test_layer_totals_sum_calls_self_time_and_rows():
    spans = [
        span(0, "engine", 0.0, 4.0),
        span(1, "fk", 1.0, 2.0, parent=0),
        span(2, "fk", 2.0, 3.5, parent=0),
    ]
    spans[1].attrs["rows"] = 64
    spans[2].attrs["rows"] = 32
    totals = layer_totals(spans)
    assert totals["engine"]["calls"] == 1
    assert totals["engine"]["self_s"] == pytest.approx(1.5)
    assert totals["fk"]["calls"] == 2
    assert totals["fk"]["self_s"] == pytest.approx(2.5)
    assert totals["fk"]["rows"] == 96


def test_recorder_parents_follow_the_thread_stack():
    recorder = Recorder(clock=ScriptedClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    with recorder.span("outer"):
        with recorder.span("inner", rows=3):
            pass
        tick = recorder.open("tick")
    recorder.close(tick)
    outer, inner, tick = recorder.spans
    assert inner.parent == outer.index
    assert inner.attrs == {"rows": 3}
    assert tick.parent == outer.index
    assert [outer.duration, inner.duration, tick.duration] == [4.0, 1.0, 2.0]


def test_recorder_stacks_are_per_thread():
    recorder = Recorder()
    seen = {}
    with recorder.span("main"):
        def worker():
            with recorder.span("other") as other:
                seen["parent"] = other.parent
                seen["thread"] = other.thread

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen["parent"] is None
    assert seen["thread"] != recorder.spans[0].thread


def test_instrumentation_records_layers_and_restores_originals():
    import numpy as np

    from repro.kinematics.chain import KinematicChain
    from repro.kinematics.robots import named_robot

    original = KinematicChain.__dict__["end_positions_batch"]
    chain = named_robot("dadu-12dof")
    recorder = Recorder()
    with Instrumentation(recorder):
        chain.end_positions_batch(np.zeros((5, chain.dof)))
        chain.end_position(np.zeros(chain.dof))
    chain.end_positions_batch(np.zeros((2, chain.dof)))
    assert KinematicChain.__dict__["end_positions_batch"] is original
    assert [(s.name, s.attrs) for s in recorder.spans] == [
        ("kinematics.fk_batch", {"rows": 5}),
        ("kinematics.fk_single", {}),
    ]
