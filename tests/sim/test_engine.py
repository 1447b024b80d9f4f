"""The discrete-event core: ordering, cancellation, run control."""

import pytest

from repro.sim.engine import FastEvent, SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.at(30, lambda: fired.append("c"))
    sim.at(10, lambda: fired.append("a"))
    sim.at(20, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.at(5, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == list("abcde")


def test_after_is_relative_to_now():
    sim = Simulator()
    times = []
    sim.at(100, lambda: sim.after(50, lambda: times.append(sim.now)))
    sim.run()
    assert times == [150]


def test_call_soon_runs_at_current_time_after_peers():
    sim = Simulator()
    fired = []
    def first():
        fired.append("first")
        sim.call_soon(lambda: fired.append("soon"))
    sim.at(10, first)
    sim.at(10, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "second", "soon"]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_cancellation_skips_event():
    sim = Simulator()
    fired = []
    handle = sim.at(10, lambda: fired.append("no"))
    sim.at(20, lambda: fired.append("yes"))
    handle.cancel()
    sim.run()
    assert fired == ["yes"]
    assert handle.cancelled and not handle.fired


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.at(1, lambda: None)
    sim.run()
    assert handle.fired
    handle.cancel()  # should not raise
    assert handle.fired


def test_cancel_after_fire_does_not_mark_cancelled():
    sim = Simulator()
    handle = sim.at(1, lambda: None, label="late-cancel")
    sim.run()
    handle.cancel()
    assert handle.fired and not handle.cancelled and not handle.pending
    assert "fired" in repr(handle)  # repr reports what actually happened


def test_handle_pending_lifecycle():
    sim = Simulator()
    handle = sim.at(5, lambda: None)
    assert handle.pending
    sim.run()
    assert not handle.pending and handle.fired


def test_run_until_advances_clock_even_when_queue_drains():
    sim = Simulator()
    sim.at(10, lambda: None)
    assert sim.run(until=1000) == 1000
    assert sim.now == 1000


def test_run_until_leaves_future_events():
    sim = Simulator()
    fired = []
    sim.at(10, lambda: fired.append(1))
    sim.at(100, lambda: fired.append(2))
    sim.run(until=50)
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


def test_run_until_boundary_inclusive():
    sim = Simulator()
    fired = []
    sim.at(50, lambda: fired.append(1))
    sim.run(until=50)
    assert fired == [1]


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(i, lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_events_processed_counts():
    sim = Simulator()
    for i in range(5):
        sim.at(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    handles = [sim.at(i, lambda: None) for i in range(4)]
    handles[0].cancel()
    handles[2].cancel()
    assert sim.pending_count() == 2


def test_run_not_reentrant():
    sim = Simulator()
    def reenter():
        with pytest.raises(SimulationError):
            sim.run()
    sim.at(1, reenter)
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []
    def chain(n):
        fired.append(n)
        if n < 5:
            sim.after(10, lambda: chain(n + 1))
    sim.at(0, lambda: chain(0))
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


class _Probe(FastEvent):
    """Minimal schedule_many payload used by the tests below."""

    __slots__ = ("log", "tag")

    label = "probe-event"

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def __call__(self):
        self.log.append(self.tag)


def test_schedule_many_fires_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule_many([(30, _Probe(log, "c")), (10, _Probe(log, "a")),
                       (20, _Probe(log, "b"))])
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 30


def test_schedule_many_ties_interleave_with_handles_by_insertion():
    sim = Simulator()
    log = []
    sim.at(5, lambda: log.append("handle-1"))
    sim.schedule_many([(5, _Probe(log, "fast"))])
    sim.at(5, lambda: log.append("handle-2"))
    sim.run()
    assert log == ["handle-1", "fast", "handle-2"]


def test_schedule_many_rejects_past_times_atomically():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    log = []
    with pytest.raises(SimulationError):
        sim.schedule_many([(150, _Probe(log, "ok")), (50, _Probe(log, "past"))])
    # Atomic: a bad entry anywhere in the batch leaves the queue untouched,
    # even for valid pairs that preceded it.
    assert sim.pending_count() == 0
    sim.run()
    assert log == []


def test_schedule_many_validates_before_consuming_generator():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    log = []
    entries = ((t, _Probe(log, t)) for t in (150, 50, 200))
    with pytest.raises(SimulationError):
        sim.schedule_many(entries)
    assert sim.pending_count() == 0


def test_schedule_many_counts_and_labels_in_telemetry():
    from repro.sim.telemetry import Telemetry

    sim = Simulator()
    telemetry = Telemetry().attach(sim)
    log = []
    sim.schedule_many([(i, _Probe(log, i)) for i in range(4)])
    sim.run()
    assert sim.events_processed == 4
    assert telemetry.label_counts == {"probe-event": 4}


def test_schedule_many_via_step():
    sim = Simulator()
    log = []
    sim.schedule_many([(10, _Probe(log, "x"))])
    assert sim.step() is True
    assert log == ["x"] and sim.now == 10


def test_schedule_fast_and_many_interleave_with_handles():
    """FastEvent pushes (schedule_fast / schedule_many) share the seq
    stream with handle scheduling: ties break by overall insertion."""
    sim = Simulator()
    log = []
    sim.at(100, lambda: log.append("handle-a"))
    sim.schedule_fast(100, _Probe(log, "fast"))
    sim.schedule_many([(100, _Probe(log, "many-1")),
                       (100, _Probe(log, "many-2"))])
    sim.at(100, lambda: log.append("handle-b"))
    sim.run()
    assert log == ["handle-a", "fast", "many-1", "many-2", "handle-b"]


def test_run_until_does_not_consume_cancelled_beyond_horizon():
    """A cancelled entry whose firing time is beyond ``until`` must stay
    in the heap untouched -- back-to-back ``run`` calls compose."""
    sim = Simulator()
    fired = []
    sim.at(10, lambda: fired.append("early"))
    handle = sim.at(1_000_000, lambda: fired.append("cancelled"))
    handle.cancel()
    sim.at(1_000_001, lambda: fired.append("late"))
    sim.run(until=100)
    # The cancelled entry was not popped: it is still stored and counted.
    assert sim._cancelled == 1 and len(sim._heap) == 2
    assert fired == ["early"]
    sim.run()
    assert fired == ["early", "late"]
    assert sim._cancelled == 0


def test_compaction_keeps_survivors_and_order():
    """Cancelling most of a large batch triggers compaction; the
    survivors still fire exactly in time order."""
    sim = Simulator()
    fired = []
    handles = [sim.at(i * 1000, lambda i=i: fired.append(i))
               for i in range(2000)]
    for i, handle in enumerate(handles):
        if i % 10:
            handle.cancel()
    # Compaction must have pruned the bulk of the cancelled entries.
    assert sim._cancelled < 1800
    assert len(sim._heap) < 2000
    assert sim.queue_depth == 200
    sim.run()
    assert fired == [i for i in range(2000) if not i % 10]
    assert sim._cancelled == 0 and sim.queue_depth == 0


def test_compaction_inside_a_callback_keeps_the_run_loop_consistent():
    """A sweep triggered mid-run rewrites the heap the loop is draining;
    the loop must keep seeing it (in-place rebuild)."""
    sim = Simulator()
    fired = []
    handles = [sim.at(i * 1000, lambda i=i: fired.append(i))
               for i in range(1, 2001)]

    def cancel_most():
        for i, handle in enumerate(handles, start=1):
            if i % 10:
                handle.cancel()

    sim.at(0, cancel_most)
    sim.run()
    assert fired == [i for i in range(1, 2001) if not i % 10]
    assert sim._cancelled == 0 and not sim._heap


def test_live_depth_matches_pending_during_run():
    sim = Simulator()
    depths = []
    for i in range(10):
        sim.at(i * 5000, lambda: depths.append(sim.queue_depth))
    sim.run()
    assert depths == [9 - i for i in range(10)]


def test_telemetry_depth_excludes_cancelled():
    from repro.sim.telemetry import Telemetry

    sim = Simulator()
    telemetry = Telemetry(heap_sample_interval=1)
    telemetry.attach(sim)
    for i in range(6):
        sim.at(i * 3000, lambda: None, label="tick")
    handle = sim.at(50_000, lambda: None)
    handle.cancel()
    sim.run()
    report = telemetry.report(sim)
    assert report.heap_depth_last == 0
    # Cancelled entries never count toward sampled depth.
    assert report.heap_depth_max <= 6


def test_max_events_and_resume():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(i * 1000, lambda i=i: fired.append(i))
    sim.run(max_events=4)
    assert fired == list(range(4)) and sim.now == 3000
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_until_on_drain():
    sim = Simulator()
    sim.at(5, lambda: None)
    assert sim.run(until=10**12) == 10**12
    assert sim.now == 10**12


def test_cannot_schedule_before_horizon_after_run_until():
    """A drained ``run(until=...)`` moves ``now`` to the horizon, so a
    time between the last event and the horizon is already the past."""
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run(until=1000)
    with pytest.raises(SimulationError):
        sim.at(500, lambda: None)
    sim.at(1000, lambda: None)


def test_same_time_ties_queued_mid_run_fire_after_earlier_ties():
    """A same-time event scheduled from a handler fires after every
    same-time event that was already queued, then in insertion order."""
    sim = Simulator()
    fired = []
    for i in range(8):
        sim.at(100, lambda i=i: fired.append(i))
    sim.at(100, lambda: sim.after(0, lambda: fired.append("late")), label="spawn")
    for i in range(8, 12):
        sim.at(100, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(12)) + ["late"]
    assert sim.now == 100
