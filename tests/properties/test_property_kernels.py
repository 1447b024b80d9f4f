"""Property tests: the event heap matches a pure-Python reference.

The reference below is the specification of event order: a plain list
kept sorted by ``(time, seq)``, where a cancel removes the entry at
once. The engine's heap (lazy cancellation, compaction, the inlined run
loop) must be indistinguishable from it. Each test drives both through
the same randomized program and asserts identical observable behavior
-- execution order, fired subset, clock values. The full-stack
counterpart is ``tools/fingerprints.py``; here hypothesis explores the
scheduling corner cases (same-tick ties, cancellations, ``call_soon``
re-entry, ``until``/``max_events``) directly at the engine API.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator


class _ReferenceHandle:
    def __init__(self, sim, entry):
        self._sim = sim
        self._entry = entry

    def cancel(self):
        if self._entry in self._sim.queue:
            self._sim.queue.remove(self._entry)


class ReferenceSimulator:
    """A sorted list of ``(time, seq, callback)``; no laziness at all."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self.queue = []
        self._seq = 0

    def at(self, time, callback, label=""):
        entry = (time, self._seq, callback)
        self._seq += 1
        self.queue.append(entry)
        self.queue.sort(key=lambda e: (e[0], e[1]))
        return _ReferenceHandle(self, entry)

    def after(self, delay, callback, label=""):
        return self.at(self.now + delay, callback, label)

    def call_soon(self, callback, label=""):
        return self.at(self.now, callback, label)

    def run(self, until=None, max_events=None):
        executed = 0
        while self.queue:
            if until is not None and self.queue[0][0] > until:
                break
            if max_events is not None and executed >= max_events:
                break
            time, _, callback = self.queue.pop(0)
            self.now = time
            self.events_processed += 1
            executed += 1
            callback()
        if until is not None and self.now < until:
            self.now = until
        return self.now


#: Times biased toward ties (a handful of distinct ticks) plus a spread.
interesting_times = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10**9),
)


def run_program(sim, schedule, cancel_mask, nested_delays):
    """One deterministic program: absolute schedules (some cancelled),
    each firing optionally re-scheduling relative follow-ups and a
    same-time ``call_soon``."""
    log = []
    handles = []

    def fire(tag, followups):
        log.append((sim.now, tag))
        for j, delay in enumerate(followups):
            sim.after(delay, lambda t=f"{tag}+f{j}": log.append((sim.now, t)),
                      label="nested")
        if followups:
            sim.call_soon(lambda t=f"{tag}+soon": log.append((sim.now, t)))

    for i, t in enumerate(schedule):
        followups = nested_delays if i % 3 == 0 else []
        handles.append(sim.at(t, lambda i=i, f=tuple(followups): fire(i, f),
                              label="root"))
    for handle, cancel in zip(handles, cancel_mask):
        if cancel:
            handle.cancel()
    sim.run()
    return log, sim.now, sim.events_processed


@settings(max_examples=60, deadline=None)
@given(schedule=st.lists(interesting_times, min_size=1, max_size=25),
       cancel_mask=st.lists(st.booleans(), min_size=25, max_size=25),
       nested_delays=st.lists(st.integers(min_value=0, max_value=10**6),
                              min_size=0, max_size=3))
def test_heap_matches_reference_order(schedule, cancel_mask, nested_delays):
    heap = run_program(Simulator(), schedule, cancel_mask, nested_delays)
    reference = run_program(ReferenceSimulator(), schedule, cancel_mask,
                            nested_delays)
    assert heap == reference


@settings(max_examples=40, deadline=None)
@given(schedule=st.lists(interesting_times, min_size=1, max_size=20),
       cancel_mask=st.lists(st.booleans(), min_size=20, max_size=20),
       until=interesting_times,
       max_events=st.one_of(st.none(), st.integers(min_value=0, max_value=12)))
def test_until_and_max_events_agree(schedule, cancel_mask, until, max_events):
    """Horizon and budget cut the heap and the reference at the same
    event; a second unbounded run completes identically from the cut."""
    results = []
    for sim in (Simulator(), ReferenceSimulator()):
        log = []
        handles = [sim.at(t, lambda i=i: log.append((sim.now, i)))
                   for i, t in enumerate(schedule)]
        for handle, cancel in zip(handles, cancel_mask):
            if cancel:
                handle.cancel()
        sim.run(until=until, max_events=max_events)
        cut = (list(log), sim.now, sim.events_processed)
        sim.run()
        results.append((cut, list(log), sim.now))
    assert results[0] == results[1]


@settings(max_examples=40, deadline=None)
@given(times=st.lists(interesting_times, min_size=1, max_size=15),
       horizon=interesting_times)
def test_clock_advances_on_drain(times, horizon):
    """run(until=...) that outlives the queue parks the clock exactly at
    the horizon."""
    ends = []
    for sim in (Simulator(), ReferenceSimulator()):
        for t in times:
            sim.at(t, lambda: None)
        end = sim.run(until=horizon)
        # The return value is the clock, never short of the horizon.
        assert end == sim.now >= horizon
        ends.append((end, sim.events_processed))
    assert ends[0] == ends[1]
