"""Property: the event-driven backoff countdown matches per-slot polling.

One MAC (RMAC or plain 802.11 DCF) at node 0 counts down through random
busy schedules made by two radios without a MAC: a jammer at node 1
(data frames aborted after a chosen duration, or whole RTS frames
addressed to node 0 for the DCF, which answers with a CTS while its
backoff is pending) and a tone emitter at node 2 (RBT on/off). Every
transition is queued less than a slot ahead, as the PHY's are (see
``repro.mac.backoff``). Busy periods include
blips shorter than a slot, 19 us RBT blips (RMAC's ``Twf_rdata``),
transitions landing exactly on a slot boundary, and, for the DCF, NAV
extensions and the DIFS re-phasing after every blip.

The same plan runs twice, once with :class:`SlottedCountdown` and once
with the per-slot reference of ``tests/mac/polling_backoff.py``. Probes
every 7 us read the BI a per-slot countdown would show, whether a
countdown is pending, and whether the node is suspended waiting for
idle; the probe logs, the full traces (suspensions and transmission
starts) and the final BI must be identical.
"""

from hypothesis import given, settings, strategies as st

from repro.core import RmacConfig, RmacProtocol
from repro.mac.addresses import BROADCAST
from repro.mac.backoff import Backoff, SlottedCountdown
from repro.mac.dot11 import Dot11Config, Dot11Dcf
from repro.mac.frames import DataFrame, RtsFrame
from repro.phy.busytone import ToneType
from repro.phy.params import DEFAULT_PHY
from repro.sim.units import MS, US
from repro.world.testbed import MacTestbed

from tests.mac.polling_backoff import PollingCountdown, install_polling

SLOT = DEFAULT_PHY.slot_time
JAMMER, EMITTER = 1, 2
COORDS = [(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)]
HORIZON = 8 * MS
PROBE_STEP = 7 * US


def effective_bi(mac) -> int:
    """BI as a per-slot countdown shows it after the boundaries so far.

    Probes are queued before anything else, so a probe at a boundary
    runs before that boundary's tick under either countdown.
    """
    countdown = mac._countdown
    if isinstance(countdown, PollingCountdown) or countdown._hop is None:
        return mac.backoff.bi
    passed = (countdown.sim.now - countdown._t0 - 1) // countdown.slot
    return countdown._b0 - passed


def _link_delay(tb, src: int) -> int:
    return {link.node: link.delay_ns
            for link in tb.neighbors.table_from(src, 0).links}[0]


def run_plan(protocol: str, plan, polling: bool):
    seed, preset_bi, sends, busy = plan
    tb = MacTestbed(coords=COORDS, seed=seed, trace=True)
    if protocol == "rmac":
        mac = RmacProtocol(0, tb.sim, tb.radios[0], tb.node_rng(0),
                           RmacConfig(phy=tb.phy), tracer=tb.tracer)
    else:
        mac = Dot11Dcf(0, tb.sim, tb.radios[0], tb.node_rng(0),
                       Dot11Config(phy=tb.phy), tracer=tb.tracer)
    mac.start()
    if polling:
        install_polling(mac)
    mac.backoff.bi = preset_bi
    sim = tb.sim
    probes = []

    def probe():
        probes.append((sim.now, effective_bi(mac), mac._countdown.scheduled,
                       mac._idle_wait_pending,
                       mac.state.value if protocol == "rmac" else mac.in_txn))

    for t in range(0, HORIZON, PROBE_STEP):  # first: lowest sequence numbers
        sim.at(t, probe)
    for t in sends:
        sim.at(t, lambda: mac.send_unreliable(BROADCAST, "pkt", 60))

    jammer = tb.radios[JAMMER]
    tone = tb.tones[ToneType.RBT]

    def data_blip(duration):
        if jammer.is_transmitting:
            return
        tx = jammer.transmit(DataFrame(src=JAMMER, dst=7, seq=0,
                                       payload_bytes=1500, reliable=False))
        sim.after(duration, lambda: jammer.abort(tx)
                  if jammer.current_tx() is tx else None)

    def rts_to_node0(duration):
        if not jammer.is_transmitting:
            jammer.transmit(RtsFrame(JAMMER, 0, aux=max(1, duration // US)))

    def tone_blip(duration):
        if tone.is_emitting(EMITTER):
            return
        tone.turn_on(EMITTER)
        sim.after(duration, lambda: tone.turn_off(EMITTER))

    def nav(duration):
        # A NAV update arrives with a received frame, in an event queued
        # a propagation delay ahead; queue this one 1 ns ahead likewise.
        sim.after(1, lambda: mac._update_nav(
            RtsFrame(JAMMER, EMITTER, aux=duration // US)))

    actions = {"data": data_blip, "rts": rts_to_node0, "rbt": tone_blip,
               "nav": nav}
    # Offsets are relative to node 0's slot boundaries, so shift by the
    # propagation delay: offset 0 lands the transition exactly on one.
    delays = {"data": _link_delay(tb, JAMMER), "rts": _link_delay(tb, JAMMER),
              "rbt": _link_delay(tb, EMITTER), "nav": 1}
    for kind, at, duration in busy:
        sim.at(max(0, at - delays[kind]),
               lambda act=actions[kind], d=duration: act(d))
    tb.run(HORIZON)
    trace = [(e.time, e.node, e.kind, e.detail) for e in tb.tracer.events]
    return probes, trace, effective_bi(mac), sim.events_processed


durations = (st.sampled_from([1, 19 * US, SLOT - 1, SLOT, SLOT + 1])
             | st.integers(min_value=1, max_value=SLOT - 1)
             | st.integers(min_value=SLOT, max_value=2 * MS))
offsets = st.sampled_from([0, 1, SLOT - 1]) | st.integers(0, SLOT - 1)


def plans(kinds):
    @st.composite
    def plan(draw):
        seed = draw(st.integers(min_value=0, max_value=10_000))
        preset_bi = draw(st.integers(min_value=0, max_value=150))
        sends = sorted(draw(st.lists(st.integers(min_value=0, max_value=2 * MS),
                                     min_size=1, max_size=3)))
        busy = []
        for _ in range(draw(st.integers(min_value=0, max_value=14))):
            kind = draw(st.sampled_from(kinds))
            anchor = draw(st.sampled_from(sends))
            slots = draw(st.integers(min_value=0, max_value=150))
            busy.append((kind, anchor + slots * SLOT + draw(offsets),
                         draw(durations)))
        return seed, preset_bi, sends, busy
    return plan()


def _assert_same(protocol, plan):
    probes, trace, final_bi, events = run_plan(protocol, plan, polling=False)
    ref_probes, ref_trace, ref_final_bi, ref_events = run_plan(
        protocol, plan, polling=True)
    assert probes == ref_probes
    assert trace == ref_trace
    assert final_bi == ref_final_bi
    assert events <= ref_events


@settings(max_examples=60, deadline=None)
@given(plan=plans(("data", "rbt")))
def test_rmac_countdown_matches_polling(plan):
    _assert_same("rmac", plan)


@settings(max_examples=60, deadline=None)
@given(plan=plans(("data", "nav", "rts")))
def test_dcf_countdown_matches_polling(plan):
    _assert_same("dot11", plan)


def test_blip_between_boundaries_is_invisible_and_one_on_a_boundary_is_seen():
    """A 19 us RBT blip that ends before the next boundary never pauses
    RMAC; one still present at a boundary suspends it, under both."""
    quiet = (5, 40, [1 * MS], [("rbt", 1 * MS + 3 * SLOT + 500, 19 * US)])
    seen = (5, 40, [1 * MS], [("rbt", 1 * MS + 3 * SLOT - 500, 19 * US)])
    for plan, suspended in ((quiet, False), (seen, True)):
        _, trace, _, _ = run_plan("rmac", plan, polling=False)
        suspensions = [t for t, node, kind, detail in trace
                       if node == 0 and kind == "state"
                       and detail == {"frm": "BACKOFF", "to": "IDLE"}]
        # The kick counts 40 -> 39 at 1 ms; the blip is the only thing
        # that can pause the countdown before it expires.
        assert (suspensions[:1] == [1 * MS + 3 * SLOT]) is suspended
        assert suspensions[0] > 1 * MS + 39 * SLOT or suspended
        _assert_same("rmac", plan)


def run_own_transmissions(plan, polling: bool):
    """A bare countdown whose tick senses only the data channel, while
    its own radio transmits at random: no MAC built on the countdown
    transmits while counting, but the component must still see it."""
    seed, preset_bi, starts, sends = plan
    tb = MacTestbed(coords=COORDS, seed=seed)
    sim, channel = tb.sim, tb.data_channel
    backoff = Backoff(tb.node_rng(0))
    log = []

    def tick():
        if channel.busy(0):
            log.append((sim.now, "suspend", backoff.bi))
            channel.notify_idle(0, lambda: countdown.schedule(SLOT))
            return
        backoff.bi -= 1
        if backoff.bi:
            countdown.next_slot()
        else:
            log.append((sim.now, "expire", 0))

    cls = PollingCountdown if polling else SlottedCountdown
    countdown = cls(sim, backoff, SLOT, 0, tick, tb.radios[0].busy_hooks(),
                    "test-pump")

    def start():
        if not countdown.scheduled and not channel.busy(0):
            backoff.bi = preset_bi
            countdown.schedule(0)

    def transmit(duration):
        radio = tb.radios[0]
        if not radio.is_transmitting:
            tx = radio.transmit(DataFrame(src=0, dst=7, seq=0,
                                          payload_bytes=1500, reliable=False))
            sim.after(duration, lambda: radio.abort(tx))

    for t in starts:
        sim.at(t, start)
    for at, duration in sends:
        sim.at(at, lambda d=duration: transmit(d))
    tb.run(HORIZON)
    return log


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100),
       preset_bi=st.integers(min_value=1, max_value=120),
       starts=st.lists(st.integers(min_value=0, max_value=4 * MS),
                       min_size=1, max_size=4),
       sends=st.lists(st.tuples(st.integers(min_value=0, max_value=4 * MS),
                                durations), max_size=8))
def test_own_transmission_interrupts_like_polling(seed, preset_bi, starts, sends):
    plan = (seed, preset_bi, starts, sends)
    log = run_own_transmissions(plan, polling=False)
    assert log == run_own_transmissions(plan, polling=True)
