"""The shared data channel.

Models GloMoSim-style frame transmission with:

* per-link propagation delay (distance / c, bounded by the paper's
  tau = 1 us for ranges under 300 m);
* carrier sense via per-node busy counters maintained by arrival events;
* the overlap collision model: a reception is corrupted if any other
  sensed transmission overlaps it at the receiver, if the receiver itself
  transmits during it, if the sender aborts mid-frame (RMAC's
  abort-on-RBT), or if the bit-error model corrupts it;
* abortable transmissions (truncated frames shorten the busy interval
  and are never delivered).

Two optional refinements of the overlap rule, mutually exclusive:

* **capture** (``capture_threshold_db``): an overlapping frame survives
  when its power beats every interferer by the margin;
* **SINR** (``sinr``, a :class:`repro.phy.sinr.SinrState`): every
  arrival's power accumulates in a per-node interference tracker, and
  delivery is decided at arrival end from the signal-to-(peak
  interference + noise) ratio. Capture is the single-interferer special
  case of SINR, so configuring both raises a
  :class:`~repro.sim.engine.SimulationError`. With SINR's interference
  accounting *off*, the classic overlap rule applies and the SINR check
  reduces to signal-vs-noise (behaviorally identical to the threshold
  path under a permissive threshold -- property-tested).

The channel is protocol-agnostic: RMAC, 802.11 DCF, BMMM and BMW all
run on the same instance.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Sequence

from repro.phy.error import BitErrorModel, NoErrors
from repro.phy.neighbors import Link, NeighborService
from repro.phy.params import PhyParams
from repro.sim.engine import EventHandle, FastEvent, SimulationError, Simulator
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.injector import FaultInjector
    from repro.phy.sinr import SinrState


class ChannelListener(Protocol):
    """Callbacks a radio receives from the data channel."""

    def on_frame_received(self, frame: object, sender: int) -> None:
        """A frame arrived intact."""

    def on_frame_error(self, sender: int) -> None:
        """A frame arrived but was corrupted (collision/abort/bit errors)."""

    def on_rx_start(self, sender: int) -> None:
        """The first bit of a decodable frame is arriving (RMAC's
        ``Twf_rdata`` cancels on this)."""

    def on_tx_complete(self, frame: object, aborted: bool) -> None:
        """This node's own transmission finished (or was aborted)."""


class Transmission:
    """One in-flight frame transmission."""

    __slots__ = ("sender", "frame", "start", "airtime", "links", "aborted_at", "_end_event")

    def __init__(self, sender: int, frame: object, start: int, airtime: int, links: Sequence[Link]):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.airtime = airtime
        self.links = links
        self.aborted_at: Optional[int] = None
        self._end_event: Optional[EventHandle] = None

    @property
    def end(self) -> int:
        """Actual end of the transmission (scheduled end, or abort time)."""
        return self.aborted_at if self.aborted_at is not None else self.start + self.airtime

    @property
    def aborted(self) -> bool:
        return self.aborted_at is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " aborted" if self.aborted else ""
        return f"<Transmission from {self.sender} [{self.start}..{self.end}]{flag}>"


class _Reception:
    __slots__ = ("tx", "corrupted", "power_dbm", "signal_mw", "peak_itf_mw")

    def __init__(self, tx: Transmission, corrupted: bool, power_dbm=None):
        self.tx = tx
        self.corrupted = corrupted
        self.power_dbm = power_dbm
        #: SINR mode only: the arrival's linear signal power and the
        #: highest concurrent interference observed during the reception
        #: window (peaks only move when new signals arrive).
        self.signal_mw = 0.0
        self.peak_itf_mw = 0.0


class DataChannel:
    """The shared wideband data channel."""

    def __init__(
        self,
        sim: Simulator,
        neighbors: NeighborService,
        phy: PhyParams,
        error_model: Optional[BitErrorModel] = None,
        rng: Optional[random.Random] = None,
        tracer: Tracer = NULL_TRACER,
        capture_threshold_db: Optional[float] = None,
        faults: Optional["FaultInjector"] = None,
        sinr: Optional["SinrState"] = None,
    ):
        if capture_threshold_db is not None and sinr is not None:
            raise SimulationError(
                "capture_threshold_db and SINR reception are mutually "
                "exclusive: capture is the single-interferer special case "
                "of SINR (set sinr_threshold_db instead)")
        self._sim = sim
        self._neighbors = neighbors
        self._phy = phy
        self._error_model = error_model or NoErrors()
        #: NoErrors never consults the RNG, so delivery can skip the call
        #: entirely without perturbing anyone's random stream.
        self._error_free = type(self._error_model) is NoErrors
        self._rng = rng or random.Random(0)
        self._tracer = tracer
        #: Optional fault injector (see repro.faults). ``None`` keeps the
        #: arrival paths on a single ``is None`` test; with an injector,
        #: crashed endpoints suppress deliveries entirely and fades or
        #: corruption windows turn deliveries into frame errors.
        self._faults = faults if faults is not None and faults.affects_data else None
        #: Capture effect (extension): when set, an overlapping frame
        #: survives if its received power beats every interferer by this
        #: many dB. Requires a propagation model that reports power
        #: (LogDistanceModel). None = the paper's all-overlaps-collide
        #: model. Late capture (a strong frame arriving mid-reception of
        #: a weak one) kills the weak reception; the strong one survives
        #: only if it clears the margin over all concurrent signals.
        self.capture_threshold_db = capture_threshold_db
        #: Optional SINR reception state (see repro.phy.sinr). ``None``
        #: keeps the arrival hot paths on a single ``is None`` test --
        #: the same zero-cost-when-disabled discipline as ``faults``.
        self._sinr = sinr
        #: node -> {transmission: power_dbm} of signals currently in the
        #: air at that node (capture mode only).
        self._signal_powers: Dict[int, Dict[Transmission, float]] = {}
        self._busy: Dict[int, int] = {}
        self._receiving: Dict[int, Dict[Transmission, _Reception]] = {}
        self._transmitting: Dict[int, Transmission] = {}
        self._listeners: Dict[int, ChannelListener] = {}
        #: When each node last observed the medium become idle (for DIFS).
        self._last_busy_end: Dict[int, int] = {}
        #: One-shot callbacks fired when a node's medium goes idle (used by
        #: the MACs to avoid per-slot polling through long busy periods).
        self._idle_waiters: Dict[int, list] = {}
        #: node -> callback fired whenever the node's medium may have gone
        #: from idle to busy: its busy count leaves zero, or it starts
        #: transmitting. The backoff countdown registers here only while
        #: it counts (see repro.mac.backoff); callbacks may only schedule.
        self._busy_watchers: Dict[int, Callable[[], None]] = {}
        #: Free lists of fired arrival events, reused across transmissions
        #: so the per-link fan-out allocates nothing in steady state.
        self._start_pool: List[_ArrivalStart] = []
        self._end_pool: List[_ArrivalEnd] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, node: int, listener: ChannelListener) -> None:
        """Register the listener (radio) for ``node``."""
        self._listeners[node] = listener

    @property
    def phy(self) -> PhyParams:
        return self._phy

    @property
    def neighbors(self) -> NeighborService:
        return self._neighbors

    @property
    def sinr(self) -> Optional["SinrState"]:
        """The SINR reception state, or None on the threshold path."""
        return self._sinr

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def busy(self, node: int) -> bool:
        """Carrier sense at ``node``: any sensed transmission, or own tx.

        ``_busy`` only ever stores positive counts (zero deletes the key,
        underflow raises), so membership is the whole test.
        """
        return node in self._busy or node in self._transmitting

    def is_transmitting(self, node: int) -> bool:
        return node in self._transmitting

    def idle_duration(self, node: int) -> int:
        """How long the medium has been continuously idle at ``node`` (ns).

        Zero while busy. Used by the 802.11-family DIFS rule; RMAC does
        not need it (no interframe spaces).
        """
        if self.busy(node):
            return 0
        return self._sim.now - self._last_busy_end.get(node, 0)

    def notify_idle(self, node: int, callback) -> None:
        """Register a one-shot callback for the next busy->idle transition
        at ``node``. Fires immediately (synchronously) if already idle."""
        if not self.busy(node):
            callback()
            return
        self._idle_waiters.setdefault(node, []).append(callback)

    def _fire_idle(self, node: int) -> None:
        waiters = self._idle_waiters.pop(node, None)
        if waiters:
            for callback in waiters:
                callback()

    def current_tx(self, node: int) -> Optional[Transmission]:
        return self._transmitting.get(node)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, sender: int, frame: object) -> Transmission:
        """Start transmitting ``frame`` (with ``size_bytes``) from ``sender``."""
        if sender in self._transmitting:
            raise RuntimeError(f"node {sender} is already transmitting")
        now = self._sim.now
        airtime = self._phy.frame_airtime(frame.size_bytes)  # type: ignore[attr-defined]
        links = self._neighbors.table_from(sender, now).links
        tx = Transmission(sender, frame, now, airtime, links)
        self._transmitting[sender] = tx
        watcher = self._busy_watchers.get(sender)
        if watcher is not None:
            watcher()
        # Transmitting while receiving destroys the ongoing receptions
        # (half-duplex radio).
        ongoing = self._receiving.get(sender)
        if ongoing:
            for rec in ongoing.values():
                rec.corrupted = True
        pool = self._start_pool
        entries = []
        for link in links:
            if pool:
                event = pool.pop()
                event.tx = tx
                event.link = link
            else:
                event = _ArrivalStart(self, tx, link)
            entries.append((now + link.delay_ns, event))
        self._sim.schedule_many(entries)
        tx._end_event = self._sim.at(now + airtime, lambda: self._finish_tx(tx), label="tx-end")
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(now, sender, "tx-start", frame=str(frame), airtime=airtime)
        return tx

    def abort(self, tx: Transmission) -> None:
        """Abort an in-flight transmission (RMAC's abort-on-RBT).

        The truncated frame is never delivered; nodes that had begun
        receiving it see a frame error at the truncated end time.
        """
        if tx.aborted:
            return
        if self._transmitting.get(tx.sender) is not tx:
            raise RuntimeError("cannot abort: transmission is not active")
        now = self._sim.now
        tx.aborted_at = now
        if tx._end_event is not None:
            tx._end_event.cancel()
            tx._end_event = None
        del self._transmitting[tx.sender]
        if self._busy.get(tx.sender, 0) == 0:
            self._last_busy_end[tx.sender] = now
            self._fire_idle(tx.sender)
        self._schedule_arrival_ends(tx, now)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(now, tx.sender, "tx-abort", frame=str(tx.frame))
        listener = self._listeners.get(tx.sender)
        if listener is not None:
            listener.on_tx_complete(tx.frame, aborted=True)

    def _finish_tx(self, tx: Transmission) -> None:
        del self._transmitting[tx.sender]
        tx._end_event = None
        end = self._sim.now
        if self._busy.get(tx.sender, 0) == 0:
            self._last_busy_end[tx.sender] = end
            self._fire_idle(tx.sender)
        self._schedule_arrival_ends(tx, end)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(end, tx.sender, "tx-end", frame=str(tx.frame))
        listener = self._listeners.get(tx.sender)
        if listener is not None:
            listener.on_tx_complete(tx.frame, aborted=False)

    def _schedule_arrival_ends(self, tx: Transmission, end: int) -> None:
        """Fan the per-link arrival-end events out in one batch."""
        pool = self._end_pool
        entries = []
        for link in tx.links:
            if pool:
                event = pool.pop()
                event.tx = tx
                event.link = link
            else:
                event = _ArrivalEnd(self, tx, link)
            entries.append((end + link.delay_ns, event))
        self._sim.schedule_many(entries)

    # ------------------------------------------------------------------
    # Arrival bookkeeping (driven by scheduled events)
    # ------------------------------------------------------------------
    def _arrival_start(self, tx: Transmission, link: Link) -> None:
        if self._sinr is not None:
            self._arrival_start_sinr(tx, link, self._sinr)
            return
        node = link.node
        prior = self._busy.get(node, 0)
        self._busy[node] = prior + 1
        if not prior:
            watcher = self._busy_watchers.get(node)
            if watcher is not None:
                watcher()
        ongoing = self._receiving.setdefault(node, {})
        corrupted = False
        power = link.power_dbm
        if self.capture_threshold_db is not None and power is not None:
            signals = self._signal_powers.setdefault(node, {})
            if prior > 0:
                threshold = self.capture_threshold_db
                # The newcomer corrupts receptions it is not dominated by.
                for rec in ongoing.values():
                    if rec.power_dbm is None or (
                        rec.power_dbm - power < threshold
                    ):
                        rec.corrupted = True
                if len(signals) < prior:
                    # Some concurrent signal has no reported power (mixed
                    # power/no-power links): dominance cannot be proven,
                    # so the newcomer falls back to colliding.
                    corrupted = True
                else:
                    # The newcomer survives only if it dominates every signal.
                    strongest = max(signals.values(), default=-1e9)
                    corrupted = power - strongest < threshold
            signals[tx] = power
        elif prior > 0:
            # Overlap: this arrival collides with everything already in the
            # air at this node, and vice versa (the paper's model; also the
            # behavior of a no-power link when capture is enabled, since a
            # power-less arrival cannot win a power comparison).
            for rec in ongoing.values():
                rec.corrupted = True
            corrupted = True
        if node in self._transmitting:
            corrupted = True
        if link.in_rx_range:
            faults = self._faults
            if faults is not None and faults.suppresses_delivery(
                    tx.sender, node, self._sim.now):
                # A crashed endpoint: the energy above still interferes,
                # but no reception begins -- to this receiver the frame
                # does not exist (no on_rx_start, nothing at arrival end).
                return
            ongoing[tx] = _Reception(tx, corrupted, link.power_dbm)
            listener = self._listeners.get(node)
            if listener is not None:
                listener.on_rx_start(tx.sender)

    def _arrival_start_sinr(self, tx: Transmission, link: Link,
                            sinr: "SinrState") -> None:
        """Arrival start under SINR reception.

        Mirrors :meth:`_arrival_start` with three changes: busy counters
        move only for *sensed* links (interference-only links are
        invisible to the radio), every arrival's linear power lands in
        the interference tracker (bumping the peak interference of any
        ongoing reception at the node), and -- with interference
        accounting on -- overlap alone no longer corrupts: the SINR
        decision at arrival end replaces the boolean rule.
        """
        node = link.node
        power_dbm = link.power_dbm
        # Power-mode links always carry power; so do classic links now
        # that every model reports one (base-class fallback).
        power_mw = 10.0 ** (power_dbm / 10.0)  # type: ignore[operator]
        fading = sinr.fading
        if fading is not None:
            power_mw *= fading.gain(sinr.rng)
        sensed = link.sensed
        if sensed:
            prior = self._busy.get(node, 0)
            self._busy[node] = prior + 1
            if not prior:
                watcher = self._busy_watchers.get(node)
                if watcher is not None:
                    watcher()
        else:
            prior = 0
        ongoing = self._receiving.setdefault(node, {})
        corrupted = False
        if sinr.interference:
            total = sinr.tracker.add(node, tx, power_mw)
            if ongoing:
                for rec in ongoing.values():
                    itf = total - rec.signal_mw
                    if itf > rec.peak_itf_mw:
                        rec.peak_itf_mw = itf
            initial_itf = total - power_mw
        else:
            initial_itf = 0.0
            if prior > 0:
                # Interference accounting off: the paper's overlap rule.
                for rec in ongoing.values():
                    rec.corrupted = True
                corrupted = True
        if node in self._transmitting:
            corrupted = True
        if link.in_rx_range:
            faults = self._faults
            if faults is not None and faults.suppresses_delivery(
                    tx.sender, node, self._sim.now):
                return
            rec = _Reception(tx, corrupted, power_dbm)
            rec.signal_mw = power_mw
            rec.peak_itf_mw = initial_itf
            ongoing[tx] = rec
            listener = self._listeners.get(node)
            if listener is not None:
                listener.on_rx_start(tx.sender)

    def _arrival_end(self, tx: Transmission, link: Link) -> None:
        if self._sinr is not None:
            self._arrival_end_sinr(tx, link, self._sinr)
            return
        node = link.node
        if self.capture_threshold_db is not None:
            signals = self._signal_powers.get(node)
            if signals is not None:
                signals.pop(tx, None)
        busy = self._busy
        count = busy.get(node)
        if count is None or count < 0:
            # An end without a matching start means arrival bookkeeping
            # lost or duplicated an event; inventing a count here would
            # silently mask it. Fail loudly instead.
            self._tracer.emit(
                self._sim.now, node, "channel-underflow", sender=tx.sender
            )
            raise SimulationError(
                f"busy-counter underflow at node {node}: arrival-end from "
                f"sender {tx.sender} at t={self._sim.now} without a "
                f"matching arrival-start"
            )
        count -= 1
        if count:
            busy[node] = count
        else:
            del busy[node]
            if node not in self._transmitting:
                self._last_busy_end[node] = self._sim.now
                self._fire_idle(node)
        ongoing = self._receiving.get(node)
        rec = ongoing.pop(tx, None) if ongoing else None
        if rec is None:
            return
        listener = self._listeners.get(node)
        if listener is None:
            return
        frame = tx.frame
        size = frame.size_bytes  # type: ignore[attr-defined]
        faults = self._faults
        if faults is not None:
            now = self._sim.now
            if faults.suppresses_delivery(tx.sender, node, now):
                # An endpoint crashed since the arrival began: the frame
                # vanishes (no rx callback at all, matching a receiver
                # that never registered the reception).
                if self._tracer.enabled:
                    self._tracer.emit(now, node, "fault-rx-dropped",
                                      sender=tx.sender)
                return
            if not rec.corrupted and faults.corrupts_arrival(
                    tx.sender, node, now, self._rng):
                rec.corrupted = True
                if self._tracer.enabled:
                    self._tracer.emit(now, node, "fault-corrupt",
                                      sender=tx.sender)
        ok = (
            not rec.corrupted
            and not tx.aborted
            and (self._error_free or not self._error_model.corrupts(size, self._rng))
        )
        tracer = self._tracer
        if ok:
            if tracer.enabled:
                tracer.emit(self._sim.now, node, "rx-ok", frame=str(frame), sender=tx.sender)
            listener.on_frame_received(frame, tx.sender)
        else:
            if tracer.enabled:
                tracer.emit(self._sim.now, node, "rx-error", frame=str(frame), sender=tx.sender)
            listener.on_frame_error(tx.sender)

    def _arrival_end_sinr(self, tx: Transmission, link: Link,
                          sinr: "SinrState") -> None:
        """Arrival end under SINR reception (mirrors :meth:`_arrival_end`).

        The delivery decision adds one clause: the reception must clear
        the SINR threshold against the peak interference observed during
        its window. SINR-dropped frames skip the bit-error draw (like
        collided frames on the classic path), so the RNG stream is
        identical when the SINR clause never fires.
        """
        node = link.node
        if sinr.interference:
            sinr.tracker.remove(node, tx)
        if link.sensed:
            busy = self._busy
            count = busy.get(node)
            if not count or count < 0:
                self._tracer.emit(
                    self._sim.now, node, "channel-underflow", sender=tx.sender
                )
                raise SimulationError(
                    f"busy-counter underflow at node {node}: arrival-end "
                    f"from sender {tx.sender} at t={self._sim.now} without "
                    f"a matching arrival-start"
                )
            count -= 1
            if count:
                busy[node] = count
            else:
                del busy[node]
                if node not in self._transmitting:
                    self._last_busy_end[node] = self._sim.now
                    self._fire_idle(node)
        ongoing = self._receiving.get(node)
        rec = ongoing.pop(tx, None) if ongoing else None
        if rec is None:
            return
        listener = self._listeners.get(node)
        if listener is None:
            return
        frame = tx.frame
        size = frame.size_bytes  # type: ignore[attr-defined]
        faults = self._faults
        if faults is not None:
            now = self._sim.now
            if faults.suppresses_delivery(tx.sender, node, now):
                if self._tracer.enabled:
                    self._tracer.emit(now, node, "fault-rx-dropped",
                                      sender=tx.sender)
                return
            if not rec.corrupted and faults.corrupts_arrival(
                    tx.sender, node, now, self._rng):
                rec.corrupted = True
                if self._tracer.enabled:
                    self._tracer.emit(now, node, "fault-corrupt",
                                      sender=tx.sender)
        tracer = self._tracer
        reception = sinr.reception
        sinr_db = reception.sinr_db(rec.signal_mw, rec.peak_itf_mw)
        sinr_ok = reception.decodes(sinr_db)
        if not sinr_ok and not rec.corrupted and not tx.aborted:
            sinr.counters.dropped += 1
            if tracer.enabled:
                tracer.emit(self._sim.now, node, "sinr-drop",
                            frame=str(frame), sender=tx.sender,
                            sinr_db=round(sinr_db, 3))
        ok = (
            not rec.corrupted
            and not tx.aborted
            and sinr_ok
            and (self._error_free or not self._error_model.corrupts(size, self._rng))
        )
        if ok:
            sinr.counters.record_delivery(sinr_db)
            if tracer.enabled:
                tracer.emit(self._sim.now, node, "rx-ok", frame=str(frame), sender=tx.sender)
            listener.on_frame_received(frame, tx.sender)
        else:
            if tracer.enabled:
                tracer.emit(self._sim.now, node, "rx-error", frame=str(frame), sender=tx.sender)
            listener.on_frame_error(tx.sender)


class _ArrivalStart(FastEvent):
    """Bound arrival-start event, pooled and scheduled via
    ``Simulator.schedule_many`` (no lambda, no handle, no allocation in
    steady state: fired instances return to the channel's free list)."""

    __slots__ = ("channel", "tx", "link")

    label = "rx-start"

    def __init__(self, channel: DataChannel, tx: Transmission, link: Link):
        self.channel = channel
        self.tx = tx
        self.link = link

    def __call__(self) -> None:
        channel = self.channel
        tx = self.tx
        link = self.link
        self.tx = self.link = None
        channel._start_pool.append(self)
        channel._arrival_start(tx, link)


class _ArrivalEnd(FastEvent):
    """Bound arrival-end event (pooled like :class:`_ArrivalStart`)."""

    __slots__ = ("channel", "tx", "link")

    label = "rx-end"

    def __init__(self, channel: DataChannel, tx: Transmission, link: Link):
        self.channel = channel
        self.tx = tx
        self.link = link

    def __call__(self) -> None:
        channel = self.channel
        tx = self.tx
        link = self.link
        self.tx = self.link = None
        channel._end_pool.append(self)
        channel._arrival_end(tx, link)
