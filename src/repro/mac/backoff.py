"""The backoff of Section 3.3.1: its state and its slotted countdown.

Every node keeps two variables, both in units of slot times:

* ``BI`` (Backoff Interval) -- the remaining deferral, persisted across
  suspensions (a busy channel pauses the countdown without redrawing);
* ``CW`` (Contention Window) -- doubled (up to ``cw_max``) on failed
  transmissions, reset to ``cw_min`` on success, and used to initialize
  BI uniformly in ``[0, CW]``.

:class:`Backoff` owns the variables, the draw and the CW dynamics.
:class:`SlottedCountdown` counts BI down for RMAC and for all six
802.11-family MACs. The protocol supplies one *tick*: sample the
channels at a slot boundary, count one idle slot down or suspend, and
start a transmission when BI reaches 0. The countdown runs that tick
only where its outcome can change, never once per idle slot:

* **Hop.** When a tick leaves BI = b >= 2 on idle channels, one event
  lands b-1 slots later. Every tick skipped on the way would have
  counted one slot down, so the hop sets BI = 2 and runs the tick, which
  queues the final tick one slot later through the ordinary path.
* **Check.** While it counts, the node is registered for idle->busy
  hooks: a reception starting on an idle data channel, its own
  transmission, a busy tone becoming present (RMAC's RBT) and a NAV
  extension (the 802.11 family calls :meth:`SlottedCountdown.interrupt`).
  Each transition books one check at the first slot boundary strictly
  after it, the first tick that could see it. The check sets BI to what
  the skipped ticks would have left and runs the tick: still busy, the
  node suspends exactly as under polling; idle again, the tick counts on
  (the 802.11 tick also re-applies its DIFS and NAV rules). A busy
  period that falls entirely between two boundaries stays invisible,
  exactly as it does to a per-slot poll. This needs every transition to
  come from an event queued less than one slot before it runs, so that
  a transition exactly on a boundary falls after that boundary's tick,
  as it did under polling. Arrivals and tone presence changes are
  queued one propagation delay (at most 1 us) ahead, a NAV update
  happens in the arrival-end event of its frame, and a response
  transmission comes one SIFS after the frame that solicited it.

Suspension is the protocol's business: it sleeps until the channel
reports busy->idle (``notify_data_idle`` / ``notify_clear``) and then
schedules a tick.

**Same-instant order.** A hop or a check runs under the sequence number
the first skipped tick would have been queued with
(:meth:`repro.sim.engine.Simulator.schedule_reserved`), so it meets
same-time events where that tick would have. A countdown started by a
tick that was itself queued exactly one slot earlier keeps that tick's
number instead: only countdown ticks are ever queued exactly one slot
ahead, so two nodes counting in the same slot phase keep the order their
per-slot ticks would have had.

``tests/mac/polling_backoff.py`` keeps the per-slot countdown as the
reference the property tests compare against.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Sequence

from repro.sim.engine import FastEvent, Simulator


class Backoff:
    """CW/BI bookkeeping shared by RMAC and the 802.11-family protocols."""

    def __init__(self, rng: random.Random, cw_min: int = 31, cw_max: int = 1023):
        if cw_min < 0 or cw_max < cw_min:
            raise ValueError(f"invalid contention window bounds [{cw_min}, {cw_max}]")
        self._rng = rng
        self.cw_min = cw_min
        self.cw_max = cw_max
        self.cw = cw_min
        self.bi = 0
        #: Number of draws performed (instrumentation).
        self.draws = 0

    def draw(self) -> int:
        """Set BI to a uniform random slot count in ``[0, CW]`` and return it."""
        self.bi = self._rng.randint(0, self.cw)
        self.draws += 1
        return self.bi

    def decrement(self) -> None:
        """Count one idle slot down (clamped at zero)."""
        if self.bi > 0:
            self.bi -= 1

    @property
    def expired(self) -> bool:
        return self.bi == 0

    def double_cw(self) -> None:
        """Exponential increase after a failed transmission."""
        self.cw = min(self.cw_max, 2 * self.cw + 1)

    def reset_cw(self) -> None:
        """Reset after a successful transmission or a frame drop."""
        self.cw = self.cw_min

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Backoff BI={self.bi} CW={self.cw}>"


class SlottedCountdown(FastEvent):
    """Runs a protocol's backoff tick only where its outcome can change.

    ``tick`` is the protocol's slot-boundary step. It calls
    :meth:`schedule` wherever it wants the next tick after some delay,
    and :meth:`next_slot` right after it counted an idle slot down with
    BI still above 0. ``hooks`` are the idle->busy watcher maps of the
    node's channels (:meth:`repro.phy.radio.Radio.busy_hooks`); a busy
    source without a map (NAV) calls :meth:`interrupt` itself.

    While a tick or a countdown is pending, :attr:`scheduled` is true
    and :meth:`schedule` does nothing. BI is only written back at a hop
    or a check, so ``backoff.bi`` reads stale while the countdown runs.
    The countdown object is itself the recycled tick event (at most one
    in flight).
    """

    __slots__ = ("sim", "backoff", "slot", "node", "tick", "hooks", "label",
                 "scheduled", "_event_seq", "_origin", "_key",
                 "_t0", "_b0", "_hop", "_check", "_keep", "_on_busy")

    def __init__(self, sim: Simulator, backoff: Backoff, slot: int, node: int,
                 tick: Callable[[], None],
                 hooks: Sequence[Dict[int, Callable[[], None]]], label: str):
        self.sim = sim
        self.backoff = backoff
        self.slot = slot
        self.node = node
        self.tick = tick
        self.hooks = hooks
        #: Telemetry label of every event this countdown queues.
        self.label = label
        self.scheduled = False
        #: Sequence number of the pending tick when it was queued exactly
        #: one slot ahead (None otherwise); it becomes ``_origin`` when
        #: the tick runs.
        self._event_seq: Optional[int] = None
        #: The number a countdown started by the running tick inherits.
        self._origin: Optional[int] = None
        #: The running countdown: its sequence number, the boundary it
        #: started at and BI there, and its pending hop and check.
        self._key = 0
        self._t0 = 0
        self._b0 = 0
        self._hop: Optional[_Wake] = None
        self._check: Optional[_Wake] = None
        #: A check's still-valid hop, offered back to next_slot().
        self._keep: Optional[_Wake] = None
        self._on_busy = self.interrupt

    def schedule(self, delay: int) -> None:
        """Queue the tick ``delay`` ns from now, unless one is pending."""
        if self.scheduled:
            return
        self.scheduled = True
        sim = self.sim
        seq = sim.schedule_fast(sim.now + delay, self)
        self._event_seq = seq if delay == self.slot else None

    def __call__(self) -> None:
        """The ordinary tick, as queued by :meth:`schedule`."""
        self.scheduled = False
        self._origin = self._event_seq
        self.tick()

    def next_slot(self) -> None:
        """Go on counting after the tick counted an idle slot down."""
        if self.scheduled:
            return
        bi = self.backoff.bi
        slot = self.slot
        if bi < 2:
            self.schedule(slot)  # the final tick, queued the ordinary way
            return
        sim = self.sim
        now = sim.now
        hop_at = now + (bi - 1) * slot
        key = self._origin
        hop = self._keep
        if hop is not None and hop.time == hop_at:
            # An idle check resumed the countdown it interrupted.
            self._keep = None
        else:
            hop = _Wake(self, hop_at)
            if key is None:
                key = sim.schedule_fast(hop_at, hop)
            else:
                sim.schedule_reserved(hop_at, key, hop)
        self._hop = hop
        self._key = key
        self._t0 = now
        self._b0 = bi
        self.scheduled = True
        node = self.node
        on_busy = self._on_busy
        for hook in self.hooks:
            hook[node] = on_busy

    def interrupt(self) -> None:
        """The medium may have turned busy now: check at the next boundary."""
        hop = self._hop
        if hop is None or self._check is not None:
            return  # not counting, or a check is already booked
        now = self.sim.now
        slot = self.slot
        boundary = now + slot - (now - self._t0) % slot
        if boundary >= hop.time:
            return  # the hop samples the channels first
        check = self._check = _Wake(self, boundary)
        self.sim.schedule_reserved(boundary, self._key, check)

    def _wake(self, wake: "_Wake") -> None:
        if wake is self._check:
            self._check = None
            keep = self._hop
        elif wake is self._hop:
            keep = None
        else:
            return  # left over from a countdown that already ended
        self._hop = None
        self.backoff.bi = self._b0 + 1 - (self.sim.now - self._t0) // self.slot
        self.scheduled = False
        node = self.node
        for hook in self.hooks:
            del hook[node]
        self._origin = self._key
        self._keep = keep
        self.tick()
        self._keep = None


class _Wake(FastEvent):
    """One hop or check; ignored once its countdown has ended."""

    __slots__ = ("countdown", "time", "label")

    def __init__(self, countdown: SlottedCountdown, time: int):
        self.countdown = countdown
        self.time = time
        self.label = countdown.label

    def __call__(self) -> None:
        self.countdown._wake(self)
