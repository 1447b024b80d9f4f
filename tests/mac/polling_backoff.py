"""The per-slot backoff countdown, kept as the reference for tests.

Before ``repro.mac.backoff.SlottedCountdown`` the RMAC and 802.11
countdowns ran their tick once per idle slot: every tick that counted a
slot down queued the next one a slot later, and nothing else woke the
node. :class:`PollingCountdown` is that loop behind the same interface,
so a test can swap it into a MAC (:func:`install_polling`) and compare
whole runs, the way ``tests/phy/brute_links.py`` serves as the reference
for the spatial grid.
"""

from __future__ import annotations

from repro.sim.engine import FastEvent


class PollingCountdown:
    """One tick per slot boundary while BI counts down."""

    def __init__(self, sim, backoff, slot, node, tick, hooks, label):
        self.sim = sim
        self.backoff = backoff
        self.slot = slot
        self.tick = tick
        self.label = label
        self.scheduled = False
        self._event = _PollTick(self)

    def schedule(self, delay: int) -> None:
        if self.scheduled:
            return
        self.scheduled = True
        sim = self.sim
        sim.schedule_fast(sim.now + delay, self._event)

    def next_slot(self) -> None:
        self.schedule(self.slot)

    def interrupt(self) -> None:
        """Polling samples every boundary; transitions need no hook."""


class _PollTick(FastEvent):
    __slots__ = ("countdown", "label")

    def __init__(self, countdown: PollingCountdown):
        self.countdown = countdown
        self.label = countdown.label

    def __call__(self) -> None:
        self.countdown.scheduled = False
        self.countdown.tick()


def install_polling(mac) -> PollingCountdown:
    """Replace ``mac``'s countdown with the per-slot reference (before the
    run starts) and return it."""
    old = mac._countdown
    mac._countdown = PollingCountdown(old.sim, old.backoff, old.slot, old.node,
                                      old.tick, old.hooks, old.label)
    return mac._countdown
