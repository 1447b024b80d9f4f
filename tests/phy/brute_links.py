"""Brute-force reference link builder for the neighbor-layer tests.

One O(n) distance pass per sender over every node: no spatial index, no
batching, no caching. :class:`~repro.phy.neighbors.NeighborService` must
reproduce it exactly -- same nodes in ascending order, same
``delay_ns``, ``in_rx_range``, ``sensed`` and ``power_dbm`` to the last
bit -- for both its batched whole-bucket rebuild and its pruned
per-sender path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.phy.neighbors import (
    Link,
    LinkPowerSpec,
    LinkTable,
    NeighborService,
    propagation_delay_ns,
)
from repro.phy.propagation import PropagationModel


def brute_links(pos: np.ndarray, model: PropagationModel, sender: int,
                power_spec: Optional[LinkPowerSpec] = None) -> Tuple[Link, ...]:
    """Every link from ``sender`` given node positions ``pos``."""
    if not 0 <= sender < len(pos):
        raise ValueError(f"unknown sender id {sender}")
    deltas = pos - pos[sender]
    dists = np.hypot(deltas[:, 0], deltas[:, 1])
    spec = power_spec
    search_range = spec.prune_range if spec is not None else model.max_range()
    links: List[Link] = []
    for node in np.flatnonzero(dists <= search_range):
        node = int(node)
        if node == sender:
            continue
        d = float(dists[node])
        delay = propagation_delay_ns(d)
        if spec is None:
            if model.carrier_sensed(d):
                links.append(Link(node, delay, model.in_range(d),
                                  float(model.received_power_dbm(d))))
            continue
        power = model.link_power_dbm(sender, node, d)
        if spec.tx_offset_dbm is not None:
            power = power + float(spec.tx_offset_dbm[sender])
            power = power + float(spec.rx_gain_dbm[node])
        if power >= spec.keep_threshold_dbm:
            links.append(Link(node, delay, power >= spec.rx_threshold_dbm,
                              power, power >= spec.cs_threshold_dbm))
    return tuple(links)


def reference_links(service: NeighborService, sender: int,
                    time_ns: int) -> Tuple[Link, ...]:
    """``brute_links`` over the positions ``service`` holds at ``time_ns``."""
    return brute_links(service.positions_at(time_ns), service.model, sender,
                       service.power_spec)


def install_reference_tables(service: NeighborService) -> None:
    """Serve ``service.table_from`` from the brute-force reference.

    Channels and busy tones look ``table_from`` up on every call, so a
    built network runs on the reference from here on. A table is
    reused while the service hands out the same position snapshot (one
    per mobility bucket; one for good in static worlds).
    """
    cache: Dict[int, Tuple[np.ndarray, LinkTable]] = {}

    def table_from(sender: int, time_ns: int) -> LinkTable:
        pos = service.positions_at(time_ns)
        cached = cache.get(sender)
        if cached is None or cached[0] is not pos:
            cached = cache[sender] = (pos, LinkTable(brute_links(
                pos, service.model, sender, service.power_spec)))
        return cached[1]

    service.table_from = table_from  # type: ignore[method-assign]
