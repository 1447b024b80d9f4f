"""Per-run aggregation into the paper's reported quantities.

One :class:`RunSummary` holds every number a single experiment
contributes to Figs. 7-13:

* Fig. 7  -- ``delivery_ratio``                         (R_deliv)
* Fig. 8  -- ``avg_drop_ratio`` over non-leaf nodes     (R_drop)
* Fig. 9  -- ``avg_delay_s``                            (D)
* Fig. 10 -- ``avg_retx_ratio`` over non-leaf nodes     (R_retx)
* Fig. 11 -- ``avg_txoh_ratio`` over non-leaf nodes     (R_txoh)
* Fig. 12 -- ``mrts_len_{avg,p99,max}`` over all MRTSs  (RMAC only)
* Fig. 13 -- ``abort_{avg,p99,max}`` over non-leaf nodes (RMAC only)

"Non-leaf" follows the paper's definition: a node that forwarded packets
("for a leaf node, since it forwards no packets, it drops no packets") --
operationally, ``packets_offered > 0``, with the source excluded from no
figure (it forwards too). Fig. 12 pools frames; Fig. 13 takes per-node
ratios; both match the paper's captions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.mac.stats import MacStats
from repro.metrics.collectors import MetricsCollector
from repro.sim.units import SEC


def _mean(values: Sequence[float]) -> Optional[float]:
    return float(np.mean(values)) if len(values) else None


def _p99(values: Sequence[float]) -> Optional[float]:
    return float(np.percentile(values, 99)) if len(values) else None


@dataclass(frozen=True)
class RunSummary:
    """All figure inputs from one simulation run."""

    protocol: str
    n_nodes: int
    n_generated: int
    total_deliveries: int
    delivery_ratio: Optional[float]
    avg_delay_s: Optional[float]
    max_delay_s: float
    avg_drop_ratio: Optional[float]
    avg_retx_ratio: Optional[float]
    avg_txoh_ratio: Optional[float]
    mrts_len_avg: Optional[float]
    mrts_len_p99: Optional[float]
    mrts_len_max: Optional[float]
    abort_avg: Optional[float]
    abort_p99: Optional[float]
    abort_max: Optional[float]
    n_forwarders: int
    total_drops: int
    total_retransmissions: int
    #: Simulator events executed during the run (always counted).
    events_processed: Optional[int] = None
    # --- run telemetry (None unless the run collected it) -------------
    #: Wall-clock seconds the event loop ran.
    wall_time_s: Optional[float] = None
    #: Event-loop throughput (events per wall second).
    events_per_sec: Optional[float] = None
    #: Full telemetry report (see repro.sim.telemetry), JSON-serializable.
    telemetry: Optional[dict] = None
    # --- invariant oracle (None unless the run attached it) ------------
    #: Total invariant violations the oracle counted (0 = clean run).
    oracle_violations: Optional[int] = None
    #: Full oracle report (see repro.oracle), JSON-serializable:
    #: per-rule counts plus a bounded sample of full violations.
    oracle_report: Optional[dict] = None
    # --- SINR interference stats (None on the threshold path) ----------
    #: Per-run interference stats (see repro.phy.sinr.SinrState.stats):
    #: SINR-dropped receptions, deliveries, mean/min SINR at delivery,
    #: and the concurrent-signal high-water mark.
    sinr: Optional[dict] = None

    # -- stable serialization (the result store's record payload) ------
    def to_dict(self) -> dict:
        """JSON-serializable dict of every field. All metric fields are
        plain Python ints/floats/None, so a ``json`` round trip through
        :meth:`from_dict` reconstructs a bit-identical summary."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSummary":
        """Rebuild a summary from :meth:`to_dict` output.

        Compatibility: unknown keys are ignored (records written by
        newer code load under older code); fields this version added
        with defaults fall back to those defaults; a payload missing a
        *required* field raises ``ValueError`` naming it.
        """
        fields = dataclasses.fields(cls)
        known = {f.name for f in fields}
        kwargs = {k: v for k, v in payload.items() if k in known}
        missing = [
            f.name for f in fields
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            and f.name not in kwargs
        ]
        if missing:
            raise ValueError(
                f"RunSummary payload missing required field(s) {missing}; "
                f"the store record predates a schema change and must be "
                f"re-run"
            )
        return cls(**kwargs)


def summarize(
    protocol: str,
    metrics: MetricsCollector,
    stats: Sequence[MacStats],
    telemetry=None,
    oracle: Optional[dict] = None,
    sinr: Optional[dict] = None,
    events_processed: Optional[int] = None,
) -> RunSummary:
    """Aggregate one run's collector + per-node MAC stats.

    ``telemetry`` is an optional :class:`~repro.sim.telemetry.TelemetryReport`
    surfacing the run's event-loop throughput alongside its metrics.
    ``oracle`` is an optional :meth:`repro.oracle.InvariantOracle.report`
    dict; its violation count also lands in the telemetry dict (when
    both are collected) so operational dashboards see one payload.
    ``sinr`` is an optional :meth:`repro.phy.sinr.SinrState.stats` dict
    (interference drops, SINR at delivery, concurrency high-water).
    ``events_processed`` is the simulator's own event count, which it
    keeps whether or not telemetry is collected.
    """
    forwarders = [s for s in stats if s.packets_offered > 0]

    drop_ratios = [r for r in (s.drop_ratio() for s in forwarders) if r is not None]
    retx_ratios = [
        r for r in (s.retransmission_ratio() for s in forwarders) if r is not None
    ]
    txoh_ratios = [r for r in (s.overhead_ratio() for s in forwarders) if r is not None]

    mrts_lengths: List[int] = []
    for s in stats:
        mrts_lengths.extend(s.mrts_length_values())

    abort_ratios = [r for r in (s.abort_ratio() for s in forwarders) if r is not None]

    mean_delay = metrics.mean_delay_ns()
    telemetry_dict = telemetry.to_dict() if telemetry is not None else None
    if telemetry_dict is not None and oracle is not None:
        telemetry_dict["oracle_violations"] = oracle["total"]
    return RunSummary(
        protocol=protocol,
        n_nodes=len(stats),
        n_generated=metrics.n_generated,
        total_deliveries=metrics.total_deliveries,
        delivery_ratio=metrics.delivery_ratio(len(stats)),
        avg_delay_s=(mean_delay / SEC) if mean_delay is not None else None,
        max_delay_s=metrics.max_delay_ns() / SEC,
        avg_drop_ratio=_mean(drop_ratios),
        avg_retx_ratio=_mean(retx_ratios),
        avg_txoh_ratio=_mean(txoh_ratios),
        mrts_len_avg=_mean(mrts_lengths),
        mrts_len_p99=_p99(mrts_lengths),
        mrts_len_max=float(max(mrts_lengths)) if mrts_lengths else None,
        abort_avg=_mean(abort_ratios),
        abort_p99=_p99(abort_ratios),
        abort_max=float(max(abort_ratios)) if abort_ratios else None,
        n_forwarders=len(forwarders),
        total_drops=sum(s.packets_dropped for s in stats),
        total_retransmissions=sum(s.retransmissions for s in stats),
        events_processed=events_processed,
        wall_time_s=telemetry.wall_s if telemetry is not None else None,
        events_per_sec=telemetry.events_per_sec if telemetry is not None else None,
        telemetry=telemetry_dict,
        oracle_violations=oracle["total"] if oracle is not None else None,
        oracle_report=oracle if oracle is not None else None,
        sinr=sinr,
    )
