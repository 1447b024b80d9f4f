"""Sweep failure paths: one crashing seed must not void the matrix.

The crash is injected through the config: an unknown protocol name makes
``run_point`` raise inside ``build_network`` -- picklable, so the same
injection works in worker processes.
"""

import pytest

from repro.experiments.runner import (
    PointFailure,
    aggregate,
    run_sweep,
    sweep_failures,
)
from repro.experiments.scenarios import scaled_scenario


def _make_config(crash_seeds=(), crash_protocol="boom"):
    def make(protocol, scenario, rate, seed):
        config = scaled_scenario(protocol, scenario, rate, seed,
                                 n_packets=3, n_nodes=8)
        if seed in crash_seeds:
            return config.variant(protocol=crash_protocol)
        return config

    return make


def test_crashing_seed_names_point_and_keeps_survivors():
    results = run_sweep(["rmac"], ["stationary"], [10], [1, 2, 3],
                        _make_config(crash_seeds={2}))
    assert len(results) == 1
    point = results[0]
    assert point.n_seeds == 2                      # survivors aggregated
    assert point["delivery_ratio"] is not None
    assert len(point.failures) == 1
    failure = point.failures[0]
    assert (failure.protocol, failure.scenario, failure.rate_pps, failure.seed) \
        == ("rmac", "stationary", 10, 2)
    assert "ValueError" in failure.error
    assert "build_network" in failure.traceback or "boom" in failure.traceback


def test_parallel_crashing_seed_keeps_survivors():
    results = run_sweep(["rmac"], ["stationary"], [10], [1, 2, 3],
                        _make_config(crash_seeds={2}), workers=2)
    point = results[0]
    assert point.n_seeds == 2
    assert [f.seed for f in point.failures] == [2]
    assert "build_network" in point.failures[0].traceback


def test_parallel_and_serial_survivor_values_match():
    args = (["rmac"], ["stationary"], [10], [1, 2, 3],
            _make_config(crash_seeds={2}))
    serial = run_sweep(*args, workers=0)
    parallel = run_sweep(*args, workers=2)
    assert serial[0].values == parallel[0].values
    assert serial[0].n_seeds == parallel[0].n_seeds == 2


def test_all_seeds_crashing_yields_empty_point():
    results = run_sweep(["rmac"], ["stationary"], [10], [1, 2],
                        _make_config(crash_seeds={1, 2}))
    point = results[0]
    assert point.n_seeds == 0
    assert point["delivery_ratio"] is None
    assert len(point.failures) == 2


def test_negative_retries_rejected():
    with pytest.raises(ValueError, match="retries must be >= 0"):
        run_sweep(["rmac"], ["stationary"], [10], [1],
                  _make_config(), retries=-1)


def test_retries_are_counted():
    results = run_sweep(["rmac"], ["stationary"], [10], [2],
                        _make_config(crash_seeds={2}), retries=2)
    failure = results[0].failures[0]
    assert failure.attempts == 3  # 1 initial + 2 retries


def test_progress_reports_every_job_with_errors_flagged():
    seen = []
    run_sweep(["rmac"], ["stationary"], [10], [1, 2],
              _make_config(crash_seeds={2}),
              progress=lambda done, total, key, error:
                  seen.append((done, total, key, error is not None)))
    assert len(seen) == 2
    assert [s[0] for s in seen] == [1, 2]
    assert all(s[1] == 2 for s in seen)
    failed = {s[2]: s[3] for s in seen}
    assert failed["rmac|stationary|10|2"] is True
    assert failed["rmac|stationary|10|1"] is False


def test_sweep_failures_collects_across_points():
    results = run_sweep(["rmac"], ["stationary"], [5, 10], [1, 2],
                        _make_config(crash_seeds={2}))
    failures = sweep_failures(results)
    assert [(f.rate_pps, f.seed) for f in failures] == [(5, 2), (10, 2)]
    assert all(isinstance(f, PointFailure) for f in failures)


def test_aggregate_defaults_to_no_failures():
    result = aggregate("rmac", "stationary", 10, [])
    assert result.failures == ()
    assert result.n_seeds == 0


def test_clean_sweep_has_no_failures():
    results = run_sweep(["rmac"], ["stationary"], [10], [1], _make_config())
    assert results[0].failures == ()
    assert sweep_failures(results) == []
