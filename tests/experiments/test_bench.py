"""The ``repro bench`` sweep, baseline discovery and regression gate."""

import json
import os

import pytest

from repro.experiments import bench

#: A sub-second point so the test suite stays fast.
TINY = bench._point("smoke", "rmac", 2, n_nodes=6, width=150.0, height=100.0,
                    rate_pps=5.0, n_packets=3)


def _fake_point(mode="smoke", protocol="rmac", seed=2, wall_s=0.1,
                metrics=None, events=100):
    return {"mode": mode, "protocol": protocol, "seed": seed,
            "events": events, "wall_s": wall_s, "eps": events / wall_s,
            "metrics": metrics if metrics is not None else {"delivery_ratio": 1.0},
            "subsystem_wall_s": {}}


def _report(*points):
    return {"rev": "test", "events": 100, "wall_s": 0.1,
            "events_per_sec": 1000.0, "points": list(points)}


def test_run_point_returns_metrics_and_throughput():
    record = bench.run_point(TINY)
    assert record["mode"] == "smoke" and record["protocol"] == "rmac"
    assert record["events"] > 0 and record["eps"] > 0
    assert set(record["metrics"]) == set(bench.METRIC_FIELDS)
    assert record["metrics"]["n_generated"] == 3


def test_run_point_repeat_is_deterministic_and_keeps_best():
    repeated = dict(TINY, repeat=3)
    single = bench.run_point(TINY)
    best = bench.run_point(repeated)
    # Determinism: identical simulated outcome, whatever the timing.
    assert best["events"] == single["events"]
    assert best["metrics"] == single["metrics"]


def test_run_bench_aggregates_points():
    report = bench.run_bench([TINY], rev="abc1234")
    assert report["rev"] == "abc1234"
    assert len(report["points"]) == 1
    assert report["events"] == report["points"][0]["events"]
    assert report["events_per_sec"] > 0


def test_find_baseline_picks_newest(tmp_path):
    """The newest baseline is the one ``BASELINE`` names, whatever the
    file mtimes say: a fresh checkout gives every file the same one."""
    for rev in ("aaa", "bbb", "ccc"):
        (tmp_path / f"BENCH_{rev}.json").write_text("{}")
        os.utime(tmp_path / f"BENCH_{rev}.json", (1, 1))
    assert bench.find_baseline(str(tmp_path)) is None  # no pointer yet
    (tmp_path / "BASELINE").write_text("BENCH_bbb.json\n")
    assert bench.find_baseline(str(tmp_path)) == str(tmp_path / "BENCH_bbb.json")
    assert bench.find_baseline(str(tmp_path / "missing")) is None


def test_committed_baseline_pointer_names_a_committed_report():
    directory = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks")
    path = bench.find_baseline(directory)
    assert path is not None and os.path.isfile(path)


def test_compare_passes_within_threshold():
    ok, lines = bench.compare(_report(_fake_point(wall_s=0.125)),
                              _report(_fake_point(wall_s=0.1)),
                              max_regression=0.30)
    assert ok
    assert any("1.25x" in line for line in lines)


def test_compare_fails_on_regression():
    ok, lines = bench.compare(_report(_fake_point(wall_s=0.2)),
                              _report(_fake_point(wall_s=0.1)),
                              max_regression=0.30)
    assert not ok
    assert any("REGRESSION" in line for line in lines)


def test_compare_gates_wall_time_not_events_per_sec():
    """Removing events on purpose lowers events/sec; if the run got
    faster end to end, the gate passes, and the counts are reported."""
    ok, lines = bench.compare(_report(_fake_point(wall_s=0.08, events=40)),
                              _report(_fake_point(wall_s=0.1, events=100)),
                              max_regression=0.30)
    assert ok
    assert any("40 events vs 100" in line for line in lines)
    ok, _ = bench.compare(_report(_fake_point(wall_s=0.2, events=1000)),
                          _report(_fake_point(wall_s=0.1, events=100)),
                          max_regression=0.30)
    assert not ok  # more events per second, but twice the wall time


def test_compare_reports_metric_drift_without_failing():
    ok, lines = bench.compare(
        _report(_fake_point(metrics={"delivery_ratio": 0.5})),
        _report(_fake_point(metrics={"delivery_ratio": 1.0})),
    )
    assert ok  # drift is loud but the perf gate does not own correctness
    assert any("METRIC DRIFT" in line for line in lines)


def test_compare_handles_new_points():
    ok, lines = bench.compare(_report(_fake_point(seed=99)), _report())
    assert ok
    assert any("no baseline point" in line for line in lines)


def test_committed_baseline_matches_current_behavior():
    """The repo's committed BENCH_*.json must stay reproducible: the same
    seed produces bit-identical metrics on today's code (the determinism
    half of the benchmark contract; wall time is checked in CI)."""
    path = bench.find_baseline(
        os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))
    if path is None:
        pytest.skip("no committed baseline")
    baseline = bench.load_baseline(path)
    base_smoke = [p for p in baseline["points"] if p["mode"] == "smoke"]
    assert base_smoke, "committed baseline lacks a smoke point"
    record = bench.run_point(next(
        p for p in bench.SMOKE_POINTS
        if (p["protocol"], p["seed"]) == (base_smoke[0]["protocol"],
                                          base_smoke[0]["seed"])))
    assert record["events"] == base_smoke[0]["events"]
    assert record["metrics"] == base_smoke[0]["metrics"]


def test_tier_points_resolution():
    assert bench.tier_points("smoke") is bench.SMOKE_POINTS
    assert bench.tier_points("full") is bench.FULL_POINTS
    assert bench.tier_points("large") is bench.LARGE_POINTS
    with pytest.raises(ValueError):
        bench.tier_points("galactic")


def test_large_tier_composition():
    sizes = {p["config"]["n_nodes"] for p in bench.LARGE_POINTS if "config" in p}
    assert sizes == {200, 500, 1000}
    rebuilds = [p for p in bench.LARGE_POINTS
                if p.get("kind") == "neighbor-rebuild"]
    assert {p["n_nodes"] for p in rebuilds} == {200, 500, 1000}
    # Labels are unique: they are the compare() key at shared mode/seed.
    labels = [p["label"] for p in bench.LARGE_POINTS]
    assert len(labels) == len(set(labels))


def test_rebuild_point_asserts_equality_and_reports_speedup():
    record = bench.run_point(bench._rebuild_point(200, epochs=2))
    assert record["kind"] == "neighbor-rebuild"
    assert record["links_built"] > 0
    assert record["links_per_sec_grid"] > 0
    assert record["metrics"] == {"links_built": record["links_built"]}
    # Excluded from the event-loop aggregate.
    assert record["events"] == 0 and record["wall_s"] == 0.0
    report = bench.run_bench([bench._rebuild_point(200, epochs=1)], rev="x")
    assert report["events"] == 0


def test_compare_keys_on_label():
    a = _fake_point()
    b = dict(_fake_point(wall_s=0.05), label="static-200")
    ok, lines = bench.compare(_report(a, b), _report(a, b))
    assert ok
    assert any("[static-200]" in line for line in lines)
    # A labeled point never matches an unlabeled baseline point.
    ok, lines = bench.compare(_report(b), _report(a))
    assert any("no baseline point" in line for line in lines)


def test_markdown_table():
    current = _report(_fake_point(wall_s=0.09, events=90))
    baseline = _report(_fake_point(wall_s=0.1))
    table = bench.markdown_table(current, baseline)
    assert table.startswith("| point | wall s |")
    assert "0.90x" in table
    assert "0.090" in table and "0.100" in table
    assert "| 90 |" in table  # the event count, as a counter
    # Without a baseline the ratio column degrades gracefully.
    assert "--" in bench.markdown_table(current, None)


def test_cli_bench_tier_flag(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setattr(bench, "LARGE_POINTS", [dict(TINY, mode="large")])
    out = tmp_path / "bench-large.json"
    code = main(["bench", "--tier", "large", "--out", str(out),
                 "--baseline", str(tmp_path)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["points"][0]["mode"] == "large"


def test_cli_bench_smoke(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setattr(bench, "SMOKE_POINTS", [TINY])
    out = tmp_path / "bench.json"
    baseline = tmp_path / "BENCH_base.json"
    code = main(["bench", "--smoke", "--out", str(out),
                 "--baseline", str(tmp_path)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["points"][0]["events"] > 0
    assert "no committed baseline" in capsys.readouterr().out

    # Second run compared against the first: identical work, passes.
    report["points"][0]["wall_s"] *= 1.1  # simulate a slightly slower baseline
    baseline.write_text(json.dumps(report))
    code = main(["bench", "--smoke", "--out", str(out),
                 "--baseline", str(baseline)])
    assert code == 0

    # A baseline claiming a far shorter wall time trips the gate.
    report["points"][0]["wall_s"] /= 1e6
    baseline.write_text(json.dumps(report))
    code = main(["bench", "--smoke", "--out", str(out),
                 "--baseline", str(baseline), "--max-regression", "30"])
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out

    # "inf" (the nightly large tier) still prints the comparison but
    # never fails on timing.
    code = main(["bench", "--smoke", "--out", str(out),
                 "--baseline", str(baseline), "--max-regression", "inf"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "wall vs baseline" in printed and "REGRESSION" not in printed
