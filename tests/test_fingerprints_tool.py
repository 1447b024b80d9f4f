"""The behaviour fingerprint gate (tools/fingerprints.py).

The full-stack runs belong to CI's fingerprints job; here the gate's
comparison is exercised on crafted records, and the committed golden
file is checked to cover every scenario the tool defines.
"""

import copy
import importlib.util
import json
import pathlib

from repro.sim.trace import TraceEvent

ROOT = pathlib.Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "fingerprints", ROOT / "tools" / "fingerprints.py")
fingerprints = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprints)


def _golden():
    with open(fingerprints.GOLDEN) as fh:
        return json.load(fh)


def test_committed_file_covers_every_scenario():
    golden = _golden()
    assert golden["python"] and golden["numpy"]
    assert set(golden["scenarios"]) == set(fingerprints.SCENARIOS)
    for entry in golden["scenarios"].values():
        assert set(entry["metrics"]) == set(fingerprints.METRIC_FIELDS)
        assert len(entry["trace_sha256"]) == 64
        assert len(entry["node_trace_sha256"]) == 64


def test_compare_accepts_identical_and_flags_every_drift(capsys):
    want = _golden()["scenarios"]["rmac-40"]
    assert fingerprints.compare("rmac-40", copy.deepcopy(want), want)
    for key, value in (("trace_sha256", "0" * 64), ("events", 1),
                       ("trace_events", 1), ("node_trace_sha256", "0" * 64)):
        got = dict(want, **{key: value})
        assert not fingerprints.compare("rmac-40", got, want)
        assert key in capsys.readouterr().out
    got = copy.deepcopy(want)
    got["metrics"]["avg_delay_s"] += 1e-15  # a last-bit float change counts
    assert not fingerprints.compare("rmac-40", got, want)
    assert "metrics.avg_delay_s" in capsys.readouterr().out


def test_compare_treats_nan_as_equal_to_itself():
    want = copy.deepcopy(_golden()["scenarios"]["rmac-40"])
    want["metrics"]["abort_avg"] = float("nan")
    assert fingerprints.compare("rmac-40", copy.deepcopy(want), want)


def _digests(events):
    buffer = fingerprints.HashBuffer()
    for event in events:
        buffer.append(event)
    return buffer.digest, buffer.node_digest


_STREAM = [
    TraceEvent(100, 7, "state", {"frm": "IDLE", "to": "BACKOFF"}),
    TraceEvent(200, 7, "state", {"frm": "BACKOFF", "to": "IDLE"}),
    TraceEvent(200, 39, "state", {"frm": "IDLE", "to": "BACKOFF"}),
    TraceEvent(300, 39, "tx-start", {"frame": "MRTS"}),
]


def test_node_digest_ignores_interleaving_of_different_nodes():
    whole, per_node = _digests(_STREAM)
    swapped = [_STREAM[0], _STREAM[2], _STREAM[1], _STREAM[3]]
    whole_swapped, per_node_swapped = _digests(swapped)
    assert whole_swapped != whole
    assert per_node_swapped == per_node


def test_node_digest_pins_each_nodes_own_order():
    whole, per_node = _digests(_STREAM)
    swapped = [_STREAM[1], _STREAM[0], _STREAM[2], _STREAM[3]]
    whole_swapped, per_node_swapped = _digests(swapped)
    assert whole_swapped != whole
    assert per_node_swapped != per_node
