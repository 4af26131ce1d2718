"""Tests of the benchmark's own arithmetic: lane-steps, span self time, the
escalation count, the tail percentile, and BENCHMARK.json against the metrics
the code emits.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import PER_LAYER, Tracer, lane_steps, self_times  # noqa: E402

from stirling2adic import engine, verify  # noqa: E402
from stirling2adic.engine import PrecisionPolicy  # noqa: E402


def test_lane_steps_by_hand():
    # 10 steps x 5 entries x 3 limbs of 32 bits
    assert lane_steps([10], 4, 65) == 150
    assert lane_steps((3, 7), 3, 64) == 7 * 4 * 2
    assert lane_steps((), 3, 64) == 0


def test_row_calls_are_traced_where_callers_look_them_up():
    original = engine.stirling_rows_mod2
    tracer = Tracer()
    tracer.install_package()
    try:
        assert verify.stirling_rows_mod2 is not original
        engine.stirling_rows_mod2([10], 4, 65)
        verify.stirling_row_mod2(7, 3, 64)  # reaches the rows pass through engine
    finally:
        tracer.uninstall()
    assert engine.stirling_rows_mod2 is original
    assert verify.stirling_rows_mod2 is original
    m = tracer.metrics()
    assert (m["engine.rows_wide.calls"], m["engine.rows_wide.lane_steps"]) == (1, 150)
    assert (m["engine.rows64.calls"], m["engine.rows64.lane_steps"]) == (1, 7 * 4 * 2)


def test_self_time_subtracts_covered_child_time():
    #  0: [0, 10]  1: [1, 3] in 0  2: [2, 3] in 1  3: [4, 6] in 0
    start, end, parent = [0, 1, 2, 4], [10, 3, 3, 6], [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [6, 1, 1, 2]


def test_self_time_counts_overlapping_children_once():
    start, end, parent = [0, 1, 3], [10, 5, 7], [-1, 0, 0]
    assert self_times(start, end, parent)[0] == 4


def test_escalations_and_first_rung_ratio():
    tracer = Tracer()
    tracer.install_package()
    try:
        # nu2(S(16, 5)) = 1: one bit shows a zero residue, two bits certify it
        assert engine.val_stirling(16, 5, PrecisionPolicy(1, 8)).value == 1
        assert engine.val_stirling(16, 5, PrecisionPolicy(8, 8)).value == 1
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["engine.val.calls"] == 2
    assert m["engine.escalations"] == 1
    assert m["engine.first_rung_ratio"] == 0.5


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    assert run.tail(samples) == (20.0, 100.0 * 20 / 30)
    assert run.tail(samples[:19]) is None


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["sweeps", "scan", "xval", "queries"]
