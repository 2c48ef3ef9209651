"""Self-tests of the sweep benchmark: span arithmetic, percentiles, output check.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import csvcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(name, start, end, parent=-1, run_id=0):
    return [name, start, end, parent, run_id]


def test_self_time_of_a_nested_span_tree():
    tree = [
        span("cli.main", 0, 100),               # 0
        span("bench.run_sweep", 10, 90, 0),     # 1
        span("gas.run_gas", 20, 50, 1),         # 2
        span("circuits.fejer_distribution", 25, 30, 2),
        span("circuits.fejer_distribution", 40, 45, 2),
        span("detect.mld_detect", 60, 70, 1),   # 5
        span("qubo.evaluate_cost", 60, 64, 5),
    ]
    assert spans.self_times(tree) == [20, 40, 20, 5, 5, 6, 4]
    assert sum(spans.self_times(tree)) == 100  # self times partition the root span


def test_self_time_counts_overlapping_children_once():
    tree = [span("gas.run_gas", 0, 100), span("qcore.zero_state", 10, 40, 0),
            span("qcore.zero_state", 30, 60, 0), span("qcore.zero_state", 90, 120, 0)]
    assert spans.self_times(tree)[0] == 100 - 50 - 10


def test_layer_shares_and_ancestry():
    tree = [
        span("cli.main", 0, 1000),
        span("bench.run_sweep", 0, 1000, 0),
        span("circuits.grover_power", 100, 500, 1),
        span("qcore.apply_1q", 100, 200, 2),
        span("qcore.apply_controlled_phase", 200, 300, 2),
        span("qcore.apply_1q", 600, 700, 1),
    ]
    notes = [(2, {"power": 2})]
    w = WORKLOADS["statevector_n3"]
    out = spans.per_layer_metrics(tree, notes, w, trials=1, untraced_trials_per_s=4e6)
    assert out["qcore.self_s"] == pytest.approx(300e-9)
    assert out["circuits.share"] == pytest.approx(0.2)
    assert sum(out[f"{layer}.share"] for layer in spans.LAYERS) == pytest.approx(1.0)
    assert out["qcore.gates_per_grover_iteration"] == 1.0  # the last gate is outside
    assert out["circuits.grover_iteration_ms"] == pytest.approx(200e-6)
    assert out["trace.overhead"] == pytest.approx(0.5)  # 2 trials in 1 us against 4e6 per s


def test_tracer_records_parent_and_run():
    tracer = spans.Tracer()
    inner = tracer.wrap("qubo.evaluate_cost", lambda x: x + 1)
    outer = tracer.wrap("gas.run_gas", lambda x: inner(x) * 2,
                        observe=lambda args, kwargs, result: {"result": result})
    tracer.run = 3
    assert outer(1) == 4
    (o, i) = tracer.spans
    assert (o[spans.NAME], o[spans.PARENT], o[spans.RUN]) == ("gas.run_gas", -1, 3)
    assert (i[spans.NAME], i[spans.PARENT]) == ("qubo.evaluate_cost", 0)
    assert o[spans.START] <= i[spans.START] <= i[spans.END] <= o[spans.END]
    assert tracer.notes == [(0, {"result": 4})]


@pytest.mark.parametrize("n, p50, p99", [(1, 1, 1), (10, 5, 10), (100, 50, 99), (1000, 500, 990)])
def test_nearest_rank_percentiles(n, p50, p99):
    values = list(range(n, 0, -1))  # order must not matter
    assert spans.percentile(values, 0.50) == p50
    assert spans.percentile(values, 0.99) == p99


def test_percentile_of_no_samples_is_zero():
    assert spans.percentile([], 0.99) == 0.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    out = spans.per_layer_metrics([], [], WORKLOADS["fig2_serial"], 1, 1.0)
    assert set(out) == names
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_one_reference_hash_per_piece():
    table = json.loads((HERE.parent / "reference_sha256.json").read_text())
    assert set(table) == set(WORKLOADS)
    for name, w in WORKLOADS.items():
        assert len(table[name]["run"]) == w.pieces


W = WORKLOADS["classical_pool2"]


def good_csv(trials=10):
    lines = [csvcheck.HEADER]
    for snr, det, r in csvcheck.expected_keys(W):
        lines.append(f"{snr},{det},{r},{trials},0,0,0,0")
    return ("\n".join(lines) + "\n").encode()


def test_a_correct_csv_has_no_failed_points():
    data = good_csv()
    assert csvcheck.failed_points(W, 10, data, reference=data, sha=csvcheck.sha256(data)) == 0


def test_a_corrupted_row_counts_as_one_failed_point():
    lines = good_csv().decode().split("\n")
    lines[3] = lines[3].replace(",0,0,0,0", ",1,0,0,0")  # bit_errors no longer match ber
    assert csvcheck.failed_points(W, 10, "\n".join(lines).encode()) == 1


def test_a_row_that_differs_from_the_reference_fails():
    lines = good_csv().decode().split("\n")
    lines[5] = lines[5].replace(",0,0,0,0", ",3,0.1,0,0.1073536213")
    corrupt = "\n".join(lines).encode()
    assert csvcheck.failed_points(W, 10, corrupt) == 0  # consistent on its own
    assert csvcheck.failed_points(W, 10, corrupt, reference=good_csv()) == 1


def test_missing_rows_and_a_wrong_hash_fail():
    lines = good_csv().decode().split("\n")
    del lines[2]
    assert csvcheck.failed_points(W, 10, "\n".join(lines).encode()) == W.points
    assert csvcheck.failed_points(W, 10, good_csv(), sha="0" * 64) == W.points


def test_a_crashed_or_failing_sweep_fails_every_point(tmp_path):
    session = run.Session("classical_pool2", 7, tmp_path)
    rejected = tmp_path / "rejected.cfg"
    rejected.write_text("n = 1\n")  # the child's own config check raises
    unwritable = tmp_path / "unwritable.cfg"  # gasmld exits with 2: its CSV path is a directory
    unwritable.write_text(workloads.config_text(W, 10, 7, str(tmp_path)))
    for config in (rejected, unwritable, tmp_path / "missing.cfg"):
        assert session.sweep(config, 10, 1) == (None, None)
    assert (session.attempted, session.failed) == (3 * W.points, 3 * W.points)
    assert len(session.errors) == 3
    assert session.errors[1] == "gasmld sweep exited with code 2"
