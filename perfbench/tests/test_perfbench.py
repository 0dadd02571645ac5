"""Tests of the benchmark itself: span arithmetic, seeded inputs, the output
checks, the compare verdicts, wrapper coverage and the BENCHMARK.json spec."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import compare
import layertrace
import run
import workloads
from conftest import PERFBENCH

REPO = PERFBENCH.parent


def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 20, 50, 0),  # overlaps a
        ("c", 90, 120, 0),  # reaches past the parent
        ("a1", 12, 15, 1),
        ("other", 200, 210, -1),
    ]
    # root: [10, 50] and [90, 100] covered; a: [12, 15]; the rest are leaves.
    assert layertrace.self_times(spans) == [50, 17, 30, 30, 3, 10]


def test_summarize_groups_calls_self_time_and_counters_by_name():
    dump = {
        "names": ["outer", "inner", "unused"],
        "spans": [[0, 0, 1_000, -1], [1, 100, 400, 0], [1, 500, 600, 0], [0, 2_000, 2_500, -1]],
        "counts": {"inner.points": 7},
    }
    got = layertrace.summarize(dump)
    assert got["outer.calls"] == 2 and got["inner.calls"] == 2 and got["unused.calls"] == 0
    assert got["outer.self_s"] == pytest.approx((600 + 500) / 1e9)
    assert got["inner.self_s"] == pytest.approx(400 / 1e9)
    assert got["unused.self_s"] == 0.0
    assert got["inner.points"] == 7 and got["trace.spans"] == 4


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert workloads.make_inputs(wl, 7) == workloads.make_inputs(wl, 7)
    assert workloads.make_inputs(wl, 7) != workloads.make_inputs(wl, 8)


def test_ring_points_stay_in_the_warning_free_band():
    for seed in range(500):
        point = workloads.ring_point(np.random.default_rng(seed))
        x, v, eps = point["x"], point["v_mag"], point["eps_d"]
        gamma = x * v * v / (1.0 + x * x)
        assert gamma / abs(eps) <= 0.25
        assert abs(eps) >= 0.5


def test_tail_is_the_eleventh_largest_but_never_below_the_median():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 10)
    assert run.tail([1.0, 2.0, 3.0, 10.0]) == (2.5, 2)
    value, beyond = run.tail([float(i) for i in range(1, 21)])
    assert value == 10.5 and beyond == 10


def _phase_sweep_case(tmp_path):
    inputs = {**workloads.make_inputs(workloads.WORKLOADS["phase-sweep-dense"], 3), "n_phi": 64}
    phis = workloads.phase_grid(64)
    columns = [phis] + [workloads.closed_form_transmission(inputs["ring"], lam, phis) for lam in inputs["lambdas"]]
    (tmp_path / "out").mkdir()
    return inputs, np.column_stack(columns)


def _write_csv(path, rows):
    lines = ["header"] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_phase_sweep_check_accepts_the_closed_form_and_rejects_a_small_error(tmp_path):
    inputs, rows = _phase_sweep_case(tmp_path)
    _write_csv(tmp_path / "out" / "phase_sweep.csv", rows)
    workloads.WORKLOADS["phase-sweep-dense"].check(inputs, tmp_path)
    rows[17, 3] += 1e-8
    _write_csv(tmp_path / "out" / "phase_sweep.csv", rows)
    with pytest.raises(workloads.CheckFailed):
        workloads.WORKLOADS["phase-sweep-dense"].check(inputs, tmp_path)


def test_verify_check_needs_every_suite_to_pass(tmp_path):
    (tmp_path / "out").mkdir()
    rows = np.zeros((workloads.RIGIDITY_GRID, 5))
    for name in ("rigidity_factorized.csv", "rigidity_generic.csv"):
        _write_csv(tmp_path / "out" / name, rows)
    (tmp_path / "step0.out").write_text("verification: 5/5 suites passed\n")
    workloads.WORKLOADS["verify"].check({}, tmp_path)
    (tmp_path / "step0.out").write_text("verification: 4/5 suites passed\n")
    with pytest.raises(workloads.CheckFailed):
        workloads.WORKLOADS["verify"].check({}, tmp_path)


def test_thermal_check_passes_at_the_hardest_point_of_the_band(tmp_path):
    import thermal_op

    x, eps = 2.5, 0.5
    inputs = {
        **workloads.make_inputs(workloads.WORKLOADS["thermal-sweep"], 1),
        "x": x,
        "eps_d": eps,
        "v_mag": float(np.sqrt(0.18 * eps * (1 + x * x) / x)),
    }
    np.save(tmp_path / "thermal.npy", thermal_op.thermal_sweep(inputs))
    workloads.WORKLOADS["thermal-sweep"].check(inputs, tmp_path)


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(base, [v * 0.8 for v in base], True, 0.1)[1] == "improved"
    assert compare.verdict(base, [v * 1.02 for v in base], True, 0.1)[1] == "no worse"
    assert compare.verdict(base, [v * 1.3 for v in base], True, 0.1)[1] == "worse"
    wide = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(wide, [v * 1.05 for v in wide], True, 0.1)[1] == "unresolved"
    assert compare.verdict(base, [v * 0.8 for v in base], False, 0.1)[1] == "worse"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def test_every_namespace_binding_is_wrapped():
    script = (
        "import json, layertrace\n"
        "rec = layertrace.Recorder()\n"
        "rebound = layertrace.install(rec)\n"
        "import importlib\n"
        "missed = [f'{ns}.{f}' for ns in layertrace.NAMESPACES for _, f in layertrace.FUNCTIONS\n"
        "          if f in vars(importlib.import_module(ns)) and not hasattr(getattr(importlib.import_module(ns), f), '__wrapped__')]\n"
        "print(json.dumps({'rebound': rebound, 'missed': missed}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=PERFBENCH, env=_env(), capture_output=True, text=True, check=True
    )
    got = json.loads(out.stdout)
    assert got["missed"] == []
    for name in ("abring.cli.sweep_phase", "abring.cli.write_line_plot", "abring.verify.exact_amplitude",
                 "abring.transport.amplitude_t1", "abring.oracle.amplitude_t0", "abring.ring.amplitude_t0"):
        assert name in got["rebound"]


def test_traced_verify_reproduces_exact_counts(tmp_path):
    for attempt in range(2):
        spans = tmp_path / f"spans{attempt}.json"
        subprocess.run(
            [sys.executable, str(PERFBENCH / "layertrace.py"), str(spans), "cli", "verify", "--seed", "12345"],
            cwd=REPO, env=_env(), capture_output=True, check=True,
        )
        got = layertrace.summarize(json.loads(spans.read_text()))
        assert got["oracle.exact_amplitude.calls"] == 1003
        assert got["smatrix.TwoParticleSMatrix.at.calls"] == 70400
        assert got["smatrix.rigidity_report.calls"] == 1100
        assert got["verify.suites_passed"] == got["verify.suites_run"] == 5


def test_benchmark_json_matches_the_driver():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
