"""End-to-end CLI behavior: files, determinism, and exit codes."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import abring
from abring import RingParams, sweep_phase
from abring.cli import _write_csv, build_parser, main
from abring.config import load_config
from abring.transport import phase_grid

SWEEP_MIN = 342961.0 / 707281.0
SWEEP_MAX = 530881.0 / 707281.0
VIS_AT_ZERO = 187920.0 / 873842.0


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestWriteCsv:
    ADVERSARIAL = [
        -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5, 0.1, 1.0 / 3.0,
        2.0**53 + 2.0, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
        # where the bulk %.17g range ends, and values that leave it
        1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0),
        math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf),
        -0.5, -1e-5, 9.999999999999998e15,
    ]

    def test_bytes_equal_per_value_fstrings(self, tmp_path):
        values = self.ADVERSARIAL
        columns = [values, np.array(values), [np.float64(v) for v in reversed(values)]]
        path = tmp_path / "a.csv"
        _write_csv(str(path), ["a", "b", "c"], columns)
        lines = [",".join(f"{float(v):.17g}" for v in row) + "\n" for row in zip(*columns)]
        expected = "a,b,c\n" + "".join(lines)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_rows_are_streamed(self, tmp_path):
        columns = list(np.random.default_rng(5).normal(size=(4, 20_000)))
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            [col.tolist() for col in columns]  # the one copy the writer needs
            _, converted = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _write_csv(str(path), ["a", "b", "c", "d"], columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Holding the file as one string, or its rows as one list, costs
        # more than the whole file again.
        assert peak - converted < path.stat().st_size / 4


class TestSweepPhase:
    def test_reference_run(self, tmp_path):
        out = tmp_path / "o"
        assert main(["sweep-phase", "--out", str(out)]) == 0
        header, data = read_csv(out / "phase_sweep.csv")
        assert header[0] == "phi"
        assert header[1] == "T_lambda=0"
        assert data.shape == (720, 6)
        col0 = data[:, 1]
        assert_allclose(col0.min(), SWEEP_MIN, atol=1e-6)
        assert_allclose(col0.max(), SWEEP_MAX, atol=1e-6)
        assert (out / "phase_sweep.svg").exists()

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "o"
        main(["sweep-phase", "--out", str(out)])
        raw = (out / "phase_sweep.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        # 17 significant digits round-trip to the exact computed floats
        _, data = read_csv(out / "phase_sweep.csv")
        (values,) = sweep_phase(RingParams.from_x(0.4, 0.75, 1.25), [0.0], 720)
        assert np.array_equal(data[:, 1], values)
        assert np.array_equal(data[:, 0], phase_grid(720))

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sweep-phase", "--out", str(out_a)])
        main(["sweep-phase", "--out", str(out_b)])
        for name in ("phase_sweep.csv", "phase_sweep.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_constant_columns_without_dot(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("ring.v_mag = 0\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sweep-phase", "--config", str(cfg), "--out", str(out)]) == 0
        _, data = read_csv(out / "phase_sweep.csv")
        for col in range(1, data.shape[1]):
            assert np.ptp(data[:, col]) < 1e-14

    def test_grid_refinement_stability(self, tmp_path):
        visibilities = {}
        for n_phi in (720, 1440):
            cfg = tmp_path / f"n{n_phi}.cfg"
            cfg.write_text(f"sweep.n_phi = {n_phi}\n", encoding="utf-8")
            out = tmp_path / f"o{n_phi}"
            main(["sweep-phase", "--config", str(cfg), "--out", str(out)])
            _, data = read_csv(out / "phase_sweep.csv")
            visibilities[n_phi] = [
                (col.max() - col.min()) / (col.max() + col.min())
                for col in data[:, 1:].T
            ]
        assert_allclose(visibilities[720], visibilities[1440], rtol=0, atol=1e-4)


class TestSweepLambda:
    def test_reference_run(self, tmp_path):
        out = tmp_path / "o"
        assert main(["sweep-lambda", "--out", str(out)]) == 0
        header, data = read_csv(out / "visibility.csv")
        assert header == ["lambda", "visibility_closed_loop", "visibility_double_slit"]
        assert_allclose(data[0, 1], VIS_AT_ZERO, atol=1e-9)
        assert data[0, 2] == 0.0
        closed = data[:, 1]
        assert np.all(np.diff(closed) >= 0)
        # double-slit column is exactly linear in the overlap
        slope = data[-1, 2] / data[-1, 0]
        assert np.max(np.abs(data[:, 2] - slope * data[:, 0])) < 1e-12
        assert (out / "visibility.svg").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sweep-lambda", "--out", str(out_a)])
        main(["sweep-lambda", "--out", str(out_b)])
        assert (out_a / "visibility.csv").read_bytes() == (out_b / "visibility.csv").read_bytes()

    def test_warns_like_sweep_phase_when_values_leave_unit_interval(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "ring.x = 0.6283185307179586\nsweep.n_phi = 64\n"
            "sweep.lambda_list = 0, 0.1, 0.333, 0.9, 1\n",
            encoding="utf-8",
        )
        assert main(["sweep-phase", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
        phase_err = capsys.readouterr().err
        assert main(["sweep-lambda", "--config", str(cfg), "--out", str(tmp_path / "l")]) == 0
        lambda_err = capsys.readouterr().err
        assert lambda_err == phase_err
        assert lambda_err.splitlines() == [
            f"warning: {n} transmission values outside [0, 1] for lambda={lam}"
            for n, lam in [(31, "0"), (31, "0.1"), (32, "0.333"), (34, "0.9"), (34, "1")]
        ]


@pytest.mark.parametrize(
    "command, name", [("sweep-phase", "phase_sweep"), ("sweep-lambda", "visibility")]
)
def test_sweep_prints_its_two_paths_csv_first(tmp_path, capsys, command, name):
    out = tmp_path / "o"
    assert main([command, "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.out == f"wrote {out / name}.csv\nwrote {out / name}.svg\n"
    assert printed.err == ""


class TestVerify:
    def test_passes_and_reports(self, tmp_path, capsys):
        assert main(["verify"]) == 0
        first = capsys.readouterr().out
        assert first.count("[PASS]") == 5
        assert "verification: 5/5 suites passed" in first
        assert main(["verify"]) == 0
        assert capsys.readouterr().out == first

    def test_seed_override_changes_report(self, capsys):
        assert main(["verify", "--seed", "777"]) == 0
        seeded = capsys.readouterr().out
        assert main(["verify"]) == 0
        assert capsys.readouterr().out != seeded

    def test_decoupled_dot_leaves_truncation_unresolved_without_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "decoupled.cfg"
        cfg.write_text("ring.x = 0.06973244147157191\nring.v_mag = 0\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert main(["verify", "--config", str(cfg)]) == 5
        out, err = capsys.readouterr()
        assert err == ""
        assert (
            "[UNRESOLVED] truncation-scaling: |t1 q/(1-q)| <= 0 eps S at all 12 points, "
            "below the rounding floor 512 eps S: truncation cannot be resolved here\n"
        ) in out
        assert out.endswith("verification: 4/5 suites passed, 1 unresolved\n")

    # sweep-phase accepts these, so verify must not stop at the inf eps_d of its scaled rings.
    @pytest.mark.parametrize("eps_d", ["1e308", "5e307"])
    def test_huge_dot_level_leaves_truncation_unresolved(self, tmp_path, capsys, eps_d):
        cfg = tmp_path / "eps.cfg"
        cfg.write_text(f"ring.eps_d = {eps_d}\n", encoding="utf-8")
        assert main(["sweep-phase", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert main(["verify", "--config", str(cfg)]) == 5
        out, err = capsys.readouterr()
        assert "validity error" not in out + err
        assert "[UNRESOLVED] truncation-scaling: " in out
        assert out.endswith("verification: 4/5 suites passed, 1 unresolved\n")

    # Both couplings are valid; the old ratio windows failed at both (exit 4).
    @pytest.mark.parametrize(
        "x, code, status",
        [
            ("1e-20", 5, "[UNRESOLVED] truncation-scaling: "),
            ("6.7e153", 0, "[PASS] truncation-scaling: "),
        ],
    )
    def test_truncation_at_extreme_couplings(self, tmp_path, capsys, x, code, status):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"ring.x = {x}\n", encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == code
        out, err = capsys.readouterr()
        assert err == ""
        assert status in out

    def test_suite_failure_gives_verify_exit_code(self, monkeypatch, capsys):
        from abring import verify
        from abring.verify import SuiteResult

        monkeypatch.setattr(
            verify, "run_all", lambda ring, seed: [SuiteResult("forced", False, "boom")]
        )
        assert main(["verify"]) == 4
        assert "[FAIL] forced" in capsys.readouterr().out

    @pytest.mark.parametrize("with_failure, code", [(False, 5), (True, 4)])
    def test_unresolved_suite_gives_its_own_exit_code(
        self, monkeypatch, capsys, with_failure, code
    ):
        from abring import verify
        from abring.verify import SuiteResult

        results = [SuiteResult("undecided", False, "floor", resolved=False)]
        if with_failure:
            results.append(SuiteResult("forced", False, "boom"))
        monkeypatch.setattr(verify, "run_all", lambda ring, seed: results)
        assert main(["verify"]) == code
        out = capsys.readouterr().out
        assert "[UNRESOLVED] undecided: floor\n" in out
        assert f"verification: 0/{len(results)} suites passed, 1 unresolved\n" in out


class TestRigidity:
    def test_reference_run(self, tmp_path):
        out = tmp_path / "o"
        assert main(["rigidity", "--out", str(out)]) == 0
        header, fact = read_csv(out / "rigidity_factorized.csv")
        assert header == ["phi", "T_pos", "T_neg", "s12sq_minus_s21sq", "identity_residual"]
        assert fact.shape == (64, 5)
        assert np.max(np.abs(fact[:, 1] - fact[:, 2])) < 1e-12
        assert np.max(np.abs(fact[:, 4])) < 1e-12
        _, gen = read_csv(out / "rigidity_generic.csv")
        assert np.max(np.abs(gen[:, 4])) < 1e-12
        assert np.max(np.abs(gen[:, 1] - gen[:, 2])) > 0.01

    def test_same_seed_identical_files(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["rigidity", "--out", str(out_a), "--seed", "31"])
        main(["rigidity", "--out", str(out_b), "--seed", "31"])
        for name in ("rigidity_factorized.csv", "rigidity_generic.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_reads_no_config(self, tmp_path, monkeypatch):
        import abring.cli as cli_mod

        def unreadable(path):
            raise AssertionError("rigidity parsed a config")

        monkeypatch.setattr(cli_mod, "load_config", unreadable)
        assert main(["rigidity", "--out", str(tmp_path)]) == 0
        for name in ("rigidity_factorized.csv", "rigidity_generic.csv"):
            assert (tmp_path / name).exists()


class TestFlags:
    """Each command takes only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--out", "o"],
            ["sweep-phase", "--seed", "7", "--out", "o"],
            ["sweep-lambda", "--seed", "7", "--out", "o"],
            ["rigidity", "--config", "abring.cfg", "--out", "o"],
        ],
        ids=["verify-out", "sweep-phase-seed", "sweep-lambda-seed", "rigidity-config"],
    )
    def test_unread_flag_is_rejected(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "abring.cfg").write_text("sweep.n_phi = 64\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_read_flags_still_parse(self, tmp_path):
        assert main(["rigidity", "--seed", "31", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rigidity_generic.csv").exists()
        args = build_parser().parse_args(["verify", "--seed", "777"])
        assert args.seed == 777

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("sweep-phase", {"config": None, "out": "out"}),
            ("sweep-lambda", {"config": None, "out": "out"}),
            ("verify", {"config": None, "seed": 12345}),
            ("rigidity", {"out": "out", "seed": 12345}),
        ],
    )
    def test_namespace_holds_only_its_own_flags(self, command, flags):
        assert vars(build_parser().parse_args([command])) == {"command": command, **flags}

    def test_config_out_and_seed_reach_their_commands(self, tmp_path, monkeypatch):
        import abring.cli as cli_mod

        calls = []
        for name in ("cmd_sweep_phase", "cmd_sweep_lambda", "cmd_verify", "cmd_rigidity"):
            monkeypatch.setattr(
                cli_mod, name, lambda *args, name=name: calls.append((name, args)) or 0
            )
        path = tmp_path / "run.cfg"
        path.write_text("ring.v_mag = 0.6\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert main(["sweep-phase", "--config", str(path), "--out", "elsewhere"]) == 0
        assert main(["sweep-lambda", "--config", str(path)]) == 0
        assert main(["verify", "--config", str(path), "--seed", "99"]) == 0
        assert main(["verify"]) == 0
        assert main(["rigidity", "--seed", "99"]) == 0
        assert calls == [
            ("cmd_sweep_phase", (cfg, "elsewhere")),
            ("cmd_sweep_lambda", (cfg, "out")),
            ("cmd_verify", (cfg, 99)),
            ("cmd_verify", (load_config(None), 12345)),
            ("cmd_rigidity", ("out", 99)),
        ]
        assert cfg.ring.v_mag == 0.6

    def test_flags_and_their_defaults_set_out_dir_and_seed(self, tmp_path, monkeypatch):
        from abring import verify

        seeds = []
        monkeypatch.setattr(verify, "run_all", lambda ring, seed: seeds.append(seed) or [])
        assert main(["verify"]) == 0
        assert main(["verify", "--seed", "7"]) == 0
        assert seeds == [12345, 7]
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-phase"]) == 0
        assert (tmp_path / "out" / "phase_sweep.csv").exists()


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ring.bogus = 1\n", encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_removed_energy_unit_key_is_config_error(self, tmp_path, capsys):
        # Energies are in units of |W| = 1, so the hop is not a config key.
        cfg = tmp_path / "unit.cfg"
        cfg.write_text("ring.w_mag = 1.0\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sweep-phase", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: line 1: unknown key 'ring.w_mag'\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", ["ring.rho = 0.2", "output.dir = somewhere", "seed = 7"])
    def test_run_setting_key_is_config_error(self, tmp_path, capsys, line):
        # ring.x is the one coupling key; --out and --seed set the rest.
        cfg = tmp_path / "setting.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sweep-phase", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        key = line.partition(" =")[0]
        assert captured.err == f"config error: line 1: unknown key '{key}'\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("command", ["verify", "rigidity"])
    def test_negative_seed_is_validity_error(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--seed", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validity error: seed must be nonnegative, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_config_error_wins_over_negative_seed(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ring.bogus = 1\n", encoding="utf-8")
        assert main(["verify", "--config", str(cfg), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: line 1: unknown key 'ring.bogus'\n"

    def test_negative_seed_prints_no_config_warning(self, tmp_path, capsys):
        cfg = tmp_path / "warm.cfg"
        cfg.write_text("ring.v_mag = 1.2\n", encoding="utf-8")
        assert main(["verify", "--config", str(cfg), "--seed", "-1"]) == 3
        assert capsys.readouterr().err == "validity error: seed must be nonnegative, got -1\n"

    def test_off_resonance_warning_is_one_plain_line(self, tmp_path, capsys):
        cfg = tmp_path / "warm.cfg"
        cfg.write_text("ring.v_mag = 1.2\nsweep.lambda_list = 1\n", encoding="utf-8")
        assert main(["sweep-lambda", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == (
            "warning: Gamma/|eps_d| = 0.3972 > 0.25: single-visit truncation error "
            "grows quadratically in this ratio\n"
            "warning: 411 transmission values outside [0, 1] for lambda=1\n"
        )

    def test_guard_violation_is_validity_error(self, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("ring.v_mag = 2.0\n", encoding="utf-8")
        assert main(["sweep-phase", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "validity error" in err
        assert "resonance" in err

    @pytest.mark.parametrize(
        "line, field",
        [
            ("ring.v_mag = nan", "v_mag"),
            ("ring.eps_d = inf", "eps_d"),
            ("ring.eps_d = -inf", "eps_d"),
            ("ring.x = inf", "x"),
            ("ring.x = nan", "x"),
            ("sweep.lambda_list = 0, nan", "sweep.lambda_list"),
            ("ring.x = 1e-155", "parameters"),  # x*x subnormal: dot_arm_rms overflows
            ("ring.x = 1e-170", "parameters"),  # x*x == 0
        ],
    )
    def test_non_finite_value_is_validity_error(self, tmp_path, capsys, line, field):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sweep-lambda", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"validity error: {field} ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n", encoding="utf-8")
        assert main(["sweep-phase", "--out", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep-phase", "sweep-lambda"])
    @pytest.mark.parametrize("n_phi", [10**30, 2**62])
    def test_oversized_grid_is_validity_error(self, tmp_path, capsys, command, n_phi):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"sweep.n_phi = {n_phi}\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"validity error: phase grid of {n_phi} points")
        assert err.count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command", ["sweep-phase", "sweep-lambda"])
    def test_sweep_out_of_memory_is_validity_error(self, tmp_path, monkeypatch, capsys, command):
        import abring.cli as cli_mod

        def exhausted(*args):
            raise MemoryError(
                "Unable to allocate 2.24 GiB for an array with shape (5, 60000000) "
                "and data type float64"
            )

        monkeypatch.setattr(cli_mod, "sweep_phase", exhausted)
        monkeypatch.setattr(cli_mod, "sweep_lambda", exhausted)
        assert main([command, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == (
            "validity error: run does not fit in memory: Unable to allocate 2.24 GiB "
            "for an array with shape (5, 60000000) and data type float64\n"
        )
        assert "Traceback" not in err


def run_python(source):
    """stdout of ``source`` run by a fresh interpreter that imports this abring."""
    env = dict(os.environ)
    src = str(Path(abring.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


class TestImports:
    def test_sweeps_load_no_verification_code(self, tmp_path):
        out = run_python(
            "import sys\n"
            "from abring.cli import main\n"
            "unloaded = ('abring.oracle', 'abring.smatrix', 'abring.verify')\n"
            "print([m for m in unloaded if m in sys.modules])\n"
            f"main(['sweep-lambda', '--out', {str(tmp_path)!r}])\n"
            f"main(['sweep-phase', '--out', {str(tmp_path)!r}])\n"
            "print([m for m in unloaded if m in sys.modules])\n"
        )
        assert out.splitlines()[0] == "[]"
        assert out.splitlines()[-1] == "[]"

    def test_every_public_name_resolves(self):
        out = run_python(
            "import abring, importlib\n"
            "found = {name: getattr(abring, name) for name in abring.__all__}\n"
            "star = {}\n"
            "exec('from abring import *', star)\n"
            "assert all(star[name] is found[name] for name in abring.__all__)\n"
            "assert abring.exact_amplitude is importlib.import_module('abring.oracle').exact_amplitude\n"
            "assert abring.rigidity_report is importlib.import_module('abring.smatrix').rigidity_report\n"
            "try:\n"
            "    abring.run_all\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert out == "module 'abring' has no attribute 'run_all'\n"
