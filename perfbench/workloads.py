"""The benchmark's workloads: seeded inputs, the child processes of one
operation, the work items it does, and an output check that recomputes
the answer independently instead of comparing byte digests.

Why each workload exists is recorded in README.md beside this file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Operations are ("cli", argv for `python -m abring`) or ("thermal", argv for
# thermal_op.py); each runs as its own child process.
Step = tuple[str, list[str]]

SWEEP_N_PHI = 65536
PHASE_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)
SCAN_LAMBDAS = tuple(i / 100 for i in range(101))
THERMAL_N_PHI = 720
THERMAL_TEMPERATURES = (0.02, 0.1, 0.3)
THERMAL_POINTS = 256
THERMAL_WINDOW = 16.0

# `abring verify` evaluates 1,000 generic and 100 factorized S-matrix
# families on a 64-point grid and draws 1,000 + 100 + 1,000 random
# amplitude points plus 3 truncation points; `abring rigidity` adds two
# families on the same grid.
RIGIDITY_GRID = 64
VERIFY_PAIRS = (1100 + 2) * RIGIDITY_GRID
VERIFY_DRAWS = 2103
MIN_SUITES = 5

# Stated tolerances of the output checks.
SWEEP_ATOL = 1e-10  # CSV values against the closed form, printed to 17 digits
PHI_ATOL = 1e-12
VISIBILITY_ATOL = 1e-7  # covers grid extrema and exact extrema at 65,536 points
SLIT_ATOL = 1e-9
RIGIDITY_TOL = 1e-12
THERMAL_RANGE_TOL = 1e-12
# Bounds max |T(kT = 0.02) - T(kT = 0)| over the phases; the largest value in
# the drawn band is about 0.026, at x = 2.5, eps_d = 0.5.
THERMAL_LOWEST_T_ATOL = 0.05
THERMAL_APPROACH = 0.6  # the deviation at kT = 0.02 is below 0.6x that at 0.1


class CheckFailed(Exception):
    """An operation's outputs disagree with the benchmark's recomputation."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[np.random.Generator], dict]
    steps: Callable[[dict, Path], list[Step]]
    items: Callable[[dict], int]
    check: Callable[[dict, Path], None]
    write_files: Callable[[dict, Path], None] = lambda inputs, work: None


def make_inputs(workload: Workload, seed: int) -> dict:
    """The workload's inputs, drawn only from ``seed``."""
    return workload.make_inputs(np.random.default_rng([seed % 2**64, 0x0AB1]))


def ring_point(rng: np.random.Generator) -> dict:
    """A ring point inside the warning-free band Gamma/|eps_d| <= 0.25.

    The dot level stays at least 0.5 from the Fermi energy so the coldest
    thermal window (half-width 16 kT = 0.32) does not reach it.
    """
    x = float(rng.uniform(0.2, 2.5))
    eps_mag = float(rng.uniform(0.5, 2.0))
    ratio = float(rng.uniform(0.05, 0.24))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    # Gamma = x v^2 / (1 + x^2) in units of |W| = 1.
    v_mag = float(np.sqrt(ratio * eps_mag * (1.0 + x * x) / x))
    return {"x": x, "v_mag": v_mag, "eps_d": sign * eps_mag}


def closed_form_amplitudes(point: dict, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The paper's direct (t0) and single-dot-visit (t1) amplitudes."""
    x = point["x"]
    gamma = x * point["v_mag"] ** 2 / (1.0 + x * x)
    t0 = (-2j * x / (1.0 + x * x)) * np.exp(-1j * phis)
    t1 = (gamma / point["eps_d"]) * t0 * (2j - np.exp(1j * phis) / x + x * np.exp(-1j * phis))
    return t0, t1


def closed_form_transmission(point: dict, lam: float, phis: np.ndarray) -> np.ndarray:
    """|t0|^2 + |t1|^2 + 2 lam Re(conj(t0) t1)."""
    t0, t1 = closed_form_amplitudes(point, phis)
    return np.abs(t0) ** 2 + np.abs(t1) ** 2 + 2.0 * lam * np.real(np.conj(t0) * t1)


def zero_temperature_transmission(point: dict, phis: np.ndarray) -> np.ndarray:
    """|A|^2 at the Fermi energy from the three-site (L, R, dot) resolvent."""
    pi_rho = point["x"]  # pi rho |W| with |W| = 1
    w = np.exp(1j * phis)
    v = point["v_mag"]
    a = np.zeros((phis.size, 3, 3), dtype=complex)
    a[:, 0, 0] = a[:, 1, 1] = 1.0 / (-1j * pi_rho)
    a[:, 0, 1] = -w
    a[:, 1, 0] = -np.conj(w)
    a[:, 0, 2] = a[:, 1, 2] = a[:, 2, 0] = a[:, 2, 1] = -v
    a[:, 2, 2] = -point["eps_d"]
    rhs = np.zeros((phis.size, 3, 1), dtype=complex)
    rhs[:, 0, 0] = 1.0
    amp = (2j / pi_rho) * np.linalg.solve(a, rhs)[:, 1, 0]
    return np.abs(amp) ** 2


def phase_grid(n: int) -> np.ndarray:
    return np.arange(n) * (2.0 * np.pi / n)


def _load_csv(path: Path, shape: tuple[int, int]) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != shape:
        raise CheckFailed(f"{path.name}: shape {data.shape}, expected {shape}")
    return data


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _sweep_config(inputs: dict) -> str:
    point = inputs["ring"]
    return (
        f"ring.x = {point['x']!r}\n"
        f"ring.v_mag = {point['v_mag']!r}\n"
        f"ring.eps_d = {point['eps_d']!r}\n"
        f"sweep.n_phi = {inputs['n_phi']}\n"
        f"sweep.lambda_list = {', '.join(repr(lam) for lam in inputs['lambdas'])}\n"
    )


def _write_sweep_config(inputs: dict, work: Path) -> None:
    (work / "sweep.cfg").write_text(_sweep_config(inputs), encoding="utf-8")


# -- verify ------------------------------------------------------------------


def _verify_inputs(rng: np.random.Generator) -> dict:
    # The suites offset this seed by up to 20,102.
    return {"smatrix_seed": int(rng.integers(0, 2**31))}


def _verify_steps(inputs: dict, op_dir: Path) -> list[Step]:
    seed = str(inputs["smatrix_seed"])
    return [
        ("cli", ["verify", "--seed", seed]),
        ("cli", ["rigidity", "--seed", seed, "--out", str(op_dir / "out")]),
    ]


def _check_verify(inputs: dict, op_dir: Path) -> None:
    text = (op_dir / "step0.out").read_text(encoding="utf-8")
    found = re.search(r"(\d+)/(\d+) suites passed", text)
    _require(found is not None, "verify printed no 'N/N suites passed' line")
    passed, run = int(found.group(1)), int(found.group(2))
    _require(
        passed == run >= MIN_SUITES, f"verify: {passed}/{run} suites passed, need N/N with N >= {MIN_SUITES}"
    )
    for name in ("rigidity_factorized.csv", "rigidity_generic.csv"):
        data = _load_csv(op_dir / "out" / name, (RIGIDITY_GRID, 5))
        worst = float(np.max(np.abs(data[:, 4])))
        _require(worst <= RIGIDITY_TOL, f"{name}: identity_residual {worst:.3e} > {RIGIDITY_TOL:g}")
        if name == "rigidity_factorized.csv":
            asym = float(np.max(np.abs(data[:, 1] - data[:, 2])))
            _require(asym <= RIGIDITY_TOL, f"{name}: factorized asymmetry {asym:.3e} > {RIGIDITY_TOL:g}")


# -- phase-sweep-dense and overlap-scan ---------------------------------------


def _sweep_inputs(lambdas: tuple[float, ...]) -> Callable[[np.random.Generator], dict]:
    def make(rng: np.random.Generator) -> dict:
        return {"ring": ring_point(rng), "n_phi": SWEEP_N_PHI, "lambdas": list(lambdas)}

    return make


def _sweep_steps(command: str) -> Callable[[dict, Path], list[Step]]:
    def steps(inputs: dict, op_dir: Path) -> list[Step]:
        cfg = op_dir.parent / "sweep.cfg"
        return [("cli", [command, "--config", str(cfg), "--out", str(op_dir / "out")])]

    return steps


def _sweep_items(inputs: dict) -> int:
    return inputs["n_phi"] * len(inputs["lambdas"])


def _check_phase_sweep(inputs: dict, op_dir: Path) -> None:
    lambdas = inputs["lambdas"]
    n = inputs["n_phi"]
    data = _load_csv(op_dir / "out" / "phase_sweep.csv", (n, 1 + len(lambdas)))
    phis = phase_grid(n)
    err = float(np.max(np.abs(data[:, 0] - phis)))
    _require(err <= PHI_ATOL, f"phase_sweep.csv: phi column off by {err:.3e}")
    for col, lam in enumerate(lambdas, start=1):
        want = closed_form_transmission(inputs["ring"], lam, phis)
        err = float(np.max(np.abs(data[:, col] - want)))
        _require(err <= SWEEP_ATOL, f"phase_sweep.csv: lambda={lam} off by {err:.3e} > {SWEEP_ATOL:g}")


def _check_overlap_scan(inputs: dict, op_dir: Path) -> None:
    lambdas = np.asarray(inputs["lambdas"])
    data = _load_csv(op_dir / "out" / "visibility.csv", (lambdas.size, 3))
    _require(np.array_equal(data[:, 0], lambdas), "visibility.csv: lambda column differs from the input")
    t0, t1 = closed_form_amplitudes(inputs["ring"], phase_grid(inputs["n_phi"]))
    # T = |t0|^2 + |t1|^2 + 2 lam Re(conj(t0) t1), one row per overlap.
    values = (np.abs(t0) ** 2 + np.abs(t1) ** 2) + 2.0 * lambdas[:, None] * np.real(np.conj(t0) * t1)
    hi, lo = values.max(axis=1), values.min(axis=1)
    err = float(np.max(np.abs(data[:, 1] - (hi - lo) / (hi + lo))))
    _require(err <= VISIBILITY_ATOL, f"visibility.csv: closed-loop column off by {err:.3e}")
    arm_a = abs(t0[0])
    arm_b = np.sqrt(np.mean(np.abs(t1) ** 2))
    slit = lambdas * 2.0 * arm_a * arm_b / (arm_a**2 + arm_b**2)
    err = float(np.max(np.abs(data[:, 2] - slit)))
    _require(err <= SLIT_ATOL, f"visibility.csv: double-slit column off by {err:.3e}")


# -- thermal-sweep -------------------------------------------------------------


def _thermal_inputs(rng: np.random.Generator) -> dict:
    return {
        **ring_point(rng),
        "n_phi": THERMAL_N_PHI,
        "temperatures": list(THERMAL_TEMPERATURES),
        "quadrature_points": THERMAL_POINTS,
        "energy_window": THERMAL_WINDOW,
    }


def _write_thermal_inputs(inputs: dict, work: Path) -> None:
    (work / "thermal.json").write_text(json.dumps(inputs), encoding="utf-8")


def _thermal_steps(inputs: dict, op_dir: Path) -> list[Step]:
    return [("thermal", [str(op_dir.parent / "thermal.json"), str(op_dir / "thermal.npy")])]


def _thermal_items(inputs: dict) -> int:
    return inputs["n_phi"] * len(inputs["temperatures"])


def _check_thermal(inputs: dict, op_dir: Path) -> None:
    temps = inputs["temperatures"]
    values = np.load(op_dir / "thermal.npy")
    _require(values.shape == (inputs["n_phi"], len(temps)), f"thermal.npy: shape {values.shape}")
    _require(bool(np.all(np.isfinite(values))), "thermal: non-finite transmission")
    lo, hi = float(values.min()), float(values.max())
    _require(
        -THERMAL_RANGE_TOL <= lo and hi <= 1.0 + THERMAL_RANGE_TOL,
        f"thermal: values span [{lo!r}, {hi!r}], outside [0, 1]",
    )
    zero_t = zero_temperature_transmission(inputs, phase_grid(inputs["n_phi"]))
    dev = np.max(np.abs(values - zero_t[:, None]), axis=0)
    order = np.argsort(temps)
    coldest, next_coldest = dev[order[0]], dev[order[1]]
    _require(
        coldest <= THERMAL_LOWEST_T_ATOL,
        f"thermal: kT={temps[order[0]]} is {coldest:.3e} from the zero-T limit",
    )
    _require(
        coldest <= THERMAL_APPROACH * next_coldest,
        f"thermal: no approach to the zero-T limit ({coldest:.3e} vs {next_coldest:.3e})",
    )


WORKLOADS: dict[str, Workload] = {
    "verify": Workload(
        name="verify",
        make_inputs=_verify_inputs,
        steps=_verify_steps,
        items=lambda inputs: VERIFY_PAIRS + VERIFY_DRAWS,
        check=_check_verify,
    ),
    "phase-sweep-dense": Workload(
        name="phase-sweep-dense",
        make_inputs=_sweep_inputs(PHASE_LAMBDAS),
        steps=_sweep_steps("sweep-phase"),
        items=_sweep_items,
        check=_check_phase_sweep,
        write_files=_write_sweep_config,
    ),
    "overlap-scan": Workload(
        name="overlap-scan",
        make_inputs=_sweep_inputs(SCAN_LAMBDAS),
        steps=_sweep_steps("sweep-lambda"),
        items=_sweep_items,
        check=_check_overlap_scan,
        write_files=_write_sweep_config,
    ),
    "thermal-sweep": Workload(
        name="thermal-sweep",
        make_inputs=_thermal_inputs,
        steps=_thermal_steps,
        items=_thermal_items,
        check=_check_thermal,
        write_files=_write_thermal_inputs,
    ),
}
