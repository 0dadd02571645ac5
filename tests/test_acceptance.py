"""Acceptance criteria, one test per criterion at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one printed pass/fail
line per criterion alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from abring import (
    RingParams,
    ThermalConfig,
    energy_resolved_transmission,
    sweep_phase,
    thermal_transmission,
    transmission,
    truncation_residual,
    visibility,
)
from abring.transport import double_slit_visibility
from abring.verify import (
    calibration_suite,
    diagram_sum_suite,
    rigidity_suite,
    second_order_suite,
)


@pytest.fixture
def ring():
    return RingParams.from_x(0.4, 0.75, 1.25)


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert passed, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_width_ratio(ring):
    ratio = ring.gamma / ring.eps_d
    _report(
        1,
        "effective width ratio",
        abs(ratio - 0.155) <= 5e-4,
        f"Gamma/eps_d = {ratio:.7f} (target 0.155 +- 0.0005)",
    )


def test_criterion_02_residual_visibility(ring):
    start = time.perf_counter()
    vis = visibility(sweep_phase(ring, [0.0], 720).values[0])
    # Independent dense-grid scan straight from the closed forms.
    phi = np.arange(200_000) * (2.0 * np.pi / 200_000)
    x, v, eps_d = 0.4, 0.75, 1.25
    t0 = -2j * x / (1 + x * x) * np.exp(-1j * phi)
    gamma = x * v * v / (1 + x * x)
    t1 = gamma / eps_d * t0 * (2j - np.exp(1j * phi) / x + x * np.exp(-1j * phi))
    scan = np.abs(t0) ** 2 + np.abs(t1) ** 2
    vis_scan = (scan.max() - scan.min()) / (scan.max() + scan.min())
    elapsed = time.perf_counter() - start
    ok = vis > 0.0 and abs(vis - 0.2147) <= 1e-3 and abs(vis - vis_scan) < 1e-6 and elapsed < 1.0
    _report(
        2,
        "residual visibility at perfect detection",
        ok,
        f"visibility = {vis:.6f} (window 0.2147 +- 0.001), dense scan {vis_scan:.6f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_03_double_slit_contrast(ring):
    arms = (0.6896551724137931, 0.3452803620549704)
    at_zero = double_slit_visibility(*arms, 0.0)
    slope = double_slit_visibility(*arms, 1.0)
    lams = np.linspace(0.0, 1.0, 101)
    deviation = max(
        abs(double_slit_visibility(*arms, float(lam)) - lam * slope) for lam in lams
    )
    ok = at_zero == 0.0 and deviation <= 1e-15
    _report(
        3,
        "double-slit contrast",
        ok,
        f"value at 0 = {at_zero}, max linearity deviation = {deviation:.2e}",
    )


def test_criterion_04_oracle_calibration():
    start = time.perf_counter()
    suite = calibration_suite(seed=7, n_draws=1000)
    elapsed = time.perf_counter() - start
    _report(4, "oracle calibration identity", suite.passed and elapsed < 1.0,
            f"{suite.detail}, {elapsed:.2f}s")


def test_criterion_05_second_order_validation():
    start = time.perf_counter()
    suite = second_order_suite(seed=11, n_draws=100)
    elapsed = time.perf_counter() - start
    _report(5, "no-free-parameter dot amplitude", suite.passed and elapsed < 5.0,
            f"{suite.detail}, {elapsed:.2f}s")


def test_criterion_06_truncation_scaling(ring):
    start = time.perf_counter()
    r1 = truncation_residual(ring, 0.0)
    r4 = truncation_residual(RingParams.from_x(0.4, 0.75, 4.0 * 1.25), 0.0)
    ratio = r1 / r4
    elapsed = time.perf_counter() - start
    _report(
        6,
        "quadratic truncation scaling",
        12.0 <= ratio <= 20.0 and elapsed < 1.0,
        f"residual ratio under eps_d x4 = {ratio:.4f} (window [12, 20]), {elapsed:.2f}s",
    )


def test_criterion_07_diagram_sum():
    suite = diagram_sum_suite(seed=13, n_draws=1000)
    _report(7, "diagram-sum identity", suite.passed, suite.detail)


def test_criterion_08_rigidity_theorem():
    start = time.perf_counter()
    suite = rigidity_suite(seed=17, n_families=1000, n_factorized=100)
    elapsed = time.perf_counter() - start
    _report(8, "rigidity theorem suite", suite.passed and elapsed < 10.0,
            f"{suite.detail}, {elapsed:.2f}s")


def test_criterion_09_perturbative_rigidity_breaking(ring):
    delta = transmission(ring, 0.0, np.pi / 2) - transmission(ring, 0.0, -np.pi / 2)
    _report(
        9,
        "perturbative rigidity breaking",
        abs(delta - (-0.2651)) <= 1e-3 and delta != 0.0,
        f"T(pi/2) - T(-pi/2) = {delta:.6f} (target -0.2651 +- 0.001)",
    )


def test_criterion_10_thermal_limit(ring):
    tfun = energy_resolved_transmission(ring, 0.7)
    cold = thermal_transmission(tfun, ThermalConfig(temperature=0.0))
    exact_cold = cold == float(tfun(0.0))
    warm = [
        thermal_transmission(tfun, ThermalConfig(temperature=0.01, quadrature_points=n))
        for n in (128, 256)
    ]
    rel_change = abs(warm[1] - warm[0]) / abs(warm[1])
    ok = exact_cold and rel_change < 1e-8
    _report(
        10,
        "thermal limit and convergence",
        ok,
        f"zero-T exact: {exact_cold}; doubling change = {rel_change:.2e} (tol 1e-8)",
    )
