"""Named verification suites bundling the cross-validation checks.

Each suite pits two independent routes at each other: closed forms against
the all-order resolvent, the diagram-class decomposition against the
single-visit amplitude, and the rigidity identity against direct
transmission asymmetries.  Suites are deterministic given their seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .oracle import exact_amplitude, second_order_amplitude, truncation_residual
from .ring import RingParams, amplitude_t0, amplitude_t1, diagram_components
from .smatrix import factorized_family, generic_family, rigidity_report, symmetric_phi_grid

__all__ = ["SuiteResult", "run_all"]

CALIBRATION_TOL = 1e-12
SECOND_ORDER_RTOL = 1e-8
DIAGRAM_RTOL = 1e-12
IDENTITY_TOL = 1e-12
FACTORIZED_TOL = 1e-12
GENERIC_MIN_ASYMMETRY = 0.01
SCALING_4X = (12.0, 20.0)
SCALING_2X = (3.4, 4.6)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _random_ring(rng: np.random.Generator) -> RingParams:
    """Valid off-resonance parameters with broad coupling coverage."""
    x = rng.uniform(0.05, 3.0)
    v = rng.uniform(0.1, 1.5)
    gamma = x * v * v / (1.0 + x * x)
    ratio = rng.uniform(0.02, 0.24)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return RingParams.from_x(x, v, sign * gamma / ratio)


def calibration_suite(seed: int, n_draws: int = 1000) -> SuiteResult:
    """Dot-decoupled resolvent must equal the direct closed form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        x = rng.uniform(0.05, 3.0)
        phi = rng.uniform(-np.pi, np.pi)
        params = RingParams.from_x(x, 0.0, 1.0)
        worst = max(worst, abs(exact_amplitude(params, phi) - amplitude_t0(params, phi)))
    return SuiteResult(
        name="oracle-calibration",
        passed=worst < CALIBRATION_TOL,
        detail=f"max |A(V=0) - t0| = {worst:.3e} over {n_draws} draws (tol {CALIBRATION_TOL:g})",
    )


def second_order_suite(seed: int, n_draws: int = 100) -> SuiteResult:
    """Order-V^2 resolvent content must reproduce the single-visit amplitude.

    The normalization is the one frozen by the calibration suite; nothing
    is refit here.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        params = _random_ring(rng)
        phi = rng.uniform(-np.pi, np.pi)
        target = complex(amplitude_t1(params, phi))
        got = second_order_amplitude(params, phi)
        worst = max(worst, abs(got - target) / abs(target))
    return SuiteResult(
        name="oracle-second-order",
        passed=worst < SECOND_ORDER_RTOL,
        detail=f"max rel |A2 - t1| = {worst:.3e} over {n_draws} draws (tol {SECOND_ORDER_RTOL:g})",
    )


def truncation_suite(params: RingParams, phi: float = 0.0) -> SuiteResult:
    """Truncation error must shrink quadratically as the dot level recedes."""
    r1 = truncation_residual(params, phi)
    r2 = truncation_residual(replace(params, eps_d=2.0 * params.eps_d), phi)
    r4 = truncation_residual(replace(params, eps_d=4.0 * params.eps_d), phi)
    ratio4 = r1 / r4
    ratio2 = r1 / r2
    ok4 = SCALING_4X[0] <= ratio4 <= SCALING_4X[1]
    ok2 = SCALING_2X[0] <= ratio2 <= SCALING_2X[1]
    return SuiteResult(
        name="truncation-scaling",
        passed=ok4 and ok2,
        detail=(
            f"residual {r1:.6e}; eps_d x4 ratio {ratio4:.4f} in {SCALING_4X}, "
            f"x2 ratio {ratio2:.4f} in {SCALING_2X}"
        ),
    )


def diagram_sum_suite(seed: int, n_draws: int = 1000) -> SuiteResult:
    """The four (entry, exit) path classes must resum to the closed form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        params = _random_ring(rng)
        phi = rng.uniform(-np.pi, np.pi)
        target = complex(amplitude_t1(params, phi))
        total = diagram_components(params, phi).total
        worst = max(worst, abs(total - target) / abs(target))
    return SuiteResult(
        name="diagram-sum",
        passed=worst < DIAGRAM_RTOL,
        detail=f"max rel |sum - t1| = {worst:.3e} over {n_draws} draws (tol {DIAGRAM_RTOL:g})",
    )


def rigidity_suite(
    seed: int,
    n_families: int = 1000,
    n_factorized: int = 100,
    grid_points: int = 64,
) -> SuiteResult:
    """Theorem identity, factorized rigidity, and generic rigidity breaking."""
    grid = symmetric_phi_grid(grid_points)
    worst_identity = 0.0
    largest_generic = 0.0
    for k in range(n_families):
        report = rigidity_report(generic_family(seed + k), grid)
        worst_identity = max(worst_identity, report.max_identity_residual)
        largest_generic = max(largest_generic, report.max_asymmetry)
    worst_factorized = 0.0
    for k in range(n_factorized):
        report = rigidity_report(factorized_family(seed + 10_000 + k, seed + 20_000 + k), grid)
        worst_factorized = max(worst_factorized, report.max_asymmetry)
        worst_identity = max(worst_identity, report.max_identity_residual)
    passed = (
        worst_identity < IDENTITY_TOL
        and worst_factorized < FACTORIZED_TOL
        and largest_generic > GENERIC_MIN_ASYMMETRY
    )
    return SuiteResult(
        name="rigidity-theorem",
        passed=passed,
        detail=(
            f"max identity residual = {worst_identity:.3e} (tol {IDENTITY_TOL:g}); "
            f"factorized max asymmetry = {worst_factorized:.3e}; "
            f"generic max asymmetry = {largest_generic:.4f} (> {GENERIC_MIN_ASYMMETRY})"
        ),
    )


def run_all(params: RingParams, seed: int) -> list[SuiteResult]:
    """Run every suite with deterministic per-suite seeds."""
    return [
        calibration_suite(seed),
        second_order_suite(seed + 1),
        truncation_suite(params),
        diagram_sum_suite(seed + 2),
        rigidity_suite(seed + 3),
    ]
