"""Named verification suites bundling the cross-validation checks.

Each suite pits two independent routes at each other: closed forms against
the all-order resolvent, the diagram-class decomposition against the
single-visit amplitude, and the rigidity identity against direct
transmission asymmetries.  Suites are deterministic given their seed.
Every worst value is a NaN-propagating maximum, so a route that returns NaN
fails, and the sampled suites report through one ``_report``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .oracle import exact_amplitude, second_order_amplitude, truncation_residual
from .ring import RingParams, amplitude_t0, amplitude_t1, diagram_components
from .smatrix import factorized_family, generic_family, rigidity_report

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


def _worst(values) -> float:
    """Largest value; NaN if any value is NaN, 0 if there are none."""
    return float(np.max(values, initial=0.0))


def _report(name: str, label: str, gaps: Iterable[float], tol: float) -> SuiteResult:
    """Pass when the worst per-draw gap is below ``tol``; a NaN gap fails."""
    gaps = np.fromiter(gaps, float)
    worst = _worst(gaps)
    detail = f"{label} = {worst:.3e} over {gaps.size} draws (tol {tol:g})"
    return SuiteResult(name, bool(worst < tol), detail)


def _random_ring(rng: np.random.Generator) -> RingParams:
    """Valid off-resonance parameters with broad coupling coverage."""
    x = rng.uniform(0.05, 3.0)
    v = rng.uniform(0.1, 1.5)
    gamma = x * v * v / (1.0 + x * x)
    ratio = rng.uniform(0.02, 0.24)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return RingParams.from_x(x, v, sign * gamma / ratio)


def _ring_draws(seed: int, n_draws: int):
    """Seeded ``(ring, phi, t1)`` draws shared by the single-visit suites."""
    rng = np.random.default_rng(seed)
    for _ in range(n_draws):
        params, phi = _random_ring(rng), rng.uniform(-np.pi, np.pi)
        yield params, phi, complex(amplitude_t1(params, phi))


def calibration_suite(seed: int, n_draws: int = 1000) -> SuiteResult:
    """Dot-decoupled resolvent must equal the direct closed form."""
    rng = np.random.default_rng(seed)
    gaps = np.empty(n_draws)
    for k in range(n_draws):
        params = RingParams.from_x(rng.uniform(0.05, 3.0), 0.0, 1.0)
        phi = rng.uniform(-np.pi, np.pi)
        gaps[k] = abs(exact_amplitude(params, phi) - amplitude_t0(params, phi))
    return _report("oracle-calibration", "max |A(V=0) - t0|", gaps, CALIBRATION_TOL)


def second_order_suite(seed: int, n_draws: int = 100) -> SuiteResult:
    """Order-V^2 resolvent content must reproduce the single-visit amplitude.

    The normalization is the one frozen by the calibration suite; nothing
    is refit here.
    """
    gaps = (
        abs(second_order_amplitude(params, phi) - t1) / abs(t1)
        for params, phi, t1 in _ring_draws(seed, n_draws)
    )
    return _report("oracle-second-order", "max rel |A2 - t1|", gaps, SECOND_ORDER_RTOL)


def truncation_suite(params: RingParams) -> SuiteResult:
    """Truncation error at phi = 0 must shrink quadratically as the dot level recedes."""
    r1 = truncation_residual(params, 0.0)
    r2 = truncation_residual(replace(params, eps_d=2.0 * params.eps_d), 0.0)
    r4 = truncation_residual(replace(params, eps_d=4.0 * params.eps_d), 0.0)
    # At |V| = 0 the residuals are 0 or rounding noise: the ratios are noise, inf or nan.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio4, ratio2 = np.divide(r1, [r4, r2]).tolist()
    passed = SCALING_4X[0] <= ratio4 <= SCALING_4X[1] and SCALING_2X[0] <= ratio2 <= SCALING_2X[1]
    detail = (
        f"residual {r1:.6e}; eps_d x4 ratio {ratio4:.4f} in {SCALING_4X}, "
        f"x2 ratio {ratio2:.4f} in {SCALING_2X}"
    )
    return SuiteResult("truncation-scaling", passed, detail)


def diagram_sum_suite(seed: int, n_draws: int = 1000) -> SuiteResult:
    """The four (entry, exit) path classes must resum to the closed form.

    Gaps are relative to the classes' magnitude sum, ``2 |Gamma/eps_d|
    (1 + x)^2 / (1 + x^2)``: ``t1`` itself vanishes at ``x = 1, phi = pi/2``.
    """
    gaps = (
        abs(diagram_components(p, phi).total - t1)
        / (2.0 * abs(p.gamma / p.eps_d) * (1.0 + p.x) ** 2 / (1.0 + p.x**2))
        for p, phi, t1 in _ring_draws(seed, n_draws)
    )
    return _report("diagram-sum", "max |sum - t1| / sum |c|", gaps, DIAGRAM_RTOL)


def rigidity_suite(seed: int, n_families: int = 1000, n_factorized: int = 100) -> SuiteResult:
    """Theorem identity, factorized rigidity, and generic rigidity breaking."""

    def maxima(families: Iterable) -> np.ndarray:
        reports = (rigidity_report(family) for family in families)
        pairs = ((r.max_identity_residual, r.max_asymmetry) for r in reports)
        return np.fromiter(pairs, np.dtype((float, 2)))

    generic = maxima(generic_family(seed + k) for k in range(n_families))
    factorized = maxima(
        factorized_family(seed + 10_000 + k, seed + 20_000 + k) for k in range(n_factorized)
    )
    worst_identity = _worst(np.concatenate([generic[:, 0], factorized[:, 0]]))
    largest_generic, worst_factorized = _worst(generic[:, 1]), _worst(factorized[:, 1])
    passed = (
        worst_identity < IDENTITY_TOL
        and worst_factorized < FACTORIZED_TOL
        and largest_generic > GENERIC_MIN_ASYMMETRY
    )
    detail = (
        f"max identity residual = {worst_identity:.3e} (tol {IDENTITY_TOL:g}); "
        f"factorized max asymmetry = {worst_factorized:.3e}; "
        f"generic max asymmetry = {largest_generic:.4f} (> {GENERIC_MIN_ASYMMETRY})"
    )
    return SuiteResult("rigidity-theorem", passed, detail)


def run_all(params: RingParams, seed: int) -> list[SuiteResult]:
    """Run every suite with deterministic per-suite seeds."""
    return [
        calibration_suite(seed),
        second_order_suite(seed + 1),
        truncation_suite(params),
        diagram_sum_suite(seed + 2),
        rigidity_suite(seed + 3),
    ]
