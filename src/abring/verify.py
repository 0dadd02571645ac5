"""Named verification suites bundling the cross-validation checks.

Each suite pits two independent routes at each other: closed forms against
the all-order resolvent, the diagram-class decomposition against the
single-visit amplitude, and the rigidity identity against direct
transmission asymmetries.  Suites are deterministic given their seed.
Every worst value is a NaN-propagating maximum, so a route that returns NaN
fails, and the sampled suites report through one ``_report``.  A suite
whose check sits below the rounding floor of double precision is reported
as unresolved: it neither passes nor fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .errors import ValidityError
from .oracle import exact_amplitude, second_order_amplitude
from .ring import RingParams, amplitude_t0, amplitude_t1, diagram_components
from .smatrix import TwoParticleSMatrix, factorized_family, generic_family, rigidity_report

__all__ = ["SuiteResult", "run_all"]

CALIBRATION_TOL = 1e-12
SECOND_ORDER_RTOL = 1e-8
DIAGRAM_RTOL = 1e-12
IDENTITY_TOL = 1e-12
FACTORIZED_TOL = 1e-12
GENERIC_MIN_ASYMMETRY = 0.01
# Truncation identity tolerance and resolution floor, in units of eps * S
# (see truncation_suite).  Over 1e5 random points, with |q| up to 230 and
# |1 - q| down to 3e-7, the gap never exceeded 2.2.
TRUNCATION_TOL = 16.0
TRUNCATION_FLOOR = 512.0
TRUNCATION_PHASES = (0.0, np.pi / 3.0, 2.0 * np.pi / 3.0, np.pi)
# Families per stack in rigidity_suite.  One stack of all 1,000 generic
# families took `abring verify` from 37 to 93 MB peak RSS; stacks of 16
# cost under 1 MB and run as fast as stacks of 32.
_FAMILY_BLOCK = 16


@dataclass(frozen=True)
class SuiteResult:
    """One suite's outcome; ``resolved`` is False when it could not decide."""

    name: str
    passed: bool
    detail: str
    resolved: bool = True


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
    """The resolvent's truncation residual must equal its geometric-series sum.

    Each further dot visit multiplies the amplitude by ``q = (Gamma/eps_d)
    (2i + 2x cos phi)``, so ``r = |A - t0 - t1|`` is exactly
    ``|t1 q / (1 - q)|``.  This is checked at ``TRUNCATION_PHASES`` for
    ``eps_d`` times 1, 2 and 4.  ``r`` is a difference of ``A``, ``t0`` and
    ``t1`` out of a solve whose condition grows as ``1 / |1 - q|``, so its
    rounding error scales as ``eps S`` with
    ``S = (|A| + |t0| + |t1|) / min(1, |1 - q|)``: a point passes when
    ``|r - |t1 q/(1-q)|| <= TRUNCATION_TOL eps S``.  A point whose predicted
    residual is below ``TRUNCATION_FLOOR eps S`` cannot be resolved and is
    skipped; when every point is, the suite is unresolved.  A point whose
    scaled ring is not valid (``eps_d`` overflows) is skipped the same way.
    """
    eps = np.finfo(float).eps
    gaps, relative, floors = [], [], []
    invalid = 0
    for factor in (1.0, 2.0, 4.0):
        try:
            # A larger |eps_d| only moves the ring further off resonance, so
            # the guard that admitted (or was waived for) params is not rerun.
            ring = replace(params, eps_d=factor * params.eps_d, validate_off_resonance=False)
        except ValidityError:
            invalid += len(TRUNCATION_PHASES)
            continue
        for phi in TRUNCATION_PHASES:
            a = exact_amplitude(ring, phi)
            t0, t1 = complex(amplitude_t0(ring, phi)), complex(amplitude_t1(ring, phi))
            q = (ring.gamma / ring.eps_d) * (2j + 2.0 * ring.x * np.cos(phi))
            predicted = abs(t1 * q / (1.0 - q))
            s = (abs(a) + abs(t0) + abs(t1)) / min(1.0, abs(1.0 - q))
            floors.append(predicted / (eps * s))
            if not floors[-1] < TRUNCATION_FLOOR:  # a NaN is checked, and fails
                gap = abs(abs(a - (t0 + t1)) - predicted)
                gaps.append(gap / (eps * s))
                relative.append(gap / predicted)
    n_points = len(floors) + invalid
    if not gaps:
        scope = f"{len(floors)} of {n_points}" if invalid else f"all {n_points}"
        overflow = f", and the scaled eps_d overflows at the other {invalid}" if invalid else ""
        detail = (
            f"|t1 q/(1-q)| <= {max(floors):.3g} eps S at {scope} points, below the rounding "
            f"floor {TRUNCATION_FLOOR:g} eps S{overflow}: truncation cannot be resolved here"
        )
        return SuiteResult("truncation-scaling", False, detail, resolved=False)
    worst = _worst(gaps)
    detail = (
        f"max |r - |t1 q/(1-q)|| = {worst:.3g} eps S (relative {_worst(relative):.3e}) "
        f"over {len(gaps)} of {n_points} points (tol {TRUNCATION_TOL:g} eps S)"
    )
    return SuiteResult("truncation-scaling", bool(worst <= TRUNCATION_TOL), detail)


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


def _family_maxima(
    build: Callable[[range], TwoParticleSMatrix], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per family, the worst |identity residual| and |T(phi) - T(-phi)|, and their phases.

    ``build(ks)`` makes the stacked family of indices ``ks``; the ``n``
    families are reported in stacks of at most ``_FAMILY_BLOCK``.  Both
    arrays have shape ``(n, 2)``, and a NaN is the worst of its family.
    """
    worst, phase = np.empty((n, 2)), np.empty((n, 2))
    for start in range(0, n, _FAMILY_BLOCK):
        rows = slice(start, min(start + _FAMILY_BLOCK, n))
        report = rigidity_report(build(range(rows.start, rows.stop)))
        gaps = np.abs(np.stack([report.identity_residual, report.t_pos - report.t_neg], axis=-1))
        worst[rows], phase[rows] = gaps.max(axis=1), report.phis[gaps.argmax(axis=1)]
    return worst, phase


def _family_case(seed: int, k: int, n_generic: int) -> str:
    """The seeds of family ``k`` of ``rigidity_suite``: generic families come first."""
    if k < n_generic:
        return f"generic seed {seed + k}"
    k -= n_generic
    return f"factorized seeds ({seed + 10_000 + k}, {seed + 20_000 + k})"


def rigidity_suite(seed: int, n_families: int = 1000, n_factorized: int = 100) -> SuiteResult:
    """Theorem identity, factorized rigidity, and generic rigidity breaking.

    Family ``k`` has seed ``seed + k`` (generic) or seeds ``seed + 10000 + k``
    and ``seed + 20000 + k`` (factorized).  On failure the detail names the
    family and phase of the worst identity residual and factorized asymmetry.
    """
    generic, generic_phase = _family_maxima(
        lambda ks: generic_family([seed + k for k in ks]), n_families
    )
    factorized, factorized_phase = _family_maxima(
        lambda ks: factorized_family(
            [seed + 10_000 + k for k in ks], [seed + 20_000 + k for k in ks]
        ),
        n_factorized,
    )
    identity = np.concatenate([generic[:, 0], factorized[:, 0]])
    worst_identity = _worst(identity)
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
    if not passed:
        phases = np.concatenate([generic_phase[:, 0], factorized_phase[:, 0]])
        k, j = int(np.argmax(identity)), int(np.argmax(factorized[:, 1]))
        detail += (
            f"; worst identity residual at {_family_case(seed, k, n_families)}, "
            f"phi={float(phases[k])!r}"
            f"; worst factorized asymmetry at {_family_case(seed, n_families + j, n_families)}, "
            f"phi={float(factorized_phase[j, 1])!r}"
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
