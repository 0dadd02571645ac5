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
from .oracle import exact_amplitude, fermi_amplitudes, second_order_amplitude
from .ring import RingParams, amplitude_t0, amplitude_t1, diagram_components
from .smatrix import TwoParticleSMatrix, factorized_family, generic_family, rigidity_report

__all__ = ["SuiteResult", "run_all"]

CALIBRATION_TOL = 1e-12
SECOND_ORDER_RTOL = 1e-8
DIAGRAM_RTOL = 1e-12
IDENTITY_TOL = 1e-12
FACTORIZED_TOL = 1e-12
GENERIC_MIN_ASYMMETRY = 0.01
CALIBRATION_DRAWS = 1000
SECOND_ORDER_DRAWS = 100
DIAGRAM_DRAWS = 1000
GENERIC_FAMILIES = 1000
FACTORIZED_FAMILIES = 100
# Truncation identity tolerance and resolution floor, in units of eps * S
# (see truncation_suite).  Over 1e5 random points, with |q| up to 230 and
# |1 - q| down to 3e-7, the gap never exceeded 2.2.
TRUNCATION_TOL = 16.0
TRUNCATION_FLOOR = 512.0
TRUNCATION_PHASES = (0.0, np.pi / 3.0, 2.0 * np.pi / 3.0, np.pi)
# Families per stack in rigidity_suite.  One stack of all 1,000 generic
# families took `abring verify` from 37 to 93 MB peak RSS.  Against stacks
# of 16, stacks of 32 took the suite from 211 to 188 ms (median CPU time of
# 40 interleaved rounds, 2-core VM, faster in 39) and `abring verify` from
# 39.5 to 40.3 MiB peak RSS (ru_maxrss, three runs each).
_FAMILY_BLOCK = 32


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


# Each ring draw takes x, |V|, Gamma/|eps_d|, the sign of eps_d and phi, in
# this order, uniform between these bounds.  Each calibration draw takes x
# and phi.  A whole suite's draws come from one rng.uniform call, which
# gives the bits of the same draws made one scalar at a time.
_RING_BOUNDS = ((0.05, 0.1, 0.02, 0.0, -np.pi), (3.0, 1.5, 0.24, 1.0, np.pi))
_CALIBRATION_BOUNDS = ((0.05, -np.pi), (3.0, np.pi))


def _uniform_rows(seed: int, bounds: tuple, n_draws: int) -> list[list[float]]:
    """``n_draws`` rows of seeded uniforms, one column per bound, as Python floats."""
    return np.random.default_rng(seed).uniform(*bounds, size=(n_draws, len(bounds[0]))).tolist()


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| with the bits of the scalar abs(z), which np.abs on an array does not keep."""
    return np.hypot(z.real, z.imag)


def _ring_draws(seed: int, n_draws: int) -> tuple[list[RingParams], list[float], list[complex]]:
    """Seeded valid off-resonance rings with broad coupling coverage, their phases and t1.

    Shared by the single-visit suites; ``t1`` is evaluated one ring at a time.
    """
    rings, phis = [], []
    for x, v, ratio, sign_draw, phi in _uniform_rows(seed, _RING_BOUNDS, n_draws):
        gamma = x * v * v / (1.0 + x * x)
        sign = 1.0 if sign_draw < 0.5 else -1.0
        rings.append(RingParams.from_x(x, v, sign * gamma / ratio))
        phis.append(phi)
    t1 = [complex(amplitude_t1(p, phi)) for p, phi in zip(rings, phis)]
    return rings, phis, t1


def calibration_suite(seed: int) -> SuiteResult:
    """Dot-decoupled resolvent must equal the direct closed form.

    The rings are solved as one stack; ``t0`` is evaluated one ring at a time.
    """
    xs, phis = zip(*_uniform_rows(seed, _CALIBRATION_BOUNDS, CALIBRATION_DRAWS))
    rings = [RingParams.from_x(x, 0.0, 1.0) for x in xs]
    t0 = np.array([amplitude_t0(p, phi) for p, phi in zip(rings, phis)])
    gaps = _abs(fermi_amplitudes(rings, np.array(phis)) - t0)
    return _report("oracle-calibration", "max |A(V=0) - t0|", gaps, CALIBRATION_TOL)


def second_order_suite(seed: int) -> SuiteResult:
    """Order-V^2 resolvent content must reproduce the single-visit amplitude.

    The normalization is the one frozen by the calibration suite; nothing
    is refit here.  The rings are solved as one stack.
    """
    rings, phis, t1 = _ring_draws(seed, SECOND_ORDER_DRAWS)
    t1 = np.array(t1)
    gaps = _abs(second_order_amplitude(rings, np.array(phis)) - t1) / _abs(t1)
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


def diagram_sum_suite(seed: int) -> SuiteResult:
    """The four (entry, exit) path classes must resum to the closed form.

    Gaps are relative to the classes' magnitude sum, ``2 |Gamma/eps_d|
    (1 + x)^2 / (1 + x^2)``: ``t1`` itself vanishes at ``x = 1, phi = pi/2``.
    """
    gaps = (
        abs(diagram_components(p, phi).total - t1)
        / (2.0 * abs(p.gamma / p.eps_d) * (1.0 + p.x) ** 2 / (1.0 + p.x**2))
        for p, phi, t1 in zip(*_ring_draws(seed, DIAGRAM_DRAWS))
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


def _family_case(seed: int, k: int) -> str:
    """The seeds of family ``k`` of ``rigidity_suite``: generic families come first."""
    if k < GENERIC_FAMILIES:
        return f"generic seed {seed + k}"
    k -= GENERIC_FAMILIES
    return f"factorized seeds ({seed + 10_000 + k}, {seed + 20_000 + k})"


def rigidity_suite(seed: int) -> SuiteResult:
    """Theorem identity, factorized rigidity, and generic rigidity breaking.

    Family ``k`` has seed ``seed + k`` (generic) or seeds ``seed + 10000 + k``
    and ``seed + 20000 + k`` (factorized).  On failure the detail names the
    family and phase of the worst identity residual and factorized asymmetry.
    """
    generic, generic_phase = _family_maxima(
        lambda ks: generic_family([seed + k for k in ks]), GENERIC_FAMILIES
    )
    factorized, factorized_phase = _family_maxima(
        lambda ks: factorized_family(
            [seed + 10_000 + k for k in ks], [seed + 20_000 + k for k in ks]
        ),
        FACTORIZED_FAMILIES,
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
            f"; worst identity residual at {_family_case(seed, k)}, phi={float(phases[k])!r}"
            f"; worst factorized asymmetry at {_family_case(seed, GENERIC_FAMILIES + j)}, "
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
