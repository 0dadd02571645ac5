"""Dephased transmission through the ring and derived observables.

With the detector-state overlap ``lam`` the transmission probability at
the Fermi energy is

    T(phi) = |t0|^2 + |t1|^2 + 2 Re[lam * conj(t0) * t1].

At ``lam = 0`` (perfect charge detection) the interference term dies, but
``|t1|^2`` still oscillates with the flux phase, so the visibility of the
oscillation stays finite.  A genuine two-path (double-slit) reference with
fixed arm amplitudes loses all contrast at ``lam = 0``; that reference is
provided for comparison.

Thermal smearing integrates an energy-resolved transmission against the
negative derivative of the Fermi function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ValidityError
from .ring import RingParams, amplitude_t0, amplitude_t1

__all__ = [
    "PhaseSweep",
    "ThermalConfig",
    "transmission",
    "thermal_transmission",
    "visibility",
    "phase_grid",
    "sweep_phase",
    "sweep_lambda",
    "double_slit_visibility",
    "dot_arm_rms",
    "rigidity_asymmetry",
]

OVERLAP_TOL = 1e-10
WEIGHT_MASS_TOL = 1e-6


def transmission(params: RingParams, lam, phi):
    """Transmission probability at the Fermi energy for overlap ``lam``.

    Accepts a scalar phase or an array of phases. ``lam`` may be complex;
    its magnitude must not exceed 1 (beyond a small tolerance).
    """
    if not abs(lam) <= 1.0 + OVERLAP_TOL:
        raise ValidityError(f"detector overlap magnitude must be at most 1, got {abs(lam)!r}")
    t0 = amplitude_t0(params, phi)
    t1 = amplitude_t1(params, phi)
    return np.abs(t0) ** 2 + np.abs(t1) ** 2 + 2.0 * np.real(lam * np.conj(t0) * t1)


def phase_grid(n_points: int) -> NDArray[np.float64]:
    """Uniform flux-phase grid over [0, 2 pi), starting at 0."""
    if n_points < 4:
        raise ValidityError(f"phase grid needs at least 4 points, got {n_points}")
    return np.arange(n_points) * (2.0 * np.pi / n_points)


@dataclass(frozen=True)
class PhaseSweep:
    """Transmission sampled on a uniform phase grid over one flux period."""

    phis: NDArray[np.float64]
    values: NDArray[np.float64]
    lambda_used: complex

    def __post_init__(self) -> None:
        phis = np.asarray(self.phis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "values", values)
        if phis.ndim != 1 or phis.size == 0 or values.shape != phis.shape:
            raise ValidityError("sweep needs matching 1-d phase and value arrays")
        if phis[0] != 0.0:
            raise ValidityError(f"phase grid must start at 0, got {phis[0]!r}")
        if phis.size > 1:
            steps = np.diff(phis)
            if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=0, atol=1e-12):
                raise ValidityError("phase grid must be strictly increasing and uniform")
            if abs(phis[-1] + steps[0] - 2.0 * np.pi) > 1e-9:
                raise ValidityError("phase grid must cover exactly one period [0, 2 pi)")

    def out_of_range(self) -> NDArray[np.intp]:
        """Indices where the value leaves [0, 1].

        Values are never clamped; out-of-range points signal that the
        single-visit amplitudes were pushed outside their validity.
        """
        return np.nonzero((self.values < 0.0) | (self.values > 1.0))[0]


def sweep_phase(params: RingParams, lam, n_points: int) -> PhaseSweep:
    """Sample the transmission on ``n_points`` phases covering [0, 2 pi)."""
    phis = phase_grid(n_points)
    return PhaseSweep(phis=phis, values=transmission(params, lam, phis), lambda_used=lam)


def visibility(sweep: PhaseSweep) -> float:
    """Oscillation contrast (max - min) / (max + min) over the sweep."""
    values = sweep.values
    if values.size == 0:
        raise ValidityError("cannot take the visibility of an empty sweep")
    if np.any(values < 0.0):
        raise ValidityError("visibility needs nonnegative transmission values")
    hi = float(values.max())
    lo = float(values.min())
    if hi + lo == 0.0:
        raise ValidityError("visibility undefined for an all-zero sweep")
    return (hi - lo) / (hi + lo)


def sweep_lambda(
    params: RingParams, lambdas: Sequence[float], n_points: int
) -> list[tuple[float, float]]:
    """Visibility of the phase sweep for each real overlap in ``lambdas``."""
    out = []
    for lam in lambdas:
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise ValidityError(f"overlap sweep values must lie in [0, 1], got {lam}")
        out.append((lam, visibility(sweep_phase(params, lam, n_points))))
    return out


def double_slit_visibility(a: float, b: float, lam: float) -> float:
    """Contrast of a fixed two-path reference with arm amplitudes a and b.

    Equals ``2 lam a b / (a^2 + b^2)``: exactly linear in the overlap and
    exactly zero at ``lam = 0``, unlike the closed-loop result.
    """
    if a < 0 or b < 0:
        raise ValidityError("arm amplitudes must be nonnegative")
    if not 0.0 <= lam <= 1.0:
        raise ValidityError(f"overlap must lie in [0, 1], got {lam}")
    if a == 0.0 and b == 0.0:
        raise ValidityError("double-slit reference needs at least one nonzero arm")
    slope = 2.0 * a * b / (a * a + b * b)
    return lam * slope


def dot_arm_rms(params: RingParams, n_points: int) -> float:
    """Root mean square of ``|t1|`` over one period of the phase grid.

    Used as the dot-arm amplitude of the double-slit reference, pairing
    with the phase-independent ``|t0|`` for the other arm.
    """
    t1 = amplitude_t1(params, phase_grid(n_points))
    return float(np.sqrt(np.mean(np.abs(t1) ** 2)))


def rigidity_asymmetry(sweep: PhaseSweep, params: RingParams, lam) -> float:
    """Largest violation of T(phi) = T(-phi) over the sweep grid.

    The single-visit result breaks this two-terminal symmetry through the
    phase dependence of ``|t1|^2``; for real ``lam`` the interference term
    is even in ``phi`` and does not contribute.
    """
    mirrored = transmission(params, lam, -sweep.phis)
    return float(np.max(np.abs(sweep.values - mirrored)))


@dataclass(frozen=True)
class ThermalConfig:
    """Fermi-window quadrature settings.

    ``temperature`` is k_B T in energy units; ``energy_window`` is the
    half-width of the integration window in units of k_B T.
    """

    temperature: float = 0.0
    quadrature_points: int = 128
    energy_window: float = 16.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValidityError(
                f"temperature must be finite and nonnegative, got {self.temperature}"
            )
        if self.temperature > 0 and self.quadrature_points < 16:
            raise ValidityError(
                f"need at least 16 quadrature points, got {self.quadrature_points}"
            )
        if not (math.isfinite(self.energy_window) and self.energy_window >= 8.0):
            raise ValidityError(
                f"energy window must be finite and span at least 8 k_B T, got {self.energy_window}"
            )


def thermal_transmission(tfun: Callable[[NDArray[np.float64]], object], cfg: ThermalConfig) -> float:
    """Average an energy-resolved transmission over the Fermi window.

    Midpoint quadrature of ``tfun`` against the thermal weight
    ``-df/dE = sech^2(E / 2kT) / 4kT`` on a symmetric window, with the
    discrete weights normalized to unit mass so a constant function is
    reproduced exactly.  At zero temperature this is ``tfun(0)``.

    Raises
    ------
    ValidityError
        If the raw quadrature mass differs from 1 by more than 1e-6,
        meaning the window or point count is too small for the weight.
    """
    kt = cfg.temperature
    if kt == 0.0:
        return float(tfun(0.0))
    half = cfg.energy_window * kt
    step = 2.0 * half / cfg.quadrature_points
    mids = -half + step * (np.arange(cfg.quadrature_points) + 0.5)
    arg = np.minimum(np.abs(mids / (2.0 * kt)), 350.0)
    weights = step / (4.0 * kt * np.cosh(arg) ** 2)
    mass = float(np.sum(weights))
    if not abs(mass - 1.0) <= WEIGHT_MASS_TOL:
        raise ValidityError(
            f"thermal weight mass {mass!r} deviates from 1 by more than "
            f"{WEIGHT_MASS_TOL}; enlarge energy_window or quadrature_points"
        )
    return float(np.sum(weights * np.asarray(tfun(mids), dtype=float)) / mass)
