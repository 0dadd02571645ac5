"""Dephased transmission through the ring and derived observables.

With the detector-state overlap ``lam`` the transmission probability at
the Fermi energy is

    T(phi) = |t0|^2 + |t1|^2 + 2 Re[lam * conj(t0) * t1].

At ``lam = 0`` (perfect charge detection) the interference term dies, but
``|t1|^2`` still oscillates with the flux phase, so the visibility of the
oscillation stays finite.  A genuine two-path (double-slit) reference with
fixed arm amplitudes loses all contrast at ``lam = 0``; that reference is
provided for comparison.

Only the interference term depends on the overlap, so a sweep evaluates
``t0`` and ``t1`` once on its phase grid and forms one row per overlap.

Thermal smearing integrates an energy-resolved transmission against the
negative derivative of the Fermi function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

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


def _dephased(params: RingParams, phi, lambdas: Iterable[complex]) -> Iterator:
    """Yield T(phi) for each overlap in turn, from one evaluation of t0 and t1."""
    t0 = amplitude_t0(params, phi)
    t1 = amplitude_t1(params, phi)
    direct = np.abs(t0) ** 2 + np.abs(t1) ** 2
    conj_t0 = np.conj(t0)
    for lam in lambdas:
        if not abs(lam) <= 1.0 + OVERLAP_TOL:
            raise ValidityError(f"detector overlap magnitude must be at most 1, got {abs(lam)!r}")
        yield direct + 2.0 * np.real(lam * conj_t0 * t1)


def transmission(params: RingParams, lam, phi):
    """Transmission probability at the Fermi energy for overlap ``lam``.

    Accepts a scalar phase or an array of phases. ``lam`` may be complex;
    its magnitude must not exceed 1 (beyond a small tolerance).
    """
    return next(_dephased(params, phi, [lam]))


def phase_grid(n_points: int) -> NDArray[np.float64]:
    """Uniform flux-phase grid over [0, 2 pi), starting at 0."""
    if n_points < 4:
        raise ValidityError(f"phase grid needs at least 4 points, got {n_points}")
    try:
        return np.arange(n_points) * (2.0 * np.pi / n_points)
    except (ValueError, MemoryError) as exc:  # ValueError: beyond numpy's index range
        raise ValidityError(f"phase grid of {n_points} points does not fit in memory") from exc


def _count_out_of_range(values: NDArray[np.float64]) -> NDArray[np.intp]:
    """Number of values outside [0, 1] along the last axis."""
    return np.count_nonzero((values < 0.0) | (values > 1.0), axis=-1)


@dataclass(frozen=True)
class PhaseSweep:
    """Transmission on a ``phase_grid``; ``values[i]`` is T(phis) at ``lambdas[i]``."""

    phis: NDArray[np.float64]
    lambdas: tuple
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        phis = np.asarray(self.phis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "values", values)
        if phis.ndim != 1 or phis.size == 0 or values.shape != (len(self.lambdas), phis.size):
            raise ValidityError("sweep needs a 1-d phase array and one value row per overlap")

    def out_of_range(self) -> NDArray[np.intp]:
        """Number of values outside [0, 1] in each row.

        Values are never clamped; out-of-range points signal that the
        single-visit amplitudes were pushed outside their validity.
        """
        return _count_out_of_range(self.values)


def sweep_phase(params: RingParams, lambdas: Sequence[complex], n_points: int) -> PhaseSweep:
    """Transmission on ``phase_grid(n_points)``, one row per overlap in ``lambdas``."""
    phis = phase_grid(n_points)
    values = np.empty((len(lambdas), n_points))
    for i, row in enumerate(_dephased(params, phis, lambdas)):
        values[i] = row
    return PhaseSweep(phis=phis, lambdas=tuple(lambdas), values=values)


def visibility(values: ArrayLike) -> float:
    """Oscillation contrast (max - min) / (max + min) of one row of values."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidityError("visibility needs one nonempty row of transmission values")
    if np.any(values < 0.0):
        raise ValidityError("visibility needs nonnegative transmission values")
    hi = float(values.max())
    lo = float(values.min())
    if hi + lo == 0.0:
        raise ValidityError("visibility undefined for an all-zero sweep")
    return (hi - lo) / (hi + lo)


def sweep_lambda(
    params: RingParams, lambdas: Sequence[float], n_points: int
) -> list[tuple[float, float, int]]:
    """(lambda, visibility, out-of-range count) per real overlap, each row reduced as made."""
    lambdas = [float(lam) for lam in lambdas]
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValidityError(f"overlap sweep values must lie in [0, 1], got {lam}")
    rows = zip(lambdas, _dephased(params, phase_grid(n_points), lambdas))
    return [(lam, visibility(row), int(_count_out_of_range(row))) for lam, row in rows]


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


def dot_arm_rms(params: RingParams) -> float:
    """Root mean square of ``|t1|`` over one flux period, in closed form.

    ``|t1|^2`` is a degree-2 trigonometric polynomial in ``phi``, so its
    mean over the period (or over any uniform grid of 3 or more points)
    is its zeroth harmonic, which gives

        |Gamma/eps_d| * 2x / (1 + x^2) * sqrt(4 + x^2 + 1/x^2).

    Used as the dot-arm amplitude of the double-slit reference, pairing
    with the phase-independent ``|t0|`` for the other arm.
    """
    x = params.x
    t0_mag = 2.0 * x / (1.0 + x * x)
    return abs(params.gamma / params.eps_d) * t0_mag * math.sqrt(4.0 + x * x + 1.0 / (x * x))


def rigidity_asymmetry(params: RingParams, lam, n_points: int) -> float:
    """Largest violation of T(phi) = T(-phi) over ``phase_grid(n_points)``.

    The single-visit result breaks this two-terminal symmetry through the
    phase dependence of ``|t1|^2``; for real ``lam`` the interference term
    is even in ``phi`` and does not contribute.  The asymmetry is therefore
    the same at ``lam = 1``, where the detector records nothing, as at
    ``lam = 0``: it is an artifact of the single-visit truncation, not of
    detection.  The all-order coherent ``|exact_amplitude|^2`` is rigid.
    """
    phis = phase_grid(n_points)
    return float(np.max(np.abs(transmission(params, lam, phis) - transmission(params, lam, -phis))))


@dataclass(frozen=True)
class ThermalConfig:
    """Fermi-window quadrature settings.

    ``temperature`` is k_B T in energy units; ``energy_window`` is the
    half-width of the integration window in units of k_B T.  Above zero
    temperature the config builds its midpoint energies and thermal
    weights ``-df/dE = sech^2(E / 2kT) / 4kT`` once, when it is made.

    Raises
    ------
    ValidityError
        If a setting is out of range, if the window width
        ``2 * energy_window * temperature`` overflows, or if the raw
        quadrature mass differs from 1 by more than 1e-6, meaning the window
        or point count is too small for the weight.
    """

    temperature: float = 0.0
    quadrature_points: int = 128
    energy_window: float = 16.0
    # The window's midpoint energies (read-only), their weights and the
    # weights' sum; None at zero temperature.
    _mids: NDArray[np.float64] | None = field(default=None, init=False, repr=False, compare=False)
    _weights: NDArray[np.float64] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _mass: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValidityError(
                f"temperature must be finite and nonnegative, got {self.temperature}"
            )
        n = self.quadrature_points
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValidityError(f"quadrature_points must be an integer, got {n!r}")
        if self.temperature > 0 and n < 16:
            raise ValidityError(f"need at least 16 quadrature points, got {n}")
        if not (math.isfinite(self.energy_window) and self.energy_window >= 8.0):
            raise ValidityError(
                f"energy window must be finite and span at least 8 k_B T, got {self.energy_window}"
            )
        kt = self.temperature
        if kt == 0.0:
            return
        half = self.energy_window * kt
        if not math.isfinite(2.0 * half):
            raise ValidityError(
                f"Fermi window width 2 * energy_window * temperature = 2 * {self.energy_window}"
                f" * {kt} overflows the float range"
            )
        step = 2.0 * half / n
        mids = -half + step * (np.arange(n) + 0.5)
        arg = np.minimum(np.abs(mids / (2.0 * kt)), 350.0)
        # A denominator that overflows belongs to a weight below about 1e-300
        # of the peak weight, which rounds away in the mass and the average.
        with np.errstate(over="ignore"):
            weights = step / (4.0 * kt * np.cosh(arg) ** 2)
        mass = float(np.sum(weights))
        if not abs(mass - 1.0) <= WEIGHT_MASS_TOL:
            raise ValidityError(
                f"thermal weight mass {mass!r} deviates from 1 by more than "
                f"{WEIGHT_MASS_TOL}; enlarge energy_window or quadrature_points"
            )
        mids.flags.writeable = False  # handed to every tfun
        object.__setattr__(self, "_mids", mids)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_mass", mass)


def thermal_transmission(tfun: Callable[[NDArray[np.float64]], object], cfg: ThermalConfig) -> float:
    """Average an energy-resolved transmission over the Fermi window.

    Midpoint quadrature of ``tfun`` against the thermal weights of ``cfg``
    on its symmetric window, with the discrete weights normalized to unit
    mass so a constant function is reproduced exactly.  ``tfun`` is called
    once, on all of the window's energies.  At zero temperature this is
    ``tfun(0)``.
    """
    if cfg.temperature == 0.0:
        return float(tfun(0.0))
    return float(np.sum(cfg._weights * np.asarray(tfun(cfg._mids), dtype=float)) / cfg._mass)
