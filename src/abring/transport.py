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
``t0`` and ``t1`` at most once per phase of its grid and forms one row per
overlap.  A sweep returns only what it computes: ``sweep_phase`` the array
of rows on ``phase_grid(n_points)``, ``sweep_lambda`` one (visibility,
``out_of_range`` count) pair per overlap.  The caller keeps its overlaps.

``sweep_lambda`` gives the visibility and the count of the whole grid, bit
for bit, without evaluating every row at every phase.  Each row is sampled
on a coarse subgrid, and a curvature bound (``_chord_margin``) limits how
far the values between two samples leave their chord.  A cell between two
samples is evaluated point by point only if it can hold the row's maximum
or minimum, a negative value, or values on both sides of 1; a cell wholly
above 1 adds its width to the count.  Every value that decides an output
comes from the same expression on the same phases as the full row.

Thermal smearing integrates an energy-resolved transmission against the
negative derivative of the Fermi function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import ValidityError
from .ring import RingParams, amplitude_t0, amplitude_t1, real, real_array

__all__ = [
    "ThermalConfig",
    "transmission",
    "thermal_transmission",
    "visibility",
    "phase_grid",
    "sweep_phase",
    "sweep_lambda",
    "out_of_range",
    "double_slit_visibility",
    "dot_arm_rms",
]

OVERLAP_TOL = 1e-10
WEIGHT_MASS_TOL = 1e-6
# sweep_lambda samples each row at every (n_points // COARSE_CELLS)-th phase,
# so a cell spans at most 1/COARSE_CELLS of the flux period and more than half
# of that, whatever the grid; on grids under 2 * COARSE_CELLS points every
# point is a sample.
COARSE_CELLS = 1024
# Allowance for rounding in each computed transmission value, relative to
# (|t0| + max |t1|)^2, which bounds every term.  Far above the few ulps lost.
ROUNDING_ALLOWANCE = 1e-10


def _amplitude_terms(params: RingParams, phi) -> tuple:
    """``|t0|^2 + |t1|^2``, ``conj(t0)`` and ``t1`` at ``phi``."""
    t0 = amplitude_t0(params, phi)
    t1 = amplitude_t1(params, phi)
    return np.abs(t0) ** 2 + np.abs(t1) ** 2, np.conj(t0), t1


def _dephased_row(terms: tuple, lam):
    """T at the phases of ``terms`` for overlap ``lam``."""
    direct, conj_t0, t1 = terms
    return direct + 2.0 * np.real(lam * conj_t0 * t1)


def _check_overlap(lam) -> None:
    """Raise ``ValidityError`` unless ``lam`` is a number with ``|lam| <= 1 + OVERLAP_TOL``."""
    if np.ndim(lam) != 0 or np.asarray(lam).dtype.kind not in "iufc":
        raise ValidityError(f"detector overlap must be a real or complex number, got {lam!r}")
    if not abs(lam) <= 1.0 + OVERLAP_TOL:
        raise ValidityError(f"detector overlap magnitude must be at most 1, got {abs(lam)!r}")


def _check_int(value, name: str) -> None:
    """Raise ``ValidityError`` unless ``value`` is an int or a numpy integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidityError(f"{name} must be an integer, got {value!r}")


def transmission(params: RingParams, lam, phi):
    """Transmission probability at the Fermi energy for overlap ``lam``.

    A phase is a finite real number, or an array, list or tuple of them. ``lam``
    may be complex; its magnitude must not exceed 1 (beyond a small tolerance).
    """
    phi = real_array(phi, "phase")
    _check_overlap(lam)
    return _dephased_row(_amplitude_terms(params, phi), lam)


def phase_grid(n_points: int) -> NDArray[np.float64]:
    """Uniform flux-phase grid over [0, 2 pi), starting at 0."""
    _check_int(n_points, "phase grid size")
    if n_points < 4:
        raise ValidityError(f"phase grid needs at least 4 points, got {n_points}")
    try:
        return np.arange(n_points) * (2.0 * np.pi / n_points)
    except (ValueError, MemoryError) as exc:  # ValueError: beyond numpy's index range
        raise ValidityError(f"phase grid of {n_points} points does not fit in memory") from exc


def out_of_range(values: ArrayLike) -> NDArray[np.intp]:
    """Number of values outside [0, 1] along the last axis; a nan is outside.

    Sweeps never clamp; out-of-range points signal that the single-visit
    amplitudes were pushed outside their validity.
    """
    values = np.asarray(values)
    return values.shape[-1] - np.count_nonzero((values >= 0.0) & (values <= 1.0), axis=-1)


def sweep_phase(
    params: RingParams, lambdas: Sequence[complex], n_points: int
) -> NDArray[np.float64]:
    """Transmission on ``phase_grid(n_points)``; row ``i`` is T(phis) at ``lambdas[i]``."""
    phis = phase_grid(n_points)
    values = np.empty((len(lambdas), n_points))
    terms = _amplitude_terms(params, phis)
    for i, lam in enumerate(lambdas):
        _check_overlap(lam)
        values[i] = _dephased_row(terms, lam)
    return values


def visibility(values: ArrayLike) -> float:
    """Oscillation contrast (max - min) / (max + min) of one row of values."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidityError("visibility needs one nonempty row of transmission values")
    hi, lo = float(values.max()), float(values.min())
    if not -math.inf < lo <= hi < math.inf:  # a nan makes both nan
        raise ValidityError("visibility needs finite transmission values")
    if lo < 0.0:
        raise ValidityError("visibility needs nonnegative transmission values")
    if hi + lo == 0.0:
        raise ValidityError("visibility undefined for an all-zero sweep")
    return (hi - lo) / (hi + lo)


def sweep_lambda(
    params: RingParams, lambdas: Sequence[float], n_points: int
) -> list[tuple[float, int]]:
    """(visibility, out-of-range count) per real overlap on ``phase_grid(n_points)``.

    Both are the whole grid's, bit for bit, from the samples and cells each
    row needs (see the module docstring); the amplitudes are evaluated at
    most once per phase.
    """
    lambdas = [real(lam, "overlap sweep value") for lam in lambdas]
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValidityError(f"overlap sweep values must lie in [0, 1], got {lam}")
    phis = phase_grid(n_points)
    # Cell j holds the step - 1 points between samples j * step and
    # (j + 1) * step; the points past the last cell are samples too.
    step = max(1, n_points // COARSE_CELLS)
    n_cells = (n_points - 1) // step
    last = n_cells * step
    cell_phis = phis[:last].reshape(n_cells, step)[:, 1:]
    sample_terms = _amplitude_terms(params, phis[np.r_[0 : last + 1 : step, last + 1 : n_points]])
    # Cell interiors' terms, filled the first time a row needs the cell.
    cell_terms = [np.empty(cell_phis.shape, dtype) for dtype in (float, complex, complex)]
    filled = np.zeros(n_cells, dtype=bool)
    spacing = 2.0 * np.pi * step / n_points
    out = []
    for lam in lambdas:
        samples = _dephased_row(sample_terms, lam)
        hi, lo = samples.max(), samples.min()
        margin = _chord_margin(params, lam, spacing)
        if math.isfinite(margin) and math.isfinite(hi) and math.isfinite(lo):
            need, above = _undecided(samples[: n_cells + 1], hi, lo, margin)
            cells = np.flatnonzero(need)
            above_points = (step - 1) * int(np.count_nonzero(above))
        else:
            cells, above_points = np.arange(n_cells), 0
        fresh = cells[~filled[cells]]
        if fresh.size and step > 1:
            for buffer, values in zip(cell_terms, _amplitude_terms(params, cell_phis[fresh])):
                buffer[fresh] = values
            filled[fresh] = True
        inner = _dephased_row([terms[cells] for terms in cell_terms], lam)
        row = np.concatenate((samples, inner), axis=None)
        out.append((visibility(row), int(out_of_range(row)) + above_points))
    return out


def _chord_margin(params: RingParams, lam: float, spacing: float) -> float:
    """How far computed T values at overlap ``lam`` may leave the chord
    between two samples ``spacing`` apart.

    ``|t1|^2`` is a degree-2 and ``Re(conj(t0) t1)`` a degree-1
    trigonometric polynomial, so Bernstein's inequality gives
    ``|T''| <= 4 m^2 + 2 lam |t0| m`` with ``m = max |t1|``, and T leaves
    the chord by at most ``|T''|max spacing^2 / 8``, plus the rounding
    allowance.  In Python floats an overflow gives inf, silently.
    """
    x = params.x
    t0_mag = 2.0 * x / (1.0 + x * x)
    m = abs(params.gamma / params.eps_d) * t0_mag * (2.0 + x + 1.0 / x)
    curvature = m * (4.0 * m + 2.0 * lam * t0_mag)
    return curvature * spacing * spacing / 8.0 + ROUNDING_ALLOWANCE * (t0_mag + m) * (t0_mag + m)


def _undecided(ends: NDArray[np.float64], hi, lo, margin: float) -> tuple:
    """Masks over the cells between consecutive ``ends``: the cells whose
    values, within ``margin`` of their chord, may reach the row's maximum
    ``hi`` or minimum ``lo``, fall below 0, or lie on both sides of 1; and
    the other cells that lie wholly above 1.  The rest lie in [0, 1].
    """
    upper = np.maximum(ends[:-1], ends[1:]) + margin
    lower = np.minimum(ends[:-1], ends[1:]) - margin
    need = (upper >= hi) | (lower <= max(lo, 0.0)) | ((lower <= 1.0) & (upper > 1.0))
    return need, (lower > 1.0) & ~need


def double_slit_visibility(a: float, b: float, lam: float) -> float:
    """Contrast of a fixed two-path reference with arm amplitudes a and b.

    Equals ``2 lam a b / (a^2 + b^2)``: exactly linear in the overlap and
    exactly zero at ``lam = 0``, unlike the closed-loop result.
    """
    a, b, lam = real(a, "arm amplitude a"), real(b, "arm amplitude b"), real(lam, "overlap")
    norm = a * a + b * b  # Python floats: an overflow gives inf, never a numpy warning
    if not (a >= 0.0 and b >= 0.0 and 0.0 < norm < math.inf):
        raise ValidityError(f"arm amplitudes {a!r} and {b!r}: need a, b >= 0, 0 < a^2 + b^2 < inf")
    if not 0.0 <= lam <= 1.0:
        raise ValidityError(f"overlap must lie in [0, 1], got {lam}")
    return lam * (2.0 * a * b / norm)


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


@dataclass(frozen=True)
class ThermalConfig:
    """Fermi-window quadrature settings.

    ``temperature`` is k_B T in energy units and must be positive;
    ``energy_window`` is the half-width of the integration window in units
    of k_B T.  The config builds its midpoint energies and thermal weights
    ``-df/dE = sech^2(E / 2kT) / 4kT`` once, when it is made.

    Raises
    ------
    ValidityError
        If a setting is out of range, if the window width
        ``2 * energy_window * temperature`` overflows, or if the raw
        quadrature mass differs from 1 by more than 1e-6, meaning the window
        or point count is too small for the weight.
    """

    temperature: float
    quadrature_points: int = 128
    energy_window: float = 16.0
    # The window's midpoint energies (read-only), their weights and the
    # weights' sum.
    _mids: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _weights: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(real(self.temperature, "temperature")) and self.temperature > 0):
            raise ValidityError(f"temperature must be finite and positive, got {self.temperature}")
        n = self.quadrature_points
        _check_int(n, "quadrature_points")
        if n < 16:
            raise ValidityError(f"need at least 16 quadrature points, got {n}")
        if not (math.isfinite(span := real(self.energy_window, "energy_window")) and span >= 8):
            raise ValidityError(
                f"energy window must be finite and span at least 8 k_B T, got {self.energy_window}"
            )
        kt = self.temperature
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
    once, on all of the window's energies.
    """
    return float(np.sum(cfg._weights * np.asarray(tfun(cfg._mids), dtype=float)) / cfg._mass)
