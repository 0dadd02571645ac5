"""Closed-loop Aharonov-Bohm ring with an embedded quantum dot.

Two leads (L, R) are bridged twice: by a direct hop of magnitude ``|W|``
carrying the enclosed-flux phase ``phi``, and by a single dot level
``eps_d`` coupled to both leads with strength ``|V|``.  Multiple
reflections at the lead junctions resum into closed-form Fermi-energy
transmission amplitudes

    t0(phi) = -2i x / (1 + x^2) * exp(-i phi),      x = pi rho |W| = pi rho,
    t1(phi) = (Gamma / eps_d) t0(phi) (2i - exp(i phi)/x + x exp(-i phi)),

where ``rho`` is the lead density of states at the Fermi energy and
``Gamma = pi rho |V|^2 / (1 + x^2)`` is the effective width of the dot
level.  ``t0`` collects every path that avoids the dot; ``t1`` collects
every path with exactly one dot visit, which is the leading dot
contribution off resonance (``Gamma << |eps_d|``).

The ring depends only on ``x`` and ``Gamma/eps_d``, so ``|W|`` only sets the
unit: all energies are measured in units of ``|W| = 1`` with the Fermi
energy at 0.  The amplitude functions accept a scalar phase or an array of
phases.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import OffResonanceWarning, ValidityError

__all__ = [
    "RingParams",
    "DiagramComponents",
    "amplitude_t0",
    "amplitude_t1",
    "diagram_components",
]

# Off-resonance policy on Gamma/|eps_d|: warn above the first threshold,
# refuse above the second.
GUARD_WARN = 0.25
GUARD_ERROR = 0.5


def is_real(value) -> bool:
    """True for an int or a float, numpy's too, or an array or list of them; not a str or a bool."""
    if isinstance(value, (float, int)):  # numpy's float64 too
        return not isinstance(value, bool)
    if isinstance(value, (list, tuple)):
        return all(map(is_real, value))
    return isinstance(value, (np.ndarray, np.generic)) and value.dtype.kind in "iuf"


def float_array(value, name: str) -> NDArray[np.float64]:
    """A value that ``is_real`` as a float64 array; ``ValidityError`` naming ``name`` if numpy cannot."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValidityError(f"{name} holds an int beyond the float range") from None
    except ValueError:
        raise ValidityError(f"{name} is a ragged list, not an array") from None


def real(value, name: str) -> float:
    """``value`` as a float; ``ValidityError`` unless it is a real number (a str or bool is not)."""
    if isinstance(value, float) or (is_real(value) and float_array(value, name).ndim == 0):  # floats skip numpy
        return float(value)
    raise ValidityError(f"{name} must be a real number, got {value!r}")


def real_array(value, name: str) -> NDArray[np.float64]:
    """``value`` as a float64 array if it is a finite real number or an array, list or tuple of them."""
    if isinstance(value, float) and math.isfinite(value):
        return np.float64(value)  # computes as a 0-d array does, only faster
    if is_real(value) and np.isfinite(out := float_array(value, name)).all():
        return out
    raise ValidityError(f"{name} must be a finite real number or an array of them, got {value!r}")


def _is_normal(value: float) -> bool:
    """True for a finite float of normal magnitude (not zero, subnormal, inf or nan)."""
    return sys.float_info.min <= abs(value) <= sys.float_info.max


@dataclass(frozen=True, kw_only=True)
class RingParams:
    """Interferometer parameters in units of the direct hop, ``|W| = 1``.

    Fields are keyword-only, and all but ``validate_off_resonance`` are required.

    Parameters
    ----------
    v_mag : float
        Dot-lead hop magnitude.
    eps_d : float
        Dot level measured from the Fermi energy. Must be nonzero.
    rho : float
        Lead density of states at the Fermi energy.
    validate_off_resonance : bool
        When False, skip the off-resonance guard on ``Gamma/|eps_d|``.
        The closed forms are then used outside their stated validity and
        transmission values may leave [0, 1].
    """

    v_mag: float
    eps_d: float
    rho: float
    validate_off_resonance: bool = True

    def __post_init__(self) -> None:
        for name in ("v_mag", "rho", "eps_d"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        for name, value, in_range, requirement in (
            ("v_mag", self.v_mag, self.v_mag >= 0, "nonnegative"),
            ("rho", self.rho, self.rho > 0, "positive"),
            ("eps_d", self.eps_d, self.eps_d != 0, "nonzero (dot off resonance)"),
        ):
            if not (math.isfinite(value) and in_range):
                raise ValidityError(f"{name} must be finite and {requirement}, got {value}")
        x = self.x
        x2 = x * x
        try:
            ratio = self.gamma / abs(self.eps_d)
        except OverflowError:  # float ** 2 raises where float * float gives inf
            ratio = math.inf
        # x^2 and 1/x^2 enter t0, t1 and dot_arm_rms; a subnormal or zero x^2
        # turns them into inf, nan or all zeros.
        if not (x > 0 and _is_normal(x2) and _is_normal(1.0 / x2) and math.isfinite(ratio)):
            raise ValidityError(
                f"parameters leave the float range: x = pi rho = {x} (x^2 = {x2}), "
                f"Gamma/|eps_d| = {ratio}"
            )
        if self.validate_off_resonance:
            if ratio >= GUARD_ERROR:
                raise ValidityError(
                    f"Gamma/|eps_d| = {ratio:.4g} >= {GUARD_ERROR}: dot level too "
                    "close to resonance for the single-visit amplitudes"
                )
            if ratio > GUARD_WARN:
                # Name the caller, past from_x and the dataclass __init__ (both in this module).
                frame, level = sys._getframe(1), 2
                while frame.f_globals is globals():
                    frame, level = frame.f_back, level + 1
                warnings.warn(
                    f"Gamma/|eps_d| = {ratio:.4g} > {GUARD_WARN}: single-visit "
                    "truncation error grows quadratically in this ratio",
                    OffResonanceWarning,
                    stacklevel=level,
                )

    @classmethod
    def from_x(cls, x: float, v_mag: float, eps_d: float) -> "RingParams":
        """Build parameters from the dimensionless lead coupling ``x = pi rho``.

        The off-resonance guard always runs here; to waive it, build
        ``RingParams(..., validate_off_resonance=False)`` with ``rho = x / pi``.
        """
        x = real(x, "x")
        if not (math.isfinite(x) and x > 0):
            raise ValidityError(f"x must be finite and positive, got {x}")
        return cls(v_mag=v_mag, eps_d=eps_d, rho=x / np.pi)

    @property
    def x(self) -> float:
        """Dimensionless lead coupling ``pi rho |W|``, which is ``pi rho`` at ``|W| = 1``."""
        return np.pi * self.rho

    @property
    def gamma(self) -> float:
        """Effective dot level width ``pi rho |V|^2 / (1 + x^2)``."""
        return np.pi * self.rho * self.v_mag**2 / (1.0 + self.x**2)


def amplitude_t0(params: RingParams, phi):
    """Transmission amplitude of all paths avoiding the dot.

    ``|t0|`` is phase independent; the flux enters only as ``exp(-i phi)``.
    """
    x = params.x
    return (-2j * x / (1.0 + x * x)) * np.exp(-1j * phi)


def amplitude_t1(params: RingParams, phi):
    """Transmission amplitude of all paths with exactly one dot visit.

    Unlike ``t0``, its magnitude depends on the flux phase: the three
    bracket terms interfere, which is what keeps the conductance
    oscillating even when the dot visit is perfectly detected.
    """
    x = params.x
    bracket = 2j - np.exp(1j * phi) / x + x * np.exp(-1j * phi)
    return (params.gamma / params.eps_d) * amplitude_t0(params, phi) * bracket


@dataclass(frozen=True)
class DiagramComponents:
    """Single-dot-visit amplitude split by (entry lead, exit lead).

    Each class resums the junction-dressed propagation before entering and
    after leaving the dot, so the four classes carry different powers of
    ``x exp(-i phi)`` and their sum reproduces ``amplitude_t1``.
    """

    c_lr: complex
    c_ll: complex
    c_rr: complex
    c_rl: complex

    @property
    def total(self) -> complex:
        return self.c_lr + self.c_ll + self.c_rr + self.c_rl


def diagram_components(params: RingParams, phi) -> DiagramComponents:
    """Decompose ``amplitude_t1`` into the four (entry, exit) path classes."""
    x = params.x
    d = 1.0 / (1.0 + x * x)
    prefactor = -2j * params.gamma * d / params.eps_d
    crossing = 1j * x * np.exp(-1j * phi)  # one dressed junction crossing
    c_ll = prefactor * crossing
    c_rl = prefactor * crossing * crossing * -1.0  # (ix e^{-i phi})^2 = -x^2 e^{-2i phi}
    c_lr = np.full(np.shape(phi), -prefactor, dtype=complex)[()]
    return DiagramComponents(c_lr=c_lr, c_ll=c_ll, c_rr=c_ll, c_rl=c_rl)
