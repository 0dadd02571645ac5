"""Exact reference solver for the ring amplitudes.

Instead of truncating the dot path at a single visit, this module resums
every hop order at once: the three sites {L junction, R junction, dot}
are coupled by the full hop matrix and the transmission amplitude is read
off the resolvent

    G = (g^{-1} - H)^{-1},    g = diag(g_lead, g_lead, 1/(E - eps_d)),

with wide-band lead propagators ``g_lead = -i pi rho`` that carry no
energy dependence.  The overall amplitude normalization is fixed once by
requiring the dot-decoupled (V = 0) channel to reproduce the closed-form
direct amplitude for every coupling and phase, which gives
``N = 2i / (pi rho)``.  Nothing else is fit: the second-order content of
the same resolvent must then match the closed-form single-visit amplitude
on its own, and the leftover quantifies the truncation error.

``ResolventModel(params, phi)`` is the whole model.  It assembles
``g^{-1} - H`` at the Fermi energy from the ring, so ``H`` is Hermitian by
construction and the only checks are those ``RingParams`` makes when it is
built.  One builder makes that matrix for one ring or for a sequence of
rings, each at its phase; ``fermi_amplitudes`` and ``second_order_amplitude``
solve a sequence as one stack, and each ring's amplitude keeps the bits of
its own solve.  The energy enters only the dot entry, as ``E - eps_d``, so it
reaches the amplitude through one scalar, the dot's Schur complement
``S(E) = (E - eps_d) - Sigma``, with ``Sigma = r B^{-1} c`` from the lead
block ``B`` and the dot hops ``c`` and ``r``.  A model makes one LAPACK
solve, at ``E = 0``, and inverts the 2x2 ``B`` by its adjugate; every
energy after that is arithmetic,

    A(E) = A(0) - N u_R w_L E / (S(E) S(0)),   u = B^{-1} c,  w = r B^{-1},

which is exact, since ``G_RL(E) - G_RL(0) = u_R w_L (1/S(E) - 1/S(0))``.
An energy, its detuning ``E - eps_d`` and ``E / S(E)`` must be finite
(``ValidityError``); ``S(E) = 0``, which only a dot whose ``Sigma`` is 0
reaches, at ``E = eps_d``, is a ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ValidityError
from .ring import RingParams, amplitude_t0, amplitude_t1

__all__ = [
    "ResolventModel",
    "exact_amplitude",
    "fermi_amplitudes",
    "second_order_amplitude",
    "truncation_residual",
    "energy_resolved_transmission",
]

# One ring, or a sequence of rings solved as one stack.
Rings = RingParams | Sequence[RingParams]
# Inject at L: the solve's column of G, whose R entry is G_RL.
_INJECT_L = np.array([1.0, 0.0, 0.0], dtype=complex)


def _ring_fields(rings: Rings):
    """``rho``, ``v_mag`` and ``eps_d`` of one ring, or arrays of them over a sequence."""
    if isinstance(rings, RingParams):
        return rings.rho, rings.v_mag, rings.eps_d
    return np.array([(r.rho, r.v_mag, r.eps_d) for r in rings], dtype=float).reshape(-1, 3).T


def _norm_const(rho):
    """``N = 2i / (pi rho)``, fixed by the dot-decoupled channel."""
    return 2j / (np.pi * rho)


def _inverse_propagator(rings: Rings, phi) -> NDArray[np.complex128]:
    """g^{-1} - H at the Fermi energy, as a fresh C-ordered array.

    One ring at a float phase gives a 3x3 matrix; a sequence of n rings
    with an array of n phases gives an (n, 3, 3) stack of the same bits.
    """
    rho, v, eps_d = _ring_fields(rings)
    # The direct hop L<-R carries |W| e^{i phi}, with |W| = 1, so that
    # L->R transmission picks up e^{-i phi}.
    w = np.exp(1j * phi)
    # The leads' 1/g_lead, with g_lead = -i pi rho, negated here so that the
    # one negation below, exact for every bit, restores it.
    lead = -(1.0 / (-1j * (np.pi * rho)))
    # Written transposed: .T then puts the ring axis first and each matrix
    # back the right way round.
    m_t = np.array([[lead, np.conj(w), v], [w, lead, v], [v, v, eps_d]], dtype=complex)
    a = np.negative(m_t.T, order="C")
    a[..., 2, 2] = -eps_d  # a real dot entry: its imaginary part is +0.0
    return a



@dataclass(frozen=True)
class ResolventModel:
    """Three-site resolvent of the ring at a fixed flux phase."""

    params: RingParams
    phi: float
    # Energy-independent pieces of the amplitude, solved once: the E = 0
    # amplitude, the numerator N u_R w_L of its energy term, the dot's
    # self-energy Sigma = r B^{-1} c and S0 = -eps_d - Sigma.
    _amp0: complex = field(init=False, repr=False, compare=False)
    _k: complex = field(init=False, repr=False, compare=False)
    _sigma: complex = field(init=False, repr=False, compare=False)
    _s0: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The model's one LAPACK call: inject at L, read out at R, at E = 0.
        a = _inverse_propagator(self.params, self.phi)
        col = np.linalg.solve(a, _INJECT_L)[1]
        # The lead block B has det = -(1/(pi rho))^2 - 1, never 0, so its 2x2
        # adjugate inverts it.  With c and r the dot's hops, u = B^{-1} c,
        # w = r B^{-1} and Sigma = r u.
        (b00, b01, c0), (b10, b11, c1), (r0, r1, _) = a.tolist()
        det = b00 * b11 - b01 * b10
        u0 = (b11 * c0 - b01 * c1) / det
        u1 = (b00 * c1 - b10 * c0) / det
        w0 = (r0 * b11 - r1 * b10) / det
        sigma = r0 * u0 + r1 * u1
        n = self.norm_const
        object.__setattr__(self, "_amp0", complex(n * col))
        object.__setattr__(self, "_k", n * u1 * w0)
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "_s0", -self.params.eps_d - sigma)

    @property
    def norm_const(self) -> complex:
        """``N = 2i / (pi rho)``, fixed by the dot-decoupled channel."""
        return _norm_const(self.params.rho)

    def _energy_error(self, energy: float) -> ValueError:
        """Why ``energy`` has no finite amplitude (see the module docstring)."""
        if not math.isfinite(energy):
            return ValidityError(f"energy must be finite, got {energy}")
        detuning = energy - float(self.params.eps_d)  # Python floats: no warning
        if not math.isfinite(detuning):
            return ValidityError(f"the detuning E - eps_d overflows at energy {energy!r}")
        if detuning - self._sigma == 0:
            return ValueError(f"resolvent singular at energy {energy!r}")
        return ValidityError(f"E / S(E) overflows at energy {energy!r}")

    def amplitude(self, energy):
        """Normalized L -> R resolvent element; exact in all hop orders.

        The energy enters only the dot entry, so the Schur complement
        ``S(E) = (E - eps_d) - Sigma`` carries all of it and
        ``A(E) = A(0) - N u_R w_L E / (S(E) S0)``: arithmetic on the
        energies, with no solve per energy.
        """
        shape = np.shape(energy)
        if shape == () and energy == 0:  # the Fermi energy, as solved
            return self._amp0
        # Flat, so that a single energy takes the same array arithmetic as
        # a stack (numpy's scalar complex multiply rounds differently).
        e = np.asarray(energy, dtype=float).reshape(-1)
        with np.errstate(all="ignore"):  # every inf and nan is rejected below
            s = (e - self.params.eps_d) - self._sigma
            r = e / s
            # One pass finds every bad energy: s + r is finite exactly when
            # both are, since |s| |r| = |e| keeps a finite sum from overflow.
            ok = np.isfinite(np.add(s, r, out=s))  # in place: s is spent
        if not ok.all():
            raise self._energy_error(float(e[np.argmin(ok)]))  # the first bad energy
        # E = 0 keeps the solve's bits: amp0 - 0 would turn a -0.0 into 0.0.
        out = np.where(e == 0, self._amp0, self._amp0 - self._k * r / self._s0)
        return complex(out[0]) if shape == () else out.reshape(shape)


def exact_amplitude(params: RingParams, phi: float, energy=0.0):
    """All-order transmission amplitude from the three-site resolvent."""
    return ResolventModel(params, phi).amplitude(energy)


def fermi_amplitudes(rings: Sequence[RingParams], phis) -> NDArray[np.complex128]:
    """``exact_amplitude(rings[k], phis[k])`` for each k, from one stacked solve.

    Each element keeps the bits of its ring's own model.
    """
    a = _inverse_propagator(rings, phis)
    return _norm_const(_ring_fields(rings)[0]) * np.linalg.solve(a, _INJECT_L)[..., 1]


def second_order_amplitude(params: Rings, phi):
    """Order-``V^2`` part of the exact amplitude at the Fermi energy.

    Composes the numerically inverted dot-decoupled resolvent with two dot
    hops, ``G0 Hv G0 Hv G0``; no closed-form ring algebra is reused, so a
    match against ``amplitude_t1`` is a genuine cross-validation.  The
    energy enters only as ``E - eps_d``, so the value at an energy ``E`` is
    that of the ring with ``eps_d - E`` as its dot level.  A sequence of
    rings with as many phases gives an array from one stacked inverse and
    product chain, each element bit for bit its ring's own.
    """
    a = _inverse_propagator(params, phi)
    a0 = a.copy()
    a0[..., :2, 2] = a0[..., 2, :2] = 0.0  # cut the four dot hops
    hv = a0 - a
    g0 = np.linalg.inv(a0)
    g2 = g0 @ hv @ g0 @ hv @ g0
    amplitude = _norm_const(_ring_fields(params)[0]) * g2[..., 1, 0]
    return complex(amplitude) if isinstance(params, RingParams) else amplitude


def truncation_residual(params: RingParams, phi: float) -> float:
    """Distance between the exact amplitude and the truncated closed forms.

    It equals ``|t1 q / (1 - q)|`` with ``q = (Gamma/eps_d)(2i + 2x cos phi)``,
    the sum of every dot visit after the first, so it scales quadratically
    in ``Gamma / eps_d`` while ``|q|`` is small.
    """
    full = exact_amplitude(params, phi, 0.0)
    return float(abs(full - (amplitude_t0(params, phi) + amplitude_t1(params, phi))))


def energy_resolved_transmission(params: RingParams, phi: float):
    """Callable E -> |exact amplitude|^2, for thermal averaging."""
    model = ResolventModel(params, phi)

    def tfun(energy):
        return np.abs(model.amplitude(energy)) ** 2

    return tfun
