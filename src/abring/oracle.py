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

One builder, which every route calls, assembles ``g^{-1} - H`` at the Fermi
energy for one ring or a sequence of rings, each at its phase, so ``H`` is
Hermitian by construction.  It checks each ring (a ``RingParams``) and
phase (a finite real number, not a bool; a 1-d array of one per ring for a
sequence).  ``exact_amplitude`` and ``second_order_amplitude`` solve a
sequence as one stack, each ring's amplitude with the bits of its own solve.

``ResolventModel(params, phi)`` carries one ``RingParams`` to other
energies.  The energy enters only the dot entry, as ``E - eps_d``, so it
reaches the amplitude through one scalar, the dot's Schur complement
``S(E) = (E - eps_d) - Sigma``, with ``Sigma = r B^{-1} c`` from the lead
block ``B`` and the dot hops ``c`` and ``r``.  A model makes one LAPACK
solve, at ``E = 0``, and inverts the 2x2 ``B`` by its adjugate; every
energy after that is arithmetic,

    A(E) = A(0) - N u_R w_L E / (S(E) S(0)),   u = B^{-1} c,  w = r B^{-1},

which is exact, since ``G_RL(E) - G_RL(0) = u_R w_L (1/S(E) - 1/S(0))``.
An energy (a real number or an array of them), its detuning ``E - eps_d``
and ``E / S(E)`` must be finite (``ValidityError``); ``S(E) = 0``, which
only a dot whose ``Sigma`` is 0 reaches, at ``E = eps_d``, is a ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ValidityError
from .ring import RingParams, amplitude_t0, amplitude_t1, is_real

__all__ = [
    "ResolventModel",
    "exact_amplitude",
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
    if bad := [k for k, ring in enumerate(rings) if not isinstance(ring, RingParams)]:
        raise ValidityError(f"ring {bad[0]} is not a RingParams, got {rings[bad[0]]!r}")
    return np.array([(r.rho, r.v_mag, r.eps_d) for r in rings], dtype=float).reshape(-1, 3).T


def _norm_const(rho):
    """``N = 2i / (pi rho)``, fixed by the dot-decoupled channel."""
    return 2j / (np.pi * rho)


def _inverse_propagator(rings: Rings, phi) -> NDArray[np.complex128]:
    """g^{-1} - H at the Fermi energy, as a fresh C-ordered array.

    One ring at a finite real scalar phase gives a 3x3 matrix; n rings with a 1-d array of n
    finite real phases give an (n, 3, 3) stack of the same bits.  Other input: ``ValidityError``.
    """
    phases = np.asarray(phi)
    if isinstance(rings, RingParams):
        if phases.ndim != 0 or phases.dtype.kind not in "iuf" or not math.isfinite(phases):
            raise ValidityError(f"phase must be a finite real scalar, got {phi!r}")
    elif phases.shape != (len(rings),) or phases.dtype.kind not in "iuf":
        got = f"shape {phases.shape} and dtype {phases.dtype}"
        raise ValidityError(f"{len(rings)} rings need a 1-d real array of as many phases: {got}")
    elif not is_real(phi):  # a bool among numbers, which numpy reads as 0 or 1
        raise ValidityError(f"phases must be real numbers, not a str or a bool, got {phi!r}")
    elif not np.isfinite(phases).all():
        k = int(np.argmin(np.isfinite(phases)))
        raise ValidityError(f"phase must be finite, got {phases[k]} for ring {k}")
    else:
        phi = phases  # a list of phases, say, as an array
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


def _fermi_amplitude(rho, a: NDArray[np.complex128]):
    """``N G_RL`` of ``a = g^{-1} - H``, one matrix or a stack: inject at L, read out at R."""
    # .T[1] is [..., 1], but gives one matrix's entry as a scalar, which multiplies 5x faster.
    return _norm_const(rho) * np.linalg.solve(a, _INJECT_L).T[1]


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
        if not isinstance(self.params, RingParams):
            raise ValidityError(f"a ResolventModel takes one RingParams, got {self.params!r}")
        a = _inverse_propagator(self.params, self.phi)
        object.__setattr__(self, "_amp0", complex(_fermi_amplitude(self.params.rho, a)))
        # The lead block B has det = -(1/(pi rho))^2 - 1, never 0, so its 2x2
        # adjugate inverts it.  With c and r the dot's hops, u = B^{-1} c,
        # w = r B^{-1} and Sigma = r u.
        (b00, b01, c0), (b10, b11, c1), (r0, r1, _) = a.tolist()
        det = b00 * b11 - b01 * b10
        u0 = (b11 * c0 - b01 * c1) / det
        u1 = (b00 * c1 - b10 * c0) / det
        w0 = (r0 * b11 - r1 * b10) / det
        sigma = r0 * u0 + r1 * u1
        object.__setattr__(self, "_k", _norm_const(self.params.rho) * u1 * w0)
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "_s0", -self.params.eps_d - sigma)

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
        if not is_real(energy):
            raise ValidityError(f"energy must be a real number or an array of them, got {energy!r}")
        shape = np.shape(energy)
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


def exact_amplitude(rings: Rings, phi):
    """All-order amplitude at the Fermi energy: a complex for one ring, an array for a stack."""
    amplitude = _fermi_amplitude(_ring_fields(rings)[0], _inverse_propagator(rings, phi))
    return complex(amplitude) if isinstance(rings, RingParams) else amplitude


def second_order_amplitude(params: Rings, phi):
    """Order-``V^2`` part of the exact amplitude at the Fermi energy.

    Composes the numerically inverted dot-decoupled resolvent with two dot
    hops, ``G0 Hv G0 Hv G0``; no closed-form ring algebra is reused, so a
    match against ``amplitude_t1`` is a genuine cross-validation.  The
    energy enters only as ``E - eps_d``, so the value at an energy ``E`` is
    that of the ring with ``eps_d - E`` as its dot level.  A sequence of
    rings with as many phases gives an array from one stacked inverse and
    product chain, each element bit for bit its ring's own.  The first ring
    whose amplitude leaves the float range is named in a ``ValidityError``.
    """
    a = _inverse_propagator(params, phi)
    a0 = a.copy()
    a0[..., :2, 2] = a0[..., 2, :2] = 0.0  # cut the four dot hops
    hv = a0 - a
    g0 = np.linalg.inv(a0)
    with np.errstate(all="ignore"):  # every inf and nan is rejected below
        amplitude = _norm_const(_ring_fields(params)[0]) * (g0 @ hv @ g0 @ hv @ g0)[..., 1, 0]
    one = isinstance(params, RingParams)
    bad = np.flatnonzero(~np.isfinite(amplitude))
    if bad.size:
        ring, at = (params, phi) if one else (params[bad[0]], phi[bad[0]])
        msg = f"the order-V^2 amplitude leaves the float range for {ring} at phi = {float(at)!r}"
        raise ValidityError(msg)
    return complex(amplitude) if one else amplitude


def truncation_residual(params: RingParams, phi: float) -> float:
    """Distance between the exact amplitude and the truncated closed forms.

    It equals ``|t1 q / (1 - q)|`` with ``q = (Gamma/eps_d)(2i + 2x cos phi)``,
    the sum of every dot visit after the first, so it scales quadratically
    in ``Gamma / eps_d`` while ``|q|`` is small.
    """
    full = exact_amplitude(params, phi)
    return float(abs(full - (amplitude_t0(params, phi) + amplitude_t1(params, phi))))


def energy_resolved_transmission(params: RingParams, phi: float):
    """Callable E -> |exact amplitude|^2, for thermal averaging."""
    model = ResolventModel(params, phi)
    return lambda energy: np.abs(model.amplitude(energy)) ** 2
