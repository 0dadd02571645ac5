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

``ResolventModel(params, phi)`` is the whole model.  It assembles the
energy-independent lead-and-hop block of ``g^{-1} - H`` once, from the
ring, so ``H`` is Hermitian by construction and the only checks are those
``RingParams`` makes when it is built.  Each solve copies that block and
writes its energies into the dot entry; the block itself is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .ring import RingParams, amplitude_t0, amplitude_t1

__all__ = [
    "ResolventModel",
    "exact_amplitude",
    "second_order_amplitude",
    "truncation_residual",
    "energy_resolved_transmission",
]


# Unit source at L, a read-only (3, 1) column.  Each solve broadcasts it to
# the ndim of its matrix stack: numpy < 2 reads a source with one dimension
# fewer than the stack as a stack of vectors, which a (3, 1) column against
# an (N, 3, 3) stack would be.
_SOURCE = np.array([[1.0], [0.0], [0.0]], dtype=complex)
_SOURCE.flags.writeable = False


@dataclass(frozen=True)
class ResolventModel:
    """Three-site resolvent of the ring at a fixed flux phase."""

    params: RingParams
    phi: float
    # g^{-1} - H without the dot entry's energy; read-only, built once.
    _block: NDArray[np.complex128] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The direct hop L<-R carries |W| e^{i phi} so that L->R
        # transmission picks up e^{-i phi}.
        p = self.params
        w = p.w_mag * np.exp(1j * self.phi)
        v = p.v_mag
        block = -np.array([[0.0, w, v], [np.conj(w), 0.0, v], [v, v, 0.0]], dtype=complex)
        g_lead = -1j * (np.pi * p.rho)
        block[0, 0] += 1.0 / g_lead
        block[1, 1] += 1.0 / g_lead
        block.flags.writeable = False
        object.__setattr__(self, "_block", block)

    @property
    def norm_const(self) -> complex:
        """``N = 2i / (pi rho)``, fixed by the dot-decoupled channel."""
        return 2j / (np.pi * self.params.rho)

    def _inverse_propagator(self, energy) -> NDArray[np.complex128]:
        """g^{-1} - H for one energy or a stack of energies, as a fresh array."""
        energy = np.asarray(energy, dtype=float)
        a = np.empty(energy.shape + (3, 3), dtype=complex)
        a[...] = self._block
        a[..., 2, 2] = energy - self.params.eps_d
        return a

    def amplitude(self, energy):
        """Normalized L -> R resolvent element; exact in all hop orders."""
        scalar = np.ndim(energy) == 0
        try:
            # Inject at L, read out at R.
            a = self._inverse_propagator(energy)
            b = _SOURCE if a.ndim == 2 else np.broadcast_to(_SOURCE, a.shape[:-1] + (1,))
            col = np.linalg.solve(a, b)[..., 1, 0]
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"resolvent singular at energy {energy!r}") from exc
        out = self.norm_const * col
        return complex(out[()]) if scalar else out


def exact_amplitude(params: RingParams, phi: float, energy=0.0):
    """All-order transmission amplitude from the three-site resolvent."""
    return ResolventModel(params, phi).amplitude(energy)


def second_order_amplitude(params: RingParams, phi: float, energy: float = 0.0) -> complex:
    """Order-``V^2`` part of the exact amplitude.

    Composes the numerically inverted dot-decoupled resolvent with two dot
    hops, ``G0 Hv G0 Hv G0``; no closed-form ring algebra is reused, so a
    match against ``amplitude_t1`` is a genuine cross-validation.
    """
    model = ResolventModel(params, phi)
    a = model._inverse_propagator(energy)
    a0 = a.copy()
    a0[:2, 2] = a0[2, :2] = 0.0  # cut the four dot hops
    hv = a0 - a
    g0 = np.linalg.inv(a0)
    g2 = g0 @ hv @ g0 @ hv @ g0
    return complex(model.norm_const * g2[1, 0])


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
