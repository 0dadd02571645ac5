"""Two-particle scattering matrices and the flux-reversal identity.

Joint outgoing basis for (conductor lead, detector lead):
index 0 = (L, X), 1 = (L, Y), 2 = (R, X), 3 = (R, Y).

For a 4x4 family S(phi) that is unitary at each phi and reciprocal,
``S_ij(phi) = S_ji(-phi)``, the transmission into the right lead,
``T(phi) = |S_31|^2 + |S_41|^2``, satisfies

    T(phi) - T(-phi) = |S_12(phi)|^2 - |S_21(phi)|^2

identically: column 1 and row 1 both carry unit weight, and reciprocity
maps the column of S(-phi) onto the row of S(phi).  Phase rigidity
T(phi) = T(-phi) therefore holds exactly when |S_12| = |S_21|, which a
tensor-product (non-interacting) family always satisfies and a generic
reciprocal family does not.

Generic families are produced as ``S(phi) = U(phi) U(-phi)^T`` from a
seeded unitary generator family, which enforces both constraints by
construction while leaving rigidity free to break.  ``generic_family``
and ``factorized_family`` build the two seeded kinds that the rigidity
command and the verification suite tabulate with ``rigidity_report`` on
its one grid, ``symmetric_phi_grid()``.

Family callables are evaluated over a whole phase grid at once: a family
takes a float array of phases of any shape ``(...)`` (a 0-d array for a
single phase) and returns a ``(..., d, d)`` stack of matrices, or an array
that broadcasts to one, such as a phase-independent ``(d, d)`` matrix.
``TwoParticleSMatrix.at`` checks that S itself is unitary, once per stack,
and raises ``ValidityError`` naming the phase of the worst defect;
``factorized_s`` checks its detector once.

One builder serves one family or a stack of them: the seeded builders take
an int seed or a sequence of seeds.  A sequence of ``n`` seeds adds one
leading family axis, so family axes lead and phase axes follow: the stack
at a phase array of shape ``(...)`` is ``(n, ..., d, d)``, and every array
of ``rigidity_report`` gains the same leading axis.  Each seed keeps its
own ``default_rng(seed)`` and draw order, so family ``k`` of a stack is
bit-identical to the family built from seed ``k`` alone; an int seed is
the same code with no family axis.  A sequence must not be empty, and the
ring and detector seeds of ``factorized_family`` must have the same length.

A generator makes one GEMM per family: its phases stack into the rows of
one ``(P d, d)`` matrix, which is multiplied by ``Q1`` at once, with the
bits of the ``P`` separate ``d x d`` products.  The unitarity check sums
each Gram matrix ``S^dagger S`` in real arithmetic over the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import ValidityError

__all__ = [
    "TwoParticleSMatrix",
    "RigidityReport",
    "seeded_generator",
    "reciprocal_from_generator",
    "reciprocal_ring_family",
    "random_symmetric_unitary",
    "factorized_s",
    "generic_family",
    "factorized_family",
    "symmetric_phi_grid",
    "rigidity_report",
]

UNITARITY_TOL = 1e-12
RIGIDITY_GRID_POINTS = 64

# A family maps a phase array of shape (...) to a (..., d, d) matrix stack,
# after the family axes of a family built from a sequence of seeds.
Family = Callable[[NDArray[np.float64]], NDArray[np.complex128]]
# An int seed builds one family; a sequence of seeds builds a stack of them.
Seeds = int | Sequence[int]


def _transpose(m: NDArray) -> NDArray:
    return np.swapaxes(m, -1, -2)


def _unitarity_defect(m: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Largest entry of |M^dagger M - 1| for each matrix of a stack.

    The Gram matrix is summed in real arithmetic with the stack axis last,
    ``Re = X^T X + Y^T Y`` and ``Im = X^T Y - (X^T Y)^T`` for ``M = X + iY``,
    where a stacked ``@`` would make one BLAS call per matrix.  A NaN or an
    infinity in M gives a NaN or infinite defect.
    """
    d = m.shape[-1]
    flat = m.reshape(-1, d, d)
    planes = np.empty((2, d, d, flat.shape[0]))  # (re/im, k, i, matrix)
    planes[0] = np.moveaxis(flat.real, 0, -1)
    planes[1] = np.moveaxis(flat.imag, 0, -1)
    xty = np.einsum("kin,kjn->ijn", planes[0], planes[1])
    both = planes.reshape(2 * d, d, -1)  # X and Y stacked along k
    gram_re = np.einsum("kin,kjn->ijn", both, both)
    del planes, both  # a stack of S in size, freed before the next temporaries
    gram_im = xty - xty.swapaxes(0, 1)
    gram_re -= np.eye(d)[..., None]
    np.square(gram_re, out=gram_re)
    gram_re += np.square(gram_im, out=gram_im)
    return np.sqrt(np.max(gram_re, axis=(0, 1))).reshape(m.shape[:-2])


def _check_defect(defect: NDArray[np.float64], phi: ArrayLike | None, what: str) -> None:
    """Raise ``ValidityError`` if a defect exceeds UNITARITY_TOL, naming the worst and its phase."""
    if phi is not None:
        phi, defect = np.broadcast_arrays(phi, defect)
    if not np.all(defect <= UNITARITY_TOL):
        k = np.argmax(defect)
        at = "" if phi is None else f" at phi={float(phi.flat[k])!r}"
        raise ValidityError(f"{what}{at} (defect {defect.flat[k]:.3e})")


def _require_unitary(m: NDArray[np.complex128], what: str, phi: ArrayLike | None = None) -> None:
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    _check_defect(_unitarity_defect(m), phi, f"{what} is not unitary")


# Bit-for-bit agreement with per-phase evaluation rests on three choices.
# For |z|^2, np.abs on arrays takes a SIMD path whose last bit differs from
# the scalar abs(z), and x*x differs from the scalar x**2, which calls libm
# pow; np.hypot and np.float_power(., 2.0) reproduce the scalar results.
def _abs2(z: NDArray[np.complex128]) -> NDArray[np.float64]:
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _kron(a: NDArray[np.complex128], b: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Kronecker product of a (..., m, n) stack with a (..., p, q) stack that broadcasts to it.

    The third choice: this broadcast product reproduces np.kron exactly,
    where np.einsum rounds some entries differently.
    """
    m, n = a.shape[-2:]
    p, q = b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * p, n * q))


def _complex(x: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Complex matrices from real draws whose axis -3 holds the real, then the imaginary part.

    Formed once for a whole stack of seeds, with the bits of each seed's own.
    """
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def _orthonormalize(z: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Q of ``z = QR`` for each matrix of a stack, phases fixed so diag(R) > 0.

    One stacked ``np.linalg.qr`` gives each matrix the bits of its own call.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d)).conj()[..., None, :]


def _per_seed(seed: Seeds, draw: Callable[[np.random.Generator], tuple]) -> list[NDArray]:
    """Stack each array of ``draw(default_rng(s))`` over the seeds.

    A sequence of seeds gives each array a leading family axis; an int seed
    gives none.
    """
    seeds = np.asarray(seed, dtype=object)
    if seeds.size == 0:
        raise ValueError("a sequence of seeds must not be empty")
    draws = [draw(np.random.default_rng(s)) for s in seeds.flat]
    return [np.stack(parts).reshape(seeds.shape + parts[0].shape) for parts in zip(*draws)]


def _seed_count(seed: Seeds, what: str) -> str:
    return f"an int {what} seed" if np.ndim(seed) == 0 else f"{len(seed)} {what} seeds"


def seeded_generator(seed: Seeds, dim: int = 4) -> Family:
    """Deterministic 2 pi periodic unitary family U(phi), or a stack of them.

    Built as Q0 diag(exp(i n_k phi)) Q1 with seeded unitaries and integer
    windings n_k in [-2, 2], so every evaluation is unitary to machine precision.
    Each seed draws the Gaussian of Q0, that of Q1, then the windings.
    """

    def draw(rng: np.random.Generator) -> tuple:
        return rng.standard_normal((2, 2, dim, dim)), rng.integers(-2, 3, size=dim)

    x, windings = _per_seed(seed, draw)
    q = _orthonormalize(_complex(x))
    q0, q1 = q[..., 0, :, :], q[..., 1, :, :]
    lead = windings.shape[:-1]

    def u_of_phi(phi: ArrayLike) -> NDArray[np.complex128]:
        phi = np.asarray(phi, dtype=float)
        flat = phi.reshape(-1)
        # exp(i n phi) for the five windings at each phase, then each
        # family's own picked out: n phi is exact, so these are the bits of
        # one exp per family, phase and winding.
        spins = np.exp(1j * np.arange(-2, 3)[:, None] * flat)
        phase = spins[windings[..., None, :] + 2, np.arange(flat.size)[:, None]]
        left = q0[..., None, :, :] * phase[..., None, :]  # family, phase, then d x d axes
        # Each family's phases stack into the rows of one (P d, d) matrix, so
        # Q1 multiplies them in one GEMM, bit for bit the P products of d x d.
        u = left.reshape(lead + (-1, dim)) @ q1
        return u.reshape(lead + phi.shape + (dim, dim))

    return u_of_phi


@dataclass(frozen=True)
class TwoParticleSMatrix:
    """phi-parametrized 4x4 scattering matrix of conductor plus detector."""

    s_of_phi: Family

    def at(self, phi: ArrayLike) -> NDArray[np.complex128]:
        """Unitary S at a phase or a phase array.

        The shape is ``np.shape(phi) + (4, 4)``, after the leading family
        axes of a family built from a sequence of seeds.
        """
        phi = np.asarray(phi, dtype=float)
        m = np.asarray(self.s_of_phi(phi), dtype=complex)
        if m.shape[-2:] != (4, 4):
            raise ValueError(f"scattering matrix must be 4x4, got shape {m.shape}")
        shape = m.shape[: max(m.ndim - 2 - phi.ndim, 0)] + phi.shape + (4, 4)
        if m.shape != shape:
            m = np.broadcast_to(m, shape).copy()
        _require_unitary(m, "scattering matrix S(phi)", phi)
        return m


def _reciprocal(u_of_phi: Family) -> Family:
    def s_of_phi(phi: ArrayLike) -> NDArray[np.complex128]:
        phi = np.asarray(phi, dtype=float)
        u = u_of_phi(phi)
        # On phases that reversed are bitwise their negation, such as the
        # rigidity grid, U(-phi) is U(phi) reversed: one evaluation serves both.
        mirrored = phi.ndim == 1 and phi[::-1].tobytes() == (-phi).tobytes()
        if mirrored and u.ndim >= 3 and u.shape[-3] == phi.size:
            return u @ _transpose(u[..., ::-1, :, :])
        return u @ _transpose(u_of_phi(-phi))

    return s_of_phi


def reciprocal_from_generator(u_of_phi: Family) -> TwoParticleSMatrix:
    """Reciprocal family ``S(phi) = U(phi) U(-phi)^T``.

    Reciprocal by construction; ``at`` rejects an S that is not unitary at
    an evaluated phase, so a non-unitary U whose S is unitary is accepted.
    """
    return TwoParticleSMatrix(_reciprocal(u_of_phi))


def reciprocal_ring_family(seed: Seeds) -> Family:
    """Seeded 2x2 unitary ring family with ``S_ij(phi) = S_ji(-phi)``."""
    return _reciprocal(seeded_generator(seed, dim=2))


def random_symmetric_unitary(seed: Seeds) -> NDArray[np.complex128]:
    """Seeded symmetric 2x2 unitary, the reciprocal form of a flux-free scatterer.

    A sequence of seeds gives an ``(n, 2, 2)`` stack.
    """
    (x,) = _per_seed(seed, lambda rng: (rng.standard_normal((2, 2, 2)),))
    q = _orthonormalize(_complex(x))
    return _transpose(q) @ q


def factorized_s(ring_s: Family, det_s: NDArray[np.complex128]) -> TwoParticleSMatrix:
    """Tensor product of independent ring and detector scatterers.

    The detector matrix is phase independent, so its own reciprocity
    constraint reduces to symmetry; asymmetric input would break the
    reciprocity of the product family.  A ``(n, 2, 2)`` stack of detectors
    pairs with a ring family stack of ``n``.
    """
    det = np.asarray(det_s, dtype=complex)
    _require_unitary(det, "detector scattering matrix")
    asymmetry = np.abs(det - _transpose(det))
    _check_defect(asymmetry, None, "detector matrix is not symmetric")

    def s_of_phi(phi: NDArray[np.float64]) -> NDArray[np.complex128]:
        per_phase = det.reshape(det.shape[:-2] + (1,) * phi.ndim + det.shape[-2:])
        return _kron(np.asarray(ring_s(phi), dtype=complex), per_phase)

    return TwoParticleSMatrix(s_of_phi)


def generic_family(seed: Seeds) -> TwoParticleSMatrix:
    """Seeded generic reciprocal family, free to break rigidity."""
    return reciprocal_from_generator(seeded_generator(seed))


def factorized_family(ring_seed: Seeds, detector_seed: Seeds) -> TwoParticleSMatrix:
    """Seeded ring family times a seeded symmetric detector: rigid.

    Sequences of ring and detector seeds pair up element by element, so
    they must have the same length; two ints build one family.
    """
    if np.shape(ring_seed) != np.shape(detector_seed):
        raise ValueError(
            f"ring and detector seeds must pair up element by element, got "
            f"{_seed_count(ring_seed, 'ring')} and {_seed_count(detector_seed, 'detector')}"
        )
    return factorized_s(reciprocal_ring_family(ring_seed), random_symmetric_unitary(detector_seed))


def symmetric_phi_grid() -> NDArray[np.float64]:
    """Phases ``pi (2k + 1 - n) / n``, n = RIGIDITY_GRID_POINTS: reversed, their exact negation."""
    n = RIGIDITY_GRID_POINTS
    k = np.arange(n)
    return np.pi * (2 * k + 1 - n) / n


@dataclass(frozen=True)
class RigidityReport:
    """Per-phase rigidity violation and its unitarity-plus-reciprocity bound.

    ``phis`` is the grid; the other arrays carry the family axes first, and
    the two maxima are taken over every family and phase.
    """

    phis: NDArray[np.float64]
    t_pos: NDArray[np.float64]
    t_neg: NDArray[np.float64]
    s12sq_minus_s21sq: NDArray[np.float64]
    identity_residual: NDArray[np.float64]

    @property
    def max_asymmetry(self) -> float:
        return float(np.max(np.abs(self.t_pos - self.t_neg)))

    @property
    def max_identity_residual(self) -> float:
        return float(np.max(np.abs(self.identity_residual)))


def rigidity_report(s: TwoParticleSMatrix) -> RigidityReport:
    """Tabulate T(phi) - T(-phi) against |S_12|^2 - |S_21|^2 on the rigidity grid.

    The grid is ``symmetric_phi_grid()``, so ``T(-phi)`` is ``T(phi)``
    reversed along the last axis.
    """
    phis = symmetric_phi_grid()
    mats = s.at(phis)
    t_all = _abs2(mats[..., 2, 0]) + _abs2(mats[..., 3, 0])  # |S_31|^2 + |S_41|^2
    t_neg = t_all[..., ::-1]
    s12_minus_s21 = _abs2(mats[..., 0, 1]) - _abs2(mats[..., 1, 0])
    return RigidityReport(
        phis=phis,
        t_pos=t_all,
        t_neg=t_neg,
        s12sq_minus_s21sq=s12_minus_s21,
        identity_residual=(t_all - t_neg) - s12_minus_s21,
    )
