"""Write oracle and thermal reference numbers that no CLI command writes.

Usage, with the ``src`` to test on ``PYTHONPATH``::

    python .github/scripts/api_reference.py OUT_DIR

Saves four arrays with ``np.save``: ``oracle.npy`` holds the exact amplitude
at a drawn energy and at the Fermi energy, the second-order amplitude and
the truncation residual at 200 seeded draws;
the order-V^2 amplitude at an energy E is that of the ring with dot level
``eps_d - E``.
``thermal.npy`` holds the thermal transmission at the reference ring over
64 phases and three temperatures, with the default 128-point quadrature.
``thermal_strong.npy`` holds the same at a second ring, with x > 1 and a
dot level below the Fermi energy, and the benchmark's 256-point
quadrature.  ``energy_resolved.npy`` holds the exact amplitudes of a
``|V| = 1e-3`` ring at three phases, on energies across its resonance
(``eps_d`` itself included), where the dot's Schur complement nearly
cancels, and at ``E = -1e300`` and ``1e300``.  Names are imported from
their defining modules, so the same script runs against an older ``src``
to compare outputs byte for byte.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import numpy as np

from abring.oracle import (
    ResolventModel,
    energy_resolved_transmission,
    exact_amplitude,
    second_order_amplitude,
    truncation_residual,
)
from abring.ring import RingParams
from abring.transport import ThermalConfig, thermal_transmission

SEED = 20240
N_DRAWS = 200
N_PHI = 64
TEMPERATURES = (0.02, 0.1, 0.3)
RESONANCE_PHASES = (0.0, 0.7, 2.5)


def _draw_ring(rng: np.random.Generator) -> RingParams:
    """Off-resonance ring with Gamma / |eps_d| in [0.02, 0.24]."""
    x = rng.uniform(0.05, 3.0)
    v = rng.uniform(0.1, 1.5)
    gamma = x * v * v / (1.0 + x * x)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return RingParams.from_x(x, v, sign * gamma / rng.uniform(0.02, 0.24))


def oracle_values() -> np.ndarray:
    """(N_DRAWS, 4) complex: exact amplitude at E and at 0, order-V^2 part, residual."""
    rng = np.random.default_rng(SEED)
    rows = []
    for _ in range(N_DRAWS):
        ring = _draw_ring(rng)
        phi = rng.uniform(-np.pi, np.pi)
        energy = rng.uniform(-0.2, 0.2)
        shifted = replace(ring, eps_d=ring.eps_d - energy, validate_off_resonance=False)
        rows.append(
            (
                ResolventModel(ring, phi).amplitude(energy),
                exact_amplitude(ring, phi),
                second_order_amplitude(shifted, phi),
                truncation_residual(ring, phi),
            )
        )
    return np.array(rows, dtype=complex)


def thermal_values(ring: RingParams, quadrature_points: int) -> np.ndarray:
    """(N_PHI, len(TEMPERATURES)) thermal transmissions of ``ring``."""
    configs = [ThermalConfig(kt, quadrature_points) for kt in TEMPERATURES]
    phis = np.arange(N_PHI) * (2.0 * np.pi / N_PHI)
    out = np.empty((N_PHI, len(configs)))
    for i, phi in enumerate(phis):
        tfun = energy_resolved_transmission(ring, phi)
        for j, cfg in enumerate(configs):
            out[i, j] = thermal_transmission(tfun, cfg)
    return out


def energy_resolved_values() -> np.ndarray:
    """(len(RESONANCE_PHASES), 35) complex amplitudes of a weakly coupled ring."""
    ring = RingParams.from_x(0.4, 1e-3, 1.25)
    # 33 energies within 8 widths Gamma of eps_d; the middle one is eps_d.
    offsets = np.linspace(-8.0, 8.0, 33) * ring.gamma
    energies = np.concatenate([ring.eps_d + offsets, [-1e300, 1e300]])
    return np.array([ResolventModel(ring, phi).amplitude(energies) for phi in RESONANCE_PHASES])


def main(argv: list[str]) -> int:
    (out_dir,) = argv
    os.makedirs(out_dir, exist_ok=True)
    np.save(os.path.join(out_dir, "oracle.npy"), oracle_values())
    reference = RingParams.from_x(0.4, 0.75, 1.25)
    np.save(os.path.join(out_dir, "thermal.npy"), thermal_values(reference, 128))
    strong = RingParams.from_x(1.8, 0.9, -1.5)  # Gamma/|eps_d| = 0.23
    np.save(os.path.join(out_dir, "thermal_strong.npy"), thermal_values(strong, 256))
    np.save(os.path.join(out_dir, "energy_resolved.npy"), energy_resolved_values())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
