"""Write oracle and thermal reference numbers that no CLI command writes.

Usage, with the ``src`` to test on ``PYTHONPATH``::

    python .github/scripts/api_reference.py OUT_DIR

Saves two arrays with ``np.save``: ``oracle.npy`` holds the exact and
second-order amplitudes and the truncation residual at 200 seeded draws,
and ``thermal.npy`` the thermal transmission at the reference ring over 64
phases and three temperatures.  Names are imported from their defining
modules, so the same script runs against an older ``src`` to compare
outputs byte for byte.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from abring.oracle import (
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


def _draw_ring(rng: np.random.Generator) -> RingParams:
    """Off-resonance ring with Gamma / |eps_d| in [0.02, 0.24]."""
    x = rng.uniform(0.05, 3.0)
    v = rng.uniform(0.1, 1.5)
    gamma = x * v * v / (1.0 + x * x)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return RingParams.from_x(x, v, sign * gamma / rng.uniform(0.02, 0.24))


def oracle_values() -> np.ndarray:
    """(N_DRAWS, 3) complex: exact amplitude, order-V^2 part, residual."""
    rng = np.random.default_rng(SEED)
    rows = []
    for _ in range(N_DRAWS):
        ring = _draw_ring(rng)
        phi = rng.uniform(-np.pi, np.pi)
        energy = rng.uniform(-0.2, 0.2)
        rows.append(
            (
                exact_amplitude(ring, phi, energy),
                second_order_amplitude(ring, phi, energy),
                truncation_residual(ring, phi),
            )
        )
    return np.array(rows, dtype=complex)


def thermal_values() -> np.ndarray:
    """(N_PHI, len(TEMPERATURES)) thermal transmissions at the reference ring."""
    ring = RingParams.from_x(0.4, 0.75, 1.25)
    configs = [ThermalConfig(kt) for kt in TEMPERATURES]
    phis = np.arange(N_PHI) * (2.0 * np.pi / N_PHI)
    out = np.empty((N_PHI, len(configs)))
    for i, phi in enumerate(phis):
        tfun = energy_resolved_transmission(ring, phi)
        for j, cfg in enumerate(configs):
            out[i, j] = thermal_transmission(tfun, cfg)
    return out


def main(argv: list[str]) -> int:
    (out_dir,) = argv
    os.makedirs(out_dir, exist_ok=True)
    np.save(os.path.join(out_dir, "oracle.npy"), oracle_values())
    np.save(os.path.join(out_dir, "thermal.npy"), thermal_values())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
