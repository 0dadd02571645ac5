"""One thermal-sweep operation, run through abring's public API.

For each flux phase it builds the energy-resolved transmission once and
averages it over the Fermi window at every temperature::

    python perfbench/thermal_op.py INPUTS.json OUT.npy

INPUTS.json holds ``x``, ``v_mag``, ``eps_d``, ``n_phi``, ``temperatures``,
``quadrature_points`` and ``energy_window``.  OUT.npy receives the
(n_phi, len(temperatures)) array of thermal transmissions.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from abring import RingParams, ThermalConfig, energy_resolved_transmission, thermal_transmission


def thermal_sweep(inputs: dict) -> np.ndarray:
    ring = RingParams.from_x(inputs["x"], inputs["v_mag"], inputs["eps_d"])
    configs = [
        ThermalConfig(t, inputs["quadrature_points"], inputs["energy_window"])
        for t in inputs["temperatures"]
    ]
    n_phi = inputs["n_phi"]
    phis = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    out = np.empty((n_phi, len(configs)))
    for i, phi in enumerate(phis):
        tfun = energy_resolved_transmission(ring, phi)
        for j, cfg in enumerate(configs):
            out[i, j] = thermal_transmission(tfun, cfg)
    return out


def main(argv: list[str]) -> int:
    inputs_path, out_path = argv
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    np.save(out_path, thermal_sweep(inputs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
