"""Closed-loop Aharonov-Bohm interferometer with a charge detector.

Closed-form dephased transmission, an all-order resolvent reference
solver, two-particle scattering-matrix rigidity checks, and a CLI for
reproducible sweeps.  The package namespace holds the documented API;
every other name is imported from its defining module.
"""

from .errors import ConfigError, OffResonanceWarning, ValidityError
from .oracle import energy_resolved_transmission, exact_amplitude, truncation_residual
from .ring import RingParams
from .smatrix import (
    reciprocal_from_generator, rigidity_report, seeded_generator, symmetric_phi_grid
)
from .transport import ThermalConfig, sweep_phase, thermal_transmission, transmission, visibility

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "OffResonanceWarning",
    "RingParams",
    "ThermalConfig",
    "ValidityError",
    "energy_resolved_transmission",
    "exact_amplitude",
    "reciprocal_from_generator",
    "rigidity_report",
    "seeded_generator",
    "sweep_phase",
    "symmetric_phi_grid",
    "thermal_transmission",
    "transmission",
    "truncation_residual",
    "visibility",
]
