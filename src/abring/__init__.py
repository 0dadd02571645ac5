"""Closed-loop Aharonov-Bohm interferometer with a charge detector.

Closed-form dephased transmission, an all-order resolvent reference
solver, two-particle scattering-matrix rigidity checks, and a CLI for
reproducible sweeps.  The package namespace holds the documented API;
every other name is imported from its defining module.  The oracle and
S-matrix names load their modules on first use, so a sweep loads neither.
"""

import importlib

from .errors import ConfigError, OffResonanceWarning, ValidityError
from .ring import RingParams
from .transport import ThermalConfig, sweep_phase, thermal_transmission, transmission, visibility

# Name -> defining module, for the names resolved on first use.
_LAZY = {
    "energy_resolved_transmission": "oracle",
    "exact_amplitude": "oracle",
    "truncation_residual": "oracle",
    "reciprocal_from_generator": "smatrix",
    "rigidity_report": "smatrix",
    "seeded_generator": "smatrix",
    "symmetric_phi_grid": "smatrix",
}

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


def __getattr__(name: str):
    """Import an oracle or S-matrix name from its module on first use (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
