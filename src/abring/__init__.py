"""Closed-loop Aharonov-Bohm interferometer with a charge detector.

Closed-form dephased transmission, an all-order resolvent reference
solver, two-particle scattering-matrix rigidity checks, and a CLI for
reproducible sweeps.
"""

from .errors import ConfigError, OffResonanceWarning, ValidityError
from .oracle import (
    ResolventModel,
    energy_resolved_transmission,
    exact_amplitude,
    second_order_amplitude,
    truncation_residual,
)
from .ring import (
    DiagramComponents,
    RingParams,
    amplitude_t0,
    amplitude_t1,
    diagram_components,
)
from .smatrix import (
    RigidityReport,
    TwoParticleSMatrix,
    factorized_s,
    random_symmetric_unitary,
    random_unitary,
    reciprocal_from_generator,
    reciprocal_ring_family,
    rigidity_report,
    seeded_generator,
    symmetric_phi_grid,
    transmission_from_s,
)
from .transport import (
    PhaseSweep,
    ThermalConfig,
    dot_arm_rms,
    double_slit_visibility,
    phase_grid,
    rigidity_asymmetry,
    sweep_lambda,
    sweep_phase,
    thermal_transmission,
    transmission,
    visibility,
)
from .verify import SuiteResult, run_all

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DiagramComponents",
    "OffResonanceWarning",
    "PhaseSweep",
    "ResolventModel",
    "RigidityReport",
    "RingParams",
    "SuiteResult",
    "ThermalConfig",
    "TwoParticleSMatrix",
    "ValidityError",
    "amplitude_t0",
    "amplitude_t1",
    "diagram_components",
    "dot_arm_rms",
    "double_slit_visibility",
    "energy_resolved_transmission",
    "exact_amplitude",
    "factorized_s",
    "phase_grid",
    "random_symmetric_unitary",
    "random_unitary",
    "reciprocal_from_generator",
    "reciprocal_ring_family",
    "rigidity_asymmetry",
    "rigidity_report",
    "run_all",
    "second_order_amplitude",
    "seeded_generator",
    "sweep_lambda",
    "sweep_phase",
    "symmetric_phi_grid",
    "thermal_transmission",
    "transmission",
    "transmission_from_s",
    "truncation_residual",
    "visibility",
]
