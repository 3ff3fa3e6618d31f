"""Desk-scale simulator of a four-qubit / five-resonator superconducting processor."""

__version__ = "0.1.0"

from .circuits import (
    Circuit,
    FactoringResult,
    Gate,
    build_shor,
    classical_factors,
    extract_period,
    factor_fifteen,
    run_circuit,
    sample_output,
)
from .dynamics import (
    DeviceConfig,
    OccupationTrace,
    fit_oscillation_frequency,
    prepare_shared_excitation,
    simultaneous_resonance,
    swap_spectroscopy,
)
from .hilbert import (
    DensityMatrix,
    QuantumState,
    nearest_psd,
    partial_trace,
)
from .noise import NoiseParams, apply_noise_step, damping_kraus, dephasing_kraus
from .tomography import (
    TomographyRecord,
    concurrence_eof,
    linear_entropy,
    phase_gauged_fidelity,
    reconstruct,
    simulate_tomography,
    state_fidelity,
    uhlmann_fidelity,
    witness_check,
)

__all__ = [
    "Circuit",
    "DensityMatrix",
    "DeviceConfig",
    "FactoringResult",
    "Gate",
    "NoiseParams",
    "OccupationTrace",
    "QuantumState",
    "TomographyRecord",
    "apply_noise_step",
    "build_shor",
    "classical_factors",
    "concurrence_eof",
    "damping_kraus",
    "dephasing_kraus",
    "extract_period",
    "factor_fifteen",
    "fit_oscillation_frequency",
    "linear_entropy",
    "nearest_psd",
    "partial_trace",
    "phase_gauged_fidelity",
    "prepare_shared_excitation",
    "reconstruct",
    "run_circuit",
    "sample_output",
    "simulate_tomography",
    "simultaneous_resonance",
    "state_fidelity",
    "swap_spectroscopy",
    "uhlmann_fidelity",
    "witness_check",
]
