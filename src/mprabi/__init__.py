"""Multiphoton Rabi dynamics of a two-level system with permanent dipole
couplings (broken inversion symmetry) in a quantized oscillator mode.

The package assembles the full Hamiltonian on a truncated Fock space,
diagonalizes the resonance manifolds in a generalized multiphoton
rotating-wave treatment, and propagates states both exactly (RK4 on the full
Hamiltonian) and analytically (dressed-basis phases), exposing the population
inversion and photon-number distribution.
"""

__version__ = "0.1.0"

from .fockmath import (
    SPIN_DOWN,
    SPIN_UP,
    FockSpace,
    displacement_matrix,
    laguerre_poly,
    laguerre_transition,
)
from .model import (
    ModelParams,
    build_displaced_branch,
    build_full,
    displaced_energy,
    position_operator,
)
from .rwa import (
    DressedPair,
    LevelShifts,
    ResonanceSpec,
    RWAValidityWarning,
    coupling_element,
    dressed_pair,
    level_shifts,
    omega_eg,
    rabi_frequency,
    resonant_omega0,
    spectrum_records,
)
from .dynamics import (
    InitialStateSpec,
    IntegratorWarning,
    NormDriftError,
    ProjectionError,
    Trajectory,
    TruncationError,
    evolve_numeric,
    evolve_rwa,
    inversion_coherent,
    inversion_fock,
    observables,
    prepare_initial,
    project_secular,
)
from .config import ConfigError, ScenarioConfig, parse_config
from .runner import RunManifest, ValidityError, emit_csv, emit_spectrum, run_scenario

__all__ = [
    "__version__",
    "SPIN_DOWN",
    "SPIN_UP",
    "FockSpace",
    "displacement_matrix",
    "laguerre_poly",
    "laguerre_transition",
    "ModelParams",
    "build_displaced_branch",
    "build_full",
    "displaced_energy",
    "position_operator",
    "DressedPair",
    "LevelShifts",
    "ResonanceSpec",
    "RWAValidityWarning",
    "coupling_element",
    "dressed_pair",
    "level_shifts",
    "omega_eg",
    "rabi_frequency",
    "resonant_omega0",
    "spectrum_records",
    "InitialStateSpec",
    "IntegratorWarning",
    "NormDriftError",
    "ProjectionError",
    "Trajectory",
    "TruncationError",
    "evolve_numeric",
    "evolve_rwa",
    "inversion_coherent",
    "inversion_fock",
    "observables",
    "prepare_initial",
    "project_secular",
    "ConfigError",
    "ScenarioConfig",
    "parse_config",
    "RunManifest",
    "ValidityError",
    "emit_csv",
    "emit_spectrum",
    "run_scenario",
]
