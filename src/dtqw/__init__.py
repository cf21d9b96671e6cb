"""Discrete-time quantum walk simulator with continuum oracles.

A split-step walk on an odd-sized periodic square lattice whose coin
angles vary in space.  Slowly varying profiles trap wave packets in
harmonic-oscillator-like orbits; sharp walls bind topological edge and
corner modes.  The `continuum` module carries the independent
Dirac/Schrodinger references the lattice results are checked against.
"""

__version__ = "0.1.0"

from .config import ConfigError, ExperimentConfig, parse_config
from .evolution import band_filter, prepare_initial_state, run_dynamics
from .lattice import LatticeSpec
from .operators import StepOperator2D
from .profiles import parse_angle, parse_profile, profile_table, spec_string
from .spectral import (bulk_bands, commensurate_grid, near_unity_states,
                       quasi_energies, spectrum_scan)

__all__ = [
    "__version__",
    "ConfigError", "ExperimentConfig", "parse_config",
    "band_filter", "prepare_initial_state", "run_dynamics",
    "LatticeSpec",
    "StepOperator2D",
    "parse_angle", "parse_profile", "profile_table", "spec_string",
    "bulk_bands", "commensurate_grid", "near_unity_states",
    "quasi_energies", "spectrum_scan",
]
