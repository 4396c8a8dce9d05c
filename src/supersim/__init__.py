"""Simulation toolkit for approximate superposition of unknown quantum states.

Submodules:
  linalg       states, density operators, trace-norm geometry
  vecfun       canonical vector choices for pure density matrices
  tomo         measurement sampling, reconstruction, calibrated schedules
  superpose    superposition pipeline, copy budgets, figure of merit
  circuits     postselection circuits and bra-ket contraction identities
  obstruction  winding numbers and the candidate-map audit
  cli          `supersim` command-line entry point
"""

from .linalg import (
    DensityOperator,
    PureDensity,
    StateVector,
    outer,
    trace_distance,
)
from .superpose import (
    SuperpositionSpec,
    copies_budget,
    entangled_superposition,
    figure_of_merit,
    random_superposition,
    target_superposition,
    threshold,
    trace_floor,
)
from .tomo import StateOracle, vector_tomography
from .obstruction import obstruction_audit
from .vecfun import canonical_vec, vec_i

__version__ = "0.1.0"

__all__ = [
    "DensityOperator",
    "PureDensity",
    "StateVector",
    "StateOracle",
    "SuperpositionSpec",
    "canonical_vec",
    "copies_budget",
    "entangled_superposition",
    "figure_of_merit",
    "obstruction_audit",
    "outer",
    "random_superposition",
    "target_superposition",
    "threshold",
    "trace_distance",
    "trace_floor",
    "vec_i",
    "vector_tomography",
]
