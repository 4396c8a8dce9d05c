"""Shared numeric tolerances and size caps.

`TOL.nonzero` is the one tolerance shared across modules; invariant checks
state their own bounds where they are made.
"""

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    nonzero: float = 1e-12  # amplitudes/diagonals below this count as zero


TOL = Tolerances()

# Tensor products refuse combined dimensions beyond this (2**20 matrix entries).
DEFAULT_MAX_DIM = 1024


def max_dim() -> int:
    """Largest allowed Hilbert-space dimension for tensor products.

    Overridable through the SUPERSIM_MAX_DIM environment variable.
    """
    value = os.environ.get("SUPERSIM_MAX_DIM")
    return int(value) if value else DEFAULT_MAX_DIM
