"""Shared numeric tolerances and size caps.

`TOL.nonzero` is the one tolerance shared across modules; invariant checks
state their own bounds where they are made.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    nonzero: float = 1e-12  # amplitudes/diagonals below this count as zero


TOL = Tolerances()

# Circuit inputs refuse total dimensions beyond this (2**20 matrix entries).
MAX_DIM = 1024
# State files and tomography refuse dimensions beyond this.
MAX_TOMO_DIM = 16
