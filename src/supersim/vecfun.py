"""Canonical vector choices for pure density matrices.

A pure density matrix fixes its vector only up to global phase.  The maps
here pick one representative per matrix: `canonical_vec` renormalizes the
first column with nonvanishing weight (`canonical_vecs` does so for a
whole stack of matrices at once), `vec_i` starts the column scan at an
arbitrary index, and `select_r` / `select_r_paired` choose the scan index
from the matrix itself so the chosen map is continuous near its input.
The vectors are derived from a validated matrix, so they are built by
`linalg._derived` and not checked again.  `discontinuity_probe` exhibits
the sign jump that rules out a single globally continuous choice.
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import DimensionMismatchError, ValidationError
from .linalg import (
    PureDensity,
    StateVector,
    _derived,
    canonical_phase,
    euclidean_distance,
    outer,
    row_norms,
    trace_distance,
)


def _column_vec(rho: PureDensity, i: int) -> np.ndarray:
    weight = rho.matrix[i, i].real
    return rho.matrix[:, i] / np.sqrt(weight)


def canonical_vec(rho: PureDensity) -> StateVector:
    """First column of rho with weight above threshold, renormalized.

    The result's first nonzero entry is real positive, so the output is a
    deterministic function of the matrix alone.
    """
    diag = rho.matrix.diagonal().real
    for i in range(rho.dim):
        if diag[i] > TOL.nonzero:
            v = _column_vec(rho, i)
            v = canonical_phase(v)
            return _derived(StateVector, v / np.linalg.norm(v))
    raise ValidationError("no diagonal entry above threshold; corrupted input")


def canonical_vecs(rhos: np.ndarray) -> np.ndarray:
    """`canonical_vec` of every matrix of an (n, d, d) stack, as (n, d) rows.

    The same rules in the same arithmetic: the first column whose diagonal
    is above `TOL.nonzero`, divided by the root of that diagonal; its first
    entry above `TOL.nonzero` rotated real positive; then renormalized.
    """
    rows = np.arange(rhos.shape[0])
    diag = rhos.diagonal(axis1=1, axis2=2).real
    above = diag > TOL.nonzero
    if not above.any(axis=1).all():
        raise ValidationError("no diagonal entry above threshold; corrupted input")
    i = above.argmax(axis=1)
    v = rhos[rows, :, i] / np.sqrt(diag[rows, i])[:, None]
    # v[i] is at least sqrt(TOL.nonzero), so every row has a pivot.
    mags = np.abs(v)
    j = (mags > TOL.nonzero).argmax(axis=1)
    v = v * (v[rows, j].conj() / mags[rows, j])[:, None]
    return v / row_norms(v)[:, None]


def vec_i(rho: PureDensity, i: int) -> StateVector:
    """Column-i representative, falling through to i+1 mod d on zero weight."""
    d = rho.dim
    if not 0 <= i < d:
        raise ValidationError(f"index {i} out of range for dim {d}")
    diag = rho.matrix.diagonal().real
    for step in range(d):
        j = (i + step) % d
        if diag[j] > TOL.nonzero:
            v = _column_vec(rho, j)
            return _derived(StateVector, v / np.linalg.norm(v))
    raise ValidationError("no diagonal entry above threshold; corrupted input")


def select_r(x: PureDensity) -> int:
    """Smallest index whose diagonal entry reaches 1/d.

    The comparison is a sharp >= on the stored floats; at least one
    diagonal qualifies because they sum to 1.
    """
    diag = x.matrix.diagonal().real
    cut = 1.0 / x.dim
    for i in range(x.dim):
        if diag[i] >= cut:
            return i
    # Float rounding can leave every diagonal a hair under 1/d.
    return int(np.argmax(diag))


def select_r_paired(x: PureDensity, y: PureDensity) -> int:
    """Index rule for the second of two estimates.

    Reuses x's index when the estimates are close (trace distance below
    1/(2d)), otherwise falls back to y's own rule.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dims {x.dim} and {y.dim} differ")
    if trace_distance(x, y) < 1.0 / (2 * x.dim):
        return select_r(x)
    return select_r(y)


def discontinuity_probe(eps: float) -> float:
    """Euclidean gap between the canonical vectors of two close densities.

    The probe state -sqrt(eps)|0> + sqrt(1-eps)|1> is within O(sqrt(eps))
    of |1> as a density matrix, yet its canonical vector is a distance
    close to 2 from the canonical vector of |1><1|.
    """
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps}")
    probe = StateVector(np.array([-np.sqrt(eps), np.sqrt(1.0 - eps)]))
    one = StateVector(np.array([0.0, 1.0]))
    return euclidean_distance(canonical_vec(outer(probe)), canonical_vec(outer(one)))
