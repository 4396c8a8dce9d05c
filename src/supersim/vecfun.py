"""Canonical vector choices for pure density matrices.

A pure density matrix fixes its vector only up to global phase.  The maps
here pick one representative per matrix, for a (..., d, d) stack of
matrices at once; one matrix is the stack with no leading axes.  All of
them share one column scan: `vec_i` renormalizes the first column at or
after index i (cyclically) with nonvanishing weight, `canonical_vec` is the
scan from index 0 with its phase set by `linalg.canonical_phase`, and
`select_r` / `select_r_paired` choose the scan index from the matrix itself
so the chosen map is continuous near its input.  The vectors are derived
from validated or reconstructed matrices and are not checked again.
`discontinuity_probe` exhibits the sign jump that rules out a single
globally continuous choice.
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import ValidationError
from .linalg import canonical_phase, outers, row_norms, trace_distance


def _first(hits: np.ndarray, start=0) -> tuple:
    """The column scan: per row of a (..., d) boolean stack, the first index
    at or after `start` (cyclically) where it holds, and whether one does;
    `start` is one index or a (..., 1) stack of them."""
    d = hits.shape[-1]
    offset = np.where(hits, (np.arange(d) - start) % d, d)
    return offset.argmin(axis=-1), hits.any(axis=-1)


def _column(x: np.ndarray, start) -> np.ndarray:
    """Column j divided by the root of its diagonal, per matrix of a stack, for
    the first j at or after `start` whose diagonal is above TOL.nonzero."""
    d = x.shape[-1]
    diag = x.diagonal(axis1=-2, axis2=-1).real.reshape(-1, d)
    j, found = _first(diag > TOL.nonzero, np.reshape(start, (-1, 1)))
    if not found.all():
        raise ValidationError("no diagonal entry above threshold; corrupted input")
    n = np.arange(len(diag))
    col = x.reshape(-1, d, d)[n, :, j] / np.sqrt(diag[n, j])[:, None]
    return col.reshape(x.shape[:-1])


def canonical_vec(x: np.ndarray) -> np.ndarray:
    """Canonical vector of every matrix of a (..., d, d) stack, as (..., d) rows.

    The first column whose diagonal is above `TOL.nonzero`, divided by the
    root of that diagonal, then given its canonical phase (its first entry
    above `TOL.nonzero` real positive) and renormalized.  The output is a
    deterministic function of the matrix alone.
    """
    v = canonical_phase(_column(x, 0))
    return v / row_norms(v)[..., None]


def vec_i(x: np.ndarray, i) -> np.ndarray:
    """Column-i representative of every matrix of a stack, falling through to
    i+1 mod d on zero weight; `i` is one index or one per matrix."""
    i, d = np.asarray(i), x.shape[-1]
    if i.min() < 0 or i.max() >= d:
        raise ValidationError(f"index {i} out of range for dim {d}")
    v = _column(x, i)
    return v / row_norms(v)[..., None]


def select_r(x: np.ndarray) -> np.ndarray:
    """Smallest index whose diagonal reaches 1/d, per unit-trace matrix of a
    stack; within TOL.nonzero below 1/d counts as reaching it, so a tie at 1/d
    (a uniform-modulus state) gives index 0 however the last bits round."""
    diag = x.diagonal(axis1=-2, axis2=-1).real
    return _first(diag >= 1.0 / x.shape[-1] - TOL.nonzero)[0]


def select_r_paired(x: np.ndarray, r_x: np.ndarray, y: np.ndarray) -> tuple:
    """Index rule for the second of two estimates, pairwise over two stacks,
    given the first one's indices r_x = select_r(x).

    Reuses x's index where the estimates are close (trace distance below
    1/(2d)), otherwise falls back to y's own rule.  Returns the indices, the
    close mask and the distances, which the transfer check reuses.
    """
    dist = trace_distance(x, y)
    close = dist < 1.0 / (2 * x.shape[-1])
    return np.where(close, r_x, select_r(y)), close, dist


def discontinuity_probe(eps: float) -> float:
    """Euclidean gap between the canonical vectors of two close densities.

    The probe state -sqrt(eps)|0> + sqrt(1-eps)|1> is within O(sqrt(eps))
    of |1> as a density matrix, yet its canonical vector is a distance
    close to 2 from the canonical vector of |1><1|.
    """
    if not 0.0 < eps <= 1.0:
        raise ValidationError(f"eps must lie in (0, 1], got {eps}")
    kets = np.array([[-np.sqrt(eps), np.sqrt(1.0 - eps)], [0.0, 1.0]], dtype=np.complex128)
    probe, one = canonical_vec(outers(kets))
    return float(row_norms(probe - one))
