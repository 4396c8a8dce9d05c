"""Simulated pure-state tomography.

Measurement model: for dimension d, one computational-basis setting plus an
X-type and a Y-type two-level rotation for every index pair (j, k), given by
those pairs alone: `_probabilities` is the closed-form Born rule of all of
them.  The family is informationally complete; `reconstruct` inverts that
same linear map by least squares, in closed form, and purifies the matrix to
its dominant eigenvector.  Shot noise is multinomial per setting, drawn from
named counter-based streams, so every result is a pure function of (inputs, seed).

Counts travel as one int64 array with a row per setting, in setting order,
and estimates as stacks, one row per seed of `vector_tomography`, so a
single run is a stack of one, with the bits it would have alone.
`radii` is the one definition of the calibrated radii and failure credit,
for one shot count or a whole grid of them; `schedule_for` is its one-cell
case and the one gate on a schedule (shot count and widening kappa).
A `StateOracle` is the only way in: it refuses a state above
`config.MAX_TOMO_DIM` (`load_state` refuses such a file before it forms any
matrix), and it keeps only the state's Born tables, so nothing reaches the
state but its measurements.  The estimates and their vectors are derived
from the counts and not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import seeding
from .errors import InvariantViolation, ValidationError
from .calibration import DELTA_TR, MIN_SHOTS, TABLE_MAX_N, lookup_constant, tail_exponent
from .config import MAX_TOMO_DIM
from .linalg import PureDensity, dominant_pure, row_norms
from .vecfun import select_r, select_r_paired, vec_i


@dataclass(frozen=True)
class TomographySchedule:
    """Shot budget with its trace-norm and vector guarantees; `schedule_for`
    checks and builds it."""

    N: int
    eps_tr: float
    delta_tr: float
    eps_vec: float
    delta_vec: float


@dataclass(frozen=True)
class VectorEstimate:
    """Stacks of estimates, one row per seed: the reconstructed densities
    (n, d, d), their column indices (n,), and the chosen vectors (n, d)."""

    x: np.ndarray
    r: np.ndarray
    v: np.ndarray


def setting_count(d: int) -> int:
    return 1 + d * (d - 1)


@lru_cache(maxsize=None)
def _layout(d: int) -> tuple:
    """Once per d: the pairs (j, k), j < k, in setting order, the entries their
    settings move in `_probabilities`, and the order that takes a matrix's
    diagonal, every m_jk, then every m_kj to its row-major entries."""
    i, (j, k) = np.arange(d), np.triu_indices(d, 1)
    x = np.arange(1, setting_count(d), 2)  # X rows; each pair's Y row follows
    moved = (np.concatenate((x, x, x + 1, x + 1)), np.concatenate((j, k, j, k)))
    return j, k, moved, np.argsort(np.concatenate((i * (d + 1), j * d + k, k * d + j)))


# The rotations' entries are 1/sqrt(2), so the Born rule weighs each of j and
# k by (1/sqrt(2))**2, which rounds to 0.5000000000000001, not to 0.5.
_HALF = (1.0 / np.sqrt(2.0)) ** 2
# The weights of a pair's readings X_j, X_k, Y_j, Y_k in m_jk (see `reconstruct`).
_OFF_WEIGHTS = np.array([1.0, -1.0, -1.0j, 1.0j]) / (4 * _HALF)


def _probabilities(matrix: np.ndarray) -> np.ndarray:
    """Born probabilities (..., setting_count(d), d) of a Hermitian matrix or stack:
    row 0 is the diagonal; rows 2q+1, 2q+2 rotate the q-th pair (j, k) with phase
    1, i, giving outcomes j and k h*m_jj + h*m_kk +/- 2h*Re(phase*m_jk)."""
    d = matrix.shape[-1]
    j, k, moved, _ = _layout(d)
    diag = matrix.diagonal(axis1=-2, axis2=-1).real
    p = np.repeat(diag[..., None, :], setting_count(d), axis=-2)
    mean = _HALF * diag[..., j] + _HALF * diag[..., k]
    off = matrix[..., j, k]
    re, im = 2 * _HALF * off.real, -2 * _HALF * off.imag
    p[(...,) + moved] = np.concatenate((mean + re, mean - re, mean + im, mean - im), axis=-1)
    return p


@lru_cache(maxsize=None)
def _inversion_operator(d: int) -> np.ndarray:
    """Once per d, the (d, S*d) rows taking stacked frequencies to the diagonal
    of `reconstruct`; the readings' weights in rhs_i are the Born rule of |i><i|."""
    weights = _probabilities(np.eye(d)[:, None] * np.eye(d)).reshape(d, -1)
    b = 4 * _HALF**2
    a = 1 + (d - 1) * (d - 2) + b * (d - 2)
    return (weights - b / (a + b * d) * weights.sum(axis=0)) / a


class StateOracle:
    """Access to an unknown state through measurement statistics only: it
    keeps the Born probabilities and the clipped table the draws use, both
    computed once, and not the state."""

    def __init__(self, rho: PureDensity):
        if rho.dim > MAX_TOMO_DIM:
            raise ValidationError(f"dim {rho.dim} exceeds tomography cap {MAX_TOMO_DIM}")
        self.__p = _probabilities(rho.matrix)
        draw = np.clip(self.__p, 0.0, None)
        self.__draw = draw / draw.sum(axis=1, keepdims=True)
        self.__p.flags.writeable = self.__draw.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.__p.shape[1]

    def probabilities(self) -> np.ndarray:
        """Born probabilities, one row per setting (read-only)."""
        return self.__p

    def sample(self, shots: int, seed: int) -> np.ndarray:
        """Counts of `shots` draws per setting; row s from stream (seed, SETTING, s)."""
        return np.stack([
            seeding.rng_for(seed, seeding.SETTING, s).multinomial(shots, row)
            for s, row in enumerate(self.__draw)
        ])


def reconstruct(counts: np.ndarray) -> np.ndarray:
    """Least-squares inversion of row-normalized counts or probabilities, in
    closed form, then purification, for a (..., S, d) stack.

    With h = `_HALF` and m_jk = x - iy, pair (j, k)'s X row reads X_j, X_k =
    h*(m_jj + m_kk) +/- 2h*x at outcomes j, k, its Y row Y_j, Y_k the same
    with y, and every other reading is m_ii of its outcome i.  So m_jk =
    ((X_j - X_k) - i(Y_j - Y_k)) / (4h).  m_ii has n = 1 + (d-1)(d-2) direct
    readings and weight h in the four of each of its d - 1 pairs, so the
    diagonal's normal matrix is a*I + b*J, b = 4h^2, a = n + b*(d - 2), and
    the diagonal is (rhs - b*sum(rhs)/(a + b*d)) / a, where rhs_i sums i's
    direct readings and h*(X_j + X_k + Y_j + Y_k) of each pair holding i.
    Both products are batched matvecs: a row of a stack keeps its bits alone.
    """
    d = counts.shape[-1]
    freqs = counts / counts.sum(axis=-1, keepdims=True)
    _, _, moved, order = _layout(d)
    off = _OFF_WEIGHTS @ freqs[(...,) + moved].reshape(freqs.shape[:-2] + (4, -1))
    diag = (_inversion_operator(d) @ freqs.reshape(freqs.shape[:-2] + (-1, 1)))[..., 0]
    m = np.concatenate((diag, off, off.conj()), axis=-1)[..., order]
    return dominant_pure(m.reshape(freqs.shape[:-2] + (d, d)))


def radii(d: int, N, kappa) -> tuple:
    """(eps_tr, delta, eps_vec) from the shipped radius table, elementwise for
    broadcastable shot counts N and widenings kappa: the trace radius
    eps_tr = kappa * C * d / sqrt(N), its failure credit DELTA_TR at kappa = 1
    and DELTA_TR * exp(-a * (kappa^2 - 1)) beyond, and the vector radius
    eps_vec that eps_tr implies.  A scalar N and kappa give scalars."""
    eps_tr = kappa * lookup_constant(d, N) * d / np.sqrt(N)
    # float_power squares with pow(), as `**` does on a Python float.
    delta = DELTA_TR * np.exp(-tail_exponent(d) * (np.float_power(kappa, 2) - 1.0))
    delta = np.maximum(delta, 1e-300)
    eps_vec = (np.sqrt(d) + 0.5) * eps_tr + 0.25 * np.float_power(eps_tr, 2)
    return eps_tr, delta, eps_vec


def schedule_for(d: int, N: int, kappa: float = 1.0) -> TomographySchedule:
    """Schedule of `radii` at one shot count N and widening kappa: the
    calibrated failure level DELTA_TR for kappa = 1, or a wider trace radius
    (kappa > 1) traded for a smaller failure probability.  The tail credit
    is fitted for widenings only, so a kappa below 1 (or NaN) is refused."""
    if not MIN_SHOTS <= N <= TABLE_MAX_N:
        raise ValidationError(f"shot count {N} outside [{MIN_SHOTS}, {TABLE_MAX_N:.0e}]")
    if not kappa >= 1.0:
        raise ValidationError(f"widening {kappa} must be at least 1")
    eps_tr, delta, eps_vec = radii(d, N, kappa)
    return TomographySchedule(
        N=int(N),
        eps_tr=float(eps_tr),
        delta_tr=float(delta),
        eps_vec=float(eps_vec),
        delta_vec=float(delta),
    )


def vector_tomography(
    oracle: StateOracle,
    schedule: Optional[TomographySchedule],
    seeds: Sequence[int],
    paired_with: Optional[VectorEstimate] = None,
) -> VectorEstimate:
    """Estimate the oracle's state once per seed (row n from `seeds[n]`), as
    one stack, with each estimate's index and vector `vec_i(x, r)`.

    A `schedule` of None means noiseless: the exact Born frequencies are
    inverted, once per seed, and the seeds are not used.  With `paired_with`
    (the earlier stage's estimates, one per seed), each index is reused from
    its earlier estimate whenever the two are close (`select_r_paired`),
    which keeps two estimates of nearly equal states phase-consistent; the
    two vectors at a reused index must then obey the vector transfer bound.
    """
    if schedule is None:
        p = oracle.probabilities()
        counts = np.broadcast_to(p, (len(seeds),) + p.shape)
    else:
        counts = np.stack([oracle.sample(schedule.N, seed) for seed in seeds])
    x = reconstruct(counts)
    if paired_with is None:
        r = select_r(x)
        return VectorEstimate(x=x, r=r, v=vec_i(x, r))
    r, close, dist = select_r_paired(paired_with.x, paired_with.r, x)
    v = vec_i(x, r)
    weight = paired_with.x[np.arange(len(x)), paired_with.r, paired_with.r].real
    bound = 2.0 / np.sqrt(weight) * np.sqrt(dist)
    gap = row_norms(paired_with.v - v)
    broken = close & (gap > np.minimum(bound, np.sqrt(2.0)) + 1e-9)
    if broken.any():
        raise InvariantViolation(
            f"vector gap {gap[broken][0]:.3e} exceeds transfer bound {bound[broken][0]:.3e}"
        )
    return VectorEstimate(x=x, r=r, v=v)
