"""Simulated pure-state tomography.

Measurement model: for dimension d, one computational-basis setting plus an
X-type and a Y-type two-level rotation for every index pair (j, k), given by
those pairs alone: `_probabilities` is the closed-form Born rule of all of
them.  The family is informationally complete; the inversion is the
pseudoinverse of that same linear map, taking frequencies to Hermitian
coordinates, and the matrix is then purified to its dominant eigenvector.
Shot noise is multinomial per setting, drawn from named counter-based
streams, so every result is a pure function of (inputs, seed).

Counts travel as one int64 array with a row per setting, in setting order.
A `StateOracle` is the only way in: the dimension cap is checked once, when
one is built, and the state stays behind its measurements.  The estimate's
vector is derived from the reconstruction and not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import seeding
from .errors import ValidationError
from .calibration import lookup_constant, tail_exponent, TABLE_MAX_N
from .linalg import PureDensity, StateVector, dominant_pure
from .vecfun import select_r, select_r_paired, vec_i

MAX_TOMO_DIM = 16
MIN_SHOTS = 100
DELTA_TR = 0.05  # failure level the radius table is calibrated against


@dataclass(frozen=True)
class TomographySchedule:
    """Shot budget with its trace-norm and vector guarantees."""

    N: int
    eps_tr: float
    delta_tr: float
    eps_vec: float
    delta_vec: float

    def __post_init__(self):
        if self.N < MIN_SHOTS:
            raise ValidationError(f"shot count {self.N} below minimum {MIN_SHOTS}")
        if self.eps_tr <= 0 or self.eps_vec <= 0:
            raise ValidationError("radii must be positive")
        for delta in (self.delta_tr, self.delta_vec):
            if not 0.0 < delta < 1.0:
                raise ValidationError(f"failure probability {delta} outside (0,1)")


@dataclass(frozen=True)
class VectorEstimate:
    """Reconstructed density, its column index, and the chosen vector."""

    x: PureDensity
    r: int
    v: StateVector


def setting_count(d: int) -> int:
    return 1 + d * (d - 1)


@lru_cache(maxsize=None)
def _layout(d: int) -> tuple:
    """Once per d: the pairs (j, k), j < k, in setting order, the entries their
    settings move in `_probabilities`, and the entries `_from_coordinates` fills."""
    i, (j, k) = np.arange(d), np.triu_indices(d, 1)
    x = np.arange(1, setting_count(d), 2)  # X rows; each pair's Y row follows
    moved = (np.concatenate((x, x, x + 1, x + 1)), np.concatenate((j, k, j, k)))
    return j, k, moved, (np.concatenate((i, j, k)), np.concatenate((i, k, j)))


# The rotations' entries are 1/sqrt(2), so the Born rule weighs each of j and
# k by (1/sqrt(2))**2, which rounds to 0.5000000000000001, not to 0.5.
_HALF = (1.0 / np.sqrt(2.0)) ** 2


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


def _from_coordinates(theta: np.ndarray, d: int) -> np.ndarray:
    """Hermitian matrix (or stack) from its d*d coordinates in the last axis:
    the diagonal, then x, y per pair (j, k) with m_jk = x - iy, m_kj = x + iy."""
    x, y = theta[..., d::2], theta[..., d + 1::2]
    values = np.concatenate((theta[..., :d], x - 1j * y, x + 1j * y), axis=-1)
    mat = np.zeros(theta.shape[:-1] + (d, d), dtype=np.complex128)
    # Added to zeros, as in a sum of basis matrices: a -0.0 part gives +0.0.
    mat[(...,) + _layout(d)[3]] += values
    return mat


@lru_cache(maxsize=None)
def _inversion_operator(d: int) -> np.ndarray:
    """Pseudoinverse of the map from Hermitian coordinates to stacked probabilities."""
    forward = _probabilities(_from_coordinates(np.eye(d * d), d))
    return np.linalg.pinv(forward.reshape(d * d, -1).T)


class StateOracle:
    """Access to an unknown state through measurement statistics only."""

    def __init__(self, rho: PureDensity):
        if rho.dim > MAX_TOMO_DIM:
            raise ValidationError(f"dim {rho.dim} exceeds tomography cap {MAX_TOMO_DIM}")
        self.__rho = rho

    @property
    def dim(self) -> int:
        return self.__rho.dim

    def probabilities(self) -> np.ndarray:
        """Born probabilities, one row per setting."""
        return _probabilities(self.__rho.matrix)

    def sample(self, shots: int, seed: int, *path: int) -> np.ndarray:
        """Counts of `shots` draws per setting; row s from stream (seed, SETTING, s, *path)."""
        p = np.clip(self.probabilities(), 0.0, None)
        p /= p.sum(axis=1, keepdims=True)
        return np.stack([
            seeding.rng_for(seed, seeding.SETTING, s, *path).multinomial(shots, row)
            for s, row in enumerate(p)
        ])


def reconstruct(counts: np.ndarray) -> PureDensity:
    """Least-squares inversion of row-normalized counts or probabilities, then purification."""
    d = counts.shape[1]
    freqs = counts / counts.sum(axis=1, keepdims=True)
    return dominant_pure(_from_coordinates(_inversion_operator(d) @ freqs.reshape(-1), d))


def eps_vec_from_eps_tr(d: int, eps_tr: float) -> float:
    # float_power squares with pow() per element, as `**` does on a scalar, so
    # arrays of radii get the same bits as one radius at a time.
    return (np.sqrt(d) + 0.5) * eps_tr + 0.25 * np.float_power(eps_tr, 2)


def schedule_for(d: int, N: int, kappa: float = 1.0) -> TomographySchedule:
    """Schedule from the shipped radius table, at the calibrated failure
    level DELTA_TR for kappa = 1, or trading a wider trace radius
    (kappa > 1) for a smaller failure probability."""
    if not MIN_SHOTS <= N <= TABLE_MAX_N:
        raise ValidationError(f"shot count {N} outside [{MIN_SHOTS}, {TABLE_MAX_N:.0e}]")
    c = lookup_constant(d, N)
    eps_tr = kappa * c * d / np.sqrt(N)
    delta = DELTA_TR * np.exp(-tail_exponent(d) * (kappa**2 - 1.0))
    delta = max(delta, 1e-300)
    return TomographySchedule(
        N=int(N),
        eps_tr=float(eps_tr),
        delta_tr=float(delta),
        eps_vec=float(eps_vec_from_eps_tr(d, eps_tr)),
        delta_vec=float(delta),
    )


def vector_tomography(
    oracle: StateOracle,
    schedule: Optional[TomographySchedule],
    seed: int,
    paired_with: Optional[PureDensity] = None,
) -> VectorEstimate:
    """Estimate the oracle's state and emit the vector for its own index.

    A `schedule` of None means noiseless: the exact Born frequencies are
    inverted and `seed` is not used.  With `paired_with` (an earlier
    estimate), the index is reused from that estimate whenever the two are
    close; this keeps two estimates of nearly equal states phase-consistent.
    The estimate's vector is `vec_i(x, r)`; later stages reuse it.
    """
    if schedule is None:
        x = reconstruct(oracle.probabilities())
    else:
        x = reconstruct(oracle.sample(schedule.N, seed))
    if paired_with is not None:
        r = select_r_paired(paired_with, x)
    else:
        r = select_r(x)
    return VectorEstimate(x=x, r=r, v=vec_i(x, r))


def _oracle_density(oracle: StateOracle) -> PureDensity:
    # Truth access for entangled_superposition's noiseless block states.
    return oracle._StateOracle__rho
