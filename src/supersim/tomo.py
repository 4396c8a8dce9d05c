"""Simulated pure-state tomography.

Measurement model: for dimension d, one computational-basis setting plus an
X-type and a Y-type two-level rotation for every index pair (j, k).  The
family is informationally complete, so empirical frequencies invert
linearly to a Hermitian matrix, which is then purified to the dominant
eigenvector.  Shot noise is multinomial per setting, drawn from named
counter-based streams, so every result is a pure function of (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Union

import numpy as np

from . import seeding
from .errors import (
    IncompleteRecordsError,
    ValidationError,
)
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
class MeasurementRecord:
    """Outcome histogram of one setting."""

    setting_id: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if np.any(counts < 0):
            raise ValidationError("negative count")


@dataclass(frozen=True)
class VectorEstimate:
    """Reconstructed density, its column index, and the chosen vector."""

    x: PureDensity
    r: int
    v: StateVector


@lru_cache(maxsize=None)
def setting_bases(d: int) -> tuple:
    """Orthonormal measurement bases: computational, then pairwise X/Y."""
    bases = [np.eye(d, dtype=np.complex128)]
    s = 1.0 / np.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            for phase in (1.0, 1.0j):
                b = np.eye(d, dtype=np.complex128)
                b[j, j], b[k, j] = s, s * phase
                b[j, k], b[k, k] = s, -s * phase
                bases.append(b)
    return tuple(bases)


def setting_count(d: int) -> int:
    return len(setting_bases(d))


def born_probabilities(rho: PureDensity, basis: np.ndarray) -> np.ndarray:
    p = np.einsum("ji,jk,ki->i", basis.conj(), rho.matrix, basis).real
    p = np.clip(p, 0.0, None)
    return p / p.sum()


@lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> tuple:
    ops = []
    for i in range(d):
        e = np.zeros((d, d), dtype=np.complex128)
        e[i, i] = 1.0
        ops.append(e)
    for j in range(d):
        for k in range(j + 1, d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[j, k] = e[k, j] = 1.0
            ops.append(e)
            e = np.zeros((d, d), dtype=np.complex128)
            e[j, k], e[k, j] = -1.0j, 1.0j
            ops.append(e)
    return tuple(ops)


@lru_cache(maxsize=None)
def _inversion_operator(d: int) -> np.ndarray:
    """Pseudoinverse mapping stacked frequencies to Hermitian coordinates."""
    # Row s*d + m holds <b|h|b> for the m-th vector b of setting s, for every h.
    vecs = np.concatenate([basis.T for basis in setting_bases(d)])
    rows = np.stack(
        [(vecs.conj() @ h * vecs).sum(axis=1).real for h in _hermitian_basis(d)], axis=1
    )
    return np.linalg.pinv(rows)


class StateOracle:
    """Access to an unknown state through measurement statistics only."""

    def __init__(self, rho: PureDensity):
        self.__rho = rho

    @property
    def dim(self) -> int:
        return self.__rho.dim

    def sample(self, schedule: TomographySchedule, seed: int, *path: int) -> List[MeasurementRecord]:
        if self.dim > MAX_TOMO_DIM:
            raise ValidationError(f"dim {self.dim} exceeds tomography cap {MAX_TOMO_DIM}")
        records = []
        for s, basis in enumerate(setting_bases(self.dim)):
            p = born_probabilities(self.__rho, basis)
            rng = seeding.rng_for(seed, seeding.SETTING, s, *path)
            records.append(MeasurementRecord(s, rng.multinomial(schedule.N, p)))
        return records

    def exact_frequencies(self) -> np.ndarray:
        return np.concatenate(
            [born_probabilities(self.__rho, b) for b in setting_bases(self.dim)]
        )


def _as_oracle(rho: Union[PureDensity, StateOracle]) -> StateOracle:
    return rho if isinstance(rho, StateOracle) else StateOracle(rho)


def reconstruct(records: Sequence[MeasurementRecord]) -> PureDensity:
    """Least-squares inversion of empirical frequencies, then purification."""
    if not records:
        raise IncompleteRecordsError("no measurement records")
    d = records[0].counts.size
    expected = set(range(setting_count(d)))
    seen = {rec.setting_id for rec in records}
    if seen != expected or len(records) != len(expected):
        raise IncompleteRecordsError(
            f"records cover settings {sorted(seen)}, need {sorted(expected)}"
        )
    freqs = np.concatenate(
        [rec.counts / rec.counts.sum() for rec in sorted(records, key=lambda r: r.setting_id)]
    )
    return _reconstruct_from_frequencies(d, freqs)


def _reconstruct_from_frequencies(d: int, freqs: np.ndarray) -> PureDensity:
    theta = _inversion_operator(d) @ freqs
    herm = _hermitian_basis(d)
    mat = np.zeros((d, d), dtype=np.complex128)
    for coeff, h in zip(theta, herm):
        mat += coeff * h
    return dominant_pure(mat)


def eps_vec_from_eps_tr(d: int, eps_tr: float) -> float:
    # float_power squares with pow() per element, as `**` does on a scalar, so
    # arrays of radii get the same bits as one radius at a time.
    return (np.sqrt(d) + 0.5) * eps_tr + 0.25 * np.float_power(eps_tr, 2)


def schedule_for(d: int, N: int, kappa: float = 1.0) -> TomographySchedule:
    """Schedule from the shipped radius table, optionally trading a wider
    trace radius (kappa > 1) for a smaller failure probability."""
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


def calibrate_schedule(d: int, N: int) -> TomographySchedule:
    """Schedule at the calibrated 5% failure level."""
    return schedule_for(d, N, kappa=1.0)


def vector_tomography(
    rho: Union[PureDensity, StateOracle],
    schedule: Optional[TomographySchedule],
    seed: int,
    paired_with: Optional[PureDensity] = None,
    exact: bool = False,
) -> VectorEstimate:
    """Estimate the state and emit the canonical vector for its own index.

    With `paired_with` (an earlier estimate), the index is reused from that
    estimate whenever the two are close; this keeps two estimates of nearly
    equal states phase-consistent.  In exact mode the noiseless frequencies
    are inverted and `schedule` is not used; it may be None.
    """
    oracle = _as_oracle(rho)
    if exact:
        x = _reconstruct_from_frequencies(oracle.dim, oracle.exact_frequencies())
    else:
        x = reconstruct(oracle.sample(schedule, seed))
    if paired_with is not None:
        r = select_r_paired(paired_with, x)
    else:
        r = select_r(x)
    return VectorEstimate(x=x, r=r, v=vec_i(x, r))


def _oracle_density(oracle: StateOracle) -> PureDensity:
    # Truth access for entangled_superposition's noiseless block states.
    return oracle._StateOracle__rho
