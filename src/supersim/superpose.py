"""Approximate superposition of unknown states via tomography.

The pipeline estimates both input states from measurement statistics alone,
forms the weighted sum of their canonical column vectors, and renormalizes.
The relative phase of the output is not controlled: it is set by a random
column-index pair r, reported alongside the state.  `copies_budget` sizes
the shot counts so the figure of merit stays below a requested error, and
`figure_of_merit` scores any multi-outcome map against its per-index
targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from . import seeding
from .config import TOL
from .errors import (
    BudgetExceededError,
    DegenerateSuperpositionError,
    DimensionMismatchError,
    InvariantViolation,
    ValidationError,
    ZeroFunctionalError,
)
from .linalg import (
    DensityOperator,
    PureDensity,
    StateVector,
    euclidean_distance,
    outer,
    trace_distance,
)
from .tomo import (
    MIN_SHOTS,
    StateOracle,
    TomographySchedule,
    _as_oracle,
    _oracle_density,
    schedule_for,
    vector_tomography,
)
from .calibration import TABLE_MAX_N
from .vecfun import canonical_vec, vec_i

EQUAL_MAG_TOL = 1e-12

IndexPair = Tuple[int, int]


@dataclass(frozen=True)
class SuperpositionSpec:
    """Coefficient pair (alpha, beta), both nonzero."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if abs(self.alpha) == 0.0 or abs(self.beta) == 0.0:
            raise ValidationError("superposition coefficients must be nonzero")

    @property
    def equal_magnitudes(self) -> bool:
        return abs(abs(self.alpha) - abs(self.beta)) <= EQUAL_MAG_TOL


@dataclass(frozen=True)
class RandomSuperpositionOutcome:
    """One pipeline run: the index pair, the state, and the implied phase."""

    r: IndexPair
    state: PureDensity
    phi_r: float  # in [0, 2pi), as `_implied_phase` guarantees


@dataclass(frozen=True)
class EntangledSuperposition:
    """Mixture over index pairs: r -> (weight, block state)."""

    blocks: Mapping[IndexPair, Tuple[float, PureDensity]]

    def __post_init__(self):
        weights = [w for w, _ in self.blocks.values()]
        if any(w < 0 for w in weights):
            raise ValidationError("negative block weight")
        if abs(sum(weights) - 1.0) > 1e-10:
            raise ValidationError(f"block weights sum to {sum(weights)}, not 1")


def target_superposition(
    u: StateVector, v: StateVector, spec: SuperpositionSpec, phi: float
) -> PureDensity:
    """Normalized density of alpha*e^{i phi}*u + beta*v."""
    if u.dim != v.dim:
        raise DimensionMismatchError(f"dims {u.dim} and {v.dim} differ")
    w = spec.alpha * np.exp(1j * phi) * u.amplitudes + spec.beta * v.amplitudes
    norm = np.linalg.norm(w)
    if norm <= TOL.nonzero:
        raise DegenerateSuperpositionError(
            "coefficients cancel exactly; superposition is the zero vector"
        )
    return outer(StateVector(w / norm))


def threshold(spec: SuperpositionSpec) -> float:
    """|alpha||beta| / (|alpha|^2 + |beta|^2), always in (0, 1/2]."""
    a, b = abs(spec.alpha), abs(spec.beta)
    return a * b / (a * a + b * b)


def trace_floor(spec: SuperpositionSpec, d: int) -> float:
    """Guaranteed lower bound on the unnormalized output trace.

    Unequal magnitudes give (|alpha|-|beta|)^2; equal magnitudes give the
    smaller guarantee |alpha|^2/(16 d^2).
    """
    a, b = abs(spec.alpha), abs(spec.beta)
    if spec.equal_magnitudes:
        return a * a / (16.0 * d * d)
    return (a - b) ** 2


def budget_thresholds(spec: SuperpositionSpec, d: int, eps: float) -> Tuple[float, float]:
    """Error levels the two tomography stages must reach for target eps."""
    if not 0.0 < eps < 2.0:
        raise ValidationError(f"target error {eps} outside (0, 2)")
    a, b = abs(spec.alpha), abs(spec.beta)
    if spec.equal_magnitudes:
        t_n = eps / (512.0 * d * d)
    else:
        t_n = (eps / 8.0) * ((a - b) / (a + b)) ** 2
    t_m = eps / (16.0 * b)
    return t_n, t_m


_KAPPA_GRID = np.arange(1.0, 16.05, 0.1)
_SHOT_GRID = sorted(
    n
    for k in range(2, 15)
    for n in (10**k, 3 * 10**k)
    if MIN_SHOTS <= n <= TABLE_MAX_N
)


def _smallest_budget(d: int, cost: Callable[[TomographySchedule], float], target: float) -> Tuple[int, float]:
    """Smallest grid shot count (with its radius widening) meeting the target."""
    for n in _SHOT_GRID:
        best_kappa, best_cost = None, np.inf
        for kappa in _KAPPA_GRID:
            c = cost(schedule_for(d, n, kappa))
            if c < best_cost:
                best_kappa, best_cost = kappa, c
        if best_cost <= target:
            return n, float(best_kappa)
    raise BudgetExceededError(
        f"target {target:.3e} unreachable within {TABLE_MAX_N:.0e} shots"
    )


def _budget_schedules(
    spec: SuperpositionSpec, d: int, eps: float
) -> Tuple[TomographySchedule, TomographySchedule]:
    t_n, t_m = budget_thresholds(spec, d, eps)
    n, kn = _smallest_budget(d, lambda s: s.eps_vec + 2.0 * s.delta_vec, t_n)
    m, km = _smallest_budget(d, lambda s: 2.0 * s.eps_vec + 4.0 * s.delta_vec, t_m)
    return schedule_for(d, n, kn), schedule_for(d, m, km)


def copies_budget(spec: SuperpositionSpec, d: int, eps: float) -> Tuple[int, int]:
    """Shot counts (N, M) for the two tomography stages at target error eps."""
    sched_n, sched_m = _budget_schedules(spec, d, eps)
    return sched_n.N, sched_m.N


def _gamma(rho: PureDensity, i: int) -> float:
    """Phase offset of the column-i vector against the canonical one."""
    inner = np.vdot(canonical_vec(rho).amplitudes, vec_i(rho, i).amplitudes)
    return float(np.angle(inner))


def _implied_phase(
    x: PureDensity, y: PureDensity, r: IndexPair, spec: SuperpositionSpec
) -> float:
    """Phase phi with alpha e^{i phi} cvec(x) + beta cvec(y) prop. to the output."""
    phi = (
        _gamma(x, r[0])
        - _gamma(y, r[1])
        - np.angle(spec.alpha)
        + np.angle(spec.beta)
    )
    phi = float(np.mod(phi, 2.0 * np.pi))
    return 0.0 if phi >= 2.0 * np.pi else phi  # mod can round up to the period


def _check_vec_transfer(x: PureDensity, y: PureDensity, r_x: int) -> None:
    # Close estimates must keep the same-index vectors close too.
    dist = trace_distance(x, y)
    if dist >= 1.0 / (2 * x.dim):
        return
    weight = x.matrix[r_x, r_x].real
    bound = 2.0 / np.sqrt(weight) * np.sqrt(dist)
    gap = euclidean_distance(vec_i(x, r_x), vec_i(y, r_x))
    if gap > min(bound, np.sqrt(2.0)) + 1e-9:
        raise InvariantViolation(
            f"vector gap {gap:.3e} exceeds transfer bound {bound:.3e}"
        )


def _combine(
    x: PureDensity, y: PureDensity, r: IndexPair, spec: SuperpositionSpec, d: int
) -> PureDensity:
    w = (
        abs(spec.alpha) * vec_i(x, r[0]).amplitudes
        + abs(spec.beta) * vec_i(y, r[1]).amplitudes
    )
    tr = float(np.linalg.norm(w) ** 2)
    floor = trace_floor(spec, d)
    if tr + 1e-12 < floor:
        raise InvariantViolation(f"output trace {tr:.3e} below floor {floor:.3e}")
    return outer(StateVector(w / np.linalg.norm(w)))


def random_superposition(
    u: Union[PureDensity, StateOracle],
    v: Union[PureDensity, StateOracle],
    spec: SuperpositionSpec,
    eps: float,
    seed: int,
    exact: bool = False,
) -> RandomSuperpositionOutcome:
    """Superpose two unknown states, accessed through measurements only.

    Runs vector tomography on each input, combines the chosen column
    vectors with weights |alpha| and |beta|, and renormalizes.  The index
    pair r is random (it depends on the sampled estimates); the relative
    phase of the output is whatever r implies.  In exact mode the sampling
    noise is turned off and the budgets are skipped.
    """
    oracle_u, oracle_v = _as_oracle(u), _as_oracle(v)
    d = oracle_u.dim
    if oracle_v.dim != d:
        raise DimensionMismatchError(f"dims {d} and {oracle_v.dim} differ")
    if exact:
        sched = schedule_for(d, 10**6)
        sched_n, sched_m = sched, sched
    else:
        sched_n, sched_m = _budget_schedules(spec, d, eps)
    est_x = vector_tomography(
        oracle_u, sched_n, seeding.child_seed(seed, seeding.RUN, 0), exact=exact
    )
    paired = est_x.x if spec.equal_magnitudes else None
    est_y = vector_tomography(
        oracle_v,
        sched_m,
        seeding.child_seed(seed, seeding.RUN, 1),
        paired_with=paired,
        exact=exact,
    )
    if spec.equal_magnitudes:
        _check_vec_transfer(est_x.x, est_y.x, est_x.r)
    r = (est_x.r, est_y.r)
    state = _combine(est_x.x, est_y.x, r, spec, d)
    return RandomSuperpositionOutcome(
        r=r, state=state, phi_r=_implied_phase(est_x.x, est_y.x, r, spec)
    )


def superposition_error(
    outcome: RandomSuperpositionOutcome,
    u: PureDensity,
    v: PureDensity,
    spec: SuperpositionSpec,
) -> float:
    """Trace distance of an outcome to its per-index target on the true states."""
    phi = _implied_phase(u, v, outcome.r, spec)
    tgt = target_superposition(canonical_vec(u), canonical_vec(v), spec, phi)
    return trace_distance(outcome.state, tgt)


def entangled_superposition(
    u: Union[PureDensity, StateOracle],
    v: Union[PureDensity, StateOracle],
    spec: SuperpositionSpec,
    eps: float,
    seed: int,
    trials: int,
    exact: bool = False,
) -> EntangledSuperposition:
    """Block mixture over index pairs with Monte-Carlo weights.

    Each trial runs the full pipeline on a fresh seed and contributes its
    index pair; block states are the noiseless per-index outputs.  Exact
    mode is deterministic, so it collapses to a single block.
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    oracle_u, oracle_v = _as_oracle(u), _as_oracle(v)
    truth_u, truth_v = _oracle_density(oracle_u), _oracle_density(oracle_v)
    if exact:
        trials = 1
    counts: Dict[IndexPair, int] = {}
    for t in range(trials):
        out = random_superposition(
            oracle_u,
            oracle_v,
            spec,
            eps,
            seeding.child_seed(seed, seeding.TRIAL, t),
            exact=exact,
        )
        counts[out.r] = counts.get(out.r, 0) + 1
    blocks = {
        r: (c / trials, _combine(truth_u, truth_v, r, spec, truth_u.dim))
        for r, c in sorted(counts.items())
    }
    return EntangledSuperposition(blocks=blocks)


def figure_of_merit(
    outcomes: Mapping[IndexPair, Tuple[float, DensityOperator]],
    u: PureDensity,
    v: PureDensity,
    spec: SuperpositionSpec,
    phis: Optional[Mapping[IndexPair, float]] = None,
) -> float:
    """Success-normalized summed trace error against per-index targets.

    Each outcome is (weight, unnormalized operator); its target is the
    superposition of the true canonical vectors at the phase phis[r]
    (default: the phase the index pair implies).  Outcomes with zero trace
    contribute nothing.
    """
    u_vec, v_vec = canonical_vec(u), canonical_vec(v)
    p_succ = sum(w * op.trace for w, op in outcomes.values())
    if p_succ <= 0.0:
        raise ZeroFunctionalError("total success probability is zero")
    total = 0.0
    for r, (w, op) in outcomes.items():
        tr = op.trace
        if w == 0.0 or tr == 0.0:
            continue
        phi = phis[r] if phis is not None else _implied_phase(u, v, r, spec)
        tgt = target_superposition(u_vec, v_vec, spec, phi)
        gap = op.matrix - tr * tgt.matrix
        total += w * float(np.abs(np.linalg.eigvalsh((gap + gap.conj().T) / 2)).sum())
    return total / p_succ
