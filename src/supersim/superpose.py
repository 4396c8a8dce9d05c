"""Approximate superposition of unknown states via tomography.

The pipeline estimates both input states from measurement statistics alone,
forms the weighted sum of their canonical column vectors, and renormalizes.
The relative phase of the output is not controlled: it is set by a random
column-index pair r, reported alongside the state.  `copies_budget` sizes
the shot counts so the figure of merit stays below a requested error, and
`figure_of_merit` scores any multi-outcome map against its per-index
targets.

The budget search prices every (shot count N, radius widening kappa) cell
of a fixed grid in one numpy pass, with the arithmetic of `schedule_for`,
and takes the smallest N whose best kappa meets the target.  The second
stage's cost is exactly twice the first's (scaling by 2 is exact in
floating point), so one grid serves both stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

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
    DELTA_TR,
    MIN_SHOTS,
    StateOracle,
    TomographySchedule,
    _as_oracle,
    _oracle_density,
    eps_vec_from_eps_tr,
    schedule_for,
    vector_tomography,
)
from .calibration import TABLE_MAX_N, lookup_constant, tail_exponent
from .vecfun import canonical_vec, vec_i

EQUAL_MAG_TOL = 1e-12
# Magnitudes whose squares and products stay finite and nonzero in float64.
COEFF_MAG_RANGE = (1e-100, 1e100)

IndexPair = Tuple[int, int]


@dataclass(frozen=True)
class SuperpositionSpec:
    """Coefficient pair (alpha, beta), both nonzero and finite."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        lo, hi = COEFF_MAG_RANGE
        if not all(lo <= abs(c) <= hi for c in (self.alpha, self.beta)):
            raise ValidationError(
                f"superposition coefficients need magnitudes in [{lo:g}, {hi:g}],"
                f" got {self.alpha} and {self.beta}"
            )

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
# pow() per element, as `schedule_for` squares its scalar kappa; the array
# `**2` multiplies instead and rounds the kappa = 2.5 cell one ulp apart.
_KAPPA_SQ = np.float_power(_KAPPA_GRID, 2)
_SHOT_GRID = sorted(
    n
    for k in range(2, 15)
    for n in (10**k, 3 * 10**k)
    if MIN_SHOTS <= n <= TABLE_MAX_N
)


def _budget_costs(d: int) -> np.ndarray:
    """eps_vec + 2*delta_vec of every grid schedule, rows N and columns kappa.

    Each cell repeats the expressions of `schedule_for(d, N, kappa)` in the
    same order, so it equals that schedule's cost bit for bit.
    """
    c = np.array([lookup_constant(d, n) for n in _SHOT_GRID])[:, None]
    eps_tr = _KAPPA_GRID * c * d / np.sqrt(np.array(_SHOT_GRID))[:, None]
    delta = DELTA_TR * np.exp(-tail_exponent(d) * (_KAPPA_SQ - 1.0))
    return eps_vec_from_eps_tr(d, eps_tr) + 2.0 * np.maximum(delta, 1e-300)


def _smallest_budget(costs: np.ndarray, target: float, scale: float = 1.0) -> Tuple[int, float]:
    """Smallest grid shot count, with its best widening, whose cost times
    scale meets the target.  The first minimum wins a tie in kappa."""
    met = np.flatnonzero(costs.min(axis=1) <= target / scale)
    if met.size == 0:
        raise BudgetExceededError(
            f"target {target:.3e} unreachable within {TABLE_MAX_N:.0e} shots"
        )
    row = met[0]
    return _SHOT_GRID[row], float(_KAPPA_GRID[np.argmin(costs[row])])


def _budget_schedules(
    spec: SuperpositionSpec, d: int, eps: float
) -> Tuple[TomographySchedule, TomographySchedule]:
    """Schedules for the two tomography stages at target error eps.

    The N stage needs eps_vec + 2*delta_vec <= t_n and the M stage
    2*eps_vec + 4*delta_vec <= t_m.  Scaling by 2 is exact in floating
    point, so the M cost is exactly twice the N cost, and one pass over the
    (N, kappa) grid serves both searches.  Only the two chosen schedules
    are built, so both still pass every `TomographySchedule` check.
    """
    t_n, t_m = budget_thresholds(spec, d, eps)
    costs = _budget_costs(d)
    n, kn = _smallest_budget(costs, t_n)
    m, km = _smallest_budget(costs, t_m, scale=2.0)
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


def _stage_schedules(
    oracle_u: StateOracle,
    oracle_v: StateOracle,
    spec: SuperpositionSpec,
    eps: float,
    exact: bool,
) -> Tuple[Optional[TomographySchedule], Optional[TomographySchedule]]:
    d = oracle_u.dim
    if oracle_v.dim != d:
        raise DimensionMismatchError(f"dims {d} and {oracle_v.dim} differ")
    if exact:
        return None, None
    return _budget_schedules(spec, d, eps)


def _run_pipeline(
    oracle_u: StateOracle,
    oracle_v: StateOracle,
    spec: SuperpositionSpec,
    schedules: Tuple[Optional[TomographySchedule], Optional[TomographySchedule]],
    seed: int,
    exact: bool,
) -> RandomSuperpositionOutcome:
    sched_n, sched_m = schedules
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
    state = _combine(est_x.x, est_y.x, r, spec, oracle_u.dim)
    return RandomSuperpositionOutcome(
        r=r, state=state, phi_r=_implied_phase(est_x.x, est_y.x, r, spec)
    )


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
    schedules = _stage_schedules(oracle_u, oracle_v, spec, eps, exact)
    return _run_pipeline(oracle_u, oracle_v, spec, schedules, seed, exact)


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
    index pair; the trials share one budget search.  Block states are the
    noiseless per-index outputs.  Exact mode is deterministic, so it
    collapses to a single block.
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    oracle_u, oracle_v = _as_oracle(u), _as_oracle(v)
    truth_u, truth_v = _oracle_density(oracle_u), _oracle_density(oracle_v)
    if exact:
        trials = 1
    schedules = _stage_schedules(oracle_u, oracle_v, spec, eps, exact)
    counts: Dict[IndexPair, int] = {}
    for t in range(trials):
        out = _run_pipeline(
            oracle_u,
            oracle_v,
            spec,
            schedules,
            seeding.child_seed(seed, seeding.TRIAL, t),
            exact,
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
