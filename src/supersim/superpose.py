"""Approximate superposition of unknown states via tomography.

The pipeline estimates both input states from measurement statistics alone,
forms the weighted sum of their column vectors vec_i(x, r) at a random
column-index pair r, and renormalizes.  The relative phase of the output is
not controlled: r sets it, and both are reported alongside the state.
`copies_budget` sizes the shot counts so the figure of merit stays below a
requested error.

The pipeline takes two `StateOracle`s and the two tomography schedules,
either those `copies_budget` returns or None for noiseless tomography;
nothing else restates that choice.  The oracles are the trust boundary, and
the pipeline sees only their measurements: the true states enter only
through the functions that score or label a run (`superposition_error`,
`figure_of_merit`, `_pair_targets`), from the caller that loaded them.
The vectors and densities it derives (the estimates' vectors, the output
state, the targets) are plain arrays and are not checked again.

Estimates travel as stacks, one row per seed: `_estimates` runs both
stages for a list of seeds.  `random_superposition` passes one seed, and
`entangled_superposition` its trial seeds in chunks of `TRIAL_CHUNK`.

The budget search prices every (shot count N, radius widening kappa) cell
of a fixed grid with one call of `tomo.radii`, the function `schedule_for`
evaluates at one cell, and takes the smallest N whose best kappa meets the
target.  The second stage's cost is exactly twice the first's (scaling by
2 is exact in floating point), so one grid serves both stages.

A run is scored against the noiseless output at its index pair r: the
pipeline's weighted sum of column vectors, taken on the true states
(`_pair_targets`), which is also the entangled block at r.
`figure_of_merit` is the one scorer: it scores any multi-outcome map
against those targets, and a single run's merit (`superposition_error`) is
the map with one outcome.  Targets are plain (..., d, d) arrays that only
`target_superposition` forms, for one pair of vectors or for the stacks
that the index pairs and the obstruction audit give.  Each canonical and
column vector is computed once per run and passed on.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from typing import Dict, Mapping, Optional, Sequence, Tuple

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
from .linalg import PureDensity, outers, row_norms, trace_distance
from .tomo import (
    MIN_SHOTS,
    StateOracle,
    TomographySchedule,
    VectorEstimate,
    radii,
    schedule_for,
    vector_tomography,
)
from .calibration import TABLE_MAX_N
from .vecfun import canonical_vec, vec_i

EQUAL_MAG_TOL = 1e-12
# Entangled trials per stack: at d = 16 a stack holds 8 MB of counts.
TRIAL_CHUNK = 256
# Magnitudes whose squares and products stay finite and nonzero in float64.
COEFF_MAG_RANGE = (1e-100, 1e100)

IndexPair = Tuple[int, int]
Schedules = Tuple[TomographySchedule, TomographySchedule]


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
    def scale(self) -> float:
        """sqrt(|alpha|^2 + |beta|^2), the unit of the coefficient tolerances
        and of the |beta| the copy budget reads."""
        return (abs(self.alpha) ** 2 + abs(self.beta) ** 2) ** 0.5

    @property
    def equal_magnitudes(self) -> bool:
        return abs(abs(self.alpha) - abs(self.beta)) <= EQUAL_MAG_TOL * self.scale


@dataclass(frozen=True)
class RandomSuperpositionOutcome:
    """One pipeline run: the index pair, the (d, d) output density, and the
    implied phase."""

    r: IndexPair
    state: np.ndarray
    phi_r: float  # in [0, 2pi), as `_implied_phase` guarantees


def target_superposition(u: np.ndarray, v: np.ndarray, spec: SuperpositionSpec, phi) -> np.ndarray:
    """Normalized densities of alpha*e^{i phi}*u + beta*v, as a (..., d, d) array,
    for unit vectors u, v and one phase, or for (..., d) stacks of them with
    one phase per row.  A norm of at most TOL.nonzero * spec.scale means the
    coefficients cancel, and is refused."""
    if u.shape != v.shape:
        raise DimensionMismatchError(f"dims {u.shape[-1]} and {v.shape[-1]} differ")
    w = np.asarray(spec.alpha * np.exp(1j * phi))[..., None] * u + spec.beta * v
    norms = row_norms(w)[..., None]
    if np.any(norms <= TOL.nonzero * spec.scale):
        raise DegenerateSuperpositionError(
            "coefficients cancel exactly; superposition is the zero vector"
        )
    return outers(w / norms)


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
    t_m = eps / (16.0 * b / spec.scale)  # the output depends on (alpha, beta) / scale
    return t_n, t_m


_KAPPA_GRID = np.arange(1.0, 16.05, 0.1)
_SHOT_GRID = np.array(sorted(
    n
    for k in range(2, 15)
    for n in (10**k, 3 * 10**k)
    if MIN_SHOTS <= n <= TABLE_MAX_N
))


def _budget_costs(d: int) -> np.ndarray:
    """eps_vec + 2*delta_vec of every grid schedule, rows N and columns kappa."""
    _, delta, eps_vec = radii(d, _SHOT_GRID[:, None], _KAPPA_GRID)
    return eps_vec + 2.0 * delta


def _smallest_budget(costs: np.ndarray, target: float, scale: float = 1.0) -> Tuple[int, float]:
    """Smallest grid shot count, with its best widening, whose cost times
    scale meets the target.  The first minimum wins a tie in kappa."""
    met = np.flatnonzero(costs.min(axis=1) <= target / scale)
    if met.size == 0:
        raise BudgetExceededError(
            f"target {target:.3e} unreachable within {TABLE_MAX_N:.0e} shots"
        )
    row = met[0]
    return int(_SHOT_GRID[row]), float(_KAPPA_GRID[np.argmin(costs[row])])


def _budget_schedules(
    spec: SuperpositionSpec, d: int, eps: float
) -> Tuple[TomographySchedule, TomographySchedule]:
    """Schedules for the two tomography stages at target error eps.

    The N stage needs eps_vec + 2*delta_vec <= t_n and the M stage
    2*eps_vec + 4*delta_vec <= t_m.  Scaling by 2 is exact in floating
    point, so the M cost is exactly twice the N cost, and one pass over the
    (N, kappa) grid serves both searches.  Only the two chosen cells are
    built, each through `schedule_for`, which checks them as it checks any.
    """
    t_n, t_m = budget_thresholds(spec, d, eps)
    costs = _budget_costs(d)
    n, kn = _smallest_budget(costs, t_n)
    m, km = _smallest_budget(costs, t_m, scale=2.0)
    return schedule_for(d, n, kn), schedule_for(d, m, km)


def copies_budget(
    spec: SuperpositionSpec, d: int, eps: float
) -> Schedules:
    """Schedules of the two tomography stages at target error eps.

    Their shot counts `N` are the copy budgets (N, M).  They are the
    `schedules` that `random_superposition` and `entangled_superposition`
    run on.
    """
    return _budget_schedules(spec, d, eps)


def _implied_phase(c: np.ndarray, v: np.ndarray, spec: SuperpositionSpec) -> float:
    """The phase phi in [0, 2pi) with alpha e^{i phi} c[0] + beta c[1] prop. to
    |alpha| v[0] + |beta| v[1], for the canonical vectors c (2, d) and the
    column vectors v (2, d) of two states."""
    phi = float(np.mod(
        np.angle(np.vecdot(c[0], v[0]))
        - np.angle(np.vecdot(c[1], v[1]))
        - np.angle(spec.alpha)
        + np.angle(spec.beta),
        2.0 * np.pi,
    ))
    return 0.0 if phi >= 2.0 * np.pi else phi  # mod can round up to the period


def _pair_targets(u: PureDensity, v: PureDensity, pairs, spec: SuperpositionSpec) -> np.ndarray:
    """Targets of one index pair (2,) or an (n, 2) stack of them on the true
    states u, v: the noiseless output at each pair, |alpha| vec_i(u, r[0]) +
    |beta| vec_i(v, r[1]) renormalized.  At phi = arg beta - arg alpha,
    `target_superposition` forms e^{i arg beta} times that sum, so a pair
    whose vectors cancel is refused as any target is."""
    idx = np.asarray(pairs).T  # row s holds state s's index at each pair
    shape = u.matrix.shape
    truth = np.stack((u.matrix, v.matrix)).reshape((2,) + (1,) * (idx.ndim - 1) + shape)
    vu, vv = vec_i(np.broadcast_to(truth, idx.shape + shape), idx)
    return target_superposition(vu, vv, spec, np.angle(spec.beta) - np.angle(spec.alpha))


def _combine(vx: np.ndarray, vy: np.ndarray, spec: SuperpositionSpec) -> np.ndarray:
    """Renormalized |alpha| vx + |beta| vy, per row of two (n, d) stacks, after
    the output-trace floor check."""
    w = abs(spec.alpha) * vx + abs(spec.beta) * vy
    norms = row_norms(w)
    floor = trace_floor(spec, w.shape[-1])
    low = norms**2 + 1e-12 * spec.scale**2 < floor
    if low.any():
        raise InvariantViolation(f"output trace {norms[low][0]**2:.3e} below floor {floor:.3e}")
    return w / norms[:, None]


def _estimates(
    oracle_u: StateOracle,
    oracle_v: StateOracle,
    spec: SuperpositionSpec,
    schedules: Optional[Schedules],
    seeds: Sequence[int],
) -> Tuple[VectorEstimate, VectorEstimate]:
    """Both stages for every seed: two stacks of estimates, one row per seed."""
    d = oracle_u.dim
    if oracle_v.dim != d:
        raise DimensionMismatchError(f"dims {d} and {oracle_v.dim} differ")
    sched_n, sched_m = (None, None) if schedules is None else schedules
    est_x = vector_tomography(
        oracle_u, sched_n, [seeding.child_seed(s, seeding.RUN, 0) for s in seeds]
    )
    est_y = vector_tomography(
        oracle_v, sched_m, [seeding.child_seed(s, seeding.RUN, 1) for s in seeds],
        paired_with=est_x if spec.equal_magnitudes else None,
    )
    return est_x, est_y


def random_superposition(
    u: StateOracle,
    v: StateOracle,
    spec: SuperpositionSpec,
    schedules: Optional[Schedules],
    seed: int,
) -> RandomSuperpositionOutcome:
    """Superpose two unknown states, accessed through measurements only.

    Runs vector tomography on each input, combines the chosen column
    vectors with weights |alpha| and |beta|, and renormalizes.  The index
    pair r is random (it depends on the sampled estimates); the relative
    phase of the output is whatever r implies.  `schedules` are the pair
    `copies_budget(spec, d, eps)` returns, or None for noiseless tomography.
    """
    est_x, est_y = _estimates(u, v, spec, schedules, [seed])
    w = _combine(est_x.v, est_y.v, spec)
    x, vecs = np.concatenate((est_x.x, est_y.x)), np.concatenate((est_x.v, est_y.v))
    return RandomSuperpositionOutcome(
        r=(int(est_x.r[0]), int(est_y.r[0])),
        state=outers(w[0]),
        phi_r=_implied_phase(canonical_vec(x), vecs, spec),
    )


def superposition_error(
    outcome: RandomSuperpositionOutcome,
    u: PureDensity,
    v: PureDensity,
    spec: SuperpositionSpec,
) -> float:
    """The figure of merit of one run: the trace distance of its output to the
    noiseless output at its index pair, on the true states."""
    return figure_of_merit({outcome.r: (1.0, outcome.state)}, u, v, spec)


def entangled_superposition(
    u: StateOracle,
    v: StateOracle,
    spec: SuperpositionSpec,
    schedules: Optional[Schedules],
    seed: int,
    trials: int,
) -> Dict[IndexPair, float]:
    """The index-pair distribution of the block mixture, with Monte-Carlo
    weights: r -> weight, in index-pair order.

    Each trial runs the full pipeline on a fresh seed and contributes its
    index pair; the trials share the schedules and run as stacks of up to
    `TRIAL_CHUNK` seeds.  Only the weights are measured: block r's state is
    the noiseless output at r, `_pair_targets` on the true states.
    Noiseless tomography (`schedules` None) is deterministic, so it runs one
    trial and gives a single block.  `schedules` are as for
    `random_superposition`.
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    if schedules is None:
        trials = 1
    counts = Counter()
    for start in range(0, trials, TRIAL_CHUNK):
        seeds = [seeding.child_seed(seed, seeding.TRIAL, t)
                 for t in range(start, min(start + TRIAL_CHUNK, trials))]
        est_x, est_y = _estimates(u, v, spec, schedules, seeds)
        counts.update(zip(est_x.r.tolist(), est_y.r.tolist()))
    return {r: counts[r] / trials for r in sorted(counts)}


def figure_of_merit(
    outcomes: Mapping[IndexPair, Tuple[float, np.ndarray]],
    u: PureDensity,
    v: PureDensity,
    spec: SuperpositionSpec,
) -> float:
    """Success-normalized summed trace error against per-index targets.

    Each outcome is (weight, unnormalized (d, d) density), and its target is
    the noiseless output at its index pair (`_pair_targets`).  All outcomes
    are scored as one stack; those with zero weight or zero trace contribute
    nothing and build no target.
    """
    w = np.array([weight for weight, _ in outcomes.values()], dtype=float)
    tr = np.array([np.trace(op).real for _, op in outcomes.values()])
    p_succ = np.sum(w * tr)
    if p_succ <= 0.0:
        raise ZeroFunctionalError("total success probability is zero")
    keep = (w != 0.0) & (tr != 0.0)
    kept = [r for r, k in zip(outcomes, keep) if k]
    ops = np.stack([outcomes[r][1] for r in kept])
    targets = _pair_targets(u, v, kept, spec)
    errors = trace_distance(ops, tr[keep, None, None] * targets)
    return float(np.sum(w[keep] * errors) / p_succ)
