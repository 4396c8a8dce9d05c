"""Numerical topology checks against candidate superposition maps.

The audit walks a candidate map along two loops of qubit states — a full
global-phase rotation and a constant loop — and compares the winding
numbers of the complement-direction functional g on the circle.  Any
candidate that sees only density matrices is forced to wind twice on the
phase loop and zero times on the constant loop, which no continuous
circle-valued family can reconcile; candidates that dodge the winding
argument instead pay in worst-case output error.  Either way the verdict
is `obstructed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import seeding
from .errors import RefinementNeededError, ValidationError, ZeroFunctionalError
from .circuits import AMap, _candidate_output, g_normalized
from .linalg import DensityOperator, PureDensity, StateVector, _derived, trace_distance
from .superpose import SuperpositionSpec, target_superposition, threshold
from .vecfun import canonical_vec

MIN_LOOP_SAMPLES = 8
MAX_REFINEMENTS = 10
MOLLIFY_BANDWIDTH = 0.05

LoopPoint = Union[complex, StateVector]


@dataclass(frozen=True)
class LoopSample:
    """Discretized closed loop of circle points or state vectors."""

    points: Tuple[LoopPoint, ...]
    closed: bool = True

    def __post_init__(self):
        if len(self.points) < MIN_LOOP_SAMPLES:
            raise ValidationError(
                f"need at least {MIN_LOOP_SAMPLES} samples, got {len(self.points)}"
            )
        if self.closed:
            first, last = self.points[0], self.points[-1]
            if isinstance(first, StateVector):
                gap = np.max(np.abs(first.amplitudes - last.amplitudes))
            else:
                gap = abs(complex(first) - complex(last))
            if gap > 1e-9:
                raise ValidationError(f"loop not closed (gap {gap:.2e})")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one candidate audit."""

    winding_constant: Optional[int]
    winding_phase_loop: Optional[int]
    max_error: float
    threshold: float
    verdict: str
    g_vanished: bool = False

    def __post_init__(self):
        mismatch = self.g_vanished or self.winding_constant != self.winding_phase_loop
        expected = "obstructed" if mismatch or self.max_error >= self.threshold else "consistent"
        if self.verdict != expected:
            raise ValidationError(f"verdict {self.verdict} inconsistent with fields")


def winding_number(loop: LoopSample) -> int:
    """Net number of circle wraps of a closed loop of nonzero complex points."""
    z = np.array([complex(p) for p in loop.points])
    if np.any(np.abs(z) < 1e-12):
        raise ValidationError("loop passes through zero")
    steps = np.angle(z[1:] / z[:-1])
    if np.any(np.abs(steps) >= np.pi - 1e-9):
        raise RefinementNeededError("phase step at or beyond pi; loop under-sampled")
    total = steps.sum() / (2.0 * np.pi)
    if abs(total - round(total)) > 0.1:
        raise RefinementNeededError(f"winding sum {total} far from an integer")
    return int(round(total))


def phase_loop(x0: StateVector, k: int, n: int) -> LoopSample:
    """Loop t -> e^{i 2 pi k t} x0 sampled at n+1 points of [0, 1]."""
    if n < MIN_LOOP_SAMPLES:
        raise ValidationError(f"need at least {MIN_LOOP_SAMPLES} samples, got {n}")
    points = tuple(
        StateVector(np.exp(2j * np.pi * k * j / n) * x0.amplitudes) for j in range(n + 1)
    )
    return LoopSample(points=points, closed=True)


def discontinuity_loop(n: int) -> LoopSample:
    """States (-sin pi t, cos pi t): a density-matrix loop through |1><1|."""
    if n < MIN_LOOP_SAMPLES:
        raise ValidationError(f"need at least {MIN_LOOP_SAMPLES} samples, got {n}")
    points = []
    for j in range(n + 1):
        t = j / n
        points.append(StateVector(np.array([-np.sin(np.pi * t), np.cos(np.pi * t)])))
    return LoopSample(points=tuple(points), closed=False)


def homogeneity_defect(
    g: Callable[[StateVector], complex], m: int, samples: int, seed: int
) -> float:
    """Worst deviation of g from m-homogeneity under random rephasings."""
    worst = 0.0
    for i in range(samples):
        rng = seeding.rng_for(seed, seeding.STATE, i)
        x = StateVector(seeding.haar_state(rng, 2))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rotated = StateVector(np.exp(1j * theta) * x.amplitudes)
        worst = max(worst, abs(g(rotated) - np.exp(1j * m * theta) * g(x)))
    return float(worst)


def _winding_along(A: AMap, x0: StateVector, k: int, n: int) -> int:
    for _ in range(MAX_REFINEMENTS):
        loop = phase_loop(x0, k, n)
        values = tuple(g_normalized(A, p) for p in loop.points)
        try:
            return winding_number(LoopSample(points=values, closed=True))
        except RefinementNeededError:
            n *= 2
    raise RefinementNeededError(f"winding did not stabilize below n={n}")


def _best_phase_error(A: AMap, x: StateVector, spec: SuperpositionSpec) -> float:
    """Output error against the most favorable per-point target phase."""
    out, x, perp = _candidate_output(A, x)
    rho = _derived(DensityOperator, out.matrix / out.trace)
    cross = np.conj(spec.alpha) * spec.beta * (
        x.amplitudes.conj() @ rho.matrix @ perp.amplitudes
    )
    phi = float(np.angle(cross)) if abs(cross) > 1e-15 else 0.0
    return trace_distance(rho, target_superposition(x, perp, spec, phi))


def obstruction_audit(
    A: AMap, spec: SuperpositionSpec, x0: StateVector, n: int
) -> AuditReport:
    """Winding comparison plus worst-case error scan for one candidate."""
    g_vanished = False
    w_phase: Optional[int] = None
    w_const: Optional[int] = None
    try:
        w_phase = _winding_along(A, x0, 1, n)
        w_const = _winding_along(A, x0, 0, n)
    except ZeroFunctionalError:
        g_vanished = True
    max_error = 0.0
    for loop in (phase_loop(x0, 1, n), discontinuity_loop(n)):
        for point in loop.points:
            max_error = max(max_error, _best_phase_error(A, point, spec))
    thr = threshold(spec)
    mismatch = g_vanished or w_phase != w_const
    verdict = "obstructed" if mismatch or max_error >= thr else "consistent"
    return AuditReport(
        winding_constant=w_const,
        winding_phase_loop=w_phase,
        max_error=float(max_error),
        threshold=thr,
        verdict=verdict,
        g_vanished=g_vanished,
    )


# --- built-in candidates -------------------------------------------------

def ideal_candidate(spec: SuperpositionSpec, phi: float = 0.0) -> AMap:
    """Pointwise-perfect superposer of the two canonical vectors.

    Perfect on every input pair, yet built from density matrices only, so
    its g winds twice under a global rephasing of the input vector.
    """

    def A(rho_u: PureDensity, rho_v: PureDensity) -> DensityOperator:
        w = (
            spec.alpha * np.exp(1j * phi) * canonical_vec(rho_u).amplitudes
            + spec.beta * canonical_vec(rho_v).amplitudes
        )
        return _derived(DensityOperator, np.outer(w, w.conj()))

    return A


def mollified_candidate(spec: SuperpositionSpec, bandwidth: float = MOLLIFY_BANDWIDTH) -> AMap:
    """Continuous surrogate: first columns with the 1/sqrt weight clamped.

    Smoothing the canonical-vector discontinuity trades it for large error
    on states with small first-coordinate weight.
    """

    def mvec(rho: PureDensity) -> np.ndarray:
        w00 = np.sqrt(max(rho.matrix[0, 0].real, 0.0))
        return rho.matrix[:, 0] / max(w00, bandwidth)

    def A(rho_u: PureDensity, rho_v: PureDensity) -> DensityOperator:
        w = spec.alpha * mvec(rho_u) + spec.beta * mvec(rho_v)
        return _derived(DensityOperator, np.outer(w, w.conj()))

    return A


def constant_candidate(spec: SuperpositionSpec) -> AMap:
    """Input-ignoring candidate: always |+><+|."""
    plus = _derived(DensityOperator, np.full((2, 2), 0.5))

    def A(rho_u: PureDensity, rho_v: PureDensity) -> DensityOperator:
        return plus

    return A


def ket_ideal(spec: SuperpositionSpec, phi: float = 0.0) -> AMap:
    """Superposer with direct ket access (not reachable from densities).

    Receives the state vectors themselves, so its g is constant:
    conj(alpha) * beta * e^{-i phi} / (|alpha|^2 + |beta|^2) at every x.
    """

    def A(u: StateVector, v: StateVector) -> DensityOperator:
        w = spec.alpha * np.exp(1j * phi) * u.amplitudes + spec.beta * v.amplitudes
        return DensityOperator(np.outer(w, w.conj()))

    A.needs_kets = True
    return A


BUILTIN_CANDIDATES = {
    "ideal": ideal_candidate,
    "mollified": mollified_candidate,
    "constant": constant_candidate,
}
