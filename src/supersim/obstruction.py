"""Numerical topology checks against candidate superposition maps.

The audit walks a candidate map along two loops of qubit states — a full
global-phase rotation and a constant loop — and compares the winding
numbers of the complement-direction functional g on the circle.  Any
candidate that sees only density matrices is forced to wind twice on the
phase loop and zero times on the constant loop, which no continuous
circle-valued family can reconcile; candidates that dodge the winding
argument instead pay in worst-case output error.  Either way the verdict
is `obstructed`.

Loops are plain tuples: of `StateVector`s for the input loops and of
complex numbers for the values of g along them.  `winding_number` checks
what its answer depends on (enough points, closure, no zero, short steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import RefinementNeededError, ValidationError, ZeroFunctionalError
from .circuits import AMap, _candidate_output, g_normalized
from .linalg import DensityOperator, PureDensity, StateVector, _derived, trace_distance
from .superpose import SuperpositionSpec, target_superposition, threshold
from .vecfun import canonical_vec

MIN_LOOP_SAMPLES = 8
MAX_REFINEMENTS = 10
MOLLIFY_BANDWIDTH = 0.05


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one candidate audit."""

    winding_constant: Optional[int]
    winding_phase_loop: Optional[int]
    max_error: float
    threshold: float
    g_vanished: bool = False

    @property
    def verdict(self) -> str:
        """Obstructed on a winding mismatch, a vanished g or an error at the threshold."""
        mismatch = self.g_vanished or self.winding_constant != self.winding_phase_loop
        return "obstructed" if mismatch or self.max_error >= self.threshold else "consistent"


def _require_samples(n: int) -> None:
    if n < MIN_LOOP_SAMPLES:
        raise ValidationError(f"need at least {MIN_LOOP_SAMPLES} samples, got {n}")


def winding_number(points: Sequence[complex]) -> int:
    """Net number of circle wraps of a closed loop of nonzero complex points."""
    z = np.array([complex(p) for p in points])
    _require_samples(z.size)
    gap = abs(z[0] - z[-1])
    if gap > 1e-9:
        raise ValidationError(f"loop not closed (gap {gap:.2e})")
    if np.any(np.abs(z) < 1e-12):
        raise ValidationError("loop passes through zero")
    steps = np.angle(z[1:] / z[:-1])
    if np.any(np.abs(steps) >= np.pi - 1e-9):
        raise RefinementNeededError("phase step at or beyond pi; loop under-sampled")
    total = steps.sum() / (2.0 * np.pi)
    if abs(total - round(total)) > 0.1:
        raise RefinementNeededError(f"winding sum {total} far from an integer")
    return int(round(total))


def phase_loop(x0: StateVector, k: int, n: int) -> Tuple[StateVector, ...]:
    """Closed loop t -> e^{i 2 pi k t} x0 sampled at n+1 points of [0, 1]."""
    _require_samples(n)
    return tuple(
        StateVector(np.exp(2j * np.pi * k * j / n) * x0.amplitudes) for j in range(n + 1)
    )


def discontinuity_loop(n: int) -> Tuple[StateVector, ...]:
    """States (-sin pi t, cos pi t): a density-matrix loop through |1><1|.

    The vectors are an open path: the last is minus the first."""
    _require_samples(n)
    ts = (j / n for j in range(n + 1))
    return tuple(StateVector(np.array([-np.sin(np.pi * t), np.cos(np.pi * t)])) for t in ts)


def _winding_along(A: AMap, x0: StateVector, k: int, n: int) -> int:
    for _ in range(MAX_REFINEMENTS):
        values = tuple(g_normalized(A, p) for p in phase_loop(x0, k, n))
        try:
            return winding_number(values)
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
        for point in loop:
            max_error = max(max_error, _best_phase_error(A, point, spec))
    return AuditReport(
        winding_constant=w_const,
        winding_phase_loop=w_phase,
        max_error=float(max_error),
        threshold=threshold(spec),
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


BUILTIN_CANDIDATES = {
    "ideal": ideal_candidate,
    "mollified": mollified_candidate,
    "constant": constant_candidate,
}
