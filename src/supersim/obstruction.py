"""Numerical topology checks against candidate superposition maps.

The audit walks a candidate map along two loops of qubit states — a full
global-phase rotation and a constant loop — and compares the winding
numbers of the complement-direction functional g on the circle.  Any
candidate that sees only density matrices is forced to wind twice on the
phase loop and zero times on the constant loop, which no continuous
circle-valued family can reconcile; candidates that dodge the winding
argument instead pay in worst-case output error.  Either way the verdict
is `obstructed`.

The audit works on stacks, one row per loop point.  A loop of inputs is
an (n+1, 2) complex array of kets, and a candidate (`circuits.AMap`) maps
the (n+1, 2, 2) stacks of input densities and of their complements to one
stack of outputs, so each loop costs one candidate call and one
eigenvalue pass, whatever n is.  The values of g along a loop are a 1-D
complex array, and `winding_number` checks what its answer depends on
(enough points, closure, no zero, short steps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import TOL
from .errors import (
    DegenerateSuperpositionError,
    RefinementNeededError,
    ValidationError,
    ZeroFunctionalError,
)
from .circuits import AMap, _candidate_output, g_normalized
from .linalg import StateVector, outers, row_norms, trace_distance
from .superpose import SuperpositionSpec, threshold
from .vecfun import canonical_vecs

MIN_LOOP_SAMPLES = 8
# Loop points a caller may ask for: each costs a few 2x2 matrices per stack.
# Winding refinement may double past it; it is a bound on input, not on work.
MAX_LOOP_SAMPLES = 2**16
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


def winding_number(points: np.ndarray) -> int:
    """Net number of circle wraps of a closed loop of nonzero complex points."""
    z = np.asarray(points, dtype=np.complex128)
    if z.ndim != 1:
        raise ValidationError(f"a loop is a 1-D array of points, got shape {z.shape}")
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


def phase_loop(x0: StateVector, k: int, n: int) -> np.ndarray:
    """Closed loop t -> e^{i 2 pi k t} x0 at n+1 points of [0, 1], as (n+1, d) rows."""
    _require_samples(n)
    phases = np.exp(2j * np.pi * k * np.arange(n + 1) / n)
    return phases[:, None] * x0.amplitudes


def discontinuity_loop(n: int) -> np.ndarray:
    """States (-sin pi t, cos pi t) at n+1 points: a density-matrix loop through |1><1|.

    The rows are an open path of vectors: the last is minus the first."""
    _require_samples(n)
    t = np.arange(n + 1) / n
    return np.stack([-np.sin(np.pi * t), np.cos(np.pi * t)], axis=-1).astype(np.complex128)


def _winding_along(A: AMap, x0: StateVector, k: int, n: int) -> int:
    for _ in range(MAX_REFINEMENTS):
        values = g_normalized(A, phase_loop(x0, k, n))
        try:
            return winding_number(values)
        except RefinementNeededError:
            n *= 2
    raise RefinementNeededError(f"winding did not stabilize below n={n}")


def _best_phase_error(A: AMap, xs: np.ndarray, spec: SuperpositionSpec) -> np.ndarray:
    """Output error at every row of xs against its most favorable target phase.

    Each target is `target_superposition(x, perp, spec, phi)`, built row by
    row here, at the phase phi of the output's cross term.
    """
    rhos, perps = _candidate_output(A, xs)
    cross = np.conj(spec.alpha) * spec.beta * (
        xs.conj()[:, None, :] @ rhos @ perps[:, :, None]
    )[:, 0, 0]
    phi = np.where(np.abs(cross) > 1e-15 * spec.scale**2, np.angle(cross), 0.0)
    w = (spec.alpha * np.exp(1j * phi))[:, None] * xs + spec.beta * perps
    norms = row_norms(w)
    if np.any(norms <= TOL.nonzero * spec.scale):
        raise DegenerateSuperpositionError(
            "coefficients cancel exactly; superposition is the zero vector"
        )
    return trace_distance(rhos, outers(w / norms[:, None]))


def obstruction_audit(
    A: AMap, spec: SuperpositionSpec, x0: StateVector, n: int
) -> AuditReport:
    """Winding comparison plus worst-case error scan for one candidate."""
    if n > MAX_LOOP_SAMPLES:
        raise ValidationError(f"at most {MAX_LOOP_SAMPLES} samples, got {n}")
    g_vanished = False
    w_phase: Optional[int] = None
    w_const: Optional[int] = None
    try:
        w_phase = _winding_along(A, x0, 1, n)
        w_const = _winding_along(A, x0, 0, n)
    except ZeroFunctionalError:
        g_vanished = True
    max_error = max(
        float(_best_phase_error(A, loop, spec).max())
        for loop in (phase_loop(x0, 1, n), discontinuity_loop(n))
    )
    return AuditReport(
        winding_constant=w_const,
        winding_phase_loop=w_phase,
        max_error=max_error,
        threshold=threshold(spec),
        g_vanished=g_vanished,
    )


# --- built-in candidates -------------------------------------------------

def ideal_candidate(spec: SuperpositionSpec, phi: float = 0.0) -> AMap:
    """Pointwise-perfect superposer of the two canonical vectors.

    Perfect on every input pair, yet built from density matrices only, so
    its g winds twice under a global rephasing of the input vector.
    """

    def A(rho_u: np.ndarray, rho_v: np.ndarray) -> np.ndarray:
        w = (
            spec.alpha * np.exp(1j * phi) * canonical_vecs(rho_u)
            + spec.beta * canonical_vecs(rho_v)
        )
        return outers(w)

    return A


def mollified_candidate(spec: SuperpositionSpec, bandwidth: float = MOLLIFY_BANDWIDTH) -> AMap:
    """Continuous surrogate: first columns with the 1/sqrt weight clamped.

    Smoothing the canonical-vector discontinuity trades it for large error
    on states with small first-coordinate weight.
    """

    def mvecs(rhos: np.ndarray) -> np.ndarray:
        w00 = np.sqrt(np.maximum(rhos[:, 0, 0].real, 0.0))
        return rhos[:, :, 0] / np.maximum(w00, bandwidth)[:, None]

    def A(rho_u: np.ndarray, rho_v: np.ndarray) -> np.ndarray:
        return outers(spec.alpha * mvecs(rho_u) + spec.beta * mvecs(rho_v))

    return A


def constant_candidate(spec: SuperpositionSpec) -> AMap:
    """Input-ignoring candidate: always |+><+|."""
    plus = np.full((2, 2), 0.5 + 0j)

    def A(rho_u: np.ndarray, rho_v: np.ndarray) -> np.ndarray:
        return np.broadcast_to(plus, rho_u.shape)

    return A


BUILTIN_CANDIDATES = {
    "ideal": ideal_candidate,
    "mollified": mollified_candidate,
    "constant": constant_candidate,
}
