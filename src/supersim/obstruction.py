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
stack of outputs.  An audit makes one candidate call per loop it evaluates,
the phase loop and the discontinuity loop, whatever n is; the windings and
the error scan read the same outputs.  The values of g along a loop are a
1-D complex array, and `winding_number` checks what its answer depends on
(enough points, closure, no zero, short steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError, RefinementNeededError, ValidationError, ZeroFunctionalError,
)
from .config import TOL
from .circuits import AMap, _candidate_output, g_functional, g_normalized
from .linalg import StateVector, outers, trace_distance
from .superpose import SuperpositionSpec, target_superposition, threshold
from .vecfun import canonical_vec

MIN_LOOP_SAMPLES = 8
# Loop points a caller may ask for: each costs a few 2x2 matrices per stack.
# No loop is refined past it, so it bounds the audit's work, not only its input.
MAX_LOOP_SAMPLES = 2**16
MOLLIFY_BANDWIDTH = 0.05


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one candidate audit."""

    winding_constant: Optional[int]
    winding_phase_loop: Optional[int]
    max_error: float
    threshold: float
    g_vanished: bool = False
    # Output error at each point of the discontinuity loop, for `audit --csv`.
    loop_errors: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

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
    if np.any(np.abs(z) < TOL.nonzero):
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


def _winding_along(xs: np.ndarray, rhos: np.ndarray, perps: np.ndarray) -> Tuple[int, int]:
    """Windings of g on the phase loop xs (outputs `rhos, perps`) and on the constant loop.

    A candidate sees only densities, so g(e^{i theta} x) = e^{2i theta} g(x):
    g turns by 4 pi / n <= pi / 2 per step and no refinement is needed (nor
    could one mend a jump from roundoff, which `winding_number` refuses).
    Row 0 of xs is x0 bit for bit, so the constant loop is g[0] repeated.
    """
    g = g_normalized(g_functional(xs, rhos, perps))
    return winding_number(g), winding_number(np.repeat(g[:1], g.size))


def _best_phase_error(
    xs: np.ndarray, rhos: np.ndarray, perps: np.ndarray, spec: SuperpositionSpec
) -> np.ndarray:
    """Error of the outputs `rhos, perps` on xs against their most favorable target phase.

    The targets are `target_superposition(xs, perps, spec, phi)`, one stack
    for the whole loop, at the phase phi of each output's cross term.
    """
    cross = np.conj(spec.alpha) * spec.beta * (
        xs.conj()[:, None, :] @ rhos @ perps[:, :, None]
    )[:, 0, 0]
    phi = np.where(np.abs(cross) > 1e-15 * spec.scale**2, np.angle(cross), 0.0)
    return trace_distance(rhos, target_superposition(xs, perps, spec, phi))


def obstruction_audit(
    A: AMap, spec: SuperpositionSpec, x0: StateVector, n: int
) -> AuditReport:
    """Winding comparison plus worst-case error scan: one candidate call per loop."""
    if n > MAX_LOOP_SAMPLES:
        raise ValidationError(f"at most {MAX_LOOP_SAMPLES} samples, got {n}")
    if x0.dim != 2:
        raise DimensionMismatchError(f"x0 must be a qubit state, got dimension {x0.dim}")
    xs = phase_loop(x0, 1, n)
    outputs = _candidate_output(A, xs)
    try:
        w_phase, w_const = _winding_along(xs, *outputs)
        g_vanished = False
    except ZeroFunctionalError:
        w_phase = w_const = None
        g_vanished = True
    phase_errors = _best_phase_error(xs, *outputs, spec)
    cut = discontinuity_loop(n)
    loop_errors = _best_phase_error(cut, *_candidate_output(A, cut), spec)
    return AuditReport(
        winding_constant=w_const,
        winding_phase_loop=w_phase,
        max_error=max(float(phase_errors.max()), float(loop_errors.max())),
        threshold=threshold(spec),
        g_vanished=g_vanished,
        loop_errors=loop_errors,
    )


# --- built-in candidates -------------------------------------------------

def ideal_candidate(spec: SuperpositionSpec) -> AMap:
    """Pointwise-perfect superposer of the two canonical vectors.

    Perfect on every input pair, yet built from density matrices only, so
    its g winds twice under a global rephasing of the input vector.
    """

    def A(rho_u: np.ndarray, rho_v: np.ndarray) -> np.ndarray:
        return outers(spec.alpha * canonical_vec(rho_u) + spec.beta * canonical_vec(rho_v))

    return A


def mollified_candidate(spec: SuperpositionSpec) -> AMap:
    """Continuous surrogate: first columns with the 1/sqrt weight clamped.

    Smoothing the canonical-vector discontinuity trades it for large error
    on states with small first-coordinate weight.  At the start x0 = |0>
    the complement |1><1| has a zero first column, so the output is
    |alpha|^2 |0><0| and g is exactly 0 along the whole phase loop: the
    audit reports `g_vanished` and no windings, and its verdict rests on
    that and on `max_error`.  A start with both coordinates nonzero gives
    windings 2 (phase loop) and 0 (constant loop).
    """

    def mvecs(rhos: np.ndarray) -> np.ndarray:
        w00 = np.sqrt(np.maximum(rhos[:, 0, 0].real, 0.0))
        return rhos[:, :, 0] / np.maximum(w00, MOLLIFY_BANDWIDTH)[:, None]

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
