"""Postselection circuits and small bra-ket identities.

A circuit is a dense unitary on N+M state copies plus an ancilla, followed
by a success projector; applying it to a pair of pure inputs yields the
unnormalized conditional output on the kept registers.  The module also
carries the qubit identities used throughout (Bell-contraction teleport
factor, conjugated bra, orthogonal complement) and the `g_functional`
diagnostic that probes a candidate superposition map along the complement
direction.  The identities are raw contractions, not states: they take and
return plain complex arrays of size 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .config import MAX_DIM
from .errors import (
    DimensionMismatchError,
    InvalidMapError,
    TensorCapError,
    ValidationError,
    ZeroFunctionalError,
)
from .linalg import (
    DensityOperator,
    PureDensity,
    StateVector,
    _derived,
    kron_all,
    outer,
    partial_trace,
)

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

AMap = Callable[[PureDensity, PureDensity], DensityOperator]


def _check_unitary(v: np.ndarray) -> None:
    eye = np.eye(v.shape[0])
    if np.max(np.abs(v.conj().T @ v - eye)) > 1e-10:
        raise ValidationError("V is not unitary")


def _check_projector(p: np.ndarray) -> None:
    if np.max(np.abs(p - p.conj().T)) > 1e-10:
        raise ValidationError("projector is not Hermitian")
    if np.max(np.abs(p @ p - p)) > 1e-10:
        raise ValidationError("projector is not idempotent")


@dataclass(frozen=True)
class PostselectionCircuit:
    """Unitary + success projector acting on copies of the inputs."""

    V: np.ndarray
    pi_succ: np.ndarray
    d: int
    copies: Tuple[int, int]
    d_anc: int = 1
    keep: Tuple[int, ...] = (0,)

    def __post_init__(self):
        object.__setattr__(self, "V", np.asarray(self.V, dtype=np.complex128))
        object.__setattr__(self, "pi_succ", np.asarray(self.pi_succ, dtype=np.complex128))
        total = self.total_dim
        if self.V.shape != (total, total) or self.pi_succ.shape != (total, total):
            raise DimensionMismatchError(
                f"operator shape mismatch: expected {total}x{total}"
            )
        _check_unitary(self.V)
        _check_projector(self.pi_succ)
        n_factors = sum(self.copies) + (1 if self.d_anc > 1 else 0)
        if any(k < 0 or k >= n_factors for k in self.keep):
            raise ValidationError(f"keep indices {self.keep} out of range")

    @property
    def factor_dims(self) -> List[int]:
        dims = [self.d] * sum(self.copies)
        if self.d_anc > 1:
            dims.append(self.d_anc)
        return dims

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims))


def _circuit_input(c: PostselectionCircuit, u: PureDensity, v: PureDensity) -> np.ndarray:
    if u.dim != c.d or v.dim != c.d:
        raise DimensionMismatchError(
            f"input dims ({u.dim}, {v.dim}) do not match circuit dim {c.d}"
        )
    if c.total_dim > MAX_DIM:
        raise TensorCapError(f"total dimension {c.total_dim} exceeds cap {MAX_DIM}")
    n, m = c.copies
    factors = [u.matrix] * n + [v.matrix] * m
    if c.d_anc > 1:
        anc = np.zeros((c.d_anc, c.d_anc), dtype=np.complex128)
        anc[0, 0] = 1.0
        factors.append(anc)
    return kron_all(factors)


def apply_postselection(
    c: PostselectionCircuit, u: PureDensity, v: PureDensity
) -> DensityOperator:
    """Unnormalized conditional output tr_K[Pi V (in) V^dag Pi]."""
    rho = _circuit_input(c, u, v)
    conditioned = c.pi_succ @ c.V @ rho @ c.V.conj().T @ c.pi_succ
    full = _derived(DensityOperator, (conditioned + conditioned.conj().T) / 2)
    return partial_trace(full, c.keep, c.factor_dims)


def _qubit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (2,):
        raise DimensionMismatchError(f"qubit amplitudes expected, got shape {x.shape}")
    return x


def teleport_identity_check(x: np.ndarray) -> np.ndarray:
    """Literal Bell contraction (<bell| (x) I)(|x> (x) |bell>); equals x/2."""
    full = np.kron(_qubit(x), BELL)  # indices (i, j, k)
    return np.einsum("ij,ijk->k", BELL.conj().reshape(2, 2), full.reshape(2, 2, 2))


def conjugate_bra(x: np.ndarray) -> np.ndarray:
    """Components of <bell| (|x> (x) I): the bra <x*| scaled by 1/sqrt(2)."""
    return np.einsum("ij,i->j", BELL.conj().reshape(2, 2), _qubit(x))


def orthogonal_complement(x: np.ndarray) -> np.ndarray:
    """Bra components of (<00|+<11|)(|x> (x) sigma_y): (ib, -ia) for x=(a,b).

    The unconjugated dot product with x is exactly zero, and the map is
    linear in x.  The corresponding ket is the entrywise conjugate.
    """
    a, b = _qubit(x)
    # Written out scalar-by-scalar so the dot with x cancels exactly.
    return np.array([1j * b, -1j * a])


def complement_ket(x: StateVector) -> StateVector:
    """Ket orthogonal to x (in the Hermitian inner product), unit norm."""
    return StateVector(orthogonal_complement(x.amplitudes).conj())


def _candidate_output(A: AMap, x: StateVector) -> Tuple[DensityOperator, StateVector, StateVector]:
    """Evaluate a candidate on (x, complement) and hand back the frame."""
    perp = complement_ket(x)
    out = A(outer(x), outer(perp))
    if not isinstance(out, DensityOperator):
        raise InvalidMapError("candidate must return a density operator")
    if out.dim != x.dim:
        raise InvalidMapError(f"candidate output dim {out.dim} != input dim {x.dim}")
    if out.trace <= 0.0:
        raise InvalidMapError(f"candidate trace {out.trace} is not positive")
    return out, x, perp


def g_functional(A: AMap, x: StateVector) -> complex:
    """Complement-direction matrix element of a normalized candidate output.

    Returns <x_perp| A(xx^dag, perp perp^dag)/tr |x> with the bra taken as
    the raw sigma_y contraction (no conjugation).  Both contractions are
    1-homogeneous in x, so for any candidate that sees only the density
    matrices the value picks up a factor e^{2i theta} when x does e^{i theta}.
    """
    out, x, _ = _candidate_output(A, x)
    bra = orthogonal_complement(x.amplitudes)
    return complex(bra @ (out.matrix / out.trace) @ x.amplitudes)


def g_normalized(A: AMap, x: StateVector) -> complex:
    """g / |g|, the circle-valued form; zero g is an explicit failure."""
    g = g_functional(A, x)
    if abs(g) < 1e-12:
        raise ZeroFunctionalError("g vanishes; cannot normalize")
    return g / abs(g)

