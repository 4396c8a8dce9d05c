"""Postselection circuits and small bra-ket identities.

A circuit is a dense unitary on N+M state copies plus an ancilla, followed
by a success projector; applying it to a pair of unit kets yields the
unnormalized conditional output on the kept registers, a plain array.  The
input is pure, so the circuit runs on the ket and forms one density at the
end; the inputs' global phases cancel in it.  The module also
carries the qubit identities used throughout (Bell-contraction teleport
factor, conjugated bra, orthogonal complement) and the `g_functional`
diagnostic that probes a candidate superposition map along the complement
direction.  The identities are raw contractions, not states: they take and
return plain complex arrays of size 2 (the orthogonal complement also
takes an (n, 2) stack).

A candidate map (`AMap`) acts on stacks of 2x2 densities.
`_candidate_output` evaluates it once on an (n, 2) stack of unit kets and
checks once that the output stack holds densities; `g_functional` and
`g_normalized` read those evaluated outputs, one value per row, and call no
candidate themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .config import MAX_DIM, TOL
from .errors import (
    DimensionMismatchError,
    InvalidMapError,
    TensorCapError,
    ValidationError,
    ZeroFunctionalError,
)
from .linalg import StateVector, outers

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)

# A single-outcome candidate map, evaluated on stacks: the (n, 2, 2) input
# densities and the (n, 2, 2) densities of their complements give the
# (n, 2, 2) unnormalized outputs.
AMap = Callable[[np.ndarray, np.ndarray], np.ndarray]


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


def apply_postselection(
    c: PostselectionCircuit, u: StateVector, v: StateVector
) -> np.ndarray:
    """Unnormalized conditional output tr_K[Pi V (in) V^dag Pi] on the kept
    registers, for the pure input u^N (x) v^M (x) |0>_anc.

    The output is a a^dag, where a = Pi V |in> has its kept axes moved to
    the front and reshaped to (d_keep, rest).
    """
    if u.dim != c.d or v.dim != c.d:
        raise DimensionMismatchError(
            f"input dims ({u.dim}, {v.dim}) do not match circuit dim {c.d}"
        )
    if c.total_dim > MAX_DIM:
        raise TensorCapError(f"total dimension {c.total_dim} exceeds cap {MAX_DIM}")
    n, m = c.copies
    ket = np.ones(1, dtype=np.complex128)
    for factor in [u.amplitudes] * n + [v.amplitudes] * m:
        ket = np.kron(ket, factor)
    if c.d_anc > 1:
        ket = np.kron(ket, np.eye(c.d_anc)[0])
    dims = c.factor_dims
    keep = sorted(set(c.keep))
    rest = [k for k in range(len(dims)) if k not in keep]
    a = (c.pi_succ @ (c.V @ ket)).reshape(dims).transpose(keep + rest)
    a = a.reshape(int(np.prod([dims[k] for k in keep])), -1)
    return a @ a.conj().T


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
    linear in x.  The corresponding ket is the entrywise conjugate.  An
    (n, 2) stack of qubits gives the (n, 2) stack of their complements.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (1, 2) or x.shape[-1] != 2:
        raise DimensionMismatchError(f"qubit amplitudes expected, got shape {x.shape}")
    a, b = x[..., 0], x[..., 1]
    # Written out scalar-by-scalar so the dot with x cancels exactly.
    return np.stack([1j * b, -1j * a], axis=-1)


def _candidate_output(A: AMap, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate a candidate on a stack of (x, complement) pairs.

    `xs` is an (n, 2) stack of unit kets.  Returns the candidate's outputs
    divided by their traces, (n, 2, 2), and the complement kets, (n, 2).
    The output stack is checked once: its shape, every trace positive, and
    every output over its trace a density within `DensityOperator`'s bounds.
    A unit-trace 2x2 matrix is PSD exactly when its determinant is
    nonnegative, so the check is element-wise, with no eigendecomposition.
    """
    perps = orthogonal_complement(xs).conj()
    out = A(outers(xs), outers(perps))
    if not isinstance(out, np.ndarray) or out.shape != (len(xs), 2, 2):
        raise InvalidMapError(
            f"candidate must return a ({len(xs)}, 2, 2) stack, got {getattr(out, 'shape', out)!r}"
        )
    traces = np.trace(out, axis1=1, axis2=2).real
    bad = ~(traces > 0.0)  # NaN traces fail too
    if bad.any():
        raise InvalidMapError(f"candidate trace {traces[bad][0]} is not positive")
    rhos = out / traces[:, None, None]
    defect = np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max()
    det = (rhos[:, 0, 0] * rhos[:, 1, 1] - rhos[:, 0, 1] * rhos[:, 1, 0]).real.min()
    if not (defect <= 1e-9 and det >= -1e-10):  # NaN fails too
        raise InvalidMapError(
            f"candidate output is not a density (largest Hermitian defect {defect:.2e},"
            f" smallest determinant {det:.2e} at unit trace)"
        )
    return rhos, perps


def g_functional(xs: np.ndarray, rhos: np.ndarray, perps: np.ndarray) -> np.ndarray:
    """Complement-direction matrix element of evaluated candidate outputs.

    For each row x of the (n, 2) stack, <x_perp| rho |x>, where `rhos` and
    `perps` are what `_candidate_output` returned for xs, and the bra is the
    raw sigma_y contraction (no conjugation), the conjugate of the complement
    ket.  Both contractions are 1-homogeneous in x, so for any candidate that
    sees only the density matrices the value picks up a factor e^{2i theta}
    when x does e^{i theta}.
    """
    return (perps.conj()[:, None, :] @ rhos @ xs[:, :, None])[:, 0, 0]


def g_normalized(g: np.ndarray) -> np.ndarray:
    """g / |g|, the circle-valued form; a zero g anywhere is an explicit failure."""
    mag = np.abs(g)
    if np.any(mag < TOL.nonzero):
        raise ZeroFunctionalError("g vanishes; cannot normalize")
    return g / mag
