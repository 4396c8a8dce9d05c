"""Dense complex linear algebra for desk-scale quantum states.

Conventions fixed here and relied on everywhere else:

* trace distance is the unnormalized sum of singular values, so orthogonal
  pure states sit at distance 2;
* tensor products order subsystems with the leftmost factor most
  significant;
* the state types are immutable after construction and all operations
  are pure;
* invariants are checked once, at the trust boundary: an instance of a
  state type means its constructor's checks passed.  The public
  constructors validate, and `load_state` makes every state file a checked
  `PureDensity`, dimension cap first; `outer` is the one exception, as the
  projector of a checked unit vector is pure by construction;
* derived vectors, derived densities and raw contractions stay plain
  complex arrays;
* the kernels estimates pass through (`dominant_pure`, `trace_distance`,
  `canonical_phase`, `row_norms`, `outers`) take a stack, one matrix or
  vector per row of the leading axes, and a single one is a stack with no
  leading axes.  Each row gets the bits it would get alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .config import MAX_TOMO_DIM, TOL
from .errors import (
    DimensionMismatchError,
    NormalizationError,
    ValidationError,
)


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=np.complex128)
    out.flags.writeable = False
    return out


def _require_finite(array: np.ndarray) -> None:
    if not np.isfinite(array).all():
        raise ValidationError("entries must be finite (found NaN or inf)")


@dataclass(frozen=True)
class StateVector:
    """Unit vector in C^d."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if amps.size == 0:
            raise ValidationError("empty state vector")
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-9:  # also false for NaN or inf entries
            raise NormalizationError(f"norm {norm} is not 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian PSD matrix.  Trace may be any nonnegative value, so a density
    file need not be normalized (`load_state` normalizes it)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen(np.asarray(self.matrix))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"matrix shape {mat.shape} is not square")
        object.__setattr__(self, "matrix", mat)
        _require_finite(mat)
        herm_defect = np.max(np.abs(mat - mat.conj().T))
        if herm_defect > 1e-9:
            raise ValidationError(f"not Hermitian (defect {herm_defect:.2e})")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -1e-10:
            raise ValidationError(f"negative eigenvalue {eigs[0]:.2e}")
        if mat.trace().real < -1e-10:
            raise ValidationError("trace must be nonnegative")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


class PureDensity(DensityOperator):
    """Rank-1, trace-1 density operator."""

    def __post_init__(self):
        super().__post_init__()
        mat = self.matrix
        if abs(mat.trace().real - 1.0) > 1e-9:
            raise ValidationError(f"trace {mat.trace().real} is not 1")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.size > 1 and eigs[-2] > 1e-8:
            raise ValidationError(f"rank > 1 (second eigenvalue {eigs[-2]:.2e})")
        idem_defect = np.max(np.abs(mat @ mat - mat))
        if idem_defect > 1e-8:
            raise ValidationError(f"not idempotent (defect {idem_defect:.2e})")


def outer(psi: StateVector) -> PureDensity:
    """|psi><psi| for a unit psi (its constructor checked the norm).

    The projector of a checked unit vector is pure by construction, so the
    `PureDensity` checks are skipped: they cost 40-100 us per state at
    d = 2..16 (timeit, one Xeon core).
    """
    a = psi.amplitudes
    state = object.__new__(PureDensity)
    object.__setattr__(state, "matrix", _frozen(np.outer(a, a.conj())))
    return state


def outers(kets: np.ndarray) -> np.ndarray:
    """|k><k| for every row of a (..., d) stack of kets: a (..., d, d) stack."""
    return kets[..., :, None] * kets.conj()[..., None, :]


def row_norms(kets: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a (..., d) stack.

    Sums the squares as `np.linalg.norm` does on one vector (real parts,
    then imaginary parts, each by a dot product), so a row's norm has the
    same bits as that vector's.
    """
    return np.sqrt(np.vecdot(kets.real, kets.real) + np.vecdot(kets.imag, kets.imag))


def trace_distance(a: np.ndarray, b: np.ndarray) -> Union[float, np.ndarray]:
    """Sum of singular values of a-b (orthogonal pure states -> 2), for two
    Hermitian matrices, or pairwise for two (..., d, d) stacks of them.

    The difference of Hermitian matrices is Hermitian, so singular values
    come from an eigendecomposition rather than a general SVD.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return np.sum(np.abs(np.linalg.eigvalsh(a - b)), axis=-1)


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase of a vector, or of every row of a (..., d) stack,
    so its first entry of magnitude above TOL.nonzero is real positive.

    Magnitudes are `np.hypot(re, im)`, which rounds as Python's `abs()` of
    one complex entry does; `np.abs` on a complex array can differ in the
    last bit.
    """
    rows = v.reshape(-1, v.shape[-1])
    mags = np.hypot(rows.real, rows.imag)
    n, j = np.arange(len(rows)), (mags > TOL.nonzero).argmax(axis=1)
    mag = mags[n, j]
    if np.count_nonzero(mag <= TOL.nonzero):
        raise ValidationError("zero vector has no canonical phase")
    return (rows * (rows[n, j].conj() / mag)[:, None]).reshape(v.shape)


def dominant_pure(matrix: np.ndarray) -> np.ndarray:
    """Outer product of the dominant eigenvector of the Hermitian part of a
    matrix, or of every matrix of a (..., d, d) stack.

    Degenerate top eigenvalues are broken deterministically by comparing
    the canonical representatives entrywise, preferring weight on earlier
    coordinates (diag(1/2, 1/2) resolves to |0><0|).
    """
    _require_finite(matrix)
    d = matrix.shape[-1]
    flat = matrix.reshape(-1, d, d)
    m = (flat + flat.conj().transpose(0, 2, 1)) / 2
    if np.any(np.abs(m).reshape(len(m), -1).max(axis=1) <= TOL.nonzero):
        raise ValidationError("cannot purify the zero matrix")
    vals, vecs = np.linalg.eigh(m)
    top = vals >= vals[:, -1:] - 1e-12
    winner = canonical_phase(vecs[:, :, -1])
    # A top eigenvalue of multiplicity one (the usual case) needs no key.
    for n in np.flatnonzero(top.sum(axis=1) > 1):
        candidates = canonical_phase(vecs[n][:, top[n]].T)
        winner[n] = max(candidates, key=lambda v: tuple(x for z in v for x in (z.real, z.imag)))
    return outers(winner / row_norms(winner)[:, None]).reshape(matrix.shape)


def encode_complex(values) -> list:
    """JSON form of a complex scalar or array: [re, im] pairs in its shape."""
    a = np.asarray(values, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def decode_complex(data) -> np.ndarray:
    """Inverse of `encode_complex`; raises ValueError on malformed or boolean data."""
    pairs = np.array(data)
    if (pairs.dtype.kind not in "iuf" or pairs.ndim == 0 or pairs.shape[-1] != 2
            or any(type(x) is bool for x in np.array(data, dtype=object).flat)):
        raise ValidationError("complex data must be numeric [re, im] pairs")
    return pairs[..., 0] + 1j * pairs[..., 1]


def save_state(path: Union[str, Path], state: Union[StateVector, DensityOperator]) -> None:
    """Write a vector or density to the JSON state file format."""
    if isinstance(state, StateVector):
        kind, flat = "vector", state.amplitudes
    else:
        kind, flat = "density", state.matrix.reshape(-1)
    payload = {
        "dim": state.dim,
        "kind": kind,
        "data": encode_complex(flat),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def load_state(path: Union[str, Path]) -> PureDensity:
    """Read a state file as a checked pure density: a vector's projector, or a
    density as it is if pure, and divided by its trace if it is Hermitian and
    PSD as given but not pure."""
    try:  # from bytes, json detects UTF-8, -16 or -32 whatever the locale
        payload = json.loads(Path(path).read_bytes())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or encoding
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    try:
        dim, kind, data = payload["dim"], payload["kind"], payload["data"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed state file {path}: {exc}") from exc
    if type(dim) is not int:  # a JSON integer; bool is a subclass of int
        raise ValidationError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValidationError(f"dim {dim} must be positive")
    if dim > MAX_TOMO_DIM:  # before decoding: a (dim, dim) array takes 16 dim**2 bytes
        raise ValidationError(f"dim {dim} exceeds tomography cap {MAX_TOMO_DIM}")
    try:
        data = decode_complex(data)
    except ValueError as exc:  # numpy raises one on ragged data, too
        raise ValidationError(f"malformed state file {path}: {exc}") from exc
    if kind == "vector":
        if data.shape != (dim,):
            raise ValidationError(f"expected {dim} amplitudes, got shape {data.shape}")
        return outer(StateVector(data))
    if kind != "density":
        raise ValidationError(f"unknown state kind {kind!r}")
    if data.shape != (dim * dim,):
        raise ValidationError(f"dim {dim} needs {dim * dim} entries, got shape {data.shape}")
    matrix = data.reshape(dim, dim)
    _require_finite(matrix)
    with np.errstate(over="ignore"):  # what overflows is inf, and a check refuses it
        trace = float(matrix.trace().real)
        if not np.finfo(float).tiny <= trace < np.inf:  # else 1 / trace overflows
            need = "positive" if trace <= 0.0 else "a normal, finite float"
            raise ValidationError(f"density trace {trace} must be {need} to normalize")
        try:
            return PureDensity(matrix)
        except ValidationError:
            DensityOperator(matrix)  # a Hermitian or PSD failure as given is final
            return PureDensity(matrix / trace)


def basis_state(dim: int, index: int) -> StateVector:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return StateVector(v)
