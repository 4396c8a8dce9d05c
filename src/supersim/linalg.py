"""Dense complex linear algebra for desk-scale quantum states.

Conventions fixed here and relied on everywhere else:

* trace distance is the unnormalized sum of singular values, so orthogonal
  pure states sit at distance 2;
* tensor products order subsystems with the leftmost factor most
  significant;
* all values are immutable after construction and all operations are pure;
* invariants are checked once, at the trust boundary: the public
  constructors and `load_state` validate, while values the package derives
  from validated values are built by `_derived` and not re-checked;
* a `StateVector` is always a unit vector; raw contractions that are not
  states stay plain complex arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .config import MAX_DIM, TOL
from .errors import (
    DimensionMismatchError,
    NormalizationError,
    TensorCapError,
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
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-9:  # also false for NaN or inf entries
            raise NormalizationError(f"norm {norm} is not 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian PSD matrix.  Trace may be any nonnegative value: circuit
    outputs are unnormalized and a fully postselected-away branch is the
    zero operator."""

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


def _derived(cls, data: np.ndarray):
    """A `cls` around amplitudes or a matrix derived from validated values,
    left unchecked."""
    state = object.__new__(cls)
    field = "amplitudes" if cls is StateVector else "matrix"
    object.__setattr__(state, field, _frozen(data))
    return state


def outer(psi: StateVector) -> PureDensity:
    """|psi><psi| for a unit psi (its constructor checked the norm)."""
    a = psi.amplitudes
    return _derived(PureDensity, np.outer(a, a.conj()))


def outers(kets: np.ndarray) -> np.ndarray:
    """|k><k| for every row of an (n, d) stack of kets: an (n, d, d) stack."""
    return kets[:, :, None] * kets.conj()[:, None, :]


def row_norms(kets: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of an (n, d) stack.

    Sums the squares as `np.linalg.norm` does on one vector (real parts,
    then imaginary parts, each by a dot product), so a row's norm has the
    same bits as that vector's.
    """
    return np.sqrt(np.vecdot(kets.real, kets.real) + np.vecdot(kets.imag, kets.imag))


def _require_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} and {b.dim} differ")


def trace_distance(
    a: Union[DensityOperator, np.ndarray], b: Union[DensityOperator, np.ndarray]
) -> Union[float, np.ndarray]:
    """Sum of singular values of a-b (orthogonal pure states -> 2).

    The difference of Hermitian matrices is Hermitian, so singular values
    come from an eigendecomposition rather than a general SVD.  Given two
    (n, d, d) stacks of Hermitian matrices instead of two operators, it
    returns the n distances of the pairs.
    """
    stacked = isinstance(a, np.ndarray)
    if stacked:
        if a.shape != b.shape:
            raise DimensionMismatchError(f"stack shapes {a.shape} and {b.shape} differ")
    else:
        _require_same_dim(a, b)
        a, b = a.matrix, b.matrix
    dist = np.sum(np.abs(np.linalg.eigvalsh(a - b)), axis=-1)
    return dist if stacked else float(dist)


def euclidean_distance(u: StateVector, v: StateVector) -> float:
    _require_same_dim(u, v)
    return float(np.linalg.norm(u.amplitudes - v.amplitudes))


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product; leftmost factor is the most significant index."""
    combined = a.dim * b.dim
    if combined > MAX_DIM:
        raise TensorCapError(f"combined dim {combined} exceeds cap {MAX_DIM}")
    return _derived(DensityOperator, np.kron(a.matrix, b.matrix))


def kron_all(matrices: Iterable[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in matrices:
        out = np.kron(out, m)
    return out


def partial_trace(
    rho: DensityOperator, keep: Iterable[int], dims: Sequence[int]
) -> DensityOperator:
    """Trace out all factors not in `keep`; kept factors stay in order."""
    dims = [int(d) for d in dims]
    n = len(dims)
    if int(np.prod(dims)) != rho.dim:
        raise DimensionMismatchError(f"factor dims {dims} do not multiply to {rho.dim}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"keep indices {keep} out of range for {n} factors")
    t = rho.matrix.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out_labels = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row + col, out_labels)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return _derived(DensityOperator, reduced.reshape(d_keep, d_keep))


def canonical_phase(v: np.ndarray, threshold: float = TOL.nonzero) -> np.ndarray:
    """Rotate the global phase so the first nonzero entry is real positive."""
    for entry in v:
        if abs(entry) > threshold:
            return v * (entry.conjugate() / abs(entry))
    raise ValidationError("zero vector has no canonical phase")


def dominant_pure(matrix: np.ndarray) -> PureDensity:
    """Outer product of the dominant eigenvector of the Hermitian part.

    Degenerate top eigenvalues are broken deterministically by comparing
    the canonical representatives entrywise, preferring weight on earlier
    coordinates (diag(1/2, 1/2) resolves to |0><0|).
    """
    _require_finite(matrix)
    m = (matrix + matrix.conj().T) / 2
    if np.max(np.abs(m)) <= TOL.nonzero:
        raise ValidationError("cannot purify the zero matrix")
    vals, vecs = np.linalg.eigh(m)
    top = vals[-1]
    candidates = [
        canonical_phase(vecs[:, j])
        for j in range(vals.size)
        if vals[j] >= top - 1e-12
    ]
    def key(v: np.ndarray):
        return tuple(x for z in v for x in (z.real, z.imag))
    winner = max(candidates, key=key)
    winner = winner / np.linalg.norm(winner)
    return _derived(PureDensity, np.outer(winner, winner.conj()))


StateLike = Union[StateVector, DensityOperator]


def encode_complex(values) -> list:
    """JSON form of a complex scalar or array: [re, im] pairs in its shape."""
    a = np.asarray(values, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def decode_complex(data) -> np.ndarray:
    """Inverse of `encode_complex`; raises ValueError on malformed data."""
    pairs = np.array(data)
    if pairs.dtype.kind not in "biuf" or pairs.ndim == 0 or pairs.shape[-1] != 2:
        raise ValidationError("complex data must be numeric [re, im] pairs")
    return pairs[..., 0] + 1j * pairs[..., 1]


def save_state(path: Union[str, Path], state: StateLike) -> None:
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


def load_state(path: Union[str, Path]) -> StateLike:
    """Read a state file; raises ValidationError on malformed content."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    try:
        dim = int(payload["dim"])
        kind = payload["kind"]
        data = decode_complex(payload["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed state file {path}: {exc}") from exc
    if kind == "vector":
        if data.shape != (dim,):
            raise ValidationError(f"expected {dim} amplitudes, got shape {data.shape}")
        return StateVector(data)
    if kind == "density":
        if dim < 1 or data.shape != (dim * dim,):
            raise ValidationError(f"dim {dim} needs {dim * dim} entries, got shape {data.shape}")
        matrix = data.reshape(dim, dim)
        try:
            return PureDensity(matrix)
        except ValidationError:
            return DensityOperator(matrix)
    raise ValidationError(f"unknown state kind {kind!r}")


def basis_state(dim: int, index: int) -> StateVector:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return StateVector(v)
