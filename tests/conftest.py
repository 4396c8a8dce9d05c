import json
from functools import lru_cache
from importlib import resources

import jsonschema
import numpy as np
import pytest

from supersim import seeding
from supersim.config import TOL
from supersim.errors import ValidationError
from supersim.linalg import PureDensity, StateVector, outer


def haar_vector(rng, d: int) -> StateVector:
    return StateVector(seeding.haar_state(rng, d))


def haar_density(rng, d: int) -> PureDensity:
    return outer(haar_vector(rng, d))


def ref_canonical_vec(matrix: np.ndarray) -> np.ndarray:
    """The canonical vector one matrix at a time, with Python's abs() of each entry."""
    diag = matrix.diagonal().real
    for i in range(diag.size):
        if diag[i] > TOL.nonzero:
            v = matrix[:, i] / np.sqrt(diag[i])
            for entry in v:
                if abs(entry) > TOL.nonzero:
                    v = v * (entry.conjugate() / abs(entry))
                    break
            return v / np.linalg.norm(v)
    raise ValidationError("no diagonal entry above threshold")


def one_candidate_at_a_time(matrix: np.ndarray) -> np.ndarray:
    """`dominant_pure` of one matrix: each tied eigenvector rotated on its own,
    with Python's abs() of each entry."""
    vals, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    candidates = []
    for j in range(vals.size):
        if vals[j] >= vals[-1] - 1e-12:
            v = vecs[:, j]
            entry = next(e for e in v if abs(e) > TOL.nonzero)
            candidates.append(v * (entry.conjugate() / abs(entry)))
    winner = max(candidates, key=lambda v: tuple(x for z in v for x in (z.real, z.imag)))
    winner = winner / np.linalg.norm(winner)
    return np.outer(winner, winner.conj())


def report_schema() -> dict:
    """The published report contract, as the package ships it."""
    return json.loads(resources.files("supersim.data").joinpath("report.schema.json").read_text())


@lru_cache(maxsize=1)
def _report_validator():
    schema = report_schema()
    return jsonschema.validators.validator_for(schema)(schema)


def check_report(report: dict) -> dict:
    """Check one CLI report against the published schema and return it.

    Raises `jsonschema.ValidationError` for a report the schema rejects.
    """
    _report_validator().validate(report)
    return report


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
