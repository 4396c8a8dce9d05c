import json
from functools import lru_cache
from importlib import resources

import jsonschema
import numpy as np
import pytest

from supersim import seeding
from supersim.linalg import PureDensity, StateVector, outer


def haar_vector(rng, d: int) -> StateVector:
    return StateVector(seeding.haar_state(rng, d))


def haar_density(rng, d: int) -> PureDensity:
    return outer(haar_vector(rng, d))


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
