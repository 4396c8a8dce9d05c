"""Committed CLI reports must be reproduced byte for byte.

The cases and the regenerator live in `tests/golden/regen.py`.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_report_matches_golden(name, tmp_path):
    code, text = regen.render_in_copy(regen.CASES[name], tmp_path)
    assert code == 0, text
    assert text.encode() == (regen.REPORTS / f"{name}.json").read_bytes()


def test_every_report_has_a_case_and_every_case_a_report():
    assert sorted(p.stem for p in regen.REPORTS.glob("*.json")) == sorted(regen.CASES)
