"""Committed CLI reports must be reproduced byte for byte, and meet the schema;
the sweep cases must reproduce their committed SHA-256 digests.

The cases and the regenerator live in `tests/golden/regen.py`.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import check_report

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
    check_report(json.loads(text))


def test_every_report_has_a_case_and_every_case_a_report():
    assert sorted(p.stem for p in regen.REPORTS.glob("*.json")) == sorted(regen.CASES)


def test_sweep_matches_digests():
    want = regen.SWEEP_DIGESTS.read_text()
    got = regen.format_digests(regen.sweep_digests())
    moved = sorted(set(got.splitlines()) - set(want.splitlines()))
    assert got == want, f"{len(moved)} sweep cases moved: {[line.split()[1] for line in moved]}"
