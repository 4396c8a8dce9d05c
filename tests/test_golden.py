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


@pytest.mark.parametrize("d", [2, 3, 8, 16])
def test_exact_tie_states_take_index_0(d, tmp_path):
    # Every diagonal of the Fourier and uniform-modulus states is 1/d up to
    # rounding; the tie rule takes index 0 whatever the last bits.
    regen._write_sweep_states(tmp_path / "sweep")
    names = [f"tomo_f{d}_exact", f"tomo_t{d}_exact"]
    names += [f"superpose_{c}_tie{d}_exact" for c in regen._COEFFS if d != 16]
    for name in names:
        code, text = regen.render_in_copy(regen.SWEEP[name], tmp_path)
        assert code == 0, text
        assert json.loads(text)["results"]["r"] in (0, [0, 0]), name


def test_audit_reports_name_their_start(tmp_path):
    regen._write_sweep_states(tmp_path / "sweep")
    reports = [regen.render_in_copy(regen.SWEEP[f"audit_constant_{x0}"], tmp_path)[1]
               for x0 in ("h2a", "t2")]
    assert reports[0] != reports[1]
    assert json.loads(reports[1])["inputs"]["x0"] == "sweep/t2.json"
