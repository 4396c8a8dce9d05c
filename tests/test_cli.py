import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import check_report, report_schema
from supersim import cli, obstruction, seeding, superpose
from supersim.cli import main
from supersim.linalg import StateVector, basis_state, save_state


@pytest.fixture
def states(tmp_path):
    zero, one = tmp_path / "zero.json", tmp_path / "one.json"
    save_state(zero, basis_state(2, 0))
    save_state(one, basis_state(2, 1))
    return str(zero), str(one)


def run(capsys, *argv):
    """Exit code and stdout of one CLI run; a report on stdout must meet the schema."""
    code = main(list(argv))
    out = capsys.readouterr().out
    if code == 0 and out:
        check_report(json.loads(out))
    return code, out


class TestProbe:
    def test_report(self, capsys):
        code, out = run(capsys, "probe", "--eps", "1e-4")
        assert code == 0
        report = json.loads(out)
        assert 1.99 <= report["results"]["gap"] <= 2.0
        assert report["checks"][0]["passed"]

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "probe.csv"
        code, _ = run(capsys, "probe", "--eps", "1e-3", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "eps,gap"
        assert len(lines) > 10


class TestIdentities:
    def test_all_pass(self, capsys):
        code, out = run(capsys, "identities", "--samples", "100", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert len(report["checks"]) == 3
        assert all(c["passed"] for c in report["checks"])


class TestTomo:
    def test_report_written(self, tmp_path, capsys, states):
        out_path = tmp_path / "tomo.json"
        code, _ = run(
            capsys, "tomo", "--state", states[0], "--shots", "1000",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        report = check_report(json.loads(out_path.read_text()))
        assert report["results"]["schedule"]["N"] == 1000

    def test_exact_report_omits_the_schedule(self, capsys, states):
        code, out = run(capsys, "tomo", "--state", states[0], "--exact", "--seed", "3")
        assert code == 0
        results = json.loads(out)["results"]
        assert "schedule" not in results
        assert results["r"] == 0

    def test_exact_mode_still_checks_shots(self, capsys, states):
        code, out = run(capsys, "tomo", "--state", states[0], "--exact", "--shots", "10")
        assert code == 2
        assert "error" in json.loads(out)

    def test_malformed_state_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, out = run(capsys, "tomo", "--state", str(bad))
        assert code == 2
        assert "error" in json.loads(out)

    def test_zero_trace_density_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zero_trace.json"
        path.write_text(json.dumps({"dim": 2, "kind": "density", "data": [[0, 0]] * 4}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            code = main(["tomo", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert error["message"] == "density trace 0.0 must be positive to normalize"
        assert captured.err == ""


class TestSuperpose:
    def test_exact_mode(self, capsys, states):
        code, out = run(
            capsys, "superpose", "--u", states[0], "--v", states[1],
            "--exact", "--seed", "5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["r"] == [0, 1]
        assert report["results"]["merit"] < 1e-9
        assert report["results"]["threshold"] == pytest.approx(0.5)

    def test_sampled_reports_budgets(self, capsys, states):
        code, out = run(
            capsys, "superpose", "--u", states[0], "--v", states[1],
            "--eps", "0.5", "--seed", "5",
        )
        assert code == 0
        budgets = json.loads(out)["results"]["budgets"]
        assert budgets["N"] >= budgets["M"]

    def test_entangled(self, capsys, states):
        code, out = run(
            capsys, "superpose", "--u", states[0], "--v", states[1],
            "--entangled", "--trials", "5", "--exact", "--seed", "5",
        )
        assert code == 0
        blocks = json.loads(out)["results"]["blocks"]
        assert len(blocks) == 1 and blocks[0]["weight"] == 1.0

    def test_inputs_name_the_entangled_mode_and_its_trials(self, capsys, states):
        inputs = []
        for extra in ([], ["--entangled", "--trials", "10"], ["--entangled", "--trials", "20"]):
            code, out = run(
                capsys, "superpose", "--u", states[0], "--v", states[1],
                "--exact", "--seed", "4", *extra,
            )
            assert code == 0
            inputs.append(json.loads(out)["inputs"])
        assert [(i["entangled"], i["trials"]) for i in inputs] == [
            (False, 50), (True, 10), (True, 20)
        ]


    @pytest.mark.parametrize("extra", [[], ["--entangled", "--trials", "3"]])
    def test_one_budget_search_per_op(self, capsys, states, monkeypatch, extra):
        searches = []

        def counted(*args):
            searches.append(search(*args))
            return searches[-1]

        search = superpose._budget_schedules
        monkeypatch.setattr(superpose, "_budget_schedules", counted)
        code, out = run(
            capsys, "superpose", "--u", states[0], "--v", states[1],
            "--eps", "0.5", "--seed", "5", *extra,
        )
        assert code == 0
        assert len(searches) == 1
        budgets = json.loads(out)["results"]["budgets"]
        assert (budgets["N"], budgets["M"]) == tuple(s.N for s in searches[0])

    def test_dimension_mismatch_refused_before_the_budget_search(
        self, capsys, states, tmp_path, monkeypatch
    ):
        # At this eps a search at u's dimension alone would exceed the budget.
        searches = []

        def counted(*args):
            searches.append(args)
            return search(*args)

        search = superpose._budget_schedules
        monkeypatch.setattr(superpose, "_budget_schedules", counted)
        v3 = tmp_path / "v3.json"
        save_state(v3, basis_state(3, 0))
        code, out = run(
            capsys, "superpose", "--u", states[0], "--v", str(v3), "--eps", "1e-6",
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DimensionMismatchError"
        assert searches == []

    @pytest.mark.parametrize("extra", [[], ["--entangled", "--trials", "3"]])
    def test_dimension_cap_refused_before_the_budget_search(
        self, capsys, tmp_path, monkeypatch, extra
    ):
        # Equal coefficients at d = 17 ask for more shots than the table holds,
        # so a budget search would fail before the oracles refuse the dimension.
        searches = []

        def counted(*args):
            searches.append(args)
            return search(*args)

        search = superpose._budget_schedules
        monkeypatch.setattr(superpose, "_budget_schedules", counted)
        files = []
        for name in ("u", "v"):
            path = tmp_path / f"{name}17.json"
            save_state(path, basis_state(17, 0))
            files += [f"--{name}", str(path)]
        code, out = run(capsys, "superpose", *files, *extra)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValidationError"
        assert searches == []


def _scaled(pair, c):
    return [f"{z.real * c!r},{z.imag * c!r}" for z in pair]


class TestCoefficientScale:
    """Scaling (alpha, beta) by one positive constant changes no outcome."""

    SCALES = (1e-13, 1.0, 1e5)
    PAIRS = ((0.8 + 0.1j, 0.3 - 0.4j), (0.6, 0.8j), (1.0, 1.0), (1.0, 1.0j))

    @pytest.mark.parametrize("pair", PAIRS)
    def test_exact_superpose(self, capsys, pair):
        states = Path(__file__).parent / "golden" / "states"
        results = []
        for c in self.SCALES:
            alpha, beta = _scaled(pair, c)
            code, out = run(
                capsys, "superpose", "--u", str(states / "u3.json"), "--v", str(states / "v3.json"),
                "--exact", f"--alpha={alpha}", f"--beta={beta}",
            )
            assert code == 0, out
            results.append(json.loads(out)["results"])
        first = results[0]
        for res in results[1:]:
            assert res["r"] == first["r"]
            assert res["phi_r"] == pytest.approx(first["phi_r"], abs=1e-12)
            assert res["merit"] == pytest.approx(first["merit"], abs=1e-12)
            assert np.allclose(res["state"], first["state"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_sampled_superpose_budgets(self, capsys, pair):
        # The copy budget reads |beta| in units of the scale, as the output does.
        states = Path(__file__).parent / "golden" / "states"
        budgets = []
        for c in self.SCALES:
            alpha, beta = _scaled(pair, c)
            code, out = run(
                capsys, "superpose", "--u", str(states / "u3.json"), "--v", str(states / "v3.json"),
                f"--alpha={alpha}", f"--beta={beta}", "--seed", "1",
            )
            assert code == 0, out
            budgets.append(json.loads(out)["results"]["budgets"])
        for budget in budgets[1:]:
            assert (budget["N"], budget["M"]) == (budgets[0]["N"], budgets[0]["M"])
            for target in ("target_N", "target_M"):
                assert budget[target] == pytest.approx(budgets[0][target], rel=1e-12)

    @pytest.mark.parametrize("candidate", ["ideal", "mollified", "constant"])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_audit(self, capsys, candidate, pair):
        reports = []
        for c in self.SCALES:
            alpha, beta = _scaled(pair, c)
            code, out = run(
                capsys, "audit", "--candidate", candidate, "--samples", "64",
                f"--alpha={alpha}", f"--beta={beta}",
            )
            assert code == 0, out
            reports.append(json.loads(out)["results"])
        first = reports[0]
        for res in reports[1:]:
            assert res["max_error"] == pytest.approx(first["max_error"], abs=1e-12)
            assert res["verdict"] == first["verdict"]

    def test_near_equal_magnitudes_are_equal_at_any_scale(self):
        for c in self.SCALES:
            spec = superpose.SuperpositionSpec(c, c * (1 + 1e-13))
            assert spec.equal_magnitudes
            assert not superpose.SuperpositionSpec(c, c * (1 + 1e-11)).equal_magnitudes


class TestValidatesOnce:
    """One run validates the vectors of its state files and nothing else.

    Vectors derived from them (estimates, outputs, targets) are built
    unchecked, so the count does not grow with the trials of a run.
    """

    @pytest.fixture
    def haar_files(self, tmp_path):
        rng = np.random.default_rng(2026)
        paths = []
        for name in ("u", "v"):
            path = tmp_path / f"{name}.json"
            save_state(path, StateVector(seeding.haar_state(rng, 2)))
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize(
        "extra, expected",
        [
            (["superpose"], 2),
            (["superpose", "--alpha", "0.8,0", "--beta", "0.6,0"], 2),
            (["superpose", "--exact"], 2),
            (["superpose", "--entangled", "--trials", "5"], 2),
            (["superpose", "--entangled", "--trials", "20"], 2),
            (["superpose", "--entangled", "--exact"], 2),
            (["tomo"], 1),
        ],
        ids=["equal", "unequal", "exact", "entangled5", "entangled20", "entangled_exact", "tomo"],
    )
    def test_state_vector_validations_per_run(
        self, capsys, monkeypatch, haar_files, extra, expected
    ):
        calls = []
        check = StateVector.__post_init__

        def counted(self):
            calls.append(self)
            check(self)

        monkeypatch.setattr(StateVector, "__post_init__", counted)
        u, v = haar_files
        files = ["--state", u] if extra[0] == "tomo" else ["--u", u, "--v", v]
        code, _ = run(capsys, *extra, *files, "--seed", "3")
        assert code == 0
        assert len(calls) == expected


class TestAudit:
    @pytest.mark.parametrize("candidate", ["ideal", "mollified", "constant"])
    def test_obstructed(self, capsys, candidate):
        code, out = run(capsys, "audit", "--candidate", candidate, "--samples", "64")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["verdict"] == "obstructed"

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "audit.csv"
        code, _ = run(
            capsys, "audit", "--candidate", "mollified", "--samples", "64",
            "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,error" and len(lines) == 1 + 65

    def test_csv_adds_no_candidate_call(self, tmp_path, capsys, monkeypatch):
        calls = []
        evaluate = obstruction._candidate_output

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(obstruction, "_candidate_output", counted)
        for extra in ([], ["--csv", str(tmp_path / "audit.csv")]):
            calls.clear()
            code, _ = run(capsys, "audit", "--candidate", "ideal", "--samples", "64", *extra)
            assert code == 0
            assert len(calls) == 2

    def test_qutrit_x0_refused_before_any_candidate_call(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(obstruction, "_candidate_output", lambda *args: calls.append(args))
        path = tmp_path / "qutrit.json"
        save_state(path, basis_state(3, 0))
        code, out = run(capsys, "audit", "--candidate", "ideal", "--x0", str(path))
        assert code == 2 and not calls
        message = json.loads(out)["error"]["message"]
        assert "x0" in message and "dimension 3" in message


class TestTable1:
    def test_both_facts(self, capsys):
        code, out = run(capsys, "table1", "--seed", "1", "--runs", "3")
        assert code == 0
        checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
        assert checks["random_superposition_achievable"]
        assert checks["plain_superposition_obstructed"]

    @pytest.mark.parametrize("seed", range(10))
    def test_every_seed_finds_a_budget(self, capsys, seed):
        # Seeds 3 and 7 draw a pair of nearly equal magnitudes (relative gaps
        # 0.0084 and 0.0049) whose budget the table cannot reach.
        code, out = run(capsys, "table1", "--seed", str(seed), "--runs", "10")
        assert code == 0, out

    def test_a_refused_pair_is_drawn_again(self, monkeypatch):
        budget = cli.copies_budget
        refused = []

        def refuse_first(spec, d, eps):
            if not refused:
                refused.append(spec)
                raise cli.BudgetExceededError("refused")
            return budget(spec, d, eps)

        monkeypatch.setattr(cli, "copies_budget", refuse_first)
        rng = np.random.default_rng(5)
        spec, schedules = cli._table1_coefficients(rng, 2, 0.25)
        replay = np.random.default_rng(5)
        assert refused[0].alpha == complex(replay.normal() + 1j * replay.normal())
        replay.normal(size=2)
        assert spec.alpha == complex(replay.normal() + 1j * replay.normal())
        assert schedules == budget(spec, 2, 0.25)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys, states):
        paths = [tmp_path / f"r{i}.json" for i in range(2)]
        for p in paths:
            code, _ = run(
                capsys, "superpose", "--u", states[0], "--v", states[1],
                "--eps", "0.5", "--seed", "9", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        check_report(json.loads(paths[0].read_text()))


class TestParser:
    def test_reused_parser_keeps_no_state(self):
        parser = cli.build_parser()
        first = parser.parse_args(["audit", "--candidate", "ideal", "--csv", "a.csv", "--seed", "3"])
        second = parser.parse_args(["audit", "--candidate", "constant"])
        assert (first.csv, first.seed) == ("a.csv", 3)
        assert (second.candidate, second.csv, second.seed) == ("constant", None, 0)
        assert cli.build_parser() is parser


class TestReportSchema:
    """The schema is the reports' published contract; the tests enforce it, not the CLI."""

    def test_schema_is_a_valid_schema(self):
        schema = report_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize(
        "report",
        [
            {"subcommand": "nope", "seed": 0, "results": {}},
            {"subcommand": "probe", "seed": 0},
            {"subcommand": "probe", "seed": 0, "results": {}, "extra": 1},
            {"subcommand": "probe", "seed": 0, "results": {}, "checks": [{"name": "x"}]},
        ],
        ids=["subcommand", "no_results", "extra_key", "check_without_passed"],
    )
    def test_helper_rejects_a_bad_report(self, report):
        with pytest.raises(jsonschema.ValidationError):
            check_report(report)

    def test_emit_writes_sorted_indented_json(self, capsys, tmp_path):
        report = {"subcommand": "probe", "seed": 0, "results": {"gap": 2.0}}
        expected = (
            '{\n  "results": {\n    "gap": 2.0\n  },\n  "seed": 0,\n  "subcommand": "probe"\n}\n'
        )
        cli._emit_report(report, None)
        assert capsys.readouterr().out == expected
        cli._emit_report(report, str(tmp_path / "r.json"))
        assert (tmp_path / "r.json").read_bytes() == expected.encode()


class TestRuntimeDependencies:
    def test_cli_runs_without_jsonschema(self):
        root = Path(__file__).resolve().parents[1]
        script = (
            "import contextlib, io, sys\n"
            "from supersim import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['probe']) == 0\n"
            "print(cli.__file__)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        path, loaded = proc.stdout.splitlines()
        assert Path(path) == root / "src" / "supersim" / "cli.py"
        assert loaded == "[]"


class TestValidation:
    def test_bad_alpha_exits_2(self, capsys, states):
        code, out = run(
            capsys, "superpose", "--u", states[0], "--v", states[1],
            "--alpha", "nonsense",
        )
        assert code == 2

    def test_zero_alpha_exits_2(self, capsys, states):
        code, _ = run(
            capsys, "superpose", "--u", states[0], "--v", states[1],
            "--alpha", "0,0",
        )
        assert code == 2
