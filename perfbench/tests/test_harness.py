"""Self-tests of the benchmark harness: span arithmetic, the tail rule, the
wrapping of import sites, the seeded inputs and the report checks.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import supersim.cli  # noqa: E402
import run  # noqa: E402
from spans import BOUNDARIES, Tracer, import_sites, layer_metrics, self_times  # noqa: E402
from workloads import TIMED, WORKLOADS, check_report, make_op  # noqa: E402


def _spans(rows, names):
    """rows: (name, start, end, parent, op[, tag[, failed]]) -> span arrays."""
    kind_of = {n: k for k, n in enumerate(names)}
    cols = list(zip(*[tuple(r) + (-1, 0)[len(r) - 5:] for r in rows]))
    return {
        "kind": np.array([kind_of[n] for n in cols[0]], dtype=np.int32),
        "start": np.array(cols[1], dtype=float),
        "end": np.array(cols[2], dtype=float),
        "parent": np.array(cols[3], dtype=np.int32),
        "op": np.array(cols[4], dtype=np.int32),
        "tag": np.array(cols[5], dtype=np.int32),
        "failed": np.array(cols[6], dtype=np.int8),
    }


def test_self_time_subtracts_direct_children_only():
    start = np.array([0.0, 1.0, 5.0, 6.0, 20.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 21.0])
    parent = np.array([-1, 0, 0, 2, -1])
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 3.0, 3.0, 1.0, 1.0])


def test_layer_metrics_counts_ratios_and_self_time():
    names = [b[0] for b in BOUNDARIES]
    rows = [
        # op 0 (d8): one budget search with three schedule_for calls
        ("cli.main", 0.0, 0.010, -1, 0),
        ("superpose.budget", 0.001, 0.009, 0, 0),
        ("tomo.schedule_for", 0.002, 0.003, 1, 0),
        ("tomo.schedule_for", 0.004, 0.005, 1, 0),
        ("tomo.schedule_for", 0.006, 0.007, 1, 0),
        ("tomo.sample", 0.0095, 0.0099, 0, 0),
        ("seeding.rng_for", 0.0096, 0.0097, 5, 0),
        ("seeding.rng_for", 0.0097, 0.0098, 5, 0),
        # op 1 (ideal): two winding searches, one needing a refinement, one failing
        ("cli.main", 1.0, 1.010, -1, 1),
        ("obstruction.winding_along", 1.001, 1.004, 8, 1),
        ("obstruction.phase_loop", 1.001, 1.002, 9, 1),
        ("obstruction.phase_loop", 1.002, 1.003, 9, 1),
        ("obstruction.winding_along", 1.005, 1.006, 8, 1, -1, 1),
        ("obstruction.phase_loop", 1.005, 1.0055, 12, 1),
        # a first-call op: only its inversion build counts
        ("tomo.inversion_operator", 2.0, 2.5, -1, -1, 8),
        ("tomo.inversion_operator", 3.0, 3.001, -1, -1, 8),
    ]
    out = layer_metrics(names, _spans(rows, names), ["d8", "ideal"])
    assert out["superpose.budget.calls"] == 0.5
    assert out["superpose.budget.schedules_per_search"] == 3.0
    assert out["superpose.budget.self_ms"] == pytest.approx((0.008 - 0.003) * 1e3 / 2)
    assert out["obstruction.winding.attempts_per_result"] == 3.0  # 3 loops, 1 winding found
    assert out["tomo.settings.d8"] == 2.0
    assert out["tomo.settings.d16"] == 0.0
    assert out["tomo.inversion_build_s"] == pytest.approx(0.5)
    assert out["cli.self_ms"] == pytest.approx((0.010 - 0.008 - 0.0004 + 0.010 - 0.004) * 1e3 / 2)
    assert out["circuits.candidate.calls"] == 0.0


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_fixed_tail_percentiles_follow_the_rule_at_the_baseline_op_counts():
    # Op counts follow the host's speed; the percentile must suit the slowest run.
    baseline = json.loads((ROOT / "perfbench" / "BASELINE.json").read_text())
    for name, workload in WORKLOADS.items():
        ops = baseline["workloads"][name]["op_count_min"]
        assert workload.tail_pct == run.tail_percentile(ops), name


def _boundary_targets():
    return {name: getattr(*import_sites(module, attr)[0]) for name, module, attr in BOUNDARIES}


NAMED_SITES = [
    ("supersim.cli", "copies_budget"),
    ("supersim.cli", "superposition_error"),
    ("supersim.cli", "main"),
    ("supersim.superpose", "vector_tomography"),
    ("supersim.superpose", "schedule_for"),
    ("supersim.superpose", "trace_distance"),
    ("supersim.tomo", "lookup_constant"),
    ("supersim.tomo", "tail_exponent"),
    ("supersim.tomo", "dominant_pure"),
    ("supersim.tomo", "select_r_paired"),
    ("supersim.tomo", "vec_i"),
    ("supersim.vecfun", "trace_distance"),
    ("supersim.obstruction", "_candidate_output"),
    ("supersim.obstruction", "g_normalized"),
    ("supersim.obstruction", "trace_distance"),
    ("supersim", "copies_budget"),
    ("supersim", "vector_tomography"),
]


def test_wrap_rebinds_every_import_site_and_unwrap_restores_it():
    originals = _boundary_targets()
    named = {site: getattr(sys.modules[site[0]], site[1]) for site in NAMED_SITES}
    method_owners = [(supersim.tomo.StateOracle, "sample"),
                     (supersim.linalg.StateVector, "__post_init__"),
                     (supersim.linalg.DensityOperator, "__post_init__"),
                     (supersim.linalg.PureDensity, "__post_init__")]
    methods = {site: vars(site[0])[site[1]] for site in method_owners}
    tracer = Tracer()
    tracer.wrap()
    try:
        for (module, attr), original in named.items():
            assert getattr(sys.modules[module], attr) is not original, (module, attr)
        assert supersim.cli.copies_budget is supersim.superpose.copies_budget
        assert supersim.superpose.vector_tomography is supersim.tomo.vector_tomography
        for (cls, attr), original in methods.items():
            assert vars(cls)[attr] is not original, (cls, attr)
        wrapped = set(map(id, originals.values()))
        for name, mod in sys.modules.items():
            if name == "supersim" or name.startswith("supersim."):
                stale = [k for k, v in vars(mod).items() if id(v) in wrapped]
                assert not stale, (name, stale)
    finally:
        tracer.unwrap()
    for (module, attr), original in named.items():
        assert getattr(sys.modules[module], attr) is original, (module, attr)
    for (cls, attr), original in methods.items():
        assert vars(cls)[attr] is original, (cls, attr)
    assert _boundary_targets() == originals


def test_traced_call_writes_the_same_report_and_counts_settings(tmp_path):
    op = make_op(WORKLOADS["tomo"], seed=7, stream=TIMED, index=0, input_dir=tmp_path)
    assert op.shape == "d8"
    assert supersim.cli.main(op.argv + ["--out", str(tmp_path / "plain.json")]) == 0
    tracer = Tracer()
    tracer.wrap()
    try:
        tracer.current_op = 0
        assert supersim.cli.main(op.argv + ["--out", str(tmp_path / "traced.json")]) == 0
    finally:
        tracer.unwrap()
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    out = layer_metrics(tracer.names, tracer.arrays(), ["d8"])
    assert out["tomo.settings.d8"] == 57
    assert out["cli.self_ms"] > 0
    tracer.save(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert saved["kind"].size == len(tracer.start)


def _same_op(a, b):
    def plain(op):
        return [x for x in op.argv if not x.endswith(".json")]
    return plain(a) == plain(b) and a.truth.keys() == b.truth.keys() and all(
        np.array_equal(a.truth[k], b.truth[k]) for k in a.truth)


def test_inputs_depend_on_the_seed_only(tmp_path):
    for workload in WORKLOADS.values():
        written = make_op(workload, 3, TIMED, 5, tmp_path)
        assert _same_op(written, make_op(workload, 3, TIMED, 5))
        assert not _same_op(written, make_op(workload, 4, TIMED, 5))
        for path in (x for x in written.argv if x.endswith(".json")):
            state = json.loads(Path(path).read_text())
            psi = np.array([complex(re, im) for re, im in state["data"]])
            assert any(np.array_equal(psi, v) for v in written.truth.values()
                       if isinstance(v, np.ndarray))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_real_reports_and_reject_tampered_ones(name, tmp_path):
    workload = WORKLOADS[name]
    # the cheapest shape of each workload
    index = {"tomo": 0, "superpose": 0, "entangled": 0, "audit": 1}[name]
    op = make_op(workload, 11, TIMED, index, tmp_path)
    out = tmp_path / "report.json"
    assert supersim.cli.main(op.argv + ["--out", str(out)]) == 0
    text = out.read_text()
    ok, met, reason = check_report(workload, op, text)
    assert ok and met, reason

    report = json.loads(text)
    res = report["results"]
    if name == "tomo":
        # a unit vector off by a global phase is outside the advertised radius
        res["vector"] = [[-im, re] for re, im in res["vector"]]
        assert check_report(workload, op, json.dumps(report))[:2] == (True, False)
        res["vector"] = [[2 * re, 2 * im] for re, im in res["vector"]]
    elif name == "superpose":
        res["merit"] += 0.1
    elif name == "entangled":
        res["blocks"][0]["weight"] += 0.1
    else:
        res["g_vanished"] = False
    assert check_report(workload, op, json.dumps(report))[0] is False
    assert check_report(workload, op, "{not json")[0] is False
    report = json.loads(text)
    report["checks"] = [{"name": "x", "passed": False}]
    assert check_report(workload, op, json.dumps(report))[0] is False


def test_benchmark_json_lists_exactly_the_metrics_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    names = [b[0] for b in BOUNDARIES]
    empty = {k: np.zeros(0, dtype=np.int32) for k in ("kind", "parent", "op", "tag", "failed")}
    empty.update(start=np.zeros(0), end=np.zeros(0))
    traced = set(layer_metrics(names, empty, [])) | {
        "cli.import_s", "trace.untraced_ops_per_s", "trace.traced_ops_per_s"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: run.unit_of(k) for k in traced}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
