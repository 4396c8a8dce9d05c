"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line so the suite output doubles as the acceptance report."""

import json
import time

import numpy as np
import pytest

from supersim import seeding
from supersim.cli import main as cli_main
from supersim.circuits import (
    conjugate_bra,
    orthogonal_complement,
    teleport_identity_check,
)
from supersim.linalg import (
    StateVector,
    basis_state,
    outer,
    save_state,
    tensor,
    trace_distance,
)
from supersim.obstruction import (
    BUILTIN_CANDIDATES,
    ideal_candidate,
    mollified_candidate,
    obstruction_audit,
    phase_loop,
    winding_number,
)
from supersim.superpose import (
    SuperpositionSpec,
    copies_budget,
    random_superposition,
    superposition_error,
    threshold,
    trace_floor,
)
from supersim.tomo import (
    StateOracle,
    reconstruct,
    schedule_for,
    vector_tomography,
)
from supersim.circuits import g_normalized
from supersim.vecfun import discontinuity_probe, select_r, vec_i

EQUAL = SuperpositionSpec(1 / np.sqrt(2), 1 / np.sqrt(2))


def report(name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert passed, f"{name} failed ({detail})"


@pytest.fixture(scope="module")
def tomography_runs():
    """Criterion-4 sampling campaign, reused by criterion 5."""
    runs = []
    for d in (2, 3):
        schedule = schedule_for(d, 10**5)
        for i in range(200):
            rng = seeding.rng_for(2026, seeding.STATE, d, i)
            truth = outer(StateVector(seeding.haar_state(rng, d)))
            est = vector_tomography(
                StateOracle(truth), schedule, seeding.child_seed(2026, seeding.TRIAL, d, i)
            )
            runs.append((d, schedule, truth, est))
    return runs


def test_criterion_1_pure_state_identity():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(1)
    for d in (2, 3, 4, 8):
        for _ in range(250):
            u, w = seeding.haar_state(rng, d), seeding.haar_state(rng, d)
            overlap = abs(np.vdot(u, w)) ** 2
            dist = trace_distance(outer(StateVector(u)), outer(StateVector(w)))
            worst = max(worst, abs((1 - overlap) - dist**2 / 4))
    elapsed = time.time() - start
    report(
        "criterion-1 pure-state identity",
        worst < 1e-10 and elapsed < 5.0,
        f"worst defect {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_contraction_identities():
    start = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x = seeding.haar_state(rng, 2)
        worst = max(
            worst,
            float(np.max(np.abs(teleport_identity_check(x) - 0.5 * x))),
            float(np.max(np.abs(conjugate_bra(x) - x / np.sqrt(2)))),
            float(abs(sum(orthogonal_complement(x)[i] * x[i] for i in range(2)))),
        )
    elapsed = time.time() - start
    report(
        "criterion-2 contraction identities",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst defect {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_tensor_power_lipschitz():
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(100):
        rho = outer(StateVector(seeding.haar_state(rng, 2)))
        sigma = outer(StateVector(seeding.haar_state(rng, 2)))
        base = trace_distance(rho, sigma)
        rho_n, sigma_n = rho, sigma
        for n in range(2, 5):
            rho_n, sigma_n = tensor(rho_n, rho), tensor(sigma_n, sigma)
            if trace_distance(rho_n, sigma_n) > n * base + 1e-10:
                violations += 1
    report("criterion-3 tensor-power bound", violations == 0, f"{violations} violations")


def test_criterion_4_tomography_guarantee(tomography_runs):
    start = time.time()
    hits = total = 0
    for d, schedule, truth, est in tomography_runs:
        total += 1
        gap = np.linalg.norm(est.v.amplitudes - vec_i(truth, est.r).amplitudes)
        hits += gap <= schedule.eps_vec
    rate = hits / total
    elapsed = time.time() - start
    report(
        "criterion-4 tomography guarantee",
        rate >= 0.95,
        f"success rate {rate:.3f} over {total} states, {elapsed:.1f}s",
    )


def test_criterion_5_vector_transfer_bound(tomography_runs):
    violations = checked = 0
    for d, schedule, truth, est in tomography_runs:
        t = trace_distance(est.x, truth)
        if t >= 1.0 / (2 * d):
            continue
        checked += 1
        r = select_r(est.x)
        weight = est.x.matrix[r, r].real
        bound = (1.0 / np.sqrt(weight) + 0.5) * t + 0.25 * t * t
        gap = np.linalg.norm(vec_i(est.x, r).amplitudes - vec_i(truth, r).amplitudes)
        if gap > bound + 1e-12:
            violations += 1
    report(
        "criterion-5 vector transfer bound",
        violations == 0 and checked > 0,
        f"{violations} violations over {checked} close samples",
    )


def test_criterion_6_discontinuity_probe():
    gap = discontinuity_probe(1e-4)
    formula_ok = all(
        abs(discontinuity_probe(e) ** 2 - (2 + 2 * np.sqrt(1 - e))) < 1e-12
        for e in (1e-6, 1e-4, 0.01, 0.5, 1.0)
    )
    report(
        "criterion-6 discontinuity probe",
        1.99 <= gap <= 2.0 and formula_ok,
        f"gap(1e-4)={gap:.6f}",
    )


def test_criterion_7_random_superposition():
    start = time.time()
    rng = np.random.default_rng(7)

    def random_spec():
        return SuperpositionSpec(
            complex(rng.normal(), rng.normal()) + 0.2,
            complex(rng.normal(), rng.normal()) + 0.2,
        )

    exact_ok = 0
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        u = outer(StateVector(seeding.haar_state(rng, d)))
        v = outer(StateVector(seeding.haar_state(rng, d)))
        spec = random_spec()
        out = random_superposition(StateOracle(u), StateOracle(v), spec, None, 100 + i)
        exact_ok += superposition_error(out, u, v, spec) < 1e-9

    sampled_ok = 0
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        u = outer(StateVector(seeding.haar_state(rng, d)))
        v = outer(StateVector(seeding.haar_state(rng, d)))
        spec = random_spec()
        out = random_superposition(
            StateOracle(u), StateOracle(v), spec, copies_budget(spec, d, 0.25), 500 + i
        )
        sampled_ok += superposition_error(out, u, v, spec) <= 0.25
    elapsed = time.time() - start
    report(
        "criterion-7 random superposition",
        exact_ok == 50 and sampled_ok >= 45 and elapsed < 300,
        f"exact {exact_ok}/50, sampled {sampled_ok}/50, {elapsed:.1f}s",
    )


def test_criterion_8_threshold_and_floor():
    ok = (
        threshold(EQUAL) == 0.5
        and threshold(SuperpositionSpec(1.0, 2.0)) == 0.4
        and trace_floor(EQUAL, 2) == abs(EQUAL.alpha) ** 2 / 64
    )
    floor = trace_floor(EQUAL, 2)
    report(
        "criterion-8 threshold and floor formulas",
        ok and abs(floor - 1 / 128) < 1e-16,
        f"threshold {threshold(EQUAL)}, floor {floor}",
    )


def test_criterion_9_obstruction_suite():
    start = time.time()
    x0 = StateVector(np.array([1.0, 0.0]))
    ideal = ideal_candidate(EQUAL)
    windings_ok = True
    for n in (64, 4096):
        windings_ok &= winding_number(g_normalized(ideal, phase_loop(x0, 1, n))) == 2
        windings_ok &= winding_number(g_normalized(ideal, phase_loop(x0, 0, n))) == 0
    verdicts = {
        name: obstruction_audit(factory(EQUAL), EQUAL, x0, 64).verdict
        for name, factory in BUILTIN_CANDIDATES.items()
    }
    mollified = obstruction_audit(mollified_candidate(EQUAL), EQUAL, x0, 4096)
    elapsed = time.time() - start
    report(
        "criterion-9 obstruction suite",
        windings_ok
        and all(v == "obstructed" for v in verdicts.values())
        and mollified.max_error >= threshold(EQUAL) - 0.01
        and elapsed < 60,
        f"windings ok={windings_ok}, verdicts={verdicts}, "
        f"mollified error {mollified.max_error:.3f}, {elapsed:.1f}s",
    )


def test_criterion_10_table1_meta_check(capsys, tmp_path):
    out = tmp_path / "table1.json"
    code = cli_main(["table1", "--seed", "10", "--runs", "10", "--out", str(out)])
    payload = json.loads(out.read_text())
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    with capsys.disabled():
        report(
            "criterion-10 table-1 meta-check",
            code == 0
            and checks["random_superposition_achievable"]
            and checks["plain_superposition_obstructed"],
            f"checks={checks}",
        )


def test_criterion_11_determinism(tmp_path):
    save_state(tmp_path / "zero.json", basis_state(2, 0))
    save_state(tmp_path / "one.json", basis_state(2, 1))
    invocations = [
        ["tomo", "--state", str(tmp_path / "zero.json"), "--shots", "1000", "--seed", "4"],
        [
            "superpose", "--u", str(tmp_path / "zero.json"),
            "--v", str(tmp_path / "one.json"), "--eps", "0.5", "--seed", "4",
        ],
        ["audit", "--candidate", "mollified", "--samples", "64", "--seed", "4"],
        ["probe", "--eps", "1e-4", "--seed", "4"],
        ["table1", "--seed", "4", "--runs", "3"],
    ]
    stable = True
    for i, argv in enumerate(invocations):
        a, b = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        stable &= a.read_bytes() == b.read_bytes()
    report("criterion-11 determinism", stable, f"{len(invocations)} reports compared")


def test_criterion_12_calibration_between_dims():
    """The 5% trace-radius guarantee holds at uncalibrated d in {5, 6, 7}."""
    start = time.time()
    rates = {}
    for d in (5, 6, 7):
        schedule = schedule_for(d, 1000)
        misses = 0
        for i in range(200):
            rng = seeding.rng_for(2027, seeding.STATE, d, i)
            truth = outer(StateVector(seeding.haar_state(rng, d)))
            counts = StateOracle(truth).sample(
                schedule.N, seeding.child_seed(2027, seeding.TRIAL, d, i)
            )
            misses += trace_distance(reconstruct(counts), truth) > schedule.eps_tr
        rates[d] = misses / 200
    elapsed = time.time() - start
    report(
        "criterion-12 calibration between dims",
        all(rate <= 0.05 for rate in rates.values()),
        f"failure rates {rates}, {elapsed:.1f}s",
    )
