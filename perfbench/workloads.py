"""Seeded inputs and output checks for the four benchmark workloads.

Every op is one `supersim` CLI invocation.  Its inputs (state files and the
argv) are a pure function of (workload, seed, stream, index), so the worker
that runs the op and the parent that checks its report derive the same truth
independently.  Nothing here imports `supersim`: the inputs and the checks
must not move when the program changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Streams of one workload seed: first-call ops, then the timed ops.
WARMUP, TIMED = 0, 1

EPS = 0.25
TOMO_SHOTS = 100_000
ENTANGLED_TRIALS = 10
AUDIT_SAMPLES = 512
# Coefficient pairs with || |alpha| - |beta| || / (|alpha| + |beta|) below this
# need more than the largest shot count in the calibration table, and the CLI
# refuses them with BudgetExceededError.  The superpose workload asks only for
# reachable targets (refusals sat below 0.009 in a 400-draw sample).
MIN_MAGNITUDE_GAP = 0.02
TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv without --out, its shape, and the truth."""

    index: int
    shape: str
    argv: List[str]
    truth: dict


@dataclass(frozen=True)
class Workload:
    name: str
    code: int  # keeps the input streams of different workloads apart
    shapes: Tuple[str, ...]  # op i has shape shapes[i % len(shapes)]
    # Shapes that fill caches of their own (a dimension); set-up time counts
    # the first-call penalty of each.
    first_shapes: Tuple[str, ...]
    tail_pct: float
    build: Callable[[np.random.Generator, str, Callable[[str, np.ndarray], str]], Tuple[List[str], dict]]
    check: Callable[[dict, dict], Tuple[bool, Optional[bool], str]]


def haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _coefficient(rng: np.random.Generator) -> complex:
    return complex(rng.normal(), rng.normal())


def _reachable_pair(rng: np.random.Generator) -> Tuple[complex, complex]:
    while True:
        a, b = _coefficient(rng), _coefficient(rng)
        if abs(abs(a) - abs(b)) / (abs(a) + abs(b)) >= MIN_MAGNITUDE_GAP:
            return a, b


def _complex_arg(flag: str, z: complex) -> str:
    # "--alpha=-0.3,1.2": the = form keeps argparse from reading a leading
    # minus sign as an option.
    return f"--{flag}={z.real!r},{z.imag!r}"


def _op_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def _shape_dim(shape: str) -> int:
    return int(shape[1:])


# --- builders: (rng, shape, write_state) -> (argv, truth) -------------------

def _build_tomo(rng, shape, write_state):
    psi = haar_state(rng, _shape_dim(shape))
    argv = ["tomo", "--state", write_state("s", psi), "--shots", str(TOMO_SHOTS),
            "--seed", _op_seed(rng)]
    return argv, {"psi": psi}


def _build_superpose(rng, shape, write_state):
    d = _shape_dim(shape)
    u, v = haar_state(rng, d), haar_state(rng, d)
    a, b = _reachable_pair(rng)
    argv = ["superpose", "--u", write_state("u", u), "--v", write_state("v", v),
            _complex_arg("alpha", a), _complex_arg("beta", b), "--eps", repr(EPS),
            "--seed", _op_seed(rng)]
    return argv, {"u": u, "v": v, "alpha": a, "beta": b}


def _build_entangled(rng, shape, write_state):
    d = _shape_dim(shape)
    u, v = haar_state(rng, d), haar_state(rng, d)
    argv = ["superpose", "--u", write_state("u", u), "--v", write_state("v", v),
            "--entangled", "--trials", str(ENTANGLED_TRIALS), "--seed", _op_seed(rng)]
    return argv, {"u": u, "v": v}


def _build_audit(rng, shape, write_state):
    a, b = _coefficient(rng), _coefficient(rng)
    argv = ["audit", "--candidate", shape, _complex_arg("alpha", a), _complex_arg("beta", b),
            "--samples", str(AUDIT_SAMPLES), "--seed", _op_seed(rng)]
    return argv, {"candidate": shape}


# --- checks: (report, truth) -> (ok, guarantee_met or None, reason) ---------

def _decode_vector(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data])


def _decode_matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _column_vec(psi: np.ndarray, i: int) -> np.ndarray:
    """Column i of |psi><psi| renormalized: psi times the phase of conj(psi_i)."""
    return psi * np.conj(psi[i]) / abs(psi[i])


def _check_tomo(report, truth):
    res = report["results"]
    psi = truth["psi"]
    r = res["r"]
    if not 0 <= r < psi.size:
        return False, None, f"index r={r} out of range"
    v = _decode_vector(res["vector"])
    if v.shape != psi.shape or abs(np.linalg.norm(v) - 1.0) > TOL:
        return False, None, "reported vector is not a unit vector of the input dimension"
    err = float(np.linalg.norm(v - _column_vec(psi, r)))
    return True, err <= res["schedule"]["eps_vec"], ""


def _implied_phase(u, v, r, alpha, beta) -> float:
    # gamma(psi, i) = arg <cvec(psi), vec_i(psi)> = arg psi_0 - arg psi_i for
    # a state whose first amplitude is nonzero (true of Haar states).
    gamma_u = np.angle(u[0]) - np.angle(u[r[0]])
    gamma_v = np.angle(v[0]) - np.angle(v[r[1]])
    return float(gamma_u - gamma_v - np.angle(alpha) + np.angle(beta))


def _check_superpose(report, truth):
    res = report["results"]
    u, v, a, b = truth["u"], truth["v"], truth["alpha"], truth["beta"]
    r = tuple(res["r"])
    if len(r) != 2 or not all(0 <= i < u.size for i in r):
        return False, None, f"index pair {r} out of range"
    # The target is the superposition of the true canonical vectors at the
    # phase r implies on the true states.
    phi = _implied_phase(u, v, r, a, b)
    w = a * np.exp(1j * phi) * _column_vec(u, 0) + b * _column_vec(v, 0)
    w = w / np.linalg.norm(w)
    out = _decode_matrix(res["state"])
    merit = float(np.abs(np.linalg.eigvalsh(out - np.outer(w, w.conj()))).sum())
    if abs(merit - res["merit"]) > 1e-8:
        return False, None, f"merit {res['merit']} differs from recomputed {merit}"
    return True, res["merit"] <= EPS, ""


def _check_entangled(report, truth):
    blocks = report["results"]["blocks"]
    u, v = truth["u"], truth["v"]
    weights = [blk["weight"] for blk in blocks]
    if not blocks or abs(sum(weights) - 1.0) > TOL:
        return False, None, f"block weights {weights} do not sum to 1"
    for blk in blocks:
        r = blk["r"]
        if len(r) != 2 or not all(0 <= i < u.size for i in r):
            return False, None, f"block index {r} out of range"
        if abs(blk["weight"] * ENTANGLED_TRIALS - round(blk["weight"] * ENTANGLED_TRIALS)) > TOL:
            return False, None, f"block weight {blk['weight']} is not a multiple of 1/trials"
        # Each block is the noiseless output for its index pair on the true
        # states; the default coefficients have equal magnitudes.
        w = _column_vec(u, r[0]) + _column_vec(v, r[1])
        w = w / np.linalg.norm(w)
        if np.max(np.abs(_decode_matrix(blk["state"]) - np.outer(w, w.conj()))) > 1e-9:
            return False, None, f"block state for r={r} is not the superposition of the true states"
    return True, True, ""


def _check_audit(report, truth):
    res = report["results"]
    if res["verdict"] != "obstructed":
        return False, None, f"verdict {res['verdict']}"
    if truth["candidate"] == "mollified":
        ok = res["g_vanished"] is True
    else:
        ok = (res["winding_phase_loop"], res["winding_constant"]) == (2, 0) and not res["g_vanished"]
    if not ok:
        return False, None, (f"windings ({res['winding_phase_loop']}, {res['winding_constant']}),"
                             f" g_vanished={res['g_vanished']}")
    return True, True, ""


# Why each workload: see BENCHMARK.json.  A shape cycle never splits ops evenly
# between two latency modes, which would put the median on the boundary
# between them (tomo runs one d=8 op per two d=16 ops).  The audit candidates
# are all qubit maps at one sample count, so they share one first call; a
# first-call penalty per candidate would add only noise.  tail_pct is the
# highest percentile of run.TAIL_LADDER with at least ten samples beyond it
# at the smallest op count of the runs in BASELINE.json.  It is fixed so that
# a faster commit is not judged at a higher percentile than its parent.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tomo", 1, ("d8", "d16", "d16"), ("d8", "d16"), 95.0, _build_tomo, _check_tomo),
        Workload("superpose", 2, ("d2", "d3", "d8"), ("d2", "d3", "d8"), 90.0,
                 _build_superpose, _check_superpose),
        Workload("entangled", 3, ("d2",), ("d2",), 50.0, _build_entangled, _check_entangled),
        Workload("audit", 4, ("ideal", "mollified", "constant"), ("ideal",), 75.0,
                 _build_audit, _check_audit),
    )
}


def _write_state(path: Path, psi: np.ndarray) -> None:
    payload = {"dim": int(psi.size), "kind": "vector",
               "data": [[float(z.real), float(z.imag)] for z in psi]}
    path.write_text(json.dumps(payload))


def make_op(workload: Workload, seed: int, stream: int, index: int,
            input_dir: Optional[Path] = None) -> Op:
    """The op's argv and truth; writes its state files when input_dir is given."""
    rng = np.random.default_rng([seed, workload.code, stream, index])
    shape = workload.shapes[index % len(workload.shapes)]

    def write_state(role: str, psi: np.ndarray) -> str:
        if input_dir is None:
            return f"{role}.json"
        path = input_dir / f"{stream}-{index}-{role}.json"
        _write_state(path, psi)
        return str(path)

    argv, truth = workload.build(rng, shape, write_state)
    return Op(index=index, shape=shape, argv=argv, truth=truth)


def check_report(workload: Workload, op: Op, text: str) -> Tuple[bool, Optional[bool], str]:
    """(ok, guarantee_met, reason) for one report.

    ok is False when the report does not parse, names the wrong subcommand,
    has a failed entry in `checks`, or fails the workload's own check.
    guarantee_met says whether the result lies within the radius the report
    advertises (None when ok is False).
    """
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return False, None, f"unparsable report: {exc}"
    try:
        if report["subcommand"] != op.argv[0]:
            return False, None, f"subcommand {report['subcommand']!r}"
        failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        if failed:
            return False, None, f"checks failed: {failed}"
        return workload.check(report, op.truth)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return False, None, f"malformed report: {exc!r}"
