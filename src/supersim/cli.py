"""Command-line entry point.

One command, six subcommands, one seed.  Every run either writes a JSON
report and exits 0, or prints a JSON error object and exits 2 (bad input)
/ 1 (runtime failure).  Reports are byte-stable for a fixed (arguments,
seed) pair.  `data/report.schema.json` is their published contract; the
test suite checks reports against it, and a run does not check its own.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import seeding
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    SupersimError,
    ValidationError,
)
from .circuits import (
    conjugate_bra,
    orthogonal_complement,
    teleport_identity_check,
)
# The benchmark's `cli.load` span pins the loader under the name `_load_density`.
from .linalg import StateVector, basis_state, encode_complex, load_state as _load_density, outer
from .obstruction import BUILTIN_CANDIDATES, obstruction_audit
from .superpose import (
    SuperpositionSpec,
    _pair_targets,
    budget_thresholds,
    copies_budget,
    entangled_superposition,
    random_superposition,
    superposition_error,
    threshold,
    trace_floor,
)
from .tomo import StateOracle, schedule_for, vector_tomography
from .vecfun import canonical_vec, discontinuity_probe


def _parse_complex(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except ValueError:
        raise ValidationError(f"expected RE,IM, got {text!r}") from None


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _emit_report(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header: List[str], rows: List[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_tomo(args) -> dict:
    oracle = StateOracle(_load_density(args.state))
    schedule = schedule_for(oracle.dim, args.shots)  # checks --shots in exact mode too
    est = vector_tomography(oracle, None if args.exact else schedule, [args.seed])
    results = {
        "estimate": encode_complex(est.x[0]),
        "r": int(est.r[0]),
        "vector": encode_complex(est.v[0]),
    }
    if not args.exact:
        results["schedule"] = dataclasses.asdict(schedule)
    return {
        "inputs": {"state": args.state, "shots": args.shots, "exact": args.exact},
        "results": results,
    }


def _cmd_superpose(args) -> dict:
    if args.trials < 1:  # every report records --trials, entangled or not
        raise ValidationError(f"need at least one trial, got {args.trials}")
    u, v = _load_density(args.u), _load_density(args.v)
    oracle_u, oracle_v = StateOracle(u), StateOracle(v)
    if u.dim != v.dim:  # before the budget search at u's dimension
        raise DimensionMismatchError(f"dims {u.dim} and {v.dim} differ")
    spec = SuperpositionSpec(_parse_complex(args.alpha), _parse_complex(args.beta))
    d = u.dim
    results = {
        "threshold": threshold(spec),
        "trace_floor": trace_floor(spec, d),
    }
    t_n, t_m = budget_thresholds(spec, d, args.eps)  # checks eps in exact mode too
    # One budget search: the run uses the schedules whose N and M are reported.
    schedules = None if args.exact else copies_budget(spec, d, args.eps)
    if schedules is not None:
        results["budgets"] = {
            "N": schedules[0].N, "M": schedules[1].N, "target_N": t_n, "target_M": t_m,
        }
    if args.entangled:
        weights = entangled_superposition(
            oracle_u, oracle_v, spec, schedules, args.seed, trials=args.trials
        )
        states = _pair_targets(u, v, list(weights), spec)
        results["blocks"] = [
            {"r": list(r), "weight": w, "state": encode_complex(state)}
            for (r, w), state in zip(weights.items(), states)
        ]
    else:
        out = random_superposition(oracle_u, oracle_v, spec, schedules, args.seed)
        results["r"] = list(out.r)
        results["phi_r"] = out.phi_r
        results["state"] = encode_complex(out.state)
        results["merit"] = superposition_error(out, u, v, spec)
    return {
        "inputs": {
            "u": args.u,
            "v": args.v,
            "alpha": encode_complex(spec.alpha),
            "beta": encode_complex(spec.beta),
            "eps": args.eps,
            "exact": args.exact,
            "entangled": args.entangled,
            "trials": args.trials,
        },
        "results": results,
    }


def _cmd_audit(args) -> dict:
    spec = SuperpositionSpec(_parse_complex(args.alpha), _parse_complex(args.beta))
    candidate = BUILTIN_CANDIDATES[args.candidate](spec)
    if args.x0:
        x0 = StateVector(canonical_vec(_load_density(args.x0).matrix))
    else:
        x0 = basis_state(2, 0)
    report = obstruction_audit(candidate, spec, x0, args.samples)
    if args.csv:
        rows = [(j / args.samples, e) for j, e in enumerate(report.loop_errors.tolist())]
        _write_csv(args.csv, ["t", "error"], rows)
    return {
        "inputs": {
            "candidate": args.candidate,
            "alpha": encode_complex(spec.alpha),
            "beta": encode_complex(spec.beta),
            "samples": args.samples,
            "x0": args.x0,
        },
        "results": {
            "winding_constant": report.winding_constant,
            "winding_phase_loop": report.winding_phase_loop,
            "max_error": report.max_error,
            "threshold": report.threshold,
            "g_vanished": report.g_vanished,
            "verdict": report.verdict,
        },
        "checks": [{"name": "obstructed", "passed": report.verdict == "obstructed"}],
    }


def _cmd_probe(args) -> dict:
    value = discontinuity_probe(args.eps)
    exact = float(np.sqrt(2.0 + 2.0 * np.sqrt(1.0 - args.eps)))
    if args.csv:
        grid = np.logspace(-6, np.log10(0.5), 60)
        _write_csv(
            args.csv, ["eps", "gap"], [(float(e), discontinuity_probe(float(e))) for e in grid]
        )
    return {
        "inputs": {"eps": args.eps},
        "results": {"gap": value, "closed_form": exact},
        "checks": [{"name": "matches_closed_form", "passed": bool(abs(value - exact) < 1e-10)}],
    }


def _cmd_identities(args) -> dict:
    if args.samples < 1:
        raise ValidationError(f"need at least one sample, got {args.samples}")
    worst = {"teleport": 0.0, "conjugate_bra": 0.0, "orthogonality": 0.0}
    for i in range(args.samples):
        rng = seeding.rng_for(args.seed, seeding.STATE, i)
        x = seeding.haar_state(rng, 2)
        tele = teleport_identity_check(x) - 0.5 * x
        worst["teleport"] = max(worst["teleport"], float(np.max(np.abs(tele))))
        bra = conjugate_bra(x) - x / np.sqrt(2.0)
        worst["conjugate_bra"] = max(worst["conjugate_bra"], float(np.max(np.abs(bra))))
        dot = orthogonal_complement(x) @ x
        worst["orthogonality"] = max(worst["orthogonality"], float(abs(dot)))
    checks = [
        {"name": name, "passed": bool(err <= 1e-12)} for name, err in sorted(worst.items())
    ]
    return {
        "inputs": {"samples": args.samples},
        "results": {"worst_errors": worst},
        "checks": checks,
    }


def _table1_coefficients(rng, d: int, eps: float):
    """A run's coefficient pair and its copy budget, drawn from the run's stream.

    Nearly equal magnitudes can ask for more shots than the table holds; such
    a pair is drawn again from the same stream until the budget exists.
    """
    while True:
        spec = SuperpositionSpec(
            complex(rng.normal() + 1j * rng.normal()) or 1.0,
            complex(rng.normal() + 1j * rng.normal()) or 1.0,
        )
        try:
            return spec, copies_budget(spec, d, eps)
        except BudgetExceededError:
            continue


def _cmd_table1(args) -> dict:
    """Random superposition is achievable while plain superposition is not."""
    eps = 0.25
    d = 2
    if args.runs < 1:
        raise ValidationError(f"need at least one run, got {args.runs}")
    hits = 0
    for run in range(args.runs):
        rng = seeding.rng_for(args.seed, seeding.RUN, run)
        u = outer(StateVector(seeding.haar_state(rng, d)))
        v = outer(StateVector(seeding.haar_state(rng, d)))
        spec, schedules = _table1_coefficients(rng, d, eps)
        out = random_superposition(
            StateOracle(u), StateOracle(v), spec, schedules,
            seeding.child_seed(args.seed, seeding.TRIAL, run),
        )
        if superposition_error(out, u, v, spec) <= eps:
            hits += 1
    pipeline_rate = hits / args.runs
    spec0 = SuperpositionSpec(1 / np.sqrt(2), 1 / np.sqrt(2))
    x0 = basis_state(2, 0)
    verdicts = {
        name: obstruction_audit(factory(spec0), spec0, x0, 64).verdict
        for name, factory in sorted(BUILTIN_CANDIDATES.items())
    }
    achievable = pipeline_rate >= 0.9
    impossible = all(v == "obstructed" for v in verdicts.values())
    return {
        "inputs": {"runs": args.runs, "eps": eps, "dim": d},
        "results": {
            "random_superposition_success_rate": pipeline_rate,
            "single_outcome_verdicts": verdicts,
        },
        "checks": [
            {"name": "random_superposition_achievable", "passed": bool(achievable)},
            {"name": "plain_superposition_obstructed", "passed": bool(impossible)},
        ],
    }


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so they end in the JSON envelope like other bad input."""

    def error(self, message):
        raise ValidationError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The `supersim` argument parser, built once per process.

    Parsing leaves it unchanged, so `main` reuses it; building one per call
    took a large share of a short run and left cyclic garbage behind it.
    """
    parser = _Parser(
        prog="supersim",
        description="Simulators and audits for superposing unknown quantum states.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", default=None, help="report path (default: stdout)")

    p = sub.add_parser("tomo", help="vector tomography of one state file")
    p.add_argument("--state", required=True)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--exact", action="store_true")
    common(p)

    p = sub.add_parser("superpose", help="superpose two unknown states")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--alpha", default="0.7071067811865476,0")
    p.add_argument("--beta", default="0.7071067811865476,0")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--entangled", action="store_true")
    p.add_argument("--trials", type=int, default=50)
    common(p)

    p = sub.add_parser("audit", help="obstruction audit of a built-in candidate")
    p.add_argument("--candidate", choices=sorted(BUILTIN_CANDIDATES), required=True)
    p.add_argument("--alpha", default="0.7071067811865476,0")
    p.add_argument("--beta", default="0.7071067811865476,0")
    p.add_argument("--x0", default=None)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--csv", default=None)
    common(p)

    p = sub.add_parser("probe", help="canonical-vector discontinuity gap")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--csv", default=None)
    common(p)

    p = sub.add_parser("identities", help="bra-ket contraction identity suite")
    p.add_argument("--samples", type=int, default=100)
    common(p)

    p = sub.add_parser("table1", help="achievability vs obstruction meta-check")
    p.add_argument("--runs", type=int, default=10)
    common(p)

    return parser


_HANDLERS = {
    "tomo": _cmd_tomo,
    "superpose": _cmd_superpose,
    "audit": _cmd_audit,
    "probe": _cmd_probe,
    "identities": _cmd_identities,
    "table1": _cmd_table1,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = _HANDLERS[args.subcommand](args)
        report.update(subcommand=args.subcommand, seed=args.seed)
        _emit_report(report, args.out)
        return 0
    except SystemExit as exc:  # --help printed the usage
        return int(exc.code or 0)
    except (SupersimError, OSError) as exc:
        sys.stdout.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
        return 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
