"""supersim benchmark: the `supersim` CLI path, driven in process, per workload.

    python3 perfbench/run.py --workload {tomo,superpose,entangled,audit,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the program under test is `src/supersim` next to this
directory, imported from source.  Each op is one `supersim.cli.main(argv)`
call in a closed loop with one client and one process.  Inputs (state files
and argv) come from --seed alone; any seed works, so a claim can be checked
again on a seed not used while the change was written.

--trace 0 prints the end-to-end metrics.  Three fresh processes run one
after another; each measures set-up, then runs the timed loop for S/3
seconds of op time on its own slice of the op stream.

Times are reported at a nominal host speed: after every op the worker times
a fixed kernel (hostspeed.py), and each op's time is scaled by how much
slower or faster than nominal the kernel ran around it (set-up time: by
the kernel times after the first-call ops of its process).  On the shared
2-vCPU host the benchmark was built on, this cut the spread (interquartile
range over median, ten seeds) of op_p50_ms and ops_per_s from 0.13-0.22 to
0.02-0.07.  Raw times are printed beside the scaled ones.

--trace 1 runs one process: traced first ops, an untraced loop for S/2
seconds, then the same ops with spans recorded; it prints the per-layer
metrics and the tracing overhead, and requires every traced report to be
byte-identical to its untraced twin.

Reports are checked after timing stops.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; everything above it is
for people.  Work files go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

import hostspeed
from workloads import TIMED, WARMUP, WORKLOADS, Workload, check_report, make_op

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
PROCESSES = 3
# Timed ops of process k are k*SLICE, k*SLICE+1, ...: disjoint inputs.
SLICE = 1_000_000
WORKER_TIMEOUT_S = 170
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
HOST_WINDOW_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "guarantee_hit_frac": "ratio",
}


def tail_percentile(n: int) -> Optional[float]:
    """Highest TAIL_LADDER percentile with at least MIN_BEYOND of n samples beyond it."""
    fits = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9]
    return max(fits) if fits else None


def provenance(workload: str, seed: int) -> dict:
    git: Dict[str, object] = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git_out(*args: str) -> str:
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30, check=True).stdout

        try:
            git = {"commit": git_out("rev-parse", "HEAD").strip(),
                   "dirty": bool(git_out("status", "--porcelain").strip())}
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        **git,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": workload,
        "seed": seed,
    }


def spawn_worker(workload: str, seed: int, seconds: float, mode: str, out_dir: Path,
                 first_index: int = 0) -> dict:
    """Run one worker process; adds spawn_to_ready_s (interpreter start + import)."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(ROOT), workload,
           str(seed), str(seconds), mode, str(out_dir), str(first_index)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    result = json.loads((out_dir / "result.json").read_text())
    if not Path(result["supersim_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"worker imported supersim from {result['supersim_file']}, not {ROOT / 'src'}")
    result["spawn_to_ready_s"] = ready
    return result


class Checker:
    """Checks reports against the truth re-derived from the seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = self.met = self.completed = 0
        self.reasons: List[str] = []

    def check(self, rec: dict, stream: int, path: Path, same_as: Optional[str] = None) -> Optional[str]:
        """Check one executed op; returns its report text when there is one.

        With `same_as`, the report must also be byte-identical to that text,
        the report of an earlier run of the same argv.
        """
        self.attempted += 1
        text = path.read_text() if path.is_file() else None
        if rec["code"] != 0 or text is None:
            ok, met, reason = False, None, rec["error"] or "no report written"
        elif same_as is not None and text != same_as:
            ok, met, reason = False, None, "report differs from an earlier run of the same argv"
        else:
            op = make_op(self.workload, self.seed, stream, rec["index"])
            ok, met, reason = check_report(self.workload, op, text)
        if not ok:
            self.failed += 1
            self.reasons.append(f"{rec['phase']} op {rec['index']} ({rec['shape']}): {reason}")
        else:
            self.completed += 1
            self.met += bool(met)
        return text

    def check_first(self, records: List[dict], out_dir: Path) -> None:
        """Check first-call ops; a rerun must write the same bytes as its first run."""
        first_text = {}
        for rec in records:
            if rec["phase"] == "first":
                first_text[rec["index"]] = self.check(rec, WARMUP, out_dir / f"w{rec['index']}.json")
            else:
                self.check(rec, WARMUP, out_dir / f"w{rec['index']}-rerun.json",
                           same_as=first_text[rec["index"]])


def scaled_times(records: List[dict]) -> np.ndarray:
    """Op times of one process at the nominal host speed.

    The host speed around an op is the median kernel time (hostspeed.py)
    over the ops of the same process that started within HOST_WINDOW_S of it.
    """
    start = np.array([r["started_s"] for r in records])
    kernel = np.array([r["reference_s"] for r in records])
    return np.array([r["latency_s"] * hostspeed.NOMINAL_S
                     / np.median(kernel[np.abs(start - r["started_s"]) <= HOST_WINDOW_S])
                     for r in records])


def setup_time(worker: dict, scale: bool = True) -> float:
    """Interpreter start and import, plus each first shape's first run minus its rerun.

    Scaled, it is at the nominal host speed given by the median kernel time
    after those runs: one factor for the whole set-up, because a difference of
    two long ops scaled op by op would carry the noise of both factors.
    """
    first = worker["first"]
    latency = {(r["index"], r["phase"]): r["latency_s"] for r in first}
    raw = worker["spawn_to_ready_s"] + sum(
        latency[(index, "first")] - latency[(index, "rerun")] for index, phase in latency if phase == "first")
    if not scale:
        return raw
    return raw * hostspeed.NOMINAL_S / statistics.median(r["reference_s"] for r in first)


def end_to_end(workload: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    workers = [spawn_worker(workload.name, seed, seconds / PROCESSES, "timed", run_dir / f"p{k}",
                            k * SLICE) for k in range(PROCESSES)]
    checker = Checker(workload, seed)
    for k, w in enumerate(workers):
        checker.check_first(w["first"], run_dir / f"p{k}")
        for rec in w["timed"]:
            checker.check(rec, TIMED, run_dir / f"p{k}" / f"{rec['index']}.json")

    # Times are scaled to the nominal host speed (hostspeed.py); raw ones are printed beside.
    latencies = np.concatenate([scaled_times(w["timed"]) for w in workers])
    setups = [setup_time(w) for w in workers]
    timed = [r for w in workers for r in w["timed"]]
    raw = np.array([r["latency_s"] for r in timed])
    raw_setups = [setup_time(w, scale=False) for w in workers]
    speed = hostspeed.NOMINAL_S / np.array([r["reference_s"] for r in timed])
    n = latencies.size
    tail_ms = float(np.percentile(latencies, workload.tail_pct)) * 1e3
    beyond = int(np.count_nonzero(latencies * 1e3 > tail_ms))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / float(latencies.sum()),
        "op_p50_ms": float(np.median(latencies)) * 1e3,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "guarantee_hit_frac": checker.met / checker.completed if checker.completed else 0.0,
    }
    notes = {
        "setup_s": f"median of {PROCESSES} fresh processes: "
                   + ", ".join(f"{s:.4f}" for s in setups)
                   + f"; raw {statistics.median(raw_setups):.4f} s"
                   + f" (import supersim.cli alone: {workers[-1]['import_s']:.4f} s)",
        "ops_per_s": f"{n} timed ops over {latencies.sum():.3f} s of scaled op time;"
                     f" raw {n / raw.sum():.4g}",
        "op_p50_ms": f"n={n}; raw {np.median(raw) * 1e3:.4g}",
        "op_tail_ms": f"p{workload.tail_pct:g}, {beyond} of {n} samples beyond;"
                      f" raw {np.percentile(raw, workload.tail_pct) * 1e3:.4g}"
                      + ("" if beyond >= MIN_BEYOND else f"  [fewer than {MIN_BEYOND} beyond]"),
        "peak_rss_mb": f"largest of the {PROCESSES} processes",
        "guarantee_hit_frac": f"{checker.met} of {checker.completed} completed ops",
    }
    return {"checker": checker, "metrics": metrics, "notes": notes, "op_count": n,
            "extra": {
                "host_speed": (float(np.median(speed)),
                               "nominal/measured kernel time after each timed op, median;"
                               f" quartiles {np.percentile(speed, 25):.3f}, {np.percentile(speed, 75):.3f}"),
                "fail_frac": (checker.failed / checker.attempted,
                              f"{checker.failed} of {checker.attempted} ops"),
                "guarantee_miss_frac": (
                    (checker.completed - checker.met) / checker.completed if checker.completed else 0.0,
                    f"{checker.completed - checker.met} of {checker.completed} completed ops"),
            }}


def traced(workload: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    w = spawn_worker(workload.name, seed, seconds, "trace", run_dir / "t")
    out_dir = run_dir / "t"
    checker = Checker(workload, seed)
    checker.check_first(w["first"], out_dir)
    for rec, trec in zip(w["timed"], w["traced"]):
        text = checker.check(rec, TIMED, out_dir / "untraced" / f"{rec['index']}.json")
        checker.check(trec, TIMED, out_dir / "traced" / f"{rec['index']}.json", same_as=text)
    identical = len(w["traced"]) - sum(r.startswith("traced") for r in checker.reasons)
    spans = (out_dir / "spans.npz").replace(run_dir / "spans.npz")
    untraced_rate = len(w["timed"]) / scaled_times(w["timed"]).sum()
    traced_rate = len(w["traced"]) / scaled_times(w["traced"]).sum()
    metrics = {
        **w["layers"],
        "cli.import_s": w["import_s"],
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
    }
    notes = {
        "trace.traced_ops_per_s": f"tracing overhead: traced/untraced ops_per_s = "
                                  f"{traced_rate / untraced_rate:.3f}; {w['span_count']} spans "
                                  f"kept in memory, written to {spans.relative_to(ROOT)}",
        "tomo.inversion_build_s": "summed over the dimensions the workload uses (first call per d)",
    }
    return {"checker": checker, "metrics": metrics, "notes": notes, "op_count": len(w["timed"]),
            "extra": {"reports_byte_identical": (identical / len(w["traced"]),
                                                 f"{identical} of {len(w['traced'])} traced reports"
                                                 " pass and match their untraced twins")}}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith(".calls") or ".settings." in name else "ratio"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    outcome = (traced if trace else end_to_end)(workload, seed, seconds, run_dir)
    checker: Checker = outcome["checker"]
    prov = {**provenance(name, seed), "op_count": outcome["op_count"]}

    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print("closed loop, 1 client, 1 process; provenance " + json.dumps(prov, sort_keys=True))
    for key, value in outcome["metrics"].items():
        note = outcome["notes"].get(key, "")
        print(f"  {key:<40} {value:>14.6g} {unit_of(key):<6} {note}")
    for key, (value, note) in outcome["extra"].items():
        print(f"  {key:<40} {value:>14.6g} {'ratio':<6} {note}")
    print("  wait time: none (single-threaded, no queues; spans measure busy time only)")
    for reason in checker.reasons[:20]:
        print(f"  FAILED {reason}")

    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in outcome["metrics"].items()}}
    (run_dir / "summary.json").write_text(json.dumps(
        {**result, "provenance": prov, "notes": outcome["notes"],
         "extra": {k: v[0] for k, v in outcome["extra"].items()}, "failures": checker.reasons},
        indent=2, sort_keys=True))
    # Inputs, reports and worker results only serve the checks above; keep
    # the summary (and spans) so that many runs fit in one checkout.
    for sub in run_dir.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "supersim" / "cli.py").is_file():
        print(f"perfbench: no supersim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
