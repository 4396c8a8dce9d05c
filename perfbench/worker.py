"""One workload process: fresh interpreter, first-call ops, then the timed loop.

Usage (spawned by run.py):
    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MODE OUT_DIR FIRST_INDEX

MODE is `timed` (one first op per shape, for set-up time, then the closed
loop for SECONDS of op time over timed ops FIRST_INDEX, FIRST_INDEX+1, ...)
or `trace` (traced first ops, an untraced loop for SECONDS/2, then the same
ops again with spans recorded).  The process prints `ready` on stdout once
`import supersim.cli` is done, and writes its results to OUT_DIR/result.json.
Nothing but the standard library is imported before supersim, so the
import time is what a CLI user pays.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

CHUNK = 32  # ops whose inputs are written between timed stretches
# Host-speed kernel runs after each op take at least this share of its time.
REFERENCE_SHARE = 0.05


def run_op(argv):
    """(latency_s, exit code or None, error text) of one in-process CLI call."""
    import supersim.cli  # looked up per call: tracing rebinds main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = supersim.cli.main(argv)
            error = ""
        except Exception as exc:  # an op that raises is a failed op, not a harness error
            code, error = None, repr(exc)
        latency = time.perf_counter() - start
    if code not in (0, None):
        error = sink.getvalue().strip()[-300:]
    return latency, code, error


def run_recorded(phase, op, out_path):
    """Run one op, then time the host-speed kernel (outside the op's latency)."""
    import hostspeed

    started = time.perf_counter()
    latency, code, error = run_op(op.argv + ["--out", str(out_path)])
    return {"phase": phase, "index": op.index, "shape": op.shape, "started_s": started,
            "latency_s": latency, "code": code, "error": error,
            "reference_s": hostspeed.measure(REFERENCE_SHARE * latency)}


def first_ops(workload, seed, input_dir, out_dir, tracer=None):
    """One op of every first shape on a cold process, each run twice.

    The second run of the same argv is the warm latency that the first
    run's first-call penalty is measured against.
    """
    from workloads import WARMUP, make_op

    records = []
    for shape in workload.first_shapes:
        index = workload.shapes.index(shape)
        op = make_op(workload, seed, WARMUP, index, input_dir)
        if tracer is not None:
            tracer.current_op = -1 - index
        records.append(run_recorded("first", op, out_dir / f"w{index}.json"))
        records.append(run_recorded("rerun", op, out_dir / f"w{index}-rerun.json"))
    return records


def closed_loop(workload, seed, input_dir, out_dir, budget_s, first_index):
    """Run timed ops back to back until their summed latency reaches budget_s.

    Inputs are written in chunks between ops, outside the measured time.
    """
    from workloads import TIMED, make_op

    ops, records, busy = [], [], 0.0
    while busy < budget_s:
        if len(records) == len(ops):
            start = first_index + len(ops)
            ops += [make_op(workload, seed, TIMED, i, input_dir) for i in range(start, start + CHUNK)]
        op = ops[len(records)]
        records.append(run_recorded("timed", op, out_dir / f"{op.index}.json"))
        busy += records[-1]["latency_s"]
    return ops[: len(records)], records


def traced_run(workload, seed, seconds, input_dir, out_dir, result):
    import hostspeed
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.wrap()
    try:
        result["first"] = first_ops(workload, seed, input_dir, out_dir, tracer)
    finally:
        tracer.unwrap()
    untraced_dir, traced_dir = out_dir / "untraced", out_dir / "traced"
    untraced_dir.mkdir()
    traced_dir.mkdir()
    ops, result["timed"] = closed_loop(workload, seed, input_dir, untraced_dir, seconds / 2, 0)
    traced = []
    tracer.wrap()
    try:
        for op in ops:
            tracer.current_op = op.index
            traced.append(run_recorded("traced", op, traced_dir / f"{op.index}.json"))
    finally:
        tracer.unwrap()
    result["traced"] = traced
    # Self times at the nominal host speed, each op by the kernel time after it.
    scale = [hostspeed.NOMINAL_S / r["reference_s"] for r in traced]
    result["layers"] = layer_metrics(tracer.names, tracer.arrays(), [op.shape for op in ops], scale)
    result["span_count"] = len(tracer.start)
    tracer.save(out_dir / "spans.npz")


def main(argv):
    root, workload_name, seed, seconds, mode, out_dir, first_index = argv
    sys.path.insert(0, f"{root}/src")
    start = time.perf_counter()
    import supersim.cli
    import_s = time.perf_counter() - start
    print("ready", flush=True)

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    out_dir = Path(out_dir)
    input_dir = out_dir / "inputs"
    input_dir.mkdir(parents=True, exist_ok=True)
    result = {"import_s": import_s, "supersim_file": supersim.cli.__file__}
    if mode == "trace":
        traced_run(workload, int(seed), float(seconds), input_dir, out_dir, result)
    else:
        result["first"] = first_ops(workload, int(seed), input_dir, out_dir)
        result["timed"] = closed_loop(workload, int(seed), input_dir, out_dir, float(seconds),
                                      int(first_index))[1]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
