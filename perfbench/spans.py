"""In-memory spans around supersim's layer boundaries, and what they add up to.

The benchmark wraps the boundary functions from outside the package: each
wrapped function is rebound at every module that holds it (its defining
module and every module that imported it by name), and methods are rebound
on their class.  `Tracer.unwrap` puts the originals back.  Spans live in
flat arrays (about 30 bytes each) because a budget search alone makes
thousands of `schedule_for` calls per op.

The program is single-threaded and has no queues, so no layer waits on
another: spans measure busy time only.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# (span name, module, attribute) for functions; (span name, module, "Class.method")
# for methods.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "supersim.cli", "main"),
    ("cli.emit", "supersim.cli", "_emit_report"),
    ("cli.load", "supersim.cli", "_load_density"),
    ("superpose.copies_budget", "supersim.superpose", "copies_budget"),
    ("superpose.budget", "supersim.superpose", "_budget_schedules"),
    ("superpose.merit", "supersim.superpose", "superposition_error"),
    ("calibration.lookup_constant", "supersim.calibration", "lookup_constant"),
    ("calibration.tail_exponent", "supersim.calibration", "tail_exponent"),
    ("tomo.schedule_for", "supersim.tomo", "schedule_for"),
    ("tomo.vector_tomography", "supersim.tomo", "vector_tomography"),
    ("tomo.sample", "supersim.tomo", "StateOracle.sample"),
    ("tomo.reconstruct", "supersim.tomo", "reconstruct"),
    ("tomo.inversion_operator", "supersim.tomo", "_inversion_operator"),
    ("seeding.rng_for", "supersim.seeding", "rng_for"),
    ("seeding.child_seed", "supersim.seeding", "child_seed"),
    ("linalg.dominant_pure", "supersim.linalg", "dominant_pure"),
    ("linalg.trace_distance", "supersim.linalg", "trace_distance"),
    ("linalg.validate.StateVector", "supersim.linalg", "StateVector.__post_init__"),
    ("linalg.validate.DensityOperator", "supersim.linalg", "DensityOperator.__post_init__"),
    ("linalg.validate.PureDensity", "supersim.linalg", "PureDensity.__post_init__"),
    ("vecfun.select_r", "supersim.vecfun", "select_r"),
    ("vecfun.select_r_paired", "supersim.vecfun", "select_r_paired"),
    ("vecfun.vec_i", "supersim.vecfun", "vec_i"),
    ("vecfun.canonical_vec", "supersim.vecfun", "canonical_vec"),
    ("circuits.candidate", "supersim.circuits", "_candidate_output"),
    ("circuits.g_normalized", "supersim.circuits", "g_normalized"),
    ("obstruction.winding_along", "supersim.obstruction", "_winding_along"),
    ("obstruction.phase_loop", "supersim.obstruction", "phase_loop"),
    ("obstruction.best_phase_error", "supersim.obstruction", "_best_phase_error"),
)

# Spans tagged with their first argument (the dimension).
TAGGED = {"tomo.inversion_operator"}


def import_sites(module: str, attr: str) -> List[Tuple[object, str]]:
    """Every (namespace, name) in the supersim package bound to the target."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, method = attr.split(".")
        return [(getattr(owner, cls_name), method)]
    target = getattr(owner, attr)
    sites = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "supersim" or name.startswith("supersim.")):
            continue
        for key, value in vars(mod).items():
            if value is target:
                sites.append((mod, key))
    return sites


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = [b[0] for b in BOUNDARIES]
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrapper(self, kind: int, fn: Callable, tagged: bool) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.kind.append(kind)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.tag.append(int(args[0]) if tagged else -1)
            self.failed.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def wrap(self) -> None:
        """Rebind every boundary at every import site to a span-recording wrapper."""
        if self._saved:
            raise RuntimeError("already wrapped")
        for kind, (name, module, attr) in enumerate(BOUNDARIES):
            sites = import_sites(module, attr)
            original = getattr(*sites[0])
            wrapper = self._wrapper(kind, original, name in TAGGED)
            for ns, key in sites:
                self._saved.append((ns, key, getattr(ns, key)))
                setattr(ns, key, wrapper)

    def unwrap(self) -> None:
        for ns, key, original in reversed(self._saved):
            setattr(ns, key, original)
        self._saved.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its child spans cover.

    Spans come from one thread, so children of a span never overlap and the
    covered time is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


# Per-layer metric -> (statistic, span names).  "calls" and "self_ms" are per
# traced op.
LAYER_GROUPS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("superpose.budget.calls", "calls", ("superpose.budget",)),
    ("superpose.budget.self_ms", "self_ms", ("superpose.budget",)),
    ("superpose.merit.self_ms", "self_ms", ("superpose.merit",)),
    ("calibration.lookup.calls", "calls", ("calibration.lookup_constant", "calibration.tail_exponent")),
    ("calibration.lookup.self_ms", "self_ms", ("calibration.lookup_constant", "calibration.tail_exponent")),
    ("tomo.schedule_for.self_ms", "self_ms", ("tomo.schedule_for",)),
    ("tomo.sample.self_ms", "self_ms", ("tomo.sample",)),
    ("tomo.reconstruct.self_ms", "self_ms", ("tomo.reconstruct",)),
    ("seeding.rng.calls", "calls", ("seeding.rng_for", "seeding.child_seed")),
    ("seeding.rng.self_ms", "self_ms", ("seeding.rng_for", "seeding.child_seed")),
    ("linalg.dominant_pure.self_ms", "self_ms", ("linalg.dominant_pure",)),
    ("linalg.validate.calls", "calls", ("linalg.validate.StateVector", "linalg.validate.DensityOperator",
                                        "linalg.validate.PureDensity")),
    ("linalg.validate.self_ms", "self_ms", ("linalg.validate.StateVector", "linalg.validate.DensityOperator",
                                            "linalg.validate.PureDensity")),
    ("linalg.trace_distance.calls", "calls", ("linalg.trace_distance",)),
    ("linalg.trace_distance.self_ms", "self_ms", ("linalg.trace_distance",)),
    ("vecfun.select.self_ms", "self_ms", ("vecfun.select_r", "vecfun.select_r_paired")),
    ("vecfun.vec.calls", "calls", ("vecfun.vec_i", "vecfun.canonical_vec")),
    ("circuits.candidate.calls", "calls", ("circuits.candidate",)),
    ("circuits.candidate.self_ms", "self_ms", ("circuits.candidate",)),
    ("circuits.g.self_ms", "self_ms", ("circuits.g_normalized",)),
    ("obstruction.winding.self_ms", "self_ms", ("obstruction.winding_along", "obstruction.phase_loop")),
    ("obstruction.error_scan.self_ms", "self_ms", ("obstruction.best_phase_error",)),
    ("cli.self_ms", "self_ms", ("cli.main",)),
    ("cli.emit.self_ms", "self_ms", ("cli.emit",)),
    ("cli.load.self_ms", "self_ms", ("cli.load",)),
)

# Shapes for which settings sampled per op are reported.
SETTINGS_SHAPES = ("d8", "d16")


def _ratio(num: float, den: float) -> float:
    # A layer that does not run on a workload reports 0, not a ratio of zeros.
    return float(num / den) if den else 0.0


def layer_metrics(names: Sequence[str], spans: Dict[str, np.ndarray],
                  op_shapes: Sequence[str], op_scale: Optional[Sequence[float]] = None
                  ) -> Dict[str, float]:
    """Per-layer numbers from the spans of the traced ops (op id >= 0).

    `op_shapes[i]` is the shape of traced op i, and `op_scale[i]` (default 1)
    multiplies the self times of its spans.  Spans with a negative op id
    belong to first-call ops; they feed `tomo.inversion_build_s` only.
    """
    kind_of = {name: k for k, name in enumerate(names)}
    kind, parent, op = spans["kind"], spans["parent"], spans["op"]
    own = self_times(spans["start"], spans["end"], parent)
    timed = op >= 0
    if op_scale is not None:
        own[timed] *= np.asarray(op_scale)[op[timed]]
    n_ops = len(op_shapes)
    out: Dict[str, float] = {}
    for metric, stat, group in LAYER_GROUPS:
        mask = timed & np.isin(kind, [kind_of[g] for g in group])
        value = np.count_nonzero(mask) if stat == "calls" else own[mask].sum() * 1e3
        out[metric] = _ratio(value, n_ops)

    parent_kind = np.where(parent >= 0, kind[np.maximum(parent, 0)], -1)

    def count(name: str, under: Optional[str] = None, ok_only: bool = False) -> int:
        mask = timed & (kind == kind_of[name])
        if under is not None:
            mask &= parent_kind == kind_of[under]
        if ok_only:
            mask &= spans["failed"] == 0
        return int(np.count_nonzero(mask))

    out["superpose.budget.schedules_per_search"] = _ratio(
        count("tomo.schedule_for", under="superpose.budget"), count("superpose.budget"))
    out["obstruction.winding.attempts_per_result"] = _ratio(
        count("obstruction.phase_loop", under="obstruction.winding_along"),
        count("obstruction.winding_along", ok_only=True))

    shapes = np.array(list(op_shapes) or [""])
    sampled = timed & (kind == kind_of["seeding.rng_for"]) & (parent_kind == kind_of["tomo.sample"])
    for shape in SETTINGS_SHAPES:
        in_shape = np.zeros(kind.size, dtype=bool)
        in_shape[timed] = shapes[op[timed]] == shape
        out[f"tomo.settings.{shape}"] = _ratio(
            np.count_nonzero(sampled & in_shape), list(op_shapes).count(shape))

    # The first call per dimension builds the cached operator from scratch.
    inv = np.flatnonzero(kind == kind_of["tomo.inversion_operator"])
    first: Dict[int, float] = {}
    for i in inv:
        first.setdefault(int(spans["tag"][i]), float(spans["end"][i] - spans["start"][i]))
    out["tomo.inversion_build_s"] = float(sum(first.values()))
    return out
