"""Radius table used by the tomography schedules.

The trace-norm radius is eps_tr = C * d / sqrt(N).  The constants C are
found offline, per (d, N) cell, by bisecting against the error
distribution of a fixed benchmark of Haar-random states, and shipped as
versioned JSON.  `build_table` regenerates the file
(`python -m supersim.calibration`).

Each dimension also carries a fitted Gaussian-style tail exponent `a`:
widening the radius by a factor kappa is credited with a failure
probability of 0.05 * exp(-a * (kappa^2 - 1)).  The fit is validated only
where the benchmark can resolve it and is extrapolated beyond; budgets
derived from it are deliberately conservative (the exponent is halved).
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ValidationError

TABLE_FILE = "calibration.json"
TABLE_MAX_N = 10**14

CAL_DIMS = (2, 3, 4, 8)
CAL_GRID = (100, 1_000, 10_000, 100_000, 1_000_000)
BENCHMARK_STATES = 500
TARGET_FAIL = 0.02  # stricter than the advertised 0.05 to leave test margin
INFLATION = 1.05
TAIL_SAFETY = 0.5
TAIL_FLOOR = 0.5


@lru_cache(maxsize=1)
def _table() -> dict:
    text = resources.files("supersim.data").joinpath(TABLE_FILE).read_text()
    return json.loads(text)


def _dim_entry(d: int) -> dict:
    dims = _table()["dims"]
    available = sorted(int(k) for k in dims)
    if not available:
        raise ValidationError("empty calibration table")
    # C falls with d, so borrowing the next smaller calibrated d is conservative.
    below = [a for a in available if a <= d]
    chosen = below[-1] if below else available[0]
    return dims[str(chosen)]


def lookup_constant(d: int, N: int) -> float:
    """Radius constant for the largest calibrated shot count <= N."""
    cells = _dim_entry(d)["cells"]
    best = cells[0][1]
    for grid_n, c in cells:
        if grid_n <= N:
            best = c
    return float(best)


def tail_exponent(d: int) -> float:
    return float(_dim_entry(d)["tail"])


def build_table(
    seed: int = 20260826,
    states: int = BENCHMARK_STATES,
    path: Path | None = None,
) -> dict:
    """Regenerate the radius table from fresh benchmark runs."""
    from . import seeding
    from .linalg import StateVector, outer, trace_distance
    from .tomo import MIN_SHOTS, reconstruct, setting_count, StateOracle

    assert min(CAL_GRID) >= MIN_SHOTS
    table: dict = {
        "version": 1,
        "seed": seed,
        "benchmark_states": states,
        "delta": 0.05,
        "target_fail": TARGET_FAIL,
        "dims": {},
    }
    for d in CAL_DIMS:
        scaled_errors = []  # per cell: errors normalized by the final radius
        cells = []
        for cell_idx, n_shots in enumerate(CAL_GRID):
            errors = np.empty(states)
            for i in range(states):
                rng = seeding.rng_for(seed, seeding.STATE, d, cell_idx, i)
                rho = outer(StateVector(seeding.haar_state(rng, d)))
                trial_seed = seeding.child_seed(seed, seeding.TRIAL, d, cell_idx, i)
                est = reconstruct(StateOracle(rho).sample(n_shots, trial_seed))
                errors[i] = trace_distance(est, rho)
            c = _bisect_constant(errors, d, n_shots) * INFLATION
            cells.append([n_shots, c])
            scaled_errors.append(errors / (c * d / np.sqrt(n_shots)))
        # Suffix max keeps eps_tr monotone nonincreasing in N.
        for i in range(len(cells) - 2, -1, -1):
            cells[i][1] = max(cells[i][1], cells[i + 1][1])
        table["dims"][str(d)] = {
            "cells": cells,
            "tail": _fit_tail(np.concatenate(scaled_errors)),
            "settings": setting_count(d),
        }
    if path is None:
        path = Path(__file__).parent / "data" / TABLE_FILE
    path.write_text(json.dumps(table, indent=2, sort_keys=True))
    _table.cache_clear()
    return table


def _bisect_constant(errors: np.ndarray, d: int, n_shots: int) -> float:
    """Smallest C with empirical failure rate at most TARGET_FAIL."""
    scale = d / np.sqrt(n_shots)

    def fail_rate(c: float) -> float:
        return float(np.mean(errors > c * scale))

    lo, hi = 0.0, 1.0
    while fail_rate(hi) > TARGET_FAIL:
        hi *= 2.0
        if hi > 1e6:
            raise ValidationError("calibration diverged")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if fail_rate(mid) <= TARGET_FAIL:
            hi = mid
        else:
            lo = mid
    return hi


def _fit_tail(scaled: np.ndarray) -> float:
    """Conservative exponent a in P[err > kappa*eps] ~ 0.05 exp(-a(k^2-1))."""
    n = scaled.size
    candidates = []
    for kappa in (1.25, 1.5, 2.0):
        exceed = (np.count_nonzero(scaled > kappa) + 1) / (n + 1)
        candidates.append(-np.log(exceed / 0.05) / (kappa**2 - 1.0))
    a = max(TAIL_FLOOR, TAIL_SAFETY * min(candidates))
    return float(a)


if __name__ == "__main__":
    built = build_table()
    for d, entry in sorted(built["dims"].items()):
        print(d, entry["cells"], f"tail={entry['tail']:.3f}")
