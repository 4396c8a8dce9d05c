"""Radius table used by the tomography schedules.

The trace-norm radius is eps_tr = C * d / sqrt(N).  The constants C are
found offline, per (d, N) cell, as an order statistic of the error
distribution of a fixed benchmark of Haar-random states, and shipped as
versioned JSON.  `build_table` regenerates the file
(`python -m supersim.calibration`).  This module alone defines what the
table is calibrated against: `DELTA_TR`, `MIN_SHOTS` and `TABLE_MAX_N`.

Each dimension also carries a fitted Gaussian-style tail exponent `a`:
widening the radius by a factor kappa >= 1 is credited with a failure
probability of DELTA_TR * exp(-a * (kappa^2 - 1)).  The fit is validated
only where the benchmark can resolve it and is extrapolated beyond; budgets
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
DELTA_TR = 0.05  # failure level the radius table is calibrated against

CAL_DIMS = (2, 3, 4, 8)
CAL_GRID = (100, 1_000, 10_000, 100_000, 1_000_000)
MIN_SHOTS = CAL_GRID[0]  # no schedule runs below the first calibrated cell
BENCHMARK_STATES = 500
TARGET_FAIL = 0.02  # stricter than the advertised DELTA_TR to leave test margin
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


@lru_cache(maxsize=None)
def _dim_constants(d: int) -> tuple:
    """(shot counts, constants, tail exponent) of d's table entry, parsed once."""
    entry = _dim_entry(d)
    cells = np.array(entry["cells"])
    cells.setflags(write=False)
    return cells[:, 0], cells[:, 1], float(entry["tail"])


def lookup_constant(d: int, N):
    """Radius constant for the largest calibrated shot count <= N, or for the
    smallest one when N is below them all; elementwise for an array of N."""
    shots, constants, _ = _dim_constants(d)
    return constants[np.maximum(np.searchsorted(shots, N, side="right") - 1, 0)]


def tail_exponent(d: int) -> float:
    return _dim_constants(d)[2]


def build_table(
    seed: int = 20260826,
    states: int = BENCHMARK_STATES,
    path: Path | None = None,
) -> dict:
    """Regenerate the radius table from fresh benchmark runs."""
    from . import seeding
    from .linalg import StateVector, outer, trace_distance
    from .tomo import reconstruct, setting_count, StateOracle

    table: dict = {
        "version": 1,
        "seed": seed,
        "benchmark_states": states,
        "delta": DELTA_TR,
        "target_fail": TARGET_FAIL,
        "dims": {},
    }
    for d in CAL_DIMS:
        scaled_errors = []  # per cell: errors normalized by the final radius
        cells = []
        for cell_idx, n_shots in enumerate(CAL_GRID):
            rhos, counts = [], []
            for i in range(states):
                rng = seeding.rng_for(seed, seeding.STATE, d, cell_idx, i)
                rho = outer(StateVector(seeding.haar_state(rng, d)))
                trial_seed = seeding.child_seed(seed, seeding.TRIAL, d, cell_idx, i)
                rhos.append(rho.matrix)
                counts.append(StateOracle(rho).sample(n_shots, trial_seed))
            errors = trace_distance(reconstruct(np.stack(counts)), np.stack(rhos))
            c = _smallest_constant(errors, d, n_shots) * INFLATION
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
    _dim_constants.cache_clear()
    return table


def _smallest_constant(errors: np.ndarray, d: int, n_shots: int) -> float:
    """Smallest float C with mean(errors > C * scale) <= TARGET_FAIL: the (n - m)-th
    smallest error over scale, when at most m errors may exceed, moved an ulp
    at a time to where the rounding of C * scale puts the boundary."""
    scale = d / np.sqrt(n_shots)
    n = errors.size
    m = np.count_nonzero(np.arange(n + 1) / n <= TARGET_FAIL) - 1

    def holds(c: float) -> bool:
        return np.mean(errors > c * scale) <= TARGET_FAIL

    c = np.sort(errors)[n - m - 1] / scale
    while not holds(c):
        c = np.nextafter(c, np.inf)
    while holds(np.nextafter(c, 0.0)):
        c = np.nextafter(c, 0.0)
    return float(c)


def _fit_tail(scaled: np.ndarray) -> float:
    """Conservative exponent a in P[err > kappa*eps] ~ DELTA_TR exp(-a(k^2-1))."""
    n = scaled.size
    candidates = []
    for kappa in (1.25, 1.5, 2.0):
        exceed = (np.count_nonzero(scaled > kappa) + 1) / (n + 1)
        candidates.append(-np.log(exceed / DELTA_TR) / (kappa**2 - 1.0))
    a = max(TAIL_FLOOR, TAIL_SAFETY * min(candidates))
    return float(a)


if __name__ == "__main__":
    built = build_table()
    for d, entry in sorted(built["dims"].items()):
        print(d, entry["cells"], f"tail={entry['tail']:.3f}")
