"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark's host is shared: measured on 2 vCPUs, the same CLI op ran
1.6x slower in some 12-second windows than in others, and a kernel like the
one below slowed by the same factor in the same windows (window-to-window
variation 18-21% raw, 4-6% after dividing by the kernel's time).  Workers
therefore time this kernel right after every op, outside the op's latency,
and run.py scales each op's time by NOMINAL_S over the median kernel time
around it.

The kernel mixes the two kinds of work supersim does, interpreted Python
(dict updates, arithmetic) and small dense linear algebra, and never imports
supersim, so no change to the program moves it.
"""

import statistics
import time

import numpy as np

# About the median kernel time on the 2-vCPU host the baseline was recorded
# on; it only sets the scale of the scaled times.
NOMINAL_S = 0.8e-3
MIN_RUNS = 3

_SYM = np.arange(64, dtype=float).reshape(8, 8)
_SYM = _SYM + _SYM.T


def kernel() -> int:
    acc = {}
    for i in range(2000):
        key = i % 17
        acc[key] = acc.get(key, 0) + i * i
    for _ in range(60):
        np.linalg.eigvalsh(_SYM)
    return len(acc)


def measure(budget_s: float) -> float:
    """Median kernel time over back-to-back runs lasting budget_s (at least MIN_RUNS runs)."""
    times, spent = [], 0.0
    while len(times) < MIN_RUNS or spent < budget_s:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)
