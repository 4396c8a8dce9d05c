"""Golden CLI reports: the case list, the runner, and the regenerator.

Each case is one fixed-seed `supersim` invocation.  Its report is stored
under `reports/<name>.json` and compared byte for byte by
`tests/test_golden.py`.  State files live under `states/` and are passed by
relative path, because reports embed the paths they were given; the test
therefore runs every case from a directory holding a copy of `states/`.

A change that moves report numbers on purpose reruns this script and says
why in CHANGES.md:

    PYTHONPATH=src python3 tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
STATES = HERE / "states"
REPORTS = HERE / "reports"

# (name, argv); every state file is Haar-random from a fixed seed (see _write_states).
CASES: Dict[str, List[str]] = {
    "tomo_d2": ["tomo", "--state", "states/u2.json", "--shots", "1000", "--seed", "1"],
    "tomo_d8": ["tomo", "--state", "states/rho8.json", "--shots", "10000", "--seed", "2"],
    "tomo_exact_d8": ["tomo", "--state", "states/rho8.json", "--exact"],
    "superpose_unequal": [
        "superpose", "--u", "states/u3.json", "--v", "states/v3.json",
        "--alpha", "0.8,0.1", "--beta", "0.3,-0.4", "--eps", "0.25", "--seed", "3",
    ],
    "superpose_entangled": [
        "superpose", "--u", "states/u2.json", "--v", "states/v2.json",
        "--entangled", "--trials", "10", "--seed", "4",
    ],
    "superpose_exact": ["superpose", "--u", "states/u3.json", "--v", "states/v3.json", "--exact"],
    "audit_ideal": ["audit", "--candidate", "ideal", "--samples", "64", "--seed", "5"],
    "audit_mollified": [
        "audit", "--candidate", "mollified", "--samples", "64",
        "--alpha", "0.6,0", "--beta", "0,0.8", "--x0", "states/u2.json", "--seed", "5",
    ],
    "audit_constant": ["audit", "--candidate", "constant", "--samples", "64", "--seed", "5"],
    "probe": ["probe", "--eps", "1e-4", "--seed", "6"],
    "identities": ["identities", "--samples", "20", "--seed", "7"],
    "table1": ["table1", "--runs", "3", "--seed", "8"],
}

# file name -> (dimension, seed, kind)
STATE_FILES: Dict[str, Tuple[int, int, str]] = {
    "u2.json": (2, 21, "vector"),
    "v2.json": (2, 22, "vector"),
    "u3.json": (3, 31, "vector"),
    "v3.json": (3, 32, "vector"),
    "rho8.json": (8, 81, "density"),
}


def render(argv: List[str]) -> Tuple[int, str]:
    """Run the CLI in the current directory; return (exit code, stdout)."""
    from supersim.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def render_in_copy(argv: List[str], workdir: Path) -> Tuple[int, str]:
    """Run one case from `workdir`, after copying the state files into it."""
    shutil.copytree(STATES, workdir / "states", dirs_exist_ok=True)
    old = os.getcwd()
    os.chdir(workdir)
    try:
        return render(argv)
    finally:
        os.chdir(old)


def _write_states() -> None:
    from supersim import seeding
    from supersim.linalg import StateVector, outer, save_state

    STATES.mkdir(exist_ok=True)
    for name, (dim, seed, kind) in STATE_FILES.items():
        psi = StateVector(seeding.haar_state(seeding.rng_for(seed, seeding.STATE), dim))
        save_state(STATES / name, psi if kind == "vector" else outer(psi))


def main() -> None:
    _write_states()
    REPORTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            code, text = render_in_copy(argv, Path(tmp))
            if code != 0:
                sys.exit(f"{name}: exit {code}: {text}")
            (REPORTS / f"{name}.json").write_text(text)
            print(f"wrote {name}")


if __name__ == "__main__":
    main()
