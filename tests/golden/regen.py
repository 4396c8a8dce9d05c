"""Golden CLI reports: the case list, the runner, and the regenerator.

Each case is one fixed-seed `supersim` invocation.  Its report is stored
under `reports/<name>.json` and compared byte for byte by
`tests/test_golden.py`.  State files live under `states/` and are passed by
relative path, because reports embed the paths they were given; the test
therefore runs every case from a directory holding a copy of `states/`.

The byte sweep adds a fixed list of about 180 more cases (`SWEEP`): tomo
at d = 2, 3, 8, 16 on Haar, tie and density files, sampled and exact;
superpose at d = 2, 3, 8 with equal, unequal and equal-complex
coefficients, sampled, exact and entangled; audits with `--x0` and `--csv`;
and table1.  Their inputs are written with numpy alone at run time, and only
one SHA-256 per case is kept, in `sweep.sha256`: the digest of the exit
code, the stdout and any CSV the case writes.

A change that moves report numbers on purpose reruns this script and says
why in CHANGES.md:

    PYTHONPATH=src python3 tests/golden/regen.py           # reports and sweep
    PYTHONPATH=src python3 tests/golden/regen.py --sweep   # sweep digests only
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
STATES = HERE / "states"
REPORTS = HERE / "reports"
SWEEP_DIGESTS = HERE / "sweep.sha256"

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


def _sweep_states() -> Dict[str, Tuple[int, np.ndarray, str]]:
    """Sweep input files: name -> (dimension, amplitudes, kind).

    Per d: two Haar vectors (h{d}a, h{d}b), the first Fourier basis vector
    (f{d}) and a uniform-modulus vector with random phases (t{d}), both
    with every diagonal at 1/d, and a Haar density (m{d}).
    """
    states = {}
    for d in (2, 3, 8, 16):
        rng = np.random.default_rng(1000 + d)
        for name in (f"h{d}a", f"h{d}b", f"m{d}"):
            g = rng.normal(size=d) + 1j * rng.normal(size=d)
            states[name] = (d, g / np.linalg.norm(g), "density" if name[0] == "m" else "vector")
        states[f"f{d}"] = (d, np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d), "vector")
        phases = rng.uniform(0.0, 2.0 * np.pi, size=d)
        states[f"t{d}"] = (d, np.exp(1j * phases) / np.sqrt(d), "vector")
    return states


def _write_sweep_states(root: Path) -> None:
    root.mkdir(exist_ok=True)
    for name, (d, psi, kind) in _sweep_states().items():
        data = np.outer(psi, psi.conj()).reshape(-1) if kind == "density" else psi
        payload = {"dim": d, "kind": kind, "data": [[z.real, z.imag] for z in data.tolist()]}
        (root / f"{name}.json").write_text(json.dumps(payload, sort_keys=True))


_COEFFS = {
    "eq": ["--alpha=0.7071067811865476,0", "--beta=0.7071067811865476,0"],
    "uneq": ["--alpha=0.8,0.1", "--beta=0.3,-0.4"],
    "eqc": ["--alpha=0.6,0.8", "--beta=-0.8,0.6"],
}


def _sweep_cases() -> Dict[str, List[str]]:
    cases: Dict[str, List[str]] = {}
    for d in (2, 3, 8, 16):
        for s in ("h", "f", "t", "m"):
            state = f"sweep/{s}{d}{'a' if s == 'h' else ''}.json"
            base = ["tomo", "--state", state, "--shots", "1000"]
            cases[f"tomo_{s}{d}_exact"] = base + ["--exact"]
            for seed in range(2):
                cases[f"tomo_{s}{d}_s{seed}"] = base + ["--seed", str(seed)]
    for d in (2, 3, 8):
        pairs = {"haar": (f"h{d}a", f"h{d}b"), "tie": (f"f{d}", f"t{d}"),
                 "mix": (f"m{d}", f"h{d}b")}
        for coeff, flags in _COEFFS.items():
            for pair, (u, v) in pairs.items():
                base = ["superpose", "--u", f"sweep/{u}.json", "--v", f"sweep/{v}.json",
                        "--eps", "1.5"] + flags
                name = f"superpose_{coeff}_{pair}{d}"
                cases[f"{name}_exact"] = base + ["--exact"]
                for seed in range(2):
                    cases[f"{name}_s{seed}"] = base + ["--seed", str(seed)]
                    cases[f"{name}_ent{seed}"] = base + [
                        "--entangled", "--trials", "6", "--seed", str(seed)]
    for candidate in ("ideal", "constant"):
        for x0 in ("h2a", "t2"):
            cases[f"audit_{candidate}_{x0}"] = [
                "audit", "--candidate", candidate, "--x0", f"sweep/{x0}.json",
                "--samples", "32", "--csv", "errors.csv"] + _COEFFS["eqc"]
    for x0 in ("h2b", "f2"):
        cases[f"audit_mollified_{x0}"] = [
            "audit", "--candidate", "mollified", "--x0", f"sweep/{x0}.json",
            "--samples", "32", "--csv", "errors.csv"] + _COEFFS["uneq"]
    for seed in range(4):
        cases[f"table1_s{seed}"] = ["table1", "--runs", "4", "--seed", str(seed)]
    return cases


SWEEP: Dict[str, List[str]] = _sweep_cases()


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


def sweep_digests() -> Dict[str, str]:
    """SHA-256 of every sweep case: exit code, stdout, then any CSV it wrote."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _write_sweep_states(workdir / "sweep")
        csv = workdir / "errors.csv"
        for name, argv in SWEEP.items():
            code, text = render_in_copy(argv, workdir)
            blob = f"{code}\n{text}".encode()
            if csv.exists():
                blob += csv.read_bytes()
                csv.unlink()
            digests[name] = hashlib.sha256(blob).hexdigest()
    return digests


def format_digests(digests: Dict[str, str]) -> str:
    return "".join(f"{digests[name]}  {name}\n" for name in sorted(digests))


def _write_states() -> None:
    from supersim import seeding
    from supersim.linalg import StateVector, outer, save_state

    STATES.mkdir(exist_ok=True)
    for name, (dim, seed, kind) in STATE_FILES.items():
        psi = StateVector(seeding.haar_state(seeding.rng_for(seed, seeding.STATE), dim))
        save_state(STATES / name, psi if kind == "vector" else outer(psi))


def main(flags: List[str]) -> None:
    SWEEP_DIGESTS.write_text(format_digests(sweep_digests()))
    print(f"wrote {SWEEP_DIGESTS.name}: {len(SWEEP)} cases")
    if "--sweep" in flags:
        return
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
    main(sys.argv[1:])
