"""Fuzz the command line: every argv and every state file ends in a clean exit.

Whatever the subcommand, flags, values or state-file contents, `main` must
return 0, 1 or 2 and leave one strict JSON document (a report or the error
envelope) on stdout, or in the `--out` file for a report written there.
Every report meets the published report schema.
Work-size flags stay small so each example runs in milliseconds.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import check_report
from supersim import seeding
from supersim.cli import main
from supersim.linalg import StateVector, basis_state, outer, save_state
from supersim.obstruction import MAX_LOOP_SAMPLES

_JUNK = st.sampled_from(["", "x", "1,2,3", "1e3", "0x10", "nan", "inf", "-inf", "--", "-"])
_FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(repr)


def _ints(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), _JUNK)


def _reals(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), _FLOATS, _JUNK)


_SEED = st.one_of(st.integers(-(2**70), 2**70).map(str), _JUNK)
_COMPLEX = st.one_of(
    st.tuples(_reals(-2, 2), _reals(-2, 2)).map(",".join),
    st.tuples(st.floats(-2, 2).map(repr), st.floats(-2, 2).map(repr)).map(",".join),
    _JUNK,
)
_REQUIRED = ("--state", "--u", "--v", "--candidate")
# Free text never starts with "-": argparse would take "--he" for --help and
# "--ou" for --out.
_WORD = st.text(max_size=4).filter(lambda t: not t.startswith("-"))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(7)
    save_state(root / "a.json", basis_state(2, 0))
    save_state(root / "b.json", outer(StateVector(seeding.haar_state(rng, 2))))
    save_state(root / "c.json", outer(StateVector(seeding.haar_state(rng, 3))))
    return root


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)
_PAIRS = st.lists(st.lists(st.floats(-2, 2) | st.integers(-2, 2), min_size=1, max_size=3), max_size=10)
_STATE_TEXT = st.one_of(
    st.fixed_dictionaries(
        {
            "dim": st.one_of(st.integers(-3, 4), st.floats(), st.text(max_size=3), _JSON),
            "kind": st.sampled_from(["vector", "density", "other"]) | _JSON,
            "data": _PAIRS | _JSON,
        }
    ).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(max_size=40),
)


def _argv_strategy(files):
    state = st.sampled_from(
        [str(files / n) for n in ("a.json", "b.json", "c.json", "fuzzed.json", "missing.json")]
        + [str(files)]
    )
    out = st.sampled_from([str(files / "out.json"), str(files), str(files / "no" / "out.json")])
    flags = {
        "tomo": {"--state": state, "--shots": _ints(-10, 10**22), "--exact": None},
        "superpose": {
            "--u": state, "--v": state, "--alpha": _COMPLEX, "--beta": _COMPLEX,
            "--eps": _reals(0.0, 2.0), "--exact": None, "--entangled": None,
            "--trials": _ints(-2, 4),
        },
        "audit": {
            "--candidate": st.sampled_from(["ideal", "mollified", "constant", "other"]),
            "--alpha": _COMPLEX, "--beta": _COMPLEX, "--x0": state,
            "--samples": _ints(-2, 40) | st.just(str(MAX_LOOP_SAMPLES + 1)), "--csv": out,
        },
        "probe": {"--eps": _reals(0.0, 1.0), "--csv": out},
        "identities": {"--samples": _ints(-2, 20)},
        "table1": {"--runs": _ints(-2, 2)},
    }

    def rarely(draw):
        return draw(st.integers(0, 19)) == 0

    @st.composite
    def argv(draw):
        sub = draw(_JUNK if rarely(draw) else st.sampled_from(sorted(flags)))
        options = dict(flags.get(sub, {}), **{"--seed": _SEED, "--out": out})
        chosen = [f for f in _REQUIRED if f in options and not rarely(draw)]
        chosen += draw(st.lists(st.sampled_from(sorted(options)), max_size=4))
        tokens = [sub]
        for flag in chosen:
            tokens.append(flag)
            if options[flag] is not None and not rarely(draw):
                tokens.append(draw(options[flag]))
        if rarely(draw):
            tokens.insert(draw(st.integers(0, len(tokens))), draw(_JUNK | _WORD))
        return [t for t in tokens if t not in ("-h", "--help")]

    return argv()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_any_argv_exits_cleanly_with_json(files):
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argv_strategy(files), state_text=_STATE_TEXT)
    def check(argv, state_text):
        (files / "fuzzed.json").write_text(state_text)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        text = stdout.getvalue()
        if not text:
            assert code == 0
            out = argv[len(argv) - argv[::-1].index("--out")]
            text = Path(out).read_text()
            Path(out).unlink()
        payload = _strict_json(text)
        assert ("error" in payload) == (code != 0)
        if code == 0:
            check_report(payload)

    # A junk token can land where a path belongs; keep what it names in the temp dir.
    cwd = os.getcwd()
    os.chdir(files)
    try:
        check()
    finally:
        os.chdir(cwd)
