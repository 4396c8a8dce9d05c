"""The trust boundary: public constructors and state files reject bad input,
derived values are plain arrays that would pass the checks, and the CLI turns
every rejection into the JSON error envelope with exit code 2."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

import supersim
from conftest import haar_density, haar_vector
from supersim import calibration, cli, linalg
from supersim.cli import main
from supersim.errors import ValidationError
from supersim.linalg import (
    DensityOperator,
    PureDensity,
    StateVector,
    decode_complex,
    dominant_pure,
    encode_complex,
    load_state,
    outer,
    save_state,
)
from supersim.obstruction import BUILTIN_CANDIDATES, MAX_LOOP_SAMPLES
from supersim.superpose import SuperpositionSpec, _combine, target_superposition
from supersim.vecfun import canonical_vec, vec_i


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_state_vector(self, bad):
        with pytest.raises(ValidationError):
            StateVector(np.array([bad, 0.0]))

    @pytest.mark.parametrize("cls", [DensityOperator, PureDensity])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density(self, cls, bad):
        with pytest.raises(ValidationError):
            cls(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_dominant_pure(self):
        with pytest.raises(ValidationError):
            dominant_pure(np.full((2, 2), np.nan))


class TestDerivedValues:
    """Values built without checks must still pass them."""

    def test_outputs_satisfy_public_constructors(self, rng):
        u, v = haar_density(rng, 2), haar_density(rng, 3)
        noisy = u.matrix + 0.01 * rng.normal(size=(2, 2))
        PureDensity(dominant_pure(noisy))
        DensityOperator(np.kron(u.matrix, v.matrix))
        # `outer` is the one state built without its checks.
        assert type(u) is PureDensity
        assert not u.matrix.flags.writeable
        PureDensity(u.matrix)

    def test_derived_vectors_satisfy_public_constructors(self, rng):
        spec = SuperpositionSpec(0.6, 0.8j)
        for d in (2, 3, 5):
            x, y = haar_density(rng, d).matrix, haar_density(rng, d).matrix
            vectors = [canonical_vec(x)] + [vec_i(x, i) for i in range(d)]
            vectors += list(_combine(vec_i(x, 0)[None], vec_i(y, d - 1)[None], spec))
            for v in vectors:
                StateVector(v)
            state = target_superposition(canonical_vec(x), canonical_vec(y), spec, 1.3)
            PureDensity(state)

    @pytest.mark.parametrize("name", sorted(BUILTIN_CANDIDATES))
    def test_builtin_candidate_outputs(self, name, rng):
        spec = SuperpositionSpec(0.6, 0.8j)
        rho_u, rho_v = (np.stack([outer(haar_vector(rng, 2)).matrix for _ in range(8)])
                        for _ in range(2))
        out = BUILTIN_CANDIDATES[name](spec)(rho_u, rho_v)
        assert out.shape == (8, 2, 2)
        for matrix in out:
            DensityOperator(matrix)

    def test_private_constructor_not_exported(self):
        assert not any(name.startswith("_") for name in supersim.__all__)


class TestComplexCodec:
    def test_roundtrip_shapes(self, rng):
        for shape in [(), (3,), (2, 2)]:
            z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert np.array_equal(decode_complex(encode_complex(z)), z)

    @pytest.mark.parametrize(
        "data",
        [[["1", "0"]], [[None, 0.0]], [[1.0, 2.0, 3.0]], [[1.0, 0.0], [1.0]], 5, [], {"a": 1}],
    )
    def test_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            decode_complex(data)

    def test_state_file_must_be_flat(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"dim": 2, "kind": "vector", "data": [[[1, 0], [0, 0]]]}))
        with pytest.raises(ValidationError):
            load_state(path)

    @pytest.mark.parametrize("dim", [2.7, "2", True], ids=["float", "string", "bool"])
    def test_state_file_dim_must_be_an_integer(self, tmp_path, dim):
        path = tmp_path / "dim.json"
        path.write_text(json.dumps({"dim": dim, "kind": "vector", "data": [[1, 0], [0, 0]]}))
        with pytest.raises(ValidationError, match="dim must be an integer"):
            load_state(path)



class TestCalibrationRounding:
    def test_uncalibrated_dims_borrow_the_smaller_entry(self):
        table = calibration._table()["dims"]
        for d, expected in [(2, "2"), (3, "3"), (4, "4"), (5, "4"), (7, "4"), (8, "8"), (16, "8")]:
            assert calibration._dim_entry(d) is table[expected]


def _expect_envelope(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert set(payload) == {"error"}
    assert payload["error"]["type"].endswith("Error")
    return payload["error"]


class TestCliRejections:
    def test_nan_vector_file(self, tmp_path, capsys):
        path = tmp_path / "nan_vector.json"
        path.write_text('{"dim": 2, "kind": "vector", "data": [[NaN, 0.0], [1.0, 0.0]]}')
        _expect_envelope(capsys, ["tomo", "--state", str(path), "--shots", "1000"])

    def test_nan_density_file(self, tmp_path, capsys):
        path = tmp_path / "nan_density.json"
        path.write_text(
            '{"dim": 2, "kind": "density", '
            '"data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [NaN, 0.0]]}'
        )
        _expect_envelope(capsys, ["tomo", "--state", str(path), "--shots", "1000"])

    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": -2, "kind": "density", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            {"dim": 2, "kind": "vector", "data": [[10**400, 0], [0, 0]]},
            [2, "vector", [[1, 0], [0, 0]]],
            {"dim": 2, "kind": "vector"},
            {"dim": 2, "kind": "mixed", "data": [[1, 0], [0, 0]]},
            {"dim": 2, "kind": "density", "data": [[1, 0], [0, 0], [0, 0]]},
        ],
    )
    def test_malformed_state_file(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        error = _expect_envelope(capsys, ["tomo", "--state", str(path), "--shots", "1000"])
        assert error["type"] == "ValidationError"

    def test_table1_zero_runs(self, capsys):
        _expect_envelope(capsys, ["table1", "--runs", "0"])

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_identities_without_samples(self, capsys, samples):
        error = _expect_envelope(capsys, ["identities", "--samples", samples])
        assert "at least one sample" in error["message"]

    def test_audit_samples_beyond_cap(self, capsys):
        # Refused before any loop array is built; 10**12 points would not fit.
        for samples in (MAX_LOOP_SAMPLES + 1, 10**12):
            error = _expect_envelope(
                capsys, ["audit", "--candidate", "ideal", "--samples", str(samples)]
            )
            assert str(MAX_LOOP_SAMPLES) in error["message"]

    def test_tomo_shots_beyond_table(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"dim": 2, "kind": "vector", "data": [[1.0, 0.0], [0.0, 0.0]]}')
        error = _expect_envelope(
            capsys, ["tomo", "--state", str(path), "--shots", str(10**21)]
        )
        assert "outside" in error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["probe", "--bogus"],
            ["tomo"],
            ["identities", "--samples", "many"],
            ["identities", "--seed", "-1"],
            ["audit", "--candidate", "ideal", "--alpha", "0,1.3407807929942597e+154"],
            ["audit", "--candidate", "ideal", "--beta", "nan,0"],
        ],
    )
    def test_usage_and_coefficient_errors(self, capsys, argv):
        _expect_envelope(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["tomo", "--state", "{s}", "--exact"],
            ["superpose", "--u", "{s}", "--v", "{s}", "--exact"],
        ],
        ids=["tomo", "superpose"],
    )
    def test_exact_mode_keeps_the_tomography_cap(self, tmp_path, capsys, rng, argv):
        # d = 17 is one above MAX_TOMO_DIM; sampled runs were refused already.
        path = tmp_path / "d17.json"
        save_state(path, haar_vector(rng, 17))
        error = _expect_envelope(capsys, [a.format(s=path) for a in argv])
        assert "tomography cap" in error["message"]

    @pytest.mark.parametrize("trials", ["0", "-5"])
    @pytest.mark.parametrize("mode", [[], ["--entangled"]], ids=["single", "entangled"])
    def test_superpose_needs_a_trial(self, tmp_path, capsys, mode, trials):
        # Every superpose report records --trials, so every mode checks it.
        path = tmp_path / "zero.json"
        path.write_text('{"dim": 2, "kind": "vector", "data": [[1.0, 0.0], [0.0, 0.0]]}')
        argv = ["superpose", "--u", str(path), "--v", str(path), "--trials", trials]
        error = _expect_envelope(capsys, argv + mode)
        assert error["message"] == f"need at least one trial, got {trials}"

    def test_exact_superpose_checks_eps(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"dim": 2, "kind": "vector", "data": [[1.0, 0.0], [0.0, 0.0]]}')
        _expect_envelope(
            capsys, ["superpose", "--u", str(path), "--v", str(path), "--exact", "--eps", "nan"]
        )


def _write_state(path, dim, kind, data):
    path.write_text(json.dumps({"dim": dim, "kind": kind, "data": data}))
    return str(path)


def _refused_quietly(capfd, argv):
    """Run the CLI with every warning raised as an error; check the exit-2
    envelope and an empty stderr, and return the error message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capfd.readouterr()
    assert code == 2 and err == ""
    return json.loads(out)["error"]["message"]


class TestStateFiles:
    def test_the_cli_loads_with_load_state(self):
        assert cli._load_density is linalg.load_state

    @pytest.mark.parametrize(
        "kind, data",
        [
            ("vector", [[0.6, 0.0], [0.0, 0.8]]),
            ("density", [[0.36, 0.0], [0.0, -0.48], [0.0, 0.48], [0.64, 0.0]]),
            ("density", [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        ],
        ids=["vector", "pure", "unnormalized"],
    )
    def test_every_accepted_file_is_a_pure_density(self, tmp_path, kind, data):
        state = load_state(_write_state(tmp_path / "s.json", 2, kind, data))
        assert type(state) is PureDensity
        PureDensity(state.matrix)

    def test_a_pure_density_keeps_its_bits(self, tmp_path, rng):
        rho = haar_density(rng, 3)
        save_state(tmp_path / "rho.json", rho)
        assert np.array_equal(load_state(tmp_path / "rho.json").matrix, rho.matrix)

    def test_an_unnormalized_density_is_divided_by_its_trace(self, tmp_path, rng):
        matrix = 3.0 * haar_density(rng, 3).matrix
        save_state(tmp_path / "rho.json", DensityOperator(matrix))
        trace = float(matrix.trace().real)
        assert np.array_equal(load_state(tmp_path / "rho.json").matrix, matrix / trace)

    def test_an_oversized_file_is_refused_before_any_matrix(self, tmp_path, capsys, rng):
        path = tmp_path / "d4000.json"
        save_state(path, haar_vector(rng, 4000))
        tracemalloc.start()
        try:
            error = _expect_envelope(capsys, ["tomo", "--state", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "tomography cap" in error["message"]
        assert peak < 16 * 2**20  # one (4000, 4000) complex array is 256 MB

    @pytest.mark.parametrize(
        "data", [[[1e-320, 0.0]] + [[0.0, 0.0]] * 3, [[1e308, 0.0]] * 4],
        ids=["subnormal", "overflowing"],
    )
    def test_density_trace_out_of_range(self, tmp_path, capfd, data):
        # A subnormal trace has no finite reciprocal; 1e308 + 1e308 overflows.
        path = _write_state(tmp_path / "rho.json", 2, "density", data)
        assert "density trace" in _refused_quietly(capfd, ["tomo", "--state", path])

    def test_a_density_that_is_not_psd_as_given_keeps_that_message(self, tmp_path, capfd):
        # Dividing by the trace 1e-300 would overflow the entries to inf.
        data = [[1e-300, 0.0], [1e10, 0.0], [1e10, 0.0], [0.0, 0.0]]
        path = _write_state(tmp_path / "rho.json", 2, "density", data)
        message = _refused_quietly(capfd, ["tomo", "--state", path])
        assert message == "negative eigenvalue -1.00e+10"

    def test_overflowing_vector_norm(self, tmp_path, capfd):
        path = _write_state(tmp_path / "v.json", 2, "vector", [[1e200, 0.0], [1e200, 0.0]])
        assert _refused_quietly(capfd, ["tomo", "--state", path]) == "norm inf is not 1"

    @pytest.mark.parametrize(
        "content", [b"\xff", b"[" * 100_000], ids=["not_unicode", "nested_too_deeply"]
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["tomo", "--state", "{s}"],
            ["superpose", "--u", "{s}", "--v", "{s}", "--exact"],
            ["audit", "--candidate", "constant", "--x0", "{s}"],
        ],
        ids=["tomo", "superpose", "audit"],
    )
    def test_an_unreadable_file_is_refused(self, tmp_path, capfd, content, argv):
        path = tmp_path / "s.json"
        path.write_bytes(content)
        message = _refused_quietly(capfd, [a.format(s=path) for a in argv])
        assert message.startswith("cannot read state file")

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
    def test_a_unicode_file_is_read_in_any_encoding(self, tmp_path, encoding):
        text = json.dumps({"dim": 2, "kind": "vector", "data": [[0.6, 0.0], [0.0, 0.8]]})
        path = tmp_path / "v.json"
        path.write_bytes(text.encode(encoding))
        assert np.array_equal(load_state(path).matrix, outer(StateVector([0.6, 0.8j])).matrix)

    @pytest.mark.parametrize(
        "data", [[[True, False], [False, False]], [[True, 0.0], [0.0, 0.0]]], ids=["all", "mixed"]
    )
    def test_boolean_amplitudes_are_refused(self, tmp_path, capfd, data):
        path = _write_state(tmp_path / "v.json", 2, "vector", data)
        _refused_quietly(capfd, ["tomo", "--state", path, "--exact"])
