"""The trust boundary: public constructors and state files reject bad input,
derived values skip the checks but satisfy them, and the CLI turns every
rejection into the JSON error envelope with exit code 2."""

import json

import numpy as np
import pytest

import supersim
from conftest import haar_density, haar_vector
from supersim import calibration
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
    partial_trace,
    save_state,
    tensor,
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
        prod = tensor(u, v)
        noisy = u.matrix + 0.01 * rng.normal(size=(2, 2))
        derived = [
            (PureDensity, u),
            (PureDensity, dominant_pure(noisy)),
            (DensityOperator, prod),
            (DensityOperator, partial_trace(prod, [1], [2, 3])),
        ]
        for cls, state in derived:
            assert type(state) is cls
            assert not state.matrix.flags.writeable
            cls(state.matrix)

    def test_derived_vectors_satisfy_public_constructors(self, rng):
        spec = SuperpositionSpec(0.6, 0.8j)
        for d in (2, 3, 5):
            x, y = haar_density(rng, d), haar_density(rng, d)
            vectors = [canonical_vec(x)] + [vec_i(x, i) for i in range(d)]
            for v in vectors:
                assert type(v) is StateVector
                assert not v.amplitudes.flags.writeable
                StateVector(v.amplitudes)
            states = [
                _combine(vec_i(x, 0), vec_i(y, d - 1), spec, d),
                target_superposition(canonical_vec(x), canonical_vec(y), spec, 1.3),
            ]
            for state in states:
                assert type(state) is PureDensity
                PureDensity(state.matrix)

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
        ],
    )
    def test_malformed_state_file(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        _expect_envelope(capsys, ["tomo", "--state", str(path), "--shots", "1000"])

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

    def test_exact_superpose_checks_eps(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"dim": 2, "kind": "vector", "data": [[1.0, 0.0], [0.0, 0.0]]}')
        _expect_envelope(
            capsys, ["superpose", "--u", str(path), "--v", str(path), "--exact", "--eps", "nan"]
        )
