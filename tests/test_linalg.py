import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import haar_density, haar_vector, one_candidate_at_a_time
from supersim.config import TOL
from supersim.errors import (
    DimensionMismatchError,
    NormalizationError,
    ValidationError,
)
from supersim.linalg import (
    DensityOperator,
    PureDensity,
    StateVector,
    basis_state,
    canonical_phase,
    dominant_pure,
    load_state,
    outer,
    save_state,
    trace_distance,
)


def complex_arrays(dim):
    return st.lists(
        st.tuples(
            st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
        ),
        min_size=dim,
        max_size=dim,
    ).map(lambda pairs: np.array([complex(a, b) for a, b in pairs]))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            StateVector(np.array([1.0, 1.0]))

    def test_amplitudes_read_only(self):
        v = basis_state(2, 0)
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0.0


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.array([[0.5, 0.8], [0.8, 0.5]]))

    def test_zero_operator_allowed(self):
        z = DensityOperator(np.zeros((2, 2)))
        assert z.trace == 0.0

    def test_pure_rejects_mixed(self):
        with pytest.raises(ValidationError):
            PureDensity(np.eye(2) / 2)


class TestOuter:
    def test_projector(self, rng):
        for d in (2, 3, 5):
            rho = haar_density(rng, d)
            assert rho.trace == pytest.approx(1.0)
            assert np.allclose(rho.matrix @ rho.matrix, rho.matrix)

    def test_phase_invariance(self, rng):
        v = haar_vector(rng, 3)
        rotated = StateVector(np.exp(0.7j) * v.amplitudes)
        assert np.allclose(outer(v).matrix, outer(rotated).matrix)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a, b = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        assert trace_distance(a.matrix, b.matrix) == pytest.approx(2.0)

    def test_identical(self, rng):
        rho = haar_density(rng, 3).matrix
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_overlap_identity(self, rng):
        for d in (2, 3, 4, 8):
            for _ in range(50):
                u, w = haar_vector(rng, d), haar_vector(rng, d)
                overlap = abs(np.vdot(u.amplitudes, w.amplitudes)) ** 2
                dist = trace_distance(outer(u).matrix, outer(w).matrix)
                assert abs((1 - overlap) - dist**2 / 4) < 1e-10

    def test_metric_properties(self, rng):
        for _ in range(25):
            a, b, c = (haar_density(rng, 3).matrix for _ in range(3))
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(outer(basis_state(2, 0)).matrix, outer(basis_state(3, 0)).matrix)

    def test_stack_is_pairwise(self, rng):
        a = np.stack([haar_density(rng, 3).matrix for _ in range(6)])
        b = np.stack([haar_density(rng, 3).matrix for _ in range(6)])
        assert np.array_equal(trace_distance(a, b), [trace_distance(x, y) for x, y in zip(a, b)])


class TestTensor:
    def test_power_lipschitz(self, rng):
        # D(rho^n, sigma^n) <= n * D(rho, sigma)
        for _ in range(100):
            rho, sigma = haar_density(rng, 2), haar_density(rng, 2)
            rho, sigma = rho.matrix, sigma.matrix
            base = trace_distance(rho, sigma)
            rho_n, sigma_n = rho, sigma
            for n in range(2, 5):
                rho_n, sigma_n = np.kron(rho_n, rho), np.kron(sigma_n, sigma)
                assert trace_distance(rho_n, sigma_n) <= n * base + 1e-10


class TestCanonicalPhase:
    @given(complex_arrays(4))
    # An entry at the threshold must not be taken for the pivot: multiplying
    # it by a unit phase can round its magnitude just above the threshold.
    @example(np.array([0, 1e-12j, 1e-10 - 1e-10j, 1j]))
    def test_first_entry_real_nonnegative(self, v):
        if np.max(np.abs(v)) < 1e-6:
            return
        out = canonical_phase(v)
        # The pivot is chosen on the input, with the function's own threshold.
        lead = out[np.abs(v) > TOL.nonzero][0]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


class TestDominantPure:
    def test_tie_break_deterministic(self):
        assert np.allclose(
            dominant_pure(np.eye(2) / 2), outer(basis_state(2, 0)).matrix
        )

    @pytest.mark.parametrize("d", range(2, 17))
    def test_matches_one_candidate_at_a_time(self, rng, d):
        inputs = [np.eye(d) / d, np.diag([0.5, 0.5] + [0.0] * (d - 2))]
        for k in sorted({1, 2, d // 2, d - 1} - {0}):
            g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
            q = np.linalg.qr(g)[0]
            inputs.append(q @ q.conj().T)  # rank-k projector: k tied top eigenvalues
        for _ in range(5):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            inputs.append(g + g.conj().T)
        want = [one_candidate_at_a_time(m) for m in inputs]
        assert np.array_equal([dominant_pure(m) for m in inputs], want)
        assert np.array_equal(dominant_pure(np.stack(inputs)), want)

    def test_recovers_dominant_eigenvector(self, rng):
        v = haar_vector(rng, 3)
        noisy = 0.9 * outer(v).matrix + 0.1 * np.eye(3) / 3
        est = dominant_pure(noisy)
        assert trace_distance(est, outer(v).matrix) < 1e-9


class TestStateIO:
    def test_vector_roundtrip(self, tmp_path, rng):
        v = haar_vector(rng, 3)
        path = tmp_path / "v.json"
        save_state(path, v)
        assert np.allclose(load_state(path).matrix, outer(v).matrix)

    def test_density_roundtrip(self, tmp_path, rng):
        rho = haar_density(rng, 2)
        path = tmp_path / "rho.json"
        save_state(path, rho)
        assert np.allclose(load_state(path).matrix, rho.matrix)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_state(path)

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "kind": "vector", "data": [[1, 0]]}))
        with pytest.raises(ValidationError):
            load_state(path)
