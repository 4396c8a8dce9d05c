import numpy as np
import pytest

from conftest import haar_density, haar_vector, one_candidate_at_a_time, ref_canonical_vec
from supersim import seeding
from supersim.config import TOL
from supersim.errors import ValidationError
from supersim.linalg import StateVector, basis_state, dominant_pure, outer, outers
from supersim.vecfun import (
    canonical_vec,
    discontinuity_probe,
    select_r,
    select_r_paired,
    vec_i,
)


def recompose(vec):
    return np.outer(vec, vec.conj())


class TestCanonicalVec:
    def test_reproduces_density(self, rng):
        for d in (2, 3, 5):
            for _ in range(20):
                rho = haar_density(rng, d).matrix
                v = canonical_vec(rho)
                assert np.allclose(recompose(v), rho, atol=1e-10)

    def test_phase_convention(self, rng):
        rho = haar_density(rng, 4)
        lead = canonical_vec(rho.matrix)
        lead = lead[np.abs(lead) > 1e-12][0]
        assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_phase_invariance(self, rng):
        v = haar_vector(rng, 3)
        rotated = StateVector(np.exp(1.3j) * v.amplitudes)
        assert np.allclose(
            canonical_vec(outer(v).matrix), canonical_vec(outer(rotated).matrix)
        )


class TestVecI:
    def test_minus_state_column_one(self):
        minus = StateVector(np.array([1.0, -1.0]) / np.sqrt(2))
        v = vec_i(outer(minus).matrix, 1)
        assert np.allclose(v, np.array([-1.0, 1.0]) / np.sqrt(2))

    def test_falls_through_zero_column(self):
        rho = outer(basis_state(3, 2)).matrix
        v = vec_i(rho, 0)
        assert np.allclose(recompose(v), rho)

    def test_reproduces_density_any_index(self, rng):
        rho = haar_density(rng, 4).matrix
        for i in range(4):
            assert np.allclose(recompose(vec_i(rho, i)), rho, atol=1e-10)

    def test_out_of_range(self, rng):
        with pytest.raises(ValidationError):
            vec_i(haar_density(rng, 2).matrix, 2)


class TestSelectR:
    def test_smallest_qualifying_index(self):
        rho = outer(StateVector(np.sqrt(np.array([0.2, 0.5, 0.3]))))
        assert select_r(rho.matrix) == 1

    def test_uniform_diagonals(self):
        plus = StateVector(np.ones(2) / np.sqrt(2))
        assert select_r(outer(plus).matrix) == 0

    def test_always_qualifies(self, rng):
        for _ in range(50):
            rho = haar_density(rng, 5).matrix
            r = select_r(rho)
            assert rho[r, r].real >= 1 / 5 - 1e-12

    def test_paired_rule_reuses_close(self, rng):
        rho = outer(StateVector(np.sqrt(np.array([0.45, 0.55])))).matrix
        near = outer(StateVector(np.sqrt(np.array([0.46, 0.54])))).matrix
        assert select_r_paired(rho, select_r(rho), near)[0] == select_r(rho)

    def test_paired_rule_far(self):
        x = outer(basis_state(2, 0)).matrix
        y = outer(basis_state(2, 1)).matrix
        assert select_r_paired(x, select_r(x), y)[0] == select_r(y) == 1


class TestDiscontinuityProbe:
    def test_near_two(self):
        assert 1.99 <= discontinuity_probe(1e-4) <= 2.0

    def test_closed_form(self):
        for eps in (1e-6, 1e-4, 0.01, 0.3, 0.9):
            gap = discontinuity_probe(eps)
            assert gap**2 == pytest.approx(2 + 2 * np.sqrt(1 - eps), abs=1e-12)

    def test_domain(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                discontinuity_probe(bad)


# The Python scans the stack kernels replaced, one matrix at a time, kept as
# the reference.
def ref_vec_i(x, i):
    d = x.shape[0]
    diag = x.diagonal().real
    for step in range(d):
        j = (i + step) % d
        if diag[j] > TOL.nonzero:
            v = x[:, j] / np.sqrt(diag[j])
            return v / np.linalg.norm(v)
    raise ValidationError("no diagonal entry above threshold; corrupted input")


def ref_select_r(x):
    d = x.shape[0]
    diag = x.diagonal().real
    for i in range(d):
        if diag[i] >= 1.0 / d - TOL.nonzero:
            return i
    raise AssertionError("a unit-trace matrix has a diagonal of at least 1/d")


def ref_select_r_paired(x, y):
    close = np.sum(np.abs(np.linalg.eigvalsh(x - y))) < 1.0 / (2 * x.shape[0])
    return ref_select_r(x if close else y)


def kernel_cases(d):
    """Haar states, tie states (every diagonal exactly 1/d), states with zero
    diagonals, and near-ties whose diagonals are 1/d or one ulp either side."""
    rng = np.random.default_rng(1000 + d)
    haar = outers(np.array([seeding.haar_state(rng, d) for _ in range(20)]))
    tie = outers(np.exp(2j * np.pi * rng.uniform(size=(10, d))) / np.sqrt(d))
    tie[:, np.arange(d), np.arange(d)] = 1.0 / d
    near = tie.copy()
    toward = rng.choice([0.0, 1.0 / d, 1.0], (10, d))
    near[:, np.arange(d), np.arange(d)] = np.nextafter(1.0 / d, toward)
    kets = np.array([seeding.haar_state(rng, d) for _ in range(10)])
    kets[rng.uniform(size=kets.shape) < 0.5] = 0.0
    kets[:, -1] += 0.5
    zeros = outers(kets / np.linalg.norm(kets, axis=1)[:, None])
    return np.concatenate((haar, tie, near, zeros))


DIMS = [2, 3, 5, 8, 16]


class TestStackKernelsMatchTheScans:
    """Each stack kernel gives every row the bits of the scan on that row alone,
    both as one stack and one matrix at a time."""

    @pytest.mark.parametrize("d", DIMS)
    def test_vec_i(self, d):
        xs = kernel_cases(d)
        for i in range(d):
            want = [ref_vec_i(x, i) for x in xs]
            assert np.array_equal(vec_i(xs, i), want)
            assert np.array_equal([vec_i(x, i) for x in xs], want)
        idx = np.arange(len(xs)) % d
        assert np.array_equal(vec_i(xs, idx), [ref_vec_i(x, i) for x, i in zip(xs, idx)])

    @pytest.mark.parametrize("d", DIMS)
    def test_canonical_vec(self, d):
        xs = kernel_cases(d)
        want = [ref_canonical_vec(x) for x in xs]
        assert np.array_equal(canonical_vec(xs), want)
        assert np.array_equal([canonical_vec(x) for x in xs], want)

    @pytest.mark.parametrize("d", DIMS)
    def test_select_r(self, d):
        xs = kernel_cases(d)
        want = [ref_select_r(x) for x in xs]
        assert np.array_equal(select_r(xs), want)
        assert [select_r(x) for x in xs] == want

    @pytest.mark.parametrize("d", DIMS)
    def test_select_r_paired(self, d):
        xs = kernel_cases(d)
        rng = np.random.default_rng(d)
        noise = rng.normal(size=xs.shape) * 0.3 / d**2
        for ys in (dominant_pure(xs + noise + noise.swapaxes(1, 2)), xs[rng.permutation(len(xs))]):
            want = [ref_select_r_paired(x, y) for x, y in zip(xs, ys)]
            assert np.array_equal(select_r_paired(xs, select_r(xs), ys)[0], want)
            assert [select_r_paired(x, select_r(x), y)[0] for x, y in zip(xs, ys)] == want

    @pytest.mark.parametrize("d", DIMS)
    def test_dominant_pure(self, d):
        xs = kernel_cases(d)
        rng = np.random.default_rng(d)
        noise = rng.normal(size=xs.shape) + 1j * rng.normal(size=xs.shape)
        inputs = np.concatenate((xs, xs + 0.01 * (noise + noise.conj().swapaxes(1, 2)),
                                 np.eye(d)[None] / d))
        want = [one_candidate_at_a_time(m) for m in inputs]
        assert np.array_equal(dominant_pure(inputs), want)
        assert np.array_equal([dominant_pure(m) for m in inputs], want)
