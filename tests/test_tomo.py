import numpy as np
import pytest

from conftest import haar_density
from supersim import seeding
from supersim.errors import ValidationError
from supersim.linalg import StateVector, basis_state, outer, trace_distance
from supersim.tomo import (
    MAX_TOMO_DIM,
    StateOracle,
    TomographySchedule,
    _from_coordinates,
    _inversion_operator,
    _probabilities,
    eps_vec_from_eps_tr,
    reconstruct,
    schedule_for,
    setting_count,
    vector_tomography,
)
from supersim.vecfun import vec_i

# The measurement model written out in full: the dense setting unitaries, the
# dense Hermitian basis of the coordinates, and the generic Born rule.  The
# module describes the same family by index pairs; these are its reference.


def _reference_bases(d):
    bases = [np.eye(d, dtype=np.complex128)]
    s = 1.0 / np.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            for phase in (1.0, 1.0j):
                b = np.eye(d, dtype=np.complex128)
                b[j, j], b[k, j] = s, s * phase
                b[j, k], b[k, k] = s, -s * phase
                bases.append(b)
    return bases


def _reference_hermitian_basis(d):
    ops = []
    for i in range(d):
        e = np.zeros((d, d), dtype=np.complex128)
        e[i, i] = 1.0
        ops.append(e)
    for j in range(d):
        for k in range(j + 1, d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[j, k] = e[k, j] = 1.0
            ops.append(e)
            e = np.zeros((d, d), dtype=np.complex128)
            e[j, k], e[k, j] = -1.0j, 1.0j
            ops.append(e)
    return ops


def _reference_born(matrix, basis):
    return np.einsum("ji,jk,ki->i", basis.conj(), matrix, basis).real


def _reference_pvals(rho, basis):
    # The sampler's multinomial weights: clipped at zero, renormalized.
    p = np.clip(_reference_born(rho.matrix, basis), 0.0, None)
    return p / p.sum()


def _reference_states(rng, d):
    uniform = StateVector(np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128))
    basis = [basis_state(d, i) for i in (0, d - 1)]
    return [haar_density(rng, d) for _ in range(5)] + [outer(v) for v in basis + [uniform]]


class TestSettings:
    def test_bases_orthonormal(self):
        for d in (2, 3, 4):
            for basis in _reference_bases(d):
                assert np.allclose(basis.conj().T @ basis, np.eye(d), atol=1e-12)

    def test_setting_count(self):
        assert setting_count(2) == 3
        assert setting_count(3) == 7
        assert setting_count(4) == 13
        for d in (2, 5, 16):
            assert setting_count(d) == len(_reference_bases(d))

    def test_born_probabilities(self, rng):
        # The closed form rounds apart from the generic Born rule by at most
        # one double epsilon (2.2e-16).
        for d in (2, 3, 5, 8, 16):
            for rho in _reference_states(rng, d):
                p = _probabilities(rho.matrix)
                ref = np.array([_reference_born(rho.matrix, b) for b in _reference_bases(d)])
                assert p.shape == (setting_count(d), d)
                assert np.max(np.abs(p - ref)) <= np.finfo(float).eps, d
                assert np.all(p >= 0)
                assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_from_coordinates_matches_the_accumulate_loop(self, rng, d):
        for _ in range(10):
            theta = rng.normal(size=d * d)
            theta[rng.random(d * d) < 0.2] = 0.0
            theta[rng.random(d * d) < 0.2] = -0.0
            mat = np.zeros((d, d), dtype=np.complex128)
            for coeff, h in zip(theta, _reference_hermitian_basis(d)):
                mat += coeff * h
            assert _from_coordinates(theta, d).tobytes() == mat.tobytes()


class TestSchedule:
    def test_minimum_shots(self):
        with pytest.raises(ValidationError):
            TomographySchedule(N=10, eps_tr=0.1, delta_tr=0.05, eps_vec=0.2, delta_vec=0.05)

    def test_eps_monotone_in_shots(self):
        shots = [100, 1000, 10**4, 10**5, 10**6, 10**8]
        for d in (2, 3):
            radii = [schedule_for(d, n).eps_tr for n in shots]
            assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_vec_radius_formula(self):
        s = schedule_for(2, 10**4)
        assert s.eps_vec == pytest.approx(eps_vec_from_eps_tr(2, s.eps_tr))

    def test_widening_shrinks_failure(self):
        base = schedule_for(2, 10**4, kappa=1.0)
        wide = schedule_for(2, 10**4, kappa=3.0)
        assert wide.eps_tr > base.eps_tr
        assert wide.delta_vec < base.delta_vec


class TestSampling:
    def test_deterministic(self, rng):
        rho = haar_density(rng, 2)
        a = StateOracle(rho).sample(1000, seed=42)
        b = StateOracle(rho).sample(1000, seed=42)
        assert np.array_equal(a, b)

    def test_seed_changes_counts(self, rng):
        rho = haar_density(rng, 2)
        a = StateOracle(rho).sample(1000, seed=1)
        b = StateOracle(rho).sample(1000, seed=2)
        assert not np.array_equal(a, b)

    def test_counts_sum_to_shots(self, rng):
        # Row s is drawn from its own stream (seed, SETTING, s), whatever
        # computes the Born probabilities.
        for d in (2, 3, 8):
            rho = haar_density(rng, d)
            counts = StateOracle(rho).sample(5000, 7)
            assert counts.shape == (setting_count(d), d)
            assert np.all(counts.sum(axis=1) == 5000)
            for s, basis in enumerate(_reference_bases(d)):
                stream = seeding.rng_for(7, seeding.SETTING, s)
                expected = stream.multinomial(5000, _reference_pvals(rho, basis))
                assert np.array_equal(counts[s], expected), (d, s)


class TestReconstruct:
    def test_exact_frequencies_recover_state(self, rng):
        for d in (2, 3, 4):
            rho = haar_density(rng, d)
            est = vector_tomography(StateOracle(rho), None, seed=0)
            assert trace_distance(est.x, rho) < 1e-9

    def test_error_shrinks_with_shots(self, rng):
        rho = haar_density(rng, 2)
        errs = []
        for n in (100, 10**4, 10**6):
            est = reconstruct(StateOracle(rho).sample(n, seed=3))
            errs.append(trace_distance(est, rho))
        assert errs[2] < errs[0]


def _reference_rows(d):
    # The scalar row build, kept as the reference: row s*d + m, column c is
    # the Born rule of setting s, outcome m, on the c-th dense basis matrix.
    herm = _reference_hermitian_basis(d)
    rows = []
    for basis in _reference_bases(d):
        for m in range(d):
            b = basis[:, m]
            rows.append([np.real(b.conj() @ h @ b) for h in herm])
    return np.array(rows)


def _stacked_reference_rows(d):
    # The same rows, one stacked product per setting: the scalar build takes
    # seconds at d = 16.
    herm = np.stack(_reference_hermitian_basis(d))
    return np.concatenate([
        (basis.conj() * (herm @ basis)).sum(axis=1).real.T for basis in _reference_bases(d)
    ])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_reference_rows_match_scalar_build(d):
    assert np.array_equal(_stacked_reference_rows(d), _reference_rows(d))


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_inversion_operator_matches_scalar_build(d):
    rows = _stacked_reference_rows(d) if d == 16 else _reference_rows(d)
    assert np.array_equal(_inversion_operator(d), np.linalg.pinv(rows))


class TestGuarantee:
    def test_success_rate_d2(self, rng):
        schedule = schedule_for(2, 10**4)
        hits = 0
        for i in range(50):
            rho = haar_density(rng, 2)
            est = vector_tomography(
                StateOracle(rho), schedule, seeding.child_seed(i, seeding.TRIAL, 0)
            )
            err = np.linalg.norm(est.v.amplitudes - vec_i(rho, est.r).amplitudes)
            hits += err <= schedule.eps_vec
        assert hits / 50 >= 0.9

    def test_paired_estimate_keeps_index(self, rng):
        rho = haar_density(rng, 2)
        schedule = schedule_for(2, 10**5)
        first = vector_tomography(StateOracle(rho), schedule, seed=1)
        second = vector_tomography(StateOracle(rho), schedule, seed=2, paired_with=first.x)
        assert second.r == first.r

    def test_vector_matches_truth_index(self, rng):
        rho = haar_density(rng, 3)
        schedule = schedule_for(3, 10**5)
        est = vector_tomography(StateOracle(rho), schedule, seed=5)
        truth = vec_i(rho, est.r)
        assert np.linalg.norm(est.v.amplitudes - truth.amplitudes) <= schedule.eps_vec


class TestOracleDiscipline:
    def test_density_not_reachable(self):
        oracle = StateOracle(outer(basis_state(2, 0)))
        assert not hasattr(oracle, "rho")
        with pytest.raises(AttributeError):
            oracle.__rho

    def test_dimension_cap(self, rng):
        StateOracle(haar_density(rng, MAX_TOMO_DIM))
        with pytest.raises(ValidationError):
            StateOracle(haar_density(rng, MAX_TOMO_DIM + 1))
