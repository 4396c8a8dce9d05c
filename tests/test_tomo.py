import numpy as np
import pytest

from conftest import haar_density
from supersim import seeding
from supersim.errors import ValidationError
from supersim.linalg import basis_state, outer, trace_distance
from supersim.tomo import (
    MAX_TOMO_DIM,
    StateOracle,
    TomographySchedule,
    _hermitian_basis,
    _inversion_operator,
    born_probabilities,
    eps_vec_from_eps_tr,
    reconstruct,
    schedule_for,
    setting_bases,
    setting_count,
    vector_tomography,
)
from supersim.vecfun import vec_i


class TestSettings:
    def test_bases_orthonormal(self):
        for d in (2, 3, 4):
            for basis in setting_bases(d):
                assert np.allclose(basis.conj().T @ basis, np.eye(d), atol=1e-12)

    def test_setting_count(self):
        assert setting_count(2) == 3
        assert setting_count(3) == 7
        assert setting_count(4) == 13

    def test_born_probabilities(self, rng):
        rho = haar_density(rng, 3)
        for basis in setting_bases(3):
            p = born_probabilities(rho, basis)
            assert np.all(p >= 0) and p.sum() == pytest.approx(1.0)


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
            for s, basis in enumerate(setting_bases(d)):
                stream = seeding.rng_for(7, seeding.SETTING, s)
                expected = stream.multinomial(5000, born_probabilities(rho, basis))
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
    # The scalar row build the stacked one replaced, kept as the reference.
    herm = _hermitian_basis(d)
    rows = []
    for basis in setting_bases(d):
        for m in range(d):
            b = basis[:, m]
            rows.append([np.real(b.conj() @ h @ b) for h in herm])
    return np.array(rows)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_inversion_operator_matches_scalar_build(d):
    assert np.array_equal(_inversion_operator(d), np.linalg.pinv(_reference_rows(d)))


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
