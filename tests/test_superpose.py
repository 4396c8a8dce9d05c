from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_density, haar_vector
from supersim.calibration import TABLE_MAX_N
from supersim.errors import (
    BudgetExceededError,
    DegenerateSuperpositionError,
    ValidationError,
    ZeroFunctionalError,
)
from supersim.linalg import (
    DensityOperator,
    StateVector,
    basis_state,
    outer,
)
from supersim.superpose import (
    EntangledSuperposition,
    SuperpositionSpec,
    _KAPPA_GRID,
    _SHOT_GRID,
    _budget_costs,
    _budget_schedules,
    budget_thresholds,
    copies_budget,
    entangled_superposition,
    figure_of_merit,
    random_superposition,
    superposition_error,
    target_superposition,
    threshold,
    trace_floor,
)
from supersim.tomo import StateOracle, schedule_for

EQUAL = SuperpositionSpec(1 / np.sqrt(2), 1 / np.sqrt(2))


class TestSpec:
    def test_rejects_zero_coefficients(self):
        for alpha in (0.0, np.nan, np.inf, 1j * 1e154, 1e-170):
            with pytest.raises(ValidationError):
                SuperpositionSpec(alpha, 1.0)

    def test_equal_magnitude_detection(self):
        assert EQUAL.equal_magnitudes
        assert SuperpositionSpec(1.0, 1.0j).equal_magnitudes
        assert not SuperpositionSpec(1.0, 2.0).equal_magnitudes


class TestTargetSuperposition:
    def test_plus_state(self):
        out = target_superposition(basis_state(2, 0), basis_state(2, 1), EQUAL, 0.0)
        assert np.allclose(out.matrix, np.full((2, 2), 0.5))

    def test_cancellation_raises(self):
        spec = SuperpositionSpec(1.0, -1.0)
        with pytest.raises(DegenerateSuperpositionError):
            target_superposition(basis_state(2, 0), basis_state(2, 0), spec, 0.0)

    def test_complex_coefficients(self):
        spec = SuperpositionSpec(1.0, 1.0j)
        out = target_superposition(basis_state(2, 0), basis_state(2, 1), spec, 0.0)
        expected = outer(StateVector(np.array([1.0, 1.0j]) / np.sqrt(2)))
        assert np.allclose(out.matrix, expected.matrix)


class TestThresholdAndFloor:
    def test_equal_weights(self):
        assert threshold(EQUAL) == pytest.approx(0.5, abs=1e-15)

    def test_one_two(self):
        assert threshold(SuperpositionSpec(1.0, 2.0)) == pytest.approx(0.4, abs=1e-15)

    def test_small_beta(self):
        assert threshold(SuperpositionSpec(1.0, 1e-3)) == pytest.approx(1e-3, rel=1e-5)

    def test_floor_unequal(self):
        assert trace_floor(SuperpositionSpec(2.0, 1.0), 2) == pytest.approx(1.0)

    def test_floor_equal_half(self):
        assert trace_floor(EQUAL, 2) == pytest.approx(1.0 / 128.0, abs=1e-16)

    def test_floor_equal_unit(self):
        assert trace_floor(SuperpositionSpec(1.0, 1.0), 3) == pytest.approx(1.0 / 144.0)

    @given(
        st.floats(0.1, 3.0, allow_nan=False),
        st.floats(0.1, 3.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_threshold_range(self, a, b):
        assert 0.0 < threshold(SuperpositionSpec(a, b)) <= 0.5 + 1e-12


class TestBudgets:
    def test_equal_branch_target(self):
        t_n, _ = budget_thresholds(EQUAL, 2, 0.2)
        assert t_n == pytest.approx(0.2 / 2048.0, abs=1e-18)
        assert t_n == pytest.approx(9.765625e-5)

    def test_m_target(self):
        _, t_m = budget_thresholds(EQUAL, 2, 0.2)
        assert t_m == pytest.approx(0.2 / (16 / np.sqrt(2)), rel=1e-12)

    def test_monotone_in_eps(self):
        n1, m1 = (s.N for s in copies_budget(EQUAL, 2, 0.5))
        n2, m2 = (s.N for s in copies_budget(EQUAL, 2, 0.1))
        assert n2 >= n1 and m2 >= m1

    def test_unreachable_raises(self):
        with pytest.raises(BudgetExceededError):
            copies_budget(EQUAL, 2, 1e-9)

    def test_eps_domain(self):
        for bad in (0.0, -1.0, 2.0):
            with pytest.raises(ValidationError):
                budget_thresholds(EQUAL, 2, bad)


# The scalar budget search the grid pass replaced, kept as the reference.
# `schedule_for` is pure, so memoizing it changes nothing but the run time.
_reference_schedule = lru_cache(maxsize=None)(schedule_for)


def _reference_smallest_budget(d, cost, target):
    for n in _SHOT_GRID:
        best_kappa, best_cost = None, np.inf
        for kappa in _KAPPA_GRID:
            c = cost(_reference_schedule(d, n, kappa))
            if c < best_cost:
                best_kappa, best_cost = kappa, c
        if best_cost <= target:
            return n, float(best_kappa)
    raise BudgetExceededError(
        f"target {target:.3e} unreachable within {TABLE_MAX_N:.0e} shots"
    )


def _reference_budget_schedules(spec, d, eps):
    t_n, t_m = budget_thresholds(spec, d, eps)
    n, kn = _reference_smallest_budget(d, lambda s: s.eps_vec + 2.0 * s.delta_vec, t_n)
    m, km = _reference_smallest_budget(d, lambda s: 2.0 * s.eps_vec + 4.0 * s.delta_vec, t_m)
    return schedule_for(d, n, kn), schedule_for(d, m, km)


def _outcome(search, spec, d, eps):
    try:
        return search(spec, d, eps)
    except BudgetExceededError as exc:
        return str(exc)


class TestBudgetGrid:
    """The one-pass grid search agrees with the scalar per-cell search."""

    @pytest.mark.parametrize("d", range(2, 17))
    def test_costs_match_scalar_schedules(self, d):
        costs = _budget_costs(d)
        for i, n in enumerate(_SHOT_GRID):
            for j, kappa in enumerate(_KAPPA_GRID):
                s = _reference_schedule(d, n, kappa)
                assert costs[i, j] == s.eps_vec + 2.0 * s.delta_vec
                assert 2.0 * costs[i, j] == 2.0 * s.eps_vec + 4.0 * s.delta_vec

    def test_same_schedules_or_same_refusal(self):
        rng = np.random.default_rng(20261017)
        specs = [
            SuperpositionSpec(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            for _ in range(3)
        ] + [EQUAL, SuperpositionSpec(1.0, 0.97j)]
        chosen = refused = 0
        for d in range(2, 17):
            for eps in (0.01, 0.1, 0.25, 1.0, 1.99):
                for spec in specs:
                    got = _outcome(_budget_schedules, spec, d, eps)
                    assert got == _outcome(_reference_budget_schedules, spec, d, eps)
                    refused += isinstance(got, str)
                    chosen += not isinstance(got, str)
        assert chosen > 0 and refused > 0


class TestRandomSuperposition:
    def test_exact_orthogonal_basis(self):
        u, v = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        out = random_superposition(StateOracle(u), StateOracle(v), EQUAL, None, 1)
        assert out.r == (0, 1)
        assert np.allclose(out.state.matrix, np.full((2, 2), 0.5))

    def test_exact_same_state(self):
        u = outer(basis_state(2, 0))
        out = random_superposition(StateOracle(u), StateOracle(u), EQUAL, None, 1)
        assert np.allclose(out.state.matrix, u.matrix)

    def test_exact_merit_vanishes(self, rng):
        for d in (2, 3):
            for _ in range(10):
                u, v = haar_density(rng, d), haar_density(rng, d)
                spec = SuperpositionSpec(
                    complex(rng.normal(), rng.normal()) + 0.1,
                    complex(rng.normal(), rng.normal()) + 0.1,
                )
                out = random_superposition(StateOracle(u), StateOracle(v), spec, None, 7)
                assert superposition_error(out, u, v, spec) < 1e-9

    def test_global_phase_invariance(self, rng):
        v_amp = haar_vector(rng, 2)
        u = outer(v_amp)
        rotated = outer(StateVector(np.exp(0.9j) * v_amp.amplitudes))
        w = haar_density(rng, 2)
        schedules = copies_budget(EQUAL, 2, 0.25)
        a = random_superposition(StateOracle(u), StateOracle(w), EQUAL, schedules, 11)
        b = random_superposition(StateOracle(rotated), StateOracle(w), EQUAL, schedules, 11)
        assert a.r == b.r
        assert np.array_equal(a.state.matrix, b.state.matrix)

    def test_sampled_merit_small(self, rng):
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        out = random_superposition(
            StateOracle(u), StateOracle(v), EQUAL, copies_budget(EQUAL, 2, 0.25), 13
        )
        assert superposition_error(out, u, v, EQUAL) <= 0.25

    def test_phi_in_range(self, rng):
        u, v = haar_density(rng, 3), haar_density(rng, 3)
        out = random_superposition(StateOracle(u), StateOracle(v), EQUAL, None, 3)
        assert 0.0 <= out.phi_r < 2 * np.pi


class TestEntangled:
    def test_exact_single_block(self):
        u, v = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        ent = entangled_superposition(
            StateOracle(u), StateOracle(v), EQUAL, None, 1, trials=5
        )
        assert len(ent.blocks) == 1
        (r, (w, state)), = ent.blocks.items()
        assert r == (0, 1) and w == 1.0
        assert np.allclose(state.matrix, np.full((2, 2), 0.5))

    def test_uniform_state_multiple_blocks(self):
        d = 3
        amps = np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d)
        u = outer(StateVector(amps))
        v = outer(StateVector(amps.conj()))
        ent = entangled_superposition(
            StateOracle(u), StateOracle(v), EQUAL, copies_budget(EQUAL, d, 1.5), 17, trials=40
        )
        assert len(ent.blocks) >= 2

    def test_weights_sum_to_one(self, rng):
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        ent = entangled_superposition(
            StateOracle(u), StateOracle(v), EQUAL, copies_budget(EQUAL, 2, 1.0), 5, trials=20
        )
        assert sum(w for w, _ in ent.blocks.values()) == pytest.approx(1.0)

    def test_negative_weight_rejected(self, rng):
        state = haar_density(rng, 2)
        with pytest.raises(ValidationError):
            EntangledSuperposition(blocks={(0, 0): (-0.5, state), (0, 1): (1.5, state)})


class TestFigureOfMerit:
    def test_perfect_match(self, rng):
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        phis = {(0, 0): 1.1}
        from supersim.vecfun import canonical_vec

        target = target_superposition(canonical_vec(u), canonical_vec(v), EQUAL, 1.1)
        outcomes = {(0, 0): (1.0, DensityOperator(0.7 * target.matrix))}
        assert figure_of_merit(outcomes, u, v, EQUAL, phis) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_phase_scores_two(self):
        u, v = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        minus = target_superposition(basis_state(2, 0), basis_state(2, 1), EQUAL, np.pi)
        outcomes = {(0, 0): (1.0, DensityOperator(minus.matrix))}
        assert figure_of_merit(outcomes, u, v, EQUAL, {(0, 0): 0.0}) == pytest.approx(2.0)

    def test_zero_trace_outcome_harmless(self, rng):
        u, v = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        plus = target_superposition(basis_state(2, 0), basis_state(2, 1), EQUAL, 0.0)
        outcomes = {
            (0, 0): (0.5, DensityOperator(plus.matrix)),
            (0, 1): (0.5, DensityOperator(np.zeros((2, 2)))),
        }
        merit = figure_of_merit(outcomes, u, v, EQUAL, {(0, 0): 0.0, (0, 1): 0.0})
        assert merit == pytest.approx(0.0, abs=1e-12)

    def test_zero_success_raises(self, rng):
        u, v = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        outcomes = {(0, 0): (1.0, DensityOperator(np.zeros((2, 2))))}
        with pytest.raises(ZeroFunctionalError):
            figure_of_merit(outcomes, u, v, EQUAL)


class TestRenormalizationInequality:
    @given(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=6, max_size=6),
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=6, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_vectors(self, a_parts, b_parts):
        a = np.array(a_parts[:3]) + 1j * np.array(a_parts[3:])
        b = np.array(b_parts[:3]) + 1j * np.array(b_parts[3:])
        if np.linalg.norm(a) < 1e-3 or np.linalg.norm(b) < 1e-3:
            return
        lhs = np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b))
        rhs = 2.0 / np.linalg.norm(a) * np.linalg.norm(a - b)
        assert lhs <= rhs + 1e-12

    def test_trace_norm_matrices(self, rng):
        for _ in range(50):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = a @ a.conj().T
            b = b @ b.conj().T
            tn = lambda m: np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).sum()
            lhs = tn(a / tn(a) - b / tn(b))
            assert lhs <= 2.0 / tn(a) * tn(a - b) + 1e-10
