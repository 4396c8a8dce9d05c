from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_density, haar_vector
from supersim import seeding, superpose, tomo, vecfun
from supersim.calibration import TABLE_MAX_N, _dim_entry, tail_exponent
from supersim.errors import (
    BudgetExceededError,
    DegenerateSuperpositionError,
    DimensionMismatchError,
    InvariantViolation,
    ValidationError,
    ZeroFunctionalError,
)
from supersim.linalg import StateVector, basis_state, outer
from supersim.superpose import (
    TRIAL_CHUNK,
    SuperpositionSpec,
    _KAPPA_GRID,
    _SHOT_GRID,
    _budget_costs,
    _budget_schedules,
    _pair_targets,
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
from supersim.tomo import (
    DELTA_TR,
    StateOracle,
    TomographySchedule,
    schedule_for,
    vector_tomography,
)
from supersim.vecfun import canonical_vec, vec_i

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
        out = target_superposition(np.eye(2)[0], np.eye(2)[1], EQUAL, 0.0)
        assert np.allclose(out, np.full((2, 2), 0.5))

    def test_cancellation_raises(self):
        spec = SuperpositionSpec(1.0, -1.0)
        with pytest.raises(DegenerateSuperpositionError):
            target_superposition(np.eye(2)[0], np.eye(2)[0], spec, 0.0)

    def test_complex_coefficients(self):
        spec = SuperpositionSpec(1.0, 1.0j)
        out = target_superposition(np.eye(2)[0], np.eye(2)[1], spec, 0.0)
        expected = outer(StateVector(np.array([1.0, 1.0j]) / np.sqrt(2)))
        assert np.allclose(out, expected.matrix)


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


# The scalar radius arithmetic and budget search that the array radius
# formula and the grid pass replaced, kept as the reference.  The schedule is
# pure, so memoizing it changes nothing but the run time.
def _reference_lookup_constant(d, N):
    cells = _dim_entry(d)["cells"]
    best = cells[0][1]
    for grid_n, c in cells:
        if grid_n <= N:
            best = c
    return float(best)


@lru_cache(maxsize=None)
def _reference_schedule(d, N, kappa=1.0):
    c = _reference_lookup_constant(d, N)
    eps_tr = kappa * c * d / np.sqrt(N)
    delta = DELTA_TR * np.exp(-tail_exponent(d) * (kappa**2 - 1.0))
    delta = max(delta, 1e-300)
    eps_vec = (np.sqrt(d) + 0.5) * eps_tr + 0.25 * np.float_power(eps_tr, 2)
    return TomographySchedule(
        N=int(N),
        eps_tr=float(eps_tr),
        delta_tr=float(delta),
        eps_vec=float(eps_vec),
        delta_vec=float(delta),
    )


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
    return _reference_schedule(d, n, kn), _reference_schedule(d, m, km)


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
                assert schedule_for(d, n, float(kappa)) == s

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
        assert np.allclose(out.state, np.full((2, 2), 0.5))

    def test_exact_same_state(self):
        u = outer(basis_state(2, 0))
        out = random_superposition(StateOracle(u), StateOracle(u), EQUAL, None, 1)
        assert np.allclose(out.state, u.matrix)

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
        assert np.array_equal(a.state, b.state)

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

    def test_oracles_of_different_dimensions(self, rng):
        u, v = haar_density(rng, 2), haar_density(rng, 3)
        with pytest.raises(DimensionMismatchError, match="dims 2 and 3 differ"):
            random_superposition(StateOracle(u), StateOracle(v), EQUAL, None, 3)


class TestEntangled:
    def test_exact_single_block(self):
        u, v = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        weights = entangled_superposition(
            StateOracle(u), StateOracle(v), EQUAL, None, 1, trials=5
        )
        assert weights == {(0, 1): 1.0}
        assert np.allclose(_pair_targets(u, v, [(0, 1)], EQUAL), np.full((1, 2, 2), 0.5))

    def test_uniform_state_multiple_blocks(self):
        d = 3
        amps = np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d)
        u = outer(StateVector(amps))
        v = outer(StateVector(amps.conj()))
        blocks = entangled_superposition(
            StateOracle(u), StateOracle(v), EQUAL, copies_budget(EQUAL, d, 1.5), 17, trials=40
        )
        assert len(blocks) >= 2

    def test_weights_sum_to_one(self, rng):
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        weights = entangled_superposition(
            StateOracle(u), StateOracle(v), EQUAL, copies_budget(EQUAL, 2, 1.0), 5, trials=20
        )
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_needs_a_trial(self):
        u = StateOracle(outer(basis_state(2, 0)))
        with pytest.raises(ValidationError, match="at least one trial, got 0"):
            entangled_superposition(u, u, EQUAL, None, 1, trials=0)



def reference_entangled(u, v, spec, schedules, seed, trials):
    """The per-trial loop the stacked trials replaced, kept as the reference:
    each trial runs both stages on its own seed, and each block state is the
    noiseless output at the block's index pair."""
    counts = {}
    for t in range(trials):
        trial_seed = seeding.child_seed(seed, seeding.TRIAL, t)
        est_x = vector_tomography(
            StateOracle(u), schedules[0], [seeding.child_seed(trial_seed, seeding.RUN, 0)]
        )
        est_y = vector_tomography(
            StateOracle(v), schedules[1], [seeding.child_seed(trial_seed, seeding.RUN, 1)],
            paired_with=est_x if spec.equal_magnitudes else None,
        )
        r = (int(est_x.r[0]), int(est_y.r[0]))
        counts[r] = counts.get(r, 0) + 1
    blocks = {}
    for r, c in sorted(counts.items()):
        w = abs(spec.alpha) * vec_i(u.matrix, r[0]) + abs(spec.beta) * vec_i(v.matrix, r[1])
        w = w / np.linalg.norm(w)
        blocks[r] = (c / trials, np.outer(w, w.conj()))
    return blocks


class TestEntangledStack:
    """The trials run as stacks of TRIAL_CHUNK seeds and give the weights of
    the per-trial loop, bit for bit; the targets of the measured index pairs
    are the loop's noiseless block states."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "spec", [EQUAL, SuperpositionSpec(0.8, 0.6j)], ids=["equal", "unequal"]
    )
    def test_blocks_match_the_per_trial_loop(self, d, spec):
        rng = np.random.default_rng(40 + d)
        # A uniform-magnitude u splits its trials over several index pairs, and
        # v sits at trace distance 1/(2d) from u, the paired index rule's
        # threshold, so the rule takes both of its branches.
        amps = np.exp(2j * np.pi * rng.uniform(size=d)) / np.sqrt(d)
        w = haar_vector(rng, d).amplitudes
        w = w - np.vdot(amps, w) * amps
        t = np.arcsin(1 / (4 * d))
        u = outer(StateVector(amps))
        v = outer(StateVector(np.cos(t) * amps + np.sin(t) * w / np.linalg.norm(w)))
        schedules = copies_budget(spec, d, 1.5)
        trials = TRIAL_CHUNK + 44
        got = entangled_superposition(StateOracle(u), StateOracle(v), spec, schedules, 9, trials)
        want = reference_entangled(u, v, spec, schedules, 9, trials)
        assert list(got) == list(want)
        assert len(want) >= 2
        assert list(got.values()) == [w for w, _ in want.values()]
        states = _pair_targets(u, v, list(got), spec)
        np.testing.assert_allclose(states, [s for _, s in want.values()], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trials, calls", [(10, 2), (TRIAL_CHUNK, 2), (TRIAL_CHUNK + 1, 4)])
    def test_two_purifications_per_chunk(self, monkeypatch, rng, trials, calls):
        counted = []

        def counting(matrix):
            counted.append(matrix.shape)
            return purify(matrix)

        purify = tomo.dominant_pure
        monkeypatch.setattr(tomo, "dominant_pure", counting)
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        entangled_superposition(
            StateOracle(u), StateOracle(v), EQUAL, copies_budget(EQUAL, 2, 1.0), 5, trials
        )
        assert len(counted) == calls

    @pytest.mark.parametrize("trials, chunks", [(10, 1), (TRIAL_CHUNK + 1, 2)])
    def test_one_pair_distance_per_chunk(self, monkeypatch, rng, trials, chunks):
        # Equal magnitudes take the paired index rule; its distances also feed
        # the vector transfer check, so each chunk measures them once.
        counted = []

        def counting(a, b):
            counted.append(a.shape)
            return distance(a, b)

        distance = vecfun.trace_distance
        for module in (vecfun, superpose):
            monkeypatch.setattr(module, "trace_distance", counting)
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        entangled_superposition(
            StateOracle(u), StateOracle(v), EQUAL, copies_budget(EQUAL, 2, 1.0), 5, trials
        )
        assert len(counted) == chunks

    def test_born_probabilities_once_per_oracle(self, monkeypatch, rng):
        counted = []

        def counting(matrix):
            counted.append(matrix.shape)
            return born(matrix)

        born = tomo._probabilities
        monkeypatch.setattr(tomo, "_probabilities", counting)
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        entangled_superposition(
            StateOracle(u), StateOracle(v), EQUAL, copies_budget(EQUAL, 2, 1.0), 5,
            TRIAL_CHUNK + 1,
        )
        assert len(counted) == 2


class TestVectorTransferCheck:
    def test_a_vector_past_the_bound_is_refused(self, monkeypatch, rng):
        # The second stage's vector is negated: its index is x's (the states are
        # equal, so the estimates are close), but the vectors are 2 apart.
        calls = []

        def flip_second(x, i):
            calls.append(i)
            return vec(x, i) * (-1 if len(calls) == 2 else 1)

        vec = tomo.vec_i
        monkeypatch.setattr(tomo, "vec_i", flip_second)
        u = haar_density(rng, 3)
        with pytest.raises(InvariantViolation, match="transfer bound"):
            random_superposition(StateOracle(u), StateOracle(u), EQUAL, None, 0)


class TestOutputTraceFloorCheck:
    def test_an_output_below_the_floor_is_refused(self, monkeypatch, rng):
        # The triangle inequality keeps every real output at or above the
        # floor, so the check is reached by raising the floor past it.
        monkeypatch.setattr(superpose, "trace_floor", lambda spec, d: 5.0)
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        with pytest.raises(InvariantViolation, match="below floor 5.000e"):
            random_superposition(StateOracle(u), StateOracle(v), EQUAL, None, 0)


def ref_pair_target(u, v, r, spec):
    """The target formula `_pair_targets` replaced, kept as the reference: the
    superposition of the true canonical vectors at the phase r implies, with
    each phase from `np.vdot`."""
    c = [canonical_vec(u.matrix), canonical_vec(v.matrix)]
    vu, vv = vec_i(u.matrix, r[0]), vec_i(v.matrix, r[1])
    phi = (np.angle(np.vdot(c[0], vu)) - np.angle(np.vdot(c[1], vv))
           - np.angle(spec.alpha) + np.angle(spec.beta))
    t = spec.alpha * np.exp(1j * phi) * c[0] + spec.beta * c[1]
    t = t / np.linalg.norm(t)
    return np.outer(t, t.conj())


def ref_figure_of_merit(outcomes, u, v, spec):
    """The per-outcome loop the stacked scoring replaced, kept as the reference."""
    p_succ = sum(w * np.trace(op).real for w, op in outcomes.values())
    total = 0.0
    for r, (w, op) in outcomes.items():
        tr = np.trace(op).real
        if w == 0.0 or tr == 0.0:
            continue
        diff = op - tr * ref_pair_target(u, v, r, spec)
        total += w * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return total / p_succ


COEFF_CASES = {
    "equal": EQUAL,
    "unequal": SuperpositionSpec(0.8, 0.3),
    "complex": SuperpositionSpec(0.8 * np.exp(0.3j), 0.6 * np.exp(-1.2j)),
    "equal_complex": SuperpositionSpec(0.6 * np.exp(2.1j), 0.6 * np.exp(-0.4j)),
}


class TestPairTargets:
    """The target at an index pair is the noiseless output there; it agrees
    with the canonical-vector formula at the phase the pair implies."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("coeffs", sorted(COEFF_CASES))
    def test_every_pair_matches_the_canonical_formula(self, d, coeffs):
        rng = np.random.default_rng(90 + d)
        spec = COEFF_CASES[coeffs]
        pairs = [(i, j) for i in range(d) for j in range(d)]
        for _ in range(3):
            u, v = haar_density(rng, d), haar_density(rng, d)
            want = [ref_pair_target(u, v, r, spec) for r in pairs]
            np.testing.assert_allclose(_pair_targets(u, v, pairs, spec), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(_pair_targets(u, v, pairs[-1], spec), want[-1],
                                       rtol=0, atol=1e-12)

    def test_is_the_noiseless_run_output(self, rng):
        for d, coeffs in [(2, "equal"), (3, "complex"), (5, "unequal")]:
            spec = COEFF_CASES[coeffs]
            u, v = haar_density(rng, d), haar_density(rng, d)
            out = random_superposition(StateOracle(u), StateOracle(v), spec, None, 3)
            np.testing.assert_allclose(_pair_targets(u, v, out.r, spec), out.state,
                                       rtol=0, atol=1e-12)

    def test_a_cancelling_pair_is_refused(self):
        # Column 1 of |-><-| is -|->, so equal weights on columns 0 and 1 cancel.
        minus = outer(StateVector(np.array([1.0, -1.0]) / np.sqrt(2)))
        with pytest.raises(DegenerateSuperpositionError):
            _pair_targets(minus, minus, (0, 1), EQUAL)
        with pytest.raises(DegenerateSuperpositionError):
            _pair_targets(minus, minus, [(0, 0), (0, 1)], EQUAL)


class TestFigureOfMerit:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("equal_magnitudes", [False, True])
    def test_stack_matches_the_per_outcome_loop(self, d, equal_magnitudes):
        rng = np.random.default_rng(70 + d)
        spec = COEFF_CASES["equal_complex" if equal_magnitudes else "complex"]
        u, v = haar_density(rng, d), haar_density(rng, d)
        pairs = [(i, j) for i in range(d) for j in range(d)]
        outcomes = {}
        for r in pairs:
            rho = haar_density(rng, d).matrix
            outcomes[r] = (rng.uniform(), rng.uniform() * rho)
        outcomes[pairs[0]] = (0.0, outcomes[pairs[0]][1])  # zero weight
        outcomes[pairs[-1]] = (0.3, np.zeros((d, d)))  # zero trace
        got = figure_of_merit(outcomes, u, v, spec)
        assert got == pytest.approx(ref_figure_of_merit(outcomes, u, v, spec), rel=0, abs=1e-14)

    def test_ignored_outcomes_build_no_target(self, monkeypatch, rng):
        built = []

        def counting(u, v, spec, phi):
            built.append(u.shape[:-1])
            return target(u, v, spec, phi)

        target = superpose.target_superposition
        monkeypatch.setattr(superpose, "target_superposition", counting)
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        outcomes = {(0, 0): (0.5, u.matrix),
                    (0, 1): (0.0, v.matrix),
                    (1, 1): (0.5, np.zeros((2, 2)))}
        figure_of_merit(outcomes, u, v, EQUAL)
        assert built == [(1,)]

    def test_perfect_match(self, rng):
        # A noiseless run's output, at any trace, is its own target.
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        out = random_superposition(StateOracle(u), StateOracle(v), EQUAL, None, 5)
        outcomes = {out.r: (1.0, 0.7 * out.state)}
        assert figure_of_merit(outcomes, u, v, EQUAL) == pytest.approx(0.0, abs=1e-12)

    def test_default_phase_is_the_one_the_index_pair_implies(self, rng):
        # The noiseless output of index pair r is |alpha| vec_r0(u) + |beta| vec_r1(v),
        # normalized; at the phase r implies it is its own target.
        spec = SuperpositionSpec(0.8 * np.exp(0.3j), 0.6 * np.exp(-1.2j))
        u, v = haar_density(rng, 3), haar_density(rng, 3)
        outcomes = {}
        a, b = abs(spec.alpha), abs(spec.beta)
        for r in [(0, 0), (1, 2), (2, 1)]:
            w = a * vec_i(u.matrix, r[0]) + b * vec_i(v.matrix, r[1])
            rho = outer(StateVector(w / np.linalg.norm(w))).matrix
            outcomes[r] = (1 / 3, 0.5 * rho)
        assert figure_of_merit(outcomes, u, v, spec) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_phase_scores_two(self):
        # For u = |0>, v = |1> the target at (0, 0) is |+>: v's column 0 is
        # zero, so its scan falls through to column 1.
        u, v = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        minus = target_superposition(np.eye(2)[0], np.eye(2)[1], EQUAL, np.pi)
        outcomes = {(0, 0): (1.0, minus)}
        assert figure_of_merit(outcomes, u, v, EQUAL) == pytest.approx(2.0)

    def test_zero_trace_outcome_harmless(self, rng):
        u, v = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        plus = target_superposition(np.eye(2)[0], np.eye(2)[1], EQUAL, 0.0)
        outcomes = {
            (0, 0): (0.5, plus),
            (0, 1): (0.5, np.zeros((2, 2))),
        }
        assert figure_of_merit(outcomes, u, v, EQUAL) == pytest.approx(0.0, abs=1e-12)

    def test_one_run_is_scored_as_a_one_outcome_map(self, rng):
        u, v = haar_density(rng, 3), haar_density(rng, 3)
        spec = COEFF_CASES["complex"]
        out = random_superposition(StateOracle(u), StateOracle(v), spec,
                                   copies_budget(spec, 3, 1.5), 2)
        merit = superposition_error(out, u, v, spec)
        assert merit == figure_of_merit({out.r: (1.0, out.state)}, u, v, spec)
        assert merit == pytest.approx(ref_figure_of_merit({out.r: (1.0, out.state)}, u, v, spec),
                                      rel=0, abs=1e-14)

    def test_zero_success_raises(self, rng):
        u, v = outer(basis_state(2, 0)), outer(basis_state(2, 1))
        outcomes = {(0, 0): (1.0, np.zeros((2, 2)))}
        for case in (outcomes, {}):
            with pytest.raises(ZeroFunctionalError):
                figure_of_merit(case, u, v, EQUAL)


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
