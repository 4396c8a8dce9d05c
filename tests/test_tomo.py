import json
from importlib import resources

import numpy as np
import pytest

from conftest import haar_density
from supersim import calibration, seeding, tomo
from supersim.errors import ValidationError
from supersim.linalg import (
    DensityOperator,
    StateVector,
    basis_state,
    outer,
    outers,
    trace_distance,
)
from supersim.tomo import (
    MAX_TOMO_DIM,
    StateOracle,
    VectorEstimate,
    _probabilities,
    reconstruct,
    schedule_for,
    setting_count,
    vector_tomography,
)
from supersim.vecfun import select_r, vec_i

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


class TestSchedule:
    def test_minimum_shots(self):
        with pytest.raises(ValidationError):
            schedule_for(2, 10)

    @pytest.mark.parametrize("kappa", [0.5, 0.0, -1.0, float("nan")])
    def test_widening_below_one_is_refused(self, kappa):
        # The tail credit is fitted for widenings only: at kappa = 0.5 it would
        # credit half the calibrated radius with a failure level of 0.091.
        with pytest.raises(ValidationError, match="widening"):
            schedule_for(2, 1000, kappa)

    def test_eps_monotone_in_shots(self):
        shots = [100, 1000, 10**4, 10**5, 10**6, 10**8]
        for d in (2, 3):
            radii = [schedule_for(d, n).eps_tr for n in shots]
            assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_vec_radius_formula(self):
        s = schedule_for(2, 10**4)
        assert s.eps_vec == pytest.approx((np.sqrt(2) + 0.5) * s.eps_tr + 0.25 * s.eps_tr**2)

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
            est = vector_tomography(StateOracle(rho), None, seeds=[0])
            assert trace_distance(est.x[0], rho.matrix) < 1e-9

    def test_error_shrinks_with_shots(self, rng):
        rho = haar_density(rng, 2)
        errs = []
        for n in (100, 10**4, 10**6):
            est = reconstruct(StateOracle(rho).sample(n, seed=3))
            errs.append(trace_distance(est, rho.matrix))
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


@pytest.mark.parametrize("d", range(2, 17))
def test_closed_form_matches_the_pseudoinverse(monkeypatch, d):
    # The least-squares solution by the pseudoinverse of the reference rows,
    # against `reconstruct` before purification, on stacks of 1 and 256.
    rows = _stacked_reference_rows(d) if d > 5 else _reference_rows(d)
    inv, herm = np.linalg.pinv(rows), np.stack(_reference_hermitian_basis(d))
    monkeypatch.setattr(tomo, "dominant_pure", lambda m: m)
    rng = np.random.default_rng(d)
    for n in (1, 256):
        counts = rng.integers(0, 1000, (n, setting_count(d), d))
        freqs = counts / counts.sum(axis=-1, keepdims=True)
        want = np.einsum("nc,cij->nij", freqs.reshape(n, -1) @ inv.T, herm)
        assert np.max(np.abs(reconstruct(counts) - want)) <= 1e-13
    p = _probabilities(haar_density(rng, d).matrix)
    want = np.einsum("c,cij->ij", inv @ p.reshape(-1), herm)
    assert np.max(np.abs(reconstruct(p) - want)) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 8, 16])
def test_tie_index_ignores_the_last_bit(d):
    # Every diagonal of a uniform-modulus state is 1/d: one-ulp nudges of its
    # Born probabilities must not move the index off 0.
    rng = np.random.default_rng(d)
    kets = np.exp(2j * np.pi * rng.uniform(size=(200, d))) / np.sqrt(d)
    p = _probabilities(outers(kets))
    nudged = np.nextafter(p, rng.choice([0.0, 1.0], p.shape))
    assert np.all(select_r(reconstruct(nudged)) == 0)


class TestGuarantee:
    def test_success_rate_d2(self, rng):
        schedule = schedule_for(2, 10**4)
        hits = 0
        for i in range(50):
            rho = haar_density(rng, 2)
            est = vector_tomography(
                StateOracle(rho), schedule, [seeding.child_seed(i, seeding.TRIAL, 0)]
            )
            err = np.linalg.norm(est.v[0] - vec_i(rho.matrix, est.r[0]))
            hits += err <= schedule.eps_vec
        assert hits / 50 >= 0.9

    def test_paired_estimate_keeps_index(self, rng):
        rho = haar_density(rng, 2)
        schedule = schedule_for(2, 10**5)
        first = vector_tomography(StateOracle(rho), schedule, seeds=[1])
        second = vector_tomography(StateOracle(rho), schedule, seeds=[2], paired_with=first)
        assert second.r == first.r

    def test_vector_matches_truth_index(self, rng):
        rho = haar_density(rng, 3)
        schedule = schedule_for(3, 10**5)
        est = vector_tomography(StateOracle(rho), schedule, seeds=[5])
        truth = vec_i(rho.matrix, est.r[0])
        assert np.linalg.norm(est.v[0] - truth) <= schedule.eps_vec

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_a_stack_of_seeds_is_each_seed_alone(self, rng, d):
        oracle, schedule = StateOracle(haar_density(rng, d)), schedule_for(d, 1000)
        seeds = list(range(40, 52))
        paired = vector_tomography(oracle, schedule, [s + 100 for s in seeds])
        for pair in (None, paired):
            est = vector_tomography(oracle, schedule, seeds, paired_with=pair)
            for n, seed in enumerate(seeds):
                row = None if pair is None else VectorEstimate(
                    pair.x[n:n + 1], pair.r[n:n + 1], pair.v[n:n + 1])
                one = vector_tomography(oracle, schedule, [seed], paired_with=row)
                assert np.array_equal(est.x[n], one.x[0])
                assert est.r[n] == one.r[0]
                assert np.array_equal(est.v[n], one.v[0])


class TestOracleDiscipline:
    def test_density_not_reachable(self):
        oracle = StateOracle(outer(basis_state(2, 0)))
        assert not hasattr(oracle, "rho")
        with pytest.raises(AttributeError):
            oracle.__rho

    def test_no_state_instance_kept(self, rng):
        oracle = StateOracle(haar_density(rng, 3))
        assert oracle.dim == 3
        assert not any(isinstance(value, DensityOperator) for value in vars(oracle).values())

    def test_dimension_cap(self, rng):
        StateOracle(haar_density(rng, MAX_TOMO_DIM))
        with pytest.raises(ValidationError):
            StateOracle(haar_density(rng, MAX_TOMO_DIM + 1))


def reference_bisect_constant(errors, d, n_shots):
    """The 60-step bisection the order statistic replaced, kept as the reference."""
    scale = d / np.sqrt(n_shots)

    def fail_rate(c):
        return float(np.mean(errors > c * scale))

    lo, hi = 0.0, 1.0
    while fail_rate(hi) > calibration.TARGET_FAIL:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if fail_rate(mid) <= calibration.TARGET_FAIL:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("n", [4, 49, 500, 1000])
def test_calibrated_constant_is_the_smallest_float_meeting_the_target(n):
    # Ten draws per cell reach both ulp moves of the plain quotient.
    rng = np.random.default_rng(n)
    for d, n_shots in ((2, 100), (3, 10_000), (4, 1_000), (8, 1_000_000)) * 10:
        errors = rng.gamma(2.0, 0.1, size=n)
        errors[: n // 4] = errors[n // 4 : 2 * (n // 4)]  # ties
        scale = d / np.sqrt(n_shots)
        c = calibration._smallest_constant(errors, d, n_shots)
        assert np.mean(errors > c * scale) <= calibration.TARGET_FAIL
        assert np.mean(errors > np.nextafter(c, 0.0) * scale) > calibration.TARGET_FAIL
        assert c == reference_bisect_constant(errors, d, n_shots)


def reference_build_table(seed, states):
    """The per-state loop the stacked cells replaced, kept as the reference:
    each dimension's cells and tail exponent."""
    out = {}
    for d in calibration.CAL_DIMS:
        scaled, cells = [], []
        for cell_idx, n_shots in enumerate(calibration.CAL_GRID):
            errors = np.empty(states)
            for i in range(states):
                rng = seeding.rng_for(seed, seeding.STATE, d, cell_idx, i)
                rho = outer(StateVector(seeding.haar_state(rng, d)))
                trial_seed = seeding.child_seed(seed, seeding.TRIAL, d, cell_idx, i)
                est = reconstruct(StateOracle(rho).sample(n_shots, trial_seed))
                errors[i] = trace_distance(est, rho.matrix)
            c = reference_bisect_constant(errors, d, n_shots) * calibration.INFLATION
            cells.append([n_shots, c])
            scaled.append(errors / (c * d / np.sqrt(n_shots)))
        for i in range(len(cells) - 2, -1, -1):
            cells[i][1] = max(cells[i][1], cells[i + 1][1])
        out[str(d)] = (cells, calibration._fit_tail(np.concatenate(scaled)))
    return out


def test_build_table_matches_the_per_state_loop(tmp_path):
    packaged = resources.files("supersim.data").joinpath(calibration.TABLE_FILE)
    before = packaged.read_bytes()
    path = tmp_path / "calibration.json"
    table = calibration.build_table(seed=7, states=4, path=path)
    assert json.loads(path.read_text()) == table
    want = reference_build_table(7, 4)
    assert sorted(table["dims"]) == sorted(want)
    for d, (cells, tail) in want.items():
        assert table["dims"][d]["cells"] == cells
        assert table["dims"][d]["tail"] == tail
    assert packaged.read_bytes() == before


def test_shipped_table_is_calibrated_against_the_module_constants():
    shipped = json.loads(
        resources.files("supersim.data").joinpath(calibration.TABLE_FILE).read_text()
    )
    assert shipped["delta"] == calibration.DELTA_TR == tomo.DELTA_TR
    assert calibration.MIN_SHOTS == calibration.CAL_GRID[0] == tomo.MIN_SHOTS
    for entry in shipped["dims"].values():
        assert entry["cells"][0][0] == calibration.MIN_SHOTS


def test_shipped_table_is_what_build_table_gives(monkeypatch, tmp_path):
    # The shipped cells at d = 2 and 3 come from `build_table` with the file's
    # own seed and state count; d = 4 and 8 would take several times longer.
    shipped = json.loads(
        resources.files("supersim.data").joinpath(calibration.TABLE_FILE).read_text()
    )
    monkeypatch.setattr(calibration, "CAL_DIMS", (2, 3))
    table = calibration.build_table(
        seed=shipped["seed"], states=shipped["benchmark_states"], path=tmp_path / "t.json"
    )
    for d in ("2", "3"):
        got, want = table["dims"][d], shipped["dims"][d]
        assert got["settings"] == want["settings"] and got["tail"] == want["tail"]
        assert [n for n, _ in got["cells"]] == [n for n, _ in want["cells"]]
        np.testing.assert_allclose(
            [c for _, c in got["cells"]], [c for _, c in want["cells"]], rtol=1e-12, atol=0
        )
