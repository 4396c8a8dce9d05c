import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_vector
from supersim import circuits, obstruction
from supersim.circuits import g_functional, orthogonal_complement
from supersim.errors import (
    InvalidMapError,
    RefinementNeededError,
    ValidationError,
    ZeroFunctionalError,
)
from supersim.linalg import StateVector, outer, outers
from supersim.obstruction import (
    BUILTIN_CANDIDATES,
    MAX_REFINEMENTS,
    MIN_LOOP_SAMPLES,
    MOLLIFY_BANDWIDTH,
    AuditReport,
    _best_phase_error,
    constant_candidate,
    discontinuity_loop,
    ideal_candidate,
    mollified_candidate,
    obstruction_audit,
    phase_loop,
    winding_number,
)
from supersim.superpose import SuperpositionSpec, target_superposition, threshold
from supersim.vecfun import canonical_vec, canonical_vecs

EQUAL = SuperpositionSpec(1 / np.sqrt(2), 1 / np.sqrt(2))
X0 = StateVector(np.array([1.0, 0.0]))


def circle_loop(k: int, n: int) -> tuple:
    ts = np.arange(n + 1) / n
    return tuple(np.exp(2j * np.pi * k * ts))


class TestWindingNumber:
    def test_fundamental_loop(self):
        assert winding_number(circle_loop(1, 64)) == 1

    def test_constant_loop(self):
        assert winding_number(circle_loop(0, 64)) == 0

    def test_double_loop(self):
        assert winding_number(circle_loop(2, 64)) == 2

    def test_negative_loop(self):
        assert winding_number(circle_loop(-3, 128)) == -3

    def test_refinement_stability(self):
        for n in (64, 128, 4096):
            assert winding_number(circle_loop(2, n)) == 2

    def test_cyclic_rotation_invariance(self):
        pts = list(circle_loop(2, 64)[:-1])
        for shift in (1, 7, 20):
            rotated = pts[shift:] + pts[:shift] + [pts[shift]]
            assert winding_number(rotated) == 2

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_product_adds_windings(self, j, k):
        a, b = circle_loop(j, 256), circle_loop(k, 256)
        product = tuple(x * y for x, y in zip(a, b))
        assert winding_number(product) == j + k

    def test_aliasing_detected(self):
        with pytest.raises(RefinementNeededError):
            winding_number(circle_loop(5, 10))

    def test_zero_point_rejected(self):
        pts = list(circle_loop(1, 64))
        pts[3] = 0.0
        with pytest.raises(ValidationError):
            winding_number(pts)

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            winding_number(tuple(np.exp(2j * np.pi * np.arange(5) / 4)))

    def test_rejects_a_stack(self):
        with pytest.raises(ValidationError):
            winding_number(np.ones((9, 2)))

    def test_open_loop_rejected(self):
        pts = tuple(np.exp(2j * np.pi * np.arange(9) / 16))
        with pytest.raises(ValidationError):
            winding_number(pts)


class TestPhaseLoop:
    def test_closure_and_length(self):
        loop = phase_loop(X0, 1, 64)
        assert loop.shape == (65, 2)
        assert np.allclose(loop[0], loop[-1])

    def test_densities_constant(self, rng):
        x0 = haar_vector(rng, 2)
        loop = phase_loop(x0, 1, 16)
        base = np.outer(x0.amplitudes, x0.amplitudes.conj())
        for density in outers(loop):
            assert np.allclose(density, base)

    def test_zero_winding_constant(self):
        loop = phase_loop(X0, 0, 16)
        for p in loop:
            assert np.allclose(p, X0.amplitudes)

    def test_short_loops_rejected(self):
        with pytest.raises(ValidationError):
            phase_loop(X0, 1, MIN_LOOP_SAMPLES - 1)
        with pytest.raises(ValidationError):
            discontinuity_loop(MIN_LOOP_SAMPLES - 1)


class TestAudit:
    def test_ideal_winding_mismatch(self):
        for n in (64, 4096):
            report = obstruction_audit(ideal_candidate(EQUAL), EQUAL, X0, n)
            assert report.winding_phase_loop == 2
            assert report.winding_constant == 0
            assert report.verdict == "obstructed"
            assert report.max_error < 1e-9  # pointwise perfect, yet obstructed

    def test_mollified_error_blows_up(self):
        report = obstruction_audit(mollified_candidate(EQUAL), EQUAL, X0, 4096)
        assert report.verdict == "obstructed"
        assert report.max_error >= threshold(EQUAL) - 0.01

    def test_constant_candidate(self):
        report = obstruction_audit(constant_candidate(EQUAL), EQUAL, X0, 64)
        assert report.verdict == "obstructed"
        assert report.max_error >= threshold(EQUAL)

    def test_all_builtins_obstructed(self):
        for name, factory in BUILTIN_CANDIDATES.items():
            report = obstruction_audit(factory(EQUAL), EQUAL, X0, 64)
            assert report.verdict == "obstructed", name

    def test_report_invariant_enforced(self):
        def verdict(**fields):
            base = dict(winding_constant=0, winding_phase_loop=0, max_error=0.1, threshold=0.5)
            return AuditReport(**{**base, **fields}).verdict

        assert verdict() == "consistent"
        assert verdict(winding_phase_loop=2) == "obstructed"
        assert verdict(winding_constant=None, winding_phase_loop=None, g_vanished=True) == "obstructed"
        assert verdict(max_error=0.5) == "obstructed"

    def test_unequal_weights_also_obstructed(self):
        spec = SuperpositionSpec(1.0, 2.0)
        report = obstruction_audit(ideal_candidate(spec), spec, X0, 64)
        assert report.verdict == "obstructed"


class TestDiscontinuityLoop:
    def test_endpoints_share_density(self):
        loop = discontinuity_loop(64)
        assert loop.shape == (65, 2)
        first, last = loop[0], loop[-1]
        assert np.allclose(np.outer(first, first.conj()), np.outer(last, last.conj()))


# --- the per-point audit, kept as the reference for the stacked one ---------
#
# One `StateVector` per loop point, one candidate call per point, and the
# candidates written against single density matrices, as the audit was
# before it worked on stacks.


def ref_phase_loop(x0, k, n):
    return tuple(StateVector(np.exp(2j * np.pi * k * j / n) * x0.amplitudes) for j in range(n + 1))


def ref_discontinuity_loop(n):
    ts = (j / n for j in range(n + 1))
    return tuple(StateVector(np.array([-np.sin(np.pi * t), np.cos(np.pi * t)])) for t in ts)


def ref_ideal(spec):
    def A(rho_u, rho_v):
        w = (spec.alpha * canonical_vec(rho_u).amplitudes
             + spec.beta * canonical_vec(rho_v).amplitudes)
        return np.outer(w, w.conj())
    return A


def ref_mollified(spec):
    def mvec(rho):
        w00 = np.sqrt(max(rho.matrix[0, 0].real, 0.0))
        return rho.matrix[:, 0] / max(w00, MOLLIFY_BANDWIDTH)

    def A(rho_u, rho_v):
        w = spec.alpha * mvec(rho_u) + spec.beta * mvec(rho_v)
        return np.outer(w, w.conj())
    return A


def ref_constant(spec):
    return lambda rho_u, rho_v: np.full((2, 2), 0.5 + 0j)


REF_CANDIDATES = {"ideal": ref_ideal, "mollified": ref_mollified, "constant": ref_constant}


def ref_candidate_output(A, x):
    perp = StateVector(orthogonal_complement(x.amplitudes).conj())
    out = A(outer(x), outer(perp))
    trace = float(out.trace().real)
    if trace <= 0.0:
        raise InvalidMapError(f"candidate trace {trace} is not positive")
    return out / trace, perp


def ref_g_functional(A, x):
    rho, _ = ref_candidate_output(A, x)
    return complex(orthogonal_complement(x.amplitudes) @ rho @ x.amplitudes)


def ref_g_normalized(A, x):
    g = ref_g_functional(A, x)
    if abs(g) < 1e-12:
        raise ZeroFunctionalError("g vanishes; cannot normalize")
    return g / abs(g)


def ref_best_phase_error(A, x, spec):
    rho, perp = ref_candidate_output(A, x)
    cross = np.conj(spec.alpha) * spec.beta * (x.amplitudes.conj() @ rho @ perp.amplitudes)
    phi = float(np.angle(cross)) if abs(cross) > 1e-15 else 0.0
    target = target_superposition(x, perp, spec, phi)
    return float(np.sum(np.abs(np.linalg.eigvalsh(rho - target.matrix))))


def ref_winding_along(A, x0, k, n):
    for _ in range(MAX_REFINEMENTS):
        values = [ref_g_normalized(A, p) for p in ref_phase_loop(x0, k, n)]
        try:
            return winding_number(values)
        except RefinementNeededError:
            n *= 2
    raise RefinementNeededError(f"winding did not stabilize below n={n}")


def ref_audit(A, spec, x0, n):
    g_vanished, w_phase, w_const = False, None, None
    try:
        w_phase = ref_winding_along(A, x0, 1, n)
        w_const = ref_winding_along(A, x0, 0, n)
    except ZeroFunctionalError:
        g_vanished = True
    max_error = 0.0
    for loop in (ref_phase_loop(x0, 1, n), ref_discontinuity_loop(n)):
        for point in loop:
            max_error = max(max_error, ref_best_phase_error(A, point, spec))
    return AuditReport(w_const, w_phase, max_error, threshold(spec), g_vanished)


def reference_cases(seed):
    """Seeded specs (one with equal magnitudes) and starts |0> and Haar."""
    rng = np.random.default_rng(seed)
    alpha, beta = (complex(rng.normal(), rng.normal()) for _ in range(2))
    specs = [SuperpositionSpec(alpha, beta),
             SuperpositionSpec(alpha, abs(alpha) * beta / abs(beta))]
    return [(spec, x0) for spec in specs for x0 in (X0, haar_vector(rng, 2))]


class TestPerPointReference:
    @pytest.mark.parametrize("n", [8, 64, 512])
    @pytest.mark.parametrize("name", sorted(BUILTIN_CANDIDATES))
    def test_stacked_audit_matches_the_per_point_one(self, name, n):
        for spec, x0 in reference_cases(seed=n):
            A, ref = BUILTIN_CANDIDATES[name](spec), REF_CANDIDATES[name](spec)
            for loop, ref_loop in ((phase_loop(x0, 1, n), ref_phase_loop(x0, 1, n)),
                                   (discontinuity_loop(n), ref_discontinuity_loop(n))):
                assert np.array_equal(loop, [p.amplitudes for p in ref_loop])
                np.testing.assert_allclose(
                    g_functional(A, loop), [ref_g_functional(ref, p) for p in ref_loop],
                    rtol=0, atol=1e-14)
                np.testing.assert_allclose(
                    _best_phase_error(A, loop, spec),
                    [ref_best_phase_error(ref, p, spec) for p in ref_loop],
                    rtol=0, atol=1e-14)
            got, want = obstruction_audit(A, spec, x0, n), ref_audit(ref, spec, x0, n)
            assert (got.winding_phase_loop, got.winding_constant, got.g_vanished, got.verdict) == (
                want.winding_phase_loop, want.winding_constant, want.g_vanished, want.verdict)
            assert got.max_error == pytest.approx(want.max_error, rel=0, abs=1e-14)

    def test_stacked_canonical_vectors_match(self, rng):
        for d in (2, 3, 8):
            kets = np.array([haar_vector(rng, d).amplitudes for _ in range(50)])
            kets[::5, 0] = 0.0
            kets[::5] /= np.linalg.norm(kets[::5], axis=1)[:, None]
            want = [canonical_vec(outer(StateVector(k))).amplitudes for k in kets]
            assert np.array_equal(canonical_vecs(outers(kets)), want)


class TestNoPerPointObjects:
    """The audit's object count must not grow with the number of loop points."""

    @staticmethod
    def counted_audit(monkeypatch, name, n):
        counts = {"StateVector": 0, "_candidate_output": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(StateVector, "__post_init__",
                      counting("StateVector", StateVector.__post_init__))
            wrapped = counting("_candidate_output", circuits._candidate_output)
            m.setattr(circuits, "_candidate_output", wrapped)
            m.setattr(obstruction, "_candidate_output", wrapped)
            obstruction_audit(BUILTIN_CANDIDATES[name](EQUAL), EQUAL, X0, n)
        return counts

    @pytest.mark.parametrize("name", sorted(BUILTIN_CANDIDATES))
    def test_counts_do_not_scale_with_samples(self, monkeypatch, name):
        small = self.counted_audit(monkeypatch, name, 64)
        assert 0 < small["_candidate_output"] <= 8
        assert self.counted_audit(monkeypatch, name, 4096) == small
