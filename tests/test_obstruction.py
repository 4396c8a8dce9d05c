import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_vector
from supersim.errors import RefinementNeededError, ValidationError
from supersim.linalg import StateVector
from supersim.obstruction import (
    BUILTIN_CANDIDATES,
    AuditReport,
    constant_candidate,
    discontinuity_loop,
    ideal_candidate,
    mollified_candidate,
    obstruction_audit,
    phase_loop,
    winding_number,
)
from supersim.superpose import SuperpositionSpec, threshold

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

    def test_open_loop_rejected(self):
        pts = tuple(np.exp(2j * np.pi * np.arange(9) / 16))
        with pytest.raises(ValidationError):
            winding_number(pts)


class TestPhaseLoop:
    def test_closure_and_length(self):
        loop = phase_loop(X0, 1, 64)
        assert len(loop) == 65
        assert np.allclose(loop[0].amplitudes, loop[-1].amplitudes)

    def test_densities_constant(self, rng):
        x0 = haar_vector(rng, 2)
        loop = phase_loop(x0, 1, 16)
        base = np.outer(x0.amplitudes, x0.amplitudes.conj())
        for p in loop:
            assert np.allclose(np.outer(p.amplitudes, p.amplitudes.conj()), base)

    def test_zero_winding_constant(self):
        loop = phase_loop(X0, 0, 16)
        for p in loop:
            assert np.allclose(p.amplitudes, X0.amplitudes)


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
        first, last = loop[0], loop[-1]
        assert np.allclose(
            np.outer(first.amplitudes, first.amplitudes.conj()),
            np.outer(last.amplitudes, last.amplitudes.conj()),
        )
