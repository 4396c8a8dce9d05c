import numpy as np
import pytest

from conftest import haar_density, haar_vector
from supersim.errors import DimensionMismatchError, InvalidMapError, ValidationError
from supersim.circuits import (
    PostselectionCircuit,
    apply_postselection,
    complement_ket,
    conjugate_bra,
    g_functional,
    g_normalized,
    orthogonal_complement,
    teleport_identity_check,
)
from supersim.linalg import (
    DensityOperator,
    StateVector,
    basis_state,
    outer,
    trace_distance,
)
from supersim.obstruction import BUILTIN_CANDIDATES, ideal_candidate
from supersim.superpose import SuperpositionSpec

EQUAL = SuperpositionSpec(1 / np.sqrt(2), 1 / np.sqrt(2))

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def identity_circuit():
    return PostselectionCircuit(
        V=np.eye(4), pi_succ=np.eye(4), d=2, copies=(1, 1), keep=(0,)
    )


class TestCircuitTypes:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValidationError):
            PostselectionCircuit(
                V=np.diag([1.0, 2.0, 1.0, 1.0]), pi_succ=np.eye(4), d=2, copies=(1, 1)
            )

    def test_rejects_nonprojector(self):
        with pytest.raises(ValidationError):
            PostselectionCircuit(
                V=np.eye(4), pi_succ=0.5 * np.eye(4), d=2, copies=(1, 1)
            )


class TestApplyPostselection:
    def test_identity_returns_first_input(self, rng):
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        out = apply_postselection(identity_circuit(), u, v)
        assert np.allclose(out.matrix, u.matrix, atol=1e-12)

    def test_zero_projector(self, rng):
        c = PostselectionCircuit(
            V=np.eye(4), pi_succ=np.zeros((4, 4)), d=2, copies=(1, 1)
        )
        out = apply_postselection(c, haar_density(rng, 2), haar_density(rng, 2))
        assert np.allclose(out.matrix, 0.0)

    def test_swap_returns_second_input(self, rng):
        c = PostselectionCircuit(V=SWAP, pi_succ=np.eye(4), d=2, copies=(1, 1))
        u, v = haar_density(rng, 2), haar_density(rng, 2)
        out = apply_postselection(c, u, v)
        assert np.allclose(out.matrix, v.matrix, atol=1e-12)

    def test_trace_bounded(self, rng):
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        c = PostselectionCircuit(V=SWAP, pi_succ=p, d=2, copies=(1, 1))
        out = apply_postselection(c, haar_density(rng, 2), haar_density(rng, 2))
        assert -1e-12 <= out.trace <= 1.0 + 1e-12

    def test_continuity(self, rng):
        c = PostselectionCircuit(
            V=SWAP, pi_succ=np.diag([1.0, 1, 1, 0]).astype(complex), d=2, copies=(1, 1)
        )
        base = haar_vector(rng, 2)
        for _ in range(20):
            delta = 1e-4 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            bumped = base.amplitudes + delta
            bumped = StateVector(bumped / np.linalg.norm(bumped))
            gap_in = trace_distance(outer(base), outer(bumped))
            v = haar_density(rng, 2)
            gap_out = trace_distance(
                apply_postselection(c, outer(base), v),
                apply_postselection(c, outer(bumped), v),
            )
            assert gap_out <= 4.0 * gap_in + 1e-12


class TestBraKetIdentities:
    def test_teleport_factor(self, rng):
        for _ in range(100):
            x = haar_vector(rng, 2)
            out = teleport_identity_check(x)
            assert np.max(np.abs(out.amplitudes - 0.5 * x.amplitudes)) < 1e-12

    def test_teleport_linearity(self):
        x = StateVector(np.exp(0.4j) * np.array([0.0, 1.0]))
        out = teleport_identity_check(x)
        assert np.allclose(out.amplitudes, 0.5 * x.amplitudes, atol=1e-15)

    def test_conjugate_bra(self, rng):
        for _ in range(100):
            x = haar_vector(rng, 2)
            out = conjugate_bra(x)
            assert np.max(np.abs(out.amplitudes - x.amplitudes / np.sqrt(2))) < 1e-12

    def test_conjugate_bra_imaginary(self):
        out = conjugate_bra(StateVector(np.array([0.0, 1.0j])))
        assert np.allclose(out.amplitudes, np.array([0.0, 1.0j]) / np.sqrt(2))

    def test_orthogonal_complement_values(self):
        assert np.allclose(
            orthogonal_complement(basis_state(2, 0)).amplitudes, [0.0, -1.0j]
        )
        assert np.allclose(
            orthogonal_complement(basis_state(2, 1)).amplitudes, [1.0j, 0.0]
        )

    def test_orthogonality_exact(self, rng):
        for _ in range(100):
            x = haar_vector(rng, 2)
            oc = orthogonal_complement(x).amplitudes
            assert sum(oc[i] * x.amplitudes[i] for i in range(2)) == 0.0

    def test_linearity(self, rng):
        x, y = haar_vector(rng, 2), haar_vector(rng, 2)
        lam, mu = 0.3 - 0.2j, 1.1j
        combo = StateVector(lam * x.amplitudes + mu * y.amplitudes, normalized=False)
        assert np.allclose(
            orthogonal_complement(combo).amplitudes,
            lam * orthogonal_complement(x).amplitudes
            + mu * orthogonal_complement(y).amplitudes,
            atol=1e-15,
        )

    def test_complement_ket_hermitian_orthogonal(self, rng):
        x = haar_vector(rng, 2)
        perp = complement_ket(x)
        assert abs(np.vdot(perp.amplitudes, x.amplitudes)) < 1e-15
        assert perp.norm() == pytest.approx(1.0)

    def test_wrong_dim(self):
        with pytest.raises(DimensionMismatchError):
            teleport_identity_check(basis_state(3, 0))


class TestGFunctional:
    @pytest.mark.parametrize("name", sorted(BUILTIN_CANDIDATES))
    def test_density_candidate_two_homogeneous(self, rng, name):
        A = BUILTIN_CANDIDATES[name](EQUAL)
        for _ in range(100):
            x = haar_vector(rng, 2)
            theta = rng.uniform(0, 2 * np.pi)
            rotated = StateVector(np.exp(1j * theta) * x.amplitudes)
            assert g_functional(A, rotated) == pytest.approx(
                np.exp(2j * theta) * g_functional(A, x), abs=1e-9
            )

    def test_orthogonal_constant_flagged(self):
        from supersim.errors import ZeroFunctionalError

        def A(rho_u, rho_v):
            return DensityOperator(np.diag([1.0, 0.0]).astype(complex))

        # |0><0| sandwiched between |0> and its complement: g = 0, flagged
        assert g_functional(A, basis_state(2, 0)) == 0.0
        with pytest.raises(ZeroFunctionalError):
            g_normalized(A, basis_state(2, 0))

    def test_invalid_trace_rejected(self):
        def A(rho_u, rho_v):
            return DensityOperator(np.zeros((2, 2)))

        with pytest.raises(InvalidMapError):
            g_functional(A, basis_state(2, 0))

    def test_normalized_form_unit_modulus(self, rng):
        A = ideal_candidate(EQUAL)
        x = haar_vector(rng, 2)
        assert abs(g_normalized(A, x)) == pytest.approx(1.0)
