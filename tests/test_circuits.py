import functools

import numpy as np
import pytest

from conftest import haar_vector
from supersim.errors import DimensionMismatchError, InvalidMapError, ValidationError
from supersim.circuits import (
    PostselectionCircuit,
    _candidate_output,
    apply_postselection,
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
from supersim.obstruction import BUILTIN_CANDIDATES, ideal_candidate, obstruction_audit
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
        u, v = haar_vector(rng, 2), haar_vector(rng, 2)
        out = apply_postselection(identity_circuit(), u, v)
        assert np.allclose(out, outer(u).matrix, atol=1e-12)

    def test_zero_projector(self, rng):
        c = PostselectionCircuit(
            V=np.eye(4), pi_succ=np.zeros((4, 4)), d=2, copies=(1, 1)
        )
        out = apply_postselection(c, haar_vector(rng, 2), haar_vector(rng, 2))
        assert np.allclose(out, 0.0)

    def test_swap_returns_second_input(self, rng):
        c = PostselectionCircuit(V=SWAP, pi_succ=np.eye(4), d=2, copies=(1, 1))
        u, v = haar_vector(rng, 2), haar_vector(rng, 2)
        out = apply_postselection(c, u, v)
        assert np.allclose(out, outer(v).matrix, atol=1e-12)

    def test_trace_bounded(self, rng):
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        c = PostselectionCircuit(V=SWAP, pi_succ=p, d=2, copies=(1, 1))
        out = apply_postselection(c, haar_vector(rng, 2), haar_vector(rng, 2))
        assert -1e-12 <= np.trace(out).real <= 1.0 + 1e-12

    def test_continuity(self, rng):
        c = PostselectionCircuit(
            V=SWAP, pi_succ=np.diag([1.0, 1, 1, 0]).astype(complex), d=2, copies=(1, 1)
        )
        base = haar_vector(rng, 2)
        for _ in range(20):
            delta = 1e-4 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            bumped = base.amplitudes + delta
            bumped = StateVector(bumped / np.linalg.norm(bumped))
            gap_in = trace_distance(outer(base).matrix, outer(bumped).matrix)
            v = haar_vector(rng, 2)
            gap_out = trace_distance(
                apply_postselection(c, base, v), apply_postselection(c, bumped, v)
            )
            assert gap_out <= 4.0 * gap_in + 1e-12

    def test_input_dimension_checked(self, rng):
        with pytest.raises(DimensionMismatchError):
            apply_postselection(identity_circuit(), haar_vector(rng, 2), haar_vector(rng, 3))


def random_circuit(rng, d, copies, d_anc, keep):
    """A Haar-random unitary and a random-rank projector on the circuit's space."""
    total = d ** sum(copies) * d_anc

    def haar_unitary():
        q, r = np.linalg.qr(rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total)))
        return q * (r.diagonal() / np.abs(r.diagonal()))

    span = haar_unitary()[:, : rng.integers(1, total)]
    return PostselectionCircuit(
        V=haar_unitary(), pi_succ=span @ span.conj().T, d=d, copies=copies, d_anc=d_anc, keep=keep
    )


def reference_postselection(c, u, v):
    """The density path the ket path replaced, kept as the reference: the
    Kronecker product of the input densities, Pi V rho V^dag Pi, and an
    einsum partial trace over the registers not kept."""
    n, m = c.copies
    factors = [outer(u).matrix] * n + [outer(v).matrix] * m
    if c.d_anc > 1:
        anc = np.zeros((c.d_anc, c.d_anc), dtype=complex)
        anc[0, 0] = 1.0
        factors.append(anc)
    rho = functools.reduce(np.kron, factors)
    conditioned = c.pi_succ @ c.V @ rho @ c.V.conj().T @ c.pi_succ
    conditioned = (conditioned + conditioned.conj().T) / 2
    dims = c.factor_dims
    k = len(dims)
    keep = sorted(set(c.keep))
    col = [k + i if i in keep else i for i in range(k)]
    reduced = np.einsum(
        conditioned.reshape(dims + dims), list(range(k)) + col, keep + [k + i for i in keep]
    )
    d_keep = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(d_keep, d_keep)


class TestKetPathMatchesDensityPath:
    @pytest.mark.parametrize("d_anc", [1, 2])
    @pytest.mark.parametrize("copies", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_circuits(self, d, copies, d_anc):
        rng = np.random.default_rng(100 * d + 10 * sum(copies) + copies[0] + d_anc)
        last = sum(copies) - (d_anc == 1)
        for keep in [(0,), (last,), (0, last)]:
            for _ in range(3):
                c = random_circuit(rng, d, copies, d_anc, keep)
                u, v = haar_vector(rng, d), haar_vector(rng, d)
                out = apply_postselection(c, u, v)
                want = reference_postselection(c, u, v)
                assert out.shape == want.shape
                assert np.max(np.abs(out - want)) <= 1e-12
                DensityOperator(out)

    def test_global_phases_cancel(self, rng):
        c = random_circuit(rng, 2, (2, 1), 2, (0, 3))
        u, v = haar_vector(rng, 2), haar_vector(rng, 2)
        rotated = StateVector(np.exp(1.3j) * u.amplitudes)
        out = apply_postselection(c, u, v)
        assert np.max(np.abs(apply_postselection(c, rotated, v) - out)) <= 1e-12


class TestBraKetIdentities:
    def test_teleport_factor(self, rng):
        for _ in range(100):
            x = haar_vector(rng, 2).amplitudes
            assert np.max(np.abs(teleport_identity_check(x) - 0.5 * x)) < 1e-12

    def test_teleport_linearity(self):
        x = np.exp(0.4j) * np.array([0.0, 1.0])
        assert np.allclose(teleport_identity_check(x), 0.5 * x, atol=1e-15)

    def test_conjugate_bra(self, rng):
        for _ in range(100):
            x = haar_vector(rng, 2).amplitudes
            assert np.max(np.abs(conjugate_bra(x) - x / np.sqrt(2))) < 1e-12

    def test_conjugate_bra_imaginary(self):
        out = conjugate_bra(np.array([0.0, 1.0j]))
        assert np.allclose(out, np.array([0.0, 1.0j]) / np.sqrt(2))

    def test_orthogonal_complement_values(self):
        assert np.allclose(orthogonal_complement(np.array([1.0, 0.0])), [0.0, -1.0j])
        assert np.allclose(orthogonal_complement(np.array([0.0, 1.0])), [1.0j, 0.0])

    def test_orthogonality_exact(self, rng):
        for _ in range(100):
            x = haar_vector(rng, 2).amplitudes
            oc = orthogonal_complement(x)
            assert sum(oc[i] * x[i] for i in range(2)) == 0.0

    def test_linearity(self, rng):
        x, y = haar_vector(rng, 2).amplitudes, haar_vector(rng, 2).amplitudes
        lam, mu = 0.3 - 0.2j, 1.1j
        assert np.allclose(
            orthogonal_complement(lam * x + mu * y),
            lam * orthogonal_complement(x) + mu * orthogonal_complement(y),
            atol=1e-15,
        )

    def test_complement_ket_hermitian_orthogonal(self, rng):
        # The complement ket of the audit is the conjugated complement bra.
        x = haar_vector(rng, 2).amplitudes
        perp = orthogonal_complement(x).conj()
        assert abs(np.vdot(perp, x)) < 1e-15
        assert np.linalg.norm(perp) == pytest.approx(1.0)

    def test_complement_of_a_stack(self, rng):
        xs = np.array([haar_vector(rng, 2).amplitudes for _ in range(10)])
        stacked = orthogonal_complement(xs)
        for x, oc in zip(xs, stacked):
            assert np.array_equal(oc, orthogonal_complement(x))
        for shape in [(3,), (4, 3), (2, 2, 2)]:
            with pytest.raises(DimensionMismatchError):
                orthogonal_complement(np.zeros(shape))

    def test_wrong_dim(self):
        with pytest.raises(DimensionMismatchError):
            teleport_identity_check(basis_state(3, 0).amplitudes)


def haar_stack(rng, n):
    return np.array([haar_vector(rng, 2).amplitudes for _ in range(n)])


def g_of(A, xs):
    """g along the stack xs, from one evaluation of the candidate A."""
    return g_functional(xs, *_candidate_output(A, xs))


def constant_map(matrix):
    """A candidate that returns `matrix` at every point of the stack."""
    matrix = np.asarray(matrix, dtype=complex)
    return lambda rho_u, rho_v: np.broadcast_to(matrix, rho_u.shape)


class TestGFunctional:
    @pytest.mark.parametrize("name", sorted(BUILTIN_CANDIDATES))
    def test_density_candidate_two_homogeneous(self, rng, name):
        A = BUILTIN_CANDIDATES[name](EQUAL)
        xs = haar_stack(rng, 100)
        theta = rng.uniform(0, 2 * np.pi, size=100)
        rotated = np.exp(1j * theta)[:, None] * xs
        np.testing.assert_allclose(
            g_of(A, rotated), np.exp(2j * theta) * g_of(A, xs), rtol=0, atol=1e-9
        )

    def test_orthogonal_constant_flagged(self):
        from supersim.errors import ZeroFunctionalError

        A = constant_map(np.diag([1.0, 0.0]))
        xs = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
        # |0><0| sandwiched between |0> and its complement: g = 0, flagged
        g = g_of(A, xs)
        assert g[0] == 0.0 and abs(g[1]) > 0.1
        with pytest.raises(ZeroFunctionalError):
            g_normalized(g)

    def test_invalid_trace_rejected(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        nan_second = lambda rho_u, rho_v: np.stack([np.eye(2), np.full((2, 2), np.nan)])
        for A in (constant_map(np.zeros((2, 2))), nan_second):
            with pytest.raises(InvalidMapError):
                g_of(A, xs)

    @pytest.mark.parametrize(
        "matrix", [np.diag([2.0, -1.0]), [[0.5, 0.4], [-0.4, 0.5]], [[0.5, 0.0], [1e-8, 0.5]]],
        ids=["not_psd", "not_hermitian", "hermitian_defect"],
    )
    def test_an_output_that_is_not_a_density_is_rejected(self, matrix):
        # diag(2, -1) has trace 1, and scored as a state its error exceeds 2.
        xs = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
        with pytest.raises(InvalidMapError, match="not a density"):
            g_of(constant_map(matrix), xs)
        with pytest.raises(InvalidMapError, match="not a density"):
            obstruction_audit(constant_map(matrix), EQUAL, StateVector(xs[1]), 64)

    def test_an_output_at_the_bounds_is_accepted(self):
        # Within DensityOperator's bounds: defect 1e-9, smallest eigenvalue
        # (hence the unit-trace determinant) about -1e-10.
        xs = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)
        for matrix in ([[0.5, 0.0], [1e-9, 0.5]], np.diag([1.0 + 0.99e-10, -0.99e-10])):
            rhos, _ = _candidate_output(constant_map(matrix), xs)
            DensityOperator(rhos[0])

    def test_wrong_output_shape_rejected(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        for out in (np.eye(2), np.eye(3)[None], DensityOperator(np.eye(2))):
            with pytest.raises(InvalidMapError):
                g_of(lambda rho_u, rho_v: out, xs)

    def test_normalized_form_unit_modulus(self, rng):
        A = ideal_candidate(EQUAL)
        np.testing.assert_allclose(np.abs(g_normalized(g_of(A, haar_stack(rng, 50)))), 1.0)
