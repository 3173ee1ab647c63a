import numpy as np
import pytest

from helpers import PAULI_X, PAULI_Z, SWAP_2Q, random_hermitian
from qdpsim import (
    DensityMatrix,
    DimensionError,
    InvariantError,
    PureState,
    herm_exp,
    hermitize,
    hs_norm,
    kron,
    op_norm,
    mixedness,
    partial_trace,
    pure_distance,
    random_density,
    random_pure,
    trace_distance,
)
from qdpsim.linalg import EIG_CLIP_ATOL, EIG_CLIP_MAX, HERM_WARN_ATOL


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_product(self):
        p = np.diag([1.0, 0.0])
        np.testing.assert_array_equal(kron(p, p), np.diag([1.0, 0, 0, 0]))

    def test_xx_flips_00_to_11(self):
        v00 = np.array([1, 0, 0, 0], dtype=complex)
        v11 = np.array([0, 0, 0, 1], dtype=complex)
        np.testing.assert_allclose(kron(PAULI_X, PAULI_X) @ v00, v11, atol=1e-15)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rho = random_density(2, 1).matrix
        sig = random_density(3, 2).matrix
        out = partial_trace(kron(rho, sig), (2, 3), keep=[1])
        np.testing.assert_allclose(out, sig, atol=1e-12)
        out = partial_trace(kron(rho, sig), (2, 3), keep=[0])
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        np.testing.assert_allclose(partial_trace(rho, (2, 2), [0]), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self):
        rho = random_density(4, 7).matrix
        out = partial_trace(rho, (2, 2), keep=[0])
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), (2, 3), keep=[0])


class TestHermExp:
    def test_zero_time(self):
        np.testing.assert_allclose(herm_exp(random_hermitian(4, 1), 0.0), np.eye(4), atol=1e-15)

    def test_z_rotation_closed_form(self):
        u = herm_exp(PAULI_Z, np.pi / 2)
        np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14)

    def test_diagonal_closed_form(self):
        u = herm_exp(np.diag([0.2, -0.8, 1.5]), 0.9)
        np.testing.assert_allclose(u, np.diag(np.exp(-0.9j * np.array([0.2, -0.8, 1.5]))), atol=1e-15)

    def test_inverse_pair(self):
        h = random_hermitian(5, 9)
        np.testing.assert_allclose(herm_exp(h, 0.7) @ herm_exp(h, -0.7), np.eye(5), atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 7, 16])
    @pytest.mark.parametrize("t", [0.1, -3.0, 10.0])
    def test_unitarity_sweep(self, dim, t):
        u = herm_exp(random_hermitian(dim, dim * 100 + int(abs(t) * 10)), t)
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim), 2) <= 1e-9

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvariantError):
            herm_exp(m, 1.0)

    def test_symmetrizes_with_warning_inside_window(self):
        h = random_hermitian(3, 2)
        h = h + 5e-11 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.warns(RuntimeWarning):
            u = herm_exp(h, 1.0)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3), 2) <= 1e-9


class TestTraceDistance:
    def test_self_distance(self):
        rho = random_density(3, 11).matrix
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert abs(trace_distance(a, b) - 1.0) < 1e-14

    def test_pure_state_overlap_formula(self):
        psi = random_pure(4, 1)
        phi = random_pure(4, 2)
        ov = abs(np.vdot(psi.amplitudes, phi.amplitudes))
        expected = np.sqrt(1 - ov * ov)
        assert abs(trace_distance(psi.matrix, phi.matrix) - expected) < 1e-12

    def test_pure_distance_keeps_small_distances(self):
        # sqrt(1 - |<tau|psi>|^2) keeps 6 digits at 1e-5 and reads 0 from
        # 1e-8 on; ||psi - <tau|psi> tau|| keeps the distance's digits.
        tau = random_pure(4, 3).amplitudes
        raw = random_pure(4, 4).amplitudes
        perp = raw - np.vdot(tau, raw) * tau
        perp /= np.linalg.norm(perp)
        for x in (0.3, 1e-5, 1e-9, 1e-14):
            psi = PureState(np.sqrt(1.0 - x * x) * tau + x * perp)
            assert pure_distance(psi, PureState(tau)) == pytest.approx(x, rel=1e-6)
        psi = PureState(0.8 * tau + 0.6 * perp)
        assert abs(pure_distance(psi, PureState(tau)) - trace_distance(psi.matrix, np.outer(
            tau, tau.conj()))) <= 1e-15

    def test_metric_on_sampled_triples(self):
        for seed in range(5):
            a = random_density(3, 3 * seed).matrix
            b = random_density(3, 3 * seed + 1).matrix
            c = random_density(3, 3 * seed + 2).matrix
            assert trace_distance(a, b) == trace_distance(b, a)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_operational_bound_on_projectors(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            rho = random_density(4, 100 + seed).matrix
            sig = random_density(4, 200 + seed).matrix
            v = random_pure(4, 300 + seed).amplitudes
            proj = np.outer(v, v.conj())
            diff = abs(np.real(np.trace(proj @ (rho - sig))))
            assert trace_distance(rho, sig) >= diff / 2 - 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 16])
    def test_stack_gives_each_distance_to_the_bit(self, dim):
        target = random_density(dim, 1).matrix
        stack = np.stack([random_density(dim, seed).matrix for seed in range(2, 9)])
        got = trace_distance(stack, target)
        assert got.shape == (7,)
        assert [x.hex() for x in got] == [trace_distance(m, target).hex() for m in stack]

    def test_stack_of_one_and_of_none(self):
        rho, sig = random_density(3, 1).matrix, random_density(3, 2).matrix
        assert trace_distance(rho[None], sig)[0] == trace_distance(rho, sig)
        assert trace_distance(np.zeros((0, 3, 3)), sig).shape == (0,)

    def test_unitary_invariance(self):
        rho = random_density(4, 5).matrix
        sig = random_density(4, 6).matrix
        u = herm_exp(random_hermitian(4, 7), 1.3)
        before = trace_distance(rho, sig)
        after = trace_distance(u @ rho @ u.conj().T, u @ sig @ u.conj().T)
        assert abs(before - after) < 1e-10


class TestNorms:
    def test_hs_norm_zero_and_identity(self):
        assert hs_norm(np.zeros((3, 3))) == 0.0
        assert abs(hs_norm(np.eye(5)) - np.sqrt(5)) < 1e-14

    def test_op_norm_swap(self):
        assert abs(op_norm(SWAP_2Q) - 1.0) < 1e-14

    def test_op_norm_2x2_against_quadratic_formula(self):
        h = random_hermitian(2, 13)
        tr, det = np.real(np.trace(h)), np.real(np.linalg.det(h))
        disc = np.sqrt(tr * tr - 4 * det)
        assert op_norm(h) == pytest.approx(max(abs(tr + disc), abs(tr - disc)) / 2, abs=1e-12)


class TestStates:
    def test_random_density_deterministic(self):
        a = random_density(4, 7)
        b = random_density(4, 7)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_random_density_scalar_case(self):
        assert random_density(1, 0).matrix[0, 0] == pytest.approx(1.0)

    def test_random_density_trace(self):
        assert abs(np.trace(random_density(8, 7).matrix) - 1.0) < 1e-12

    def test_random_pure_deterministic_and_normalized(self):
        a = random_pure(6, 3)
        b = random_pure(6, 3)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12

    def test_density_rejects_bad_trace(self):
        with pytest.raises(InvariantError):
            DensityMatrix(np.eye(2))

    def test_density_clips_small_negative_eigenvalue(self):
        v = np.array([1.0, 0.0])
        rho = np.outer(v, v) * (1 + 5e-10) + np.diag([0.0, -5e-10])
        dm = DensityMatrix(rho)
        assert dm.clip_magnitude > 0
        assert np.min(np.linalg.eigvalsh(dm.matrix)) >= -1e-12
        assert abs(np.trace(dm.matrix) - 1.0) < 1e-14

    @pytest.mark.parametrize("low", [-0.5, -2 * EIG_CLIP_MAX])
    def test_density_rejects_an_eigenvalue_below_the_clip_bound(self, low):
        with pytest.raises(InvariantError, match="is below -1e-08"):
            DensityMatrix(np.diag([1.0 - low, low]))

    def test_density_clips_down_to_the_clip_bound(self):
        dm = DensityMatrix(np.diag([1.0 + 0.5 * EIG_CLIP_MAX, -0.5 * EIG_CLIP_MAX]))
        assert dm.clip_magnitude == 0.5 * EIG_CLIP_MAX

    def test_pure_state_norm_check(self):
        with pytest.raises(InvariantError):
            PureState([1.0, 1.0])

    def test_immutability(self):
        dm = random_density(2, 1)
        with pytest.raises(AttributeError):
            dm.matrix = np.eye(2)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 2.0


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: kron(np.ones(3), np.eye(2)), "expected a matrix, got ndim=1"),
        (lambda: hermitize(np.ones((2, 3))), "expected a square matrix"),
        (lambda: partial_trace(np.eye(2) / 2, (2, 0), keep=[0]), "factor dims must be positive"),
        (lambda: partial_trace(np.eye(2) / 2, (), keep=[0]), "factor dims must be positive"),
        (lambda: partial_trace(np.eye(4) / 4, (2, 2), keep=[2]), "out of range for 2 factors"),
        (lambda: partial_trace(np.eye(4) / 4, (2, 2), keep=[-1]), "out of range for 2 factors"),
        (lambda: trace_distance(np.eye(2) / 2, np.eye(3) / 3), "shape mismatch"),
        (lambda: trace_distance(np.ones((2, 3, 3)), np.eye(2)), "shape mismatch"),
        (lambda: trace_distance(np.ones((2, 2, 3)), np.eye(3)), "expected a square matrix"),
        (lambda: trace_distance(np.ones((1, 2, 2, 2)), np.eye(2)), "expected a matrix, got ndim=4"),
        (lambda: partial_trace(np.ones((4, 4)), (2, 3), keep=[0]), "do not multiply to 4"),
        (lambda: random_density(0, 1), "dim must be >= 1"),
        (lambda: random_pure(0, 1), "dim must be >= 1"),
    ],
    ids=["ndim", "not-square", "zero-factor", "no-factors", "trace-keep-high", "trace-keep-low",
         "distance-shapes", "distance-stack-shapes", "distance-stack-not-square",
         "distance-stack-ndim", "trace-dims", "random-density", "random-pure"],
)
def test_argument_checks_raise_dimension_errors(call, match):
    with pytest.raises(DimensionError, match=match):
        call()


def test_pure_state_reads_as_a_state():
    psi = random_pure(5, 0)
    np.testing.assert_array_equal(psi.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    assert psi.matrix is not psi.matrix  # formed on each read, not kept
    np.testing.assert_array_equal(psi.eigenvalues, [0.0, 0.0, 0.0, 0.0, 1.0])
    assert mixedness(psi) == 0.0


class TestStateReads:
    """Both state types answer ``density``, ``expectation``, ``fidelity`` and
    ``reduced``: a mixed state by the formula on its matrix, bit for bit, and
    a pure state from its vector, within a few eps of the formula on its
    projector."""

    DIMS = (3, 4)

    def reads(self, state, h, tau):
        return state.expectation(h), state.fidelity(tau), state.reduced(self.DIMS)

    def formulas(self, m, h, tau):
        t = tau.amplitudes
        return (float(np.real(np.trace(h @ m))), float(np.real(np.vdot(t, m @ t))),
                partial_trace(m, self.DIMS, keep=[0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_state_reads_its_matrix(self, seed):
        rho, h, tau = random_density(12, seed), random_hermitian(12, seed), random_pure(12, 50 + seed)
        assert rho.density() is rho
        got, want = self.reads(rho, h, tau), self.formulas(rho.matrix, h, tau)
        assert got[:2] == want[:2]
        np.testing.assert_array_equal(got[2], want[2])

    @pytest.mark.parametrize("seed", range(4))
    def test_pure_state_reads_its_vector(self, seed):
        psi, h, tau = random_pure(12, seed), random_hermitian(12, seed), random_pure(12, 50 + seed)
        np.testing.assert_array_equal(psi.density().matrix, DensityMatrix(psi.matrix).matrix)
        got, want = self.reads(psi, h, tau), self.formulas(psi.matrix, h, tau)
        eps = np.finfo(float).eps
        assert got[0] == pytest.approx(want[0], rel=0, abs=8 * eps * op_norm(h))
        assert got[1] == pytest.approx(want[1], rel=0, abs=8 * eps)
        assert np.max(np.abs(got[2] - want[2])) <= 8 * eps

    def test_pure_reduced_is_exactly_hermitian(self):
        for seed in range(20):
            r = random_pure(12, seed).reduced(self.DIMS)
            np.testing.assert_array_equal(r, r.conj().T)
            assert r.shape == (3, 3)

    def test_reduced_checks_the_factor_dims(self):
        with pytest.raises(DimensionError, match="do not multiply to 12"):
            random_pure(12, 0).reduced((5, 2))
        with pytest.raises(DimensionError, match="do not multiply to 12"):
            random_density(12, 0).reduced((5, 2))


def test_pure_state_is_immutable():
    psi = random_pure(2, 0)
    with pytest.raises(AttributeError, match="PureState is immutable"):
        psi.amplitudes = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0


def test_op_norm_of_an_empty_matrix_is_zero():
    assert op_norm(np.zeros((0, 0))) == 0.0


def test_hermitize_rejects_large_deviation():
    with pytest.raises(InvariantError):
        hermitize(np.array([[0.0, 1e-3], [0.0, 0.0]]))


def symmetrize_after_division(matrix):
    """``DensityMatrix``'s stored matrix by the reference formula that
    symmetrizes again after every trace division, clipped or not."""
    a = np.asarray(matrix, dtype=complex)
    a = (a + a.conj().T) / 2.0
    w, v = np.linalg.eigh(a)
    if w.min() < -EIG_CLIP_ATOL:
        w = np.clip(w, 0.0, None)
        a = (v * w) @ v.conj().T
    a = a / np.real(np.trace(a))
    return (a + a.conj().T) / 2.0


def conjugated_state(dim, seed):
    """A seeded state conjugated by a unitary: Hermitian up to roundoff."""
    u = herm_exp(random_hermitian(dim, seed + 100), 0.7)
    return u @ random_density(dim, seed).matrix @ u.conj().T


class TestDensityMatrixBits:
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_seeded_states(self, dim):
        for seed in range(3):
            rho = conjugated_state(dim, seed)
            assert DensityMatrix(rho).matrix.tobytes() == symmetrize_after_division(rho).tobytes()

    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_warned_window(self, dim):
        g = random_hermitian(dim, dim) * 1j  # anti-Hermitian
        rho = conjugated_state(dim, 1) + 5 * HERM_WARN_ATOL * g / np.max(np.abs(g))
        with pytest.warns(RuntimeWarning, match="symmetrizing"):
            dm = DensityMatrix(rho)
        assert dm.matrix.tobytes() == symmetrize_after_division(rho).tobytes()

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_clipped_states(self, dim):
        for seed in range(3):
            psi = random_pure(dim, seed).matrix
            rho = (1 + 5e-10 * (dim - 1)) * psi - 5e-10 * (np.eye(dim) - psi)
            dm = DensityMatrix(rho)
            assert dm.clip_magnitude > 0
            assert dm.matrix.tobytes() == symmetrize_after_division(rho).tobytes()

    @pytest.mark.parametrize("dim", [2, 8, 16])
    @pytest.mark.parametrize("depth, clips", [(2e-10, True), (5e-11, False)])
    def test_clip_decided_by_eigenvalues_alone(self, dim, depth, clips):
        """``eigvalsh`` decides the clip; a clipped state keeps the bits and the
        magnitude of the full ``eigh`` formula."""
        for seed in range(3):
            psi = random_pure(dim, seed).matrix
            rho = (1 + depth * (dim - 1)) * psi - depth * (np.eye(dim) - psi)
            dm = DensityMatrix(rho)
            w = np.linalg.eigh((rho + rho.conj().T) / 2.0)[0]
            assert dm.clip_magnitude == (float(-w.min()) if clips else 0.0)
            assert dm.matrix.tobytes() == symmetrize_after_division(rho).tobytes()


class TestDensityMatrixSpectrum:
    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_is_eigvalsh_of_the_stored_matrix(self, dim):
        for seed in range(3):
            dm = DensityMatrix(conjugated_state(dim, seed))
            assert dm.eigenvalues.tobytes() == np.linalg.eigvalsh(dm.matrix).tobytes()
            assert not dm.eigenvalues.flags.writeable

    def test_clipped_state_keeps_the_spectrum_after_the_clip(self):
        psi = random_pure(4, 0).matrix
        dm = DensityMatrix((1 + 1.5e-9) * psi - 5e-10 * (np.eye(4) - psi))
        assert dm.clip_magnitude > 0
        assert dm.eigenvalues.tobytes() == np.linalg.eigvalsh(dm.matrix).tobytes()
        assert dm.eigenvalues.min() > -EIG_CLIP_ATOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
class TestNonFiniteRejected:
    @staticmethod
    def entry(bad, part):
        return complex(bad, 0.0) if part == "real" else complex(0.0, bad)

    def test_density_matrix(self, bad, part):
        a = np.eye(2, dtype=complex) / 2
        a[0, 1] = self.entry(bad, part)
        with pytest.raises(InvariantError, match="non-finite"):
            DensityMatrix(a)

    def test_hermitize_and_kron(self, bad, part):
        a = np.eye(2, dtype=complex) / 2
        a[1, 0] = self.entry(bad, part)
        for fn in (hermitize, lambda x: kron(x, np.eye(2)), lambda x: kron(np.eye(2), x)):
            with pytest.raises(InvariantError, match="non-finite"):
                fn(a)

    def test_pure_state(self, bad, part):
        v = np.array([1.0, 0.0], dtype=complex)
        v[1] = self.entry(bad, part)
        with pytest.raises(InvariantError, match="non-finite"):
            PureState(v)
