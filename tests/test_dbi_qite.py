import math

import numpy as np
import pytest

from helpers import heisenberg_chain, random_hermitian
from qdpsim import (
    DBIConfig,
    IMRConfig,
    InvariantError,
    MemoryCallSpec,
    PureState,
    QITEConfig,
    dbi_canonical_step_size,
    dbi_cost,
    dbi_encode,
    dbi_recursion_spec,
    dbi_sorted_fixed_point,
    dbi_step,
    energy,
    ground_state,
    local_accuracy_check,
    offdiag_hs_norm,
    qite_qdp_run,
    qite_recursion_spec,
    qite_step,
    random_pure,
    run_exact,
    run_qdp,
)
from qdpsim.algos import qite_encode_hamiltonian


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_heisenberg_chain_has_the_bits_of_the_product_form(n_qubits):
    """Each bond term is one Kronecker chain of ``op (x) op``, with the bits of
    the product of the two single-site chains."""
    def site(op, i):
        out = np.eye(1, dtype=complex)
        for k in range(n_qubits):
            out = np.kron(out, op if k == i else np.eye(2, dtype=complex))
        return out

    paulis = (np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex))
    h = sum(site(op, i) @ site(op, i + 1) for op in paulis for i in range(n_qubits - 1))
    h = h + 0.7 * sum(site(paulis[2], i) for i in range(n_qubits))
    assert heisenberg_chain(n_qubits, 0.7).tobytes() == h.tobytes()


def test_qite_exact_run_forms_no_kron(monkeypatch):
    """A qite exact call reads ``rho`` and ``chi`` as its two factors: it
    never forms ``rho (x) chi``."""
    spec = qite_recursion_spec(QITEConfig(hamiltonian=heisenberg_chain(3, 0.5),
                                          initial=random_pure(8, 3)))

    def refuse(*args):
        raise AssertionError("a qite exact call formed a kron")

    monkeypatch.setattr(MemoryCallSpec, "instruction_matrix", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    assert len(run_exact(spec, 3).points) == 4


def seeded_operator(dim, seed, spread=1.0):
    return random_hermitian(dim, seed, scale=spread)


class TestDbiStep:
    def test_diagonal_input_is_fixed(self):
        d = np.diag([0.0, 1.0, 2.0])
        p = np.diag([0.5, 0.2, 0.3]).astype(complex)
        np.testing.assert_allclose(dbi_step(p, d, 0.3), p, atol=1e-13)

    def test_two_level_converges_cosorted(self):
        # eigenvalues {0.7, 0.3} against diag(0, 1): the flow parks the larger
        # eigenvalue on the larger instruction entry
        d = np.diag([0.0, 1.0])
        p = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        s = dbi_canonical_step_size(p, d)
        for _ in range(300):
            p = dbi_step(p, d, s)
        np.testing.assert_allclose(np.real(np.diag(p)), [0.3, 0.7], atol=1e-6)
        assert abs(p[0, 1]) < 1e-6

    def test_off_diagonal_suppression_factor(self):
        # near-diagonal operators shed their off-diagonal entries at the
        # first-order rate 1 - s (lam_i - lam_j)(mu_i - mu_j)
        d = np.diag([0.0, 1.0])
        lam = np.array([0.2, 0.8])
        eta = 1e-5
        p = np.diag(lam).astype(complex)
        p[0, 1] = p[1, 0] = eta
        s = dbi_canonical_step_size(p, d)
        p1 = dbi_step(p, d, s)
        predicted = 1.0 - s * (lam[0] - lam[1]) * (0.0 - 1.0)
        assert abs(p1[0, 1]) / eta == pytest.approx(predicted, rel=1e-3)
        assert predicted < 1.0

    def test_isospectral(self):
        d = np.diag(np.arange(5, dtype=float))
        p = seeded_operator(5, 3)
        out = dbi_step(p, d, 0.05)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(p), atol=1e-9
        )

    def test_degenerate_instruction_rejected(self):
        with pytest.raises(InvariantError):
            dbi_step(np.eye(2), np.diag([1.0, 1.0]), 0.1)


class TestCanonicalStep:
    def test_unit_norms(self):
        p = np.diag([1.0, 0.0]).astype(complex)  # HS norm 1
        d = np.diag([0.0, 1.0])
        assert dbi_canonical_step_size(p, d) == pytest.approx(0.25, abs=1e-14)

    def test_scaling_homogeneity(self):
        p = seeded_operator(3, 5)
        d = np.diag([0.0, 1.0, 2.0])
        assert dbi_canonical_step_size(p, 10 * d) == pytest.approx(
            dbi_canonical_step_size(p, d) / 10, rel=1e-12
        )

    def test_zero_norm_rejected(self):
        with pytest.raises(InvariantError):
            dbi_canonical_step_size(np.zeros((2, 2)), np.diag([0.0, 1.0]))


class TestDbiCost:
    def test_zero_at_instruction(self):
        d = np.diag([0.3, 0.9])
        assert dbi_cost(d, d) == pytest.approx(0.0, abs=1e-14)

    def test_monotone_along_flow(self):
        d = np.diag(np.arange(4, dtype=float))
        p = seeded_operator(4, 9)
        s = dbi_canonical_step_size(p, d)
        costs = [dbi_cost(p, d)]
        for _ in range(20):
            p = dbi_step(p, d, s)
            costs.append(dbi_cost(p, d))
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_constant_at_fixed_point(self):
        d = np.diag([0.0, 1.0])
        p = np.diag([0.7, 0.3]).astype(complex)
        c0 = dbi_cost(p, d)
        p1 = dbi_step(p, d, 0.25)
        assert dbi_cost(p1, d) == pytest.approx(c0, abs=1e-12)


class TestDbiConvergence:
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_fifty_step_runs(self, dim):
        d = np.diag(np.arange(dim, dtype=float))
        p0 = seeded_operator(dim, 40 + dim)
        s = dbi_canonical_step_size(p0, d)
        p = p0
        costs = [dbi_cost(p, d)]
        for _ in range(50):
            p = dbi_step(p, d, s)
            costs.append(dbi_cost(p, d))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(p), np.linalg.eigvalsh(p0), atol=1e-8
        )
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_converged_diagonal_is_sorted_spectrum(self):
        dim = 4
        d = np.diag(np.arange(dim, dtype=float))
        p = seeded_operator(dim, 17)
        target = dbi_sorted_fixed_point(p, d)
        s = dbi_canonical_step_size(p, d)
        for _ in range(4000):
            p = dbi_step(p, d, s)
            if offdiag_hs_norm(p) < 1e-8:
                break
        assert offdiag_hs_norm(p) < 1e-6
        np.testing.assert_allclose(np.real(np.diag(p)), np.real(np.diag(target)), atol=1e-6)


class TestDbiEncoding:
    def test_decreasing_diagonal_rejected(self):
        with pytest.raises(InvariantError):
            DBIConfig(diagonal=np.diag([1.0, 0.0]), initial=np.eye(2))

    def test_encoded_state_full_rank(self):
        p = seeded_operator(3, 21)
        rho, scale = dbi_encode(p)
        assert np.min(np.linalg.eigvalsh(rho.matrix)) > 0
        # scale * rho undoes the normalization: the residue is the shift
        residue = scale * rho.matrix - p
        assert np.max(np.abs(residue - residue[0, 0] * np.eye(3))) < 1e-10
        assert np.real(residue[0, 0]) > 0

    def test_engine_spec_flow_matches_direct_iteration(self):
        dim = 3
        d = np.diag(np.arange(dim, dtype=float))
        p0 = seeded_operator(dim, 23)
        cfg = DBIConfig(diagonal=d, initial=p0, step_size=0.05)
        spec = dbi_recursion_spec(cfg)
        rec = run_exact(spec, 5)
        rho, scale = dbi_encode(p0)
        direct = rho.matrix
        for _ in range(5):
            direct = dbi_step(direct, d, 0.05 * scale)
        np.testing.assert_allclose(rec.final_state.matrix, direct, atol=1e-10)


class TestQiteStep:
    def test_eigenvector_is_fixed(self):
        h = np.diag([0.0, 1.0, 2.0])
        psi = PureState([0.0, 1.0, 0.0])
        out = qite_step(psi, h, 0.3)
        assert abs(abs(out.overlap(psi)) - 1.0) < 1e-12

    def test_two_level_closed_form(self):
        # angle recurrence theta' = theta - (s/2) sin(2 theta), derived from
        # the rotation generated by [psi, H] in the plane
        h = np.diag([0.0, 1.0])
        s = 0.4
        theta = math.pi / 4
        psi = PureState([math.cos(theta), math.sin(theta)])
        for _ in range(20):
            psi = qite_step(psi, h, s)
            theta = theta - (s / 2) * math.sin(2 * theta)
            predicted = np.array([math.cos(theta), math.sin(theta)])
            assert 1.0 - abs(np.vdot(predicted, psi.amplitudes)) < 1e-10

    def test_energy_decreases_toward_zero(self):
        h = np.diag([0.0, 1.0])
        psi = PureState([1 / math.sqrt(2), 1 / math.sqrt(2)])
        canonical = 1 / (4 * np.linalg.norm(h))
        energies = [energy(psi, h)]
        for _ in range(60):
            psi = qite_step(psi, h, canonical)
            energies.append(energy(psi, h))
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert energies[-1] < 0.05

    def test_energy_monotone_at_canonical_step(self):
        h = heisenberg_chain()
        psi = random_pure(8, 3)
        cfg = QITEConfig(hamiltonian=h, initial=psi)
        s = cfg.resolved_step()
        energies = [energy(psi, h)]
        for _ in range(30):
            psi = qite_step(psi, h, s)
            energies.append(energy(psi, h))
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_cost_energy_affine_relation(self):
        # ||psi - (-H)||_2^2 = 1 + Tr H^2 + 2 <H>
        h = seeded_operator(4, 31)
        psi = random_pure(4, 32)
        cost = dbi_cost(psi.matrix, -h)
        expected = 1.0 + np.real(np.trace(h @ h)) + 2.0 * energy(psi, h)
        assert cost == pytest.approx(expected, rel=1e-12)


class TestQiteEncoding:
    def test_shifted_hamiltonian_properties(self):
        h = heisenberg_chain()
        shifted, chi, tr = qite_encode_hamiltonian(h)
        assert np.linalg.eigvalsh(shifted).min() >= -1e-10
        assert abs(np.trace(chi.matrix) - 1.0) < 1e-12
        assert tr == pytest.approx(np.real(np.trace(shifted)), rel=1e-12)

    def test_identity_hamiltonian_rejected(self):
        with pytest.raises(InvariantError):
            qite_encode_hamiltonian(np.eye(3))

    @staticmethod
    def large_hamiltonian():
        # at norm 1e8 the shifted H's least eigenvalue reads -5.9e-8 from
        # roundoff, yet it normalizes to a valid resource state
        rng = np.random.default_rng(1)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        return 1e8 * (g + g.conj().T) / 2

    def test_large_hamiltonian_is_encoded(self):
        shifted, chi, tr = qite_encode_hamiltonian(self.large_hamiltonian())
        np.testing.assert_allclose(chi.matrix, shifted / tr, rtol=0, atol=1e-15)
        assert abs(chi.eigenvalues.min()) <= 1e-15  # zero at the state's scale

    def test_large_hamiltonian_builds_a_spec(self):
        h = self.large_hamiltonian()
        spec = qite_recursion_spec(QITEConfig(hamiltonian=h, initial=random_pure(4, 0)))
        np.testing.assert_array_equal(spec.target.amplitudes, ground_state(h)[0].amplitudes)

    def test_zero_ground_overlap_rejected(self):
        h = np.diag([0.0, 1.0, 2.0])
        cfg = QITEConfig(hamiltonian=h, initial=PureState([0.0, 1.0, 0.0]))
        with pytest.raises(InvariantError):
            qite_recursion_spec(cfg)


class TestQiteQdp:
    def test_exact_engine_run_reproduces_direct_steps(self):
        h = heisenberg_chain()
        psi0 = random_pure(8, 11)
        cfg = QITEConfig(hamiltonian=h, initial=psi0, step_size=0.1)
        rec = run_exact(qite_recursion_spec(cfg), 4)
        psi = psi0
        for _ in range(4):
            psi = qite_step(psi, h, 0.1)
        np.testing.assert_allclose(rec.final_state.matrix, psi.matrix, atol=1e-10)

    def test_ground_state_is_stationary(self):
        h = heisenberg_chain()
        gs, _ = ground_state(h)
        cfg = QITEConfig(hamiltonian=h, initial=gs, step_size=0.1)
        spec = qite_recursion_spec(cfg)
        # the exact flow pins the ground state exactly; a query run tracks it
        # up to accumulated channel noise, which purification keeps small
        exact = run_exact(spec, 3)
        assert exact.points[-1].distance_to_target <= 1e-10
        imr = IMRConfig(reduction_factor=10.0, copies_out=64, failure_threshold=0.05)
        noisy = run_qdp(spec, 3, 256, imr=imr)
        assert noisy.points[-1].distance_to_target <= 2e-2

    def test_one_step_local_accuracy_inverse_m(self):
        h = heisenberg_chain()
        cfg = QITEConfig(hamiltonian=h, initial=random_pure(8, 13), step_size=0.1)
        spec = qite_recursion_spec(cfg)
        products = []
        for m in (16, 32, 64, 128):
            rec = run_qdp(spec, 1, m)
            val = local_accuracy_check(rec.points[1].state, spec.resolve_step(0), spec.root)
            products.append(val * m)
        assert max(products) / min(products) <= 3.0

    def test_purified_run_reduces_infidelity(self):
        h = heisenberg_chain()
        gs, _ = ground_state(h)
        cfg = QITEConfig(hamiltonian=h, initial=random_pure(8, 7), step_size=0.15)
        imr = IMRConfig(reduction_factor=20.0, copies_out=64, failure_threshold=0.05)
        rec = qite_qdp_run(cfg, 6, 64, imr=imr)
        infid = [
            1.0 - float(np.real(np.vdot(gs.amplitudes, p.state.matrix @ gs.amplitudes)))
            for p in rec.points
        ]
        assert infid[-1] < infid[0] / 3
