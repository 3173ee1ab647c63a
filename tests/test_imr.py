import numpy as np
import pytest

from helpers import random_hermitian
from qdpsim import (
    DensityMatrix,
    IMRConfig,
    InfeasibleConfigError,
    InvariantError,
    herm_exp,
    imr_ratio_bound,
    imr_round,
    imr_subroutine,
    mixedness,
    random_pure,
)
from qdpsim.imr import PURE_MIXEDNESS_PER_DIM


def seeded_state_with_mixedness(dim, x, seed):
    """Random eigenbasis, top eigenvalue 1-x, remaining weight random."""
    rng = np.random.default_rng(seed)
    rest = rng.uniform(0.1, 1.0, dim - 1)
    rest = x * rest / rest.sum()
    eigs = np.concatenate([[1.0 - x], rest])
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v, _ = np.linalg.qr(g)
    return DensityMatrix((v * eigs) @ v.conj().T)


class TestMixedness:
    def test_pure_state(self):
        v = np.zeros(3)
        v[0] = 1.0
        assert mixedness(DensityMatrix(np.outer(v, v))) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        assert mixedness(DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.75, abs=1e-14)

    def test_read_off_spectrum(self):
        assert mixedness(DensityMatrix(np.diag([0.8, 0.2]))) == pytest.approx(0.2, abs=1e-14)

    def test_reads_the_spectrum_the_state_keeps(self):
        for seed in range(5):
            rho = seeded_state_with_mixedness(4, 0.1, seed)
            assert mixedness(rho) == float(1.0 - np.max(np.linalg.eigvalsh(rho.matrix)))


class TestRound:
    def test_two_level_closed_form(self):
        out, p = imr_round(DensityMatrix(np.diag([0.8, 0.2])))
        # (1 + 0.8) * 0.8 / (1 + 0.68) = 1.44 / 1.68 = 6/7
        assert np.max(np.linalg.eigvalsh(out.matrix)) == pytest.approx(6 / 7, abs=1e-12)
        assert p == pytest.approx(0.84, abs=1e-12)

    def test_maximally_mixed_fixed_point(self):
        rho = DensityMatrix(np.eye(4) / 4)
        out, p = imr_round(rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)
        assert p == pytest.approx((1 + 0.25) / 2, abs=1e-14)

    def test_pure_state_fixed_point(self):
        v = np.zeros(2)
        v[0] = 1.0
        out, p = imr_round(DensityMatrix(np.outer(v, v)))
        np.testing.assert_allclose(out.matrix, np.outer(v, v), atol=1e-14)
        assert p == pytest.approx(1.0, abs=1e-14)

    def test_eigenvalue_map(self):
        rho = seeded_state_with_mixedness(4, 0.25, 3)
        eigs = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        out, _ = imr_round(rho)
        expected = eigs * (1 + eigs) / (1 + np.sum(eigs**2))
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out.matrix))[::-1], expected, atol=1e-12
        )

    def test_eigenbasis_preserved(self):
        rho = seeded_state_with_mixedness(5, 0.3, 7)
        out, _ = imr_round(rho)
        comm = rho.matrix @ out.matrix - out.matrix @ rho.matrix
        assert np.max(np.abs(comm)) < 1e-12


class TestRatioBound:
    def test_endpoints(self):
        assert imr_ratio_bound(0.0) == pytest.approx(0.5, abs=1e-15)
        assert imr_ratio_bound(1 / 3) == pytest.approx(12 / 13, abs=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvariantError):
            imr_ratio_bound(1.0)

    def test_holds_on_seeded_sweep(self):
        count = 0
        for dim in range(2, 9):
            for trial in range(30):
                x = 1 / 3 * (trial + 1) / 30
                rho = seeded_state_with_mixedness(dim, x, 100 * dim + trial)
                x0 = mixedness(rho)
                out, _ = imr_round(rho)
                x1 = mixedness(out)
                assert x1 / x0 <= imr_ratio_bound(x0) + 1e-12
                count += 1
        assert count >= 200

    def test_success_probability_floor(self):
        for dim in (2, 4, 8):
            for trial in range(10):
                rho = seeded_state_with_mixedness(dim, 0.3 * (trial + 1) / 10, trial)
                _, p = imr_round(rho)
                assert p >= 1.0 - mixedness(rho) - 1e-12


class TestMonotonePurification:
    def test_strictly_increasing_top_eigenvalue(self):
        rho = seeded_state_with_mixedness(4, 0.2, 11)
        lam0 = 1.0 - mixedness(rho)
        out, _ = imr_round(rho)
        assert 1.0 - mixedness(out) > lam0

    def test_order_preserved(self):
        rho = seeded_state_with_mixedness(6, 0.3, 13)
        eigs_in = np.sort(np.linalg.eigvalsh(rho.matrix))
        eigs_out = np.sort(np.linalg.eigvalsh(imr_round(rho)[0].matrix))
        # both sorted ascending; the map is monotone so order is shared
        assert np.all(np.diff(eigs_out) >= -1e-14)
        assert np.all(np.diff(eigs_in) >= -1e-14)


class TestSubroutine:
    def test_pure_input_short_circuits(self):
        v = np.zeros(3)
        v[0] = 1.0
        out = imr_subroutine(DensityMatrix(np.outer(v, v)), IMRConfig(2.0, copies_out=5))
        assert out.rounds_used == 0
        assert out.copies_consumed == 5
        assert out.success_probability == 1.0

    def test_pure_to_roundoff_runs_no_round(self):
        # random_pure(4, 1) reads mixedness 2.2e-16 and random_pure(4, 8) 1.1e-16:
        # purifying them would charge rounds that cannot reduce anything.
        for seed in (1, 8):
            rho = random_pure(4, seed).density()
            assert 0.0 < mixedness(rho) <= PURE_MIXEDNESS_PER_DIM * 4
            out = imr_subroutine(rho, IMRConfig(2.0, copies_out=1, failure_threshold=0.99))
            assert out.rounds_used == 0 and out.state is rho
            assert out.success_probability == 1.0

    @pytest.mark.parametrize("dim, seed", [(2, 0), (16, 13), (32, 6)])
    def test_pure_to_roundoff_after_many_steps_runs_no_round(self, dim, seed):
        # These chains read up to 8.0, 9.0 and 8.5 eps: a floor of 8 eps
        # regardless of dim would charge the last two rounds.
        mat = random_pure(dim, seed).density().matrix
        us = [herm_exp(random_hermitian(dim, 1000 * seed + k), 0.9) for k in range(4)]
        cfg = IMRConfig(2.0, copies_out=1, failure_threshold=0.99)
        for k in range(400):
            rho = DensityMatrix(us[k % 4] @ mat @ us[k % 4].conj().T)
            mat = rho.matrix
            assert mixedness(rho) <= PURE_MIXEDNESS_PER_DIM * dim
            assert imr_subroutine(rho, cfg).rounds_used == 0

    def test_small_mixedness_halving_needs_two_rounds(self):
        # the per-round ratio bound is 1/2 + O(x), strictly above 1/2, so a
        # factor-2 reduction takes two rounds even at x = 0.01
        rho = DensityMatrix(np.diag([0.99, 0.01]))
        out = imr_subroutine(rho, IMRConfig(2.0, copies_out=1000, failure_threshold=0.01))
        assert out.rounds_used == 2
        assert mixedness(out.state) <= 0.01 / 2.0
        assert out.success_probability >= 1 - 0.01

    def test_rounds_follow_tracked_eigenvalue_map(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        out = imr_subroutine(rho, IMRConfig(4.0, copies_out=100, failure_threshold=0.01))
        lam = 0.9
        for _ in range(out.rounds_used):
            ssq = lam * lam + (1 - lam) ** 2
            lam = lam * (1 + lam) / (1 + ssq)
        assert 1.0 - mixedness(out.state) == pytest.approx(lam, abs=1e-12)
        assert mixedness(out.state) <= 0.1 / 4.0

    def test_reduction_factor_met_on_sweep(self):
        for seed in range(10):
            rho = seeded_state_with_mixedness(4, 0.3, 500 + seed)
            x0 = mixedness(rho)
            out = imr_subroutine(rho, IMRConfig(3.0, copies_out=200, failure_threshold=0.05))
            assert mixedness(out.state) <= x0 / 3.0 + 1e-12

    def test_copies_accounting(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        cfg = IMRConfig(4.0, copies_out=100, failure_threshold=0.01)
        out = imr_subroutine(rho, cfg)
        # survival rate clamps at 1/2, so each round doubles twice the input
        assert out.copies_consumed == int(np.ceil(100 * (2 / 0.5) ** out.rounds_used))

    def test_precondition_rejected(self):
        with pytest.raises(InvariantError):
            imr_subroutine(DensityMatrix(np.eye(2) / 2), IMRConfig(2.0))

    def test_infeasible_copy_budget(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        with pytest.raises(InfeasibleConfigError):
            imr_subroutine(rho, IMRConfig(2.0, copies_out=1, failure_threshold=1e-9))

    def test_round_limit_stops_a_run_that_does_not_converge(self, monkeypatch):
        # the guard stops a loop whose rounds keep running; lower it to reach it
        monkeypatch.setattr("qdpsim.imr.MAX_ROUNDS", 1)
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        with pytest.raises(InfeasibleConfigError, match="purification is not contracting"):
            imr_subroutine(rho, IMRConfig(1e6, copies_out=100, failure_threshold=0.01))

    def test_config_validation(self):
        with pytest.raises(InvariantError):
            IMRConfig(reduction_factor=1.0)
        with pytest.raises(InvariantError):
            IMRConfig(reduction_factor=2.0, copies_out=0)
        with pytest.raises(InvariantError):
            IMRConfig(reduction_factor=2.0, failure_threshold=1.5)
