import numpy as np
import pytest

from qdpsim import (
    DimensionError,
    InvariantError,
    OSDConfig,
    PureState,
    offdiag_hs_norm,
    osd_recursion_spec,
    osd_run,
    partial_trace,
    random_pure,
    run_exact,
    schmidt_estimate,
    schmidt_oracle,
)


def bipartite_pure(amplitudes):
    return PureState(np.asarray(amplitudes, dtype=complex))


class TestSchmidtOracle:
    def test_product_state(self):
        psi = bipartite_pure([1, 0, 0, 0])
        np.testing.assert_allclose(schmidt_oracle(psi, (2, 2)), [1.0, 0.0], atol=1e-14)

    def test_bell_state(self):
        psi = bipartite_pure([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
        np.testing.assert_allclose(schmidt_oracle(psi, (2, 2)), [0.5, 0.5], atol=1e-14)

    def test_weighted_superposition(self):
        psi = bipartite_pure([np.sqrt(0.9), 0, 0, np.sqrt(0.1)])
        np.testing.assert_allclose(schmidt_oracle(psi, (2, 2)), [0.9, 0.1], atol=1e-14)

    def test_sums_to_one(self):
        psi = PureState(random_pure(6, 4).amplitudes)
        assert np.sum(schmidt_oracle(psi, (2, 3))) == pytest.approx(1.0, abs=1e-12)


class TestConfigValidation:
    def test_dims_must_match_state(self):
        with pytest.raises(DimensionError):
            OSDConfig(
                dims=(2, 2),
                diagonal=np.diag([0.0, 1.0]),
                initial=random_pure(6, 1),
            )

    def test_degenerate_diagonal_rejected(self):
        cfg = OSDConfig(
            dims=(2, 2),
            diagonal=np.diag([1.0, 1.0]),
            initial=PureState(random_pure(4, 2).amplitudes),
        )
        with pytest.raises(InvariantError):
            osd_recursion_spec(cfg)

    @pytest.mark.parametrize("n_steps, m_queries", [(-1, 32), (20, 0)], ids=["n-steps", "m"])
    def test_step_and_query_counts_checked(self, n_steps, m_queries):
        with pytest.raises(InvariantError, match="need n_steps >= 0 and m_queries >= 1"):
            OSDConfig(dims=(2, 2), diagonal=np.diag([0.0, 1.0]),
                      initial=PureState(random_pure(4, 2).amplitudes),
                      n_steps=n_steps, m_queries=m_queries)

    def test_canonical_step(self):
        psi = PureState(random_pure(4, 2).amplitudes)
        cfg = OSDConfig(dims=(2, 2), diagonal=np.diag([0.0, 1.0]), initial=psi)
        reduced = partial_trace(psi.projector(), (2, 2), keep=[0])
        assert cfg.resolved_step() == 1.0 / (4.0 * np.linalg.norm(reduced) * 1.0)

    def test_zero_diagonal_has_no_canonical_step(self):
        cfg = OSDConfig(dims=(2, 2), diagonal=np.zeros((2, 2)),
                        initial=PureState(random_pure(4, 2).amplitudes))
        with pytest.raises(InvariantError, match="canonical step size needs non-zero"):
            cfg.resolved_step()


class TestSchmidtEstimate:
    @pytest.mark.parametrize("mu, expected", [([0.0, 1.0], [0.1, 0.9]), ([1.0, 0.0], [0.9, 0.1])])
    def test_reads_the_reduced_diagonal_in_descending_mu_order(self, mu, expected):
        psi = bipartite_pure([np.sqrt(0.9), 0, 0, np.sqrt(0.1)])
        estimate = schmidt_estimate(psi.projector(), (2, 2), np.diag(mu))
        np.testing.assert_allclose(estimate, expected, atol=1e-14)


class TestOsdRun:
    def test_aligned_state_is_stationary(self):
        # already Schmidt-aligned with the computational basis
        psi = bipartite_pure([np.sqrt(0.3), 0, 0, np.sqrt(0.7)])
        cfg = OSDConfig(
            dims=(2, 2),
            diagonal=np.diag([0.0, 1.0]),
            initial=psi,
            n_steps=5,
            m_queries=16,
        )
        record, estimate = osd_run(cfg)
        np.testing.assert_allclose(np.sort(estimate)[::-1], [0.7, 0.3], atol=1e-8)
        exact = run_exact(osd_recursion_spec(cfg), 5)
        np.testing.assert_allclose(
            exact.final_state.matrix, psi.projector(), atol=1e-10
        )

    @pytest.mark.parametrize("dims,seed", [((2, 2), 5), ((2, 3), 9)])
    def test_estimate_matches_oracle(self, dims, seed):
        da, db = dims
        psi = PureState(random_pure(da * db, seed).amplitudes)
        cfg = OSDConfig(
            dims=dims,
            diagonal=np.diag(np.arange(da, dtype=float)),
            initial=psi,
            n_steps=40,
            m_queries=64,
        )
        record, estimate = osd_run(cfg)
        oracle = schmidt_oracle(psi, dims)
        assert np.max(np.abs(np.sort(estimate)[::-1] - oracle)) <= 1e-2

    def test_offdiagonal_norm_decreases_after_burn_in(self):
        dims = (2, 2)
        psi = PureState(random_pure(4, 5).amplitudes)
        cfg = OSDConfig(
            dims=dims,
            diagonal=np.diag([0.0, 1.0]),
            initial=psi,
            n_steps=30,
            m_queries=64,
        )
        record, _ = osd_run(cfg)
        offd = [
            offdiag_hs_norm(partial_trace(p.state.matrix, dims, keep=[0]))
            for p in record.points
        ]
        assert all(b <= a + 1e-12 for a, b in zip(offd[5:], offd[6:]))

    def test_estimate_ordering_follows_instruction_diagonal(self):
        # descending instruction entries put the largest coefficient first
        dims = (2, 2)
        psi = PureState(random_pure(4, 8).amplitudes)
        cfg = OSDConfig(
            dims=dims,
            diagonal=np.diag([0.0, 1.0]),
            initial=psi,
            n_steps=40,
            m_queries=64,
        )
        _, estimate = osd_run(cfg)
        assert estimate[0] >= estimate[1]

    def test_reduced_state_distance_to_sorted_target_decreases(self):
        dims = (2, 2)
        psi = PureState(random_pure(4, 12).amplitudes)
        cfg = OSDConfig(
            dims=dims,
            diagonal=np.diag([0.0, 1.0]),
            initial=psi,
            n_steps=30,
            m_queries=64,
        )
        record, _ = osd_run(cfg)
        target = np.diag(np.sort(schmidt_oracle(psi, dims)))  # ascending on ascending entries
        from qdpsim import trace_distance

        dists = [
            trace_distance(partial_trace(p.state.matrix, dims, keep=[0]), target)
            for p in record.points
        ]
        assert all(b <= a + 1e-9 for a, b in zip(dists[5:], dists[6:]))
        assert dists[-1] < dists[5]
