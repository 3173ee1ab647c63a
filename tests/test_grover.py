import math

import numpy as np
import pytest

from qdpsim import (
    DensityMatrix,
    DimensionError,
    ExactStrategy,
    GroverConfig,
    IMRConfig,
    InvariantError,
    PureState,
    grover_angles,
    grover_config_from_distance,
    grover_delta_sequence,
    grover_qdp_run,
    grover_recursion_spec,
    grover_step,
    local_accuracy_check,
    mixed_reflection_identity_check,
    partial_reflection,
    relevant_subspace_weight,
    run_exact,
    run_qdp,
    run_strategy,
)


def pure_distance(psi, tau):
    resid = psi.amplitudes - np.vdot(tau.amplitudes, psi.amplitudes) * tau.amplitudes
    return float(np.linalg.norm(resid))


class TestAngles:
    @pytest.mark.parametrize("alternations", [1, 2, 3, 5])
    def test_antisymmetry_exact(self, alternations):
        alphas, betas = grover_angles(alternations, 0.4)
        np.testing.assert_array_equal(betas, -alphas[::-1])

    def test_finite_near_degenerate_q(self):
        for alternations in (1, 2, 3):
            alphas, betas = grover_angles(alternations, 1 - 1e-6)
            assert np.all(np.isfinite(alphas)) and np.all(np.isfinite(betas))

    def test_rejects_q_outside_unit_interval(self):
        with pytest.raises(InvariantError):
            grover_angles(1, 0.0)
        with pytest.raises(InvariantError):
            grover_angles(1, 1.0)

    def test_rejects_no_alternations(self):
        with pytest.raises(InvariantError, match="alternation count must be >= 1"):
            grover_angles(0, 0.5)

    def test_convention_pinned_by_one_step_recurrence(self):
        # the inner Chebyshev argument (1/q) and the target family's phase
        # sense are exactly the combination that makes the distance recurrence
        # hold; any sign flip breaks this by orders of magnitude
        cfg = grover_config_from_distance(0.6, 1, 1)
        target = grover_delta_sequence(0.6, 1, 1)[1]
        out = grover_step(cfg.initial, cfg, target)
        assert pure_distance(out, cfg.target) == pytest.approx(target, abs=1e-10)


class TestDeltaSequence:
    def test_zero_steps(self):
        assert grover_delta_sequence(0.35, 2, 0) == [0.35]

    def test_closed_form_cross_check(self):
        # composing one-step recurrences equals sech((2L+1)^n arcosh(1/d0))
        d0, alternations = 0.6, 1
        seq = grover_delta_sequence(d0, alternations, 2)
        closed = 1.0 / np.cosh(9 * np.arccosh(1 / d0))
        assert seq[2] == pytest.approx(closed, rel=1e-12)
        assert seq[2] == pytest.approx(1.0161052658830718e-04, rel=1e-10)

    def test_inflated_recurrence(self):
        seq = grover_delta_sequence(0.6, 1, 2, eps=0.05)
        base = grover_delta_sequence(0.6, 1, 1)[1]
        assert seq[1] == pytest.approx(base + 0.05, rel=1e-12)

    def test_rejects_bad_delta0(self):
        with pytest.raises(InvariantError):
            grover_delta_sequence(1.2, 1, 1)

    def test_rejects_negative_step_count(self):
        with pytest.raises(InvariantError, match="n_steps must be >= 0"):
            grover_delta_sequence(0.6, 1, -1)

    def test_inflation_past_one_is_rejected(self):
        # delta_1 = sech(3 arcsech(0.9)) + 0.7 > 1 has no arcsech for delta_2
        with pytest.raises(InvariantError, match="arcsech needs x in"):
            grover_delta_sequence(0.9, 1, 2, eps=0.7)

    @pytest.mark.parametrize("alternations", [1, 2, 3])
    @pytest.mark.parametrize("delta0", [0.3, 0.6, 0.95])
    def test_step_is_inverse_chebyshev_of_inverse(self, delta0, alternations):
        # sech(q arcsech(x)) = 1 / T_q(1/x), with T_q from its power-series coefficients
        t_q = np.polynomial.chebyshev.Chebyshev.basis(2 * alternations + 1)
        seq = grover_delta_sequence(delta0, alternations, 1)
        assert seq[1] == pytest.approx(1.0 / t_q(1.0 / delta0), rel=1e-12)

    def test_contraction_map_monotone_and_convex_on_grid(self):
        for alternations in (1, 2):
            order = 2 * alternations + 1
            xs = np.linspace(1e-3, 1 - 1e-3, 201)
            h = np.array([1 / np.cosh(order * np.arccosh(1 / x)) for x in xs])
            assert np.all(np.diff(h) > 0)  # increasing
            mid = (h[:-2] + h[2:]) / 2
            assert np.all(mid >= h[1:-1] - 1e-12)  # midpoint convex


class TestGroverStep:
    def test_target_is_fixed_point(self):
        cfg = grover_config_from_distance(0.5, 2, 1)
        out = grover_step(cfg.target, cfg, 0.3)
        assert pure_distance(out, cfg.target) <= 1e-10

    def test_one_step_distance(self):
        # sech(3 arcsech 0.6) = 54/730
        cfg = grover_config_from_distance(0.6, 1, 1)
        out = grover_step(cfg.initial, cfg, 54 / 730)
        assert pure_distance(out, cfg.target) == pytest.approx(54 / 730, abs=1e-8)

    @pytest.mark.parametrize("alternations", [1, 2, 3])
    def test_lands_on_inverse_chebyshev_distance(self, alternations):
        # the angles' fractional Chebyshev value T_{1/(2L+1)}(1/q) inverts T_{2L+1}
        t_q = np.polynomial.chebyshev.Chebyshev.basis(2 * alternations + 1)
        target = 1.0 / t_q(1.0 / 0.8)
        cfg = grover_config_from_distance(0.8, alternations, 1)
        out = grover_step(cfg.initial, cfg, target)
        assert pure_distance(out, cfg.target) == pytest.approx(target, abs=1e-10)

    def test_support_stays_in_plane(self):
        cfg = grover_config_from_distance(0.7, 2, 1, dim=5, seed=2)
        psi = cfg.initial
        for q in (0.3, 0.1):
            psi = grover_step(psi, cfg, q)
            weight = relevant_subspace_weight(psi.density(), cfg.initial, cfg.target)
            assert weight <= 1e-10


class TestCascadeAccuracy:
    @pytest.mark.parametrize("alternations", [1, 2, 3])
    @pytest.mark.parametrize("delta0", [0.3, 0.6, 0.9])
    def test_exact_runs_match_recurrence(self, alternations, delta0):
        cfg = grover_config_from_distance(delta0, alternations, 3)
        rec = run_exact(grover_recursion_spec(cfg), 3)
        deltas = grover_delta_sequence(delta0, alternations, 3)
        for pt, d in zip(rec.points, deltas):
            assert abs(pt.distance_to_target - d) <= 1e-8


class TestGroverConfig:
    TARGET = PureState([1.0, 0.0])
    INITIAL = PureState([0.6, 0.8])

    @pytest.mark.parametrize(
        "initial, alternations, n_steps, error, match",
        [
            (INITIAL, 0, 1, InvariantError, "alternation count must be >= 1"),
            (INITIAL, 1, -1, InvariantError, "n_steps must be >= 0"),
            (PureState([0.6, 0.8, 0.0]), 1, 1, DimensionError, "initial and target dims differ"),
            (PureState([0.0, 1.0]), 1, 1, InvariantError, "must overlap the target"),
        ],
        ids=["alternations", "n-steps", "dims", "orthogonal"],
    )
    def test_rejects(self, initial, alternations, n_steps, error, match):
        with pytest.raises(error, match=match):
            GroverConfig(initial=initial, target=self.TARGET,
                         alternations=alternations, n_steps=n_steps)

    def test_from_distance_rejects_one_dimension(self):
        with pytest.raises(DimensionError, match="need dim >= 2"):
            grover_config_from_distance(0.6, 1, 1, dim=1)

    def test_step_outside_the_schedule_is_rejected(self):
        cfg = grover_config_from_distance(0.6, 1, 2)
        with pytest.raises(InvariantError, match="step index 2 outside schedule of 2"):
            run_strategy(grover_recursion_spec(cfg), cfg.n_steps + 1, ExactStrategy())


class TestGroverQdp:
    def test_rejects_small_query_budget(self):
        cfg = grover_config_from_distance(0.6, 2, 1)
        with pytest.raises(InvariantError):
            grover_qdp_run(cfg, 3)

    def test_final_distance_within_inflated_bound(self):
        eps = 0.05
        cfg = grover_config_from_distance(0.6, 1, 2)
        rec = grover_qdp_run(cfg, 128, eps=eps)
        deltas = grover_delta_sequence(0.6, 1, 2, eps)
        bound = deltas[-1] + eps / (2 * 1 * math.pi)
        assert rec.points[-1].distance_to_target <= bound

    def test_local_accuracy_scales_inverse_m(self):
        cfg = grover_config_from_distance(0.6, 2, 1)
        spec = grover_recursion_spec(cfg)
        products = []
        for m in (16, 32, 64, 128):
            rec = run_qdp(spec, 1, m)
            val = local_accuracy_check(rec.points[1].state, spec.resolve_step(0), spec.root)
            assert val <= 7 * 2**2 / m  # the analytic per-step ceiling
            products.append(val * m)
        assert max(products) / min(products) <= 3.0

    def test_purification_keeps_mixedness_below_threshold(self):
        eps, alternations = 0.2, 1
        cfg = grover_config_from_distance(0.6, alternations, 3)
        imr = IMRConfig(
            reduction_factor=alternations * math.pi / 2,
            copies_out=64,
            failure_threshold=0.05,
        )
        rec = grover_qdp_run(cfg, 64, eps=eps, imr=imr)
        threshold = eps / (2 * alternations * math.pi)
        for pt in rec.points[1:]:
            assert pt.mixedness <= threshold
        assert rec.final_ledger.imr_copies > 0
        assert rec.final_ledger.success_probability >= 1 - 3 * 0.05

    def test_subspace_invariance_of_query_runs(self):
        cfg = grover_config_from_distance(0.6, 2, 2, dim=4, seed=5)
        rec = grover_qdp_run(cfg, 16)
        for pt in rec.points:
            assert relevant_subspace_weight(pt.state, cfg.initial, cfg.target) <= 1e-10


class TestMixedReflectionIdentity:
    def test_pure_case_trivial(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        assert mixed_reflection_identity_check(rho, 0.9) <= 1e-10

    def test_mixed_rank_two(self):
        rho = DensityMatrix(np.diag([0.9, 0.1, 0.0]))
        assert mixed_reflection_identity_check(rho, math.pi / 2) <= 1e-10

    def test_maximally_mixed_plane_acts_as_phase(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        assert mixed_reflection_identity_check(rho, 1.23) <= 1e-10

    def test_rejects_rank_three(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        with pytest.raises(InvariantError):
            mixed_reflection_identity_check(rho, 0.5)


def test_partial_reflection_full_angle_is_reflection():
    v = np.zeros(2)
    v[0] = 1.0
    r = partial_reflection(np.outer(v, v), math.pi)
    np.testing.assert_allclose(r, np.diag([-1.0, 1.0]), atol=1e-14)
