import numpy as np
import pytest

from qdpsim import (
    DBIConfig,
    DensityMatrix,
    ExactStrategy,
    HybridStrategy,
    IMRConfig,
    InvariantError,
    MemoryCallSpec,
    QDPStrategy,
    QueryGenerator,
    RecursionSpec,
    RecursionStepSpec,
    UnfoldingStrategy,
    UnsupportedSpecError,
    dbi_recursion_spec,
    grover_config_from_distance,
    grover_delta_sequence,
    grover_recursion_spec,
    local_accuracy_check,
    make_commutator_map,
    make_identity_map,
    make_scaled_identity_map,
    random_density,
    run_exact,
    run_hybrid,
    run_qdp,
    run_strategy,
    run_unfolding,
    trace_distance,
    unfolding_cost,
)


def commuting_spec(dim=3):
    """Memory-calls that annihilate every diagonal state: a constant recursion."""
    d = np.diag(np.arange(dim, dtype=float))
    call = MemoryCallSpec(map=make_commutator_map(d, 0.7), duration=1.0)
    eye = np.eye(dim, dtype=complex)
    step = RecursionStepSpec(static_unitaries=(eye, eye), memory_calls=(call,))
    root = DensityMatrix(np.diag(np.arange(1, dim + 1, dtype=float) / (dim * (dim + 1) / 2)))
    return RecursionSpec(step=step, root=root)


def small_dbi_spec(dim=4, seed=8):
    cfg = DBIConfig(
        diagonal=np.diag(np.arange(dim, dtype=float)),
        initial=random_density(dim, seed).matrix * dim,
    )
    return dbi_recursion_spec(cfg)


class TestStepSpecValidation:
    def test_length_mismatch(self):
        call = MemoryCallSpec(map=make_identity_map(2))
        with pytest.raises(InvariantError):
            RecursionStepSpec(static_unitaries=(np.eye(2),), memory_calls=(call,))

    def test_non_unitary_static(self):
        call = MemoryCallSpec(map=make_identity_map(2))
        with pytest.raises(InvariantError):
            RecursionStepSpec(
                static_unitaries=(np.eye(2) * 2, np.eye(2)), memory_calls=(call,)
            )


class TestRunExact:
    def test_zero_steps(self):
        spec = commuting_spec()
        rec = run_exact(spec, 0)
        assert len(rec) == 1
        np.testing.assert_array_equal(rec.final_state.matrix, spec.root.matrix)

    def test_commuting_fixed_point(self):
        spec = commuting_spec()
        rec = run_exact(spec, 4)
        for pt in rec.points:
            np.testing.assert_allclose(pt.state.matrix, spec.root.matrix, atol=1e-12)

    def test_grover_distances_match_recurrence(self):
        cfg = grover_config_from_distance(0.6, 2, 3)
        rec = run_exact(grover_recursion_spec(cfg), 3)
        deltas = grover_delta_sequence(0.6, 2, 3)
        for pt, d in zip(rec.points, deltas):
            assert abs(pt.distance_to_target - d) < 1e-10

    def test_isospectral_to_root(self):
        spec = small_dbi_spec()
        rec = run_exact(spec, 10)
        root_eigs = np.linalg.eigvalsh(spec.root.matrix)
        for pt in rec.points:
            np.testing.assert_allclose(
                np.linalg.eigvalsh(pt.state.matrix), root_eigs, atol=1e-8
            )


class TestRunQdp:
    def test_zero_steps_ledger(self):
        spec = commuting_spec()
        rec = run_qdp(spec, 0, 5)
        assert rec.final_ledger.width == 1
        assert rec.final_ledger.depth == 0

    def test_width_formula(self):
        spec = commuting_spec()
        rec = run_qdp(spec, 3, 5)
        assert rec.final_ledger.width == 216  # (5+1)^3

    def test_large_m_approaches_exact(self):
        spec = small_dbi_spec()
        approx = run_qdp(spec, 1, 512)
        exact = run_exact(spec, 1)
        assert trace_distance(approx.final_state.matrix, exact.final_state.matrix) <= 1e-3

    def test_convergence_in_m(self):
        spec = small_dbi_spec()
        exact = run_exact(spec, 3).final_state.matrix
        errs = {}
        for m in (8, 16, 32, 64, 128):
            errs[m] = trace_distance(run_qdp(spec, 3, m).final_state.matrix, exact)
        ms = sorted(errs)
        for a, b in zip(ms, ms[1:]):
            assert errs[b] <= errs[a] * 1.2  # monotone up to 20% noise
        products = [errs[m] * m for m in ms]
        assert max(products) / min(products) <= 3.0  # O(1/m) fit

    def test_m_below_call_count_rejected(self):
        cfg = grover_config_from_distance(0.5, 2, 1)
        spec = grover_recursion_spec(cfg)
        with pytest.raises(InvariantError):
            run_qdp(spec, 1, 1)

    def test_imr_accounting(self):
        spec = small_dbi_spec()
        # encoded double-bracket roots are too mixed for purification, so use
        # a near-pure root with the same step machinery
        cfg = grover_config_from_distance(0.5, 1, 2)
        gspec = grover_recursion_spec(cfg)
        imr = IMRConfig(reduction_factor=2.0, copies_out=32, failure_threshold=0.05)
        rec = run_qdp(gspec, 2, 16, imr=imr)
        ledger = rec.final_ledger
        assert ledger.imr_copies > 0
        assert 0.0 < ledger.success_probability < 1.0
        assert ledger.width == 17**2


def count_generator_builds(monkeypatch):
    """Record every map passed to ``QueryGenerator.from_map``."""
    maps = []
    build = QueryGenerator.from_map.__func__

    def counting(cls, m):
        maps.append(m)
        return build(cls, m)

    monkeypatch.setattr(QueryGenerator, "from_map", classmethod(counting))
    return maps


class TestGeneratorReuse:
    def test_qdp_run_builds_one_generator_per_map(self, monkeypatch):
        maps = count_generator_builds(monkeypatch)
        run_qdp(small_dbi_spec(), 5, 8)
        assert len(maps) == 1

    def test_hybrid_run_builds_one_generator_per_map(self, monkeypatch):
        maps = count_generator_builds(monkeypatch)
        run_hybrid(small_dbi_spec(), 2, 3, 8)
        assert len(maps) == 1

    def test_generator_is_cached_on_the_map(self):
        m = make_identity_map(2)
        assert m.generator is m.generator


class TestUnfoldingCost:
    def test_single_step_single_call(self):
        assert unfolding_cost(1, 1) == (1, 1)

    def test_final_step_growth(self):
        final, total = unfolding_cost(1, 3)
        assert final == 9  # 1 * 3^2
        assert total == 1 + 3 + 9

    def test_two_call_case(self):
        final, _ = unfolding_cost(2, 4)
        assert final == 2 * 5**3

    def test_rejects_bad_args(self):
        with pytest.raises(InvariantError):
            unfolding_cost(0, 1)


class TestRunUnfolding:
    def test_zero_steps(self):
        spec = commuting_spec()
        rec = run_unfolding(spec, 0)
        assert len(rec) == 1

    def test_covariant_matches_exact(self):
        cfg = grover_config_from_distance(0.6, 1, 3)
        spec = grover_recursion_spec(cfg)
        unf = run_unfolding(spec, 3)
        exa = run_exact(spec, 3)
        for a, b in zip(unf.points, exa.points):
            assert np.max(np.abs(a.state.matrix - b.state.matrix)) <= 1e-9
        assert unf.final_ledger.depth == unfolding_cost(1, 3)[1]
        assert unf.final_ledger.width == 1

    def test_group_commutator_error_scaling(self):
        spec = small_dbi_spec()
        exact = run_exact(spec, 3).final_state.matrix
        errs = {
            g: trace_distance(run_unfolding(spec, 3, gc_substeps=g).final_state.matrix, exact)
            for g in (16, 64)
        }
        ratio = errs[16] / errs[64]
        assert 1.4 <= ratio <= 2.6  # ~2 from the inverse-sqrt substep scaling

    def test_non_commutator_map_rejected(self):
        call = MemoryCallSpec(map=make_scaled_identity_map(0.5, 2), duration=1.0)
        eye = np.eye(2, dtype=complex)
        step = RecursionStepSpec(static_unitaries=(eye, eye), memory_calls=(call,))
        spec = RecursionSpec(step=step, root=random_density(2, 3), covariant=False)
        with pytest.raises(UnsupportedSpecError):
            run_unfolding(spec, 1)


class TestRunHybrid:
    def test_all_qdp_matches_run_qdp(self):
        cfg = grover_config_from_distance(0.6, 1, 2)
        spec = grover_recursion_spec(cfg)
        a = run_hybrid(spec, 0, 2, 16)
        b = run_qdp(spec, 2, 16)
        np.testing.assert_allclose(a.final_state.matrix, b.final_state.matrix, atol=1e-12)
        assert a.final_ledger.depth == b.final_ledger.depth

    def test_all_unfolding_matches_run_unfolding(self):
        cfg = grover_config_from_distance(0.6, 1, 2)
        spec = grover_recursion_spec(cfg)
        a = run_hybrid(spec, 2, 0, 16)
        b = run_unfolding(spec, 2)
        np.testing.assert_allclose(a.final_state.matrix, b.final_state.matrix, atol=1e-12)
        assert a.final_ledger.depth == b.final_ledger.depth

    def test_grover_three_step_accuracy(self):
        cfg = grover_config_from_distance(0.6, 1, 3)
        spec = grover_recursion_spec(cfg)
        rec = run_hybrid(spec, 1, 2, 64)
        d3 = grover_delta_sequence(0.6, 1, 3)[3]
        assert abs(rec.points[-1].distance_to_target - d3) <= 2e-2

    def test_depth_additivity_exact(self):
        cfg = grover_config_from_distance(0.6, 1, 3)
        spec = grover_recursion_spec(cfg)
        rec = run_hybrid(spec, 1, 2, 32)
        unf = run_unfolding(spec, 1)
        # the query phase starts from the unfolded state with a shifted schedule
        shifted = RecursionSpec(
            step=lambda k: spec.resolve_step(1 + k),
            root=unf.final_state,
            target=spec.target,
            covariant=True,
        )
        qdp = run_qdp(shifted, 2, 32)
        assert rec.final_ledger.depth == unf.final_ledger.depth + qdp.final_ledger.depth
        assert rec.final_ledger.width == 33**2

    def test_non_covariant_schedule_joins_unfolding_and_queries(self):
        spec = small_dbi_spec()
        rec = run_hybrid(spec, 2, 3, 16)
        unf = run_unfolding(spec, 2)
        shifted = RecursionSpec(
            step=lambda k: spec.resolve_step(2 + k), root=unf.final_state, target=spec.target
        )
        qdp = run_qdp(shifted, 3, 16)
        joined = list(unf.points) + list(qdp.points[1:])
        assert len(rec) == len(joined) == 6
        for got, want in zip(rec.points, joined):
            assert np.array_equal(got.state.matrix, want.state.matrix)
        assert [p.ledger for p in rec.points[:3]] == [p.ledger for p in unf.points]
        base = unf.final_ledger
        for k, (got, want) in enumerate(zip(rec.points[3:], qdp.points[1:]), start=1):
            assert got.ledger.depth == base.depth + want.ledger.depth
            assert got.ledger.width == 17**k
            assert got.ledger.imr_copies == base.imr_copies + want.ledger.imr_copies
            assert got.ledger.success_probability == want.ledger.success_probability

    def test_strategy_dispatch(self):
        cfg = grover_config_from_distance(0.6, 1, 2)
        spec = grover_recursion_spec(cfg)
        for strat in (
            ExactStrategy(),
            UnfoldingStrategy(),
            QDPStrategy(m=8),
            HybridStrategy(n1=1, n2=1, m=8),
        ):
            rec = run_strategy(spec, 2, strat)
            assert len(rec) == 3


class TestStrategyChecks:
    @pytest.mark.parametrize(
        "error, message, call",
        [
            (InvariantError, "query count m", lambda spec: QDPStrategy(m=0)),
            (InvariantError, "gc_substeps", lambda spec: UnfoldingStrategy(gc_substeps=0)),
            (InvariantError, "phase lengths", lambda spec: HybridStrategy(n1=-1, n2=2, m=8)),
            (InvariantError, "query count m", lambda spec: HybridStrategy(n1=1, n2=1, m=0)),
            (InvariantError, "query count m", lambda spec: run_qdp(spec, 1, 0)),
            (InvariantError, "gc_substeps", lambda spec: run_unfolding(spec, 1, gc_substeps=0)),
            (InvariantError, "phase lengths", lambda spec: run_hybrid(spec, -1, 2, 8)),
            (InvariantError, "1\\+1 != n_steps 3",
             lambda spec: run_strategy(spec, 3, HybridStrategy(n1=1, n2=1, m=8))),
            (InvariantError, "n_steps must be >= 0",
             lambda spec: run_strategy(spec, -1, ExactStrategy())),
            (UnsupportedSpecError, "unknown strategy", lambda spec: run_strategy(spec, 1, "qdp")),
        ],
        ids=["qdp-m", "unfolding-substeps", "hybrid-n1", "hybrid-m", "run_qdp-m",
             "run_unfolding-substeps", "run_hybrid-n1", "hybrid-split", "n_steps",
             "not-a-descriptor"],
    )
    def test_bad_strategy_input_rejected(self, error, message, call):
        spec = grover_recursion_spec(grover_config_from_distance(0.6, 1, 2))
        with pytest.raises(error, match=message):
            call(spec)


class TestLocalAccuracy:
    def test_exact_step_scores_zero(self):
        spec = small_dbi_spec()
        rec = run_exact(spec, 1)
        val = local_accuracy_check(rec.points[1].state, spec.resolve_step(0), spec.root)
        assert val <= 1e-10

    def test_halves_when_m_doubles(self):
        spec = small_dbi_spec()
        vals = []
        for m in (8, 16, 32, 64):
            rec = run_qdp(spec, 1, m)
            vals.append(local_accuracy_check(rec.points[1].state, spec.resolve_step(0), spec.root))
        for a, b in zip(vals, vals[1:]):
            assert 0.7 * a / 2 <= b <= 1.3 * a / 2

    def test_sabotaged_step_scores_large(self):
        spec = small_dbi_spec()
        depolarized = DensityMatrix(np.eye(4) / 4)
        exact_next = run_exact(spec, 1).points[1].state
        val = local_accuracy_check(depolarized, spec.resolve_step(0), spec.root)
        ref = trace_distance(depolarized.matrix, exact_next.matrix)
        assert val == pytest.approx(ref, abs=1e-12)
        assert val > 0.1
