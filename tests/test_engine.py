import dataclasses
import json
import tracemalloc
import types

import numpy as np
import pytest

from helpers import heisenberg_chain
from qdpsim import channels, engine
from qdpsim import imr as imr_mod
from qdpsim.algos import OSDConfig, QITEConfig, osd_recursion_spec, qite_recursion_spec
from qdpsim.cli import main
from qdpsim.engine import apply_step_exact
from qdpsim.linalg import TRACE_ATOL, pure_distance
from qdpsim import (
    CostLedger,
    DBIConfig,
    DensityMatrix,
    DimensionError,
    ExactStrategy,
    HybridStrategy,
    IMRConfig,
    InvariantError,
    MemoryCallSpec,
    PureState,
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
    random_pure,
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
    call = MemoryCallSpec(map=make_commutator_map(d, 0.7))
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

    def test_non_square_static(self):
        with pytest.raises(DimensionError, match="static unitaries must be square"):
            RecursionStepSpec(static_unitaries=(np.ones((2, 3)),), memory_calls=())

    @pytest.mark.parametrize("static, error, match", [
        (np.ones(2), DimensionError, "expected a matrix, got ndim=1"),
        (np.diag([np.nan, 1.0]), InvariantError, "non-finite entries"),
        (np.diag([np.inf, 1.0]), InvariantError, "non-finite entries"),
    ], ids=["1-d", "nan", "inf"])
    def test_static_is_a_finite_matrix(self, static, error, match):
        # Checked before its product u^dag u is formed, which would warn (an error here).
        with pytest.raises(error, match=match):
            RecursionStepSpec(static_unitaries=(static,), memory_calls=())


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"depth": -1}, "ledger entries must be non-negative"),
        ({"width": -1}, "ledger entries must be non-negative"),
        ({"imr_copies": -1}, "ledger entries must be non-negative"),
        ({"success_probability": 0.0}, r"success probability must be in \(0, 1\]"),
        ({"success_probability": 1.5}, r"success probability must be in \(0, 1\]"),
    ],
)
def test_cost_ledger_checks(fields, match):
    with pytest.raises(InvariantError, match=match):
        CostLedger(**fields)


def test_query_step_without_memory_calls():
    """A step of one static and no calls runs under qdp as under exact, and
    is charged its closed form."""
    u = phase_static(0.3)
    spec = RecursionSpec(step=RecursionStepSpec(static_unitaries=(u,), memory_calls=()),
                         root=random_density(3, 5))
    rec = run_qdp(spec, 2, 4)
    assert np.array_equal(rec.final_state.matrix, run_exact(spec, 2).final_state.matrix)
    assert rec.final_ledger == QDPStrategy(4).ledger(0, 1, 2)
    # No call, so no query and no memory copy: the exact run's depth and width.
    assert (rec.final_ledger.depth, rec.final_ledger.width) == (2, 1)


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


def with_call_map(spec, wrap):
    """``spec`` with its one memory-call's map replaced by ``wrap(map)``."""
    call = spec.step.memory_calls[0]
    call = dataclasses.replace(call, map=wrap(call.map))
    return dataclasses.replace(spec, step=dataclasses.replace(spec.step, memory_calls=(call,)))


def dense(m):
    """``m`` without its structure, so its queries diagonalize ``Nhat``."""
    return dataclasses.replace(m, structure=None)


def channel_error_config(tmp_path, params):
    """A channel-error config file with the given ``params``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "scenario": "channel-error", "seed": 7,
                                "params": params}))
    return str(path)


class TestGeneratorReuse:
    """A run evaluates its map's closed-form query nonzeros once per query
    duration, and never builds ``Nhat`` or the query unitary."""

    @staticmethod
    def recording(durations):
        class Recording(channels.Commutator):
            def nonzeros(self, t):
                durations.append(t)
                return super().nonzeros(t)

            def make_unitary(self, t):
                raise AssertionError("a query run builds no query unitary")

        def wrap(m):
            return dataclasses.replace(m, structure=Recording(m.structure.d, m.structure.s))
        return wrap

    def test_qdp_run_evaluates_the_closed_form_once(self, monkeypatch):
        maps, durations = count_generator_builds(monkeypatch), []
        run_qdp(with_call_map(small_dbi_spec(), self.recording(durations)), 5, 8)
        assert durations == [-1.0 / 8] and maps == []

    def test_hybrid_run_evaluates_the_closed_form_once(self, monkeypatch):
        maps, durations = count_generator_builds(monkeypatch), []
        run_hybrid(with_call_map(small_dbi_spec(), self.recording(durations)), 2, 3, 8)
        assert durations == [-1.0 / 8] and maps == []

    @pytest.mark.parametrize("params", [
        {"dim": 4, "map": "dme", "s": 0.5, "m_values": [1, 16]},
        {"dim": 3, "map": "scaled", "alpha": 0.7, "s": 0.5, "m_values": [4]},
        {"dim": 24, "map": "commutator", "map_s": 0.3, "s": 0.5, "m_values": [4],
         "n_samples": 1},
    ], ids=["dme", "scaled", "commutator"])
    def test_channel_error_run_builds_no_generator(self, monkeypatch, tmp_path, capsys, params):
        # The error bound reads the closed-form ||Nhat||, not a d^2 x d^2 Nhat.
        maps = count_generator_builds(monkeypatch)
        assert main(["run", channel_error_config(tmp_path, params)]) == 0
        capsys.readouterr()
        assert maps == []

    def test_dense_exact_run_and_unfolded_call_build_no_generator(self, monkeypatch):
        # A dense map's exact and unfolded calls read its action, never Nhat.
        maps = count_generator_builds(monkeypatch)
        spec = with_call_map(small_dbi_spec(),
                             lambda m: channels.map_from_function(m.action, m.d_in, m.d_out))
        run_exact(spec, 3)
        with pytest.raises(UnsupportedSpecError, match="commutator-form"):
            channels.unfolded_memory_call(spec.step.memory_calls[0], spec.root, spec.root, 2)
        assert maps == []

    def test_generator_is_cached_on_the_map(self):
        m = make_identity_map(2)
        assert m.generator is m.generator


def count_generator_calls(monkeypatch, owner, name, run):
    """Calls of ``owner.name`` made by ``run(spec)`` on a dense dbi spec whose
    first argument equals the spec's query generator ``Nhat``."""
    args = []
    fn = getattr(owner, name)

    def counting(a, *rest, **kwargs):
        args.append(np.array(a))
        return fn(a, *rest, **kwargs)

    spec = with_call_map(small_dbi_spec(), dense)
    monkeypatch.setattr(owner, name, counting)
    run(spec)
    gen = spec.step.memory_calls[0].map.generator
    return sum(a.shape == gen.n_hat.shape and np.array_equal(a, gen.n_hat) for a in args)


class TestGeneratorDecomposedOnce:
    """A dense map's ``Nhat`` is diagonalized once per run."""

    def test_qdp_run_decomposes_the_generator_once(self, monkeypatch):
        run = lambda spec: run_qdp(spec, 5, 8)  # noqa: E731
        assert count_generator_calls(monkeypatch, np.linalg, "eigh", run) == 1

    def test_hybrid_run_decomposes_the_generator_once(self, monkeypatch):
        # Only a commutator map unfolds by group commutators; declared
        # covariant, the dense map's unfolded steps are exact calls instead.
        def run(spec):
            return run_hybrid(dataclasses.replace(spec, covariant=True), 2, 3, 8)
        assert count_generator_calls(monkeypatch, np.linalg, "eigh", run) == 1


def test_qdp_run_exponentiates_the_generator_once(monkeypatch):
    """Every step queries the generator at one duration, so ``herm_exp`` sees
    a dense map's ``Nhat`` once in a 5-step run."""
    run = lambda spec: run_qdp(spec, 5, 8)  # noqa: E731
    assert count_generator_calls(monkeypatch, channels, "herm_exp", run) == 1


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
        call = MemoryCallSpec(map=make_scaled_identity_map(0.5, 2))
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


def test_a_run_builds_no_strategy_descriptor(monkeypatch):
    """``run_strategy`` realizes, charges and purifies each step with the
    descriptors it is given: a hybrid's two phases are built with it."""
    spec = grover_recursion_spec(grover_config_from_distance(0.5, 1, 5))
    imr = IMRConfig(reduction_factor=2.0, copies_out=32, failure_threshold=0.05)
    strategies = [HybridStrategy(n1=2, n2=3, m=16, imr=imr), QDPStrategy(m=16, imr=imr)]
    built = []
    for cls in (ExactStrategy, UnfoldingStrategy, QDPStrategy, HybridStrategy):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    records = [run_strategy(spec, 5, strategy) for strategy in strategies]
    assert built == []
    assert all(rec.final_ledger.imr_copies > 0 for rec in records)


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


class TestQueriedMaps:
    @pytest.mark.parametrize(
        "run",
        [
            lambda spec: run_qdp(spec, 3, 8),
            lambda spec: run_hybrid(spec, 1, 2, 8),
        ],
        ids=["qdp", "hybrid"],
    )
    @pytest.mark.parametrize(
        "build",
        [small_dbi_spec, lambda: grover_recursion_spec(grover_config_from_distance(0.6, 2, 3))],
        ids=["dbi", "grover"],
    )
    def test_queried_maps_hold_their_generator(self, build, run):
        spec = build()
        steps = []

        def step(n):
            steps.append(spec.resolve_step(n))
            return steps[-1]

        run(dataclasses.replace(spec, step=step))
        maps = [call.map for s in steps for call in s.memory_calls]
        assert any("generator" in vars(m) for m in maps)


def phase_static(theta):
    """``diag(e^{-i theta}, 1, 1)``: ``theta`` off the identity (max entry)."""
    return np.diag(np.exp(-1j * np.array([theta, 0.0, 0.0])))


class TestIdentityStatics:
    """A static unitary is conjugated through, and charged, exactly when its
    flag in ``nontrivial_statics`` is set: more than 1e-12 off the identity."""

    CALL = MemoryCallSpec(map=make_commutator_map(np.diag([0.0, 1.0, 2.0]), 0.7))

    def step(self, static):
        return RecursionStepSpec(static_unitaries=(static, static), memory_calls=(self.CALL,))

    @staticmethod
    def explicit(static, rho):
        """The step with every static conjugated explicitly."""
        mat = static @ rho.matrix @ static.conj().T
        mat = channels.exact_memory_call(TestIdentityStatics.CALL, rho, mat)
        return DensityMatrix(static @ mat @ static.conj().T).matrix

    def depth(self, step, rho):
        return run_exact(RecursionSpec(step=step, root=rho), 1).final_ledger.depth

    def test_identity_statics_give_the_conjugated_state(self):
        step, rho = self.step(np.eye(3)), random_density(3, 1)
        assert step.nontrivial_statics == (False, False)
        got = apply_step_exact(step, rho).matrix
        assert np.max(np.abs(got - self.explicit(np.eye(3), rho))) <= 4 * np.finfo(float).eps
        assert self.depth(step, rho) == 1

    def test_static_2e_12_off_the_identity_is_applied(self):
        static, rho = phase_static(2e-12), random_density(3, 1)
        step = self.step(static)
        assert step.nontrivial_statics == (True, True)
        got = apply_step_exact(step, rho).matrix
        assert np.max(np.abs(got - self.explicit(static, rho))) <= 4 * np.finfo(float).eps
        assert np.max(np.abs(got - self.explicit(np.eye(3), rho))) > 1e-13
        assert self.depth(step, rho) == 3

    def test_identity_statics_form_no_product(self):
        """An identity static is not checked for unitarity by ``u^dag u``: at
        d = 512 its flag holds ``u - 1`` and its magnitudes, 1.5 matrices of
        ``16 d^2`` bytes, where the product would hold itself and ``u``'s
        conjugate, 2 of them."""
        d = 512
        eye, call = np.eye(d, dtype=complex), MemoryCallSpec(map=make_identity_map(d))
        tracemalloc.start()
        try:
            step = RecursionStepSpec(static_unitaries=(eye, eye), memory_calls=(call,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step.nontrivial_statics == (False, False)
        assert peak < 1.75 * 16 * d * d, peak / (16 * d * d)

    def test_one_flag_decides_both(self):
        rho = random_density(3, 1)
        step = self.step(phase_static(2e-12))
        object.__setattr__(step, "nontrivial_statics", (False, False))
        skipped = apply_step_exact(step, rho).matrix
        assert np.array_equal(skipped, apply_step_exact(self.step(np.eye(3)), rho).matrix)
        assert step.nontrivial_static_count() == 0 and self.depth(step, rho) == 1


class TestTraceCheckedPerCall:
    """Each memory-call's output is trace-checked and renormalized on its own,
    so a step's calls do not add their drifts into one check."""

    def step_with(self, monkeypatch, n_calls, scale):
        real = engine.exact_memory_call
        monkeypatch.setattr(engine, "exact_memory_call", lambda *args: real(*args) * scale)
        step = RecursionStepSpec(static_unitaries=(np.eye(3),) * (n_calls + 1),
                                 memory_calls=(TestIdentityStatics.CALL,) * n_calls)
        rho = random_density(3, 1)
        return apply_step_exact(step, rho)

    def test_calls_within_the_tolerance_each_pass(self, monkeypatch):
        # 3 x 0.6 TRACE_ATOL would fail one check of the whole step
        out = self.step_with(monkeypatch, 3, 1 + 0.6 * TRACE_ATOL)
        assert abs(np.trace(out.matrix).real - 1.0) <= 4 * np.finfo(float).eps

    def test_one_call_over_the_tolerance_is_an_invariant_error(self, monkeypatch):
        with pytest.raises(InvariantError, match="is not 1 within"):
            self.step_with(monkeypatch, 3, 1 + 1.5 * TRACE_ATOL)


@pytest.mark.parametrize(
    "build, run",
    [
        (small_dbi_spec, lambda spec, n: run_exact(spec, n)),
        (small_dbi_spec, lambda spec, n: run_unfolding(spec, n, 2)),
        (lambda: grover_recursion_spec(grover_config_from_distance(0.99, 2, 3)),
         lambda spec, n: run_exact(spec, n)),
    ],
    ids=["dbi-exact", "dbi-unfolding", "grover-exact"],
)
def test_one_validated_state_per_step(monkeypatch, build, run):
    """A step's working state stays a plain matrix between its statics and
    calls; only its output is a ``DensityMatrix``."""
    spec = build()
    n_steps = 3 if spec.covariant else 20
    built = []
    init = DensityMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__init__", counting)
    run(spec, n_steps)
    assert len(built) <= n_steps + 1


def chunk_boundary_steps(dim):
    """Step counts around one diagnostics chunk at ``dim``: none, and a chunk's
    length minus one, exactly and plus one."""
    n = engine.chunk_length(dim)
    return [0, n - 1, n, n + 1]


def diagnostics_spec(scenario, dim):
    """A ``dim``-dimensional spec of ``scenario`` with a target: dbi keeps its
    own, a grover spec repeats its first step, an osd spec targets its root."""
    if scenario == "dbi":
        return small_dbi_spec(dim)
    if scenario == "grover":
        cfg = grover_config_from_distance(delta0=0.6, alternations=1, n_steps=1, dim=dim, seed=3)
        spec = grover_recursion_spec(cfg)
        return dataclasses.replace(spec, step=spec.resolve_step(0))
    dims = (2, dim // 2)
    psi = PureState(random_pure(dim, 5).amplitudes)
    spec = osd_recursion_spec(OSDConfig(dims=dims, diagonal=np.diag([0.0, 1.0]), initial=psi))
    return dataclasses.replace(spec, target=spec.root)


class TestDiagnosticsAfterTheLoop:
    """``run_strategy`` computes the distances in stacked chunks after its step
    loop; each point still reads what the per-point formulas read: a pure
    point's distance to a pure target is ``pure_distance``, within 1e-12 of
    the dense ``trace_distance``."""

    @pytest.mark.parametrize("scenario, strategy", [
        ("dbi", UnfoldingStrategy(2)), ("grover", ExactStrategy()), ("osd", ExactStrategy()),
    ], ids=["dbi-unfolding", "grover-exact", "osd-exact"])
    @pytest.mark.parametrize("dim", [2, 8, 12, 16])
    def test_points_match_the_per_point_diagnostics(self, scenario, strategy, dim):
        spec = diagnostics_spec(scenario, dim)
        for n_steps in chunk_boundary_steps(dim):
            record = run_strategy(spec, n_steps, strategy)
            assert len(record) == n_steps + 1
            for pt in record.points:
                dense = trace_distance(pt.state.matrix, spec.target.matrix)
                want = dense
                if isinstance(pt.state, PureState) and isinstance(spec.target, PureState):
                    want = pure_distance(pt.state, spec.target)
                    assert abs(want - dense) <= 1e-12
                assert pt.distance_to_target.hex() == want.hex()
                assert pt.mixedness.hex() == imr_mod.mixedness(pt.state).hex()

    def test_points_of_a_spec_without_target_have_no_distance(self):
        record = run_exact(commuting_spec(), engine.chunk_length(3) + 1)
        assert {pt.distance_to_target for pt in record.points} == {None}

    @pytest.mark.parametrize("dim, length", [(2, 1024), (8, 64), (16, 16), (64, 1), (512, 1)])
    def test_no_chunk_stacks_more_than_the_byte_budget(self, dim, length):
        budget = engine._CHUNK_BYTES
        assert engine.chunk_length(dim) == length
        matrices = [np.full((dim, dim), k, dtype=complex) for k in range(2 * length + 1)]
        starts, covered = [], []
        states = [types.SimpleNamespace(matrix=m, dim=dim) for m in matrices]
        for start, stack in engine.stacked_chunks(states):
            assert stack.shape[1:] == (dim, dim)
            assert stack.nbytes <= budget or len(stack) == 1
            if start + len(stack) < len(matrices):  # a full chunk holds no room for one more
                assert stack.nbytes + 16 * dim * dim > budget
            starts.append(start)
            covered += [int(m[0, 0].real) for m in stack]
        assert covered == list(range(len(matrices)))
        assert starts == list(range(0, len(matrices), length))

    def test_no_matrices_make_no_chunk(self):
        assert list(engine.stacked_chunks([])) == []


def count_instruction_exps(monkeypatch, spec):
    """The ``herm_exp`` calls a run makes on ``-D``, the instruction operator
    of ``spec``'s commutator map, recorded by a spy on ``channels.herm_exp``."""
    minus_d = -spec.resolve_step(0).memory_calls[0].map.structure.d
    calls, real = [], channels.herm_exp

    def spy(h, t):
        if np.array_equal(h, minus_d):
            calls.append(t)
        return real(h, t)

    monkeypatch.setattr(channels, "herm_exp", spy)
    return calls


class TestOneInstructionExponential:
    """An unfolded run exponentiates its instruction operator once: every call
    shares the map and the group commutator's step."""

    @pytest.mark.parametrize("n_steps", [2, 7])
    def test_unfolding_run(self, monkeypatch, n_steps):
        spec = small_dbi_spec()
        calls = count_instruction_exps(monkeypatch, spec)
        run_unfolding(spec, n_steps, gc_substeps=4)
        assert len(calls) == 1

    def test_hybrid_run_unfolding_phase(self, monkeypatch):
        spec = small_dbi_spec()
        calls = count_instruction_exps(monkeypatch, spec)
        run_hybrid(spec, 5, 2, 16)
        assert len(calls) == 1


def pure_specs():
    """Builders of the package's pure-root specs from a seed."""
    return {
        "grover": lambda seed: grover_recursion_spec(
            grover_config_from_distance(delta0=0.6, alternations=2, n_steps=3, dim=8, seed=seed)),
        "qite": lambda seed: qite_recursion_spec(
            QITEConfig(heisenberg_chain(3, 0.5), random_pure(8, seed))),
        "osd": lambda seed: osd_recursion_spec(
            OSDConfig(dims=(2, 4), diagonal=np.diag([0.0, 1.0]), initial=random_pure(8, seed))),
    }


class TestPureRuns:
    """A ``PureState`` root runs its exact steps on a state vector; the same
    spec from the root's ``DensityMatrix`` runs them on matrices.  Both give
    the same points within 1e-12 and the same ledgers, and a pure point's
    mixedness reads exactly 0."""

    @pytest.mark.parametrize("scenario, strategy, n_steps", [
        ("grover", ExactStrategy(), 3), ("grover", UnfoldingStrategy(), 3),
        ("qite", ExactStrategy(), 40), ("osd", ExactStrategy(), 40),
    ], ids=["grover-exact", "grover-unfolding", "qite-exact", "osd-exact"])
    @pytest.mark.parametrize("seed", range(3))
    def test_vector_run_matches_the_dense_root_run(self, scenario, strategy, n_steps, seed):
        spec = pure_specs()[scenario](seed)
        vector = run_strategy(spec, n_steps, strategy)
        dense = run_strategy(dataclasses.replace(spec, root=spec.root.density()), n_steps, strategy)
        for a, b in zip(vector.points, dense.points, strict=True):
            assert isinstance(a.state, PureState) and isinstance(b.state, DensityMatrix)
            assert np.max(np.abs(a.state.matrix - b.state.matrix)) <= 1e-12
            assert a.ledger == b.ledger
            if spec.target is None:
                assert a.distance_to_target is b.distance_to_target is None
            else:
                assert abs(a.distance_to_target - b.distance_to_target) <= 1e-12
            assert a.mixedness == 0.0 and abs(b.mixedness) <= 1e-12

    @pytest.mark.parametrize("scenario, strategy", [
        ("grover", QDPStrategy(16)), ("qite", QDPStrategy(16, IMRConfig(2.0, copies_out=64))),
        ("osd", QDPStrategy(8)),
    ], ids=["grover-qdp", "qite-qdp-imr", "osd-qdp"])
    def test_query_steps_keep_their_bits(self, scenario, strategy):
        """A query step reads a pure input as ``DensityMatrix(state.matrix)``,
        the dense root itself, so every point after the root has its bits."""
        spec = pure_specs()[scenario](3)
        vector = run_strategy(spec, 3, strategy)
        dense = run_strategy(dataclasses.replace(spec, root=spec.root.density()), 3, strategy)
        assert isinstance(vector.points[0].state, PureState)
        for a, b in zip(vector.points[1:], dense.points[1:], strict=True):
            np.testing.assert_array_equal(a.state.matrix, b.state.matrix)
            assert (a.ledger, a.mixedness) == (b.ledger, b.mixedness)

    def test_hybrid_run_turns_dense_at_its_query_phase(self):
        spec = pure_specs()["grover"](1)
        record = run_hybrid(spec, 1, 2, 16)
        assert [type(pt.state) for pt in record.points] == [PureState] * 2 + [DensityMatrix] * 2

    def test_non_covariant_unfolded_steps_run_dense(self):
        spec = small_dbi_spec()
        pure = dataclasses.replace(spec, root=random_pure(spec.root.dim, 4))
        vector = run_unfolding(pure, 2, gc_substeps=2)
        dense = run_unfolding(dataclasses.replace(pure, root=pure.root.density()), 2, gc_substeps=2)
        for a, b in zip(vector.points[1:], dense.points[1:], strict=True):
            np.testing.assert_array_equal(a.state.matrix, b.state.matrix)
