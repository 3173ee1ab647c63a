"""One ledger model: every run charges exactly its strategy's closed form,
and ``qdpsim cost`` and the ledger digit check read the same forms."""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from qdpsim import imr as imr_module
from qdpsim.algos import (
    DBIConfig,
    OSDConfig,
    QITEConfig,
    dbi_recursion_spec,
    grover_config_from_distance,
    grover_recursion_spec,
    grover_step_counts,
    heisenberg_chain,
    osd_recursion_spec,
    qite_recursion_spec,
)
from qdpsim.cli import ExperimentConfig, main, run_scenario
from qdpsim.engine import (
    ExactStrategy,
    HybridStrategy,
    QDPStrategy,
    UnfoldingStrategy,
    run_strategy,
)
from qdpsim.errors import InfeasibleConfigError
from qdpsim.imr import IMRConfig
from qdpsim.linalg import PureState, random_density, random_pure

N_STEPS = 3


def grover_spec(L, n_steps=N_STEPS):
    """delta0 = 0.99 keeps the cascade's distances above 0 in floats up to L = 3, N = 4."""
    return grover_recursion_spec(grover_config_from_distance(0.99, L, n_steps, seed=7))


def dbi_spec():
    diag = np.diag([0.0, 1.0, 2.0])
    return dbi_recursion_spec(DBIConfig(diagonal=diag, initial=random_density(3, 4).matrix * 3))


def qite_spec():
    h = heisenberg_chain(2, 0.5)
    return qite_recursion_spec(QITEConfig(hamiltonian=h, initial=random_pure(4, 5)))


def osd_spec():
    psi = PureState(random_pure(4, 6).amplitudes)
    return osd_recursion_spec(OSDConfig(dims=(2, 2), diagonal=np.diag([0.0, 1.0]), initial=psi))


EXACT, UNFOLD1, UNFOLD2 = ExactStrategy(), UnfoldingStrategy(1), UnfoldingStrategy(2)
QDP, HYBRID = QDPStrategy(8), HybridStrategy(1, N_STEPS - 1, 8)
HYBRID_QUERIED = HybridStrategy(0, N_STEPS, 8)
# Every scenario x strategy pair the CLI allows (osd: exact or qdp; qite: no unfolding).
CASES = {
    "grover-L1": (lambda: grover_spec(1), [EXACT, UNFOLD1, UNFOLD2, QDP, HYBRID]),
    "grover-L2": (lambda: grover_spec(2), [EXACT, UNFOLD1, UNFOLD2, QDP, HYBRID]),
    "dbi": (dbi_spec, [EXACT, UNFOLD1, UNFOLD2, QDP, HYBRID]),
    "qite": (qite_spec, [EXACT, QDP, HYBRID_QUERIED]),
    "osd": (osd_spec, [EXACT, QDP]),
}


def step_counts(spec):
    step = spec.resolve_step(0)
    return step.n_calls, step.nontrivial_static_count()


@pytest.mark.parametrize(
    "scenario, strategy",
    [(name, s) for name, (_, strategies) in CASES.items() for s in strategies],
)
def test_every_point_of_a_run_is_the_closed_form(scenario, strategy):
    spec = CASES[scenario][0]()
    record = run_strategy(spec, N_STEPS, strategy)
    calls, statics = step_counts(spec)
    for n, point in enumerate(record.points):
        assert point.ledger == strategy.ledger(calls, statics, n, spec.covariant)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("delta0, eps", [(0.999, 0.0), (0.3, 0.05)])
def test_grover_step_counts_match_every_step(L, delta0, eps):
    cfg = grover_config_from_distance(delta0, L, 4, dim=3, seed=2)
    spec = grover_recursion_spec(cfg, eps=eps)
    for n in range(4):
        step = spec.resolve_step(n)
        assert (step.n_calls, step.nontrivial_static_count()) == grover_step_counts(L)


@pytest.mark.parametrize(
    "strategy",
    [QDPStrategy(16, IMRConfig(2.0, 64)), HybridStrategy(1, 3, 16, IMRConfig(2.0, 64))],
    ids=["qdp", "hybrid"],
)
def test_purification_adds_exactly_the_rounds_run(monkeypatch, strategy):
    outcomes = []

    def recording(rho, cfg):
        outcomes.append(real(rho, cfg))
        return outcomes[-1]

    real = imr_module.imr_subroutine
    monkeypatch.setattr(imr_module, "imr_subroutine", recording)
    spec = dbi_spec()
    final = run_strategy(spec, 4, strategy).final_ledger
    form = strategy.ledger(*step_counts(spec), 4, spec.covariant)
    assert len(outcomes) == 4 - getattr(strategy, "n1", 0)
    assert sum(o.rounds_used for o in outcomes) > 0
    assert final.depth - form.depth == sum(o.rounds_used for o in outcomes)
    assert final.width == form.width
    assert final.imr_copies == sum(o.copies_consumed for o in outcomes)


def cost_rows(L, N, m, n1):
    doc = {"scenario": "cost", "params": {"L": L, "N": N, "m": m, "n1": n1, "n2": N - n1}}
    return dict(run_scenario(ExperimentConfig.from_dict(doc)).rows)


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_cost_rows_are_the_grover_runs(L, N):
    spec = grover_spec(L, N)
    unfolded = run_strategy(spec, N, UnfoldingStrategy()).final_ledger
    for m in (2 * L, 9):
        queried = run_strategy(spec, N, QDPStrategy(m)).final_ledger
        for n1 in range(N + 1):
            rows = cost_rows(L, N, m, n1)
            assert rows["unfolding_total_depth"] == unfolded.depth
            assert (rows["qdp_depth"], rows["qdp_width"], rows["qdp_circuit_size"]) == (
                queried.depth, queried.width, queried.depth * queried.width)
            hybrid = run_strategy(spec, N, HybridStrategy(n1, N - n1, m)).final_ledger
            assert (rows["hybrid_depth"], rows["hybrid_width"], rows["hybrid_circuit_size"]) == (
                hybrid.depth, hybrid.width, hybrid.depth * hybrid.width)


def test_cost_quotes_the_run_depth(capsys):
    assert main(["cost", "--L", "1", "--N", "2", "--m", "16", "--n1", "1", "--n2", "1"]) == 0
    rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[1:])
    assert rows["qdp_depth"] == "34" and rows["qdp_circuit_size"] == "9826"
    assert rows["hybrid_depth"] == "18" and rows["hybrid_circuit_size"] == "306"


def frontier(L, N, m):
    """The depth-minimal grover hybrid split ``(n1, depth, width)`` under each
    width budget ``(m+1)^k``, k = 0..N, brute-forced over the closed forms;
    a tie goes to the narrower split."""
    splits = [(n1, *HybridStrategy(n1, N - n1, m).depth_width(L, L, N, True))
              for n1 in range(N + 1)]
    return [min((s for s in splits if s[2] <= (m + 1) ** k), key=lambda s: s[1:])
            for k in range(N + 1)]


FRONTIER_CASES = [(L, N, m) for L in (1, 2) for N in (4, 6, 8) for m in (4, 16, 64)]


class TestHybridFrontier:
    """The paper's depth/width balance: under a width budget, the hybrid split
    that minimizes depth.  Moving a step from unfolding to queries saves
    ``c (2c+1)^(n1-1)`` root calls and costs ``m + statics``, so the longest
    query tail that fits is not always the shallowest."""

    @pytest.mark.parametrize("L, N, m", FRONTIER_CASES)
    def test_minimal_depth_never_grows_with_the_budget(self, L, N, m):
        depths = [depth for _, depth, _ in frontier(L, N, m)]
        assert all(a >= b for a, b in zip(depths, depths[1:])), depths

    @pytest.mark.parametrize("L, N, m", FRONTIER_CASES)
    def test_one_unfolded_step_beats_all_queries(self, L, N, m):
        depth = {n1: HybridStrategy(n1, N - n1, m).depth_width(L, L, N, True)[0] for n1 in (0, 1)}
        assert depth[1] == depth[0] - m
        assert frontier(L, N, m)[-1][0] != 0

    def test_longest_query_tail_is_not_always_the_shallowest(self):
        assert frontier(1, 4, 64) == [(4, 40, 1)] * 5  # pure unfolding at every width
        # n1 = 3 from k = 5 on, though a tail of k > 5 query steps fits too.
        assert [(n1, depth) for n1, depth, _ in frontier(1, 8, 16)[5:]] == [(3, 98)] * 4

    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_chosen_splits_run_to_their_form(self, L, m):
        spec = grover_spec(L, 4)
        for n1 in sorted({n1 for n1, _, _ in frontier(L, 4, m)}):
            strategy = HybridStrategy(n1, 4 - n1, m)
            assert run_strategy(spec, 4, strategy).final_ledger == strategy.ledger(L, L, 4, True)


class TestLedgerDigitsAreExact:
    """The digit check rejects a ``cost`` config exactly when its table would
    print an integer longer than the limit."""

    @pytest.mark.parametrize("limit", [2, 3, 5, 8])
    def test_cost_is_rejected_iff_a_row_is_too_long(self, monkeypatch, limit):
        docs = [{"scenario": "cost", "params": {"L": L, "N": N, "m": m, "n1": n1,
                                                "n2": None if n1 is None else N - n1}}
                for L in (1, 2) for N in range(1, 9) for m in (None, 2, 9)
                for n1 in (None, 1) if m is not None or n1 is None]
        for doc in docs:
            longest = max(len(str(v)) for _, v in run_scenario(ExperimentConfig.from_dict(doc)).rows)
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
            try:
                ExperimentConfig.from_dict(doc)
                rejected = False
            except InfeasibleConfigError:
                rejected = True
            monkeypatch.undo()
            assert rejected == (longest > limit), doc

    @pytest.mark.parametrize("strategy", [{"kind": "exact"}, {"kind": "unfolding"},
                                          {"kind": "qdp", "m": 1}])
    def test_steps_beyond_float_range_are_3(self, tmp_path, capsys, strategy):
        """A step count no float holds exits 3 (a digit count for unfolding and
        queries, an exact depth of more than 4300 digits), not a traceback."""
        n_steps = 4 * 10**4299 if strategy["kind"] == "exact" else 10**400
        doc = {"schema_version": 1, "scenario": "dbi", "seed": 1, "strategy": strategy,
               "params": {"dim": 2, "n_steps": n_steps}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 3
        assert "params.n_steps" in capsys.readouterr().err

    def test_cost_beyond_float_range_is_3(self, capsys):
        assert main(["cost", "--L", "1", "--N", str(10**400)]) == 3
        assert "params.N" in capsys.readouterr().err


IMR_LOW_SUCCESS = {"reduction_factor": 2.0, "copies_out": 1, "failure_threshold": 0.99}


def imr_doc(tmp_path, scenario, params, hybrid=False):
    strategy = {"kind": "qdp", "m": 16, "imr": IMR_LOW_SUCCESS}
    if hybrid:
        strategy.update(kind="hybrid", n1=0, n2=params["n_steps"])
    doc = {"schema_version": 1, "scenario": scenario, "seed": 7, "strategy": strategy,
           "params": params, "output": {"path": str(tmp_path / "out.csv")}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSuccessProbabilityUnderflow:
    """A product of per-step success probabilities that underflows a float is
    an infeasible purification target, not a broken invariant.  The osd [2, 2]
    run purifies every step; the dbi dim 2 run reaches states that are pure to
    roundoff, which need no purification however many steps it runs."""

    def test_underflow_is_3_and_named(self, tmp_path, capsys):
        assert main(["run", imr_doc(tmp_path, "osd", {"dims": [2, 2], "n_steps": 200})]) == 3
        err = capsys.readouterr().err
        assert "imr.failure_threshold" in err and "step 162" in err

    def test_161_steps_still_run(self, tmp_path):
        assert main(["run", imr_doc(tmp_path, "osd", {"dims": [2, 2], "n_steps": 161})]) == 0

    def test_hybrid_query_phase_underflows_at_the_same_step(self):
        """The CLI runs osd as exact or qdp only; the engine's hybrid query
        phase charges purification the same way."""
        imr = IMRConfig(**IMR_LOW_SUCCESS)
        messages = []
        for strategy in (QDPStrategy(16, imr), HybridStrategy(0, 200, 16, imr)):
            with pytest.raises(InfeasibleConfigError, match="underflows a float at step") as exc:
                run_strategy(osd_spec(), 200, strategy)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("hybrid", [False, True], ids=["qdp", "hybrid"])
    def test_roundoff_pure_states_run_800_steps(self, tmp_path, hybrid):
        assert main(["run", imr_doc(tmp_path, "dbi", {"dim": 2, "n_steps": 800}, hybrid)]) == 0


def test_cascade_rules_walk_the_steps_lazily(tmp_path, capsys):
    """The eps = 0 cascade reaches 0 within a few steps, so a 2e5-step grover
    config exits 2 without holding its distance list."""
    doc = {"schema_version": 1, "scenario": "grover", "seed": 7, "strategy": {"kind": "exact"},
           "params": {"L": 1, "n_steps": 200_000, "delta0": 0.6}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = main(["run", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "params.n_steps" in capsys.readouterr().err
    assert peak < 2**20
