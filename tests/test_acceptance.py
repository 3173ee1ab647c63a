"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS line once all of its assertions hold; a failing
assertion surfaces as the usual pytest failure for that criterion.  The whole
module is sized to finish in well under five minutes.
"""

import json
import math

import numpy as np

from helpers import heisenberg_chain
from qdpsim import (
    DensityMatrix,
    IMRConfig,
    PureState,
    OSDConfig,
    QITEConfig,
    QueryGenerator,
    channel_error_probe,
    dbi_canonical_step_size,
    dbi_cost,
    dbi_sorted_fixed_point,
    dbi_step,
    energy,
    grover_config_from_distance,
    grover_delta_sequence,
    grover_qdp_run,
    grover_recursion_spec,
    ground_state,
    group_commutator,
    herm_exp,
    hermitize,
    imr_ratio_bound,
    imr_round,
    make_commutator_map,
    make_identity_map,
    make_scaled_identity_map,
    memory_usage_query,
    mixedness,
    dme_query,
    offdiag_hs_norm,
    osd_run,
    partial_trace,
    qite_qdp_run,
    qite_step,
    query_error_bound,
    random_density,
    random_pure,
    relevant_subspace_weight,
    run_exact,
    run_hybrid,
    run_qdp,
    run_unfolding,
    schmidt_oracle,
    unfolding_cost,
)
from qdpsim.cli import main as cli_main


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_dme_formula_equivalence():
    gens = {d: QueryGenerator.from_map(make_identity_map(d)) for d in (2, 3, 4)}
    case = 0
    rng = np.random.default_rng(20240101)
    while case < 100:
        dim = (2, 3, 4)[case % 3]
        rho = random_density(dim, int(rng.integers(2**31)))
        sig = random_density(dim, int(rng.integers(2**31)))
        s = float(rng.uniform(-1.5, 1.5))
        a = dme_query(rho, sig, s).matrix
        b = memory_usage_query(gens[dim], rho, sig, s).matrix
        assert np.max(np.abs(a - b)) <= 1e-12
        case += 1
    _report(1, "swap-query closed form matches the trace-out channel to 1e-12 on 100 cases")


def test_criterion_02_repeated_query_error_bound():
    rng = np.random.default_rng(20240202)
    checked = 0
    while checked < 50:
        dim = int(rng.integers(2, 5))
        if rng.integers(2) == 0:
            mmap = make_scaled_identity_map(float(rng.uniform(0.3, 1.5)), dim)
        else:
            mu = np.sort(rng.uniform(-1.0, 1.0, dim))
            mu += np.arange(dim) * 1e-3  # keep entries distinct
            mmap = make_commutator_map(np.diag(mu), float(rng.uniform(0.3, 1.2)))
        gen = QueryGenerator.from_map(mmap)
        memory = random_density(dim, int(rng.integers(2**31)))
        s = float(rng.uniform(0.1, 0.5))
        m = int(rng.choice([8, 16, 32]))
        bound, within = query_error_bound(gen, s, m)
        if not within:
            continue
        [err] = channel_error_probe(gen, mmap, memory, s, [m], 3, int(rng.integers(2**31)))
        assert err <= bound
        checked += 1
    # halving check in the asymptotic regime, same probe states for both sizes
    for trial in range(8):
        dim = 2 + trial % 3
        mmap = make_scaled_identity_map(0.5 + 0.1 * trial, dim)
        gen = QueryGenerator.from_map(mmap)
        memory = random_density(dim, 900 + trial)
        s = 0.2 + 0.02 * trial
        e1, e2 = channel_error_probe(gen, mmap, memory, s, [16, 32], 5, 7000 + trial)
        assert 1.4 <= e1 / e2 <= 2.6
    _report(2, "repeated-query error within 4|N|^2 s^2/M on 50 tuples; halving ratio in [1.4, 2.6]")


def _cascade_grid():
    for alternations in (1, 2, 3):
        for delta0 in (0.3, 0.6, 0.9):
            yield alternations, delta0


def test_criterion_03_exact_cascade():
    for alternations, delta0 in _cascade_grid():
        cfg = grover_config_from_distance(delta0, alternations, 3, dim=4, seed=11)
        rec = run_exact(grover_recursion_spec(cfg), 3)
        deltas = grover_delta_sequence(delta0, alternations, 3)
        for pt, d in zip(rec.points, deltas):
            assert abs(pt.distance_to_target - d) <= 1e-8
    _report(3, "simulated distances match sech((2L+1)^n arcosh(1/d0)) to 1e-8 on the 3x3 grid")


def test_criterion_04_two_dimensional_support_invariance():
    for alternations, delta0 in _cascade_grid():
        cfg = grover_config_from_distance(delta0, alternations, 3, dim=4, seed=11)
        exact = run_exact(grover_recursion_spec(cfg), 3)
        qdp = grover_qdp_run(cfg, 32)
        for rec in (exact, qdp):
            for pt in rec.points:
                assert relevant_subspace_weight(pt.state, cfg.initial, cfg.target) <= 1e-10
    _report(4, "out-of-plane weight <= 1e-10 for all exact and query trajectories")


def test_criterion_05_query_convergence_rate():
    cfg = grover_config_from_distance(0.6, 1, 2)
    exact_d2 = grover_delta_sequence(0.6, 1, 2)[2]
    residuals = {}
    for m in (16, 32, 64, 128):
        rec = grover_qdp_run(cfg, m)
        residuals[m] = rec.points[-1].distance_to_target - exact_d2
    assert residuals[128] <= 2e-2
    products = [m * residuals[m] for m in residuals]
    assert max(products) / min(products) <= 3.0
    _report(5, "final-distance residual fits O(1/m) within factor 3; m=128 residual <= 2e-2")


def test_criterion_06_cost_ledgers():
    cfg = grover_config_from_distance(0.6, 1, 3)
    spec = grover_recursion_spec(cfg)
    for m, n in ((5, 3), (8, 2), (3, 4)):
        rec = run_qdp(spec, min(n, 3), m)
        assert rec.final_ledger.width == (m + 1) ** min(n, 3)
    for n_calls, n in ((1, 1), (1, 3), (2, 4), (3, 2)):
        final, _ = unfolding_cost(n_calls, n)
        assert final == n_calls * (2 * n_calls + 1) ** (n - 1)
    hybrid = run_hybrid(spec, 1, 2, 16)
    unfold = run_unfolding(spec, 1)
    from qdpsim import RecursionSpec

    shifted = RecursionSpec(
        step=lambda k: spec.resolve_step(1 + k),
        root=unfold.final_state,
        target=spec.target,
        covariant=True,
    )
    qdp = run_qdp(shifted, 2, 16)
    assert hybrid.final_ledger.depth == unfold.final_ledger.depth + qdp.final_ledger.depth
    _report(6, "width (m+1)^N exact; unfolding final-step calls L(2L+1)^(N-1) exact; hybrid depth adds")


def test_criterion_07_purification_round():
    rng = np.random.default_rng(20240707)
    checked = 0
    while checked < 200:
        dim = int(rng.integers(2, 9))
        x = float(rng.uniform(1e-4, 1 / 3))
        rest = rng.uniform(0.1, 1.0, dim - 1)
        eigs = np.concatenate([[1.0 - x], x * rest / rest.sum()])
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        basis, _ = np.linalg.qr(g)
        rho = DensityMatrix((basis * eigs) @ basis.conj().T)
        out, p = imr_round(rho)
        eigs_sorted = np.sort(eigs)[::-1]
        expected = eigs_sorted * (1 + eigs_sorted) / (1 + np.sum(eigs_sorted**2))
        got = np.sort(np.linalg.eigvalsh(out.matrix))[::-1]
        assert np.max(np.abs(got - expected)) <= 1e-12
        x0, x1 = mixedness(rho), mixedness(out)
        assert x1 / x0 <= imr_ratio_bound(x0) + 1e-12
        assert p >= 1.0 - x0 - 1e-12
        # eigenbasis preservation: input and output commute
        comm = rho.matrix @ out.matrix - out.matrix @ rho.matrix
        assert np.max(np.abs(comm)) <= 1e-9
        checked += 1
    _report(7, "eigenvalue map exact to 1e-12, ratio bound holds, p >= 1-x, eigenbasis kept (200 states)")


def test_criterion_08_double_bracket_flow():
    for dim in range(2, 9):
        d = np.diag(np.arange(dim, dtype=float))
        rng = np.random.default_rng(800 + dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        p0 = (g + g.conj().T) / 2
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
    # run one system to convergence and check the sorted diagonal
    dim = 4
    d = np.diag(np.arange(dim, dtype=float))
    rng = np.random.default_rng(888)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = (g + g.conj().T) / 2
    target = dbi_sorted_fixed_point(p, d)
    s = dbi_canonical_step_size(p, d)
    for _ in range(6000):
        p = dbi_step(p, d, s)
        if offdiag_hs_norm(p) < 1e-7:
            break
    assert offdiag_hs_norm(p) < 1e-6
    np.testing.assert_allclose(np.real(np.diag(p)), np.real(np.diag(target)), atol=1e-6)
    _report(8, "isospectral to 1e-8 over 50 steps (dims 2-8), cost monotone, diagonal sorts with the instruction")


def test_criterion_09_group_commutator():
    rng = np.random.default_rng(20240909)
    checked = 0
    while checked < 50:
        dim = int(rng.choice([2, 4, 8]))
        ga = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gb = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a, b = (ga + ga.conj().T) / 2, (gb + gb.conj().T) / 2
        s = float(rng.uniform(0.001, 0.05))
        comm = a @ b - b @ a
        target = herm_exp(hermitize(1j * s * comm), 1.0)
        err = np.linalg.norm(group_commutator(a, b, s) - target, 2)
        aab = np.linalg.norm(a @ comm - comm @ a, 2)
        bba = np.linalg.norm(b @ (-comm) - (-comm) @ b, 2)
        assert err <= s**1.5 * (aab + bba)
        checked += 1

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)

    def gc_err(s):
        comm = x @ z - z @ x
        target = herm_exp(hermitize(1j * s * comm), 1.0)
        return np.linalg.norm(group_commutator(x, z, s) - target, 2)

    ratio = gc_err(0.01) / gc_err(0.0025)
    assert 6.0 <= ratio <= 10.0
    _report(9, "commutator-approximation bound holds on 50 pairs; error scales as s^1.5 (ratio ~8)")


def test_criterion_10_imaginary_time_evolution():
    # 2-level closed form
    h2 = np.diag([0.0, 1.0])
    s = 0.4
    theta = math.pi / 4
    psi = PureState([math.cos(theta), math.sin(theta)])
    for _ in range(25):
        psi = qite_step(psi, h2, s)
        theta = theta - (s / 2) * math.sin(2 * theta)
        predicted = np.array([math.cos(theta), math.sin(theta)])
        assert 1.0 - abs(np.vdot(predicted, psi.amplitudes)) <= 1e-10

    # energy monotone at the canonical step on a 3-qubit chain
    h = heisenberg_chain()
    psi = random_pure(8, 3)
    cfg = QITEConfig(hamiltonian=h, initial=psi)
    s_can = cfg.resolved_step()
    energies = [energy(psi, h)]
    for _ in range(30):
        psi = qite_step(psi, h, s_can)
        energies.append(energy(psi, h))
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    # query-based run: m=256, 10 steps, with inter-step purification
    gs, _ = ground_state(h)
    qcfg = QITEConfig(hamiltonian=h, initial=random_pure(8, 7), step_size=0.15)
    imr = IMRConfig(reduction_factor=20.0, copies_out=64, failure_threshold=0.05)
    rec = qite_qdp_run(qcfg, 10, 256, imr=imr)
    infid = [
        1.0 - float(np.real(np.vdot(gs.amplitudes, p.state.matrix @ gs.amplitudes)))
        for p in rec.points
    ]
    assert infid[-1] <= infid[0] / 10.0
    _report(10, "closed form to 1e-10; energy monotone at canonical step; m=256 run cuts infidelity 10x")


def test_criterion_11_schmidt_alignment():
    for dims, seed in (((2, 2), 5), ((2, 3), 9)):
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
        offd = [
            offdiag_hs_norm(partial_trace(p.state.matrix, dims, keep=[0]))
            for p in record.points
        ]
        assert all(b <= a + 1e-12 for a, b in zip(offd[5:], offd[6:]))
    _report(11, "Schmidt estimates within 1e-2 of the eigen-oracle; off-diagonal norm monotone after burn-in")


def test_criterion_12_determinism(tmp_path):
    doc = {
        "schema_version": 1,
        "scenario": "grover",
        "seed": 7,
        "strategy": {"kind": "qdp", "m": 16},
        "params": {"L": 1, "n_steps": 3, "delta0": 0.6, "dim": 3},
        "output": {"path": str(tmp_path / "a.csv"), "format": "csv"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", str(cfg_path)]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert cli_main(["run", str(cfg_path), "--output", str(tmp_path / "b.csv")]) == 0
    assert first == (tmp_path / "b.csv").read_bytes()
    _report(12, "identical config and seed produce byte-identical CSV")
