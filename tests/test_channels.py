import inspect
import warnings
import weakref

import numpy as np
import pytest

from helpers import PAULI_X, PAULI_Z, SWAP_2Q, random_hermitian
from qdpsim import (
    DBIConfig,
    DensityMatrix,
    DimensionError,
    InvariantError,
    MemoryCallSpec,
    UnsupportedSpecError,
    QueryGenerator,
    channel_error_probe,
    channels,
    dbi_recursion_spec,
    dme_query,
    exact_memory_call,
    group_commutator,
    herm_exp,
    hermitize,
    kron,
    make_commutator_map,
    make_identity_map,
    make_osd_map,
    make_pair_commutator_map,
    make_scaled_identity_map,
    map_apply,
    memory_usage_query,
    op_norm,
    partial_trace,
    query_error_bound,
    random_density,
    random_pure,
    repeated_queries,
    trace_distance,
)
from qdpsim.channels import (
    map_from_function,
    queried_memory_call,
    query_superoperator,
    unfolded_memory_call,
)


def plus_state():
    return np.full((2, 2), 0.5, dtype=complex)


def dense_partial_trace():
    """A 6 -> 3 map, a fixed unitary conjugation then the trace over a qubit,
    whose ``herm_exp`` query unitary has no zero entry: a dense map, whose
    transfer matrix is read off the Gram product."""
    v = herm_exp(random_hermitian(6, 25), 1.0)
    return map_from_function(lambda x: partial_trace(v @ x @ v.conj().T, (3, 2), keep=[0]), 6, 3)


class TestMapApply:
    def test_identity_map(self):
        m = make_identity_map(3)
        x = random_hermitian(3, 1)
        np.testing.assert_allclose(map_apply(m, x), x, atol=1e-14)

    def test_commutator_annihilates_commuting_input(self):
        m = make_commutator_map(np.diag([0.0, 1.0]), 0.8)
        rho = np.diag([0.3, 0.7]).astype(complex)
        np.testing.assert_allclose(map_apply(m, rho), 0.0, atol=1e-14)

    def test_commutator_on_plus_state(self):
        # -i [Z, |+><+|] worked out entrywise
        m = make_commutator_map(PAULI_Z, 1.0)
        expected = -1j * (PAULI_Z @ plus_state() - plus_state() @ PAULI_Z)
        np.testing.assert_allclose(map_apply(m, plus_state()), expected, atol=1e-14)
        np.testing.assert_allclose(expected, np.array([[0, -1j], [1j, 0]]), atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            map_apply(make_identity_map(2), np.eye(3))


class TestActionMatchesChoi:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_identity_map(3),
            lambda: make_scaled_identity_map(0.7, 3),
            lambda: make_commutator_map(random_hermitian(3, 21), 0.4),
            lambda: make_osd_map(np.diag([0.0, 0.5, 1.5]), 0.6, (3, 2)),
            lambda: make_pair_commutator_map(2, 0.9),
            lambda: map_from_function(lambda x: partial_trace(x, (2, 3), keep=[1]), 6, 3),
        ],
        ids=["identity", "scaled", "commutator", "osd", "pair-commutator", "non-square"],
    )
    def test_action_equals_choi_contraction(self, build):
        # N(|j><k|) is Nhat's block [k, :, j, :], so N(x) = sum_jk x_jk N(|j><k|)
        m = build()
        rng = np.random.default_rng(31)
        n_hat4 = QueryGenerator.from_map(m).n_hat.reshape(m.d_in, m.d_out, m.d_in, m.d_out)
        for _ in range(3):
            x = rng.standard_normal((m.d_in, m.d_in)) + 1j * rng.standard_normal((m.d_in, m.d_in))
            expected = np.einsum("kajb,jk->ab", n_hat4, x)
            np.testing.assert_allclose(map_apply(m, x), expected, rtol=0, atol=1e-13)
        assert m.generator is m.generator

    def test_exact_call_builds_no_generator(self):
        m = make_commutator_map(random_hermitian(3, 22), 0.4)
        exact_memory_call(MemoryCallSpec(map=m), random_density(3, 1), random_density(3, 2))
        assert "generator" not in vars(m)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_identity_map(3),
        lambda: make_scaled_identity_map(0.7, 3),
        lambda: make_commutator_map(random_hermitian(3, 21), 0.4),
        lambda: make_osd_map(np.diag([0.0, 0.5, 1.5]), 0.6, (3, 2)),
        lambda: make_pair_commutator_map(2, 0.9),
        lambda: make_commutator_map(np.diag(np.arange(16.0)), 0.1),
        lambda: make_osd_map(np.diag([0.0, 1.0]), 0.3, (2, 6)),
        lambda: make_pair_commutator_map(8, 0.2),
        dense_partial_trace,
    ],
    ids=["identity", "scaled", "commutator", "osd", "pair-commutator", "diagonal-commutator-16",
         "osd-2x6", "pair-commutator-8", "partial-trace"],
)
class TestQuerySuperoperatorDecomposesOnce:
    def test_matches_the_dense_query(self, build):
        # Budget 8 eps per entry; 60 seeds per map measured at most 3 eps.
        gen = build().generator
        memory = random_density(gen.d_in, 71)
        working = random_density(gen.d_out, 74)
        for s in (0.0, 0.25, -1.3):
            sup = query_superoperator(gen, memory, s)
            got = (sup @ working.matrix.reshape(-1)).reshape(gen.d_out, gen.d_out)
            dense = memory_usage_query(gen, memory, working, s).matrix
            assert np.max(np.abs(got - dense)) <= 8 * np.finfo(float).eps

    def test_preserves_hermiticity_exactly(self, build):
        gen = build().generator
        memory = random_density(gen.d_in, 71)
        for s in (0.0, 0.25, -1.3):
            sup4 = query_superoperator(gen, memory, s).reshape((gen.d_out,) * 4)
            assert np.array_equal(sup4, sup4.transpose(1, 0, 3, 2).conj())

    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_repeated_queries_match_an_explicit_matmul_loop(self, build, m):
        # A block keeps the oracle's (8 + m) eps to the loop of the complex
        # superoperator, and a non-swap block to the loop y + D y of its real
        # transfer matrix's deviation D = R - 1 on the working state's
        # coordinates, whose power it sums as a series.
        gen = build().generator
        d = gen.d_out
        memory = random_density(gen.d_in, 72)
        working = random_density(d, 73)
        got = repeated_queries(gen, memory, working, 0.6, m)
        sup = query_superoperator(gen, memory, 0.6 / m)
        vec = working.matrix.reshape(-1)
        for _ in range(m):
            vec = sup @ vec
        assert np.max(np.abs(got - vec.reshape(d, d))) <= (8 + m) * np.finfo(float).eps
        if not isinstance(gen, channels.Swap):
            dev = gen.transfer(memory.matrix, 0.6 / m)
            y = channels._coords(working.matrix).reshape(-1)
            for _ in range(m):
                y = y + dev.dot(y)
            loop = channels._hermitian(y.reshape(d, d))
            assert np.max(np.abs(got - loop)) <= (8 + m) * np.finfo(float).eps

    def test_superoperator_is_the_complex_view_of_the_transfer_matrix(self, build):
        # R maps a Hermitian matrix's real coordinates as the superoperator maps
        # the matrix, and R read back off the superoperator is R to roundoff.
        gen = build().generator
        d = gen.d_out
        memory = random_density(gen.d_in, 71)
        working = random_density(d, 74).matrix
        dev = gen.transfer(memory.matrix, 0.25)
        assert dev.dtype == np.float64 and dev.shape == (d * d, d * d)
        r = dev + np.eye(d * d)
        sup = query_superoperator(gen, memory, 0.25)
        via_r = channels._hermitian((r @ channels._coords(working).reshape(-1)).reshape(d, d))
        via_sup = (sup @ working.reshape(-1)).reshape(d, d)
        assert np.max(np.abs(via_r - via_sup)) <= 8 * np.finfo(float).eps
        assert np.max(np.abs(channels._real_view(sup) - r)) <= 8 * np.finfo(float).eps


PLANNED = {
    "diagonal-commutator": lambda: make_commutator_map(np.diag([0.0, 0.4, 1.5]), 0.7),
    "osd-3x2": lambda: make_osd_map(np.diag([0.0, 0.5, 1.5]), 0.6, (3, 2)),
    "pair-commutator": lambda: make_pair_commutator_map(3, 0.9),
}


@pytest.mark.parametrize("build", PLANNED.values(), ids=PLANNED)
def test_superoperator_is_the_gram_product_with_no_plan(monkeypatch, build):
    # The reference reads the structure's unitary, never its nonzeros, and
    # agrees with the plan's R to 8 eps per entry.
    gen = build().generator
    memory = random_density(gen.d_in, 71)
    monkeypatch.setattr(channels, "_transfer_plan",
                        lambda *a: pytest.fail("query_superoperator read a plan"))
    sup = query_superoperator(gen, memory, 0.25)
    monkeypatch.undo()
    r = gen.transfer(memory.matrix, 0.25) + np.eye(gen.d_out**2)
    assert gen._plan(0.25) is not None
    assert np.max(np.abs(channels._real_view(sup) - r)) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("build", [lambda: make_commutator_map(random_hermitian(3, 21), 0.4),
                                   dense_partial_trace], ids=["commutator", "partial-trace"])
def test_dense_transfer_reads_its_superoperator_once(monkeypatch, build):
    gen = build().generator
    views, real_view = [], channels._real_view
    monkeypatch.setattr(channels, "_real_view", lambda sup: views.append(sup) or real_view(sup))
    dev = gen.transfer(random_density(gen.d_in, 71).matrix, 0.25)
    assert gen._plan(0.25) is None and len(views) == 1
    assert np.array_equal(dev + np.eye(gen.d_out**2), real_view(views[0]))


@pytest.mark.parametrize("d", range(2, 7))
def test_real_view_is_the_product_with_the_coordinate_basis(d):
    # Each basis matrix's output is gathered from one or two superoperator
    # columns, with the bits of the dense product with the basis.
    v = herm_exp(random_hermitian(2 * d, 25 + d), 1.0)
    dense = map_from_function(lambda x: partial_trace(v @ x @ v.conj().T, (d, 2), keep=[0]),
                              2 * d, d)
    sup = query_superoperator(dense.generator, random_density(2 * d, 71), 0.25)
    n = d * d
    basis = channels._hermitian(np.eye(n).reshape(d, d, n)).reshape(n, n)
    out = (sup @ basis).reshape(d, d, n)
    want = channels._coords(0.5 * (out + out.conj().swapaxes(0, 1))).reshape(n, n)
    assert np.array_equal(channels._real_view(sup), want)


def test_a_near_diagonal_instruction_gives_a_planned_commutator():
    # Off-diagonals up to 1e-12 pass the diagonal check; the dbi and osd maps
    # are built from the exact diag(mu), so their blocks take the plan.
    near = np.diag([0.0, 1.0, 2.0])
    near[0, 1] = near[1, 0] = 1e-13
    initial = random_hermitian(3, 5)

    def structures(d):
        dbi = dbi_recursion_spec(DBIConfig(d, initial)).step.memory_calls[0].map
        return dbi.structure, make_osd_map(d, 0.3, (3, 2)).structure.inner.structure

    for c in structures(near):
        assert c.v is None and c._plan(0.1) is not None
        assert np.array_equal(c.d, np.diag([0.0, 1.0, 2.0]))
    # An exact diagonal gives the bits of the hermitized diagonal as before.
    exact = np.diag([0.0, 1.0, 2.0]).astype(complex)
    for c in structures(exact):
        assert c.d.dtype == complex and np.array_equal(c.d, hermitize(hermitize(exact)))


class TestQueryGeneratorUnitary:
    def test_one_slot_with_the_bits_of_herm_exp(self):
        # A dense map: its unitary is herm_exp of its Nhat.
        h = random_hermitian(3, 23)
        gen = map_from_function(lambda x: -0.4j * (h @ x - x @ h), 3, 3).generator
        u = gen.unitary(0.25)
        assert np.array_equal(u, herm_exp(gen.n_hat, 0.25))
        assert not u.flags.writeable
        assert gen.unitary(0.25) is u
        v = gen.unitary(-1.3)
        assert v is not u and np.array_equal(v, herm_exp(gen.n_hat, -1.3))
        # One slot: the earlier duration's unitary is built again, same bits.
        again = gen.unitary(0.25)
        assert again is not u and np.array_equal(again, u)
        assert gen.unitary(-0.0) is not gen.unitary(0.0)

    @pytest.mark.parametrize("build", [lambda: make_identity_map(2),
                                       lambda: map_from_function(lambda x: x, 2, 2)],
                             ids=["closed-form", "dense"])
    def test_map_and_generator_are_freed_without_the_cycle_collector(self, build):
        # A cycle between a map and its cached generator would keep the
        # generator's unitary alive until a full collection.
        m = build()
        m.generator.unitary(0.3)
        m.generator.norm
        ref = weakref.ref(m.generator)
        del m
        assert ref() is None

    def test_closed_form_in_one_slot(self):
        m = make_commutator_map(random_hermitian(3, 23), 0.4)
        u = m.generator.unitary(0.25)
        assert np.array_equal(u, m.structure.make_unitary(0.25))
        assert not u.flags.writeable
        assert m.generator.unitary(0.25) is u
        assert not hasattr(m.generator, "n_hat")

    @pytest.mark.parametrize(
        "build, planned",
        [
            (lambda: make_identity_map(3), False),
            (lambda: make_commutator_map(np.diag(np.arange(16.0)), 0.1), True),
            (lambda: make_osd_map(np.diag([0.0, 1.0]), 0.3, (2, 6)), True),
            (lambda: make_pair_commutator_map(8, 0.2), True),
            (lambda: make_commutator_map(random_hermitian(3, 21), 0.4), False),
            (dense_partial_trace, False),
        ],
        ids=["swap", "diagonal-commutator-16", "osd-2x6", "pair-commutator-8",
             "commutator", "partial-trace"],
    )
    def test_transfer_plan_shares_the_unitary_slot(self, monkeypatch, build, planned):
        # The closed forms have at most 3 nonzeros per row, so at most
        # 9 d_in d_out^2 pairs of 8 real terms each, and build no unitary; a
        # dense unitary keeps the Gram product, and so does a swap unitary,
        # whose blocks are in closed form and read no transfer matrix.
        gen = build().generator
        built, make = [], type(gen).make_unitary
        monkeypatch.setattr(type(gen), "make_unitary",
                            lambda self, t: built.append(t) or make(self, t))
        gen.transfer(random_density(gen.d_in, 71).matrix, 0.25)
        plan = gen._plan(0.25)
        assert (plan is not None) == planned
        assert built == ([] if planned else [0.25])
        if planned:
            assert plan.out.size <= 72 * gen.d_in * gen.d_out**2
        assert gen._plan(0.25) is plan
        u = gen.unitary(0.25)
        gen.unitary(-1.3)
        assert gen.unitary(0.25) is not u
        if planned:
            again = gen._plan(0.25)
            assert again is not plan
            assert all(np.array_equal(x, y) for x, y in zip(again[:3], plan[:3]))


def reference_unitary(st, t):
    """Reference copies of the four closed-form query unitaries, written out
    on the structure's fields."""
    if isinstance(st, channels.Swap):
        d = st.dim
        a, b = np.indices((d, d))
        u = np.zeros((d, d, d, d), dtype=complex)
        u[b, a, a, b] = 1j * np.sin(st.alpha * t)
        u[a, b, a, b] += np.cos(st.alpha * t)
        return u.reshape(d * d, d * d)
    if isinstance(st, channels.Commutator):
        d = st.d.shape[0]
        theta = -t * st.s * (st.mu[:, None] - st.mu[None, :])
        a, b = np.indices((d, d))
        w = np.zeros((d, d, d, d), dtype=complex)
        w[b, a, a, b] = np.sin(theta)
        w[a, b, a, b] = np.cos(theta)
        w = w.reshape(d * d, d * d)
        if st.v is None:
            return w
        vv = np.kron(st.v, st.v)
        return vv @ w @ vv.conj().T
    if isinstance(st, channels.PairCommutator):
        d = st.dim
        theta = np.fmod(-np.sqrt(3.0) * st.s * t, 2 * np.pi)
        c0, c1, c2 = ((1 + 2 * np.cos(theta - 2 * np.pi * j / 3)) / 3 for j in range(3))
        x, y, z = np.indices((d, d, d))
        u = np.zeros((d,) * 6, dtype=complex)
        u[x, y, z, x, y, z] += c0
        u[y, z, x, x, y, z] += c1
        u[z, x, y, x, y, z] += c2
        return u.reshape(d**3, d**3)
    a_in, a_out, eye_b = st.inner.d_in, st.inner.d_out, np.eye(st.d_b, dtype=complex)
    w_a = reference_unitary(st.inner.structure, t).reshape(a_in, a_out, a_in, a_out)
    u = np.einsum("ACXY,BZ,DW->ABCDXZYW", w_a, eye_b, eye_b)
    return u.reshape(a_in * a_out * st.d_b**2, a_in * a_out * st.d_b**2)


def reference_norm(st):
    """Reference copies of the four closed-form ``||Nhat||``."""
    if isinstance(st, channels.Swap):
        return float(abs(st.alpha))
    if isinstance(st, channels.Commutator):
        return abs(float(st.s)) * (float(st.mu.max()) - float(st.mu.min()))
    if isinstance(st, channels.PairCommutator):
        return np.sqrt(3.0) * abs(float(st.s)) if st.dim > 1 else 0.0
    return reference_norm(st.inner.structure)


PACKAGE_MAPS = {
    "identity": lambda: make_identity_map(3),
    "scaled": lambda: make_scaled_identity_map(-0.7, 4),
    "scaled-1": lambda: make_scaled_identity_map(2.5, 1),
    "commutator": lambda: make_commutator_map(random_hermitian(3, 21), 0.4),
    "diagonal-commutator": lambda: make_commutator_map(np.diag(np.arange(5.0)), -0.3),
    "osd": lambda: make_osd_map(np.diag([0.0, 0.5, 1.5]), 0.6, (3, 2)),
    "pair-commutator": lambda: make_pair_commutator_map(3, 0.9),
    "pair-commutator-1": lambda: make_pair_commutator_map(1, 0.9),
}


@pytest.mark.parametrize("build", PACKAGE_MAPS.values(), ids=PACKAGE_MAPS.keys())
class TestStructureIsTheGenerator:
    """A package map's structure is its query generator: one object, whose
    closed forms keep their bits."""

    def test_generator_is_the_structure(self, build):
        m = build()
        assert m.generator is m.structure
        assert isinstance(m.structure, QueryGenerator)
        assert (m.generator.d_in, m.generator.d_out) == (m.d_in, m.d_out)
        assert not hasattr(m.generator, "n_hat")

    def test_unitary_and_norm_keep_their_bits(self, build):
        m = build()
        for t in (0.0, -0.0, 0.25, -1.3, 1e10):
            u = m.generator.unitary(t)
            assert u.tobytes() == reference_unitary(m.structure, t).tobytes(), t
            assert m.structure.make_unitary(t).tobytes() == u.tobytes()
        norm = m.generator.norm
        assert type(norm) is float
        assert norm == reference_norm(m.structure)
        assert np.float64(norm).tobytes() == np.float64(reference_norm(m.structure)).tobytes()

    def test_closed_forms_take_no_dimension(self, build):
        st = build().structure
        assert list(inspect.signature(st.make_unitary).parameters) == ["t"]
        assert list(inspect.signature(st.unitary).parameters) == ["s"]


def test_dense_generator_exponentiates_by_herm_exp(monkeypatch):
    # A dense generator's query unitary is herm_exp of its Nhat, one call per duration.
    calls = []
    real = channels.herm_exp

    def counting(h, t):
        calls.append((h, t))
        return real(h, t)

    monkeypatch.setattr(channels, "herm_exp", counting)
    gen = QueryGenerator.from_map(make_commutator_map(random_hermitian(3, 21), 0.4))
    u = gen.unitary(0.3)
    assert len(calls) == 1 and calls[0][0] is gen.n_hat and calls[0][1] == 0.3
    assert u.tobytes() == real(gen.n_hat, 0.3).tobytes()
    assert gen.unitary(0.3) is u and len(calls) == 1
    assert gen.norm == op_norm(gen.n_hat)
    assert list(inspect.signature(QueryGenerator).parameters) == ["n_hat", "d_in", "d_out"]


class TestMakeCommutatorMap:
    def test_zero_duration_gives_zero_map(self):
        m = make_commutator_map(PAULI_Z, 0.0)
        np.testing.assert_allclose(QueryGenerator.from_map(m).n_hat, 0.0, atol=1e-15)
        assert m.generator.norm == 0.0

    def test_generator_entry_pattern(self):
        # Nhat = i s (mu_k - mu_j) |kj><jk| for diagonal instruction operators
        s = 0.7
        m = make_commutator_map(PAULI_Z, s)
        gen = QueryGenerator.from_map(m)
        expected = np.zeros((4, 4), dtype=complex)
        mu = [1.0, -1.0]
        for j in range(2):
            for k in range(2):
                expected[2 * k + j, 2 * j + k] += 1j * s * (mu[k] - mu[j])
        np.testing.assert_allclose(gen.n_hat, expected, atol=1e-14)

    def test_agrees_with_direct_commutator(self):
        d = random_hermitian(3, 5)
        m = make_commutator_map(d, 0.4)
        rho = random_density(3, 6).matrix
        np.testing.assert_allclose(
            map_apply(m, rho), -1j * 0.4 * (d @ rho - rho @ d), atol=1e-12
        )

    def test_choi_identity_matches_partial_transpose(self):
        m = make_commutator_map(random_hermitian(2, 9), 1.1)
        gen = QueryGenerator.from_map(m)
        direct = np.zeros((4, 4), dtype=complex)
        unit = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for k in range(2):
                unit[j, k] = 1.0
                direct += kron(np.outer(np.eye(2)[:, k], np.eye(2)[j, :]), map_apply(m, unit))
                unit[j, k] = 0.0
        np.testing.assert_allclose(gen.n_hat, direct, atol=1e-13)


class TestScaledIdentityMap:
    def test_generator_is_minus_alpha_swap(self):
        m = make_scaled_identity_map(1.0, 2)
        gen = QueryGenerator.from_map(m)
        np.testing.assert_allclose(gen.n_hat, -SWAP_2Q, atol=1e-15)

    def test_zero_alpha(self):
        gen = QueryGenerator.from_map(make_scaled_identity_map(0.0, 3))
        np.testing.assert_allclose(gen.n_hat, 0.0, atol=1e-15)

    def test_apply_scales(self):
        rho = random_density(3, 2).matrix
        np.testing.assert_allclose(
            map_apply(make_scaled_identity_map(0.3, 3), rho), -0.3 * rho, atol=1e-14
        )


class TestOsdMap:
    def test_block_diagonal_input_annihilated(self):
        m = make_osd_map(np.diag([0.0, 1.0]), 1.0, (2, 2))
        rho = kron(np.diag([0.4, 0.6]), random_density(2, 3).matrix)
        np.testing.assert_allclose(map_apply(m, rho), 0.0, atol=1e-13)

    def test_product_state(self):
        da = np.diag([0.0, 1.0])
        m = make_osd_map(da, 0.6, (2, 2))
        rho_a = random_density(2, 4).matrix
        rho_b = random_density(2, 5).matrix
        expected = kron(-1j * 0.6 * (da @ rho_a - rho_a @ da), np.eye(2))
        np.testing.assert_allclose(map_apply(m, kron(rho_a, rho_b)), expected, atol=1e-12)

    def test_hand_built_small_case(self):
        da = np.diag([0.0, 1.0])
        m = make_osd_map(da, 1.0, (2, 2))
        rho = random_density(4, 6).matrix
        reduced = partial_trace(rho, (2, 2), keep=[0])
        expected = kron(-1j * (da @ reduced - reduced @ da), np.eye(2))
        np.testing.assert_allclose(map_apply(m, rho), expected, atol=1e-12)

    def test_generator_matches_explicit_form(self):
        s = 0.45
        mu = np.array([0.0, 1.0])
        m = make_osd_map(np.diag(mu), s, (2, 2))
        gen = QueryGenerator.from_map(m)
        e = np.eye(2, dtype=complex)
        expected = np.zeros((16, 16), dtype=complex)
        for j in range(2):
            for k in range(2):
                a_part = np.outer(e[:, k], e[j, :])  # |k><j| on the first copy
                a2_part = np.outer(e[:, j], e[k, :])  # |j><k| on the second copy
                expected += 1j * s * (mu[k] - mu[j]) * kron(kron(a_part, e), kron(a2_part, e))
        np.testing.assert_allclose(gen.n_hat, expected, atol=1e-13)

    def test_degenerate_diagonal_rejected(self):
        with pytest.raises(InvariantError):
            make_osd_map(np.diag([0.5, 0.5]), 1.0, (2, 2))


class TestPairCommutatorMap:
    def test_product_input_gives_commutator(self):
        m = make_pair_commutator_map(3, 0.9)
        rho = random_density(3, 7).matrix
        chi = random_density(3, 8).matrix
        np.testing.assert_allclose(
            map_apply(m, kron(rho, chi)), -1j * 0.9 * (rho @ chi - chi @ rho), atol=1e-13
        )

    def test_hermitian_preserving_on_samples(self):
        m = make_pair_commutator_map(2, 1.3)
        x = random_hermitian(4, 11)
        out = map_apply(m, x)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    @pytest.mark.parametrize("theta", [1e5, 1e10, 1e15, 1e300, -7.7e200])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_query_unitary_is_unitary_at_large_angles(self, d, theta):
        """``theta = -sqrt(3) s t`` is reduced mod 2 pi first; unreduced,
        ``u^dag u`` missed 1 by 8.3e-7 at 1e10 and by 0.99 at 1e300."""
        u = make_pair_commutator_map(d, 1.0).generator.unitary(theta / -np.sqrt(3.0))
        assert np.max(np.abs(u.conj().T @ u - np.eye(d**3))) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("d", range(2, 9))
    def test_exact_call_matches_the_dense_default(self, d):
        """``PairCommutator.exact`` forms ``-i s [rho, chi]`` from the two
        factors; the dense default applies ``herm_exp`` to the map's action on
        their kron."""
        call = MemoryCallSpec(map=make_pair_commutator_map(d, 0.9 * 0.7),
                              extra_instruction=random_density(d, 40 + d))
        rho, w = random_density(d, 50 + d), random_density(d, 60 + d).matrix
        dense = QueryGenerator.exact(call, rho, w)
        np.testing.assert_allclose(exact_memory_call(call, rho, w), dense,
                                   rtol=0, atol=8 * np.finfo(float).eps)


class TestExactMemoryCall:
    def test_zero_generator_returns_working(self):
        call = MemoryCallSpec(map=make_scaled_identity_map(0.0, 2))
        rho = random_density(2, 1)
        sig = random_density(2, 2)
        out = exact_memory_call(call, rho, sig)
        np.testing.assert_allclose(out, sig.matrix, atol=1e-13)

    def test_identity_map_matches_herm_exp_composition(self):
        s = 0.8
        call = MemoryCallSpec(map=make_scaled_identity_map(-s, 3))  # rho -> s rho
        rho = random_density(3, 3)
        sig = random_density(3, 4)
        u = herm_exp(rho.matrix, -s)  # e^{+i s rho}
        np.testing.assert_allclose(
            exact_memory_call(call, rho, sig),
            u @ sig.matrix @ u.conj().T,
            atol=1e-12,
        )

    def test_scaled_map_is_partial_reflection(self):
        # map rho -> -alpha rho applies 1 - (1 - e^{-i alpha}) psi
        alpha = 1.1
        psi = random_pure(3, 5)
        call = MemoryCallSpec(map=make_scaled_identity_map(alpha, 3))
        refl = np.eye(3, dtype=complex) - (1 - np.exp(-1j * alpha)) * psi.matrix
        sig = random_density(3, 6)
        np.testing.assert_allclose(
            exact_memory_call(call, psi.density(), sig),
            refl @ sig.matrix @ refl.conj().T,
            atol=1e-12,
        )

    def test_dim_mismatch_rejected(self):
        call = MemoryCallSpec(map=make_identity_map(2))
        with pytest.raises(DimensionError):
            exact_memory_call(call, random_density(2, 1), random_density(3, 2))

    def test_preserves_working_spectrum(self):
        call = MemoryCallSpec(map=make_commutator_map(random_hermitian(4, 7), 0.9))
        rho = random_density(4, 8)
        sig = random_density(4, 9)
        out = exact_memory_call(call, rho, sig)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(sig.matrix), atol=1e-9
        )


class TestUnfoldedMemoryCall:
    NOT_COMMUTATOR = "unfolding a non-covariant recursion needs commutator-form memory-calls"

    def test_converges_to_exact_call(self):
        call = MemoryCallSpec(map=make_commutator_map(random_hermitian(3, 1), 0.4))
        rho, sig = random_density(3, 2), random_density(3, 3)
        exact = exact_memory_call(call, rho, sig)
        errs = [trace_distance(unfolded_memory_call(call, rho, sig, g), exact)
                for g in (16, 64)]
        assert errs[1] < errs[0] < 0.05

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("substeps", [1, 2, 3, 16, 64, 1000])
    def test_is_the_substeps_fold_product(self, dim, substeps):
        """The power against a loop of ``substeps`` products, within a budget
        of ``(8 + substeps)`` eps (measured: at most 0.37 substeps eps)."""
        call = MemoryCallSpec(map=make_commutator_map(random_hermitian(dim, 5), 0.4))
        rho, sig = random_density(dim, 6), random_density(dim, 7)
        gc = group_commutator(rho.matrix, -call.map.structure.d, 0.4 / substeps)
        u = np.eye(dim, dtype=complex)
        for _ in range(substeps):
            u = gc @ u
        want = u @ sig.matrix @ u.conj().T
        got = unfolded_memory_call(call, rho, sig, substeps)
        assert np.max(np.abs(got - want)) <= (8 + substeps) * np.finfo(float).eps

    def test_returns_a_fresh_group_commutator_power(self):
        """Calls on one map, at substeps that reuse the structure's kept
        instruction exponential and replace it, return the bits of a group
        commutator formed afresh and raised to ``substeps``."""
        call = MemoryCallSpec(map=make_commutator_map(random_hermitian(4, 5), 0.4))
        d = call.map.structure.d
        for k, substeps in enumerate([1, 1, 3, 3, 1, 4, 4]):
            rho, sig = random_density(4, 10 + k), random_density(4, 20 + k)
            u = np.linalg.matrix_power(group_commutator(rho.matrix, -d, 0.4 / substeps), substeps)
            want = u @ sig.matrix @ u.conj().T
            assert unfolded_memory_call(call, rho, sig, substeps).tobytes() == want.tobytes()

    def test_instruction_exponential_is_kept_in_one_slot(self):
        c = make_commutator_map(random_hermitian(3, 2), 0.5).structure
        first = c.instruction_exp(0.25)
        assert first.tobytes() == herm_exp(-c.d, 0.25).tobytes()
        assert not first.flags.writeable
        assert c.instruction_exp(0.25) is first
        other = c.instruction_exp(0.5)
        assert other.tobytes() == herm_exp(-c.d, 0.5).tobytes()
        again = c.instruction_exp(0.25)  # the slot now holds 0.5's
        assert again is not first and again.tobytes() == first.tobytes()

    def test_non_commutator_map_rejected(self):
        call = MemoryCallSpec(map=make_scaled_identity_map(0.5, 2))
        with pytest.raises(UnsupportedSpecError) as exc:
            unfolded_memory_call(call, random_density(2, 1), random_density(2, 2), 1)
        assert str(exc.value) == self.NOT_COMMUTATOR

    def test_extended_instruction_rejected(self):
        call = MemoryCallSpec(
            map=make_commutator_map(np.diag([0.0, 1.0, 2.0, 3.0]), 0.5),
            extra_instruction=random_density(2, 4),
        )
        with pytest.raises(UnsupportedSpecError) as exc:
            unfolded_memory_call(call, random_density(2, 1), random_density(4, 2), 1)
        assert str(exc.value) == self.NOT_COMMUTATOR

    def test_working_dim_checked_against_the_map(self):
        # The exact call's check and message, not numpy's matmul error.
        call = MemoryCallSpec(map=make_commutator_map(np.diag([0.0, 1.0, 2.0]), 0.5))
        for realize in (exact_memory_call, lambda *args: unfolded_memory_call(*args, 1)):
            with pytest.raises(DimensionError, match="working dim 2 != map d_out 3"):
                realize(call, random_density(3, 1), random_density(2, 2))

    def test_negative_flow_rejected(self):
        call = MemoryCallSpec(map=make_commutator_map(PAULI_Z, -0.5))
        with pytest.raises(UnsupportedSpecError) as exc:
            unfolded_memory_call(call, random_density(2, 1), random_density(2, 2), 1)
        assert str(exc.value) == "group-commutator unfolding needs positive flow"


class TestQueriedMemoryCall:
    def test_is_a_query_block_of_opposite_duration(self):
        m = make_commutator_map(random_hermitian(3, 5), 0.7 * 0.6)
        call = MemoryCallSpec(map=m)
        rho, sig = random_density(3, 6), random_density(3, 7)
        out = queried_memory_call(call, rho, sig, 16)
        ref = repeated_queries(m.generator, rho, sig, -1.0, 16)
        assert out.tobytes() == ref.tobytes()

    def test_converges_to_exact_call(self):
        call = MemoryCallSpec(map=make_commutator_map(random_hermitian(3, 8), 0.5 * 0.4))
        rho, sig = random_density(3, 9), random_density(3, 10)
        exact = exact_memory_call(call, rho, sig)
        errs = [trace_distance(queried_memory_call(call, rho, sig, m), exact)
                for m in (8, 64)]
        assert errs[1] < errs[0] / 4


def osd_case(dims, seed, t):
    """A seeded osd map on ``dims``, its scale times ``t``, with its
    instruction and working states."""
    rng = np.random.default_rng(seed)
    mu = np.sort(rng.uniform(0.0, 2.0, dims[0]))
    m = make_osd_map(np.diag(mu), t * float(rng.uniform(0.2, 1.5)), dims)
    d = dims[0] * dims[1]
    return m, random_density(d, 10 + seed), random_pure(d, 20 + seed).density()


def spy_dims(monkeypatch, name):
    """Replace ``channels.<name>`` by a wrapper; return the list of the
    ``d_out`` (or matrix dimension) of its first argument, one per call."""
    seen, real = [], getattr(channels, name)

    def spy(first, *args):
        seen.append(getattr(first, "d_out", None) or np.shape(first)[0])
        return real(first, *args)

    monkeypatch.setattr(channels, name, spy)
    return seen


class TestLiftedCall:
    """An osd call is realized on the A factor: the commutator call on
    ``Tr_B`` of the instruction, applied to the working matrix's A index.
    With ``d_A != d_B`` an A/B index swap would read as a wrong state."""

    DIMS = [(2, 3), (3, 2), (2, 6)]

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_call_matches_the_dense_unitary(self, monkeypatch, dims, seed):
        # Measured at most 2.5 eps.
        m, rho, sigma = osd_case(dims, seed, 0.9)
        u = herm_exp(map_apply(m, rho.matrix), -1.0)
        dense = u @ sigma.matrix @ u.conj().T
        sizes = spy_dims(monkeypatch, "herm_exp")
        got = exact_memory_call(MemoryCallSpec(map=m), rho, sigma)
        assert np.max(np.abs(got - dense)) <= 16 * np.finfo(float).eps
        assert sizes == [dims[0]]

    @pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    @pytest.mark.parametrize("seed", range(3))
    def test_query_block_matches_the_dense_block(self, monkeypatch, dims, seed):
        # Against the lifted generator's own block on the whole working matrix.
        # The A factor's block takes d_B^2 Hermitian columns, not twice as many,
        # and its output is Hermitian bit for bit.
        m, rho, sigma = osd_case(dims, seed, 0.9)
        counts = (1, 3, 16, 64)
        dense = [repeated_queries(m.generator, rho, sigma, -1.0, n) for n in counts]
        seen, real = [], channels.repeated_queries

        def spy(gen, memory, working, s, n):
            assert np.array_equal(working, working.conj().swapaxes(0, 1))
            seen.append((gen.d_out, working.shape))
            return real(gen, memory, working, s, n)

        monkeypatch.setattr(channels, "repeated_queries", spy)
        for n, want in zip(counts, dense):
            got = queried_memory_call(MemoryCallSpec(map=m), rho, sigma, n)
            assert np.max(np.abs(got - want)) <= (8 + n) * np.finfo(float).eps, n
            assert np.array_equal(got, got.conj().T)
        cols = (dims[0], (dims[0], dims[0], dims[1] ** 2))
        assert seen == [cols] * len(counts)

    EXACT = staticmethod(lambda call, rho, sigma: exact_memory_call(call, rho, sigma))
    QUERY = staticmethod(lambda call, rho, sigma: queried_memory_call(call, rho, sigma, 4))

    @pytest.mark.parametrize(
        "realize, d_instruction, d_working, match",
        [
            (EXACT, 6, 4, "working dim 4 != map d_out 6"),
            (EXACT, 4, 6, "input dim 4 != map d_in 6"),
            (QUERY, 6, 4, r"memory/working dims \(6,4\) do not match generator \(6,6\)"),
            (QUERY, 4, 6, r"memory/working dims \(4,6\) do not match generator \(6,6\)"),
        ],
        ids=["exact-working", "exact-instruction", "query-working", "query-memory"],
    )
    def test_dimensions_checked_against_the_lifted_map(self, realize, d_instruction,
                                                        d_working, match):
        call = MemoryCallSpec(map=make_osd_map(np.diag([0.0, 1.0]), 0.5, (2, 3)))
        with pytest.raises(DimensionError, match=match):
            realize(call, random_density(d_instruction, 1), random_density(d_working, 2))

    def test_unfolding_still_rejected(self):
        call = MemoryCallSpec(map=make_osd_map(np.diag([0.0, 1.0]), 0.5, (2, 3)))
        with pytest.raises(UnsupportedSpecError, match="commutator-form"):
            unfolded_memory_call(call, random_density(6, 1), random_density(6, 2), 4)


# Seeded maps of dimension ``d`` whose calls have scale ``t`` times a random one,
# each with its extra instruction or None.


def swap_call(d, rng, t):
    return make_scaled_identity_map(t * rng.uniform(-np.pi, np.pi), d), None


def pair_commutator_call(d, rng, t):
    s = t * rng.uniform(0.2, 1.5)
    return make_pair_commutator_map(d, s), random_density(d, rng.integers(99))


def lift_call(d_b):
    def build(d, rng, t):
        d_a = d // d_b
        mu = np.sort(rng.uniform(0.0, 2.0, d_a))
        return make_osd_map(np.diag(mu), t * rng.uniform(0.2, 1.5), (d_a, d_b)), None
    return build


def dense_commutator_call(d, rng, t):
    dd, s = random_hermitian(d, rng.integers(99)), rng.uniform(0.2, 1.5)
    return map_from_function(lambda x: t * (-1j * s * (dd @ x - x @ dd)), d, d), None


def commutator_call(d, rng, t):
    dd = random_hermitian(d, rng.integers(99))
    return make_commutator_map(dd, t * rng.uniform(0.2, 1.5)), None


class TestPureCalls:
    """An exact call instructed by a ``PureState`` on a state vector matches
    the dense call instructed by its ``DensityMatrix`` on the working
    vector's projector, within ``8 d eps`` of the projector: in closed form
    for the swap (no ``herm_exp``), the pair commutator (none) and the lift
    (one, of ``d_A x d_A``), and by the dense default for a map without
    one (one ``herm_exp`` of ``d x d``).  Over seeds 0-3 and the three
    scales the worst entry read 2.0 d eps for the swap, 1.25 d eps for the
    pair commutator, 0.94 d eps for the lift and 3.0 d eps for the dense
    default (at d = 2)."""

    # name: (call builder, its dimensions, herm_exp sizes it makes at d)
    CASES = {
        "swap": (swap_call, [2, 4, 8, 16], lambda d: []),
        "pair-commutator": (pair_commutator_call, [2, 4, 8, 16], lambda d: []),
        "lift-b2": (lift_call(2), [4, 8, 16], lambda d: [d // 2]),
        "lift-b4": (lift_call(4), [8, 16], lambda d: [d // 4]),
        "dense-map": (dense_commutator_call, [2, 4, 8, 16], lambda d: [d]),
        "commutator": (commutator_call, [2, 4, 8, 16], lambda d: [d]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("scale", [1.0, -0.35, 2.5e-4])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_dense_call(self, monkeypatch, case, scale, seed):
        build, dims, exps = self.CASES[case]
        for d in dims:
            rng = np.random.default_rng([seed, d])
            mapping, chi = build(d, rng, scale)
            call = MemoryCallSpec(map=mapping, extra_instruction=chi)
            psi, work = random_pure(d, 10 * seed + 1), random_pure(d, 10 * seed + 2)
            dense = exact_memory_call(call, psi.density(), work.density())
            sizes = spy_dims(monkeypatch, "herm_exp")
            v = exact_memory_call(call, psi, work.amplitudes)
            monkeypatch.undo()
            assert v.shape == (d,)
            assert sizes == exps(d)
            err = np.max(np.abs(np.outer(v, v.conj()) - dense))
            assert err <= 8 * d * np.finfo(float).eps, (d, err / np.finfo(float).eps)


class TestMemoryUsageQuery:
    def test_zero_duration(self):
        gen = QueryGenerator.from_map(make_identity_map(2))
        rho, sig = random_density(2, 1), random_density(2, 2)
        np.testing.assert_allclose(
            memory_usage_query(gen, rho, sig, 0.0).matrix, sig.matrix, atol=1e-14
        )

    def test_swap_at_quarter_period_swaps_states(self):
        gen = QueryGenerator.from_map(make_identity_map(3))
        rho, sig = random_density(3, 3), random_density(3, 4)
        out = memory_usage_query(gen, rho, sig, np.pi / 2)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_identical_states_are_fixed(self):
        gen = QueryGenerator.from_map(make_identity_map(2))
        rho = random_density(2, 5)
        for s in (0.2, 0.9, 2.5):
            out = memory_usage_query(gen, rho, rho, s)
            np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_first_order_generator(self):
        # (output - working)/s converges to -i [N(rho), sigma]
        m = make_commutator_map(random_hermitian(3, 11), 0.7)
        gen = QueryGenerator.from_map(m)
        rho, sig = random_density(3, 12), random_density(3, 13)
        target = -1j * (map_apply(m, rho.matrix) @ sig.matrix - sig.matrix @ map_apply(m, rho.matrix))
        errs = []
        for s in (1e-3, 1e-4):
            diff = (memory_usage_query(gen, rho, sig, s).matrix - sig.matrix) / s
            errs.append(np.max(np.abs(diff - target)))
        assert errs[0] < 1e-2
        assert errs[1] < errs[0] / 5  # first-order residual shrinks linearly

    def test_output_is_valid_state(self):
        m = make_commutator_map(random_hermitian(4, 21), 1.5)
        gen = QueryGenerator.from_map(m)
        for seed in range(5):
            out = memory_usage_query(
                gen, random_density(4, seed), random_density(4, seed + 50), 0.7
            )
            assert abs(np.trace(out.matrix) - 1.0) < 1e-9
            assert np.min(np.linalg.eigvalsh(out.matrix)) > -1e-9


class TestDmeQuery:
    def test_endpoints(self):
        rho, sig = random_density(3, 1), random_density(3, 2)
        np.testing.assert_allclose(dme_query(rho, sig, 0.0).matrix, sig.matrix, atol=1e-14)
        np.testing.assert_allclose(dme_query(rho, sig, np.pi / 2).matrix, rho.matrix, atol=1e-13)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_swap_query(self, dim):
        gen = QueryGenerator.from_map(make_identity_map(dim))
        for seed in range(10):
            rho = random_density(dim, 1000 + seed)
            sig = random_density(dim, 2000 + seed)
            a = dme_query(rho, sig, 0.3).matrix
            b = memory_usage_query(gen, rho, sig, 0.3).matrix
            assert np.max(np.abs(a - b)) <= 1e-12


class TestRepeatedQueries:
    def test_matches_manual_loop(self):
        m = make_commutator_map(random_hermitian(2, 31), 0.8)
        gen = QueryGenerator.from_map(m)
        rho, sig = random_density(2, 32), random_density(2, 33)
        manual = sig
        for _ in range(6):
            manual = memory_usage_query(gen, rho, manual, 0.4 / 6)
        fast = repeated_queries(gen, rho, sig, 0.4, 6)
        np.testing.assert_allclose(fast, manual.matrix, atol=1e-12)

    def test_doubling_m_at_least_halves_error(self):
        m = make_scaled_identity_map(0.9, 3)
        gen = QueryGenerator.from_map(m)
        rho, sig = random_density(3, 41), random_density(3, 42)
        s = 0.5
        errors = {}
        for mm in (4, 8, 16, 32):
            out = repeated_queries(gen, rho, sig, s, mm)
            exact = exact_memory_call(MemoryCallSpec(map=make_scaled_identity_map(-s * 0.9, 3)),
                                      rho, sig)
            errors[mm] = trace_distance(out, exact)
        for mm in (4, 8, 16):
            assert errors[2 * mm] <= errors[mm] / 1.8

    def test_commuting_case_exact_for_all_m(self):
        gen = QueryGenerator.from_map(make_identity_map(2))
        rho = random_density(2, 51)
        for mm in (1, 3, 7):
            out = repeated_queries(gen, rho, rho, 1.3, mm)
            np.testing.assert_allclose(out, rho.matrix, atol=1e-12)

    def test_error_bound_inside_window(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            dim = int(rng.integers(2, 5))
            mp = make_scaled_identity_map(float(rng.uniform(0.4, 1.2)), dim)
            gen = QueryGenerator.from_map(mp)
            rho = random_density(dim, int(rng.integers(2**31)))
            s = float(rng.uniform(0.1, 0.5))
            mm = int(rng.choice([4, 8, 16]))
            bound, within = query_error_bound(gen, s, mm)
            assert within
            [err] = channel_error_probe(gen, mp, rho, s, [mm], 3, trial)
            assert err <= bound

    def test_superoperator_is_trace_preserving(self):
        m = make_commutator_map(random_hermitian(3, 61), 1.0)
        gen = QueryGenerator.from_map(m)
        sup = query_superoperator(gen, random_density(3, 62), 0.2)
        # applying to vec(I/3) keeps unit trace
        vec = (np.eye(3) / 3).reshape(-1)
        out = (sup @ vec).reshape(3, 3)
        assert abs(np.trace(out) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "query",
        [
            lambda gen: repeated_queries(gen, random_density(3, 1), random_density(2, 2), 0.5, 4),
            lambda gen: repeated_queries(gen, random_density(2, 1), random_density(3, 2), 0.5, 4),
            # Unchecked, the pair scatter would gather from the 3 x 3 memory
            # as if it were 2 x 2 and return a wrong superoperator.
            lambda gen: query_superoperator(gen, random_density(3, 1), 0.5),
        ],
        ids=["memory", "working", "superoperator"],
    )
    def test_dim_mismatch_rejected(self, query):
        gen = make_identity_map(2).generator
        with pytest.raises(DimensionError, match="memory/working dims"):
            query(gen)

    @pytest.mark.parametrize("m", [1, 7, 64, 1000])
    def test_batch_matches_column_by_column(self, m):
        # The batch and each column sum one series, in another product
        # order, within the oracle's (8 + m) eps.
        gen = make_commutator_map(random_hermitian(3, 21), 0.4).generator
        memory = random_density(3, 1)
        states = [random_pure(3, 30 + k).density().matrix for k in range(5)]
        got = repeated_queries(gen, memory, np.stack(states, axis=-1), 0.6, m)
        assert got.shape == (3, 3, 5)
        for k, working in enumerate(states):
            one = repeated_queries(gen, memory, working, 0.6, m)
            assert np.max(np.abs(got[..., k] - one)) <= (8 + m) * np.finfo(float).eps, k


def record_transfers(monkeypatch):
    """Spy on the blocks' transfer matrices: the list of one query's
    deviation ``D = R - 1`` that each block reads (``transfer``)."""
    transfers = []
    transfer = QueryGenerator.transfer

    def recording(self, memory, s):
        r = transfer(self, memory, s)
        transfers.append(r.copy())
        return r

    monkeypatch.setattr(QueryGenerator, "transfer", recording)
    return transfers


class TestQueryBlockSeries:
    """Blocks that sum a transfer matrix's series: every map but the swap
    maps, whose blocks are in closed form, so the identity map here is the
    dense one."""

    MAPS = {
        "identity": lambda: map_from_function(lambda x: x, 2, 2),
        "commutator": lambda: make_commutator_map(random_hermitian(3, 21), 0.4),
        "osd": lambda: make_osd_map(np.diag([0.0, 0.5, 1.5]), 0.6, (3, 2)),
        "pair-commutator": lambda: make_pair_commutator_map(2, 0.9),
    }

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_transfer_matrix_per_block(self, monkeypatch, d):
        gen = map_from_function(lambda x: x, d, d).generator
        rho, sigma = random_density(d, 1), random_density(d, 2)
        transfers = record_transfers(monkeypatch)
        for m in [1, 2, 3, 64, 4096, 2**16 + 1]:
            transfers.clear()
            repeated_queries(gen, rho, sigma, 0.6, m)
            assert len(transfers) == 1, m
            assert transfers[0].dtype == np.float64 and transfers[0].shape == (d * d, d * d)

    @pytest.mark.parametrize("k", [1, 4, 36])
    def test_a_batch_reads_one_transfer_matrix(self, monkeypatch, k):
        gen = make_commutator_map(random_hermitian(2, 21), 0.4).generator
        batch = np.stack([random_pure(2, 30 + j).density().matrix for j in range(k)], axis=-1)
        transfers = record_transfers(monkeypatch)
        for m in [1, 2, 3, 8, 16, 32, 49]:
            transfers.clear()
            repeated_queries(gen, random_density(2, 1), batch, 0.6, m)
            assert len(transfers) == 1, m

    @pytest.mark.parametrize("name", list(MAPS))
    def test_every_block_gives_an_exactly_hermitian_output(self, monkeypatch, name):
        # The series runs on real coordinates, and the block's output is
        # rebuilt from them, so it is Hermitian bit for bit at any m.
        gen = self.MAPS[name]().generator
        memory, working = random_density(gen.d_in, 3), random_density(gen.d_out, 4)
        transfers = record_transfers(monkeypatch)
        for m in (1, 3, 64, 2**12 + 5):
            out = repeated_queries(gen, memory, working, -1.3, m)
            assert np.array_equal(out, out.conj().T), m
        assert len(transfers) == 4

    @pytest.mark.parametrize("name", list(MAPS))
    @pytest.mark.parametrize("s", [0.6, -1.3])
    def test_long_block_needs_no_hermitian_repair(self, name, s):
        gen = self.MAPS[name]().generator
        for seed in range(3):
            memory = random_density(gen.d_in, 10 + seed)
            working = random_pure(gen.d_out, 20 + seed).density()
            with warnings.catch_warnings():
                warnings.filterwarnings("error", message="symmetrizing matrix")
                DensityMatrix(repeated_queries(gen, memory, working, s, 2**16))


class TestNonHermitianWorking:
    """Every block maps Hermitian matrices: a working matrix, or a batch
    column, further from Hermitian than HERM_ATOL is refused by hermitize's
    rule, and one in the warning window is warned about."""

    MAPS = {
        "commutator": lambda: make_commutator_map(np.diag([0.0, 1.0, 2.5]), 0.4),
        "swap": lambda: make_identity_map(3),
        "osd": lambda: make_osd_map(np.diag([0.0, 1.0]), 0.3, (2, 3)),
        "pair-commutator": lambda: make_pair_commutator_map(3, 0.9),
        "dense": lambda: map_from_function(lambda x: x, 3, 3),
    }

    @staticmethod
    def off(d, by, seed=2):
        w = random_density(d, seed).matrix.copy()
        w[0, 1] += by
        return w

    @pytest.mark.parametrize("name", list(MAPS))
    def test_a_call_refuses_or_warns(self, name):
        mapping = self.MAPS[name]()
        call, memory = MemoryCallSpec(map=mapping), random_density(mapping.d_in, 1)
        with pytest.raises(InvariantError, match="not Hermitian"):
            queried_memory_call(call, memory, self.off(mapping.d_out, 1e-6), 4)
        with pytest.warns(RuntimeWarning, match="symmetrizing matrix"):
            queried_memory_call(call, memory, self.off(mapping.d_out, 1e-11), 4)

    @pytest.mark.parametrize("name", list(MAPS))
    def test_a_batch_column_is_refused(self, name):
        gen = self.MAPS[name]().generator
        d = gen.d_out
        batch = np.stack([random_density(d, 3).matrix, self.off(d, 1e-6)], axis=-1)
        with pytest.raises(InvariantError, match="not Hermitian"):
            repeated_queries(gen, random_density(gen.d_in, 1), batch, 0.5, 4)


class TestGroupCommutator:
    def test_commuting_pair_gives_identity(self):
        a = np.diag([0.3, -0.2]).astype(complex)
        b = np.diag([1.0, 2.0]).astype(complex)
        np.testing.assert_allclose(group_commutator(a, b, 0.5), np.eye(2), atol=1e-12)

    def test_norm_bound(self):
        s = 0.01
        gc = group_commutator(PAULI_X, PAULI_Z, s)
        comm = PAULI_X @ PAULI_Z - PAULI_Z @ PAULI_X
        target = herm_exp(hermitize(1j * s * comm), 1.0)
        err = np.linalg.norm(gc - target, 2)
        aab = PAULI_X @ comm - comm @ PAULI_X
        bba = PAULI_Z @ (-comm) - (-comm) @ PAULI_Z
        bound = s**1.5 * (np.linalg.norm(aab, 2) + np.linalg.norm(bba, 2))
        assert err <= bound

    def test_three_halves_power_scaling(self):
        def err(s):
            gc = group_commutator(PAULI_X, PAULI_Z, s)
            target = herm_exp(hermitize(1j * s * (PAULI_X @ PAULI_Z - PAULI_Z @ PAULI_X)), 1.0)
            return np.linalg.norm(gc - target, 2)

        ratio = err(0.01) / err(0.0025)
        assert 6.0 <= ratio <= 10.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(InvariantError):
            group_commutator(PAULI_X, PAULI_Z, 0.0)

    @pytest.mark.parametrize("dim", [2, 8])
    def test_equals_four_exponential_product(self, dim):
        # The adjoints stand in for the two inverse exponentials, which moves
        # the product by a few eps (at most 4.6 eps for dims 2-32).
        a, b, s = random_hermitian(dim, 50 + dim), random_hermitian(dim, 60 + dim), 0.03
        r = np.sqrt(s)
        expected = herm_exp(b, r) @ herm_exp(a, r) @ herm_exp(b, -r) @ herm_exp(a, -r)
        assert np.max(np.abs(group_commutator(a, b, s) - expected)) <= 16 * np.finfo(float).eps

    def test_bound_on_seeded_pairs(self):
        rng = np.random.default_rng(4)
        for dim in (2, 4, 8):
            for trial in range(5):
                a = random_hermitian(dim, int(rng.integers(2**31)))
                b = random_hermitian(dim, int(rng.integers(2**31)))
                s = float(rng.uniform(0.001, 0.05))
                comm = a @ b - b @ a
                target = herm_exp(hermitize(1j * s * comm), 1.0)
                err = np.linalg.norm(group_commutator(a, b, s) - target, 2)
                aab = np.linalg.norm(a @ comm - comm @ a, 2)
                bba = np.linalg.norm(b @ (-comm) - (-comm) @ b, 2)
                assert err <= s**1.5 * (aab + bba)


class TestChannelErrorProbe:
    def test_exact_channel_probed_against_itself(self):
        m = make_identity_map(2)
        gen = QueryGenerator.from_map(m)
        rho = random_density(2, 71)
        # huge m drives the probe to the exact channel's own scale
        [err] = channel_error_probe(gen, m, rho, 1e-9, [1], 3, 0)
        assert err < 1e-12

    def test_large_m_small_error(self):
        m = make_identity_map(3)
        gen = QueryGenerator.from_map(m)
        rho = random_density(3, 72)
        assert channel_error_probe(gen, m, rho, 0.1, [512], 3, 1)[0] <= 1e-3

    def test_one_transfer_matrix_per_m(self, monkeypatch):
        m = make_commutator_map(np.diag(np.arange(4.0)) / 3, 1.0)
        rho, m_values = random_density(4, 74), [1, 4, 64, 4096]
        transfers = record_transfers(monkeypatch)
        assert len(channel_error_probe(m.generator, m, rho, 0.5, m_values, 8, 3)) == len(m_values)
        assert len(transfers) == len(m_values)
        assert all(r.shape == (16, 16) for r in transfers)

    def test_a_swap_probe_builds_no_superoperator(self, monkeypatch):
        m, rho = make_identity_map(4), random_density(4, 74)
        sizes = spy_dims(monkeypatch, "query_superoperator")
        channel_error_probe(m.generator, m, rho, 0.5, [1, 4, 64, 4096], 8, 3)
        assert sizes == []

    def test_samples_once_for_every_m(self, monkeypatch):
        # One probe over several m reads what a probe per m reads, bit for bit.
        m, rho, m_values = make_identity_map(3), random_density(3, 76), [1, 16, 4096]
        singles = [channel_error_probe(m.generator, m, rho, 0.5, [mm], 5, 9)[0] for mm in m_values]
        draws, real = [], channels.random_pure
        monkeypatch.setattr(channels, "random_pure", lambda *a: draws.append(a) or real(*a))
        assert channel_error_probe(m.generator, m, rho, 0.5, m_values, 5, 9) == singles
        assert len(draws) == 5

    @pytest.mark.parametrize("mm", [1, 16, 4096])
    def test_the_sample_by_sample_maximum(self, mm):
        # The seeded states, drawn in order, each through its own block; the
        # batch may take the other product order, so the oracle's (8 + m) eps.
        m, rho = make_scaled_identity_map(0.8, 3), random_density(3, 75)
        rng = np.random.default_rng(5)
        u = herm_exp(map_apply(m, rho.matrix), 0.4)
        worst = 0.0
        for _ in range(6):
            working = random_pure(3, rng.integers(2**63)).density().matrix
            approx = repeated_queries(m.generator, rho, working, 0.4, mm)
            worst = max(worst, trace_distance(approx, u @ working @ u.conj().T))
        [got] = channel_error_probe(m.generator, m, rho, 0.4, [mm], 6, 5)
        assert abs(got - worst) <= (8 + mm) * np.finfo(float).eps

    def test_monotone_in_m_on_average(self):
        m = make_scaled_identity_map(0.8, 2)
        gen = QueryGenerator.from_map(m)
        rho = random_density(2, 73)
        vals = channel_error_probe(gen, m, rho, 0.4, [4, 8, 16, 32], 4, 99)
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestHermitianPreservingMapValidation:
    def test_rejects_non_hermitian_n_hat(self):
        m = map_from_function(lambda x: 1j * x, 2, 2)
        with pytest.raises(InvariantError):
            m.generator.n_hat

    def test_n_hat_symmetrizes_small_deviation_with_warning(self):
        # Nhat deviates from Hermitian by 2 * eps, inside the
        # (HERM_WARN_ATOL, HERM_ATOL] window of hermitize
        eps = 1e-11
        m = map_from_function(lambda x: x + 1j * eps * np.trace(x) * np.eye(2), 2, 2)
        with pytest.warns(RuntimeWarning, match="symmetrizing matrix"):
            n_hat = m.generator.n_hat
        np.testing.assert_array_equal(n_hat, n_hat.conj().T)

    def test_n_hat_rejects_deviation_above_herm_atol(self):
        eps = 1e-9
        m = map_from_function(lambda x: x + 1j * eps * np.trace(x) * np.eye(2), 2, 2)
        with pytest.raises(InvariantError, match="not Hermitian"):
            m.generator.n_hat

    def test_exact_call_rejects_non_hermitian_generator(self):
        # the generator 1j * rho deviates from Hermitian by 2 max|rho|
        call = MemoryCallSpec(map=map_from_function(lambda x: 1j * x, 2, 2))
        with pytest.raises(InvariantError, match="not Hermitian"):
            exact_memory_call(call, random_density(2, 1), random_density(2, 2))

    def test_map_on_identity_is_hermitian(self):
        m = make_commutator_map(random_hermitian(3, 81), 0.9)
        out = map_apply(m, np.eye(3))
        assert np.max(np.abs(out - out.conj().T)) < 1e-10


def choi_from_action(m):
    """The map's Choi matrix built from the action: ``N(|j><k|)`` in block
    ``[j, :, k, :]``, then ``hermitize``."""
    d_in, d_out = m.d_in, m.d_out
    choi4 = np.zeros((d_in, d_out, d_in, d_out), dtype=complex)
    for j in range(d_in):
        for k in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[j, k] = 1.0
            choi4[j, :, k, :] = m.action(unit)
    return hermitize(choi4.reshape(d_in * d_out, d_in * d_out))


class TestGeneratorFromAction:
    BUILDS = [
        lambda: make_identity_map(3),
        lambda: make_scaled_identity_map(0.7, 3),
        lambda: make_commutator_map(random_hermitian(3, 21), 0.4),
        lambda: make_osd_map(np.diag([0.0, 0.5, 1.5]), 0.6, (3, 2)),
        lambda: make_pair_commutator_map(2, 0.9),
    ]
    IDS = ["identity", "scaled", "commutator", "osd", "pair-commutator"]

    @pytest.mark.parametrize("build", BUILDS, ids=IDS)
    def test_same_bits_as_the_choi_route(self, build):
        m = build()
        choi = choi_from_action(build())
        # Nhat is the Choi matrix transposed on the first (input) factor
        choi4 = choi.reshape(m.d_in, m.d_out, m.d_in, m.d_out)
        n_hat = hermitize(choi4.swapaxes(0, 2).reshape(choi.shape))
        dense = QueryGenerator.from_map(m).n_hat
        assert np.array_equal(dense, n_hat)
        assert dense.tobytes() == n_hat.tobytes()

    @pytest.mark.parametrize("build", BUILDS, ids=IDS)
    def test_from_map_hermitizes_once(self, build, monkeypatch):
        m = build()
        calls = []

        def counting(a):
            calls.append(a.shape)
            return hermitize(a)

        monkeypatch.setattr("qdpsim.channels.hermitize", counting)
        QueryGenerator.from_map(m)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: map_apply(map_from_function(lambda x: x[:1, :1], 2, 2), np.eye(2)),
         DimensionError, r"map output shape \(1, 1\) != \(2,2\)"),
        (lambda: QueryGenerator(n_hat=np.eye(4), d_in=2, d_out=3),
         DimensionError, "generator dimension does not match"),
        (lambda: make_osd_map(PAULI_X, 0.5, (2, 2)),
         InvariantError, "instruction operator must be diagonal"),
        (lambda: make_osd_map(np.diag([0.0, 1.0, 2.0]), 0.5, (2, 2)),
         DimensionError, "diagonal operator dim 3 != 2"),
        (lambda: dme_query(random_density(2, 0), random_density(3, 1), 0.3),
         DimensionError, "dim mismatch 2 vs 3"),
        (lambda: repeated_queries(make_identity_map(2).generator, random_density(2, 0),
                                  random_density(2, 1), 0.3, 0),
         InvariantError, "query count must be >= 1"),
        (lambda: group_commutator(PAULI_X, np.eye(3), 0.1),
         DimensionError, "shape mismatch"),
        (lambda: channel_error_probe(make_identity_map(2).generator, make_identity_map(2),
                                     random_density(2, 0), 0.3, [4], 0, seed=1),
         InvariantError, "n_samples must be >= 1"),
    ],
    ids=["map-output", "generator-dims", "osd-not-diagonal",
         "osd-diagonal-dim", "dme-dims", "no-queries", "commutator-shapes", "no-samples"],
)
def test_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestInstructionDimensionChecked:
    """An instruction register of the wrong size (here a lifted map fed
    ``state (x) extra`` with the wrong extra) is rejected by the realization
    that reads it."""

    CALL = MemoryCallSpec(map=make_pair_commutator_map(2, 0.9),
                          extra_instruction=random_density(3, 4))

    def test_exact_call(self):
        with pytest.raises(DimensionError, match="input dim 6 != map d_in 4"):
            exact_memory_call(self.CALL, random_density(2, 1), random_density(2, 2))

    def test_queried_call(self):
        with pytest.raises(DimensionError, match=r"memory/working dims \(6,2\)"):
            queried_memory_call(self.CALL, random_density(2, 1), random_density(2, 2), 4)

    @pytest.mark.parametrize("mapping", [make_scaled_identity_map(0.7, 6),
                                         make_osd_map(np.diag([0.0, 1.0]), 0.5, (2, 3))],
                             ids=["swap", "lift"])
    def test_pure_exact_call(self, mapping):
        call = MemoryCallSpec(map=mapping)
        with pytest.raises(DimensionError, match="input dim 4 != map d_in 6"):
            exact_memory_call(call, random_pure(4, 1), random_pure(6, 2).amplitudes)
