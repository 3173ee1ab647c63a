"""Query paths and unfolded calls checked against answers computed without them.

Swap closed form: with memory ``rho = V diag(p) V^dag``, ``m`` identity-map
(swap) queries of duration ``t = S/m`` act in rho's eigenbasis as

* ``x_ij -> (c^2 - i s c (p_i - p_j))^m x_ij`` off the diagonal,
* ``x_ii -> c^(2m) x_ii + p_i (1 - c^(2m))`` on it,

with ``c, s = cos t, sin t``.  A swap map's ``repeated_queries`` block
(``Swap.block``) is this closed form, evaluated so its accuracy does not
depend on m.  Its distance to the naive power here is budgeted as
``(8 + m) eps`` (largest entry), once validated as a ``DensityMatrix``, as a
recursion step validates its output: the naive power reads the float64
memory's trace, 1 + 1.1e-16, m times (over seeds 0-4, at most 0.55 of the
budget).  The same map's dense twin (``QueryGenerator.from_map``) keeps
the superoperator power: one query built to a few eps and applied ``m``
times, by ``m`` matvecs or, past the crossover ``2 log2(m) d^2 < m``, by
repeated squaring (from m = 49 at d = 2 and m = 289 at d = 4 in
``M_VALUES``).  The two blocks are budgeted
``(8 + m) eps`` apart.  Over seeds 0-3, d = 2-4 and angles up to 14.5, the
validated blocks were at most 0.51 of that apart.

One query's superoperator misses trace preservation by a few eps, and a
squared or looped block amplifies that defect to about ``m`` times it, so
for large enough m the trace passes ``TRACE_ATOL`` (1e-10) and the output
``DensityMatrix`` is rejected (over 20 inputs, 1.49e6 eps at m = 2^20, where
13 fail).  The closed form keeps the trace by construction: within a few
eps up to m = 2^30, pinned below, and the channel-error run at m = 2^20
and the grover run at m = 2^22, which a squared block fails, pass.

Dense query: a block of ``m`` queries of duration ``S/m`` is ``m`` successive
``memory_usage_query`` calls, each handed the same memory copy and each
applying the generator's query unitary and validating its output on its own.
It shares that unitary with the block (the closed forms have their own
oracle below) but not the superoperator, the loop or the squaring.  The
blocks run as a recursion step runs them (``queried_memory_call``), so an
osd block is its A factor's block applied to ``d_B^2`` columns, which
squares from m = 7 at osd (2, 2), m = 2 at (2, 3) and m = 23 at (3, 2).
The validated block is budgeted ``(8 + m) eps`` against it; over seeds 0-19
the worst was 1.03 eps at m = 1 (commutator map, d = 2), 0.639 m eps at
m = 16 and 0.603 m eps at m = 64 (pair commutator), and 0.488 m eps at
m = 1024 (pair commutator).
"""

import dataclasses

import numpy as np
import pytest

from helpers import heisenberg_chain, random_hermitian
from qdpsim import (
    DensityMatrix,
    MemoryCallSpec,
    OSDConfig,
    PureState,
    QITEConfig,
    QueryGenerator,
    grover_config_from_distance,
    grover_recursion_spec,
    herm_exp,
    make_commutator_map,
    make_identity_map,
    make_osd_map,
    make_pair_commutator_map,
    make_scaled_identity_map,
    memory_usage_query,
    op_norm,
    osd_recursion_spec,
    qite_recursion_spec,
    random_density,
    random_pure,
    repeated_queries,
    run_exact,
)
from qdpsim import channels
from qdpsim.channels import Lift, PairCommutator, Swap, queried_memory_call, unfolded_memory_call
from qdpsim.cli import main

EPS = np.finfo(float).eps
LD = np.longdouble
# Up to 2^16, with the last looped and the first squared block at d = 2 (48, 49)
# and at d = 4 (288, 289).
M_VALUES = [1, 2, 3, 16, 48, 49, 64, 256, 288, 289] + [4**k for k in range(5, 9)]


def swap_closed_form(rho, sigma, total, m):
    p, v = np.linalg.eigh(rho)
    x = v.conj().T @ sigma @ v
    c, s = np.cos(total / m), np.sin(total / m)
    out = (c * c - 1j * s * c * (p[:, None] - p[None, :])) ** m * x
    c2m = c ** (2 * m)
    np.fill_diagonal(out, c2m * np.diag(x) + p * (1.0 - c2m))
    return v @ out @ v.conj().T


@pytest.mark.parametrize("total", [0.6, -1.3])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_swap_queries_match_closed_form(dim, seed, total):
    gen = make_identity_map(dim).generator
    rho = random_density(dim, seed)
    sigma = random_pure(dim, 100 + seed).density()
    for m in M_VALUES:
        got = DensityMatrix(repeated_queries(gen, rho, sigma, total, m)).matrix
        err = np.max(np.abs(got - swap_closed_form(rho.matrix, sigma.matrix, total, m)))
        assert err <= (8 + m) * EPS, (m, err / EPS)


def test_closed_form_is_one_query_at_m_1():
    # m = 1 is the dme formula cos^2 sigma - i sin cos [rho, sigma] + sin^2 rho
    rho, sigma = random_density(3, 5).matrix, random_pure(3, 6).density().matrix
    c, s = np.cos(0.7), np.sin(0.7)
    direct = c * c * sigma - 1j * s * c * (rho @ sigma - sigma @ rho) + s * s * rho
    np.testing.assert_allclose(swap_closed_form(rho, sigma, 0.7, 1), direct, rtol=0, atol=1e-15)


@pytest.mark.parametrize("total", [0.6, -1.3])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_swap_block_matches_the_dense_twin(dim, seed, total):
    mapping = make_scaled_identity_map(-0.9, dim)
    closed, twin = mapping.generator, QueryGenerator.from_map(mapping)
    assert isinstance(closed, Swap)
    rho = random_density(dim, seed)
    sigma = random_pure(dim, 100 + seed).density()
    for m in M_VALUES:
        got = DensityMatrix(repeated_queries(closed, rho, sigma, total, m)).matrix
        power = DensityMatrix(repeated_queries(twin, rho, sigma, total, m)).matrix
        err = np.max(np.abs(got - power))
        assert err <= (8 + m) * EPS, (m, err / EPS)


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_swap_block_keeps_the_trace_at_any_m(dim, seed):
    # The raw block, not validated: its trace is the input's, to the memory's own.
    gen = make_identity_map(dim).generator
    rho = random_density(dim, seed)
    sigma = random_pure(dim, 100 + seed).density()
    for m in [1, 2**10, 2**16, 2**20, 2**26, 2**30]:
        for total in (0.6, -1.3):
            out = repeated_queries(gen, rho, sigma, total, m)
            assert abs(np.trace(out) - 1.0) <= 8 * EPS, (m, total)


def ld_swap_block(rho, sigma, alpha, total, m):
    """The swap closed form in ``np.clongdouble`` on float64 ``eigh`` of
    ``rho``: ``|mu|^m`` and ``c^(2m)`` from ``log1p``, the phase from
    ``atan2``, so each keeps its accuracy at any m."""
    p, v = np.linalg.eigh(rho)
    p, v = p.astype(LD), v.astype(np.clongdouble)
    x = v.conj().T @ sigma.astype(np.clongdouble) @ v
    theta = LD(alpha) * LD(total) / LD(m)
    c, s = np.cos(theta), np.sin(theta)
    dp = p[:, None] - p[None, :]
    log_c2 = np.log1p(-s * s)
    modulus = np.exp(m / LD(2) * (log_c2 + np.log1p(-s * s * (1 - dp * dp))))
    out = modulus * np.exp(1j * m * np.arctan2(c * s * dp, c * c)) * x
    np.fill_diagonal(out, np.exp(m * log_c2) * np.diag(x) - np.expm1(m * log_c2) * p * np.trace(x))
    return v @ out @ v.conj().T


@pytest.mark.skipif(np.finfo(LD).eps >= EPS, reason="long double is no wider than double")
@pytest.mark.parametrize("alpha, total", [(-1.0, 0.6), (-1.0, -1.3), (0.8, 3.0), (2.0, 7.0)])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_swap_block_accuracy_does_not_depend_on_m(dim, seed, alpha, total):
    # The raw block against the same formula in long double: over seeds 0-3
    # at most 3.4 eps, at m = 2^20.  A naive mu^m and c^(2m) lose about m eps.
    gen = make_scaled_identity_map(alpha, dim).generator
    rho = random_density(dim, seed)
    sigma = random_pure(dim, 100 + seed).density()
    for m in [1, 3, 16, 4096, 2**16, 2**20, 2**30]:
        got = repeated_queries(gen, rho, sigma, total, m)
        exact = ld_swap_block(rho.matrix, sigma.matrix, alpha, total, m)
        err = float(np.max(np.abs(got - exact)))
        assert err <= 8 * EPS, (m, err / EPS)


@pytest.mark.parametrize("m", [1, 3])
def test_quarter_period_swap_queries_return_the_memory(m):
    # Each query's angle is pi/2, where sn^2 reads exactly 1 and log1p(-sn^2)
    # has no value: each query swaps the memory copy in.
    gen = make_identity_map(3).generator
    rho, sigma = random_density(3, 5), random_pure(3, 6).density()
    got = repeated_queries(gen, rho, sigma, -m * np.pi / 2, m)
    assert np.max(np.abs(got - rho.matrix)) <= 8 * EPS


@pytest.mark.parametrize("m", [1, 3, 4096])
def test_swap_batch_is_its_matrices_one_by_one(m):
    gen = make_scaled_identity_map(0.8, 3).generator
    memory = random_density(3, 1)
    states = [random_pure(3, 30 + k).density().matrix for k in range(5)]
    got = repeated_queries(gen, memory, np.stack(states, axis=-1), 0.6, m)
    assert got.shape == (3, 3, 5)
    for k, working in enumerate(states):
        assert np.array_equal(got[..., k], repeated_queries(gen, memory, working, 0.6, m)), k


def query_block(mapping, rho, sigma, m):
    """A call's ``m`` queries, of total duration ``-1`` on ``mapping``, as a
    recursion step runs them (``queried_memory_call``, which realizes an osd
    block on the A factor), validated as a ``DensityMatrix``.  On the map
    scaled by ``-S`` they are ``m`` queries of total duration ``S`` on the
    unscaled map."""
    return DensityMatrix(queried_memory_call(MemoryCallSpec(map=mapping), rho, sigma, m)).matrix


COUNTS = [1, 2, 3, 16, 64]


@pytest.mark.parametrize(
    "build, counts",
    [
        # d_out = 2 and 3 square from m = 1, so every m there runs by squaring.
        (lambda seed, c: make_commutator_map(random_hermitian(2, 30 + seed), 0.8 * c),
         COUNTS + [1024]),
        (lambda seed, c: make_commutator_map(random_hermitian(3, 30 + seed), 0.8 * c), COUNTS),
        # The benchmark's sizes: a diagonal commutator at d = 12 loops its
        # transfer matrix (dbi hybrid), osd [2, 6] passes 36 columns of its
        # off-diagonal blocks' Hermitian and anti-Hermitian parts (osd qdp),
        # and a pair commutator reads its memory off two factors (qite qdp).
        (lambda seed, c: make_commutator_map(np.diag(np.arange(12.0) / 11), 0.8 * c), COUNTS),
        (lambda seed, c: make_osd_map(np.diag([0.0, 1.0]), 0.7 * c, (2, 2)), COUNTS),
        (lambda seed, c: make_osd_map(np.diag([0.0, 1.0]), 0.7 * c, (2, 3)), COUNTS),
        (lambda seed, c: make_osd_map(np.diag([0.0, 0.5, 1.5]), 0.7 * c, (3, 2)), COUNTS),
        (lambda seed, c: make_osd_map(np.diag([0.0, 1.0]), 0.7 * c, (2, 6)), [1, 2, 3, 16, 32]),
        (lambda seed, c: make_pair_commutator_map(2, 0.9 * c), COUNTS + [1024]),
        (lambda seed, c: make_pair_commutator_map(3, 0.9 * c), COUNTS),
    ],
    ids=["commutator-2", "commutator-3", "commutator-12", "osd-2x2", "osd-2x3", "osd-3x2",
         "osd-2x6", "pair-commutator-2", "pair-commutator-3"],
)
@pytest.mark.parametrize("total", [0.6, -1.3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_blocks_match_the_dense_query(build, counts, seed, total):
    mapping = build(seed, -total)
    gen = mapping.generator
    rho = random_density(gen.d_in, seed)
    sigma = random_pure(gen.d_out, 100 + seed).density()
    for m in counts:
        got = query_block(mapping, rho, sigma, m)
        dense = sigma
        for _ in range(m):
            dense = memory_usage_query(gen, rho, dense, -1.0 / m)
        err = np.max(np.abs(got - dense.matrix))
        assert err <= (8 + m) * EPS, (m, err / EPS)


# Closed-form query unitaries ------------------------------------------------
#
# Each map structure's ``unitary`` against ``herm_exp`` of the map's
# ``Nhat`` built from its action, at the workloads' sizes and per-query
# durations, and both against the same closed form in ``np.longdouble``.  Over
# seeds 0-11 the closed forms were at most 11.5 eps from ``herm_exp`` (dense
# commutator, d = 4) and at most 2.5 eps from the long-double form, against
# 6.0 eps for ``herm_exp``.

DURATIONS = [1 / 64, -1 / 256, 0.05]
CLOSED_FORM_BUDGET = 32 * EPS


def ld_commutator(mu, s, t):
    mu = np.asarray(mu, LD)
    d = len(mu)
    theta = -LD(t) * LD(s) * (mu[:, None] - mu[None, :])
    w = np.zeros((d,) * 4, dtype=np.clongdouble)
    a, b = np.indices((d, d))
    w[b, a, a, b] = np.sin(theta)
    w[a, b, a, b] = np.cos(theta)
    return w.reshape(d * d, d * d)


def ld_osd(mu, s, d_b, t):
    d_a = len(mu)
    w = np.zeros((d_a, d_b, d_a, d_b) * 2, dtype=np.clongdouble)
    for b, c in np.ndindex(d_b, d_b):
        w[:, b, :, c, :, b, :, c] = ld_commutator(mu, s, t).reshape((d_a,) * 4)
    return w.reshape((d_a * d_b) ** 2, (d_a * d_b) ** 2)


def ld_pair_commutator(d, s, t):
    theta, pi = -np.sqrt(LD(3)) * LD(s) * LD(t), np.arccos(LD(-1))
    c0, c1, c2 = ((1 + 2 * np.cos(theta - 2 * pi * j / 3)) / 3 for j in range(3))
    x, y, z = np.indices((d, d, d))
    w = np.zeros((d,) * 6, dtype=np.clongdouble)
    w[x, y, z, x, y, z] += c0
    w[y, z, x, x, y, z] += c1
    w[z, x, y, x, y, z] += c2
    return w.reshape(d**3, d**3)


def ld_swap(alpha, d, t):
    swap = np.eye(d * d, dtype=LD).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return np.cos(LD(alpha) * LD(t)) * np.eye(d * d, dtype=LD) + 1j * np.sin(LD(alpha) * LD(t)) * swap


def check_closed_form(m, ld_unitary=None):
    """``m.structure.make_unitary(t)`` within the budget of ``herm_exp(Nhat, t)``, and
    no farther than it from ``ld_unitary(t)`` where long double is wider."""
    n_hat = QueryGenerator.from_map(m).n_hat
    for t in DURATIONS:
        closed, dense = m.structure.make_unitary(t), herm_exp(n_hat, t)
        assert np.max(np.abs(closed - dense)) <= CLOSED_FORM_BUDGET, t
        if ld_unitary is not None and np.finfo(LD).eps < EPS:
            exact = ld_unitary(t)
            dist = [np.max(np.abs(u.astype(np.clongdouble) - exact)) for u in (closed, dense)]
            assert dist[0] <= dist[1], (t, [float(x) / EPS for x in dist])


def seeded(seed):
    rng = np.random.default_rng(seed)
    return rng, float(rng.uniform(0.2, 1.5))


@pytest.mark.parametrize("dim", [12, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_commutator_closed_form(dim, seed):
    rng, s = seeded(seed)
    mu = np.sort(rng.standard_normal(dim))
    check_closed_form(make_commutator_map(np.diag(mu), s), lambda t: ld_commutator(mu, s, t))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_commutator_closed_form_dense_operator(seed):
    _, s = seeded(seed)
    check_closed_form(make_commutator_map(random_hermitian(4, seed), s))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_osd_closed_form(seed):
    rng, s = seeded(seed)
    mu = np.array([0.0, rng.uniform(0.5, 2.0)])
    check_closed_form(make_osd_map(np.diag(mu), s, (2, 6)), lambda t: ld_osd(mu, s, 6, t))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_commutator_closed_form(seed):
    _, s = seeded(seed)
    check_closed_form(make_pair_commutator_map(8, s), lambda t: ld_pair_commutator(8, s, t))


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_swap_closed_form(dim, seed):
    _, alpha = seeded(seed)
    check_closed_form(make_scaled_identity_map(alpha, dim), lambda t: ld_swap(alpha, dim, t))


# Closed-form norms ----------------------------------------------------------
#
# Each structure's ``||Nhat||`` (``generator.norm``, which ``query_error_bound``
# reads) against ``op_norm`` of the ``Nhat`` built from the map's action,
# within 8 eps of the norm.  Measured: swap and osd equal bit for bit; the
# diagonal commutator equal except where ``op_norm`` reads 1 ulp low (d = 19
# at s = 0.3, d = 21 at s = 0.5 and 1.0, with the CLI's evenly spaced
# spectrum); at most 3.0 eps for a non-diagonal commutator and 3.6 eps for
# the pair commutator.


def check_norm(m):
    closed, dense = m.generator.norm, op_norm(QueryGenerator.from_map(m).n_hat)
    assert abs(closed - dense) <= 8 * EPS * closed, (closed, dense)


@pytest.mark.parametrize("alpha", [0.0, -1.0, 0.7, 123.4])
@pytest.mark.parametrize("dim", range(1, 7))
def test_swap_norm(dim, alpha):
    check_norm(make_scaled_identity_map(alpha, dim))


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("dim", range(1, 25))
def test_diagonal_commutator_norm(dim, s):
    check_norm(make_commutator_map(np.diag(np.arange(dim, dtype=float) / max(dim - 1, 1)), s))


@pytest.mark.parametrize("dim", range(1, 7))
def test_commutator_norm_dense_operator(dim):
    check_norm(make_commutator_map(random_hermitian(dim, 40 + dim), 0.6))


@pytest.mark.parametrize("s", [0.0, 0.9, -1.3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_commutator_norm(dim, s):
    check_norm(make_pair_commutator_map(dim, s))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 6)])
def test_osd_norm(dims):
    check_norm(make_osd_map(np.diag(np.linspace(0.0, 1.5, dims[0])), 0.7, dims))


# Extended-precision block -------------------------------------------------
#
# ``m`` queries of duration ``S/m`` evaluated in ``np.clongdouble`` from the
# long-double closed forms above: each query conjugates ``rho (x) sigma`` by the
# unitary and traces out the memory, as ``memory_usage_query`` does.  Unlike
# the dense query, this oracle shares no float64 unitary with the block, so it
# judges the whole path, unitary included.  Over seeds 0-9 and m up to 256 the
# validated block read at most 0.853 of the ``(8 + m) eps`` budget (osd (3, 2);
# 0.857 with the block on the whole register) and 0.77 for the pair
# commutator (0.84 with the Gram product).


def ld_block(w, rho, sigma, m):
    """``m`` queries of unitary ``w`` on ``sigma``, each with memory ``rho``."""
    d_in, d_out = rho.shape[0], sigma.shape[0]
    rho, out, w_dag = rho.astype(np.clongdouble), sigma.astype(np.clongdouble), w.conj().T
    for _ in range(m):
        joint = w @ np.kron(rho, out) @ w_dag
        out = np.trace(joint.reshape(d_in, d_out, d_in, d_out), axis1=0, axis2=2)
    return out


# Each case builds a seeded map of scale ``c`` times a random one, with its
# long-double query unitary at duration ``t``.


def swap_case(dim):
    def build(seed, c):
        alpha = c * seeded(seed)[1]
        return make_scaled_identity_map(alpha, dim), lambda t: ld_swap(alpha, dim, t)
    return build


def commutator_case(seed, c):
    rng, s = seeded(seed)
    mu, s = np.sort(rng.standard_normal(4)), c * s
    return make_commutator_map(np.diag(mu), s), lambda t: ld_commutator(mu, s, t)


def osd_case(d_a, d_b):
    def build(seed, c):
        rng, s = seeded(seed)
        mu, s = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 2.0, d_a - 1))]), c * s
        return make_osd_map(np.diag(mu), s, (d_a, d_b)), lambda t: ld_osd(mu, s, d_b, t)
    return build


def pair_commutator_case(seed, c):
    s = c * seeded(seed)[1]
    return make_pair_commutator_map(2, s), lambda t: ld_pair_commutator(2, s, t)


@pytest.mark.skipif(np.finfo(LD).eps >= EPS, reason="long double is no wider than double")
@pytest.mark.parametrize(
    "build",
    [swap_case(2), swap_case(4), commutator_case, osd_case(2, 2), osd_case(2, 3),
     osd_case(3, 2), pair_commutator_case],
    ids=["swap-2", "swap-4", "diagonal-commutator-4", "osd-2x2", "osd-2x3", "osd-3x2",
         "pair-commutator-2"],
)
@pytest.mark.parametrize("total", [0.6, -1.3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_blocks_match_the_long_double_block(build, seed, total):
    mapping, ld_unitary = build(seed, -total)
    gen = mapping.generator
    rho = random_density(gen.d_in, seed)
    sigma = random_pure(gen.d_out, 100 + seed).density()
    for m in [1, 3, 16, 64]:
        got = query_block(mapping, rho, sigma, m)
        exact = ld_block(ld_unitary(-1.0 / m), rho.matrix, sigma.matrix, m)
        err = float(np.max(np.abs(got - exact)))
        assert err <= (8 + m) * EPS, (m, err / EPS)


@pytest.mark.skipif(np.finfo(LD).eps >= EPS, reason="long double is no wider than double")
@pytest.mark.parametrize(
    "build",
    [commutator_case, osd_case(2, 2), osd_case(2, 3), osd_case(3, 2), pair_commutator_case],
    ids=["diagonal-commutator-4", "osd-2x2", "osd-2x3", "osd-3x2", "pair-commutator-2"],
)
@pytest.mark.parametrize("total", [0.6, -1.3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_blocks_match_the_unit_trace_long_double_block(build, seed, total):
    # The validated block against the long-double block read at unit trace,
    # as a validated state reads it.  The raw long-double block's trace is
    # tr(rho)^m, m times the memory's own few-eps trace defect, which the
    # (8 + m) eps budget above absorbs.  Over seeds 0-9 (0-49 for m <= 16) the
    # worst was 1.3 eps at m = 1 and 1.4 eps at m = 64; holding R
    # itself, as complex or real matrices, a block was 10-34 eps off at m = 64.
    mapping, ld_unitary = build(seed, -total)
    gen = mapping.generator
    rho = random_density(gen.d_in, seed)
    sigma = random_pure(gen.d_out, 100 + seed).density()
    for m in [1, 3, 16, 64]:
        got = query_block(mapping, rho, sigma, m)
        exact = ld_block(ld_unitary(-1.0 / m), rho.matrix, sigma.matrix, m)
        err = float(np.max(np.abs(got - exact / np.trace(exact).real)))
        assert err <= 8 * EPS, (m, err / EPS)


@pytest.mark.parametrize(
    "build",
    [commutator_case, osd_case(2, 2), osd_case(3, 2), pair_commutator_case],
    ids=["diagonal-commutator-4", "osd-2x2", "osd-3x2", "pair-commutator-2"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_blocks_keep_the_trace_at_any_m(build, seed):
    # The raw block, not validated: R - 1 annihilates the trace up to its own
    # roundoff, so the trace stays the input's to within 1 eps (measured over
    # seeds 0-4) up to m = 2^30.
    for total in (0.6, -1.3):
        mapping, _ = build(seed, -total)
        call = MemoryCallSpec(map=mapping)
        rho = random_density(mapping.d_in, seed)
        sigma = random_pure(mapping.d_out, 100 + seed).density()
        for m in [1, 2**10, 2**16, 2**20, 2**26, 2**30]:
            out = queried_memory_call(call, rho, sigma, m)
            assert abs(np.trace(out).real - 1.0) <= 8 * EPS, (m, total)


@pytest.mark.skipif(np.finfo(LD).eps >= EPS, reason="long double is no wider than double")
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_block_on_two_factors_matches_the_long_double_block(dim, seed):
    # A qite call's memory is state (x) chi, the instruction matrix of the
    # state and its extra instruction, read by the block like any memory.
    s = 0.9 * seeded(seed)[1]
    rho, chi = random_density(dim, seed), random_density(dim, 50 + seed)
    sigma = random_pure(dim, 100 + seed).density()
    call = MemoryCallSpec(map=make_pair_commutator_map(dim, s), extra_instruction=chi)
    memory = np.kron(rho.matrix, chi.matrix)
    for m in [1, 3, 16, 64]:
        got = DensityMatrix(queried_memory_call(call, rho, sigma, m)).matrix
        exact = ld_block(ld_pair_commutator(dim, s, -1.0 / m), memory, sigma.matrix, m)
        err = float(np.max(np.abs(got - exact)))
        assert err <= (8 + m) * EPS, (m, err / EPS)


@pytest.mark.skipif(np.finfo(LD).eps >= EPS, reason="long double is no wider than double")
@pytest.mark.parametrize("angle", [2.2, -2.9, 4.0])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("seed", range(6))
def test_swap_blocks_with_negative_cosine_match_the_long_double_block(dim, seed, angle):
    # Each query's angle alpha S / m has cos < 0, where the phase of
    # mu = c^2 + i c s dp is not atan2(s dp, c).
    for m in [1, 3]:
        alpha = angle * m
        mapping = make_scaled_identity_map(alpha, dim)
        rho = random_density(dim, seed)
        sigma = random_pure(dim, 100 + seed).density()
        got = query_block(mapping, rho, sigma, m)
        exact = ld_block(ld_swap(alpha, dim, -1.0 / m), rho.matrix, sigma.matrix, m)
        err = float(np.max(np.abs(got - exact)))
        assert err <= (8 + m) * EPS, (m, err / EPS)


# Extended-precision unfolded call -----------------------------------------
#
# ``unfolded_memory_call`` applies the group commutator
# ``e_b e_a e_b^dag e_a^dag``, ``e_x = exp(-i r x)``, ``a = rho``, ``b = -D``,
# ``r = sqrt(flow / n)``, raised to the ``n``-th power.  The oracle forms the
# two exponentials from 40-term Taylor series, the product and its power
# (by squaring) all in ``np.clongdouble``, so it shares no float64 operator
# with the call.  Flow 0.3, d = 4 and 8, seeds 0-4, the dbi instruction
# ``D = diag(0, ..., d-1)`` and a dense random Hermitian ``D``: the worst
# output entry read 18.1 n eps (dense D at n = 256; 14.2 n eps at n = 1000),
# and 11.6 n eps for the diagonal D (n = 2), against the budget of 24 n eps.

UNFOLD_BUDGET = 24


def ld_exp(x, r, terms=40):
    """``exp(-i r x)`` in ``np.clongdouble`` from its Taylor series."""
    a = -1j * LD(r) * x.astype(np.clongdouble)
    out = term = np.eye(x.shape[0], dtype=np.clongdouble)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def ld_power(g, n):
    """``g^n`` by squaring, in ``g``'s precision."""
    out = np.eye(g.shape[0], dtype=g.dtype)
    while n:
        if n & 1:
            out = out @ g
        n >>= 1
        if n:
            g = g @ g
    return out


@pytest.mark.skipif(np.finfo(LD).eps >= EPS, reason="long double is no wider than double")
@pytest.mark.parametrize("instruction", [lambda d, seed: np.diag(np.arange(d, dtype=float)),
                                         random_hermitian], ids=["diagonal", "dense"])
@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize("seed", range(5))
def test_unfolded_calls_match_the_long_double_power(instruction, dim, seed):
    mapping = make_commutator_map(instruction(dim, seed), 0.3)
    call = MemoryCallSpec(map=mapping)
    rho, sigma = random_density(dim, seed), random_pure(dim, 100 + seed).density()
    for n in [1, 2, 3, 16, 64, 256, 1000]:
        r = np.sqrt(LD(0.3) / n)
        ea, eb = ld_exp(rho.matrix, r), ld_exp(-mapping.structure.d, r)
        u = ld_power(eb @ ea @ eb.conj().T @ ea.conj().T, n)
        exact = u @ sigma.matrix.astype(np.clongdouble) @ u.conj().T
        err = float(np.max(np.abs(unfolded_memory_call(call, rho, sigma, n) - exact)))
        assert err <= UNFOLD_BUDGET * n * EPS, (n, err / (n * EPS))


# Extended-precision exact trajectory ---------------------------------------
#
# The exact steps of a spec run in ``np.clongdouble`` on density matrices from
# its root's projector: each memory-call's unitary is ``ld_expm`` of the map's
# generator, formed from the structure's parameters (no float64 action or
# exponential), and each static is the spec's own unitary.  Each point of a
# run reads its trace distance to the reference point, its worst over the
# run.  A pure run (vector path, ``PureState`` root) is held against the same
# spec run from the root's ``DensityMatrix`` (dense path).  Over seeds 0-3 the
# worst point read, in eps:
#
# * qite (Heisenberg 2 and 3 qubits, random d = 5 and 16; 30 steps): vector
#   0.81-1.46, dense 2.89-12.89;
# * grover (d, L) = (4, 1), (8, 2), (16, 3) over the 5, 4 and 3 steps the
#   cascade allows: vector 1.22-8.86, dense 2.14-12.98;
# * osd [2, 4] and [4, 4] (30 steps): vector 2.69-21.91, dense 2.89-16.00.
#
# qite and grover runs never read worse as vectors.  osd runs are at parity:
# both paths apply one ``herm_exp``-made ``d_A x d_A`` unitary per step, whose
# error dominates both (the dense call is that unitary's conjugation of the
# projector of the vector it maps), so which path reads worse after 30 steps
# of accumulated roundoff is the seed's: the vector path read 0.56-1.40 of
# the dense path's worst.  Both paths stay within ``8 n eps`` over n steps.

TRAJECTORY_BUDGET = 8


def ld_expm(x, r):
    """``exp(-i r x)`` in ``np.clongdouble``: ``ld_exp`` of ``x`` scaled by
    ``2^-k`` to a norm of at most 1/2, squared ``k`` times."""
    norm = float(abs(LD(r)) * np.max(np.sum(np.abs(x.astype(np.clongdouble)), axis=1)))
    k = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    return ld_power(ld_exp(x, LD(r) / LD(2) ** k), 2**k)


def ld_call(call, rho):
    """The memory-call's unitary ``exp(i N(rho))`` for the long-double
    instruction ``rho``, from the map's structure, which holds its scale."""
    st = call.map.structure
    if isinstance(st, Swap):  # N(rho) = -alpha rho
        return ld_expm(rho, st.alpha)
    if isinstance(st, PairCommutator):  # N(rho (x) chi) = -i s [rho, chi]
        chi = call.extra_instruction.matrix.astype(np.clongdouble)
        return ld_expm(-1j * LD(st.s) * (rho @ chi - chi @ rho), -1)
    assert isinstance(st, Lift)  # inner(Tr_B rho) (x) 1_B, inner = -i s [D, .]
    inner, d_b = st.inner.structure, st.d_b
    d = inner.d.astype(np.clongdouble)
    d_a = d.shape[0]
    reduced = np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)
    u = ld_expm(-1j * LD(inner.s) * (d @ reduced - reduced @ d), -1)
    return np.kron(u, np.eye(d_b, dtype=np.clongdouble))


def ld_step(step, rho):
    """One exact step on the long-double density matrix ``rho``."""
    def conjugate(u, x):
        return u @ x @ u.conj().T

    work = rho
    for u, call in zip(step.static_unitaries, step.memory_calls):
        work = conjugate(ld_call(call, rho), conjugate(u.astype(np.clongdouble), work))
    return conjugate(step.static_unitaries[-1].astype(np.clongdouble), work)


def ld_state(state):
    """A point's state as a long-double density matrix."""
    if isinstance(state, PureState):
        v = state.amplitudes.astype(np.clongdouble)
        return np.outer(v, v.conj())
    return state.matrix.astype(np.clongdouble)


def worst_trajectory_distance(spec, n_steps, refs):
    """The largest trace distance, in eps, of a point of ``run_exact(spec)``
    to its reference point: the long-double difference, rounded to double
    (its entries are a few eps), hermitized and diagonalized."""
    worst = 0.0
    for pt, ref in zip(run_exact(spec, n_steps).points, refs):
        diff = (ld_state(pt.state) - ref).astype(complex)
        worst = max(worst, float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)))) / 2)
    return worst / EPS


def qite_case(hamiltonian):
    def build(seed):
        h = hamiltonian(seed)
        return qite_recursion_spec(QITEConfig(h, random_pure(h.shape[0], seed)))
    return build


def osd_trajectory_case(d_a, d_b):
    return lambda seed: osd_recursion_spec(OSDConfig(
        (d_a, d_b), np.diag(np.arange(d_a, dtype=float)), random_pure(d_a * d_b, seed)))


def grover_case(dim, alternations, n_steps):
    return lambda seed: grover_recursion_spec(
        grover_config_from_distance(0.6, alternations, n_steps, dim=dim, seed=seed))


# name: (spec builder from a seed, steps, whether the vector path must read
# no worse than the dense path)
TRAJECTORIES = {
    "qite-heisenberg-2": (qite_case(lambda seed: heisenberg_chain(2, 0.5)), 30, True),
    "qite-heisenberg-3": (qite_case(lambda seed: heisenberg_chain(3, 0.5)), 30, True),
    "qite-random-5": (qite_case(lambda seed: random_hermitian(5, seed)), 30, True),
    "qite-random-16": (qite_case(lambda seed: random_hermitian(16, seed)), 30, True),
    "osd-2x4": (osd_trajectory_case(2, 4), 30, False),
    "osd-4x4": (osd_trajectory_case(4, 4), 30, False),
    "grover-4-L1": (grover_case(4, 1, 5), 5, True),
    "grover-8-L2": (grover_case(8, 2, 4), 4, True),
    "grover-16-L3": (grover_case(16, 3, 3), 3, True),
}


@pytest.mark.skipif(np.finfo(LD).eps >= EPS, reason="long double is no wider than double")
@pytest.mark.parametrize("case", list(TRAJECTORIES))
@pytest.mark.parametrize("seed", range(4))
def test_exact_trajectories_match_the_long_double_steps(case, seed):
    build, n_steps, no_worse = TRAJECTORIES[case]
    spec = build(seed)
    assert isinstance(spec.root, PureState)
    refs = [ld_state(spec.root)]
    for n in range(n_steps):
        refs.append(ld_step(spec.resolve_step(n), refs[-1]))
    vector = worst_trajectory_distance(spec, n_steps, refs)
    dense = worst_trajectory_distance(dataclasses.replace(spec, root=spec.root.density()),
                                      n_steps, refs)
    assert max(vector, dense) <= TRAJECTORY_BUDGET * n_steps, (vector, dense)
    if no_worse:
        assert vector <= dense, (vector, dense)


def test_long_swap_block_keeps_the_trace(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"schema_version": 1, "scenario": "channel-error", "seed": 9, "params": '
        '{"dim": 4, "map": "dme", "s": 0.6, "m_values": [1048576], "n_samples": 2}}'
    )
    code = main(["run", str(path)])
    capsys.readouterr()
    assert code == 0


def test_long_grover_query_run_keeps_the_trace(tmp_path, capsys):
    # 2^22 swap queries per call: a squared block drifted past TRACE_ATOL here.
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"schema_version": 1, "scenario": "grover", "seed": 7, '
        '"strategy": {"kind": "qdp", "m": 4194304}, '
        '"params": {"L": 1, "dim": 4, "n_steps": 2, "delta0": 0.6}}'
    )
    code = main(["run", str(path)])
    capsys.readouterr()
    assert code == 0
