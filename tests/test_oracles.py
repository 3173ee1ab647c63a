"""Query paths and unfolded calls checked against answers computed without them.

Swap closed form: with memory ``rho = V diag(p) V^dag``, ``m`` identity-map
(swap) queries of duration ``t = S/m`` act in rho's eigenbasis as

* ``x_ij -> (c^2 - i s c (p_i - p_j))^m x_ij`` off the diagonal,
* ``x_ii -> c^(2m) x_ii + p_i (1 - c^(2m))`` on it,

with ``c, s = cos t, sin t``.  ``repeated_queries`` builds one query to a few
eps and then applies it ``m`` times, by ``m`` matvecs or, past the crossover
``2 log2(m) d^2 < m``, by repeated squaring; either way its distance to the
closed form is budgeted as ``(8 + m) eps`` (largest entry), once validated as
a ``DensityMatrix``, as a recursion step validates its output: the raw block
reads up to 1.11 m eps (2.19 with ``herm_exp``), since the trace normalization
removes its drift.  ``M_VALUES`` squares from m = 49 at d = 2 and from
m = 289 at d = 4.  With the query unitary in closed form and the
superoperator built by the pair scatter, a survey over seeds 0-4 measured at
most 6.0 eps for m < 16, at most 0.531 m eps for 16 <= m <= 2^16 and
0.404 m eps at m = 2^16 (0.500 and 0.384 m eps with the Gram product, 0.713
and 0.536 m eps when the unitary came from ``herm_exp``).

The blocks stop at m = 2^16.  One query's superoperator misses trace
preservation by a few eps, and a block of ``m`` queries amplifies that
defect to about ``m`` times it, by matvecs and by squaring alike, so for
large enough m the trace passes ``TRACE_ATOL`` (1e-10) and the output
``DensityMatrix`` is rejected.  Of the survey's 20 inputs, worst drift
1.99e5 eps at m = 2^18, where none fails, and 1.49e6 eps at m = 2^20, where
13 fail.  The channel-error run on d = 4 seed 9 at m = 2^20 is pinned below
as an expected failure.

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

import numpy as np
import pytest

from helpers import random_hermitian
from qdpsim import (
    DensityMatrix,
    MemoryCallSpec,
    QueryGenerator,
    herm_exp,
    make_commutator_map,
    make_identity_map,
    make_osd_map,
    make_pair_commutator_map,
    make_scaled_identity_map,
    memory_usage_query,
    op_norm,
    random_density,
    random_pure,
    repeated_queries,
)
from qdpsim.channels import queried_memory_call, unfolded_memory_call
from qdpsim.cli import main

EPS = np.finfo(float).eps
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


def query_block(mapping, rho, sigma, total, m):
    """``m`` queries of total duration ``total`` as a recursion step runs them
    (``queried_memory_call``, which realizes an osd block on the A factor),
    validated as a ``DensityMatrix``."""
    call = MemoryCallSpec(map=mapping, duration=-total)
    return DensityMatrix(queried_memory_call(call, rho, sigma, m)).matrix


@pytest.mark.parametrize(
    "build, longer",
    [
        # d_out = 2 squares from m = 49, so there 64 and 1024 run by squaring.
        (lambda seed: make_commutator_map(random_hermitian(2, 30 + seed), 0.8), [1024]),
        (lambda seed: make_commutator_map(random_hermitian(3, 30 + seed), 0.8), []),
        (lambda seed: make_osd_map(np.diag([0.0, 1.0]), 0.7, (2, 2)), []),
        (lambda seed: make_osd_map(np.diag([0.0, 1.0]), 0.7, (2, 3)), []),
        (lambda seed: make_osd_map(np.diag([0.0, 0.5, 1.5]), 0.7, (3, 2)), []),
        (lambda seed: make_pair_commutator_map(2, 0.9), [1024]),
    ],
    ids=["commutator-2", "commutator-3", "osd-2x2", "osd-2x3", "osd-3x2", "pair-commutator-2"],
)
@pytest.mark.parametrize("total", [0.6, -1.3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_blocks_match_the_dense_query(build, longer, seed, total):
    mapping = build(seed)
    gen = mapping.generator
    rho = random_density(gen.d_in, seed)
    sigma = random_pure(gen.d_out, 100 + seed).density()
    for m in [1, 2, 3, 16, 64] + longer:
        got = query_block(mapping, rho, sigma, total, m)
        dense = sigma
        for _ in range(m):
            dense = memory_usage_query(gen, rho, dense, total / m)
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

LD = np.longdouble
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


def swap_case(dim):
    def build(seed):
        _, alpha = seeded(seed)
        return make_scaled_identity_map(alpha, dim), lambda t: ld_swap(alpha, dim, t)
    return build


def commutator_case(seed):
    rng, s = seeded(seed)
    mu = np.sort(rng.standard_normal(4))
    return make_commutator_map(np.diag(mu), s), lambda t: ld_commutator(mu, s, t)


def osd_case(d_a, d_b):
    def build(seed):
        rng, s = seeded(seed)
        mu = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 2.0, d_a - 1))])
        return make_osd_map(np.diag(mu), s, (d_a, d_b)), lambda t: ld_osd(mu, s, d_b, t)
    return build


def pair_commutator_case(seed):
    _, s = seeded(seed)
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
    mapping, ld_unitary = build(seed)
    gen = mapping.generator
    rho = random_density(gen.d_in, seed)
    sigma = random_pure(gen.d_out, 100 + seed).density()
    for m in [1, 3, 16, 64]:
        got = query_block(mapping, rho, sigma, total, m)
        exact = ld_block(ld_unitary(total / m), rho.matrix, sigma.matrix, m)
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
    mapping = make_commutator_map(instruction(dim, seed), 1.0)
    call = MemoryCallSpec(map=mapping, duration=0.3)
    rho, sigma = random_density(dim, seed), random_pure(dim, 100 + seed).density()
    for n in [1, 2, 3, 16, 64, 256, 1000]:
        r = np.sqrt(LD(0.3) / n)
        ea, eb = ld_exp(rho.matrix, r), ld_exp(-mapping.structure.d, r)
        u = ld_power(eb @ ea @ eb.conj().T @ ea.conj().T, n)
        exact = u @ sigma.matrix.astype(np.clongdouble) @ u.conj().T
        err = float(np.max(np.abs(unfolded_memory_call(call, rho, sigma, n) - exact)))
        assert err <= UNFOLD_BUDGET * n * EPS, (n, err / (n * EPS))


@pytest.mark.xfail(strict=True, reason="a block of m queries amplifies one query's trace "
                   "defect m-fold, past TRACE_ATOL at m = 2^20, so a valid config exits 4")
def test_long_swap_block_keeps_the_trace(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"schema_version": 1, "scenario": "channel-error", "seed": 9, "params": '
        '{"dim": 4, "map": "dme", "s": 0.6, "m_values": [1048576], "n_samples": 2}}'
    )
    code = main(["run", str(path)])
    capsys.readouterr()
    assert code == 0
