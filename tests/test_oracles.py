"""Query paths checked against answers computed without them.

Swap closed form: with memory ``rho = V diag(p) V^dag``, ``m`` identity-map
(swap) queries of duration ``t = S/m`` act in rho's eigenbasis as

* ``x_ij -> (c^2 - i s c (p_i - p_j))^m x_ij`` off the diagonal,
* ``x_ii -> c^(2m) x_ii + p_i (1 - c^(2m))`` on it,

with ``c, s = cos t, sin t``.  ``repeated_queries`` builds one query to a few
eps and then applies it ``m`` times, by ``m`` matvecs or, past the crossover
``2 log2(m) d^2 < m``, by repeated squaring; either way its distance to the
closed form is budgeted as ``(8 + m) eps`` (largest entry), once validated as
a ``DensityMatrix``, as a recursion step validates its output: the raw block
reads up to 2.19 m eps, since the trace normalization removes its drift.  ``M_VALUES``
squares from m = 49 at d = 2 and from m = 289 at d = 4.  A survey over seeds
0-4 measured at most 5.5 eps for m < 16, and for 16 <= m <= 2^16 at most
0.672 m eps with the loop alone and 0.713 m eps with squaring (both at
m = 288); at m = 2^16, 0.546 m eps with the loop and 0.536 m eps squaring.

The blocks stop at m = 2^16.  One query's superoperator misses trace
preservation by about 2 eps, and a block of ``m`` queries amplifies that
defect to about ``m`` times it, by matvecs and by squaring alike, so at
m = 2^18 the trace passes ``TRACE_ATOL`` (1e-10) for some inputs and the
output ``DensityMatrix`` is rejected.  Of the survey's 20 inputs at m = 2^18,
mean drift 261k eps with the loop and 269k eps with squaring, three fail
there, all at S = 0.6: d = 2 seed 0, d = 4 seed 2 and d = 4 seed 4 (453k eps
against a limit of 450k; 434k eps with the loop).  The channel-error run on
d = 4 seed 2 is pinned below as an expected failure.

Dense query: a block of ``m`` queries of duration ``S/m`` is ``m`` successive
``memory_usage_query`` calls, each handed the same memory copy and each
exponentiating ``Nhat`` and validating its output on its own.  It has no
closed form, but it shares no code with the superoperator, the loop or the
squaring.  The validated block is budgeted ``(8 + m) eps`` against it; over
seeds 0-19 the worst was 1.03 eps at m = 1 and 0.661 m eps at m = 64
(commutator map, d = 2), and 0.436 m eps at m = 1024.
"""

import numpy as np
import pytest

from conftest import random_hermitian
from qdpsim import (
    DensityMatrix,
    make_commutator_map,
    make_identity_map,
    make_osd_map,
    make_pair_commutator_map,
    memory_usage_query,
    random_density,
    random_pure,
    repeated_queries,
)
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


@pytest.mark.parametrize(
    "build, longer",
    [
        # d_out = 2 squares from m = 49, so there 64 and 1024 run by squaring.
        (lambda seed: make_commutator_map(random_hermitian(2, 30 + seed), 0.8), [1024]),
        (lambda seed: make_commutator_map(random_hermitian(3, 30 + seed), 0.8), []),
        (lambda seed: make_osd_map(np.diag([0.0, 1.0]), 0.7, (2, 2)), []),
        (lambda seed: make_pair_commutator_map(2, 0.9), [1024]),
    ],
    ids=["commutator-2", "commutator-3", "osd-2x2", "pair-commutator-2"],
)
@pytest.mark.parametrize("total", [0.6, -1.3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_blocks_match_the_dense_query(build, longer, seed, total):
    gen = build(seed).generator
    rho = random_density(gen.d_in, seed)
    sigma = random_pure(gen.d_out, 100 + seed).density()
    for m in [1, 2, 3, 16, 64] + longer:
        got = DensityMatrix(repeated_queries(gen, rho, sigma, total, m)).matrix
        dense = sigma
        for _ in range(m):
            dense = memory_usage_query(gen, rho, dense, total / m)
        err = np.max(np.abs(got - dense.matrix))
        assert err <= (8 + m) * EPS, (m, err / EPS)


@pytest.mark.xfail(strict=True, reason="a block of m queries amplifies one query's ~2 eps "
                   "trace defect m-fold, past TRACE_ATOL at m = 2^18, so a valid config exits 4")
def test_long_swap_block_keeps_the_trace(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QDPSIM_SEED", raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"schema_version": 1, "scenario": "channel-error", "seed": 2, "params": '
        '{"dim": 4, "map": "dme", "s": 0.6, "m_values": [262144], "n_samples": 2}}'
    )
    code = main(["run", str(path)])
    capsys.readouterr()
    assert code == 0
