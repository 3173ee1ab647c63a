"""Convergence orders of the two approximate realizations, one step each.

Group-commutator unfolding errs by O(flow^1.5 / sqrt(substeps)), so doubling
the substeps divides a step's error by sqrt(2).  A block of m queries errs by
O(1/m) under the ceiling ``4 ||Nhat||^2 s^2 / m`` (``query_error_bound``), so
m times the error levels off.  Seeded, with measured margins: the unfolding
ratios read 1.417-1.475 for g = 1-32, and m err stays within 8% of its
m = 256 value (qite at m = 16) and at most 0.093 of the ceiling (osd).
"""

import numpy as np
import pytest

from qdpsim.algos import (
    DBIConfig,
    OSDConfig,
    QITEConfig,
    dbi_recursion_spec,
    heisenberg_chain,
    osd_recursion_spec,
    qite_recursion_spec,
)
from qdpsim.channels import query_error_bound
from qdpsim.engine import local_accuracy_check, run_qdp, run_unfolding
from qdpsim.linalg import PureState, random_density, random_pure

SUBSTEPS = [2**k for k in range(6)]  # 1 .. 32
QUERY_COUNTS = [16 * 2**k for k in range(5)]  # 16 .. 256


def dbi_spec(seed):
    return dbi_recursion_spec(
        DBIConfig(diagonal=np.diag(np.arange(4.0)), initial=random_density(4, seed).matrix * 4)
    )


def osd_spec():
    psi = PureState(random_pure(6, 6).amplitudes, (2, 3))
    return osd_recursion_spec(OSDConfig(dims=(2, 3), diagonal=np.diag([0.0, 1.0]), initial=psi))


def qite_spec():
    return qite_recursion_spec(
        QITEConfig(hamiltonian=heisenberg_chain(2, 0.5), initial=random_pure(4, 5))
    )


def step_error(spec, record):
    """Distance of the run's first step from the exact step on the root."""
    return local_accuracy_check(record.points[1].state, spec.resolve_step(0), spec.root)


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_unfolding_error_falls_as_inverse_sqrt_substeps(seed):
    spec = dbi_spec(seed)
    errs = [step_error(spec, run_unfolding(spec, 1, g)) for g in SUBSTEPS]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(1.35 <= r <= 1.55 for r in ratios), ratios


@pytest.mark.parametrize("make_spec", [lambda: dbi_spec(4), osd_spec, qite_spec],
                         ids=["dbi", "osd", "qite"])
def test_query_error_falls_as_inverse_m_under_its_ceiling(make_spec):
    spec = make_spec()
    gen = spec.resolve_step(0).memory_calls[0].map.generator
    errs = {m: step_error(spec, run_qdp(spec, 1, m)) for m in QUERY_COUNTS}
    level = QUERY_COUNTS[-1] * errs[QUERY_COUNTS[-1]]
    for m, err in errs.items():
        assert abs(m * err / level - 1.0) <= 0.15, (m, m * err / level)
        assert err < query_error_bound(gen, 1.0, m)[0]
