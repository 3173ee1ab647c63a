"""Interferential mixedness reduction.

One round sends ``rho -> (rho + rho^2) / (1 + Tr rho^2)``, the post-selected
branch of a controlled-swap interference between two copies.  Eigenvectors
are untouched; each eigenvalue maps as ``l -> l (1 + l) / (1 + sum_j l_j^2)``,
which strictly raises a unique top eigenvalue.

The multi-round subroutine is simulated on its success branch only.  All the
probabilistic content (survival rate per round, copy overhead, overall
success probability) is carried analytically in the returned outcome rather
than sampled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConfigError, InvariantError
from .linalg import DensityMatrix

MIXEDNESS_PRECONDITION = 1.0 / 3.0
# A mixedness at or below this times the dimension is roundoff on a pure
# state: purifying it is not needed, and the per-round bounds no longer
# describe it.  Pure states conjugated 400 times, validated after each, read
# at most 8.0 / 11.5 / 10.5 eps at d = 2 / 16 / 32 (20 chains each).
PURE_MIXEDNESS_PER_DIM = 8 * sys.float_info.epsilon
MAX_ROUNDS = 10_000  # more rounds than this means purification is not contracting


@dataclass(frozen=True)
class IMRConfig:
    """Target for one purification subroutine.

    reduction_factor: required drop in mixedness (final <= initial / factor).
    copies_out: copies of the purified state that must survive.
    failure_threshold: tolerated probability that any round falls short.
    """

    reduction_factor: float
    copies_out: int = 1
    failure_threshold: float = 0.01

    def __post_init__(self):
        if not self.reduction_factor > 1.0:
            raise InvariantError("reduction factor must be > 1")
        if self.copies_out < 1:
            raise InvariantError("copies_out must be >= 1")
        if not 0.0 < self.failure_threshold < 1.0:
            raise InvariantError("failure threshold must be in (0, 1)")


@dataclass(frozen=True)
class IMROutcome:
    state: DensityMatrix
    rounds_used: int
    copies_consumed: int
    success_probability: float


def mixedness(rho: DensityMatrix) -> float:
    """One minus the largest eigenvalue, read off the spectrum ``rho`` keeps."""
    return float(1.0 - np.max(rho.eigenvalues))


def imr_round(rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """One round ``(rho + rho^2) / (1 + Tr rho^2)``, with ``rho^2`` formed once,
    and its success probability ``(1 + Tr rho^2) / 2``."""
    mat = rho.matrix
    sq = mat @ mat
    purity = float(np.real(np.trace(sq)))
    return DensityMatrix((mat + sq) / (1.0 + purity)), (1.0 + purity) / 2.0


def imr_ratio_bound(x: float) -> float:
    """Upper bound on the per-round mixedness ratio: ``(1+x) / (2 - 2x + x^2)``."""
    x = float(x)
    if not 0.0 <= x < 1.0:
        raise InvariantError("mixedness must be in [0, 1)")
    return (1.0 + x) / (2.0 - 2.0 * x + x * x)


def imr_subroutine(rho: DensityMatrix, cfg: IMRConfig) -> IMROutcome:
    """Run rounds until the guaranteed reduction reaches ``reduction_factor``.

    The round count is the smallest R whose product of per-round ratio bounds,
    each evaluated at the mixedness actually reached so far, is at most
    ``1/reduction_factor``; the realized reduction is at least as good.  The
    survival rate c solves ``c = 1 - x0 - sqrt(log(R/q_th) / M)``, clamped to
    1/2 from above; c <= 0 means the requested copy count cannot guarantee the
    failure threshold.  A state whose mixedness reads at most
    ``PURE_MIXEDNESS_PER_DIM * dim`` is pure to roundoff and runs no round.
    A target is infeasible when rounds cannot reach it in double precision
    (the mixedness reads below 0 first) or when its copy count
    ``copies_out (2/c)^R`` overflows a float.
    """
    x0 = mixedness(rho)
    if x0 > MIXEDNESS_PRECONDITION + 1e-12:
        raise InvariantError(
            f"mixedness {x0:.4f} exceeds the subroutine precondition 1/3"
        )
    if x0 <= PURE_MIXEDNESS_PER_DIM * rho.dim:
        return IMROutcome(
            state=rho,
            rounds_used=0,
            copies_consumed=cfg.copies_out,
            success_probability=1.0,
        )

    target = 1.0 / cfg.reduction_factor
    state = rho
    bound_product = 1.0
    rounds = 0
    x = x0
    while bound_product > target:
        if x < 0.0:  # pure to roundoff: no further round is guaranteed to help
            raise InfeasibleConfigError(
                f"reduction_factor {cfg.reduction_factor:g} is out of reach in double "
                f"precision: mixedness reads {x:.3g} after {rounds} rounds"
            )
        bound_product *= imr_ratio_bound(x)
        state, _ = imr_round(state)
        rounds += 1
        x = mixedness(state)
        if rounds > MAX_ROUNDS:
            raise InfeasibleConfigError("purification is not contracting")

    c_raw = 1.0 - x0 - math.sqrt(
        math.log(rounds / cfg.failure_threshold) / cfg.copies_out
    )
    if c_raw <= 0.0:
        raise InfeasibleConfigError(
            f"survival rate {c_raw:.4f} <= 0: increase copies_out above "
            f"{cfg.copies_out} or relax the failure threshold"
        )
    c = min(c_raw, 0.5)
    if math.log(cfg.copies_out) + rounds * math.log(2.0 / c) > math.log(sys.float_info.max):
        raise InfeasibleConfigError(f"reduction_factor {cfg.reduction_factor:g} needs "
                                    f"{rounds} rounds, whose copy count overflows a float")
    copies = math.ceil(cfg.copies_out * (2.0 / c) ** rounds)
    q_succ = 1.0 - rounds * math.exp(-cfg.copies_out * (1.0 - x0 - c) ** 2)
    return IMROutcome(
        state=state,
        rounds_used=rounds,
        copies_consumed=copies,
        success_probability=max(q_succ, 0.0),
    )
