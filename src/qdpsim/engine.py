"""Executes state-instructed recursions under four strategies.

A recursion step interleaves static unitaries with memory-calls,

    V_L  e^{i N_L(rho)}  V_{L-1} ... V_1  e^{i N_1(rho)}  V_0 ,

instructed by the state the step acts on.  Strategies differ in how the
memory-calls are realized:

* exact       - the instructed unitary is applied directly (ideal reference).
* unfolding   - covariant calls are algebraically exact, so the states equal
                the exact ones and only the cost ledger differs; commutator
                maps are approximated by repeated group commutators.
* qdp         - each call becomes a block of memory-usage queries consuming
                copies of the current state, trading depth for width.
* hybrid      - unfolding for the first stretch, queries afterwards.

One step loop (``run_strategy``) runs them all.  Each strategy descriptor is
its own step rule: its ``advance`` realizes a step's calls and charges their
cost (hybrid advances as unfolding or as queries, by step index).

Cost accounting uses one depth unit per elementary query, per non-identity
static unitary and per purification round.  The width recorded at a
trajectory point is the number of root-state copies needed to produce that
state: 1 for exact/unfolding, (m+1)^k after k query-based steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union, get_args

import numpy as np

from . import imr as imr_mod
from .channels import (
    MemoryCallSpec,
    exact_memory_call,
    group_commutator,
    repeated_queries,
)
from .errors import DimensionError, InvariantError, UnsupportedSpecError
from .imr import IMRConfig
from .linalg import DensityMatrix, trace_distance

UNITARY_ATOL = 1e-9


@dataclass(frozen=True)
class CostLedger:
    depth: int = 0
    width: int = 1
    imr_copies: int = 0
    success_probability: float = 1.0

    def __post_init__(self):
        if self.depth < 0 or self.width < 0 or self.imr_copies < 0:
            raise InvariantError("ledger entries must be non-negative")
        if not 0.0 < self.success_probability <= 1.0:
            raise InvariantError("success probability must be in (0, 1]")


@dataclass(frozen=True)
class TrajectoryPoint:
    state: DensityMatrix
    distance_to_target: Optional[float]
    mixedness: float
    ledger: CostLedger


@dataclass(frozen=True)
class TrajectoryRecord:
    points: tuple[TrajectoryPoint, ...]

    @property
    def states(self) -> list[DensityMatrix]:
        return [p.state for p in self.points]

    @property
    def distances(self) -> list[Optional[float]]:
        return [p.distance_to_target for p in self.points]

    @property
    def final_state(self) -> DensityMatrix:
        return self.points[-1].state

    @property
    def final_ledger(self) -> CostLedger:
        return self.points[-1].ledger

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RecursionStepSpec:
    """Interleaving of L+1 static unitaries with L memory-calls."""

    static_unitaries: tuple[np.ndarray, ...]
    memory_calls: tuple[MemoryCallSpec, ...]

    def __post_init__(self):
        statics = tuple(np.asarray(u, dtype=complex) for u in self.static_unitaries)
        if len(statics) != len(self.memory_calls) + 1:
            raise InvariantError(
                f"need {len(self.memory_calls) + 1} static unitaries for "
                f"{len(self.memory_calls)} memory-calls, got {len(statics)}"
            )
        for u in statics:
            if u.shape[0] != u.shape[1]:
                raise DimensionError("static unitaries must be square")
            dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
            if dev > UNITARY_ATOL:
                raise InvariantError(f"static operator is not unitary ({dev:.3e})")
        object.__setattr__(self, "static_unitaries", statics)

    @property
    def n_calls(self) -> int:
        return len(self.memory_calls)

    def nontrivial_static_count(self) -> int:
        count = 0
        for u in self.static_unitaries:
            if np.max(np.abs(u - np.eye(u.shape[0]))) > 1e-12:
                count += 1
        return count


StepProvider = Union[RecursionStepSpec, Callable[[int], RecursionStepSpec]]


@dataclass(frozen=True)
class RecursionSpec:
    """A recursion: step description, root state, optional known fixed point.

    ``step`` is either a fixed step spec or a callable mapping the step index
    (0-based) to one, for recursions whose angles follow a schedule.
    ``covariant`` declares that memory-calls commute through the recursion
    unitary, which makes the unfolding strategy exact.
    """

    step: StepProvider
    root: DensityMatrix
    target: Optional[DensityMatrix] = None
    covariant: bool = False

    def resolve_step(self, n: int) -> RecursionStepSpec:
        if callable(self.step):
            return self.step(n)
        return self.step


def _point(state, target, ledger) -> TrajectoryPoint:
    dist = trace_distance(state.matrix, target.matrix) if target is not None else None
    return TrajectoryPoint(
        state=state,
        distance_to_target=dist,
        mixedness=imr_mod.mixedness(state),
        ledger=ledger,
    )


def _conjugate(u: np.ndarray, state: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(u @ state.matrix @ u.conj().T, state.factor_dims)


def _interleave(step: RecursionStepSpec, working: DensityMatrix, realize) -> DensityMatrix:
    """Conjugate by the static unitaries; ``realize(idx, call, working)``
    applies memory-call ``idx`` between them."""
    for idx, call in enumerate(step.memory_calls):
        working = realize(idx, call, _conjugate(step.static_unitaries[idx], working))
    return _conjugate(step.static_unitaries[-1], working)


def apply_step_exact(
    step: RecursionStepSpec, instruction: DensityMatrix, working: DensityMatrix
) -> DensityMatrix:
    """One exact recursion step: calls instructed by ``instruction``."""
    return _interleave(step, working, lambda _, call, w: exact_memory_call(call, instruction, w))


def _split_queries(m: int, n_calls: int) -> list[int]:
    if n_calls == 0:
        return []
    base = m // n_calls
    if base < 1:
        raise InvariantError(
            f"{m} queries cannot cover {n_calls} memory-calls; need m >= {n_calls}"
        )
    counts = [base] * n_calls
    counts[-1] += m - base * n_calls
    return counts


def _apply_imr(state, ledger, imr_cfg):
    outcome = imr_mod.imr_subroutine(state, imr_cfg)
    ledger = replace(
        ledger,
        depth=ledger.depth + outcome.rounds_used,
        imr_copies=ledger.imr_copies + outcome.copies_consumed,
        success_probability=ledger.success_probability * outcome.success_probability,
    )
    return outcome.state, ledger


def unfolding_cost(n_calls: int, n_steps: int) -> tuple[int, int]:
    """Root-call counts for unfolding an ``n_calls``-per-step recursion.

    Returns ``(final_step_calls, total_depth)``: the final step costs
    ``L (2L+1)^(n-1)`` root calls (a call to the state after k steps unfolds
    into ``(2L+1)^k`` root calls), and the total sums that over all steps.
    """
    if n_calls < 1 or n_steps < 1:
        raise InvariantError("unfolding cost needs n_calls >= 1 and n_steps >= 1")
    total = sum(_unfolded_calls(n_calls, k) for k in range(n_steps))
    return _unfolded_calls(n_calls, n_steps - 1), total


def _unfolded_calls(n_calls: int, k: int) -> int:
    """Root calls that step ``k`` (from 0) unfolds into: ``L (2L+1)^k``."""
    return n_calls * (2 * n_calls + 1) ** k


def _gc_call_unitary(call: MemoryCallSpec, state: DensityMatrix, substeps: int):
    if call.map.commutator_form is None or call.extra_instruction is not None:
        raise UnsupportedSpecError(
            "unfolding a non-covariant recursion needs commutator-form memory-calls"
        )
    d_op, s_map = call.map.commutator_form
    # e^{i t N(rho)} with N = -i s [d, .] equals e^{t s [d, rho]}.
    flow = call.duration * s_map
    if not flow > 0:
        raise UnsupportedSpecError("group-commutator unfolding needs positive flow")
    sub = flow / substeps
    gc = group_commutator(state.matrix, -d_op, sub)
    u = np.eye(state.dim, dtype=complex)
    for _ in range(substeps):
        u = gc @ u
    return u


# Strategy descriptors ------------------------------------------------------
#
# Each descriptor is the step rule of its strategy:
# ``advance(spec, step, n, state, ledger)`` realizes the memory-calls of step
# ``n`` (spec ``step``) on ``state``, charges their cost and returns
# ``(state, ledger)``.


@dataclass(frozen=True)
class ExactStrategy:
    """Every call is the exact unitary instructed by the step's input state."""

    def advance(self, spec, step, n, state, ledger):
        state = apply_step_exact(step, state, state)
        depth = ledger.depth + step.n_calls + step.nontrivial_static_count()
        return state, replace(ledger, depth=depth)


@dataclass(frozen=True)
class UnfoldingStrategy:
    """Covariant steps are exact; otherwise each call becomes ``gc_substeps``
    group commutators instructed by the step's input state.  Step ``n``
    charges the root calls its ``eff_calls`` calls unfold into."""

    gc_substeps: int = 1

    def __post_init__(self):
        if self.gc_substeps < 1:
            raise InvariantError("gc_substeps must be >= 1")

    def advance(self, spec, step, n, state, ledger):
        def realize(idx, call, working):
            return _conjugate(_gc_call_unitary(call, state, self.gc_substeps), working)

        if spec.covariant:
            out = apply_step_exact(step, state, state)
            eff_calls = step.n_calls
        else:
            out = _interleave(step, state, realize)
            eff_calls = 2 * self.gc_substeps * step.n_calls
        return out, replace(ledger, depth=ledger.depth + _unfolded_calls(eff_calls, n))


@dataclass(frozen=True)
class QDPStrategy:
    """Each call becomes a block of queries on copies of the step's input
    state, of total duration minus the call's (the query sign convention)."""

    m: int
    imr: Optional[IMRConfig] = None

    def __post_init__(self):
        if self.m < 1:
            raise InvariantError("query count m must be >= 1")

    def advance(self, spec, step, n, state, ledger):
        counts = _split_queries(self.m, step.n_calls)

        def realize(idx, call, working):
            memory = DensityMatrix(call.instruction_matrix(state), factor_dims=(call.map.d_in,))
            return repeated_queries(
                call.map.generator, memory, working, -call.duration, counts[idx]
            )

        out = _interleave(step, state, realize)
        ledger = replace(
            ledger,
            depth=ledger.depth + self.m + step.nontrivial_static_count(),
            width=ledger.width * (self.m + 1),
        )
        if self.imr is not None:
            out, ledger = _apply_imr(out, ledger, self.imr)
        return out, ledger


@dataclass(frozen=True)
class HybridStrategy:
    """Unfolding for steps ``n < n1``, queries for the ``n2`` steps after."""

    n1: int
    n2: int
    m: int
    imr: Optional[IMRConfig] = None

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise InvariantError("hybrid phase lengths must be >= 0")
        if self.m < 1:
            raise InvariantError("query count m must be >= 1")

    def advance(self, spec, step, n, state, ledger):
        rule = UnfoldingStrategy() if n < self.n1 else QDPStrategy(self.m, self.imr)
        return rule.advance(spec, step, n, state, ledger)


StrategyConfig = Union[ExactStrategy, UnfoldingStrategy, QDPStrategy, HybridStrategy]


# ---------------------------------------------------------------------------


def run_strategy(
    spec: RecursionSpec, n_steps: int, strategy: StrategyConfig
) -> TrajectoryRecord:
    """The recursion loop of every strategy: step ``n`` is advanced by
    ``strategy.advance``."""
    if not isinstance(strategy, get_args(StrategyConfig)):
        raise UnsupportedSpecError(f"unknown strategy {strategy!r}")
    if isinstance(strategy, HybridStrategy) and strategy.n1 + strategy.n2 != n_steps:
        raise InvariantError(
            f"hybrid phases {strategy.n1}+{strategy.n2} != n_steps {n_steps}"
        )
    if n_steps < 0:
        raise InvariantError("n_steps must be >= 0")
    state = spec.root
    ledger = CostLedger()
    points = [_point(state, spec.target, ledger)]
    for n in range(n_steps):
        state, ledger = strategy.advance(spec, spec.resolve_step(n), n, state, ledger)
        points.append(_point(state, spec.target, ledger))
    return TrajectoryRecord(points=tuple(points))


def run_exact(spec: RecursionSpec, n_steps: int) -> TrajectoryRecord:
    """Ideal execution: every memory-call instructed by the current state."""
    return run_strategy(spec, n_steps, ExactStrategy())


def run_qdp(
    spec: RecursionSpec,
    n_steps: int,
    m: int,
    imr: Optional[IMRConfig] = None,
) -> TrajectoryRecord:
    """Query-based execution: each step consumes ``m`` copies of its own
    input state as instructions, split evenly over the step's memory-calls
    (remainder to the last call).

    A memory-call of duration s is approximated by queries of total duration
    -s, matching the query channel's sign convention.
    """
    return run_strategy(spec, n_steps, QDPStrategy(m, imr))


def run_unfolding(
    spec: RecursionSpec, n_steps: int, gc_substeps: int = 1
) -> TrajectoryRecord:
    """Memoryless execution.

    Covariant recursions unfold exactly, so the states coincide with the
    exact run and only the ledger reflects the exponential root-call count.
    Otherwise every memory-call must be a commutator map; each is approximated
    by ``gc_substeps`` group commutators, with per-step error
    O(flow^1.5 / sqrt(gc_substeps)) and the call count per step inflated to
    ``2 * gc_substeps * L``.
    """
    return run_strategy(spec, n_steps, UnfoldingStrategy(gc_substeps))


def run_hybrid(
    spec: RecursionSpec,
    n1: int,
    n2: int,
    m: int,
    imr: Optional[IMRConfig] = None,
) -> TrajectoryRecord:
    """Unfold the first ``n1`` steps, then run ``n2`` query-based steps
    seeded at the unfolded state.  Depth adds exactly; width is the query
    phase's copy count (the unfolding pipelines supply those copies)."""
    return run_strategy(spec, n1 + n2, HybridStrategy(n1, n2, m, imr))


def local_accuracy_check(
    sigma_next: DensityMatrix, step: RecursionStepSpec, sigma_curr: DensityMatrix
) -> float:
    """Per-step error: distance from ``sigma_next`` to the exact step applied
    to (and instructed by) ``sigma_curr``."""
    ideal = apply_step_exact(step, sigma_curr, sigma_curr)
    return trace_distance(sigma_next.matrix, ideal.matrix)
