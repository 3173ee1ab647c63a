"""Executes state-instructed recursions under four strategies.

A recursion step interleaves static unitaries with memory-calls,

    V_L  e^{i N_L(rho)}  V_{L-1} ... V_1  e^{i N_1(rho)}  V_0 ,

instructed by the state the step acts on.  Strategies differ in which
``channels`` realization of the memory-calls they pick:

* exact       - the instructed unitary (``exact_memory_call``; ideal reference).
* unfolding   - covariant calls are algebraically exact, so the states equal
                the exact ones and only the cost ledger differs; other calls
                are repeated group commutators (``unfolded_memory_call``).
* qdp         - each call is a block of memory-usage queries consuming copies
                of the current state, trading depth for width
                (``queried_memory_call``).
* hybrid      - unfolding for the first stretch, queries afterwards.

One step executor (``run_strategy``) runs them all.  For each step it asks
the strategy for the step's rule (``rule(n)``: the descriptor itself, or a
hybrid's unfolding or query phase by step index), has the rule ``realize``
the step's calls between the static unitaries, charges the step from the
strategy's closed form and, if the rule carries an ``imr``, purifies the
output and charges that.  The engine reads no map and applies no sign
convention.

A state is validated once per step, at the step's boundary: ``_interleave``
carries the working state through the step's static unitaries and calls as a
plain matrix, skips identity statics (the flags ``nontrivial_static_count``
charges), checks and renormalizes the trace after each call, and wraps the
step's output in one ``DensityMatrix``.

The step loop keeps each step's state and ledger and does nothing else.  The
per-point diagnostics, which no later step depends on, run after it: the
distances to the spec's target by one stacked ``trace_distance`` per chunk
of states (``stacked_chunks``, bounded in bytes), and the mixedness per point
from the spectrum each state keeps.

Each descriptor's ``ledger`` is its cost in closed form, and ``run_strategy``
charges a step with that form's growth.  One depth unit is charged per
elementary query, per non-identity static unitary of an exact or query-based
step, per root call of an unfolded step (which charges no static) and, on
top of the form, per purification round run.  The width recorded at a
trajectory point is the number of root-state copies needed to produce that
state: 1 for exact/unfolding, (m+1)^k after k query-based steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union, get_args

import numpy as np

from . import imr as imr_mod
from .channels import (
    MemoryCallSpec,
    exact_memory_call,
    queried_memory_call,
    repeated_queries,  # noqa: F401  not called here; perfbench's tracer test reads it
    unfolded_memory_call,
)
from .errors import DimensionError, InfeasibleConfigError, InvariantError, UnsupportedSpecError
from .imr import IMRConfig
from .linalg import DensityMatrix, _as_matrix, trace_distance, unit_trace

UNITARY_ATOL = 1e-9


@dataclass(frozen=True)
class CostLedger:
    depth: int = 0
    width: int = 1
    imr_copies: int = 0
    success_probability: float = 1.0

    @property
    def circuit_size(self) -> int:
        return self.depth * self.width

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
        statics = tuple(_as_matrix(u) for u in self.static_unitaries)
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
        # One flag per static: applied by ``_interleave`` and charged by the
        # ledger exactly when the static is more than 1e-12 off the identity.
        nontrivial = tuple(bool(np.max(np.abs(u - np.eye(u.shape[0]))) > 1e-12) for u in statics)
        object.__setattr__(self, "nontrivial_statics", nontrivial)

    @property
    def n_calls(self) -> int:
        return len(self.memory_calls)

    def nontrivial_static_count(self) -> int:
        return sum(self.nontrivial_statics)


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


# Stacked matrices per diagnostics chunk, in bytes: bounded in bytes, not in
# states, so a chunk holds 64 states at d = 8 and one from d = 64 on, and a
# large state never stacks a large chunk.
_CHUNK_BYTES = 64 * 1024


def chunk_length(dim: int) -> int:
    """States per diagnostics chunk at dimension ``dim``: as many ``dim x dim``
    complex matrices as fit in ``_CHUNK_BYTES``, and at least one."""
    return max(1, _CHUNK_BYTES // (16 * dim * dim))


def stacked_chunks(matrices):
    """``(start, stack)`` for consecutive chunks of the equally sized square
    ``matrices``, ``stack`` holding ``chunk_length`` of them from ``start`` on
    (fewer in the last chunk) as one ``(k, d, d)`` array."""
    if not len(matrices):
        return
    step = chunk_length(len(matrices[0]))
    for start in range(0, len(matrices), step):
        yield start, np.stack(matrices[start:start + step])


def _static(step: RecursionStepSpec, idx: int, mat: np.ndarray) -> np.ndarray:
    """``mat`` conjugated by static unitary ``idx``, unless its flag in
    ``step.nontrivial_statics`` marks it as the identity."""
    if not step.nontrivial_statics[idx]:
        return mat
    u = step.static_unitaries[idx]
    return u @ mat @ u.conj().T


def _interleave(step, state, realize, per_call=None) -> DensityMatrix:
    """Conjugate ``state``'s matrix by the static unitaries, applying
    memory-call ``idx`` between them as ``realize(call, state, matrix)``, with
    ``per_call[idx]`` as a fourth argument when given, and validate the result
    once, as the step's output state.

    Each call's output is trace-checked and renormalized (``unit_trace``), so
    a query block's trace drift is held to ``TRACE_ATOL`` per call, not summed
    over the step's calls."""
    mat = state.matrix
    for idx, call in enumerate(step.memory_calls):
        extra = () if per_call is None else (per_call[idx],)
        mat = unit_trace(realize(call, state, _static(step, idx, mat), *extra))
    return DensityMatrix(_static(step, step.n_calls, mat))


def apply_step_exact(step: RecursionStepSpec, state: DensityMatrix) -> DensityMatrix:
    """One exact recursion step on ``state``, its calls instructed by ``state``."""
    return _interleave(step, state, exact_memory_call)


def _split_queries(m: int, n_calls: int) -> list[int]:
    if n_calls == 0:
        return []
    base = m // n_calls
    if base < 1:
        raise InvariantError(f"{m} queries cannot cover {n_calls} memory-calls; "
                             f"need m >= {n_calls}")
    counts = [base] * n_calls
    counts[-1] += m - base * n_calls
    return counts


def _charge(form, spec, step, n, ledger):
    """``ledger`` plus the growth of ``form``'s closed form from ``n`` to
    ``n + 1`` steps, read as plain pairs: one ledger is built per step."""
    calls, statics = step.n_calls, step.nontrivial_static_count()
    d0, w0 = form.depth_width(calls, statics, n, spec.covariant)
    d1, w1 = form.depth_width(calls, statics, n + 1, spec.covariant)
    return CostLedger(ledger.depth + d1 - d0, ledger.width * (w1 // w0),
                      ledger.imr_copies, ledger.success_probability)


def _purify(state, ledger, imr_cfg, n):
    """Purify query step ``n``'s output if ``imr_cfg`` is given, and charge it."""
    if imr_cfg is None:
        return state, ledger
    outcome = imr_mod.imr_subroutine(state, imr_cfg)
    p_success = ledger.success_probability * outcome.success_probability
    if p_success == 0.0:  # each factor is at least 1 - failure_threshold > 0
        raise InfeasibleConfigError(f"the run's success probability underflows a float at step "
                                    f"{n + 1}: lower imr.failure_threshold or run fewer steps")
    ledger = replace(
        ledger,
        depth=ledger.depth + outcome.rounds_used,
        imr_copies=ledger.imr_copies + outcome.copies_consumed,
        success_probability=p_success,
    )
    return outcome.state, ledger


# Strategy descriptors ------------------------------------------------------
#
# ``depth_width(calls, statics, n_steps, covariant)``: the depth and width of
# ``n_steps`` steps of ``calls`` memory-calls and ``statics`` non-identity
# statics, the descriptor's one closed form; ``ledger`` returns it as a
# ``CostLedger``.  ``rule(n)`` is the descriptor that realizes step ``n``, and
# ``realize(spec, step, state)`` is that step's output before purification.


class _ClosedForm:
    imr = None  # a rule that purifies its step's output carries its IMRConfig

    def ledger(self, calls, statics, n_steps, covariant=False) -> CostLedger:
        """``depth_width`` as a ledger without purification."""
        depth, width = self.depth_width(calls, statics, n_steps, covariant)
        return CostLedger(depth=depth, width=width)

    def rule(self, n):
        return self


@dataclass(frozen=True)
class ExactStrategy(_ClosedForm):
    """Every call is the exact unitary instructed by the step's input state."""

    def depth_width(self, calls, statics, n_steps, covariant=False):
        return n_steps * (calls + statics), 1

    def realize(self, spec, step, state):
        return apply_step_exact(step, state)


@dataclass(frozen=True)
class UnfoldingStrategy(_ClosedForm):
    """Covariant steps are exact; otherwise each call is ``gc_substeps`` group
    commutators instructed by the step's input state (``unfolded_memory_call``)."""

    gc_substeps: int = 1

    def __post_init__(self):
        if self.gc_substeps < 1:
            raise InvariantError("gc_substeps must be >= 1")

    def depth_width(self, calls, statics, n_steps, covariant=False):
        """Root calls: step k's c calls (2 gc_substeps each unless covariant)
        unfold into ``c (2c+1)^k``, ``((2c+1)^n - 1) / 2`` over n steps."""
        c = calls if covariant else 2 * self.gc_substeps * calls
        return ((2 * c + 1) ** n_steps - 1) // 2, 1

    def realize(self, spec, step, state):
        if spec.covariant:
            return apply_step_exact(step, state)
        return _interleave(step, state, unfolded_memory_call, [self.gc_substeps] * step.n_calls)


@dataclass(frozen=True)
class QDPStrategy(_ClosedForm):
    """Each call is a block of queries on copies of the step's input state
    (``queried_memory_call``); the step's ``m`` queries are split over its calls."""

    m: int
    imr: Optional[IMRConfig] = None

    def __post_init__(self):
        if self.m < 1:
            raise InvariantError("query count m must be >= 1")

    def depth_width(self, calls, statics, n_steps, covariant=False):
        """A step with calls costs its ``m`` queries and ``m`` memory copies;
        a call-free step costs its statics only."""
        m = self.m if calls else 0
        return n_steps * (m + statics), (m + 1) ** n_steps

    def realize(self, spec, step, state):
        return _interleave(step, state, queried_memory_call, _split_queries(self.m, step.n_calls))


@dataclass(frozen=True)
class HybridStrategy(_ClosedForm):
    """Unfolding for steps ``n < n1``, queries for the ``n2`` steps after:
    its two ``phases``, built once, are the rules of those steps."""

    n1: int
    n2: int
    m: int
    imr: Optional[IMRConfig] = None
    phases: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise InvariantError("hybrid phase lengths must be >= 0")
        object.__setattr__(self, "phases", (UnfoldingStrategy(), QDPStrategy(self.m, self.imr)))

    def depth_width(self, calls, statics, n_steps, covariant=False):
        unfolded = min(n_steps, self.n1)
        head, _ = self.phases[0].depth_width(calls, statics, unfolded, covariant)
        tail, width = self.phases[1].depth_width(calls, statics, n_steps - unfolded, covariant)
        return head + tail, width

    def rule(self, n):
        return self.phases[n >= self.n1]


StrategyConfig = Union[ExactStrategy, UnfoldingStrategy, QDPStrategy, HybridStrategy]


def unfolding_cost(n_calls: int, n_steps: int) -> tuple[int, int]:
    """``(final_step_calls, total_depth)`` of unfolding an ``n_calls``-per-step
    covariant recursion, read off ``UnfoldingStrategy.depth_width``: the final step
    costs ``L (2L+1)^(n-1)`` root calls, the total sums all steps'."""
    if n_calls < 1 or n_steps < 1:
        raise InvariantError("unfolding cost needs n_calls >= 1 and n_steps >= 1")
    before, after = (UnfoldingStrategy().depth_width(n_calls, 0, n, covariant=True)[0]
                     for n in (n_steps - 1, n_steps))
    return after - before, after


# ---------------------------------------------------------------------------


def run_strategy(spec: RecursionSpec, n_steps: int, strategy: StrategyConfig) -> TrajectoryRecord:
    """The step executor of every strategy: step ``n`` is realized by
    ``strategy.rule(n)``, charged from ``strategy``'s closed form and, if the
    rule carries an ``imr``, purified.  The loop keeps each state and ledger
    and does nothing else; the per-point diagnostics run after it, on states
    no later step depends on: the distances to ``spec.target`` by one stacked
    ``trace_distance`` per chunk (``stacked_chunks``), the mixedness per point
    from the spectrum each state keeps."""
    if not isinstance(strategy, get_args(StrategyConfig)):
        raise UnsupportedSpecError(f"unknown strategy {strategy!r}")
    if isinstance(strategy, HybridStrategy) and strategy.n1 + strategy.n2 != n_steps:
        raise InvariantError(
            f"hybrid phases {strategy.n1}+{strategy.n2} != n_steps {n_steps}"
        )
    if n_steps < 0:
        raise InvariantError("n_steps must be >= 0")
    states, ledgers = [spec.root], [CostLedger()]
    for n in range(n_steps):
        step, rule = spec.resolve_step(n), strategy.rule(n)
        state = rule.realize(spec, step, states[-1])
        state, ledger = _purify(state, _charge(strategy, spec, step, n, ledgers[-1]), rule.imr, n)
        states.append(state)
        ledgers.append(ledger)
    distances = [None] * len(states)
    if spec.target is not None:
        distances = [float(x) for _, stack in stacked_chunks([s.matrix for s in states])
                     for x in trace_distance(stack, spec.target.matrix)]
    return TrajectoryRecord(points=tuple(
        TrajectoryPoint(state, dist, imr_mod.mixedness(state), ledger)
        for state, dist, ledger in zip(states, distances, ledgers)))


def run_exact(spec: RecursionSpec, n_steps: int) -> TrajectoryRecord:
    """Ideal execution: every memory-call instructed by the current state."""
    return run_strategy(spec, n_steps, ExactStrategy())


def run_qdp(spec: RecursionSpec, n_steps: int, m: int,
            imr: Optional[IMRConfig] = None) -> TrajectoryRecord:
    """Query-based execution: each step consumes ``m`` copies of its own
    input state as instructions, split evenly over the step's memory-calls
    (remainder to the last call).
    """
    return run_strategy(spec, n_steps, QDPStrategy(m, imr))


def run_unfolding(spec: RecursionSpec, n_steps: int, gc_substeps: int = 1) -> TrajectoryRecord:
    """Memoryless execution.

    Covariant recursions unfold exactly, so the states coincide with the
    exact run and only the ledger reflects the exponential root-call count.
    Otherwise every memory-call must be a commutator map, realized by
    ``gc_substeps`` group commutators, and the call count per step is
    inflated to ``2 * gc_substeps * L``.
    """
    return run_strategy(spec, n_steps, UnfoldingStrategy(gc_substeps))


def run_hybrid(spec: RecursionSpec, n1: int, n2: int, m: int,
               imr: Optional[IMRConfig] = None) -> TrajectoryRecord:
    """Unfold the first ``n1`` steps, then run ``n2`` query-based steps
    seeded at the unfolded state.  Depth adds exactly; width is the query
    phase's copy count (the unfolding pipelines supply those copies)."""
    return run_strategy(spec, n1 + n2, HybridStrategy(n1, n2, m, imr))


def local_accuracy_check(sigma_next: DensityMatrix, step: RecursionStepSpec,
                         sigma_curr: DensityMatrix) -> float:
    """Per-step error: distance from ``sigma_next`` to the exact step applied
    to (and instructed by) ``sigma_curr``."""
    ideal = apply_step_exact(step, sigma_curr)
    return trace_distance(sigma_next.matrix, ideal.matrix)
