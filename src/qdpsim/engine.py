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

One step loop (``run_strategy``) runs them all.  Each strategy descriptor is
its own step rule: its ``advance`` schedules a step's calls between the static
unitaries and charges their cost (hybrid advances as unfolding or as queries,
by step index).  The engine reads no map and applies no sign convention.

Each descriptor's ``ledger`` is its cost in closed form, and ``advance``
charges a step with that form's growth.  One depth unit is charged per
elementary query, per non-identity static unitary of an exact or query-based
step, per root call of an unfolded step (which charges no static) and, on
top of the form, per purification round run.  The width recorded at a
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
    queried_memory_call,
    repeated_queries,  # noqa: F401  not called here; perfbench's tracer test reads it
    unfolded_memory_call,
)
from .errors import DimensionError, InfeasibleConfigError, InvariantError, UnsupportedSpecError
from .imr import IMRConfig
from .linalg import DensityMatrix, trace_distance

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
        nontrivial = sum(np.max(np.abs(u - np.eye(u.shape[0]))) > 1e-12 for u in statics)
        object.__setattr__(self, "_nontrivial_statics", int(nontrivial))

    @property
    def n_calls(self) -> int:
        return len(self.memory_calls)

    def nontrivial_static_count(self) -> int:
        return self._nontrivial_statics


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


def _interleave(step, instruction, working, realize, per_call=None):
    """Conjugate ``working`` by the static unitaries, applying memory-call
    ``idx`` between them as ``realize(call, instruction, working)``, with
    ``per_call[idx]`` as a fourth argument when given."""
    for idx, call in enumerate(step.memory_calls):
        extra = () if per_call is None else (per_call[idx],)
        working = _conjugate(step.static_unitaries[idx], working)
        working = realize(call, instruction, working, *extra)
    return _conjugate(step.static_unitaries[-1], working)


def apply_step_exact(
    step: RecursionStepSpec, instruction: DensityMatrix, working: DensityMatrix
) -> DensityMatrix:
    """One exact recursion step: calls instructed by ``instruction``."""
    return _interleave(step, instruction, working, exact_memory_call)


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
# ``CostLedger``.  ``advance(spec, step, n, state, ledger)`` realizes step
# ``n`` on ``state`` and charges it from the form of ``charge_as`` (default
# self).


class _ClosedForm:
    def ledger(self, calls, statics, n_steps, covariant=False) -> CostLedger:
        """``depth_width`` as a ledger without purification."""
        depth, width = self.depth_width(calls, statics, n_steps, covariant)
        return CostLedger(depth=depth, width=width)


@dataclass(frozen=True)
class ExactStrategy(_ClosedForm):
    """Every call is the exact unitary instructed by the step's input state."""

    def depth_width(self, calls, statics, n_steps, covariant=False):
        return n_steps * (calls + statics), 1

    def advance(self, spec, step, n, state, ledger, charge_as=None):
        return apply_step_exact(step, state, state), _charge(charge_as or self, spec, step, n, ledger)


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

    def advance(self, spec, step, n, state, ledger, charge_as=None):
        if spec.covariant:
            out = apply_step_exact(step, state, state)
        else:
            substeps = [self.gc_substeps] * step.n_calls
            out = _interleave(step, state, state, unfolded_memory_call, substeps)
        return out, _charge(charge_as or self, spec, step, n, ledger)


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
        return n_steps * (self.m + statics), (self.m + 1) ** n_steps

    def advance(self, spec, step, n, state, ledger, charge_as=None):
        counts = _split_queries(self.m, step.n_calls)
        out = _interleave(step, state, state, queried_memory_call, counts)
        return _purify(out, _charge(charge_as or self, spec, step, n, ledger), self.imr, n)


@dataclass(frozen=True)
class HybridStrategy(_ClosedForm):
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

    def depth_width(self, calls, statics, n_steps, covariant=False):
        unfolded = min(n_steps, self.n1)
        head, _ = UnfoldingStrategy().depth_width(calls, statics, unfolded, covariant)
        tail, width = QDPStrategy(self.m).depth_width(calls, statics, n_steps - unfolded, covariant)
        return head + tail, width

    def advance(self, spec, step, n, state, ledger):
        rule = UnfoldingStrategy() if n < self.n1 else QDPStrategy(self.m, self.imr)
        return rule.advance(spec, step, n, state, ledger, charge_as=self)


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
    """
    return run_strategy(spec, n_steps, QDPStrategy(m, imr))


def run_unfolding(
    spec: RecursionSpec, n_steps: int, gc_substeps: int = 1
) -> TrajectoryRecord:
    """Memoryless execution.

    Covariant recursions unfold exactly, so the states coincide with the
    exact run and only the ledger reflects the exponential root-call count.
    Otherwise every memory-call must be a commutator map, realized by
    ``gc_substeps`` group commutators, and the call count per step is
    inflated to ``2 * gc_substeps * L``.
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
