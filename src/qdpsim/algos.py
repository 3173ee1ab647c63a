"""Showcase recursions and their analytic companions.

Three families are provided as ready-made recursion specs plus closed-form
reference quantities:

* nested fixed-point search: alternating partial reflections whose angles
  come from fractional Chebyshev polynomials, with an exact distance cascade
  ``delta -> sech((2L+1) arcsech(delta))``;
* double-bracket iteration ``P -> e^{s[D,P]} P e^{-s[D,P]}``, an isospectral
  flow that diagonalizes P in D's eigenbasis with the spectra co-sorted
  (largest eigenvalue of P settles on the largest diagonal entry of D), and
  its imaginary-time specialization ``D = -H`` for ground-state preparation;
* oblivious Schmidt alignment: the same flow driven by the reduced state of a
  bipartite register, which moves the Schmidt basis onto the computational
  basis without learning the state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .channels import (
    MemoryCallSpec,
    _validated_diagonal,
    make_commutator_map,
    make_osd_map,
    make_pair_commutator_map,
    make_scaled_identity_map,
)
from .engine import RecursionSpec, RecursionStepSpec, TrajectoryRecord, run_qdp
from .errors import DimensionError, InvariantError
from .imr import IMRConfig
from .linalg import (
    DensityMatrix,
    PureState,
    herm_exp,
    hermitize,
    hs_norm,
    partial_trace,
    pure_distance,
    trace_distance,
)


# ---------------------------------------------------------------------------
# The reflection cascade


def _arcsech(x: float) -> float:
    """arcosh(1/x) evaluated without forming 1/x, stable for tiny x."""
    if x == 0.0:
        return float("inf")
    if not 0.0 < x <= 1.0:
        raise InvariantError(f"arcsech needs x in (0, 1], got {x!r}")
    return math.log1p(math.sqrt((1.0 - x) * (1.0 + x))) - math.log(x)


def _sech(y: float) -> float:
    if y == float("inf"):
        return 0.0
    y = abs(float(y))
    e = math.exp(-y)
    return 2.0 * e / (1.0 + e * e)


def partial_reflection(projector: np.ndarray, angle: float) -> np.ndarray:
    """``1 - (1 - e^{-i angle}) P`` for a rank-one projector P."""
    p = np.asarray(projector, dtype=complex)
    return np.eye(p.shape[0], dtype=complex) - (1.0 - np.exp(-1j * float(angle))) * p


def _fold_angle(a: float) -> float:
    """Reduce a reflection angle to (-pi, pi].

    ``exp(-i a P)`` is 2-pi-periodic in ``a`` for a projector P, so folding
    leaves the exact reflector unchanged while minimizing the scale, and so
    the query generator's norm, of the call that implements it.
    """
    folded = math.remainder(float(a), 2.0 * math.pi)
    return math.pi if folded <= -math.pi else folded


def grover_angles(alternations: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Reflection angles for one recursion step with ``alternations`` pairs.

    The inner fractional Chebyshev value is taken at 1/q; with
    ``gamma = 1 / T_{1/(2L+1)}(1/q)`` the angles are
    ``alpha_l = 2 arccot(tan(2 pi l / (2L+1)) sqrt(1 - gamma^2))`` and the
    second family is the reversed negation, ``beta_{L-l+1} = -alpha_l``.
    """
    big_l = int(alternations)
    if big_l < 1:
        raise InvariantError("alternation count must be >= 1")
    if not 0.0 < q < 1.0:
        raise InvariantError(f"q must be in (0, 1), got {q!r}")
    order = 2 * big_l + 1
    gamma_inv = math.cosh(_arcsech(q) / order)  # T_{1/(2L+1)}(1/q) >= 1
    st = math.sqrt(max(1.0 - 1.0 / (gamma_inv * gamma_inv), 0.0))
    ls = np.arange(1, big_l + 1, dtype=float)
    alphas = 2.0 * np.arctan2(1.0, np.tan(2.0 * np.pi * ls / order) * st)
    betas = -alphas[::-1].copy()
    return alphas, betas


def grover_delta_sequence(
    delta0: float, alternations: int, n_steps: int, eps: float = 0.0
) -> list[float]:
    """Distance-to-target sequence of the reflection cascade.

    With ``eps == 0`` this reproduces the closed form
    ``delta_n = sech((2L+1)^n arcosh(1/delta0))``; a positive ``eps`` inflates
    every step by an additive implementation-error allowance.
    """
    if not 0.0 < delta0 < 1.0:
        raise InvariantError(f"delta0 must be in (0, 1), got {delta0!r}")
    if n_steps < 0:
        raise InvariantError("n_steps must be >= 0")
    return list(itertools.islice(grover_delta_cascade(delta0, alternations, eps), n_steps + 1))


def grover_delta_cascade(delta0: float, alternations: int, eps: float = 0.0) -> Iterator[float]:
    """``grover_delta_sequence`` without end, each distance computed when asked for."""
    order, delta = 2 * int(alternations) + 1, float(delta0)
    while True:
        yield delta
        delta = _sech(order * _arcsech(delta)) + float(eps)


@dataclass(frozen=True)
class GroverConfig:
    """Alternating-reflection search toward a known target state."""

    initial: PureState
    target: PureState
    alternations: int
    n_steps: int

    def __post_init__(self):
        if self.alternations < 1:
            raise InvariantError("alternation count must be >= 1")
        if self.n_steps < 0:
            raise InvariantError("n_steps must be >= 0")
        if self.initial.dim != self.target.dim:
            raise DimensionError("initial and target dims differ")
        if abs(self.initial.overlap(self.target)) <= 1e-14:
            raise InvariantError("initial state must overlap the target")

    @property
    def delta0(self) -> float:
        """The initial distance to the target, by the stable ``pure_distance``:
        ``sqrt(1 - |<tau|psi>|^2)`` cancels to 0 below about 1e-8."""
        return pure_distance(self.initial, self.target)


def grover_config_from_distance(
    delta0: float, alternations: int, n_steps: int, dim: int = 2, seed=None
) -> GroverConfig:
    """Build a config with prescribed initial distance.

    Without a seed the target is the first basis state and the initial state
    lives in the first two coordinates; with a seed both the target and the
    orthogonal direction are random (useful to make subspace-invariance
    checks non-trivial).
    """
    if dim < 2:
        raise DimensionError("need dim >= 2")
    if seed is None:
        tau = np.zeros(dim, dtype=complex)
        tau[0] = 1.0
        perp = np.zeros(dim, dtype=complex)
        perp[1] = 1.0
    else:
        rng = np.random.default_rng(seed)
        tau = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        tau /= np.linalg.norm(tau)
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        perp = raw - np.vdot(tau, raw) * tau
        perp /= np.linalg.norm(perp)
    amp = math.sqrt(max(1.0 - delta0 * delta0, 0.0)) * tau + delta0 * perp
    return GroverConfig(
        initial=PureState(amp),
        target=PureState(tau),
        alternations=int(alternations),
        n_steps=int(n_steps),
    )


def grover_step(psi: PureState, cfg: GroverConfig, q: float) -> PureState:
    """One exact recursion step: L alternating partial reflections around the
    step's input state and around the target, rightmost pair first.

    The target family rotates in the opposite phase sense to the state
    family (its reflector takes ``-beta_l``); the exact distance recurrence
    pins this convention, and a unit test enforces it.
    """
    alphas, betas = grover_angles(cfg.alternations, q)
    tau_proj = cfg.target.matrix
    psi_proj = psi.matrix
    v = psi.amplitudes.copy()
    for a, b in zip(alphas, betas):
        v = partial_reflection(tau_proj, -b) @ v
        v = partial_reflection(psi_proj, a) @ v
    return PureState(v)


def grover_recursion_spec(cfg: GroverConfig, eps: float = 0.0) -> RecursionSpec:
    """Engine form of the search: target reflections are static unitaries,
    state reflections are memory-calls with maps ``rho -> -alpha_l rho``.

    The angle parameter follows the distance schedule: step n uses
    ``q = delta_{n+1} - eps`` from the (eps-inflated) cascade.
    """
    dim = cfg.initial.dim
    deltas = grover_delta_sequence(cfg.delta0, cfg.alternations, cfg.n_steps, eps)
    tau_proj = cfg.target.matrix
    eye = np.eye(dim, dtype=complex)

    def step(n: int) -> RecursionStepSpec:
        if not 0 <= n < cfg.n_steps:
            raise InvariantError(f"step index {n} outside schedule of {cfg.n_steps}")
        q = deltas[n + 1] - eps
        alphas, betas = grover_angles(cfg.alternations, q)
        # Target reflectors take -beta: that family rotates in the opposite
        # phase sense, which the exact distance recurrence requires.  Angles
        # are folded to (-pi, pi]; the reflectors are unchanged and the maps
        # of the calls, whose scale the angles are, get the least norm.
        statics = [partial_reflection(tau_proj, -b) for b in betas] + [eye]
        calls = tuple(MemoryCallSpec(map=make_scaled_identity_map(_fold_angle(a), dim))
                      for a in alphas)
        return RecursionStepSpec(static_unitaries=tuple(statics), memory_calls=calls)

    return RecursionSpec(
        step=step, root=cfg.initial, target=cfg.target, covariant=True
    )


def grover_step_counts(alternations: int) -> tuple[int, int]:
    """Calls and non-identity statics per ``grover_recursion_spec`` step (L and L)."""
    return alternations, alternations


def grover_qdp_run(
    cfg: GroverConfig,
    m: int,
    eps: float = 0.0,
    imr: Optional[IMRConfig] = None,
) -> TrajectoryRecord:
    """Query-based search run: state reflections become query blocks (m total
    per step), target reflections stay exact unitaries."""
    if m < 2 * cfg.alternations:
        raise InvariantError(
            f"need m >= {2 * cfg.alternations} queries per step, got {m}"
        )
    spec = grover_recursion_spec(cfg, eps)
    return run_qdp(spec, cfg.n_steps, m, imr=imr)


def relevant_subspace_weight(
    state: DensityMatrix, initial: PureState, target: PureState
) -> float:
    """Probability weight outside span{target, orthogonalized initial}."""
    tau = target.amplitudes
    raw = initial.amplitudes - np.vdot(tau, initial.amplitudes) * tau
    nrm = np.linalg.norm(raw)
    proj = np.outer(tau, tau.conj())
    if nrm > 1e-12:
        perp = raw / nrm
        proj = proj + np.outer(perp, perp.conj())
    leak = np.trace(state.matrix) - np.trace(proj @ state.matrix @ proj)
    return float(max(np.real(leak), 0.0))


def mixed_reflection_identity_check(rho: DensityMatrix, s: float, n_samples: int = 8) -> float:
    """Channel distance between the reflection around a rank<=2 state and the
    phase-shifted reflection around its associated pure state with the angle
    shrunk by (1 - 2x); zero up to roundoff because the two operators are
    equal on the support and off it."""
    w, v = np.linalg.eigh(rho.matrix)
    support = np.where(w > 1e-10)[0]
    if len(support) > 2:
        raise InvariantError(f"state has rank {len(support)} > 2")
    top = support[np.argmax(w[support])]
    psi = v[:, top]
    x = float(1.0 - w[top])
    proj_rel = sum(np.outer(v[:, i], v[:, i].conj()) for i in support)
    lhs = herm_exp(rho.matrix, s)
    rhs = herm_exp(x * proj_rel, s) @ partial_reflection(
        np.outer(psi, psi.conj()), s * (1.0 - 2.0 * x)
    )
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(n_samples):
        vec = rng.standard_normal(rho.dim) + 1j * rng.standard_normal(rho.dim)
        vec /= np.linalg.norm(vec)
        sig = np.outer(vec, vec.conj())
        worst = max(
            worst, trace_distance(lhs @ sig @ lhs.conj().T, rhs @ sig @ rhs.conj().T)
        )
    return worst


# ---------------------------------------------------------------------------
# Double-bracket iteration


def dbi_step(p, d, s: float) -> np.ndarray:
    """``e^{s[d,p]} p e^{-s[d,p]}``: isospectral rotation toward d's eigenbasis."""
    dd, _ = _validated_diagonal(d)
    pp = hermitize(p)
    w = herm_exp(1j * (dd @ pp - pp @ dd), float(s))  # e^{s[d,p]}
    return w @ pp @ w.conj().T


def dbi_canonical_step_size(p0, d) -> float:
    """``1 / (4 ||p0||_2 ||d||_2)``, the step with a guaranteed stable fixed point."""
    np0, nd = hs_norm(p0), hs_norm(d)
    if np0 == 0.0 or nd == 0.0:
        raise InvariantError("canonical step size needs non-zero operators")
    return 1.0 / (4.0 * np0 * nd)


def dbi_cost(p, d) -> float:
    """Squared Hilbert-Schmidt distance to the instruction operator."""
    return hs_norm(hermitize(p) - hermitize(d)) ** 2


def dbi_sorted_fixed_point(p, d) -> np.ndarray:
    """Diagonal matrix the iteration converges to: the spectrum of p placed
    so that eigenvalue rank matches the rank of the diagonal entries of d
    (largest eigenvalue on the largest entry)."""
    _, mu = _validated_diagonal(d)
    eigs = np.sort(np.linalg.eigvalsh(hermitize(p)))  # ascending
    out = np.zeros_like(mu)
    out[np.argsort(mu)] = eigs
    return np.diag(out).astype(complex)


@dataclass(frozen=True)
class DBIConfig:
    """Diagonalization flow on an operator encoded as a full-rank state.

    The instruction diagonal must have strictly increasing entries, which
    fixes the orientation the spectrum sorts into.
    """

    diagonal: np.ndarray
    initial: np.ndarray
    step_size: Optional[float] = None  # None -> canonical

    def __post_init__(self):
        _, mu = _validated_diagonal(self.diagonal)
        if np.any(np.diff(mu) <= 0):
            raise InvariantError("instruction diagonal entries must be strictly increasing")

    def resolved_step(self) -> float:
        if self.step_size is not None:
            return float(self.step_size)
        return dbi_canonical_step_size(self.initial, self.diagonal)


# Shift above -lambda_min that keeps the encoded state full rank, relative to
# the spectral radius (or 1, whichever is larger).
DBI_ENCODE_MARGIN = 0.01


def dbi_encode(p) -> tuple[DensityMatrix, float]:
    """Shift and normalize a Hermitian operator into a full-rank state.

    Returns the encoded state and the normalization ``Tr[P + lam]`` needed to
    rescale the flow's step into the map's scale.
    """
    pp = hermitize(p)
    eigs = np.linalg.eigvalsh(pp)
    lam = float(-eigs.min() + DBI_ENCODE_MARGIN * max(np.max(np.abs(eigs)), 1.0))
    shifted = pp + lam * np.eye(pp.shape[0])
    scale = float(np.real(np.trace(shifted)))
    return DensityMatrix(shifted / scale), scale


def dbi_recursion_spec(cfg: DBIConfig) -> RecursionSpec:
    """Engine form: single commutator memory-call per step on the encoded
    state, whose map's scale is the flow's step rescaled by the encoding
    normalization."""
    root, scale = dbi_encode(cfg.initial)
    s_eff = cfg.resolved_step() * scale
    dd, _ = _validated_diagonal(cfg.diagonal)
    call = MemoryCallSpec(map=make_commutator_map(dd, s_eff))
    eye = np.eye(root.dim, dtype=complex)
    step = RecursionStepSpec(static_unitaries=(eye, eye), memory_calls=(call,))
    target = DensityMatrix(dbi_sorted_fixed_point(root.matrix, cfg.diagonal))
    return RecursionSpec(step=step, root=root, target=target, covariant=False)


def offdiag_hs_norm(m) -> float:
    a = np.asarray(m, dtype=complex)
    return hs_norm(a - np.diag(np.diag(a)))


# ---------------------------------------------------------------------------
# Imaginary-time evolution


def heisenberg_chain(n_qubits: int = 3, field: float = 0.5) -> np.ndarray:
    """Open Heisenberg chain in a longitudinal field:
    ``sum_i (X_i X_{i+1} + Y_i Y_{i+1} + Z_i Z_{i+1}) + field * sum_i Z_i``."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)

    def sites(op, i):
        """``op`` on the sites from ``i`` on, as one Kronecker chain."""
        rest = 2**n_qubits // (2**i * op.shape[0])
        return np.kron(np.kron(np.eye(2**i, dtype=complex), op), np.eye(rest, dtype=complex))

    h = sum(sites(np.kron(op, op), i) for op in (sx, sy, sz) for i in range(n_qubits - 1))
    return h + field * sum(sites(sz, i) for i in range(n_qubits))


@dataclass(frozen=True)
class QITEConfig:
    """Ground-state preparation by energy gradient flow."""

    hamiltonian: np.ndarray
    initial: PureState
    step_size: Optional[float] = None  # None -> canonical

    def resolved_step(self) -> float:
        if self.step_size is not None:
            return float(self.step_size)
        return 1.0 / (4.0 * hs_norm(self.hamiltonian))


def qite_step(psi: PureState, h, s: float) -> PureState:
    """``psi -> e^{s [|psi><psi|, H]} psi``; lowers energy for small s."""
    hh = hermitize(h)
    proj = psi.matrix
    u = herm_exp(1j * (proj @ hh - hh @ proj), float(s))  # e^{s [psi, H]}
    return PureState(u @ psi.amplitudes)


def energy(state, h) -> float:
    """``state``'s expectation of the hermitized ``h``."""
    return state.expectation(hermitize(h))


def ground_state(h) -> tuple[PureState, float]:
    """Lowest eigenpair; rejects a degenerate ground level."""
    hh = hermitize(h)
    w, v = np.linalg.eigh(hh)
    if len(w) > 1 and w[1] - w[0] <= 1e-10:
        raise InvariantError("ground level is degenerate")
    return PureState(v[:, 0]), float(w[0])


def qite_encode_hamiltonian(h) -> tuple[np.ndarray, DensityMatrix, float]:
    """Shift the Hamiltonian to zero ground energy and normalize it into the
    resource state fed to the lifted two-register map.

    Returns (shifted H, resource state, trace of shifted H).
    """
    hh = hermitize(h)
    e0 = float(np.linalg.eigvalsh(hh).min())
    shifted = hh - e0 * np.eye(hh.shape[0])
    tr = float(np.real(np.trace(shifted)))
    if tr <= 1e-12:
        raise InvariantError("Hamiltonian is proportional to the identity")
    return shifted, DensityMatrix(shifted / tr), tr


def qite_recursion_spec(cfg: QITEConfig) -> RecursionSpec:
    """Engine form oblivious to both registers: the memory-call map is the
    degree-two lift of the pair commutator, fed ``state (x) resource``."""
    dim = cfg.initial.dim
    _, chi, tr = qite_encode_hamiltonian(cfg.hamiltonian)
    s_eff = cfg.resolved_step() * tr
    call = MemoryCallSpec(map=make_pair_commutator_map(dim, s_eff), extra_instruction=chi)
    eye = np.eye(dim, dtype=complex)
    step = RecursionStepSpec(static_unitaries=(eye, eye), memory_calls=(call,))
    gs, _ = ground_state(cfg.hamiltonian)
    if abs(cfg.initial.overlap(gs)) <= 1e-12:
        raise InvariantError("initial state has no ground-state overlap")
    return RecursionSpec(step=step, root=cfg.initial, target=gs)


def qite_qdp_run(
    cfg: QITEConfig, n_steps: int, m: int, imr: Optional[IMRConfig] = None
) -> TrajectoryRecord:
    """Query-based imaginary-time evolution on the doubled register.

    The query channel leaks a little purity every step (roughly 0.4
    |Nhat|^2 / m per step, measured); passing a purification config removes
    that drift between steps and is what lets finite query budgets track the
    exact flow.
    """
    return run_qdp(qite_recursion_spec(cfg), n_steps, m, imr=imr)


# ---------------------------------------------------------------------------
# Oblivious Schmidt alignment


@dataclass(frozen=True)
class OSDConfig:
    """Schmidt-basis alignment of a bipartite pure state."""

    dims: tuple[int, int]
    diagonal: np.ndarray
    initial: PureState
    step_size: Optional[float] = None  # None -> canonical
    n_steps: int = 20
    m_queries: int = 32

    def __post_init__(self):
        da, db = self.dims
        if da * db != self.initial.dim:
            raise DimensionError(
                f"dims {self.dims} do not match state dim {self.initial.dim}"
            )
        if self.n_steps < 0 or self.m_queries < 1:
            raise InvariantError("need n_steps >= 0 and m_queries >= 1")

    def resolved_step(self) -> float:
        if self.step_size is not None:
            return float(self.step_size)
        reduced = partial_trace(self.initial.matrix, self.dims, keep=[0])
        return dbi_canonical_step_size(reduced, self.diagonal)


def schmidt_oracle(psi: PureState, dims) -> np.ndarray:
    """Schmidt coefficients by brute force: eigenvalues of the reduced state,
    sorted non-increasing."""
    reduced = partial_trace(psi.matrix, dims, keep=[0])
    return np.sort(np.linalg.eigvalsh(reduced))[::-1]


def schmidt_estimate(state: np.ndarray, dims, diagonal) -> np.ndarray:
    """The Schmidt spectrum estimate of the bipartite density matrix
    ``state``: its reduced diagonal on the first subsystem, in descending
    order of the instruction ``diagonal``'s entries, the order the flow sorts
    the coefficients into.  It is not sorted by value, so a flow that put the
    spectrum on the wrong basis states reads as an error against
    ``schmidt_oracle``."""
    _, mu = _validated_diagonal(diagonal)
    reduced = partial_trace(state, dims, keep=[0])
    return np.real(np.diag(reduced))[np.argsort(mu)[::-1]]


def osd_recursion_spec(cfg: OSDConfig) -> RecursionSpec:
    """Single memory-call recursion rotating only the first subsystem."""
    m = make_osd_map(cfg.diagonal, cfg.resolved_step(), cfg.dims)
    call = MemoryCallSpec(map=m)
    eye = np.eye(cfg.initial.dim, dtype=complex)
    step = RecursionStepSpec(static_unitaries=(eye, eye), memory_calls=(call,))
    return RecursionSpec(step=step, root=cfg.initial, target=None)


def osd_run(cfg: OSDConfig) -> tuple[TrajectoryRecord, np.ndarray]:
    """Run the alignment with memory-usage queries; return the trajectory and
    the ``schmidt_estimate`` of its final state."""
    record = run_qdp(osd_recursion_spec(cfg), cfg.n_steps, cfg.m_queries)
    return record, schmidt_estimate(record.final_state.matrix, cfg.dims, cfg.diagonal)
