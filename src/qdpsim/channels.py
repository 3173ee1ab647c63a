"""State-instructed channels of Hermitian-preserving maps, and the three
realizations of a memory-call ``exp(i N(rho))``: exact
(``exact_memory_call``), memoryless by group commutators
(``unfolded_memory_call``, commutator maps only) and by memory-usage queries on
copies of ``rho`` (``queried_memory_call``).  The engine reads no map.  Each
is one dispatch to the map's structure, or to ``QueryGenerator``'s defaults.

A Hermitian-preserving linear map ``N`` is held as its action ``x -> N(x)``,
which is all an exact memory-call reads.  Its Hermitian *query generator*
``Nhat = sum_jk |k><j| (x) N(|j><k|)`` defines the query unitary
``exp(-i Nhat t)`` and the error bound (``query_error_bound``), and one
``QueryGenerator`` gives both.  The package's maps name their structure
(``Swap``, ``Commutator``, ``PairCommutator``, ``Lift``), a ``QueryGenerator``
that gives both in closed form, so no CLI run builds ``Nhat``.  Only a dense
map (``map_from_function``) has its ``Nhat`` built from the action
(``QueryGenerator.from_map``), symmetrized by ``linalg.hermitize`` (the one
Hermiticity check) and diagonalized by ``linalg.herm_exp``.
Conjugating a memory (x) working pair by ``exp(-i Nhat s)`` and tracing out
the memory register applies the map's exponential to the working state up to
O(s^2).

A memory-call has one scale, and the map holds it (``Swap.alpha``,
``Commutator.s``, ``PairCommutator.s``, a ``Lift``'s inner map, a dense map's
action): the call of ``N`` is ``exp(i N(rho))``, and its duration is 1.  A
query has a duration.

Sign conventions, fixed here once and relied on everywhere else:

* ``exact_memory_call`` with map ``N`` applies the unitary ``exp(+i N(rho))``.
* ``memory_usage_query`` with duration ``s`` applies
  ``Tr_1[exp(-i Nhat s) (rho (x) sigma) exp(+i Nhat s)]``, whose first order
  is ``sigma - i s [N(rho), sigma]`` and whose many-query limit is therefore
  the unitary channel of ``exp(-i s N(rho))``.

The two directions are adjoint, so ``queried_memory_call`` realizes a call by
queries of total duration ``-1``.

A block of ``m`` queries is its generator's (``block``).  A swap block
(density-matrix exponentiation) is in closed form in the memory's
eigenbasis: one ``eigh`` and four ``d x d`` products at any ``m``, and
trace-preserving by construction.  Any other block applies one query's
superoperator (``query_superoperator``) again and again, built from the query
unitary by a scatter over pairs of its nonzeros or, for a dense map's or a
non-diagonal commutator's unitary, by a Gram ``zgemm``.

An osd map is a ``Lift`` of the commutator map on A.  Its exact and queried
calls run on the A factor: a ``d_A x d_A`` unitary, or a ``d_A^2 x d_A^2``
query block applied to the working matrix as a batch of ``d_B^2`` columns.
A qite map's exact call forms ``-i s [rho, chi]`` from its two factors.

The three realizations and ``repeated_queries`` take the working register as
a plain matrix (a ``DensityMatrix`` is read as its matrix) and return a plain
matrix: a recursion step carries its working state through its calls
unvalidated and validates it once, as the step's output (``engine``).  The
instruction or memory they read is a validated state.  An exact call also
takes a state vector as its working register, and returns one: a pure run
(``engine``) carries its state as a vector.  Instructed by a ``PureState``,
the swap, pair-commutator and lifted maps apply their call to the vector in
closed form, with no ``herm_exp`` of a ``d x d`` generator; the lifted map
reads the instruction's ``Tr_B`` from its vector (``reduced``), as it reads
a mixed one's.  The default forms the instruction's projector and
exponentiates the map's action on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, InvariantError, UnsupportedSpecError
from .linalg import (
    DensityMatrix,
    PureState,
    herm_exp,
    hermitize,
    kron,
    op_norm,
    random_pure,
    trace_distance,
    unitary_on,
    _as_square,
)


@dataclass(frozen=True)
class HermitianPreservingMap:
    """Linear Hermitian-preserving map, held as its action ``x -> N(x)``.

    ``structure``, when set, names what the map is, is its query generator
    and realizes its calls: ``Swap``, ``Commutator`` (whose calls unfold),
    ``PairCommutator`` or ``Lift`` (whose calls run on the A factor), each
    giving ``exp(-i Nhat t)`` (memory register first) and ``||Nhat||`` in
    closed form.  A map without one is dense.
    """

    d_in: int
    d_out: int
    action: Callable[[np.ndarray], np.ndarray]
    structure: Optional[Swap | Commutator | PairCommutator | Lift] = None

    @functools.cached_property
    def generator(self) -> "QueryGenerator":
        """The map's query generator: its structure, holding no ``Nhat``, or
        a dense map's ``Nhat`` built from the action (``from_map``)."""
        return QueryGenerator.from_map(self) if self.structure is None else self.structure


def _act(m: HermitianPreservingMap, a: np.ndarray) -> np.ndarray:
    out = np.asarray(m.action(a), dtype=complex)
    if out.shape != (m.d_out, m.d_out):
        raise DimensionError(f"map output shape {out.shape} != ({m.d_out},{m.d_out})")
    return out


def map_from_function(fn: Callable[[np.ndarray], np.ndarray], d_in: int,
                      d_out: int) -> HermitianPreservingMap:
    """The dense map with action ``fn`` from ``d_in x d_in`` to ``d_out x d_out``."""
    return HermitianPreservingMap(d_in=d_in, d_out=d_out, action=fn)


def map_apply(m: HermitianPreservingMap, x) -> np.ndarray:
    """Apply the map to a square operator of its input dimension."""
    a = _as_square(x)
    if a.shape[0] != m.d_in:
        raise DimensionError(f"input dim {a.shape[0]} != map d_in {m.d_in}")
    return _act(m, a)


class QueryGenerator:
    """Hermitian generator ``Nhat`` of memory-usage queries on a ``d_in``
    memory and a ``d_out`` working register, its norm ``||Nhat||`` and its
    query unitary ``exp(-i Nhat t)``.

    This class is the dense generator: it holds ``n_hat``, the generator's
    matrix, hermitized on creation, and exponentiates it by ``herm_exp``.
    The map structures (``Swap``, ``Commutator``, ``PairCommutator``,
    ``Lift``) subclass it, hold no ``n_hat`` and give ``d_in``, ``d_out``,
    ``norm`` and ``make_unitary`` in closed form, and ``Swap`` its ``block``.
    Its realizations of a call are the defaults a structure overrides, and
    are static: a dense map's calls run on the class and build no ``Nhat``
    unless they query.  So are the log2 bytes a call allocates, from log2 d.
    """

    def __init__(self, n_hat, d_in: int, d_out: int):
        n_hat = hermitize(n_hat)
        if n_hat.shape[0] != d_in * d_out:
            raise DimensionError("generator dimension does not match d_in*d_out")
        n_hat.setflags(write=False)
        self.n_hat, self.d_in, self.d_out = n_hat, d_in, d_out

    @classmethod
    def from_map(cls, m: HermitianPreservingMap) -> "QueryGenerator":
        """The dense generator of ``m``: ``Nhat`` built from the action, with
        ``N(|j><k|)`` in block ``[k, :, j, :]``.
        ``hermitize`` rejects a map that is not Hermitian-preserving.
        Hermitizing it again, as ``herm_exp`` does, returns its bits.
        """
        d_in, d_out = m.d_in, m.d_out
        n_hat4 = np.zeros((d_in, d_out, d_in, d_out), dtype=complex)
        unit = np.zeros((d_in, d_in), dtype=complex)
        for j, k in np.ndindex(d_in, d_in):
            unit[j, k] = 1.0
            n_hat4[k, :, j, :] = _act(m, unit)
            unit[j, k] = 0.0
        return cls(n_hat4.reshape(d_in * d_out, d_in * d_out), d_in, d_out)

    norm = functools.cached_property(lambda self: op_norm(self.n_hat))  # ||Nhat||

    def make_unitary(self, t: float) -> np.ndarray:
        """A fresh ``exp(-i Nhat t)``, ``herm_exp`` of ``n_hat``."""
        return herm_exp(self.n_hat, t)

    def unitary(self, s: float) -> np.ndarray:
        """Read-only ``exp(-i Nhat s)`` (``make_unitary``).

        The last duration's unitary is kept, with its pair plan once a
        superoperator build reads it (``_pairs``), in one slot (``_kept``):
        every step of a run queries its generator at one duration, and a
        schedule of varying durations then holds one unitary, not one per step.
        """
        return _kept(self, "_last", s, self.make_unitary)["value"]

    def _pairs(self, s: float):
        """``_pair_plan`` of ``unitary(s)``, made on its first read and kept in
        the unitary's slot, since it depends on the unitary alone."""
        slot = _kept(self, "_last", s, self.make_unitary)
        if "pairs" not in slot:
            slot["pairs"] = _pair_plan(slot["value"], self.d_in, self.d_out)
        return slot["pairs"]

    def block(self, memory: np.ndarray, working: np.ndarray, s: float, m: int) -> np.ndarray:
        """``m`` queries of duration ``s/m`` on a working matrix or a
        ``(d, d, k)`` batch (``repeated_queries``, which checks the arguments).

        The block is ``sup^m`` on the vectorized working state, ``sup`` being
        one query's ``(d^2, d^2)`` superoperator (``d = d_out``), applied to a
        batch as its ``(d^2, k)`` matrix of columns and realized as either

        * ``m`` products ``sup.dot(vec)``: for one working matrix the same BLAS
          ``zgemv`` as ``sup @ vec``, with the same bits, without the matmul
          ufunc dispatch, which costs more than the product itself at small
          ``d``; or
        * binary exponentiation, when ``2 log2(m) d^2 < m k`` (``k = 1`` for one
          working matrix): ``m.bit_length() - 1`` squarings (``d^6`` each against
          a product's ``d^4 k``) plus one product per set bit of ``m``, lowest
          first.  Each square is set to its mean with its mirror, as in
          ``query_superoperator``, so every power preserves Hermiticity exactly.

        With BLAS at one thread the two cost the same near ``m = 2 log2(m) d^2``
        at ``d = 2, 3`` and near half that at ``d = 4 .. 16``.  Both are as close
        to the exact block, and both amplify ``sup``'s own trace defect ``m``-fold,
        which is the trace drift of long blocks.
        """
        d = self.d_out
        sup = query_superoperator(self, memory, s / m)
        vec = working.reshape(d * d, *working.shape[2:])
        if 2 * m.bit_length() * d * d < m * (vec.size // (d * d)):
            while True:
                if m & 1:
                    vec = sup.dot(vec)
                m >>= 1
                if not m:
                    break
                sup = _mirror_mean(sup @ sup, d)
        else:
            for _ in range(m):
                vec = sup.dot(vec)
        return vec.reshape(working.shape)

    @staticmethod
    def exact(call: MemoryCallSpec, instruction, working: np.ndarray):
        """``herm_exp`` of the map's action on the instruction matrix (a pure
        instruction's projector), applied to the working matrix or vector."""
        u = herm_exp(map_apply(call.map, call.instruction_matrix(instruction)), -1.0)
        return unitary_on(u, working)

    @staticmethod
    def queried(call: MemoryCallSpec, instruction: DensityMatrix, working, m: int):
        """``m`` queries on the map's generator, of total duration ``-1``."""
        return repeated_queries(call.map.generator, call.instruction_matrix(instruction),
                                working, -1.0, m)

    @staticmethod
    def unfold(call: MemoryCallSpec, instruction: DensityMatrix, working, substeps: int):
        raise UnsupportedSpecError(
            "unfolding a non-covariant recursion needs commutator-form memory-calls")

    # An exact call's d x d matrices; a query call's d^2 x d^2 query unitary.
    exact_log_bytes = staticmethod(lambda log_d: 4 + 2 * log_d)
    queried_log_bytes = staticmethod(lambda log_d: 4 + 4 * log_d)


def _pure(call: MemoryCallSpec, instruction, working: np.ndarray) -> bool:
    """Whether an exact call runs in its structure's closed form on vectors:
    instructed by a ``PureState`` of the map's input dimension alone, on a
    state-vector working register.  Otherwise the default runs, and checks
    the instruction's dimension."""
    return (isinstance(instruction, PureState) and working.ndim == 1
            and call.extra_instruction is None and instruction.dim == call.map.d_in)


def _kept(owner, name: str, t: float, make: Callable[[float], np.ndarray]) -> dict:
    """``owner``'s slot ``name``, holding ``make(t)`` read-only under the key
    of the bits of ``t`` (so ``-0.0`` and ``0.0`` stay apart), made again
    when ``t`` changes.  What depends on that value alone may join it."""
    key, slot = float(t).hex(), owner.__dict__.get(name, {})
    if slot.get("key") != key:
        value = make(float(t))
        value.setflags(write=False)
        slot = owner.__dict__[name] = {"key": key, "value": value}
    return slot


def _pair_plan(w: np.ndarray, d_in: int, d_out: int):
    """Index plan of the pair scatter that builds a query superoperator from
    the nonzeros of its unitary ``w``, or ``None`` where the Gram product of
    ``query_superoperator`` takes fewer multiplies.

    The superoperator entry ``S4[k,l,i,j]`` sums
    ``W[(a,k),(m,i)] rho[m,m'] conj(W[(a,l),(m',j)])`` over pairs of nonzeros
    of ``W`` that share the memory-output index ``a``.  The plan lists, per
    pair, its flat ``(k,l,i,j)`` output index, its flat ``(m,m')`` index into
    the memory matrix and its weight ``W[(a,k),(m,i)] conj(W[(a,l),(m',j)])``.
    A unitary with ``r`` nonzeros per row has ``r^2 d_in d_out^2`` pairs
    against the Gram's ``d_in^2 d_out^4`` multiplies.
    """
    w4 = w.reshape(d_in, d_out, d_in, d_out)
    a, k, m, i = np.nonzero(w4)  # in row-major order, so grouped by a
    counts = np.bincount(a, minlength=d_in)
    n_pairs = int(counts @ counts)
    if n_pairs > d_in**2 * d_out**4:
        return None
    # Pair each nonzero p with every nonzero q of its a, q running from the
    # first nonzero of that a.
    per = counts[a]
    p = np.repeat(np.arange(a.size), per)
    first = (np.cumsum(counts) - counts)[a]
    q = np.repeat(first - (np.cumsum(per) - per), per) + np.arange(n_pairs)
    vals = w4[a, k, m, i]
    out = ((k[p] * d_out + k[q]) * d_out + i[p]) * d_out + i[q]
    return out, m[p] * d_in + m[q], vals[p] * vals[q].conj()


@dataclass(frozen=True)
class MemoryCallSpec:
    """One state-instructed unitary ``exp(i N(instruction))``, its whole scale
    in the map.

    ``extra_instruction`` extends the instruction register: the map is fed
    ``state (x) extra_instruction`` instead of the bare recursion state, which
    is how lifted two-register maps (products of the state with a fixed
    resource state) are expressed.
    """

    map: HermitianPreservingMap
    extra_instruction: Optional[DensityMatrix] = None

    def instruction_matrix(self, state: DensityMatrix) -> np.ndarray:
        """``state``'s matrix (x) ``extra_instruction``; its consumer checks the dim."""
        if self.extra_instruction is None:
            return state.matrix
        return kron(state.matrix, self.extra_instruction.matrix)


# ---------------------------------------------------------------------------
# Map structures and constructors


@dataclass(frozen=True)
class Swap(QueryGenerator):
    """``N(x) = -alpha x`` on ``dim x dim`` matrices: ``Nhat = -alpha SWAP``,
    so ``||Nhat|| = |alpha|`` and the query unitary is
    ``cos(alpha t) 1 + i sin(alpha t) SWAP``."""

    alpha: float
    dim: int
    d_in = d_out = property(lambda self: self.dim)
    norm = property(lambda self: abs(float(self.alpha)))

    def exact(self, call: MemoryCallSpec, instruction, working: np.ndarray):
        """On a pure instruction ``psi`` and a state vector, the call
        ``exp(-i alpha |psi><psi|) = 1 + (e^{-i alpha} - 1) |psi><psi|``,
        in O(d); else the default."""
        if not _pure(call, instruction, working):
            return super().exact(call, instruction, working)
        psi = instruction.amplitudes
        return working + np.expm1(-1j * self.alpha) * np.vdot(psi, working) * psi

    def block(self, memory: np.ndarray, working: np.ndarray, s: float, m: int) -> np.ndarray:
        """``m`` queries of duration ``s/m`` in closed form (density-matrix
        exponentiation), with no superoperator: one ``eigh`` of the memory
        and four ``d x d`` products per working matrix, at any ``m``.

        One query maps ``sigma`` to ``c^2 sigma + i c sn [rho, sigma] +
        sn^2 tr(sigma) rho``, ``c, sn = cos, sin(alpha s/m)``.  In the memory's
        eigenbasis ``rho = V diag(p) V^dag``, ``x = V^dag sigma V``, the ``m``
        queries are ``x_ij -> mu_ij^m x_ij`` with ``mu_ij = c^2 + i c sn
        (p_i - p_j)`` off the diagonal and ``x_ii -> c^(2m) x_ii +
        (1 - c^(2m)) p_i tr(sigma)`` on it, reading ``tr rho`` as 1.  The
        trace is kept by construction, to the memory's own ``sum p - 1``.
        A batch runs matrix by matrix, with no ``(d, d, k)`` temporary.
        """
        p, v = np.linalg.eigh(memory)
        f, gain = _swap_block_factors(p, self.alpha * (s / m), m)
        v_dag = v.conj().T

        def one(sigma):
            y = (v_dag @ sigma @ v) * f
            y.flat[::y.shape[0] + 1] += gain * np.trace(sigma)
            return v @ y @ v_dag

        if working.ndim == 2:
            return one(working)
        out = np.empty(working.shape, dtype=complex)
        for k in range(working.shape[2]):  # a contiguous copy, so BLAS takes its products
            out[..., k] = one(working[..., k].copy())
        return out

    def make_unitary(self, t: float) -> np.ndarray:
        d = self.dim
        a, b = np.indices((d, d))
        u = np.zeros((d, d, d, d), dtype=complex)
        u[b, a, a, b] = 1j * np.sin(self.alpha * t)  # SWAP |ab> = |ba>
        u[a, b, a, b] += np.cos(self.alpha * t)
        return u.reshape(d * d, d * d)


def _swap_block_factors(p: np.ndarray, theta: float, m: int):
    """The entrywise factor ``f`` of ``Swap.block`` (``mu_ij^m``, and
    ``c^(2m)`` on the diagonal) and its diagonal gain ``(1 - c^(2m)) p``,
    for memory eigenvalues ``p`` and the query angle ``theta``.

    ``|mu|^m`` and ``c^(2m)`` are ``exp(m log(.))`` of logs taken as
    ``log1p(-sn^2 ...)`` while ``sn^2 < 1/2``, else of ``c`` itself, and
    ``1 - c^(2m)`` is ``-expm1``: each stays accurate to a few eps at any
    ``m``.  The phase of ``mu = c (c + i sn dp)`` is ``atan2(c sn dp, c^2)``,
    which holds for ``c < 0`` too.
    """
    c, sn = math.cos(theta), math.sin(theta)
    s2, dp = sn * sn, p[:, None] - p[None, :]
    if s2 < 0.5:
        log_c2 = math.log1p(-s2)
        # |mu|^2 = c^2 (1 - sn^2 (1 - dp^2))
        log_mu2 = log_c2 + np.log1p(-s2 * ((1.0 - dp) * (1.0 + dp)))
    else:
        log_c2 = 2.0 * math.log(abs(c))
        log_mu2 = log_c2 + np.log(c * c + s2 * dp * dp)
    f = np.exp(0.5 * m * log_mu2 + 1j * (m * np.arctan2(c * sn * dp, c * c)))
    np.fill_diagonal(f, math.exp(m * log_c2))
    return f, -math.expm1(m * log_c2) * p


@dataclass(frozen=True)
class Commutator(QueryGenerator):
    """``N(x) = -i s [d, x]`` for Hermitian ``d = v diag(mu) v^dag``, its
    spectrum found once, when the structure is made (``v`` is None for a
    diagonal ``d``).

    In ``d``'s eigenbasis ``Nhat`` only couples ``|ab>`` with ``|ba>``, with
    eigenvalues ``+-s (mu_a - mu_b)``, so ``||Nhat|| = |s| (max mu - min mu)``
    and the query unitary is ``W[a,b,a,b] = cos(theta_ab)`` and
    ``W[b,a,a,b] = sin(theta_ab)`` for ``a != b``, ``W[a,a,a,a] = 1``, with
    ``theta_ab = -t s (mu_a - mu_b)``, conjugated by ``v (x) v``.
    """

    d: np.ndarray
    s: float
    mu: np.ndarray = field(init=False, repr=False)
    v: Optional[np.ndarray] = field(init=False, repr=False)
    d_in = d_out = property(lambda self: self.mu.size)

    def __post_init__(self):
        diagonal = not np.count_nonzero(self.d - np.diag(np.diag(self.d)))
        mu, v = (np.real(np.diag(self.d)), None) if diagonal else np.linalg.eigh(self.d)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "v", v)

    # In Python floats, so a norm past the float range reads inf without a warning.
    norm = property(lambda self: abs(float(self.s)) * (float(self.mu.max()) - float(self.mu.min())))

    def instruction_exp(self, r: float) -> np.ndarray:
        """Read-only ``herm_exp(-d, r)``, the instruction's factor of each group
        commutator of an unfolded call at ``r = sqrt(step)``.  Every unfolded
        call of a run shares one ``r``, so the last one is kept (``_kept``)."""
        return _kept(self, "_exp", r, lambda r: herm_exp(-self.d, r))["value"]

    def unfold(self, call: MemoryCallSpec, instruction: DensityMatrix, working, substeps: int):
        """The call is ``exp(s [d, rho])``, ``s > 0``, applied as one group
        commutator's ``substeps``-th power (by squaring), with error
        O(s^1.5 / sqrt(substeps))."""
        if call.extra_instruction is not None:
            return super().unfold(call, instruction, working, substeps)
        if not self.s > 0:
            raise UnsupportedSpecError("group-commutator unfolding needs positive flow")
        gc = group_commutator(instruction.matrix, -self.d, self.s / substeps, self.instruction_exp)
        return unitary_on(np.linalg.matrix_power(gc, substeps), working)

    def make_unitary(self, t: float) -> np.ndarray:
        d = self.d_out
        theta = -t * self.s * (self.mu[:, None] - self.mu[None, :])
        a, b = np.indices((d, d))
        w = np.zeros((d, d, d, d), dtype=complex)
        w[b, a, a, b] = np.sin(theta)  # a == b gets 0 here and 1 below
        w[a, b, a, b] = np.cos(theta)
        w = w.reshape(d * d, d * d)
        if self.v is None:
            return w
        vv = np.kron(self.v, self.v)
        return vv @ w @ vv.conj().T


@dataclass(frozen=True)
class PairCommutator(QueryGenerator):
    """The degree-two map ``N(rho (x) chi) = -i s [rho, chi]`` on ``dim x dim``
    states (``make_pair_commutator_map``).  Its generator is ``-i s (C - C^2)``
    for the cyclic shift ``C|x y z> = |y z x>`` of the three registers, with
    eigenvalues ``+-sqrt(3) s`` (all 0 at ``dim = 1``, where ``C = 1``), and
    its query unitary is ``c0 1 + c1 C + c2 C^2`` with
    ``c_j = (1 + 2 cos(theta - 2 pi j / 3)) / 3`` and ``theta = -sqrt(3) s t``
    reduced mod ``2 pi``.
    """

    s: float
    dim: int
    d_in = property(lambda self: self.dim**2)
    d_out = property(lambda self: self.dim)
    norm = property(lambda self: math.sqrt(3.0) * abs(float(self.s)) if self.dim > 1 else 0.0)

    def make_unitary(self, t: float) -> np.ndarray:
        # theta - 2 pi j / 3 rounds at theta's magnitude, so at a large theta
        # the c_j would stop sharing one angle and u^dag u would miss 1 (by
        # 8e-7 at 1e10); fmod is exact and keeps every |theta| < 2 pi's bits.
        theta = np.fmod(-np.sqrt(3.0) * self.s * t, 2 * np.pi)
        c0, c1, c2 = ((1 + 2 * np.cos(theta - 2 * np.pi * j / 3)) / 3 for j in range(3))
        d = self.dim
        x, y, z = np.indices((d, d, d))
        u = np.zeros((d,) * 6, dtype=complex)
        u[x, y, z, x, y, z] += c0
        u[y, z, x, x, y, z] += c1
        u[z, x, y, x, y, z] += c2
        return u.reshape(d**3, d**3)

    def exact(self, call: MemoryCallSpec, instruction, working: np.ndarray):
        """On ``state (x) chi`` of two ``dim x dim`` factors, the unitary
        ``exp(s [rho, chi])`` from the factors; else the default.

        On a pure ``rho = |psi><psi|`` and a state vector it is, in O(d^2), a
        rotation by ``theta = s r`` in the plane of ``psi`` and
        ``e = phi / r``, ``phi = chi psi - <chi> psi``, ``r = ||phi||``:
        ``[rho, chi] = r (|psi><e| - |e><psi|)``.  Otherwise it is ``herm_exp``
        of ``-i s [rho, chi]``."""
        chi = call.extra_instruction
        if chi is None or instruction.dim != self.dim or chi.dim != self.dim:
            return super().exact(call, instruction, working)
        if isinstance(instruction, PureState) and working.ndim == 1:
            psi = instruction.amplitudes
            c = chi.matrix @ psi
            phi = c - np.vdot(psi, c) * psi
            r = float(np.linalg.norm(phi))
            if r == 0.0:  # psi is an eigenvector of chi: the commutator vanishes
                return working
            e, half = phi / r, self.s * r / 2.0
            a, b = np.vdot(psi, working), np.vdot(e, working)
            # cos(theta) - 1 = -2 sin^2(theta / 2) keeps a small angle's bits
            return working - 2.0 * math.sin(half) ** 2 * (a * psi + b * e) \
                + math.sin(2.0 * half) * (b * psi - a * e)
        rho, chi = instruction.matrix, chi.matrix
        return unitary_on(herm_exp(-1j * self.s * (rho @ chi - chi @ rho), -1.0), working)

    # A query call's d^3 x d^3 query unitary; an exact call's is the default.
    queried_log_bytes = staticmethod(lambda log_d: 4 + 6 * log_d)


@dataclass(frozen=True)
class Lift(QueryGenerator):
    """``N(x) = inner(Tr_B x) (x) 1_B`` on registers ``A (x) B``,
    ``dim B = d_b``.

    Its generator is ``inner``'s times ``1_B``, so its norm is the inner one
    and its query unitary is ``W_A (x) 1_B`` over registers (memory A, memory
    B, working A, working B).  Only ``memory_usage_query`` and blocks on the
    map's own generator read that dense unitary.
    """

    inner: HermitianPreservingMap
    d_b: int
    d_in = property(lambda self: self.inner.d_in * self.d_b)
    d_out = property(lambda self: self.inner.d_out * self.d_b)
    norm = property(lambda self: self.inner.generator.norm)

    def make_unitary(self, t: float) -> np.ndarray:
        a_in, a_out, eye_b = self.inner.d_in, self.inner.d_out, np.eye(self.d_b, dtype=complex)
        w_a = self.inner.generator.unitary(t).reshape(a_in, a_out, a_in, a_out)
        u = np.einsum("ACXY,BZ,DW->ABCDXZYW", w_a, eye_b, eye_b)
        return u.reshape(self.d_in * self.d_out, self.d_in * self.d_out)

    def exact(self, call: MemoryCallSpec, instruction, working: np.ndarray):
        """The inner call, instructed by the instruction's ``Tr_B``
        (``reduced``): ``u (x) 1_B`` for its ``d_A x d_A`` unitary ``u``.  A
        state vector ``v`` goes to ``u V``, ``V`` being ``v`` as a
        ``d_A x d_B`` matrix.  An extended or wrongly sized instruction takes
        the default, which checks its dimension."""
        if call.extra_instruction is not None or instruction.dim != self.d_in:
            return super().exact(call, instruction, working)
        d_a = self.inner.d_out
        u = herm_exp(map_apply(self.inner, instruction.reduced((d_a, self.d_b))), -1.0)
        if working.ndim == 1:
            return (u @ working.reshape(d_a, self.d_b)).ravel()
        # (u (x) 1) w on the row index, then (.) (u (x) 1)^dag on the column's A index
        uw = (u @ working.reshape(d_a, -1)).reshape(d_a * self.d_b, d_a, self.d_b)
        return np.matmul(u.conj(), uw).reshape(working.shape)

    def queried(self, call: MemoryCallSpec, instruction: DensityMatrix, working, m: int):
        """``m`` queries: the inner ``d_A^2 x d_A^2`` query block on the working
        matrix as a batch of ``d_B^2`` columns, one per ``(b, b')``."""
        memory = call.instruction_matrix(instruction)
        _check_query_dims(self, memory, working)
        d_a, d_b = self.inner.d_out, self.d_b
        cols = working.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
        out = repeated_queries(self.inner.generator, _trace_b(memory, d_b),
                               cols.reshape(d_a, d_a, d_b * d_b), -1.0, m)
        return out.reshape(d_a, d_a, d_b, d_b).transpose(0, 2, 1, 3).reshape(working.shape)

    # From log2 d_A and log2 d_B: the d_A d_B x d_A d_B matrices, and for a
    # query call the inner d_A^2 x d_A^2 query unitary.
    exact_log_bytes = staticmethod(lambda a, b: 4 + 2 * (a + b))
    queried_log_bytes = staticmethod(lambda a, b: max(4 + 2 * (a + b), 4 + 4 * a))


def make_identity_map(dim: int) -> HermitianPreservingMap:
    """The identity map; its query generator is the swap operator."""
    return make_scaled_identity_map(-1.0, dim)


def make_scaled_identity_map(alpha: float, dim: int) -> HermitianPreservingMap:
    """The map ``rho -> -alpha * rho`` (``Swap``)."""
    alpha, d = float(alpha), int(dim)
    return HermitianPreservingMap(d, d, lambda x: -alpha * x, Swap(alpha, d))


def make_commutator_map(d, s: float) -> HermitianPreservingMap:
    """The map ``rho -> -i s [d, rho]`` for Hermitian ``d`` (``Commutator``)."""
    c = Commutator(hermitize(d), float(s))
    dd, ss, dim = c.d, c.s, c.d.shape[0]
    return HermitianPreservingMap(dim, dim, lambda x: -1j * ss * (dd @ x - x @ dd), c)


# Smallest gap between two entries of a diagonal instruction operator: closer
# entries make it degenerate.  The dbi and osd ``mu`` config rules read it.
MIN_DIAGONAL_GAP = 1e-12


def _validated_diagonal(d) -> tuple[np.ndarray, np.ndarray]:
    """Hermitized ``d`` and its real diagonal; ``d`` must be diagonal with
    entries more than ``MIN_DIAGONAL_GAP`` apart (its sorted entries' adjacent
    gaps are the smallest)."""
    dd = hermitize(d)
    if np.max(np.abs(dd - np.diag(np.diag(dd)))) > 1e-12:
        raise InvariantError("instruction operator must be diagonal")
    mu = np.real(np.diag(dd)).copy()
    if np.any(np.diff(np.sort(mu)) <= MIN_DIAGONAL_GAP):
        raise InvariantError("diagonal instruction operator must be non-degenerate")
    return dd, mu


def _trace_b(x: np.ndarray, d_b: int) -> np.ndarray:
    """``Tr_B`` of the matrix ``x`` on registers ``A (x) B``, ``dim B = d_b``."""
    d_a = x.shape[0] // d_b
    return np.trace(x.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)


def make_osd_map(d_a, s: float, dims: tuple[int, int]) -> HermitianPreservingMap:
    """The map ``rho_AB -> -i s [d_a, Tr_B rho_AB] (x) 1_B``: the commutator
    map ``rho -> -i s [d_a, rho]`` on A, lifted by ``Tr_B`` and ``(x) 1_B``
    (``Lift``).

    ``d_a`` must be diagonal with pairwise distinct entries.
    """
    da, db = int(dims[0]), int(dims[1])
    dd, _ = _validated_diagonal(d_a)
    if dd.shape[0] != da:
        raise DimensionError(f"diagonal operator dim {dd.shape[0]} != {da}")
    inner, eye_b = make_commutator_map(dd, s), np.eye(db, dtype=complex)
    return HermitianPreservingMap(da * db, da * db,
                                  lambda x: kron(_act(inner, _trace_b(x, db)), eye_b),
                                  Lift(inner, db))


def make_pair_commutator_map(dim: int, s: float) -> HermitianPreservingMap:
    """Degree-two lift of ``(rho, chi) -> -i s [rho, chi]`` to one linear map
    (``PairCommutator``).

    The map acts on the doubled register and satisfies
    ``N(rho (x) chi) = -i s (rho chi - chi rho)``; on matrix units it
    contracts the two factors into an ordinary operator product, once in each
    order.
    """
    d, ss = int(dim), float(s)

    def fn(x):
        # On x4[v1, v2, w1, w2], |v1><w1| (x) |v2><w2| goes to <w1|v2> |v1><w2|
        # (first * second) less <w2|v1> |v2><w1| (second * first).
        x4 = x.reshape(d, d, d, d)
        return -1j * ss * (np.einsum("paaq->pq", x4) - np.einsum("apqa->pq", x4))

    return HermitianPreservingMap(d * d, d, fn, PairCommutator(ss, d))


# ---------------------------------------------------------------------------
# Channels


def _matrix(state) -> np.ndarray:
    """A ``DensityMatrix``'s matrix, or ``state`` itself, taken to be one."""
    return state.matrix if isinstance(state, DensityMatrix) else state


def _calls(m: HermitianPreservingMap):
    """What realizes the map's calls: its structure, or ``QueryGenerator``."""
    return QueryGenerator if m.structure is None else m.structure


def _working(call: MemoryCallSpec, working) -> np.ndarray:
    """The working matrix of an exact or unfolded call, checked against the
    map's ``d_out`` (a queried call checks it with ``_check_query_dims``)."""
    w = _matrix(working)
    if w.shape[0] != call.map.d_out:
        raise DimensionError(f"working dim {w.shape[0]} != map d_out {call.map.d_out}")
    return w


def exact_memory_call(call: MemoryCallSpec, instruction, working) -> np.ndarray:
    """Apply ``exp(i N(instruction))`` to the working matrix, or
    to the working state vector; the instruction is a ``DensityMatrix`` or a
    ``PureState``."""
    return _calls(call.map).exact(call, instruction, _working(call, working))


def unfolded_memory_call(call: MemoryCallSpec, instruction: DensityMatrix, working,
                         substeps: int) -> np.ndarray:
    """Memoryless ``exp(i N(instruction))`` for ``N = -i s [d, .]``
    by group commutators (``Commutator.unfold``)."""
    return _calls(call.map).unfold(call, instruction, _working(call, working), substeps)


def queried_memory_call(call: MemoryCallSpec, instruction: DensityMatrix, working,
                        m: int) -> np.ndarray:
    """``exp(i N(instruction))`` by ``m`` queries of total duration ``-1``,
    each consuming a copy of the instruction register as memory:
    the validated instruction's matrix (``instruction_matrix``), not wrapped again."""
    return _calls(call.map).queried(call, instruction, _matrix(working), m)


def _check_query_dims(gen, memory, working=None):
    """``memory`` and ``working`` (matrices, states or a ``repeated_queries``
    batch) against ``gen``'s ``d_in`` and ``d_out``; without ``working``,
    only the memory."""
    d_mem = _matrix(memory).shape[0]
    d_work = gen.d_out if working is None else _matrix(working).shape[0]
    if d_mem != gen.d_in or d_work != gen.d_out:
        raise DimensionError(
            f"memory/working dims ({d_mem},{d_work}) do not match "
            f"generator ({gen.d_in},{gen.d_out})"
        )


def memory_usage_query(
    gen: QueryGenerator, memory: DensityMatrix, working: DensityMatrix, s: float
) -> DensityMatrix:
    """One query: consume a memory copy, evolve the working state.

    Computes ``Tr_1[exp(-i Nhat s) (memory (x) working) exp(+i Nhat s)]``.
    """
    _check_query_dims(gen, memory, working)
    w = gen.unitary(s)
    joint = w @ kron(memory.matrix, working.matrix) @ w.conj().T
    d_in, d_out = gen.d_in, gen.d_out
    out = np.trace(joint.reshape(d_in, d_out, d_in, d_out), axis1=0, axis2=2)
    return DensityMatrix(out)


def dme_query(memory: DensityMatrix, working: DensityMatrix, s: float) -> DensityMatrix:
    """Swap-generated query in closed form:
    ``cos^2(s) sigma - i sin(s)cos(s) [rho, sigma] + sin^2(s) rho``."""
    if memory.dim != working.dim:
        raise DimensionError(f"dim mismatch {memory.dim} vs {working.dim}")
    c, sn = np.cos(float(s)), np.sin(float(s))
    rho, sigma = memory.matrix, working.matrix
    out = c * c * sigma - 1j * sn * c * (rho @ sigma - sigma @ rho) + sn * sn * rho
    return DensityMatrix(out)


def query_superoperator(gen: QueryGenerator, memory, s: float) -> np.ndarray:
    """Matrix of one query as a linear map on vectorized working states, for a
    ``memory`` state given as a ``DensityMatrix`` or its matrix.

    Row-major vectorization; the returned matrix has shape
    ``(d_out^2, d_out^2)``.  Building it once and applying it repeatedly is
    how large query counts stay cheap.

    With ``W = exp(-i Nhat s)`` indexed ``W[(a,k),(m,i)]`` (memory ``a, m``,
    working ``k, i``), the entry for output ``(k,l)`` and input ``(i,j)`` is
    ``sum W[(a,k),(m,i)] rho[m,m'] conj(W[(a,l),(m',j)])``.  It is built one of
    two ways, whichever takes fewer multiplies for this ``W``:

    * a pair scatter (``_pair_plan``): one product per pair of nonzeros of
      ``W`` sharing ``a``, that is one gather from ``rho``, one multiply by the
      pairs' weights and one ``np.bincount`` per real and imaginary part.
      The swap, diagonal commutator, osd and pair-commutator unitaries have
      at most 3 nonzeros per row and are built this way;
    * a Gram product ``G = A (1 (x) rho) A^dag`` with
      ``A[(k,i),(a,m)] = W[(a,k),(m,i)]``, entry ``G[(k,i),(l,j)]``: one
      ``A @ rho`` and one ``zgemm`` against ``A^dag``, for a dense ``W``
      (``herm_exp`` of a dense map's ``Nhat``, a non-diagonal commutator).

    The plan and the choice are made once per unitary, in its cache slot.
    The superoperator is then set to its mean with its mirror
    (``_mirror_mean``), so it preserves Hermiticity by construction:
    ``sup4[k,l,i,j] == conj(sup4[l,k,j,i])`` bit for bit.  A matvec with it
    leaves only its own summation-order roundoff off the adjoint.
    """
    _check_query_dims(gen, memory)
    d_in, d_out = gen.d_in, gen.d_out
    rho = _matrix(memory)
    pairs = gen._pairs(s)
    if pairs is not None:
        out, gather, weights = pairs
        terms = weights * rho.reshape(-1)[gather]
        sup = np.empty(d_out**4, dtype=complex)
        sup.real = np.bincount(out, terms.real, d_out**4)
        sup.imag = np.bincount(out, terms.imag, d_out**4)
    else:
        a = gen.unitary(s).reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 0, 2)
        a = a.reshape(d_out * d_out, d_in * d_in)
        # A rho A^dag = conj(conj(A rho) A^T), so no conjugated copy of A is
        # held; rebinding g frees A rho once the zgemm returns.
        g = (a.reshape(-1, d_in) @ rho).reshape(a.shape)
        g = np.conjugate(g, out=g) @ a.T
        np.conjugate(g, out=g)
        sup = g.reshape(d_out, d_out, d_out, d_out).transpose(0, 2, 1, 3)
    return _mirror_mean(sup.reshape(d_out * d_out, d_out * d_out), d_out)


def _mirror_mean(p: np.ndarray, d: int) -> np.ndarray:
    """Set the ``(d^2, d^2)`` superoperator ``p`` to ``(P + mirror(P)) / 2`` in
    place, with ``mirror(P)[k,l,i,j] = conj(P[l,k,j,i])``, and return it.

    The mirror is the map ``x -> N(x^dag)^dag``; IEEE addition commutes and
    halving is exact, so the result equals its own mirror bit for bit: it takes
    Hermitian matrices to Hermitian matrices up to a matvec's own roundoff.
    """
    p4 = p.reshape(d, d, d, d)
    p4 += p4.transpose(1, 0, 3, 2).conj()
    p4 *= 0.5  # exact halving, without a complex division
    return p


def repeated_queries(gen: QueryGenerator, memory, working, s: float, m: int) -> np.ndarray:
    """Apply ``m`` queries of duration ``s/m`` with fresh identical memory to the
    working matrix; ``memory`` is a state's matrix or its ``DensityMatrix``.
    ``working`` may also be a batch of ``k`` working matrices stacked on a
    last axis, shape ``(d, d, k)``; each gets the same block, and the result
    has the batch's shape.

    The block is the generator's (``block``): a ``Swap`` block in closed form
    in the memory's eigenbasis, any other one as one query's superoperator
    raised to the ``m``-th power.
    """
    m = int(m)
    if m < 1:
        raise InvariantError("query count must be >= 1")
    _check_query_dims(gen, memory, working)
    return gen.block(_matrix(memory), _matrix(working), float(s), m)


def group_commutator(a, b, s: float, exp_b: Optional[Callable] = None) -> np.ndarray:
    """``e_b e_a e_b^dag e_a^dag`` with ``e_x = exp(-i sqrt(s) x)``.

    Approximates ``exp(s [a, b])`` with operator-norm error bounded by
    ``s^1.5 (||[a,[a,b]]|| + ||[b,[b,a]]||)``.  Each operator goes through
    ``herm_exp`` once, ``b``'s as ``exp_b(sqrt(s))`` if given (a caller that
    keeps ``e_b``); the inverse exponentials are the adjoints.
    """
    if not s > 0:
        raise InvariantError("group commutator step must be positive")
    r = np.sqrt(float(s))
    ea = herm_exp(a, r)
    eb = herm_exp(b, r) if exp_b is None else exp_b(r)
    if ea.shape != eb.shape:
        raise DimensionError(f"shape mismatch {ea.shape} vs {eb.shape}")
    return eb @ ea @ eb.conj().T @ ea.conj().T


def channel_error_probe(
    gen: QueryGenerator,
    map_spec: HermitianPreservingMap,
    memory: DensityMatrix,
    s: float,
    m_values,
    n_samples: int,
    seed,
) -> list[float]:
    """Sampled lower bound on the trace-norm distance between ``m`` repeated
    queries of total duration ``s`` and the unitary channel they converge to,
    conjugation by ``exp(-i s N(memory))``, one per ``m`` in ``m_values``.

    Maximizes the output distance over seeded random pure working states, so
    each value never exceeds the true channel distance.  What no ``m`` reads
    is made once: the states, the exponential and the validated exact
    outputs.  Then the states go through one block of queries per ``m``
    together, as a batch (``repeated_queries``), and each output is validated.
    """
    if n_samples < 1:
        raise InvariantError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    u = herm_exp(map_apply(map_spec, memory.matrix), s)
    states = [random_pure(gen.d_out, rng.integers(2**63)).density().matrix
              for _ in range(int(n_samples))]
    exact = [DensityMatrix(unitary_on(u, w)).matrix for w in states]
    batch = np.stack(states, axis=-1)
    del states  # the batch holds them: a probe keeps three states per sample

    def worst(approx):
        return max(trace_distance(DensityMatrix(approx[..., k]).matrix, e)
                   for k, e in enumerate(exact))

    return [worst(repeated_queries(gen, memory, batch, s, m)) for m in m_values]


def query_error_bound(gen: QueryGenerator, s: float, m: int) -> tuple[float, bool]:
    """Analytic ceiling ``4 ||Nhat||^2 s^2 / m`` on the repeated-query error,
    and whether ``||Nhat|| |s| / m`` falls in the window where it is asserted."""
    norm = gen.norm
    bound = 4.0 * norm * norm * float(s) * float(s) / int(m)
    within = 0.0 < norm * abs(float(s)) / int(m) <= 0.8
    return bound, within
