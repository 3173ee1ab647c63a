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
trace-preserving by construction.  Any other block maps Hermitian matrices
in real arithmetic: one query is a real ``d^2 x d^2`` transfer matrix ``R``
on a Hermitian matrix's real coordinates (the diagonal, ``Re X_kl`` above
it and ``Im X_kl`` at ``(l, k)``), the Pauli transfer matrix of gate-set
tomography in that basis, held as its deviation ``D = R - 1`` from the
identity (``QueryGenerator.transfer``).  The block applies ``y -> y + D y``
``m`` times (``dgemv``) or squares ``1 + D`` as ``1 + D (D + 2)``,
whichever the crossover rule picks from ``d``, the batch size and ``m``,
and rebuilds its output from its coordinates, so the output is Hermitian
by construction.  ``D`` is small, so a block piles up ``m`` roundings of
``D``, not of the identity's unit entries, and it reads the memory at unit
trace, so ``D`` annihilates the trace up to its own roundoff: a block keeps
the trace and the exact block's entries to a few eps at any ``m``.  ``D``
is one gather from the memory's coordinates and one real ``np.bincount``,
by a plan (``_transfer_plan``) made once per duration from the nonzeros
each structure lists in closed form, split off their values at ``t = 0``
(``nonzeros``).  A memory is one matrix, a qite call's being
``state (x) chi`` (``MemoryCallSpec.instruction_matrix``).  Only a dense
map's or a non-diagonal commutator's unitary has no plan: its ``R`` is read
once off its complex superoperator (``query_superoperator``), the Gram
``zgemm`` of its unitary, which is the reference for every generator and
which no structure's block calls.

An osd map is a ``Lift`` of the commutator map on A.  Its exact and queried
calls run on the A factor: a ``d_A x d_A`` unitary, or a ``d_A^2 x d_A^2``
query block applied to the working matrix as a batch of ``d_B^2`` Hermitian
columns (the Hermitian and anti-Hermitian parts of its off-diagonal blocks).
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
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DimensionError, InvariantError, UnsupportedSpecError
from .linalg import (
    DensityMatrix,
    PureState,
    check_hermitian,
    herm_exp,
    hermitize,
    kron,
    op_norm,
    partial_trace,
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
    ``norm`` and ``make_unitary`` in closed form, and ``nonzeros`` too but
    for ``Swap``, which gives its ``block``.
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

    def nonzeros(self, t: float):
        """The nonzeros of ``exp(-i Nhat t)`` as ``W[a,k,m,i]`` (memory ``a, m``,
        working ``k, i``), each split off its value at ``t = 0``: arrays
        ``(a, k, m, i, one, dev)``, a term being ``one + dev`` for a bool
        ``one`` and a complex ``dev`` formed without cancellation (``cos - 1``
        as ``-2 sin^2``).  An entry may be listed as several terms where that
        is simpler; the terms with ``one`` set are the identity's entries, each
        once.  ``None`` for a dense unitary.  A structure gives them in closed
        form, without the unitary."""
        return None

    def unitary(self, s: float) -> np.ndarray:
        """Read-only ``exp(-i Nhat s)`` (``make_unitary``).

        The last duration's unitary is kept, with the transfer plan once a
        block reads it (``_plan``), in one slot (``_kept``): every step of a
        run queries its generator at one duration, and a schedule of varying
        durations then holds one unitary, not one per step.
        """
        return _kept(self, "_last", s, "unitary", self.make_unitary)

    def _plan(self, s: float):
        """``_transfer_plan`` of ``nonzeros(s)``, made on its first read and
        kept in the duration's slot; ``None`` for a dense unitary."""
        return _kept(self, "_last", s, "plan",
                     lambda t: _transfer_plan(self.nonzeros(t), self.d_in, self.d_out))

    def transfer(self, memory: np.ndarray, s: float) -> np.ndarray:
        """One query's real ``(d^2, d^2)`` transfer matrix ``R`` (``d = d_out``)
        on the real coordinates of a Hermitian working matrix (``_coords``),
        for a memory matrix, held as its deviation ``R - 1`` from the
        identity.

        A query of duration ``s`` moves ``R`` from ``tr(rho) 1`` by ``O(s)``,
        so ``R - 1`` is small, and held on its own it carries no rounding of
        the identity's unit entries: a block of ``m`` queries then piles up
        ``m`` roundings of a small matrix, not of 1.  A plan's ``R - 1`` is
        one gather from the memory's coordinates, read at unit trace, and
        one real ``np.bincount`` over the nonzeros' deviations
        (``_transfer_plan``).  A dense unitary has no plan: its ``R`` is read
        once (``_real_view``) off its Gram superoperator
        (``query_superoperator``).
        """
        plan = self._plan(s)
        if plan is None:
            r = _real_view(query_superoperator(self, memory, s))
            r.flat[::r.shape[0] + 1] -= 1.0
            return r
        return plan.transfer(memory, self.d_out)

    def block(self, memory, working: np.ndarray, s: float, m: int) -> np.ndarray:
        """``m`` queries of duration ``s/m`` on a Hermitian working matrix or a
        ``(d, d, k)`` batch of them (``repeated_queries``, which checks the
        arguments).

        The block is ``R^m`` on the working state's real coordinates ``y``, a
        batch's as a ``(d^2, k)`` matrix of columns, with ``R = 1 + D`` held as
        its deviation ``D`` (``transfer``), realized as either

        * ``m`` steps ``y + D.dot(y)``, a BLAS ``dgemv`` for one working
          matrix; or
        * binary exponentiation, when ``log2(m) d^2 < 6 m k`` (``k = 1`` for
          one working matrix): ``m.bit_length() - 1`` real squarings
          ``(1 + D)^2 = 1 + D (D + 2)`` (``d^6`` each against a step's
          ``d^4 k``) plus one step per set bit of ``m``, lowest first.

        With BLAS at one thread the two cost the same for one working matrix
        near ``log2(m) d^2 = 5 m`` to ``10 m`` at ``d = 4 .. 24``; batches
        of 4 to 36 columns cross between that and ``log2(m) d^2 = m k``.  The
        output is rebuilt from its coordinates (``_hermitian``), so it is
        Hermitian bit for bit at any ``m``.  ``D``'s roundoff is a few eps of
        ``D`` itself, so neither path piles up ``m`` roundings of 1: on the
        oracles' maps a validated block is within 1.5 eps of the exact block
        read at unit trace up to ``m = 256``, and a block's trace within 1 eps
        of its input's up to ``m = 2^30``.  The squaring is the closer of the
        two past ``m = 16``, the loop's roundings growing about as
        ``sqrt(m)``.
        """
        d = self.d_out
        check_hermitian(working, working.conj().swapaxes(0, 1))
        dev = self.transfer(memory, s / m)
        y = _coords(working).reshape(d * d, *working.shape[2:])
        if m.bit_length() * d * d < 6 * m * (y.size // (d * d)):
            two = _twice_identity(d * d)
            while True:
                if m & 1:
                    y += dev.dot(y)
                m >>= 1
                if not m:
                    break
                dev = dev @ (dev + two)
        else:
            for _ in range(m):
                y += dev.dot(y)
        return _hermitian(y.reshape(working.shape))

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

    # An exact call's d x d matrices; a query call's d^2 x d^2 query unitary,
    # or its real transfer matrix and that matrix's square: 16 d^4 bytes.
    exact_log_bytes = staticmethod(lambda log_d: 4 + 2 * log_d)
    queried_log_bytes = staticmethod(lambda log_d: 4 + 4 * log_d)


def _pure(call: MemoryCallSpec, instruction, working: np.ndarray) -> bool:
    """Whether an exact call runs in its structure's closed form on vectors:
    instructed by a ``PureState`` of the map's input dimension alone, on a
    state-vector working register.  Otherwise the default runs, and checks
    the instruction's dimension."""
    return (isinstance(instruction, PureState) and working.ndim == 1
            and call.extra_instruction is None and instruction.dim == call.map.d_in)


@functools.lru_cache(maxsize=None)
def _twice_identity(n: int) -> np.ndarray:
    """Read-only ``2 1`` of size ``n``, which each squaring of a block adds."""
    two = 2.0 * np.eye(n)
    two.setflags(write=False)
    return two


def _kept(owner, name: str, t: float, what: str, make: Callable[[float], object]):
    """``make(t)`` under ``what`` in ``owner``'s slot ``name``, made on its
    first read and kept while ``t`` keeps its bits (so ``-0.0`` and ``0.0``
    stay apart); a new ``t`` empties the slot.  An array is kept read-only."""
    key, slot = float(t).hex(), owner.__dict__.get(name)
    if slot is None or slot["key"] != key:
        slot = owner.__dict__[name] = {"key": key}
    if what not in slot:
        value = make(float(t))
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        slot[what] = value
    return slot[what]


# Real coordinates of a Hermitian d x d matrix X, in a d x d real array y:
# y[k,k] = X[k,k], and for k < l, y[k,l] = Re X[k,l] and y[l,k] = Im X[k,l].
# Entry (p, q) of X reads one or two of them, X[p,q] = y[min, max] + i g y[max, min],
# with g = 1 above the diagonal (p < q), -1 below it and 0 on it.


@functools.lru_cache(maxsize=None)
def _entry_terms(n: int, output: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The two coordinate terms of each entry ``(p, q)`` of an ``n x n``
    matrix, at flat index ``p n + q``: flat coordinate indices ``idx`` and
    real weights ``g``, each ``(2, n^2)`` and read-only, the second term
    weighing ``i g y[idx]``.  With ``output`` they are the weights that read
    the Hermitian part's coordinates off entry ``(p, q)`` of an output:
    conjugated and halved off the diagonal."""
    p, q = (x.ravel() for x in np.indices((n, n)))
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    idx = np.stack([lo * n + hi, hi * n + lo])
    g = np.stack([np.ones(n * n), np.sign(q - p).astype(float)])
    if output:
        g[1] = -g[1]
        g[:, p != q] *= 0.5
    idx.setflags(write=False)
    g.setflags(write=False)
    return idx, g


class _Plan(NamedTuple):
    """A query's transfer matrix as ``(R - 1).flat[out] += weights *
    coords.flat[gather]`` over the memory's real coordinates, with a buffer
    of the terms' size that each build fills in place."""

    out: np.ndarray
    gather: np.ndarray
    weights: np.ndarray
    buffer: np.ndarray

    def transfer(self, memory: np.ndarray, d: int) -> np.ndarray:
        """``R - 1`` for a memory matrix, read through its real coordinates
        (``_coords``) at unit trace, divided by the sum of its populations:
        the terms of the nonzeros' values at ``t = 0`` then sum to ``R = 1``
        exactly, and are left out, and the deviations' terms annihilate the
        trace."""
        coords = _coords(memory).reshape(-1)
        coords /= coords[::math.isqrt(coords.size) + 1].sum()
        np.take(coords, self.gather, out=self.buffer)
        np.multiply(self.buffer, self.weights, out=self.buffer)
        dev = np.bincount(self.out, self.buffer, d**4).reshape(d * d, d * d)
        return dev.astype(float, copy=False)  # an empty plan (t = 0) counts in ints


def _transfer_plan(nonzeros, d_in: int, d_out: int) -> Optional[_Plan]:
    """The plan that builds a query's real transfer matrix ``R``, as
    ``R - 1``, from the nonzeros of its unitary ``W``
    (``QueryGenerator.nonzeros``), or ``None`` for a dense ``W``.

    The superoperator entry ``S4[k,l,i,j]`` sums ``W[a,k,m,i] rho[m,m']
    conj(W[a,l,m',j])`` over pairs ``(p, q)`` of nonzeros sharing the
    memory-output index ``a``.  ``R`` reads each such term through three
    coordinate maps (``_entry_terms``): the output coordinates read off entry
    ``(k, l)``, the input coordinates whose basis matrix has entry ``(i, j)``
    and the memory coordinates of ``rho[m, m']``.  Each map gives a pair one
    or two real terms, so the pair gives ``Re(b i^j) prod g`` for every
    choice of one term per map, ``b`` being the pair's weight less its value
    at ``t = 0`` and ``j`` the number of second terms chosen.  The mirror
    pair ``(q, p)`` gives the same real terms, so only ``p <= q`` is listed,
    off the diagonal twice.
    Terms that vanish (on a diagonal, or for a real or imaginary ``b``) are
    dropped.  The pairs are expanded a chunk at a time, which bounds what
    the plan holds while it is made to about its own size.
    """
    if nonzeros is None:
        return None
    order = np.argsort(nonzeros[0], kind="stable")
    a, k, m, i, one, dev = (np.asarray(x)[order] for x in nonzeros)
    # Each nonzero p pairs with itself and every later nonzero of its a.
    per = np.cumsum(np.bincount(a))[a] - np.arange(a.size)
    ends = np.cumsum(per)
    cuts = np.searchsorted(ends, np.arange(_PLAN_CHUNK, ends[-1], _PLAN_CHUNK), side="right")
    indices = [(k, d_out), (i, d_out), (m, d_in)]
    chunks = [_plan_chunk(np.repeat(np.arange(lo, hi), per[lo:hi]), per[lo:hi], one, dev,
                          indices)
              for lo, hi in zip([0, *cuts], [*cuts, a.size])]
    parts = []
    for j in range(3):  # one array at a time: no second copy of the pieces
        parts.append(np.concatenate([x for c in chunks for x in c[j]]))
        for c in chunks:
            c[j] = None
    return _Plan(*parts, np.empty(parts[-1].size))


# Pairs of nonzeros a transfer plan expands at a time.
_PLAN_CHUNK = 4096


def _plan_chunk(p: np.ndarray, per: np.ndarray, one: np.ndarray, dev: np.ndarray,
                indices: list):
    """``_transfer_plan``'s terms of the pairs ``(p, q)``, ``q`` running over
    the ``per`` nonzeros from each ``p`` on: ``[out, gather, weights]``, each
    a list of pieces.  ``indices`` are the output, input and memory maps'
    ``(index, n)``: each nonzero's index into an ``n x n`` matrix."""
    q = p + np.arange(p.size) - np.repeat(np.cumsum(per) - per, per)
    # The pair's weight W_p conj(W_q) less its value at t = 0, one_p one_q:
    # those values' terms, the identity's entries each once, sum to R = 1 on
    # a memory of unit trace.
    b = one[p] * np.conj(dev[q]) + dev[p] * one[q] + dev[p] * np.conj(dev[q])
    b[p != q] *= 2
    maps = []  # each pair's two terms of each map
    for x, n in indices:
        key = x[p] * n + x[q]
        maps.append([[row.take(key) for row in t] for t in _entry_terms(n, output=not maps)])
    # Choosing the second term of j maps multiplies by i^j, and
    # Re(b i^j) = b.real, -b.imag, -b.real, b.imag for j = 0, 1, 2, 3 mod 4.
    signed = [b.real, -b.imag, -b.real, b.imag]
    d_out = indices[0][1]
    terms = [[np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]]  # none may survive
    for choice in itertools.product((0, 1), repeat=3):
        w = signed[sum(choice) % 4]
        if not w.any():
            continue
        for (_, g), c in zip(maps, choice):
            w = w * g[c]
        keep = np.flatnonzero(w)
        out, inp, mem = (x[c].take(keep) for (x, _), c in zip(maps, choice))
        for t, x in zip(terms, (out * (d_out * d_out) + inp, mem, w.take(keep))):
            t.append(x)
    return terms


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
        A batch runs matrix by matrix, with no ``(d, d, k)`` temporary, each
        matrix checked Hermitian first (``check_hermitian``).
        """
        p, v = np.linalg.eigh(memory)
        f, gain = _swap_block_factors(p, self.alpha * (s / m), m)
        v_dag = v.conj().T

        def one(sigma):
            check_hermitian(sigma, sigma.conj().T)
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

    # A query call's block is a few d x d matrices, as an exact call's.
    queried_log_bytes = staticmethod(lambda log_d: 4 + 2 * log_d)


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
        return _kept(self, "_exp", r, "value", lambda r: herm_exp(-self.d, r))

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

    def nonzeros(self, t: float):
        """For a diagonal ``d``: ``cos(theta_ab)`` at ``(a,b,a,b)``, one plus
        ``-2 sin^2(theta_ab / 2)``, and ``sin(theta_ab)`` at ``(b,a,a,b)``,
        ``a != b``; else ``None``."""
        if self.v is not None:
            return None
        theta = -t * self.s * (self.mu[:, None] - self.mu[None, :])
        a, b = np.indices(theta.shape)
        off = a != b
        dev = np.concatenate([-2.0 * np.sin(0.5 * theta).ravel() ** 2, np.sin(theta[off])])
        return (np.concatenate([a.ravel(), b[off]]), np.concatenate([b.ravel(), a[off]]),
                np.concatenate([a.ravel(), a[off]]), np.concatenate([b.ravel(), b[off]]),
                np.arange(dev.size) < theta.size, dev.astype(complex))


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

    def nonzeros(self, t: float):
        """The three terms ``c_j C^j``: ``C^j |x y z>`` has memory index
        ``(x, y)``, ``(y, z)``, ``(z, x)`` and working index ``z, x, y``.
        With ``h = 1 - cos(theta) = 2 sin^2(theta / 2)`` and
        ``r = sqrt(3) sin(theta)``, ``c_0 = 1 - 2 h / 3`` and
        ``c_1, c_2 = (h +- r) / 3``."""
        theta = float(np.fmod(-np.sqrt(3.0) * self.s * t, 2 * np.pi))
        h, r = 2.0 * math.sin(0.5 * theta) ** 2, math.sqrt(3.0) * math.sin(theta)
        d = self.dim
        x, y, z = (u.ravel() for u in np.indices((d, d, d)))
        return (np.concatenate([x * d + y, y * d + z, z * d + x]), np.concatenate([z, x, y]),
                np.tile(x * d + y, 3), np.tile(z, 3), np.arange(3 * x.size) < x.size,
                np.repeat(np.array([-2.0 * h, h + r, h - r], dtype=complex) / 3.0, x.size))

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

    # A query call is charged the d^3 x d^3 query unitary it no longer builds
    # (16 d^6 bytes), which from d = 6 on bounds its transfer plan of about
    # 14 d^4 terms (32 bytes each) and its d^2 x d^2 memory state (x) chi;
    # an exact call's is the default.
    queried_log_bytes = staticmethod(lambda log_d: 4 + 6 * log_d)


@dataclass(frozen=True)
class Lift(QueryGenerator):
    """``N(x) = inner(Tr_B x) (x) 1_B`` on registers ``A (x) B``,
    ``dim B = d_b``.

    Its generator is ``inner``'s times ``1_B``, so its norm is the inner one
    and its query unitary is ``W_A (x) 1_B`` over registers (memory A, memory
    B, working A, working B).  Only ``memory_usage_query`` reads that dense
    unitary; a block on the map's own generator reads its nonzeros.
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

    def nonzeros(self, t: float):
        """The inner map's, each at every memory ``B`` and working ``B``
        index ``b, b'`` (``W_A (x) 1_B (x) 1_B``)."""
        inner = self.inner.generator.nonzeros(t)
        if inner is None:
            return None
        n = self.d_b
        a, k, m, i, one, dev = (x[:, None, None] for x in inner)
        b, b2 = np.indices((n, n))
        return (*((x * n + y).ravel() for x, y in ((a, b), (k, b2), (m, b), (i, b2))),
                *(np.broadcast_to(x, (x.shape[0], n, n)).ravel() for x in (one, dev)))

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
        matrix as a batch of ``d_B^2`` Hermitian ``d_A x d_A`` columns.

        Block ``X_bb'`` of the working matrix passes as it is for ``b = b'``.
        For ``b < b'`` its Hermitian part ``H`` passes as column ``(b, b')``
        and its anti-Hermitian part ``i K`` as ``K`` in column ``(b', b)``;
        the block maps to ``N(H) + i N(K)`` and its adjoint ``X_b'b`` to
        ``N(H) - i N(K)``, so the output is Hermitian bit for bit."""
        memory = call.instruction_matrix(instruction)
        _check_query_dims(self, memory, working)
        check_hermitian(working, working.conj().T)  # the columns below read half its blocks
        d_a, d_b = self.inner.d_out, self.d_b
        x = working.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)  # [., ., b, b']
        # X_b'b = X_bb'^dag, so at (b', b) K = (X_bb' - X_bb'^dag) / 2i = i (X_b'b - X_bb') / 2
        x_t, lower = x.transpose(0, 1, 3, 2), _tri(d_b)
        cols = np.where(lower, 0.5j * (x - x_t), 0.5 * (x + x_t))
        y = repeated_queries(self.inner.generator,
                             partial_trace(memory, (self.inner.d_in, d_b), keep=[0]),
                             cols.reshape(d_a, d_a, d_b * d_b), -1.0, m).reshape(x.shape)
        iy = 1j * y
        out = np.where(lower, y.transpose(0, 1, 3, 2) - iy,
                       np.where(lower.T, y + iy.transpose(0, 1, 3, 2), y))
        return out.transpose(0, 2, 1, 3).reshape(working.shape)

    # From log2 d_A and log2 d_B: the d_A d_B x d_A d_B matrices, and for a
    # query call the inner map's 16 d_A^4 bytes.
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
    """``diag(mu)`` and ``mu``, the real diagonal of hermitized ``d``; ``d``
    must be diagonal to 1e-12, which ``diag(mu)`` then is exactly (so a map
    made from it is a diagonal ``Commutator``), with entries more than
    ``MIN_DIAGONAL_GAP`` apart (its sorted entries' adjacent gaps are the
    smallest)."""
    dd = hermitize(d)
    if np.max(np.abs(dd - np.diag(np.diag(dd)))) > 1e-12:
        raise InvariantError("instruction operator must be diagonal")
    mu = np.real(np.diag(dd)).copy()
    if np.any(np.diff(np.sort(mu)) <= MIN_DIAGONAL_GAP):
        raise InvariantError("diagonal instruction operator must be non-degenerate")
    return np.diag(mu), mu


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
    return HermitianPreservingMap(
        da * db, da * db,
        lambda x: kron(_act(inner, partial_trace(x, (da, db), keep=[0])), eye_b), Lift(inner, db))


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
    ``memory`` state given as a ``DensityMatrix`` or its matrix: the Gram
    reference for every generator, which only a dense block reads
    (``QueryGenerator.transfer``); a structure's block builds its real
    transfer matrix from its nonzeros (``_transfer_plan``) instead.

    Row-major vectorization; the returned matrix has shape
    ``(d_out^2, d_out^2)``.  With ``W = exp(-i Nhat s)`` indexed
    ``W[(a,k),(m,i)]`` (memory ``a, m``, working ``k, i``), the entry for
    output ``(k,l)`` and input ``(i,j)`` is
    ``S[k,l,i,j] = sum W[(a,k),(m,i)] rho[m,m'] conj(W[(a,l),(m',j)])``, the
    Gram product ``G = A (1 (x) rho) A^dag`` with
    ``A[(k,i),(a,m)] = W[(a,k),(m,i)]``, entry ``G[(k,i),(l,j)]``: one
    ``A @ rho`` and one ``zgemm`` against ``A^dag``.  The exact ``S`` has
    ``S[k,l,i,j] = conj S[l,k,j,i]``; each entry is replaced by its mean with
    that mirror, so the result preserves Hermiticity bit for bit.
    """
    _check_query_dims(gen, memory)
    d_in, d_out = gen.d_in, gen.d_out
    rho = _matrix(memory)
    a = gen.unitary(s).reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 0, 2)
    a = a.reshape(d_out * d_out, d_in * d_in)
    # A rho A^dag = conj(conj(A rho) A^T), so no conjugated copy of A is
    # held; rebinding g frees A rho once the zgemm returns.
    g = (a.reshape(-1, d_in) @ rho).reshape(a.shape)
    g = np.conjugate(g, out=g) @ a.T
    np.conjugate(g, out=g)
    sup = g.reshape(d_out, d_out, d_out, d_out).transpose(0, 2, 1, 3)
    sup = 0.5 * (sup + sup.transpose(1, 0, 3, 2).conj())
    return sup.reshape(d_out * d_out, d_out * d_out)


def _real_view(sup: np.ndarray) -> np.ndarray:
    """The real transfer matrix of a superoperator on Hermitian matrices: its
    column ``c`` is the coordinates (``_coords``) of the Hermitian part of the
    output on the basis matrix whose only nonzero coordinate is a unit one at
    ``c`` (``_hermitian``)."""
    n = sup.shape[0]
    d = math.isqrt(n)
    basis = _hermitian(np.eye(n).reshape(d, d, n)).reshape(n, n)
    out = (sup @ basis).reshape(d, d, n)
    return _coords(0.5 * (out + out.conj().swapaxes(0, 1))).reshape(n, n)


def _lower(x: np.ndarray) -> np.ndarray:
    """The strictly lower triangle of ``x``'s first two axes, as a mask that
    broadcasts against ``x``."""
    d = x.shape[0]
    return _tri(d).reshape((d, d) + (1,) * (x.ndim - 2))


@functools.lru_cache(maxsize=None)
def _tri(d: int) -> np.ndarray:
    """The read-only strictly lower triangle of a ``d x d`` matrix, a mask
    each block reads twice (``np.tri`` costs more than a small block's
    products)."""
    mask = np.tri(d, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _coords(x: np.ndarray) -> np.ndarray:
    """The real coordinates of a Hermitian matrix ``x``, or ``(d, d, k)``
    batch, in an array of its shape: its upper triangle's real parts and its
    lower triangle's negated imaginary parts."""
    return np.where(_lower(x), -x.imag, x.real)


def _hermitian(y: np.ndarray) -> np.ndarray:
    """The Hermitian matrix, or ``(d, d, k)`` batch, with real coordinates
    ``y``: each entry below the diagonal the exact conjugate of its mirror."""
    iy, d = 1j * y, y.shape[0]
    x = np.where(_lower(y), y.swapaxes(0, 1) - iy, y + iy.swapaxes(0, 1))
    x.imag.reshape(d * d, -1)[::d + 1] = 0.0  # y + i y on the diagonal
    return x


def repeated_queries(gen: QueryGenerator, memory, working, s: float, m: int) -> np.ndarray:
    """Apply ``m`` queries of duration ``s/m`` with fresh identical memory to the
    Hermitian working matrix; ``memory`` is a state's matrix or its
    ``DensityMatrix`` (a qite call's is ``state (x) chi``,
    ``MemoryCallSpec.instruction_matrix``).
    ``working`` may also be a batch of ``k`` working matrices stacked on a
    last axis, shape ``(d, d, k)``; each gets the same block, and the result
    has the batch's shape.  Each block refuses a working matrix that is not
    Hermitian by ``hermitize``'s rule (``check_hermitian``) before it reads
    it, a batch column by column for a swap block.

    The block is the generator's (``block``): a ``Swap`` block in closed form
    in the memory's eigenbasis, any other one as one query's real transfer
    matrix raised to the ``m``-th power.
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
