"""State-instructed channels of Hermitian-preserving maps, and the three
realizations of a memory-call ``exp(i s N(rho))``: exact
(``exact_memory_call``), memoryless by group commutators
(``unfolded_memory_call``, commutator maps only) and by memory-usage queries on
copies of ``rho`` (``queried_memory_call``).  The engine reads no map.

A Hermitian-preserving linear map ``N`` is held as its action ``x -> N(x)``,
which is all an exact memory-call reads.  Its Hermitian *query generator*
``Nhat = sum_jk |k><j| (x) N(|j><k|)`` is built from the action on first read
of ``generator``, symmetrized by ``linalg.hermitize`` (the one Hermiticity
check), diagonalized once, on first read of ``eigh``, and exponentiated again
only when the query duration changes (``unitary``).  The Choi matrix is
``Nhat`` partially transposed on the first factor, derived only when read.
Conjugating a memory (x) working pair by ``exp(-i Nhat s)`` and tracing out
the memory register applies the map's exponential to the working state up to
O(s^2).

Sign conventions, fixed here once and relied on everywhere else:

* ``exact_memory_call`` with map ``N`` and duration ``s`` applies the unitary
  ``exp(+i s N(rho))``.
* ``memory_usage_query`` with duration ``s`` applies
  ``Tr_1[exp(-i Nhat s) (rho (x) sigma) exp(+i Nhat s)]``, whose first order
  is ``sigma - i s [N(rho), sigma]`` and whose many-query limit is therefore
  the unitary channel of ``exp(-i s N(rho))``.

The two directions are adjoint, so ``queried_memory_call`` realizes a call of
duration ``s`` by queries of total duration ``-s``.  ``exact_query_channel`` is
the query-side limit, the comparison point for error measurements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, InvariantError, UnsupportedSpecError
from .linalg import (
    DensityMatrix,
    herm_exp,
    hermitize,
    kron,
    op_norm,
    partial_transpose,
    random_pure,
    trace_distance,
    _as_square,
)


@dataclass(frozen=True)
class HermitianPreservingMap:
    """Linear Hermitian-preserving map, held as its action ``x -> N(x)``.

    ``commutator_form``, when set, records that the map is
    ``rho -> -i * s * [d, rho]`` for a Hermitian ``d``; ``unfolded_memory_call``
    reads it to realize such calls by group commutators.
    """

    d_in: int
    d_out: int
    action: Callable[[np.ndarray], np.ndarray]
    commutator_form: Optional[tuple[np.ndarray, float]] = None

    @functools.cached_property
    def choi(self) -> np.ndarray:
        """Choi matrix, the partial transpose of ``generator.n_hat``, built on
        first read; a map that is not Hermitian-preserving fails ``hermitize``."""
        choi = partial_transpose(self.generator.n_hat, (self.d_in, self.d_out), 0)
        choi.setflags(write=False)
        return choi

    @functools.cached_property
    def generator(self) -> "QueryGenerator":
        """The map's query generator ``Nhat``, built on first read."""
        return QueryGenerator.from_map(self)


def _act(m: HermitianPreservingMap, a: np.ndarray) -> np.ndarray:
    out = np.asarray(m.action(a), dtype=complex)
    if out.shape != (m.d_out, m.d_out):
        raise DimensionError(f"map output shape {out.shape} != ({m.d_out},{m.d_out})")
    return out


def map_from_function(
    fn: Callable[[np.ndarray], np.ndarray], d_in: int, d_out: int, **kwargs
) -> HermitianPreservingMap:
    """The map with action ``fn`` from ``d_in x d_in`` to ``d_out x d_out``."""
    return HermitianPreservingMap(d_in=d_in, d_out=d_out, action=fn, **kwargs)


def map_apply(m: HermitianPreservingMap, x) -> np.ndarray:
    """Apply the map to an operator."""
    a = _as_square(x)
    if a.shape[0] != m.d_in:
        raise DimensionError(f"input dim {a.shape[0]} != map d_in {m.d_in}")
    return _act(m, a)


@dataclass(frozen=True)
class QueryGenerator:
    """Hermitian generator ``Nhat`` of memory-usage queries, hermitized on creation."""

    n_hat: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        n_hat = hermitize(self.n_hat)
        if n_hat.shape[0] != self.d_in * self.d_out:
            raise DimensionError("generator dimension does not match d_in*d_out")
        n_hat.setflags(write=False)
        object.__setattr__(self, "n_hat", n_hat)

    @classmethod
    def from_map(cls, m: HermitianPreservingMap) -> "QueryGenerator":
        """``Nhat`` from the action: ``N(|j><k|)`` fills block ``[k, :, j, :]``.

        Same bits as symmetrizing the Choi matrix, then transposing it: the
        transpose only permutes entries, and ``hermitize``'s
        ``(a_P + conj(a_P')) / 2`` meets each entry with the same mirror
        partner in the same order, so its largest deviation is the same number
        too.  Hermitizing the result again would return its bits (see ``herm_exp``).
        """
        d_in, d_out = m.d_in, m.d_out
        n_hat4 = np.zeros((d_in, d_out, d_in, d_out), dtype=complex)
        unit = np.zeros((d_in, d_in), dtype=complex)
        for j, k in np.ndindex(d_in, d_in):
            unit[j, k] = 1.0
            n_hat4[k, :, j, :] = _act(m, unit)
            unit[j, k] = 0.0
        return cls(n_hat=n_hat4.reshape(d_in * d_out, d_in * d_out), d_in=d_in, d_out=d_out)

    @functools.cached_property
    def eigh(self):
        """``np.linalg.eigh(n_hat)``, computed on first read and shared by
        every query built from this generator (see ``herm_exp``)."""
        w, v = np.linalg.eigh(self.n_hat)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def unitary(self, s: float) -> np.ndarray:
        """Read-only ``exp(-i Nhat s)``, ``herm_exp`` over ``eigh``.

        The last duration's unitary is kept, in one slot keyed on the bits of
        ``s`` (so ``-0.0`` and ``0.0`` stay apart): every step of a run queries
        its generator at one duration, and a schedule of varying durations
        then holds one unitary, not one per step.
        """
        key = float(s).hex()
        last = self.__dict__.get("_unitary")
        if last is None or last[0] != key:
            u = herm_exp(self.n_hat, float(s), self.eigh)
            u.setflags(write=False)
            last = self.__dict__["_unitary"] = (key, u)
        return last[1]


@dataclass(frozen=True)
class MemoryCallSpec:
    """One state-instructed unitary ``exp(i * duration * N(instruction))``.

    ``extra_instruction`` extends the instruction register: the map is fed
    ``state (x) extra_instruction`` instead of the bare recursion state, which
    is how lifted two-register maps (products of the state with a fixed
    resource state) are expressed.
    """

    map: HermitianPreservingMap
    duration: float = 1.0
    extra_instruction: Optional[DensityMatrix] = None

    def __post_init__(self):
        if not np.isfinite(self.duration):
            raise InvariantError("duration must be finite")

    def instruction_matrix(self, state: DensityMatrix) -> np.ndarray:
        if self.extra_instruction is None:
            mat = state.matrix
        else:
            mat = kron(state.matrix, self.extra_instruction.matrix)
        if mat.shape[0] != self.map.d_in:
            raise DimensionError(
                f"instruction dim {mat.shape[0]} != map d_in {self.map.d_in}"
            )
        return mat


# ---------------------------------------------------------------------------
# Map constructors


def make_identity_map(dim: int) -> HermitianPreservingMap:
    """The identity map; its query generator is the swap operator."""
    return make_scaled_identity_map(-1.0, dim)


def make_scaled_identity_map(alpha: float, dim: int) -> HermitianPreservingMap:
    """The map ``rho -> -alpha * rho``; generator ``-alpha * SWAP``."""
    a = float(alpha)
    return map_from_function(lambda x: -a * x, dim, dim)


def make_commutator_map(d, s: float) -> HermitianPreservingMap:
    """The map ``rho -> -i s [d, rho]`` for Hermitian ``d``."""
    dd, ss = hermitize(d), float(s)
    dim = dd.shape[0]
    return map_from_function(
        lambda x: -1j * ss * (dd @ x - x @ dd), dim, dim, commutator_form=(dd, ss)
    )


def _validated_diagonal(d) -> tuple[np.ndarray, np.ndarray]:
    """Hermitized ``d`` and its real diagonal; ``d`` must be diagonal with
    pairwise distinct entries."""
    dd = hermitize(d)
    if np.max(np.abs(dd - np.diag(np.diag(dd)))) > 1e-12:
        raise InvariantError("instruction operator must be diagonal")
    mu = np.real(np.diag(dd)).copy()
    gaps = np.abs(mu[:, None] - mu[None, :]) + np.eye(len(mu))
    if gaps.min() <= 1e-12:
        raise InvariantError("diagonal instruction operator must be non-degenerate")
    return dd, mu


def make_osd_map(d_a, s: float, dims: tuple[int, int]) -> HermitianPreservingMap:
    """The map ``rho_AB -> -i s [d_a, Tr_B rho_AB] (x) 1_B``.

    ``d_a`` must be diagonal with pairwise distinct entries.
    """
    da, db = int(dims[0]), int(dims[1])
    dd, _ = _validated_diagonal(d_a)
    if dd.shape[0] != da:
        raise DimensionError(f"diagonal operator dim {dd.shape[0]} != {da}")
    ss = float(s)
    eye_b = np.eye(db, dtype=complex)

    def fn(x):
        xa = np.trace(x.reshape(da, db, da, db), axis1=1, axis2=3)
        return kron(-1j * ss * (dd @ xa - xa @ dd), eye_b)

    return map_from_function(fn, da * db, da * db)


def make_pair_commutator_map(dim: int, s: float) -> HermitianPreservingMap:
    """Degree-two lift of ``(rho, chi) -> -i s [rho, chi]`` to one linear map.

    The map acts on the doubled register and satisfies
    ``N(rho (x) chi) = -i s (rho chi - chi rho)``; on matrix units it
    contracts the two factors into an ordinary operator product, once in each
    order.
    """
    d = int(dim)
    ss = float(s)

    def fn(x):
        # x indexes as x4[v1, v2, w1, w2] over the doubled register.
        x4 = x.reshape(d, d, d, d)
        # |v1><w1| (x) |v2><w2|  ->  <w1|v2> |v1><w2|   (first * second)
        first_second = np.einsum("paaq->pq", x4)
        # |v1><w1| (x) |v2><w2|  ->  <w2|v1> |v2><w1|   (second * first)
        second_first = np.einsum("apqa->pq", x4)
        return -1j * ss * (first_second - second_first)

    return map_from_function(fn, d * d, d)


# ---------------------------------------------------------------------------
# Channels


def exact_memory_call(
    call: MemoryCallSpec, instruction: DensityMatrix, working: DensityMatrix
) -> DensityMatrix:
    """Apply ``exp(i * duration * N(instruction))`` to the working state."""
    if working.dim != call.map.d_out:
        raise DimensionError(f"working dim {working.dim} != map d_out {call.map.d_out}")
    u = herm_exp(map_apply(call.map, call.instruction_matrix(instruction)), -call.duration)
    return DensityMatrix(u @ working.matrix @ u.conj().T, working.factor_dims)


def unfolded_memory_call(
    call: MemoryCallSpec, instruction: DensityMatrix, working: DensityMatrix, substeps: int
) -> DensityMatrix:
    """Memoryless ``exp(i * duration * N(instruction))`` for ``N = -i s [d, .]``:
    the call is ``exp(flow [d, rho])``, ``flow = duration * s > 0``, applied as
    ``substeps`` group commutators with error O(flow^1.5 / sqrt(substeps))."""
    if call.map.commutator_form is None or call.extra_instruction is not None:
        raise UnsupportedSpecError(
            "unfolding a non-covariant recursion needs commutator-form memory-calls"
        )
    d_op, s_map = call.map.commutator_form
    flow = call.duration * s_map
    if not flow > 0:
        raise UnsupportedSpecError("group-commutator unfolding needs positive flow")
    gc = group_commutator(instruction.matrix, -d_op, flow / substeps)
    u = np.eye(instruction.dim, dtype=complex)
    for _ in range(substeps):
        u = gc @ u
    return DensityMatrix(u @ working.matrix @ u.conj().T, working.factor_dims)


def queried_memory_call(
    call: MemoryCallSpec, instruction: DensityMatrix, working: DensityMatrix, m: int
) -> DensityMatrix:
    """``exp(i * duration * N(instruction))`` by ``m`` queries of total duration
    ``-duration``, each consuming a copy of the instruction register as memory."""
    memory = DensityMatrix(call.instruction_matrix(instruction), factor_dims=(call.map.d_in,))
    return repeated_queries(call.map.generator, memory, working, -call.duration, m)


def exact_query_channel(
    m: HermitianPreservingMap, memory: DensityMatrix, working: DensityMatrix, s: float
) -> DensityMatrix:
    """The unitary channel that memory-usage queries of total duration ``s``
    converge to: conjugation by ``exp(-i s N(memory))``."""
    return exact_memory_call(MemoryCallSpec(map=m, duration=-s), memory, working)


def _check_query_dims(gen: QueryGenerator, memory: DensityMatrix, working: DensityMatrix):
    if memory.dim != gen.d_in or working.dim != gen.d_out:
        raise DimensionError(
            f"memory/working dims ({memory.dim},{working.dim}) do not match "
            f"generator ({gen.d_in},{gen.d_out})"
        )


def memory_usage_query(
    gen: QueryGenerator, memory: DensityMatrix, working: DensityMatrix, s: float
) -> DensityMatrix:
    """One query: consume a memory copy, evolve the working state.

    Computes ``Tr_1[exp(-i Nhat s) (memory (x) working) exp(+i Nhat s)]``.
    """
    _check_query_dims(gen, memory, working)
    w = herm_exp(gen.n_hat, float(s))
    joint = w @ kron(memory.matrix, working.matrix) @ w.conj().T
    d_in, d_out = gen.d_in, gen.d_out
    out = np.trace(joint.reshape(d_in, d_out, d_in, d_out), axis1=0, axis2=2)
    return DensityMatrix(out, working.factor_dims)


def dme_query(memory: DensityMatrix, working: DensityMatrix, s: float) -> DensityMatrix:
    """Swap-generated query in closed form:
    ``cos^2(s) sigma - i sin(s)cos(s) [rho, sigma] + sin^2(s) rho``."""
    if memory.dim != working.dim:
        raise DimensionError(f"dim mismatch {memory.dim} vs {working.dim}")
    c, sn = np.cos(float(s)), np.sin(float(s))
    rho, sigma = memory.matrix, working.matrix
    out = c * c * sigma - 1j * sn * c * (rho @ sigma - sigma @ rho) + sn * sn * rho
    return DensityMatrix(out, working.factor_dims)


def query_superoperator(gen: QueryGenerator, memory: DensityMatrix, s: float) -> np.ndarray:
    """Matrix of one query as a linear map on vectorized working states.

    Row-major vectorization; the returned matrix has shape
    ``(d_out^2, d_out^2)``.  Building it once and applying it repeatedly is
    how large query counts stay cheap.

    With ``W = exp(-i Nhat s)`` indexed ``W[(a,k),(m,i)]`` (memory ``a, m``,
    working ``k, i``) and ``A[(k,i),(a,m)] = W[(a,k),(m,i)]``, the entry for
    output ``(k,l)`` and input ``(i,j)`` is ``G[(k,i),(l,j)]`` of the Gram
    product ``G = A (1 (x) rho) A^dag``: one ``A @ rho`` and one ``zgemm``
    against ``A^dag``.  The superoperator is then set to its mean with its
    mirror (``_mirror_mean``; entrywise the same ``(G + G^dag) / 2``), so it
    preserves Hermiticity by construction:
    ``sup4[k,l,i,j] == conj(sup4[l,k,j,i])`` bit for bit.  A matvec with it
    leaves only its own summation-order roundoff off the adjoint.
    """
    d_in, d_out = gen.d_in, gen.d_out
    a = gen.unitary(s).reshape(d_in, d_out, d_in, d_out).transpose(1, 3, 0, 2)
    a = a.reshape(d_out * d_out, d_in * d_in)
    # A rho A^dag = conj(conj(A rho) A^T), so no conjugated copy of A is held;
    # rebinding g frees A rho once the zgemm returns.
    g = (a.reshape(-1, d_in) @ memory.matrix).reshape(a.shape)
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
    p4 /= 2
    return p


def repeated_queries(
    gen: QueryGenerator, memory: DensityMatrix, working: DensityMatrix, s: float, m: int
) -> DensityMatrix:
    """Apply ``m`` queries of duration ``s/m`` with fresh identical memory.

    The block is ``sup^m`` on the vectorized working state, ``sup`` being one
    query's ``(d^2, d^2)`` superoperator (``d = d_out``), realized as either

    * ``m`` matvecs, each ``sup.dot(vec)``: the same BLAS ``zgemv`` as
      ``sup @ vec``, with the same bits, without the matmul ufunc dispatch,
      which costs more than the product itself at small ``d``; or
    * binary exponentiation, when ``2 log2(m) d^2 < m``: ``m.bit_length() - 1``
      squarings (``d^6`` each against a matvec's ``d^4``) plus one matvec per
      set bit of ``m``, lowest first.  Each square is set to its mean with its
      mirror, as in ``query_superoperator``, so every power preserves
      Hermiticity exactly.

    With BLAS at one thread the two cost the same near ``m = 2 log2(m) d^2``
    at ``d = 2, 3`` and near half that at ``d = 4 .. 16``.  Both are as close
    to the exact block, and both amplify ``sup``'s own trace defect ``m``-fold,
    which is the trace drift of long blocks.
    """
    m = int(m)
    if m < 1:
        raise InvariantError("query count must be >= 1")
    _check_query_dims(gen, memory, working)
    d = gen.d_out
    sup = query_superoperator(gen, memory, float(s) / m)
    vec = working.matrix.reshape(-1)
    if 2 * m.bit_length() * d * d < m:
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
    out = vec.reshape(working.dim, working.dim)
    return DensityMatrix(out, working.factor_dims)


def group_commutator(a, b, s: float) -> np.ndarray:
    """``exp(-i sqrt(s) b) exp(-i sqrt(s) a) exp(+i sqrt(s) b) exp(+i sqrt(s) a)``.

    Approximates ``exp(s [a, b])`` with operator-norm error bounded by
    ``s^1.5 (||[a,[a,b]]|| + ||[b,[b,a]]||)``.
    """
    if not s > 0:
        raise InvariantError("group commutator step must be positive")
    aa, bb = hermitize(a), hermitize(b)
    if aa.shape != bb.shape:
        raise DimensionError(f"shape mismatch {aa.shape} vs {bb.shape}")
    r = np.sqrt(float(s))
    ea, eb = np.linalg.eigh(aa), np.linalg.eigh(bb)
    return herm_exp(bb, r, eb) @ herm_exp(aa, r, ea) @ herm_exp(bb, -r, eb) @ herm_exp(aa, -r, ea)


def channel_error_probe(
    gen: QueryGenerator,
    map_spec: HermitianPreservingMap,
    memory: DensityMatrix,
    s: float,
    m: int,
    n_samples: int,
    seed,
) -> float:
    """Sampled lower bound on the trace-norm distance between ``m`` repeated
    queries and the exact unitary channel they approximate.

    Maximizes the output distance over seeded random pure working states, so
    the value reported never exceeds the true channel distance.
    """
    if n_samples < 1:
        raise InvariantError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(n_samples)):
        working = random_pure(gen.d_out, rng.integers(2**63)).density()
        approx = repeated_queries(gen, memory, working, s, m)
        exact = exact_query_channel(map_spec, memory, working, s)
        worst = max(worst, trace_distance(approx.matrix, exact.matrix))
    return worst


def query_error_bound(gen: QueryGenerator, s: float, m: int) -> tuple[float, bool]:
    """Analytic ceiling ``4 ||Nhat||^2 s^2 / m`` on the repeated-query error,
    and whether ``||Nhat|| |s| / m`` falls in the window where it is asserted."""
    norm = op_norm(gen.n_hat)
    bound = 4.0 * norm * norm * float(s) * float(s) / int(m)
    within = 0.0 < norm * abs(float(s)) / int(m) <= 0.8
    return bound, within
