"""Dense complex linear algebra for small multi-register quantum systems.

Operators are plain complex ndarrays in row-major computational-basis
ordering.  The tensor-factor structure of a register is never inferred from
the matrix shape: the partial operations take a tuple of factor dimensions
as an argument.

Matrix exponentials of Hermitian generators go through the spectral
decomposition, so the results are unitary to roundoff regardless of the
generator norm.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DimensionError, InvariantError

# Hermiticity handling, in ``hermitize`` only (states and generators alike,
# with no per-call override): deviations up to HERM_WARN_ATOL
# are symmetrized silently, deviations in (HERM_WARN_ATOL, HERM_ATOL] are
# symmetrized with a warning, anything larger is rejected.
HERM_ATOL = 1e-10
HERM_WARN_ATOL = 1e-12

TRACE_ATOL = 1e-10
# ``DensityMatrix`` clips eigenvalues in [-EIG_CLIP_MAX, -EIG_CLIP_ATOL) to zero
# and rejects lower ones: a state that far from positive is broken, not rounded.
EIG_CLIP_ATOL = 1e-10
EIG_CLIP_MAX = 1e-8
NORM_ATOL = 1e-10


def _as_matrix(m, stacked: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 + stacked:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InvariantError("matrix contains non-finite entries")
    return a


def _as_square(m, stacked: bool = False) -> np.ndarray:
    a = _as_matrix(m, stacked)
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_factor_dims(factor_dims, dim: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in factor_dims)
    if not dims or any(d < 1 for d in dims):
        raise DimensionError(f"factor dims must be positive, got {dims}")
    if math.prod(dims) != dim:
        raise DimensionError(f"factor dims {dims} do not multiply to {dim}")
    return dims


def hermitize(m) -> np.ndarray:
    """Return the Hermitian part of ``m``, rejecting genuinely non-Hermitian input.

    Deviations in the (HERM_WARN_ATOL, HERM_ATOL] window are symmetrized with a
    warning; accumulated roundoff over long channel compositions lands there.
    """
    a = _as_square(m)
    a_dag = a.conj().T
    check_hermitian(a, a_dag)
    return (a + a_dag) / 2.0


def check_hermitian(a: np.ndarray, a_dag: np.ndarray) -> None:
    """``hermitize``'s rule on ``a`` (a matrix, or a stack of them) against its
    adjoint ``a_dag``: a deviation past HERM_ATOL is rejected, one past
    HERM_WARN_ATOL is warned about."""
    dev = float(abs(a - a_dag).max()) if a.size else 0.0
    if dev > HERM_ATOL:
        raise InvariantError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    if dev > HERM_WARN_ATOL:
        warnings.warn(
            f"symmetrizing matrix with Hermiticity deviation {dev:.3e}",
            RuntimeWarning,
            stacklevel=3,
        )


def kron(a, b) -> np.ndarray:
    """Tensor product of two operators."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(m, factor_dims, keep) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``keep`` is a sequence of 0-based factor indices; kept factors stay in
    their original order. The full trace is preserved.
    """
    a = _as_square(m)
    dims = _check_factor_dims(factor_dims, a.shape[0])
    k = len(dims)
    keep = sorted(set(int(i) for i in (keep if np.iterable(keep) else [keep])))
    if any(i < 0 or i >= k for i in keep):
        raise DimensionError(f"keep indices {keep} out of range for {k} factors")
    t = a.reshape(dims + dims)
    # Trace out dropped factors from the back so axis numbers stay valid.
    n_left = k
    for i in reversed(range(k)):
        if i not in keep:
            t = np.trace(t, axis1=i, axis2=i + n_left)
            n_left -= 1
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    return t.reshape(d_keep, d_keep)


def herm_exp(h, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian ``h`` via spectral decomposition."""
    w, v = np.linalg.eigh(hermitize(h))
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T


def trace_distance(a, b):
    """Half the trace norm of ``a - b``, via singular values.

    ``a`` may also be a ``(k, d, d)`` stack of matrices: the result is then
    the array of the ``k`` distances to ``b``, from one batched ``svd``, each
    with the bits of the distance of its matrix alone."""
    aa, bb = _as_square(a, np.ndim(a) == 3), _as_square(b)
    if aa.shape[-2:] != bb.shape:
        raise DimensionError(f"shape mismatch {aa.shape[-2:]} vs {bb.shape}")
    dist = np.sum(np.linalg.svd(aa - bb, compute_uv=False), axis=-1) / 2.0
    return dist if aa.ndim == 3 else float(dist)


def pure_distance(psi: "PureState", tau: "PureState") -> float:
    """Trace distance between two pure states, ``sqrt(1 - |<tau|psi>|^2)``,
    as the stable ``||psi - <tau|psi> tau||``."""
    v, t = psi.amplitudes, tau.amplitudes
    return float(np.linalg.norm(v - np.vdot(t, v) * t))


def unitary_on(u: np.ndarray, working: np.ndarray) -> np.ndarray:
    """The unitary ``u`` applied to a register: ``u v`` to a state vector,
    ``u w u^dag`` to a matrix."""
    return u @ working if working.ndim == 1 else u @ working @ u.conj().T


def unit_trace(a: np.ndarray) -> np.ndarray:
    """``a`` divided by its real trace, which must be within ``TRACE_ATOL`` of one."""
    tr = float(np.real(np.trace(a)))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise InvariantError(f"trace {tr!r} is not 1 within {TRACE_ATOL}")
    return a / tr


def unit_norm(v: np.ndarray) -> np.ndarray:
    """``v`` divided by its norm, which must be within ``NORM_ATOL`` of one."""
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > NORM_ATOL:
        raise InvariantError(f"norm {n!r} is not 1 within {NORM_ATOL}")
    return v / n


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(_as_matrix(a)))


def op_norm(a) -> float:
    """Operator norm of a Hermitian matrix: largest absolute eigenvalue."""
    h = hermitize(a)
    if h.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


class DensityMatrix:
    """Validated quantum state.

    Construction symmetrizes the matrix, requires the trace to be within
    ``TRACE_ATOL`` of one, and clips eigenvalues below ``-EIG_CLIP_ATOL`` to
    zero (renormalizing and recording the clip magnitude), down to
    ``-EIG_CLIP_MAX``; a lower eigenvalue is rejected.  The stored matrix
    is read-only, and so are its ``eigenvalues``: ``eigvalsh`` of the stored
    matrix, ascending, the spectrum that decided the clip (computed again
    after a clip), which diagnostics read instead of decomposing the state
    again.
    """

    __slots__ = ("matrix", "clip_magnitude", "eigenvalues")

    def __init__(self, matrix):
        a = hermitize(matrix)
        clip = 0.0
        # Equal to its adjoint after ``hermitize`` and a real trace division.
        out = unit_trace(a)
        # ``eigvalsh`` decides (ascending); the eigenvectors are computed only to clip.
        w = np.linalg.eigvalsh(out)
        if w[0] < -EIG_CLIP_ATOL:
            if w[0] < -EIG_CLIP_MAX:
                raise InvariantError(f"eigenvalue {w[0]:.3e} is below -{EIG_CLIP_MAX}")
            w, v = np.linalg.eigh(a)
            clip = float(-w.min())
            w = np.clip(w, 0.0, None)
            a = (v * w) @ v.conj().T
            out = a / np.real(np.trace(a))
            out = (out + out.conj().T) / 2.0
            w = np.linalg.eigvalsh(out)
        out.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "matrix", out)
        object.__setattr__(self, "clip_magnitude", clip)
        object.__setattr__(self, "eigenvalues", w)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def density(self) -> "DensityMatrix":
        return self

    def expectation(self, h: np.ndarray) -> float:
        """``Re Tr(h rho)`` for a Hermitian ``h``."""
        return float(np.real(np.trace(h @ self.matrix)))

    def fidelity(self, tau: "PureState") -> float:
        """``Re <tau|rho|tau>``."""
        t = tau.amplitudes
        return float(np.real(np.vdot(t, self.matrix @ t)))

    def reduced(self, dims) -> np.ndarray:
        """``Tr_B rho`` for ``dims = (d_A, d_B)`` (``partial_trace``)."""
        return partial_trace(self.matrix, dims, keep=[0])

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class PureState:
    """Normalized state vector.

    It reads as a state where diagnostics read a ``DensityMatrix``: its
    ``matrix`` is the projector ``|psi><psi|``, formed on each read and not
    kept, and its ``eigenvalues`` are ``dim - 1`` zeros and a one, ascending.
    Both state types answer ``density``, ``expectation``, ``fidelity`` and
    ``reduced``, a pure state from its vector, with no projector formed.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise InvariantError("amplitudes contain non-finite entries")
        v = unit_norm(v)
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def matrix(self) -> np.ndarray:
        """The projector ``|psi><psi|``, a fresh ``dim x dim`` array."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    @property
    def eigenvalues(self) -> np.ndarray:
        w = np.zeros(self.dim)
        w[-1] = 1.0
        return w

    def density(self) -> DensityMatrix:
        return DensityMatrix(self.matrix)

    def expectation(self, h: np.ndarray) -> float:
        """``Re <psi|h|psi>`` for a Hermitian ``h``."""
        v = self.amplitudes
        return float(np.real(np.vdot(v, h @ v)))

    def fidelity(self, tau: "PureState") -> float:
        """``|<tau|psi>|^2``."""
        return float(abs(np.vdot(tau.amplitudes, self.amplitudes))) ** 2

    def reduced(self, dims) -> np.ndarray:
        """``Tr_B |psi><psi|`` for ``dims = (d_A, d_B)``: ``M M^dag`` for
        ``psi`` as a ``d_A x d_B`` matrix ``M``, made exactly Hermitian as
        ``(r + r^dag) / 2``, so a commutator scaling it by a large step does
        not scale a roundoff asymmetry past ``hermitize``'s tolerance."""
        d_a, d_b = dims
        if d_a * d_b != self.dim:
            raise DimensionError(f"factor dims {tuple(dims)} do not multiply to {self.dim}")
        m = self.amplitudes.reshape(d_a, d_b)
        r = m @ m.conj().T
        return (r + r.conj().T) / 2.0

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self):
        return f"PureState(dim={self.dim})"


def random_density(dim: int, seed) -> DensityMatrix:
    """Seed-deterministic full-rank random state (normalized Ginibre square)."""
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.real(np.trace(rho)))


def random_pure(dim: int, seed) -> PureState:
    """Seed-deterministic Haar-like random pure state."""
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))
