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
    dev = float(np.max(np.abs(a - a_dag))) if a.size else 0.0
    if dev > HERM_ATOL:
        raise InvariantError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    if dev > HERM_WARN_ATOL:
        warnings.warn(
            f"symmetrizing matrix with Hermiticity deviation {dev:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return (a + a_dag) / 2.0


def kron(a, b) -> np.ndarray:
    """Tensor product of two operators."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(m, factor_dims, keep) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``keep`` is a sequence of 0-based factor indices; kept factors stay in
    their original order. The full trace is preserved.  ``m`` may also be a
    ``(k, d, d)`` stack of matrices, each traced as it would be alone.
    """
    a = _as_square(m, np.ndim(m) == 3)
    lead = a.shape[:-2]
    dims = _check_factor_dims(factor_dims, a.shape[-1])
    k = len(dims)
    keep = sorted(set(int(i) for i in (keep if np.iterable(keep) else [keep])))
    if any(i < 0 or i >= k for i in keep):
        raise DimensionError(f"keep indices {keep} out of range for {k} factors")
    t = a.reshape(lead + dims + dims)
    # Trace out dropped factors from the back so axis numbers stay valid.
    n_left = k
    for i in reversed(range(k)):
        if i not in keep:
            t = np.trace(t, axis1=len(lead) + i, axis2=len(lead) + i + n_left)
            n_left -= 1
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    return t.reshape(lead + (d_keep, d_keep))


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


def unit_trace(a: np.ndarray) -> np.ndarray:
    """``a`` divided by its real trace, which must be within ``TRACE_ATOL`` of one."""
    tr = float(np.real(np.trace(a)))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise InvariantError(f"trace {tr!r} is not 1 within {TRACE_ATOL}")
    return a / tr


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

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class PureState:
    """Normalized state vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise InvariantError("amplitudes contain non-finite entries")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > NORM_ATOL:
            raise InvariantError(f"norm {n!r} is not 1 within {NORM_ATOL}")
        v = v / n
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> DensityMatrix:
        return DensityMatrix(self.projector())

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
