"""Shared builders for the test suite."""

import numpy as np

from qdpsim.algos import heisenberg_chain  # noqa: F401

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
SWAP_2Q = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def squares(m, d_out):
    """Whether ``repeated_queries`` runs a block of ``m`` queries on a
    ``d_out``-dimensional working state by repeated squaring (else by ``m``
    matvecs): its rule ``2 log2(m) d_out^2 < m``, pinned against the code by
    ``test_channels.TestRepeatedSquaring``."""
    return 2 * m.bit_length() * d_out**2 < m
