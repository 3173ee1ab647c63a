"""Oblivious Schmidt alignment of a bipartite state.

The recursion rotates only subsystem A by e^{s [D, Tr_B rho]}, instructed by
copies of the full state through memory-usage queries on a doubled register.
The reduced state diagonalizes in the computational basis with its spectrum
sorted against the diagonal instruction operator, so the Schmidt
coefficients can be read off the diagonal at the end, without ever learning
the state.
"""

import numpy as np

from qdpsim import (
    OSDConfig,
    PureState,
    offdiag_hs_norm,
    osd_run,
    partial_trace,
    random_pure,
    schmidt_oracle,
)


def main():
    dims = (2, 3)
    psi0 = PureState(random_pure(6, 9).amplitudes)
    cfg = OSDConfig(
        dims=dims,
        diagonal=np.diag(np.arange(2, dtype=float)),
        initial=psi0,
        n_steps=40,
        m_queries=64,
    )
    record, estimate = osd_run(cfg)

    print(f"bipartite state on {dims[0]}x{dims[1]}, {cfg.n_steps} steps, "
          f"{cfg.m_queries} queries per step\n")
    print(f"{'step':>4} {'off-diagonal norm of Tr_B rho':>30}")
    for n in (0, 1, 2, 5, 10, 20, 40):
        offd = offdiag_hs_norm(partial_trace(record.points[n].state.matrix, dims, keep=[0]))
        print(f"{n:>4} {offd:>30.3e}")

    oracle = schmidt_oracle(psi0, dims)
    print(f"\nSchmidt spectrum estimate: {np.sort(estimate)[::-1].round(6)}")
    print(f"eigendecomposition oracle: {oracle.round(6)}")
    print(f"max error: {np.max(np.abs(np.sort(estimate)[::-1] - oracle)):.2e}")


if __name__ == "__main__":
    main()
