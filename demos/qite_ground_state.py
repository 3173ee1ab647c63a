"""Imaginary-time evolution toward a spin-chain ground state.

The double-bracket step psi -> e^{s [|psi><psi|, H]} psi lowers the energy
monotonically.  Executed with memory-usage queries it needs two instruction
registers (the state and a resource state proportional to the shifted
Hamiltonian), lifted into a single linear map on their tensor product.  The
queries leak a little purity every step; interleaving purification rounds
removes that drift and lets a modest query budget track the exact flow.
"""

import numpy as np

from qdpsim import (
    IMRConfig,
    QITEConfig,
    energy,
    ground_state,
    heisenberg_chain,
    qite_qdp_run,
    qite_recursion_spec,
    random_pure,
    run_exact,
    run_qdp,
)


def main():
    h = heisenberg_chain()
    gs, e0 = ground_state(h)
    cfg = QITEConfig(hamiltonian=h, initial=random_pure(8, 7), step_size=0.15)
    spec = qite_recursion_spec(cfg)
    n_steps, m = 10, 256

    exact = run_exact(spec, n_steps)
    plain = run_qdp(spec, n_steps, m)
    purified = qite_qdp_run(
        cfg, n_steps, m,
        imr=IMRConfig(reduction_factor=20.0, copies_out=64, failure_threshold=0.05),
    )

    def infidelity(pt):
        return 1.0 - float(np.real(np.vdot(gs.amplitudes, pt.state.matrix @ gs.amplitudes)))

    print(f"3-qubit chain, ground energy {e0:.4f}; {n_steps} steps, m={m} queries per step\n")
    print(f"{'step':>4} {'exact infid':>12} {'plain queries':>14} {'with purification':>18} {'energy (purified)':>18}")
    for n in range(n_steps + 1):
        print(
            f"{n:>4} {infidelity(exact.points[n]):>12.5f} "
            f"{infidelity(plain.points[n]):>14.5f} {infidelity(purified.points[n]):>18.5f} "
            f"{energy(purified.points[n].state, h):>18.5f}"
        )
    led = purified.final_ledger
    print(
        f"\npurified run ledger: depth={led.depth}, purification copies={led.imr_copies}, "
        f"success probability >= {led.success_probability:.4f}"
    )
    print("without purification the query noise stalls the descent; with it the run tracks the exact flow.")


if __name__ == "__main__":
    main()
