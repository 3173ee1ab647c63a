"""Depth/width accounting across execution strategies.

Unfolding keeps one register but pays (2L+1)^N sequential root calls; the
query-based strategy runs in depth linear in N but consumes (m+1)^N root
copies in parallel.  Splitting the recursion between the two balances the
exponentials, which is visible in the circuit size (depth times width).
Under a fixed width budget the shallowest split is not always the longest
query tail that fits: the frontier at the end brute-forces it over the
strategies' closed forms.
"""

from qdpsim import (
    ExactStrategy,
    HybridStrategy,
    QDPStrategy,
    UnfoldingStrategy,
    grover_config_from_distance,
    grover_recursion_spec,
    run_strategy,
    unfolding_cost,
)


def main():
    n_steps, m = 4, 16
    cfg = grover_config_from_distance(0.6, 1, n_steps)
    spec = grover_recursion_spec(cfg)

    print(f"search recursion, L=1, N={n_steps}, m={m} queries per step\n")
    print(f"{'strategy':<16} {'final distance':>16} {'depth':>8} {'width':>8} {'size':>10}")
    strategies = [
        ("exact", ExactStrategy()),
        ("unfolding", UnfoldingStrategy()),
        ("qdp", QDPStrategy(m=m)),
        ("hybrid 2+2", HybridStrategy(n1=2, n2=2, m=m)),
        ("hybrid 3+1", HybridStrategy(n1=3, n2=1, m=m)),
    ]
    for name, strat in strategies:
        rec = run_strategy(spec, n_steps, strat)
        led = rec.final_ledger
        print(
            f"{name:<16} {rec.points[-1].distance_to_target:>16.6e} "
            f"{led.depth:>8} {led.width:>8} {led.depth * led.width:>10}"
        )

    print("\nclosed-form unfolding root-call counts:")
    for n in range(1, n_steps + 1):
        final, total = unfolding_cost(1, n)
        print(f"  N={n}: final step {final:>4} calls, total depth {total:>5}")

    print(f"\ndepth-minimal hybrid split per width budget {m + 1}^k:")
    splits = [(n1, *HybridStrategy(n1, n_steps - n1, m).depth_width(1, 1, n_steps, True))
              for n1 in range(n_steps + 1)]
    for k in range(n_steps + 1):
        n1, depth, width = min((s for s in splits if s[2] <= (m + 1) ** k), key=lambda s: s[1:])
        print(f"  k={k}: n1={n1} n2={n_steps - n1}, depth {depth:>4}, width {width:>6}")


if __name__ == "__main__":
    main()
