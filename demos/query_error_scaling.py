"""Error behavior of memory-usage queries.

One query of duration s approximates the instructed unitary to O(s^2), with
the analytic ceiling 8 |Nhat|^2 s^2 inside the window |Nhat| s <= 0.8.
Splitting a duration over m queries therefore costs 4 |Nhat|^2 s^2 / m in
total.  The probe below samples random working states and reports the worst
output distance, a guaranteed lower bound on the channel distance, so
measured values sit under the ceiling.
"""

import numpy as np

from qdpsim import (
    QueryGenerator,
    channel_error_probe,
    make_commutator_map,
    make_identity_map,
    query_error_bound,
    random_density,
)


def main():
    print("== swap-generated queries (density-matrix exponentiation) ==")
    mmap = make_identity_map(3)
    gen = QueryGenerator.from_map(mmap)
    memory = random_density(3, 1)
    s = 0.4
    print(f"{'m':>5} {'measured':>12} {'ceiling':>12}")
    m_values = (4, 8, 16, 32, 64, 128)
    for m, err in zip(m_values, channel_error_probe(gen, mmap, memory, s, m_values, 5, 42)):
        bound, within = query_error_bound(gen, s, m)
        tag = "" if within else "  (outside asserted window)"
        print(f"{m:>5} {err:>12.3e} {bound:>12.3e}{tag}")

    print("\n== commutator-map queries ==")
    mu = np.diag(np.linspace(0.0, 1.0, 3))
    mmap = make_commutator_map(mu, 1.0)
    gen = QueryGenerator.from_map(mmap)
    memory = random_density(3, 2)
    m_values = (4, 16, 64)
    for m, err in zip(m_values, channel_error_probe(gen, mmap, memory, s, m_values, 5, 43)):
        bound, _ = query_error_bound(gen, s, m)
        print(f"m={m:>3}: measured {err:.3e} <= ceiling {bound:.3e}")
    print("\ndoubling m halves the measured error: first-order exactness, second-order leakage.")


if __name__ == "__main__":
    main()
