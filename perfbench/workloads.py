"""Seeded workload generator: the experiment configs each workload runs.

A workload is a fixed list of ``qdpsim run`` configs.  The seed goes into
every config's ``seed`` field, so it picks the random initial states and
Hamiltonians while sizes, step counts and query budgets stay fixed.  The
program sees only the JSON files written by ``write_configs``.

Work counts (recursion steps, elementary queries) follow from the configs
alone, so the benchmark can report rates without tracing the program.
"""

from __future__ import annotations

import json
import os

DEFAULT_SEED = 7

# One sentence per workload: why it is in the benchmark and what it isolates.
WHY = {
    "query-build": (
        "Time goes into building each step's query channel (query_superoperator: "
        "eigh of an Nhat of dim 144/256/512 plus einsum), so an Nhat eigh cache "
        "and BLAS contractions must show here."
    ),
    "query-apply": (
        "The same channels layer used the other way: builds are trivial (d<=8) and "
        "the m-fold matvec loop in repeated_queries dominates, so repeated squaring "
        "and the DME closed form must show here and build-side changes must not cost."
    ),
    "memoryless": (
        "The query layer does zero work; time goes to exact calls, DensityMatrix "
        "validation, Choi builds, herm_exp and group commutators, so a query-layer "
        "change must show no change here."
    ),
}

_IMR = {"reduction_factor": 2.0, "copies_out": 64}


def _cfg(name, scenario, strategy, params):
    return name, {"scenario": scenario, "strategy": strategy, "params": params}


def _specs(workload: str) -> list:
    if workload == "query-build":
        return [
            _cfg("qite-qdp", "qite", {"kind": "qdp", "m": 256, "imr": _IMR},
                 {"model": "heisenberg_chain", "n_qubits": 3, "n_steps": 10}),
            _cfg("dbi-qdp", "dbi", {"kind": "qdp", "m": 64}, {"dim": 16, "n_steps": 10}),
            _cfg("osd-qdp", "osd", {"kind": "qdp", "m": 32}, {"dims": [2, 6], "n_steps": 100}),
            _cfg("dbi-hybrid", "dbi", {"kind": "hybrid", "n1": 5, "n2": 5, "m": 64},
                 {"dim": 12, "n_steps": 10}),
        ]
    if workload == "query-apply":
        return [
            _cfg("grover-qdp", "grover", {"kind": "qdp", "m": 2**18},
                 {"L": 2, "dim": 4, "n_steps": 3, "delta0": 0.6}),
            _cfg("grover-hybrid", "grover", {"kind": "hybrid", "n1": 1, "n2": 3, "m": 2**16},
                 {"L": 1, "dim": 8, "n_steps": 4, "delta0": 0.6}),
            _cfg("channel-error-dme", "channel-error", {"kind": "exact"},
                 {"dim": 4, "map": "dme", "s": 0.5,
                  "m_values": [4**k for k in range(9)], "n_samples": 8}),
            _cfg("dbi-qdp", "dbi", {"kind": "qdp", "m": 8192}, {"dim": 4, "n_steps": 20}),
        ]
    if workload == "memoryless":
        return [
            _cfg("dbi-unfolding", "dbi", {"kind": "unfolding", "gc_substeps": 4},
                 {"dim": 8, "n_steps": 1000}),
            _cfg("osd-exact", "osd", {"kind": "exact"}, {"dims": [4, 4], "n_steps": 1500}),
            _cfg("qite-exact", "qite", {"kind": "exact"},
                 {"model": "heisenberg_chain", "n_qubits": 3, "n_steps": 400}),
            _cfg("grover-exact", "grover", {"kind": "exact"},
                 {"L": 3, "dim": 32, "n_steps": 3, "delta0": 0.6}),
            _cfg("dbi-exact", "dbi", {"kind": "exact"}, {"dim": 12, "n_steps": 600}),
            _cfg("grover-unfolding", "grover", {"kind": "unfolding"},
                 {"L": 2, "dim": 16, "n_steps": 4, "delta0": 0.6}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


def configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """``(name, config)`` pairs of one workload at one seed."""
    out = []
    for name, spec in _specs(workload):
        raw = {"schema_version": 1, "seed": int(seed), **spec}
        out.append((name, raw))
    return out


def write_configs(workload: str, seed: int, config_dir: str, output_dir: str) -> list[tuple[str, str]]:
    """Write the workload's configs as JSON files; return ``(name, path)`` pairs.

    Each config directs its report, in JSON, to ``output_dir/<name>.json``.
    """
    os.makedirs(config_dir, exist_ok=True)
    os.makedirs(output_dir, exist_ok=True)
    paths = []
    for name, raw in configs(workload, seed):
        raw = dict(raw, output={"path": os.path.join(output_dir, name + ".json"),
                                "format": "json"})
        path = os.path.join(config_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=2, sort_keys=True)
        paths.append((name, path))
    return paths


def steps(raw: dict) -> int:
    """Recursion steps one config runs (0 for the channel-error probe)."""
    if raw["scenario"] == "channel-error":
        return 0
    return int(raw["params"]["n_steps"])


def queries(raw: dict) -> int:
    """Elementary memory-usage queries one config simulates: ``n_steps * m``
    for a qdp run, ``n2 * m`` for hybrid, ``m * n_samples`` per channel probe."""
    strategy, params = raw["strategy"], raw["params"]
    if raw["scenario"] == "channel-error":
        return sum(int(m) for m in params["m_values"]) * int(params["n_samples"])
    if strategy["kind"] == "qdp":
        return int(params["n_steps"]) * int(strategy["m"])
    if strategy["kind"] == "hybrid":
        return int(strategy["n2"]) * int(strategy["m"])
    return 0
