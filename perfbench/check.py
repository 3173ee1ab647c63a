"""Correctness gate for one config run.

A run passes when ``qdpsim.cli.main`` returned 0 without raising, every
``bound_checks`` entry of its JSON report passed, and, where a committed
reference exists for the seed, every cell matches it within ``RTOL``/``ATOL``.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-8
ATOL = 1e-10
# Errors carry forward along a recursion, so every tenth step and the last
# one are enough to catch a changed trajectory.
ROW_STRIDE = 10

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"seed-{seed}.json")


def load_references(workload: str, seed: int) -> dict | None:
    """``{config name: reference entry}`` for the seed, or None if none is committed."""
    path = reference_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(doc: dict) -> dict:
    """The parts of a JSON report a reference keeps: columns, row count,
    every ``ROW_STRIDE``-th row and the last one as ``[index, row]`` pairs,
    and the bound checks.  Metadata holds the machine-specific output path
    and is left out."""
    n = len(doc["rows"])
    kept = [[i, row] for i, row in enumerate(doc["rows"]) if i % ROW_STRIDE == 0 or i == n - 1]
    return {"columns": doc["columns"], "n_rows": n, "rows": kept,
            "bound_checks": doc["bound_checks"]}


def _as_float(cell):
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def cells_match(got, want, rtol: float = RTOL, atol: float = ATOL) -> bool:
    """Equal cells match.  Otherwise both must be finite numbers within
    ``atol + rtol * |want|``; integers past the float range (unfolding
    depths) must therefore be equal."""
    if got == want:
        return True
    g, w = _as_float(got), _as_float(want)
    if g is None or w is None or not (math.isfinite(g) and math.isfinite(w)):
        return False
    return abs(g - w) <= atol + rtol * abs(w)


def compare_report(doc: dict, ref: dict, rtol: float = RTOL, atol: float = ATOL) -> list[str]:
    """Differences between a report and its reference entry (see
    ``reference_entry``); empty when they agree."""
    if doc["columns"] != ref["columns"]:
        return [f"columns {doc['columns']} != {ref['columns']}"]
    if len(doc["rows"]) != ref["n_rows"]:
        return [f"{len(doc['rows'])} rows != {ref['n_rows']}"]
    out = []
    for i, want_row in ref["rows"]:
        for col, got, want in zip(doc["columns"], doc["rows"][i], want_row):
            if not cells_match(got, want, rtol, atol):
                out.append(f"row {i} {col}: {got} != {want}")
    got_checks = {c["name"]: c for c in doc["bound_checks"]}
    for want in ref["bound_checks"]:
        got = got_checks.get(want["name"])
        if got is None:
            out.append(f"bound check {want['name']} missing")
            continue
        for key in ("measured", "bound", "passed"):
            if not cells_match(got[key], want[key], rtol, atol):
                out.append(f"bound check {want['name']} {key}: {got[key]} != {want[key]}")
    if len(got_checks) != len(ref["bound_checks"]):
        out.append(f"{len(got_checks)} bound checks != {len(ref['bound_checks'])}")
    return out


def failed_bounds(doc: dict) -> list[str]:
    return [c["name"] for c in doc["bound_checks"] if not c["passed"]]
