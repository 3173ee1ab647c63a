"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench/tests
"""

import json
import os

import numpy as np
import pytest

import check
import qdpsim
import spans
import stats
from qdpsim import channels

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")


# --- self time ------------------------------------------------------------


def test_self_time_nested_and_back_to_back_children():
    tree = [
        (0.0, 10.0, -1),  # root
        (1.0, 3.0, 0),    # first child
        (3.0, 6.0, 0),    # second child, starts where the first ends
        (4.0, 5.0, 2),    # grandchild, inside the second child
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_cover_once_and_clips_to_parent():
    tree = [(0.0, 10.0, -1), (2.0, 5.0, 0), (4.0, 7.0, 0), (9.0, 12.0, 0)]
    # Children cover [2, 7] and [9, 10] of the parent.
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


# --- median and tail percentile -------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(range(19)) is None
    assert stats.tail_percentile(range(1, 21)) == (50.0, 10)
    assert stats.tail_percentile(range(1, 101)) == (90.0, 90)
    assert stats.tail_percentile(range(1, 1001)) == (99.0, 990)
    assert stats.tail_percentile(range(1, 100_001)) == (99.99, 99_990)


def test_summarize_reports_median_and_count():
    assert stats.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    s = stats.summarize(range(1, 101))
    assert (s["median"], s["n"], s["tail_percentile"], s["tail_value"]) == (50.5, 100, 90.0, 90)
    assert "n=3" in stats.describe("wall_s", "s", [3.0, 1.0, 2.0])


# --- flop and byte formulas -----------------------------------------------


def _naive_superoperator(w4, memory):
    """The two contractions of ``query_superoperator`` as explicit loops,
    counting complex multiply-adds."""
    d_in, d_out = w4.shape[0], w4.shape[1]
    macs = 0
    t1 = np.zeros((d_in, d_out, d_in, d_out), dtype=complex)
    for a, k, n, i in np.ndindex(d_in, d_out, d_in, d_out):
        for m in range(d_in):
            t1[a, k, n, i] += w4[a, k, m, i] * memory[m, n]
            macs += 1
    sup = np.zeros((d_out, d_out, d_out, d_out), dtype=complex)
    for k, l, i, j in np.ndindex(d_out, d_out, d_out, d_out):
        for a, n in np.ndindex(d_in, d_in):
            sup[k, l, i, j] += t1[a, k, n, i] * np.conj(w4[a, l, n, j])
            macs += 1
    return sup.reshape(d_out * d_out, d_out * d_out), macs, t1


@pytest.mark.parametrize("d_in,d_out", [(2, 2), (3, 2), (4, 2)])
def test_superop_build_formulas_match_the_computation(d_in, d_out):
    gen = channels.QueryGenerator.from_map(
        channels.map_from_function(lambda x: np.trace(x) * np.eye(d_out) / d_out, d_in, d_out)
    )
    memory = qdpsim.random_density(d_in, 3)
    w4 = qdpsim.herm_exp(gen.n_hat, 0.3).reshape(d_in, d_out, d_in, d_out)
    sup, macs, t1 = _naive_superoperator(w4, memory.matrix)
    np.testing.assert_allclose(sup, channels.query_superoperator(gen, memory, 0.3), atol=1e-12)
    assert spans.superop_build_flops(d_in, d_out) == 8 * macs
    # w4 read by both contractions, t1 written and read, memory read, result written.
    moved = 2 * w4.nbytes + 2 * t1.nbytes + memory.matrix.nbytes + sup.nbytes
    assert spans.superop_build_bytes(d_in, d_out) == moved


@pytest.mark.parametrize("d_out", [2, 3, 8])
def test_query_matvec_formulas(d_out):
    sup = np.zeros((d_out * d_out, d_out * d_out), dtype=complex)
    vec = np.zeros(d_out * d_out, dtype=complex)
    assert spans.query_matvec_flops(d_out) == 8 * sup.size
    assert spans.query_matvec_bytes(d_out) == sup.nbytes + 2 * vec.nbytes


# --- reference comparison -------------------------------------------------


def _report():
    return {
        "columns": ["step", "trace_distance", "flag"],
        "rows": [["0", "0.59999999999999998", "true"], ["1", "0.012345678901234567", "true"]],
        "bound_checks": [{"name": "b", "measured": "0.01", "bound": "0.02", "passed": True}],
    }


def _reference():
    return check.reference_entry(_report())


def test_reference_comparison_accepts_identical_and_in_tolerance_reports():
    ref = _reference()
    assert check.compare_report(_report(), ref) == []
    doc = _report()
    doc["rows"][1][1] = repr(float(_report()["rows"][1][1]) * (1 + 1e-10))
    assert check.compare_report(doc, ref) == []


def test_reference_comparison_rejects_one_cell_beyond_tolerance():
    ref = _reference()
    doc = _report()
    doc["rows"][1][1] = repr(float(_report()["rows"][1][1]) * (1 + 1e-7))
    diffs = check.compare_report(doc, ref)
    assert len(diffs) == 1 and "row 1 trace_distance" in diffs[0]


def test_reference_comparison_rejects_changed_flags_and_bound_checks():
    ref = _reference()
    doc = _report()
    doc["rows"][0][2] = "false"
    doc["bound_checks"][0]["passed"] = False
    assert len(check.compare_report(doc, ref)) == 2


def test_reference_keeps_every_tenth_row_and_the_last():
    doc = {"columns": ["step"], "rows": [[str(i)] for i in range(25)], "bound_checks": []}
    ref = check.reference_entry(doc)
    assert ref["n_rows"] == 25
    assert [i for i, _ in ref["rows"]] == [0, 10, 20, 24]
    doc["rows"].pop()
    assert check.compare_report(doc, ref) == ["24 rows != 25"]


def test_atol_governs_cells_near_zero():
    assert check.cells_match("5e-11", "0")
    assert not check.cells_match("5e-10", "0")


def test_integers_beyond_float_range_must_be_equal():
    huge = "4" + "1" * 400
    assert check.cells_match(huge, huge)
    assert not check.cells_match(huge[:-1] + "2", huge)
    assert check.cells_match("nan", "nan")
    assert not check.cells_match("inf", "1e308")


# --- tracer ---------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    original = channels.repeated_queries
    tracer = spans.Tracer(qdpsim)
    tracer.install()
    try:
        assert qdpsim.engine.repeated_queries is channels.repeated_queries is not original
        assert qdpsim.repeated_queries is channels.repeated_queries
        gen = channels.QueryGenerator.from_map(channels.make_identity_map(2))
        rho = qdpsim.random_density(2, 1)
        qdpsim.engine.repeated_queries(gen, rho, rho, 0.2, 5)
    finally:
        tracer.uninstall()
    assert channels.repeated_queries is original
    assert qdpsim.engine.repeated_queries is original
    assert "__wrapped__" not in vars(qdpsim.DensityMatrix.__init__)

    recorded = tracer.take()
    by_name = {s[0]: i for i, s in enumerate(recorded)}
    apply_idx = by_name["channels.query_apply"]
    assert recorded[apply_idx][5] == (2, 5)
    assert recorded[by_name["channels.superop_build"]][3] == apply_idx
    assert recorded[by_name["linalg.herm_exp"]][3] == by_name["channels.superop_build"]
    layers = spans.layer_metrics(recorded, 1.0)
    assert layers["channels.query_apply_n"] == 5
    assert layers["channels.superop_build_n"] == 1
    assert layers["channels.generator_n"] == 1
    assert tracer.spans == []


def test_benchmark_json_lists_every_traced_metric():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    emitted = set(spans.layer_metrics([], 1.0)) | {
        "linalg.herm_repair_n", "channels.queries_per_s", "process.cpu_util",
        "trace.overhead_frac",
    }
    assert {m["name"] for m in bench["per_layer"]} == emitted
