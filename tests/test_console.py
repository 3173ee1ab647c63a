"""Console checks: each config runs through ``python -m qdpsim.cli run`` in a
subprocess, as the installed ``qdpsim`` script runs it, and each demo runs as
a script."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import qdpsim

HEADER = "step,trace_distance,mixedness,depth,width,p_success"
DEMO_DIR = pathlib.Path(__file__).parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def python(args, cwd):
    """Run ``python *args`` from ``cwd`` with the package's source on its
    path; return the finished process."""
    src = os.path.dirname(os.path.dirname(qdpsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)


def console_run(tmp_path, doc, *flags):
    """Run the config ``doc`` from ``tmp_path``, with ``flags`` after its file
    name; return the finished process."""
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    return python(["-m", "qdpsim.cli", "run", "cfg.json", *flags], tmp_path)


def test_ci_smoke_config_writes_its_report_to_stdout(tmp_path):
    # The config CI runs through the installed script; with no output.path
    # the report goes to stdout.
    doc = json.loads((DEMO_DIR / "grover.json").read_text())
    proc = console_run(tmp_path, doc)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == HEADER


def test_roundoff_pure_states_run_every_step(tmp_path):
    # A state pure to roundoff runs no purification round, so 800 purified steps run.
    doc = {"schema_version": 1, "scenario": "dbi", "seed": 7,
           "strategy": {"kind": "qdp", "m": 16, "imr": {"reduction_factor": 2.0,
                        "copies_out": 1, "failure_threshold": 0.99}},
           "params": {"dim": 2, "n_steps": 800},
           "output": {"path": "roundoff_pure.csv"}}
    proc = console_run(tmp_path, doc)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "roundoff_pure.csv").read_text().splitlines()) == 802


def test_a_block_of_2_18_queries_runs(tmp_path):
    # A grover block of 2^18 swap queries runs in closed form.
    doc = {"schema_version": 1, "scenario": "grover", "seed": 7,
           "strategy": {"kind": "qdp", "m": 262144},
           "params": {"L": 1, "dim": 4, "n_steps": 1, "delta0": 0.6},
           "output": {"path": "long_block.csv"}}
    proc = console_run(tmp_path, doc)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "long_block.csv").read_text().splitlines()[0] == HEADER


def test_dme_error_bound_cell(tmp_path):
    # The swap map's closed-form norm gives the bound 4 ||Nhat||^2 s^2 / m = 4 (0.5)^2 / 16.
    doc = {"schema_version": 1, "scenario": "channel-error", "seed": 7,
           "params": {"dim": 4, "map": "dme", "s": 0.5, "m_values": [16]},
           "output": {"path": "dme.csv"}}
    proc = console_run(tmp_path, doc)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "dme.csv").read_text().splitlines()[-1].split(",")[3] == "0.0625"


def test_osd_query_run_on_the_a_factor(tmp_path):
    # An osd query runs on the A factor, so [8, 16] charges a 64 KiB block and runs.
    doc = {"schema_version": 1, "scenario": "osd", "seed": 7,
           "strategy": {"kind": "qdp", "m": 4},
           "params": {"dims": [8, 16], "n_steps": 1},
           "output": {"path": "osd_8x16.csv"}}
    proc = console_run(tmp_path, doc)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "osd_8x16.csv").read_text().splitlines()) == 3


def test_unfolding_rerun_is_byte_identical(tmp_path):
    # A rerun gives the same bytes through the chunked per-point diagnostics.
    doc = {"schema_version": 1, "scenario": "dbi", "seed": 7,
           "strategy": {"kind": "unfolding", "gc_substeps": 4},
           "params": {"dim": 8, "n_steps": 300}}
    for name in ("rerun_a.csv", "rerun_b.csv"):
        proc = console_run(tmp_path, doc, "--output", name)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rerun_a.csv").read_bytes() == (tmp_path / "rerun_b.csv").read_bytes()


@pytest.mark.parametrize("scenario, params", [
    ("osd", {"dims": [4, 4], "n_steps": 300}),
    ("qite", {"n_qubits": 3, "n_steps": 300}),
], ids=["osd", "qite"])
def test_pure_exact_rerun_is_byte_identical(tmp_path, scenario, params):
    # A pure run carries its state as a vector; a rerun gives the same bytes.
    doc = {"schema_version": 1, "scenario": scenario, "seed": 7,
           "strategy": {"kind": "exact"}, "params": params}
    for name in ("rerun_a.csv", "rerun_b.csv"):
        proc = console_run(tmp_path, doc, "--output", name)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rerun_a.csv").read_bytes() == (tmp_path / "rerun_b.csv").read_bytes()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    proc = python(["-W", "error::RuntimeWarning", str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
