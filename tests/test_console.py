"""Console checks: each config runs through ``python -m qdpsim.cli run`` in a
subprocess, as the installed ``qdpsim`` script runs it."""

import json
import os
import subprocess
import sys

import qdpsim

HEADER = "step,trace_distance,mixedness,depth,width,p_success"


def console_run(tmp_path, doc):
    """Run the config ``doc`` from ``tmp_path``; return the finished process."""
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(qdpsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "qdpsim.cli", "run", "cfg.json"], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)


def test_a_block_of_2_18_queries_runs(tmp_path):
    # A block of 2^18 queries runs by repeated squaring.
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
