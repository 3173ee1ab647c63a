import copy
import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qdpsim import (
    DBIConfig,
    PureState,
    channel_error_probe,
    cli,
    dbi_cost,
    dbi_recursion_spec,
    energy,
    engine,
    ground_state,
    make_identity_map,
    offdiag_hs_norm,
    partial_trace,
    random_density,
    run_exact,
)
from qdpsim.cli import ExperimentConfig, compare_strategies, main, run_scenario
from qdpsim.errors import ConfigError, InfeasibleConfigError, InvariantError


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def negative_eigenvalue(out):
    """``out`` with its lowest eigenvalue set to -1e-6 and its highest raised to
    keep the trace: Hermitian and of unit trace, but not a state."""
    w, v = np.linalg.eigh((out + out.conj().T) / 2)
    w[-1] += w[0] + 1e-6
    w[0] = -1e-6
    return (v * w) @ v.conj().T


def grover_doc(tmp_path, out_name="out.csv", **overrides):
    doc = {
        "schema_version": 1,
        "scenario": "grover",
        "seed": 7,
        "strategy": {"kind": "qdp", "m": 16},
        "params": {"L": 1, "n_steps": 2, "delta0": 0.6},
        "output": {"path": str(tmp_path / out_name), "format": "csv"},
    }
    doc.update(overrides)
    return doc


# A small params table of each recursion scenario.
SMALL_RECURSIONS = {
    "grover": {"L": 2, "n_steps": 1, "delta0": 0.6, "dim": 4},
    "dbi": {"dim": 3, "n_steps": 1},
    "qite": {"n_qubits": 2, "n_steps": 1},
    "osd": {"dims": [2, 3], "n_steps": 1},
}


class TestConfigValidation:
    def test_unknown_scenario_names_field(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "warp", "seed": 1})
        assert main(["run", path]) == 2

    def test_missing_seed_for_randomized_scenario(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict(
                {"schema_version": 1, "scenario": "grover", "params": {}}
            )

    def test_missing_param_mentions_field_name(self, tmp_path):
        doc = grover_doc(tmp_path)
        del doc["params"]["delta0"]
        with pytest.raises(ConfigError, match="params.delta0"):
            run_scenario(ExperimentConfig.from_dict(doc))

    def test_bad_strategy_kind(self):
        with pytest.raises(ConfigError, match="strategy.kind"):
            ExperimentConfig.from_dict(
                {
                    "schema_version": 1,
                    "scenario": "cost",
                    "strategy": {"kind": "teleport"},
                    "params": {"L": 1, "N": 1},
                }
            )

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            ExperimentConfig.from_dict({"schema_version": 99, "scenario": "cost"})


# Largest ``x`` with ``x * x`` finite: ``mu: [0, x]`` is the largest the rule accepts.
LARGEST_MU = 1.3407807929942596e154
# Configs whose ``mu`` has a squared norm past the float range.
HUGE_MU = [
    {"scenario": "dbi", "strategy": {"kind": kind},
     "params": {"dim": 2, "n_steps": 1, "mu": [0, mu]}}
    for kind in ("exact", "unfolding") for mu in (1e308, 1e160, float(np.nextafter(LARGEST_MU, 2e154)))
] + [
    {"scenario": "dbi", "strategy": {"kind": "exact"},
     "params": {"dim": 3, "n_steps": 1, "mu": [-1e154, 0, 1e154]}},
    {"scenario": "osd", "strategy": {"kind": "exact"},
     "params": {"dims": [2, 2], "n_steps": 1, "mu": [0, 1e160]}},
]


class TestExitCodes:
    def test_success(self, tmp_path):
        path = write_config(tmp_path, grover_doc(tmp_path))
        assert main(["run", path]) == 0

    def test_config_error_is_2(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "grover"})
        assert main(["run", path]) == 2

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("params.dim", {"params": {"L": 1, "n_steps": 2, "delta0": 0.6, "dim": "x"}}),
            ("seed", {"seed": "abc"}),
            ("output", {"output": "out.csv"}),
            ("params.n_qubits", {"scenario": "qite", "params": {"n_qubits": 0, "n_steps": 1}}),
            ("params.mu", {"scenario": "dbi", "params": {"dim": 3, "n_steps": 2, "mu": "abc"}}),
            ("params.mu", {"scenario": "dbi", "params": {"dim": 3, "n_steps": 2, "mu": [2, 1, 0]}}),
            # entries 1e-12 or less apart make a degenerate instruction diagonal
            ("params.mu", {"scenario": "dbi", "strategy": {"kind": "exact"},
                           "params": {"dim": 2, "n_steps": 1, "mu": [0, 1e-13]}}),
            ("params.mu", {"scenario": "dbi", "strategy": {"kind": "exact"},
                           "params": {"dim": 2, "n_steps": 1, "mu": [-1e-300, 1e-300]}}),
            ("params.mu", {"scenario": "dbi", "strategy": {"kind": "exact"},
                           "params": {"dim": 3, "n_steps": 1, "mu": [0, 1, 1.0000000000001]}}),
            ("params.mu", {"scenario": "osd", "strategy": {"kind": "exact"},
                           "params": {"dims": [2, 2], "n_steps": 1, "mu": [0, 1e-13]}}),
            # a squared norm sum mu_i^2 past the float range
            *[("params.mu", doc) for doc in HUGE_MU],
            ("params.dims", {"scenario": "osd", "params": {"dims": [2, "x"], "n_steps": 2}}),
            ("output.path", {"output": {"path": 7}}),
            ("seed", {"seed": -1}),
            ("seed", {"seed": 7.9}),
            ("strategy.m", {"strategy": {"kind": "qdp", "m": 1}}),
            ("params.m_values", {"scenario": "channel-error",
                                 "params": {"dim": 2, "s": 0.3, "m_values": [0]}}),
            ("params.n_steps", {"scenario": "dbi", "params": {"dim": 3, "n_steps": -1}}),
            ("params.stepsize", {"scenario": "dbi",
                                 "params": {"dim": 3, "n_steps": 2, "stepsize": 0.1}}),
            ("strategy.gc_substeps", {"strategy": {"kind": "hybrid", "n1": 1, "n2": 1, "m": 16,
                                                   "gc_substeps": 2}}),
            ("params.n1", {"scenario": "cost", "params": {"L": 1, "N": 2, "m": 2, "n1": 1}}),
            ("params.eps", {"params": {"L": 1, "n_steps": 2, "delta0": 0.6, "eps": 2.5}}),
            ("params.n_steps", {"params": {"L": 1, "n_steps": 6, "delta0": 0.6}}),
            ("strategy.kind", {"scenario": "qite", "strategy": {"kind": "unfolding"},
                               "params": {"n_qubits": 2, "n_steps": 1}}),
            ("output.path", {"output": {"path": "no-such-dir/x.csv"}}),
            ("output.path", {"output": {"path": "."}}),
            ("output.path", {"output": {"path": ""}}),
        ],
    )
    def test_malformed_field_is_2_and_named(self, tmp_path, capsys, field, overrides):
        path = write_config(tmp_path, grover_doc(tmp_path, **overrides))
        assert main(["run", path]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overrides", HUGE_MU)
    def test_huge_mu_is_2_without_a_warning(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, grover_doc(tmp_path, **overrides))
        assert main(["run", path]) == 2
        assert "field 'params.mu' must have a squared norm" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scenario, size, kind", [
        ("dbi", {"dim": 2}, "exact"), ("dbi", {"dim": 2}, "unfolding"),
        ("osd", {"dims": [2, 2]}, "exact"),
    ])
    @pytest.mark.parametrize("mu", [1e150, LARGEST_MU, -LARGEST_MU])
    def test_largest_accepted_mu_runs_without_a_warning(self, tmp_path, scenario, size, kind, mu):
        doc = grover_doc(tmp_path, scenario=scenario, strategy={"kind": kind},
                         params={**size, "n_steps": 3, "mu": sorted([0, mu])})
        assert main(["run", write_config(tmp_path, doc)]) == 0

    @pytest.mark.parametrize(
        "field, overrides",
        [
            # purification with a one-copy budget cannot meet a tight threshold
            ("copies_out", {"strategy": {
                "kind": "qdp",
                "m": 16,
                "imr": {"reduction_factor": 2.0, "copies_out": 1, "failure_threshold": 1e-9},
            }}),
            # Heisenberg chains without a unique ground state to flow to
            ("params.field", {"scenario": "qite", "strategy": {"kind": "exact"},
                              "params": {"n_qubits": 3, "field": 0.0, "n_steps": 1}}),
            ("params.field", {"scenario": "qite", "strategy": {"kind": "exact"},
                              "params": {"n_qubits": 2, "field": 2.0, "n_steps": 1}}),
            ("params.field", {"scenario": "qite", "strategy": {"kind": "exact"},
                              "params": {"n_qubits": 1, "field": 0.0, "n_steps": 1}}),
        ],
        ids=["imr-budget", "qite-3-qubits-field-0", "qite-2-qubits-field-2", "qite-1-qubit-field-0"],
    )
    def test_infeasible_is_3(self, tmp_path, capsys, field, overrides):
        path = write_config(tmp_path, grover_doc(tmp_path, **overrides))
        assert main(["run", path]) == 3
        assert field in capsys.readouterr().err

    def test_non_finite_hamiltonian_is_3(self, tmp_path, monkeypatch, capsys):
        """A Hamiltonian with a non-finite entry (what a huge ``field`` makes)
        is found with the ground state, before the run reads it, and is
        infeasible, not a broken invariant."""
        monkeypatch.setattr(cli, "_qite_hamiltonian", lambda p, seed: np.diag([np.inf, 0, 0, 1.0]))
        doc = grover_doc(tmp_path, scenario="qite", strategy={"kind": "exact"},
                         params={"n_qubits": 2, "n_steps": 1})
        assert main(["run", write_config(tmp_path, doc)]) == 3
        assert "params.n_qubits and params.field" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", list(SMALL_RECURSIONS))
    def test_mid_run_invariant_is_4(self, tmp_path, monkeypatch, capsys, scenario):
        """Every runner calls ``run_strategy`` through the ``cli`` module name."""
        def broken(spec, n_steps, strategy):
            raise InvariantError("trace drifted")

        monkeypatch.setattr("qdpsim.cli.run_strategy", broken)
        doc = grover_doc(tmp_path, scenario=scenario, params=SMALL_RECURSIONS[scenario])
        assert main(["run", write_config(tmp_path, doc)]) == 4
        assert "numerical invariant violated: trace drifted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "realization, scenario, strategy, params",
        [
            ("exact_memory_call", "grover", {"kind": "exact"},
             {"L": 2, "n_steps": 2, "delta0": 0.6}),
            ("queried_memory_call", "grover", {"kind": "qdp", "m": 16},
             {"L": 2, "n_steps": 2, "delta0": 0.6}),
            ("unfolded_memory_call", "dbi", {"kind": "unfolding"}, {"dim": 3, "n_steps": 2}),
        ],
        ids=["exact", "queried", "unfolded"],
    )
    @pytest.mark.parametrize(
        "fault, message",
        [
            # a 1e-9 anti-Hermitian part: a deviation of 2e-9 > HERM_ATOL
            (lambda out: out + 1e-9j * np.eye(out.shape[0]), "matrix is not Hermitian"),
            (lambda out: out * (1 + 1e-8), "is not 1 within"),
            (negative_eigenvalue, "is below -1e-08"),
        ],
        ids=["hermiticity", "trace", "positivity"],
    )
    def test_mid_step_break_is_4(self, tmp_path, monkeypatch, capsys, realization, scenario,
                                 strategy, params, fault, message):
        """A memory-call's output is validated at the step's boundary, after
        the statics and calls that follow it, and a break there still exits 4."""
        real = getattr(engine, realization)
        monkeypatch.setattr(engine, realization, lambda *args: fault(real(*args)))
        doc = {"schema_version": 1, "scenario": scenario, "seed": 7, "strategy": strategy,
               "params": params, "output": {"path": str(tmp_path / "out.csv")}}
        assert main(["run", write_config(tmp_path, doc)]) == 4
        assert message in capsys.readouterr().err
        monkeypatch.setattr(engine, realization, real)
        assert main(["run", write_config(tmp_path, doc)]) == 0

    def test_output_unwritable_at_write_is_2_and_named(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        doc = grover_doc(tmp_path, output={"path": str(out_dir / "x.csv")})
        run_strategy = cli.run_strategy

        def removing_dir(*args):
            out_dir.rmdir()
            return run_strategy(*args)

        monkeypatch.setattr("qdpsim.cli.run_strategy", removing_dir)
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert "output.path" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "cost"])
    def test_output_in_missing_dir_is_2_and_named(self, tmp_path, capsys, command):
        out = str(tmp_path / "no-such-dir" / "x.csv")
        if command == "cost":
            argv = ["cost", "--L", "1", "--N", "2", "--output", out]
        else:
            doc = grover_doc(tmp_path, strategies=[{"kind": "exact"}], output={"path": out})
            argv = ["compare", write_config(tmp_path, doc)]
        assert main(argv) == 2
        assert "output.path" in capsys.readouterr().err

    def test_missing_file_is_2(self):
        assert main(["run", "/nonexistent/nowhere.json"]) == 2

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("content", [None, b'{"seed": "\xff"}'], ids=["directory", "non-utf8"])
    def test_unreadable_config_is_2_and_named(self, tmp_path, capsys, command, content):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main([command, str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_mismatched_hybrid_split_is_2(self, tmp_path):
        doc = grover_doc(tmp_path)
        doc["strategy"] = {"kind": "hybrid", "n1": 1, "n2": 3, "m": 16}
        path = write_config(tmp_path, doc)
        assert main(["run", path]) == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        doc = grover_doc(tmp_path, out_name="a.csv")
        path = write_config(tmp_path, doc)
        assert main(["run", path]) == 0
        first = (tmp_path / "a.csv").read_bytes()
        doc2 = grover_doc(tmp_path, out_name="b.csv")
        path2 = write_config(tmp_path, doc2, name="cfg2.json")
        assert main(["run", path2]) == 0
        assert first == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        doc = grover_doc(tmp_path, out_name="a.csv")
        doc["params"]["dim"] = 3  # seeded basis only matters above dim 2
        path = write_config(tmp_path, doc)
        main(["run", path])
        doc2 = grover_doc(tmp_path, out_name="b.csv", seed=8)
        doc2["params"]["dim"] = 3
        path2 = write_config(tmp_path, doc2, name="cfg2.json")
        main(["run", path2])
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_environment_does_not_reseed_the_run(self, tmp_path, monkeypatch):
        # the benchmark calls main in-process, so an inherited variable
        # must not move a config off its file seed
        doc = grover_doc(tmp_path, out_name="a.csv")
        doc["params"]["dim"] = 3
        main(["run", write_config(tmp_path, doc)])
        monkeypatch.setenv("QDPSIM_SEED", "8")
        assert main(["run", write_config(tmp_path, doc), "--output", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_flag_beats_file(self, tmp_path):
        doc = grover_doc(tmp_path, out_name="want.csv", seed=9)
        doc["params"]["dim"] = 3
        main(["run", write_config(tmp_path, doc)])
        doc2 = grover_doc(tmp_path, out_name="got.csv")
        doc2["params"]["dim"] = 3
        path2 = write_config(tmp_path, doc2, name="cfg2.json")
        assert main(["run", path2, "--seed", "9"]) == 0
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert main(["run", path2, "--output", str(tmp_path / "file.csv")]) == 0
        assert (tmp_path / "file.csv").read_bytes() != (tmp_path / "want.csv").read_bytes()


class TestSchemas:
    def test_grover_csv_header(self, tmp_path):
        path = write_config(tmp_path, grover_doc(tmp_path))
        main(["run", path])
        header = (tmp_path / "out.csv").read_text().splitlines()[0]
        assert header == "step,trace_distance,mixedness,depth,width,p_success"

    def test_grover_exact_columns_match_cascade(self, tmp_path):
        from qdpsim import grover_delta_sequence

        doc = grover_doc(tmp_path, strategy={"kind": "exact"})
        doc["params"]["n_steps"] = 3
        path = write_config(tmp_path, doc)
        assert main(["run", path]) == 0
        rows = (tmp_path / "out.csv").read_text().strip().splitlines()[1:]
        distances = [float(r.split(",")[1]) for r in rows]
        deltas = grover_delta_sequence(0.6, 1, 3)
        assert all(abs(a - b) <= 1e-10 for a, b in zip(distances, deltas))

    def test_delta0_out_of_range_is_config_error(self, tmp_path):
        doc = grover_doc(tmp_path)
        doc["params"]["delta0"] = 1.5
        path = write_config(tmp_path, doc)
        assert main(["run", path]) == 2

    def test_row_count_includes_root(self, tmp_path):
        path = write_config(tmp_path, grover_doc(tmp_path))
        main(["run", path])
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + n_steps + root

    def test_json_mirrors_csv(self, tmp_path):
        doc = grover_doc(tmp_path, out_name="out.json")
        doc["output"]["format"] = "json"
        path = write_config(tmp_path, doc)
        main(["run", path])
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["columns"] == [
            "step", "trace_distance", "mixedness", "depth", "width", "p_success",
        ]
        assert payload["metadata"]["scenario"] == "grover"
        assert payload["metadata"]["seed"] == 7
        assert len(payload["rows"]) == 3

    def test_dbi_scenario_runs(self, tmp_path):
        doc = {
            "schema_version": 1,
            "scenario": "dbi",
            "seed": 3,
            "strategy": {"kind": "unfolding", "gc_substeps": 8},
            "params": {"dim": 3, "n_steps": 5},
            "output": {"path": str(tmp_path / "dbi.csv"), "format": "csv"},
        }
        path = write_config(tmp_path, doc)
        assert main(["run", path]) == 0
        header = (tmp_path / "dbi.csv").read_text().splitlines()[0]
        assert header == "step,cost,offdiag_hs,trace_distance,depth,width"

    def test_qite_scenario_runs(self, tmp_path):
        doc = {
            "schema_version": 1,
            "scenario": "qite",
            "seed": 3,
            "strategy": {"kind": "exact"},
            "params": {"n_steps": 4, "n_qubits": 2, "field": 0.4},
            "output": {"path": str(tmp_path / "qite.csv"), "format": "csv"},
        }
        path = write_config(tmp_path, doc)
        assert main(["run", path]) == 0
        rows = (tmp_path / "qite.csv").read_text().strip().splitlines()
        assert rows[0] == "step,energy,ground_infidelity,mixedness,depth,width"
        energies = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_osd_scenario_reports_schmidt_bound(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "scenario": "osd",
            "seed": 5,
            "strategy": {"kind": "qdp", "m": 64},
            "params": {"dims": [2, 2], "n_steps": 30},
            "output": {"path": str(tmp_path / "osd.csv"), "format": "csv"},
        }
        path = write_config(tmp_path, doc)
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "schmidt_estimate_max_error" in out
        assert "pass" in out
        header = (tmp_path / "osd.csv").read_text().splitlines()[0]
        assert header == "step,offdiag_hs,mixedness,depth,width"

    def test_channel_error_scenario(self, tmp_path):
        doc = {
            "schema_version": 1,
            "scenario": "channel-error",
            "seed": 11,
            "strategy": {"kind": "exact"},
            "params": {"dim": 2, "map": "dme", "s": 0.3, "m_values": [4, 8, 16]},
            "output": {"path": str(tmp_path / "ce.csv"), "format": "csv"},
        }
        path = write_config(tmp_path, doc)
        assert main(["run", path]) == 0
        rows = (tmp_path / "ce.csv").read_text().strip().splitlines()
        assert rows[0] == "m,s,measured_error,error_bound,within_window,passed"
        for row in rows[1:]:
            assert row.split(",")[5] == "true"


class TestCost:
    def test_unfolding_final_step_calls(self, capsys):
        assert main(["cost", "--L", "2", "--N", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "quantity,value"
        assert "unfolding_final_step_calls,250" in out

    def test_hybrid_rows(self, capsys):
        rc = main(
            ["cost", "--L", "1", "--N", "4", "--m", "8", "--n1", "2", "--n2", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "qdp_width,6561" in out  # 9^4
        assert "hybrid_width,81" in out  # 9^2

    def test_mismatched_hybrid_split(self, capsys):
        rc = main(
            ["cost", "--L", "1", "--N", "4", "--m", "8", "--n1", "1", "--n2", "2"]
        )
        assert rc == 2


def dbi_doc(strategy, n_steps, **overrides):
    doc = {"schema_version": 1, "scenario": "dbi", "seed": 1, "strategy": strategy,
           "params": {"dim": 2, "n_steps": n_steps}}
    doc.update(overrides)
    return doc


def refuse_runners(monkeypatch):
    """Make every scenario's runner raise, so a test sees that none started."""
    def refuse(cfg):
        raise AssertionError("a scenario runner started")

    for scenario, entry in list(cli._SCENARIOS.items()):
        monkeypatch.setitem(cli._SCENARIOS, scenario, entry._replace(run=refuse))


@pytest.fixture
def no_runner(monkeypatch):
    refuse_runners(monkeypatch)


class TestLedgerDigits:
    """A report integer longer than ``str(int)`` prints exits 3 naming the
    field, before any scenario runner starts."""

    def test_cost_is_3_and_named(self, no_runner, capsys):
        assert main(["cost", "--L", "1", "--N", "10000"]) == 3  # depth (3^10000 - 1) / 2
        assert "params.N" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, strategy, n_steps",
        [
            ("params.n_steps", {"kind": "unfolding"}, 6500),  # depth (5^6500 - 1) / 2
            ("params.n_steps", {"kind": "qdp", "m": 1}, 15000),  # width 2^15000
            ("strategy.n1 and strategy.n2", {"kind": "hybrid", "n1": 6500, "n2": 2, "m": 1}, 6502),
        ],
        ids=["unfolding-depth", "qdp-width", "hybrid-depth"],
    )
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_run_is_3_and_named(self, no_runner, tmp_path, capsys, command, field, strategy,
                                n_steps):
        doc = dbi_doc(strategy, n_steps, strategies=[{"kind": "exact"}, strategy])
        assert main([command, write_config(tmp_path, doc)]) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("limit", [2, 3, 4, 6])
    def test_accepted_reports_print_within_the_limit(self, tmp_path, monkeypatch, limit):
        """Under a small stand-in limit, every config is either rejected or
        reports only integers of at most ``limit`` digits."""
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
        strategies = [{"kind": "exact"}, {"kind": "unfolding"}, {"kind": "qdp", "m": 4},
                      {"kind": "hybrid", "n1": 1, "n2": 2, "m": 4}]
        docs = [dbi_doc({"kind": "exact"}, 3, strategies=strategies)]
        docs += [dbi_doc(s, 3) for s in strategies]
        docs += [grover_doc(tmp_path, strategy=s, params={"L": 2, "n_steps": 3, "delta0": 0.6},
                            output={}) for s in strategies[:2]]
        docs += [{"scenario": "cost", "params": {"L": L, "N": N, "m": m, "n1": n1,
                                                 "n2": None if n1 is None else N - n1}}
                 for L in (1, 3) for N in (1, 4, 7) for m in (None, 1, 9)
                 for n1 in (None, 0, N) if m is not None or n1 is None]
        outcomes = []
        for doc in docs:
            try:
                cfg = ExperimentConfig.from_dict(doc)
                if "strategies" in doc:
                    report = compare_strategies(cfg, doc["strategies"])
                else:
                    report = run_scenario(cfg)
            except InfeasibleConfigError:
                outcomes.append("rejected")
                continue
            ints = [v for row in report.rows for v in row
                    if isinstance(v, int) and not isinstance(v, bool)]
            assert all(len(str(v)) <= limit for v in ints), (doc, ints)
            outcomes.append("accepted")
        assert {"accepted", "rejected"} <= set(outcomes)


def load_workloads():
    """The benchmark's workload generator, loaded from its file."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOperatorSize:
    """A query run whose query generator or superoperator would pass
    ``MAX_OPERATOR_BYTES`` exits 3 naming the size field, before any scenario
    runner starts.  Only rejected sizes are run here."""

    @pytest.mark.parametrize(
        "field, scenario, strategy, params",
        [
            # 16 * 1024^2 * 32^2 B = 2^34 B
            ("params.n_qubits", "qite", {"kind": "qdp", "m": 4}, {"n_qubits": 5, "n_steps": 1}),
            ("params.n_qubits", "qite", {"kind": "hybrid", "n1": 0, "n2": 1, "m": 4},
             {"n_qubits": 10**400, "n_steps": 1}),
            ("params.dim", "qite", {"kind": "qdp", "m": 4},
             {"model": "random", "dim": 21, "n_steps": 1}),  # 16 * 21^6 B
            ("params.dim", "dbi", {"kind": "qdp", "m": 4}, {"dim": 91, "n_steps": 1}),
            ("params.dim", "dbi", {"kind": "hybrid", "n1": 1, "n2": 1, "m": 4},
             {"dim": 91, "n_steps": 2}),
            ("params.dim", "grover", {"kind": "qdp", "m": 4},
             {"L": 1, "dim": 91, "n_steps": 1, "delta0": 0.6}),
            # an osd query runs on the A factor: 16 * 91^4 B > 2^30 B
            ("params.dims", "osd", {"kind": "qdp", "m": 4}, {"dims": [91, 2], "n_steps": 1}),
            ("params.dim", "channel-error", {"kind": "exact"},
             {"dim": 91, "s": 0.5, "m_values": [1]}),
        ],
        ids=["qite-5-qubits", "qite-huge-hybrid", "qite-random", "dbi-qdp", "dbi-hybrid",
             "grover-qdp", "osd-qdp", "channel-error"],
    )
    def test_oversized_query_run_is_3_and_named(self, no_runner, tmp_path, capsys,
                                                field, scenario, strategy, params):
        doc = {"schema_version": 1, "scenario": scenario, "seed": 1, "strategy": strategy,
               "params": params}
        assert main(["run", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert field in err and str(cli.MAX_OPERATOR_BYTES) in err

    def test_compare_checks_each_listed_strategy(self, no_runner, tmp_path, capsys):
        doc = {"schema_version": 1, "scenario": "dbi", "seed": 1, "strategy": {"kind": "exact"},
               "params": {"dim": 91, "n_steps": 1},
               "strategies": [{"kind": "exact"}, {"kind": "qdp", "m": 4}]}
        assert main(["compare", write_config(tmp_path, doc)]) == 3
        assert "params.dim" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, strategy, params",
        [
            ("qite", {"kind": "qdp", "m": 4}, {"n_qubits": 4, "n_steps": 1}),  # 2^28 B
            ("dbi", {"kind": "qdp", "m": 4}, {"dim": 90, "n_steps": 1}),
            ("osd", {"kind": "qdp", "m": 4}, {"dims": [9, 10], "n_steps": 1}),
            # a 16 * 8^4 B = 64 KiB A-factor block and a 16 * 128^2 B instruction
            ("osd", {"kind": "qdp", "m": 4}, {"dims": [8, 16], "n_steps": 1}),
            ("dbi", {"kind": "exact"}, {"dim": 91, "n_steps": 1}),  # builds no Nhat
        ],
        ids=["qite-4-qubits", "dbi-dim-90", "osd-90", "osd-8x16", "dbi-exact"],
    )
    def test_sizes_at_the_limit_are_accepted(self, scenario, strategy, params):
        ExperimentConfig.from_dict(
            {"scenario": scenario, "seed": 1, "strategy": strategy, "params": params})

    @pytest.mark.parametrize("workload", ["query-build", "query-apply", "memoryless"])
    def test_benchmark_workloads_stay_under_the_limit(self, workload):
        workloads = load_workloads()
        for seed in (3, 7, 11):
            for name, raw in workloads.configs(workload, seed):
                ExperimentConfig.from_dict(raw)


class TestNoOutputPath:
    """With no ``output.path``, ``run`` and ``compare`` write the report to stdout."""

    def test_run_writes_the_file_bytes_to_stdout(self, tmp_path, capsys):
        doc = grover_doc(tmp_path)
        assert main(["run", write_config(tmp_path, doc)]) == 0
        capsys.readouterr()
        del doc["output"]
        assert main(["run", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().out == (tmp_path / "out.csv").read_text()

    def test_compare_writes_the_config_format_to_stdout(self, tmp_path, capsys):
        doc = grover_doc(tmp_path, strategies=[{"kind": "exact"}, {"kind": "qdp", "m": 16}],
                         output={"format": "json"})
        assert main(["compare", write_config(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["columns"][0] == "strategy"
        assert [row[0] for row in report["rows"]] == ["exact", "qdp(m=16)"]


class TestCompare:
    def test_empty_strategy_list(self, tmp_path):
        doc = {
            "schema_version": 1,
            "scenario": "grover",
            "seed": 7,
            "params": {"L": 1, "n_steps": 2, "delta0": 0.6},
            "strategies": [],
            "output": {"path": str(tmp_path / "cmp.csv"), "format": "csv"},
        }
        path = write_config(tmp_path, doc)
        assert main(["compare", path]) == 0
        text = (tmp_path / "cmp.csv").read_text().strip().splitlines()
        assert text == ["strategy,final_distance,depth,width,circuit_size"]

    def test_strategy_rows_and_tradeoff(self, tmp_path):
        doc = {
            "schema_version": 1,
            "scenario": "grover",
            "seed": 7,
            "params": {"L": 1, "n_steps": 2, "delta0": 0.6},
            "strategies": [
                {"kind": "exact"},
                {"kind": "qdp", "m": 16},
                {"kind": "hybrid", "n1": 1, "n2": 1, "m": 16},
            ],
            "output": {"path": str(tmp_path / "cmp.csv"), "format": "csv"},
        }
        path = write_config(tmp_path, doc)
        assert main(["compare", path]) == 0
        rows = (tmp_path / "cmp.csv").read_text().strip().splitlines()[1:]
        cells = [r.split(",") for r in rows]
        assert [c[0] for c in cells] == ["exact", "qdp(m=16)", "hybrid(m=16)"]
        widths = {c[0]: int(c[3]) for c in cells}
        assert widths["hybrid(m=16)"] < widths["qdp(m=16)"]
        for c in cells:
            assert int(c[4]) == int(c[2]) * int(c[3])

    @pytest.mark.parametrize("scenario, column", [
        ("grover", "trace_distance"),
        ("dbi", "trace_distance"),
        ("qite", "ground_infidelity"),
        ("osd", None),  # no fixed point to measure against: NaN
    ])
    def test_final_distance_is_the_last_run_row(self, tmp_path, scenario, column):
        strategies = [{"kind": "exact"}, {"kind": "qdp", "m": 16}]
        doc = {"schema_version": 1, "scenario": scenario, "seed": 7,
               "params": SMALL_RECURSIONS[scenario], "strategies": strategies,
               "output": {"path": str(tmp_path / "cmp.csv")}}
        assert main(["compare", write_config(tmp_path, doc)]) == 0
        rows = [r.split(",") for r in (tmp_path / "cmp.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(strategies)
        for row, strategy in zip(rows, strategies):
            run = dict(doc, strategy=strategy, output={"path": str(tmp_path / "run.csv")})
            assert main(["run", write_config(tmp_path, run, "run.json")]) == 0
            lines = (tmp_path / "run.csv").read_text().splitlines()
            last = dict(zip(lines[0].split(","), lines[-1].split(",")))
            assert row[1] == (last[column] if column else "nan")


@pytest.mark.parametrize("scenario", list(SMALL_RECURSIONS))
@pytest.mark.parametrize("strategy", [{"kind": "exact"}, {"kind": "qdp", "m": 16}])
def test_scenario_table_describes_its_spec(tmp_path, monkeypatch, capsys, scenario, strategy):
    """What the ledger and size checks read off a scenario's table entry is
    what its runner builds: the spec's covariance, calls and statics per
    step, and the root's and the call map's input dimensions."""
    specs, real = [], cli.run_strategy
    monkeypatch.setattr(cli, "run_strategy",
                        lambda spec, *args: specs.append(spec) or real(spec, *args))
    doc = grover_doc(tmp_path, scenario=scenario, strategy=strategy,
                     params=SMALL_RECURSIONS[scenario])
    assert main(["run", write_config(tmp_path, doc)]) == 0
    entry, params = cli._SCENARIOS[scenario], ExperimentConfig.from_dict(doc).params
    (spec,) = specs
    step = spec.resolve_step(0)
    calls, statics = entry.counts(params)
    assert spec.covariant == entry.covariant
    assert step.n_calls == calls
    assert step.nontrivial_static_count() <= statics
    _, log_d = entry.size(params)
    assert np.log2(spec.root.dim) == pytest.approx(log_d, abs=1e-12)
    assert np.log2(step.memory_calls[0].map.d_in) == pytest.approx(entry.inputs * log_d, abs=1e-12)


# Small valid configs, about one per scenario, whose mutants must never crash.
MUTATION_BASES = [
    {"schema_version": 1, "scenario": "grover", "seed": 7,
     "strategy": {"kind": "qdp", "m": 4,
                  "imr": {"reduction_factor": 1.5, "copies_out": 2, "failure_threshold": 0.2}},
     "params": {"L": 1, "n_steps": 2, "delta0": 0.6, "dim": 2, "eps": 0.01},
     "output": {"path": "out.json", "format": "json"}},
    {"schema_version": 1, "scenario": "grover", "seed": 3,
     "strategy": {"kind": "hybrid", "n1": 1, "n2": 1, "m": 4},
     "params": {"L": 1, "n_steps": 2, "delta0": 0.5}},
    {"schema_version": 1, "scenario": "dbi", "seed": 3,
     "strategy": {"kind": "unfolding", "gc_substeps": 2},
     "params": {"dim": 3, "n_steps": 2, "mu": [0, 1, 2], "step_size": 0.1}},
    {"schema_version": 1, "scenario": "qite", "seed": 3, "strategy": {"kind": "exact"},
     "params": {"n_steps": 2, "n_qubits": 2, "field": 0.4}},
    {"schema_version": 1, "scenario": "qite", "seed": 4, "strategy": {"kind": "qdp", "m": 4},
     "params": {"model": "random", "dim": 2, "n_steps": 2, "step_size": 0.1}},
    {"schema_version": 1, "scenario": "osd", "seed": 5, "strategy": {"kind": "qdp", "m": 4},
     "params": {"dims": [2, 2], "n_steps": 2, "mu": [0, 1]}},
    {"schema_version": 1, "scenario": "channel-error", "seed": 11,
     "params": {"dim": 2, "map": "scaled", "alpha": 0.5, "s": 0.3, "m_values": [2, 4],
                "n_samples": 2}},
    {"schema_version": 1, "scenario": "channel-error", "seed": 11,
     "params": {"dim": 2, "map": "commutator", "map_s": 1.0, "s": 0.3, "m_values": [4],
                "n_samples": 1}},
    {"schema_version": 1, "scenario": "cost", "params": {"L": 1, "N": 3, "m": 2, "n1": 1, "n2": 2},
     "output": {"path": "cost.csv", "format": "csv"}},
]


def _leaves(doc, path=()):
    """Paths of every value in a nested config, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _variants(value, rng):
    """Wrong types, sign flips, zero and list changes; never a larger size."""
    if isinstance(value, (int, float)):
        out = [-value, 0, "x", True, [value]]
        if isinstance(value, int):
            out.append(value + 0.5)
        return out
    if isinstance(value, str):
        return [7, "", "bogus", [value]]
    if isinstance(value, list):
        return [[], value[:1], value + value[-1:], "x", ["x"] * len(value),
                [rng.choice([-1, 0, "x"])] + value[1:]]
    return ["x", [], dict(value, zz_unknown=1)]


_DELETE = object()


def _mutants(base, rng):
    yield dict(base, zz_unknown=1)
    for path, value in list(_leaves(base)):
        for new in _variants(value, rng) + [_DELETE]:
            doc = copy.deepcopy(base)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if new is not _DELETE:
                parent[path[-1]] = new
            elif isinstance(parent, dict):
                del parent[path[-1]]
            else:
                continue  # list entries are dropped by the short-list variant
            yield doc


def test_config_mutants_exit_cleanly(tmp_path, monkeypatch, capsys):
    """Every mutant of a valid config exits 0, 2 or 3 and raises nothing:
    bad input is a config error (2) or infeasible (3), never a traceback and
    never a numerical-invariant violation (4)."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20240)
    failures, count = [], 0
    for base in MUTATION_BASES:
        assert main(["run", write_config(tmp_path, base)]) == 0, base
        for doc in _mutants(base, rng):
            count += 1
            path = write_config(tmp_path, doc)
            try:
                code = main(["run", path])
            except Exception as exc:  # noqa: BLE001 - any escape is a failure
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 2, 3):
                failures.append((code, doc))
    capsys.readouterr()
    assert count > 300
    assert not failures, f"{len(failures)} of {count} mutants failed: {failures[:5]}"


def test_compare_of_each_mutation_base_exits_cleanly(tmp_path, monkeypatch, capsys):
    """``compare`` with a base config's own strategy exits 0, 2 or 3: a
    scenario without a recursion to compare is a config error, not a traceback."""
    monkeypatch.chdir(tmp_path)
    codes = []
    for base in MUTATION_BASES:
        doc = dict(base, strategies=[base.get("strategy", {"kind": "exact"})])
        try:
            code = main(["compare", write_config(tmp_path, doc)])
        except Exception as exc:  # noqa: BLE001 - any escape is a failure
            code = f"{type(exc).__name__}: {exc}"
        codes.append((base["scenario"], code))
    capsys.readouterr()
    assert all(code in (0, 2, 3) for _, code in codes), codes


@pytest.mark.parametrize("scenario", ["channel-error", "cost"])
def test_compare_without_recursion_names_strategies_before_numerics(
    tmp_path, monkeypatch, capsys, scenario
):
    base = next(b for b in MUTATION_BASES if b["scenario"] == scenario)
    refuse_runners(monkeypatch)  # any run would raise AssertionError
    doc = dict(base, strategies=[{"kind": "exact"}], output={})
    assert main(["compare", write_config(tmp_path, doc)]) == 2
    assert "field 'strategies'" in capsys.readouterr().err


def test_overflowing_imr_copy_count_is_3(tmp_path, capsys):
    """At seed 1 the purified state's mixedness reads exactly 0, so rounds go on
    at ratio 1/2 until 1e300 is guaranteed, and the copy count
    ``copies_out (2/c)^rounds`` would overflow a float: infeasible, not a traceback."""
    doc = grover_doc(tmp_path, seed=1, strategy={
        "kind": "qdp", "m": 16, "imr": {"reduction_factor": 1e300, "copies_out": 64}})
    assert main(["run", write_config(tmp_path, doc)]) == 3
    assert "reduction_factor" in capsys.readouterr().err


def test_unreachable_imr_reduction_factor_is_3(tmp_path, capsys):
    """Purified to roundoff, the state's mixedness reads below 0 before a
    1e300 reduction is guaranteed: the target is infeasible, not a breakdown."""
    doc = grover_doc(tmp_path, strategy={
        "kind": "qdp", "m": 16, "imr": {"reduction_factor": 1e300, "copies_out": 64}})
    assert main(["run", write_config(tmp_path, doc)]) == 3
    assert "reduction_factor" in capsys.readouterr().err


@pytest.mark.parametrize("params, scale", [
    ({"dim": 2, "map": "scaled", "alpha": 1e300, "s": 1e10, "m_values": [4]}, "params.alpha"),
    ({"dim": 2, "map": "commutator", "map_s": 1e300, "s": 1e9, "m_values": [4]},
     "params.map_s"),
], ids=["scaled", "commutator"])
def test_overflowing_query_duration_is_3(tmp_path, capsys, monkeypatch, params, scale):
    """``||Nhat|| |s|`` past the float range is infeasible, found from the
    closed-form norm before the probe runs, not a non-finite matrix (exit 4)."""
    monkeypatch.setattr(cli, "channel_error_probe", None)
    doc = {"schema_version": 1, "scenario": "channel-error", "seed": 7, "params": params}
    assert main(["run", write_config(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert "params.s" in err and scale in err


FLOW_OVERFLOWS = [  # ||Nhat|| |s| is inf in each; dbi's reads 1.9e307 at step_size 1e297
    ("dbi", {"dim": 2, "n_steps": 1, "step_size": 1e300, "mu": [0, 1e10]},
     "params.step_size and params.mu"),
    ("osd", {"dims": [2, 2], "n_steps": 1, "step_size": 1e300, "mu": [0, 1e10]},
     "params.step_size and params.mu"),
    ("qite", {"n_steps": 1, "step_size": 1e308},
     "params.step_size and params.n_qubits and params.field"),
]
FLOW_STRATEGIES = {"exact": {"kind": "exact"}, "qdp": {"kind": "qdp", "m": 4},
                   "hybrid": {"kind": "hybrid", "n1": 0, "n2": 1, "m": 4}}


@pytest.mark.parametrize("scenario, params, fields, strategy", [
    pytest.param(scenario, params, fields, strategy, id=f"{scenario}-{kind}")
    for scenario, params, fields in FLOW_OVERFLOWS
    for kind, strategy in FLOW_STRATEGIES.items()
    if (scenario, kind) != ("osd", "hybrid")  # osd runs exact or qdp
])
def test_overflowing_flow_is_3_and_named(tmp_path, capsys, monkeypatch,
                                         scenario, params, fields, strategy):
    """A memory-call whose ``||Nhat|| |s|`` overflows a float is infeasible,
    found from the closed-form norm before the run starts, not a matrix of
    non-finite entries mid-run (exit 4)."""
    monkeypatch.setattr(cli, "run_strategy", None)
    doc = {"schema_version": 1, "scenario": scenario, "seed": 7, "strategy": strategy,
           "params": params}
    assert main(["run", write_config(tmp_path, doc)]) == 3
    assert f"infeasible configuration: {fields} give ||Nhat|| |s| = inf" in capsys.readouterr().err


@pytest.mark.parametrize("strategy, step_size, n_steps", [
    ({"kind": "unfolding"}, 1e300, 1),  # reads neither the map's action nor its unitary
    ({"kind": "hybrid", "n1": 1, "n2": 0, "m": 4}, 1e300, 1),  # unfolds its only step
    ({"kind": "exact"}, 1e300, 0),  # runs no step
    ({"kind": "exact"}, 1e297, 1),
    ({"kind": "qdp", "m": 4}, 1e297, 1),
], ids=["unfolding", "hybrid-unfolded", "no-step", "exact-in-range", "qdp-in-range"])
def test_flow_that_no_call_overflows_runs(tmp_path, capsys, strategy, step_size, n_steps):
    doc = {"schema_version": 1, "scenario": "dbi", "seed": 7, "strategy": strategy,
           "params": dict(FLOW_OVERFLOWS[0][1], step_size=step_size, n_steps=n_steps)}
    assert main(["run", write_config(tmp_path, doc)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("strategy", [{"kind": "exact"}, {"kind": "qdp", "m": 4}])
def test_huge_qite_step_keeps_the_trace(tmp_path, capsys, strategy):
    """The pair-commutator angle is reduced mod 2 pi, so its query unitary
    stays unitary and a qdp run at step 1e305 keeps the trace, as exact does."""
    doc = {"schema_version": 1, "scenario": "qite", "seed": 7, "strategy": strategy,
           "params": {"n_steps": 1, "step_size": 1e305}}
    assert main(["run", write_config(tmp_path, doc)]) == 0
    capsys.readouterr()


def qite_field_doc(field, step_size=None, n_qubits=2, strategy=None):
    return {"schema_version": 1, "scenario": "qite", "seed": 7,
            "strategy": strategy or {"kind": "exact"},
            "params": {"n_qubits": n_qubits, "n_steps": 2, "field": field, "step_size": step_size}}


def largest_accepted_field(step_size, n_qubits):
    """The largest field ``ExperimentConfig.from_dict`` accepts, by bisection
    over the bit patterns of the positive floats (which order as integers)."""
    lo, hi = 0, int(np.float64(np.finfo(float).max).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            ExperimentConfig.from_dict(qite_field_doc(float(np.int64(mid).view(np.float64)),
                                                      step_size, n_qubits))
            lo = mid
        except ConfigError:
            hi = mid
    return float(np.int64(lo).view(np.float64))


class TestQiteField:
    """A Heisenberg-chain field whose Hamiltonian, or with a null step_size
    whose squared norm (which the canonical step reads), would overflow exits
    2 naming params.field before any numerics and without a warning; an
    explicit step runs at fields whose squared norm alone would overflow."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field, step_size", [
        (1e200, None), (-1e200, None), (1e308, None), (1e308, 0.01), (-1e308, 0.01),
    ])
    def test_huge_field_is_2_without_a_warning(self, no_runner, tmp_path, capsys,
                                               field, step_size):
        assert main(["run", write_config(tmp_path, qite_field_doc(field, step_size))]) == 2
        assert "field 'params.field' must keep the Hamiltonian's norm" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("strategy", [{"kind": "exact"}, {"kind": "qdp", "m": 4}])
    def test_explicit_step_at_a_huge_field_runs(self, tmp_path, capsys, strategy):
        doc = qite_field_doc(1e200, 0.01, strategy=strategy)
        doc["output"] = {"path": str(tmp_path / "out.csv")}
        assert main(["run", write_config(tmp_path, doc)]) == 0
        energies = [row.split(",")[1] for row in (tmp_path / "out.csv").read_text().split()[1:]]
        assert len(set(energies)) == 3  # the step moves the energy
        capsys.readouterr()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("step_size", [None, 0.01], ids=["canonical", "explicit"])
    @pytest.mark.parametrize("n_qubits, strategy", [
        (1, {"kind": "exact"}), (2, {"kind": "exact"}), (2, {"kind": "qdp", "m": 4}),
        (3, {"kind": "qdp", "m": 4}), (4, {"kind": "exact"}),
    ], ids=["1-exact", "2-exact", "2-qdp", "3-qdp", "4-exact"])
    def test_largest_accepted_field_runs_without_a_warning(self, tmp_path, capsys, step_size,
                                                           n_qubits, strategy):
        field = largest_accepted_field(step_size, n_qubits)
        doc = qite_field_doc(field, step_size, n_qubits, strategy)
        doc["output"] = {"path": str(tmp_path / "out.csv")}
        assert main(["run", write_config(tmp_path, doc)]) == 0
        energies = [row.split(",")[1] for row in (tmp_path / "out.csv").read_text().split()[1:]]
        assert len(set(energies)) == 3  # a canonical step above 0 moves the energy
        capsys.readouterr()


@pytest.mark.xfail(strict=True, reason="the 10^6-fold group-commutator product drifts off "
                   "unitarity, so the step's trace leaves TRACE_ATOL and a valid config exits 4")
def test_long_unfolded_call_keeps_the_trace(tmp_path, capsys):
    doc = dbi_doc({"kind": "unfolding", "gc_substeps": 1_000_000}, 2, seed=7)
    doc["params"]["dim"] = 8
    code = main(["run", write_config(tmp_path, doc)])
    capsys.readouterr()
    assert code == 0


class TestOperatorSizeOfEveryRun:
    """Exact and unfolding runs are bounded by their d_in x d_in instruction
    matrix (16 d_in^2 B; qite reads d_in = d^2).  Only rejected sizes are run."""

    @pytest.mark.parametrize(
        "field, scenario, strategy, params",
        [
            ("params.dim", "dbi", {"kind": "exact"}, {"dim": 10**9, "n_steps": 1}),
            ("params.dims", "osd", {"kind": "exact"}, {"dims": [8192, 8192], "n_steps": 1}),
            ("params.n_qubits", "qite", {"kind": "exact"}, {"n_qubits": 7, "n_steps": 1}),
            ("params.dim", "grover", {"kind": "unfolding"},
             {"L": 1, "dim": 100000, "n_steps": 1, "delta0": 0.6}),
        ],
        ids=["dbi-exact", "osd-exact", "qite-exact", "grover-unfolding"],
    )
    def test_oversized_run_is_3_and_named(self, no_runner, tmp_path, capsys,
                                          field, scenario, strategy, params):
        doc = {"schema_version": 1, "scenario": scenario, "seed": 1, "strategy": strategy,
               "params": params}
        assert main(["run", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert f"field '{field}' gives an operator" in err
        assert str(cli.MAX_OPERATOR_BYTES) in err

    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("dbi", {"dim": 8192, "n_steps": 1}),  # 16 * 8192^2 B = 2^30 B
            ("qite", {"n_qubits": 6, "n_steps": 1}),  # 16 * (2^12)^2 B = 2^28 B
        ],
        ids=["dbi-dim-8192", "qite-6-qubits"],
    )
    def test_exact_sizes_at_the_limit_are_accepted(self, scenario, params):
        ExperimentConfig.from_dict(
            {"scenario": scenario, "seed": 1, "strategy": {"kind": "exact"}, "params": params})

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_exact_step_count_past_the_trajectory_is_3_and_named(self, no_runner, tmp_path,
                                                                   capsys, command):
        # The exact ledger of 10^4299 steps prints, so only the trajectory check stops it.
        doc = dbi_doc({"kind": "exact"}, 10**4299, strategies=[{"kind": "exact"}])
        assert main([command, write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert "field 'params.n_steps' gives a trajectory" in err
        assert str(cli.MAX_TRAJECTORY_BYTES) in err

    def test_trajectory_at_the_limit_is_accepted(self):
        # dim 2: n_steps + 1 points of kept_state_bytes(2) B each
        n_limit = cli.MAX_TRAJECTORY_BYTES // cli.kept_state_bytes(2) - 1
        ExperimentConfig.from_dict(dbi_doc({"kind": "exact"}, n_limit))
        with pytest.raises(InfeasibleConfigError, match="params.n_steps"):
            ExperimentConfig.from_dict(dbi_doc({"kind": "exact"}, n_limit + 1))


    @pytest.mark.parametrize(
        "field, what, scenario, params",
        [
            # 3 * 100000 * kept_state_bytes(64) B, about 20 GB
            ("params.n_samples", "a probe batch", "channel-error",
             {"dim": 64, "s": 0.5, "m_values": [4], "n_samples": 100000}),
            ("params.n_samples", "a probe batch", "channel-error",
             {"dim": 2, "s": 0.5, "m_values": [4], "n_samples": 10**12}),
            # 2^26 points of kept_state_bytes(2) B, about 74 GB
            ("params.n_steps", "a trajectory", "dbi", {"dim": 2, "n_steps": 2**26 - 1}),
        ],
        ids=["probe-dim-64", "probe-10^12-samples", "dbi-2^26-points"],
    )
    def test_kept_states_past_the_limit_are_3_and_named(self, no_runner, tmp_path, capsys,
                                                        field, what, scenario, params):
        doc = {"schema_version": 1, "scenario": scenario, "seed": 1,
               "strategy": {"kind": "exact"}, "params": params}
        assert main(["run", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert f"field '{field}' gives {what}" in err
        assert str(cli.MAX_TRAJECTORY_BYTES) in err

    def test_probe_batch_at_the_limit_is_accepted(self):
        n_limit = cli.MAX_TRAJECTORY_BYTES // (3 * cli.kept_state_bytes(2))
        doc = {"scenario": "channel-error", "seed": 1,
               "params": {"dim": 2, "s": 0.5, "m_values": [4], "n_samples": n_limit}}
        ExperimentConfig.from_dict(doc)
        doc["params"]["n_samples"] += 1
        with pytest.raises(InfeasibleConfigError, match="params.n_samples"):
            ExperimentConfig.from_dict(doc)


class TestKeptStateCharge:
    """``kept_state_bytes(d)`` is at least what tracemalloc reads a run keeping
    per state: per step of an exact dbi run, read as what its record frees,
    and per state of a probe's peak (three per sample), read as the growth
    between two batch sizes so the probe's one superoperator cancels."""

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_covers_a_trajectory_point(self, d):
        cfg = DBIConfig(diagonal=np.diag(np.arange(d, dtype=float)),
                        initial=random_density(d, 7).matrix * d)
        spec = dbi_recursion_spec(cfg)
        tracemalloc.start()
        try:
            record = run_exact(spec, 30)
            held = tracemalloc.get_traced_memory()[0]
            del record  # frees every point and every state but the spec's root
            kept = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept / 30 <= cli.kept_state_bytes(d)

    # d = 64 is left out: its one superoperator alone is 2^28 B.
    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_covers_a_probe_sample(self, d):
        mmap = make_identity_map(d)
        memory = random_density(d, 7)
        channel_error_probe(mmap.generator, mmap, memory, 0.5, 4, 1, 7)
        peaks = []
        for n_samples in (50, 100):
            tracemalloc.start()
            try:
                channel_error_probe(mmap.generator, mmap, memory, 0.5, 4, n_samples, 7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 50 <= 3 * cli.kept_state_bytes(d)


class TestUnreadConfigPaths:
    @pytest.mark.parametrize("text", ["[1, 2]", "[[1, 2]]", "[]"])
    def test_config_that_is_not_an_object_is_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python reads integers of any length")
    def test_integer_longer_than_python_reads_is_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("1" * 5000)
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_real_beyond_the_float_range_is_2_and_named(self, tmp_path, capsys):
        doc = grover_doc(tmp_path, params={"L": 1, "n_steps": 2, "delta0": 10**400})
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert "field 'params.delta0'" in capsys.readouterr().err


class TestCompareFieldNames:
    """Each ``strategies`` entry is checked, before any run, under its own name."""

    @pytest.mark.parametrize(
        "code, field, strategies, n_steps",
        [
            (2, "field 'strategies[0]' must be object", ["qdp"], 2),
            (2, "field 'strategies[1].m'", [{"kind": "exact"}, {"kind": "qdp", "m": 0}], 2),
            (2, "field 'strategies[1].gc_substeps' is unknown",
             [{"kind": "qdp", "m": 4}, {"kind": "exact", "gc_substeps": 2}], 2),
            (2, "field 'strategies[1].n1' must satisfy",
             [{"kind": "exact"}, {"kind": "hybrid", "n1": 1, "n2": 2, "m": 4}], 2),
            (3, "field 'strategies[1].n1 and strategies[1].n2'",
             [{"kind": "exact"}, {"kind": "hybrid", "n1": 6500, "n2": 2, "m": 1}], 6502),
        ],
        ids=["not-an-object", "bad-m", "unknown-key", "hybrid-split", "hybrid-ledger"],
    )
    def test_entry_is_named(self, no_runner, tmp_path, capsys, code, field, strategies,
                            n_steps):
        doc = dbi_doc({"kind": "exact"}, n_steps, strategies=strategies)
        assert main(["compare", write_config(tmp_path, doc)]) == code
        assert field in capsys.readouterr().err

    def test_entries_share_the_checked_params(self, tmp_path, monkeypatch):
        """``compare`` checks the config once: its entries reuse its params."""
        calls = []
        from_dict = ExperimentConfig.from_dict.__func__
        monkeypatch.setattr(ExperimentConfig, "from_dict",
                            classmethod(lambda cls, raw: calls.append(raw) or from_dict(cls, raw)))
        strategies = [{"kind": "exact"}, {"kind": "unfolding"}, {"kind": "qdp", "m": 4}]
        doc = dbi_doc({"kind": "exact"}, 2, strategies=strategies,
                      output={"path": str(tmp_path / "cmp.csv")})
        assert main(["compare", write_config(tmp_path, doc)]) == 0
        assert len(calls) == 1
        rows = (tmp_path / "cmp.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["exact", "unfolding", "qdp(m=4)"]


@pytest.mark.parametrize(
    "scenario, params, mu",
    [
        ("dbi", {"dim": 3, "n_steps": 2}, [0, 1, 2]),
        ("osd", {"dims": [3, 2], "n_steps": 2}, [0, 1, 2]),
    ],
)
def test_null_mu_is_zero_to_n_minus_one(tmp_path, scenario, params, mu):
    texts = []
    for given in (None, mu):
        out = tmp_path / f"{scenario}-{given is None}.json"
        doc = {"schema_version": 1, "scenario": scenario, "seed": 3,
               "strategy": {"kind": "qdp", "m": 4}, "params": dict(params, mu=given),
               "output": {"path": str(out), "format": "json"}}
        assert main(["run", write_config(tmp_path, doc)]) == 0
        texts.append(json.loads(out.read_text()))
    assert texts[0]["rows"] == texts[1]["rows"]
    assert texts[0]["bound_checks"] == texts[1]["bound_checks"]


@pytest.mark.parametrize("amplitudes, status", [
    ([np.sqrt(0.1), 0, 0, np.sqrt(0.9)], "pass"),  # largest weight on the largest mu
    ([np.sqrt(0.9), 0, 0, np.sqrt(0.1)], "FAIL"),  # the right spectrum on the wrong states
])
def test_osd_check_reads_the_estimate_in_mu_order(tmp_path, capsys, monkeypatch,
                                                    amplitudes, status):
    """The flow sorts the largest Schmidt coefficient onto the largest ``mu``
    entry; a state with the right spectrum on other basis states fails."""
    monkeypatch.setattr(cli, "random_pure",
                        lambda dim, seed: PureState(np.asarray(amplitudes, dtype=complex)))
    doc = {"schema_version": 1, "scenario": "osd", "seed": 1, "strategy": {"kind": "exact"},
           "params": {"dims": [2, 2], "n_steps": 0}}
    assert main(["run", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().err.strip()  # stdout holds the report: no output.path
    assert out.startswith("bound schmidt_estimate_max_error: measured")
    assert out.endswith(status)


def test_qite_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    """A qite qdp run writes the same report bytes with OpenBLAS at 1 and at 2
    threads.  Its queries no longer diagonalize the 512-dim ``Nhat`` (the
    pair-commutator map's query unitary is in closed form), which is where
    the thread count used to move ``energy`` by up to 2.7e-13.  The dbi and osd
    query runs hold too: their superoperators are built by a pair scatter,
    which calls no BLAS.  So does an osd exact run, whose calls are products
    on the A factor."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    for scenario, strategy, params in [
        ("qite", {"kind": "qdp", "m": 16}, {"model": "heisenberg_chain", "n_qubits": 3,
                                            "n_steps": 2}),
        ("dbi", {"kind": "qdp", "m": 64}, {"dim": 16, "n_steps": 2}),
        ("osd", {"kind": "qdp", "m": 32}, {"dims": [2, 6], "n_steps": 2}),
        ("osd", {"kind": "exact"}, {"dims": [2, 6], "n_steps": 2}),
    ]:
        out = tmp_path / f"{scenario}-{strategy['kind']}.json"
        doc = {"schema_version": 1, "scenario": scenario, "seed": 3,
               "strategy": strategy, "params": params,
               "output": {"path": str(out), "format": "json"}}
        path = write_config(tmp_path, doc)
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", "import sys; from qdpsim.cli import main; "
                            "sys.exit(main(sys.argv[1:]))", "run", path], env=env, check=True,
                           capture_output=True)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], out.name


def _bits(row):
    return [v.hex() if isinstance(v, float) else v for v in row]


class TestChunkedColumns:
    """Each runner computes its columns over stacked chunks of points; every
    cell keeps the bits of the per-point formula it replaced."""

    @staticmethod
    def old_row(scenario, p, seed, pt):
        """The row a runner built from one point before its columns were chunked."""
        m, ledger = pt.state.matrix, pt.ledger
        if scenario == "dbi":
            diag = cli._diagonal(p["mu"], p["dim"])
            return (dbi_cost(m, diag), offdiag_hs_norm(m), pt.distance_to_target,
                    ledger.depth, ledger.width)
        if scenario == "qite":
            h = cli._qite_hamiltonian(p, seed)
            gs, _ = ground_state(h)
            return (energy(pt.state, h),
                    1.0 - float(np.real(np.vdot(gs.amplitudes, m @ gs.amplitudes))),
                    pt.mixedness, ledger.depth, ledger.width)
        if scenario == "osd":
            return (offdiag_hs_norm(partial_trace(m, tuple(p["dims"]), keep=[0])),
                    pt.mixedness, ledger.depth, ledger.width)
        return (pt.distance_to_target, pt.mixedness, ledger.depth, ledger.width,
                ledger.success_probability)

    @pytest.mark.parametrize("scenario, strategy, params", [
        ("dbi", {"kind": "exact"}, {"dim": 8, "n_steps": 64}),
        ("dbi", {"kind": "unfolding", "gc_substeps": 2}, {"dim": 8, "n_steps": 65}),
        ("dbi", {"kind": "qdp", "m": 8}, {"dim": 12, "n_steps": 28}),
        ("dbi", {"kind": "exact"}, {"dim": 3, "n_steps": 0, "mu": [-1.5, 0.25, 2.0]}),
        ("osd", {"kind": "exact"}, {"dims": [2, 4], "n_steps": 65}),
        ("osd", {"kind": "exact"}, {"dims": [3, 4], "n_steps": 28, "mu": [0, 0.5, 3]}),
        ("qite", {"kind": "exact"}, {"n_qubits": 3, "n_steps": 64}),
        ("qite", {"kind": "qdp", "m": 16}, {"model": "random", "dim": 5, "n_steps": 4}),
        ("grover", {"kind": "exact"}, {"L": 2, "dim": 8, "n_steps": 3, "delta0": 0.6}),
        ("grover", {"kind": "qdp", "m": 32, "imr": {"reduction_factor": 2.0, "copies_out": 64}},
         {"L": 1, "dim": 4, "n_steps": 3, "delta0": 0.6}),
    ], ids=["dbi-exact", "dbi-unfolding", "dbi-qdp", "dbi-no-steps", "osd-2x4", "osd-3x4",
            "qite-exact", "qite-random-qdp", "grover-exact", "grover-qdp-imr"])
    def test_cells_keep_the_per_point_bits(self, monkeypatch, scenario, strategy, params):
        records = []

        def keep(spec, n_steps, strategy):
            records.append(engine.run_strategy(spec, n_steps, strategy))
            return records[-1]

        monkeypatch.setattr(cli, "run_strategy", keep)
        doc = {"scenario": scenario, "seed": 7, "strategy": strategy, "params": params}
        cfg = ExperimentConfig.from_dict(doc)
        report = run_scenario(cfg)
        (record,) = records
        assert len(report.rows) == len(record) == params["n_steps"] + 1
        for n, (row, pt) in enumerate(zip(report.rows, record.points)):
            assert _bits(row) == _bits((n, *self.old_row(scenario, cfg.params, 7, pt)))
