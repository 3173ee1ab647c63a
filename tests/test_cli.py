import copy
import importlib.util
import json
import pathlib
import random
import sys

import numpy as np
import pytest

from qdpsim import PureState, cli
from qdpsim.cli import ExperimentConfig, compare_strategies, main, run_scenario
from qdpsim.errors import ConfigError, InfeasibleConfigError, InvariantError


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_mid_run_invariant_is_4(self, tmp_path, monkeypatch, capsys):
        def broken(spec, n_steps, strategy):
            raise InvariantError("trace drifted")

        monkeypatch.setattr("qdpsim.cli.run_strategy", broken)
        assert main(["run", write_config(tmp_path, grover_doc(tmp_path))]) == 4
        assert "numerical invariant violated: trace drifted" in capsys.readouterr().err

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

    def test_env_seed_override(self, tmp_path, monkeypatch):
        doc = grover_doc(tmp_path, out_name="a.csv")
        doc["params"]["dim"] = 3
        path = write_config(tmp_path, doc)
        main(["run", path])
        monkeypatch.setenv("QDPSIM_SEED", "8")
        doc2 = grover_doc(tmp_path, out_name="b.csv")
        doc2["params"]["dim"] = 3
        path2 = write_config(tmp_path, doc2, name="cfg2.json")
        main(["run", path2])
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_seed_flag_beats_env_and_file(self, tmp_path, monkeypatch):
        doc = grover_doc(tmp_path, out_name="want.csv", seed=9)
        doc["params"]["dim"] = 3
        main(["run", write_config(tmp_path, doc)])
        monkeypatch.setenv("QDPSIM_SEED", "8")
        doc2 = grover_doc(tmp_path, out_name="got.csv")
        doc2["params"]["dim"] = 3
        path2 = write_config(tmp_path, doc2, name="cfg2.json")
        assert main(["run", path2, "--seed", "9"]) == 0
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert main(["run", path2, "--output", str(tmp_path / "env.csv")]) == 0
        assert (tmp_path / "env.csv").read_bytes() != (tmp_path / "want.csv").read_bytes()

    def test_non_integer_env_seed_is_2_and_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QDPSIM_SEED", "abc")
        assert main(["run", write_config(tmp_path, grover_doc(tmp_path))]) == 2
        assert "QDPSIM_SEED" in capsys.readouterr().err


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
        assert main(["cost", "--scenario", "grover", "--L", "2", "--N", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "quantity,value"
        assert "unfolding_final_step_calls,250" in out

    def test_hybrid_rows(self, capsys):
        rc = main(
            ["cost", "--scenario", "grover", "--L", "1", "--N", "4",
             "--m", "8", "--n1", "2", "--n2", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "qdp_width,6561" in out  # 9^4
        assert "hybrid_width,81" in out  # 9^2

    def test_mismatched_hybrid_split(self, capsys):
        rc = main(
            ["cost", "--scenario", "grover", "--L", "1", "--N", "4",
             "--m", "8", "--n1", "1", "--n2", "2"]
        )
        assert rc == 2


def dbi_doc(strategy, n_steps, **overrides):
    doc = {"schema_version": 1, "scenario": "dbi", "seed": 1, "strategy": strategy,
           "params": {"dim": 2, "n_steps": n_steps}}
    doc.update(overrides)
    return doc


@pytest.fixture
def no_runner(monkeypatch):
    def refuse(cfg):
        raise AssertionError("a scenario runner started")

    for scenario in list(cli._RUNNERS):
        monkeypatch.setitem(cli._RUNNERS, scenario, refuse)


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
            ("params.dims", "osd", {"kind": "qdp", "m": 4}, {"dims": [10, 10], "n_steps": 1}),
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
            ("dbi", {"kind": "exact"}, {"dim": 91, "n_steps": 1}),  # builds no Nhat
        ],
        ids=["qite-4-qubits", "dbi-dim-90", "osd-90", "dbi-exact"],
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
    monkeypatch.delenv("QDPSIM_SEED", raising=False)
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
    monkeypatch.delenv("QDPSIM_SEED", raising=False)
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
    monkeypatch.setattr(cli, "_RUNNERS", {})  # any run would raise KeyError
    doc = dict(base, strategies=[{"kind": "exact"}], output={})
    assert main(["compare", write_config(tmp_path, doc)]) == 2
    assert "field 'strategies'" in capsys.readouterr().err


def test_overflowing_imr_copy_count_is_3(tmp_path, capsys, monkeypatch):
    """At seed 1 the purified state's mixedness reads exactly 0, so rounds go on
    at ratio 1/2 until 1e300 is guaranteed, and the copy count
    ``copies_out (2/c)^rounds`` would overflow a float: infeasible, not a traceback."""
    monkeypatch.delenv("QDPSIM_SEED", raising=False)
    doc = grover_doc(tmp_path, seed=1, strategy={
        "kind": "qdp", "m": 16, "imr": {"reduction_factor": 1e300, "copies_out": 64}})
    assert main(["run", write_config(tmp_path, doc)]) == 3
    assert "reduction_factor" in capsys.readouterr().err


def test_unreachable_imr_reduction_factor_is_3(tmp_path, capsys, monkeypatch):
    """Purified to roundoff, the state's mixedness reads below 0 before a
    1e300 reduction is guaranteed: the target is infeasible, not a breakdown."""
    monkeypatch.delenv("QDPSIM_SEED", raising=False)
    doc = grover_doc(tmp_path, strategy={
        "kind": "qdp", "m": 16, "imr": {"reduction_factor": 1e300, "copies_out": 64}})
    assert main(["run", write_config(tmp_path, doc)]) == 3
    assert "reduction_factor" in capsys.readouterr().err


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
        # dim 2: 16 * 4 * 2^26 B = MAX_TRAJECTORY_BYTES, reached at n_steps = 2^26 - 1
        n_limit = cli.MAX_TRAJECTORY_BYTES // 64 - 1
        ExperimentConfig.from_dict(dbi_doc({"kind": "exact"}, n_limit))
        with pytest.raises(InfeasibleConfigError, match="params.n_steps"):
            ExperimentConfig.from_dict(dbi_doc({"kind": "exact"}, n_limit + 1))


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
