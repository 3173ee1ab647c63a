"""Command-line harness: declarative experiment configs, CSV/JSON reports.

A config is one JSON file with a versioned schema::

    {
      "schema_version": 1,
      "scenario": "grover",            # grover | dbi | qite | osd | channel-error | cost
      "seed": 7,                       # mandatory whenever inputs are randomized
      "strategy": {"kind": "qdp", "m": 64},
      "params": {"L": 1, "n_steps": 3, "delta0": 0.6},
      "output": {"path": "out.csv", "format": "csv"}
    }

Flags override file fields, and the QDPSIM_SEED environment variable
overrides the file seed (an explicit --seed flag beats both).  Reruns with
identical config and seed produce byte-identical output files; floats are
serialized with 17 significant digits so the round trip is lossless.

Exit codes: 0 success, 2 config error, 3 infeasible configuration,
4 numerical-invariant violation during a run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .algos import (
    DBIConfig,
    GroverConfig,
    OSDConfig,
    QITEConfig,
    dbi_cost,
    dbi_recursion_spec,
    grover_config_from_distance,
    grover_delta_sequence,
    grover_qdp_run,
    grover_recursion_spec,
    ground_state,
    energy as state_energy,
    heisenberg_chain,
    offdiag_hs_norm,
    osd_recursion_spec,
    qite_recursion_spec,
    schmidt_oracle,
)
from .channels import (
    QueryGenerator,
    channel_error_probe,
    make_commutator_map,
    make_identity_map,
    make_scaled_identity_map,
    query_error_bound,
)
from .engine import (
    ExactStrategy,
    HybridStrategy,
    QDPStrategy,
    UnfoldingStrategy,
    run_strategy,
    unfolding_cost,
)
from .errors import (
    ConfigError,
    DimensionError,
    InfeasibleConfigError,
    InvariantError,
    UnsupportedSpecError,
)
from .imr import IMRConfig
from .linalg import PureState, hermitize, partial_trace, random_density, random_pure

SCHEMA_VERSION = 1
SCENARIOS = ("grover", "dbi", "qite", "osd", "channel-error", "cost")

_RANDOMIZED = {"grover", "dbi", "qite", "osd", "channel-error"}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound


@dataclass
class RunReport:
    columns: list[str]
    rows: list[tuple]
    bound_checks: list[BoundCheck] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "metadata": self.metadata,
            "columns": self.columns,
            "rows": [[_fmt(v) for v in row] for row in self.rows],
            "bound_checks": [
                {
                    "name": c.name,
                    "measured": _fmt(c.measured),
                    "bound": _fmt(c.bound),
                    "passed": c.passed,
                }
                for c in self.bound_checks
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")


# ---------------------------------------------------------------------------
# Config parsing


def _need(params: dict, key: str, kind, scenario: str):
    if key not in params:
        raise ConfigError(f"{scenario}: missing required field 'params.{key}'")
    try:
        return kind(params[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{scenario}: field 'params.{key}' is invalid: {exc}") from exc


def _opt(params: dict, key: str, kind, default, scenario: str):
    if key not in params or params[key] is None:
        return default
    return _need(params, key, kind, scenario)


def _output_section(raw: dict) -> dict:
    output = raw.get("output") or {}
    if not isinstance(output, dict):
        raise ConfigError(f"field 'output' must be an object, got {output!r}")
    return output


def parse_strategy(raw: dict):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("field 'strategy' must be an object with a 'kind'")
    kind = raw["kind"]
    imr = None
    if raw.get("imr") is not None:
        imr_raw = raw["imr"]
        try:
            imr = IMRConfig(
                reduction_factor=float(imr_raw["reduction_factor"]),
                copies_out=int(imr_raw.get("copies_out", 1)),
                failure_threshold=float(imr_raw.get("failure_threshold", 0.01)),
            )
        except (KeyError, TypeError, ValueError, InvariantError) as exc:
            raise ConfigError(f"field 'strategy.imr' is invalid: {exc}") from exc
    try:
        if kind == "exact":
            return ExactStrategy()
        if kind == "unfolding":
            return UnfoldingStrategy(gc_substeps=int(raw.get("gc_substeps", 1)))
        if kind == "qdp":
            return QDPStrategy(m=int(raw["m"]), imr=imr)
        if kind == "hybrid":
            return HybridStrategy(
                n1=int(raw["n1"]), n2=int(raw["n2"]), m=int(raw["m"]), imr=imr
            )
    except KeyError as exc:
        raise ConfigError(f"strategy '{kind}' is missing field {exc}") from exc
    except (TypeError, ValueError, InvariantError) as exc:
        raise ConfigError(f"field 'strategy' is invalid: {exc}") from exc
    raise ConfigError(f"field 'strategy.kind' must be one of exact/unfolding/qdp/hybrid, got {kind!r}")


@dataclass
class ExperimentConfig:
    scenario: str
    seed: Optional[int]
    strategy: object
    params: dict
    output_path: Optional[str]
    output_format: str
    raw: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"field 'schema_version' must be {SCHEMA_VERSION}, got {version!r}")
        scenario = raw.get("scenario")
        if scenario not in SCENARIOS:
            raise ConfigError(f"field 'scenario' must be one of {SCENARIOS}, got {scenario!r}")
        seed = raw.get("seed")
        if seed is not None:
            try:
                seed = int(seed)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"field 'seed' must be an integer, got {seed!r}") from exc
        if scenario in _RANDOMIZED and seed is None:
            raise ConfigError(f"field 'seed' is mandatory for scenario {scenario!r}")
        strategy = parse_strategy(raw.get("strategy", {"kind": "exact"}))
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("field 'params' must be an object")
        output = _output_section(raw)
        return cls(
            scenario=scenario,
            seed=seed,
            strategy=strategy,
            params=params,
            output_path=output.get("path"),
            output_format=output.get("format", "csv"),
            raw=raw,
        )


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Scenario runners


def _check_hybrid_split(strategy, n_steps: int) -> None:
    if isinstance(strategy, HybridStrategy) and strategy.n1 + strategy.n2 != n_steps:
        raise ConfigError(
            f"strategy: hybrid phases n1+n2 must equal params.n_steps "
            f"({strategy.n1}+{strategy.n2} != {n_steps})"
        )


def _grover_setup(cfg: ExperimentConfig) -> GroverConfig:
    p = cfg.params
    delta0 = _need(p, "delta0", float, "grover")
    if not 0.0 < delta0 < 1.0:
        raise ConfigError(f"grover: 'params.delta0' must be in (0, 1), got {delta0!r}")
    n_steps = _need(p, "n_steps", int, "grover")
    if n_steps < 0:
        raise ConfigError(f"grover: 'params.n_steps' must be >= 0, got {n_steps}")
    return grover_config_from_distance(
        delta0=delta0,
        alternations=_need(p, "L", int, "grover"),
        n_steps=n_steps,
        dim=_opt(p, "dim", int, 2, "grover"),
        seed=cfg.seed,
    )


def _run_grover(cfg: ExperimentConfig) -> RunReport:
    gcfg = _grover_setup(cfg)
    _check_hybrid_split(cfg.strategy, gcfg.n_steps)
    eps = _opt(cfg.params, "eps", float, 0.0, "grover")
    if isinstance(cfg.strategy, QDPStrategy):
        record = grover_qdp_run(gcfg, cfg.strategy.m, eps=eps, imr=cfg.strategy.imr)
    else:
        spec = grover_recursion_spec(gcfg, eps=eps)
        record = run_strategy(spec, gcfg.n_steps, cfg.strategy)
    rows = [
        (n, pt.distance_to_target, pt.mixedness, pt.ledger.depth, pt.ledger.width,
         pt.ledger.success_probability)
        for n, pt in enumerate(record.points)
    ]
    checks = []
    if eps > 0.0 and not isinstance(cfg.strategy, (ExactStrategy, UnfoldingStrategy)):
        deltas = grover_delta_sequence(gcfg.delta0, gcfg.alternations, gcfg.n_steps, eps)
        bound = deltas[-1] + eps / (2.0 * gcfg.alternations * math.pi)
        checks.append(BoundCheck("final_distance", record.points[-1].distance_to_target, bound))
    return RunReport(
        columns=["step", "trace_distance", "mixedness", "depth", "width", "p_success"],
        rows=rows,
        bound_checks=checks,
    )


def _run_dbi(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    dim = _need(p, "dim", int, "dbi")
    n_steps = _need(p, "n_steps", int, "dbi")
    mu = _opt(p, "mu", list, list(range(dim)), "dbi")
    if len(mu) != dim:
        raise ConfigError(f"dbi: 'params.mu' must have {dim} entries")
    diag = np.diag(np.asarray(mu, dtype=float))
    initial = random_density(dim, cfg.seed).matrix * dim
    step_size = _opt(p, "step_size", float, None, "dbi")
    dcfg = DBIConfig(diagonal=diag, initial=initial, step_size=step_size)
    _check_hybrid_split(cfg.strategy, n_steps)
    spec = dbi_recursion_spec(dcfg)
    record = run_strategy(spec, n_steps, cfg.strategy)
    rows = [
        (n, dbi_cost(pt.state.matrix, diag), offdiag_hs_norm(pt.state.matrix),
         pt.distance_to_target, pt.ledger.depth, pt.ledger.width)
        for n, pt in enumerate(record.points)
    ]
    return RunReport(
        columns=["step", "cost", "offdiag_hs", "trace_distance", "depth", "width"],
        rows=rows,
    )


def _qite_hamiltonian(p: dict, seed) -> np.ndarray:
    model = _opt(p, "model", str, "heisenberg_chain", "qite")
    if model == "heisenberg_chain":
        n_qubits = _opt(p, "n_qubits", int, 3, "qite")
        if n_qubits < 1:
            raise ConfigError(f"qite: 'params.n_qubits' must be >= 1, got {n_qubits}")
        return heisenberg_chain(n_qubits, _opt(p, "field", float, 0.5, "qite"))
    if model == "random":
        dim = _need(p, "dim", int, "qite")
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return hermitize((g + g.conj().T) / 2.0, atol=np.inf)
    raise ConfigError(f"qite: unknown 'params.model' {model!r}")


def _run_qite(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    n_steps = _need(p, "n_steps", int, "qite")
    h = _qite_hamiltonian(p, cfg.seed)
    psi0 = random_pure(h.shape[0], cfg.seed)
    step_size = _opt(p, "step_size", float, None, "qite")
    qcfg = QITEConfig(hamiltonian=h, initial=psi0, step_size=step_size)
    _check_hybrid_split(cfg.strategy, n_steps)
    spec = qite_recursion_spec(qcfg)
    record = run_strategy(spec, n_steps, cfg.strategy)
    gs, _ = ground_state(h)
    rows = []
    for n, pt in enumerate(record.points):
        infid = 1.0 - float(np.real(np.vdot(gs.amplitudes, pt.state.matrix @ gs.amplitudes)))
        rows.append(
            (n, state_energy(pt.state, h), infid, pt.mixedness,
             pt.ledger.depth, pt.ledger.width)
        )
    return RunReport(
        columns=["step", "energy", "ground_infidelity", "mixedness", "depth", "width"],
        rows=rows,
    )


def _run_osd(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    dims = tuple(_need(p, "dims", list, "osd"))
    if len(dims) != 2:
        raise ConfigError("osd: 'params.dims' must be a [dA, dB] pair")
    da, db = int(dims[0]), int(dims[1])
    n_steps = _need(p, "n_steps", int, "osd")
    mu = _opt(p, "mu", list, list(range(da)), "osd")
    diag = np.diag(np.asarray(mu, dtype=float))
    psi0 = PureState(random_pure(da * db, cfg.seed).amplitudes, (da, db))
    if not isinstance(cfg.strategy, (ExactStrategy, QDPStrategy)):
        raise ConfigError("osd: strategy must be 'exact' or 'qdp'")
    step_size = _opt(p, "step_size", float, None, "osd")
    ocfg = OSDConfig(dims=(da, db), diagonal=diag, initial=psi0, step_size=step_size)
    record = run_strategy(osd_recursion_spec(ocfg), n_steps, cfg.strategy)
    rows = []
    for n, pt in enumerate(record.points):
        reduced = partial_trace(pt.state.matrix, (da, db), keep=[0])
        rows.append(
            (n, offdiag_hs_norm(reduced), pt.mixedness, pt.ledger.depth, pt.ledger.width)
        )
    final_reduced = partial_trace(record.final_state.matrix, (da, db), keep=[0])
    estimate = np.sort(np.real(np.diag(final_reduced)))[::-1]
    oracle = schmidt_oracle(psi0, (da, db))
    checks = [
        BoundCheck("schmidt_estimate_max_error", float(np.max(np.abs(estimate - oracle))), 1e-2)
    ]
    return RunReport(
        columns=["step", "offdiag_hs", "mixedness", "depth", "width"],
        rows=rows,
        bound_checks=checks,
    )


def _run_channel_error(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    dim = _need(p, "dim", int, "channel-error")
    kind = _opt(p, "map", str, "dme", "channel-error")
    s = _need(p, "s", float, "channel-error")
    m_values = [int(v) for v in _need(p, "m_values", list, "channel-error")]
    n_samples = _opt(p, "n_samples", int, 5, "channel-error")
    if kind == "dme":
        mmap = make_identity_map(dim)
    elif kind == "scaled":
        mmap = make_scaled_identity_map(_opt(p, "alpha", float, 1.0, "channel-error"), dim)
    elif kind == "commutator":
        mu = np.arange(dim, dtype=float) / max(dim - 1, 1)
        mmap = make_commutator_map(np.diag(mu), _opt(p, "map_s", float, 1.0, "channel-error"))
    else:
        raise ConfigError(f"channel-error: unknown 'params.map' {kind!r}")
    gen = QueryGenerator.from_map(mmap)
    memory = random_density(dim, cfg.seed)
    rows, checks = [], []
    for m in m_values:
        err = channel_error_probe(gen, mmap, memory, s, m, n_samples, cfg.seed)
        bound, within = query_error_bound(gen, s, m)
        passed = (err <= bound) if within else True
        rows.append((m, s, err, bound, within, passed))
        if within:
            checks.append(BoundCheck(f"query_error_m{m}", err, bound))
    return RunReport(
        columns=["m", "s", "measured_error", "error_bound", "within_window", "passed"],
        rows=rows,
        bound_checks=checks,
    )


def _run_cost(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    n_calls = _need(p, "L", int, "cost")
    n_steps = _need(p, "N", int, "cost")
    m = _opt(p, "m", int, None, "cost")
    rows = []
    final_calls, total = unfolding_cost(n_calls, n_steps)
    rows.append(("unfolding_final_step_calls", final_calls))
    rows.append(("unfolding_total_depth", total))
    if m is not None:
        qdp_depth = n_steps * m
        qdp_width = (m + 1) ** n_steps
        rows.append(("qdp_depth", qdp_depth))
        rows.append(("qdp_width", qdp_width))
        rows.append(("qdp_circuit_size", qdp_depth * qdp_width))
        n1 = _opt(p, "n1", int, None, "cost")
        n2 = _opt(p, "n2", int, None, "cost")
        if n1 is not None and n2 is not None:
            if n1 + n2 != n_steps:
                raise ConfigError(f"cost: n1 + n2 must equal N ({n1}+{n2} != {n_steps})")
            hybrid_depth = (unfolding_cost(n_calls, n1)[1] if n1 else 0) + n2 * m
            rows.append(("hybrid_depth", hybrid_depth))
            rows.append(("hybrid_width", (m + 1) ** n2))
            rows.append(("hybrid_circuit_size", hybrid_depth * (m + 1) ** n2))
    return RunReport(columns=["quantity", "value"], rows=rows)


_RUNNERS = {
    "grover": _run_grover,
    "dbi": _run_dbi,
    "qite": _run_qite,
    "osd": _run_osd,
    "channel-error": _run_channel_error,
    "cost": _run_cost,
}


def _finish(report: RunReport, cfg: ExperimentConfig) -> RunReport:
    """Stamp the report's metadata and write it to the config's output, if any."""
    report.metadata = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config": cfg.raw,
    }
    if cfg.output_path:
        text = report.render(cfg.output_format)
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return report


def run_scenario(cfg: ExperimentConfig) -> RunReport:
    """Execute one experiment config and return (and optionally write) its report."""
    return _finish(_RUNNERS[cfg.scenario](cfg), cfg)


def compare_strategies(cfg: ExperimentConfig, strategies: list) -> RunReport:
    """Run several strategies on shared scenario parameters; one row each with
    final distance, depth, width and circuit size (depth times width)."""
    rows = []
    for raw in strategies:
        strat = parse_strategy(raw)
        sub = ExperimentConfig(
            scenario=cfg.scenario,
            seed=cfg.seed,
            strategy=strat,
            params=cfg.params,
            output_path=None,
            output_format=cfg.output_format,
            raw=cfg.raw,
        )
        report = _RUNNERS[cfg.scenario](sub)
        last = report.rows[-1] if report.rows else ()
        final_distance = None
        if cfg.scenario == "grover" and last:
            final_distance = last[1]
        elif "trace_distance" in report.columns and last:
            final_distance = last[report.columns.index("trace_distance")]
        elif "ground_infidelity" in report.columns and last:
            final_distance = last[report.columns.index("ground_infidelity")]
        depth = last[report.columns.index("depth")] if last else 0
        width = last[report.columns.index("width")] if last else 1
        label = raw.get("kind", "?")
        if raw.get("m") is not None:
            label += f"(m={raw['m']})"
        rows.append((label, final_distance if final_distance is not None else float("nan"),
                     depth, width, depth * width))
    report = RunReport(
        columns=["strategy", "final_distance", "depth", "width", "circuit_size"], rows=rows
    )
    return _finish(report, cfg)


# ---------------------------------------------------------------------------
# Entry point


def _apply_overrides(raw: dict, args) -> dict:
    raw = dict(raw)
    env_seed = os.environ.get("QDPSIM_SEED")
    if env_seed is not None:
        try:
            raw["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"QDPSIM_SEED must be an integer, got {env_seed!r}") from exc
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    output = dict(_output_section(raw))
    if getattr(args, "output", None) is not None:
        output["path"] = args.output
    if getattr(args, "format", None) is not None:
        output["format"] = args.format
    if output:
        raw["output"] = output
    return raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdpsim",
        description="simulate state-instructed quantum recursions and account their costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--output", help="override the output path")
    p_run.add_argument("--format", choices=["csv", "json"], help="override the output format")

    p_cmp = sub.add_parser("compare", help="run every strategy in the config's 'strategies' list")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--seed", type=int)
    p_cmp.add_argument("--output")
    p_cmp.add_argument("--format", choices=["csv", "json"])

    p_cost = sub.add_parser("cost", help="closed-form depth/width cost table")
    p_cost.add_argument("--scenario", default="grover", choices=["grover"])
    p_cost.add_argument("--L", type=int, required=True, help="memory-calls per step")
    p_cost.add_argument("--N", type=int, required=True, help="recursion steps")
    p_cost.add_argument("--m", type=int, help="queries per step (adds query-strategy rows)")
    p_cost.add_argument("--n1", type=int, help="hybrid unfolding steps")
    p_cost.add_argument("--n2", type=int, help="hybrid query steps")
    p_cost.add_argument("--output")
    p_cost.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = ExperimentConfig.from_dict(_apply_overrides(load_config(args.config), args))
            report = run_scenario(cfg)
            _summarize(report, cfg.output_path)
        elif args.command == "compare":
            raw = _apply_overrides(load_config(args.config), args)
            strategies = raw.get("strategies", [])
            if not isinstance(strategies, list):
                raise ConfigError("field 'strategies' must be a list")
            cfg = ExperimentConfig.from_dict(raw)
            report = compare_strategies(cfg, strategies)
            _summarize(report, cfg.output_path)
            if not strategies:
                print("no strategies listed; empty report")
        elif args.command == "cost":
            params = {"L": args.L, "N": args.N}
            if args.m is not None:
                params["m"] = args.m
            if args.n1 is not None:
                params["n1"] = args.n1
            if args.n2 is not None:
                params["n2"] = args.n2
            raw = {
                "schema_version": SCHEMA_VERSION,
                "scenario": "cost",
                "params": params,
            }
            if args.output:
                raw["output"] = {"path": args.output, "format": args.format}
            cfg = ExperimentConfig.from_dict(raw)
            report = run_scenario(cfg)
            if not args.output:
                sys.stdout.write(report.render(args.format))
            else:
                _summarize(report, cfg.output_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedSpecError, DimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleConfigError as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 4
    return 0


def _summarize(report: RunReport, path: Optional[str]) -> None:
    if path:
        print(f"wrote {path} ({len(report.rows)} rows)")
    for check in report.bound_checks:
        status = "pass" if check.passed else "FAIL"
        print(f"bound {check.name}: measured {_fmt(check.measured)} <= {_fmt(check.bound)}: {status}")


if __name__ == "__main__":
    sys.exit(main())
