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

One table below (``_TOP``, ``_STRATEGIES``, ``_PARAMS``, ``_RULES``) gives
every field its type, range and default; ``ExperimentConfig.from_dict``
applies it before any numerics.  A missing, mistyped or out-of-range field,
a key the table does not list, or a broken rule between fields raises
``ConfigError`` naming the field.  Integers are JSON integers (booleans are
not), reals are finite JSON numbers, and a null value means "absent".

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
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .algos import (
    DBIConfig,
    OSDConfig,
    QITEConfig,
    dbi_cost,
    dbi_recursion_spec,
    grover_config_from_distance,
    grover_delta_sequence,
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
from .linalg import PureState, partial_trace, random_density, random_pure

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
        return {"csv": self.to_csv, "json": self.to_json}[fmt]()


# ---------------------------------------------------------------------------
# Config schema: every field's type, range and default, in one table


class _Field(NamedTuple):
    """One config field.  ``kind`` is int, real, str, object or list; a list
    of ints or reals is ``many`` with ``size`` entries if given.  ``lo``/``hi``
    bound numbers (strictly if ``open``), ``choices`` lists allowed values,
    ``table`` checks an object's keys.  ``default`` is used when the field is
    absent or null: ``_REQUIRED``, a value, or a function of the fields above."""

    kind: str
    default: object = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    open: bool = False
    choices: tuple = ()
    many: bool = False
    size: Optional[int] = None
    table: Optional[dict] = None

    def describe(self) -> str:
        if self.choices:
            return "one of " + "|".join(map(str, self.choices))
        bound = ""
        if self.lo is not None and self.hi is not None:
            left, right = "()" if self.open else "[]"
            bound = f" in {left}{self.lo:g}, {self.hi:g}{right}"
        elif self.lo is not None:
            bound = f" {'>' if self.open else '>='} {self.lo:g}"
        if self.many:
            return f"list of {f'{self.size} ' if self.size else ''}{self.kind}s{bound}"
        return self.kind + bound


_REQUIRED = object()
_STEPS = _Field("int", _REQUIRED, lo=0)
_COUNT = _Field("int", _REQUIRED, lo=1)
_STEP_SIZE = _Field("real", None, lo=0, open=True)  # None -> canonical
_IMR = _Field("object", None, table={
    "reduction_factor": _Field("real", _REQUIRED, lo=1, open=True),
    "copies_out": _Field("int", 1, lo=1),
    "failure_threshold": _Field("real", 0.01, lo=0, hi=1, open=True),
})

_TOP = {
    "schema_version": _Field("int", SCHEMA_VERSION, choices=(SCHEMA_VERSION,)),
    "scenario": _Field("str", _REQUIRED, choices=SCENARIOS),
    "seed": _Field("int", None, lo=0),
    "strategy": _Field("object", {"kind": "exact"}),
    "params": _Field("object", {}),
    "output": _Field("object", {}, table={
        "path": _Field("str"),
        "format": _Field("str", "csv", choices=("csv", "json")),
    }),
    "strategies": _Field("list", []),  # read by `compare`
}
_STRATEGIES = {
    "exact": (ExactStrategy, {}),
    "unfolding": (UnfoldingStrategy, {"gc_substeps": _Field("int", 1, lo=1)}),
    "qdp": (QDPStrategy, {"m": _COUNT, "imr": _IMR}),
    "hybrid": (HybridStrategy, {"n1": _STEPS, "n2": _STEPS, "m": _COUNT, "imr": _IMR}),
}
_KIND = _Field("str", _REQUIRED, choices=tuple(_STRATEGIES))
_PARAMS = {
    "grover": {
        "L": _COUNT,
        "n_steps": _STEPS,
        "delta0": _Field("real", _REQUIRED, lo=0, hi=1, open=True),
        "dim": _Field("int", 2, lo=2),
        "eps": _Field("real", 0.0, lo=0),
    },
    "dbi": {
        "dim": _Field("int", _REQUIRED, lo=2),
        "n_steps": _STEPS,
        "mu": _Field("real", lambda p: list(range(p["dim"])), many=True),
        "step_size": _STEP_SIZE,
    },
    "qite": {
        "n_steps": _STEPS,
        "model": _Field("str", "heisenberg_chain", choices=("heisenberg_chain", "random")),
        "n_qubits": _Field("int", 3, lo=1),
        "field": _Field("real", 0.5),
        "dim": _Field("int", None, lo=2),
        "step_size": _STEP_SIZE,
    },
    "osd": {
        "dims": _Field("int", _REQUIRED, lo=2, many=True, size=2),
        "n_steps": _STEPS,
        "mu": _Field("real", lambda p: list(range(p["dims"][0])), many=True),
        "step_size": _STEP_SIZE,
    },
    "channel-error": {
        "dim": _Field("int", _REQUIRED, lo=1),
        "map": _Field("str", "dme", choices=("dme", "scaled", "commutator")),
        "s": _Field("real", _REQUIRED),
        "m_values": _Field("int", _REQUIRED, lo=1, many=True),
        "n_samples": _Field("int", 5, lo=1),
        "alpha": _Field("real", 1.0),
        "map_s": _Field("real", 1.0),
    },
    "cost": {"L": _COUNT, "N": _COUNT, "m": _Field("int", None, lo=1),
             "n1": _Field("int", None, lo=0), "n2": _Field("int", None, lo=0)},
}


def _increasing(mu: list, size: int) -> bool:
    return len(mu) == size and all(a < b for a, b in zip(mu, mu[1:]))


def _grover_cascade(p: dict) -> list:
    """The eps-inflated distance cascade; ``[inf]`` once it leaves (0, 1]."""
    try:
        return grover_delta_sequence(p["delta0"], p["L"], p["n_steps"], p["eps"])
    except InvariantError:
        return [math.inf]


# Rules tying fields together: (scenarios, field, requirement, holds(params, strategy)).
_RULES = (
    (("dbi",), "params.mu", "have params.dim strictly increasing entries",
     lambda p, s: _increasing(p["mu"], p["dim"])),
    (("osd",), "params.mu", "have params.dims[0] strictly increasing entries",
     lambda p, s: _increasing(p["mu"], p["dims"][0])),
    (("osd",), "strategy.kind", "be exact or qdp", lambda p, s: s["kind"] in ("exact", "qdp")),
    (("qite",), "strategy.kind", "be exact, qdp or hybrid with n1 == 0 (no commutator to unfold)",
     lambda p, s: s["kind"] != "unfolding" and s.get("n1", 0) == 0),
    (("qite",), "params.dim", "be given for params.model random",
     lambda p, s: p["model"] != "random" or p["dim"] is not None),
    (("grover", "dbi", "qite"), "strategy.n1", "satisfy n1 + n2 == params.n_steps",
     lambda p, s: s["kind"] != "hybrid" or s["n1"] + s["n2"] == p["n_steps"]),
    (("grover",), "strategy.m", "be >= 2 * params.L for qdp and >= params.L for hybrid",
     lambda p, s: s.get("m", math.inf) >= (2 if s["kind"] == "qdp" else 1) * p["L"]),
    (("grover",), "params.eps", "keep the eps-inflated distance cascade below 1",
     lambda p, s: max(_grover_cascade(p)) < 1.0),
    (("grover",), "params.n_steps", "keep every cascade step's distance above params.eps in floats",
     lambda p, s: all(d - p["eps"] > 0.0 for d in _grover_cascade(p)[1:])),
    (("cost",), "params.n1", "come with params.n2 and params.m, and n1 + n2 == params.N",
     lambda p, s: (p["n1"], p["n2"]) == (None, None)
     or None not in (p["n1"], p["n2"], p["m"]) and p["n1"] + p["n2"] == p["N"]),
)


def _value(path: str, f: _Field, value):
    """``value`` checked against ``f`` and converted (reals to float)."""
    if f.many:
        if not isinstance(value, list) or f.size not in (None, len(value)):
            raise ConfigError(f"field '{path}' must be {f.describe()}, got {value!r}")
        entry = f._replace(many=False)
        return [_value(f"{path}[{i}]", entry, v) for i, v in enumerate(value)]
    kind = {"int": int, "real": (int, float), "str": str, "object": dict, "list": list}[f.kind]
    ok = isinstance(value, kind) and not isinstance(value, bool)
    checked = value
    if ok and f.kind == "real":
        try:
            checked = float(value)
        except OverflowError:  # an integer beyond the float range
            checked = math.inf
        ok = math.isfinite(checked)
    if ok and f.lo is not None:
        ok = checked > f.lo if f.open else checked >= f.lo
    if ok and f.hi is not None:
        ok = checked < f.hi if f.open else checked <= f.hi
    if not ok or (f.choices and checked not in f.choices):
        raise ConfigError(f"field '{path}' must be {f.describe()}, got {value!r}")
    return _section(path, f.table, checked) if f.table is not None else checked


def _section(path: str, table: dict, raw: dict) -> dict:
    """Every field of ``table`` from the object ``raw``, checked, defaults
    filled; a key the table does not list is an error."""
    prefix = path + "." if path else ""
    for key in raw:
        if key not in table:
            raise ConfigError(f"field '{prefix}{key}' is unknown; expected one of {', '.join(table)}")
    out = {}
    for key, f in table.items():
        value = raw.get(key)
        if value is None:
            if f.default is _REQUIRED:
                raise ConfigError(f"field '{prefix}{key}' is required")
            value = f.default(out) if callable(f.default) else f.default
        out[key] = None if value is None else _value(prefix + key, f, value)
    return out


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
        """Check ``raw`` against the schema tables, before any numerics."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        top = _section("", _TOP, raw)
        scenario = top["scenario"]
        if scenario in _RANDOMIZED and top["seed"] is None:
            raise ConfigError(f"field 'seed' is mandatory for scenario {scenario!r}")
        out = top["output"]["path"]
        if out is not None and (out == "" or os.path.isdir(out)
                                or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ConfigError(
                f"field 'output.path' must name a file in an existing directory, got {out!r}"
            )
        kind = _value("strategy.kind", _KIND, top["strategy"].get("kind"))
        strategy_type, table = _STRATEGIES[kind]
        strategy = _section("strategy", {"kind": _KIND, **table}, top["strategy"])
        params = _section("params", _PARAMS[scenario], top["params"])
        for scenarios, path, requirement, holds in _RULES:
            if scenario in scenarios and not holds(params, strategy):
                section, key = path.split(".")
                got = (params if section == "params" else strategy)[key]
                raise ConfigError(f"field '{path}' must {requirement}, got {got!r}")
        fields = {k: v for k, v in strategy.items() if k != "kind"}
        if fields.get("imr") is not None:
            fields["imr"] = IMRConfig(**fields["imr"])
        return cls(
            scenario=scenario,
            seed=top["seed"],
            strategy=strategy_type(**fields),
            params=params,
            output_path=top["output"]["path"],
            output_format=top["output"]["format"],
            raw=raw,
        )


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} could not be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Scenario runners


def _run_grover(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    gcfg = grover_config_from_distance(
        delta0=p["delta0"], alternations=p["L"], n_steps=p["n_steps"], dim=p["dim"], seed=cfg.seed
    )
    eps = p["eps"]
    record = run_strategy(grover_recursion_spec(gcfg, eps=eps), gcfg.n_steps, cfg.strategy)
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
    diag = np.diag(np.asarray(p["mu"], dtype=float))
    initial = random_density(p["dim"], cfg.seed).matrix * p["dim"]
    dcfg = DBIConfig(diagonal=diag, initial=initial, step_size=p["step_size"])
    record = run_strategy(dbi_recursion_spec(dcfg), p["n_steps"], cfg.strategy)
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
    if p["model"] == "heisenberg_chain":
        return heisenberg_chain(p["n_qubits"], p["field"])
    dim = p["dim"]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _run_qite(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    h = _qite_hamiltonian(p, cfg.seed)
    psi0 = random_pure(h.shape[0], cfg.seed)
    qcfg = QITEConfig(hamiltonian=h, initial=psi0, step_size=p["step_size"])
    try:
        spec = qite_recursion_spec(qcfg)
        gs, _ = ground_state(h)
    except InvariantError as exc:
        fields = "params.dim" if p["model"] == "random" else "params.n_qubits and params.field"
        raise InfeasibleConfigError(f"{fields} give QITE no unique ground state: {exc}") from exc
    record = run_strategy(spec, p["n_steps"], cfg.strategy)
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
    da, db = p["dims"]
    diag = np.diag(np.asarray(p["mu"], dtype=float))
    psi0 = PureState(random_pure(da * db, cfg.seed).amplitudes, (da, db))
    ocfg = OSDConfig(dims=(da, db), diagonal=diag, initial=psi0, step_size=p["step_size"])
    record = run_strategy(osd_recursion_spec(ocfg), p["n_steps"], cfg.strategy)
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
    dim, s = p["dim"], p["s"]
    if p["map"] == "dme":
        mmap = make_identity_map(dim)
    elif p["map"] == "scaled":
        mmap = make_scaled_identity_map(p["alpha"], dim)
    else:
        mu = np.arange(dim, dtype=float) / max(dim - 1, 1)
        mmap = make_commutator_map(np.diag(mu), p["map_s"])
    gen = mmap.generator
    memory = random_density(dim, cfg.seed)
    rows, checks = [], []
    for m in p["m_values"]:
        err = channel_error_probe(gen, mmap, memory, s, m, p["n_samples"], cfg.seed)
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
    n_calls, n_steps, m, n1, n2 = p["L"], p["N"], p["m"], p["n1"], p["n2"]
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
        if n1 is not None:
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
        try:
            with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"field 'output.path' could not be written: {exc}") from exc
    return report


def run_scenario(cfg: ExperimentConfig) -> RunReport:
    """Execute one experiment config and return (and optionally write) its report."""
    return _finish(_RUNNERS[cfg.scenario](cfg), cfg)


def compare_strategies(cfg: ExperimentConfig, strategies: list) -> RunReport:
    """Run several strategies on shared scenario parameters; one row each with
    final distance, depth, width and circuit size (depth times width)."""
    subs = [ExperimentConfig.from_dict(dict(cfg.raw, strategy=raw)) for raw in strategies]
    rows = []
    for raw, sub in zip(strategies, subs):
        report = _RUNNERS[cfg.scenario](sub)
        last = report.rows[-1] if report.rows else ()
        final_distance = None
        for column in ("trace_distance", "ground_infidelity"):
            if column in report.columns and last:
                final_distance = last[report.columns.index(column)]
                break
        depth = last[report.columns.index("depth")] if last else 0
        width = last[report.columns.index("width")] if last else 1
        label = raw["kind"]
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
    flags = {"path": getattr(args, "output", None), "format": getattr(args, "format", None)}
    flags = {key: value for key, value in flags.items() if value is not None}
    output = raw.get("output") or {}
    if flags and isinstance(output, dict):  # else the schema names the bad field
        raw["output"] = {**output, **flags}
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
            cfg = ExperimentConfig.from_dict(_apply_overrides(load_config(args.config), args))
            strategies = cfg.raw.get("strategies") or []
            report = compare_strategies(cfg, strategies)
            _summarize(report, cfg.output_path)
            if not strategies:
                print("no strategies listed; empty report")
        elif args.command == "cost":
            params = {"L": args.L, "N": args.N, "m": args.m, "n1": args.n1, "n2": args.n2}
            raw = {
                "schema_version": SCHEMA_VERSION,
                "scenario": "cost",
                "params": {key: value for key, value in params.items() if value is not None},
            }
            if args.output:
                raw["output"] = {"path": args.output, "format": args.format}
            cfg = ExperimentConfig.from_dict(raw)
            report = run_scenario(cfg)
            if not args.output:
                sys.stdout.write(report.render(args.format))
            else:
                _summarize(report, cfg.output_path)
    except (ConfigError, UnsupportedSpecError, DimensionError) as exc:
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
