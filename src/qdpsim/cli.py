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
``ConfigError`` naming the field.  ``compare`` puts each ``strategies[i]``
entry through the same strategy check (``_strategy``) as ``strategy``.
Integers are JSON integers (booleans are not), reals are finite JSON
numbers, and a null value means "absent".

Flags override file fields, and the QDPSIM_SEED environment variable
overrides the file seed (an explicit --seed flag beats both).  Reruns with
identical config and seed produce byte-identical output files; floats are
serialized with 17 significant digits so the round trip is lossless.  With
no output path the report is written to stdout instead.

Exit codes: 0 success, 2 config error, 3 infeasible configuration,
4 numerical-invariant violation during a run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
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
    grover_delta_cascade,
    grover_delta_sequence,
    grover_recursion_spec,
    grover_step_counts,
    ground_state,
    energy as state_energy,
    heisenberg_chain,
    offdiag_hs_norm,
    osd_recursion_spec,
    qite_recursion_spec,
    schmidt_estimate,
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
from .imr import MAX_ROUNDS, IMRConfig
from .linalg import PureState, partial_trace, random_density, random_pure

SCHEMA_VERSION = 1


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
    absent or null: ``_REQUIRED`` or a plain value.  A null default leaves the
    meaning to the code that reads the field (a null ``step_size`` is the
    canonical step, a null dbi/osd ``mu`` is 0, ..., n-1), so nothing is built
    from a size field while a config is parsed."""

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

_STRATEGIES = {
    "exact": (ExactStrategy, {}),
    "unfolding": (UnfoldingStrategy, {"gc_substeps": _Field("int", 1, lo=1)}),
    "qdp": (QDPStrategy, {"m": _COUNT, "imr": _IMR}),
    "hybrid": (HybridStrategy, {"n1": _STEPS, "n2": _STEPS, "m": _COUNT, "imr": _IMR}),
}
_KIND = _Field("str", _REQUIRED, choices=tuple(_STRATEGIES))
_STRATEGY = _Field("object", {"kind": "exact"})
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
        "mu": _Field("real", None, many=True),  # None -> 0, ..., dim-1
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
        "mu": _Field("real", None, many=True),  # None -> 0, ..., dims[0]-1
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
SCENARIOS = tuple(_PARAMS)
_RECURSIONS = tuple(name for name, table in _PARAMS.items() if "n_steps" in table)  # for `compare`

_TOP = {
    "schema_version": _Field("int", SCHEMA_VERSION, choices=(SCHEMA_VERSION,)),
    "scenario": _Field("str", _REQUIRED, choices=SCENARIOS),
    "seed": _Field("int", None, lo=0),
    "strategy": _STRATEGY,
    "params": _Field("object", {}),
    "output": _Field("object", {}, table={
        "path": _Field("str"),
        "format": _Field("str", "csv", choices=("csv", "json")),
    }),
    "strategies": _Field("list", []),  # read by `compare`
}


def _increasing(mu: Optional[list], size: int) -> bool:
    """A null ``mu`` (0, ..., size-1) or ``size`` strictly increasing entries."""
    return mu is None or len(mu) == size and all(a < b for a, b in zip(mu, mu[1:]))


def _cascade_fault(p: dict) -> Optional[str]:
    """The rule field the eps-inflated distance cascade breaks at its first
    failing step, walked lazily: ``params.eps`` at a distance of 1 or more,
    ``params.n_steps`` at one after delta0 not above eps in floats."""
    eps, prev = p["eps"], None
    for n, delta in zip(range(p["n_steps"] + 1), grover_delta_cascade(p["delta0"], p["L"], eps)):
        if not delta < 1.0:
            return "params.eps"
        if n and not delta - eps > 0.0:
            return "params.n_steps"
        if delta == prev:  # a fixed point: every later step repeats this one
            return None
        prev = delta
    return None


# Rules tying fields together: (scenarios, field, requirement, holds(params, strategy)).
# A ``strategy.`` field is named under the path of the strategy being checked.
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
     lambda p, s: _cascade_fault(p) != "params.eps"),
    (("grover",), "params.n_steps", "keep every cascade step's distance above params.eps in floats",
     lambda p, s: _cascade_fault(p) != "params.n_steps"),
    (("cost",), "params.n1", "come with params.n2 and params.m, and n1 + n2 == params.N",
     lambda p, s: (p["n1"], p["n2"]) == (None, None)
     or None not in (p["n1"], p["n2"], p["m"]) and p["n1"] + p["n2"] == p["N"]),
)


def _cost_forms(p: dict) -> dict:
    """The strategies whose grover run ledgers ``cost`` tabulates, by row prefix."""
    forms = {"unfolding": UnfoldingStrategy(), "qdp": p["m"] and QDPStrategy(p["m"]),
             "hybrid": p["n1"] is not None and HybridStrategy(p["n1"], p["n2"], p["m"])}
    return {name: form for name, form in forms.items() if form}


def _check_ledger_digits(path: str, scenario: str, p: dict, strategy) -> None:
    """Reject, before any numerics, a run of ``strategy`` at ``path`` whose final
    circuit size, read off its ``ledger`` at the run's worst case (every static
    non-identity, ``MAX_ROUNDS`` purification rounds per query step), is longer
    than ``str(int)`` prints.  Ledgers grow with the step count, so the form is
    read at 1, 2, 4, ... steps and stops at the first too long."""
    # 0 means no limit, as on Python before 3.10.7, which lacks the function.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if scenario == "cost":
        name, n_steps, forms = "params.N", p["N"], _cost_forms(p).values()
        calls, statics = grover_step_counts(p["L"])
    elif "n_steps" in p:
        name = f"{path}.n1 and {path}.n2" if isinstance(strategy, HybridStrategy) else "params.n_steps"
        n_steps, forms = p["n_steps"], [strategy]
        calls = grover_step_counts(p["L"])[0] if scenario == "grover" else 1  # one call elsewhere
        # A purification round costs its query step one depth unit, as a static does.
        statics = calls + 1 + (MAX_ROUNDS if getattr(strategy, "imr", None) else 0)
    else:
        return
    covariant = scenario in ("grover", "cost")  # the search's calls commute through its step
    ceiling, rungs = 10**limit, range(n_steps.bit_length() + 1)  # 2^k steps, then n_steps
    if limit and any(form.ledger(calls, statics, min(2**k, n_steps), covariant).circuit_size
                     >= ceiling for form in forms for k in rungs):
        raise InfeasibleConfigError(
            f"field '{name}' gives a ledger integer of more than the {limit} digits "
            f"Python prints (see PYTHONINTMAXSTRDIGITS)"
        )


# Largest dense operator a run may build, in bytes.  An exact or unfolding run
# builds the d_in x d_in instruction matrix (16 d_in^2); a query run builds the
# query generator ``Nhat`` (16 d_in^2 d_out^2), which is never smaller than its
# superoperator (16 d_out^4) because d_in >= d_out.
MAX_OPERATOR_BYTES = 2**30
# Largest trajectory a run may keep, in bytes: one dense d x d state per step
# plus the root, 16 (n_steps + 1) d^2.  Four operators' worth, so a run at the
# largest operator may still take a few steps.
MAX_TRAJECTORY_BYTES = 4 * MAX_OPERATOR_BYTES


def _check_operator_size(scenario: str, p: dict, s: dict) -> None:
    """Reject, before any numerics, a run whose largest dense operator would
    exceed ``MAX_OPERATOR_BYTES`` or whose trajectory would exceed
    ``MAX_TRAJECTORY_BYTES``; sizes are compared as log2, so a size or step
    field's value is never expanded."""
    if scenario == "cost":
        return
    if scenario == "qite" and p["model"] == "heisenberg_chain":
        n = p["n_qubits"]  # float(n) overflows from 2^1024 on, far over any limit
        path, log_d = "params.n_qubits", float(n) if n < 2**1023 else math.inf
    elif scenario == "osd":
        path, log_d = "params.dims", math.log2(p["dims"][0]) + math.log2(p["dims"][1])
    else:
        path, log_d = "params.dim", math.log2(p["dim"])
    # qite's map reads the state and a resource state: d_in = d_out^2.
    log_in = 2 * log_d if scenario == "qite" else log_d
    queried = scenario == "channel-error" or s["kind"] in ("qdp", "hybrid")
    log_bytes = 4 + 2 * log_in + (2 * log_d if queried else 0)
    if log_bytes > math.log2(MAX_OPERATOR_BYTES):
        raise InfeasibleConfigError(
            f"field '{path}' gives an operator of 2^{log_bytes:.2f} bytes, "
            f"more than the {MAX_OPERATOR_BYTES} bytes a run may build"
        )
    if "n_steps" in p:
        log_bytes = math.log2(p["n_steps"] + 1) + 4 + 2 * log_d
        if log_bytes > math.log2(MAX_TRAJECTORY_BYTES):
            raise InfeasibleConfigError(
                f"field 'params.n_steps' gives a trajectory of 2^{log_bytes:.2f} bytes, "
                f"more than the {MAX_TRAJECTORY_BYTES} bytes a run may keep"
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
            value = f.default
        out[key] = None if value is None else _value(prefix + key, f, value)
    return out


def _strategy(path: str, raw, scenario: str, params: dict):
    """The strategy descriptor of the object ``raw`` at ``path``, checked
    against its kind's table, the rules tying it to the checked ``params``,
    and the ledger and operator limits, before any numerics.  ``run`` checks
    ``strategy`` here and ``compare`` each ``strategies[i]``."""
    raw = _value(path, _STRATEGY, raw)
    strategy_type, table = _STRATEGIES[_value(f"{path}.kind", _KIND, raw.get("kind"))]
    strategy = _section(path, {"kind": _KIND, **table}, raw)
    for scenarios, rule_path, requirement, holds in _RULES:
        if scenario in scenarios and not holds(params, strategy):
            section, key = rule_path.split(".")
            got = (params if section == "params" else strategy)[key]
            name = rule_path if section == "params" else f"{path}.{key}"
            raise ConfigError(f"field '{name}' must {requirement}, got {got!r}")
    fields = {k: v for k, v in strategy.items() if k != "kind"}
    if fields.get("imr") is not None:
        fields["imr"] = IMRConfig(**fields["imr"])
    descriptor = strategy_type(**fields)
    _check_ledger_digits(path, scenario, params, descriptor)
    _check_operator_size(scenario, params, strategy)
    return descriptor


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
        if scenario != "cost" and top["seed"] is None:  # every other scenario is randomized
            raise ConfigError(f"field 'seed' is mandatory for scenario {scenario!r}")
        out = top["output"]["path"]
        if out is not None and (out == "" or os.path.isdir(out)
                                or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ConfigError(
                f"field 'output.path' must name a file in an existing directory, got {out!r}"
            )
        params = _section("params", _PARAMS[scenario], top["params"])
        return cls(
            scenario=scenario,
            seed=top["seed"],
            strategy=_strategy("strategy", top["strategy"], scenario, params),
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
    except ValueError as exc:  # malformed, or an integer longer than int() reads
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


def _diagonal(mu: Optional[list], size: int) -> np.ndarray:
    """The instruction diagonal ``diag(mu)``; a null ``mu`` is 0, ..., size-1."""
    return np.diag(np.asarray(range(size) if mu is None else mu, dtype=float))


def _run_dbi(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    diag = _diagonal(p["mu"], p["dim"])
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
    diag = _diagonal(p["mu"], da)
    psi0 = PureState(random_pure(da * db, cfg.seed).amplitudes, (da, db))
    ocfg = OSDConfig(dims=(da, db), diagonal=diag, initial=psi0, step_size=p["step_size"])
    record = run_strategy(osd_recursion_spec(ocfg), p["n_steps"], cfg.strategy)
    rows = []
    for n, pt in enumerate(record.points):
        reduced = partial_trace(pt.state.matrix, (da, db), keep=[0])
        rows.append(
            (n, offdiag_hs_norm(reduced), pt.mixedness, pt.ledger.depth, pt.ledger.width)
        )
    estimate = schmidt_estimate(record.final_state.matrix, (da, db), diag)
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
    final_calls, total = unfolding_cost(p["L"], p["N"])
    rows = [("unfolding_final_step_calls", final_calls), ("unfolding_total_depth", total)]
    for name, form in list(_cost_forms(p).items())[1:]:
        ledger = form.ledger(*grover_step_counts(p["L"]), p["N"], covariant=True)
        rows += [(f"{name}_depth", ledger.depth), (f"{name}_width", ledger.width),
                 (f"{name}_circuit_size", ledger.circuit_size)]
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
    if strategies and cfg.scenario not in _RECURSIONS:
        raise ConfigError(
            f"field 'strategies' must be empty for scenario {cfg.scenario!r}, "
            f"which runs no recursion; compare runs {', '.join(_RECURSIONS)}"
        )
    subs = [replace(cfg, strategy=_strategy(f"strategies[{i}]", raw, cfg.scenario, cfg.params))
            for i, raw in enumerate(strategies)]
    rows = []
    for raw, sub in zip(strategies, subs):
        report = _RUNNERS[cfg.scenario](sub)
        last = dict(zip(report.columns, report.rows[-1]))
        final_distance = last.get("trace_distance", last.get("ground_infidelity"))
        depth, width = last["depth"], last["width"]
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


def _apply_overrides(raw, args):
    if not isinstance(raw, dict):
        return raw  # from_dict names what it must be
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
            _summarize(run_scenario(cfg), cfg)
        elif args.command == "compare":
            cfg = ExperimentConfig.from_dict(_apply_overrides(load_config(args.config), args))
            strategies = cfg.raw.get("strategies") or []
            _summarize(compare_strategies(cfg, strategies), cfg)
            if not strategies:
                print("no strategies listed; empty report", file=sys.stderr)
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
            _summarize(run_scenario(cfg), replace(cfg, output_format=args.format))
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


def _summarize(report: RunReport, cfg: ExperimentConfig) -> None:
    """Print where the report went, then its bound checks, to stdout.  With no
    ``output.path`` stdout holds the rendered report itself and the bound
    checks go to stderr."""
    log = sys.stdout
    if cfg.output_path:
        print(f"wrote {cfg.output_path} ({len(report.rows)} rows)")
    else:
        sys.stdout.write(report.render(cfg.output_format))
        log = sys.stderr
    for check in report.bound_checks:
        status = "pass" if check.passed else "FAIL"
        print(f"bound {check.name}: measured {_fmt(check.measured)} <= {_fmt(check.bound)}: {status}",
              file=log)


if __name__ == "__main__":
    sys.exit(main())
