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

Tables below give every field its type, range and default: ``_TOP`` the
top level, ``_STRATEGIES`` each strategy kind, and ``_SCENARIOS`` each
scenario's params and rules.  ``ExperimentConfig.from_dict`` applies them
before any numerics.  A missing, mistyped or out-of-range field, a key the
table does not list, or a broken rule between fields raises ``ConfigError``
naming the field.  ``compare`` puts each ``strategies[i]`` entry through the
same strategy check (``_strategy``) as ``strategy``.  Integers are JSON
integers (booleans are not), reals are finite JSON numbers, and a null value
means "absent".

A ``_SCENARIOS`` entry holds everything else the CLI reads of its scenario
too: its runner, the sizes and ledger counts the pre-run checks read, the
column ``compare`` reports and whether it needs a seed.  No check branches
on a scenario name.

Flags override file fields (``--seed`` the file seed).  Reruns with
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
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .algos import (
    DBIConfig,
    OSDConfig,
    QITEConfig,
    dbi_recursion_spec,
    grover_config_from_distance,
    grover_delta_cascade,
    grover_delta_sequence,
    grover_recursion_spec,
    grover_step_counts,
    heisenberg_chain,
    offdiag_hs_norm,
    osd_recursion_spec,
    qite_recursion_spec,
    schmidt_estimate,
    schmidt_oracle,
)
from .channels import (
    MIN_DIAGONAL_GAP,
    Commutator,
    Lift,
    PairCommutator,
    Swap,
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
from .linalg import PureState, hermitize, hs_norm, random_density, random_pure

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
        return "".join(",".join(map(_fmt, row)) + "\n" for row in [self.columns, *self.rows])

    def to_json(self) -> str:
        checks = [{"name": c.name, "measured": _fmt(c.measured), "bound": _fmt(c.bound),
                   "passed": c.passed} for c in self.bound_checks]
        doc = {"metadata": self.metadata, "columns": self.columns,
               "rows": [[_fmt(v) for v in row] for row in self.rows], "bound_checks": checks}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        return {"csv": self.to_csv, "json": self.to_json}[fmt]()


# ---------------------------------------------------------------------------
# Config schema: every field's type, range and default


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


def _increasing(mu: Optional[list], size: int) -> bool:
    """A null ``mu`` (0, ..., size-1) or ``size`` entries, each more than
    ``MIN_DIAGONAL_GAP`` above the one before."""
    return mu is None or len(mu) == size and all(
        b - a > MIN_DIAGONAL_GAP for a, b in zip(mu, mu[1:]))


def _finite_norm(mu: Optional[list]) -> bool:
    """A null ``mu``, or one whose squared norm ``sum mu_i^2`` is a finite
    float: the squared Hilbert-Schmidt norm of ``diag(mu)``, which the
    canonical step and the dbi ``cost`` column read."""
    return mu is None or math.isfinite(sum(x * x for x in mu))


def _finite_field(p: dict) -> bool:
    """A random model, or a Heisenberg chain of ``n`` qubits whose ``field``
    keeps ``2^n n (|field| + 3)``, which bounds the chain's shifted trace,
    or with a null ``step_size`` ``2^n n (field^2 + 3)``, which bounds its
    squared Hilbert-Schmidt norm (its Pauli strings are orthogonal; the
    canonical step reads it), a factor 4 inside the float range (headroom for
    hermitizing, the ground-energy shift and rounding).  A chain of more than
    64 qubits is left to the size check."""
    n, f = p["n_qubits"], abs(p["field"])
    scale = 4.0 * 2**n * n if p["model"] == "heisenberg_chain" and n <= 64 else 0.0
    return math.isfinite(scale * (f + 3 if p["step_size"] is not None else f * f + 3))


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


# A rule: (field, requirement, holds(params, strategy)).  A ``strategy.`` field
# is named under the path of the strategy being checked.
_HYBRID_SPLIT = ("strategy.n1", "satisfy n1 + n2 == params.n_steps",
                 lambda p, s: s["kind"] != "hybrid" or s["n1"] + s["n2"] == p["n_steps"])


def _cost_forms(p: dict) -> dict:
    """The strategies whose grover run ledgers ``cost`` tabulates, by row prefix."""
    forms = {"unfolding": UnfoldingStrategy(), "qdp": p["m"] and QDPStrategy(p["m"]),
             "hybrid": p["n1"] is not None and HybridStrategy(p["n1"], p["n2"], p["m"])}
    return {name: form for name, form in forms.items() if form}


def _check_ledger_digits(path: str, entry: _Scenario, p: dict, strategy) -> None:
    """Reject, before any numerics, a run of ``strategy`` at ``path`` whose final
    circuit size, read off its ``ledger`` at the run's worst case (every static
    non-identity, ``MAX_ROUNDS`` purification rounds per query step), is longer
    than ``str(int)`` prints.  Ledgers grow with the step count, so the form is
    read at 1, 2, 4, ... steps and stops at the first too long."""
    # 0 means no limit, as on Python before 3.10.7, which lacks the function.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if entry.counts is None:
        return
    calls, statics = entry.counts(p)
    if entry.forms:
        name, n_steps, forms = "params.N", p["N"], entry.forms(p).values()
    else:
        name = f"{path}.n1 and {path}.n2" if isinstance(strategy, HybridStrategy) else "params.n_steps"
        n_steps, forms = p["n_steps"], [strategy]
        # A purification round costs its query step one depth unit, as a static does.
        statics += MAX_ROUNDS if getattr(strategy, "imr", None) else 0
    ceiling, rungs = 10**limit, range(n_steps.bit_length() + 1)  # 2^k steps, then n_steps
    if limit and any(form.ledger(calls, statics, min(2**k, n_steps), entry.covariant).circuit_size
                     >= ceiling for form in forms for k in rungs):
        raise InfeasibleConfigError(
            f"field '{name}' gives a ledger integer of more than the {limit} digits "
            f"Python prints (see PYTHONINTMAXSTRDIGITS)"
        )


# Largest dense operator a run may build, in bytes, as the scenario's map
# structure gives it for an exact call (``exact_log_bytes``) and for a query
# call (``queried_log_bytes``): a swap block's d x d matrices, or else the
# query unitary, never smaller than the real transfer matrix a block squares
# (8 d_out^4) because d_in >= d_out.
MAX_OPERATOR_BYTES = 2**30
# Largest set of states a run may keep at once, in bytes: a recursion keeps
# its trajectory, one state per point, and a channel-error probe keeps three
# states per sample (the sampled states' stacked batch, their exact outputs
# and a block's output).  Each is charged ``kept_state_bytes(d)``.  Four operators' worth, so
# a run at the largest operator may still take a few steps.
MAX_TRAJECTORY_BYTES = 4 * MAX_OPERATOR_BYTES


def kept_state_bytes(d: int) -> int:
    """Bytes charged per kept ``d x d`` state: its complex matrix, its ``d``
    eigenvalues and 1024 for the objects holding them (tracemalloc reads 500
    to 700 for those at d = 2, 8 and 64)."""
    return 16 * d * d + 8 * d + 1024


def _check_operator_size(entry: _Scenario, p: dict, s: dict) -> None:
    """Reject, before any numerics, a run whose largest dense operator would
    exceed ``MAX_OPERATOR_BYTES`` or whose kept states would exceed
    ``MAX_TRAJECTORY_BYTES``.  The operator is compared as log2, so a size
    field's value is never expanded; the kept states are counted only at
    sizes under the operator limit."""
    if entry.size is None:
        return
    path, log_dims = entry.size(p)
    log_bytes = entry.structure.exact_log_bytes(*log_dims)
    if entry.queries or s["kind"] in ("qdp", "hybrid"):
        log_bytes = max(log_bytes, entry.structure.queried_log_bytes(*log_dims))
    if log_bytes > math.log2(MAX_OPERATOR_BYTES):
        raise InfeasibleConfigError(
            f"field '{path}' gives an operator of 2^{log_bytes:.2f} bytes, "
            f"more than the {MAX_OPERATOR_BYTES} bytes a run may build"
        )
    path, what, count = entry.kept(p)
    kept_bytes = count * kept_state_bytes(round(2 ** sum(log_dims)))
    if kept_bytes > MAX_TRAJECTORY_BYTES:
        raise InfeasibleConfigError(
            f"field '{path}' gives {what} of 2^{math.log2(kept_bytes):.2f} bytes, "
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
    against its kind's table, the scenario's rules tying it to the checked
    ``params``, and the ledger and operator limits, before any numerics.
    ``run`` checks ``strategy`` here and ``compare`` each ``strategies[i]``."""
    entry = _SCENARIOS[scenario]
    raw = _value(path, _STRATEGY, raw)
    strategy_type, table = _STRATEGIES[_value(f"{path}.kind", _KIND, raw.get("kind"))]
    strategy = _section(path, {"kind": _KIND, **table}, raw)
    for rule_path, requirement, holds in entry.rules:
        if not holds(params, strategy):
            section, key = rule_path.split(".")
            got = (params if section == "params" else strategy)[key]
            name = rule_path if section == "params" else f"{path}.{key}"
            raise ConfigError(f"field '{name}' must {requirement}, got {got!r}")
    fields = {k: v for k, v in strategy.items() if k != "kind"}
    if fields.get("imr") is not None:
        fields["imr"] = IMRConfig(**fields["imr"])
    descriptor = strategy_type(**fields)
    _check_ledger_digits(path, entry, params, descriptor)
    _check_operator_size(entry, params, strategy)
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
        if _SCENARIOS[scenario].seeded and top["seed"] is None:
            raise ConfigError(f"field 'seed' is mandatory for scenario {scenario!r}")
        out = top["output"]["path"]
        if out is not None and (out == "" or os.path.isdir(out)
                                or not os.path.isdir(os.path.dirname(out) or ".")):
            raise ConfigError(
                f"field 'output.path' must name a file in an existing directory, got {out!r}"
            )
        params = _section("params", _SCENARIOS[scenario].params, top["params"])
        return cls(scenario=scenario, seed=top["seed"],
                   strategy=_strategy("strategy", top["strategy"], scenario, params),
                   params=params, output_path=top["output"]["path"],
                   output_format=top["output"]["format"], raw=raw)


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


def _check_duration(gen, duration: float, fields: str) -> None:
    """Reject a query duration ``||Nhat|| |duration|`` past the float range,
    read off the generator's closed-form norm before any step runs, naming
    the ``fields`` that set it: the map's action and unitary would hold no
    finite entry, so the run is infeasible rather than broken mid-run."""
    norm = gen.norm
    if not np.isfinite(norm * abs(duration)):
        raise InfeasibleConfigError(f"{fields} give ||Nhat|| |s| = {norm:.3g} * "
                                    f"{abs(duration):.3g}, past the float range")


def _trajectory(cfg: ExperimentConfig, spec, n_steps: int, columns: list, cells,
                flow: Optional[str] = None, checks=()) -> RunReport:
    """Run ``spec`` for ``n_steps`` under the config's strategy: one row
    ``(step, *cells(point))`` per trajectory point under ``step`` and
    ``columns``, and a ``BoundCheck`` per ``(name, measure(record), bound)``
    of ``checks``.  A cell reads its point's state through the state's own
    reads (``expectation``, ``fidelity``, ``reduced``), so a pure point forms
    no projector.  ``flow`` names the fields that set the memory-call's scale,
    checked first if a step reads the map's action or unitary: the call has
    duration 1, so its ``||Nhat||`` must be finite."""
    # An unfolded call reads neither; a hybrid run unfolds all but its n2 steps.
    unfolded = isinstance(cfg.strategy, UnfoldingStrategy)
    if flow and not unfolded and getattr(cfg.strategy, "n2", n_steps):
        _check_duration(spec.resolve_step(0).memory_calls[0].map.generator, 1.0, flow)
    record = run_strategy(spec, n_steps, cfg.strategy)
    rows = [(n, *cells(pt)) for n, pt in enumerate(record.points)]
    return RunReport(["step", *columns], rows,
                     [BoundCheck(name, measure(record), bound) for name, measure, bound in checks])


def _run_grover(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    gcfg = grover_config_from_distance(delta0=p["delta0"], alternations=p["L"],
                                       n_steps=p["n_steps"], dim=p["dim"], seed=cfg.seed)
    eps, checks = p["eps"], []
    if eps > 0.0 and not isinstance(cfg.strategy, (ExactStrategy, UnfoldingStrategy)):
        deltas = grover_delta_sequence(gcfg.delta0, gcfg.alternations, gcfg.n_steps, eps)
        checks.append(("final_distance", lambda record: record.points[-1].distance_to_target,
                       deltas[-1] + eps / (2.0 * gcfg.alternations * math.pi)))
    return _trajectory(
        cfg, grover_recursion_spec(gcfg, eps=eps), gcfg.n_steps,
        ["trace_distance", "mixedness", "depth", "width", "p_success"],
        lambda pt: (pt.distance_to_target, pt.mixedness, pt.ledger.depth, pt.ledger.width,
                    pt.ledger.success_probability),
        checks=checks,
    )


def _diagonal(mu: Optional[list], size: int) -> np.ndarray:
    """The instruction diagonal ``diag(mu)``; a null ``mu`` is 0, ..., size-1."""
    return np.diag(np.asarray(range(size) if mu is None else mu, dtype=float))


def _run_dbi(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    diag = _diagonal(p["mu"], p["dim"])
    initial = random_density(p["dim"], cfg.seed).matrix * p["dim"]
    dcfg = DBIConfig(diagonal=diag, initial=initial, step_size=p["step_size"])
    return _trajectory(
        cfg, dbi_recursion_spec(dcfg), p["n_steps"],
        ["cost", "offdiag_hs", "trace_distance", "depth", "width"],
        # ``dbi_cost`` without its ``hermitize``: the validated states and the
        # real diagonal are Hermitian to the bit, so it returns them unchanged.
        lambda pt: (hs_norm(pt.state.matrix - diag) ** 2, offdiag_hs_norm(pt.state.matrix),
                    pt.distance_to_target, pt.ledger.depth, pt.ledger.width),
        flow="params.step_size and params.mu",
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
    fields = "params.dim" if p["model"] == "random" else "params.n_qubits and params.field"
    try:
        spec = qite_recursion_spec(qcfg)
    except InvariantError as exc:
        raise InfeasibleConfigError(f"{fields} give QITE no unique ground state: {exc}") from exc
    hh = hermitize(h)
    return _trajectory(
        cfg, spec, p["n_steps"],
        ["energy", "ground_infidelity", "mixedness", "depth", "width"],
        lambda pt: (pt.state.expectation(hh), 1.0 - pt.state.fidelity(spec.target),
                    pt.mixedness, pt.ledger.depth, pt.ledger.width),
        flow=f"params.step_size and {fields}",
    )


def _run_osd(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    da, db = p["dims"]
    diag = _diagonal(p["mu"], da)
    psi0 = PureState(random_pure(da * db, cfg.seed).amplitudes)
    ocfg = OSDConfig(dims=(da, db), diagonal=diag, initial=psi0, step_size=p["step_size"])
    oracle = schmidt_oracle(psi0, (da, db))
    return _trajectory(
        cfg, osd_recursion_spec(ocfg), p["n_steps"],
        ["offdiag_hs", "mixedness", "depth", "width"],
        lambda pt: (offdiag_hs_norm(pt.state.reduced((da, db))), pt.mixedness,
                    pt.ledger.depth, pt.ledger.width),
        flow="params.step_size and params.mu",
        checks=[("schmidt_estimate_max_error", lambda record: float(np.max(np.abs(
            schmidt_estimate(record.final_state.matrix, (da, db), diag) - oracle))), 1e-2)],
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
    gen, scale = mmap.generator, "params.alpha" if p["map"] == "scaled" else "params.map_s"
    _check_duration(gen, s, f"params.s and {scale}")
    memory = random_density(dim, cfg.seed)
    rows, checks = [], []
    errors = channel_error_probe(gen, mmap, memory, s, p["m_values"], p["n_samples"], cfg.seed)
    for m, err in zip(p["m_values"], errors):
        bound, within = query_error_bound(gen, s, m)
        passed = (err <= bound) if within else True
        rows.append((m, s, err, bound, within, passed))
        if within:
            checks.append(BoundCheck(f"query_error_m{m}", err, bound))
    columns = ["m", "s", "measured_error", "error_bound", "within_window", "passed"]
    return RunReport(columns, rows, checks)


def _run_cost(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    final_calls, total = unfolding_cost(p["L"], p["N"])
    rows = [("unfolding_final_step_calls", final_calls), ("unfolding_total_depth", total)]
    for name, form in list(_cost_forms(p).items())[1:]:
        ledger = form.ledger(*grover_step_counts(p["L"]), p["N"], covariant=True)
        rows += [(f"{name}_depth", ledger.depth), (f"{name}_width", ledger.width),
                 (f"{name}_circuit_size", ledger.circuit_size)]
    return RunReport(columns=["quantity", "value"], rows=rows)


# ---------------------------------------------------------------------------
# The scenario table: everything the CLI reads of a scenario, in one entry


class _Scenario(NamedTuple):
    """One scenario.  ``params`` is its field table, ``rules`` are the rules
    tying its fields together, checked in order, and ``run`` turns a checked
    config into its report.

    ``size(params)`` is ``(field, log2 dims)``: the field giving the log2
    dimensions of the memory-call map's ``structure`` class, whose product is
    the state dimension ``d`` (None: no operator is built).  A ``queries``
    scenario builds its map's query unitary whatever its strategy.

    ``kept(params)`` is ``(field, what, count)``: the ``count`` of such states
    a run keeps at once, which make up ``what``, set by ``field`` (by default
    the ``n_steps + 1`` points of a recursion's trajectory).

    ``counts(params)`` is the ``(memory-calls, statics)`` per step the ledger
    check charges, the calls commuting through the step if ``covariant``
    (None: no ledger); ``forms(params)`` are the closed forms it charges at
    ``params.N`` steps in place of the checked strategy at ``params.n_steps``.
    ``distance`` is the column ``compare`` reports as ``final_distance``
    (None: NaN), and a ``seeded`` scenario needs a seed."""

    params: dict
    run: Callable
    rules: tuple = ()
    size: Optional[Callable] = None
    structure: Optional[type] = None
    queries: bool = False
    kept: Callable = lambda p: ("params.n_steps", "a trajectory", p["n_steps"] + 1)
    counts: Optional[Callable] = None
    covariant: bool = False
    forms: Optional[Callable] = None
    distance: Optional[str] = None
    seeded: bool = True


def _dim_size(p: dict) -> tuple:
    return "params.dim", (math.log2(p["dim"]),)


def _qite_size(p: dict) -> tuple:
    if p["model"] == "random":
        return _dim_size(p)
    n = p["n_qubits"]  # float(n) overflows from 2^1024 on, far over any limit
    return "params.n_qubits", (float(n) if n < 2**1023 else math.inf,)


_SCENARIOS = {
    "grover": _Scenario({
        "L": _COUNT,
        "n_steps": _STEPS,
        "delta0": _Field("real", _REQUIRED, lo=0, hi=1, open=True),
        "dim": _Field("int", 2, lo=2),
        "eps": _Field("real", 0.0, lo=0),
    }, _run_grover, (
        _HYBRID_SPLIT,
        ("strategy.m", "be >= 2 * params.L for qdp and >= params.L for hybrid",
         lambda p, s: s.get("m", math.inf) >= (2 if s["kind"] == "qdp" else 1) * p["L"]),
        ("params.eps", "keep the eps-inflated distance cascade below 1",
         lambda p, s: _cascade_fault(p) != "params.eps"),
        ("params.n_steps", "keep every cascade step's distance above params.eps in floats",
         lambda p, s: _cascade_fault(p) != "params.n_steps"),
    ), size=_dim_size, structure=Swap, counts=lambda p: (p["L"], p["L"] + 1),
        covariant=True, distance="trace_distance"),
    "dbi": _Scenario({
        "dim": _Field("int", _REQUIRED, lo=2),
        "n_steps": _STEPS,
        "mu": _Field("real", None, many=True),  # None -> 0, ..., dim-1
        "step_size": _STEP_SIZE,
    }, _run_dbi, (
        ("params.mu", f"have params.dim entries increasing by more than {MIN_DIAGONAL_GAP:g}",
         lambda p, s: _increasing(p["mu"], p["dim"])),
        ("params.mu", "have a squared norm sum mu_i^2 below the float range",
         lambda p, s: _finite_norm(p["mu"])),
        _HYBRID_SPLIT,
    ), size=_dim_size, structure=Commutator, counts=lambda p: (1, 2),
        distance="trace_distance"),
    "qite": _Scenario({
        "n_steps": _STEPS,
        "model": _Field("str", "heisenberg_chain", choices=("heisenberg_chain", "random")),
        "n_qubits": _Field("int", 3, lo=1),
        "field": _Field("real", 0.5),
        "dim": _Field("int", None, lo=2),
        "step_size": _STEP_SIZE,
    }, _run_qite, (
        ("strategy.kind", "be exact, qdp or hybrid with n1 == 0 (no commutator to unfold)",
         lambda p, s: s["kind"] != "unfolding" and s.get("n1", 0) == 0),
        ("params.dim", "be given for params.model random",
         lambda p, s: p["model"] != "random" or p["dim"] is not None),
        ("params.field", "keep the Hamiltonian's norm below the float range",
         lambda p, s: _finite_field(p)),
        _HYBRID_SPLIT,
    ), size=_qite_size, structure=PairCommutator, counts=lambda p: (1, 2),
        distance="ground_infidelity"),
    "osd": _Scenario({
        "dims": _Field("int", _REQUIRED, lo=2, many=True, size=2),
        "n_steps": _STEPS,
        "mu": _Field("real", None, many=True),  # None -> 0, ..., dims[0]-1
        "step_size": _STEP_SIZE,
    }, _run_osd, (
        ("params.mu", f"have params.dims[0] entries increasing by more than {MIN_DIAGONAL_GAP:g}",
         lambda p, s: _increasing(p["mu"], p["dims"][0])),
        ("params.mu", "have a squared norm sum mu_i^2 below the float range",
         lambda p, s: _finite_norm(p["mu"])),
        ("strategy.kind", "be exact or qdp", lambda p, s: s["kind"] in ("exact", "qdp")),
    ), size=lambda p: ("params.dims", (math.log2(p["dims"][0]), math.log2(p["dims"][1]))),
        structure=Lift, counts=lambda p: (1, 2)),
    "channel-error": _Scenario({
        "dim": _Field("int", _REQUIRED, lo=1),
        "map": _Field("str", "dme", choices=("dme", "scaled", "commutator")),
        "s": _Field("real", _REQUIRED),
        "m_values": _Field("int", _REQUIRED, lo=1, many=True),
        "n_samples": _Field("int", 5, lo=1),
        "alpha": _Field("real", 1.0),
        "map_s": _Field("real", 1.0),
    }, _run_channel_error, size=_dim_size, queries=True,
        structure=Commutator,  # map: commutator's block, the largest of the three maps
        kept=lambda p: ("params.n_samples", "a probe batch", 3 * p["n_samples"])),
    "cost": _Scenario({
        "L": _COUNT, "N": _COUNT, "m": _Field("int", None, lo=1),
        "n1": _Field("int", None, lo=0), "n2": _Field("int", None, lo=0),
    }, _run_cost, (
        ("params.n1", "come with params.n2 and params.m, and n1 + n2 == params.N",
         lambda p, s: (p["n1"], p["n2"]) == (None, None)
         or None not in (p["n1"], p["n2"], p["m"]) and p["n1"] + p["n2"] == p["N"]),
    ), counts=lambda p: grover_step_counts(p["L"]), covariant=True, forms=_cost_forms,
        seeded=False),
}
SCENARIOS = tuple(_SCENARIOS)
_RECURSIONS = tuple(name for name, e in _SCENARIOS.items() if "n_steps" in e.params)  # `compare`

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
    return _finish(_SCENARIOS[cfg.scenario].run(cfg), cfg)


def compare_strategies(cfg: ExperimentConfig, strategies: list) -> RunReport:
    """Run several strategies on shared scenario parameters; one row each with
    final distance (the scenario's ``distance`` column), depth, width and
    circuit size (depth times width)."""
    if strategies and cfg.scenario not in _RECURSIONS:
        raise ConfigError(
            f"field 'strategies' must be empty for scenario {cfg.scenario!r}, "
            f"which runs no recursion; compare runs {', '.join(_RECURSIONS)}"
        )
    subs = [replace(cfg, strategy=_strategy(f"strategies[{i}]", raw, cfg.scenario, cfg.params))
            for i, raw in enumerate(strategies)]
    entry, rows = _SCENARIOS[cfg.scenario], []
    for raw, sub in zip(strategies, subs):
        report = entry.run(sub)
        last = dict(zip(report.columns, report.rows[-1]))
        depth, width = last["depth"], last["width"]
        label = raw["kind"] + (f"(m={raw['m']})" if raw.get("m") is not None else "")
        rows.append((label, last[entry.distance] if entry.distance else float("nan"),
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
    if args.seed is not None:
        raw["seed"] = args.seed
    flags = {"path": args.output, "format": args.format}
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

    for name, text in (("run", "execute one scenario from a JSON config"),
                       ("compare", "run every strategy in the config's 'strategies' list")):
        p_cfg = sub.add_parser(name, help=text)
        p_cfg.add_argument("config", help="path to the experiment config")
        p_cfg.add_argument("--seed", type=int, help="override the config seed")
        p_cfg.add_argument("--output", help="override the output path")
        p_cfg.add_argument("--format", choices=["csv", "json"], help="override the output format")

    p_cost = sub.add_parser("cost", help="closed-form depth/width cost table")
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
        if args.command in ("run", "compare"):
            cfg = ExperimentConfig.from_dict(_apply_overrides(load_config(args.config), args))
        if args.command == "run":
            _summarize(run_scenario(cfg), cfg)
        elif args.command == "compare":
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
