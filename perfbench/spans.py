"""Layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each qdpsim layer with
timing wrappers, in every module that binds them (``from .channels import
repeated_queries`` copies the name into ``engine``; the package re-exports
most names), and ``Tracer.uninstall`` puts the originals back.  Each call
records one span: layer name, start, end, parent span and config-run id.
Spans stay in memory until the benchmark writes them out.

A layer's self time is its span's duration minus the part of that interval
covered by its direct children.  Work a wrapper does for the benchmark (the
digest of each ``herm_exp`` generator) is recorded as a ``(trace)`` child,
so it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
from time import perf_counter

import numpy as np

TRACE_SPAN = "(trace)"
ENGINE = "engine"

# Bytes per complex128 entry.
C16 = 16


def superop_build_flops(d_in: int, d_out: int) -> int:
    """Real flops of the two contractions in one ``query_superoperator`` build:
    ``d_in^3 d_out^2`` and ``d_in^2 d_out^4`` complex multiply-adds, 8 flops each."""
    return 8 * (d_in**3 * d_out**2 + d_in**2 * d_out**4)


def superop_build_bytes(d_in: int, d_out: int) -> int:
    """Computed bytes of one superoperator build: the unitary read by both
    contractions, the intermediate written and read back, the memory state
    read and the ``d_out^2 x d_out^2`` result written (complex128)."""
    return C16 * (4 * d_in**2 * d_out**2 + d_in**2 + d_out**4)


def query_matvec_flops(d_out: int) -> int:
    """Real flops of one query applied as a superoperator matvec (``d_out^4``
    complex multiply-adds)."""
    return 8 * d_out**4


def query_matvec_bytes(d_out: int) -> int:
    """Computed bytes of one query matvec: the superoperator and the input
    vector read, the output vector written (complex128)."""
    return C16 * (d_out**4 + 2 * d_out**2)


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its direct
    children's intervals, clipped to the span.

    ``spans`` is a sequence of ``(start, end, parent)`` where ``parent`` is
    the index of the parent span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _generator_digest(args, kwargs):
    h = np.ascontiguousarray(args[0] if args else kwargs["h"])
    return h.shape[0], hashlib.blake2b(h.view(np.uint8), digest_size=16).digest()


def _gen_dims(args, kwargs, result):
    gen = args[0]
    return gen.d_in, gen.d_out


def _query_block(args, kwargs, result):
    gen = args[0]
    m = args[4] if len(args) > 4 else kwargs["m"]
    return gen.d_out, int(m)


def _choi_dims(args, kwargs, result):
    return result.d_in, result.d_out


def _clip(args, kwargs, result):
    return args[0].clip_magnitude


def _steps(args, kwargs, result):
    return len(result.points) - 1


# (layer name, module, attribute path, info taken after the call).
# Attribute paths with a dot name a class attribute.
_TARGETS = [
    ("cli.parse", "cli", "load_config", None),
    ("cli.parse", "cli", "ExperimentConfig.from_dict", None),
    ("cli.report", "cli", "RunReport.render", None),
    ("algos.spec_build", "algos", "grover_recursion_spec", None),
    ("algos.spec_build", "algos", "dbi_recursion_spec", None),
    ("algos.spec_build", "algos", "qite_recursion_spec", None),
    ("algos.spec_build", "algos", "osd_recursion_spec", None),
    (ENGINE, "engine", "run_strategy", _steps),
    (ENGINE, "engine", "run_exact", _steps),
    (ENGINE, "engine", "run_qdp", _steps),
    (ENGINE, "engine", "run_unfolding", _steps),
    (ENGINE, "engine", "run_hybrid", _steps),
    (ENGINE, "engine", "apply_step_exact", None),
    ("imr.subroutine", "imr", "imr_subroutine", None),
    ("imr.round", "imr", "imr_round", None),
    ("imr.mixedness", "imr", "mixedness", None),
    ("channels.choi_build", "channels", "map_from_function", _choi_dims),
    ("channels.map_apply", "channels", "map_apply", None),
    ("channels.generator", "channels", "QueryGenerator.from_map", None),
    ("channels.exact_call", "channels", "exact_memory_call", None),
    ("channels.superop_build", "channels", "query_superoperator", _gen_dims),
    ("channels.query_apply", "channels", "repeated_queries", _query_block),
    ("channels.group_commutator", "channels", "group_commutator", None),
    ("channels.probe", "channels", "channel_error_probe", None),
    ("linalg.herm_exp", "linalg", "herm_exp", None),
    ("linalg.trace_distance", "linalg", "trace_distance", None),
    ("linalg.density", "linalg", "DensityMatrix.__init__", _clip),
]

# Wrappers that describe their input before the call, as (trace) time.
_PRE_INFO = {"linalg.herm_exp": _generator_digest}

_MODULES = ("linalg", "channels", "imr", "engine", "algos", "cli")


class Tracer:
    """Records spans of qdpsim layer calls while installed."""

    def __init__(self, package):
        self._package = package
        self._modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in _MODULES
        ]
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.run_id = ""
        # Each span: [name, start, end, parent, run_id, info]
        self.spans: list[list] = []

    def _wrap(self, name, fn, post=None):
        pre = _PRE_INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            info = None
            if pre is not None:
                t = perf_counter()
                info = pre(args, kwargs)
                spans.append([TRACE_SPAN, t, perf_counter(), parent, self.run_id, None])
            span = [name, 0.0, 0.0, parent, self.run_id, info]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if post is not None:
                span[5] = post(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target, in every module and class that binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, mod_name, path, post in _TARGETS:
            mod = self._modules[1 + _MODULES.index(mod_name)]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, post)))
                else:
                    self._set(cls, attr, self._wrap(name, raw, post))
                continue
            fn = getattr(mod, path)
            wrapped = self._wrap(name, fn, post)
            for module in self._modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list; parent
        indices in the returned list point into it."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def write_spans(path: str, passes: list[list[list]]) -> None:
    """Write the spans of each traced pass as JSON Lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for name, start, end, parent, run_id, _ in spans:
                fh.write(json.dumps({"pass": number, "name": name, "start": start,
                                     "end": end, "parent": parent, "run": run_id}) + "\n")


def layer_metrics(spans, wall: float) -> dict:
    """Per-layer figures of one traced pass over ``wall`` seconds.

    ``spans`` holds only that pass's spans, with parent indices into it.
    """
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        self_s[span[0]] = self_s.get(span[0], 0.0) + own
        count[span[0]] = count.get(span[0], 0) + 1

    def info(name):
        return [s[5] for s in spans if s[0] == name]

    superop = info("channels.superop_build")
    queries = info("channels.query_apply")
    chois = info("channels.choi_build")
    gens = info("linalg.herm_exp")
    clips = [c for c in info("linalg.density") if c > 0.0]
    steps = sum(s[5] for s in spans if s[0] == ENGINE and s[5] is not None
                and (s[3] < 0 or spans[s[3]][0] != ENGINE))
    superop_incl = sum(s[2] - s[1] for s in spans if s[0] == "channels.superop_build")
    n_density = count.get("linalg.density", 0)

    out = {
        "channels.superop_build_s": self_s.get("channels.superop_build", 0.0),
        "channels.superop_build_n": len(superop),
        "channels.superop_build_flops": sum(superop_build_flops(*d) for d in superop),
        "channels.superop_build_bytes": sum(superop_build_bytes(*d) for d in superop),
        "channels.superop_build_incl_frac": superop_incl / wall,
        "linalg.herm_exp_s": self_s.get("linalg.herm_exp", 0.0),
        "linalg.herm_exp_n": len(gens),
        "linalg.herm_exp_max_dim": max((g[0] for g in gens), default=0),
        "linalg.herm_exp_distinct_frac": (len({g[1] for g in gens}) / len(gens)) if gens else 0.0,
        "channels.query_apply_s": self_s.get("channels.query_apply", 0.0),
        "channels.query_apply_n": sum(m for _, m in queries),
        "channels.query_apply_flops": sum(m * query_matvec_flops(d) for d, m in queries),
        "channels.query_apply_bytes": sum(m * query_matvec_bytes(d) for d, m in queries),
        "channels.query_apply_frac": self_s.get("channels.query_apply", 0.0) / wall,
        "channels.choi_build_s": self_s.get("channels.choi_build", 0.0),
        "channels.choi_build_n": len(chois),
        "channels.choi_build_bytes": sum(C16 * (a * b) ** 2 for a, b in chois),
        "linalg.density_s": self_s.get("linalg.density", 0.0),
        "linalg.density_n": n_density,
        "linalg.density_per_step": n_density / steps if steps else 0.0,
        "linalg.eig_clip_n": len(clips),
        "linalg.eig_clip_max": max(clips, default=0.0),
        "engine.self_s": self_s.get(ENGINE, 0.0),
        "engine.steps_n": steps,
        "imr.rounds_n": count.get("imr.round", 0),
    }
    for name in ("channels.map_apply", "channels.exact_call", "channels.group_commutator",
                 "linalg.trace_distance", "imr.mixedness", "channels.generator",
                 "channels.probe"):
        out[name + "_s"] = self_s.get(name, 0.0)
        out[name + "_n"] = count.get(name, 0)
    # imr.round runs inside imr.subroutine; report the purification layer whole.
    out["imr.subroutine_s"] = self_s.get("imr.subroutine", 0.0) + self_s.get("imr.round", 0.0)
    for name in ("algos.spec_build", "cli.parse", "cli.report"):
        out[name + "_s"] = self_s.get(name, 0.0)
    return out
