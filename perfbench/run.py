"""qdpsim benchmark: one workload at one seed, measured for a fixed time.

    python3 perfbench/run.py --workload query-build --seed 7 --seconds 25 --trace 0

Runs every config of the workload through the real entry point,
``qdpsim.cli.main(["run", <config.json>])``, in this process with BLAS pinned
to one thread, and checks each run (see ``check.py``).  The first pass runs
the default-seed configs untimed against their committed references and
warms the process up; timed passes of the ``--seed`` configs follow until
``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced layer by layer (``spans.py``) and reports
the per-layer metrics.  The last line of standard output is the JSON result;
the lines before it give each figure with its sample count, the environment
and the load average.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

import check
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 3          # timed passes per untraced run
MIN_TRACED_PASSES = 2   # of each kind per traced run
SETUP_PROBES = 11       # fresh processes timed per untraced run
DEADLINE_S = 150.0      # start no pass that would end after this
QUERY_WORKLOADS = ("query-build", "query-apply")
REPAIR_MESSAGE = "symmetrizing matrix"

# Per-layer metrics whose value is a count: reported from the first traced
# pass, and expected to repeat exactly.
COUNT_SUFFIXES = ("_n", "_flops", "_bytes", "_max_dim")


def pin_blas() -> None:
    """Pin BLAS to one thread; must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def import_qdpsim():
    """Import qdpsim from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qdpsim", "__init__.py")):
        raise SystemExit(f"qdpsim sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import qdpsim
    from qdpsim import cli

    if not os.path.abspath(qdpsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported qdpsim from {qdpsim.__file__}, not {SRC}")
    return qdpsim, cli


def run_config(cli, path: str) -> tuple[float, float, str | None]:
    """Run one config through the CLI: (wall s, CPU s, error or None)."""
    buf = io.StringIO()
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(["run", path])
        if code != 0:
            error = f"exit {code}: {buf.getvalue().strip()[-500:]}"
    except (Exception, SystemExit):
        error = traceback.format_exc()[-2000:]
    return time.perf_counter() - t0, time.process_time() - c0, error


class Pass:
    """Runs every config of a workload once and checks each run.

    ``first_outputs`` holds each config's report bytes from the first pass
    over the same configs; later passes must reproduce them exactly.

    Config runs take turns on the CPUs this process may use, shifted by one
    each pass.  On a shared host each CPU slows down by up to 2x, for seconds
    at a time and independently of the others; taking turns averages a pass
    over them instead of leaving it to whichever CPU the scheduler kept.
    """

    def __init__(self, cli, configs, references, cpus):
        self.cli = cli
        self.configs = configs
        self.references = references
        self.cpus = cpus
        self.first_outputs: dict[str, bytes] = {}
        self.passes = 0

    def run(self, tracer=None, label="") -> dict:
        wall = cpu = 0.0
        failures = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, (name, path, out_path) in enumerate(self.configs):
                os.sched_setaffinity(0, {self.cpus[(i + self.passes) % len(self.cpus)]})
                if tracer is not None:
                    tracer.run_id = f"{label}/{name}"
                w, c, error = run_config(self.cli, path)
                wall += w
                cpu += c
                problem = error or self._check(name, out_path)
                if problem:
                    failures.append(f"{label}/{name}: {problem}")
        self.passes += 1
        repairs = sum(1 for w in caught if issubclass(w.category, RuntimeWarning)
                      and str(w.message).startswith(REPAIR_MESSAGE))
        return {"wall": wall, "cpu": cpu, "attempted": len(self.configs),
                "failures": failures, "repairs": repairs}

    def _check(self, name: str, out_path: str) -> str | None:
        try:
            with open(out_path, "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw)
        except (OSError, ValueError) as exc:
            return f"no readable report: {exc}"
        bad = check.failed_bounds(doc)
        if bad:
            return f"bound checks failed: {bad}"
        if self.references is not None:
            diffs = check.compare_report(doc, self.references[name])
            if diffs:
                return f"{len(diffs)} cells differ from the reference, first: {diffs[0]}"
        expected = self.first_outputs.setdefault(name, raw)
        if raw != expected:
            return "output differs from the first pass over the same configs"
        return None


def prepare(workload: str, seed: int, work: str, tag: str) -> tuple[list, list[dict]]:
    cfg_dir, out_dir = os.path.join(work, tag, "configs"), os.path.join(work, tag, "out")
    paths = workloads.write_configs(workload, seed, cfg_dir, out_dir)
    triples = [(name, path, os.path.join(out_dir, name + ".json")) for name, path in paths]
    return triples, [raw for _, raw in workloads.configs(workload, seed)]


def measure_setup(config_paths: list[str], cpus: list[int]) -> list[float]:
    """Seconds from starting a fresh interpreter until qdpsim is imported
    and every config is loaded and parsed, once per probe.  Probes take
    turns on the CPUs, as config runs do (see ``Pass``)."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *config_paths]
    out = []
    for i in range(SETUP_PROBES):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas_text = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_per_step"):
        return "1/step"
    if name.endswith(("_frac", "_util")):
        return "frac"
    if name.endswith("_max_dim"):
        return "dim"
    if name.endswith("_max"):
        return "1"
    return "count"


def measure(run_pass, seconds: float, min_passes: int, started: float) -> list[dict]:
    """Run passes for ``seconds`` and at least ``min_passes``, never
    starting one that would end past the deadline."""
    results = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(results) >= min_passes and elapsed >= seconds:
            break
        last = results[-1]["wall"] if results else 0.0
        if results and time.perf_counter() - started + last > DEADLINE_S:
            break
        results.append(run_pass(len(results)))
    return results


def untraced_run(args, timed, warm, totals) -> dict:
    setup = measure_setup([path for _, path, _ in timed.configs], timed.cpus)
    totals.append(warm.run(label="warmup"))
    passes = measure(lambda i: timed.run(label=f"pass{i}"), args.seconds, MIN_PASSES,
                     args.started)
    totals.extend(passes)
    walls = [p["wall"] for p in passes]
    steps = sum(workloads.steps(raw) for raw in args.raws)
    queries = sum(workloads.queries(raw) for raw in args.raws)
    lines = [
        stats.describe("wall_s", "s", walls),
        stats.describe("steps_per_s", "1/s", [steps / w for w in walls]),
        stats.describe("setup_s", "s", setup),
    ]
    if args.workload in QUERY_WORKLOADS:
        lines.append(stats.describe("queries_per_s", "1/s", [queries / w for w in walls]))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"peak_rss_mb = {peak:.6g} MB (ru_maxrss of this process, n=1)")
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "steps_per_s": metric(statistics.median([steps / w for w in walls]), "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak, "MB"),
    }
    extra = {"walls_s": walls, "setup_samples_s": setup, "steps_per_pass": steps,
             "queries_per_pass": queries}
    return {"metrics": metrics, "lines": lines, "extra": extra}


def traced_run(args, qdpsim, timed, warm, totals) -> dict:
    import spans

    tracer = spans.Tracer(qdpsim)
    totals.append(warm.run(label="warmup"))
    plain, traced, span_passes = [], [], []

    def one(i):
        if i % 2 == 0:
            result = timed.run(label=f"pass{i}")
            plain.append(result)
            return result
        tracer.install()
        try:
            result = timed.run(tracer=tracer, label=f"pass{i}")
        finally:
            tracer.uninstall()
        span_passes.append(tracer.take())
        result["layers"] = spans.layer_metrics(span_passes[-1], result["wall"])
        traced.append(result)
        return result

    totals.extend(measure(one, args.seconds, 2 * MIN_TRACED_PASSES, args.started))
    spans.write_spans(os.path.join(args.tag_dir, "spans.jsonl"), span_passes)

    plain_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(p["wall"] for p in traced)
    queries = sum(workloads.queries(raw) for raw in args.raws)
    layers = {}
    varying = []
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if name.endswith(COUNT_SUFFIXES):
            layers[name] = values[0]
            if len(set(values)) > 1:
                varying.append(name)
        else:
            layers[name] = statistics.median(values)
    layers["linalg.herm_repair_n"] = traced[0]["repairs"]
    layers["channels.queries_per_s"] = queries / plain_wall
    layers["process.cpu_util"] = sum(p["cpu"] for p in plain) / sum(p["wall"] for p in plain)
    layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0

    lines = [f"{name} = {value:.6g} {layer_unit(name)}" for name, value in layers.items()]
    per_call: dict[str, list[float]] = {}
    for span in span_passes[-1]:
        if span[0] != spans.TRACE_SPAN:
            per_call.setdefault(span[0], []).append(span[2] - span[1])
    lines.extend(stats.describe(f"{name} per call (inclusive, last traced pass)", "s", values)
                 for name, values in sorted(per_call.items()))
    lines.append(f"traced passes n={len(traced)}, untraced passes n={len(plain)}; "
                 f"layer times are medians over traced passes")
    if varying:
        lines.append(f"counts that varied between traced passes: {varying}")
    lines.extend(chosen_for(args.workload, layers))
    metrics = {name: metric(value, layer_unit(name)) for name, value in layers.items()}
    return {"metrics": metrics, "lines": lines, "extra": {"varying_counts": varying}}


def chosen_for(workload: str, layers: dict) -> list[str]:
    """Confirm from the trace what the workload was chosen to exercise."""
    build = layers["channels.superop_build_incl_frac"]
    apply = layers["channels.query_apply_frac"]
    if workload == "query-build":
        claims = [("query_superoperator inclusive >= 80% of the pass", build >= 0.80),
                  ("query apply self time < 5% of the pass", apply < 0.05)]
    elif workload == "query-apply":
        claims = [("query apply self time >= 80% of the pass", apply >= 0.80),
                  ("query_superoperator inclusive < 5% of the pass", build < 0.05)]
    else:
        calls = (layers["channels.superop_build_n"] + layers["channels.query_apply_n"]
                 + layers["channels.generator_n"])
        claims = [("query layer made zero calls", calls == 0)]
    return [f"chosen for: {text}: {'holds' if ok else 'DOES NOT HOLD'} "
            f"(superop incl {build:.1%}, query apply {apply:.1%})" for text, ok in claims]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qdpsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    args.started = started
    pin_blas()
    qdpsim, cli = import_qdpsim()
    import numpy as np

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.tag_dir = os.path.join(WORK, tag)
    shutil.rmtree(args.tag_dir, ignore_errors=True)
    env = dict(environment(np), loadavg_start=os.getloadavg())

    timed_cfgs, args.raws = prepare(args.workload, args.seed, WORK, os.path.join(tag, "timed"))
    warm_cfgs, _ = prepare(args.workload, workloads.DEFAULT_SEED, WORK, os.path.join(tag, "warm"))
    cpus = sorted(os.sched_getaffinity(0))
    timed = Pass(cli, timed_cfgs, check.load_references(args.workload, args.seed), cpus)
    warm = Pass(cli, warm_cfgs, check.load_references(args.workload, workloads.DEFAULT_SEED), cpus)

    totals: list[dict] = []
    if args.trace:
        result = traced_run(args, qdpsim, timed, warm, totals)
    else:
        result = untraced_run(args, timed, warm, totals)

    attempted = sum(p["attempted"] for p in totals)
    failures = [f for p in totals for f in p["failures"]]
    env["loadavg_end"] = os.getloadavg()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "why": workloads.WHY[args.workload], "environment": env,
              "attempted": attempted, "failures": failures, **result["extra"],
              "metrics": result["metrics"]}
    with open(os.path.join(args.tag_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in result["lines"]:
        print(line)
    print(f"fail_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} config runs failed)")
    for failure in failures[:10]:
        print("FAILED " + failure.replace("\n", " | "))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
