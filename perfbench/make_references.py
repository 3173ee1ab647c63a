"""Write the committed reference outputs of a workload at one seed.

    python3 perfbench/make_references.py --workload memoryless --seed 7

Runs each config of the workload once through ``qdpsim.cli.main``, refuses
to write anything if a run fails or a bound check does not pass, and stores
the reports' columns, rows and bound checks in
``perfbench/references/<workload>/seed-<seed>.json``.  Regenerate only when a
change is meant to alter results, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import check
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    run.pin_blas()
    _, cli = run.import_qdpsim()

    tag = f"references-{args.workload}-seed{args.seed}"
    configs, _ = run.prepare(args.workload, args.seed, run.WORK, tag)
    entries = {}
    for name, path, out_path in configs:
        _, _, error = run.run_config(cli, path)
        if error:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if check.failed_bounds(doc):
            print(f"{name}: bound checks failed: {check.failed_bounds(doc)}", file=sys.stderr)
            return 1
        entries[name] = check.reference_entry(doc)

    path = check.reference_path(args.workload, args.seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, entry) in enumerate(entries.items()):
            fh.write(("{" if i == 0 else ",\n") + json.dumps(name) + ":" + json.dumps(entry))
        fh.write("}\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
