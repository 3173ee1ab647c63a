"""Set-up probe, run in a fresh process by ``run.py``.

Imports qdpsim from the given source directory, loads and parses every
config named on the command line (``load_config`` and
``ExperimentConfig.from_dict``), then prints the monotonic clock.  The caller
subtracts the clock reading it took just before starting this process.

    python3 perfbench/setup_probe.py <src dir> <config.json>...
"""

import sys
import time


def main(argv) -> int:
    sys.path.insert(0, argv[1])
    from qdpsim import cli

    for path in argv[2:]:
        cli.ExperimentConfig.from_dict(cli.load_config(path))
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
