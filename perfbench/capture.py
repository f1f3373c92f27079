"""Write the reference outputs of the bk-check workloads.

    python3 perfbench/capture.py

Run once at a commit whose outputs are trusted; every later pass must
reproduce the stdout, the exit code and each cell's value exactly.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from doubleshuffle import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for (workload, size) in workloads.CLI_ARGS:
        argv = workloads.cli_argv(workload, size)
        code, tsv, timed = workloads.run_cli(cli, argv, seed=0)
        reference = {"argv": argv, "exit": code, "tsv": tsv,
                     "cells": {label: value for label, _, value in timed}}
        path = workloads.reference_path(workload, size)
        path.write_text(json.dumps(reference, indent=1) + "\n")
        print(f"{path.name}: exit {code}, {len(timed)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
