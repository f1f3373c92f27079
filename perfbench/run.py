"""Benchmark of the doubleshuffle package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|smoke]

NAME is one of ls-nullspace, ls-depth5, brackets, odd, or ``all``.  A run
is a closed loop of passes; each pass is a fresh Python process (set-up:
interpreter start, imports and empty caches, as every CLI call pays) that
issues the workload's operations one after another.  A run makes at least
two passes, and more while another one is expected to fit in S seconds.
With --trace 1 untraced and traced passes alternate.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 when any operation failed and 2 when the checkout is incomplete.
See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 6       # set-up-only spawns per run, besides every pass
RUN_LIMIT_S = 170       # a run never exceeds this, whatever --seconds says



def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; a run reports exactly these."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: m["unit"] for m in declared}


class Worker:
    """Spawns passes; the caller waits for each before starting the next."""

    def __init__(self, workload: str, size: str, seed: int, deadline: float):
        self.workload, self.size, self.seed = workload, size, seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")

    def spawn(self, extra: list[str]) -> tuple[float | None, dict | None, str]:
        """Returns (set-up seconds, pass result, error text)."""
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--size", self.size,
               "--seed", str(self.seed)] + extra
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start if ready == "ready\n" else None
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, None, "pass timed out"
        if proc.returncode != 0 or setup is None:
            return setup, None, f"worker exit {proc.returncode}: {err.strip()[-500:]}"
        lines = out.strip().splitlines()
        if "--setup-only" in extra:
            return setup, None, ""
        if not lines:
            return setup, None, "worker printed no result"
        return setup, json.loads(lines[-1]), ""


def run_workload(workload: str, size: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    started = time.perf_counter()
    worker = Worker(workload, size, seed, started + RUN_LIMIT_S)
    setups: list[float] = []
    passes: list[dict] = []       # untraced
    traced: list[dict] = []
    errors: list[str] = []
    failed = attempted = 0
    expected_ops = workloads.op_count(workload, size)

    for _ in range(SETUP_SAMPLES):
        setup, _, error = worker.spawn(["--setup-only"])
        if error:
            errors.append(error)
        else:
            setups.append(setup)
    loop_start = time.perf_counter()
    count = 0
    while True:
        tracing = trace and count % 2 == 1
        extra = []
        if tracing:
            OUT_DIR.mkdir(exist_ok=True)
            extra = ["--spans", str(OUT_DIR / f"{workload}-{size}-seed{seed}"
                                              f"-pass{count}.spans.jsonl")]
        setup, result, error = worker.spawn(extra)
        count += 1
        if setup is not None:
            setups.append(setup)
        if result is None:
            errors.append(error)
            attempted += expected_ops
            failed += expected_ops
        else:
            errors.extend(result["problems"])
            ops = result["ops"]
            missing = max(expected_ops - len(ops), 0)   # never issued
            attempted += len(ops) + missing
            failed += missing + sum(1 for *_, ok in ops if not ok)
            (traced if tracing else passes).append(result)
        now = time.perf_counter()
        elapsed = now - loop_start
        if now - started > RUN_LIMIT_S - 10:
            break
        if count >= 2 and elapsed * (count + 1) / count > seconds:
            break
    return {"workload": workload, "seed": seed, "setups": setups,
            "passes": passes, "traced": traced, "errors": errors,
            "attempted": max(attempted, 1), "failed": failed,
            "elapsed_s": time.perf_counter() - started}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pass_op_max(result: dict) -> float:
    return max((s for _, s, _ in result["ops"]), default=0.0)


def end_to_end(run: dict) -> dict[str, float]:
    passes = run["passes"]
    return {
        "wall_s": median([p["wall_s"] for p in passes]),
        "op_max_s": median([pass_op_max(p) for p in passes]),
        "setup_s": median(run["setups"]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(run: dict) -> dict[str, float]:
    traced = run["traced"]
    if not traced:
        return {}
    metrics = {name: median([p["layers"][name] for p in traced])
               for name in traced[0]["layers"]}
    untraced_wall = median([p["wall_s"] for p in run["passes"]])
    traced_wall = median([p["wall_s"] for p in traced])
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1
                                       if untraced_wall else 0.0)
    return metrics


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def report(run: dict, trace: bool) -> dict[str, dict]:
    """Print every metric by name with its unit; return the JSON metrics."""
    w = run["workload"]
    print(f"# {w}: seed {run['seed']}, {len(run['passes'])} untraced and "
          f"{len(run['traced'])} traced passes, {len(run['setups'])} set-ups, "
          f"{run['elapsed_s']:.1f} s")
    for key, values in (("wall_s", [p["wall_s"] for p in run["passes"]]),
                        ("op_max_s", [pass_op_max(p) for p in run["passes"]])):
        print(f"# {w}: {key} of each pass: "
              + " ".join(f"{v:.3f}" for v in values))
    for error in run["errors"]:
        print(f"# {w}: FAILED {error}")
    e2e_units = declared_metrics("end_to_end")
    e2e = end_to_end(run)
    for name, value in e2e.items():
        print(f"{w}\t{name}\t{value:.6f}\t{e2e_units[name]}")
    fail_ratio = run["failed"] / run["attempted"]
    print(f"{w}\tfail_ratio\t{fail_ratio:.6f}\tratio\t"
          f"({run['failed']} of {run['attempted']} operations)")
    ops = [s for p in run["passes"] for _, s, _ in p["ops"]]
    tail = tail_percentile(ops)
    if ops:
        line = f"{w}\top_s\tmedian {statistics.median(ops):.6f}"
        if tail:
            line += f", p{tail[0]} {tail[1]:.6f}"
        print(f"{line}\ts\t({len(ops)} operations)")
    layer_units = declared_metrics("per_layer")
    layers = per_layer(run)
    for name, value in sorted(layers.items()):
        print(f"{w}\t{name}\t{value:.6f}\t{layer_units[name]}")
    values, units = (layers, layer_units) if trace else (e2e, e2e_units)
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def missing_inputs(names: list[str], size: str) -> list[str]:
    needed = [ROOT / "src" / "doubleshuffle" / "cli.py"]
    for name in names:
        if name == "brackets":
            needed.append(ROOT / workloads.E12_GOLDEN)
        else:
            needed.append(workloads.reference_path(name, size))
    return [str(p) for p in needed if not p.is_file()]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    missing = missing_inputs(names, args.size)
    if missing:
        print("incomplete checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        run = run_workload(name, args.size, args.seed, args.seconds,
                           bool(args.trace))
        found = report(run, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        attempted += run["attempted"]
        failed += run["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
