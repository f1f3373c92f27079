"""One pass of one workload in a fresh process.

Prints ``ready`` as soon as the package is imported (the parent times
set-up up to that line), then runs the pass and prints one JSON line.

    python3 perfbench/worker.py --workload NAME --size SIZE --seed N
        [--spans PATH] [--setup-only]

``--spans PATH`` traces the pass and writes its spans to PATH.
"""

import sys


def main(argv: list[str]) -> int:
    import argparse
    import importlib
    import json
    import resource
    from pathlib import Path

    import doubleshuffle
    import spans
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        return 0

    root = Path(__file__).resolve().parent.parent
    source = Path(doubleshuffle.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"imported {source}, not the checkout's own package",
              file=sys.stderr)
        return 2
    modules = {name: importlib.import_module(f"doubleshuffle.{name}")
               for name in ("cli", "double_shuffle", "exact_algebra", "words",
                            "ihara", "exceptional", "period_poly", "series",
                            "odd_mzv")}
    if args.workload == "brackets":
        golden = (root / workloads.E12_GOLDEN).read_text()
    else:
        reference = json.loads(
            workloads.reference_path(args.workload, args.size).read_text())

    tracer = None
    if args.spans:
        tracer = spans.Tracer(Path(args.spans).name.split(".")[0])
        tracer.install(modules)
    if args.workload == "brackets":
        result = workloads.brackets_pass(modules, args.size, args.seed,
                                         golden, tracer)
    else:
        result = workloads.cli_pass(modules["cli"], args.workload, args.size,
                                    args.seed, reference, tracer)
    out = result.as_dict()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.counts["words.cache_entries"] = spans.cache_entries(modules)
        out["layers"] = tracer.layer_metrics()
        tracer.write(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    import doubleshuffle.cli  # noqa: F401  (set-up: the package and its imports)

    print("ready", flush=True)
    sys.exit(main(sys.argv[1:]))
