"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench

They run every workload, gate and trace hook, check that the counts repeat
exactly across runs and seeds, and that a checkout without the package
fails cleanly.  They take about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result(bench(workload, 1, 0))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_across_runs_and_seeds(workload):
    runs = [result(bench(workload, seed, 1)) for seed in (1, 1, 2)]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for out in runs:
        assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    counts = [{name: out["metrics"][name]["value"] for name in COUNTS}
              for out in runs]
    assert counts[0] == counts[1] == counts[2]


def test_seed_orders_cells_but_not_output():
    from doubleshuffle import cli

    argv = workloads.cli_argv("odd", "smoke")
    first = workloads.run_cli(cli, argv, seed=1)
    second = workloads.run_cli(cli, argv, seed=2)
    assert first[:2] == second[:2]
    assert [c for c, _, _ in first[2]] != [c for c, _, _ in second[2]]
    assert sorted(c for c, _, _ in first[2]) == sorted(c for c, _, _ in second[2])


def test_gate_fails_every_cell_on_wrong_tsv_or_exit():
    from doubleshuffle import cli

    path = workloads.reference_path("ls-nullspace", "smoke")
    reference = json.loads(path.read_text())
    assert not workloads.cli_pass(cli, "ls-nullspace", "smoke", 1,
                                  reference).problems
    for key, wrong in (("tsv", reference["tsv"] + "0\n"), ("exit", 1)):
        bad = dict(reference, **{key: wrong})
        outcome = workloads.cli_pass(cli, "ls-nullspace", "smoke", 1, bad)
        assert outcome.ops and not any(ok for _, _, ok in outcome.ops)


def test_run_fails_when_the_cli_bypasses_the_cell_hook(tmp_path):
    """A CLI that no longer calls ``_map_cells`` leaves the cell hook
    untimed; every cell of every pass must then count as failed."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    cli = tmp_path / "src" / "doubleshuffle" / "cli.py"
    text = cli.read_text()
    assert "_map_cells(_" in text
    cli.write_text(text.replace("_map_cells(_", "_cells_inline(_")
                   + "\n_cells_inline = _map_cells\n")
    proc = bench("ls-nullspace", 1, 0, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not out["correct"]
    assert out["failed"] == out["attempted"] > 0


def test_gate_fails_a_wrong_cell_value():
    from doubleshuffle import cli

    reference = json.loads(
        workloads.reference_path("odd", "smoke").read_text())
    cells = dict(reference["cells"], **{"1,1": 99})
    outcome = workloads.cli_pass(cli, "odd", "smoke", 1,
                                 dict(reference, cells=cells))
    assert [label for label, _, ok in outcome.ops if not ok] == ["1,1"]


def test_brackets_gate_checks_the_e12_golden_file():
    import importlib

    modules = {name: importlib.import_module(f"doubleshuffle.{name}")
               for name in ("double_shuffle", "exact_algebra", "ihara",
                            "exceptional", "period_poly")}
    golden = (ROOT / workloads.E12_GOLDEN).read_text()
    wrong = golden.replace(": -116", ": -115")
    assert wrong != golden
    outcome = workloads.brackets_pass(modules, "smoke", 3, wrong)
    assert [label for label, _, ok in outcome.ops if not ok] == ["exceptional:12"]


def test_self_time_subtracts_children():
    tracer = spans.Tracer("t")
    tracer.spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                    ["c", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, None]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_incomplete_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("ls-nullspace", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
