"""Tests for the command-line interface: table shapes, exit codes,
format round-trips and determinism across parallelism degrees."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from doubleshuffle import cli
from doubleshuffle.cli import main
from doubleshuffle.exceptional import exceptional_elements
from doubleshuffle.ihara import bracket, depth1_generator
from doubleshuffle.period_poly import cusp_dimension
from doubleshuffle.series import bk_series


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def tsv_rows(text):
    return [line.split("\t") for line in text.splitlines()
            if line and not line.startswith("#")]


def test_dims_contains_weight12_depth4(capsys):
    code, out = run(capsys, "dims", "--max-weight", "12", "--max-depth", "4")
    assert code == 0
    rows = tsv_rows(out)
    assert ["12", "4", "1"] in rows
    # every odd-parity cell is zero
    for N, r, d in rows:
        if (int(N) - int(r)) % 2 == 1:
            assert d == "0"


def test_dims_depth1_column(capsys):
    code, out = run(capsys, "dims", "--max-weight", "13", "--max-depth", "1")
    assert code == 0
    rows = {int(N): int(d) for N, r, d in tsv_rows(out)}
    for N in range(3, 14, 2):
        assert rows[N] == 1
    for N in range(2, 14, 2):
        assert rows[N] == 0


def test_dims_out_of_bounds_usage_error(capsys):
    code, _ = run(capsys, "dims", "--max-weight", "99", "--max-depth", "4")
    assert code == 2
    code, _ = run(capsys, "dims", "--max-weight", "10", "--max-depth", "9")
    assert code == 2


def test_cache_dir_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--cache-dir", "cache"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["period", "--weight", "12"],
    ["exceptional", "--weight", "12"],
    ["bracket", "--expr", "{3,5}"],
    ["express", "--composition", "4,3,3,2"],
    ["series", "--kind", "odd"],
])
def test_jobs_only_on_cell_commands(argv, capsys):
    # --jobs maps independent cells; the other commands have none to map
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_exceptional_weight12(capsys):
    code, out = run(capsys, "exceptional", "--weight", "12")
    assert code == 0
    rows = tsv_rows(out)
    assert len(rows) == 118
    assert ["f12", "0,0,7,1", "1"] in rows
    assert ["f12", "3,2,2,1", "-116"] in rows


def test_exceptional_weight14_empty(capsys):
    code, _ = run(capsys, "exceptional", "--weight", "14")
    assert code == 1


def test_exceptional_paper_without_generator_is_usage_error(capsys):
    # weight 22 has a cusp form but no fixed generator: an argument fault
    code, out = run(capsys, "exceptional", "--weight", "22",
                    "--generator", "paper")
    assert code == 2
    assert out == ""
    # with no cusp form the empty domain comes first
    code, _ = run(capsys, "exceptional", "--weight", "14", "--generator", "paper")
    assert code == 1


def test_exceptional_paper_equals_canonical(capsys):
    # the fixed generator is the canonical one: only the name differs
    tables = {}
    for generator in ("paper", "canonical"):
        code, out = run(capsys, "exceptional", "--weight", "16",
                        "--generator", generator)
        assert code == 0
        tables[generator] = tsv_rows(out)
    assert {row[0] for row in tables["paper"]} == {"f16"}
    assert {row[0] for row in tables["canonical"]} == {"S16[0]"}
    assert ([row[1:] for row in tables["paper"]]
            == [row[1:] for row in tables["canonical"]])


def test_exceptional_weight24_two_elements(capsys):
    code, out = run(capsys, "exceptional", "--weight", "24",
                    "--generator", "canonical", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["params"]["sources"]) == 2


def test_bracket_expression(capsys):
    code, out = run(capsys, "bracket", "--expr", "{3,9}")
    assert code == 0
    rows = tsv_rows(out)
    assert ["1,9", "-6"] in rows
    code, out = run(capsys, "bracket", "--expr", "{3,{5,7}}")
    assert code == 0
    code, out = run(capsys, "bracket", "--expr", "{3,3}")
    assert code == 1  # zero bracket: empty dump


def test_bracket_bad_expression(capsys):
    code, _ = run(capsys, "bracket", "--expr", "{3,")
    assert code == 2


def test_bracket_exceptional_leaf(capsys):
    code, out = run(capsys, "bracket", "--expr", "{3,e12}")
    assert code == 0
    e12 = exceptional_elements(12, "auto")[0].reduced
    want = bracket(depth1_generator(3), e12).body.sorted_terms()
    assert len(want) == 870
    assert tsv_rows(out) == [[",".join(map(str, exps)), str(c)]
                             for exps, c in want]


def test_exceptional_index_checked_at_parse_time(capsys, monkeypatch):
    # the parser allows e<w>[i] for i < dim S_w, the number of elements
    def evaluate(node):
        raise AssertionError("evaluated an index past dim S")

    monkeypatch.setattr(cli, "_evaluate_bracket", evaluate)
    for expr in ("{3,e22[1]}", "{3,e14}"):
        code, out = run(capsys, "bracket", "--expr", expr)
        assert code == 2, expr
        assert out == "", expr
    for w in range(12, 41, 2):
        assert len(exceptional_elements(w, "auto")) == cusp_dimension(w), w


def test_express_reductions(capsys):
    code, out = run(capsys, "express", "--composition", "4,3,3,2",
                    "--relative-to", "1,1,8,2")
    assert code == 0
    assert tsv_rows(out) == [["0", "4,3,3,2", "1,1,8,2", "-116"]]
    code, out = run(capsys, "express", "--composition", "3,6,1,2",
                    "--relative-to", "1,1,8,2")
    assert tsv_rows(out) == [["0", "3,6,1,2", "1,1,8,2", "-57"]]
    code, out = run(capsys, "express", "--composition", "4,3,3,2")
    assert code == 0
    assert tsv_rows(out) == [["0", "4,3,3,2", "-116"]]
    # the reference coordinate is 0: no ratio
    code, out = run(capsys, "express", "--composition", "4,3,3,2",
                    "--relative-to", "1,1,1,9")
    assert code == 0
    assert tsv_rows(out) == [["0", "4,3,3,2", "1,1,1,9", "undefined"]]
    # weight 13 in depth 4 has no solutions
    code, out = run(capsys, "express", "--composition", "5,3,3,2")
    assert code == 1
    assert out == ""


def test_express_out_of_bounds_usage_error(capsys):
    # weight 45 is past the solver bound: rejected before any work starts
    code, out = run(capsys, "express", "--composition", "9,9,9,9,9")
    assert code == 2
    assert out == ""


def test_unbounded_weights_usage_error(capsys):
    # past MAX_SERIES_WEIGHT_BOUND: rejected before any work starts
    for argv in (["period", "--weight", "4000"],
                 ["exceptional", "--weight", "4000"],
                 ["series", "--max-s", "100000"]):
        code, out = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv


DEEP_EXPR = "{3," * 1500 + "5" + "}" * 1500


@pytest.mark.parametrize("argv", [
    ["express", "--composition", "4,x"],
    ["express", "--composition", "0,4"],
    ["express", "--composition", "4,3,3,2", "--relative-to", "1,1,8"],
    ["express", "--composition", "4,3,3,2", "--relative-to", "1,1,8,3"],
    ["express", "--composition", "4,3,3,2", "--relative-to", "1,-1,8,4"],
    ["express", "--composition", "4," + "9" * 5000],
    ["bracket", "--expr", "e12[x]"],
    ["bracket", "--expr", "{3,e12[0}"],
    ["bracket", "--expr", "{3,4}"],
    ["bracket", "--expr", "{1,3}"],
    ["bracket", "--expr", "{3,e200}"],
    ["bracket", "--expr", "{3,e13}"],
    ["bracket", "--expr", "{3,{5,{7,{9,{11,{13,{15,{17,19}}}}}}}}"],
    ["bracket", "--expr", DEEP_EXPR],
    ["bracket", "--expr", "{" * 1500],
    ["bracket", "--expr", "{3," + "9" * 5000 + "}"],
    ["bracket", "--expr", "{3,e12[" + "1" * 5000 + "]}"],
], ids=lambda argv: " ".join(argv)[:40])
def test_argv_faults_are_usage_errors(capsys, argv):
    # found while reading argv, before any bracket or solve is evaluated
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_bracket_weight_bound(capsys, monkeypatch):
    # past MAX_BRACKET_WEIGHT: rejected before anything is evaluated
    def evaluate(node):
        raise AssertionError("evaluated past the weight bound")

    monkeypatch.setattr(cli, "_evaluate_bracket", evaluate)
    # {3,480697} is shallow, but would lift x^480696 into 480,697 terms
    for expr in ("{3,{3,{3,{3,{3,{3,{5,7}}}}}}}", "{e12,e16}", "{3,480697}"):
        code, out = run(capsys, "bracket", "--expr", expr)
        assert code == 2, expr
        assert out == "", expr
    # at the bound the expression is accepted and evaluated
    monkeypatch.setattr(cli, "_evaluate_bracket",
                        lambda node: cli.depth1_generator(3))
    code, out = run(capsys, "bracket", "--expr", "{3,{3,{3,{3,{3,{3,{3,5}}}}}}}")
    assert code == 0 and out


def test_jobs_above_cap_is_usage_error(capsys, monkeypatch):
    # rejected while reading argv: no worker pool may be started
    monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
    code, out = run(capsys, "dims", "--max-weight", "6", "--max-depth", "1",
                    "--jobs", "65")
    assert code == 2
    assert out == ""


def test_worker_count_clamped_to_cells(capsys, monkeypatch):
    started = []

    class RecordingPool:
        """Records the requested worker count and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code, out = run(capsys, "bk-check", "--target", "odd", "--max-weight", "9",
                    "--max-depth", "2", "--jobs", "64")
    assert code == 0
    assert started == [6]  # (N, r) = (1..4, 1) and (2..3, 2)
    assert all(row[-1] == "ok" for row in tsv_rows(out))


def test_library_value_error_is_internal(capsys, monkeypatch):
    from doubleshuffle import cli

    def broken(N, r):
        raise ValueError("library fault")

    monkeypatch.setattr(cli, "dimension", broken)
    code, out = run(capsys, "dims", "--max-weight", "3", "--max-depth", "1")
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("error", [IndexError, TypeError, ZeroDivisionError,
                                   RecursionError, MemoryError])
def test_any_internal_fault_exits_3_on_one_line(capsys, monkeypatch, error):
    def broken(N, r):
        raise error("fault inside the library")

    monkeypatch.setattr(cli, "dimension", broken)
    code = main(["dims", "--max-weight", "3", "--max-depth", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"internal error: {error.__name__}: "
                            "fault inside the library\n")
    assert "Traceback" not in captured.err


def test_period_dump(capsys):
    code, out = run(capsys, "period", "--weight", "12")
    assert code == 0
    rows = tsv_rows(out)
    parts = {row[1] for row in rows}
    assert parts == {"P", "f0", "f1"}
    code, _ = run(capsys, "period", "--weight", "10")
    assert code == 1


def test_rationals_print_as_p_over_q(capsys):
    # a rational prints as p/q, an integer with no /1, in TSV and JSON
    code, out = run(capsys, "period", "--weight", "16")
    assert code == 0
    assert ["0", "P", "4,10", "7/2"] in tsv_rows(out)
    code, out = run(capsys, "period", "--weight", "16", "--format", "json")
    assert code == 0
    assert [0, "P", "4,10", "7/2"] in json.loads(out)["rows"]
    code, out = run(capsys, "express", "--composition", "5,4,4,3,3",
                    "--relative-to", "1,3,5,3,7")
    assert code == 0
    assert tsv_rows(out)[0] == ["0", "5,4,4,3,3", "1,3,5,3,7", "187/5"]
    # an integral ratio prints with no /1: -116 in test_express_reductions


def test_series_dump(capsys):
    code, out = run(capsys, "series", "--kind", "S", "--max-s", "24", "--max-t", "0")
    assert code == 0
    rows = tsv_rows(out)
    assert ["12", "0", "1"] in rows
    assert ["24", "0", "2"] in rows


@pytest.mark.parametrize("kind", ["full", "ls", "odd"])
def test_series_bk_kinds(capsys, kind):
    code, out = run(capsys, "series", "--kind", kind, "--max-s", "20",
                    "--max-t", "5")
    assert code == 0
    assert tsv_rows(out) == [list(map(str, row)) for row in
                             bk_series(kind, 20, 5).dump_rows()]


def test_bk_check_ls(capsys):
    code, out = run(capsys, "bk-check", "--target", "ls",
                    "--max-weight", "14", "--max-depth", "3")
    assert code == 0
    assert all(row[-1] == "ok" for row in tsv_rows(out))


def test_bk_check_full_t1(capsys):
    code, out = run(capsys, "bk-check", "--target", "full-t1",
                    "--max-weight", "20")
    assert code == 0
    rows = tsv_rows(out)
    assert ["20", "", "114", "114", "ok"] in rows


def test_bk_check_full_t1_ignores_depth(capsys):
    # full-t1 reads no depth: any --max-depth is accepted and not echoed
    outs = []
    for depth in ("9", "1"):
        code, out = run(capsys, "bk-check", "--target", "full-t1",
                        "--max-weight", "10", "--max-depth", depth)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and tsv_rows(outs[0])
    code, out = run(capsys, "bk-check", "--target", "full-t1",
                    "--max-weight", "10", "--max-depth", "9", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"max_weight": 10, "target": "full-t1"}


def test_bk_check_odd(capsys):
    code, out = run(capsys, "bk-check", "--target", "odd",
                    "--max-weight", "13", "--max-depth", "3")
    assert code == 0
    rows = tsv_rows(out)
    assert ["12", "2", "3", "3", "ok"] in rows


def test_bk_check_odd_weight21_depth5(capsys):
    # the odd target accepts the larger weight window
    code, out = run(capsys, "bk-check", "--target", "odd",
                    "--max-weight", "21", "--max-depth", "5")
    assert code == 0
    assert all(row[-1] == "ok" for row in tsv_rows(out))


def _bump_ls(series):
    series.coeffs[12][2] += 1


def _bump_full_t1(dims):
    dims[20] += 1


@pytest.mark.parametrize("argv, name, bump, key", [
    (["ls", "--max-weight", "12", "--max-depth", "3"], "bk_series", _bump_ls,
     ["12", "2"]),
    (["odd", "--max-weight", "13", "--max-depth", "3"], "bk_series", _bump_ls,
     ["12", "2"]),
    (["full-t1", "--max-weight", "20"], "hoffman_dims", _bump_full_t1,
     ["20", ""]),
])
def test_bk_check_mismatch_flags_one_row(capsys, monkeypatch, argv, name,
                                         bump, key):
    code, out = run(capsys, "bk-check", "--target", *argv)
    assert code == 0
    rows = tsv_rows(out)
    assert key in [row[:2] for row in rows]
    real = getattr(cli, name)

    def off_by_one(*args):
        table = real(*args)
        bump(table)
        return table

    monkeypatch.setattr(cli, name, off_by_one)
    code, out = run(capsys, "bk-check", "--target", *argv)
    assert code == 1
    assert tsv_rows(out) == [
        row[:3] + [str(int(row[3]) + 1), "MISMATCH"] if row[:2] == key else row
        for row in rows]


def test_bk_check_odd_flags_a_prediction_with_no_cell(capsys, monkeypatch):
    # (12, 3) has odd w - r, so no rank cell: a nonzero prediction there
    # still gets a row, and that row is a mismatch
    real = cli.bk_series

    def bumped(*args):
        series = real(*args)
        series.coeffs[12][3] += 1
        return series

    monkeypatch.setattr(cli, "bk_series", bumped)
    code, out = run(capsys, "bk-check", "--target", "odd",
                    "--max-weight", "13", "--max-depth", "3")
    assert code == 1
    assert [row for row in tsv_rows(out) if row[-1] != "ok"] == [
        ["12", "3", "0", "1", "MISMATCH"]]


def test_span_table(capsys):
    code, out = run(capsys, "span", "--max-weight", "12", "--max-depth", "4")
    assert code == 0
    rows = tsv_rows(out)
    assert ["12", "4", "0"] in rows
    assert ["10", "2", "1"] in rows


def test_json_tsv_round_trip(capsys, tmp_path):
    args = ["dims", "--max-weight", "10", "--max-depth", "3"]
    code, tsv_out = run(capsys, *args)
    assert code == 0
    code, json_out = run(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["command"] == "dims"
    json_rows = [[str(v) for v in row] for row in payload["rows"]]
    assert json_rows == tsv_rows(tsv_out)


def test_bk_check_json_round_trip(capsys):
    args = ["bk-check", "--target", "odd", "--max-weight", "12",
            "--max-depth", "2"]
    code, tsv_out = run(capsys, *args)
    assert code == 0
    code, json_out = run(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    json_rows = [[str(v) for v in row] for row in payload["rows"]]
    assert json_rows == tsv_rows(tsv_out)


def test_output_file_and_jobs_determinism(tmp_path):
    base = tmp_path / "a.tsv"
    para = tmp_path / "b.tsv"
    assert main(["dims", "--max-weight", "11", "--max-depth", "3",
                 "--output", str(base)]) == 0
    assert main(["dims", "--max-weight", "11", "--max-depth", "3",
                 "--jobs", "3", "--output", str(para)]) == 0
    assert base.read_bytes() == para.read_bytes()


@pytest.mark.parametrize("target", ["dir", "missing/a.tsv"])
def test_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys, target):
    # a directory or a missing parent directory: exit 2 before any work
    (tmp_path / "dir").mkdir()

    def forbidden(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "dimension", forbidden)
    assert main(["dims", "--max-weight", "6", "--max-depth", "2",
                 "--output", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --output") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_failed_output_write_is_internal_fault(to_file):
    # a write that fails for want of space: one error line and exit 3,
    # through a fresh interpreter, so an uncaught traceback would show
    if to_file and not os.access("/dev", os.W_OK):
        pytest.skip("--output /dev/full needs a writable /dev")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "doubleshuffle.cli", "dims",
            "--max-weight", "8", "--max-depth", "2"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv + ["--output", "/dev/full"] * to_file,
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: [Errno 28]")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
