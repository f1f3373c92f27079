"""Tests for the command-line interface: table shapes, exit codes,
format round-trips and determinism across parallelism degrees."""

import json

import pytest

from doubleshuffle import cli
from doubleshuffle.cli import main


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


def test_express_reductions(capsys):
    code, out = run(capsys, "express", "--composition", "4,3,3,2",
                    "--relative-to", "1,1,8,2")
    assert code == 0
    assert tsv_rows(out) == [["0", "4,3,3,2", "1,1,8,2", "-116"]]
    code, out = run(capsys, "express", "--composition", "3,6,1,2",
                    "--relative-to", "1,1,8,2")
    assert tsv_rows(out) == [["0", "3,6,1,2", "1,1,8,2", "-57"]]


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


def test_period_dump(capsys):
    code, out = run(capsys, "period", "--weight", "12")
    assert code == 0
    rows = tsv_rows(out)
    parts = {row[1] for row in rows}
    assert parts == {"P", "f0", "f1"}
    code, _ = run(capsys, "period", "--weight", "10")
    assert code == 1


def test_series_dump(capsys):
    code, out = run(capsys, "series", "--kind", "S", "--max-s", "24", "--max-t", "0")
    assert code == 0
    rows = tsv_rows(out)
    assert ["12", "0", "1"] in rows
    assert ["24", "0", "2"] in rows


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
