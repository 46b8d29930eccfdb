"""CLI: parsing, dispatch, output formats, exit codes, determinism."""

import json

import pytest
from mpmath import mp, mpf

from regsum import DEFAULT_CONFIG, SeriesSpec, regularized_limit, workprec
from regsum.cli import UsageError, _build_parser, main, parse_request

CFG = DEFAULT_CONFIG


# ------------------------------- parsing ----------------------------------

def test_parse_verify_grid_nine_points():
    req = parse_request(["verify", "--identity", "entry17v",
                         "--grid", "0.1:0.9:0.1", "--format", "json"])
    assert req.command == "verify"
    assert req.identities == ["entry17v"]
    assert len(req.grid) == 9
    assert req.output_format == "json"


def test_parse_eval_limit_dispatch():
    req = parse_request(["eval", "--series", "sin", "--s", "0",
                         "--x", "0.25"])
    assert req.command == "eval"
    assert req.series == "sin"
    assert req.s == 0
    assert req.grid[0] == mpf("0.25")


def test_parse_unknown_identity_lists_names():
    with pytest.raises(UsageError) as exc:
        parse_request(["verify", "--identity", "nosuch"])
    assert "entry17v" in str(exc.value)
    assert "cot_limit" in str(exc.value)


def test_parse_errors():
    with pytest.raises(UsageError):
        parse_request(["eval", "--series", "sin", "--s", "1"])  # missing --x
    with pytest.raises(UsageError):
        parse_request(["eval", "--series", "sin", "--s", "1", "--x", "1.5"])
    with pytest.raises(UsageError):
        parse_request(["verify", "--identity", "cot_limit",
                       "--grid", "0.1:0.9"])  # malformed range
    with pytest.raises(UsageError):
        parse_request(["verify", "--identity", "cot_limit"])  # no grid
    with pytest.raises(UsageError):
        parse_request(["eval", "--series", "sin", "--s", "1", "--x", "0.3",
                       "--prec", "10"])


def test_parser_built_once_shares_no_identity_list():
    # the parser is cached; argparse's append default must stay unshared
    assert _build_parser() is _build_parser()
    a = parse_request(["verify", "--identity", "cot_limit",
                       "--points", "0.3"])
    b = parse_request(["verify", "--identity", "entry17v",
                       "--points", "0.3"])
    assert a.identities == ["cot_limit"]
    assert b.identities == ["entry17v"]
    assert _build_parser().parse_args(["verify"]).identity == []


def test_usage_exit_code(capsys):
    assert main(["verify", "--identity", "nosuch", "--points", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "entry17v" in err


# ------------------------------ execution ---------------------------------

def test_eval_matches_verify_same_code_path(capsys):
    assert main(["eval", "--series", "sin", "--s", "0", "--x", "0.2",
                 "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["method"] == "closed_form"
    with workprec(CFG):
        direct = regularized_limit(SeriesSpec("sin", mpf("0.2"), 0), CFG)
        assert row["value"] == mp.nstr(direct.value, 50)

    assert main(["verify", "--identity", "cot_limit", "--points", "0.2",
                 "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)[0]
    assert rep["lhs"] == row["value"]


def test_verify_all_pass_exit_zero(capsys):
    code = main(["verify", "--identity", "cot_limit,half_point_value",
                 "--grid", "0.2:0.4:0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_verify_failing_exit_one(capsys):
    # zeta_dd_fourier off the symmetric point fails by design (documented
    # suspect constant)
    code = main(["verify", "--identity", "zeta_dd_fourier",
                 "--points", "0.25", "--format", "json"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)[0]
    assert rep["pass"] is False
    assert "SUSPECT CONSTANT" in rep["method_notes"]


def test_tol_override(capsys):
    code = main(["verify", "--identity", "cot_limit", "--points", "0.3",
                 "--tol", "1e-60"])
    assert code == 1  # impossible tolerance forces a failure
    capsys.readouterr()


def test_json_round_trip_pass_recomputable(capsys):
    assert main(["verify", "--identity", "log_cos_limit,alt_log_harmonic",
                 "--grid", "0.2:0.8:0.2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 5
    with workprec(CFG):
        for rep in data:
            recomputed = mpf(rep["abs_residual"]) <= mpf(rep["tolerance"])
            assert recomputed == rep["pass"]


def test_csv_output(capsys):
    assert main(["verify", "--identity", "cot_limit", "--points", "0.5",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("identity_name,")
    assert len(lines) == 2
    assert lines[1].startswith("cot_limit,")


def test_table_command(capsys):
    assert main(["table", "--series", "cos", "--s", "2",
                 "--grid", "0.2:0.4:0.1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + 3 rows


def test_json_determinism(capsys):
    args = ["verify", "--identity", "cot_limit", "--grid", "0.2:0.6:0.2",
            "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("args", [
    ["table", "--series", "sin", "--s", "2.5", "--grid", "0.1:0.3:0.1",
     "--format", "csv"],
    ["eval", "--series", "cos", "--alt", "--s", "0", "--x", "0.3"],
])
def test_main_twice_same_output(args, capsys):
    # a second run through the cached parser prints the same bytes
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_output_file_and_io_error(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["verify", "--identity", "half_point_value",
                 "--format", "json", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data[0]["identity_name"] == "half_point_value"
    bad = tmp_path / "missing_dir" / "report.json"
    assert main(["verify", "--identity", "half_point_value",
                 "--format", "json", "--out", str(bad)]) == 2
    capsys.readouterr()


def test_precision_env_and_flag(monkeypatch, capsys):
    monkeypatch.setenv("REGSUM_PRECISION", "60")
    req = parse_request(["eval", "--series", "sin", "--s", "1", "--x", "0.3"])
    assert req.precision_digits == 60
    req = parse_request(["eval", "--series", "sin", "--s", "1", "--x", "0.3",
                         "--prec", "35"])
    assert req.precision_digits == 35  # flag wins over environment
    monkeypatch.setenv("REGSUM_PRECISION", "oops")
    with pytest.raises(UsageError):
        parse_request(["eval", "--series", "sin", "--s", "1", "--x", "0.3"])


def test_eval_weight_log_routes_to_abel(capsys):
    assert main(["eval", "--series", "sin", "--s", "1", "--x", "0.3",
                 "--weight", "log", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["method"] == "abel"
    assert row["terms_used"] > 0


def test_eval_weight_log2_and_alternating_log_limit(capsys):
    assert main(["eval", "--series", "cos", "--s", "1", "--x", "0.3",
                 "--weight", "log2", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["weight"] == "log2"
    assert row["method"] == "abel"
    assert main(["eval", "--series", "sin", "--alt", "--weight", "log",
                 "--s", "0", "--x", "0.3", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["method"] == "closed_form"
    with workprec(CFG):
        spec = SeriesSpec("sin", mpf("0.3"), 0, alternating=True, weight="log")
        assert row["value"] == mp.nstr(regularized_limit(spec, CFG).value, 50)
