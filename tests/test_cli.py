import json
import math

import pytest

from focklat import cli
from focklat.errors import UsageError


def run_cli(argv, capsys):
    status = cli.main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_parse_state_command():
    config = cli.parse_args(
        ["state", "--family", "london", "--alpha", "2.0", "--dim", "64", "--format", "csv"])
    assert config.command == "state"
    assert config.params["family"] == "london"
    assert config.params["alpha"] == 2.0 + 0j
    assert config.params["dim"] == 64
    assert config.output_format == "csv"
    assert config.output_path is None


def test_parse_propagate_command():
    config = cli.parse_args(
        ["propagate", "--lattice", "uniform", "--input-waveguide", "0",
         "--zmax", "5", "--dim", "64"])
    assert config.command == "propagate"
    assert config.params["lattice"] == "uniform"
    assert config.params["zmax"] == 5.0
    assert config.params["samples"] == 200


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["state", "--family", "phase", "--phi", "0", "--dim", "4", "--bogus", "1"])
    assert err.value.code == 2


def test_missing_required_parameter():
    with pytest.raises(UsageError):
        cli.parse_args(["state", "--family", "phase", "--phi", "0"])
    with pytest.raises(UsageError):
        cli.parse_args(["impulse", "--lattice", "uniform", "--dim", "8"])


def test_london_rejects_complex_alpha():
    with pytest.raises(UsageError):
        cli.parse_args(["state", "--family", "london", "--alpha", "1+2i", "--dim", "8"])


@pytest.mark.parametrize("text,value", [
    ("2", 2 + 0j),
    ("-3.5", -3.5 + 0j),
    ("1+2i", 1 + 2j),
    ("1-2i", 1 - 2j),
    ("-1.5+0.3i", -1.5 + 0.3j),
    ("2i", 2j),
    ("-i", -1j),
    ("1e-3+2.5e-1i", 1e-3 + 0.25j),
])
def test_parse_complex_literals(text, value):
    assert cli.parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "abc", "1+2k", "i2", "1++2i"])
def test_parse_complex_rejects_garbage(text):
    with pytest.raises(UsageError):
        cli.parse_complex(text)


def test_format_complex_round_trips():
    for c in (1.5 + 0.25j, -2 - 3j, 0.5 + 0j, 2j):
        assert cli.parse_complex(cli.format_complex(c)) == c


def test_state_phase_csv_output(capsys):
    status, out, err = run_cli(["state", "--family", "phase", "--phi", "0", "--dim", "4"], capsys)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "index,re,im,abs2"
    body = [line for line in lines[1:] if not line.startswith("#")]
    assert len(body) == 4
    for row in body:
        fields = row.split(",")
        assert float(fields[1]) == pytest.approx(0.3989422804014327, rel=1e-15)
        assert float(fields[2]) == 0.0


def test_state_json_structure(capsys):
    status, out, _ = run_cli(
        ["state", "--family", "bg", "--alpha", "1+0.5i", "--dim", "8", "--format", "json"],
        capsys)
    assert status == 0
    payload = json.loads(out)
    assert set(payload) == {"meta", "rows", "diagnostics"}
    assert payload["meta"]["command"] == "state"
    assert payload["meta"]["params"]["alpha"] == "1.0+0.5i"
    assert len(payload["rows"]) == 8
    assert set(payload["rows"][0]) == {"index", "re", "im", "abs2"}


def test_impulse_su11_row(capsys):
    status, out, _ = run_cli(["impulse", "--lattice", "su11", "--zmax", "1", "--dim", "400"],
                             capsys)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "z,guide,re,im,abs2"
    first = lines[1].split(",")
    assert first[0] == "1.0" and first[1] == "0"
    assert float(first[4]) == pytest.approx(1.0 / math.cosh(1.0) ** 2, rel=1e-12)


def _cells(out):
    """Every CSV cell and footer value below the header line."""
    return [cell for line in out.splitlines()[1:]
            for cell in (line.split(" = ")[1:] if line.startswith("#") else line.split(","))]


def test_impulse_su11_far_past_cosh_overflow(capsys):
    status, out, _ = run_cli(["impulse", "--lattice", "su11", "--zmax", "800", "--dim", "8"],
                             capsys)
    assert status == 0
    rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 8
    assert all(math.isfinite(float(value)) for row in rows for value in row)
    # the closed form has underflowed; its zeros print as 0.0, as propagate's do
    assert "-0.0" not in _cells(out)


@pytest.mark.parametrize("argv", [
    ["state", "--family", "london", "--alpha", "1e-300", "--dim", "4"],
    ["impulse", "--lattice", "uniform", "--zmax", "1e-300", "--dim", "4", "--samples", "1"],
    ["propagate", "--lattice", "uniform", "--zmax", "1e-300", "--dim", "4"],
])
def test_tiny_bessel_arguments_give_finite_output(argv, capsys):
    # J_m(x) came out NaN for 0 < x below about 1e-60, and these exited 0
    status, out, _ = run_cli(argv, capsys)
    assert status == 0
    cells = _cells(out)
    assert cells and all(math.isfinite(float(cell)) for cell in cells)


@pytest.mark.parametrize("argv,code", [
    (["state", "--family", "phase", "--phi", "1e308", "--dim", "4"], 3),
    (["bch-check", "--xplus", "0.1", "--xzero", "1e308", "--xminus", "0.1", "--dim", "8"], 6),
    (["bch-check", "--xplus", "0.1", "--xzero", "1e308", "--xminus", "0.1", "--dim", "8",
      "--ordering", "normal"], 6),
])
def test_overflowing_parameters_fail_with_their_exit_code(argv, code, capsys):
    status, out, err = run_cli(argv, capsys)
    assert status == code and out == "" and "error:" in err


def test_propagate_diagnostics_footer(capsys):
    status, out, _ = run_cli(
        ["propagate", "--lattice", "uniform", "--zmax", "1", "--dim", "32",
         "--samples", "10"], capsys)
    assert status == 0
    footer = [line for line in out.splitlines() if line.startswith("#")]
    keys = [line.split("=")[0].strip("# ") for line in footer]
    assert keys == ["norm_drift", "edge_leakage", "oracle_max_error"]
    oracle_err = float(footer[2].split("=")[1])
    assert oracle_err <= 1e-8


def test_propagate_excited_input_has_no_oracle_line(capsys):
    status, out, _ = run_cli(
        ["propagate", "--lattice", "uniform", "--zmax", "0.5", "--dim", "32",
         "--input-waveguide", "3", "--samples", "5"], capsys)
    assert status == 0
    footer = [line for line in out.splitlines() if line.startswith("#")]
    assert all("oracle" not in line for line in footer)


def test_bch_check_passes(capsys):
    status, out, _ = run_cli(
        ["bch-check", "--xplus", "0.1+0.05i", "--xzero", "1", "--xminus", "0.1",
         "--dim", "64"], capsys)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "check,residual,tolerance,status"
    assert all(line.split(",")[3] == "pass" for line in lines[1:3])


def test_bch_check_failing_tolerance(capsys):
    status, out, _ = run_cli(
        ["bch-check", "--xplus", "0.1", "--xzero", "1", "--xminus", "0.1",
         "--dim", "64", "--tol", "1e-30"], capsys)
    assert status == 1
    assert "fail" in out


def test_verify_suite_exit_status(capsys):
    status, out, _ = run_cli(["verify", "--suite", "specfun", "--dim", "64"], capsys)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "check,residual,tolerance,status"
    assert all(line.split(",")[-1] == "pass" for line in lines[1:] if not line.startswith("#"))


def test_exit_codes_range_and_truncation(capsys):
    status, _, err = run_cli(["state", "--family", "bg", "--alpha", "30", "--dim", "8"], capsys)
    assert status == 3 and "error:" in err
    status, _, err = run_cli(
        ["propagate", "--lattice", "uniform", "--zmax", "3", "--dim", "8"], capsys)
    assert status == 5


def test_exit_code_table():
    from focklat import errors

    assert errors.UsageError("x").exit_code == 2
    assert errors.RangeError("x").exit_code == 3
    assert errors.DimensionError("x").exit_code == 3
    assert errors.BesselRootError("x").exit_code == 4
    assert errors.TruncationOverflowError("x").exit_code == 5
    assert errors.NumericError("x").exit_code == 6


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo config\nfamily = phase\nphi = 0\ndim = 8\nformat = json\n")
    status, out, _ = run_cli(["state", "--config", str(cfg)], capsys)
    assert status == 0
    assert json.loads(out)["meta"]["params"]["dim"] == 8
    # explicit flag wins over the file value
    status, out, _ = run_cli(["state", "--config", str(cfg), "--dim", "5"], capsys)
    assert json.loads(out)["meta"]["params"]["dim"] == 5


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = phase\nwibble = 3\n")
    with pytest.raises(UsageError):
        cli.parse_args(["state", "--config", str(cfg), "--phi", "0", "--dim", "4"])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "state.csv"
    status, out, _ = run_cli(
        ["state", "--family", "phase", "--phi", "0.5", "--dim", "4", "--output", str(target)],
        capsys)
    assert status == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("index,re,im,abs2\n")


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["state", "--family", "su11", "--alpha", "0.4+0.2i", "--dim", "16",
            "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first.encode() == second.encode()


def test_propagate_keeps_the_closed_form_zeros(capsys):
    # E_m(z) is i^m times a real number: even guides have no imaginary part
    # and odd guides no real part, and those cells must print exactly 0.0
    status, out, _ = run_cli(
        ["propagate", "--lattice", "uniform", "--input-waveguide", "0", "--zmax", "5",
         "--dim", "64"], capsys)
    assert status == 0
    rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 201 * 64
    for _z, guide, re_part, im_part, _abs2 in rows:
        assert (im_part if int(guide) % 2 == 0 else re_part) == "0.0"
    # round-off in those cells would grow this output by about 240 kB
    assert len(out.encode()) <= 790_246


@pytest.mark.parametrize("command,lattice", [("propagate", "uniform"), ("impulse", "su11")])
@pytest.mark.parametrize("zmax", ["nan", "inf"])
def test_non_finite_zmax_is_a_range_error(command, lattice, zmax, capsys):
    argv = [command, "--lattice", lattice, "--zmax", zmax, "--dim", "16"]
    if command == "propagate":
        argv += ["--input-waveguide", "1"]
    status, out, err = run_cli(argv, capsys)
    assert status == 3 and out == "" and "error:" in err


@pytest.mark.parametrize("argv", [
    ["state", "--family", "phase", "--phi", "nan", "--dim", "4"],
    ["state", "--family", "phase", "--phi", "inf", "--dim", "4"],
    ["state", "--family", "su11", "--alpha", "1", "--k", "1e308", "--dim", "4"],
    ["state", "--family", "su11", "--alpha", "1", "--k", "inf", "--dim", "4"],
    ["state", "--family", "su11", "--alpha", "nan", "--dim", "4"],
])
def test_non_finite_state_parameters_fail(argv, capsys):
    status, out, err = run_cli(argv, capsys)
    assert status in (3, 6) and out == "" and "error:" in err


def test_verify_with_no_retained_levels_is_a_dimension_error(capsys):
    status, _, err = run_cli(["verify", "--suite", "all", "--dim", "2"], capsys)
    assert status == 3 and "error:" in err


def test_output_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    status, out, err = run_cli(
        ["state", "--family", "phase", "--phi", "0", "--dim", "4", "--output", str(target)],
        capsys)
    assert status == 2 and out == "" and "error:" in err
    assert not target.exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bch_check_rejects_bad_tolerance(tol, capsys):
    status, out, err = run_cli(
        ["bch-check", "--xplus", "0.1", "--xzero", "1", "--xminus", "0.1", "--tol", tol], capsys)
    assert status == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("argv", [
    ["state", "--family", "london", "--alpha", "1", "--dim", "100000000000"],
    ["impulse", "--lattice", "su11", "--zmax", "1", "--dim", "4097"],
])
def test_dimension_ceiling_is_a_range_error(argv, capsys):
    # refused by the ceiling before numpy is asked for memory
    status, out, err = run_cli(argv, capsys)
    assert status == 3 and out == "" and "error:" in err


def test_memory_error_is_a_numeric_failure(monkeypatch, capsys):
    def exhausted(spec):
        raise MemoryError("simulated")

    monkeypatch.setattr(cli.states, "build_state", exhausted)
    status, out, err = run_cli(["state", "--family", "phase", "--phi", "0", "--dim", "4"], capsys)
    assert status == 6 and out == "" and "error:" in err
