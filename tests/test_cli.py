import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from focklat import checks, cli
from focklat.errors import DimensionError, RangeError, UsageError

from oracles import peak_bytes

ROOT = Path(__file__).resolve().parents[1]


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
    with pytest.raises(UsageError):
        cli.parse_args(["state", "--family", "phase", "--phi", "0", "--dim", "4", "--bogus", "1"])


@pytest.mark.parametrize("command", ["impulse", "propagate"])
def test_sign_is_not_an_option(command, tmp_path, capsys):
    # the lattices evolve as exp(+i z H) alone; --sign -1 was honoured by
    # propagate but not by impulse or the oracle comparison
    argv = [command, "--lattice", "su11", "--zmax", "1", "--dim", "64", "--samples", "4"]
    status, out, _ = run_cli(argv + ["--sign", "-1"], capsys)
    assert status == 2 and out == ""
    cfg = tmp_path / "sign.cfg"
    cfg.write_text("sign = 1\n")
    status, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert status == 2 and out == "" and "unknown config keys: sign" in err


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
    ["state", "--family", "bg", "--alpha", "2i", "--dim", "4"],
    ["state", "--family", "su11", "--alpha", "0-1i", "--dim", "4"],
])
def test_state_prints_no_signed_zero(argv, capsys):
    # these printed -0.0 in one and two cells, where impulse and propagate print 0.0
    status, out, _ = run_cli(argv, capsys)
    assert status == 0
    assert "-0.0" not in _cells(out)
    status, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    cells = [str(value) for row in payload["rows"] for value in row.values()]
    assert len(cells) == 16 and "-0.0" not in cells
    assert "-0.0" not in payload["diagnostics"].values()


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


@pytest.mark.parametrize("argv,code,message", [
    # the Bessel-backed families stop where the Bessel rows do, at |alpha| = 25
    (["state", "--family", "london", "--alpha", "25", "--dim", "128", "--normalize"], 0, ""),
    (["state", "--family", "bg", "--alpha", "25", "--dim", "128", "--normalize"], 0, ""),
    (["state", "--family", "london", "--alpha", "25.5", "--dim", "8"], 3,
     "error: |alpha| = 25.5 exceeds supported maximum 25.0\n"),
    (["state", "--family", "bg", "--alpha", "-25.5i", "--dim", "8"], 3,
     "error: |alpha| = 25.5 exceeds supported maximum 25.0\n"),
    # the displaced vacuum evaluates no Bessel function
    (["state", "--family", "su11", "--alpha", "30", "--dim", "64"], 0, ""),
    (["state", "--family", "su11", "--alpha", "nan", "--dim", "8"], 3,
     "error: alpha must be finite, got (nan+0j)\n"),
    # A0 - A+ A- is about 1e-300, not zero: B0 = den^2 / A0 is what underflows
    (["bch-check", "--xplus", "0.1", "--xzero", "1e-300", "--xminus", "0.1", "--dim", "64"], 6,
     "error: the ordering map over- or underflows double precision, "
     "giving ((0.1+0j), 0j, (0.1+0j))\n"),
    # sums that converge at once, with a guard one level past the 1024-level limit
    (["bch-check", "--xplus", "0.1", "--xzero", "1", "--xminus", "0.1", "--dim", "1024"], 3,
     "error: antinormal-first sums need 1025 levels to fall below 2^-53, above the limit of "
     "1024 levels (|B+ B- B0| = 0.01)\n"),
    (["bch-check", "--xplus", "0.1+0.05i", "--xzero", "1", "--xminus", "0.1", "--dim", "1008"], 3,
     "error: antinormal-first sums need 1025 levels to fall below 2^-53, above the limit of "
     "1024 levels (|B+ B- B0| = 0.0111803)\n"),
    # sums that never converge
    (["bch-check", "--xplus", "2", "--xzero", "1", "--xminus", "1", "--dim", "16"], 3,
     "error: antinormal-first sums do not fall below 2^-53 within 1024 levels "
     "(|B+ B- B0| = 2)\n"),
])
def test_ceilings_come_from_the_computation(argv, code, message, capsys):
    status, _, err = run_cli(argv, capsys)
    assert (status, err) == (code, message)


# the first random reordering draw of ``verify --suite algebra`` at the default seed
_ALGEBRA_DRAW_0 = ("reordering draw 0 (X+ = -0.0291273+0.0653197i, X0 = -0.153316+0.988177i, "
                   "X- = -0.0955902+0.0779631i): ")


@pytest.mark.parametrize("argv,need,q", [
    (["bch-check", "--xplus", "0.1", "--xzero", "1", "--xminus", "0", "--dim", "2000"],
     1500, "0"),
    (["verify", "--suite", "algebra", "--dim", "2048"], 2000, "0.0088221"),
])
def test_level_limit_past_dim_1024_is_refused_quickly(argv, need, q, capsys):
    # refused by the levels the sums need, not by dim, before any Pascal
    # table or product of that size; the suite names its refused draw
    run_cli(argv, capsys)  # imports and caches outside the timing
    start = time.perf_counter()
    status, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (status, out) == (3, "")
    draw = _ALGEBRA_DRAW_0 if argv[0] == "verify" else ""
    assert err == (f"error: {draw}antinormal-first sums need {need} levels to fall below 2^-53, "
                   f"above the limit of 1024 levels (|B+ B- B0| = {q})\n")


def test_verify_algebra_names_the_draw_it_cannot_run(capsys):
    # it exited 3 naming only |B+ B- B0|, a product of parameters the user never gave
    status, out, err = run_cli(["verify", "--suite", "algebra", "--dim", "2048"], capsys)
    assert (status, out) == (3, "")
    assert err.startswith("error: " + _ALGEBRA_DRAW_0 + "antinormal-first sums need ")
    # the draw's parameters, given to bch-check, meet the same refusal
    status, out, again = run_cli(
        ["bch-check", "--xplus", "-0.0291273+0.0653197i", "--xzero", "-0.153316+0.988177i",
         "--xminus", "-0.0955902+0.0779631i", "--dim", "2048"], capsys)
    assert (status, out) == (3, "")
    assert again.startswith("error: antinormal-first sums need ")


def test_bch_check_runs_past_dim_1024_where_its_sums_fit(capsys):
    # 825 compared levels need 912 levels of sums; every dim above 1024 exited 3
    argv = ["bch-check", "--xplus=-0.4863824743339461+0.5444277265945268i",
            "--xzero=0.12801892620019611+0.3740240147254796i",
            "--xminus=0.017419502358179066-0.02732463627625524i", "--dim", "1100"]
    status, out, _ = run_cli(argv, capsys)
    assert status == 0
    assert "bch-identity,1.1102230246251565e-16,1e-09,pass" in out.splitlines()


def test_bch_check_has_no_edge_exclusion(tmp_path, capsys):
    argv = ["bch-check", "--xplus", "0.1", "--xzero", "1", "--xminus", "0.1", "--dim", "64"]
    status, _, err = run_cli(argv + ["--edge-exclude", "16"], capsys)
    assert status == 2 and "unknown argument '--edge-exclude'" in err
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("edge_exclude = 16\n")
    with pytest.raises(UsageError, match="unknown config keys: edge_exclude"):
        cli.parse_args(argv + ["--config", str(cfg)])


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


@pytest.mark.parametrize("dim", [2, 3])
def test_propagate_oracle_with_one_kept_guide(dim, capsys):
    # the su11 edge band leaves guide 0 alone, so no odd guide is compared
    status, out, _ = run_cli(
        ["propagate", "--lattice=su11", "--input-waveguide=0", "--zmax=0.0", f"--dim={dim}"],
        capsys)
    assert status == 0
    footer = dict(line[2:].split(" = ") for line in out.splitlines() if line.startswith("# "))
    assert math.isfinite(float(footer["oracle_max_error"]))


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


@pytest.mark.parametrize("dim", range(3, 9))
def test_verify_algebra_passes_at_small_dimensions(dim, capsys):
    # the rotation check compares the whole space at any alpha <= 25
    status, out, _ = run_cli(["verify", "--suite", "algebra", "--dim", str(dim)], capsys)
    assert status == 0
    assert all(line.endswith(",pass") for line in out.splitlines()[1:] if not line.startswith("#"))


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


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    # the UnicodeDecodeError escaped with exit 1 and a traceback
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"family = phase\nphi = 0\xff\n")
    status, out, err = run_cli(["state", "--config", str(cfg), "--dim", "4"], capsys)
    assert status == 2 and out == ""
    assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1


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


def test_verify_algebra_at_dim_2_passes(capsys):
    # every algebra identity is compared with its exact truncated right-hand
    # side on every level, so two levels are enough
    status, out, _ = run_cli(["verify", "--suite", "algebra", "--dim", "2"], capsys)
    assert status == 0 and "# checks_failed = 0" in out


def test_verify_all_at_dim_2_is_an_edge_leakage_error(capsys):
    # light reaches the edge of the 2-guide uniform lattice
    status, _, err = run_cli(["verify", "--suite", "all", "--dim", "2"], capsys)
    assert status == 5 and err.startswith("error:") and err.count("\n") == 1
    assert "leak" in err


def test_negative_seed_is_a_usage_error(capsys):
    # exit 1 is kept for a check that ran and failed
    status, out, err = run_cli(["verify", "--suite", "algebra", "--seed", "-1"], capsys)
    assert status == 2 and out == "" and "seed" in err


def test_output_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    status, out, err = run_cli(
        ["state", "--family", "phase", "--phi", "0", "--dim", "4", "--output", str(target)],
        capsys)
    assert status == 2 and out == "" and "error:" in err
    assert not target.exists()


def test_failing_command_leaves_no_output_file(tmp_path, capsys):
    # the edge leakage is found before the output is opened
    target = tmp_path / "x.csv"
    status, out, err = run_cli(["propagate", "--lattice", "su11", "--zmax", "5", "--dim", "8",
                                "--output", str(target)], capsys)
    assert status == 5 and out == "" and "error:" in err
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_memory_is_the_arrays_plus_one_sample(fmt, tmp_path):
    # 102400 rows; holding them as text took 26.1 MB as csv and 171.8 MB as json
    argv = ["propagate", "--lattice", "uniform", "--zmax", "5", "--dim", "256",
            "--samples", "400", "--format", fmt, "--output", str(tmp_path / "out")]
    spec = cli.lattice.LatticeSpec(cli.lattice.LatticeKind.UNIFORM, 256)

    def library():
        result = cli.lattice.propagate(spec, cli.fock.basis_state(256, 0), 5.0, 400)
        cli.lattice.compare_to_oracle(result, spec)

    library()  # imports and caches outside the count
    cli.parse_args(argv)
    assert peak_bytes(lambda: cli.main(argv)) <= peak_bytes(library) + 0.5e6


@pytest.mark.parametrize("meta,header,blocks,diagnostics", [
    ({}, ["index", "re"], [], {}),
    ({"params": {}}, ["guide", "re"], [[], []], {"checks": []}),
    ({"command": "x", "params": {"a": None, "b": 1.5}}, ["z", "guide", "re"],
     [["0.5,0,1.0"], [], ["1.0,0,2.0", "1.0,1,-0.0"]], {"norm": "1.0", "n": 3}),
    ({"command": "verify"}, ["check", "residual", "tolerance", "status"],
     [["rotation-conjugation,8.9e-16,1e-09,pass", "bch-identity,0.25,1e-09,fail"]],
     {"checks_run": 2, "checks_failed": 1}),
])
def test_streamed_json_is_the_whole_document(meta, header, blocks, diagnostics):
    records = []
    for row in (row for block in blocks for row in block):
        cells = row.split(",")
        records.append({name: int(cell) if name in cli._INT_COLUMNS else cell
                        for name, cell in zip(header, cells)})
    whole = {"meta": meta, "rows": records, "diagnostics": diagnostics}
    out = io.StringIO()
    cli._write_json(out, meta, header, iter(blocks), diagnostics)
    assert out.getvalue() == json.dumps(whole, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--dim", "64", "--format", "json"],
    ["bch-check", "--xplus", "0.1+0.05i", "--xzero", "1", "--xminus", "0.1", "--dim", "64",
     "--format", "json"],
])
def test_check_rows_need_no_json_escaping(argv, capsys):
    # every real check name goes into the record template verbatim
    status, out, _ = run_cli(argv, capsys)
    assert status == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", ["impulse", "propagate"])
def test_nonpositive_samples_is_a_usage_error(command, samples, capsys):
    status, out, err = run_cli([command, "--lattice", "uniform", "--zmax", "1", "--dim", "8",
                                "--samples", samples], capsys)
    assert status == 2 and out == "" and "error:" in err


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
    def exhausted(phi, dim):
        raise MemoryError("simulated")

    monkeypatch.setattr(cli.states, "phase_state", exhausted)
    status, out, err = run_cli(["state", "--family", "phase", "--phi", "0", "--dim", "4"], capsys)
    assert status == 6 and out == "" and "error:" in err


# ---- rows against the per-cell reference formatter ----

def _reference_cells(lead, amplitudes):
    """The per-cell formatter: numpy complex scalars, float(), repr() and abs() per cell."""
    return [[*lead, guide, repr(float(c.real)), repr(float(c.imag)), repr(float(abs(c) ** 2))]
            for guide, c in enumerate(amplitudes)]


def _reference_output(fmt, out, header, cells):
    """``out`` with its rows replaced by ``cells`` emitted the per-cell way.

    The meta and diagnostics are taken from ``out`` itself, so only the rows
    are compared against an independent formatter.
    """
    if fmt == "json":
        payload = json.loads(out)
        payload["rows"] = [dict(zip(header, row)) for row in cells]
        return json.dumps(payload, indent=2) + "\n"
    footer = [line for line in out.splitlines() if line.startswith("#")]
    lines = [",".join(header), *(",".join(str(cell) for cell in row) for row in cells), *footer]
    return "\n".join(lines) + "\n"


def _reference_field_cells(zs, fields):
    return [row for z, field in zip(zs, fields)
            for row in _reference_cells([repr(float(z))], field)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,normalize", [
    (["--family", "phase", "--phi", "0", "--dim", "4"], False),
    (["--family", "phase", "--phi", "1e300", "--dim", "8"], False),
    (["--family", "bg", "--alpha", "15+3i", "--dim", "256"], False),
    (["--family", "london", "--alpha", "1e-300", "--dim", "6"], False),
    (["--family", "su11", "--alpha", "0.8", "--k", "0.5", "--dim", "32"], True),
    (["--family", "su11", "--alpha", "20", "--k", "3", "--dim", "300"], True),
])
def test_state_rows_match_the_per_cell_formatter(argv, normalize, fmt, capsys):
    argv = ["state", *argv, *(["--normalize"] if normalize else []), "--format", fmt]
    status, out, _ = run_cli(argv, capsys)
    assert status == 0
    p = cli.parse_args(argv).params
    build = {"phase": lambda: cli.states.phase_state(p["phi"], p["dim"]),
             "bg": lambda: cli.states.bg_state(p["alpha"], p["dim"]),
             "london": lambda: cli.states.london_state(p["alpha"], p["dim"]),
             "su11": lambda: cli.states.su11_perelomov_state(p["alpha"], p["k"], p["dim"])}
    vec = build[p["family"]]()
    if normalize:
        vec = vec / np.sqrt(cli.fock.norm_sq(vec))
    cells = _reference_cells([], vec)
    assert out == _reference_output(fmt, out, ["index", "re", "im", "abs2"], cells)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("lattice,zmax,dim,samples", [
    ("uniform", "1", 64, 4),
    ("uniform", "3", 48, 5),
    ("uniform", "1e-300", 8, 3),
    ("uniform", "5e-324", 8, 2),
    ("su11", "2", 64, 3),
    ("su11", "800", 8, 2),
    ("su11", "40", 256, 4),
])
def test_impulse_rows_match_the_per_cell_formatter(lattice, zmax, dim, samples, fmt, capsys):
    argv = ["impulse", "--lattice", lattice, "--zmax", zmax, "--dim", str(dim),
            "--samples", str(samples), "--format", fmt]
    status, out, _ = run_cli(argv, capsys)
    assert status == 0
    spec = cli.lattice.LatticeSpec(cli.lattice.LatticeKind(lattice), dim)
    zs = np.linspace(0.0, float(zmax), samples + 1)[1:]
    cells = _reference_field_cells(zs, cli.lattice.impulse_profiles(spec, zs))
    assert out == _reference_output(fmt, out, ["z", "guide", "re", "im", "abs2"], cells)


@pytest.mark.parametrize("zmax,samples", [
    ("0.7", 3), ("1", 4), ("5", 200), ("0.3", 7), ("2.9", 11), ("1e-300", 3), ("0", 2),
])
def test_impulse_samples_the_z_values_of_propagate(zmax, samples, capsys):
    # impulse computed zmax * s / samples, which ended 0.7 at 0.6999999999999998
    def z_column(command):
        status, out, _ = run_cli([command, "--lattice", "uniform", "--zmax", zmax, "--dim", "64",
                                  "--samples", str(samples)], capsys)
        assert status == 0
        lines = [line for line in out.splitlines()[1:] if not line.startswith("#")]
        return [line.split(",", 1)[0] for line in lines[::64]]

    assert z_column("impulse") == z_column("propagate")[1:]
    assert z_column("impulse")[-1] == repr(float(zmax))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("lattice,zmax,dim,samples,guide_in", [
    ("uniform", 5.0, 64, 200, 0),
    ("uniform", 2.0, 32, 7, 0),
    ("uniform", 0.5, 32, 5, 3),
    ("uniform", 1e-300, 4, 3, 0),
    ("su11", 1.0, 64, 5, 0),
])
def test_propagate_rows_match_the_per_cell_formatter(lattice, zmax, dim, samples, guide_in,
                                                     fmt, capsys):
    argv = ["propagate", "--lattice", lattice, "--zmax", repr(zmax), "--dim", str(dim),
            "--samples", str(samples), "--input-waveguide", str(guide_in), "--format", fmt]
    status, out, _ = run_cli(argv, capsys)
    assert status == 0
    spec = cli.lattice.LatticeSpec(cli.lattice.LatticeKind(lattice), dim)
    result = cli.lattice.propagate(spec, cli.fock.basis_state(dim, guide_in), zmax, samples)
    cells = _reference_field_cells(result.z_grid, result.fields)
    assert out == _reference_output(fmt, out, ["z", "guide", "re", "im", "abs2"], cells)


def test_amplitude_rows_match_the_per_cell_formatter_at_extreme_magnitudes():
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.uniform(-150, 150, (40, 3))
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e150, -1e150, 2.2250738585072014e-308]
    fields = (scale * rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))).ravel()
    fields = np.concatenate([fields, [complex(a, b) for a in values for b in values]])
    fields = fields.reshape(-1, 8)
    zs = np.geomspace(1e-300, 1e300, len(fields))
    blocks = list(cli._field_rows(zs, fields))
    assert [len(block) for block in blocks] == [fields.shape[1]] * len(fields)
    assert [row for block in blocks for row in block] == [",".join(str(cell) for cell in row)
                     for row in _reference_field_cells(zs, fields)]


# ---- calls in one process ----

def _fresh_process(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys; from focklat import cli; sys.exit(cli.main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = bg\nalpha = 1+0.5i\ndim = 6\nformat = json\nnormalize = true\n")
    calls = [
        ["state", "--config", str(cfg)],
        ["state", "--family", "phase", "--phi", "0.25", "--dim", "5"],
        ["state", "--family", "phase", "--dim", "5", "--bogus"],
    ]
    seen = [run_cli(argv, capsys) for argv in calls]
    assert [status for status, _, _ in seen] == [0, 0, 2]
    assert seen == [_fresh_process(argv) for argv in calls]


# ---- edge values that exited 0 with non-finite cells or a traceback ----

@pytest.mark.parametrize("alpha", ["20", "19.9", "0+20i"])
def test_su11_normalize_at_the_alpha_ceiling_is_finite(alpha, capsys):
    # 1 - tanh^2|alpha| cancelled to 0 there, and --normalize printed NaN
    status, out, _ = run_cli(["state", "--family", "su11", "--alpha", alpha, "--dim", "8",
                              "--normalize"], capsys)
    assert status == 0
    cells = _cells(out)
    assert cells and all(math.isfinite(float(cell)) for cell in cells)
    assert float(out.splitlines()[1].split(",")[1]) != 0.0


def test_normalize_of_a_zero_vector_is_a_numeric_error(monkeypatch, capsys):
    monkeypatch.setattr(cli.states, "bg_state", lambda alpha, dim: np.zeros(dim, complex))
    status, out, err = run_cli(["state", "--family", "bg", "--alpha", "1", "--dim", "4",
                                "--normalize"], capsys)
    assert status == 6 and out == "" and "error:" in err


@pytest.mark.parametrize("argv", [
    ["impulse", "--lattice", "uniform", "--zmax", "5e-324", "--dim", "8", "--samples", "2"],
    ["propagate", "--lattice", "uniform", "--zmax", "5e-324", "--dim", "8"],
])
def test_uniform_closed_form_at_subnormal_z_is_finite(argv, capsys):
    # i^m (m+1) J_{m+1}(2z) / z overflowed in the complex division
    status, out, _ = run_cli(argv, capsys)
    assert status == 0
    cells = _cells(out)
    assert cells and all(math.isfinite(float(cell)) for cell in cells)


@pytest.mark.parametrize("suite", ["specfun", "algebra", "states", "lattice", "all"])
def test_negative_dimension_is_a_dimension_error(suite, capsys):
    status, out, err = run_cli(["verify", "--suite", suite, "--dim", "-1"], capsys)
    assert status == 3 and out == "" and "error:" in err


@pytest.mark.parametrize("suite", ["specfun", "algebra", "states", "lattice", "all"])
@pytest.mark.parametrize("dim,error", [(-5, DimensionError), (1, DimensionError),
                                       (64.0, DimensionError), (4097, RangeError)])
def test_run_suite_checks_its_dimension(suite, dim, error):
    # the specfun suite ignores dim, and returned three passing results at dim -5
    with pytest.raises(error):
        checks.run_suite(suite, dim=dim)


def test_run_suite_names_the_suites_for_an_unknown_one():
    # the CLI's --suite choices never reach this branch
    with pytest.raises(RangeError, match=r"unknown suite 'nope'; choose from "
                                         r"\['algebra', 'lattice', 'specfun', 'states'\] or 'all'"):
        checks.run_suite("nope")


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_run_suite_checks_its_seed(seed):
    # numpy's default_rng raised its own ValueError or TypeError in the algebra
    # suite, and seed=True ran it with seed 1
    with pytest.raises(RangeError, match=rf"^seed must be a non-negative integer, got {seed!r}$"):
        checks.run_suite("algebra", 8, seed=seed)


@pytest.mark.parametrize("dim", [2, 3, 64, 4096])
def test_displaced_vacuum_check_runs_at_dim(dim):
    # it ran at 128 levels whatever dim said and read 6.96e-14; the truncated
    # norm is 1 - tanh^{2 dim}|alpha| at k = 1/2, not 1
    cells = {r.name: r.residual for r in checks.suite_states(dim)}
    assert cells["displaced-vacuum-normalisation"] <= 1e-15


def test_lattice_suite_holds_one_propagation():
    # 0.965 MB when the uniform propagation stayed alive through the SU(1,1)
    # one and each block's temporaries through its checks; 0.739 MB while a
    # block's |E|^2 outlived it and the closed forms held scratch of their size.
    # The 200-guide eigensolver alone takes 0.668 MB
    checks.suite_lattice(64)  # imports and caches outside the count
    assert peak_bytes(lambda: checks.suite_lattice(64)) <= 0.7e6


_SWEEP_DIMS = (2, 3, 8, 64, 65, 256, 1024)


# algebra stops at 256: a dim-700 run takes 10 s, and past 700 its random
# reordering draws miss their tolerance
@pytest.mark.parametrize("suite,dim", [(s, d) for s in ("specfun", "states", "lattice")
                                       for d in _SWEEP_DIMS]
                         + [("states", 4096)]
                         + [("algebra", d) for d in _SWEEP_DIMS if d <= 256])
def test_every_suite_over_dimensions(suite, dim, capsys):
    # each run exits 0 or with its documented code, and warns about nothing:
    # light reaches the edge of a uniform array of fewer than 12 guides (5)
    expected = {("lattice", 2): 5, ("lattice", 3): 5, ("lattice", 8): 5}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, err = run_cli(["verify", "--suite", suite, "--dim", str(dim)], capsys)
    assert status == expected.get((suite, dim), 0), err
    if status == 0:
        assert "# checks_failed = 0" in out
    else:
        assert err.startswith("error:") and err.count("\n") == 1


# ---- option values that start with '-' ----

@pytest.mark.parametrize("command,option,status", [
    ("state --family bg {} --dim 4", "--alpha -0.5+1i", 0),
    ("bch-check {} --xzero 1 --xminus 0.1 --dim 8", "--xplus -1e-3", 0),
    ("state --family london {} --dim 4", "--alpha -inf", 3),
])
def test_negative_option_value_reads_as_its_equals_spelling(command, option, status, capsys):
    # argparse took "-0.5+1i", "-1e-3" and "-inf" for flags and exited 2
    got = run_cli(command.format(option).split(), capsys)
    assert got[0] == status
    assert got == run_cli(command.format(option.replace(" ", "=")).split(), capsys)


def test_option_followed_by_a_flag_still_misses_its_value(capsys):
    status, out, _ = run_cli(["state", "--family", "bg", "--alpha", "--dim", "4"], capsys)
    assert status == 2 and out == ""


# ---- the option tables are the grammar ----

@pytest.mark.parametrize("argv", [
    # argparse expanded --alph to --alpha, but only when the value did not start with '-'
    ["state", "--family", "bg", "--alph", "0.5", "--dim", "3"],
    ["state", "--family", "bg", "--alph", "-0.5+1i", "--dim", "3"],
    ["state", "--family", "phase", "--phi", "0", "--dim", "4", "extra"],
    ["state", "--family", "phase", "--phi", "0", "--normalize", "yes", "--dim", "4"],
    ["state", "--family", "phase", "--phi", "0", "--dim", "4", "--normalize=maybe"],
    ["state", "--family", "phase", "--phi", "0", "--dim"],
    ["states", "--family", "phase", "--phi", "0", "--dim", "4"],
    [],
])
def test_usage_failure_prints_one_error_line(argv, capsys):
    status, out, err = run_cli(argv, capsys)
    assert status == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    with pytest.raises(UsageError):
        cli.parse_args(argv)


def test_boolean_flag_reads_its_value_as_the_config_file_does(tmp_path, capsys):
    argv = ["state", "--family", "phase", "--phi", "0.3", "--dim", "8"]
    plain, bare = run_cli(argv, capsys), run_cli(argv + ["--normalize"], capsys)
    assert plain[0] == bare[0] == 0 and plain != bare
    assert run_cli(argv + ["--normalize=yes"], capsys) == bare
    cfg = tmp_path / "run.cfg"
    cfg.write_text("normalize = true\n")
    assert run_cli(argv + ["--config", str(cfg)], capsys) == bare
    assert run_cli(argv + ["--config", str(cfg), "--normalize=false"], capsys) == plain


def test_last_of_a_repeated_flag_wins():
    params = cli.parse_args(["verify", "--suite", "all", "--dim", "4", "--dim=9", "--seed", "3",
                             "--suite=lattice"]).params
    assert (params["suite"], params["dim"], params["seed"]) == ("lattice", 9, 3)


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", ["state", "impulse", "propagate", "bch-check", "verify"])
def test_help_lists_every_flag_of_the_command(command, flag, capsys):
    status, out, err = run_cli([command, "--dim", "-1", flag], capsys)
    assert status == 0 and err == "" and out.startswith(f"usage: focklat {command} ")
    listed = [line.split()[0].split("[")[0] for line in out.splitlines()
              if line.startswith("  --")]
    table = [*cli._OPTION_TABLES[command], *cli._COMMON_OPTIONS, "config"]
    assert listed == ["--" + name.replace("_", "-") for name in table]


def test_program_help_names_every_command(capsys):
    status, out, err = run_cli(["--help"], capsys)
    assert status == 0 and err == ""
    assert all(command in out for command in cli._OPTION_TABLES)


def test_verify_help_says_what_dim_means_for_every_suite(capsys):
    status, out, err = run_cli(["verify", "--help"], capsys)
    assert status == 0 and err == ""
    about = out.split("--dim VALUE", 1)[1].split("  --seed", 1)[0]
    assert all(suite in about for suite in checks.SUITES)
    assert "200 guides" in about and "levels" not in about


@pytest.mark.parametrize("dim", ["0", "1"])
@pytest.mark.parametrize("argv", [
    ["state", "--family", "phase", "--phi", "0"],
    ["impulse", "--lattice", "uniform", "--zmax", "1"],
    ["propagate", "--lattice", "su11", "--zmax", "1"],
    ["bch-check", "--xplus", "0.1", "--xzero", "1", "--xminus", "0.1"],
    ["verify", "--suite", "specfun"],
])
def test_dimension_below_two_is_one_dimension_error(argv, dim, capsys):
    # verify --suite specfun ran its checks at any --dim and exited 0
    status, out, err = run_cli(argv + ["--dim", dim], capsys)
    assert status == 3 and out == ""
    assert err == f"error: truncated space needs dimension >= 2, got {dim}\n"


# ---- overflow is checked before it is computed ----

@pytest.mark.parametrize("argv,status", [
    (["propagate", "--lattice", "su11", "--zmax", "1e308", "--dim", "8"], 6),
    (["propagate", "--lattice", "uniform", "--zmax", "1e308", "--dim", "8"], 6),
    (["impulse", "--lattice", "uniform", "--zmax", "1e308", "--dim", "8"], 3),
])
def test_overflowing_z_exits_without_a_warning(argv, status, capsys):
    # z * lambda and 2z overflowed first, and numpy warned on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(argv, capsys)
    assert got == status and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_overflowing_ordered_product_exits_without_a_warning(capsys):
    # algebra._split overflowed first, and numpy warned twice on stderr
    argv = ["bch-check", "--xplus", "0.1+0.05i", "--xzero", "1", "--xminus", "0.1",
            "--dim", "1000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, err = run_cli(argv, capsys)
    assert status == 6 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
