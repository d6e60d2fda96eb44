"""Property test: every CLI command, with edge-value options, exits cleanly.

Options are drawn for ``state``, ``impulse``, ``propagate``, ``bch-check``
and ``verify`` from values that have broken the CLI before: nan, +-inf,
+-1e308, 5e-324, 1e-300, negative numbers and complex literals.  Each run
must end with an exit code of the README table, and exit 0 must come with
an output whose every cell and footer value is finite.  Runs are
derandomised, so the examples are the same on every run.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from focklat import cli

README_EXIT_CODES = {0, 1, 2, 3, 4, 5, 6}
CHECKING_COMMANDS = {"bch-check", "verify"}
TEXT_COLUMNS = {"check", "status"}

EDGE_REALS = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324", "1e-300",
              "0", "-0.0", "1", "-1", "0.5", "-2.5", "19.9", "20", "800"]
edge_reals = st.sampled_from(EDGE_REALS)
reals = st.one_of(st.floats(-3.0, 3.0).map(repr), st.floats(0.0, 60.0).map(repr), edge_reals)
small_reals = st.one_of(st.floats(-0.4, 0.4).map(repr), st.floats(-0.4, 0.4).map(repr),
                        edge_reals)


@st.composite
def complex_literals(draw, parts=reals):
    re_part, im_part = draw(parts), draw(parts)
    kind = draw(st.sampled_from(["real", "imaginary", "both"]))
    if kind == "real":
        return re_part
    if kind == "imaginary":
        return f"{im_part}i"
    sign = "" if im_part.startswith("-") else "+"
    return f"{re_part}{sign}{im_part}i"


def dims(top):
    return st.one_of(st.integers(2, top), st.integers(2, 16), st.sampled_from([-1, 0, 1])).map(str)


def _argv(command, options):
    # --name=value; the separate spelling reads the same (tests/test_cli.py)
    argv = [command]
    for name, value in options.items():
        if value is True:
            argv.append(f"--{name}")
        elif value is not None and value is not False:
            argv.append(f"--{name}={value}")
    return argv


def _maybe(strategy):
    """``strategy``, or the option left out a quarter of the time."""
    return st.one_of(strategy, strategy, strategy, st.none())


small_ints = st.integers(-3, 40).map(str)

commands = st.one_of(
    st.fixed_dictionaries({
        "family": st.sampled_from(["phase", "bg", "london", "su11", "su11", "coherent"]),
        "phi": _maybe(reals),
        "alpha": _maybe(complex_literals()),
        "k": _maybe(reals),
        "dim": dims(256),
        "normalize": st.booleans(),
        "format": st.sampled_from(["csv", "json"]),
    }).map(lambda o: _argv("state", o)),
    st.fixed_dictionaries({
        "lattice": st.sampled_from(["su11", "uniform"]),
        "zmax": reals,
        "dim": dims(256),
        "samples": _maybe(small_ints),
        "format": st.sampled_from(["csv", "json"]),
    }).map(lambda o: _argv("impulse", o)),
    st.fixed_dictionaries({
        "lattice": st.sampled_from(["su11", "uniform"]),
        "input-waveguide": _maybe(st.one_of(st.integers(0, 3), st.integers(-2, 260)).map(str)),
        "zmax": reals,
        "dim": dims(256),
        "samples": _maybe(small_ints),
        "format": st.sampled_from(["csv", "json"]),
    }).map(lambda o: _argv("propagate", o)),
    st.fixed_dictionaries({
        "xplus": complex_literals(small_reals),
        "xzero": complex_literals(),
        "xminus": complex_literals(small_reals),
        "ordering": st.sampled_from(["antinormal", "normal"]),
        "dim": dims(256),
        "edge-exclude": _maybe(st.integers(-2, 300).map(str)),
        "tol": _maybe(st.sampled_from(["1e-9", "1e-12", "0", "1e-300", "inf", "nan", "-1"])),
        "format": st.sampled_from(["csv", "json"]),
    }).map(lambda o: _argv("bch-check", o)),
    st.fixed_dictionaries({
        "suite": st.sampled_from(["specfun", "algebra", "states", "lattice", "all"]),
        "dim": dims(64),
        "seed": _maybe(st.integers(-5, 2**40).map(str)),
        "format": st.sampled_from(["csv", "json"]),
    }).map(lambda o: _argv("verify", o)),
)


def _finite(value):
    if isinstance(value, int):
        return True
    try:
        return math.isfinite(float(value))
    except ValueError:
        c = cli.parse_complex(value)
        return math.isfinite(c.real) and math.isfinite(c.imag)


def _numeric_values(out):
    """Every numeric row cell and every footer value of a CSV or JSON output."""
    if out.startswith("{"):
        payload = json.loads(out)
        rows = payload["rows"]
        footer = list(payload["diagnostics"].values())
    else:
        lines = out.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]
                if not line.startswith("#")]
        footer = [line.split(" = ", 1)[1] for line in lines if line.startswith("# ")]
    cells = [value for row in rows for key, value in row.items() if key not in TEXT_COLUMNS]
    return rows, cells + footer


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=commands)
# the su11 prefactor 1 - tanh^2|alpha| cancelled to 0, so --normalize printed NaN
@example(argv=["state", "--family", "su11", "--alpha", "20", "--dim", "8", "--normalize"])
@example(argv=["state", "--family", "su11", "--alpha", "19.9", "--dim", "8", "--normalize"])
@example(argv=["state", "--family", "su11", "--alpha", "0+20i", "--dim", "8", "--normalize"])
# i^m (m+1) J_{m+1}(2z) / z overflowed at subnormal z
@example(argv=["impulse", "--lattice", "uniform", "--zmax", "5e-324", "--dim", "8",
               "--samples", "2"])
@example(argv=["propagate", "--lattice", "uniform", "--zmax", "5e-324", "--dim", "8"])
# one kept su11 guide leaves the odd guides with nothing to compare
@example(argv=["propagate", "--lattice=su11", "--input-waveguide=0", "--zmax=0.0", "--dim=2"])
@example(argv=["propagate", "--lattice=su11", "--input-waveguide=0", "--zmax=0.0", "--dim=3"])
# the generators allocated before checking the dimension: a raw ValueError
@example(argv=["verify", "--suite", "algebra", "--dim", "-1"])
@example(argv=["verify", "--suite", "all", "--dim", "-1"])
# numpy refused the seed with a raw ValueError, which exited 1
@example(argv=["verify", "--suite", "algebra", "--seed", "-1"])
def test_every_command_exits_with_a_readme_code_and_finite_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    out = out.getvalue()
    assert status in README_EXIT_CODES
    if status == 1:
        assert argv[0] in CHECKING_COMMANDS
    if status == 0:
        rows, values = _numeric_values(out)
        assert rows
        assert all(_finite(value) for value in values), out
