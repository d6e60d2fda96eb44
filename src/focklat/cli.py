"""Command-line front end.

Subcommands: ``state``, ``impulse``, ``propagate``, ``bch-check`` and
``verify``.  Results are emitted as CSV (default) or a single JSON object
{"meta": ..., "rows": ..., "diagnostics": ...}; floating-point values use
the shortest round-trip decimal form so identical configurations emit
byte-identical output.  Each row is formed once, as its CSV line, from
Python floats (an array's ``.tolist()``); a JSON record fills a template
built once from the header with that line's cells, the ``index`` and
``guide`` cells as integers.  The argparse tree is built once per process.

A command computes all its arrays, diagnostics and exit status before its
output is opened, so a failing command writes nothing.  The rows are then
streamed one block at a time (one z sample of ``impulse`` and
``propagate``), and nothing holds the whole text: a command's memory is its
arrays plus one sample's rows.

Options may also come from a flat ``key = value`` config file passed with
``--config``; explicit flags win over file values.  An option's value may
start with '-' (``--alpha -0.5+1i``) unless it is one of the command's own
flags.  Exit codes: 0 success
(all residuals within tolerance for the checking commands), 2 usage,
3 range or precondition violation, 4 Bessel-root singularity,
5 truncation overflow, 6 numeric failure (an exhausted memory included).

``--dim`` is at most ``fock.MAX_DIM`` (4096) levels or guides for every
command, checked before anything of that size is allocated; ``bch-check``
keeps its own limit of 1024.  A larger value exits 3.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algebra, checks, fock, lattice, states
from .errors import FocklatError, NumericError, RangeError, UsageError

_COMMANDS = ("state", "impulse", "propagate", "bch-check", "verify")

# name -> (converter, default, required); converters run on config values too
_COMMON_OPTIONS = {
    "format": (str, "csv", False),
    "output": (str, None, False),
}

# state family -> builder of its amplitudes from the parsed options
_STATE_BUILDERS = {
    "phase": lambda p: states.phase_state(p["phi"], p["dim"]),
    "bg": lambda p: states.bg_state(p["alpha"], p["dim"]),
    "london": lambda p: states.london_state(p["alpha"], p["dim"]),
    "su11": lambda p: states.su11_perelomov_state(p["alpha"], p["k"], p["dim"]),
}

_LATTICE_KINDS = {
    "su11": lattice.LatticeKind.SU11,
    "uniform": lattice.LatticeKind.UNIFORM,
}


def parse_complex(text):
    """Parse ``a+bi`` / ``a-bi`` literals (plain reals allowed)."""
    s = str(text).strip().replace(" ", "")
    if not s:
        raise UsageError("empty complex literal")
    if not s.endswith("i"):
        try:
            return complex(float(s), 0.0)
        except ValueError:
            raise UsageError(f"cannot parse {text!r} as a number (use a+bi for complex)")
    body = s[:-1]
    split = -1
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            split = pos
            break
    re_part, im_part = (body[:split], body[split:]) if split > 0 else ("0", body or "+")
    if im_part in ("+", ""):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    try:
        return complex(float(re_part or "0"), float(im_part))
    except ValueError:
        raise UsageError(f"cannot parse {text!r} as a+bi")


def format_complex(value):
    c = complex(value)
    if c.imag == 0.0:
        return repr(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def _parse_bool(text):
    if isinstance(text, bool):
        return text
    word = str(text).strip().lower()
    if word in ("true", "1", "yes", "on"):
        return True
    if word in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"cannot parse {text!r} as a boolean")


_OPTION_TABLES = {
    "state": {
        "family": (str, None, True),
        "phi": (float, None, False),
        "alpha": (parse_complex, None, False),
        "k": (float, 0.5, False),
        "dim": (int, None, True),
        "normalize": (_parse_bool, False, False),
    },
    "impulse": {
        "lattice": (str, None, True),
        "zmax": (float, None, True),
        "dim": (int, None, True),
        "samples": (int, 1, False),
    },
    "propagate": {
        "lattice": (str, None, True),
        "input_waveguide": (int, 0, False),
        "zmax": (float, None, True),
        "dim": (int, None, True),
        "samples": (int, 200, False),
    },
    "bch-check": {
        "xplus": (parse_complex, None, True),
        "xzero": (parse_complex, None, True),
        "xminus": (parse_complex, None, True),
        "ordering": (str, "antinormal", False),
        "dim": (int, 64, False),
        "edge_exclude": (int, None, False),
        "tol": (float, 1e-9, False),
    },
    "verify": {
        "suite": (str, None, True),
        "dim": (int, 64, False),
        "seed": (int, 12345, False),
    },
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    output_format: str
    output_path: str


def _load_config_file(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="focklat",
        description="Truncated Fock-space states, operator identities and waveguide lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", default=None)
        for table in (_OPTION_TABLES[command], _COMMON_OPTIONS):
            for name, (conv, _default, _required) in table.items():
                flag = "--" + name.replace("_", "-")
                if conv is _parse_bool:
                    p.add_argument(flag, action="store_true", default=None, dest=name)
                else:
                    p.add_argument(flag, type=str, default=None, dest=name)
    return parser


def _join_values(argv):
    """``argv`` with each ``--name value`` of a value option written ``--name=value``.

    argparse reads a token that starts with '-' as a flag unless it looks
    like a plain negative decimal, so ``--alpha -0.5+1i`` or ``--xplus
    -1e-3`` would be refused.  Here a value option of the subcommand takes
    the next token unless that token is one of the subcommand's own flags.
    """
    if not argv or argv[0] not in _COMMANDS:
        return argv
    table = {**_OPTION_TABLES[argv[0]], **_COMMON_OPTIONS, "config": (str, None, False)}
    flags = {"-h", "--help", *("--" + name.replace("_", "-") for name in table)}
    takes_value = {"--" + name.replace("_", "-") for name, (conv, _, _) in table.items()
                   if conv is not _parse_bool}
    out, i = [argv[0]], 1
    while i < len(argv):
        if (argv[i] in takes_value and i + 1 < len(argv)
                and argv[i + 1].split("=", 1)[0] not in flags):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def parse_args(argv):
    """Turn an argument vector into a validated :class:`RunConfig`."""
    ns = _build_parser().parse_args(_join_values(argv))
    command = ns.command
    file_values = _load_config_file(ns.config) if ns.config else {}

    tables = {**_OPTION_TABLES[command], **_COMMON_OPTIONS}
    unknown = set(file_values) - set(tables)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")

    params = {}
    for name, (conv, default, required) in tables.items():
        raw = getattr(ns, name)
        if raw is None and name in file_values:
            raw = file_values[name]
        if raw is None:
            if required:
                raise UsageError(f"missing required parameter --{name.replace('_', '-')}")
            params[name] = default
            continue
        try:
            params[name] = conv(raw)
        except (ValueError, TypeError):
            raise UsageError(f"bad value {raw!r} for --{name.replace('_', '-')}")

    fmt = params.pop("format")
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    output = params.pop("output")
    _validate(command, params)
    return RunConfig(command=command, params=params, output_format=fmt, output_path=output)


def _validate(command, params):
    if params["dim"] > fock.MAX_DIM:
        raise RangeError(f"--dim {params['dim']} exceeds {fock.MAX_DIM}")
    if command == "state":
        family = params["family"]
        if family not in _STATE_BUILDERS:
            raise UsageError(f"family must be one of {sorted(_STATE_BUILDERS)}, got {family!r}")
        if family == "phase":
            if params["phi"] is None:
                raise UsageError("phase states need --phi")
        else:
            if params["alpha"] is None:
                raise UsageError(f"family {family!r} needs --alpha")
        if family == "london" and params["alpha"] is not None and params["alpha"].imag != 0.0:
            raise UsageError("the london family takes a real --alpha")
    elif command in ("impulse", "propagate"):
        if params["lattice"] not in _LATTICE_KINDS:
            raise UsageError(f"lattice must be one of {sorted(_LATTICE_KINDS)}")
        if params["samples"] < 1:
            raise UsageError("samples must be positive")
    elif command == "bch-check":
        if params["ordering"] not in ("antinormal", "normal"):
            raise UsageError("ordering must be 'antinormal' or 'normal'")
        if not (math.isfinite(params["tol"]) and params["tol"] >= 0):
            raise UsageError(f"tol must be finite and non-negative, got {params['tol']}")
    elif command == "verify":
        if params["suite"] not in (*checks.SUITES, "all"):
            raise UsageError(f"suite must be one of {sorted(checks.SUITES)} or 'all'")
        if params["seed"] < 0:
            raise UsageError(f"seed must be non-negative, got {params['seed']}")


def _f(x):
    return repr(float(x))


def _amplitude_rows(lead, labels, amplitudes):
    """CSV rows ``lead + label,re,im,abs2``, one per amplitude.

    ``amplitudes`` are Python complex numbers (an array's ``.tolist()``), so
    each cell is one float ``repr``.  abs2 is ``abs(c) ** 2``: libm's hypot,
    squared, as numpy's complex scalars give it to the bit; ``np.abs`` of
    the array does not.
    """
    return [f"{lead}{label},{c.real!r},{c.imag!r},{abs(c) ** 2!r}"
            for label, c in zip(labels, amplitudes)]


def _field_rows(zs, fields):
    """One block of ``z,guide,re,im,abs2`` rows per sample of ``fields``, a row per guide."""
    guides = [str(g) for g in range(fields.shape[1])]
    for z, field in zip(np.asarray(zs, dtype=float).tolist(), fields):
        yield _amplitude_rows(f"{z!r},", guides, field.tolist())


def _write_csv(out, header, blocks, diagnostics):
    out.write(",".join(header) + "\n")
    for block in blocks:
        out.write("".join(f"{row}\n" for row in block))
    out.write("".join(f"# {key} = {value}\n" for key, value in diagnostics.items()))


# columns whose JSON cells are integers; every other cell is a string
_INT_COLUMNS = ("index", "guide")


def _write_json(out, meta, header, blocks, diagnostics):
    """The bytes of ``json.dumps({"meta", "rows", "diagnostics"}, indent=2) + "\n"``,
    written one block of records at a time.

    The text around the rows is that of an empty ``rows`` list, split at
    ``"rows": []``, which is the top-level key: no key of ``meta`` or
    ``diagnostics`` is ``rows``, and a string value escapes its quotes.
    Each record fills one ``%`` template, built from the header, with its
    CSV row's cells verbatim; no cell needs JSON escaping, as each is a
    float ``repr``, an integer, a fixed check name or ``pass``/``fail``.
    """
    head, _, tail = json.dumps({"meta": meta, "rows": [], "diagnostics": diagnostics},
                               indent=2).partition('"rows": []')
    cells = [f'\n      "{name}": ' + ("%s" if name in _INT_COLUMNS else '"%s"') for name in header]
    record = "\n    {" + ",".join(cells) + "\n    }"
    out.write(head + '"rows": [')
    sep = ""  # "," once a record is written
    for block in blocks:
        if block:
            out.write(sep + ",".join([record % tuple(row.split(",")) for row in block]))
            sep = ","
    out.write(("\n  ]" if sep else "]") + tail + "\n")


def _write(out, config, header, blocks, diagnostics):
    if config.output_format == "csv":
        _write_csv(out, header, blocks, diagnostics)
    else:
        _write_json(out, _meta(config), header, blocks, diagnostics)


def _meta(config):
    shown = {}
    for key, value in config.params.items():
        if isinstance(value, complex):
            shown[key] = format_complex(value)
        else:
            shown[key] = value
    return {"command": config.command, "params": shown, "format": config.output_format}


def _run_state(params):
    vec = _STATE_BUILDERS[params["family"]](params)
    if params["normalize"]:
        norm2 = fock.norm_sq(vec)
        if not (math.isfinite(norm2) and norm2 > 0.0):
            raise NumericError(f"cannot normalise a state of squared norm {norm2}")
        vec = vec / np.sqrt(norm2)
    header = ["index", "re", "im", "abs2"]
    rows = _amplitude_rows("", [str(j) for j in range(len(vec))], vec.tolist())
    diagnostics = {"norm2": _f(fock.norm_sq(vec))}
    return header, [rows], diagnostics, 0


def _run_impulse(params):
    spec = lattice.LatticeSpec(kind=_LATTICE_KINDS[params["lattice"]], dim=params["dim"])
    header = ["z", "guide", "re", "im", "abs2"]
    zs = lattice.sample_grid(params["zmax"], params["samples"])[1:]
    profiles = lattice.impulse_profiles(spec, zs)
    diagnostics = {"normalization_last_z": _f(np.sum(np.abs(profiles[-1]) ** 2))}
    return header, _field_rows(zs, profiles), diagnostics, 0


def _run_propagate(params):
    spec = lattice.LatticeSpec(kind=_LATTICE_KINDS[params["lattice"]], dim=params["dim"])
    guide_in = params["input_waveguide"]
    if not 0 <= guide_in < spec.dim:
        raise UsageError(f"input waveguide {guide_in} outside [0, {spec.dim})")
    result = lattice.propagate(
        spec,
        fock.basis_state(spec.dim, guide_in),
        zmax=params["zmax"],
        samples=params["samples"],
    )
    header = ["z", "guide", "re", "im", "abs2"]
    diagnostics = {
        "norm_drift": _f(result.norm_drift),
        "edge_leakage": _f(result.edge_leakage),
    }
    if guide_in == 0:
        diagnostics["oracle_max_error"] = _f(lattice.compare_to_oracle(result, spec))
    return header, _field_rows(result.z_grid, result.fields), diagnostics, 0


def _check_rows(results):
    return [f"{r.name},{_f(r.residual)},{_f(r.tolerance)},{'pass' if r.passed else 'fail'}"
            for r in results]


def _run_bch_check(params):
    ordering = (algebra.Ordering.ANTINORMAL_FIRST if params["ordering"] == "antinormal"
                else algebra.Ordering.NORMAL_FIRST)
    given = algebra.BCHParams(plus=params["xplus"], zero=params["xzero"],
                              minus=params["xminus"], ordering=ordering)
    if ordering is algebra.Ordering.ANTINORMAL_FIRST:
        converted = algebra.bch_antinormal_to_normal(given)
        back = algebra.bch_normal_to_antinormal(converted)
    else:
        converted = algebra.bch_normal_to_antinormal(given)
        back = algebra.bch_antinormal_to_normal(converted)
    round_trip = max(abs(back.plus - given.plus), abs(back.zero - given.zero),
                     abs(back.minus - given.minus))
    identity = algebra.verify_bch(given, params["dim"], edge_exclude=params["edge_exclude"])
    results = [
        checks.CheckResult("bch-identity", identity, params["tol"]),
        checks.CheckResult("bch-round-trip", round_trip, 1e-13),
    ]
    header = ["check", "residual", "tolerance", "status"]
    diagnostics = {
        "converted_plus": format_complex(converted.plus),
        "converted_zero": format_complex(converted.zero),
        "converted_minus": format_complex(converted.minus),
    }
    status = 0 if all(r.passed for r in results) else 1
    return header, [_check_rows(results)], diagnostics, status


def _run_verify(params):
    results = checks.run_suite(params["suite"], dim=params["dim"], seed=params["seed"])
    header = ["check", "residual", "tolerance", "status"]
    failed = [r.name for r in results if not r.passed]
    diagnostics = {"checks_run": len(results), "checks_failed": len(failed)}
    return header, [_check_rows(results)], diagnostics, 0 if not failed else 1


_RUNNERS = {
    "state": _run_state,
    "impulse": _run_impulse,
    "propagate": _run_propagate,
    "bch-check": _run_bch_check,
    "verify": _run_verify,
}


def run(config):
    """Execute a parsed configuration; returns the process exit status.

    The runner computes every array, diagnostic and the status first; the
    output is opened only then, so a failing command writes nothing.
    """
    header, blocks, diagnostics, status = _RUNNERS[config.command](config.params)
    if config.output_path:
        try:
            with open(config.output_path, "w") as out:
                _write(out, config, header, blocks, diagnostics)
        except OSError as exc:
            raise UsageError(f"cannot write output file {config.output_path}: {exc}")
    else:
        _write(sys.stdout, config, header, blocks, diagnostics)
    return status


def main(argv=None):
    """CLI entry; returns the exit status instead of raising."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
    except SystemExit as exc:  # argparse usage failure
        return 2 if exc.code not in (0, None) else 0
    except FocklatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        return run(config)
    except FocklatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return NumericError.exit_code


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
