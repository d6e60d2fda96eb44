"""The benchmark's workloads: fixed lists of operations built from a seed.

An op's ``run`` is the call into the library that a pass times.  Its
``check`` runs outside the timed interval and returns ``(label, residual,
tolerance)`` rows measured against a reference and the acceptance-criterion
tolerance; it raises :class:`CheckError` when the output is unusable.

Ops reach the library through module attributes (``lattice.propagate``, not
an imported name), so the tracer's wrappers see every call.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from focklat import algebra, cli, fock, lattice, states
from focklat.algebra import BCHParams, Ordering
from focklat.lattice import LatticeKind, LatticeSpec

# The criterion-3 sequence of tests/test_acceptance.py.  These draws do not
# follow the workload seed: over seeds 0-9 the worst of 50 fresh draws ranged
# from 1e-5 to 0.89 and the misses from 9 to 19, which would swamp any bound
# on ladder's accuracy metrics.
CRITERION_3_SEED = 20240811
CRITERION_3_DRAWS = 50

# The documented commands (tests/test_acceptance.py::EXAMPLE_COMMANDS, frozen
# here so that editing the tests cannot change the workload) plus
# ``verify --suite all``.  Each carries the diagnostics its output must show:
# key -> (expected value, tolerance).  A phase state's squared norm is
# dim / (2 pi); the other families are normalised.
CLI_COMMANDS = [
    (["state", "--family", "phase", "--phi", "0", "--dim", "4"],
     {"norm2": (4 / (2 * math.pi), 1e-10)}),
    (["state", "--family", "london", "--alpha", "2.0", "--dim", "64", "--format", "csv"],
     {"norm2": (1.0, 1e-10)}),
    (["state", "--family", "bg", "--alpha", "1+0.5i", "--dim", "32", "--format", "json"],
     {"norm2": (1.0, 1e-10)}),
    (["state", "--family", "su11", "--alpha", "0.8", "--k", "0.5", "--dim", "32",
      "--normalize"],
     {"norm2": (1.0, 1e-10)}),
    (["impulse", "--lattice", "su11", "--zmax", "1", "--dim", "400"],
     {"normalization_last_z": (1.0, 1e-10)}),
    (["impulse", "--lattice", "uniform", "--zmax", "1", "--dim", "64", "--samples", "4",
      "--format", "json"],
     {"normalization_last_z": (1.0, 1e-10)}),
    (["propagate", "--lattice", "uniform", "--input-waveguide", "0", "--zmax", "5",
      "--dim", "64"],
     {"oracle_max_error": (0.0, 1e-8), "norm_drift": (0.0, 1e-10),
      "edge_leakage": (0.0, 1e-8)}),
    (["bch-check", "--xplus", "0.1+0.05i", "--xzero", "1", "--xminus", "0.1", "--dim", "64"],
     {}),
    (["verify", "--suite", "algebra", "--dim", "64"], {}),
    (["verify", "--suite", "lattice", "--dim", "64"], {}),
    (["verify", "--suite", "all", "--dim", "64"], {}),
]


def _rng(seed):
    return np.random.default_rng(seed % 2**64)  # any integer seed, negative ones too


class CheckError(Exception):
    """An op's output is malformed, non-finite or changed between passes."""


@dataclass
class Op:
    name: str
    args: tuple
    run: Callable[[], object]
    check: Callable[[object], list]


def _propagate_op(kind, dim, zmax, samples=200):
    spec = LatticeSpec(kind, dim)
    field0 = fock.vacuum(dim)

    def run():
        result = lattice.propagate(spec, field0, zmax, samples=samples)
        return result, lattice.compare_to_oracle(result, spec)

    def check(out):
        result, reported = out
        if result.fields.shape != (samples + 1, dim):
            raise CheckError(f"fields have shape {result.fields.shape}")
        keep = dim - lattice.build_hamiltonian(spec).edge_band
        own = max(float(np.abs(field[:keep] - lattice.impulse_profile(spec, float(z))[:keep]).max())
                  for z, field in zip(result.z_grid, result.fields))
        return [("closed-form", own, 1e-8), ("reported-oracle", reported, 1e-8),
                ("norm-drift", result.norm_drift, 1e-10),
                ("edge-leakage", result.edge_leakage, 1e-8)]

    return Op(f"propagate-{kind.value}", (dim, zmax, samples), run, check)


def _state_op(name, build, direct, param, dim, tol):
    def check(vec):
        if np.shape(vec) != (dim,):
            raise CheckError(f"state has shape {np.shape(vec)}")
        return [("direct-form", float(np.abs(vec - direct(param, dim)).max()), tol)]

    return Op(name, (param, dim), lambda: build(param, dim), check)


def _residual_op(name, args, call, tol):
    return Op(name, args, call, lambda residual: [("residual", residual, tol)])


def tridiag(seed):
    rng = _rng(seed)
    alphas = rng.uniform(0.25, 3.0, 4) * rng.choice([-1.0, 1.0], 4)
    ops = [
        _propagate_op(LatticeKind.SU11, 400, 2.0),
        _propagate_op(LatticeKind.UNIFORM, 64, 5.0),
        _residual_op("rotation_conjugation_check", (3.0, 256),
                     lambda: algebra.rotation_conjugation_check(3.0, 256), 1e-9),
    ]
    ops += [_state_op("london_state_ordered",
                      lambda a, d: states.london_state_ordered(a, d),
                      lambda a, d: states.london_state(a, d), float(a), 64, 1e-9)
            for a in alphas]
    return ops


def criterion_3_params():
    """The 50 reordering-identity draws of acceptance criterion 3, in order."""
    rng = np.random.default_rng(CRITERION_3_SEED)
    return [BCHParams(
        plus=0.3 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
        zero=np.exp(1j * rng.uniform(-2.9, 2.9)),
        minus=0.3 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
        ordering=Ordering.ANTINORMAL_FIRST,
    ) for _ in range(CRITERION_3_DRAWS)]


def _bch_op(index, params):
    return _residual_op(f"verify_bch[{index}]", (params.plus, params.zero, params.minus),
                        lambda: algebra.verify_bch(params, 64, edge_exclude=16), 1e-9)


def ladder(seed):
    rng = _rng(seed)
    phis = rng.uniform(-math.pi, math.pi, 4)
    alphas = 3.0 * np.sqrt(rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6))
    ops = [_bch_op(i, p) for i, p in enumerate(criterion_3_params())]
    ops += [_state_op("phase_state_perelomov",
                      lambda p, d: states.phase_state_perelomov(p, d),
                      lambda p, d: states.phase_state(p, d), float(p), 32, 1e-8)
            for p in phis]
    ops += [_state_op("bg_state_ordered",
                      lambda a, d: states.bg_state_ordered(a, d),
                      lambda a, d: states.bg_state(a, d), complex(a), 48, 1e-9)
            for a in alphas]
    return ops


def _parse_output(text):
    """Rows and diagnostics of a CLI output in either format."""
    if text.startswith("{"):
        payload = json.loads(text)
        return payload["rows"], payload["diagnostics"]
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if not line.startswith("#")]
    diagnostics = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    return rows, diagnostics


def _cli_op(argv, expected, path):
    full = [*argv, "--output", str(path)]
    first = {}

    def run():
        path.unlink(missing_ok=True)  # so that every pass must write its own output
        return cli.main(full)

    def check(status):
        if status != 0:
            raise CheckError(f"exit status {status}")
        data = path.read_bytes()
        if first.setdefault("bytes", data) != data:
            raise CheckError("output differs from the first pass")
        if "rows" not in first:
            rows, diagnostics = _parse_output(data.decode())
            out = [(row["check"], float(row["residual"]), float(row["tolerance"]))
                   for row in rows if "residual" in row]
            for key, (value, tol) in expected.items():
                out.append((key, abs(float(diagnostics[key]) - value), tol))
            first["rows"] = out
        return first["rows"]

    return Op(" ".join(argv[:3]), tuple(argv), run, check)


def cli_commands(seed, out_dir):
    order = _rng(seed).permutation(len(CLI_COMMANDS))
    return [_cli_op(*CLI_COMMANDS[i], Path(out_dir) / f"cmd{i}.out") for i in order]


def build(name, seed, out_dir):
    """The op list of one pass of workload ``name``."""
    if name == "tridiag":
        return tridiag(seed)
    if name == "ladder":
        return ladder(seed)
    if name == "cli":
        return cli_commands(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")

