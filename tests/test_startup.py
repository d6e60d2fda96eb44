"""Cold start: the ladder, state and closed-form paths never load scipy.linalg.

``import scipy.linalg`` costs about as much as the rest of the package's
import, and every CLI command is a fresh process, so the one library
function that uses it imports it: ``algebra._half_spectrum``, the
tridiagonal eigensolver (behind ``lattice.propagate``, the rotation check
and ``states.london_state_ordered``).  The dense ``expm`` is the tests'
reference in ``tests/oracles.py``, which no library path calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

from focklat import algebra, cli, fock, lattice, states
from focklat.lattice import LatticeKind, LatticeSpec

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import sys

def unloaded(after):
    assert "scipy.linalg" not in sys.modules, f"scipy.linalg loaded by {after}"

import focklat
unloaded("import focklat")

from focklat import algebra, fock, lattice, states
from focklat.algebra import BCHParams, Ordering
from focklat.lattice import LatticeKind, LatticeSpec

states.phase_state(0.7, 32)
states.bg_state(1 + 0.5j, 32)
states.london_state(2.0, 32)
states.su11_perelomov_state(0.8, 0.5, 32)
unloaded("the state builders")

b = BCHParams(plus=0.1 + 0.05j, zero=1.0, minus=0.1, ordering=Ordering.NORMAL_FIRST)
assert algebra.verify_bch(b, 64) <= 1e-9
unloaded("verify_bch")

for kind in LatticeKind:
    lattice.impulse_profiles(LatticeSpec(kind, 64), [0.5, 1.0])
unloaded("impulse_profiles")

states.phase_state_perelomov(0.7, 32)
states.bg_state_ordered(1 + 0.5j, 32)
unloaded("the ordered builders")

from focklat import cli

for argv in (["state", "--family", "bg", "--alpha", "1+0.5i", "--dim", "32"],
             ["impulse", "--lattice", "uniform", "--zmax", "1", "--dim", "64"],
             ["bch-check", "--xplus", "0.1+0.05i", "--xzero", "1", "--xminus", "0.1"]):
    assert cli.main(argv) == 0
unloaded("the CLI state, impulse and bch-check commands")

gen = algebra.su11_generators(8)
assert (fock.commutator(gen.kminus, gen.kplus).apply(fock.vacuum(8)) == fock.vacuum(8)).all()
unloaded("the banded operators")

spec = LatticeSpec(LatticeKind.UNIFORM, 32)
assert lattice.compare_to_oracle(lattice.propagate(spec, fock.vacuum(32), 1.0), spec) <= 1e-8
assert "scipy.linalg" in sys.modules

from oracles import expm

assert (expm(gen.kminus, 0.5) @ fock.vacuum(8) == fock.vacuum(8)).all()
"""


def test_scipy_linalg_is_loaded_only_where_it_is_used():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_no_library_path_calls_dense_expm(monkeypatch):
    # oracles.expm, the tests' reference, is the one caller of scipy.linalg.expm
    def refuse(*args, **kwargs):
        raise AssertionError("a library path called scipy.linalg.expm")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    assert cli.main(["verify", "--suite", "all"]) == 0
    ordered = states.london_state_ordered(2.0, 32)
    assert np.abs(ordered - states.london_state(2.0, 32)).max() <= 1e-14
    assert algebra.rotation_conjugation_check(3.0, 256) <= 1e-9
    for kind, dim in ((LatticeKind.SU11, 400), (LatticeKind.UNIFORM, 64)):
        spec = LatticeSpec(kind, dim)
        result = lattice.propagate(spec, fock.vacuum(dim), 2.0)
        assert lattice.compare_to_oracle(result, spec) <= 1e-8
