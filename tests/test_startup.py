"""Cold start: the ladder, state and closed-form paths never load scipy.linalg.

``import scipy.linalg`` costs about as much as the rest of the package's
import, and every CLI command is a fresh process, so only the functions
that use it (``fock.expm``, ``algebra.shift_exponential``,
``algebra._rotated_spectral`` and ``lattice.propagate``) import it.
"""

import os
import subprocess
import sys
from pathlib import Path

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

for family, param in [("phase", 0.7), ("bg", 1 + 0.5j), ("london", 2.0), ("su11", 0.8)]:
    states.build_state(states.StateSpec(states.StateFamily(family), param, 32))
unloaded("build_state")

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
assert (fock.expm(gen.kminus, 0.5).apply(fock.vacuum(8)) == fock.vacuum(8)).all()
spec = LatticeSpec(LatticeKind.UNIFORM, 32)
assert lattice.compare_to_oracle(lattice.propagate(spec, fock.vacuum(32), 1.0), spec) <= 1e-8
assert "scipy.linalg" in sys.modules
"""


def test_scipy_linalg_is_loaded_only_where_it_is_used():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
