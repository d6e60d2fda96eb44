"""Classical light in two coupled-waveguide arrays.

Propagates unit input at guide 0 through the homogeneous array and
through the array with linearly growing couplings, then compares the
numerically propagated fields against the closed-form impulse responses
(Bessel amplitudes and sech/tanh amplitudes respectively).  Writes the
homogeneous-lattice intensity map to a CSV next to this script.
"""

import csv
import pathlib

import numpy as np

import focklat as fl
from focklat.lattice import LatticeKind, LatticeSpec

print("== homogeneous couplings ==")
spec = LatticeSpec(LatticeKind.UNIFORM, 64)
res = fl.propagate(spec, fl.vacuum(64), zmax=5.0, samples=100)
print(f"  propagated vs closed form, max |difference|: {fl.compare_to_oracle(res, spec):.3e}")
print(f"  norm drift {res.norm_drift:.3e}, edge leakage {res.edge_leakage:.3e}")
print(f"  guide 0 at z = 5: {res.fields[-1][0]:.6f} "
      f"(closed form {fl.impulse_profile(spec, 5.0)[0]:.6f})")

print("== linearly growing couplings ==")
spec_g = LatticeSpec(LatticeKind.SU11, 400)
res_g = fl.propagate(spec_g, fl.vacuum(400), zmax=2.0, samples=100)
print(f"  propagated vs closed form, max |difference|: {fl.compare_to_oracle(res_g, spec_g):.3e}")
print(f"  norm drift {res_g.norm_drift:.3e}, edge leakage {res_g.edge_leakage:.3e}")

# the output field is exactly a group-displaced vacuum; compare away
# from the truncation edge, where the reflected tail lives
z = 2.0
coherent = fl.su11_perelomov_state(1j * z, 0.5, 400)
keep = 300
print(f"  field vs displaced vacuum (guides 0..{keep - 1}): "
      f"{np.abs(res_g.fields[-1][:keep] - coherent[:keep]).max():.3e}")

print("== input off guide 0 ==")
# no closed form, but the matrix exponential provides the reference
spec3 = LatticeSpec(LatticeKind.UNIFORM, 48)
res3 = fl.propagate(spec3, fl.basis_state(48, 3), zmax=1.5, samples=30)
col = fl.expm(fl.build_hamiltonian(spec3), 1.5j).mat[:, 3]
print(f"  propagated vs matrix exponential column: {np.abs(res3.fields[-1] - col).max():.3e}")

out = pathlib.Path(__file__).with_name("uniform_lattice_intensity.csv")
with out.open("w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["z", "guide", "intensity"])
    for zval, field in zip(res.z_grid, res.fields):
        for guide, amp in enumerate(field):
            writer.writerow([repr(float(zval)), guide, repr(float(abs(amp) ** 2))])
print(f"wrote intensity map to {out.name}")
