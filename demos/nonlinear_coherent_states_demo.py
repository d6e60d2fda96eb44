"""Nonlinear coherent states of the shift operators.

Two families: the lowering-operator eigenstate (amplitudes alpha^j / j!)
and the shift-displaced vacuum (Bessel amplitudes).  Each is built both
from its amplitude formula and as an ordered exponential, and each is an
eigenstate of a deformed lowering operator, which we verify.  The Bessel
weights of the second family blow up on Bessel roots; the guard that
detects this is demonstrated at the end.
"""

import numpy as np

import focklat as fl

dim = 64

print("== lowering-operator eigenstate ==")
alpha = 1.0 + 0.5j
bg = fl.bg_state(alpha, dim)
print(f"alpha = {alpha}, norm^2 = {fl.norm_sq(bg):.12f}")
print(f"  amplitude form vs ordered exponential: "
      f"{np.abs(bg - fl.bg_state_ordered(alpha, dim)).max():.3e}")
gen = fl.su11_generators(dim)
print(f"  K- eigenvalue residual: "
      f"{fl.eigen_residual(gen.kminus, bg, alpha):.3e}")

print("== shift-displaced vacuum ==")
alpha = 1.3
lon = fl.london_state(alpha, dim)
print(f"alpha = {alpha}, norm^2 = {fl.norm_sq(lon):.12f}")
print(f"  Bessel amplitudes vs exp(alpha (Vdag - V))|0>: "
      f"{np.abs(lon - fl.london_state_ordered(alpha, dim)).max():.3e}")
dop = fl.deformed_annihilation(alpha, dim)
print(f"  deformed-lowering eigenvalue residual: "
      f"{fl.eigen_residual(dop, lon, alpha):.3e}")

print("== group-displaced vacuum ==")
alpha = 1.0 + 1.0j
pere = fl.su11_perelomov_state(alpha, 0.5, 128)
print(f"alpha = {alpha}, k = 1/2, norm^2 = {fl.norm_sq(pere):.12f}")

print("== Bessel-root singularity guard ==")
# first root of J_2 sits at 5.1356...; half of it is a forbidden alpha
bad_alpha = 5.135622301840683 / 2
try:
    fl.deformed_annihilation(bad_alpha, 16)
except fl.errors.BesselRootError as err:
    print(f"  alpha = {bad_alpha:.6f} rejected: {err}")
ok_alpha = bad_alpha + 0.05
fl.deformed_annihilation(ok_alpha, 16)
print(f"  alpha = {ok_alpha:.6f} accepted (clear of the root)")
