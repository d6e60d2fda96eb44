"""Phase states two ways.

Builds the equal-magnitude phase superposition directly from its
amplitudes, rebuilds it as an ordered product of SU(1,1) group
exponentials acting on the vacuum, and checks that the down-shift
operator reproduces the state with eigenvalue e^{i phi}.
"""

import numpy as np

import focklat as fl

phi = 0.7
dim = 32

direct = fl.phase_state(phi, dim)
print(f"phase state, phi = {phi}, {dim} levels")
print(f"  |c_0|       = {abs(direct[0]):.10f}  (every level carries 1/sqrt(2 pi))")
print(f"  norm^2      = {fl.norm_sq(direct):.10f}  (= dim / 2 pi, not normalised)")

ordered = fl.phase_state_perelomov(phi, dim)
print(f"  |direct - ordered product|_max = {np.abs(direct - ordered).max():.3e}")

# the ordered product only works because exp(xi K-) fixes the vacuum
gen = fl.su11_generators(dim)
fixed = fl.expm(gen.kminus, -np.exp(-1j * phi)).apply(fl.vacuum(dim))
print(f"  exp(xi K-)|0> = |0> exactly: {np.array_equal(fixed, fl.vacuum(dim))}")

# eigenstate of the exponential phase (down-shift) operator
ph = fl.phase_operators(dim)
res = fl.eigen_residual(ph.v, direct, np.exp(1j * phi), exclude_top=1)
print(f"  V|phi> = e^(i phi)|phi> residual (top level excluded): {res:.3e}")

# the defect sits entirely at the truncation boundary
defect = ph.v.apply(direct) - np.exp(1j * phi) * direct
print(f"  defect below top level: {np.abs(defect[:-1]).max():.3e}")
print(f"  defect at top level:    {abs(defect[-1]):.3e}  (kills one amplitude)")
