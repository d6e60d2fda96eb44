"""focklat: truncated Fock-space numerics for phase-related coherent states
and classical light propagation in coupled-waveguide lattices.

Subpackages
-----------
``specfun``   Bessel J/I evaluators with certified accuracy.
``fock``      Truncated-space vectors and banded operators.
``algebra``   SU(1,1) and phase operators, reordering maps, the tridiagonal eigensolver.
``states``    Phase, Barut-Girardello, London and displaced-vacuum states.
``lattice``   Waveguide-array Hamiltonians, exact spectral propagation, closed forms.
``checks``    Named verification suites (also behind ``focklat verify``).

Importing the package does not load ``scipy.linalg``; its tridiagonal
eigensolver (behind ``propagate``, the rotation check and the London
ordered form) loads it on first call.
"""

from . import algebra, checks, errors, fock, lattice, specfun, states
from .algebra import (
    BCHParams,
    Ordering,
    PhaseOperators,
    Su11Generators,
    bch_antinormal_to_normal,
    bch_normal_to_antinormal,
    phase_operators,
    rotation_conjugation_check,
    su11_generators,
    verify_bch,
)
from .fock import (
    TruncatedOperator,
    basis_state,
    commutator,
    identity,
    norm_sq,
    vacuum,
)
from .lattice import (
    LatticeKind,
    LatticeSpec,
    PropagationResult,
    build_hamiltonian,
    compare_to_oracle,
    impulse_profile,
    propagate,
)
from .specfun import bessel_i, bessel_j_all
from .states import (
    bg_state,
    bg_state_ordered,
    deformed_annihilation,
    eigen_residual,
    london_state,
    london_state_ordered,
    phase_state,
    phase_state_perelomov,
    su11_perelomov_state,
)

__version__ = "0.1.0"

__all__ = [
    "BCHParams",
    "LatticeKind",
    "LatticeSpec",
    "Ordering",
    "PhaseOperators",
    "PropagationResult",
    "Su11Generators",
    "TruncatedOperator",
    "algebra",
    "basis_state",
    "bch_antinormal_to_normal",
    "bch_normal_to_antinormal",
    "bessel_i",
    "bessel_j_all",
    "bg_state",
    "bg_state_ordered",
    "build_hamiltonian",
    "checks",
    "commutator",
    "compare_to_oracle",
    "deformed_annihilation",
    "eigen_residual",
    "errors",
    "fock",
    "identity",
    "impulse_profile",
    "lattice",
    "london_state",
    "london_state_ordered",
    "norm_sq",
    "phase_operators",
    "phase_state",
    "phase_state_perelomov",
    "propagate",
    "rotation_conjugation_check",
    "specfun",
    "states",
    "su11_generators",
    "su11_perelomov_state",
    "vacuum",
    "verify_bch",
]
