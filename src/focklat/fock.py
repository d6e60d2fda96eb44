"""Vectors and banded operators on a hard-truncated Fock space.

States are plain complex ndarrays of length N holding the amplitudes
c_j = <j|psi>.  Operators are banded and stored as their nonzero diagonals,
O(N) memory each.  Arithmetic is exact on the truncated space: where the
truncation breaks an identity of the untruncated algebra, it does so on
the top level by a known amount, and checks compare against that exact
truncated right-hand side on every level.
"""

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionError, RangeError

# Largest dimension of any truncated space or lattice.  Operators are O(N);
# the ceiling bounds the tridiagonal eigensolver's dense N x N eigenvectors
# (134 MB at 4096), and is checked before they are allocated.
MAX_DIM = 4096


def _as_state(vec, dim=None):
    v = np.asarray(vec, dtype=complex)
    if v.ndim != 1:
        raise DimensionError(f"state must be one-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"state has dimension {v.shape[0]}, expected {dim}")
    return v


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise DimensionError(f"truncated space needs dimension >= 2, got {dim!r}")
    if dim > MAX_DIM:
        raise RangeError(f"dimension {dim} exceeds {MAX_DIM}")
    return int(dim)


def _shift(d, k):
    """e[i] = d[i + k], zero where i + k falls outside the space (|k| < len(d))."""
    e = np.zeros_like(d)
    n = len(d) - abs(k)
    e[max(0, -k):][:n] = d[max(0, k):][:n]
    return e


@dataclass(frozen=True)
class TruncatedOperator:
    """Banded operator on the truncated space, immutable after construction.

    ``diagonals`` maps an integer offset k (not a bool) to an array d of
    length ``dim`` with d[i] = <i|A|i+k>; entries whose column i + k falls
    outside the space are zeroed, and an offset that is not listed is a
    zero diagonal.

    ``edge_band``, an integer in [0, dim] (not a bool), is set by
    :func:`lattice.build_hamiltonian` alone: the number of top guides that a
    lattice's oracle comparison may leave out.  No operation reads or
    carries it.  Deleting the field is the lattice half of the ROADMAP's
    edge-band item, together with that comparison's top-guide cut.
    """

    dim: int
    diagonals: dict
    edge_band: int = 0

    def __post_init__(self):
        dim, band = _check_dim(self.dim), self.edge_band
        if (not isinstance(band, (int, np.integer)) or isinstance(band, bool)
                or not 0 <= band <= dim):
            raise DimensionError(f"edge_band {band!r} is not an integer in [0, {dim}]")
        diagonals = {}
        for k, d in self.diagonals.items():
            d = np.asarray(d, dtype=complex)
            if (not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not -dim < k < dim
                    or d.shape != (dim,)):
                raise DimensionError(f"diagonal {k!r} of shape {d.shape} does not fit dim {dim}")
            diagonals[int(k)] = _shift(_shift(d, -k), k)  # zeroes i + k outside the space
            diagonals[int(k)].setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "edge_band", int(band))
        object.__setattr__(self, "diagonals", MappingProxyType(dict(sorted(diagonals.items()))))

    def _check_same_dim(self, other):
        if self.dim != other.dim:
            raise DimensionError(f"operator dimensions differ: {self.dim} vs {other.dim}")

    def to_dense(self):
        """The dense dim x dim matrix, for tests and demos."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for k, d in self.diagonals.items():
            mat += np.diag(d[max(0, -k):self.dim - max(0, k)], k)
        return mat

    def apply(self, vec):
        """Matrix-vector product, returning a new state array."""
        v = _as_state(vec, self.dim)
        out = np.zeros(self.dim, dtype=complex)
        for k, d in self.diagonals.items():
            out += d * _shift(v, k)
        return out

    def adjoint(self):
        return TruncatedOperator(self.dim, {-k: _shift(d, -k).conj()
                                            for k, d in self.diagonals.items()})

    def __matmul__(self, other):
        self._check_same_dim(other)
        out = {}
        for a, da in self.diagonals.items():
            for b, db in other.diagonals.items():
                if abs(a + b) < self.dim:
                    out[a + b] = out.get(a + b, 0.0) + da * _shift(db, a)
        return TruncatedOperator(self.dim, out)

    def __add__(self, other):
        self._check_same_dim(other)
        out = dict(self.diagonals)
        for k, d in other.diagonals.items():
            out[k] = out.get(k, 0.0) + d
        return TruncatedOperator(self.dim, out)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return TruncatedOperator(self.dim, {k: d * scalar for k, d in self.diagonals.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def basis_state(dim, n):
    """Fock basis vector |n> in an N-level space; n is an integer in [0, dim), not a bool."""
    dim = _check_dim(dim)
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or not 0 <= n < dim:
        raise DimensionError(f"basis index {n!r} is not an integer in [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def vacuum(dim):
    """The vacuum |0>."""
    return basis_state(dim, 0)


def norm_sq(vec):
    """Squared norm sum_j |c_j|^2."""
    v = _as_state(vec)
    return float(np.vdot(v, v).real)


def identity(dim):
    dim = _check_dim(dim)
    return TruncatedOperator(dim, {0: np.ones(dim)})


def commutator(a, b):
    """[A, B] = AB - BA."""
    return a @ b - b @ a
