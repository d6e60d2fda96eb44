"""Vectors and dense operators on a hard-truncated Fock space.

States are plain complex ndarrays of length N holding the amplitudes
c_j = <j|psi>.  Operators are dense N x N matrices wrapped together with
``edge_band``, the number of top rows/columns that may carry truncation
artifacts; checks can use it to stay clear of the boundary.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, RangeError

# Largest dimension of any truncated space or lattice.  A dense complex
# 4096 x 4096 matrix takes 268 MB; the ceiling is checked before anything
# of that size is allocated.
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


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense operator on the truncated space, immutable after construction."""

    mat: np.ndarray
    edge_band: int = 0

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"operator matrix must be square, got shape {mat.shape}")
        if mat.shape[0] < 2:
            raise DimensionError("operator needs dimension >= 2")
        if not 0 <= self.edge_band <= mat.shape[0]:
            raise DimensionError(f"edge_band {self.edge_band} outside [0, {mat.shape[0]}]")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self):
        return self.mat.shape[0]

    def _check_same_dim(self, other):
        if self.dim != other.dim:
            raise DimensionError(f"operator dimensions differ: {self.dim} vs {other.dim}")

    def apply(self, vec):
        """Matrix-vector product, returning a new state array."""
        return self.mat @ _as_state(vec, self.dim)

    def adjoint(self):
        return TruncatedOperator(self.mat.conj().T, self.edge_band)

    def __matmul__(self, other):
        self._check_same_dim(other)
        band = min(self.dim, self.edge_band + other.edge_band)
        return TruncatedOperator(self.mat @ other.mat, band)

    def __add__(self, other):
        self._check_same_dim(other)
        return TruncatedOperator(self.mat + other.mat, max(self.edge_band, other.edge_band))

    def __sub__(self, other):
        self._check_same_dim(other)
        return TruncatedOperator(self.mat - other.mat, max(self.edge_band, other.edge_band))

    def __mul__(self, scalar):
        return TruncatedOperator(self.mat * complex(scalar), self.edge_band)

    __rmul__ = __mul__

    def __neg__(self):
        return TruncatedOperator(-self.mat, self.edge_band)


def basis_state(dim, n):
    """Fock basis vector |n> in an N-level space."""
    dim = _check_dim(dim)
    if not 0 <= n < dim:
        raise DimensionError(f"basis index {n} outside [0, {dim})")
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


def annihilation(dim):
    """Ladder-down operator: <m|a|n> = sqrt(n) delta_{m,n-1}."""
    dim = _check_dim(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    mat[n - 1, n] = np.sqrt(n)
    return TruncatedOperator(mat, edge_band=0)


def creation(dim):
    """Ladder-up operator, adjoint of :func:`annihilation`.

    In the truncated space the top level is annihilated: adag|N-1> = 0,
    so the last row/column is marked as edge.
    """
    dim = _check_dim(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    mat[n, n - 1] = np.sqrt(n)
    return TruncatedOperator(mat, edge_band=1)


def number(dim):
    """Occupation-number operator diag(0, 1, ..., N-1)."""
    dim = _check_dim(dim)
    return TruncatedOperator(np.diag(np.arange(dim, dtype=float)).astype(complex), edge_band=0)


def identity(dim):
    dim = _check_dim(dim)
    return TruncatedOperator(np.eye(dim, dtype=complex), edge_band=0)


def commutator(a, b):
    """[A, B] = AB - BA; widens the edge band by one extra level."""
    a._check_same_dim(b)
    band = min(a.dim, a.edge_band + b.edge_band + 1)
    return TruncatedOperator(a.mat @ b.mat - b.mat @ a.mat, band)


def expm(op, scale=1.0):
    """Matrix exponential exp(scale * op), the tests' dense reference.

    Uses scaling-and-squaring with a Pade approximant, so non-normal
    inputs (the raising/lowering generators) are handled correctly; no
    eigendecomposition is involved.  No library path calls it: the
    library's exponentials are nilpotent ladder sums, diagonals, or
    tridiagonal and real skew-symmetric ones with their own methods.
    ``scipy.linalg`` is loaded on the first call.
    """
    import scipy.linalg

    scale = complex(scale)
    if not np.all(np.isfinite(op.mat.view(float))) or not np.isfinite(abs(scale)):
        raise NumericError("operator contains non-finite entries")
    return TruncatedOperator(scipy.linalg.expm(op.mat * scale), op.edge_band)
