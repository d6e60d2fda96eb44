"""Coupled-waveguide arrays: Hamiltonians, propagation and closed forms.

Two semi-infinite lattices are modelled on a hard-truncated array of N
guides.  The coupled-mode equations, -i dE_j/dz = g_j E_{j+1} + g_{j-1} E_{j-1},
use couplings

    Su11:     g_j = j + 1      (linearly growing),
    Uniform:  g_j = 1          (homogeneous),

so the field evolves as E(z) = exp(i z H) E(0) with H the corresponding
tridiagonal coupling matrix.  Unit input at guide 0 has the closed-form
responses

    Su11:     I_m(z) = sech z (i tanh z)^m,
    Uniform:  I_m(z) = (1/z) i^m (m + 1) J_{m+1}(2 z),

which numeric propagation is compared against.  Propagation diagonalises
H once and is exact up to rounding (see :func:`propagate`), so what that
comparison measures is the truncation of the array.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import specfun
from .errors import (
    DimensionError,
    NumericError,
    RangeError,
    TruncationOverflowError,
    UnsupportedOracleError,
)
from .fock import MAX_DIM, TruncatedOperator

LEAKAGE_LIMIT = 1e-8


class LatticeKind(Enum):
    SU11 = "su11"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice family, number of guides, and evolution sign.

    ``sign = +1`` propagates exp(+i z H), the convention of the
    coupled-mode equations above and of both closed-form impulse
    responses; ``sign = -1`` propagates exp(-i z H).
    """

    kind: LatticeKind
    dim: int
    sign: int = 1

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise DimensionError(f"lattice needs at least 2 guides, got {self.dim!r}")
        if self.sign not in (1, -1):
            raise RangeError(f"sign must be +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class PropagationResult:
    """Sampled fields plus the diagnostics every consumer needs."""

    z_grid: np.ndarray
    fields: np.ndarray  # shape (len(z_grid), dim)
    norm_drift: float
    edge_leakage: float


def _couplings(spec):
    """Couplings g_j between guides j and j + 1, and the edge band.

    The edge band records how deep truncation artifacts can reach: with
    growing couplings a boundary reflection penetrates a fixed fraction
    of the array, so the top quarter is flagged; with homogeneous
    couplings the field decays super-exponentially past its light cone
    and only the last guide is flagged.

    Every path that builds an N x N array (the Hamiltonian, the
    propagator's eigenvectors) starts here, so the ``MAX_DIM`` ceiling is
    checked here.  The closed forms need O(N) memory per sample and take
    longer arrays.
    """
    n = spec.dim
    if n > MAX_DIM:
        raise RangeError(f"lattice of {n} guides exceeds {MAX_DIM} for a matrix method")
    if spec.kind is LatticeKind.SU11:
        return np.arange(1.0, n), math.ceil(n / 4)
    return np.ones(n - 1), 1


def build_hamiltonian(spec):
    """Dense tridiagonal coupling matrix of the array; Hermitian, zero diagonal."""
    g, band = _couplings(spec)
    return TruncatedOperator(np.diag(g, 1) + np.diag(g, -1), edge_band=band)


def propagate(spec, input_field, zmax, samples=200):
    """Fields E(z) = exp(i sign z H) E(0), exact up to rounding (about 1e-15).

    One decomposition H = U diag(lam) U^T (``scipy.linalg.eigh_tridiagonal``,
    LAPACK MRRR) gives every sample at once.  The product is taken in the
    quarter-turn frame Q = diag(i^m), where R(z) = Q* exp(i z H) Q is real:
    Re(Q* E(0)) and Im(Q* E(0)) are propagated separately and only the real
    part of each is kept.  So a component that is exactly zero in the closed
    forms (E_m is i^m times a real number for a real input at one guide)
    stays 0 instead of carrying about 1e-17 of round-off.

    Parameters
    ----------
    spec : LatticeSpec
    input_field : array_like
        Complex amplitudes at z = 0; not renormalised.
    zmax : float
        Propagation length, finite and non-negative.
    samples : int
        Fields are recorded at ``samples`` evenly spaced points past 0.

    Returns
    -------
    PropagationResult
        ``norm_drift`` is the largest |‖E(z)‖² - ‖E(0)‖²| over the samples.

    Raises
    ------
    TruncationOverflowError
        If the squared amplitude at the last guide exceeds ``LEAKAGE_LIMIT``
        at any sample; rerun with a larger array.
    """
    import scipy.linalg

    v = np.asarray(input_field, dtype=complex).copy()
    if v.shape != (spec.dim,):
        raise DimensionError(f"input has shape {v.shape}, expected ({spec.dim},)")
    if not np.all(np.isfinite(v.view(float))):
        raise NumericError("input field contains non-finite amplitudes")
    norm0 = float(np.vdot(v, v).real)
    if norm0 == 0.0:
        raise RangeError("input field must be nonzero")
    if not (math.isfinite(zmax) and zmax >= 0):
        raise RangeError(f"zmax must be finite and non-negative, got {zmax}")
    if samples < 1:
        raise RangeError("samples must be positive")

    if zmax == 0.0:
        return PropagationResult(
            z_grid=np.zeros(1),
            fields=v[None, :].copy(),
            norm_drift=0.0,
            edge_leakage=float(abs(v[-1]) ** 2),
        )

    lam, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(spec.dim), _couplings(spec)[0])
    quarter = np.array([1, 1j, -1, -1j])[np.arange(spec.dim) % 4]  # i^m; 1j**m is inexact
    z_grid = np.linspace(0.0, zmax, samples + 1)
    phases = np.exp((1j * spec.sign) * np.outer(z_grid[1:], lam))
    # Re(Q* U exp(i sign z lam) U^T Q x) = R(z) x for x = Re(Q* E(0)), Im(Q* E(0))
    w = quarter.conj() * v
    parts = np.stack([w.real, w.imag])
    c = phases * ((quarter.real * parts) @ vecs + 1j * ((quarter.imag * parts) @ vecs))[:, None]
    re, im = (c.real @ vecs.T) * quarter.real + (c.imag @ vecs.T) * quarter.imag
    fields = np.empty((samples + 1, spec.dim), dtype=complex)
    fields[0] = v
    # adding +0.0 turns signed zeros into 0.0, as the closed forms print them
    fields[1:] = quarter * (re + 1j * im) + 0.0

    if not np.all(np.isfinite(fields.view(float))):
        raise NumericError("propagation produced non-finite amplitudes")
    norms = np.sum(np.abs(fields) ** 2, axis=1)
    edge = np.maximum.accumulate(np.abs(fields[:, -1]) ** 2)
    over = np.flatnonzero(edge[1:] > LEAKAGE_LIMIT)
    if over.size:
        s = over[0] + 1
        raise TruncationOverflowError(
            f"edge leakage {edge[s]:.3e} exceeds {LEAKAGE_LIMIT:.1e} at z = {z_grid[s]:.6g}; "
            f"increase the number of guides (dim = {spec.dim})"
        )
    return PropagationResult(z_grid=z_grid, fields=fields,
                             norm_drift=float(np.abs(norms - norm0).max()),
                             edge_leakage=float(edge[-1]))


def _sech(x):
    try:
        return 1.0 / math.cosh(x)
    except OverflowError:  # x past ~710.5, where sech x = 2 e^-x in double precision
        return 2.0 * math.exp(-x)


def impulse_profiles(spec, zs):
    """Closed-form response of all guides to unit input at guide 0, at every z.

    Returns shape (len(zs), dim).  The uniform lattice's Bessel rows come
    from one batched downward pass (:func:`specfun.bessel_j_rows`), so a
    whole z grid costs one recurrence instead of one per sample; below
    z = 2^-30 its field is the leading term i^m z^m / m! instead.
    """
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 1:
        raise RangeError(f"z must be one-dimensional, got shape {zs.shape}")
    bad = ~(np.isfinite(zs) & (zs >= 0))
    if bad.any():
        raise RangeError(f"z must be finite and non-negative, got {zs[bad][0]}")
    m = np.arange(spec.dim)
    out = np.zeros((len(zs), spec.dim), dtype=complex)
    out[zs == 0.0, 0] = 1.0
    live = zs != 0.0
    z = zs[live]
    if spec.kind is LatticeKind.SU11:
        # math.cosh and math.tanh per z: numpy's can differ in the last bit,
        # and the CLI prints these values with every digit
        sech = np.array([_sech(x) for x in z])
        tanh = np.array([math.tanh(x) for x in z])
        out[live] = sech[:, None] * (1j * tanh[:, None]) ** m
    else:
        # below specfun's leading-term cutoff the field is i^m z^m / m! to
        # rounding; the complex division by a subnormal z would overflow
        tiny = z < specfun._LEADING_TERM_CUTOFF
        rows = np.flatnonzero(live)
        jv = specfun.bessel_j_rows(spec.dim, 2.0 * z[~tiny])
        out[rows[~tiny]] = (1j**m) * (m + 1) * jv[:, 1:] / z[~tiny, None]
        out[rows[tiny]] = (1j**m) * specfun._leading_term_j(spec.dim - 1, 2.0 * z[tiny])
    out += 0.0  # turns signed zeros into 0.0, as propagate prints them
    return out


def impulse_profile(spec, z):
    """Closed-form response of all guides to unit input at guide 0.

    The one-row case of :func:`impulse_profiles`.
    """
    return impulse_profiles(spec, [z])[0]


def impulse_analytic(spec, m, z, input_guide=0):
    """Closed-form field at guide ``m`` after distance ``z``, vacuum input.

    Only input at guide 0 has a closed form; anything else raises
    :class:`UnsupportedOracleError` (numeric propagation still works).
    """
    if input_guide != 0:
        raise UnsupportedOracleError(
            f"no closed-form response for input at guide {input_guide}; only guide 0"
        )
    if not 0 <= m < spec.dim:
        raise DimensionError(f"guide index {m} outside [0, {spec.dim})")
    return complex(impulse_profile(spec, z)[m])


def compare_to_oracle(result, spec):
    """Largest |numeric - closed form| over sampled z and retained guides.

    The result must come from unit input at guide 0; guides inside the
    Hamiltonian's edge band are excluded from the comparison.
    """
    first = result.fields[0]
    expected = np.zeros(spec.dim, dtype=complex)
    expected[0] = 1.0
    if first.shape != (spec.dim,) or np.abs(first - expected).max() > 1e-12:
        raise UnsupportedOracleError("closed forms exist only for unit input at guide 0")
    keep = spec.dim - _couplings(spec)[1]
    ana = impulse_profiles(spec, result.z_grid)
    return float(np.abs(result.fields[:, :keep] - ana[:, :keep]).max())
