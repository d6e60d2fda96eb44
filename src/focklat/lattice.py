"""Coupled-waveguide arrays: Hamiltonians, propagation and closed forms.

Two semi-infinite lattices are modelled on a hard-truncated array of N
guides.  The coupled-mode equations, -i dE_j/dz = g_j E_{j+1} + g_{j-1} E_{j-1},
use couplings

    Su11:     g_j = j + 1      (linearly growing),
    Uniform:  g_j = 1          (homogeneous),

so the field evolves as E(z) = exp(i z H) E(0) with H the corresponding
tridiagonal coupling matrix; that is the module's one convention, and as H
is real, exp(-i z H) E(0) = conj(exp(i z H) conj(E(0))).  Unit input at
guide 0 has the closed-form responses

    Su11:     I_m(z) = sech z (i tanh z)^m,
    Uniform:  I_m(z) = (1/z) i^m (m + 1) J_{m+1}(2 z),

which numeric propagation is compared against.  As the paper says, the
arrays "are solved through the use of nonlinear coherent states of SU(1,1)
or the exponential phase operator": the responses are i^m times the
SU(1,1) displaced vacuum at k = 1/2 and r = z, and i^m times the London
(shift-operator) state at alpha = z, and they are computed as exactly that
(the real rows of :mod:`focklat.states` and the exact i^m table
:func:`_quarter_turns`).  Propagation diagonalises H once and is exact up
to rounding, so what that comparison measures is the truncation of the
array.  H has a zero diagonal, so its spectrum is symmetric about 0
(eigenvector u at lam, (-1)^m u at -lam) and the products of
:func:`propagate` run over the positive half alone, in real arithmetic on
the even and odd guides; it never passes through the i^m table.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import states
from .algebra import _half_spectrum, _turn_signs
from .errors import (
    DimensionError,
    NumericError,
    RangeError,
    TruncationOverflowError,
    UnsupportedOracleError,
)
from .fock import MAX_DIM, TruncatedOperator

LEAKAGE_LIMIT = 1e-8

# propagate computes its products, norms and edge leakage this many samples
# at a time, so its working memory is the fields plus a fixed block
_BLOCK = 64


class LatticeKind(Enum):
    SU11 = "su11"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice family and number of guides; every lattice evolves as exp(+i z H)."""

    kind: LatticeKind
    dim: int

    def __post_init__(self):
        if not isinstance(self.kind, LatticeKind):
            raise RangeError(f"kind must be a LatticeKind, got {self.kind!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise DimensionError(f"lattice needs at least 2 guides, got {self.dim!r}")


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


def _quarter_turns(dim):
    """Q = diag(i^m) for m < dim, as its diagonal: the exact signs
    (-1)^floor(m/2) of :func:`algebra._turn_signs` on 1 (even m) or i (odd m).
    """
    signs = _turn_signs(dim)
    turns = np.zeros(dim, dtype=complex)
    turns.real[0::2] = signs[0::2]
    turns.imag[1::2] = signs[1::2]
    return turns


def sample_grid(zmax, samples):
    """The z values of :func:`propagate`, ``np.linspace(0, zmax, samples + 1)``, for
    a finite ``zmax >= 0`` and an integer ``samples >= 1`` (not a bool)."""
    if not (math.isfinite(zmax) and zmax >= 0):
        raise RangeError(f"zmax must be finite and non-negative, got {zmax}")
    if (not isinstance(samples, (int, np.integer)) or isinstance(samples, bool)
            or samples < 1):
        raise RangeError(f"samples must be a positive integer, got {samples!r}")
    return np.linspace(0.0, zmax, samples + 1)


def propagate(spec, input_field, zmax, samples=200):
    """Fields E(z) = exp(i z H) E(0), exact up to rounding (about 1e-15).

    H is real, so the fields of exp(-i z H) are
    ``propagate(spec, E0.conj(), ...).fields.conj()``.

    One half-spectrum decomposition of H (:func:`algebra._half_spectrum`)
    gives every sample at once.  With theta = z rate,
    a = weight Ue^T E(0)[even] and b = weight Uo^T E(0)[odd],

        E(z)[even] = Ue (cos(theta) a + i sin(theta) b),
        E(z)[odd]  = Uo (i sin(theta) a + cos(theta) b),

    four real products of half the size, taken ``_BLOCK`` samples at a time
    so that the working memory is the fields plus one block.  For a real
    input at one guide, a or b is 0: its terms are left out, which halves
    the products, and a component that is exactly zero in the closed forms
    (E_m is i^m times a real number) stays 0 instead of carrying about
    1e-17 of round-off.

    Parameters
    ----------
    spec : LatticeSpec
    input_field : array_like
        Complex amplitudes at z = 0; not renormalised.
    zmax : float
        Propagation length, finite and non-negative.
    samples : int
        Fields are recorded at the ``samples + 1`` values of
        :func:`sample_grid`, z = 0 included.

    Returns
    -------
    PropagationResult
        ``samples + 1`` rows, all of them the input when ``zmax`` is 0.
        ``norm_drift`` is the largest |‖E(z)‖² - ‖E(0)‖²| over the samples.

    Raises
    ------
    TruncationOverflowError
        If the squared amplitude at the last guide exceeds ``LEAKAGE_LIMIT``
        at any sample; rerun with a larger array.
    RangeError
        For a zero input, a negative or non-finite ``zmax``, or a ``samples``
        that is not a positive integer.
    """
    v = np.asarray(input_field, dtype=complex).copy()
    if v.shape != (spec.dim,):
        raise DimensionError(f"input has shape {v.shape}, expected ({spec.dim},)")
    if not np.all(np.isfinite(v.view(float))):
        raise NumericError("input field contains non-finite amplitudes")
    norm0 = float(np.vdot(v, v).real)
    if norm0 == 0.0:
        raise RangeError("input field must be nonzero")
    z_grid = sample_grid(zmax, samples)

    if zmax == 0.0:
        return PropagationResult(
            z_grid=z_grid,
            fields=np.tile(v, (samples + 1, 1)),
            norm_drift=0.0,
            edge_leakage=float(abs(v[-1]) ** 2),
        )

    ue, uo, rate, weight = _half_spectrum(_couplings(spec)[0])
    if not math.isfinite(zmax * float(rate.max())):
        raise NumericError(f"zmax = {zmax} times the largest eigenvalue overflows")
    even, odd = v[0::2], v[1::2]
    a_re, a_im = weight * (even.real @ ue), weight * (even.imag @ ue)
    b_re, b_im = weight * (odd.real @ uo), weight * (odd.imag @ uo)
    fields = np.empty((samples + 1, spec.dim), dtype=complex)
    fields[0] = v
    # each product is (cos x + sin y) U^T; a - b is a + (-b) exactly
    products = [(fields[:, 0::2].real, ue, a_re, -b_im), (fields[:, 0::2].imag, ue, a_im, b_re),
                (fields[:, 1::2].real, uo, b_re, -a_im), (fields[:, 1::2].imag, uo, b_im, a_re)]
    norms = np.empty(samples + 1)
    norms[0] = np.sum(np.abs(v) ** 2)
    edge = np.empty(samples + 1)  # running max of |E_{N-1}|^2
    edge[0] = np.abs(v[-1]) ** 2
    for lo in range(1, samples + 1, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        theta = np.outer(z_grid[rows], rate)
        cos = np.cos(theta)
        sin = np.sin(theta, out=theta)
        for out, u, x, y in products:
            mixed = _mix(cos, x, sin, y)
            out[rows] = 0.0 if mixed is None else mixed @ u.T
        block = fields[rows]
        block += 0.0  # turns signed zeros into 0.0, as the closed forms print them
        if not np.all(np.isfinite(block.view(float))):
            raise NumericError("propagation produced non-finite amplitudes")
        norms[rows] = np.sum(np.abs(block) ** 2, axis=1)
        edge[rows] = np.abs(block[:, -1]) ** 2
        running = edge[lo - 1:lo + _BLOCK]
        np.maximum.accumulate(running, out=running)
        over = np.flatnonzero(edge[rows] > LEAKAGE_LIMIT)
        if over.size:
            s = lo + over[0]
            raise TruncationOverflowError(
                f"edge leakage {edge[s]:.3e} exceeds {LEAKAGE_LIMIT:.1e} at z = {z_grid[s]:.6g}; "
                f"increase the number of guides (dim = {spec.dim})"
            )
    return PropagationResult(z_grid=z_grid, fields=fields,
                             norm_drift=float(np.abs(norms - norm0).max()),
                             edge_leakage=float(edge[-1]))


def _mix(cos, x, sin, y):
    """cos x + sin y for coefficient vectors x and y, in that order.

    A vector with no nonzero entry drops its term, which changes no value:
    t + 0 * s is t, up to the sign of a zero that the caller's +0.0 clears.
    None if both vectors are zero.
    """
    x, y = (c if c.any() else None for c in (x, y))
    if x is None:
        return None if y is None else sin * y
    out = cos * x
    if y is not None:
        out += sin * y
    return out


def _closed_form_rows(spec, zs):
    """The real rows r_m(z), m < dim, of the closed forms i^m r_m(z), at every z."""
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 1:
        raise RangeError(f"z must be one-dimensional, got shape {zs.shape}")
    bad = ~(np.isfinite(zs) & (zs >= 0))
    if bad.any():
        raise RangeError(f"z must be finite and non-negative, got {zs[bad][0]}")
    if spec.kind is LatticeKind.SU11:
        return states._su11_rows(zs, 0.5, spec.dim)
    return states._london_rows(zs, spec.dim, "z")


def impulse_profiles(spec, zs):
    """Closed-form response of all guides to unit input at guide 0, at every z.

    Returns shape (len(zs), dim): Q times the real rows of the SU(1,1)
    displaced vacuum at k = 1/2 (:func:`states._su11_rows`) or of the
    London state (:func:`states._london_rows`), whose Bessel rows come
    from one batched downward pass.  The uniform closed form stops at
    z = 25, where its Bessel argument 2z leaves the Bessel table.
    """
    out = _quarter_turns(spec.dim) * _closed_form_rows(spec, zs)
    out += 0.0  # turns signed zeros into 0.0, as propagate prints them
    return out


def impulse_profile(spec, z):
    """Closed-form response of all guides to unit input at guide 0.

    The one-row case of :func:`impulse_profiles`.
    """
    return impulse_profiles(spec, [z])[0]


def compare_to_oracle(result, spec):
    """Largest |numeric - closed form| over sampled z and retained guides.

    The comparison takes unit input at guide 0 only, although closed forms
    exist for every input guide; guides inside the Hamiltonian's edge band
    are excluded from it.  The closed
    form i^m r_m is real on the even guides and imaginary on the odd ones,
    so each parity is compared against its signed real rows,
    (-1)^floor(m/2) r_m (:func:`algebra._turn_signs`): the modulus of the
    difference is the hypot of (re - expected, im) on the even guides and
    (im - expected, re) on the odd ones, which is exactly |re - expected|
    or |im - expected| where the other component is 0, as :func:`propagate`
    leaves it for unit input.  No complex copy of the closed form is made.
    The rows are taken for every guide and then cut, so they are those of
    :func:`impulse_profiles`.
    """
    first = result.fields[0]
    expected = np.zeros(spec.dim, dtype=complex)
    expected[0] = 1.0
    if first.shape != (spec.dim,) or np.abs(first - expected).max() > 1e-12:
        raise UnsupportedOracleError("the comparison takes unit input at guide 0 only")
    keep = spec.dim - _couplings(spec)[1]
    rows = _closed_form_rows(spec, result.z_grid)
    rows *= _turn_signs(spec.dim)
    worst = []
    for parity, (on, off) in enumerate([(result.fields.real, result.fields.imag),
                                        (result.fields.imag, result.fields.real)]):
        cut = slice(parity, keep, 2)
        if parity < keep:  # else no kept guide has this parity
            dev = np.subtract(on[:, cut], rows[:, cut])
            worst.append(np.hypot(dev, off[:, cut], out=dev).max())
    return float(np.max(worst))
