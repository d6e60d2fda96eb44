"""SU(1,1) generators, exponential phase operators and reordering maps.

The generator triple (K0, K+, K-) is realised at Bargmann index 1/2,
where the ladder matrix elements are integers:

    <n+1|K+|n> = n + 1,   <n-1|K-|n> = n,   K0 = diag(n + 1/2).

The exponential phase operators V, Vdag are the one-sided shifts on the
Fock ladder.  The reordering maps convert between the two orderings of
the exponential triple product

    exp(a+ K+) exp(ln a0 K0) exp(a- K-)  =  exp(b- K-) exp(ln b0 K0) exp(b+ K+)

and ``verify_bch`` measures the identity at the matrix level.

``verify_bch`` evaluates both ordered products from closed forms rather
than from matrix exponentials.  The truncated ladder generators are
nilpotent, so their exponentials are exact finite tables,

    <k+j|exp(x K+)|k> = C(k+j, j) x^j,   <n-j|exp(x K-)|n> = C(n, j) x^j,

and exp(ln z K0) = diag(z^(k+1/2)).  Each product is therefore
X diag(z^k) Y summed over the ladder index k: a finite sum (k <= min(m, n))
for the normal-first side, an infinite one (k >= max(m, n)) for the
antinormal-first side.  Their terms reach ~1e10 times the O(1) entries,
so the tables are held in double-double arithmetic (Dekker, Numer. Math.
18, 1971) and the sums are formed from error-free slice products in BLAS
(Ozaki, Ogita, Oishi & Rump, Numer. Algorithms 59, 2012).  Neither side
is rewritten through a hypergeometric transformation: that rewriting is
the identity under test.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .errors import (
    BranchError,
    DimensionError,
    NumericError,
    RangeError,
    SingularParameterError,
)
from .fock import TruncatedOperator

# Largest working dimension of verify_bch: every binomial C(k, j) with
# k < 1024 is finite in double precision.
_MAX_LEVELS = 1024


@dataclass(frozen=True)
class Su11Generators:
    k0: TruncatedOperator
    kplus: TruncatedOperator
    kminus: TruncatedOperator
    bargmann_k: float = 0.5


@dataclass(frozen=True)
class PhaseOperators:
    v: TruncatedOperator
    vdag: TruncatedOperator


class Ordering(Enum):
    """Which ladder exponential stands leftmost in the triple product."""

    NORMAL_FIRST = "normal-first"        # K+ leftmost ("A side")
    ANTINORMAL_FIRST = "antinormal-first"  # K- leftmost ("B side")


@dataclass(frozen=True)
class BCHParams:
    plus: complex
    zero: complex
    minus: complex
    ordering: Ordering

    def __post_init__(self):
        if self.zero == 0:
            raise BranchError("zero-parameter must be nonzero (its logarithm is taken)")


def su11_generators(dim):
    """Build (K0, K+, K-) at Bargmann index 1/2 on an N-level space."""
    n = np.arange(1, dim)
    kp = np.zeros((dim, dim), dtype=complex)
    km = np.zeros((dim, dim), dtype=complex)
    kp[n, n - 1] = n
    km[n - 1, n] = n
    k0 = np.diag(np.arange(dim) + 0.5).astype(complex)
    return Su11Generators(
        k0=TruncatedOperator(k0, edge_band=0),
        kplus=TruncatedOperator(kp, edge_band=1),
        kminus=TruncatedOperator(km, edge_band=0),
    )


def phase_operators(dim):
    """Exponential phase operators: V|n> = |n-1>, Vdag|n> = |n+1>."""
    n = np.arange(1, dim)
    v = np.zeros((dim, dim), dtype=complex)
    vd = np.zeros((dim, dim), dtype=complex)
    v[n - 1, n] = 1.0
    vd[n, n - 1] = 1.0
    return PhaseOperators(
        v=TruncatedOperator(v, edge_band=0),
        vdag=TruncatedOperator(vd, edge_band=1),
    )


def bch_antinormal_to_normal(b):
    """Map antinormal-ordered parameters (B side) to the normal ordering.

        A+- = B+- B0 / (1 - B+ B0 B-),   A0 = B0 / (1 - B+ B0 B-)^2
    """
    if b.ordering is not Ordering.ANTINORMAL_FIRST:
        raise SingularParameterError("expected antinormal-first parameters")
    den = 1.0 - b.plus * b.zero * b.minus
    if abs(den) < 1e-150:
        raise SingularParameterError("1 - B+ B0 B- vanishes; ordering map is singular")
    return BCHParams(
        plus=b.plus * b.zero / den,
        zero=b.zero / den**2,
        minus=b.minus * b.zero / den,
        ordering=Ordering.NORMAL_FIRST,
    )


def bch_normal_to_antinormal(a):
    """Map normal-ordered parameters (A side) to the antinormal ordering.

        B+- = A+- / (A0 - A+ A-),   B0 = (A0 - A+ A-)^2 / A0

    The denominator A0 - A+ A- (rather than 1 - A+ A-) is what makes the
    map the exact inverse of :func:`bch_antinormal_to_normal`; the pair
    round-trips to machine precision.
    """
    if a.ordering is not Ordering.NORMAL_FIRST:
        raise SingularParameterError("expected normal-first parameters")
    den = a.zero - a.plus * a.minus
    if abs(den) < 1e-150:
        raise SingularParameterError("A0 - A+ A- vanishes; ordering map is singular")
    return BCHParams(
        plus=a.plus / den,
        zero=den**2 / a.zero,
        minus=a.minus / den,
        ordering=Ordering.ANTINORMAL_FIRST,
    )


def _block_residual(lhs, rhs, keep):
    lb = lhs[:keep, :keep]
    rb = rhs[:keep, :keep]
    dev = np.abs(lb - rb).max()
    scale = max(np.abs(lb).max(), np.abs(rb).max())
    return float(dev / max(1.0, scale))


# Double-double arithmetic on float arrays.  A real value is a pair
# (hi, lo) with |lo| <= ulp(hi) / 2; a complex value is a pair of those,
# (real, imaginary).  Sums and products carry ~2^-104 relative error.

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e = e + (x[1] + y[1])
    hi = s + e
    return hi, e - (hi - s)


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e = e + (x[0] * y[1] + x[1] * y[0])
    hi = p + e
    return hi, e - (hi - p)


def _cdd_mul(x, y):
    (xr, xi), (yr, yi) = x, y
    ii = _dd_mul(xi, yi)
    return (_dd_add(_dd_mul(xr, yr), (-ii[0], -ii[1])),
            _dd_add(_dd_mul(xr, yi), _dd_mul(xi, yr)))


def _cdd_powers(bases, n):
    """Powers x^j, j < n, of each complex double x in ``bases``, shape (len, n)."""
    x = np.asarray(bases, dtype=complex)[:, None]
    zero = np.zeros(x.shape)
    pw = ((np.ones(x.shape), zero), (zero, zero))
    step = ((x.real, zero), (x.imag, zero))  # x^len(pw)
    while pw[0][0].shape[1] < n:
        # one product gives both the next block of powers and the next step
        more = _cdd_mul(tuple((np.hstack([p[0], s[0]]), np.hstack([p[1], s[1]]))
                              for p, s in zip(pw, step)), step)
        pw = tuple((np.hstack([p[0], m[0][:, :-1]]), np.hstack([p[1], m[1][:, :-1]]))
                   for p, m in zip(pw, more))
        step = tuple((m[0][:, -1:], m[1][:, -1:]) for m in more)
    return tuple((p[0][:, :n], p[1][:, :n]) for p in pw)


@functools.lru_cache(maxsize=None)  # n is a power of two <= _MAX_LEVELS
def _pascal(n):
    """C(k, j) for k, j < n as a read-only double-double pair of arrays."""
    hi = np.zeros((n, n))
    lo = np.zeros((n, n))
    row = [1]
    for k in range(n):
        top = [float(c) for c in row]  # correctly rounded
        hi[k, :k + 1] = top
        lo[k, :k + 1] = [float(c - int(t)) for c, t in zip(row, top)]
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
    hi.setflags(write=False)
    lo.setflags(write=False)
    return hi, lo


def _exp_kplus(binom, powers, rows, cols):
    """<i|exp(x K+)|j> = C(i, j) x^(i-j) on a rows x cols corner (0 above the diagonal)."""
    d = np.arange(rows)[:, None] - np.arange(cols)[None, :]
    low = d >= 0
    d = np.where(low, d, 0)
    c = (binom[0][:rows, :cols], binom[1][:rows, :cols])
    return tuple(_dd_mul(c, (np.where(low, p[0][d], 0.0), np.where(low, p[1][d], 0.0)))
                 for p in powers)


def _exponents(mags, axis):
    """Binary exponents e with max(mags) < 2^e along ``axis``."""
    return np.frexp(mags.max(axis=axis))[1]


def _slices(hi, lo, count, beta):
    """Split hi + lo (each |.| < 1) into ``count`` slices on the grids 2^-(s+1)beta."""
    out = []
    for s in range(count):
        sigma = 1.5 * 2.0 ** (52 - (s + 1) * beta)
        top = (hi + sigma) - sigma  # hi rounded to the grid, exactly
        out.append(top)
        hi, lo = _two_sum(hi - top, lo)
    return out


def _sliced_product(x, y):
    """x @ y for complex double-double x (p, q) and y (q, r), as complex doubles.

    Rows of x and columns of y are scaled by powers of two to a maximum
    below 1 and cut into slices of ``beta`` bits on a common grid, so that
    every slice product's sum of 2q real terms is exact in a BLAS product,
    whatever order it adds them in.  The
    slice products are summed in double-double down to 2^-60 of the entry
    scale (at most eight slices: past that the tables carry no more
    digits).  A power of two along the summation index first balances the
    two factors, so that rows whose large entries meet zeros do not push
    the grid above their small entries.
    """
    (xrh, xrl), (xih, xil) = x
    (yrh, yrl), (yih, yil) = y
    ax = np.maximum(np.abs(xrh), np.abs(xih))
    ay = np.maximum(np.abs(yrh), np.abs(yih))
    bal = (_exponents(ay, 1) - _exponents(ax, 0)) // 2
    row = _exponents(np.ldexp(ax, bal[None, :]), 1)
    col = _exponents(np.ldexp(ay, -bal[:, None]), 0)
    ex = bal[None, :] - row[:, None]
    ey = -bal[:, None] - col[None, :]
    inner = 2 * xrh.shape[1]  # real terms per complex entry
    beta = (52 - (inner - 1).bit_length()) // 2
    need = row.max() + col.max() + inner.bit_length() + 4 + 60
    count = int(max(1, min(8, -(-need // beta))))

    def sliced(re, im, e):
        return [r + 1j * i for r, i in zip(
            _slices(np.ldexp(re[0], e), np.ldexp(re[1], e), count, beta),
            _slices(np.ldexp(im[0], e), np.ldexp(im[1], e), count, beta))]

    xs = sliced((xrh, xrl), (xih, xil), ex)
    ys = sliced((yrh, yrl), (yih, yil), ey)
    hi = np.zeros((xrh.shape[0], yrh.shape[1]), dtype=complex)
    lo = np.zeros_like(hi)
    for level in range(count):
        for s in range(level + 1):
            hi, err = _two_sum(hi, xs[s] @ ys[level - s])
            lo += err
    out = hi + lo
    scale = row[:, None] + col[None, :]
    return np.ldexp(out.real, scale) + 1j * np.ldexp(out.imag, scale)


def _ordered_block(params, keep, levels, binom):
    """Leading keep x keep block of the ordered triple product of ``params``.

    The normal-first product exp(A+ K+) A0^K0 exp(A- K-) sums k <= min(m, n);
    the antinormal-first one exp(B- K-) B0^K0 exp(B+ K+) sums k < levels.
    """
    normal = params.ordering is Ordering.NORMAL_FIRST
    n = keep if normal else levels
    powers = _cdd_powers([params.plus, params.minus, params.zero], n)
    plus, minus, zero = (tuple((p[0][i], p[1][i]) for p in powers) for i in range(3))
    kplus = _exp_kplus(binom, plus, n, keep)  # exp(plus K+), n x keep
    kminus = tuple((p[0].T, p[1].T) for p in _exp_kplus(binom, minus, n, keep))
    left, right = (kplus, kminus) if normal else (kminus, kplus)
    diag = tuple((p[0][None, :], p[1][None, :]) for p in zero)
    return cmath.sqrt(params.zero) * _sliced_product(_cdd_mul(left, diag), right)


def _default_guard(params, dim, keep):
    """Levels past ``dim`` at which the antinormal-first sums may stop.

    Entry (m, n) of exp(B- K-) B0^K0 exp(B+ K+) sums, over k >= max(m, n),
    terms of size C(k, m) C(k, n) |B-|^(k-m) |B+|^(k-n) |B0|^(k+1/2).  On the
    retained block (m, n < keep) each term is at most
    rho_k = q ((k+1) / (k+2-keep))^2 times the one before, q = |B+ B- B0|,
    so once rho_k < 1 the terms from k on sum to at most t_k / (1 - rho_k),
    t_k the largest term at k on the block.  The guard is the first k >= dim
    at which that bound falls below 2^-53, one unit roundoff of the
    residual's normalisation (which is at least 1).
    """
    if params.plus == 0 or params.minus == 0:
        return 0  # each sum ends at k = max(m, n) < keep
    logf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, _MAX_LEVELS + 1)))))
    m = np.arange(keep)
    q = abs(params.plus * params.minus * params.zero)
    for start in range(dim, _MAX_LEVELS + 1, 128):
        k = np.arange(start, min(start + 128, _MAX_LEVELS + 1))[:, None]
        logc = logf[k] - logf[m] - logf[k - m]
        log_t = ((logc + (k - m) * math.log(abs(params.minus))).max(axis=1)
                 + (logc + (k - m) * math.log(abs(params.plus))).max(axis=1)
                 + (k[:, 0] + 0.5) * math.log(abs(params.zero)))
        rho = q * ((k[:, 0] + 1) / (k[:, 0] + 2 - keep)) ** 2
        shrinks = rho < 1
        done = shrinks & (log_t - np.log1p(-np.where(shrinks, rho, 0.0)) <= -53 * math.log(2))
        if done.any():
            return int(k[done.argmax(), 0]) - dim
    raise RangeError(f"antinormal-first sums do not fall below 2^-53 within {_MAX_LEVELS} "
                     f"levels (|B+ B- B0| = {q:.6g})")


def _check_finite(params):
    if not all(cmath.isfinite(complex(v)) for v in (params.plus, params.zero, params.minus)):
        raise RangeError("reordering parameters must be finite, got "
                         f"({params.plus}, {params.zero}, {params.minus})")


def verify_bch(params, dim, edge_exclude=None, guard=None):
    """Residual of the reordering identity, measured at matrix level.

    Both ordered triple products are evaluated on the leading
    (dim - edge_exclude) block and compared entrywise.  The returned
    deviation is normalised by the largest entry magnitude on that block
    (floored at one), since the products' entries can span many orders of
    magnitude.

    Each side is summed from the closed-form ladder tables (see the module
    docstring) with double-double tables and exact slice products, so its
    entries carry an absolute error of about 2^-53 of the normalisation
    plus 2^-100 of the largest term; on |X+-| <= 0.3 the residual is
    ~1e-14.  The normal-first sums are finite.  The antinormal-first sums
    run over the working space of dim + ``guard`` levels; by default the
    guard is the smallest one whose dropped tail is provably below 2^-53
    (zero when B+ or B- vanishes), found within dim + guard <= 1024.

    The principal logarithm of the zero-parameter is used on both sides;
    sweeps crossing arg = +-pi must unwrap externally.

    Raises
    ------
    DimensionError
        For dim < 2, an edge exclusion outside [0, dim) or a negative guard.
    RangeError
        For non-finite parameters, a dimension or working space above 1024
        levels, or antinormal sums that do not converge within it
        (|B+ B- B0| near or above 1).
    NumericError
        If a product overflows double precision.
    """
    dim = int(dim)
    if dim < 2:
        raise DimensionError(f"need dimension >= 2, got {dim}")
    if dim > _MAX_LEVELS:
        raise RangeError(f"dimension {dim} exceeds {_MAX_LEVELS}")
    b = math.ceil(dim / 4) if edge_exclude is None else int(edge_exclude)
    if not 0 <= b < dim:
        raise DimensionError(f"edge exclusion {b} outside [0, {dim})")
    _check_finite(params)
    if params.ordering is Ordering.NORMAL_FIRST:
        a_side, b_side = params, bch_normal_to_antinormal(params)
    else:
        a_side, b_side = bch_antinormal_to_normal(params), params
    _check_finite(a_side)
    _check_finite(b_side)
    keep = dim - b
    guard = _default_guard(b_side, dim, keep) if guard is None else int(guard)
    if guard < 0:
        raise DimensionError(f"guard must be >= 0, got {guard}")
    levels = dim + guard
    if levels > _MAX_LEVELS:
        raise RangeError(f"working dimension {levels} exceeds {_MAX_LEVELS}")
    binom = _pascal(max(64, 1 << (levels - 1).bit_length()))
    lhs = _ordered_block(a_side, keep, levels, binom)
    rhs = _ordered_block(b_side, keep, levels, binom)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise NumericError("an ordered product overflows double precision")
    return _block_residual(lhs, rhs, keep)


def shift_exponential(alpha, dim):
    """exp(alpha (Vdag - V)) on an N-level space, as a real matrix.

    Vdag - V is real and skew-symmetric, so the exponential is taken in
    real arithmetic by scaling and squaring with a Pade approximant
    (``scipy.linalg.expm``; Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    31, 2009); no eigendecomposition is involved.
    """
    import scipy.linalg

    n = np.arange(1, dim)
    gen = np.zeros((dim, dim))
    gen[n, n - 1] = alpha
    gen[n - 1, n] = -alpha
    return scipy.linalg.expm(gen)


def _rotated_spectral(alpha, dim):
    """exp(-i pi n/2) exp(i alpha (Vdag + V)) exp(i pi n/2) on N levels.

    The middle factor is U diag(exp(i alpha lam)) U^T from one
    ``scipy.linalg.eigh_tridiagonal`` decomposition of the unit
    off-diagonal matrix Vdag + V, its real and imaginary parts formed by
    two real products; at alpha = 0 it is the identity exactly.
    """
    import scipy.linalg

    if alpha == 0.0:
        mid = np.eye(dim)
    else:
        lam, u = scipy.linalg.eigh_tridiagonal(np.zeros(dim), np.ones(dim - 1))
        mid = (u * np.cos(alpha * lam)) @ u.T + 1j * ((u * np.sin(alpha * lam)) @ u.T)
    rot = np.exp(-0.5j * np.pi * np.arange(dim))
    return (rot[:, None] * mid) * rot.conj()[None, :]


def rotation_conjugation_check(alpha, dim, edge_exclude=None):
    """Residual of the quarter-turn conjugation identity

        exp(-i pi n/2) exp(i a (Vdag + V)) exp(i pi n/2) = exp(a (Vdag - V))

    for real ``alpha``, compared entrywise on the leading block with the
    same normalisation as :func:`verify_bch`.

    The two sides come from independent real-arithmetic methods.  The left
    exponential is spectral: Vdag + V is the real symmetric tridiagonal
    matrix with unit off-diagonals, decomposed once by
    ``scipy.linalg.eigh_tridiagonal`` (LAPACK MRRR), and the rotation is
    then applied to it numerically (:func:`_rotated_spectral`).  The right
    side is the Pade exponential of the real skew-symmetric Vdag - V
    (:func:`shift_exponential`).  Neither side goes through the other's
    method or through the conjugation by diag(i^m): that conjugation is
    the identity under test.  At alpha = 0 both sides are exactly the
    identity and the residual is 0.

    Raises
    ------
    DimensionError
        For dim < 2 or an edge exclusion outside [0, dim).
    RangeError
        For a dimension above ``fock.MAX_DIM``, a non-finite alpha, or
        |alpha| > dim / 8.
    """
    dim = int(dim)
    if dim < 2:
        raise DimensionError(f"need dimension >= 2, got {dim}")
    if dim > fock.MAX_DIM:
        raise RangeError(f"dimension {dim} exceeds {fock.MAX_DIM}")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise RangeError(f"alpha must be finite, got {alpha}")
    if abs(alpha) > dim / 8:
        raise RangeError(f"|alpha| = {abs(alpha)} too large for dimension {dim} (need <= dim/8)")
    b = math.ceil(dim / 4) if edge_exclude is None else int(edge_exclude)
    if not 0 <= b < dim:
        raise DimensionError(f"edge exclusion {b} outside [0, {dim})")
    return _block_residual(_rotated_spectral(alpha, dim), shift_exponential(alpha, dim), dim - b)
