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

and exp(ln z K0) = diag(z^(k+1/2)).  Each product is therefore a sum over
the ladder index k: a finite one (k <= min(m, n)) for the normal-first
side, an infinite one (k >= max(m, n)) for the antinormal-first side.
The diagonal similarity C(i, j) x^(i-j) = x^i C(i, j) x^-j pulls every
parameter power out of the Pascal table P = [C(i, j)], so that each side
is an outer diagonal, a real Pascal product and an outer diagonal:

    exp(B- K-) B0^K0 exp(B+ K+) = sqrt(B0) diag(B-^-m) [P^T diag(w^k) P] diag(B+^-n),
    exp(A+ K+) A0^K0 exp(A- K-) = sqrt(A0) diag(A+^m) [P diag(u^k) P^T] diag(A-^n),

with w = B+ B- B0 and u = A0 / (A+ A-).  Only the power vectors change
with the parameters; a zero ladder parameter makes its factor the
identity and the block a single term, C(m, n) between two diagonals.
The inner terms reach ~1e10 times the O(1) entries, so w and u and their
powers are held in double-double arithmetic (Dekker, Numer. Math. 18,
1971) and the inner products are formed from error-free slice products
in BLAS (Ozaki, Ogita, Oishi & Rump, Numer. Algorithms 59, 2012), with
P real on the right.  The outer diagonals only scale finished entries,
so they are rounded to double.  Powers such as 0.3^-384 or (1e-8)^k
leave double range although the entries do not, so every power is
carried as a mantissa and an integer binary exponent, and the exponents
enter only the power-of-two scalings of the slice products.  Neither
side is rewritten through a hypergeometric transformation: that
rewriting is the identity under test.
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
    dim = fock._check_dim(dim)
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
    dim = fock._check_dim(dim)
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

    Raises :class:`RangeError` for non-finite parameters,
    :class:`SingularParameterError` where the denominator vanishes and
    :class:`NumericError` where an output over- or underflows.
    """
    if b.ordering is not Ordering.ANTINORMAL_FIRST:
        raise SingularParameterError("expected antinormal-first parameters")
    _check_finite(b)
    den = 1.0 - b.plus * b.zero * b.minus
    if abs(den) < 1e-150:
        raise SingularParameterError("1 - B+ B0 B- vanishes; ordering map is singular")
    return _mapped(b.plus * b.zero / den, b.zero / (den * den), b.minus * b.zero / den,
                   Ordering.NORMAL_FIRST)


def bch_normal_to_antinormal(a):
    """Map normal-ordered parameters (A side) to the antinormal ordering.

        B+- = A+- / (A0 - A+ A-),   B0 = (A0 - A+ A-)^2 / A0

    The denominator A0 - A+ A- (rather than 1 - A+ A-) is what makes the
    map the exact inverse of :func:`bch_antinormal_to_normal`; the pair
    round-trips to machine precision.  Raises as that map does.
    """
    if a.ordering is not Ordering.NORMAL_FIRST:
        raise SingularParameterError("expected normal-first parameters")
    _check_finite(a)
    den = a.zero - a.plus * a.minus
    if abs(den) < 1e-150:
        raise SingularParameterError("A0 - A+ A- vanishes; ordering map is singular")
    return _mapped(a.plus / den, (den * den) / a.zero, a.minus / den, Ordering.ANTINORMAL_FIRST)


def _mapped(plus, zero, minus, ordering):
    """A map's outputs as BCHParams.  den * den is den**2 to the bit, but
    overflows to inf where the power raises OverflowError."""
    if zero == 0 or not all(cmath.isfinite(v) for v in (plus, zero, minus)):
        raise NumericError("the ordering map over- or underflows double precision, giving "
                           f"({plus}, {zero}, {minus})")
    return BCHParams(plus=plus, zero=zero, minus=minus, ordering=ordering)


def _check_finite(params):
    if not all(cmath.isfinite(complex(v)) for v in (params.plus, params.zero, params.minus)):
        raise RangeError("reordering parameters must be finite, got "
                         f"({params.plus}, {params.zero}, {params.minus})")


def _block_residual(lhs, rhs, keep):
    lb = lhs[:keep, :keep]
    rb = rhs[:keep, :keep]
    dev = np.abs(lb - rb).max()
    scale = max(np.abs(lb).max(), np.abs(rb).max())
    return float(dev / max(1.0, scale))


# Double-double arithmetic on float arrays.  A real value is a pair
# (hi, lo) with |lo| <= ulp(hi) / 2; a complex value is a pair of arrays
# whose leading axis, of length 2, holds the real and imaginary parts.
# Sums and products carry ~2^-104 relative error.

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


def _dd_recip(x):
    """1 / x for a real double-double x."""
    q = 1.0 / x[0]
    p = _dd_mul((q, 0.0), x)  # 1 - p[0] is exact: p[0] is within an ulp of 1
    r = ((1.0 - p[0]) - p[1]) / x[0]
    hi = q + r
    return hi, r - (hi - q)


def _cdd_mul(x, y):
    """x * y for complex double-doubles: the four real products in one pass."""
    hi, lo = _dd_mul((x[0][[0, 1, 0, 1]], x[1][[0, 1, 0, 1]]),
                     (y[0][[0, 1, 1, 0]], y[1][[0, 1, 1, 0]]))
    hi[1] *= -1.0  # re = xr yr - xi yi, im = xr yi + xi yr
    lo[1] *= -1.0
    return _dd_add((hi[0::2], lo[0::2]), (hi[1::2], lo[1::2]))


def _normalised(z, e):
    """z 2^e rescaled so that max(|Re z|, |Im z|) lies in [1/2, 1), as (z, e)."""
    f = np.frexp(np.maximum(np.abs(z[0][0]), np.abs(z[0][1])))[1]
    return (np.ldexp(z[0], -f), np.ldexp(z[1], -f)), e + f


def _bases(monomials):
    """Complex double-double bases m 2^e, one per product in ``monomials``.

    Each monomial is a sequence of at most three factors (x, p): a nonzero
    complex double x to the power p = 1 or -1.  Every x is first scaled by
    a power of two, so no product or reciprocal over- or underflows; the
    result is (m, e) with m of shape (2, len(monomials)), normalised as by
    :func:`_normalised`.
    """
    x = np.ones((3, len(monomials)), dtype=complex)
    inv = np.zeros(x.shape, dtype=bool)
    for i, factors in enumerate(monomials):
        for j, (value, power) in enumerate(factors):
            x[j, i], inv[j, i] = value, power < 0
    f = np.frexp(np.maximum(np.abs(x.real), np.abs(x.imag)))[1]
    m = np.ldexp(np.stack([x.real, x.imag]), -f)  # exact
    # 1/m = conj(m) / |m|^2, with |m|^2 in [1/4, 2)
    r = _dd_mul((m * np.array([1.0, -1.0])[:, None, None], 0.0),
                _dd_recip(_dd_add(_two_prod(m[0], m[0]), _two_prod(m[1], m[1]))))
    hi, lo = np.where(inv, r[0], m), np.where(inv, r[1], 0.0)
    out = (hi[:, 0], lo[:, 0])
    for j in (1, 2):
        out = _cdd_mul(out, (hi[:, j], lo[:, j]))
    return _normalised(out, np.where(inv, -f, f).sum(axis=0))


def _cdd_powers(bases, n):
    """Powers x^j, j < n, of the complex double-double bases (m, e) of :func:`_bases`.

    Returns (mantissas of shape (2, len(e), n), exponents of shape
    (len(e), n)): x^j = mantissa 2^exponent.  Powers are formed by
    doubling, x^(L..2L) = x^(0..L) x^L, and every new block is rescaled by
    powers of two, so no power over- or underflows whatever |x|.
    """
    (mh, ml), e = bases
    hi = np.zeros((2, len(e), 2 * n + 1))
    lo = np.zeros_like(hi)
    ex = np.zeros((len(e), 2 * n + 1), dtype=np.int64)
    hi[0, :, 0] = 1.0
    hi[..., 1], lo[..., 1], ex[:, 1] = mh, ml, e
    top = 1  # x^0 .. x^top are filled
    while top < n - 1:
        done, step = slice(0, top + 1), slice(top, top + 1)
        block = _cdd_mul((hi[..., done], lo[..., done]), (hi[..., step], lo[..., step]))
        block, be = _normalised(block, ex[:, done] + ex[:, step])
        new = slice(top, 2 * top + 1)
        hi[..., new], lo[..., new], ex[:, new] = block[0], block[1], be
        top *= 2
    return (hi[..., :n], lo[..., :n]), ex[:, :n]


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


_NO_EXPONENT = -(1 << 30)  # the exponent of an exact zero: below every true one


def _exponents(mags):
    """Binary exponents e with mags < 2^e entrywise (mags >= 0)."""
    m, e = np.frexp(mags)
    return np.where(m == 0, _NO_EXPONENT, e)


def _slices(hi, lo, count, beta):
    """Split hi + lo (each |.| < 1) into ``count`` slices on the grids 2^-(s+1)beta."""
    out = []
    for s in range(count):
        sigma = 1.5 * 2.0 ** (52 - (s + 1) * beta)
        top = (hi + sigma) - sigma  # hi rounded to the grid, exactly
        out.append(top)
        hi, lo = _two_sum(hi - top, lo)
    return out


def _cldexp(z, e):
    with np.errstate(over="ignore"):  # an overflow is reported by verify_bch
        return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)


def _sliced_product(x, y, mid, left, right):
    """diag(l) x diag(2^mid) y diag(r), as complex doubles.

    x (p, q) is complex double-double, y (q, r) real double-double, ``mid``
    an integer exponent per summation index, and the outer diagonals l and
    r are complex doubles given as (mantissas, integer exponents).  Only
    the exponents enter the scaling, so no factor need be representable on
    its own: only the final entries must be.

    A power of two along the summation index first balances the two
    factors, so that rows whose large entries meet zeros do not push the
    grid above their small entries.  Rows of x and columns of y are then
    scaled by powers of two to a maximum below 1 and cut into slices of
    ``beta`` bits on a common grid.  The slice products x_s y_t of one
    level s + t share a grid, so each level is a single BLAS product whose
    sum of at most 8q real terms is exact, whatever order it adds them in.
    y is real, so that product is a real one on the stacked real and
    imaginary rows of x.  The levels are summed in
    double-double down to 2^-60 of the scale of the *final* entries, the
    outer diagonals included (at most eight slices: past that the tables
    carry no more digits).
    """
    (xh, xl), (yh, yl) = x, y
    (lm, le), (rm, re) = left, right
    ex = _exponents(np.maximum(np.abs(xh[0]), np.abs(xh[1]))) + mid[None, :]
    ey = _exponents(np.abs(yh))
    bal = ((ey + re[None, :]).max(axis=1) - (ex + le[:, None]).max(axis=0)) // 2
    row = (ex + bal[None, :]).max(axis=1)  # exponents of x diag(2^(mid + bal)), per row
    col = (ey - bal[:, None]).max(axis=0)  # exponents of diag(2^-bal) y, per column
    p, q = ex.shape
    beta = (52 - (8 * q - 1).bit_length()) // 2
    need = (row + le).max() + (col + re).max() + q.bit_length() + 4 + 60
    count = int(max(1, min(8, -(-need // beta))))
    xe = (mid + bal)[None, :] - row[:, None]
    ye = -bal[:, None] - col[None, :]
    xs = [s.reshape(2 * p, q) for s in _slices(np.ldexp(xh, xe), np.ldexp(xl, xe), count, beta)]
    ys = _slices(np.ldexp(yh, ye), np.ldexp(yl, ye), count, beta)
    xs, ys = np.concatenate(xs, axis=1), np.concatenate(ys[::-1], axis=0)
    hi = lo = 0.0
    for level in range(count):
        hi, err = _two_sum(hi, xs[:, :(level + 1) * q] @ ys[(count - 1 - level) * q:])
        lo = lo + err
    out = (hi + lo).reshape(2, p, -1)
    out = (out[0] + 1j * out[1]) * lm[:, None] * rm[None, :]
    return _cldexp(out, (row + le)[:, None] + (col + re)[None, :])


def _factorisation(params):
    """One side as sqrt(zero) diag(l^m) M diag(r^n): the monomial bases and M's form.

    Through C(i, j) x^(i-j) = x^i C(i, j) x^-j, with P the Pascal table,

        exp(B- K-) B0^K0 exp(B+ K+)  ->  l = 1/B-,  r = 1/B+,  M = P^T diag(w^k) P,
        exp(A+ K+) A0^K0 exp(A- K-)  ->  l = A+,    r = A-,    M = P diag(u^k) P^T,

    with w = B+ B- B0 (k < levels) and u = A0 / (A+ A-) (k < keep).  When a
    ladder parameter is 0 its exponential is the identity and the block is
    a single term: M is C(m, n) ("lower"), C(n, m) ("upper") or the
    identity, and the sum form ("sum") would divide by zero.  Returns
    (form, [l, r] or [l, r, w-or-u]) with each base a monomial of
    :func:`_bases`.
    """
    zero, plus, minus = params.zero, params.plus, params.minus
    if params.ordering is Ordering.NORMAL_FIRST:
        if plus != 0 and minus != 0:
            return "sum", [[(plus, 1)], [(minus, 1)], [(zero, 1), (plus, -1), (minus, -1)]]
        if plus != 0:  # exp(A+ K+) A0^K0
            return "lower", [[(plus, 1)], [(zero, 1), (plus, -1)]]
        if minus != 0:  # A0^K0 exp(A- K-)
            return "upper", [[(zero, 1), (minus, -1)], [(minus, 1)]]
    else:
        if plus != 0 and minus != 0:
            return "sum", [[(minus, -1)], [(plus, -1)], [(plus, 1), (minus, 1), (zero, 1)]]
        if plus != 0:  # B0^K0 exp(B+ K+)
            return "lower", [[(zero, 1), (plus, 1)], [(plus, -1)]]
        if minus != 0:  # exp(B- K-) B0^K0
            return "upper", [[(minus, -1)], [(zero, 1), (minus, 1)]]
    return "diagonal", [[(zero, 1)], []]


def _ordered_blocks(sides, keep, levels, binom):
    """Leading keep x keep blocks of the ordered triple products of ``sides``.

    Every base of every side (:func:`_factorisation`) goes through one
    power pass; the sides share nothing else.  The normal-first sums run
    over k < keep, the antinormal-first ones over k < levels.
    """
    forms, monomials = zip(*(_factorisation(params) for params in sides))
    (ph, pl), pe = _cdd_powers(_bases([b for m in monomials for b in m]), levels)
    powers = iter(zip(ph.transpose(1, 0, 2), pl.transpose(1, 0, 2), pe))
    blocks = []
    for params, form in zip(sides, forms):
        # outer diagonals rounded to double; sqrt(zero) joins the left one
        (lh, _, le), (rh, _, re) = next(powers), next(powers)
        c = cmath.sqrt(params.zero)
        ce = math.frexp(abs(c))[1]
        left = ((lh[0, :keep] + 1j * lh[1, :keep])
                * complex(math.ldexp(c.real, -ce), math.ldexp(c.imag, -ce)), le[:keep] + ce)
        right = rh[0, :keep] + 1j * rh[1, :keep], re[:keep]
        if form == "sum":
            if params.ordering is Ordering.NORMAL_FIRST:
                q = binom[0][:keep, :keep].T, binom[1][:keep, :keep].T  # q[k, n] = C(n, k)
            else:
                q = binom[0][:levels, :keep], binom[1][:levels, :keep]  # q[k, n] = C(k, n)
            wh, wl, we = next(powers)
            n = len(q[0])
            x = _dd_mul((q[0].T, q[1].T), (wh[:, None, :n], wl[:, None, :n]))  # q^T diag(w^k)
            blocks.append(_sliced_product(x, q, we[:n], left, right))
        else:
            table = {"lower": binom[0][:keep, :keep], "upper": binom[0][:keep, :keep].T,
                     "diagonal": np.eye(keep)}[form]
            blocks.append(_cldexp(left[0][:, None] * table * right[0][None, :],
                                  left[1][:, None] + right[1][None, :]))
    return blocks


def _ordered_block(params, keep, levels, binom):
    """Leading keep x keep block of the ordered triple product of ``params``.

    The one-side case of :func:`_ordered_blocks`, which ``verify_bch``
    calls with both sides so that they share one power pass.
    """
    return _ordered_blocks((params,), keep, levels, binom)[0]


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


def verify_bch(params, dim, edge_exclude=None, guard=None):
    """Residual of the reordering identity, measured at matrix level.

    Both ordered triple products are evaluated on the leading
    (dim - edge_exclude) block and compared entrywise.  The returned
    deviation is normalised by the largest entry magnitude on that block
    (floored at one), since the products' entries can span many orders of
    magnitude.

    Each side is factored through the cached Pascal table as an outer
    diagonal, a real Pascal product and an outer diagonal (see the module
    docstring).  The inner sums use double-double powers of w = B+ B- B0
    or u = A0 / (A+ A-) and exact slice products, cut off at 2^-60 of the
    final entries; every power of both sides comes from one doubling pass
    and is carried with its binary exponent, so no intermediate over- or
    underflows where the entries are representable.  The entries carry an
    absolute error of about 2^-53 of the normalisation plus 2^-100 of the
    largest term; on |X+-| <= 0.3 the residual is ~1e-14.  The
    normal-first sums are finite.  The antinormal-first sums run over the
    working space of dim + ``guard`` levels; by default the guard is the
    smallest one whose dropped tail is provably below 2^-53 (zero when B+
    or B- vanishes, where each block is a single term), found within
    dim + guard <= 1024.

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
        If an ordering map or a product overflows double precision.
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
    lhs, rhs = _ordered_blocks((a_side, b_side), keep, levels, binom)
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
