"""SU(1,1) generators, exponential phase operators and reordering maps.

The generator triple (K0, K+, K-) is realised at Bargmann index 1/2,
where the ladder matrix elements are integers:

    <n+1|K+|n> = n + 1,   <n-1|K-|n> = n,   K0 = diag(n + 1/2).

The exponential phase operators V, Vdag are the one-sided shifts on the
Fock ladder.  The reordering maps convert between the two orderings of
the exponential triple product

    exp(a+ K+) exp(ln a0 K0) exp(a- K-)  =  exp(b- K-) exp(ln b0 K0) exp(b+ K+)

and ``verify_bch`` measures the identity at the matrix level.

Every tridiagonal exponential comes from one eigensolver,
:func:`_half_spectrum`: lattice propagation, and exp(alpha (Vdag - V)) on N
levels (:func:`_rotated_exponential`), which is both the rotation check's
left side and the London ordered form.

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
P real on the right.  So the left factor is formed as its real and
imaginary parts, two independent real products against the same P.
P's slices are held, and each part's are streamed, one at a time, into
zero-filled per-level accumulators: every partial sum of a level is
exact, so each level is bitwise its whole sum, in whatever order BLAS
adds.  Only buffers that a later step reads are held: the power tables
are freed once each side's powers are copied out, before any product,
each side's powers once it has read them, each part of the left factor
once it is sliced, and the scratch of a slice's remainder update once
the update is done.  The antinormal-first side, whose sums are the
longer, is formed first, so no finished block is held beside its
slices.  The outer diagonals only scale finished entries, so they are
rounded to double.  Powers such as 0.3^-384 or (1e-8)^k leave double
range although the entries do not, so every power is carried as a
mantissa and an integer binary exponent, and the exponents enter only
the power-of-two scalings of the slice products.
Neither side is rewritten through a hypergeometric transformation: that
rewriting is the identity under test.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock, specfun
from .errors import (
    BranchError,
    DimensionError,
    NumericError,
    RangeError,
    SingularParameterError,
)
from .fock import TruncatedOperator

# Most levels verify_bch's sums run over, enforced by _antinormal_levels
# alone: every binomial C(k, j) with k < 1024 is finite in double precision.
_MAX_LEVELS = 1024

# log k! for k <= _MAX_LEVELS, the terms' binomials in _antinormal_levels
_LOG_FACTORIALS = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, _MAX_LEVELS + 1)))))
_LOG_FACTORIALS.setflags(write=False)
_LOG_ROUNDOFF = -53 * math.log(2)  # log 2^-53, the tail that _antinormal_levels leaves out


@dataclass(frozen=True)
class Su11Generators:
    """K0, K+ and K- at Bargmann index ½ (:func:`su11_generators`)."""

    k0: TruncatedOperator
    kplus: TruncatedOperator
    kminus: TruncatedOperator


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
    n = np.arange(dim, dtype=float)
    return Su11Generators(
        k0=TruncatedOperator(dim, {0: n + 0.5}),
        kplus=TruncatedOperator(dim, {-1: n}),
        kminus=TruncatedOperator(dim, {1: n + 1}),
    )


def phase_operators(dim):
    """Exponential phase operators: V|n> = |n-1>, Vdag|n> = |n+1>."""
    dim = fock._check_dim(dim)
    ones = np.ones(dim)
    return PhaseOperators(
        v=TruncatedOperator(dim, {1: ones}),
        vdag=TruncatedOperator(dim, {-1: ones}),
    )


def bch_antinormal_to_normal(b):
    """Map antinormal-ordered parameters (B side) to the normal ordering.

        A+- = B+- B0 / (1 - B+ B0 B-),   A0 = B0 / (1 - B+ B0 B-)^2

    Raises :class:`RangeError` for non-finite parameters,
    :class:`SingularParameterError` where a divisor (den or den^2) is exactly
    zero and :class:`NumericError` where an output over- or underflows.
    """
    if b.ordering is not Ordering.ANTINORMAL_FIRST:
        raise SingularParameterError("expected antinormal-first parameters")
    _check_finite(b)
    den = 1.0 - b.plus * b.zero * b.minus
    if den * den == 0:  # A0's divisor; a nonzero one leaves over- and underflow to _mapped
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
    if den == 0:
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


def _abs_max(a):
    """max |a|; for a real array, without a temporary of its size."""
    if np.iscomplexobj(a):
        return np.abs(a).max()
    return abs(max(a.max(), -a.min()))  # abs() turns a -0.0 into 0.0, as np.abs does


def _block_residual(lhs, rhs):
    """max |lhs - rhs| over max(1, the largest entry of either); overwrites lhs.

    The difference is taken in lhs's own buffer, after the scale is read,
    and real blocks take their largest modulus from their extremes, so the
    check holds no third array of the blocks' size.
    """
    scale = max(_abs_max(lhs), _abs_max(rhs))
    lhs -= rhs
    return float(_abs_max(lhs) / max(1.0, scale))


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
    """Powers x^j, j < n (n >= 2), of the complex double-double bases (m, e) of :func:`_bases`.

    Returns (mantissas of shape (2, len(e), n), exponents of shape
    (len(e), n)): x^j = mantissa 2^exponent.  Powers are formed by
    doubling, x^(L..2L) = x^(0..L) x^L, cut at x^(n-1), and every new block
    is rescaled by powers of two, so no power over- or underflows whatever |x|.
    """
    (mh, ml), e = bases
    hi = np.zeros((2, len(e), n))
    lo = np.zeros_like(hi)
    ex = np.zeros((len(e), n), dtype=np.int64)
    hi[0, :, 0] = 1.0
    hi[..., 1], lo[..., 1], ex[:, 1] = mh, ml, e
    top = 1  # x^0 .. x^top are filled
    while top < n - 1:
        done, step = slice(0, min(top, n - 1 - top) + 1), slice(top, top + 1)
        block = _cdd_mul((hi[..., done], lo[..., done]), (hi[..., step], lo[..., step]))
        block, be = _normalised(block, ex[:, done] + ex[:, step])
        new = slice(top, top + done.stop)  # x^top .. x^min(2 top, n - 1)
        hi[..., new], lo[..., new], ex[:, new] = block[0], block[1], be
        top *= 2
    return (hi, lo), ex


@functools.lru_cache(maxsize=None)  # n is a power of two that _antinormal_levels allows
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


def _slices(hi, lo, beta, count):
    """Yield hi + lo (each |.| < 1) cut into ``count`` slices on the grids 2^-(s+1)beta.

    The slices stream through one buffer: slice s + 1 overwrites slice s,
    so each is used before the next is asked for.  hi and lo are
    overwritten by the remainders, which are kept in place with one more
    scratch buffer; it is made in each remainder update and dropped before
    the next slice is yielded, so while a slice is in use the stream holds
    that slice's buffer alone.
    """
    top = np.empty_like(hi)
    for s in range(count):
        sigma = 1.5 * 2.0 ** (52 - (s + 1) * beta)
        np.add(hi, sigma, out=top)
        top -= sigma  # hi rounded to the grid, exactly
        yield top
        if s + 1 == count:  # the remainder after the last slice is not needed
            return
        hi -= top  # exact
        np.add(hi, lo, out=top)  # hi, lo = _two_sum(hi, lo), the sum in top's buffer
        bb = np.subtract(top, hi)
        lo -= bb
        hi -= np.subtract(top, bb, out=bb)
        lo += hi
        del bb
        hi, top = top, hi


def _int32(e):
    """Integer exponents as int32, clipped to +-2^20.

    np.ldexp takes a slow path for int64 exponents, and it already
    saturates (to 0 or inf) past about +-2100, so the clip leaves every
    result bitwise as it was.
    """
    return np.minimum(np.maximum(e, -(1 << 20)), 1 << 20).astype(np.int32)


def _cldexp(z, e):
    e = _int32(e)
    return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)


def _sliced_product(x, y, mid, left, right):
    """diag(l) x diag(2^mid) y diag(r), as complex doubles.

    x (p, q) is complex, handed over as a list of its real and imaginary
    parts, each a real double-double pair; y (q, r) is real double-double,
    ``mid`` an integer exponent per summation index, and the outer
    diagonals l and r are complex doubles given as (mantissas, integer
    exponents).  Only the exponents enter the scaling, so no factor need
    be representable on its own: only the final entries must be.  x is
    emptied and its arrays overwritten.

    A power of two along the summation index first balances the two
    factors, so that rows whose large entries meet zeros do not push the
    grid above their small entries.  Rows of x and columns of y are then
    scaled by powers of two to a maximum below 1 and cut into slices of
    ``beta`` bits on a common grid.  The slice products x_s y_t of one
    level s + t share a grid, and a level holds at most 8q real terms, so
    every partial sum of a level is exact, whatever order it is added in.
    So y's slices are held and x's streamed: x is scaled in place and cut
    one slice at a time, and each x_s y_t (s + t < count) is one BLAS
    product added into level s + t's zero-filled accumulator.  y is real,
    so the two parts of x are independent real products against the same
    slices of y: each part is cut and summed on its own, and dropped once
    it is sliced.  Every level is bitwise the sum of its terms, as if it
    were one product, while no more than one slice of one part of x is
    alive, and no remainder scratch (:func:`_slices`) while its products
    run.  Only buffers that a later step reads are held: the scaling
    exponents go once applied, and y's double-double pair once it is
    sliced.  A part's levels are summed in double-double once its slices
    are done, down to 2^-60 of the scale of the *final* entries, the
    outer diagonals included (at most eight slices: past that the tables
    carry no more digits), and the complex output is formed only after
    the last part.
    """
    (yh, yl), ((xr, _), (xi, _)) = y, x
    (lm, le), (rm, re) = left, right
    ex = _exponents(np.maximum(np.abs(xr), np.abs(xi))) + mid[None, :]
    del xr, xi
    ey = _exponents(np.abs(yh))
    bal = ((ey + re[None, :]).max(axis=1) - (ex + le[:, None]).max(axis=0)) // 2
    row = (ex + bal[None, :]).max(axis=1)  # exponents of x diag(2^(mid + bal)), per row
    col = (ey - bal[:, None]).max(axis=0)  # exponents of diag(2^-bal) y, per column
    (p, q), r = ex.shape, ey.shape[1]
    del ex, ey
    beta = (52 - (8 * q - 1).bit_length()) // 2
    need = (row + le).max() + (col + re).max() + q.bit_length() + 4 + 60
    count = int(max(1, min(8, -(-need // beta))))
    ye = _int32(-bal[:, None] - col[None, :])
    yh, yl = np.ldexp(yh, ye), np.ldexp(yl, ye)
    del ye
    ys = [yt.copy() for yt in _slices(yh, yl, beta, count)]
    del yh, yl  # with the stream's buffers, freed before x is cut
    xe = _int32((mid + bal)[None, :] - row[:, None])
    for half in x:
        for a in half:
            np.ldexp(a, xe, out=a)
    del xe, half, a
    sums = []  # each part's level sum
    while x:
        xh, xl = x.pop(0)
        levels = np.zeros((count, p, r))  # levels[s + t] gathers the products x_s y_t
        for s, xs in enumerate(_slices(xh, xl, beta, count)):
            for t, yt in enumerate(ys[:count - s]):
                levels[s + t] += xs @ yt
        del xh, xl, xs  # only the levels are alive for their sum
        hi = lo = 0.0
        for level in levels:
            hi, err = _two_sum(hi, level)
            lo = lo + err
        del levels, level, err
        sums.append(hi + lo)
    out = (sums[0] + 1j * sums[1]) * lm[:, None] * rm[None, :]
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
    over k < keep, the antinormal-first ones over k < levels.  A sum's left
    factor P^T diag(w^k) is formed as two real double-double arrays, one
    per part of w^k, and handed to :func:`_sliced_product`, which slices
    them one part at a time.  A single-term block is its Pascal table,
    or the identity for the diagonal form, between the outer diagonals.
    The blocks are formed in the order of ``sides``, and each side's
    powers are dropped as it reads them; :func:`verify_bch` passes the
    antinormal-first side first, so its longer sums run beside no
    finished block.
    """
    forms, monomials = zip(*(_factorisation(params) for params in sides))
    (ph, pl), pe = _cdd_powers(_bases([b for m in monomials for b in m]), levels)
    # the powers each side reads, copied out so that the tables are freed before the
    # products: keep of each outer diagonal's base and, for a sum, len(q) of w or u;
    # reversed, so that each side pops its own and drops them once read
    cuts = []
    for params, m in zip(sides, monomials):
        cuts += [keep, keep, keep if params.ordering is Ordering.NORMAL_FIRST else levels][:len(m)]
    powers = [(ph[:, i, :n].copy(), pl[:, i, :n].copy(), pe[i, :n].copy())
              for i, n in enumerate(cuts)][::-1]
    del ph, pl, pe
    blocks = []
    for params, form in zip(sides, forms):
        # outer diagonals rounded to double; sqrt(zero) joins the left one
        (lh, _, le), (rh, _, re) = powers.pop(), powers.pop()
        c = cmath.sqrt(params.zero)
        ce = math.frexp(abs(c))[1]
        left = ((lh[0] + 1j * lh[1]) * complex(math.ldexp(c.real, -ce), math.ldexp(c.imag, -ce)),
                le + ce)
        right = rh[0] + 1j * rh[1], re
        if form == "sum":
            if params.ordering is Ordering.NORMAL_FIRST:
                q = binom[0][:keep, :keep].T, binom[1][:keep, :keep].T  # q[k, n] = C(n, k)
            else:
                q = binom[0][:levels, :keep], binom[1][:levels, :keep]  # q[k, n] = C(k, n)
            wh, wl, we = powers.pop()
            # x = q^T diag(w^k) as its real and imaginary parts, which the product empties
            x = [_dd_mul((q[0].T, q[1].T), (wh[c], wl[c])) for c in (0, 1)]
            del wh, wl
            blocks.append(_sliced_product(x, q, we, left, right))
        else:
            pascal = binom[0][:keep, :keep]
            table = pascal if form == "lower" else pascal.T if form == "upper" else np.eye(keep)
            blocks.append(_cldexp(left[0][:, None] * table * right[0][None, :],
                                  left[1][:, None] + right[1][None, :]))
    return blocks


def _log_factorials(lo, hi):
    """log n! for lo <= n < hi: the table's entries, and math.lgamma(n + 1) past it."""
    past = [math.lgamma(n + 1.0) for n in range(max(lo, len(_LOG_FACTORIALS)), hi)]
    return np.concatenate((_LOG_FACTORIALS[lo:hi], past)) if past else _LOG_FACTORIALS[lo:hi]


def _antinormal_levels(params, keep):
    """Levels over which the antinormal-first sums run on the leading ``keep`` block.

    Entry (m, n) of exp(B- K-) B0^K0 exp(B+ K+) sums, over k >= max(m, n),
    terms of size C(k, m) C(k, n) |B-|^(k-m) |B+|^(k-n) |B0|^(k+1/2).  On the
    compared block (m, n < keep) each term is at most
    rho_k = q ((k+1) / (k+2-keep))^2 times the one before, q = |B+ B- B0|,
    so once rho_k < 1 the terms from k on sum to at most t_k / (1 - rho_k),
    t_k the largest term at k on the block.  The sums stop at the first
    k >= max(keep, 2) at which that bound is at most 2^-53, one unit
    roundoff of the residual's normalisation (which is at least 1).  Every
    term at k < keep is summed anyway, and the power pass needs x^0 and
    x^1, hence the 2.

    One search finds it: k doubles from max(keep, 2) until the bound passes,
    and bisection narrows the last step.  The bound is +inf while rho_k >= 1
    and strictly falls after (rho_k falls, t_(k+1) <= rho_k t_k), so
    passing is monotone in k and bisection ends on the level a scan from
    max(keep, 2) finds.  rho_k >= q (keep >= 1), so q >= 1 is refused
    before any level is looked at, and none is sought past 2^53, where k
    has no exact double.  log n! is the table's, or math.lgamma's past it;
    the terms in m alone are formed once.  When B+ or B- vanishes each sum
    ends at max(m, n) < keep.  However found, a count past 1024 is refused
    with its value; no other check enforces the limit.
    """
    start = max(keep, 2)
    q = abs(params.plus * params.minus * params.zero)
    hi = start
    if params.plus != 0 and params.minus != 0:
        diverges = RangeError(f"antinormal-first sums do not fall below 2^-53 within "
                              f"{_MAX_LEVELS} levels (|B+ B- B0| = {q:.6g})")
        if q >= 1:
            raise diverges
        logs = [math.log(abs(v)) for v in (params.minus, params.plus)]
        log_zero = math.log(abs(params.zero))
        # -log m! - m log|B-+|, one row per side; the rest of C(k, m) |B-+|^(k-m) depends on k
        lifted = -_log_factorials(0, keep) - np.arange(keep) * np.array(logs)[:, None]

        def done(k):
            rho = q * ((k + 1) / (k + 2 - keep)) ** 2
            if rho >= 1:
                return False
            lf = _log_factorials(k + 1 - keep, k + 1)  # log (k - m)! is lf[keep - 1 - m]
            top = (lifted - lf[::-1]).max(axis=1)
            log_t = sum(lf[-1] + k * g + t for g, t in zip(logs, top)) + (k + 0.5) * log_zero
            return log_t - math.log1p(-rho) <= _LOG_ROUNDOFF

        lo = start - 1  # the bound at lo is taken to be above 2^-53
        while not done(hi):
            if hi > 1 << 53:
                raise diverges
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if done(mid) else (mid, hi)
    if hi > _MAX_LEVELS:
        raise RangeError(f"antinormal-first sums need {hi} levels to fall below 2^-53, above the "
                         f"limit of {_MAX_LEVELS} levels (|B+ B- B0| = {q:.6g})")
    return hi


def verify_bch(params, dim, edge_exclude=None):
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
    normal-first sums are finite.  The antinormal-first sums run to the
    first level k >= max(keep, 2), keep = dim - edge_exclude, whose dropped
    tail on the compared block is provably at most 2^-53 (max(keep, 2)
    when B+ or B- vanishes), found by one doubling and bisection search
    (:func:`_antinormal_levels`): the tail bound falls monotonically in k,
    so bisection ends on the level a scan from max(keep, 2) would find.
    The levels from keep to dim are not read, so the residual depends on
    the parameters and keep alone.

    The principal logarithm of the zero-parameter is used on both sides;
    sweeps crossing arg = +-pi must unwrap externally.

    Raises
    ------
    DimensionError
        For a dim that is not an integer >= 2, or an edge exclusion that is
        not an integer in [0, dim) (not a bool).
    RangeError
        For non-finite parameters, a dim above ``fock.MAX_DIM``, or
        antinormal sums that need more than 1024 levels (not dim): |B+ B- B0|
        near or above 1, or a compared block near or past 1024 levels (from
        dim 1367 by default).  When |B+ B- B0| < 1 the message names them.
    NumericError
        If an ordering map or a product overflows double precision.
    """
    dim = fock._check_dim(dim)
    if edge_exclude is not None and (not isinstance(edge_exclude, (int, np.integer))
                                     or isinstance(edge_exclude, bool)):
        raise DimensionError(f"edge exclusion must be an integer, got {edge_exclude!r}")
    b = math.ceil(dim / 4) if edge_exclude is None else int(edge_exclude)
    if not 0 <= b < dim:
        raise DimensionError(f"edge exclusion {b} outside [0, {dim})")
    if params.ordering is Ordering.NORMAL_FIRST:  # each map checks its input is finite
        a_side, b_side = params, bch_normal_to_antinormal(params)
    else:
        a_side, b_side = bch_antinormal_to_normal(params), params
    keep = dim - b
    levels = _antinormal_levels(b_side, keep)  # at most _MAX_LEVELS, or refused
    binom = _pascal(max(64, 1 << (levels - 1).bit_length()))
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        # the antinormal-first side first: its longer sums run beside no finished block
        rhs, lhs = _ordered_blocks((b_side, a_side), keep, levels, binom)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise NumericError("an ordered product overflows double precision")
    return _block_residual(lhs, rhs)


def _bessel_top(x):
    """Smallest order n with (|x|/2)^n / n! < 2^-60.

    That is an upper bound on |J_m(x)| for every m >= n, so the orders
    above it are below rounding against entries of size 1.
    """
    half, n, bound = 0.5 * abs(x), 0, 1.0
    while bound >= 2.0**-60:
        n += 1
        bound *= half / n
    return n


def _shift_exponential_images(alpha, dim):
    """exp(alpha (Vdag - V)) on an N-level space from its Bessel image sum.

    On the infinite ladder the exponential is the Toeplitz matrix
    J_{m-n}(2 alpha).  The truncation puts walls at levels -1 and N.
    Vdag - V commutes with the signed reflections f_m -> (-1)^m f_{-2-m}
    and f_m -> -(-1)^(N+m) f_{2N-m}, whose invariant fields vanish at -1
    and N respectively; together they translate by P = 2 (N + 1) with the
    sign c = -(-1)^N.  So, with J_{-v} = (-1)^v J_v,

        <m|exp(alpha (Vdag - V))|n> = K[m - n] + (-1)^n K[m + n + 2],
        K[v] = sum_j c^j J_{v + j P}(2 alpha),

    a Toeplitz plus a Hankel gather of one Bessel row
    (:func:`specfun.bessel_j_all`), exact up to rounding.  Orders above
    :func:`_bessel_top` count as 0; the row stops at |2 alpha| <= 50.
    """
    x = 2.0 * alpha
    top = _bessel_top(x)
    p = 2 * (dim + 1)
    wrap = 1.0 if dim % 2 else -1.0  # c: K[v + P] = c K[v]
    reach = top // p + 1
    jv = specfun.bessel_j_all(top, x)
    signed = np.zeros(2 * reach * p)  # J_v for v = -reach P .. reach P - 1
    signed[reach * p:reach * p + top + 1] = jv
    signed[reach * p - top:reach * p] = jv[:0:-1] * (-1.0) ** np.arange(top, 0, -1)
    fold = wrap ** np.arange(-reach, reach) @ signed.reshape(2 * reach, p)  # K[v], 0 <= v < P
    k = np.concatenate([wrap * fold[p - dim + 1:], fold[:2 * dim + 1]])  # v = 1 - N .. 2N
    windows = np.lib.stride_tricks.sliding_window_view(k, dim)  # windows[i, j] = k[i + j]
    out = windows[dim + 1:] * (-1.0) ** np.arange(dim)  # the Hankel term, then the Toeplitz
    out += windows[:dim, ::-1]
    return out


def _half_spectrum(g):
    """Eigenpairs lam >= 0 of the zero-diagonal tridiagonal H with couplings g.

    The package's one eigensolver, ``scipy.linalg.eigh_tridiagonal`` with
    scipy's default driver for the whole spectrum (LAPACK ``stevd``, divide
    and conquer, since scipy 1.9).  Its workspace is N^2 doubles on top of
    the N x N eigenvectors, which sets the peak memory here at large N.
    With S = diag((-1)^m), S H S = -H, so eigenpairs come as (lam, u)
    and (-lam, S u), and exp(i theta H) has the even-even block
    ue diag(weight cos(theta rate)) ue^T and the even-odd one
    i ue diag(weight sin(theta rate)) uo^T.  Returns (ue, uo, rate, weight):
    2 u on the even and odd levels, lam, and 1/2; an odd N adds a zero mode,
    first, with weight 1.  u is the mean of the computed eigenvector at lam
    and S times the one at -lam: the solver relates them only to about 1e-14
    (SU(1,1), 200 guides), while the mean stays within 1e-15 of the closed forms.
    """
    import scipy.linalg

    n = len(g) + 1
    half = n // 2
    lam, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(n), g)
    # ascending order pairs column n - 1 - j (lam > 0) with column j (-lam)
    pos, neg = vecs[:, n - half:], vecs[:, half - 1::-1]
    flip = np.sign(np.einsum("ij,ij->j", pos[0::2], neg[0::2]))  # S neg ~ flip pos
    ue = flip * neg[0::2]  # 2 u_e and 2 u_o, in the buffers of the products
    ue += pos[0::2]
    uo = -flip * neg[1::2]
    uo += pos[1::2]
    rate = 0.5 * (lam[n - half:] - lam[half - 1::-1])
    weight = np.full(half, 0.5)  # (2 u) (1/2) (2 u)^T = 2 u u^T
    if n % 2:  # the zero mode: rate 0, weight 1, even levels only
        ue = np.column_stack([vecs[0::2, half], ue])
        uo = np.column_stack([np.zeros(half), uo])
        rate, weight = np.r_[0.0, rate], np.r_[1.0, weight]
    return ue, uo, rate, weight


def _turn_signs(n):
    """(-1)^floor(m/2) for m < n, exactly.

    The signs of the quarter turns i^m = (-1)^floor(m/2) times 1 (even m)
    or i (odd m); every module that applies Q = diag(i^m) takes them here.
    """
    signs = np.ones(n)
    signs[2::4] = -1.0
    signs[3::4] = -1.0
    return signs


def _rotated_exponential(alpha, dim):
    """exp(alpha (Vdag - V)) on N levels, as a real matrix.

    It is computed as exp(-i pi n/2) exp(i alpha (Vdag + V)) exp(i pi n/2):
    with Q = diag(i^m), Q* (Vdag + V) Q = -i (Vdag - V) holds entry by entry
    on the truncated space, so the two are equal on all N x N entries.
    (Q* M Q)[m, n] = i^(n - m) M[m, n], and the middle factor M has real
    diagonal blocks and an imaginary even-odd block (:func:`_half_spectrum`),
    so the product is real: the exact signs (-1)^floor(m/2) on the rows of
    ue and uo, and a minus sign on the even-odd block, turn it into three
    real block products over the half spectrum.  Exactly I at alpha = 0.
    The left side of :func:`rotation_conjugation_check`; its first column
    is the London state (:func:`states.london_state_ordered`).
    """
    if alpha == 0.0:
        return np.eye(dim)
    ue, uo, rate, weight = _half_spectrum(np.ones(dim - 1))
    turns = _turn_signs(dim)[:, None]
    ue *= turns[0::2]
    uo *= turns[1::2]
    cos, sin = weight * np.cos(alpha * rate), weight * np.sin(alpha * rate)
    out = np.empty((dim, dim))
    out[0::2, 0::2] = (ue * cos) @ ue.T
    out[1::2, 1::2] = (uo * cos) @ uo.T
    out[0::2, 1::2] = block = (ue * -sin) @ uo.T
    np.negative(block.T, out=out[1::2, 0::2])  # numpy 2.4 errs when this reads out itself
    return out


def rotation_conjugation_check(alpha, dim):
    """Residual of the quarter-turn conjugation identity

        exp(-i pi n/2) exp(i a (Vdag + V)) exp(i pi n/2) = exp(a (Vdag - V))

    for real ``alpha``, compared entrywise on the whole N-level space with
    the same normalisation as :func:`verify_bch`.  Q* (Vdag + V) Q =
    -i (Vdag - V), Q = diag(i^m), holds entry by entry on the truncation,
    so the identity is exact there at every dimension and alpha: no level
    is left out and no alpha is too large for the space.

    The two sides are real matrices from independent real-arithmetic
    methods: the left from the half spectrum of the unit tridiagonal
    Vdag + V, with the quarter turns diag(i^m) as the exact signs
    (-1)^floor(m/2) (:func:`_rotated_exponential`), the right from the
    exact Bessel image sum of the skew-symmetric Vdag - V
    (:func:`_shift_exponential_images`), which never uses the conjugation.
    Neither goes through the other's method, and no rotation is rounded,
    so the residual measures the two sides' rounding alone (about 1e-15 up
    to dim 2048).  At alpha = 0 both sides are exactly the identity and
    the residual is 0.

    Raises
    ------
    DimensionError
        For a dim that is not an integer >= 2.
    RangeError
        For a dimension above ``fock.MAX_DIM``, a complex or non-finite alpha, or
        |alpha| > 25, which keeps the Bessel argument 2 alpha inside
        ``specfun``'s range.
    """
    dim = fock._check_dim(dim)
    alpha = complex(alpha)
    if alpha.imag != 0.0 or not math.isfinite(alpha.real):
        raise RangeError(f"alpha must be real and finite, got {alpha}")
    alpha = alpha.real
    if abs(alpha) > 0.5 * specfun.MAX_ARGUMENT:
        raise RangeError(f"|alpha| = {abs(alpha)} exceeds {0.5 * specfun.MAX_ARGUMENT} "
                         "for the Bessel image sum")
    return _block_residual(_rotated_exponential(alpha, dim),
                           _shift_exponential_images(alpha, dim))
