"""Bessel functions of the first kind, ordinary and modified.

Self-contained evaluators for J_m(x) and I_m(x) at non-negative integer
order, accurate to better than 1e-12 relative for |argument| <= 50 and
order <= 200.  The J rows take any top order (deep-tail values may
underflow); only I_m refuses an order above 200.  J_m uses Miller's
downward recurrence, one pass over all arguments in argument order, each
row seeded at its own start and rescaled on its own, normalised with the
even-order sum identity

    J_0(x) + 2 * sum_{k>=1} J_{2k}(x) = 1,

I_m uses the ascending power series over the whole range: its terms are
all positive, so nothing cancels.
"""

import math

import numpy as np

from .errors import RangeError

MAX_ORDER = 200
MAX_ARGUMENT = 50.0

_RESCALE = 1e250
# Below this |x|, J_m(x) is its leading term (x/2)^m / m! to rounding (the
# next term is (x/2)^2 / (m+1) < 2^-62 times it); the downward recurrence
# would overflow there, its step 2k/x growing past 1e300 before the rescale.
_LEADING_TERM_CUTOFF = 2.0 ** -30


def _check_order(m):
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
        raise RangeError(f"order must be a non-negative integer, got {m!r}")


def _start_order(m, x):
    # Seed the downward recurrence far enough above max(order, argument)
    # that the admixture of the dominant solution, which shrinks like
    # (e*x / 2k)^(2k), is below 1e-14 everywhere in the supported range.
    return m + max(50, int(math.ceil(2.5 * abs(x))))


def _miller_j(m_max, xs):
    """J_0..J_{m_max} at every x of ``xs`` (all >= 0) from one downward pass.

    Rows run in argument order from the largest start.  Row i holds exact
    zeros until its own start, is seeded there and rescaled on its own, so it
    is bitwise the single-argument recurrence at xs[i].  Rows with
    x < ``_LEADING_TERM_CUTOFF`` are never seeded and stay 0 for the caller
    to fill.  The rescaling and the normalisation run row by row in place, so
    the result, shape (len(xs), m_max + 1), is a view of the working array and
    nothing else of its size is made.
    """
    run = xs >= _LEADING_TERM_CUTOFF
    starts = np.array([_start_order(m_max, x) for x in xs], dtype=int)
    starts += starts % 2
    starts[~run] = -1  # matches no order k - 1 >= 0 of the pass
    top = starts.max(initial=-1)  # -1 when no row is seeded: the pass is empty
    later = set(starts[run & (starts < top)].tolist())  # the start orders below the top
    f = np.zeros((len(xs), max(top, m_max) + 2))
    f[run, starts[run]] = 1e-300
    steps = np.where(run, xs, 1.0)  # the unseeded rows stay 0 at any finite 2k/x
    for k in range(top, 0, -1):
        col = f[:, k - 1]
        np.divide(2.0 * k, steps, out=col)
        col *= f[:, k]
        col -= f[:, k + 1]
        if k - 1 in later:
            col[starts == k - 1] = 1e-300
        if np.abs(col).max() > _RESCALE:
            for i in np.flatnonzero(np.abs(col) > _RESCALE):
                f[i, k - 1:] *= 1.0 / _RESCALE  # the orders below k - 1 are still 0
    for i in np.flatnonzero(run):  # each row's own sum, in numpy's pairwise order
        row = f[i]
        row[: m_max + 1] /= row[0] + 2.0 * row[2:starts[i] + 1:2].sum()
    return f[:, : m_max + 1]


def _j_ratios(count, x):
    """rho_n = J_{n+1}(x) / J_{n+2}(x) for n < count and x != 0, by the downward
    recurrence rho_n = 2(n+2)/x - 1/rho_{n+1} from J_{s+3} = 0 at the Miller start
    s; the ratios carry no normalisation, so none underflows at high order."""
    rho, inv = np.empty(count), 0.0  # inv = 1 / rho_{n+1}
    for n in range(_start_order(count, x), -1, -1):
        r = 2.0 * (n + 2) / x - inv
        if n < count:
            rho[n] = r
        inv = 1.0 / r if r else math.inf  # x on a root of J_{n+1}: rho_{n-1} is infinite
    return rho


def _leading_term_j(m_max, xs):
    """(x/2)^m / m! for m = 0..m_max at every x of ``xs`` (all small)."""
    out = np.ones((len(xs), m_max + 1))
    out[:, 1:] = np.cumprod((0.5 * xs)[:, None] / np.arange(1, m_max + 1), axis=1)
    return out


def _i_series(m, x):
    """Ascending series for I_m(x); all terms positive, no cancellation."""
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    xh = 0.5 * x
    t = math.exp(m * math.log(xh) - math.lgamma(m + 1))
    s = t
    k = 0
    while t > 1e-18 * s and k < 600:
        k += 1
        t *= xh * xh / (k * (k + m))
        s += t
    return s


def bessel_j_rows(m_max, xs):
    """Evaluate J_0(x) .. J_{m_max}(x) at every argument of ``xs``.

    One downward Miller pass runs over all arguments at once; each keeps
    its own start order and rescaling, so row i is bitwise what a pass at
    xs[i] alone gives, and :func:`bessel_j_all` is the one-row case.
    Arguments with |x| < 2^-30 take the leading series term instead.

    Parameters
    ----------
    m_max : int
        Highest order.  The certified 1e-12 accuracy holds through order
        200; beyond that, deep-tail values may underflow to zero.
    xs : array_like
        One-dimensional arguments with |x| <= 50.  Negative arguments are
        folded back with the parity J_m(-x) = (-1)^m J_m(x).

    Returns
    -------
    ndarray
        Shape (len(xs), m_max + 1); row i is bitwise ``bessel_j_all(m_max, xs[i])``.
        It may be a view of the recurrence's working array, which runs past
        m_max to the highest start order, so that no second table of its
        size is made; copy it for a contiguous array.
    """
    _check_order(m_max)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise RangeError(f"arguments must be one-dimensional, got shape {xs.shape}")
    over = ~(np.abs(xs) <= MAX_ARGUMENT)
    if over.any():
        raise RangeError(f"|argument| {abs(xs[over][0])} exceeds supported maximum "
                         f"{MAX_ARGUMENT}")
    ax = np.abs(xs)
    out = _miller_j(m_max, ax)
    tiny = ax < _LEADING_TERM_CUTOFF
    out[tiny] = _leading_term_j(m_max, ax[tiny])
    for i in np.flatnonzero(xs < 0.0):
        out[i, 1::2] *= -1.0
    return out


def bessel_j_all(m_max, x):
    """Evaluate J_0(x) .. J_{m_max}(x) in a single downward pass.

    The one-argument case of :func:`bessel_j_rows`, with the same order
    and argument range.
    """
    return bessel_j_rows(m_max, [float(x)])[0]


def bessel_i(m, x):
    """Modified Bessel function of the first kind I_m(x).

    Supported for integer 0 <= m <= 200 and 0 <= x <= 50; relative
    accuracy better than 1e-12.
    """
    _check_order(m)
    if m > MAX_ORDER:
        raise RangeError(f"order {m} exceeds supported maximum {MAX_ORDER}")
    x = float(x)
    if not 0.0 <= x <= MAX_ARGUMENT:
        raise RangeError(f"argument {x} outside supported range [0, {MAX_ARGUMENT}]")
    return _i_series(m, x)

