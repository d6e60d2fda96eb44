"""Bessel functions of the first kind, ordinary and modified.

Self-contained evaluators for J_m(x) and I_m(x) at non-negative integer
order, accurate to better than 1e-12 relative over the supported range
(order <= 200, |argument| <= 50).  J_m uses Miller's downward recurrence
normalised with the even-order sum identity

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
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise RangeError(f"order must be a non-negative integer, got {m!r}")
    if m > MAX_ORDER:
        raise RangeError(f"order {m} exceeds supported maximum {MAX_ORDER}")


def _start_order(m, x):
    # Seed the downward recurrence far enough above max(order, argument)
    # that the admixture of the dominant solution, which shrinks like
    # (e*x / 2k)^(2k), is below 1e-14 everywhere in the supported range.
    return m + max(50, int(math.ceil(2.5 * abs(x))))


def _miller_j(tops, xs):
    """J_0..J_{tops[i]} at every x = xs[i] (all > 0) from one downward pass.

    Row i is seeded at its own start order and rescaled on its own, so it
    is bitwise the single-argument recurrence at xs[i] to order tops[i];
    the rows only share the loop over k.  Rows are taken in order of
    falling start, so the rows under way at step k are a leading block.
    Returns shape (len(xs), max(tops) + 1); entries past a row's own top
    order are the caller's to clear.
    """
    starts = np.array([_start_order(int(t), x) for t, x in zip(tops, xs)])
    starts += starts % 2
    order = np.argsort(-starts, kind="stable")
    starts, xs = starts[order], xs[order]
    f = np.zeros((len(xs), starts[0] + 2))
    f[np.arange(len(xs)), starts] = 1e-300
    live = 0
    for k in range(starts[0], 0, -1):
        while live < len(xs) and starts[live] >= k:
            live += 1
        col = f[:live, k - 1]
        np.divide(2.0 * k, xs[:live], out=col)
        col *= f[:live, k]
        col -= f[:live, k + 1]
        if np.abs(col).max() > _RESCALE:
            f[:live][np.abs(col) > _RESCALE] *= 1.0 / _RESCALE
    # each row's own sum, so numpy's pairwise order matches the scalar one
    s = np.array([row[0] + 2.0 * row[2:start + 1:2].sum() for row, start in zip(f, starts)])
    top = int(tops.max())
    out = np.empty((len(xs), top + 1))
    out[order] = f[:, : top + 1] / s[:, None]
    return out


def _leading_term_j(m_max, xs):
    """(x/2)^m / m! for m = 0..m_max at every x of ``xs`` (all small and nonzero)."""
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
    Arguments with 0 < |x| < 2^-30 take the leading series term instead.

    Parameters
    ----------
    m_max : int or array_like of int
        Highest order, for every row or one per argument.  The certified
        1e-12 accuracy holds through order 200; beyond that, deep-tail
        values may underflow to zero.
    xs : array_like
        One-dimensional arguments with |x| <= 50.  Negative arguments are
        folded back with the parity J_m(-x) = (-1)^m J_m(x).

    Returns
    -------
    ndarray
        Shape (len(xs), max(m_max) + 1); row i holds orders 0..m_max[i] at
        xs[i], bitwise ``bessel_j_all(m_max[i], xs[i])``, and zeros above.
    """
    tops = np.asarray(m_max)
    if tops.dtype.kind not in "iu" or tops.ndim > 1 or (tops < 0).any():
        raise RangeError(f"order must be a non-negative integer, got {m_max!r}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise RangeError(f"arguments must be one-dimensional, got shape {xs.shape}")
    if tops.ndim and tops.shape != xs.shape:
        raise RangeError(f"{tops.size} top orders for {xs.size} arguments")
    over = ~(np.abs(xs) <= MAX_ARGUMENT)
    if over.any():
        raise RangeError(f"|argument| {abs(xs[over][0])} exceeds supported maximum "
                         f"{MAX_ARGUMENT}")
    top = int(tops.max(initial=0))
    tops = np.broadcast_to(tops, xs.shape)
    out = np.zeros((len(xs), top + 1))
    out[xs == 0.0, 0] = 1.0
    tiny = (xs != 0.0) & (np.abs(xs) < _LEADING_TERM_CUTOFF)
    out[tiny] = _leading_term_j(top, np.abs(xs[tiny]))
    live = np.abs(xs) >= _LEADING_TERM_CUTOFF
    if live.any():
        rows = _miller_j(tops[live], np.abs(xs[live]))
        out[live, : rows.shape[1]] = rows
    out[xs < 0.0, 1::2] *= -1.0
    out[np.arange(top + 1) > tops[:, None]] = 0.0
    return out


def bessel_j_all(m_max, x):
    """Evaluate J_0(x) .. J_{m_max}(x) in a single downward pass.

    The one-argument case of :func:`bessel_j_rows`, with the same order
    and argument range.
    """
    return bessel_j_rows(m_max, [float(x)])[0]


def bessel_j(m, x):
    """Bessel function of the first kind J_m(x).

    Supported for integer 0 <= m <= 200 and |x| <= 50; relative accuracy
    better than 1e-12 (absolute better than 1e-14 where the value itself
    is below 1e-2).
    """
    _check_order(m)
    return float(bessel_j_all(m, x)[m])


def bessel_i(m, x):
    """Modified Bessel function of the first kind I_m(x).

    Supported for integer 0 <= m <= 200 and 0 <= x <= 50; relative
    accuracy better than 1e-12.
    """
    _check_order(m)
    x = float(x)
    if not 0.0 <= x <= MAX_ARGUMENT:
        raise RangeError(f"argument {x} outside supported range [0, {MAX_ARGUMENT}]")
    return _i_series(m, x)

