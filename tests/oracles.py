"""Extended-precision series oracles, independent of the library code,
the dense matrix exponential, a linear scan for the reordering check's
guard, a Miller pass that sorts its rows by start, and the tests' one
memory probe.

Both Bessel kinds are summed directly from their ascending power series
with mpmath at a working precision padded well past the worst alternating
cancellation in the checked range, so these values are trustworthy to far
better than the tolerances they back.
"""

import math
import tracemalloc

import numpy as np
import scipy.linalg
import scipy.special
from mpmath import mp

from focklat.errors import NumericError


def expm(op, scale=1.0):
    """Dense matrix exponential exp(scale * op) of a banded operator, as an ndarray.

    Uses scaling-and-squaring with a Pade approximant, so non-normal
    inputs (the raising/lowering generators) are handled correctly; no
    eigendecomposition is involved.  The library's exponentials are
    nilpotent ladder sums, diagonals, or tridiagonal and real
    skew-symmetric ones with their own methods; this is their reference.
    """
    mat = op.to_dense()
    scale = complex(scale)
    if not np.all(np.isfinite(mat.view(float))) or not np.isfinite(abs(scale)):
        raise NumericError("operator contains non-finite entries")
    return scipy.linalg.expm(mat * scale)


def guard_log_bound(params, k, keep):
    """log of the antinormal-first tail bound t_k / (1 - rho_k) on the compared
    ``keep`` x ``keep`` block, at each level of ``k`` (each k >= keep - 1).

    t_k = max over m, n < keep of C(k, m) C(k, n) |B-|^(k-m) |B+|^(k-n)
    |B0|^(k+1/2), and rho_k = q ((k+1) / (k+2-keep))^2 with q = |B+ B- B0|;
    inf where rho_k >= 1.  log n! is scipy's gammaln, on the whole grid at once.
    """
    k = np.asarray(k, dtype=float)[:, None]
    m = np.arange(keep)[None, :]
    lf = scipy.special.gammaln
    logc = lf(k + 1) - lf(m + 1) - lf(k - m + 1)
    log_t = sum((logc + (k - m) * math.log(abs(x))).max(axis=1)
                for x in (params.minus, params.plus))
    log_t = log_t + (k[:, 0] + 0.5) * math.log(abs(params.zero))
    q = abs(params.plus * params.minus * params.zero)
    rho = q * ((k[:, 0] + 1) / (k[:, 0] + 2 - keep)) ** 2
    shrinks = rho < 1
    return np.where(shrinks, log_t - np.log1p(-np.where(shrinks, rho, 0.0)), np.inf)


def guard_scan(params, keep):
    """The first level k in [max(keep, 2), 1024] at which :func:`guard_log_bound`
    is at most 2^-53, found by trying every level in turn; None if there is none."""
    k = np.arange(max(keep, 2), 1025)
    done = guard_log_bound(params, k, keep) <= -53 * math.log(2)
    return int(k[done.argmax()]) if done.any() else None


def miller_j_sorted(m_max, xs, start_order, rescale):
    """J_0..J_{m_max} at every x of ``xs`` (all > 0) from one downward pass whose rows
    are sorted by falling start, so the rows under way at step k are a leading block.

    ``start_order(m_max, x)`` gives a row's start before it is rounded up to even,
    and a row is scaled by 1 / ``rescale`` when a value passes ``rescale``.  The
    sort is undone at the end, so row i belongs to xs[i].
    """
    starts = np.array([start_order(m_max, x) for x in xs])
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
        if np.abs(col).max() > rescale:
            f[:live][np.abs(col) > rescale] *= 1.0 / rescale
    s = np.array([row[0] + 2.0 * row[2:start + 1:2].sum() for row, start in zip(f, starts)])
    rows = f[:, : m_max + 1]
    rows /= s[:, None]
    return rows[np.argsort(order)]


def peak_bytes(call):
    """Peak of the memory traced by ``tracemalloc`` while ``call()`` runs, in bytes.

    Warm the call up first, so that imports and caches stay outside the count.
    """
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def series_j(m, x, dps=60):
    """J_m(x) = sum_k (-1)^k (x/2)^(2k+m) / (k! (k+m)!), summed in mpmath.

    The stop rule is relative to the largest term seen, which is what
    bounds the truncation error of an alternating series.
    """
    with mp.workdps(dps):
        xh = mp.mpf(x) / 2
        s = mp.mpf(0)
        tmax = mp.mpf(0)
        k = 0
        while True:
            t = (-1) ** k * xh ** (2 * k + m) / (mp.factorial(k) * mp.factorial(k + m))
            s += t
            tmax = max(tmax, abs(t))
            if k > 4 and abs(t) < tmax * mp.mpf(10) ** (-(dps - 10)):
                return s
            k += 1


def series_i(m, x, dps=60):
    """I_m(x) = sum_k (x/2)^(2k+m) / (k! (k+m)!); all terms positive."""
    with mp.workdps(dps):
        xh = mp.mpf(x) / 2
        s = mp.mpf(0)
        k = 0
        while True:
            t = xh ** (2 * k + m) / (mp.factorial(k) * mp.factorial(k + m))
            s += t
            if k > 4 and t < s * mp.mpf(10) ** (-(dps - 8)):
                return s
            k += 1


def bisect_j_root(m, lo, hi, dps=40, steps=80):
    """First root of J_m inside [lo, hi] by plain bisection on the series."""
    flo = series_j(m, lo, dps=dps)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fmid = series_j(m, mid, dps=dps)
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
