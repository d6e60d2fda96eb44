"""Constructors for the coherent-state families and their residual checks.

Each family comes in a direct amplitude form and, where applicable, an
ordered-exponential form.  The phase and BG ordered products are
normal-ordered: a raising (lower-triangular) exponential, a diagonal one
and a lowering (upper-triangular) one, acting on the vacuum.  A lowering
factor maps the first dim levels into themselves and a raising one never
moves a higher level down into them, so the product of the factors
truncated to dim levels gives exactly the first dim amplitudes of the
untruncated product: no guard levels are needed.  Their ladder factors are
nilpotent, so each factor's action on the vacuum is read off its exact
table: a lowering factor fixes |0>, the diagonal one scales it by its
level-0 entry, and a raising factor gives its vacuum column, a finite
Taylor sum (:func:`_raising_column`).  The London state,
exp(alpha (Vdag - V))|0>, mixes raising and lowering: it is the first
column of the one spectral kernel for that exponential, the rotation
check's left side (:func:`algebra._rotated_exponential`), on the levels the
Bessel image bound asks for, which follow |alpha| rather than dim
(:func:`london_state_ordered`).  ``eigen_residual`` gives a
uniform way to test the eigenvalue relations the states satisfy.

The London and SU(1,1) closed forms are written once each, as real rows
batched over the parameter (:func:`_london_rows`, :func:`_su11_rows`).
The states are one row each; the waveguide lattices' impulse responses
are the same rows times i^m (:mod:`focklat.lattice`), since the arrays
"are solved through the use of nonlinear coherent states of SU(1,1) or
the exponential phase operator".
"""

import cmath
import math

import numpy as np

from . import fock, specfun
from .algebra import _bessel_top, _rotated_exponential, _two_prod
from .errors import BesselRootError, NumericError, RangeError
from .fock import TruncatedOperator, _check_dim

# deformed_annihilation's operator is singular where |J_{n+2}(2 alpha)| is at most this
# fraction of a neighbouring order: |J_{n+1} / J_{n+2}| >= 1/_ROOT_TOL or |J_{n+2} / J_{n+3}| <= it
_ROOT_TOL = 1e-10

_TWO_PI = 2.0 * math.pi

# _su11_rows forms its rows this many at a time, so that beside the table it
# holds one small block of powers and numpy's buffers for it
_SU11_BLOCK = 8


def _check_alpha(alpha):
    top = 0.5 * specfun.MAX_ARGUMENT  # the London rows and I_0 take 2|alpha| up to the limit
    if not abs(alpha) <= top:
        raise RangeError(f"|alpha| = {abs(alpha)} exceeds supported maximum {top}")
    return alpha


def _real_alpha(alpha, caller):
    if complex(alpha).imag != 0.0:
        raise RangeError(f"{caller} takes a real parameter")
    return _check_alpha(float(np.real(alpha)))


def _phase_factors(phi, dim):
    """exp(i phi (j + 1/2)) for j < dim, to rounding at any angle.

    The angle is split error-free, phi (j + 1/2) = hi + lo with hi its
    rounded value, and each part is exponentiated on its own, so the factor
    does not lose |phi| dim ulps of phase.  Above 2^900, phi is scaled by
    2^-32 (and j + 1/2 by 2^32) first, which leaves the product unchanged
    and keeps Dekker's split of phi finite.
    """
    if not math.isfinite(phi * (dim - 0.5)):
        raise RangeError(f"phase-state angle phi must keep phi * (dim - 1/2) finite, got {phi}")
    s = 2.0**-32 if abs(phi) > 2.0**900 else 1.0
    hi, lo = _two_prod(phi * s, (np.arange(dim) + 0.5) / s)
    return np.exp(1j * hi) * np.exp(1j * lo)


def phase_state(phi, dim):
    """Phase state amplitudes c_j = exp(i phi (j + 1/2)) / sqrt(2 pi).

    Deliberately not normalised: the squared norm is N / (2 pi), which the
    eigenvalue examples rely on.  Raises :class:`RangeError` unless
    phi (dim - 1/2) is finite.
    """
    dim = _check_dim(dim)
    return _phase_factors(float(phi), dim) / math.sqrt(_TWO_PI)


def _raising_column(c0, x, weights):
    """exp(x L) c0|0> for the raising ladder L|n> = weights[n] |n + 1> on len(weights) levels.

    L is nilpotent, so this is the exact finite table of the vacuum column:
    amplitude j is c0 x^j w_0 ... w_{j-1} / j!, formed from amplitude j - 1
    as ``term * (w[j-1:j] / j) * x``.  Each is added into zeros, which
    turns a -0 part into +0, and the table stops at the first amplitude
    that is exactly zero.
    """
    out = np.zeros(len(weights), dtype=complex)
    out[0] = c0
    term = out[:1]
    for j in range(1, len(weights)):
        term = term * (weights[j - 1:j] / j) * x
        if not term.any():
            break
        out[j:j + 1] += term
    return out


def phase_state_perelomov(phi, dim):
    """Phase state built as an ordered product of group exponentials,

        (1/sqrt(2 pi)) exp(e^{i phi} K+) exp(i phi K0) exp(-e^{-i phi} K-) |0>,

    on exactly dim levels.  The product is raising times diagonal times
    lowering on the vacuum, so its truncation is exact (module docstring).
    Each factor's action on the vacuum is read off its exact table: the K-
    factor fixes |0>, exp(i phi K0) multiplies it by its level-0 phase, and
    the K+ factor gives the vacuum column :func:`_raising_column`.  The
    angles :func:`phase_state` refuses raise the same :class:`RangeError`.
    Agrees with :func:`phase_state` to rounding.
    """
    dim = _check_dim(dim)
    phases = _phase_factors(float(phi), dim)
    # K-|0> = 0, so exp(-e^{-i phi} K-) leaves the vacuum as it is
    u = _raising_column(phases[0], np.exp(1j * phi), np.arange(1.0, dim + 1))  # <n+1|K+|n> = n + 1
    return u / math.sqrt(_TWO_PI)


def bg_state(alpha, dim):
    """Lowering-operator eigenstate with amplitudes

        c_j = alpha^j / (j! sqrt(I_0(2|alpha|))),

    an eigenstate of K- with eigenvalue alpha.
    """
    dim = _check_dim(dim)
    alpha = _check_alpha(complex(alpha))
    c = np.empty(dim, dtype=complex)
    c[0] = 1.0
    for j in range(1, dim):
        c[j] = c[j - 1] * alpha / j
    return c / math.sqrt(specfun.bessel_i(0, 2.0 * abs(alpha)))


def bg_state_ordered(alpha, dim):
    """Same state via the ordered product

        I_0(2|alpha|)^{-1/2} exp(alpha Vdag) exp(-conj(alpha) V) |0>,

    on exactly dim levels: raising times lowering on the vacuum, so the
    truncation is exact (module docstring).  Each factor's action on the
    vacuum is read off its exact table: the V factor fixes |0>, and the
    Vdag factor gives the vacuum column :func:`_raising_column`.
    """
    dim = _check_dim(dim)
    alpha = _check_alpha(complex(alpha))
    # V|0> = 0, so exp(-conj(alpha) V) leaves the vacuum as it is
    u = _raising_column(1.0, alpha, np.ones(dim))
    return u / math.sqrt(specfun.bessel_i(0, 2.0 * abs(alpha)))


def _london_rows(xs, dim, name):
    """Real London amplitudes (m + 1) J_{m+1}(2x) / x, m < dim, at every x of ``xs``.

    Returns shape (len(xs), dim), with no cap on dim.  x = 0 gives the
    vacuum (the amplitudes are 0/0 there, but the limit is regular), and
    0 < |x| < 2^-30 the leading term x^m / m!, which J_{m+1}(2x) / x loses
    to underflow.  Negative x needs no rule of its own: the Bessel rows
    carry the parity (-1)^(m+1) and the division by x one more sign.  The
    Bessel rows stop at |2x| = ``specfun.MAX_ARGUMENT``; a larger |x|
    raises :class:`RangeError` naming the caller's parameter ``name``.
    """
    xs = np.asarray(xs, dtype=float)
    top = 0.5 * specfun.MAX_ARGUMENT
    over = ~(np.abs(xs) <= top)
    if over.any():
        raise RangeError(f"|{name}| = {abs(xs[over][0])} exceeds {top} for the Bessel closed form")
    live = np.abs(xs) >= specfun._LEADING_TERM_CUTOFF
    # the Bessel rows are scaled in their own buffer; the other rows are
    # taken at x = 0 there, where they are 0, and written below
    out = specfun.bessel_j_rows(dim, np.where(live, 2.0 * xs, 0.0))[:, 1:]
    out *= np.arange(1, dim + 1)
    out /= np.where(live, xs, 1.0)[:, None]
    out[xs == 0.0, 0] = 1.0
    tiny = (xs != 0.0) & ~live
    out[tiny] = specfun._leading_term_j(dim - 1, 2.0 * xs[tiny])
    return out


def london_state(alpha, dim):
    """Shift-operator coherent state with amplitudes

        c_j = (j + 1) J_{j+1}(2 alpha) / alpha,   alpha real,

    one row of :func:`_london_rows`, cast to complex.
    """
    dim = _check_dim(dim)
    alpha = _real_alpha(alpha, "london_state")
    return _london_rows([alpha], dim, "alpha")[0].astype(complex)


def london_state_ordered(alpha, dim):
    """London state exp(alpha (Vdag - V)) |0> from the half spectrum of Vdag + V.

    The first column of :func:`algebra._rotated_exponential` on W levels,
    the one kernel for exp(alpha (Vdag - V)); it is exactly I at alpha = 0,
    which gives the vacuum exactly.  On W levels the exponential is
    also a Bessel image sum (:func:`algebra._shift_exponential_images`)
    whose j = 0 term is the untruncated state and whose other terms reach
    kept levels only with order >= W + 1.  With t = ``_bessel_top(2 alpha)``,
    where |J| < 2^-60, W = min(dim + g, max(2, t)): dim plus the smallest
    guard g >= 0 putting the order dim + 2g + 1 at or past t, or t levels
    when the state has died out before dim.  The amplitudes from W up are
    then at most |alpha|^m / m! < 2^-60 and are left exactly 0, so the work
    and memory follow |alpha|, not dim (W <= 100 for |alpha| <= 25).  The
    bound only sizes the space; no Bessel function is evaluated, so this
    form checks :func:`london_state` independently.
    """
    dim = _check_dim(dim)
    alpha = _real_alpha(alpha, "london_state_ordered")
    top = _bessel_top(2.0 * alpha)
    levels = min(dim + max(0, math.ceil((top - dim - 1) / 2)), max(2, top))
    out = np.zeros(dim, dtype=complex)
    out[:levels] = _rotated_exponential(alpha, levels)[:dim, 0]
    return out


def deformed_annihilation(alpha, dim):
    """Lowering operator whose eigenstate is :func:`london_state`,

        <n|C|n+1> = alpha rho_n (n+1) / (n+2),   rho_n = J_{n+1}(2 alpha) / J_{n+2}(2 alpha),

    from one downward ratio recurrence (:func:`specfun._j_ratios`), accurate at every level
    (the entries tend to n + 1).  Raises :class:`BesselRootError` at the first n < dim - 1
    whose J_{n+2}(2 alpha) is within ``_ROOT_TOL`` of a neighbouring order (n = 0 at
    alpha = 0); measured against its neighbours, the benign decay of high orders passes.
    """
    dim = _check_dim(dim)
    alpha = _real_alpha(alpha, "deformed_annihilation")
    # every J_{n+2}(0) is 0, and the recurrence divides by 2 alpha
    rho = specfun._j_ratios(dim, 2.0 * alpha) if alpha != 0.0 else np.full(dim, np.inf)
    roots = np.flatnonzero((np.abs(rho[:-1]) >= 1.0 / _ROOT_TOL) | (np.abs(rho[1:]) <= _ROOT_TOL))
    if roots.size:
        n = int(roots[0])
        raise BesselRootError(
            f"2*alpha = {2 * alpha} is too close to a root of J_{n + 2}; "
            f"the deformed lowering operator is singular at level n = {n}",
            level=n,
        )
    return TruncatedOperator(dim, {1: alpha * rho / np.arange(2, dim + 2) * np.arange(1, dim + 1)})


def _su11_rows(rs, k, dim):
    """Real SU(1,1) magnitudes at Bargmann index k, m < dim, at every r >= 0 of ``rs``,

        sech^{2k} r  sqrt(Gamma(2k + m) / (m! Gamma(2k)))  tanh^m r.

    Returns shape (len(rs), dim), with no cap on dim; r = 0 gives the
    vacuum.  The prefactor is (1 / cosh r)^{2k}, with sech r = 2 e^-r once
    cosh overflows (r past ~710.5): 1 - tanh^2 r cancels, losing all its
    digits by r = 19, and exp(-2k log cosh r) loses ulp(r) of relative
    accuracy.  tanh^m r is a real power; the phase is the caller's.
    math.cosh and math.tanh are taken per r, since numpy's can differ in
    the last bit and the CLI prints every digit.  Gamma ratios go through
    log-gamma differences so large m cannot overflow; at k = 1/2, the
    lattices' index, they are exactly 1, since lgamma(1) is 0 and 2k + m is
    m + 1.  At huge k the rows may hold inf or nan, which the caller checks.
    Each block of ``_SU11_BLOCK`` rows is its prefactors times the Gamma
    ratios, then times its powers, formed in the table itself.
    """
    pre = []
    for r in rs:
        try:
            sech = 1.0 / math.cosh(r)
        except OverflowError:  # r past ~710.5, where sech r = 2 e^-r in double precision
            sech = 2.0 * math.exp(-r)
        pre.append(sech ** (2.0 * k))
    pre = np.array(pre)
    tanh = np.array([math.tanh(r) for r in rs])
    lg = np.array([math.lgamma(2 * k + m) - math.lgamma(m + 1) for m in range(dim)])
    m = np.arange(dim)
    rows = np.empty((len(pre), dim))
    with np.errstate(all="ignore"):  # overflow at huge k
        gamma = np.exp(0.5 * (lg - math.lgamma(2 * k)))
        for b in range(0, len(rows), _SU11_BLOCK):
            block = rows[b:b + _SU11_BLOCK]
            np.multiply.outer(pre[b:b + _SU11_BLOCK], gamma, out=block)
            block *= tanh[b:b + _SU11_BLOCK, None] ** m
    return rows


def su11_perelomov_state(alpha, k, dim):
    """Group-displaced vacuum at Bargmann index k,

        c_m = (1 - |mu|^2)^k sqrt(Gamma(2k + m) / (m! Gamma(2k))) mu^m

    with mu = (alpha/|alpha|) tanh|alpha| (mu = 0 at alpha = 0): the row of
    :func:`_su11_rows` at r = |alpha|, times (alpha/|alpha|)^m.  No Bessel
    function enters, so any finite alpha is taken.
    """
    dim = _check_dim(dim)
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise RangeError(f"alpha must be finite, got {alpha}")
    if not (math.isfinite(k) and k > 0):
        raise RangeError(f"Bargmann index must be positive and finite, got {k}")
    if alpha == 0:
        return fock.vacuum(dim)
    row = _su11_rows([abs(alpha)], k, dim)[0]
    if not np.all(np.isfinite(row)):
        raise NumericError(f"displaced-vacuum amplitudes are not finite at k = {k}")
    # a running product is exact when alpha/|alpha| is +-1 or +-i; numpy's
    # complex power is not, as it goes through exp and log from m = 100
    return row * np.cumprod(np.r_[1.0, np.full(dim - 1, alpha / abs(alpha))])


def eigen_residual(op, vec, eigenvalue):
    """Relative eigenvalue defect ||(op v - lambda v)|_{kept}|| / ||v||.

    The top level is dropped before taking the norm, since the truncated
    ladder always breaks the relation there.  A state that is not one
    dimensional of length ``op.dim`` raises ``DimensionError``, a non-finite
    one ``NumericError``, and the zero state or a non-finite eigenvalue
    ``RangeError``.
    """
    v = fock._as_state(vec, op.dim)
    if not np.isfinite(v).all():
        raise NumericError("state holds non-finite amplitudes")
    eigenvalue = complex(eigenvalue)
    if not cmath.isfinite(eigenvalue):
        raise RangeError(f"eigenvalue must be finite, got {eigenvalue}")
    v_norm = np.linalg.norm(v)
    if v_norm == 0.0:
        raise RangeError("state must be nonzero")
    r = op.apply(v) - eigenvalue * v
    return float(np.linalg.norm(r[:-1]) / v_norm)
