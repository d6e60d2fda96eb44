"""Constructors for the coherent-state families and their residual checks.

Each family comes in a direct amplitude form and, where applicable, an
ordered-exponential form.  The phase and BG ordered products are
normal-ordered: a raising (lower-triangular) exponential, a diagonal one
and a lowering (upper-triangular) one, acting on the vacuum.  A lowering
factor maps the first dim levels into themselves and a raising one never
moves a higher level down into them, so the product of the factors
truncated to dim levels gives exactly the first dim amplitudes of the
untruncated product: no guard levels are needed.  Their ladder factors are
nilpotent, so each exponential is a finite Taylor sum, applied term by
term as a ladder shift (:func:`_ladder_exp`).  The London state,
exp(alpha (Vdag - V))|0>, mixes raising and lowering and is the real
exponential of the skew-symmetric Vdag - V on a guarded space
(:func:`algebra.shift_exponential`).  ``eigen_residual`` gives a uniform
way to test the eigenvalue relations the states satisfy.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock, specfun
from .algebra import _two_prod, shift_exponential
from .errors import BesselRootError, DimensionError, NumericError, RangeError
from .fock import TruncatedOperator

MAX_ALPHA = 20.0  # keeps Bessel arguments 2|alpha| inside the table range

_TWO_PI = 2.0 * math.pi


class StateFamily(Enum):
    PHASE = "phase"
    BARUT_GIRARDELLO = "bg"
    LONDON = "london"
    SU11_PERELOMOV = "su11"


@dataclass(frozen=True)
class StateSpec:
    """Family, parameter and space size, as accepted by the CLI."""

    family: StateFamily
    param: complex
    dim: int
    bargmann_k: float = 0.5


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise DimensionError(f"state needs dimension >= 2, got {dim!r}")
    if dim > fock.MAX_DIM:
        raise RangeError(f"state dimension {dim} exceeds {fock.MAX_DIM}")
    return int(dim)


def _check_alpha(alpha):
    if not abs(alpha) <= MAX_ALPHA:
        raise RangeError(f"|alpha| = {abs(alpha)} exceeds supported maximum {MAX_ALPHA}")
    return alpha


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


def _ladder_exp(vec, x, weights, raising):
    """exp(x L) vec for the ladder L|n> = weights[n] |n +- 1> on len(vec) levels.

    ``raising`` picks |n + 1> (the top level is shifted out) or |n - 1>
    (level 0 is).  L is nilpotent, so the Taylor sum is finite: its terms
    x^j L^j vec / j! are formed one shift at a time, and the sum stops at
    the first term that is exactly zero.  Each shift touches only the span
    of levels where the term can be nonzero, so a narrow support costs
    O(len(vec)) in all rather than O(len(vec)^2).
    """
    n = len(vec)
    out = vec.copy()
    live = np.flatnonzero(vec)
    if live.size == 0:
        return out
    lo, hi = live[0], live[-1] + 1  # the term is zero outside levels [lo, hi)
    term = vec[lo:hi]
    for j in range(1, n):
        if raising:  # level k takes level k - 1; the top level is shifted out
            top = min(hi, n - 1)
            term = term[:top - lo] * (weights[lo:top] / j) * x
            lo, hi = lo + 1, top + 1
        else:  # level k takes level k + 1; level 0 is shifted out
            bottom = max(lo, 1)
            term = term[bottom - lo:] * (weights[bottom:hi] / j) * x
            lo, hi = bottom - 1, hi - 1
        if not term.any():
            break
        out[lo:hi] += term
    return out


def phase_state_perelomov(phi, dim):
    """Phase state built as an ordered product of group exponentials,

        (1/sqrt(2 pi)) exp(e^{i phi} K+) exp(i phi K0) exp(-e^{-i phi} K-) |0>,

    on exactly dim levels.  The product is raising times diagonal times
    lowering on the vacuum, so its truncation is exact (module docstring).
    exp(i phi K0) is the exponentials of its diagonal, and the K- and K+
    factors are finite ladder sums (:func:`_ladder_exp`).  Agrees with
    :func:`phase_state` to rounding.
    """
    dim = _check_dim(dim)
    phases = _phase_factors(float(phi), dim)
    n = np.arange(dim, dtype=float)
    u = _ladder_exp(fock.vacuum(dim), -np.exp(-1j * phi), n, raising=False)  # <n-1|K-|n> = n
    u = phases * u
    u = _ladder_exp(u, np.exp(1j * phi), n + 1, raising=True)  # <n+1|K+|n> = n + 1
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
    truncation is exact (module docstring), and both factors are finite
    ladder sums (:func:`_ladder_exp`).
    """
    dim = _check_dim(dim)
    alpha = _check_alpha(complex(alpha))
    ones = np.ones(dim)
    u = _ladder_exp(fock.vacuum(dim), -np.conj(alpha), ones, raising=False)
    u = _ladder_exp(u, alpha, ones, raising=True)
    return u / math.sqrt(specfun.bessel_i(0, 2.0 * abs(alpha)))


def london_state(alpha, dim):
    """Shift-operator coherent state with amplitudes

        c_j = (j + 1) J_{j+1}(2 alpha) / alpha,   alpha real,

    continued to the vacuum at alpha = 0 (the amplitudes are 0/0 there,
    but the limit is regular).
    """
    dim = _check_dim(dim)
    if complex(alpha).imag != 0.0:
        raise RangeError("london_state takes a real parameter")
    alpha = float(np.real(alpha))
    _check_alpha(alpha)
    if alpha == 0.0:
        return fock.vacuum(dim)
    j = np.arange(dim)
    jv = specfun.bessel_j_all(dim, 2.0 * alpha)
    return ((j + 1) * jv[1:] / alpha).astype(complex)


def london_state_ordered(alpha, dim, guard=None):
    """London state via exp(alpha (Vdag - V)) |0> in a guarded space.

    The state is column 0 of the real exponential of the skew-symmetric
    alpha (Vdag - V) on dim + guard levels (:func:`shift_exponential`),
    cut back to dim and cast to complex.  The default guard,
    ceil(2 e |alpha|) + 32 levels, keeps the reflection from the top of
    the working space out of the retained amplitudes.
    """
    dim = _check_dim(dim)
    if complex(alpha).imag != 0.0:
        raise RangeError("london_state takes a real parameter")
    alpha = float(np.real(alpha))
    _check_alpha(alpha)
    if guard is None:
        guard = int(math.ceil(2.0 * abs(alpha) * math.e)) + 32
    return shift_exponential(alpha, dim + int(guard))[:dim, 0].astype(complex)


def deformed_annihilation(alpha, dim, root_tol=1e-10):
    """Lowering operator whose eigenstate is :func:`london_state`,

        <n|C|n+1> = alpha J_{n+1}(2 alpha) / ((n+2) J_{n+2}(2 alpha)) * (n+1).

    Raises :class:`BesselRootError` when some J_{n+2}(2 alpha) sits on a
    root: the ratio test compares it against its neighbouring orders, so
    the benign super-exponential decay of high orders at small argument
    does not trip the guard.
    """
    dim = _check_dim(dim)
    if complex(alpha).imag != 0.0:
        raise RangeError("deformed_annihilation takes a real parameter")
    alpha = float(np.real(alpha))
    _check_alpha(alpha)
    jv = specfun.bessel_j_all(dim + 1, 2.0 * alpha) if alpha != 0.0 else np.zeros(dim + 2)
    for n in range(dim - 1):
        neighbour = max(abs(jv[n + 1]), abs(jv[n + 3])) if n + 3 <= dim + 1 else abs(jv[n + 1])
        if abs(jv[n + 2]) <= root_tol * neighbour:
            raise BesselRootError(
                f"2*alpha = {2 * alpha} is too close to a root of J_{n + 2}; "
                f"the deformed lowering operator is singular at level n = {n}",
                level=n,
            )
    n = np.arange(dim - 1)
    sub = alpha * jv[n + 1] / ((n + 2) * jv[n + 2]) * (n + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[n, n + 1] = sub
    return TruncatedOperator(mat, edge_band=0)


def su11_perelomov_state(alpha, k, dim):
    """Group-displaced vacuum at Bargmann index k,

        c_m = (1 - |mu|^2)^k sqrt(Gamma(2k + m) / (m! Gamma(2k))) mu^m

    with mu = (alpha/|alpha|) tanh|alpha| (mu = 0 at alpha = 0).  The
    prefactor is taken as cosh|alpha|^(-2k): 1 - tanh^2 cancels, losing all
    its digits by |alpha| = 19 and reaching 0 at 20.  Gamma ratios go
    through log-gamma differences so large m cannot overflow.
    """
    dim = _check_dim(dim)
    alpha = _check_alpha(complex(alpha))
    if not (math.isfinite(k) and k > 0):
        raise RangeError(f"Bargmann index must be positive and finite, got {k}")
    if alpha == 0:
        return fock.vacuum(dim)
    mu = (alpha / abs(alpha)) * math.tanh(abs(alpha))
    m = np.arange(dim)
    lg = np.array([math.lgamma(2 * k + mm) - math.lgamma(mm + 1) for mm in m])
    with np.errstate(all="ignore"):  # overflow at huge k is caught below
        lg -= math.lgamma(2 * k)
        out = math.cosh(abs(alpha)) ** (-2.0 * k) * np.exp(0.5 * lg) * mu**m
    if not np.all(np.isfinite(out.view(float))):
        raise NumericError(f"displaced-vacuum amplitudes are not finite at k = {k}")
    return out


def eigen_residual(op, vec, eigenvalue, exclude_top=0):
    """Relative eigenvalue defect ||(op v - lambda v)|_{kept}|| / ||v||.

    The top ``exclude_top`` components are dropped before taking the norm,
    since the truncated ladder always breaks the relation at the boundary.
    """
    v = np.asarray(vec, dtype=complex)
    if v.shape[0] != op.dim:
        raise DimensionError(f"state dimension {v.shape[0]} does not match operator {op.dim}")
    keep = op.dim - int(exclude_top)
    r = op.apply(v) - complex(eigenvalue) * v
    return float(np.linalg.norm(r[:keep]) / np.linalg.norm(v))


def build_state(spec):
    """Construct the amplitudes described by a :class:`StateSpec`."""
    if spec.family is StateFamily.PHASE:
        if complex(spec.param).imag != 0.0:
            raise RangeError("phase-state angle must be real")
        return phase_state(float(np.real(spec.param)), spec.dim)
    if spec.family is StateFamily.BARUT_GIRARDELLO:
        return bg_state(spec.param, spec.dim)
    if spec.family is StateFamily.LONDON:
        return london_state(spec.param, spec.dim)
    if spec.family is StateFamily.SU11_PERELOMOV:
        return su11_perelomov_state(spec.param, spec.bargmann_k, spec.dim)
    raise RangeError(f"unknown state family {spec.family!r}")
