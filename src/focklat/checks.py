"""Named verification suites behind the ``verify`` CLI command.

Each check recomputes one of the library's defining identities and
reports the measured residual against its pinned tolerance.  Residuals
are deterministic for a fixed seed, so two runs of the same suite emit
identical reports.  ``dim`` (``verify --dim``) sizes every ``algebra`` and
``states`` check and the uniform ``lattice`` (the SU(1,1) one has 200
guides); ``specfun`` ignores it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, fock, lattice, specfun, states
from .algebra import BCHParams, Ordering
from .errors import FocklatError, RangeError


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance


def _entrywise(a, b):
    """Largest |<i|A - B|j>| over all levels."""
    return max((float(np.abs(d).max()) for d in (a - b).diagonals.values()), default=0.0)


def reordering_check(params, dim):
    """``(converted, round_trip, identity)`` at one parameter set: the parameters in the
    other ordering, the largest deviation of the map there and back, and the residual of
    :func:`algebra.verify_bch`."""
    maps = (algebra.bch_antinormal_to_normal, algebra.bch_normal_to_antinormal)
    there, back = maps if params.ordering is Ordering.ANTINORMAL_FIRST else maps[::-1]
    converted = there(params)
    again = back(converted)
    round_trip = max(abs(getattr(again, f) - getattr(params, f)) for f in ("plus", "zero", "minus"))
    return converted, round_trip, algebra.verify_bch(params, dim)


def suite_specfun(dim=64, seed=12345):
    out = []

    xs = np.linspace(0.1, 20.0, 41)
    jv = specfun.bessel_j_rows(61, xs)
    m = np.arange(1, 61)
    r = np.abs(jv[:, :-2] + jv[:, 2:] - (2.0 * m / xs[:, None]) * jv[:, 1:-1])
    worst = float((r / np.maximum(1.0, np.abs(jv[:, 1:-1]))).max())
    out.append(CheckResult("bessel-recurrence", worst, 1e-11))

    worst = 0.0
    for jv in specfun.bessel_j_rows(120, np.linspace(0.0, 20.0, 41)):
        worst = max(worst, abs(jv[0] + 2.0 * jv[2::2].sum() - 1.0))
    out.append(CheckResult("bessel-even-sum", worst, 1e-10))

    zs = np.linspace(0.25, 10.0, 20)
    mtops = np.ceil(4 * zs).astype(int) + 60
    worst = 0.0
    for z, mtop, jv in zip(zs, mtops, specfun.bessel_j_rows(int(mtops.max()) + 1, 2.0 * zs)):
        m = np.arange(mtop + 1)
        total = np.sum(((m + 1) * jv[1:mtop + 2] / z) ** 2)
        worst = max(worst, abs(total - 1.0))
    out.append(CheckResult("bessel-shift-normalisation", worst, 1e-10))
    return out


def suite_algebra(dim=64, seed=12345):
    gen = algebra.su11_generators(dim)
    ph = algebra.phase_operators(dim)
    ident = fock.identity(dim)

    # the truncation breaks [K+, K-] = -2 K0 and V Vdag = 1 on the top level
    # alone, by N^2 |N-1><N-1| and -|N-1><N-1|
    proj = fock.TruncatedOperator(dim, {0: fock.vacuum(dim)})  # |0><0|
    top = fock.TruncatedOperator(dim, {0: fock.basis_state(dim, dim - 1)})  # |N-1><N-1|
    r = max(
        _entrywise(fock.commutator(gen.k0, gen.kplus), gen.kplus),
        _entrywise(fock.commutator(gen.k0, gen.kminus), -1.0 * gen.kminus),
        _entrywise(fock.commutator(gen.kplus, gen.kminus),
                   -2.0 * gen.k0 + float(dim) ** 2 * top),
    )
    out = [CheckResult("su11-commutators", r, 1e-12)]

    out.append(CheckResult("right-unitarity", _entrywise(ph.v @ ph.vdag, ident - top), 1e-12))

    out.append(CheckResult("one-sided-unitarity", _entrywise(ph.vdag @ ph.v, ident - proj), 0.0))

    inv = fock.TruncatedOperator(dim, {0: 1.0 / (np.arange(dim) + 1.0)})
    out.append(CheckResult("lowering-as-deformed-shift",
                           _entrywise(inv @ gen.kminus, ph.v), 1e-15))

    rng = np.random.default_rng(seed)
    worst_rt = 0.0
    worst_id = 0.0
    for draw in range(10):
        b = BCHParams(
            plus=0.15 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            zero=np.exp(1j * rng.uniform(-2.9, 2.9)),
            minus=0.15 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            ordering=Ordering.ANTINORMAL_FIRST,
        )
        try:
            _, round_trip, identity = reordering_check(b, dim)
        except FocklatError as exc:  # say which of the suite's own parameters were refused
            xs = ", ".join(f"{name} = {v.real:.6g}{v.imag:+.6g}i"
                           for name, v in (("X+", b.plus), ("X0", b.zero), ("X-", b.minus)))
            raise type(exc)(f"reordering draw {draw} ({xs}): {exc}") from exc
        worst_rt = max(worst_rt, round_trip)
        worst_id = max(worst_id, identity)
    out.append(CheckResult("bch-round-trip", worst_rt, 1e-13))
    out.append(CheckResult("bch-identity-random", worst_id, 1e-9))

    phase_params = BCHParams(plus=1.0, zero=np.exp(0.7j), minus=0.0,
                             ordering=Ordering.ANTINORMAL_FIRST)
    out.append(CheckResult("bch-identity-phase-state",
                           algebra.verify_bch(phase_params, dim), 1e-9))

    out.append(CheckResult("rotation-conjugation",
                           algebra.rotation_conjugation_check(1.0, dim), 1e-9))
    return out


def suite_states(dim=64, seed=12345):
    out = []

    phi = 0.7
    direct = states.phase_state(phi, dim)
    ordered = states.phase_state_perelomov(phi, dim)
    out.append(CheckResult("phase-state-forms", float(np.abs(direct - ordered).max()), 1e-8))
    ph = algebra.phase_operators(dim)
    out.append(CheckResult("phase-state-eigenvalue",
                           states.eigen_residual(ph.v, direct, np.exp(1j * phi)),
                           1e-12))

    alpha = 1.5
    bg = states.bg_state(alpha, dim)
    out.append(CheckResult("bg-state-forms",
                           float(np.abs(bg - states.bg_state_ordered(alpha, dim)).max()), 1e-9))
    gen = algebra.su11_generators(dim)
    out.append(CheckResult("bg-state-eigenvalue",
                           states.eigen_residual(gen.kminus, bg, alpha), 1e-10))

    alpha = 2.0
    lon = states.london_state(alpha, dim)
    out.append(CheckResult("london-state-forms",
                           float(np.abs(lon - states.london_state_ordered(alpha, dim)).max()),
                           1e-9))
    dop = states.deformed_annihilation(alpha, dim)
    out.append(CheckResult("london-state-eigenvalue",
                           states.eigen_residual(dop, lon, alpha), 1e-8))

    # the same operator through (K0, K-), f(K0) K- with f = alpha rho_{K0-1/2} / (K0 + 3/2)
    f = alpha * specfun._j_ratios(dim, 2.0 * alpha) / (np.arange(dim) + 2.0)
    alt = fock.TruncatedOperator(dim, {0: f}) @ gen.kminus
    out.append(CheckResult("deformed-operator-forms", _entrywise(alt, dop), 1e-12))

    # at k = 1/2 the squared amplitudes sech^2 r tanh^{2m} r sum to 1 - tanh^{2 dim} r, r = |alpha|
    norm_sq = fock.norm_sq(states.su11_perelomov_state(1.0 + 1.0j, 0.5, dim))
    out.append(CheckResult("displaced-vacuum-normalisation",
                           abs(norm_sq - (1.0 - math.tanh(abs(1.0 + 1.0j)) ** (2 * dim))), 1e-10))
    return out


def suite_lattice(dim=64, seed=12345):
    out = []

    uni = lattice.LatticeSpec(lattice.LatticeKind.UNIFORM, dim)
    res = lattice.propagate(uni, fock.vacuum(dim), zmax=2.0, samples=100)
    out.append(CheckResult("uniform-impulse", lattice.compare_to_oracle(res, uni), 1e-8))
    out.append(CheckResult("uniform-norm-drift", res.norm_drift, 1e-10))
    del res  # one propagation alive at a time

    su = lattice.LatticeSpec(lattice.LatticeKind.SU11, 200)
    res = lattice.propagate(su, fock.vacuum(200), zmax=1.0, samples=100)
    out.append(CheckResult("su11-impulse", lattice.compare_to_oracle(res, su), 1e-8))
    out.append(CheckResult("su11-norm-drift", res.norm_drift, 1e-10))

    worst = 0.0
    for prof in lattice.impulse_profiles(uni, np.linspace(0.5, 5.0, 10)):
        worst = max(worst, abs(float(np.sum(np.abs(prof) ** 2)) - 1.0))
    out.append(CheckResult("uniform-analytic-normalisation", worst, 1e-10))
    return out


SUITES = {
    "specfun": suite_specfun,
    "algebra": suite_algebra,
    "states": suite_states,
    "lattice": suite_lattice,
}


def run_suite(name, dim=64, seed=12345):
    """Run one named suite (or ``all``) and return its check results; ``seed`` is a
    non-negative integer, not a bool."""
    dim = fock._check_dim(dim)
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise RangeError(f"seed must be a non-negative integer, got {seed!r}")
    if name == "all":
        return [result for suite in SUITES.values() for result in suite(dim=dim, seed=seed)]
    if name not in SUITES:
        raise RangeError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](dim=dim, seed=seed)
