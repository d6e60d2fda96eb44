"""Named verification suites behind the ``verify`` CLI command.

Each check recomputes one of the library's defining identities and
reports the measured residual against its pinned tolerance.  Residuals
are deterministic for a fixed seed, so two runs of the same suite emit
identical reports.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, fock, lattice, specfun, states
from .algebra import BCHParams, Ordering
from .errors import DimensionError, RangeError


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance


def _entrywise(a, b, keep):
    if keep < 1:
        raise DimensionError(f"dimension {a.dim} leaves no level clear of the truncation edge")
    return float(np.abs(a.mat[:keep, :keep] - b.mat[:keep, :keep]).max())


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

    # each row keeps its own top order: a common one would move the rows'
    # Miller start orders, and with them the residual
    zs = np.linspace(0.25, 10.0, 20)
    mtops = np.ceil(4 * zs).astype(int) + 60
    worst = 0.0
    for z, mtop, jv in zip(zs, mtops, specfun.bessel_j_rows(mtops + 1, 2.0 * zs)):
        m = np.arange(mtop + 1)
        total = np.sum(((m + 1) * jv[1:mtop + 2] / z) ** 2)
        worst = max(worst, abs(total - 1.0))
    out.append(CheckResult("bessel-shift-normalisation", worst, 1e-10))
    return out


def suite_algebra(dim=64, seed=12345):
    out = []
    gen = algebra.su11_generators(dim)
    ph = algebra.phase_operators(dim)
    ident = fock.identity(dim)

    c1 = fock.commutator(gen.k0, gen.kplus)
    c2 = fock.commutator(gen.k0, gen.kminus)
    c3 = fock.commutator(gen.kplus, gen.kminus)
    r = max(
        _entrywise(c1, gen.kplus, dim - c1.edge_band),
        _entrywise(c2, -1.0 * gen.kminus, dim - c2.edge_band),
        _entrywise(c3, -2.0 * gen.k0, dim - c3.edge_band),
    )
    out.append(CheckResult("su11-commutators", r, 1e-12))

    vv = ph.v @ ph.vdag
    out.append(CheckResult("right-unitarity", _entrywise(vv, ident, dim - vv.edge_band), 1e-12))

    proj = np.zeros((dim, dim), dtype=complex)
    proj[0, 0] = 1.0
    vdv = (ph.vdag @ ph.v).mat
    out.append(CheckResult("one-sided-unitarity",
                           float(np.abs(vdv - (ident.mat - proj)).max()), 0.0))

    inv = np.diag(1.0 / (np.arange(dim) + 1.0)).astype(complex)
    out.append(CheckResult("lowering-as-deformed-shift",
                           float(np.abs(inv @ gen.kminus.mat - ph.v.mat).max()), 1e-15))

    rng = np.random.default_rng(seed)
    worst_rt = 0.0
    worst_id = 0.0
    for _ in range(10):
        b = BCHParams(
            plus=0.15 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            zero=np.exp(1j * rng.uniform(-2.9, 2.9)),
            minus=0.15 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            ordering=Ordering.ANTINORMAL_FIRST,
        )
        a = algebra.bch_antinormal_to_normal(b)
        b2 = algebra.bch_normal_to_antinormal(a)
        worst_rt = max(worst_rt, abs(b2.plus - b.plus), abs(b2.zero - b.zero),
                       abs(b2.minus - b.minus))
        worst_id = max(worst_id, algebra.verify_bch(b, dim))
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
                           states.eigen_residual(ph.v, direct, np.exp(1j * phi), exclude_top=1),
                           1e-12))

    alpha = 1.5
    bg = states.bg_state(alpha, dim)
    out.append(CheckResult("bg-state-forms",
                           float(np.abs(bg - states.bg_state_ordered(alpha, dim)).max()), 1e-9))
    gen = algebra.su11_generators(dim)
    out.append(CheckResult("bg-state-eigenvalue",
                           states.eigen_residual(gen.kminus, bg, alpha, exclude_top=1), 1e-10))

    alpha = 2.0
    lon = states.london_state(alpha, dim)
    out.append(CheckResult("london-state-forms",
                           float(np.abs(lon - states.london_state_ordered(alpha, dim)).max()),
                           1e-9))
    dop = states.deformed_annihilation(alpha, dim)
    out.append(CheckResult("london-state-eigenvalue",
                           states.eigen_residual(dop, lon, alpha, exclude_top=1), 1e-8))

    # the same deformed operator written through (K0, K-) instead of (n, a)
    jv = specfun.bessel_j_all(dim + 1, 2.0 * alpha)
    n = np.arange(dim)
    k0diag = n + 0.5
    f = alpha * jv[(k0diag + 0.5).astype(int)] / ((k0diag + 1.5) * jv[(k0diag + 1.5).astype(int)])
    alt = fock.TruncatedOperator(np.diag(f) @ gen.kminus.mat, edge_band=0)
    out.append(CheckResult("deformed-operator-forms",
                           float(np.abs(alt.mat - dop.mat).max()), 1e-12))

    pere = states.su11_perelomov_state(1.0 + 1.0j, 0.5, 128)
    out.append(CheckResult("displaced-vacuum-normalisation",
                           abs(fock.norm_sq(pere) - 1.0), 1e-10))
    return out


def suite_lattice(dim=64, seed=12345):
    out = []

    uni = lattice.LatticeSpec(lattice.LatticeKind.UNIFORM, dim)
    res = lattice.propagate(uni, fock.vacuum(dim), zmax=2.0, samples=100)
    out.append(CheckResult("uniform-impulse", lattice.compare_to_oracle(res, uni), 1e-8))
    out.append(CheckResult("uniform-norm-drift", res.norm_drift, 1e-10))

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
    """Run one named suite (or ``all``) and return its check results."""
    if name == "all":
        results = []
        for key in ("specfun", "algebra", "states", "lattice"):
            results.extend(SUITES[key](dim=dim, seed=seed))
        return results
    if name not in SUITES:
        raise RangeError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](dim=dim, seed=seed)
