"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them inline).
"""

import math
import time

import numpy as np
import pytest

from focklat import algebra, cli, fock, lattice, specfun, states
from focklat.algebra import BCHParams, Ordering
from focklat.lattice import LatticeKind, LatticeSpec

from oracles import series_i, series_j


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def uniform_run():
    spec = LatticeSpec(LatticeKind.UNIFORM, 64)
    t0 = time.perf_counter()
    res = lattice.propagate(spec, fock.vacuum(64), zmax=5.0, samples=200)
    return spec, res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def su11_run():
    spec = LatticeSpec(LatticeKind.SU11, 400)
    t0 = time.perf_counter()
    res = lattice.propagate(spec, fock.vacuum(400), zmax=2.0, samples=200)
    return spec, res, time.perf_counter() - t0


def test_criterion_01_uniform_impulse(uniform_run):
    spec, res, elapsed = uniform_run
    err = lattice.compare_to_oracle(res, spec)
    ok = err <= 1e-8 and elapsed <= 5.0
    assert _report(1, "uniform-lattice impulse reproduction", ok,
                   f"max_abs_err={err:.3e}, runtime={elapsed:.2f}s")


def test_criterion_02_su11_impulse(su11_run):
    spec, res, elapsed = su11_run
    err = lattice.compare_to_oracle(res, spec)
    ok = err <= 1e-8 and res.edge_leakage <= 1e-12 and elapsed <= 30.0
    assert _report(2, "growing-coupling lattice impulse reproduction", ok,
                   f"max_abs_err={err:.3e}, edge_leakage={res.edge_leakage:.3e}, "
                   f"runtime={elapsed:.2f}s")


def _draw_params(rng):
    # |X+-| uniform over the radius-0.3 disc; |X0| = 1 with the argument
    # kept inside the principal-log branch the reordering maps document
    return BCHParams(
        plus=0.3 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
        zero=np.exp(1j * rng.uniform(-2.9, 2.9)),
        minus=0.3 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
        ordering=Ordering.ANTINORMAL_FIRST,
    )


def test_criterion_03_bch_identity_entrywise():
    rng = np.random.default_rng(20240811)
    residuals = [algebra.verify_bch(_draw_params(rng), 64, edge_exclude=16)
                 for _ in range(50)]
    worst = max(residuals)
    bad = sum(r > 1e-9 for r in residuals)
    ok = worst <= 1e-9
    _report(3, "reordering identity entrywise (50 random sets)", ok,
            f"worst_norm_dev={worst:.3e}, sets_over_tol={bad}/50")
    assert ok, (
        f"{bad}/50 draws exceed 1e-9 (worst normalised deviation {worst:.3e}). "
        "Summed in extended precision on the same double parameters, the two products "
        "agree to ~1e-14 on every draw, although their terms reach ~1e10 times the O(1) "
        "entries; a miss means verify_bch cut the antinormal-first sums too early "
        "or lost digits to that cancellation."
    )


def test_criterion_03_bch_round_trip():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(50):
        b = _draw_params(rng)
        a = algebra.bch_antinormal_to_normal(b)
        back = algebra.bch_normal_to_antinormal(a)
        worst = max(worst, abs(back.plus - b.plus), abs(back.zero - b.zero),
                    abs(back.minus - b.minus))
    ok = worst <= 1e-13
    assert _report(3, "reordering parameter maps round-trip", ok, f"worst={worst:.3e}")


def test_criterion_04_phase_state_equivalence():
    worst_form = 0.0
    worst_eig = 0.0
    for phi in (0.0, 0.7, 2.0, math.pi - 0.1):
        direct = states.phase_state(phi, 32)
        ordered = states.phase_state_perelomov(phi, 32)
        worst_form = max(worst_form, float(np.abs(direct - ordered).max()))
        ph = algebra.phase_operators(32)
        worst_eig = max(worst_eig, states.eigen_residual(
            ph.v, direct, np.exp(1j * phi), exclude_top=1))
    ok = worst_form <= 1e-8 and worst_eig <= 1e-12
    assert _report(4, "phase-state forms and shift eigenvalue", ok,
                   f"worst_form_dev={worst_form:.3e}, worst_eigen_res={worst_eig:.3e}")


def test_criterion_05_eigenvalue_relations():
    worst = 0.0
    gen = algebra.su11_generators(64)
    for alpha in (0.5, 1.3, 2.0):
        bg = states.bg_state(alpha, 64)
        worst = max(worst, states.eigen_residual(gen.kminus, bg, alpha, exclude_top=1))
        lon = states.london_state(alpha, 64)
        dop = states.deformed_annihilation(alpha, 64)
        worst = max(worst, states.eigen_residual(dop, lon, alpha, exclude_top=1))
    ok = worst <= 1e-8
    assert _report(5, "lowering-operator eigenvalue relations", ok, f"worst={worst:.3e}")


def test_criterion_06_state_form_equivalences():
    worst_bg = 0.0
    for alpha in (0.5, 1.5, 3.0, 1 + 1j, 2.1 - 0.8j, 3j):
        dev = np.abs(states.bg_state(alpha, 48) - states.bg_state_ordered(alpha, 48)).max()
        worst_bg = max(worst_bg, float(dev))
    worst_lon = 0.0
    for alpha in (0.25, 1.0, 2.0, 3.0, -2.5):
        dev = np.abs(states.london_state(alpha, 48)
                     - states.london_state_ordered(alpha, 48)).max()
        worst_lon = max(worst_lon, float(dev))
    worst_op = 0.0
    gen = algebra.su11_generators(64)
    for alpha in (0.5, 1.3, 2.0):
        dop = states.deformed_annihilation(alpha, 64)
        jv = specfun.bessel_j_all(65, 2 * alpha)
        k0 = np.arange(64) + 0.5
        w = alpha * jv[(k0 + 0.5).astype(int)] / ((k0 + 1.5) * jv[(k0 + 1.5).astype(int)])
        alt = np.diag(w) @ gen.kminus.mat
        worst_op = max(worst_op, float(np.abs(alt - dop.mat).max()))
    ok = worst_bg <= 1e-9 and worst_lon <= 1e-9 and worst_op <= 1e-12
    assert _report(6, "state-form equivalences", ok,
                   f"bg={worst_bg:.3e}, london={worst_lon:.3e}, operator={worst_op:.3e}")


def test_criterion_07_rotation_identity():
    worst = 0.0
    for alpha in (1.0, 3.0):
        for dim in (64, 256):
            worst = max(worst, algebra.rotation_conjugation_check(alpha, dim))
    ok = worst <= 1e-9
    assert _report(7, "quarter-turn conjugation identity", ok, f"worst={worst:.3e}")


def test_criterion_08_normalisations(uniform_run, su11_run):
    worst_sum = 0.0
    for z in np.arange(0.5, 5.01, 0.5):
        z = float(z)
        prof = lattice.impulse_profile(LatticeSpec(LatticeKind.UNIFORM, int(4 * z) + 64), z)
        worst_sum = max(worst_sum, abs(float(np.sum(np.abs(prof) ** 2)) - 1.0))
        mtop = int(math.ceil(15.0 / abs(math.log(math.tanh(z))))) + 20
        prof = lattice.impulse_profile(LatticeSpec(LatticeKind.SU11, mtop), z)
        worst_sum = max(worst_sum, abs(float(np.sum(np.abs(prof) ** 2)) - 1.0))
    drift = max(uniform_run[1].norm_drift, su11_run[1].norm_drift)
    ok = worst_sum <= 1e-10 and drift <= 1e-10
    assert _report(8, "impulse normalisation and norm drift", ok,
                   f"worst_sum_dev={worst_sum:.3e}, worst_drift={drift:.3e}")


def test_criterion_09_special_function_oracles():
    worst_j = 0.0
    worst_i = 0.0
    xs = np.linspace(0.05, 20.0, 48)
    orders = range(0, 61, 3)
    points = 0
    for x in xs:
        x = float(x)
        jv = specfun.bessel_j_all(60, x)
        for m in orders:
            points += 1
            ref = float(series_j(m, x, dps=50))
            err = abs(jv[m] - ref)
            if abs(ref) >= 1e-2:
                worst_j = max(worst_j, err / abs(ref))
            else:
                # tiny values carry the absolute part of the contract;
                # scale onto the relative budget for one combined metric
                worst_j = max(worst_j, err / 1e-14 * 1e-12)
        for m in (0, 6, 18, 36, 60):
            ref = float(series_i(m, x, dps=50))
            if ref > 0:
                worst_i = max(worst_i, abs(specfun.bessel_i(m, x) - ref) / ref)
    ok = worst_j <= 1e-12 and worst_i <= 1e-12
    assert _report(9, f"series-oracle agreement ({points} J points)", ok,
                   f"worst_J={worst_j:.3e}, worst_I={worst_i:.3e}")


# Documented example commands; keep in sync with README.md
EXAMPLE_COMMANDS = [
    ["state", "--family", "phase", "--phi", "0", "--dim", "4"],
    ["state", "--family", "london", "--alpha", "2.0", "--dim", "64", "--format", "csv"],
    ["state", "--family", "bg", "--alpha", "1+0.5i", "--dim", "32", "--format", "json"],
    ["state", "--family", "su11", "--alpha", "0.8", "--k", "0.5", "--dim", "32", "--normalize"],
    ["impulse", "--lattice", "su11", "--zmax", "1", "--dim", "400"],
    ["impulse", "--lattice", "uniform", "--zmax", "1", "--dim", "64", "--samples", "4",
     "--format", "json"],
    ["propagate", "--lattice", "uniform", "--input-waveguide", "0", "--zmax", "5",
     "--dim", "64"],
    ["bch-check", "--xplus", "0.1+0.05i", "--xzero", "1", "--xminus", "0.1", "--dim", "64"],
    ["verify", "--suite", "algebra", "--dim", "64"],
    ["verify", "--suite", "lattice", "--dim", "64"],
]


def test_criterion_10_cli_determinism(capsys, tmp_path):
    deviations = []
    for argv in EXAMPLE_COMMANDS:
        status1 = cli.main(argv)
        first = capsys.readouterr().out
        status2 = cli.main(argv)
        second = capsys.readouterr().out
        if first.encode() != second.encode() or status1 != status2 or status1 != 0:
            deviations.append(" ".join(argv))
    # file output must be deterministic too
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["state", "--family", "london", "--alpha", "1.5", "--dim", "16"]
    cli.main(base + ["--output", str(out1)])
    cli.main(base + ["--output", str(out2)])
    capsys.readouterr()
    if out1.read_bytes() != out2.read_bytes():
        deviations.append("file output")
    ok = not deviations
    assert _report(10, f"CLI determinism ({len(EXAMPLE_COMMANDS)} commands, two runs each)",
                   ok, "byte-identical" if ok else f"deviating: {deviations}")
