import math
import tracemalloc

import numpy as np
import pytest

from focklat import algebra, fock
from focklat.algebra import BCHParams, Ordering
from focklat.errors import (
    BranchError,
    DimensionError,
    FocklatError,
    NumericError,
    RangeError,
    SingularParameterError,
)


@pytest.fixture(scope="module")
def gen64():
    return algebra.su11_generators(64)


def test_generator_matrix_elements(gen64):
    n = 64
    assert np.allclose(np.diag(gen64.k0.mat), np.arange(n) + 0.5)
    for j in range(n - 1):
        assert gen64.kplus.mat[j + 1, j] == j + 1
        assert gen64.kminus.mat[j, j + 1] == j + 1
    assert gen64.bargmann_k == 0.5


def test_lowest_weight_action(gen64):
    vac = fock.vacuum(64)
    assert np.allclose(gen64.k0.apply(vac), 0.5 * vac)
    assert np.allclose(gen64.kminus.apply(vac), np.zeros(64))
    cubed = gen64.kplus @ gen64.kplus @ gen64.kplus
    assert np.allclose(cubed.apply(vac), 6.0 * fock.basis_state(64, 3))


def test_su11_commutators(gen64):
    c1 = fock.commutator(gen64.k0, gen64.kplus)
    keep = 64 - c1.edge_band
    assert np.abs(c1.mat[:keep, :keep] - gen64.kplus.mat[:keep, :keep]).max() <= 1e-12
    c2 = fock.commutator(gen64.k0, gen64.kminus)
    keep = 64 - c2.edge_band
    assert np.abs(c2.mat[:keep, :keep] + gen64.kminus.mat[:keep, :keep]).max() <= 1e-12
    c3 = fock.commutator(gen64.kplus, gen64.kminus)
    keep = 64 - c3.edge_band
    assert np.abs(c3.mat[:keep, :keep] + 2.0 * gen64.k0.mat[:keep, :keep]).max() <= 1e-12


def test_phase_operator_shifts():
    ph = algebra.phase_operators(8)
    assert np.allclose(ph.v.apply(fock.basis_state(8, 3)), fock.basis_state(8, 2))
    assert np.allclose(ph.v.apply(fock.vacuum(8)), np.zeros(8))
    assert np.allclose(ph.vdag.apply(fock.vacuum(8)), fock.basis_state(8, 1))
    assert np.allclose(ph.vdag.apply(fock.basis_state(8, 7)), np.zeros(8))


def test_phase_operator_unitarity_defect():
    n = 32
    ph = algebra.phase_operators(n)
    right = (ph.v @ ph.vdag).mat
    assert np.array_equal(right[: n - 1, : n - 1], np.eye(n - 1, dtype=complex))
    left = (ph.vdag @ ph.v).mat
    expected = np.eye(n, dtype=complex)
    expected[0, 0] = 0.0
    assert np.array_equal(left, expected)


def test_lowering_is_weighted_shift(gen64):
    # K- equals (K0 + 1/2) composed with the down-shift, exactly
    n = 64
    ph = algebra.phase_operators(n)
    inv = np.diag(1.0 / (np.arange(n) + 1.0))
    assert np.abs(inv @ gen64.kminus.mat - ph.v.mat).max() <= 1e-15
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)  # <m|a|n> = sqrt(n) delta_{m,n-1}
    scale = np.diag(1.0 / np.sqrt(np.arange(n) + 1.0))
    assert np.abs(scale @ a - ph.v.mat).max() <= 1e-15


def test_map_identity_params():
    b = BCHParams(plus=0.0, zero=1.0, minus=0.0, ordering=Ordering.ANTINORMAL_FIRST)
    a = algebra.bch_antinormal_to_normal(b)
    assert (a.plus, a.zero, a.minus) == (0.0, 1.0, 0.0)
    assert a.ordering is Ordering.NORMAL_FIRST
    back = algebra.bch_normal_to_antinormal(a)
    assert (back.plus, back.zero, back.minus) == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("phi", [0.3, 0.7, 2.0, -1.1])
def test_map_phase_state_params(phi):
    w = np.exp(1j * phi)
    b = BCHParams(plus=1.0, zero=w, minus=0.0, ordering=Ordering.ANTINORMAL_FIRST)
    a = algebra.bch_antinormal_to_normal(b)
    assert a.plus == pytest.approx(w, abs=1e-15)
    assert a.zero == pytest.approx(w, abs=1e-15)
    assert a.minus == 0.0
    back = algebra.bch_normal_to_antinormal(a)
    assert back.plus == pytest.approx(1.0, abs=1e-14)
    assert back.zero == pytest.approx(w, abs=1e-14)
    assert back.minus == 0.0


def test_map_symmetric_example():
    b = BCHParams(plus=0.5, zero=1.0, minus=0.5, ordering=Ordering.ANTINORMAL_FIRST)
    a = algebra.bch_antinormal_to_normal(b)
    assert a.plus == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert a.zero == pytest.approx(16.0 / 9.0, rel=1e-15)
    assert a.minus == pytest.approx(2.0 / 3.0, rel=1e-15)
    back = algebra.bch_normal_to_antinormal(a)
    assert back.plus == pytest.approx(0.5, rel=1e-14)
    assert back.zero == pytest.approx(1.0, rel=1e-14)
    assert back.minus == pytest.approx(0.5, rel=1e-14)


def test_map_round_trip_random():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        b = BCHParams(
            plus=0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            zero=np.exp(1j * rng.uniform(-np.pi, np.pi)),
            minus=0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            ordering=Ordering.ANTINORMAL_FIRST,
        )
        a = algebra.bch_antinormal_to_normal(b)
        back = algebra.bch_normal_to_antinormal(a)
        worst = max(worst, abs(back.plus - b.plus), abs(back.zero - b.zero),
                    abs(back.minus - b.minus))
    assert worst <= 1e-13


def test_map_singularities():
    with pytest.raises(SingularParameterError):
        algebra.bch_antinormal_to_normal(
            BCHParams(plus=1.0, zero=1.0, minus=1.0, ordering=Ordering.ANTINORMAL_FIRST))
    with pytest.raises(SingularParameterError):
        algebra.bch_normal_to_antinormal(
            BCHParams(plus=1.0, zero=1.0, minus=1.0, ordering=Ordering.NORMAL_FIRST))
    with pytest.raises(BranchError):
        BCHParams(plus=0.0, zero=0.0, minus=0.0, ordering=Ordering.NORMAL_FIRST)
    with pytest.raises(SingularParameterError):
        algebra.bch_antinormal_to_normal(
            BCHParams(plus=0.0, zero=1.0, minus=0.0, ordering=Ordering.NORMAL_FIRST))


@pytest.mark.parametrize("ordering", list(Ordering))
def test_map_overflow_is_a_numeric_error(ordering):
    # the squared denominator, (1 - B+ B0 B-)^2 or (A0 - A+ A-)^2, overflows
    p = BCHParams(plus=0.1, zero=1e308, minus=0.1, ordering=ordering)
    to_other = (algebra.bch_antinormal_to_normal if ordering is Ordering.ANTINORMAL_FIRST
                else algebra.bch_normal_to_antinormal)
    with pytest.raises(NumericError):
        to_other(p)
    with pytest.raises(NumericError):
        algebra.verify_bch(p, 8)


def test_verify_bch_identity_params():
    b = BCHParams(plus=0.0, zero=1.0, minus=0.0, ordering=Ordering.ANTINORMAL_FIRST)
    assert algebra.verify_bch(b, 64) <= 1e-13


def test_verify_bch_phase_state_params():
    b = BCHParams(plus=1.0, zero=np.exp(0.7j), minus=0.0, ordering=Ordering.ANTINORMAL_FIRST)
    assert algebra.verify_bch(b, 64, edge_exclude=16) <= 1e-9


def test_verify_bch_moderate_random():
    # |X+-| <= 0.15 at the default edge exclusion; the acceptance suite
    # draws |X+-| <= 0.3 at dim 64 with a 16-level exclusion
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        b = BCHParams(
            plus=0.15 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            zero=np.exp(1j * rng.uniform(-2.9, 2.9)),
            minus=0.15 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            ordering=Ordering.ANTINORMAL_FIRST,
        )
        worst = max(worst, algebra.verify_bch(b, 64))
    assert worst <= 1e-9


@pytest.mark.parametrize("params", [
    BCHParams(0.1 + 0.05j, np.exp(0.4j), -0.08j, Ordering.NORMAL_FIRST),
    BCHParams(0.07 - 0.02j, 0.8 * np.exp(-1.1j), 0.05 + 0.03j, Ordering.ANTINORMAL_FIRST),
    BCHParams(1.0, np.exp(0.7j), 0.0, Ordering.ANTINORMAL_FIRST),
])
def test_ordered_block_matches_matrix_exponentials(params, gen64):
    # verify_bch's closed-form sums against the dense exponentials they replace
    e0 = fock.expm(gen64.k0, np.log(params.zero))
    if params.ordering is Ordering.NORMAL_FIRST:
        ref = fock.expm(gen64.kplus, params.plus) @ e0 @ fock.expm(gen64.kminus, params.minus)
    else:
        ref = fock.expm(gen64.kminus, params.minus) @ e0 @ fock.expm(gen64.kplus, params.plus)
    block = algebra._ordered_blocks((params,), 32, 64, algebra._pascal(64))[0]
    assert np.abs(block - ref.mat[:32, :32]).max() <= 1e-14 * max(1.0, np.abs(block).max())


def _criterion_3_draw(index):
    """Draw ``index`` (0-based) of acceptance criterion 3's parameter sequence."""
    rng = np.random.default_rng(20240811)
    for _ in range(index + 1):
        b = BCHParams(
            plus=0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            zero=np.exp(1j * rng.uniform(-2.9, 2.9)),
            minus=0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
            ordering=Ordering.ANTINORMAL_FIRST,
        )
    return b


def test_verify_bch_default_guard_keeps_the_tail():
    # on this draw a guard placed at the peak of the antinormal-first terms
    # (33 levels) left 3.4e-3 of the sums out of the residual; the reference
    # runs the antinormal-first sums over 120 levels past dim 64
    b = _criterion_3_draw(23)
    default = algebra.verify_bch(b, 64, edge_exclude=16)
    a = algebra.bch_antinormal_to_normal(b)
    lhs, rhs = algebra._ordered_blocks((a, b), 48, 64 + 120, algebra._pascal(256))
    assert abs(default - algebra._block_residual(lhs, rhs)) <= 1e-12


# The 50 criterion-3 residuals at (64, edge_exclude=16), pinned to the bit
# before the slice stacks were written in place; the worst is draw 47.
_CRITERION_3_RESIDUALS = [
    8.794269726232876e-15, 2.0347547966936147e-15, 1.627730989829618e-15,
    2.7825493040152787e-15, 4.074520287055819e-15, 1.1481572620488684e-15,
    3.2169851443137864e-15, 3.6829947327668936e-15, 1.1229702263938047e-14,
    1.0745094958441785e-15, 8.787129671177841e-15, 8.142072324713418e-15,
    4.351471459234041e-15, 9.667756825162659e-15, 6.559362104064433e-16,
    3.628515911825174e-15, 3.991337393392313e-15, 1.1907776806504877e-14,
    9.032137447317056e-15, 2.3707818428221356e-15, 4.807907461412688e-16,
    1.1257969157173193e-14, 8.664621797654914e-15, 9.421715660351283e-15,
    2.3109502569581817e-15, 7.904368073476938e-15, 1.1167612840161763e-14,
    3.3841637933679078e-15, 4.233768508209207e-15, 3.569149402346152e-15,
    1.1109985288862731e-14, 7.32404793454792e-15, 9.899507142391966e-15,
    6.397122001643723e-15, 4.965441606684176e-15, 8.596415242214501e-15,
    8.705712458135914e-15, 7.74541519653567e-15, 9.788858959030467e-15,
    3.861522645113566e-15, 8.297131845379631e-15, 7.996680560715071e-15,
    4.817848815450242e-15, 2.753711991163698e-15, 7.897457798775677e-15,
    1.784146017590271e-15, 3.1174425394497837e-15, 1.621220909647133e-14,
    6.177223533085621e-15, 1.3944414724548187e-15,
]


def test_verify_bch_criterion_3_residuals_are_pinned():
    residuals = [algebra.verify_bch(_criterion_3_draw(i), 64, edge_exclude=16)
                 for i in range(50)]
    assert residuals == _CRITERION_3_RESIDUALS


def test_verify_bch_builds_its_slice_stacks_in_place():
    # draw 41 sets the peak of the 50; with the slices gathered in lists and
    # then concatenated it reached 2.22 MB
    b = _criterion_3_draw(41)
    algebra.verify_bch(b, 64, edge_exclude=16)  # the Pascal table is cached outside the count
    tracemalloc.start()
    try:
        algebra.verify_bch(b, 64, edge_exclude=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.95e6


@pytest.mark.parametrize("dim,edge_exclude,error", [
    (64.7, None, DimensionError),  # was cut to 64 by int()
    (64.0, None, DimensionError),
    (64, 16.5, DimensionError),  # was cut to 16 by int()
    (1, None, DimensionError),
    (64, 64, DimensionError),
    (1025, None, RangeError),
])
def test_verify_bch_rejects_bad_sizes(dim, edge_exclude, error):
    b = BCHParams(0.1, 1.0, 0.1, Ordering.ANTINORMAL_FIRST)
    with pytest.raises(error):
        algebra.verify_bch(b, dim, edge_exclude=edge_exclude)


@pytest.mark.parametrize("field", ["plus", "zero", "minus"])
def test_verify_bch_rejects_nan(field):
    values = {"plus": 0.1, "zero": 1.0, "minus": 0.1, field: float("nan")}
    with pytest.raises(FocklatError):
        algebra.verify_bch(BCHParams(**values, ordering=Ordering.ANTINORMAL_FIRST), 64)


def test_verify_bch_divergent_antinormal_sum():
    # |B+ B- B0| = 2: the antinormal-first sums never converge
    b = BCHParams(plus=2.0, zero=1.0, minus=1.0, ordering=Ordering.ANTINORMAL_FIRST)
    with pytest.raises(RangeError):
        algebra.verify_bch(b, 16)


def test_verify_bch_normal_first_input():
    a = BCHParams(plus=0.1 + 0.05j, zero=np.exp(0.4j), minus=-0.08j,
                  ordering=Ordering.NORMAL_FIRST)
    assert algebra.verify_bch(a, 48) <= 1e-9


def test_rotation_conjugation():
    assert algebra.rotation_conjugation_check(0.0, 16) == 0.0
    assert algebra.rotation_conjugation_check(1.0, 64) <= 1e-9
    assert algebra.rotation_conjugation_check(3.0, 256) <= 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 8, 9, 16, 17, 33, 64, 65, 128, 256, 257])
def test_rotation_conjugation_holds_on_the_whole_space(dim):
    # Q* (Vdag + V) Q = -i (Vdag - V) entry by entry on the truncation, so
    # no level is left out and no alpha is too large for the dimension
    for alpha in (0.1, -0.5, 1.0, 2.0, -3.0, 5.0, 8.0, 12.5, -20.0, 25.0):
        assert algebra.rotation_conjugation_check(alpha, dim) <= 1e-14


def test_rotation_conjugation_residuals_are_the_rounding_of_the_two_sides():
    # the CLI's (1, 64) and the benchmark's (3, 256) cases, to the bit
    assert algebra.rotation_conjugation_check(1.0, 64) == 8.881784197001252e-16
    assert algebra.rotation_conjugation_check(3.0, 256) == 1.5543122344752192e-15


def test_rotation_conjugation_with_exact_quarter_turns():
    # the signs (-1)^floor(m/2) are exact, so only the two sides' rounding is left
    assert algebra.rotation_conjugation_check(3.0, 1024) <= 5e-15
    assert algebra._rotated_exponential(1.0, 9).dtype == np.float64
    assert algebra._rotated_exponential(0.0, 9).dtype == np.float64


def test_turn_signs_are_the_quarter_turns():
    # i^m = (-1)^floor(m/2) times 1 (even m) or i (odd m), at every m
    m = np.arange(1000)
    signs = algebra._turn_signs(len(m))
    assert np.array_equal(signs, np.where(m % 4 < 2, 1.0, -1.0))
    turns = np.array([1, 1j, -1, -1j])[m % 4]
    assert np.array_equal(np.where(m % 2, 1j, 1.0) * signs, turns)


def test_rotation_conjugation_holds_about_three_real_matrices():
    dim = 512
    algebra.rotation_conjugation_check(3.0, dim)  # imports and caches outside the count
    tracemalloc.start()
    try:
        algebra.rotation_conjugation_check(3.0, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * dim**2


def test_rotation_conjugation_range_guard():
    # alpha past dim/8 is in range: the identity is exact on the truncation
    assert algebra.rotation_conjugation_check(3.0, 16) <= 1e-14
    # the Bessel image sum stops at |2 alpha| = 50
    assert algebra.rotation_conjugation_check(25.0, 256) <= 1e-9
    with pytest.raises(RangeError):
        algebra.rotation_conjugation_check(25.5, 256)


# The images of the right side wrap around the array at small dims (2 to 16
# at |alpha| = dim/8); odd dims wrap with the opposite sign.
@pytest.mark.parametrize("alpha,dim", [
    (1.0, 64), (3.0, 256), (-2.0, 64),
    (0.25, 2), (-0.5, 4), (1.0, 8), (2.0, 16), (25.0, 256),
    (0.375, 3), (-0.625, 5), (1.125, 9), (7.875, 63),
])
def test_rotation_sides_match_dense_exponentials(alpha, dim):
    # each side alone against the dense complex Pade exponentials, so a
    # fault common to both sides cannot hide in the residual
    ph = algebra.phase_operators(dim)
    rot = np.exp(-0.5j * np.pi * np.arange(dim))
    left = (rot[:, None] * fock.expm(ph.vdag + ph.v, 1j * alpha).mat) * rot.conj()[None, :]
    right = fock.expm(ph.vdag - ph.v, alpha).mat
    for side, ref in ((algebra._rotated_exponential(alpha, dim), left),
                      (algebra._shift_exponential_images(alpha, dim), right)):
        assert np.all(np.abs(side - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("alpha,dim,error", [
    (0.1, 1, DimensionError),
    (0.1, 64.0, DimensionError),
    (float("nan"), 64, RangeError),
    (float("inf"), 64, RangeError),
    (1.0, fock.MAX_DIM + 1, RangeError),
])
def test_rotation_conjugation_rejects_bad_input(alpha, dim, error):
    with pytest.raises(error):
        algebra.rotation_conjugation_check(alpha, dim)


# The gather route that verify_bch's factorised sums replaced, kept as their
# reference: exp(x K+) as the Toeplitz table C(i, j) x^(i-j), gathered from
# double-double powers, and each product X diag(z^k) Y sliced as a whole in
# complex arithmetic.  A complex double-double here is ((re_hi, re_lo),
# (im_hi, im_lo)).

def _gather_cdd_mul(x, y):
    (xr, xi), (yr, yi) = x, y
    ii = algebra._dd_mul(xi, yi)
    return (algebra._dd_add(algebra._dd_mul(xr, yr), (-ii[0], -ii[1])),
            algebra._dd_add(algebra._dd_mul(xr, yi), algebra._dd_mul(xi, yr)))


def _gather_powers(bases, n):
    x = np.asarray(bases, dtype=complex)[:, None]
    zero = np.zeros(x.shape)
    pw = ((np.ones(x.shape), zero), (zero, zero))
    step = ((x.real, zero), (x.imag, zero))
    while pw[0][0].shape[1] < n:
        more = _gather_cdd_mul(tuple((np.hstack([p[0], s[0]]), np.hstack([p[1], s[1]]))
                                     for p, s in zip(pw, step)), step)
        pw = tuple((np.hstack([p[0], m[0][:, :-1]]), np.hstack([p[1], m[1][:, :-1]]))
                   for p, m in zip(pw, more))
        step = tuple((m[0][:, -1:], m[1][:, -1:]) for m in more)
    return tuple((p[0][:, :n], p[1][:, :n]) for p in pw)


def _gather_exp_kplus(binom, powers, rows, cols):
    d = np.arange(rows)[:, None] - np.arange(cols)[None, :]
    low = d >= 0
    d = np.where(low, d, 0)
    c = (binom[0][:rows, :cols], binom[1][:rows, :cols])
    return tuple(algebra._dd_mul(c, (np.where(low, p[0][d], 0.0), np.where(low, p[1][d], 0.0)))
                 for p in powers)


def _gather_sliced_product(x, y):
    (xrh, xrl), (xih, xil) = x
    (yrh, yrl), (yih, yil) = y
    ax = np.maximum(np.abs(xrh), np.abs(xih))
    ay = np.maximum(np.abs(yrh), np.abs(yih))
    bal = (np.frexp(ay.max(axis=1))[1] - np.frexp(ax.max(axis=0))[1]) // 2
    row = np.frexp(np.ldexp(ax, bal[None, :]).max(axis=1))[1]
    col = np.frexp(np.ldexp(ay, -bal[:, None]).max(axis=0))[1]
    ex = bal[None, :] - row[:, None]
    ey = -bal[:, None] - col[None, :]
    inner = 2 * xrh.shape[1]
    beta = (52 - (inner - 1).bit_length()) // 2
    need = row.max() + col.max() + inner.bit_length() + 4 + 60
    count = int(max(1, min(8, -(-need // beta))))

    def stack(hi, lo, e):
        hi = np.ldexp(hi, e)
        return algebra._slices(hi, np.ldexp(lo, e), beta, np.empty((count, *hi.shape)))

    def sliced(re, im, e):
        return [r + 1j * i for r, i in zip(stack(*re, e), stack(*im, e))]

    xs = sliced((xrh, xrl), (xih, xil), ex)
    ys = sliced((yrh, yrl), (yih, yil), ey)
    hi = np.zeros((xrh.shape[0], yrh.shape[1]), dtype=complex)
    lo = np.zeros_like(hi)
    for level in range(count):
        for s in range(level + 1):
            hi, err = algebra._two_sum(hi, xs[s] @ ys[level - s])
            lo += err
    out = hi + lo
    scale = row[:, None] + col[None, :]
    return np.ldexp(out.real, scale) + 1j * np.ldexp(out.imag, scale)


def _gather_ordered_block(params, keep, levels, binom):
    normal = params.ordering is Ordering.NORMAL_FIRST
    n = keep if normal else levels
    powers = _gather_powers([params.plus, params.minus, params.zero], n)
    plus, minus, zero = (tuple((p[0][i], p[1][i]) for p in powers) for i in range(3))
    kplus = _gather_exp_kplus(binom, plus, n, keep)
    kminus = tuple((p[0].T, p[1].T) for p in _gather_exp_kplus(binom, minus, n, keep))
    left, right = (kplus, kminus) if normal else (kminus, kplus)
    diag = tuple((p[0][None, :], p[1][None, :]) for p in zero)
    product = _gather_sliced_product(_gather_cdd_mul(left, diag), right)
    return np.sqrt(complex(params.zero)) * product


# Each route's entries are within a few units of 2^-53 of the normalisation
# (3.9e-16 apart at worst below).  Counting the slices against the inner
# Pascal product rather than the final entries left 5.4e-15 on draw 23.
_ROUTES_AGREE = 2e-15


def _both_routes(b, dim, edge_exclude=None):
    """Worst |factorised - gather| over both sides, over the normalisation."""
    keep = dim - (math.ceil(dim / 4) if edge_exclude is None else edge_exclude)
    a = algebra.bch_antinormal_to_normal(b)
    levels = dim + algebra._default_guard(b, dim, keep)
    binom = algebra._pascal(max(64, 1 << (levels - 1).bit_length()))
    worst = 0.0
    for side in (a, b):
        new = algebra._ordered_blocks((side,), keep, levels, binom)[0]
        old = _gather_ordered_block(side, keep, levels, binom)
        assert np.all(np.isfinite(new))
        worst = max(worst, np.abs(new - old).max() / max(1.0, np.abs(old).max()))
    return worst


def test_factorised_sums_match_gather_route_on_criterion_3_draws():
    worst = max(_both_routes(_criterion_3_draw(i), 64, edge_exclude=16) for i in range(50))
    assert worst <= _ROUTES_AGREE


@pytest.mark.parametrize("plus,zero,minus,dim", [
    (0.3, 1.0, 0.3, 512),  # 0.3^-384 overflows a double
    (0.3 + 0.1j, np.exp(0.5j), 1e-8, 256),  # w^k and 1e-8^-m span ~1e2000
    (1e-12, 1.0, 0.2j, 128),
    (0.25 - 0.1j, np.exp(-1.3j), 0.0, 64),  # B- = 0: single-term blocks
    (0.0, np.exp(0.9j), 0.2 - 0.1j, 64),  # B+ = 0
    (0.0, 0.7, 0.0, 16),  # both ladder factors are the identity
])
def test_factorised_sums_match_gather_route_at_the_edges(plus, zero, minus, dim):
    b = BCHParams(plus=plus, zero=zero, minus=minus, ordering=Ordering.ANTINORMAL_FIRST)
    assert _both_routes(b, dim) <= _ROUTES_AGREE


def test_factorised_sums_match_gather_route_on_normal_first_input():
    a = BCHParams(plus=0.1 + 0.05j, zero=np.exp(0.4j), minus=-0.08j,
                  ordering=Ordering.NORMAL_FIRST)
    assert _both_routes(algebra.bch_normal_to_antinormal(a), 48) <= _ROUTES_AGREE
