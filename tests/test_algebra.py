import math

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
    a = fock.annihilation(n)
    scale = np.diag(1.0 / np.sqrt(np.arange(n) + 1.0))
    assert np.abs(scale @ a.mat - ph.v.mat).max() <= 1e-15


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
    block = algebra._ordered_block(params, 32, 64, algebra._pascal(64))
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
    # (33 levels) left 3.4e-3 of the sums out of the residual
    b = _criterion_3_draw(23)
    default = algebra.verify_bch(b, 64, edge_exclude=16)
    assert abs(default - algebra.verify_bch(b, 64, edge_exclude=16, guard=120)) <= 1e-12


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
    assert algebra.rotation_conjugation_check(1.0, 64, edge_exclude=16) <= 1e-9
    assert algebra.rotation_conjugation_check(3.0, 256, edge_exclude=64) <= 1e-9


def test_rotation_conjugation_range_guard():
    with pytest.raises(RangeError):
        algebra.rotation_conjugation_check(3.0, 16)


@pytest.mark.parametrize("alpha,dim", [(1.0, 64), (3.0, 256), (-2.0, 64)])
def test_rotation_sides_match_dense_exponentials(alpha, dim):
    # each side alone against the complex Pade exponentials it replaces, so a
    # fault common to both sides cannot hide in the residual
    ph = algebra.phase_operators(dim)
    rot = np.exp(-0.5j * np.pi * np.arange(dim))
    left = (rot[:, None] * fock.expm(ph.vdag + ph.v, 1j * alpha).mat) * rot.conj()[None, :]
    right = fock.expm(ph.vdag - ph.v, alpha).mat
    for side, ref in ((algebra._rotated_spectral(alpha, dim), left),
                      (algebra.shift_exponential(alpha, dim), right)):
        assert np.all(np.abs(side - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("edge_exclude", [64, 70, -1])
def test_rotation_conjugation_edge_exclusion_range(edge_exclude):
    with pytest.raises(DimensionError):
        algebra.rotation_conjugation_check(1.0, 64, edge_exclude=edge_exclude)


@pytest.mark.parametrize("alpha,dim,error", [
    (0.1, 1, DimensionError),
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

    def sliced(re, im, e):
        return [r + 1j * i for r, i in zip(
            algebra._slices(np.ldexp(re[0], e), np.ldexp(re[1], e), count, beta),
            algebra._slices(np.ldexp(im[0], e), np.ldexp(im[1], e), count, beta))]

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
        new = algebra._ordered_block(side, keep, levels, binom)
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
