import cmath
import collections
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.special

from focklat import algebra, checks, fock
from focklat.algebra import BCHParams, Ordering
from focklat.errors import (
    BranchError,
    DimensionError,
    NumericError,
    RangeError,
    SingularParameterError,
)

from oracles import expm, guard_log_bound, guard_scan, peak_bytes


@pytest.fixture(scope="module")
def gen64():
    return algebra.su11_generators(64)


def test_generator_matrix_elements(gen64):
    n = 64
    k0, kplus, kminus = gen64.k0.to_dense(), gen64.kplus.to_dense(), gen64.kminus.to_dense()
    assert np.allclose(np.diag(k0), np.arange(n) + 0.5)
    for j in range(n - 1):
        assert kplus[j + 1, j] == j + 1
        assert kminus[j, j + 1] == j + 1


def test_lowest_weight_action(gen64):
    vac = fock.vacuum(64)
    assert np.allclose(gen64.k0.apply(vac), 0.5 * vac)
    assert np.allclose(gen64.kminus.apply(vac), np.zeros(64))
    cubed = gen64.kplus @ gen64.kplus @ gen64.kplus
    assert np.allclose(cubed.apply(vac), 6.0 * fock.basis_state(64, 3))


def test_su11_commutators():
    # on every level: the truncation adds N^2 |N-1><N-1| to [K+, K-] = -2 K0
    for dim in (2, 3, 64):
        gen = algebra.su11_generators(dim)
        top = np.zeros((dim, dim))
        top[-1, -1] = dim ** 2
        for (a, b), expected in (((gen.k0, gen.kplus), gen.kplus.to_dense()),
                                 ((gen.k0, gen.kminus), -gen.kminus.to_dense()),
                                 ((gen.kplus, gen.kminus), -2.0 * gen.k0.to_dense() + top)):
            assert np.abs(fock.commutator(a, b).to_dense() - expected).max() <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 64, 513, fock.MAX_DIM])
def test_truncated_identities_hold_exactly_on_every_level(dim):
    # [K+, K-] = -2 K0 + N^2 |N-1><N-1| and V Vdag = 1 - |N-1><N-1|, entry by entry
    gen = algebra.su11_generators(dim)
    ph = algebra.phase_operators(dim)
    top = fock.TruncatedOperator(dim, {0: fock.basis_state(dim, dim - 1)})
    c3 = fock.commutator(gen.kplus, gen.kminus)
    assert checks._entrywise(c3, -2.0 * gen.k0 + float(dim) ** 2 * top) == 0.0
    assert checks._entrywise(ph.v @ ph.vdag, fock.identity(dim) - top) == 0.0


def test_phase_operator_shifts():
    ph = algebra.phase_operators(8)
    assert np.allclose(ph.v.apply(fock.basis_state(8, 3)), fock.basis_state(8, 2))
    assert np.allclose(ph.v.apply(fock.vacuum(8)), np.zeros(8))
    assert np.allclose(ph.vdag.apply(fock.vacuum(8)), fock.basis_state(8, 1))
    assert np.allclose(ph.vdag.apply(fock.basis_state(8, 7)), np.zeros(8))


def test_phase_operator_unitarity_defect():
    n = 32
    ph = algebra.phase_operators(n)
    right = np.eye(n, dtype=complex)
    right[-1, -1] = 0.0
    assert np.array_equal((ph.v @ ph.vdag).to_dense(), right)
    left = np.eye(n, dtype=complex)
    left[0, 0] = 0.0
    assert np.array_equal((ph.vdag @ ph.v).to_dense(), left)


def test_lowering_is_weighted_shift(gen64):
    # K- equals (K0 + 1/2) composed with the down-shift, exactly
    n = 64
    ph = algebra.phase_operators(n)
    inv = np.diag(1.0 / (np.arange(n) + 1.0))
    assert np.abs(inv @ gen64.kminus.to_dense() - ph.v.to_dense()).max() <= 1e-15
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)  # <m|a|n> = sqrt(n) delta_{m,n-1}
    scale = np.diag(1.0 / np.sqrt(np.arange(n) + 1.0))
    assert np.abs(scale @ a - ph.v.to_dense()).max() <= 1e-15


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
    with pytest.raises(SingularParameterError, match="expected normal-first parameters"):
        algebra.bch_normal_to_antinormal(
            BCHParams(plus=0.0, zero=1.0, minus=0.0, ordering=Ordering.ANTINORMAL_FIRST))


def test_maps_refuse_only_an_exactly_zero_divisor():
    # A0 - A+ A- ~ 1e-300 = A0 is no singularity: only B0 = den^2 / A0 underflows,
    # which an absolute cut at 1e-150 reported as a vanishing denominator
    a = BCHParams(plus=1e-301, zero=1e-300, minus=1e-301, ordering=Ordering.NORMAL_FIRST)
    with pytest.raises(NumericError, match=r"underflows .*, giving \(0\.1, 0\.0, 0\.1\)$"):
        algebra.bch_normal_to_antinormal(a)
    # den = -1e-170i is nonzero, but its square, the divisor of A0, underflows to 0:
    # a test of den alone let the division raise ZeroDivisionError
    b = BCHParams(plus=1.0, zero=1 + 1e-170j, minus=1.0, ordering=Ordering.ANTINORMAL_FIRST)
    with pytest.raises(SingularParameterError):
        algebra.bch_antinormal_to_normal(b)


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
    e0 = expm(gen64.k0, np.log(params.zero))
    if params.ordering is Ordering.NORMAL_FIRST:
        ref = expm(gen64.kplus, params.plus) @ e0 @ expm(gen64.kminus, params.minus)
    else:
        ref = expm(gen64.kminus, params.minus) @ e0 @ expm(gen64.kplus, params.plus)
    block = algebra._ordered_blocks((params,), 32, 64, algebra._pascal(64))[0]
    assert np.abs(block - ref[:32, :32]).max() <= 1e-14 * max(1.0, np.abs(block).max())


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


def test_verify_bch_streams_the_slices_of_x():
    # draw 41 sets the peak of the 50, 0.725 MB: y's slices are held, one
    # real part of x is streamed a slice at a time into the levels, the
    # antinormal-first side is formed first, and no buffer outlives the
    # step that reads it (the module docstring lists them).  Dropping any
    # one of those steps raises the peak to between 0.73 and 0.83 MB.
    b = _criterion_3_draw(41)
    algebra.verify_bch(b, 64, edge_exclude=16)  # the Pascal table is cached outside the count
    assert peak_bytes(lambda: algebra.verify_bch(b, 64, edge_exclude=16)) <= 0.74e6


def test_slice_stream_holds_one_array_while_a_slice_is_used():
    # the remainder update's scratch lives only through the update: while a
    # slice is in use the stream holds that slice's buffer alone (it held a
    # second, idle, scratch array of the input's size)
    rng = np.random.default_rng(7)
    hi = rng.uniform(-0.5, 0.5, (2, 48, 129))
    lo = np.ldexp(rng.uniform(-0.5, 0.5, hi.shape), -53)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = [tracemalloc.get_traced_memory()[0] - base
                for _ in algebra._slices(hi, lo, 20, 8)]
    finally:
        tracemalloc.stop()
    assert [h // hi.nbytes for h in held] == [1] * 8


def test_operators_and_their_checks_at_the_ceiling_take_o_n_memory():
    # each operator is its diagonals, 64 kB apiece at this dim; dense
    # complex matrices made the generators and phase operators peak at 1.9 GB
    dim = fock.MAX_DIM

    def build():
        algebra.su11_generators(dim)
        algebra.phase_operators(dim)
        with pytest.raises(RangeError):  # verify_bch's level limit, after the operator checks
            checks.suite_algebra(dim)

    build()
    assert peak_bytes(build) <= 4e6


def test_verify_bch_peak_at_dim_256():
    # the documented bch-check input, 7.95 MB with the buffer steps of
    # test_verify_bch_streams_the_slices_of_x; holding a part of x past its
    # slices, forming the normal-first side first or holding the levels
    # past their sum raises it to between 8.5 and 10.0 MB
    b = BCHParams(0.1 + 0.05j, 1.0, 0.1, Ordering.ANTINORMAL_FIRST)
    algebra.verify_bch(b, 256)
    assert peak_bytes(lambda: algebra.verify_bch(b, 256)) <= 8.3e6


# The doubling pass that _cdd_powers replaced, kept as its reference: its
# tables had 2n + 1 columns, of which the first n were returned.

def _doubled_powers(bases, n):
    (mh, ml), e = bases
    hi = np.zeros((2, len(e), 2 * n + 1))
    lo = np.zeros_like(hi)
    ex = np.zeros((len(e), 2 * n + 1), dtype=np.int64)
    hi[0, :, 0] = 1.0
    hi[..., 1], lo[..., 1], ex[:, 1] = mh, ml, e
    top = 1
    while top < n - 1:
        done, step = slice(0, top + 1), slice(top, top + 1)
        block = algebra._cdd_mul((hi[..., done], lo[..., done]), (hi[..., step], lo[..., step]))
        block, be = algebra._normalised(block, ex[:, done] + ex[:, step])
        new = slice(top, 2 * top + 1)
        hi[..., new], lo[..., new], ex[:, new] = block[0], block[1], be
        top *= 2
    return (hi[..., :n], lo[..., :n]), ex[:, :n]


@pytest.mark.parametrize("n", [2, 3, 64, 65, 129, 1024])
def test_cdd_powers_have_exactly_n_columns_bitwise_the_doubled_ones(n):
    # a criterion-3 draw's bases, 0.3^-1 (whose powers leave double range) and 1e-8
    bases = algebra._bases([*algebra._factorisation(_criterion_3_draw(41))[1],
                            [(0.3, -1)], [(1e-8, 1)], [(0.2 - 0.1j, 1), (0.8j, -1)]])
    (hi, lo), ex = algebra._cdd_powers(bases, n)
    (ref_hi, ref_lo), ref_ex = _doubled_powers(bases, n)
    assert hi.shape == (2, 6, n) and lo.shape == hi.shape and ex.shape == (6, n)
    assert np.array_equal(hi, ref_hi) and np.array_equal(lo, ref_lo)
    assert np.array_equal(ex, ref_ex)


@pytest.mark.parametrize("dim,edge_exclude,error", [
    (64.7, None, DimensionError),  # was cut to 64 by int()
    (64.0, None, DimensionError),
    (64, 16.5, DimensionError),  # was cut to 16 by int()
    (1, None, DimensionError),
    (64, 64, DimensionError),
    (64, True, DimensionError),  # ran as an edge exclusion of 1
    (1025, None, RangeError),
])
def test_verify_bch_rejects_bad_sizes(dim, edge_exclude, error):
    b = BCHParams(0.1, 1.0, 0.1, Ordering.ANTINORMAL_FIRST)
    with pytest.raises(error) as err:
        algebra.verify_bch(b, dim, edge_exclude=edge_exclude)
    if error is RangeError:  # refused by the levels its 768 compared levels need, not by dim
        assert str(err.value) == _need_message(1025, 0.01)


@pytest.mark.parametrize("field", ["plus", "zero", "minus"])
def test_verify_bch_rejects_nan(field):
    # the ordering map's own finiteness check raises, before any product is formed
    values = {"plus": 0.1, "zero": 1.0, "minus": 0.1, field: float("nan")}
    for ordering in Ordering:
        with pytest.raises(RangeError, match="^reordering parameters must be finite, got "):
            algebra.verify_bch(BCHParams(**values, ordering=ordering), 64)


def test_verify_bch_divergent_antinormal_sum():
    # |B+ B- B0| = 2: the antinormal-first sums never converge
    b = BCHParams(plus=2.0, zero=1.0, minus=1.0, ordering=Ordering.ANTINORMAL_FIRST)
    with pytest.raises(RangeError, match=r"^antinormal-first sums do not fall below 2\^-53 "
                                         r"within 1024 levels \(\|B\+ B- B0\| = 2\)$"):
        algebra.verify_bch(b, 16)


def test_verify_bch_refuses_a_guard_past_2_to_the_53():
    # |B+ B- B0| is one rounding below 1: rho_k stays at or above 1 at every
    # level the doubling search can name exactly, so it gives up past 2^53
    b = BCHParams(plus=1 - 2**-53, zero=1.0, minus=1 - 2**-53, ordering=Ordering.ANTINORMAL_FIRST)
    with pytest.raises(RangeError, match=r"^antinormal-first sums do not fall below 2\^-53 "
                                         r"within 1024 levels \(\|B\+ B- B0\| = 1\)$"):
        algebra.verify_bch(b, 16)


_SEED_7_DRAW = (-0.4863824743339461 + 0.5444277265945268j,
                0.12801892620019611 + 0.3740240147254796j,
                0.017419502358179066 - 0.02732463627625524j)


@pytest.mark.parametrize("plus,zero,minus,dim,levels", [
    (*_SEED_7_DRAW, 1024, 849),
    (0.29050979500882024 - 0.19640005624079035j, 0.07697191669147525 + 0.37386555953569406j,
     -0.11012254504961665 + 0.053804972343935185j, 1024, 879),
    (*_SEED_7_DRAW, 1100, 912),
    (*_SEED_7_DRAW, 1200, 995),
], ids=["seed-7-draw", "seed-1-draw", "seed-7-draw-dim-1100", "seed-7-draw-dim-1200"])
def test_verify_bch_guard_starts_at_the_compared_block(plus, zero, minus, dim, levels):
    # the dim - ceil(dim/4) compared levels need only `levels` levels of sums:
    # at dim 1024 a guard started at dim summed all 1024 and the products
    # overflowed, and every dim above 1024 was refused whatever its block needed
    b = BCHParams(plus, zero, minus, Ordering.ANTINORMAL_FIRST)
    keep = dim - math.ceil(dim / 4)
    assert algebra._antinormal_levels(b, keep) == guard_scan(b, keep) == levels
    assert algebra.verify_bch(b, dim) <= 1e-9


@pytest.mark.parametrize("plus,dim", [(0.1, 1024), (0.1 + 0.05j, 1008)])
def test_verify_bch_names_the_levels_a_converging_sum_needs(plus, dim):
    # the sums converge at once, but their guard ends one level past the
    # limit; this read as if they did not fall below 2^-53 at all
    b = BCHParams(plus=plus, zero=1.0, minus=0.1, ordering=Ordering.ANTINORMAL_FIRST)
    q = abs(plus) * 0.1
    with pytest.raises(RangeError) as err:
        algebra.verify_bch(b, dim)
    assert str(err.value) == ("antinormal-first sums need 1025 levels to fall below 2^-53, "
                              f"above the limit of 1024 levels (|B+ B- B0| = {q:.6g})")


def _refuse_tables_and_products(monkeypatch):
    def built(*args):
        raise AssertionError("a table or product was built before the refusal")
    monkeypatch.setattr(algebra, "_pascal", built)
    monkeypatch.setattr(algebra, "_ordered_blocks", built)


@pytest.mark.parametrize("ordering", list(Ordering))
def test_vanishing_b_side_sums_need_the_compared_block(ordering, monkeypatch):
    # B- = 0 on both sides: the sums end inside the compared block, so dim 1366
    # (1024 compared levels) runs and the next dims are refused by their count;
    # without that check dim 2000 reached _pascal(2048), which overflows
    b = BCHParams(0.1, 1.0, 0.0, ordering)
    assert algebra.verify_bch(b, 1366) == 0.0
    _refuse_tables_and_products(monkeypatch)
    for dim, need in ((1367, 1025), (2000, 1500)):
        with pytest.raises(RangeError) as err:
            algebra.verify_bch(b, dim)
        assert str(err.value) == _need_message(need, 0.0)


@pytest.mark.parametrize("plus,minus,dim,ordering,need", [
    (0.1 + 0.05j, 0.1, 1400, Ordering.ANTINORMAL_FIRST, 1417),  # the documented input
    (0.1 + 0.05j, 0.1, 1400, Ordering.NORMAL_FIRST, 1405),
    (0.01, 0.01, 4096, Ordering.ANTINORMAL_FIRST, 3170),
    (0.01, 0.01, 4096, Ordering.NORMAL_FIRST, 3170),
])
def test_compared_blocks_past_the_log_factorial_table_are_refused_by_count(
        plus, minus, dim, ordering, need, monkeypatch):
    # a compared block longer than the log-factorial table raised a raw
    # broadcast ValueError once dim was no longer capped
    params = BCHParams(plus, 1.0, minus, ordering)
    mapped = ordering is Ordering.NORMAL_FIRST
    b = algebra.bch_normal_to_antinormal(params) if mapped else params
    keep = dim - math.ceil(dim / 4)
    _refuse_tables_and_products(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(RangeError) as err:
        algebra.verify_bch(params, dim)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == _need_message(need, abs(b.plus * b.minus * b.zero))
    assert _passes_first_at(b, keep, need)


def _guard(params, keep):
    """The levels the antinormal-first sums run over, or the message that refuses them."""
    try:
        return algebra._antinormal_levels(params, keep)
    except RangeError as err:
        return str(err)


def _need_message(need, q):
    return (f"antinormal-first sums need {need} levels to fall below 2^-53, above the "
            f"limit of 1024 levels (|B+ B- B0| = {q:.6g})")


def _passes_first_at(params, keep, need):
    """Whether the oracle's bound passes 2^-53 at ``need`` and not one level before."""
    before, at = guard_log_bound(params, [need - 1, need], keep)
    return at <= -53 * math.log(2) < before


def test_guard_matches_a_linear_scan():
    # every level, refusal and message of the one search against a plain scan
    # of the same bound, with log n! from scipy's gammaln instead of the table
    rng = np.random.default_rng(31)
    kinds = collections.Counter()
    for keep in (1, 2, 6, 48, 75, 192):  # the compared blocks of dims 2, 3, 8, 64, 100, 256
        for _ in range(40):
            plus = cmath.rect(1.2 * math.sqrt(rng.uniform()), 2 * math.pi * rng.uniform())
            zero = cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(-2.9, 2.9))
            minus = cmath.rect(1.2 * math.sqrt(rng.uniform()), 2 * math.pi * rng.uniform())
            b = BCHParams(plus, zero, minus, Ordering.ANTINORMAL_FIRST)
            q = abs(b.plus * b.minus * b.zero)
            got, level = _guard(b, keep), guard_scan(b, keep)
            if level is not None:
                kinds["levels"] += 1
                assert got == level
            elif q >= 1:
                kinds["diverges"] += 1
                assert got == ("antinormal-first sums do not fall below 2^-53 within 1024 levels "
                               f"(|B+ B- B0| = {q:.6g})")
            else:
                kinds["need"] += 1
                need = int(got.split()[3])
                assert need > 1024 and got == _need_message(need, q)
                assert _passes_first_at(b, keep, need)
    assert kinds == {"levels": 119, "diverges": 80, "need": 41}


@pytest.mark.parametrize("plus,zero,minus,dim,need", [
    (0.1 + 0.05j, 1.0, 0.1, 1008, 1025),  # the documented input
    (0.7, 1.5, 0.9, 1024, 182223),
])
def test_guard_names_the_first_level_past_the_limit(plus, zero, minus, dim, need):
    b = BCHParams(plus, zero, minus, Ordering.ANTINORMAL_FIRST)
    keep = dim - math.ceil(dim / 4)
    assert _guard(b, keep) == _need_message(need, abs(plus * minus * zero))
    assert _passes_first_at(b, keep, need)


def test_levels_past_the_limit_continue_the_guard_bound():
    # math.lgamma continues the log-factorial table past the limit, and the
    # named level is the first at which the bound passes
    n = np.arange(900, 1200)
    assert np.allclose(algebra._log_factorials(900, 1200), scipy.special.gammaln(n + 1.0),
                       rtol=0, atol=1e-9)
    b = BCHParams(0.99, 1.0, 0.999, Ordering.ANTINORMAL_FIRST)
    need = int(_guard(b, 384).split()[3])
    assert need > 1024 and _passes_first_at(b, 384, need)


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


def test_rotation_conjugation_holds_no_third_real_matrix():
    # the two sides and no third array of their size; with the image sum's
    # Hankel term in a temporary and np.abs of the difference it held three
    dim = 512
    algebra.rotation_conjugation_check(3.0, dim)  # imports and caches outside the count
    assert peak_bytes(lambda: algebra.rotation_conjugation_check(3.0, dim)) <= 2.5 * 8 * dim**2


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
    left = (rot[:, None] * expm(ph.vdag + ph.v, 1j * alpha)) * rot.conj()[None, :]
    right = expm(ph.vdag - ph.v, alpha)
    for side, ref in ((algebra._rotated_exponential(alpha, dim), left),
                      (algebra._shift_exponential_images(alpha, dim), right)):
        assert np.all(np.abs(side - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("alpha,dim,error", [
    (0.1, 1, DimensionError),
    (0.1, 64.0, DimensionError),
    (float("nan"), 64, RangeError),
    (float("inf"), 64, RangeError),
    (1.0, fock.MAX_DIM + 1, RangeError),
    (1j, 8, RangeError),  # float(1j) raised TypeError
])
def test_rotation_conjugation_rejects_bad_input(alpha, dim, error):
    with pytest.raises(error):
        algebra.rotation_conjugation_check(alpha, dim)


# The stacked slice product that the streamed one replaced, kept as its
# reference: x's real and imaginary parts are stacked, every slice of x and
# of y is held, and each level is one BLAS product of the leading x slices,
# laid side by side, with the trailing y slices, stacked in reverse.

def _stacked_slices(hi, lo, beta, out):
    for s, top in enumerate(out):
        sigma = 1.5 * 2.0 ** (52 - (s + 1) * beta)
        np.add(hi, sigma, out=top)
        top -= sigma
        if s + 1 < len(out):
            hi, lo = algebra._two_sum(hi - top, lo)
    return out


def _stacked_sliced_product(x, y, mid, left, right):
    ((rh, rl), (ih, il)), (yh, yl) = x, y
    xh, xl = np.stack([rh, ih]), np.stack([rl, il])
    (lm, le), (rm, re) = left, right
    ex = algebra._exponents(np.maximum(np.abs(xh[0]), np.abs(xh[1]))) + mid[None, :]
    ey = algebra._exponents(np.abs(yh))
    bal = ((ey + re[None, :]).max(axis=1) - (ex + le[:, None]).max(axis=0)) // 2
    row = (ex + bal[None, :]).max(axis=1)
    col = (ey - bal[:, None]).max(axis=0)
    p, q = ex.shape
    beta = (52 - (8 * q - 1).bit_length()) // 2
    need = (row + le).max() + (col + re).max() + q.bit_length() + 4 + 60
    count = int(max(1, min(8, -(-need // beta))))
    xe = algebra._int32((mid + bal)[None, :] - row[:, None])
    ye = algebra._int32(-bal[:, None] - col[None, :])
    xs = np.empty((2 * p, count, q))
    _stacked_slices(np.ldexp(xh, xe).reshape(2 * p, q), np.ldexp(xl, xe).reshape(2 * p, q),
                    beta, xs.transpose(1, 0, 2))
    xs = xs.reshape(2 * p, count * q)
    ys = np.empty((count, q, yh.shape[1]))
    _stacked_slices(np.ldexp(yh, ye), np.ldexp(yl, ye), beta, ys[::-1])
    ys = ys.reshape(count * q, -1)
    hi = lo = 0.0
    for level in range(count):
        hi, err = algebra._two_sum(hi, xs[:, :(level + 1) * q] @ ys[(count - 1 - level) * q:])
        lo = lo + err
    out = (hi + lo).reshape(2, p, -1)
    out = (out[0] + 1j * out[1]) * lm[:, None] * rm[None, :]
    return algebra._cldexp(out, (row + le)[:, None] + (col + re)[None, :])


@pytest.mark.parametrize("params,dim", [
    # the documented bch-check input, and as normal-first input: 7 and 8
    # slices of 19 or 20 bits
    (BCHParams(0.1 + 0.05j, 1.0, 0.1, Ordering.ANTINORMAL_FIRST), 256),
    (BCHParams(0.1 + 0.05j, 1.0, 0.1, Ordering.NORMAL_FIRST), 512),
    (BCHParams(0.25 - 0.1j, np.exp(-1.3j), 0.0, Ordering.ANTINORMAL_FIRST), 64),  # B- = 0
    (BCHParams(0.0, np.exp(0.9j), 0.2 - 0.1j, Ordering.ANTINORMAL_FIRST), 64),  # B+ = 0
    # the known misses: 6.1e-4 and 0.19, where the identity holds
    (BCHParams(0.29j, -1.0, 0.3, Ordering.ANTINORMAL_FIRST), 300),
    (BCHParams(0.2 - 0.1j, 0.8j, 0.25, Ordering.NORMAL_FIRST), 256),
])
def test_streamed_slices_give_the_stacked_residuals(params, dim, monkeypatch):
    streamed = algebra.verify_bch(params, dim)
    calls = []

    def stacked(*args):
        calls.append(1)
        return _stacked_sliced_product(*args)

    monkeypatch.setattr(algebra, "_sliced_product", stacked)
    assert algebra.verify_bch(params, dim) == streamed
    # the reference formed both sides; a zero ladder parameter makes both
    # single terms, which no slice product forms
    assert len(calls) == (0 if 0 in (params.plus, params.minus) else 2)


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
        return _stacked_slices(hi, np.ldexp(lo, e), beta, np.empty((count, *hi.shape)))

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


def _both_routes(b, keep):
    """Worst |factorised - gather| over both sides on the leading keep x keep
    block, over the normalisation."""
    a = algebra.bch_antinormal_to_normal(b)
    levels = algebra._antinormal_levels(b, keep)
    binom = algebra._pascal(max(64, 1 << (levels - 1).bit_length()))
    worst = 0.0
    for side in (a, b):
        new = algebra._ordered_blocks((side,), keep, levels, binom)[0]
        old = _gather_ordered_block(side, keep, levels, binom)
        assert np.all(np.isfinite(new))
        worst = max(worst, np.abs(new - old).max() / max(1.0, np.abs(old).max()))
    return worst


def test_factorised_sums_match_gather_route_on_criterion_3_draws():
    worst = max(_both_routes(_criterion_3_draw(i), 48) for i in range(50))
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
    assert _both_routes(b, dim - math.ceil(dim / 4)) <= _ROUTES_AGREE


def test_factorised_sums_match_gather_route_on_normal_first_input():
    a = BCHParams(plus=0.1 + 0.05j, zero=np.exp(0.4j), minus=-0.08j,
                  ordering=Ordering.NORMAL_FIRST)
    assert _both_routes(algebra.bch_normal_to_antinormal(a), 36) <= _ROUTES_AGREE
