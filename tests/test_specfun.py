import numpy as np
import pytest

from focklat import specfun
from focklat.errors import RangeError

from oracles import miller_j_sorted, peak_bytes, series_i, series_j


def test_j_at_zero_argument():
    assert specfun.bessel_j_all(0, 0.0)[0] == 1.0
    assert specfun.bessel_j_all(3, 0.0)[3] == 0.0
    assert specfun.bessel_j_all(5, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_i_at_zero_argument():
    assert specfun.bessel_i(0, 0.0) == 1.0
    assert specfun.bessel_i(2, 0.0) == 0.0


def test_j_frozen_series_value():
    # float(series_j(1, 2)) with the ascending-series oracle
    assert specfun.bessel_j_all(1, 2.0)[1] == pytest.approx(0.5767248077568734, rel=1e-14)
    assert specfun.bessel_j_all(1, 2.0)[1] == pytest.approx(float(series_j(1, 2)), rel=1e-13)


def test_i_frozen_series_value():
    assert specfun.bessel_i(0, 2.0) == pytest.approx(2.2795853023360673, rel=1e-14)
    assert specfun.bessel_i(0, 2.0) == pytest.approx(float(series_i(0, 2)), rel=1e-13)


@pytest.mark.parametrize("m,x", [(0, 0.7), (2, 3.1), (7, 11.0), (25, 19.5), (60, 20.0),
                                 (120, 35.0), (200, 50.0)])
def test_j_spot_values_against_oracle(m, x):
    ref = float(series_j(m, x, dps=130))
    got = specfun.bessel_j_all(m, x)[m]
    if abs(ref) >= 1e-2:
        assert got == pytest.approx(ref, rel=1e-12)
    else:
        assert abs(got - ref) <= 1e-14


@pytest.mark.parametrize("m,x", [(0, 0.4), (1, 7.0), (5, 14.9), (12, 15.1), (40, 30.0),
                                 (120, 50.0), (200, 50.0)])
def test_i_spot_values_against_oracle(m, x):
    ref = float(series_i(m, x, dps=80))
    assert specfun.bessel_i(m, x) == pytest.approx(ref, rel=1e-12)


def test_j_negative_argument_parity():
    for m in (0, 1, 2, 5, 8):
        assert specfun.bessel_j_all(m, -3.7)[m] == (-1) ** m * specfun.bessel_j_all(m, 3.7)[m]
    vals = specfun.bessel_j_all(6, -2.5)
    ref = specfun.bessel_j_all(6, 2.5)
    assert np.array_equal(vals, ref * (-1.0) ** np.arange(7))


def test_supported_range_errors():
    with pytest.raises(RangeError):
        specfun.bessel_j_all(0, 50.5)
    with pytest.raises(RangeError):
        specfun.bessel_j_all(-1, 1.0)
    with pytest.raises(RangeError):
        specfun.bessel_i(0, -0.5)
    with pytest.raises(RangeError):
        specfun.bessel_i(0, 51.0)
    with pytest.raises(RangeError):
        specfun.bessel_i(201, 1.0)


def test_three_term_recurrence_residual():
    worst = 0.0
    for x in np.linspace(0.1, 20.0, 60):
        jv = specfun.bessel_j_all(61, float(x))
        for m in range(1, 61):
            r = abs(jv[m - 1] + jv[m + 1] - (2.0 * m / x) * jv[m])
            worst = max(worst, r / max(1.0, abs(jv[m])))
    assert worst <= 1e-11


def test_even_order_sum_normalisation():
    for x in np.linspace(0.0, 20.0, 81):
        jv = specfun.bessel_j_all(120, float(x))
        assert abs(jv[0] + 2.0 * jv[2::2].sum() - 1.0) <= 1e-10


def test_shifted_square_sum_normalisation():
    # sum over modes of the squared shift-state amplitudes is one
    for z in np.linspace(0.25, 10.0, 14):
        mtop = int(np.ceil(4 * z)) + 60
        jv = specfun.bessel_j_all(mtop + 1, 2.0 * float(z))
        m = np.arange(mtop + 1)
        total = np.sum(((m + 1) * jv[1:] / z) ** 2)
        assert abs(total - 1.0) <= 1e-10


def test_evaluation_records():
    # about 2e-16 of rounding per step of the 62-step downward recurrence
    ref = float(series_j(4, 9.0))
    assert abs(specfun.bessel_j_all(4, 9.0)[4] - ref) <= 1.24e-14 * max(1.0, abs(ref))
    assert specfun.bessel_i(3, 22.0) == pytest.approx(float(series_i(3, 22.0, dps=80)), rel=1e-12)


@pytest.mark.parametrize("x", [1e-300, 1e-100, -3e-40, 1e-20, 2.0**-31, 2.0**-29])
def test_j_at_tiny_arguments(x):
    # below 2^-30 the rows are the leading series term; the downward
    # recurrence gave NaN below about 1e-60, where its step 2k/x overflows
    row = specfun.bessel_j_rows(12, [x])[0]
    for m in range(13):
        assert row[m] == pytest.approx(float(series_j(m, x)), rel=1e-13, abs=0.0)


def test_high_order_tail_underflows_to_zero():
    vals = specfun.bessel_j_all(400, 1.0)
    assert vals[0] == pytest.approx(float(series_j(0, 1.0)), rel=1e-13)
    assert np.all(np.isfinite(vals))
    assert abs(vals[399]) < 1e-300


def _scalar_miller_j(m_max, x):
    """The single-argument downward recurrence, and whether it rescaled."""
    start = specfun._start_order(m_max, x)
    start += start % 2
    f = np.zeros(start + 2)
    f[start] = 1e-300
    rescaled = False
    for k in range(start, 0, -1):
        f[k - 1] = (2.0 * k / x) * f[k] - f[k + 1]
        if abs(f[k - 1]) > specfun._RESCALE:
            f *= 1.0 / specfun._RESCALE
            rescaled = True
    return f[: m_max + 1] / (f[0] + 2.0 * f[2::2].sum()), rescaled


@pytest.mark.parametrize("m_max", [0, 1, 5, 64, 200])
def test_batched_rows_are_bitwise_the_scalar_recurrence(m_max):
    # zero, tiny and negative arguments among the rows too, each bitwise its one-row call
    xs = np.concatenate([np.geomspace(0.001, 50.0, 40), -np.geomspace(0.02, 30.0, 7),
                         [0.0, -0.0, 1e-300, -7.5]])
    rows = specfun.bessel_j_rows(m_max, xs)
    assert rows.shape == (len(xs), m_max + 1)
    rescaled = False
    for x, row in zip(xs, rows):
        assert np.array_equal(row, specfun.bessel_j_all(m_max, x))
        if abs(x) >= specfun._LEADING_TERM_CUTOFF:
            ref, hit = _scalar_miller_j(m_max, abs(x))
            assert np.array_equal(row, ref * np.where(x < 0, -1.0, 1.0) ** np.arange(m_max + 1))
            rescaled |= hit
    # from order 64 up, the smallest arguments go through the rescale branch
    assert rescaled == (m_max >= 64)
    # J_m(0) is the unit row, with no negative zero for x = -0.0
    for zero in rows[-4:-2]:
        assert zero.tobytes() == np.eye(1, m_max + 1).tobytes()


@pytest.mark.parametrize("m_max", [0, 3, 65, 400])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_unseeded_rows_anywhere_are_bitwise_the_one_row_calls(m_max, where):
    # x = 0 and tiny x are never seeded in the working array and are filled after
    # the pass; a negative x has its odd orders negated in place
    xs = list(np.linspace(0.5, 10.0, 9))
    at = {"first": 0, "middle": 4, "last": len(xs)}[where]
    for special in (0.0, 1e-300, -2.0**-31, -3.5):
        batch = np.array(xs[:at] + [special] + xs[at:])
        rows = specfun.bessel_j_rows(m_max, batch)
        for x, row in zip(batch, rows):
            assert row.tobytes() == specfun.bessel_j_all(m_max, x).tobytes()


def test_rows_hold_one_working_array():
    # 0.106 MB of rows at 201 arguments and orders 0..65; the working array runs
    # to order 117 (0.190 MB).  A second table of the result's size beside it and
    # numpy's buffers for the broadcast normalisation made it 0.499 MB
    xs = np.linspace(0.0, 10.0, 201)
    specfun.bessel_j_rows(65, xs)
    assert peak_bytes(lambda: specfun.bessel_j_rows(65, xs)) <= 0.25e6


def test_rows_at_scale_hold_little_more_than_the_result():
    # 32.8 MB of rows at 2001 arguments and orders 0..2048; the working array is
    # 2.5% wider.  With a copy of the rows beside it the peak was 67.5 MB
    xs = np.linspace(0.0, 10.0, 2001)
    specfun.bessel_j_rows(2048, xs[:3])
    assert peak_bytes(lambda: specfun.bessel_j_rows(2048, xs)) <= 1.1 * 8 * 2001 * 2049


def test_batched_rows_range_errors():
    with pytest.raises(RangeError):
        specfun.bessel_j_rows(4, [1.0, 50.5])
    with pytest.raises(RangeError):
        specfun.bessel_j_rows(4, [float("nan")])
    with pytest.raises(RangeError, match=r"one-dimensional, got shape \(2, 1\)"):
        specfun.bessel_j_rows(4, [[1.0], [2.0]])


def test_rows_top_orders_must_match_the_arguments():
    # one top order for every row: an array of them is refused
    for m_max in ([4, 5], np.array([4, 5]), [4], -1, 4.0):
        with pytest.raises(RangeError):
            specfun.bessel_j_rows(m_max, [1.0, 2.0])


@pytest.mark.parametrize("m_max", [0, 1, 64, 400])
def test_argument_order_pass_is_bitwise_the_sorted_pass(m_max):
    # the reference sorts its rows by falling start and undoes the sort at the end;
    # rows in argument order, each zero until its own start, give the same bytes.
    # |x| > 20 moves the start above m_max + 50, so the batches mix starts
    rng = np.random.default_rng(33 + m_max)
    for _ in range(30):
        xs = np.exp(rng.uniform(np.log(1e-6), np.log(50.0), int(rng.integers(1, 40))))
        batches = [xs, np.sort(xs), np.sort(xs)[::-1], np.repeat(xs, 2), xs[:1],
                   rng.permutation(np.concatenate([xs, xs[::2]]))]
        for batch in batches:
            ref = miller_j_sorted(m_max, batch, specfun._start_order, specfun._RESCALE)
            assert specfun._miller_j(m_max, batch.copy()).tobytes() == ref.tobytes()
    # one row, two rows of one start, and rows on each side of |x| = 20
    for batch in ([6.0], [6.0, 6.5], [19.9, 20.1], [20.1, 19.9, 50.0, 1e-6], [50.0]):
        batch = np.array(batch)
        ref = miller_j_sorted(m_max, batch, specfun._start_order, specfun._RESCALE)
        assert specfun._miller_j(m_max, batch.copy()).tobytes() == ref.tobytes()


def test_bool_order_is_refused_by_the_rows():
    # True passed the integer check and gave a (1, 2) array
    with pytest.raises(RangeError, match="order must be a non-negative integer, got True"):
        specfun.bessel_j_rows(True, [1.0])
    with pytest.raises(RangeError, match="got False"):
        specfun.bessel_j_all(False, 1.0)


def test_bool_order_is_refused_by_bessel_i():
    # True passed the integer check and gave I_1(1) = 0.5652
    with pytest.raises(RangeError, match="order must be a non-negative integer, got True"):
        specfun.bessel_i(True, 1.0)
