import numpy as np
import pytest

from focklat import specfun
from focklat.errors import RangeError

from oracles import series_i, series_j


def test_j_at_zero_argument():
    assert specfun.bessel_j(0, 0.0) == 1.0
    assert specfun.bessel_j(3, 0.0) == 0.0
    assert specfun.bessel_j_all(5, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_i_at_zero_argument():
    assert specfun.bessel_i(0, 0.0) == 1.0
    assert specfun.bessel_i(2, 0.0) == 0.0


def test_j_frozen_series_value():
    # float(series_j(1, 2)) with the ascending-series oracle
    assert specfun.bessel_j(1, 2.0) == pytest.approx(0.5767248077568734, rel=1e-14)
    assert specfun.bessel_j(1, 2.0) == pytest.approx(float(series_j(1, 2)), rel=1e-13)


def test_i_frozen_series_value():
    assert specfun.bessel_i(0, 2.0) == pytest.approx(2.2795853023360673, rel=1e-14)
    assert specfun.bessel_i(0, 2.0) == pytest.approx(float(series_i(0, 2)), rel=1e-13)


@pytest.mark.parametrize("m,x", [(0, 0.7), (2, 3.1), (7, 11.0), (25, 19.5), (60, 20.0),
                                 (120, 35.0), (200, 50.0)])
def test_j_spot_values_against_oracle(m, x):
    ref = float(series_j(m, x, dps=130))
    got = specfun.bessel_j(m, x)
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
        assert specfun.bessel_j(m, -3.7) == (-1) ** m * specfun.bessel_j(m, 3.7)
    vals = specfun.bessel_j_all(6, -2.5)
    ref = specfun.bessel_j_all(6, 2.5)
    assert np.array_equal(vals, ref * (-1.0) ** np.arange(7))


def test_supported_range_errors():
    with pytest.raises(RangeError):
        specfun.bessel_j(201, 1.0)
    with pytest.raises(RangeError):
        specfun.bessel_j(0, 50.5)
    with pytest.raises(RangeError):
        specfun.bessel_j(-1, 1.0)
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
    assert abs(specfun.bessel_j(4, 9.0) - ref) <= 1.24e-14 * max(1.0, abs(ref))
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


@pytest.mark.parametrize("m_max", [1, 64, 200])
def test_batched_rows_are_bitwise_the_scalar_recurrence(m_max):
    xs = np.concatenate([np.geomspace(0.001, 50.0, 40), -np.geomspace(0.02, 30.0, 7), [0.0]])
    rows = specfun.bessel_j_rows(m_max, xs)
    assert rows.shape == (len(xs), m_max + 1)
    rescaled = False
    for x, row in zip(xs, rows):
        assert np.array_equal(row, specfun.bessel_j_all(m_max, x))
        if x != 0.0:
            ref, hit = _scalar_miller_j(m_max, abs(x))
            assert np.array_equal(row, ref * np.where(x < 0, -1.0, 1.0) ** np.arange(m_max + 1))
            rescaled |= hit
    # from order 64 up, the smallest arguments go through the rescale branch
    assert rescaled == (m_max >= 64)


def test_batched_rows_range_errors():
    with pytest.raises(RangeError):
        specfun.bessel_j_rows(4, [1.0, 50.5])
    with pytest.raises(RangeError):
        specfun.bessel_j_rows(4, [float("nan")])


def test_rows_with_their_own_top_orders_are_bitwise_the_one_row_calls():
    # bessel-shift-normalisation's grid, plus a zero, a tiny and a negative argument
    zs = np.linspace(0.25, 10.0, 20)
    xs = np.concatenate([2.0 * zs, [0.0, 1e-300, -7.5]])
    tops = np.concatenate([np.ceil(4 * zs).astype(int) + 61, [3, 9, 140]])
    rows = specfun.bessel_j_rows(tops, xs)
    assert rows.shape == (len(xs), tops.max() + 1)
    for x, top, row in zip(xs, tops, rows):
        assert np.array_equal(row[:top + 1], specfun.bessel_j_all(int(top), x))
        assert not row[top + 1:].any()


def test_rows_top_orders_must_match_the_arguments():
    with pytest.raises(RangeError):
        specfun.bessel_j_rows([4, 5], [1.0])
    with pytest.raises(RangeError):
        specfun.bessel_j_rows([4, -1], [1.0, 2.0])
    with pytest.raises(RangeError):
        specfun.bessel_j_rows([4.0], [1.0])
