import numpy as np
import pytest

from focklat import fock, specfun
from focklat.errors import DimensionError, NumericError, RangeError
from focklat.fock import TruncatedOperator

from oracles import expm


def _lowering(n):
    """The ladder-down operator <m|a|n> = sqrt(n) delta_{m,n-1}: a non-normal test operand."""
    return TruncatedOperator(n, {1: np.sqrt(np.arange(1.0, n + 1))})


def _raising(n):
    """Its adjoint; the truncated top level is annihilated."""
    return TruncatedOperator(n, {-1: np.sqrt(np.arange(float(n)))})


def _number(n):
    """diag(0, 1, ..., n - 1)."""
    return TruncatedOperator(n, {0: np.arange(float(n))})


def test_apply():
    v = np.array([0, 0, 1, 0], dtype=complex)
    assert np.allclose(fock.identity(4).apply(v), v)
    zero = TruncatedOperator(4, {})
    assert np.allclose(zero.apply(v), np.zeros(4))
    out = _lowering(4).apply(v)
    assert np.allclose(out, [0, np.sqrt(2), 0, 0])


def test_commutator_canonical():
    n = 8
    a, ad = _lowering(n), _raising(n)
    c = fock.commutator(a, ad)
    expected = np.eye(n, dtype=complex)
    expected[-1, -1] = -(n - 1)  # truncation artifact at the top level
    assert np.allclose(c.to_dense(), expected)


def test_commutator_number_ladder():
    n = 8
    num, ad = _number(n), _raising(n)
    # [n, a+] = a+ holds on every level of the truncated space
    assert np.allclose(fock.commutator(num, ad).to_dense(), ad.to_dense())
    a = _lowering(n)
    assert np.allclose(fock.commutator(a, a).to_dense(), np.zeros((n, n)))


def test_dimension_validation():
    with pytest.raises(DimensionError):
        fock.identity(1)
    with pytest.raises(DimensionError):
        fock.identity(4).apply(np.zeros(5, dtype=complex))
    with pytest.raises(DimensionError):
        fock.commutator(fock.identity(4), fock.identity(5))
    with pytest.raises(DimensionError):
        fock.basis_state(4, 4)
    with pytest.raises(DimensionError):  # numpy raised IndexError
        fock.basis_state(4, 1.5)
    # numpy reads a bool index as a mask: True gave all ones, False the zero vector
    for flag in (True, False):
        with pytest.raises(DimensionError, match=rf"^basis index {flag} is not an integer in "):
            fock.basis_state(4, flag)


def test_expm_trivial_cases():
    ident = expm(_number(5), 0.0)
    assert np.allclose(ident, np.eye(5))
    d = TruncatedOperator(3, {0: [0.0, 1.0, 2.0]})
    e = expm(d, 1.0)
    assert np.allclose(np.diag(e), [1.0, np.e, np.e**2], rtol=1e-14)


def test_expm_rejects_nonfinite():
    with pytest.raises(NumericError):
        expm(TruncatedOperator(3, {0: [np.inf, 0.0, 0.0]}))


def test_expm_unitary_norm_preservation():
    # exp(i z H) with Hermitian H keeps every state's norm
    n = 64
    h = _lowering(n) + _raising(n)
    u = expm(h, 1.5j)
    rng = np.random.default_rng(7)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert abs(fock.norm_sq(u @ v) - fock.norm_sq(v)) <= 1e-12 * fock.norm_sq(v)


def test_expm_shift_generator_column_matches_bessel_profile():
    # column 0 of exp(i z (Vdag + V)) carries (1/z) i^m (m+1) J_{m+1}(2z)
    n, z = 64, 1.0
    op = TruncatedOperator(n, {-1: np.ones(n), 1: np.ones(n)})
    col = expm(op, 1j * z)[:, 0]
    m = np.arange(n)
    jv = specfun.bessel_j_all(n, 2.0 * z)
    expected = (1j**m) * (m + 1) * jv[1:] / z
    assert np.abs(col - expected).max() <= 1e-12


def test_operator_immutability_and_arithmetic():
    a = _lowering(4)
    with pytest.raises(ValueError):
        a.diagonals[1][0] = 1.0
    with pytest.raises(TypeError):
        a.diagonals[0] = np.zeros(4)
    s = a + _raising(4)
    assert np.allclose(s.to_dense(), s.adjoint().to_dense())  # Hermitian
    assert np.allclose((2.0 * a).to_dense(), a.to_dense() * 2)
    assert np.allclose((-a).to_dense(), -a.to_dense())
    p = _raising(4) @ _lowering(4)
    assert np.allclose(p.to_dense(), _number(4).to_dense())


def _random_banded(rng, dim, offsets):
    """A random operator on ``offsets`` and its dense matrix, built by np.diag."""
    diagonals = {k: rng.normal(size=dim) + 1j * rng.normal(size=dim)
                 for k in offsets if abs(k) < dim}
    dense = np.zeros((dim, dim), dtype=complex)
    for k, d in diagonals.items():
        dense += np.diag(d[max(0, -k):dim - max(0, k)], k)
    return TruncatedOperator(dim, diagonals), dense


@pytest.mark.parametrize("dim", [2, 3, 8, 65])
def test_banded_operations_match_dense(dim):
    rng = np.random.default_rng(dim)
    a, da = _random_banded(rng, dim, range(-2, 3))
    b, db = _random_banded(rng, dim, (-2, 1))
    c, dc = _random_banded(rng, dim, (2,))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for op, dense in ((a, da), (b, db), (c, dc)):
        assert np.array_equal(op.to_dense(), dense)
        assert np.allclose(op.apply(v), dense @ v, rtol=0, atol=1e-13)
        assert np.array_equal(op.adjoint().to_dense(), dense.conj().T)
        assert np.array_equal((-op).to_dense(), -dense)
        assert np.array_equal(((0.5 - 2j) * op).to_dense(), dense * (0.5 - 2j))
        for other, dother in ((a, da), (b, db), (c, dc)):
            assert np.array_equal((op + other).to_dense(), dense + dother)
            assert np.array_equal((op - other).to_dense(), dense - dother)
            assert np.allclose((op @ other).to_dense(), dense @ dother, rtol=0, atol=1e-13)
            assert np.allclose(fock.commutator(op, other).to_dense(),
                               dense @ dother - dother @ dense, rtol=0, atol=1e-13)


def test_constructor_zeroes_entries_outside_the_space():
    op = TruncatedOperator(3, {1: [1.0, 2.0, 3.0], -2: [4.0, 5.0, 6.0]})
    assert np.array_equal(op.diagonals[1], [1.0, 2.0, 0.0])
    assert np.array_equal(op.diagonals[-2], [0.0, 0.0, 6.0])
    assert np.array_equal(op.to_dense(), [[0, 1, 0], [0, 0, 2], [6, 0, 0]])


@pytest.mark.parametrize("dim,diagonals,edge_band,error", [
    (4, {3: np.ones(4), 4: np.ones(4)}, 0, DimensionError),  # offset past the space
    (4, {-4: np.ones(4)}, 0, DimensionError),
    (4, {0.5: np.ones(4)}, 0, DimensionError),
    (4, {0: np.ones(4), "1": np.ones(4)}, 0, DimensionError),
    (4, {0: np.ones(3)}, 0, DimensionError),  # diagonal of the wrong length
    (4, {0: np.ones(4)}, 5, DimensionError),
    (1, {0: np.ones(1)}, 0, DimensionError),
    (fock.MAX_DIM + 1, {}, 0, RangeError),
    (4, {True: np.ones(4)}, 0, DimensionError),  # was stored at offset 1
    (4, {False: np.ones(4)}, 0, DimensionError),
    (4, {0: np.ones(4)}, 0.5, DimensionError),  # was stored as 0.5
    (4, {0: np.ones(4)}, True, DimensionError),  # was stored as True
    (4, {0: np.ones(4)}, np.float64(2.0), DimensionError),  # was stored as a float
])
def test_constructor_validation(dim, diagonals, edge_band, error):
    with pytest.raises(error):
        TruncatedOperator(dim, diagonals, edge_band)


def test_edge_band_is_stored_as_an_int():
    band = TruncatedOperator(4, {0: np.ones(4)}, np.int64(2)).edge_band
    assert band == 2 and type(band) is int
