import numpy as np
import pytest

from focklat import fock, specfun
from focklat.errors import DimensionError, NumericError
from focklat.fock import TruncatedOperator


def _lowering(n):
    """The ladder-down operator <m|a|n> = sqrt(n) delta_{m,n-1}: a non-normal test operand."""
    return TruncatedOperator(np.diag(np.sqrt(np.arange(1.0, n)), 1))


def _raising(n):
    """Its adjoint; the truncated top level is annihilated, so it is marked as edge."""
    return TruncatedOperator(np.diag(np.sqrt(np.arange(1.0, n)), -1), edge_band=1)


def _number(n):
    """diag(0, 1, ..., n - 1)."""
    return TruncatedOperator(np.diag(np.arange(float(n))))


def test_apply():
    v = np.array([0, 0, 1, 0], dtype=complex)
    assert np.allclose(fock.identity(4).apply(v), v)
    zero = TruncatedOperator(np.zeros((4, 4)))
    assert np.allclose(zero.apply(v), np.zeros(4))
    out = _lowering(4).apply(v)
    assert np.allclose(out, [0, np.sqrt(2), 0, 0])


def test_commutator_canonical():
    n = 8
    a, ad = _lowering(n), _raising(n)
    c = fock.commutator(a, ad)
    expected = np.eye(n, dtype=complex)
    expected[-1, -1] = -(n - 1)  # truncation artifact at the top level
    assert np.allclose(c.mat, expected)
    assert c.edge_band == a.edge_band + ad.edge_band + 1


def test_commutator_number_ladder():
    n = 8
    num, ad = _number(n), _raising(n)
    c = fock.commutator(num, ad)
    keep = n - c.edge_band
    assert np.allclose(c.mat[:keep, :keep], ad.mat[:keep, :keep])
    a = _lowering(n)
    assert np.allclose(fock.commutator(a, a).mat, np.zeros((n, n)))


def test_dimension_validation():
    with pytest.raises(DimensionError):
        fock.identity(1)
    with pytest.raises(DimensionError):
        fock.identity(4).apply(np.zeros(5, dtype=complex))
    with pytest.raises(DimensionError):
        fock.commutator(fock.identity(4), fock.identity(5))
    with pytest.raises(DimensionError):
        fock.basis_state(4, 4)


def test_expm_trivial_cases():
    ident = fock.expm(_number(5), 0.0)
    assert np.allclose(ident.mat, np.eye(5))
    d = TruncatedOperator(np.diag([0.0, 1.0, 2.0]).astype(complex))
    e = fock.expm(d, 1.0)
    assert np.allclose(np.diag(e.mat), [1.0, np.e, np.e**2], rtol=1e-14)


def test_expm_rejects_nonfinite():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = np.inf
    with pytest.raises(NumericError):
        fock.expm(TruncatedOperator(m))


def test_expm_unitary_norm_preservation():
    # exp(i z H) with Hermitian H keeps every state's norm
    n = 64
    h = _lowering(n) + _raising(n)
    u = fock.expm(h, 1.5j)
    rng = np.random.default_rng(7)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert abs(fock.norm_sq(u.apply(v)) - fock.norm_sq(v)) <= 1e-12 * fock.norm_sq(v)


def test_expm_shift_generator_column_matches_bessel_profile():
    # column 0 of exp(i z (Vdag + V)) carries (1/z) i^m (m+1) J_{m+1}(2z)
    n, z = 64, 1.0
    v = np.zeros((n, n), dtype=complex)
    v[np.arange(n - 1), np.arange(1, n)] = 1.0
    op = TruncatedOperator(v + v.conj().T)
    col = fock.expm(op, 1j * z).mat[:, 0]
    m = np.arange(n)
    jv = specfun.bessel_j_all(n, 2.0 * z)
    expected = (1j**m) * (m + 1) * jv[1:] / z
    assert np.abs(col - expected).max() <= 1e-12


def test_operator_immutability_and_arithmetic():
    a = _lowering(4)
    with pytest.raises(ValueError):
        a.mat[0, 0] = 1.0
    s = a + _raising(4)
    assert np.allclose(s.mat, s.adjoint().mat)  # Hermitian
    assert np.allclose((2.0 * a).mat, a.mat * 2)
    assert np.allclose((-a).mat, -a.mat)
    p = _raising(4) @ _lowering(4)
    assert np.allclose(p.mat, _number(4).mat)
