import math

import numpy as np
import pytest
from mpmath import mp

from focklat import fock, lattice, specfun, states
from focklat.errors import (
    DimensionError,
    RangeError,
    TruncationOverflowError,
    UnsupportedOracleError,
)
from focklat.lattice import LatticeKind, LatticeSpec

from oracles import series_j


def test_uniform_hamiltonian_matrix():
    h = lattice.build_hamiltonian(LatticeSpec(LatticeKind.UNIFORM, 3))
    assert np.array_equal(h.mat, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex))
    assert h.edge_band == 1


def test_su11_hamiltonian_matrix():
    h = lattice.build_hamiltonian(LatticeSpec(LatticeKind.SU11, 3))
    assert h.mat[1, 0] == 1.0
    assert h.mat[2, 1] == 2.0
    assert np.array_equal(h.mat, h.mat.conj().T)
    assert np.all(np.diag(h.mat) == 0.0)


def test_lattice_spec_validation():
    with pytest.raises(DimensionError):
        LatticeSpec(LatticeKind.UNIFORM, 1)
    with pytest.raises(RangeError):
        LatticeSpec(LatticeKind.UNIFORM, 8, sign=2)


def test_zero_length_propagation():
    spec = LatticeSpec(LatticeKind.UNIFORM, 8)
    v = states.london_state(1.0, 8)
    res = lattice.propagate(spec, v, zmax=0.0)
    assert np.array_equal(res.fields[0], v)
    assert res.norm_drift == 0.0
    assert lattice.compare_to_oracle(
        lattice.propagate(spec, fock.vacuum(8), zmax=0.0), spec) == 0.0


def test_propagation_input_validation():
    spec = LatticeSpec(LatticeKind.UNIFORM, 8)
    with pytest.raises(RangeError):
        lattice.propagate(spec, np.zeros(8, dtype=complex), zmax=1.0)
    with pytest.raises(DimensionError):
        lattice.propagate(spec, np.zeros(9, dtype=complex), zmax=1.0)
    for zmax in (-1.0, math.nan, math.inf):
        with pytest.raises(RangeError):
            lattice.propagate(spec, fock.vacuum(8), zmax=zmax)


def test_edge_leakage_guard():
    # light crosses an 8-guide array well before z = 3
    spec = LatticeSpec(LatticeKind.UNIFORM, 8)
    with pytest.raises(TruncationOverflowError):
        lattice.propagate(spec, fock.vacuum(8), zmax=3.0, samples=30)


def test_uniform_guide0_amplitude():
    spec = LatticeSpec(LatticeKind.UNIFORM, 64)
    res = lattice.propagate(spec, fock.vacuum(64), zmax=1.0, samples=50)
    assert abs(res.fields[-1][0]) == pytest.approx(specfun.bessel_j(1, 2.0), abs=1e-10)


def test_su11_guide0_amplitude():
    spec = LatticeSpec(LatticeKind.SU11, 400)
    res = lattice.propagate(spec, fock.vacuum(400), zmax=1.0, samples=50)
    assert abs(res.fields[-1][0]) == pytest.approx(1.0 / math.cosh(1.0), abs=1e-9)


def test_uniform_propagation_matches_closed_form():
    spec = LatticeSpec(LatticeKind.UNIFORM, 64)
    res = lattice.propagate(spec, fock.vacuum(64), zmax=2.0, samples=50)
    assert lattice.compare_to_oracle(res, spec) <= 1e-8
    assert res.norm_drift <= 1e-10


def test_compare_requires_vacuum_input():
    spec = LatticeSpec(LatticeKind.UNIFORM, 16)
    res = lattice.propagate(spec, fock.basis_state(16, 2), zmax=0.5, samples=10)
    with pytest.raises(UnsupportedOracleError):
        lattice.compare_to_oracle(res, spec)


@pytest.mark.parametrize("kind,dim,guide,zmax", [
    (LatticeKind.UNIFORM, 48, 3, 1.5),
    (LatticeKind.SU11, 96, 2, 0.4),
])
def test_excited_input_matches_exponential_column(kind, dim, guide, zmax):
    # no closed form off guide 0, but exp(i z H) provides the reference
    spec = LatticeSpec(kind, dim)
    res = lattice.propagate(spec, fock.basis_state(dim, guide), zmax=zmax, samples=40)
    h = lattice.build_hamiltonian(spec)
    col = fock.expm(h, 1j * zmax).mat[:, guide]
    assert np.abs(res.fields[-1] - col).max() <= 1e-9


def test_uniform_field_is_phased_shift_state():
    # numeric distribution equals the shift-operator coherent state, times i^m
    dim, z = 64, 1.25
    spec = LatticeSpec(LatticeKind.UNIFORM, dim)
    res = lattice.propagate(spec, fock.vacuum(dim), zmax=z, samples=25)
    m = np.arange(dim)
    expected = (1j**m) * states.london_state(z, dim)
    assert np.abs(res.fields[-1] - expected).max() <= 1e-9


def test_sign_convention_conjugates_field():
    dim, z = 32, 0.8
    plus = lattice.propagate(LatticeSpec(LatticeKind.UNIFORM, dim), fock.vacuum(dim),
                             zmax=z, samples=10)
    minus = lattice.propagate(LatticeSpec(LatticeKind.UNIFORM, dim, sign=-1), fock.vacuum(dim),
                              zmax=z, samples=10)
    assert np.abs(plus.fields[-1] - minus.fields[-1].conj()).max() <= 1e-10


def test_analytic_profile_normalisation():
    for z in (0.5, 2.0, 5.0):
        prof = lattice.impulse_profile(LatticeSpec(LatticeKind.UNIFORM, 80), z)
        assert abs(np.sum(np.abs(prof) ** 2) - 1.0) <= 1e-10
    # growing-coupling profile decays like tanh^(2m): sum enough guides
    z = 2.0
    mtop = int(np.ceil(30.0 / (2.0 * abs(np.log(np.tanh(z)))))) + 10
    prof = lattice.impulse_profile(LatticeSpec(LatticeKind.SU11, mtop), z)
    assert abs(np.sum(np.abs(prof) ** 2) - 1.0) <= 1e-10


@pytest.mark.parametrize("kind", list(LatticeKind))
def test_impulse_profile_is_a_batched_row(kind):
    spec = LatticeSpec(kind, 48)
    zs = [0.0, 0.005, 0.3, 1.7, 4.0, 9.5]
    rows = lattice.impulse_profiles(spec, zs)
    assert rows.shape == (len(zs), 48)
    for z, row in zip(zs, rows):
        assert np.array_equal(lattice.impulse_profile(spec, z), row)


def test_compare_to_oracle_is_the_worst_sample():
    spec = LatticeSpec(LatticeKind.UNIFORM, 32)
    res = lattice.propagate(spec, fock.vacuum(32), zmax=2.0, samples=30)
    worst = max(float(np.abs(f[:31] - lattice.impulse_profile(spec, float(z))[:31]).max())
                for z, f in zip(res.z_grid, res.fields))
    assert lattice.compare_to_oracle(res, spec) == worst


def test_su11_profile_past_cosh_overflow():
    # cosh overflows past z ~ 710.5; the closed form sech z (i tanh z)^m has
    # underflowed to 0 there
    spec = LatticeSpec(LatticeKind.SU11, 8)
    rows = lattice.impulse_profiles(spec, [700.0, 711.0, 800.0])
    assert rows[0, 0] == pytest.approx(1.0 / math.cosh(700.0), rel=1e-15)
    assert rows[1, 0] == pytest.approx(2.0 * math.exp(-711.0), rel=1e-15)
    assert np.array_equal(rows[2], np.zeros(8))


def test_uniform_profile_at_tiny_z_is_the_leading_term():
    # (1/z) i^m (m+1) J_{m+1}(2z) overflowed in the complex division below
    # z ~ 5.6e-309; under 2^-30 the rows are i^m z^m / m! to rounding
    spec = LatticeSpec(LatticeKind.UNIFORM, 12)
    zs = [5e-324, 1e-310, 1e-300, 1e-20, 2.0**-31, 0.5]
    rows = lattice.impulse_profiles(spec, zs)
    for z, row in zip(zs, rows):
        for m, value in enumerate(row):
            ref = 1j**m * complex((m + 1) * series_j(m + 1, 2 * z) / z)
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0)
    # rows above the cutoff are the batched Bessel rows, unchanged by tiny ones
    assert np.array_equal(rows[-1], lattice.impulse_profile(spec, 0.5))


# z = 0, subnormal-adjacent, below and above the leading-term cutoff, and the
# London state's ceiling |alpha| = 20
CLOSED_FORM_ZS = [0.0, 1e-300, 2.0**-31, 0.25, 0.75, 2.0, 7.3, 20.0]


def _quarter(dim):
    return np.array([1, 1j, -1, -1j])[np.arange(dim) % 4]


@pytest.mark.parametrize("dim", [8, 64, 400, 4096])
def test_uniform_profile_is_the_london_state_times_i_to_the_m(dim):
    spec = LatticeSpec(LatticeKind.UNIFORM, dim)
    for z in CLOSED_FORM_ZS:
        want = _quarter(dim) * states.london_state(z, dim) + 0.0
        assert lattice.impulse_profile(spec, z).tobytes() == want.tobytes(), z


@pytest.mark.parametrize("dim", [8, 64])
def test_su11_profile_is_the_displaced_vacuum(dim):
    spec = LatticeSpec(LatticeKind.SU11, dim)
    for z in CLOSED_FORM_ZS:
        want = states.su11_perelomov_state(1j * z, 0.5, dim)
        assert np.array_equal(lattice.impulse_profile(spec, z), want), z


def test_su11_profile_is_the_displaced_vacuum_at_400_guides():
    # the state's phase (alpha/|alpha|)^m is numpy's complex power, which is
    # exact below m = 100 and within a few ulps above
    spec = LatticeSpec(LatticeKind.SU11, 400)
    for z in CLOSED_FORM_ZS:
        got = lattice.impulse_profile(spec, z)
        want = states.su11_perelomov_state(1j * z, 0.5, 400)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), z


@pytest.mark.parametrize("kind,dim,zs", [
    (LatticeKind.SU11, 400, [0.37, 1.0, 2.0]),
    (LatticeKind.UNIFORM, 200, [0.5, 1.0, 3.0]),
])
def test_closed_form_zeros_are_exact(kind, dim, zs):
    # E_m is i^m times a real number: Re E_m = 0 at odd m, Im E_m = 0 at even m
    rows = lattice.impulse_profiles(LatticeSpec(kind, dim), zs)
    assert not rows.real[:, 1::2].any()
    assert not rows.imag[:, 0::2].any()


def _worst_relative(profile, reference):
    """Largest |E_m - i^m ref_m| / |ref_m|, with i^m taken off exactly."""
    real = profile * _quarter(len(profile)).conj()
    assert not real.imag.any()
    return max(float(abs(mp.mpf(float(c)) - ref) / abs(ref)) for c, ref in zip(real.real, reference))


@pytest.mark.parametrize("z", [0.37, 1.0, 2.0])
def test_su11_profile_against_mpmath(z):
    got = lattice.impulse_profile(LatticeSpec(LatticeKind.SU11, 400), z)
    with mp.workdps(50):
        r = mp.mpf(z)
        reference = [mp.sech(r) * mp.tanh(r) ** m for m in range(400)]
        assert _worst_relative(got, reference) <= 3e-14


def test_uniform_profile_against_mpmath():
    z = 3.0
    got = lattice.impulse_profile(LatticeSpec(LatticeKind.UNIFORM, 200), z)
    with mp.workdps(50):
        reference = [(m + 1) * series_j(m + 1, 2 * z) / z for m in range(200)]
        assert _worst_relative(got, reference) <= 2e-15


def test_impulse_profiles_reject_bad_z():
    spec = LatticeSpec(LatticeKind.UNIFORM, 8)
    for bad in (float("nan"), float("inf"), -0.5):
        with pytest.raises(RangeError):
            lattice.impulse_profiles(spec, [0.5, bad])


def test_matrix_methods_have_a_dimension_ceiling():
    # the closed form is O(N) and takes long arrays; matrix methods stop at
    # MAX_DIM before allocating
    big = LatticeSpec(LatticeKind.UNIFORM, 10**9)
    with pytest.raises(RangeError):
        lattice.build_hamiltonian(big)
    spec = LatticeSpec(LatticeKind.SU11, fock.MAX_DIM + 1)
    with pytest.raises(RangeError):
        lattice.propagate(spec, np.eye(1, spec.dim, dtype=complex)[0], zmax=0.1)
