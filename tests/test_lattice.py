import math

import numpy as np
import pytest
from mpmath import mp

from focklat import fock, lattice, specfun, states
from focklat.algebra import _half_spectrum
from focklat.errors import (
    DimensionError,
    NumericError,
    RangeError,
    TruncationOverflowError,
    UnsupportedOracleError,
)
from focklat.lattice import LatticeKind, LatticeSpec

from oracles import expm, peak_bytes, series_j


def test_uniform_hamiltonian_matrix():
    h = lattice.build_hamiltonian(LatticeSpec(LatticeKind.UNIFORM, 3))
    assert np.array_equal(h.to_dense(), np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex))
    assert h.edge_band == 1


def test_su11_hamiltonian_matrix():
    h = lattice.build_hamiltonian(LatticeSpec(LatticeKind.SU11, 3)).to_dense()
    assert h[1, 0] == 1.0
    assert h[2, 1] == 2.0
    assert np.array_equal(h, h.conj().T)
    assert np.all(np.diag(h) == 0.0)


@pytest.mark.parametrize("n", [3, 4, 400])
def test_su11_hamiltonian_flags_the_top_quarter(n):
    # the value that the benchmark's tridiagonal check reads
    assert lattice.build_hamiltonian(LatticeSpec(LatticeKind.SU11, n)).edge_band == math.ceil(n / 4)


def test_lattice_spec_validation():
    with pytest.raises(DimensionError):
        LatticeSpec(LatticeKind.UNIFORM, 1)
    # any kind but a LatticeKind ran as the uniform lattice
    for kind in ("su11", None):
        with pytest.raises(RangeError):
            LatticeSpec(kind, 64)


def test_zero_length_propagation():
    spec = LatticeSpec(LatticeKind.UNIFORM, 8)
    v = states.london_state(1.0, 8)
    res = lattice.propagate(spec, v, zmax=0.0, samples=3)
    # one row per sample, as at any other length
    assert res.fields.shape == (4, 8) and np.array_equal(res.z_grid, np.zeros(4))
    assert all(np.array_equal(field, v) for field in res.fields)
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
    # np.linspace raised a raw TypeError for the first three, and True ran as 1;
    # counts no machine can hold raised a raw ValueError, or an IndexError from
    # about 2^63 - 512, where the count rounds to 2^63 as a double
    for samples in (2.5, np.float64(4.0), "3", True, False, None, 0, -2,
                    2**62, 2**63 - 2, 2**63 - 1, np.int64(2**63 - 1), 10**20):
        with pytest.raises(RangeError):
            lattice.propagate(spec, fock.vacuum(8), zmax=0.5, samples=samples)
    assert lattice.propagate(spec, fock.vacuum(8), 0.5, samples=np.int64(3)).fields.shape == (4, 8)


def test_edge_leakage_guard():
    # light crosses an 8-guide array well before z = 3
    spec = LatticeSpec(LatticeKind.UNIFORM, 8)
    with pytest.raises(TruncationOverflowError):
        lattice.propagate(spec, fock.vacuum(8), zmax=3.0, samples=30)


def _one_block(spec, field0, zmax, samples):
    """propagate's fields, norm drift and running edge leakage, with every
    sample in one product of each kind, as before propagate took blocks.
    """
    ue, uo, rate, weight = _half_spectrum(lattice._couplings(spec)[0])
    theta = np.outer(np.linspace(0.0, zmax, samples + 1)[1:], rate)
    cos, sin = np.cos(theta), np.sin(theta)
    even, odd = field0[0::2], field0[1::2]
    a_re, a_im = weight * (even.real @ ue), weight * (even.imag @ ue)
    b_re, b_im = weight * (odd.real @ uo), weight * (odd.imag @ uo)
    fields = np.empty((samples + 1, spec.dim), dtype=complex)
    fields[0] = field0
    fields[1:, 0::2].real = (cos * a_re - sin * b_im) @ ue.T
    fields[1:, 0::2].imag = (cos * a_im + sin * b_re) @ ue.T
    fields[1:, 1::2].real = (cos * b_re - sin * a_im) @ uo.T
    fields[1:, 1::2].imag = (sin * a_re + cos * b_im) @ uo.T
    fields[1:] += 0.0
    norms = np.sum(np.abs(fields) ** 2, axis=1)
    drift = float(np.abs(norms - np.vdot(field0, field0).real).max())
    return fields, drift, np.maximum.accumulate(np.abs(fields[:, -1]) ** 2)


@pytest.mark.parametrize("kind,dim,zmax", [
    (LatticeKind.UNIFORM, 64, 1.5), (LatticeKind.UNIFORM, 65, 1.5),
    (LatticeKind.SU11, 400, 1.0), (LatticeKind.SU11, 401, 1.0),
])
def test_blocked_fields_are_the_one_block_fields(kind, dim, zmax):
    # Bitwise where N/2 is a multiple of 8 and no block is a single sample.
    # Elsewhere BLAS may sum a block of another length in another order (a
    # one-sample block is a matrix-vector product): 1.1e-15 was the largest
    # move seen, at N = 401.
    spec = LatticeSpec(kind, dim)
    three = np.zeros(dim, dtype=complex)
    three[:3] = [0.6 - 0.2j, -0.3 + 0.5j, 0.25j]
    for samples in (1, 63, 64, 65, 128, 129):
        bitwise = dim % 16 == 0 and (samples == 1 or samples % lattice._BLOCK != 1)
        for field0 in (fock.vacuum(dim), three):
            res = lattice.propagate(spec, field0, zmax, samples)
            fields, drift, edge = _one_block(spec, field0, zmax, samples)
            if bitwise:
                assert res.fields.tobytes() == fields.tobytes(), samples
                assert (res.norm_drift, res.edge_leakage) == (drift, edge[-1]), samples
            else:
                assert np.abs(res.fields - fields).max() <= 2e-15, samples
                assert res.norm_drift == pytest.approx(drift, rel=0.0, abs=1e-14), samples
                # a running max of |E_{N-1}| moves no more than the fields
                assert abs(math.sqrt(res.edge_leakage) - math.sqrt(edge[-1])) <= 2e-15, samples


def test_edge_leakage_guard_past_the_first_block():
    # the first sample over the limit, the 92nd, is in the second block; the
    # message and z are those of the running maximum over all samples
    spec = LatticeSpec(LatticeKind.UNIFORM, 8)
    zs = np.linspace(0.0, 3.0, 301)
    edge = _one_block(spec, fock.vacuum(8), 3.0, 300)[2]
    s = np.flatnonzero(edge[1:] > lattice.LEAKAGE_LIMIT)[0] + 1
    assert s > lattice._BLOCK
    with pytest.raises(TruncationOverflowError) as info:
        lattice.propagate(spec, fock.vacuum(8), zmax=3.0, samples=300)
    assert str(info.value) == (f"edge leakage {edge[s]:.3e} exceeds 1.0e-08 at z = {zs[s]:.6g}; "
                               "increase the number of guides (dim = 8)")


def test_edge_leakage_keeps_the_input_sample():
    # z = 0 is in both running maxima: light put in at the edge guide is the
    # largest leakage of a short run, and over the limit it is reported at
    # the first propagated sample
    spec = LatticeSpec(LatticeKind.UNIFORM, 64)
    field0 = fock.vacuum(64)
    field0[-1] = 1e-5
    res = lattice.propagate(spec, field0, zmax=0.5, samples=100)
    fields, drift, edge = _one_block(spec, field0, 0.5, 100)
    assert res.edge_leakage == edge[-1] == abs(field0[-1]) ** 2
    assert res.norm_drift == drift
    with pytest.raises(TruncationOverflowError) as info:
        lattice.propagate(spec, fock.basis_state(64, 63), zmax=1.0, samples=200)
    assert str(info.value) == ("edge leakage 1.000e+00 exceeds 1.0e-08 at z = 0.005; "
                               "increase the number of guides (dim = 64)")


def test_propagate_holds_the_fields_and_one_block():
    # the fields are 1.29 MB; with all 200 samples in one block the peak was 3.30 MB
    spec = LatticeSpec(LatticeKind.SU11, 400)
    lattice.propagate(spec, fock.vacuum(400), 2.0, samples=200)  # imports outside the count
    assert peak_bytes(lambda: lattice.propagate(spec, fock.vacuum(400), 2.0, samples=200)) <= 2.75e6


def _blocked_reference(spec, field0, zmax, samples):
    """propagate's block loop as it was before it released each block's
    temporaries, squared |E| in place and formed a product's last term in its
    cos or sin: fields, norm drift, edge leakage.
    """
    z_grid = lattice.sample_grid(zmax, samples)
    ue, uo, rate, weight = _half_spectrum(lattice._couplings(spec)[0])
    norm0 = float(np.vdot(field0, field0).real)
    even, odd = field0[0::2], field0[1::2]
    a_re, a_im = weight * (even.real @ ue), weight * (even.imag @ ue)
    b_re, b_im = weight * (odd.real @ uo), weight * (odd.imag @ uo)
    fields = np.empty((samples + 1, spec.dim), dtype=complex)
    fields[0] = field0
    products = [(fields[:, 0::2].real, ue, a_re, -b_im), (fields[:, 0::2].imag, ue, a_im, b_re),
                (fields[:, 1::2].real, uo, b_re, -a_im), (fields[:, 1::2].imag, uo, b_im, a_re)]
    drift = abs(np.sum(np.abs(field0) ** 2) - norm0)
    leak = np.abs(field0[-1]) ** 2
    for lo in range(1, samples + 1, lattice._BLOCK):
        rows = slice(lo, lo + lattice._BLOCK)
        theta = np.outer(z_grid[rows], rate)
        cos = np.cos(theta)
        sin = np.sin(theta, out=theta)
        for out, u, x, y in products:
            x, y = (c if c.any() else None for c in (x, y))
            if x is None:
                mixed = None if y is None else sin * y
            else:
                mixed = cos * x
                if y is not None:
                    mixed += sin * y
            out[rows] = 0.0 if mixed is None else mixed @ u.T
        block = fields[rows]
        block += 0.0
        drift = max(drift, np.abs(np.sum(np.abs(block) ** 2, axis=1) - norm0).max())
        edge = np.maximum(np.abs(block[:, -1]) ** 2, leak)
        over = np.flatnonzero(edge > lattice.LEAKAGE_LIMIT)
        if over.size:
            raise TruncationOverflowError(
                f"edge leakage {edge[over[0]]:.3e} exceeds {lattice.LEAKAGE_LIMIT:.1e} at "
                f"z = {z_grid[lo + over[0]]:.6g}; increase the number of guides (dim = {spec.dim})")
        leak = edge.max()
    return fields, float(drift), float(leak)


def _two_guides(dim, first):
    field0 = np.zeros(dim, dtype=complex)
    field0[first:first + 2] = [0.6 - 0.2j, -0.3 + 0.5j]
    return field0


@pytest.mark.parametrize("kind,dim,zmax", [
    (LatticeKind.SU11, 200, 1.0), (LatticeKind.SU11, 400, 2.0), (LatticeKind.SU11, 401, 2.0),
    (LatticeKind.UNIFORM, 64, 5.0), (LatticeKind.UNIFORM, 65, 5.0), (LatticeKind.UNIFORM, 256, 5.0),
])
def test_propagate_is_bitwise_the_reference_block_loop(kind, dim, zmax):
    spec = LatticeSpec(kind, dim)
    for field0 in (fock.vacuum(dim), _two_guides(dim, 0)):
        for samples in (1, 31, 32, 33, 63, 64, 65, 100, 129, 200):
            res = lattice.propagate(spec, field0, zmax, samples)
            fields, drift, leak = _blocked_reference(spec, field0, zmax, samples)
            assert res.fields.tobytes() == fields.tobytes(), samples
            assert (res.norm_drift, res.edge_leakage) == (drift, leak), samples


def test_propagate_overflows_as_the_reference_block_loop():
    # light put in at guides 3 and 4 of 400 SU(1,1) guides reaches the edge before z = 2
    spec = LatticeSpec(LatticeKind.SU11, 400)
    field0 = _two_guides(400, 3)
    with pytest.raises(TruncationOverflowError) as expected:
        _blocked_reference(spec, field0, 2.0, 200)
    with pytest.raises(TruncationOverflowError) as info:
        lattice.propagate(spec, field0, zmax=2.0, samples=200)
    assert str(info.value) == str(expected.value)
    assert " at z = 1." in str(info.value)


@pytest.mark.parametrize("field0,message", [
    (1e308 * fock.vacuum(8), "the input field's squared norm overflows double precision"),
    (np.full(8, 1e308 + 0j), "the input field's squared norm overflows double precision"),
    (np.full(8, np.nan + 0j), "input field contains non-finite amplitudes"),
], ids=["1e308-at-guide-0", "1e308-everywhere", "nan"])
def test_propagate_refuses_a_non_finite_input_or_norm(field0, message):
    # a squared norm that overflowed warned in a square or a product, and at
    # guide 0 then raised TruncationOverflowError on an inf edge leakage
    spec = LatticeSpec(LatticeKind.UNIFORM, 8)
    for zmax in (0.0, 1.0):
        with pytest.raises(NumericError, match=f"^{message}$"):
            lattice.propagate(spec, field0, zmax=zmax, samples=4)


def test_uniform_guide0_amplitude():
    spec = LatticeSpec(LatticeKind.UNIFORM, 64)
    res = lattice.propagate(spec, fock.vacuum(64), zmax=1.0, samples=50)
    assert abs(res.fields[-1][0]) == pytest.approx(specfun.bessel_j_all(1, 2.0)[1], abs=1e-10)


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
    (LatticeKind.UNIFORM, 63, 5, 1.5),
    (LatticeKind.SU11, 9, 1, 0.1),
])
def test_excited_input_matches_exponential_column(kind, dim, guide, zmax):
    # the dense exp(i z H) is the reference for input at any guide
    spec = LatticeSpec(kind, dim)
    res = lattice.propagate(spec, fock.basis_state(dim, guide), zmax=zmax, samples=40)
    h = lattice.build_hamiltonian(spec)
    col = expm(h, 1j * zmax)[:, guide]
    assert np.abs(res.fields[-1] - col).max() <= 1e-9


# (lattice, guides, z): odd and even N, each short enough to stay off the edge
DENSE_CASES = [
    (LatticeKind.UNIFORM, 9, 0.3), (LatticeKind.UNIFORM, 10, 0.3),
    (LatticeKind.UNIFORM, 63, 1.5), (LatticeKind.UNIFORM, 64, 1.5),
    (LatticeKind.SU11, 9, 0.1), (LatticeKind.SU11, 10, 0.1),
    (LatticeKind.SU11, 63, 0.4), (LatticeKind.SU11, 64, 0.4),
]


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("kind,dim,zmax", DENSE_CASES)
def test_propagation_matches_dense_exponential(kind, dim, zmax, direction):
    # odd N has a zero mode on the even guides, which the positive half of
    # the spectrum does not carry; it must still reach the fields.
    # exp(-i z H) E0 is propagate's conjugation recipe, conj(exp(i z H) conj(E0))
    spec = LatticeSpec(kind, dim)
    field0 = np.zeros(dim, dtype=complex)
    field0[:3] = [0.6 - 0.2j, -0.3 + 0.5j, 0.25j]
    turn = np.asarray if direction == 1 else np.conj
    res = lattice.propagate(spec, turn(field0), zmax=zmax, samples=4)
    h = lattice.build_hamiltonian(spec)
    for z, field in zip(res.z_grid, turn(res.fields)):
        ref = expm(h, 1j * direction * z) @ field0
        assert np.abs(field - ref).max() <= 1e-12, z


@pytest.mark.parametrize("kind,dim,zmax", [c for c in DENSE_CASES if c[1] % 2])
def test_propagated_zeros_are_exact_at_odd_dims(kind, dim, zmax):
    # E_m is i^m times a real number from guide 0, and i^(m-1) times one from guide 1
    spec = LatticeSpec(kind, dim)
    fields = lattice.propagate(spec, fock.vacuum(dim), zmax=zmax, samples=8).fields
    assert not fields.real[:, 1::2].any()
    assert not fields.imag[:, 0::2].any()
    fields = lattice.propagate(spec, fock.basis_state(dim, 1), zmax=zmax, samples=8).fields
    assert not fields.real[:, 0::2].any()
    assert not fields.imag[:, 1::2].any()


def test_uniform_field_is_phased_shift_state():
    # numeric distribution equals the shift-operator coherent state, times i^m
    dim, z = 64, 1.25
    spec = LatticeSpec(LatticeKind.UNIFORM, dim)
    res = lattice.propagate(spec, fock.vacuum(dim), zmax=z, samples=25)
    m = np.arange(dim)
    expected = (1j**m) * states.london_state(z, dim)
    assert np.abs(res.fields[-1] - expected).max() <= 1e-9


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


@pytest.mark.parametrize("kind,dim,zmax", [
    (LatticeKind.SU11, 2, 1e-5), (LatticeKind.SU11, 2, 0.0), (LatticeKind.SU11, 3, 1e-3),
    (LatticeKind.SU11, 200, 1.5), (LatticeKind.SU11, 401, 2.0),
    (LatticeKind.UNIFORM, 33, 3.0), (LatticeKind.UNIFORM, 64, 5.0),
    (LatticeKind.UNIFORM, 65, 5.0),
])
def test_compare_to_oracle_is_the_complex_modulus(kind, dim, zmax):
    # per parity against the signed real rows: bitwise the modulus of the
    # complex difference from impulse_profiles, also where a parity has no
    # kept guide (su11 at dim 2 keeps guide 0 alone)
    spec = LatticeSpec(kind, dim)
    res = lattice.propagate(spec, fock.vacuum(dim), zmax)
    keep = dim - lattice.build_hamiltonian(spec).edge_band
    ana = lattice.impulse_profiles(spec, res.z_grid)
    modulus = np.abs(res.fields[:, :keep] - ana[:, :keep]).max()
    assert lattice.compare_to_oracle(res, spec) == modulus


def test_compare_to_oracle_takes_the_modulus_of_both_components():
    # an input within 1e-12 of unit input makes the component that is 0 in
    # the closed forms nonzero, so it counts in the modulus
    spec = LatticeSpec(LatticeKind.UNIFORM, 32)
    res = lattice.propagate(spec, fock.vacuum(32) + 1e-13 * fock.basis_state(32, 1), 2.0)
    assert res.fields[1:, 1::2].real.any()
    ana = lattice.impulse_profiles(spec, res.z_grid)
    assert lattice.compare_to_oracle(res, spec) == pytest.approx(
        np.abs(res.fields[:, :31] - ana[:, :31]).max(), rel=1e-15)


def test_compare_to_oracle_holds_no_complex_closed_form():
    spec = LatticeSpec(LatticeKind.SU11, 400)
    res = lattice.propagate(spec, fock.vacuum(400), 2.0, samples=200)
    lattice.compare_to_oracle(res, spec)
    # the real rows, and not much more: 1.24 times them with one block's
    # differences; 1.97 times with a whole parity's and two strided operands
    assert peak_bytes(lambda: lattice.compare_to_oracle(res, spec)) <= 1.35 * 8 * 201 * 400


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


# z = 0, subnormal-adjacent, below and above the leading-term cutoff, and up to
# the ceiling z = |alpha| = 25 that the profile shares with the London state
CLOSED_FORM_ZS = [0.0, 1e-300, 2.0**-31, 0.25, 0.75, 2.0, 7.3, 20.0, 21.3, 24.5, 25.0]


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
    # the state's phase i^m is exact at every m, as the lattice's table is
    spec = LatticeSpec(LatticeKind.SU11, 400)
    for z in CLOSED_FORM_ZS:
        got = lattice.impulse_profile(spec, z)
        want = states.su11_perelomov_state(1j * z, 0.5, 400)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), z
        assert np.array_equal(got, want), z


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
    with pytest.raises(RangeError, match=r"z must be one-dimensional, got shape \(1, 2\)"):
        lattice.impulse_profiles(spec, [[0.5, 1.0]])


def test_matrix_methods_have_a_dimension_ceiling():
    # the closed form is O(N) and takes long arrays; matrix methods stop at
    # MAX_DIM before allocating
    big = LatticeSpec(LatticeKind.UNIFORM, 10**9)
    with pytest.raises(RangeError):
        lattice.build_hamiltonian(big)
    spec = LatticeSpec(LatticeKind.SU11, fock.MAX_DIM + 1)
    with pytest.raises(RangeError):
        lattice.propagate(spec, np.eye(1, spec.dim, dtype=complex)[0], zmax=0.1)
