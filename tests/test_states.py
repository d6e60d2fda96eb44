import math

import numpy as np
import pytest
from mpmath import mp

from focklat import algebra, fock, lattice, specfun, states
from focklat.errors import BesselRootError, DimensionError, RangeError

from oracles import bisect_j_root, series_j


def test_phase_state_amplitudes():
    vec = states.phase_state(0.0, 4)
    assert np.allclose(vec, np.full(4, 1.0 / math.sqrt(2 * math.pi)))
    assert vec[0] == pytest.approx(0.3989422804014327, rel=1e-15)


def test_phase_state_norm_grows_linearly():
    n = 628
    assert fock.norm_sq(states.phase_state(1.3, n)) == pytest.approx(n / (2 * math.pi), rel=1e-12)


def test_phase_state_shift_eigenvalue():
    n, phi = 128, 1.1
    vec = states.phase_state(phi, n)
    ph = algebra.phase_operators(n)
    assert states.eigen_residual(ph.v, vec, np.exp(1j * phi), exclude_top=1) <= 1e-12
    # the defect is confined to the top component
    defect = ph.v.apply(vec) - np.exp(1j * phi) * vec
    assert np.abs(defect[: n - 1]).max() <= 1e-13
    assert abs(defect[n - 1]) > 0.1 * abs(vec[0])


@pytest.mark.parametrize("phi,dim", [(0.0, 16), (2.0, 32)])
def test_phase_state_ordered_form(phi, dim):
    direct = states.phase_state(phi, dim)
    ordered = states.phase_state_perelomov(phi, dim)
    assert np.abs(direct - ordered).max() <= 1e-8


def _guarded_phase_state(phi, dim, guard=96):
    # three dense exponentials on dim + guard levels, cut back to dim
    gen = algebra.su11_generators(dim + guard)
    u = fock.vacuum(dim + guard)
    u = fock.expm(gen.kminus, -np.exp(-1j * phi)).apply(u)
    u = fock.expm(gen.k0, 1j * phi).apply(u)
    u = fock.expm(gen.kplus, np.exp(1j * phi)).apply(u)
    return u[:dim] / math.sqrt(2 * math.pi)


def _guarded_bg_state(alpha, dim):
    guard = int(math.ceil(2.0 * abs(alpha) * math.e)) + 32
    ph = algebra.phase_operators(dim + guard)
    u = fock.vacuum(dim + guard)
    u = fock.expm(ph.v, -np.conj(alpha)).apply(u)
    u = fock.expm(ph.vdag, alpha).apply(u)
    return u[:dim] / math.sqrt(specfun.bessel_i(0, 2.0 * abs(alpha)))


@pytest.mark.parametrize("dim", [2, 16, 32, 64])
@pytest.mark.parametrize("phi", [0.0, 0.7, 2.0, math.pi - 0.1, -2.5, math.pi])
def test_phase_state_ordered_matches_guarded_expm(phi, dim):
    # the truncated product is exact, so no guard levels are needed
    ref = _guarded_phase_state(phi, dim)
    assert np.abs(states.phase_state_perelomov(phi, dim) - ref).max() <= 1e-14


@pytest.mark.parametrize("dim", [2, 8, 32, 64])
@pytest.mark.parametrize("alpha", [0.0, 1.5, 0.4 - 1.1j, 3 - 2j, -7.5, 20.0j, -13 + 15j])
def test_bg_state_ordered_matches_guarded_expm(alpha, dim):
    ref = _guarded_bg_state(alpha, dim)
    assert np.abs(states.bg_state_ordered(alpha, dim) - ref).max() <= 1e-14


@pytest.mark.parametrize("phi", [0.7, math.pi - 0.1, -3.0])
def test_phase_state_ordered_at_the_dimension_ceiling(phi):
    # the ordered form loses about dim ulps at the top level: it takes the
    # j-th power of a rounded e^{i phi}
    dim = fock.MAX_DIM
    assert np.abs(states.phase_state_perelomov(phi, dim) - states.phase_state(phi, dim)).max() \
        <= 2e-12


@pytest.mark.parametrize("phi,dim", [(math.pi - 0.1, fock.MAX_DIM), (-2.5, fock.MAX_DIM),
                                     (1e300, 3)])
def test_phase_state_matches_mpmath(phi, dim):
    # phi (j + 1/2) rounded as a whole put the top level 3.6e-13 off at
    # phi = pi - 0.1; split error-free, every level is exact to rounding
    got = states.phase_state(phi, dim)
    with mp.workdps(30 + int(math.log10(abs(phi) * dim))):
        ref = [complex(mp.expj(mp.mpf(phi) * (j + mp.mpf(0.5))) / mp.sqrt(2 * mp.pi))
               for j in range(dim)]
    assert np.abs(got - np.array(ref)).max() <= 1e-15


@pytest.mark.parametrize("build", [states.phase_state, states.phase_state_perelomov])
@pytest.mark.parametrize("phi", [1e308, -1e308])
def test_phase_angle_overflow_is_a_range_error(build, phi):
    # phi (dim - 1/2) is not finite: the amplitudes were NaN from level 2 on
    with pytest.raises(RangeError):
        build(phi, 4)


def _whole_array_ladder_exp(vec, x, weights, raising):
    """The ladder sum that shifts whole arrays, kept as the reference of
    :func:`states._ladder_exp`, which shifts only the live support."""
    out = vec.copy()
    term = vec
    for j in range(1, len(vec)):
        step = np.zeros_like(term)
        if raising:
            step[1:] = term[:-1] * (weights[:-1] / j)
        else:
            step[:-1] = term[1:] * (weights[1:] / j)
        term = step * x
        if not term.any():
            break
        out += term
    return out


@pytest.mark.parametrize("dim", [2, 3, 33, 256, 1024])
def test_ladder_sums_on_the_live_support_are_the_whole_array_loop(dim, monkeypatch):
    cases = [(states.phase_state_perelomov, [0.0, 0.7, math.pi - 0.1, -3.0]),
             (states.bg_state_ordered, [0.0, 1e-3, 1 + 0.5j, -3j, 20.0])]
    for build, params in cases:
        for param in params:
            new = build(param, dim)
            with monkeypatch.context() as patch:
                patch.setattr(states, "_ladder_exp", _whole_array_ladder_exp)
                old = build(param, dim)
            assert new.tobytes() == old.tobytes()  # bitwise, signed zeros included


@pytest.mark.parametrize("phi", [math.nan, math.inf])
def test_phase_state_perelomov_rejects_non_finite_angle(phi):
    with pytest.raises(RangeError):
        states.phase_state_perelomov(phi, 8)


def test_lowering_exponential_fixes_vacuum():
    gen = algebra.su11_generators(32)
    vac = fock.vacuum(32)
    for xi in (0.5, -np.exp(-0.7j), 2.0j):
        out = fock.expm(gen.kminus, xi).apply(vac)
        assert np.array_equal(out, vac)


def test_bg_state_basics():
    assert np.array_equal(states.bg_state(0.0, 8), fock.vacuum(8))
    vec = states.bg_state(2.0, 64)
    assert abs(fock.norm_sq(vec) - 1.0) <= 1e-12


def test_bg_state_eigenvalue():
    alpha = 1.0 + 0.5j
    vec = states.bg_state(alpha, 64)
    gen = algebra.su11_generators(64)
    assert states.eigen_residual(gen.kminus, vec, alpha, exclude_top=1) <= 1e-10
    assert states.eigen_residual(gen.kminus, states.bg_state(1.0, 64), 1.0,
                                 exclude_top=1) <= 1e-10


def test_bg_state_ordered_form():
    assert np.array_equal(states.bg_state_ordered(0.0, 8), fock.vacuum(8))
    for alpha in (1.5, 0.4 - 1.1j):
        direct = states.bg_state(alpha, 32)
        ordered = states.bg_state_ordered(alpha, 32)
        assert np.abs(direct - ordered).max() <= 1e-9


def test_downshift_exponential_fixes_vacuum():
    ph = algebra.phase_operators(16)
    out = fock.expm(ph.v, -1.3 + 0.2j).apply(fock.vacuum(16))
    assert np.array_equal(out, fock.vacuum(16))


def test_london_state_basics():
    assert np.array_equal(states.london_state(0.0, 8), fock.vacuum(8))
    vec = states.london_state(3.0, 64)
    assert abs(fock.norm_sq(vec) - 1.0) <= 1e-10
    with pytest.raises(RangeError):
        states.london_state(1 + 2j, 8)
    with pytest.raises(RangeError):
        states.london_state(25.0, 8)


def test_london_state_ordered_form():
    direct = states.london_state(2.0, 32)
    ordered = states.london_state_ordered(2.0, 32)
    assert np.abs(direct - ordered).max() <= 1e-9


@pytest.mark.parametrize("alpha,dim", [(2.0, 32), (-2.7, 64), (0.4, 48), (3.0, 64)])
def test_london_ordered_matches_complex_expm(alpha, dim):
    # the spectral column against the complex Pade exponential on 64 more levels
    ph = algebra.phase_operators(dim + 64)
    ref = fock.expm(ph.vdag - ph.v, alpha).apply(fock.vacuum(dim + 64))[:dim]
    assert np.abs(states.london_state_ordered(alpha, dim) - ref).max() <= 1e-14


@pytest.mark.parametrize("alpha", [0.25, -0.25, 1.7, -3.0, 8.0, 17.3, 20.0, -20.0])
@pytest.mark.parametrize("dim", [2, 3, 14, 33, 64])
def test_london_ordered_matches_closed_form(alpha, dim):
    # the guard from the Bessel image bound leaves only rounding
    ordered = states.london_state_ordered(alpha, dim)
    assert np.abs(ordered - states.london_state(alpha, dim)).max() <= 5e-15


def test_london_ordered_matches_closed_form_at_the_dimension_ceiling():
    ordered = states.london_state_ordered(5.0, fock.MAX_DIM)
    assert np.abs(ordered - states.london_state(5.0, fock.MAX_DIM)).max() <= 5e-15


def test_london_ordered_at_zero_is_the_vacuum():
    assert np.array_equal(states.london_state_ordered(0.0, 9), fock.vacuum(9))
    assert np.array_equal(states.london_state_ordered(-0.0, 2), fock.vacuum(2))


def test_dimension_ceiling():
    # rejected before any array of that size is asked for
    with pytest.raises(RangeError):
        states.london_state(1.0, 10**11)
    with pytest.raises(RangeError):
        states.phase_state(0.0, fock.MAX_DIM + 1)
    with pytest.raises(RangeError):
        fock.identity(fock.MAX_DIM + 1)


def test_deformed_annihilation_eigenvalue():
    for alpha in (0.5, 1.3, 2.0):
        vec = states.london_state(alpha, 64)
        op = states.deformed_annihilation(alpha, 64)
        assert states.eigen_residual(op, vec, alpha, exclude_top=1) <= 1e-8
    op = states.deformed_annihilation(1.3, 64)
    assert np.allclose(op.apply(fock.vacuum(64)), np.zeros(64))


def test_deformed_annihilation_forms_agree():
    # the weight written through (K0, K-) instead of (n, a)
    alpha, n = 1.3, 64
    op = states.deformed_annihilation(alpha, n)
    gen = algebra.su11_generators(n)
    from focklat import specfun

    jv = specfun.bessel_j_all(n + 1, 2 * alpha)
    k0 = np.arange(n) + 0.5
    weights = alpha * jv[(k0 + 0.5).astype(int)] / ((k0 + 1.5) * jv[(k0 + 1.5).astype(int)])
    alt = np.diag(weights) @ gen.kminus.mat
    assert np.abs(alt - op.mat).max() <= 1e-12


def test_deformed_annihilation_root_guard():
    # first root of J_2, located by bisection on the series oracle
    root = float(bisect_j_root(2, 5.0, 5.3))
    assert root == pytest.approx(5.135622301840683, abs=1e-12)
    with pytest.raises(BesselRootError) as err:
        states.deformed_annihilation(root / 2.0, 16)
    assert err.value.level == 0
    states.deformed_annihilation(root / 2.0 + 0.05, 16)  # nearby but clear


def test_su11_perelomov_state():
    assert np.array_equal(states.su11_perelomov_state(0.0, 0.5, 8), fock.vacuum(8))
    z = 0.8
    vec = states.su11_perelomov_state(1j * z, 0.5, 64)
    m = np.arange(64)
    expected = (1.0 / math.cosh(z)) * (1j * math.tanh(z)) ** m
    assert np.abs(vec - expected).max() <= 1e-13
    assert abs(fock.norm_sq(states.su11_perelomov_state(1 + 1j, 0.5, 128)) - 1.0) <= 1e-10
    assert abs(fock.norm_sq(states.su11_perelomov_state(0.9, 1.3, 256)) - 1.0) <= 1e-10
    with pytest.raises(RangeError):
        states.su11_perelomov_state(1.0, 0.0, 8)
    with pytest.raises(RangeError):
        states.su11_perelomov_state(30.0, 0.5, 8)


@pytest.mark.parametrize("unit", [1, 1j, -1, -1j])
def test_su11_state_phase_is_exact_on_the_axes(unit):
    # numpy's complex power (alpha/|alpha|)^m went through exp and log from
    # m = 100 and left round-off where the closed form is exactly 0
    vec = states.su11_perelomov_state(unit, 0.5, 400)
    powers = np.array([1, unit, unit**2, unit**3])[np.arange(400) % 4]
    assert np.array_equal(vec, powers * states._su11_rows([1.0], 0.5, 400)[0])
    if unit == 1j:
        spec = lattice.LatticeSpec(lattice.LatticeKind.SU11, 400)
        assert np.array_equal(vec, lattice.impulse_profile(spec, 1.0))


def _su11_reference(alpha, k, dim):
    """sech^{2k}|alpha| sqrt(Gamma(2k + m) / (m! Gamma(2k))) mu^m in mpmath."""
    with mp.workdps(50):
        r, two_k = mp.mpf(abs(alpha)), 2 * mp.mpf(k)
        mu = mp.mpc(alpha) / r * mp.tanh(r)
        return [mp.sech(r) ** two_k * mu**m
                * mp.sqrt(mp.gamma(two_k + m) / (mp.factorial(m) * mp.gamma(two_k)))
                for m in range(dim)]


@pytest.mark.parametrize("k", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("alpha", [0.1, 0.8, 10.0, 15.0, 19.0, 20.0, 20j])
def test_su11_perelomov_state_against_mpmath(alpha, k):
    # 1 - tanh^2|alpha| cancelled: c_0 was off by 33% at |alpha| = 19 and 0 at 20
    vec = states.su11_perelomov_state(alpha, k, 64)
    worst = max(float(abs(mp.mpc(complex(c)) - ref) / abs(ref))
                for c, ref in zip(vec, _su11_reference(alpha, k, 64)))
    assert worst <= 1e-13
    assert vec[0] != 0.0


def test_su11_perelomov_state_over_random_draws_against_mpmath():
    # |alpha| in [0.05, 5], phase 0, pi/2 or uniform, four Bargmann indices
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for i in range(60):
        angle = (0.0, math.pi / 2, rng.uniform(0.0, 2.0 * math.pi))[i % 3]
        alpha = rng.uniform(0.05, 5.0) * complex(math.cos(angle), math.sin(angle))
        k = (0.5, 1.0, 1.5, 2.7)[i % 4]
        vec = states.su11_perelomov_state(alpha, k, 64)
        worst = max(worst, max(float(abs(mp.mpc(complex(c)) - ref) / abs(ref))
                               for c, ref in zip(vec, _su11_reference(alpha, k, 64))))
    assert worst <= 4.43e-14


def test_eigen_residual_basics():
    ident = fock.identity(8)
    v = np.ones(8, dtype=complex)
    assert states.eigen_residual(ident, v, 1.0) == 0.0
    with pytest.raises(DimensionError):
        states.eigen_residual(ident, np.ones(9, dtype=complex), 1.0)


def test_london_amplitudes_match_series_oracle():
    alpha, dim = 1.7, 24
    vec = states.london_state(alpha, dim)
    for j in (0, 3, 10, 23):
        expected = (j + 1) * float(series_j(j + 1, 2 * alpha)) / alpha
        assert vec[j].real == pytest.approx(expected, rel=1e-12, abs=1e-14)
        assert vec[j].imag == 0.0


@pytest.mark.parametrize("alpha", [-1.7, -0.3, -2.0**-31, 2.0**-31, 1e-20, 1e-300, -1e-300,
                                   5e-324])
def test_london_state_at_negative_and_tiny_alpha_against_mpmath(alpha):
    # below |alpha| = 2^-30 the amplitudes are the leading term alpha^j / j!;
    # J_{j+1}(2 alpha) / alpha lost them to underflow
    vec = states.london_state(alpha, 24)
    assert not vec.imag.any()
    for j, c in enumerate(vec.real):
        with mp.workdps(60):
            ref = float((j + 1) * series_j(j + 1, 2 * mp.mpf(alpha)) / mp.mpf(alpha))
        assert c == pytest.approx(ref, rel=1e-12, abs=0.0), j
