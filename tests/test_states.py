import math
import warnings

import numpy as np
import pytest
from mpmath import mp

from focklat import algebra, fock, lattice, specfun, states
from focklat.errors import BesselRootError, DimensionError, NumericError, RangeError

from oracles import bisect_j_root, expm, peak_bytes, series_j


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
    assert states.eigen_residual(ph.v, vec, np.exp(1j * phi)) <= 1e-12
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
    u = expm(gen.kminus, -np.exp(-1j * phi)) @ u
    u = expm(gen.k0, 1j * phi) @ u
    u = expm(gen.kplus, np.exp(1j * phi)) @ u
    return u[:dim] / math.sqrt(2 * math.pi)


def _guarded_bg_state(alpha, dim):
    guard = int(math.ceil(2.0 * abs(alpha) * math.e)) + 32
    ph = algebra.phase_operators(dim + guard)
    u = fock.vacuum(dim + guard)
    u = expm(ph.v, -np.conj(alpha)) @ u
    u = expm(ph.vdag, alpha) @ u
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
    """exp(x L) vec for the ladder L|n> = weights[n] |n +- 1>, a Taylor sum
    that shifts the whole array each term and stops at an exactly zero one."""
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


def _whole_array_phase_state(phi, dim):
    # every factor of the ordered product applied to the whole vector
    n = np.arange(dim, dtype=float)
    u = _whole_array_ladder_exp(fock.vacuum(dim), -np.exp(-1j * phi), n, raising=False)
    u = states._phase_factors(float(phi), dim) * u
    u = _whole_array_ladder_exp(u, np.exp(1j * phi), n + 1, raising=True)
    return u / math.sqrt(2 * math.pi)


def _whole_array_bg_state(alpha, dim):
    ones = np.ones(dim)
    u = _whole_array_ladder_exp(fock.vacuum(dim), -np.conj(alpha), ones, raising=False)
    u = _whole_array_ladder_exp(u, alpha, ones, raising=True)
    return u / math.sqrt(specfun.bessel_i(0, 2.0 * abs(alpha)))


@pytest.mark.parametrize("dim", [2, 3, 33, 256, 1024, 4096])
def test_ladder_sums_on_the_live_support_are_the_whole_array_loop(dim):
    # the builders sum each raising term on its one live level of the vacuum
    # column; the reference applies the lowering factor, the K0 phases and
    # the raising factor in turn to the whole vector
    cases = [(states.phase_state_perelomov, _whole_array_phase_state,
              [0.0, 0.7, math.pi - 0.1, -3.0]),
             (states.bg_state_ordered, _whole_array_bg_state,
              [0.0, 1e-3, 1 + 0.5j, -3j, 20.0, 25j, -22.5, 1e-300, 5e-324, -0.0])]
    for build, reference, params in cases:
        for param in params:
            # bitwise, signed zeros included: -3j, 25j and -22.5 have terms
            # with a -0 part, which adding into zeros turns into +0
            assert build(param, dim).tobytes() == reference(param, dim).tobytes(), param


@pytest.mark.parametrize("phi", [math.nan, math.inf])
def test_phase_state_perelomov_rejects_non_finite_angle(phi):
    with pytest.raises(RangeError):
        states.phase_state_perelomov(phi, 8)


def test_lowering_exponential_fixes_vacuum():
    gen = algebra.su11_generators(32)
    vac = fock.vacuum(32)
    for xi in (0.5, -np.exp(-0.7j), 2.0j):
        out = expm(gen.kminus, xi) @ vac
        assert np.array_equal(out, vac)


def test_bg_state_basics():
    assert np.array_equal(states.bg_state(0.0, 8), fock.vacuum(8))
    vec = states.bg_state(2.0, 64)
    assert abs(fock.norm_sq(vec) - 1.0) <= 1e-12


def test_bg_state_eigenvalue():
    alpha = 1.0 + 0.5j
    vec = states.bg_state(alpha, 64)
    gen = algebra.su11_generators(64)
    assert states.eigen_residual(gen.kminus, vec, alpha) <= 1e-10
    assert states.eigen_residual(gen.kminus, states.bg_state(1.0, 64), 1.0) <= 1e-10


def test_bg_state_ordered_form():
    assert np.array_equal(states.bg_state_ordered(0.0, 8), fock.vacuum(8))
    for alpha in (1.5, 0.4 - 1.1j, 21.3, -22.5, 25.0, 25j):
        direct = states.bg_state(alpha, 32)
        ordered = states.bg_state_ordered(alpha, 32)
        assert np.abs(direct - ordered).max() <= 1e-9


def test_downshift_exponential_fixes_vacuum():
    ph = algebra.phase_operators(16)
    out = expm(ph.v, -1.3 + 0.2j) @ fock.vacuum(16)
    assert np.array_equal(out, fock.vacuum(16))


def test_london_state_basics():
    assert np.array_equal(states.london_state(0.0, 8), fock.vacuum(8))
    vec = states.london_state(3.0, 64)
    assert abs(fock.norm_sq(vec) - 1.0) <= 1e-10
    with pytest.raises(RangeError):
        states.london_state(1 + 2j, 8)
    with pytest.raises(RangeError, match="exceeds supported maximum 25.0"):
        states.london_state(25.5, 8)


def test_london_state_ordered_form():
    direct = states.london_state(2.0, 32)
    ordered = states.london_state_ordered(2.0, 32)
    assert np.abs(direct - ordered).max() <= 1e-9


@pytest.mark.parametrize("alpha,dim", [(2.0, 32), (-2.7, 64), (0.4, 48), (3.0, 64)])
def test_london_ordered_matches_complex_expm(alpha, dim):
    # the spectral column against the complex Pade exponential on 64 more levels
    ph = algebra.phase_operators(dim + 64)
    ref = (expm(ph.vdag - ph.v, alpha) @ fock.vacuum(dim + 64))[:dim]
    assert np.abs(states.london_state_ordered(alpha, dim) - ref).max() <= 1e-14


@pytest.mark.parametrize("alpha", [0.25, -0.25, 1.7, -3.0, 8.0, 17.3, 20.0, -20.0,
                                   21.3, -22.5, 25.0, -25.0])
@pytest.mark.parametrize("dim", [2, 3, 14, 33, 64])
def test_london_ordered_matches_closed_form(alpha, dim):
    # the guard from the Bessel image bound leaves only rounding
    ordered = states.london_state_ordered(alpha, dim)
    assert np.abs(ordered - states.london_state(alpha, dim)).max() <= 5e-15


def test_london_ordered_matches_closed_form_at_the_dimension_ceiling():
    # the working size follows alpha, not dim: _bessel_top(10) = 38 levels
    states.london_state_ordered(5.0, 64)  # imports outside the count
    assert peak_bytes(lambda: states.london_state_ordered(5.0, fock.MAX_DIM)) <= 4 * 16 * fock.MAX_DIM
    ordered = states.london_state_ordered(5.0, fock.MAX_DIM)
    assert np.abs(ordered - states.london_state(5.0, fock.MAX_DIM)).max() <= 5e-15
    assert not ordered[algebra._bessel_top(10.0):].any()


def test_london_ordered_at_zero_is_the_vacuum():
    assert np.array_equal(states.london_state_ordered(0.0, 9), fock.vacuum(9))
    assert np.array_equal(states.london_state_ordered(-0.0, 2), fock.vacuum(2))


def test_london_ordered_names_itself_for_a_complex_alpha():
    # the message named london_state
    with pytest.raises(RangeError, match="^london_state_ordered takes a real parameter"):
        states.london_state_ordered(1j, 8)


def test_dimension_ceiling():
    # rejected before any array of that size is asked for
    with pytest.raises(RangeError):
        states.london_state(1.0, 10**11)
    with pytest.raises(RangeError):
        states.phase_state(0.0, fock.MAX_DIM + 1)
    with pytest.raises(RangeError):
        fock.identity(fock.MAX_DIM + 1)


def test_deformed_annihilation_eigenvalue():
    for alpha in (0.5, 1.3, 2.0, 21.3, -22.5, 25.0):
        vec = states.london_state(alpha, 64)
        op = states.deformed_annihilation(alpha, 64)
        assert states.eigen_residual(op, vec, alpha) <= 1e-8
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
    alt = np.diag(weights) @ gen.kminus.to_dense()
    assert np.abs(alt - op.to_dense()).max() <= 1e-12


def test_deformed_annihilation_root_guard():
    # first root of J_2, located by bisection on the series oracle
    root = float(bisect_j_root(2, 5.0, 5.3))
    assert root == pytest.approx(5.135622301840683, abs=1e-12)
    with pytest.raises(BesselRootError) as err:
        states.deformed_annihilation(root / 2.0, 16)
    assert err.value.level == 0
    states.deformed_annihilation(root / 2.0 + 0.05, 16)  # nearby but clear


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_deformed_annihilation_at_dim_1024(alpha):
    # J_{n+2}(2 alpha) underflows long before n = 1022, but the ratios do not,
    # so no false root is raised and every entry keeps its digits
    dim = 1024
    op = states.deformed_annihilation(alpha, dim)
    entries = op.diagonals[1].real
    with mp.workdps(50):
        for n in (0, 203, 500, 1022):
            ref = (mp.mpf(alpha) * (n + 1) * mp.besselj(n + 1, 2 * alpha)
                   / ((n + 2) * mp.besselj(n + 2, 2 * alpha)))
            # below the turning point n + 2 = 2 alpha the last steps cancel:
            # rho_0 = 0.4 - 1/rho_1 = 0.171 at alpha = 5, where J_1(10) nears its root
            tol = 1e-15 if n + 2 > 2 * alpha else 4e-15
            assert abs(float((entries[n] - ref) / ref)) <= tol, n
    assert states.eigen_residual(op, states.london_state(alpha, dim), alpha) <= 1e-8


def test_deformed_annihilation_root_guard_at_a_higher_level():
    # first root of J_5: J_{n+2} vanishes at n = 3, and levels 0-2 are clear
    root = float(bisect_j_root(5, 8.7, 8.8))
    assert root == pytest.approx(8.771483815959954, abs=1e-12)
    with pytest.raises(BesselRootError) as err:
        states.deformed_annihilation(root / 2.0, 16)
    assert err.value.level == 3
    assert "root of J_5;" in str(err.value)


@pytest.mark.parametrize("alpha,level",
                         [(0.0, 0), (1e-12, 0), (-1e-12, 0), (1e-9, 8), (1e-6, None)])
def test_deformed_annihilation_small_alpha(alpha, level):
    # J_{n+2} / J_{n+1} = alpha / (n + 2) at small alpha: the guard trips
    # where that falls to _ROOT_TOL, and at alpha = 0 every J_{n+2} is 0
    if level is None:
        states.deformed_annihilation(alpha, 1024)
        return
    with pytest.raises(BesselRootError) as err:
        states.deformed_annihilation(alpha, 1024)
    assert err.value.level == level
    assert str(err.value) == (f"2*alpha = {2 * alpha} is too close to a root of J_{level + 2}; "
                              f"the deformed lowering operator is singular at level n = {level}")


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
    # no Bessel function enters, so only a non-finite alpha is refused
    for alpha in (math.nan, math.inf, complex(1.0, -math.inf)):
        with pytest.raises(RangeError, match="alpha must be finite"):
            states.su11_perelomov_state(alpha, 0.5, 8)


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


@pytest.mark.parametrize("dim", [2, 3, 64, 400, 4096])
def test_su11_rows_at_k_one_half_are_sech_times_tanh_powers(dim):
    # the log-gamma ratio is exactly 1 at k = 1/2 (lgamma(1) = 0 and 2k + m = m + 1),
    # so the rows are bitwise sech r tanh^m r without a branch for that index;
    # r = 711 is past the point where cosh overflows
    rs = [0.0, 1e-300, 0.5, 1.0, 19.0, 100.0, 710.0, 711.0]
    for r, row in zip(rs, states._su11_rows(rs, 0.5, dim)):
        sech = 1.0 / math.cosh(r) if r < 710.5 else 2.0 * math.exp(-r)
        assert np.array_equal(row, np.float64(sech) * np.float64(math.tanh(r)) ** np.arange(dim))


def _su11_broadcast_rows(rs, k, dim):
    """The rows as _su11_rows formed them with every power at once, kept as its reference."""
    pre = []
    for r in rs:
        try:
            sech = 1.0 / math.cosh(r)
        except OverflowError:
            sech = 2.0 * math.exp(-r)
        pre.append(sech ** (2.0 * k))
    tanh = np.array([math.tanh(r) for r in rs])
    lg = np.array([math.lgamma(2 * k + m) - math.lgamma(m + 1) for m in range(dim)])
    with np.errstate(all="ignore"):
        rows = np.multiply.outer(pre, np.exp(0.5 * (lg - math.lgamma(2 * k))))
        return rows * tanh[:, None] ** np.arange(dim)


@pytest.mark.parametrize("rs,k,dim", [
    (np.linspace(0.0, 5.0, 201), 0.5, 400),  # many blocks of rows, the last one short
    (np.linspace(0.0, 3.0, 101), 0.5, 200),
    ([0.0, 1e-3, 3.0, 711.0, 800.0], 1.3, 64),  # past cosh's overflow
    (np.linspace(0.0, 2.0, 33), 7.25, 65),
    ([2.0], 1e5, 10),  # the prefactor underflows to 0 at huge k
    ([2.0, 0.5], 1e5, 400),  # and meets overflowed Gamma ratios: 0 * inf = nan
    # one row, and the rows on each side of the first block edge
    *[(np.linspace(0.0, 5.0, 201)[:n], k, dim) for n in
      (1, states._SU11_BLOCK - 1, states._SU11_BLOCK, states._SU11_BLOCK + 1)
      for k, dim in [(0.5, 400), (1.3, 65)]],
])
def test_su11_rows_are_bitwise_the_broadcast_form(rs, k, dim):
    with np.errstate(all="ignore"):
        rows = states._su11_rows(rs, k, dim)
    assert rows.shape == (len(rs), dim)
    assert np.array_equal(rows, _su11_broadcast_rows(rs, k, dim), equal_nan=True)


def test_su11_rows_hold_one_block_of_powers():
    # 0.64 MB of rows at 201 x 400: 0.74 MB with blocks of _SU11_BLOCK rows,
    # 1.00 MB with the rows as one outer product and 64-row blocks of powers,
    # 1.43 MB with every power formed at once
    rs = np.linspace(0.0, 5.0, 201)
    states._su11_rows(rs, 0.5, 400)
    assert peak_bytes(lambda: states._su11_rows(rs, 0.5, 400)) <= 0.8e6


def test_su11_rows_at_scale_hold_little_more_than_the_table():
    # 6.59 MB of rows at 201 x 4096; the outer product and a 64-row block of
    # powers made it 8.79 MB
    rs = np.linspace(0.0, 5.0, 201)
    states._su11_rows(rs[:2], 0.5, 4096)
    assert peak_bytes(lambda: states._su11_rows(rs, 0.5, 4096)) <= 1.1 * 8 * 201 * 4096


def _su11_reference(alpha, k, dim):
    """sech^{2k}|alpha| sqrt(Gamma(2k + m) / (m! Gamma(2k))) mu^m in mpmath."""
    with mp.workdps(50):
        r, two_k = mp.mpf(abs(alpha)), 2 * mp.mpf(k)
        mu = mp.mpc(alpha) / r * mp.tanh(r)
        return [mp.sech(r) ** two_k * mu**m
                * mp.sqrt(mp.gamma(two_k + m) / (mp.factorial(m) * mp.gamma(two_k)))
                for m in range(dim)]


@pytest.mark.parametrize("k", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("alpha", [0.1, 0.8, 10.0, 15.0, 19.0, 20.0, 20j, 30.0, 40.0])
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
    with pytest.raises(DimensionError):  # a scalar raised IndexError
        states.eigen_residual(ident, 5.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError):  # the zero state returned nan with a RuntimeWarning
            states.eigen_residual(ident, np.zeros(8, dtype=complex), 1.0)
    # a non-finite state or eigenvalue returned nan
    for bad in (math.nan, math.inf, complex(0.0, math.nan)):
        with pytest.raises(NumericError):
            states.eigen_residual(ident, np.r_[v[:7], bad], 1.0)
        with pytest.raises(RangeError):
            states.eigen_residual(ident, v, bad)


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
