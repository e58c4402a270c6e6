"""Kernel-function tests: closed forms against independent oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from linnik.kernel import (SMALL_Z_RADIUS, W1_OFFSET, LatticeWork, LinnikParams,
                           QuadratureError, WeightKernel, _GL16, _GL32,
                           _gauss_legendre, classic_density_bound)
from oracles import F_quadrature, mp_laplace

PARAMS = LinnikParams()


# ---------------------------------------------------------------- f --------

def test_f_constant_term():
    assert WeightKernel(1.0).f(0.0) == pytest.approx(16.0 / 15.0, abs=1e-15)


def test_f_vanishes_beyond_support():
    kern = WeightKernel(1.0)
    assert kern.f(2.0) == 0.0
    assert kern.f(5.0) == 0.0


def test_f_nonnegative_on_support():
    kern = WeightKernel(1.3)
    t = np.linspace(0.0, kern.support_end, 2001)
    assert np.all(kern.f(t) >= 0.0)


def test_f_rejects_negative_argument():
    # a NaN fails every comparison, so a test for t < 0 alone would pass it
    # to np.where(t < 2 gamma, ..., 0.0) and give f(nan) = 0
    kern = WeightKernel(1.0)
    for t in (-0.1, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="t >= 0"):
            kern.f(t)


def test_f_matches_convolution_oracle():
    # f is the autocorrelation of g(x) = gamma^2 - x^2 on [-gamma, gamma]
    gamma, t = 1.25, 1.0
    g = lambda x: gamma * gamma - x * x
    oracle, _ = quad(lambda x: g(x) * g(t - x), t - gamma, gamma, epsabs=1e-13)
    assert WeightKernel(gamma).f(t) == pytest.approx(oracle, abs=1e-10)


def test_gamma_floor_enforced():
    with pytest.raises(ValueError):
        WeightKernel(0.49)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
def test_non_finite_gamma_is_refused_by_name(gamma):
    # inf passes the floor check gamma >= 0.5; unrefused, a sup certificate
    # on it would fail late in a quadrature with a message naming no field
    with pytest.raises(ValueError, match="gamma must be finite"):
        WeightKernel(gamma)


# ---------------------------------------------------------------- F --------

def test_F_at_zero_is_total_mass():
    kern = WeightKernel(1.0)
    assert kern.F(0.0) == pytest.approx(8.0 / 9.0, abs=1e-15)
    assert kern.F0 == pytest.approx(kern.moment(0), rel=1e-14)


def test_F_quadrature_at_zero():
    assert F_quadrature(WeightKernel(1.0), 0.0).real == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert F_quadrature(WeightKernel(0.5), 0.0).real == pytest.approx(8.0 * 0.5**6 / 9.0,
                                                                      abs=1e-12)


def test_F_conjugate_symmetry():
    kern = WeightKernel(1.1)
    rng = np.random.default_rng(7)
    for _ in range(50):
        sigma, t = rng.uniform(-3, 3), rng.uniform(0, 40)
        a = kern.F(complex(sigma, t))
        b = kern.F(complex(sigma, -t))
        assert a.real == pytest.approx(b.real, abs=1e-13)
        assert a.imag == pytest.approx(-b.imag, abs=1e-13)


def test_F_closed_vs_quadrature_sample():
    rng = np.random.default_rng(11)
    for _ in range(25):
        gamma = rng.uniform(0.5, 1.7)
        z = complex(rng.uniform(-5, 5), rng.uniform(-50, 50))
        kern = WeightKernel(gamma)
        assert abs(kern.F(z) - F_quadrature(kern, z)) < 1e-9


def test_F_series_switch_radius_is_safe():
    # scan a ring around the series/closed-form crossover; both regimes must
    # agree with direct quadrature far better than the 1e-9 budget
    kern = WeightKernel(1.3)
    for r in (1e-6, 1e-3, 0.05, 0.12, 0.1499, 0.1501, 0.2, 0.5):
        for phase in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            z = r * complex(math.cos(phase), math.sin(phase))
            assert abs(kern.F(z) - F_quadrature(kern, z)) < 2e-10, f"|z|={r}"


# points just inside and outside the series disk, and z = 0 itself
_EDGE = np.array([0.0, SMALL_Z_RADIUS * (1 - 1e-9), SMALL_Z_RADIUS * (1 + 1e-9), 0.1, -0.1])

# the three lattice shapes grid_max evaluates: one row of t values, a column
# of s = s1 - s2 values, and a full block
LATTICE_SHAPES = {
    "row": (np.array([0.0]), np.concatenate([_EDGE, np.linspace(0.0, 15.0, 601)])),
    "column": (np.concatenate([_EDGE, np.linspace(-0.5, 4.0, 91)]), np.array([0.0])),
    "block": (np.concatenate([_EDGE, np.linspace(0.0, 4.0, 41)]),
              np.concatenate([_EDGE, np.linspace(0.0, 7.0, 141)])),
}


def _re_F_lattice(kern, s, t):
    """Re F on s x t from a fresh workspace."""
    return LatticeWork(kern, t).re_F(s)


@pytest.mark.parametrize("gamma", [0.5, 0.8, 1.05, 1.3])
@pytest.mark.parametrize("shape", sorted(LATTICE_SHAPES))
def test_re_F_lattice_matches_F(gamma, shape):
    s, t = LATTICE_SHAPES[shape]
    kern = WeightKernel(gamma)
    got = _re_F_lattice(kern, s, t)
    assert got.shape == (s.size, t.size)
    want = np.real(kern.F(-s[:, None] + 1j * t))
    # both closed forms are within 1e-10 of F just outside the series disk
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=2e-10)


def test_re_F_lattice_against_mpmath_oracle():
    # the lattice form and both parts of complex F; t = 45 is the far end of
    # the domination audit's t range, 3 x1 for x1 = 15
    points = [(0.0, 0.0), (SMALL_Z_RADIUS * (1 + 1e-9), 0.0), (0.1, 0.1),
              (0.0, 0.1501), (-0.1, 0.5), (0.9, 3.7), (2.5, 11.0), (4.0, 0.0),
              (0.9, 45.0)]
    for gamma in (0.5, 1.3):
        kern = WeightKernel(gamma)
        for s, t in points:
            want = mp_laplace(gamma, complex(-s, t))
            got = kern.F(complex(-s, t))
            lattice = _re_F_lattice(kern, np.array([s]), np.array([t]))[0, 0]
            for value, exact in ((lattice, want.real), (got.real, want.real),
                                 (got.imag, want.imag)):
                assert abs(value - exact) <= 1e-10 * max(1.0, abs(exact)), (gamma, s, t)


def test_lattice_work_reuse_matches_a_fresh_workspace():
    # full blocks, a smaller one reaching into the series disk at z = 0, then
    # full blocks again: no series patch of an earlier block may leak into
    # the workspace's t factors or a later block
    kern = WeightKernel(1.05)
    t = np.linspace(0.0, 15.0, 512)
    full = np.linspace(0.1, 4.0, 8)
    small = np.array([0.0, 0.05, 0.9])
    work = LatticeWork(kern, t)
    for s in (full, small, full):
        got = work.re_F(s)
        assert np.array_equal(got, _re_F_lattice(kern, s, t))


def test_F_imaginary_axis_cosine_transform():
    # Re F(iy) = 2 * (2 (sin(gy) - gy cos(gy)) / y^3)^2, and is >= 0
    for gamma in (1.0, 1.25, 1.6):
        kern = WeightKernel(gamma)
        for y in (0.3, 1.0, 10.0, 31.7):
            expected = 2.0 * (2.0 * (math.sin(gamma * y) - gamma * y * math.cos(gamma * y))
                              / y**3) ** 2
            assert kern.F(1j * y).real == pytest.approx(expected, abs=1e-9)
            assert kern.F(1j * y).real >= -1e-12


def test_F_negative_axis_strictly_increasing():
    kern = WeightKernel(1.0)
    lam = np.arange(0.0, 3.0 + 1e-12, 0.01)
    vals = kern.F_real(-lam)
    assert np.all(np.diff(vals) > 0)


F_REAL_GAMMAS = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5)


def _real_axis_points():
    """Negative and positive x, the series radius exactly, its neighbours,
    x = 0, and an array that straddles the disk."""
    r = SMALL_Z_RADIUS
    edges = [0.0, -0.0, r, -r, np.nextafter(r, 0.0), np.nextafter(r, 1.0),
             np.nextafter(-r, 0.0), np.nextafter(-r, -1.0)]
    return np.concatenate([edges, np.linspace(-1.5, 3.0, 901),
                           np.random.default_rng(15).uniform(-40.0, 40.0, 400)])


@pytest.mark.parametrize("gamma", F_REAL_GAMMAS)
def test_F_real_is_bitwise_the_complex_path(gamma):
    # the complex call is the oracle: F_real evaluates the same operations
    # in real arithmetic, so every value must carry the same bits
    kern = WeightKernel(gamma)
    x = _real_axis_points()
    oracle = np.real(kern.F(x + 0j))
    got = kern.F_real(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert np.array_equal(got, oracle)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in oracle.tolist()]
    grid = got.reshape(1, -1, 1)
    assert np.array_equal(kern.F_real(x.reshape(1, -1, 1)), grid)
    for xi, want in zip(x.tolist(), oracle.tolist()):
        scalar = kern.F_real(xi)
        assert type(scalar) is float
        assert scalar.hex() == want.hex() == float(np.real(kern.F(complex(xi, 0.0)))).hex()
        assert kern.F_real(np.float64(xi)).hex() == scalar.hex()
        assert kern.F_real(np.array(xi)).hex() == scalar.hex()


def test_real_axis_accuracy_just_outside_the_series_disk():
    # the closed forms cancel worst where they take over from the series:
    # F_real and the lattice form (t = 0) against the mpmath oracle for
    # |x| in [SMALL_Z_RADIUS, 2 SMALL_Z_RADIUS], spaced geometrically
    r = SMALL_Z_RADIUS * 2.0 ** np.linspace(0.0, 1.0, 8)
    x = np.concatenate([-r, r])
    for gamma in F_REAL_GAMMAS:
        kern = WeightKernel(gamma)
        want = np.array([mp_laplace(gamma, complex(v, 0.0)).real for v in x.tolist()])
        lattice = _re_F_lattice(kern, -x, np.array([0.0]))[:, 0]
        assert np.abs(kern.F_real(x) - want).max() <= 1e-10, gamma
        assert np.abs(lattice - want).max() <= 2e-10, gamma


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -400.0, -1e300], ids=repr)
def test_F_real_non_finite_or_overflowing_argument_fails_closed(bad):
    # a NaN, an infinity or an exponential that overflows never becomes a
    # finite value: the scalar path may raise OverflowError from math.exp
    kern = WeightKernel(1.0)
    try:
        scalar = kern.F_real(bad)
    except ArithmeticError:
        pass
    else:
        assert not math.isfinite(scalar)
    values = kern.F_real(np.array([-0.9, bad, 0.05, 2.0]))
    assert np.isfinite(values).tolist() == [True, False, True, True]


# ---------------------------------------------------------------- B --------

def test_B_small_lambda_against_mpmath_oracle():
    import mpmath
    mpmath.mp.dps = 50
    K = mpmath.mpf("0.32")
    for lam_str in ("1e-9", "5e-5", "1e-4", "2e-4", "0.01"):
        lam = mpmath.mpf(lam_str)
        x = 2 * K * lam
        oracle = (1 - mpmath.e**(-x)) / (6 * K**2 * lam) \
            + (x - 1 + mpmath.e**(-x)) / (2 * K**2 * lam**2)
        assert PARAMS.B(float(lam)) == pytest.approx(float(oracle), abs=1e-12)


def test_B_limit_value():
    assert PARAMS.B(1e-9) == pytest.approx(1.0 / (3.0 * 0.32) + 1.0, abs=1e-8)


def test_B_decreasing():
    assert PARAMS.B(1.29) < PARAMS.B(0.5)


def test_B_matches_single_character_majorant():
    # K^2 B(lam) equals the phi = 1/3 majorant (1/6)(1-e^{-2K lam})/lam
    # + (2K lam - 1 + e^{-2K lam})/(2 lam^2)
    K = PARAMS.K
    rng = np.random.default_rng(3)
    for lam in rng.uniform(0.01, 3.0, 100):
        rhs = ((1.0 / 6.0) * (1.0 - math.exp(-2 * K * lam)) / lam
               + (2 * K * lam - 1.0 + math.exp(-2 * K * lam)) / (2.0 * lam * lam))
        assert K * K * PARAMS.B(lam) == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------- H and H2 -------

def test_H2_at_zero():
    assert complex(PARAMS.H2(0.0)).real == pytest.approx(0.1024, abs=1e-15)
    assert complex(PARAMS.H2(0.0)).imag == 0.0


def test_H2_real_positive_on_real_axis():
    for lam in (0.1, 0.5, 1.0, 2.0):
        val = complex(PARAMS.H2(lam))
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real > 0


def test_H2_series_crossover():
    # agree with a high-precision oracle across the series/direct switch
    import mpmath
    mpmath.mp.dps = 40
    for r in (1e-12, 1e-8, 1e-3, 0.1, 0.62, 0.63, 1.0):
        z = r * complex(math.cos(0.8), math.sin(0.8))
        zz = mpmath.mpc(z)
        oracle = complex(((1 - mpmath.e ** (-mpmath.mpf("0.32") * zz)) / zz) ** 2)
        assert abs(complex(PARAMS.H2(z)) - oracle) < 1e-13, r


def test_H_is_damped_H2():
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(-10, 10))
        expect = np.exp(-PARAMS.decay * z) * complex(PARAMS.H2(z))
        assert abs(complex(PARAMS.H(z)) - expect) < 1e-12


def test_H_at_zero_and_one():
    assert complex(PARAMS.H(0.0)).real == pytest.approx(PARAMS.K ** 2, abs=1e-14)
    expect = math.exp(-4.56) * (1.0 - math.exp(-0.32)) ** 2
    assert complex(PARAMS.H(1.0)).real == pytest.approx(expect, rel=1e-12)


def test_H_dominated_by_real_part_value():
    rng = np.random.default_rng(13)
    for _ in range(200):
        sigma, t = rng.uniform(0.05, 2.0), rng.uniform(-20, 20)
        assert abs(complex(PARAMS.H(complex(sigma, t)))) \
            <= complex(PARAMS.H(sigma)).real + 1e-12


# ------------------------------------------------- w1, w, penalty, C -------

def test_w1_plug_in_values():
    p = PARAMS
    assert p.w1(p.u) == pytest.approx(math.exp(-p.theta * p.u / 2.0) * 1e-7 ** 0.25, rel=1e-12)
    sat = (p.v - p.u + 1e-7) ** 0.25
    assert p.w1(p.v) == pytest.approx(math.exp(-p.theta * p.v / 2.0) * sat, rel=1e-12)
    # beyond v the argument saturates
    assert p.w1(p.v + 0.1) == pytest.approx(
        math.exp(-p.theta * (p.v + 0.1) / 2.0) * sat, rel=1e-12)


def test_w1_domain():
    with pytest.raises(ValueError):
        PARAMS.w1(PARAMS.u - 1e-3)


def test_w_monotone_decreasing():
    vals = [PARAMS.w(s) for s in (0.2, 0.5, 0.9, 1.29, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_w_infinity_sentinel():
    assert PARAMS.w(None) == 0.0


def _midpoint(fn, a, b, n):
    t = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(fn(t)) * (b - a) / n)


def test_w_against_dense_midpoint_oracle():
    p = PARAMS
    s = 1.0
    fn = lambda t: (np.exp(-p.theta * t)
                    * np.sqrt(np.minimum(t - p.u + 1e-7, p.v - p.u + 1e-7))
                    * np.exp(2.0 * s * t))
    oracle = _midpoint(fn, p.u, p.v, 500_000) + _midpoint(fn, p.v, p.x, 500_000)
    assert 1.0 / p.w(s) == pytest.approx(oracle, rel=1e-8)


def test_penalty_integral_positive():
    assert PARAMS.penalty_integral() > 0


def test_penalty_against_dense_midpoint_oracle():
    p = PARAMS
    fn = lambda t: (np.exp(p.theta * t) * np.minimum(t - p.u, p.v - p.u)
                    / np.sqrt(np.minimum(t - p.u + 1e-7, p.v - p.u + 1e-7)))
    oracle = _midpoint(fn, p.u, p.v, 2_000_000) + _midpoint(fn, p.v, p.x, 500_000)
    assert p.penalty_integral() == pytest.approx(oracle, rel=1e-6)


# corners and centre of the parameter box the final_sweep benchmark samples
ORACLE_PARAMS = [dict(L=5.3, theta=1.15, c1=0.11, c2=0.27),
                 dict(L=5.0, theta=1.05, c1=0.09, c2=0.24),
                 dict(L=5.6, theta=1.25, c1=0.13, c2=0.30),
                 dict(L=5.0, theta=1.25, c1=0.09, c2=0.30),
                 dict(L=5.6, theta=1.05, c1=0.13, c2=0.24)]


@pytest.mark.parametrize("kw", ORACLE_PARAMS, ids=lambda kw: "-".join(map(str, kw.values())))
def test_w_and_penalty_against_mpmath_oracle(kw):
    import mpmath
    p = LinnikParams(**kw)
    with mpmath.workdps(30):
        u = mpmath.mpf(1) / 3 + 2 * mpmath.mpf(p.c1)
        v = u + mpmath.mpf(p.c2)
        x = mpmath.mpf(2) / 3 + 3 * mpmath.mpf(p.c1) + mpmath.mpf(p.c2)
        theta, eps = mpmath.mpf(p.theta), mpmath.mpf(W1_OFFSET)
        root = lambda t: mpmath.sqrt(min(t - u, v - u) + eps)
        splits = [u, u + eps, v, x]
        for s in (0.005, 0.3, 1.0, 1.29, 2.0):
            oracle = mpmath.quad(
                lambda t: mpmath.exp((2 * mpmath.mpf(s) - theta) * t) * root(t), splits)
            assert 1.0 / p.w(s) == pytest.approx(float(oracle), rel=1e-13), s
        oracle = mpmath.quad(lambda t: min(t - u, v - u) * mpmath.exp(theta * t) / root(t),
                             splits)
    assert p.penalty_integral() == pytest.approx(float(oracle), rel=1e-13)


def test_w_overflow_raises():
    # past s ~ 31 the 16- and 32-node rules disagree; far beyond, e^{2st} overflows
    with pytest.raises(QuadratureError):
        PARAMS.w(100.0)
    with pytest.raises(FloatingPointError):
        PARAMS.w(1e3)


def test_gauss_legendre_rule_and_its_checks():
    for n, (nodes, weights) in ((16, _GL16), (32, _GL32)):
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-13)
    # exact on a degree-31 polynomial; the 16-node rule is exact to degree 31
    # as well, so the check passes
    value = _gauss_legendre(lambda t: 32.0 * t**31, 0.0, 1.0)
    assert value == pytest.approx(1.0, rel=1e-14)
    # sqrt has an endpoint singularity the fixed rule cannot resolve
    with pytest.raises(QuadratureError):
        _gauss_legendre(np.sqrt, 0.0, 1.0)
    # a bare |I32 - I16| > tol test would pass a NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(FloatingPointError):
            _gauss_legendre(lambda t: np.where(t > 0.9, bad, t), 0.0, 1.0)


def test_xf_exp_moment_against_mpmath_oracle():
    import mpmath
    # gamma 2.5 and c 4 give the largest moments a SupProblem admits (s12 <=
    # 4).  With f in its expanded form the first moment x f(x) e^{cx} was
    # 1.6e-13 off there: f lost ~1e-7 of its value to cancellation at the node
    # next to 2 gamma, weighted by e^{20}.  The factored form keeps M2 within
    # a few units of the last place everywhere
    for gamma in (0.5, 0.9, 1.3, 2.5):
        kern = WeightKernel(gamma)
        g = mpmath.mpf(gamma)
        f = lambda x: -x**5 / 30 + 2 * g**2 / 3 * x**3 - 4 * g**3 / 3 * x**2 + 16 * g**5 / 15
        for c in (0.0, 0.7, 2.0, 4.0):
            with mpmath.workdps(30):
                oracle = mpmath.quad(lambda x: x**2 * f(x) * mpmath.exp(c * x), [0, 2 * g])
            assert kern.xf_moments(c) == pytest.approx(float(oracle), rel=2e-15), (gamma, c)


def test_C_vanishes_at_split_point():
    assert PARAMS.C(1.29, 1.29) == pytest.approx(0.0, abs=1e-9)


def test_C_nonnegative_nonincreasing():
    Lambda = 1.29
    lam = np.arange(0.005, Lambda + 1e-12, 0.005)
    vals = np.array([PARAMS.C(Lambda, x) for x in lam])
    assert np.all(vals >= -1e-9)
    assert np.all(np.diff(vals) <= 1e-9)


def test_C_infinity_sentinel():
    assert PARAMS.C(1.29, None) == 0.0


def test_damped_ratio_nonincreasing():
    s = np.arange(0.1, 2.0 + 1e-12, 0.005)
    vals = np.array([PARAMS.damped_ratio(x) for x in s])
    assert np.all(np.diff(vals) <= 1e-12)


def test_params_precondition():
    with pytest.raises(ValueError):
        LinnikParams(L=3.0)


@pytest.mark.parametrize("kw", [dict(theta=math.nan), dict(L=math.inf),
                                dict(epsilon=-math.inf), dict(c1="0.11"),
                                dict(K=None), dict(c2=True), dict(epsilon=-1e-7)],
                         ids=repr)
def test_params_reject_non_finite_and_wrong_types(kw):
    with pytest.raises(ValueError):
        LinnikParams(**kw)


# ---------------------------------------------- classic density bound ------

def test_classic_density_at_one():
    expected = (67.0 / 6.0) * (math.exp(73.0 / 30.0) - math.exp(16.0 / 15.0))
    assert classic_density_bound(1.0) == pytest.approx(expected, rel=1e-14)


def test_classic_density_monotone():
    lam = np.linspace(0.01, 2.0, 400)
    vals = np.array([classic_density_bound(x) for x in lam])
    assert np.all(np.diff(vals) >= 0)


def test_classic_density_small_lambda_limit():
    limit = (67.0 / 6.0) * (73.0 / 30.0 - 16.0 / 15.0)
    assert classic_density_bound(1e-12) == pytest.approx(limit, rel=1e-9)
