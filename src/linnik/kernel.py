"""Closed-form special functions used throughout the certification chain.

Everything here is an explicit formula or a one-dimensional quadrature:
the compactly supported weight ``f`` and its Laplace transform ``F``, the
triangle-weight transforms ``H`` and ``H2``, the zero-sum majorant ``B``,
the density weight ``w1`` with its reciprocal-integral ``w``, the tail
coefficient ``C``, and the classic zero-density bound.

``WeightKernel.F`` serves scalar and scattered complex arguments.
``WeightKernel.F_real`` serves the real axis (every row right-hand side,
step end and counting cell) in real arithmetic, with the same bits as the
real part of ``F``.  ``LatticeWork`` evaluates only Re F on an outer
product of real parts and imaginary parts, the lattice blocks of the sup
certificates, from a Horner form in 1/z with one exponential per row.  It
is a workspace built for one certificate's t lattice: its buffers are
allocated once, the constructor takes the cos/sin pair of each t once for
every row evaluated against it, and ``re_F`` fills a block of whole t rows
in place without allocating.  All three switch to the same series inside
SMALL_Z_RADIUS.

All real arithmetic is double precision.  The integrals behind ``w``, the
penalty integral and ``xf_exp_moment``, each memoized per argument, use
one fixed Gauss-Legendre rule (:func:`_gauss_legendre`): each is split so
that its integrand is a polynomial times an exponential, an entire
function on which the rule converges geometrically, and the 32-node value
is returned only when the 16-node value agrees with it to within
max(50 QUAD_TOL, 1e-9 |I|), with QUAD_TOL = 1e-12; otherwise
:class:`QuadratureError` is raised.
The error of an n-node rule on such an integrand falls geometrically in n,
so |I32 - I16| is in effect the 16-node error and bounds the far smaller
32-node error of the returned value.  A NaN or inf in either value raises
FloatingPointError.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, Union

import numpy as np

# |z| below which the Laplace transform switches from the closed form to its
# Maclaurin series.  The closed form loses roughly 8*gamma^2*|z|^-4 * eps_mach
# in absolute terms to cancellation, so it only reaches 1e-10 accuracy for
# |z| >~ 0.07; the series converges fast for 2*gamma*|z| < 1.
SMALL_Z_RADIUS = 0.15
_SERIES_TERMS = 26

# |K*z| below which (1 - exp(-K z))/z is evaluated by series.
_H2_SERIES_RADIUS = 0.2

#: absolute tolerance of every Gauss-Legendre integral: w, the penalty and xf_exp_moment
QUAD_TOL = 1e-12

#: offset in the density weight w1(t) = e^{-theta t/2} (min(t-u, v-u) + W1_OFFSET)^{1/4}
W1_OFFSET = 1e-7

ArrayLike = Union[float, complex, np.ndarray]


class QuadratureError(RuntimeError):
    """A quadrature failed its error check."""

    def __init__(self, message: str, estimate: float, achieved: float):
        super().__init__(f"{message} (estimate {estimate!r}, achieved abserr {achieved:.3e})")
        self.estimate = estimate
        self.achieved = achieved


def _legendre_rule(n: int):
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1].

    The values of np.polynomial.legendre.leggauss, found by Newton's method
    on the three-term recurrence instead of a LAPACK eigensolver, whose
    first call adds about 1 MB to the process's peak memory.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):  # quadratic convergence from this start
        p_prev, p = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        x = x - p / dp
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


_GL16 = _legendre_rule(16)
_GL32 = _legendre_rule(32)
_GL_NODES = np.concatenate([_GL16[0], _GL32[0]])


def _gauss_legendre(fn, a: float, b: float) -> float:
    """int_a^b fn(t) dt by the 32-node Gauss-Legendre rule, checked against
    the 16-node rule.

    ``fn`` maps an array of nodes to an array of values; both rules are
    evaluated in one call.  Raises FloatingPointError when either value is
    not finite and QuadratureError when |I32 - I16| > max(50 QUAD_TOL, 1e-9 |I32|).
    """
    half = 0.5 * (b - a)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = fn(0.5 * (a + b) + half * _GL_NODES)
        i16 = half * float(np.sum(_GL16[1] * vals[:16]))
        i32 = half * float(np.sum(_GL32[1] * vals[16:]))
    if not (math.isfinite(i16) and math.isfinite(i32)):
        raise FloatingPointError(
            f"non-finite quadrature on [{a!r}, {b!r}]: {i32!r} (16 nodes: {i16!r})")
    err = abs(i32 - i16)
    if err > max(50.0 * QUAD_TOL, 1e-9 * abs(i32)):
        raise QuadratureError("16- and 32-node Gauss-Legendre rules disagree", i32, err)
    return i32


@dataclass(frozen=True)
class WeightKernel:
    """Quintic weight f = g*g (autocorrelation of g(x) = gamma^2 - x^2).

    f(t) = -t^5/30 + (2 gamma^2/3) t^3 - (4 gamma^3/3) t^2 + 16 gamma^5/15
    on [0, 2 gamma], and 0 beyond.  Its Laplace transform F has nonnegative
    real part on the closed right half-plane, which is what every
    zero-repulsion inequality downstream relies on.
    """

    gamma: float

    def __post_init__(self):
        if not (self.gamma >= 0.5):
            raise ValueError(f"gamma must be >= 0.5, got {self.gamma}")

    @property
    def support_end(self) -> float:
        return 2.0 * self.gamma

    @property
    def f0(self) -> float:
        """f(0) = 16 gamma^5 / 15."""
        return 16.0 * self.gamma**5 / 15.0

    @property
    def F0(self) -> float:
        """F(0) = 8 gamma^6 / 9, the total mass of f."""
        return 8.0 * self.gamma**6 / 9.0

    def f(self, t: ArrayLike) -> ArrayLike:
        """Evaluate f(t) for t >= 0 (vectorized)."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise ValueError("f is only defined for t >= 0")
        g = self.gamma
        inside = -arr**5 / 30.0 + (2.0 * g * g / 3.0) * arr**3 \
            - (4.0 * g**3 / 3.0) * arr**2 + 16.0 * g**5 / 15.0
        out = np.where(arr < 2.0 * g, inside, 0.0)
        if np.isscalar(t) or out.ndim == 0:
            return float(out)
        return out

    def moment(self, n: int) -> float:
        """int_0^{2 gamma} t^n f(t) dt, in closed form."""
        g, T = self.gamma, 2.0 * self.gamma
        return (-T**(n + 6) / (30.0 * (n + 6))
                + (2.0 * g * g / 3.0) * T**(n + 4) / (n + 4)
                - (4.0 * g**3 / 3.0) * T**(n + 3) / (n + 3)
                + (16.0 * g**5 / 15.0) * T**(n + 1) / (n + 1))

    def F(self, z: ArrayLike) -> ArrayLike:
        """Laplace transform of f, vectorized over complex z.

        Uses the closed form away from the origin and the Maclaurin series
        inside |z| < SMALL_Z_RADIUS, where the z^-6 cancellation would cost
        more digits than the 1e-9 cross-check budget allows.
        """
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.empty_like(z_arr)
        small = np.abs(z_arr) < SMALL_Z_RADIUS
        if small.any():
            out[small] = self._F_series(z_arr[small])
        big = ~small
        if big.any():
            out[big] = self._F_direct(z_arr[big])
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return complex(out[0])
        return out

    def _F_direct(self, z: np.ndarray) -> np.ndarray:
        g = self.gamma
        e = np.exp(-2.0 * g * z)
        return ((16.0 * g**5 / 15.0) / z
                - (8.0 * g**3 / 3.0) / z**3
                + 4.0 * g * g * (1.0 + e) / z**4
                + 4.0 * (-1.0 + e + 2.0 * g * z * e) / z**6)

    def _F_series(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros_like(z)
        for c in _series_coeffs_cached(self.gamma)[::-1]:
            out = out * (-z) + c
        return out

    def F_real(self, x: ArrayLike) -> ArrayLike:
        """F at real arguments, in real arithmetic; bit for bit the real part
        of ``F(x + 0j)``.

        Inside SMALL_Z_RADIUS the Maclaurin series runs on the real x (a
        complex Horner step with a zero imaginary part adds exact zeros).
        Outside it, the grouped closed form of ``F`` runs in the operation
        order numpy applies to x + 0j:

            A (1/x) - B (1/x3) + (C (1 + e)) (1/x4) + (4 (-1 + e + 2 gamma x e)) (1/x6)

        with x2 = x x, x3 = x2 x, x4 = x2 x2 and x6 = x4 x2, because numpy's
        complex z**3, z**4 and z**6 are unfused products by repeated squaring,
        its complex division a/(x + 0j) is Smith's algorithm, a (1/x) rather
        than a/x, and every product with a zero imaginary part adds an exact
        zero.  e = exp(-2 gamma x) must be libm's exponential: a scalar takes
        it from ``math.exp``, an array from the real part of numpy's
        per-element complex exp; numpy's SIMD float64 ``np.exp`` differs from
        libm's in the last bit for about 5% of arguments.  A Python float or
        0-d input gives a float, any other input an array of its shape.
        A NaN or inf argument gives a non-finite value; a scalar whose
        exponential overflows raises OverflowError.
        """
        g = self.gamma
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            if abs(x) < SMALL_Z_RADIUS:
                return float(self._F_series(np.array([x]))[0])
            return self._F_axis(x, math.exp(-2.0 * g * x))
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        small = np.abs(x) < SMALL_Z_RADIUS
        if small.any():
            out[small] = self._F_series(x[small])
        big = ~small
        xb = x[big]
        out[big] = self._F_axis(xb, np.exp(-2.0 * g * xb + 0j).real)
        return out

    def _F_axis(self, x, e):
        """The closed form of F on the real axis, e = exp(-2 gamma x); see
        :meth:`F_real`."""
        g = self.gamma
        x2 = x * x
        x4 = x2 * x2
        return ((16.0 * g**5 / 15.0) * (1.0 / x)
                - (8.0 * g**3 / 3.0) * (1.0 / (x2 * x))
                + (4.0 * g * g * (1.0 + e)) * (1.0 / x4)
                + (4.0 * (-1.0 + e + 2.0 * g * x * e)) * (1.0 / (x4 * x2)))

    def xf_exp_moment(self, c: float) -> float:
        """int_0^{2 gamma} x f(x) e^{c x} dx, by the checked Gauss-Legendre rule
        (the integrand is a degree-6 polynomial times an exponential); computed
        once per (gamma, c) in a process."""
        return _xf_exp_moment_cached(self.gamma, c)


@lru_cache(maxsize=128)
def _series_coeffs_cached(gamma: float) -> np.ndarray:
    kern = WeightKernel(gamma)
    return np.array([kern.moment(n) / math.factorial(n) for n in range(_SERIES_TERMS + 1)])


@lru_cache(maxsize=1024)
def _xf_exp_moment_cached(gamma: float, c: float) -> float:
    kern = WeightKernel(gamma)
    return _gauss_legendre(lambda x: x * kern.f(x) * np.exp(c * x), 0.0, kern.support_end)


class LatticeWork:
    """Re F(-s_i + i t_j) on blocks of at most ``rows`` values of s by every
    t given to the constructor, evaluated in buffers allocated once.

    The lattice evaluator behind the sup certificates.  With
    w = 1/z = conj(z)/(s^2 + t^2) the closed form is F = P(w) + e Q(w),

        P = w (A + w^2 (-B + w (C - 4 w^2))),   Q = w^4 (C + w (8 gamma + 4 w)),

    A = 16 gamma^5/15, B = 8 gamma^3/3, C = 4 gamma^2, and
    e = exp(-2 gamma z) = exp(2 gamma s) (cos 2 gamma t - i sin 2 gamma t).
    The constructor computes the trigonometric factor, t^2 and -t once for
    its t; :meth:`re_F` then takes one exponential per s and runs the Horner
    form in place, so evaluating a block allocates no array.  Points with
    |z| < SMALL_Z_RADIUS, z = 0 included, take the series value, as in
    :meth:`WeightKernel.F`.
    """

    def __init__(self, kernel: WeightKernel, t: np.ndarray, rows: int):
        g = kernel.gamma
        self.kernel = kernel
        self._two_g = 2.0 * g
        self._a = 16.0 * g**5 / 15.0
        self._b = 8.0 * g**3 / 3.0
        self._c = 4.0 * g * g
        self._d = 8.0 * g
        t = np.asarray(t, dtype=float)
        m = t.size
        # inv, w, w2, p and q; re_F views the first s.size rows of each
        self._blocks = (np.empty((rows, m)), *(np.empty((rows, m), dtype=complex)
                                                for _ in range(4)))
        phase = self._phase = np.empty(m, dtype=complex)
        t2 = self._t2 = np.empty(m)
        np.multiply(self._two_g, t, out=t2)
        np.cos(t2, out=phase.real)
        np.multiply(-self._two_g, t, out=t2)
        np.sin(t2, out=phase.imag)
        np.multiply(t, t, out=t2)
        self._neg_t = np.negative(t)
        self._small_cols = np.flatnonzero(np.abs(t) < SMALL_Z_RADIUS)
        self._small_t = t[self._small_cols]
        self._s2, self._neg_s, self._exp = np.empty(rows), np.empty(rows), np.empty(rows)

    def re_F(self, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write Re F(-s_i + i t_j) for the 1-D s (at most ``rows`` values) and
        the workspace's t into ``out``, of shape (s.size, t.size), and return
        ``out``."""
        s = np.asarray(s, dtype=float)
        n = s.size
        inv, w, w2, p, q = (block[:n] for block in self._blocks)
        s2, neg_s, ex = self._s2[:n], self._neg_s[:n], self._exp[:n]
        rows = None
        if self._small_cols.size and np.abs(s, out=ex).min() < SMALL_Z_RADIUS:
            rows = np.flatnonzero(ex < SMALL_Z_RADIUS)
        np.multiply(s, s, out=s2)
        np.negative(s, out=neg_s)
        # near z = 0, w overflows (z = 0 gives NaN): those points take the series
        # value below, and grid_max refuses any other non-finite value
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.add(s2[:, None], self._t2, out=inv)
            np.reciprocal(inv, out=inv)
            np.multiply(neg_s[:, None], inv, out=w.real)
            np.multiply(self._neg_t, inv, out=w.imag)
            np.multiply(w, w, out=w2)
            np.multiply(w2, -4.0, out=p)
            p += self._c
            p *= w
            p -= self._b
            p *= w2
            p += self._a
            p *= w
            np.multiply(w, 4.0, out=q)
            q += self._d
            q *= w
            q += self._c
            q *= w2
            q *= w2
            np.multiply(self._two_g, s, out=ex)
            np.exp(ex, out=ex)
            np.multiply(ex[:, None], self._phase, out=w)  # e; w is not read again
            q *= w
            # Re(P + e Q): complex addition is componentwise
            np.add(p.real, q.real, out=out)
        if rows is not None:
            cols = self._small_cols
            z = -s[rows, None] + 1j * self._small_t
            near = np.abs(z) < SMALL_Z_RADIUS
            patch = out[np.ix_(rows, cols)]
            patch[near] = np.real(self.kernel._F_series(z[near]))
            out[np.ix_(rows, cols)] = patch
        return out


# --------------------------------------------------------------------------
# Global parameters of the final verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LinnikParams:
    """Parameters of the final positivity argument.

    The defaults are the proven configuration; u, v, x are the sieve-weight
    break points derived from c1, c2 (with character constant 1/3).
    """

    L: float = 5.2
    K: float = 0.32
    theta: float = 1.15
    c1: float = 0.11
    c2: float = 0.27
    epsilon: float = 1e-7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.c1 <= 0 or self.c2 <= 0 or self.K <= 0:
            raise ValueError("K, c1, c2 must be positive")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon!r}")
        if not self.L - 2.0 * self.K > max(3.0, 2.0 * self.x):
            raise ValueError(
                f"need L - 2K > max(3, 2x): {self.L - 2 * self.K} vs {max(3.0, 2.0 * self.x)}")

    @property
    def u(self) -> float:
        return 1.0 / 3.0 + 2.0 * self.c1

    @property
    def v(self) -> float:
        return self.u + self.c2

    @property
    def x(self) -> float:
        return 2.0 / 3.0 + 3.0 * self.c1 + self.c2

    @property
    def decay(self) -> float:
        """The exponential rate L - 2K."""
        return self.L - 2.0 * self.K

    # -- B ------------------------------------------------------------

    def B(self, lam: float) -> float:
        """Majorant for the weighted zero sum of a single character.

        B(lam) = (1-e^{-2K lam})/(6 K^2 lam) + (2K lam - 1 + e^{-2K lam})/(2 K^2 lam^2).
        The second numerator cancels catastrophically for small arguments and
        switches to its Taylor series there; expm1 keeps the first stable.
        """
        if lam <= 0:
            raise ValueError("lam must be positive")
        K = self.K
        xv = 2.0 * K * lam
        t1 = -math.expm1(-xv) / (6.0 * K * K * lam)
        if xv < 0.2:
            # x - 1 + e^{-x} = sum_{k>=2} (-x)^k / k!, summed without cancellation
            acc = 0.0
            for j in range(10, -1, -1):
                acc = acc * (-xv) + 1.0 / math.factorial(j + 2)
            num = xv * xv * acc
        else:
            num = xv - 1.0 + math.exp(-xv)
        return t1 + num / (2.0 * K * K * lam * lam)

    # -- H and H2 -------------------------------------------------------

    def H2(self, z: ArrayLike) -> ArrayLike:
        """((1 - e^{-Kz})/z)^2, with value K^2 at z = 0."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        K = self.K
        w = K * z_arr
        g = np.empty_like(z_arr)
        small = np.abs(w) < _H2_SERIES_RADIUS
        if small.any():
            ws = w[small]
            acc = np.zeros_like(ws)
            for n in range(18, -1, -1):
                acc = acc * (-ws) + 1.0 / math.factorial(n + 1)
            g[small] = K * acc
        big = ~small
        if big.any():
            g[big] = (1.0 - np.exp(-w[big])) / z_arr[big]
        out = g * g
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return complex(out[0])
        return out

    def H(self, z: ArrayLike) -> ArrayLike:
        """Laplace transform of the triangle weight: e^{-(L-2K)z} H2(z)."""
        out = np.exp(-self.decay * np.asarray(z, dtype=complex)) * self.H2(z)
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return complex(out)
        return out

    # -- density weight w1, its reciprocal integral w, penalty ----------

    def w1(self, t: float) -> float:
        """Damped quarter-power weight; defined for t >= u."""
        if t < self.u:
            raise ValueError(f"w1 is defined for t >= u = {self.u}")
        m = min(t - self.u + W1_OFFSET, self.v - self.u + W1_OFFSET)
        return math.exp(-self.theta * t / 2.0) * m**0.25

    def w(self, s: Optional[float]) -> float:
        """Reciprocal of int_u^x w1(t)^2 e^{2st} dt; the sentinel s=None means
        +infinity and returns 0 exactly."""
        if s is None:
            return 0.0
        return 1.0 / _w_integral(self, float(s))

    def penalty_integral(self) -> float:
        """int_u^x w1(t)^{-2} min(t-u, v-u) dt, computed once per parameter set."""
        return _penalty_integral(self)

    def damped_ratio(self, s: float) -> float:
        """e^{-(L-2K)s} B(s) / w(s); nonincreasing in s because L - 2K > 2x."""
        return math.exp(-self.decay * s) * self.B(s) / self.w(s)

    # -- the C coefficient ----------------------------------------------

    def C(self, Lambda: float, lam: Optional[float]) -> float:
        """w(lam) * (ratio(lam) - ratio(Lambda)); C(None) = 0 by convention."""
        if lam is None:
            return 0.0
        if lam <= 0 or Lambda <= 0:
            raise ValueError("lam and Lambda must be positive")
        ratio_L = self.damped_ratio(Lambda)
        return math.exp(-self.decay * lam) * self.B(lam) - self.w(lam) * ratio_L


# Both integrals below have the factor min(t - u, v - u) + W1_OFFSET under a
# square root.  On [u, v] the substitution t = u - W1_OFFSET + r^2
# (dt = 2 r dr) cancels that root and leaves a polynomial in r times an
# exponential; on [v, x] the root is the constant sqrt(v - u + W1_OFFSET).

@lru_cache(maxsize=4096)
def _w_integral(params: LinnikParams, s: float) -> float:
    """int_u^x w1(t)^2 e^{2st} dt, w1(t)^2 = e^{-theta t} sqrt(min(...))."""
    u, v, x = params.u, params.v, params.x
    a = 2.0 * s - params.theta
    top = v - u + W1_OFFSET
    rise = _gauss_legendre(lambda r: 2.0 * r * r * np.exp(a * (u - W1_OFFSET + r * r)),
                           math.sqrt(W1_OFFSET), math.sqrt(top))
    return rise + math.sqrt(top) * _gauss_legendre(lambda t: np.exp(a * t), v, x)


@lru_cache(maxsize=64)
def _penalty_integral(params: LinnikParams) -> float:
    """int_u^x min(t - u, v - u) / w1(t)^2 dt."""
    u, v, x = params.u, params.v, params.x
    top = v - u + W1_OFFSET
    lo, hi = math.sqrt(W1_OFFSET), math.sqrt(top)
    # on [u, v], min(t - u, v - u) = r^2 - W1_OFFSET
    theta = params.theta
    rise = _gauss_legendre(
        lambda r: 2.0 * (r * r - W1_OFFSET) * np.exp(theta * (u - W1_OFFSET + r * r)),
        lo, hi)
    return rise + (v - u) / math.sqrt(top) * _gauss_legendre(
        lambda t: np.exp(theta * t), v, x)


def classic_density_bound(lam: float) -> float:
    """67/(6 lam) * (e^{73 lam/30} - e^{16 lam/15}).

    Stable down to lam -> 0+ via expm1; the limit there is 67/6 * (73/30 - 16/15).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    return (67.0 / 6.0) * (math.expm1(73.0 * lam / 30.0) - math.expm1(16.0 * lam / 15.0)) / lam
