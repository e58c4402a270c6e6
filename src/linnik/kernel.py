"""Closed-form special functions used throughout the certification chain.

Everything here is an explicit formula or a one-dimensional quadrature:
the compactly supported weight ``f`` and its Laplace transform ``F``, the
triangle-weight transforms ``H`` and ``H2``, the zero-sum majorant ``B``,
the density weight ``w1`` with its reciprocal-integral ``w``, the tail
coefficient ``C``, and the classic zero-density bound.

``WeightKernel.F`` serves scalar and scattered complex arguments.
``WeightKernel.F_real`` serves the real axis (every row right-hand side,
step end and counting cell) in real arithmetic.  The two run one series and
one closed form, so ``F_real`` carries the same bits as the real part of
``F``.  ``LatticeWork`` evaluates only Re F on an outer product of real
parts and imaginary parts, the lattice blocks of the sup certificates, from
a Horner form in 1/z with one exponential per row.  It is built for one
certificate's t lattice: the constructor takes the cos/sin pair, t^2 and
-t of each t once for every row evaluated against it, and ``re_F``
returns one block of whole t rows at a time.  All three switch to the
same series inside SMALL_Z_RADIUS.

All real arithmetic is double precision.  ``w``, the penalty integral and
``xf_moments`` (M2(c) = int x^2 f(x) e^{cx} dx, which bounds the second
derivatives of the sup certificates) memoise their values in the method
itself, an ``lru_cache`` keyed on the frozen instance, so equal parameter
sets or kernels share entries; ``w`` and the penalty are one integral split
at v (``LinnikParams._split_integral``).  Each uses one fixed Gauss-Legendre
rule (:func:`_gauss_legendre`) on pieces whose integrand is a polynomial
times an exponential, an entire function on which the rule converges
geometrically: the 32-node value is returned only when the 16-node value
agrees with it to within max(50 QUAD_TOL, 1e-9 |I|), QUAD_TOL = 1e-12;
otherwise :class:`QuadratureError` is raised.  The error of an n-node rule
on such an integrand falls geometrically in n, so |I32 - I16| is in effect
the 16-node error and bounds the far smaller 32-node error of the returned
value.  A NaN or inf in either value raises FloatingPointError.
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

#: absolute tolerance of every Gauss-Legendre integral: w, the penalty and xf_moments
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
    evaluated in one call.  Raises FloatingPointError when a value is not
    finite and QuadratureError when |I32 - I16| > max(50 QUAD_TOL, 1e-9 |I32|).
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


def _require_finite(record) -> None:
    """Raise ValueError naming the first number field of a dataclass that
    is NaN or infinite."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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
        _require_finite(self)
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
        """Evaluate f(t) for t >= 0 (vectorized); a NaN argument is refused."""
        arr = np.asarray(t, dtype=float)
        if not np.all(arr >= 0):
            raise ValueError("f is only defined for t >= 0")
        g = self.gamma
        inside = -arr**5 / 30.0 + (2.0 * g * g / 3.0) * arr**3 \
            - (4.0 * g**3 / 3.0) * arr**2 + self.f0
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
                + self.f0 * T**(n + 1) / (n + 1))

    def F(self, z: ArrayLike) -> ArrayLike:
        """Laplace transform of f, vectorized over complex z.

        Uses the closed form away from the origin and the Maclaurin series
        inside |z| < SMALL_Z_RADIUS, where the z^-6 cancellation would cost
        more digits than the 1e-9 cross-check budget allows.
        """
        out = self._F(np.atleast_1d(np.asarray(z, dtype=complex)), np.exp)
        if np.isscalar(z) or np.asarray(z).ndim == 0:
            return complex(out[0])
        return out

    @lru_cache(maxsize=128)
    def _series_coeffs(self) -> np.ndarray:
        return np.array([self.moment(n) / math.factorial(n) for n in range(_SERIES_TERMS + 1)])

    def _F_series(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros_like(z)
        for c in self._series_coeffs()[::-1]:
            out = out * (-z) + c
        return out

    def F_real(self, x: ArrayLike) -> ArrayLike:
        """F at real arguments, in real arithmetic; bit for bit the real part
        of ``F(x + 0j)``.

        Both run the same series and the same closed form, ``F`` in complex
        arithmetic and this in real: a complex sum, product or division whose
        operands have zero imaginary parts adds exact zeros to the real ones.
        e = exp(-2 gamma x) must be libm's exponential: a scalar takes it from
        ``math.exp``, an array from the real part of numpy's per-element
        complex exp; numpy's SIMD float64 ``np.exp`` differs from libm's in
        the last bit for about 5% of arguments.  A Python float or 0-d input
        gives a float, any other input an array of its shape.  A NaN or inf
        argument gives a non-finite value; a scalar whose exponential
        overflows raises OverflowError.
        """
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            if abs(x) < SMALL_Z_RADIUS:
                return float(self._F_series(np.array([x]))[0])
            return self._F_closed(x, math.exp(-2.0 * self.gamma * x))
        return self._F(np.asarray(x, dtype=float), lambda a: np.exp(a + 0j).real)

    def _F(self, z: np.ndarray, exp) -> np.ndarray:
        """F on a real or complex array: the series inside SMALL_Z_RADIUS,
        the closed form with e = exp(-2 gamma z) outside it."""
        out = np.empty_like(z)
        small = np.abs(z) < SMALL_Z_RADIUS
        if small.any():
            out[small] = self._F_series(z[small])
        big = ~small
        zb = z[big]
        out[big] = self._F_closed(zb, exp(-2.0 * self.gamma * zb))
        return out

    def _F_closed(self, z, e):
        """The closed form of F at z != 0, real or complex, with e = exp(-2 gamma z)."""
        g = self.gamma
        z2 = z * z
        z4 = z2 * z2
        return (self.f0 * (1.0 / z)
                - (8.0 * g**3 / 3.0) * (1.0 / (z2 * z))
                + (4.0 * g * g * (1.0 + e)) * (1.0 / z4)
                + (4.0 * (-1.0 + e + 2.0 * g * z * e)) * (1.0 / (z4 * z2)))

    @lru_cache(maxsize=1024)
    def xf_moments(self, c: float) -> float:
        """M2(c) = int_0^{2 gamma} x^2 f(x) e^{c x} dx, a degree-7 polynomial
        times an exponential, by one checked Gauss-Legendre pass; computed
        once per (gamma, c) in a process.

        f takes its factored form (2 gamma - x)^3 (4 gamma^2 + 6 gamma x +
        x^2) / 30, which, unlike the expanded form of :meth:`f`, does not
        cancel at the nodes next to 2 gamma.  M2 increases in c.
        """
        g = self.gamma

        def integrand(x):
            u = 2.0 * g - x
            return x * (x * (u * u * u) * (4.0 * g * g + 6.0 * g * x + x * x) / 30.0
                        * np.exp(c * x))

        return _gauss_legendre(integrand, 0.0, self.support_end)


class LatticeWork:
    """Re F(-s_i + i t_j) on the outer product of any 1-D s with the t given
    to the constructor.

    The lattice evaluator behind the sup certificates.  With
    w = 1/z = conj(z)/(s^2 + t^2) the closed form is F = P(w) + e Q(w),

        P = w (A + w^2 (-B + w (C - 4 w^2))),   Q = w^4 (C + w (8 gamma + 4 w)),

    A = f(0) = 16 gamma^5/15, B = 8 gamma^3/3, C = 4 gamma^2, and
    e = exp(-2 gamma z) = exp(2 gamma s) (cos 2 gamma t - i sin 2 gamma t).
    The constructor computes the trigonometric factor, t^2 and -t once for
    its t; :meth:`re_F` then takes one exponential per s and runs the Horner
    form on a block of rows.  Points with |z| < SMALL_Z_RADIUS, z = 0
    included, take the series value, as in :meth:`WeightKernel.F`.
    """

    def __init__(self, kernel: WeightKernel, t: np.ndarray):
        g = kernel.gamma
        self.kernel = kernel
        self._two_g = 2.0 * g
        self._a = kernel.f0
        self._b = 8.0 * g**3 / 3.0
        self._c = 4.0 * g * g
        self._d = 8.0 * g
        t = np.asarray(t, dtype=float)
        self._phase = np.empty(t.size, dtype=complex)
        self._phase.real = np.cos(self._two_g * t)
        self._phase.imag = np.sin(-self._two_g * t)
        self._t2 = t * t
        self._neg_t = -t
        self._small_cols = np.flatnonzero(np.abs(t) < SMALL_Z_RADIUS)
        self._small_t = t[self._small_cols]

    def re_F(self, s: np.ndarray) -> np.ndarray:
        """Re F(-s_i + i t_j) for the 1-D s and the workspace's t, a new array
        of shape (s.size, t.size)."""
        s = np.asarray(s, dtype=float)
        # near z = 0, w overflows (z = 0 gives NaN): those points take the series
        # value below, and grid_max refuses any other non-finite value
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = np.reciprocal((s * s)[:, None] + self._t2)
            w = np.empty(inv.shape, dtype=complex)
            w.real = -s[:, None] * inv
            w.imag = self._neg_t * inv
            w2 = w * w
            p = (((w2 * -4.0 + self._c) * w - self._b) * w2 + self._a) * w
            q = ((w * 4.0 + self._d) * w + self._c) * w2 * w2
            q *= np.exp(self._two_g * s)[:, None] * self._phase
            # Re(P + e Q): complex addition is componentwise
            out = p.real + q.real
        rows = np.flatnonzero(np.abs(s) < SMALL_Z_RADIUS)
        if rows.size and self._small_cols.size:
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

    @lru_cache(maxsize=4096)
    def w(self, s: Optional[float]) -> float:
        """Reciprocal of int_u^x w1(t)^2 e^{2st} dt, computed once per (parameter
        set, s); the sentinel s=None means +infinity and returns 0 exactly."""
        if s is None:
            return 0.0
        return 1.0 / self._split_integral(2.0 * float(s) - self.theta, 0.0,
                                          math.sqrt(self.v - self.u + W1_OFFSET))

    @lru_cache(maxsize=64)
    def penalty_integral(self) -> float:
        """int_u^x w1(t)^{-2} min(t-u, v-u) dt, computed once per parameter set."""
        return self._split_integral(self.theta, W1_OFFSET,
                                    (self.v - self.u) / math.sqrt(self.v - self.u + W1_OFFSET))

    def _split_integral(self, a: float, shift: float, flat: float) -> float:
        """int_u^x of the integrand of ``w`` (a = 2s - theta, shift 0) or of the
        penalty (a = theta, shift W1_OFFSET), split at v.

        Both carry the factor min(t - u, v - u) + W1_OFFSET under a square root.
        On [u, v] the substitution t = u - W1_OFFSET + r^2 (dt = 2 r dr) cancels
        that root and leaves 2 (r^2 - shift) e^{a t}, a polynomial in r times an
        exponential; on [v, x] the root is constant and the integrand is flat e^{a t}.
        """
        rise = _gauss_legendre(
            lambda r: 2.0 * (r * r - shift) * np.exp(a * (self.u - W1_OFFSET + r * r)),
            math.sqrt(W1_OFFSET), math.sqrt(self.v - self.u + W1_OFFSET))
        return rise + flat * _gauss_legendre(lambda t: np.exp(a * t), self.v, self.x)

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


def classic_density_bound(lam: float) -> float:
    """67/(6 lam) * (e^{73 lam/30} - e^{16 lam/15}).

    Stable down to lam -> 0+ via expm1; the limit there is 67/6 * (73/30 - 16/15).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    return (67.0 / 6.0) * (math.expm1(73.0 * lam / 30.0) - math.expm1(16.0 * lam / 15.0)) / lam
