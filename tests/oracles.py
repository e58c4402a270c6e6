"""Independent oracles for the Laplace transform F of the weight f.

One of each kind: :func:`F_quadrature` integrates in double precision with
QUADPACK's oscillatory rules, :func:`mp_laplace` in 30 digits with mpmath.
Neither shares code with ``linnik.kernel``'s closed form or series.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from linnik.kernel import QuadratureError, WeightKernel

#: absolute tolerance asked of QUADPACK
TOL = 1e-12


def _quad(fn, a: float, b: float, *, weight=None, wvar=None) -> float:
    """scipy.integrate.quad with an absolute-tolerance contract.

    The roundoff warning is silenced because the achieved error estimate is
    checked explicitly; near the double-precision floor the accepted error
    scales with the result's magnitude.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        y, err = quad(fn, a, b, epsabs=TOL, epsrel=TOL, limit=400,
                      weight=weight, wvar=wvar)
    if err > max(50.0 * TOL, 1e-9 * abs(y)):
        raise QuadratureError("quadrature did not converge", y, err)
    return y


def F_quadrature(kern: WeightKernel, z: complex) -> complex:
    """int_0^{2 gamma} f(t) e^{-zt} dt with oscillatory-aware quadrature;
    raises QuadratureError if the tolerance is not met."""
    a, b = float(np.real(z)), float(np.imag(z))
    damped = lambda t: kern.f(t) * math.exp(-a * t)
    if b == 0.0:
        return complex(_quad(damped, 0.0, kern.support_end), 0.0)
    re = _quad(damped, 0.0, kern.support_end, weight="cos", wvar=b)
    im = -_quad(damped, 0.0, kern.support_end, weight="sin", wvar=b)
    return complex(re, im)


def mp_laplace(gamma: float, z: complex) -> complex:
    """F(z) by 30-digit quadrature, for where double-precision quadrature
    sits on its roundoff floor (huge e^{|Re z| t} against an
    oscillation-cancelled result).  The support is split once per period
    of e^{-i Im(z) t}."""
    import mpmath as mp
    with mp.workdps(30):
        g = mp.mpf(gamma)
        zz = mp.mpc(z)
        f = lambda t: -t**5 / 30 + 2 * g * g / 3 * t**3 - 4 * g**3 / 3 * t * t + 16 * g**5 / 15
        T = 2 * g
        n = max(1, int(abs(z.imag) * float(T) / (2.0 * math.pi)) + 1)
        pts = [T * mp.mpf(i) / n for i in range(n + 1)]
        return complex(mp.quad(lambda t: f(t) * mp.e ** (-zz * t), pts))
