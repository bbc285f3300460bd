"""Cross-check routes that only the tests use: adaptive quadrature and
asymptotic predictors set against the toolkit's closed forms and solvers."""

import cmath
import math

from scipy.integrate import quad

from cyclicity.auxfun import PrivalovShadow, poisson_arc_integral
from cyclicity.geometry import solve_profile_y


def herglotz_arc_integral_quad(z: complex, lo: float, hi: float) -> complex:
    """Adaptive quadrature of (e^{it}+z)/(e^{it}-z) dt over [lo, hi]."""

    def kern(t: float) -> complex:
        e = cmath.exp(1j * t)
        return (e + z) / (e - z)

    re, _ = quad(lambda t: kern(t).real, lo, hi, epsrel=1e-9, epsabs=1e-13, limit=200)
    im, _ = quad(lambda t: kern(t).imag, lo, hi, epsrel=1e-9, epsabs=1e-13, limit=200)
    return complex(re, im)


def c_lambda_inv_quad(lam: complex) -> float:
    """1/c_lambda as the Poisson integral over the shadow at lambda."""
    sh = PrivalovShadow(lam)
    return poisson_arc_integral(lam, sh.lo, sh.hi)


def profile_y_predictor(weight, x: float) -> float:
    """Asymptotic predictor 2 sqrt(x/u) for the profile height y(x), u = Lambda^{-1}(x)."""
    y = solve_profile_y(weight, x)
    u = 4.0 * x / ((x + 1.0) ** 2 + y * y)
    return 2.0 * math.sqrt(x / u)
