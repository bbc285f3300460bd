"""Cross-check routes that only the tests use: adaptive quadrature and
asymptotic predictors set against the toolkit's closed forms and solvers."""

import cmath
import math

import numpy as np
from scipy.integrate import quad

from cyclicity import boundary, weights
from cyclicity.auxfun import PrivalovShadow, poisson_arc_integral
from cyclicity.errors import UsageError
from cyclicity.geometry import solve_profile_y
from cyclicity.phragmen import DomainProfile, pl_divergence_integrand


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


def pl_divergence_partials(profile: DomainProfile, checkpoints) -> np.ndarray:
    """Partial integrals of the divergence integrand from a base point up to
    each checkpoint (increasing outer limits)."""
    pts = [float(p) for p in checkpoints]
    if any(p2 <= p1 for p1, p2 in zip(pts, pts[1:])):
        raise UsageError("checkpoints must be strictly increasing")
    base = max(profile.r_min() * 1.5, 2.0)
    if pts[0] <= base:
        raise UsageError(f"checkpoints must exceed the base point {base!r}")
    out, acc, prev = [], 0.0, base
    for p in pts:
        val, _ = quad(lambda v: pl_divergence_integrand(profile, v), prev, p,
                      epsrel=1e-8, epsabs=1e-14, limit=200)
        acc += val
        prev = p
        out.append(acc)
    return np.asarray(out)


def cut_crossings_bisection(spec, bset, sign: float, kinks, floor: float) -> np.ndarray:
    """The angles theta of geometry._cut_crossings by 64 bisection steps in theta.

    Each bracket between kinks where phi(theta) = dist + theta^2 Lambda(cut)
    - cut changes sign is halved 64 times, far below float resolution.
    """
    cut, lam_cut = spec.pure_cut, float(weights.eval_lambda(spec, spec.pure_cut))

    def phi(t):
        return boundary.distance_to_set(bset, np.exp(1j * sign * t)) + t * t * lam_cut - cut

    t0 = min(math.pi, max(floor, 2.0 * cut / (1.0 + math.sqrt(1.0 + 4.0 * lam_cut * cut))))
    ends = np.unique(np.concatenate(([t0], kinks[kinks > t0], [math.pi])))
    f = phi(ends)
    bracket = np.flatnonzero((f[:-1] < 0.0) != (f[1:] < 0.0))
    lo, hi, f_lo = ends[bracket], ends[bracket + 1], f[bracket]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        same = (phi(mid) < 0.0) == (f_lo < 0.0)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)
