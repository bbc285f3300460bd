"""Implicit domain boundaries and the half-plane coordinate transfer.

The star-shaped domain attached to a weight Lambda and a boundary set E has
boundary radius 1 - gamma(theta), where gamma solves

    gamma = theta^2 * Lambda(gamma + dist(e^{i theta}, E)).

g(gamma) = gamma - theta^2 Lambda(gamma + d) is strictly increasing (Lambda
is decreasing), so the root is unique; it is bracketed and bisected in
log-gamma space (the lower bracket sits at 1e-300, where g is hopeless to
evaluate in linear space).  Every solution carries a residual certificate.

The radial profile of the full-circle domain transfers to a Cartesian
half-plane domain: the boundary height y(x) solves
x = Lambda(4x / ((x+1)^2 + y^2)) and is checked against the asymptotic
y = (2 + o(1)) sqrt(Lambda(t)/t).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import boundary as bnd
from . import weights as wts
from .errors import CapacityError, DomainError, NumericError, UsageError

_GAMMA_FLOOR = 1e-300
_THETA_FLOOR = 1e-300  # below this theta itself is not representable
_RESIDUAL_REL = 1e-12
_MAX_BISECT = 200


@dataclass(frozen=True)
class GammaSolution:
    theta: float
    gamma: float
    residual: float
    dist_at_theta: float


@dataclass(frozen=True)
class HalfplaneCoords:
    R: float
    phi: float

    def reconstruct(self) -> complex:
        """The point w with 1 - w = e^{i phi} / R."""
        return 1.0 - cmath.exp(1j * self.phi) / self.R


def _lambda_clamped(weight: wts.WeightSpec, t: float) -> float:
    return wts.eval_lambda(weight, min(t, 2.0))


def normalized_for_lambda1(weight: wts.WeightSpec) -> wts.WeightSpec:
    """Rescale the weight so that Lambda(1) < 1/10 (a pure normalization)."""
    lam1 = wts.eval_lambda(weight, 1.0)
    if lam1 < 0.1:
        return weight
    return weight.with_scale(weight.scale * 0.099 / lam1)


def solve_gamma(
    weight: wts.WeightSpec,
    bset: bnd.BoundarySet,
    theta: float,
    normalize_lambda1: bool = False,
) -> GammaSolution:
    """Solve gamma = theta^2 Lambda(gamma + dist(e^{i theta}, E)) on (0, 1)."""
    theta = float(theta)
    if theta == 0.0:
        raise DomainError("theta must be nonzero")
    if abs(theta) > math.pi:
        raise DomainError("theta must lie in [-pi, pi]")
    if abs(theta) < _THETA_FLOOR:
        raise DomainError(f"|theta| below the representable floor {_THETA_FLOOR}")
    spec = normalized_for_lambda1(weight) if normalize_lambda1 else weight
    d = bnd.distance_to_set(bset, cmath.exp(1j * theta))
    log_th2 = 2.0 * math.log(abs(theta))  # theta^2 itself may underflow

    def h(x: float) -> float:
        # sign of g(gamma) at gamma = e^x, computed in log space
        return x - log_th2 - math.log(_lambda_clamped(spec, math.exp(x) + d))

    lo = math.log(_GAMMA_FLOOR)
    hi = math.log(1.0 - 1e-12)
    h_lo, h_hi = h(lo), h(hi)
    if h_lo >= 0.0:
        raise NumericError("lower bracket failed; weight is not admissible at this theta")
    if h_hi <= 0.0:
        raise NumericError(
            "no root with gamma < 1; Lambda is too large at scale 1 "
            "(set normalize_lambda1=True or restrict to smaller |theta|)"
        )
    steps = 0
    while steps < _MAX_BISECT:
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        steps += 1
        # stop at one part in 1e14 of log-gamma, floored at a few ulps
        if (hi - lo) <= 1e-14 + 4e-16 * abs(lo):
            break
    else:
        raise NumericError("bisection did not converge within the step cap")
    x_root = 0.5 * (lo + hi)
    gamma = math.exp(x_root)
    # |gamma - theta^2 Lambda| = gamma |1 - exp(-h)|, underflow-safe
    residual = gamma * abs(1.0 - math.exp(-h(x_root)))
    if residual > _RESIDUAL_REL * max(gamma, _GAMMA_FLOOR):
        raise NumericError(f"residual certificate failed: {residual!r} at gamma={gamma!r}")
    return GammaSolution(theta=theta, gamma=gamma, residual=residual, dist_at_theta=d)


def to_halfplane(w: complex) -> HalfplaneCoords:
    """Coordinates (R, phi) with 1 - w = e^{i phi} / R."""
    w = complex(w)
    if w == 1.0:
        raise DomainError("w = 1 has no half-plane image")
    one_minus = 1.0 - w
    return HalfplaneCoords(R=1.0 / abs(one_minus), phi=cmath.phase(one_minus))


def boundary_point(weight: wts.WeightSpec, bset: bnd.BoundarySet, theta: float,
                   normalize_lambda1: bool = False) -> complex:
    """The boundary point (1 - gamma(theta)) e^{i theta}."""
    sol = solve_gamma(weight, bset, theta, normalize_lambda1=normalize_lambda1)
    return (1.0 - sol.gamma) * cmath.exp(1j * theta)


def solve_profile_y(weight: wts.WeightSpec, x: float) -> float:
    """Boundary height y(x) >= 0 of the half-plane image of the full-circle domain.

    Solves Lambda(u) = x for u (unique by monotonicity), then
    y = sqrt(4x/u - (x+1)^2).  A root requires Lambda(4x/(x+1)^2) <= x.
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    u0 = 4.0 * x / (x + 1.0) ** 2
    lam_u0 = wts.eval_lambda(weight, u0)
    if lam_u0 > x:
        raise DomainError(
            f"no boundary point at height x={x!r}: Lambda({u0!r}) = {lam_u0!r} > x; "
            "increase x past the Lambda-infimum over reachable arguments"
        )
    lo, hi = math.log(_GAMMA_FLOOR), math.log(u0)
    # Lambda(e^s) - x: decreasing in s
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if wts.eval_lambda(weight, math.exp(mid)) > x:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    u = math.exp(0.5 * (lo + hi))
    rel = abs(wts.eval_lambda(weight, u) - x) / x
    if rel > 1e-9:
        raise NumericError(f"profile root residual {rel!r} too large at x={x!r}")
    y2 = 4.0 * x / u - (x + 1.0) ** 2
    return math.sqrt(max(y2, 0.0))


def profile_y_predictor(weight: wts.WeightSpec, x: float) -> float:
    """Asymptotic predictor 2 sqrt(x/u) for y(x), with u = Lambda^{-1}(x)."""
    y = solve_profile_y(weight, x)
    u = 4.0 * x / ((x + 1.0) ** 2 + y * y)
    return 2.0 * math.sqrt(x / u)


def gamma_criterion_partial(
    weight: wts.WeightSpec,
    bset: bnd.BoundarySet,
    eps: float,
    upper: float,
    normalize_lambda1: bool = False,
) -> float:
    """Adaptive quadrature of gamma(theta)/theta^2 over [eps, upper].

    Integrated in v = log(1/theta) (the natural scale; eps may be e^-100).
    Quadrature break points are placed at the complementary-arc endpoints
    of E inside the range, where gamma is Lipschitz but not differentiable.
    """
    eps, upper = float(eps), float(upper)
    if not (0.0 < eps < upper):
        raise UsageError("need 0 < eps < upper")
    if upper > weight.pure_cut * (1.0 + 1e-12):
        raise UsageError(f"upper must not exceed the pure region edge {weight.pure_cut!r}")

    def integrand(v: float) -> float:
        theta = math.exp(-v)
        sol = solve_gamma(weight, bset, theta, normalize_lambda1=normalize_lambda1)
        return sol.gamma / theta

    v_lo, v_hi = math.log(1.0 / upper), math.log(1.0 / eps)
    pts: list[float] = []
    if bset.kind not in ("full",):
        try:
            arcs = bnd.complementary_arcs(bset, eps)
        except CapacityError:  # too many arcs to list (deep Cantor sets): no break points
            arcs = []
        for arc in arcs[:40]:
            for endpoint in (arc.a, arc.b):
                if eps < endpoint < upper:
                    pts.append(math.log(1.0 / endpoint))
    pts = sorted(p for p in set(pts) if v_lo < p < v_hi)
    val, _ = quad(integrand, v_lo, v_hi, epsrel=1e-6, epsabs=1e-14, limit=400,
                  points=pts if pts else None)
    return float(val)
