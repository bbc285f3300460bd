"""Implicit domain boundaries and the half-plane coordinate transfer.

The star-shaped domain attached to a weight Lambda and a boundary set E has
boundary radius 1 - gamma(theta), where gamma solves

    gamma = theta^2 * Lambda(gamma + dist(e^{i theta}, E)).

g(gamma) = gamma - theta^2 Lambda(gamma + d) is strictly increasing (Lambda
is decreasing), so the root is unique; it is bracketed and bisected in
x = log gamma, with u = log(1/|theta|) in place of theta^2 (the lower
bracket sits at 1e-300, where g is hopeless to evaluate in linear space).
The bisection runs on arrays of angles, freezing each as it converges;
solve_gamma is its one-angle case.  Every solution carries a residual
certificate.

Integrals of gamma-dependent data over theta use one fixed-node rule:
composite Gauss-Legendre in v = log(1/|theta|) at 20 and 10 points per
panel on the same panels (uniform, plus breaks at the kinks of the distance
to E, at the angles where gamma + dist crosses Lambda's pure cut, and at
any caller's breaks).  All nodes are solved in one array call; the value is
the 20-point sum and the error estimate the difference of the two plus a
rounding allowance.  gamma_criterion_partial integrates gamma/theta^2 this
way, for one cutoff or many.

The radial profile of the full-circle domain transfers to a Cartesian
half-plane domain: the boundary height y(x) solves
x = Lambda(4x / ((x+1)^2 + y^2)) and is checked against the asymptotic
y = (2 + o(1)) sqrt(Lambda(t)/t).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import boundary as bnd
from . import weights as wts
from .errors import CapacityError, DomainError, NumericError, UsageError

_GAMMA_FLOOR = 1e-300
_THETA_FLOOR = 1e-300  # below this theta itself is not representable
_RESIDUAL_REL = 1e-12
_MAX_BISECT = 200
_BLOCK = 4096  # angles solved together; bounds the solver's working memory
_RULE_ORDER = 20  # Gauss-Legendre points per panel; the error estimate uses half as many
_ROUNDING = 50.0 * np.finfo(float).eps  # relative rounding allowance of a rule sum
_PANEL_WIDTH = 8.0  # widest panel in v = log(1/theta)
_KINK_SPACING = 0.25  # at most one kink break per cell of this width in v


@dataclass(frozen=True)
class GammaSolution:
    """A solution of the gamma equation; solve_gamma_array fills it with arrays."""

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


class Quadrature(NamedTuple):
    """A rule's value and error estimate (arrays for array input)."""

    value: float
    error: float


def normalized_for_lambda1(weight: wts.WeightSpec) -> wts.WeightSpec:
    """Rescale the weight so that Lambda(1) < 1/10 (a pure normalization)."""
    lam1 = wts.eval_lambda(weight, 1.0)
    if lam1 < 0.1:
        return weight
    return weight.with_scale(weight.scale * 0.099 / lam1)


def _log_gamma(spec: wts.WeightSpec, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x = log gamma of gamma = e^(-2u) Lambda(gamma + d), elementwise (1-d arrays).

    h(x) = x + 2u - log Lambda(e^x + d) has the sign of gamma - theta^2
    Lambda(gamma + d) and is increasing; it is bisected from the bracket
    [log 1e-300, log(1 - 1e-12)] until the bracket is one part in 1e14 of
    log-gamma (floored at a few ulps).  Converged elements are frozen.
    """

    def h(x, u, d):
        return x + 2.0 * u - np.log(wts.eval_lambda(spec, np.minimum(np.exp(x) + d, 2.0)))

    lo = np.full(u.shape, math.log(_GAMMA_FLOOR))
    hi = np.full(u.shape, math.log(1.0 - 1e-12))
    if np.any(h(lo, u, d) >= 0.0):
        raise NumericError("lower bracket failed; weight is not admissible at this theta")
    if np.any(h(hi, u, d) <= 0.0):
        raise NumericError(
            "no root with gamma < 1; Lambda is too large at scale 1 "
            "(set normalize_lambda1=True or restrict to smaller |theta|)"
        )
    x = np.empty(u.shape)
    idx = np.arange(u.size)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        neg = h(mid, u, d) < 0.0
        lo, hi = np.where(neg, mid, lo), np.where(neg, hi, mid)
        done = (hi - lo) <= 1e-14 + 4e-16 * np.abs(lo)
        if np.count_nonzero(done):
            x[idx[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            idx, lo, hi, u, d = idx[keep], lo[keep], hi[keep], u[keep], d[keep]
            if idx.size == 0:
                return x
    raise NumericError("bisection did not converge within the step cap")


def _residual(spec: wts.WeightSpec, x, u, d):
    """|gamma - theta^2 Lambda(gamma + d)| = gamma |1 - exp(-h(x))|, underflow-safe."""
    gamma = np.exp(x)
    h = x + 2.0 * u - np.log(wts.eval_lambda(spec, np.minimum(gamma + d, 2.0)))
    residual = gamma * np.abs(1.0 - np.exp(-h))
    bad = residual > _RESIDUAL_REL * np.maximum(gamma, _GAMMA_FLOOR)
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise NumericError(f"residual certificate failed: {residual[i]!r} at gamma={gamma[i]!r}")
    return gamma, residual


def solve_gamma_array(
    weight: wts.WeightSpec,
    bset: bnd.BoundarySet,
    thetas,
    normalize_lambda1: bool = False,
) -> GammaSolution:
    """Solve gamma = theta^2 Lambda(gamma + dist(e^{i theta}, E)) on (0, 1) for each theta.

    Worked in u = log(1/|theta|) and x = log gamma, so theta^2 is never
    formed.  Returns a GammaSolution of arrays shaped like thetas; every
    element carries its residual certificate.
    """
    theta = np.asarray(thetas, dtype=float)
    if np.any(theta == 0.0):
        raise DomainError("theta must be nonzero")
    if np.any(np.abs(theta) > math.pi):
        raise DomainError("theta must lie in [-pi, pi]")
    if np.any(np.abs(theta) < _THETA_FLOOR):
        raise DomainError(f"|theta| below the representable floor {_THETA_FLOOR}")
    spec = normalized_for_lambda1(weight) if normalize_lambda1 else weight
    flat = theta.ravel()
    gamma, residual, d = np.empty(flat.size), np.empty(flat.size), np.empty(flat.size)
    for k in range(0, flat.size, _BLOCK):
        block = slice(k, k + _BLOCK)
        t = flat[block]
        d[block] = bnd.distance_to_set(bset, np.exp(1j * t))
        u = -np.log(np.abs(t))
        gamma[block], residual[block] = _residual(spec, _log_gamma(spec, u, d[block]), u, d[block])
    shape = theta.shape
    return GammaSolution(theta=theta, gamma=gamma.reshape(shape), residual=residual.reshape(shape),
                         dist_at_theta=d.reshape(shape))


def solve_gamma(
    weight: wts.WeightSpec,
    bset: bnd.BoundarySet,
    theta: float,
    normalize_lambda1: bool = False,
) -> GammaSolution:
    """Solve gamma = theta^2 Lambda(gamma + dist(e^{i theta}, E)) on (0, 1)."""
    sol = solve_gamma_array(weight, bset, float(theta), normalize_lambda1)
    return GammaSolution(*(float(f) for f in (sol.theta, sol.gamma, sol.residual, sol.dist_at_theta)))


def to_halfplane(w: complex) -> HalfplaneCoords:
    """Coordinates (R, phi) with 1 - w = e^{i phi} / R."""
    w = complex(w)
    if w == 1.0:
        raise DomainError("w = 1 has no half-plane image")
    one_minus = 1.0 - w
    return HalfplaneCoords(R=1.0 / abs(one_minus), phi=cmath.phase(one_minus))


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


@functools.cache
def _gauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def log_rule(edges):
    """Composite Gauss-Legendre rules of two orders on the panels between edges.

    Returns the nodes v of both rules and, on all nodes, the weights of the
    order-_RULE_ORDER rule and of the half-order rule (each zero on the
    other's nodes): sum(f(v) * fine) is the integral, and the same sum
    with fine - coarse gives its error estimate (see rule_sum).
    """
    e = np.unique(np.asarray(edges, dtype=float))
    mid, half = 0.5 * (e[1:] + e[:-1])[:, None], 0.5 * (e[1:] - e[:-1])[:, None]
    (x2, w2), (x1, w1) = (_gauss(n) for n in (_RULE_ORDER, _RULE_ORDER // 2))
    n2 = x2.size * mid.size
    v = np.concatenate([(mid + half * x2).ravel(), (mid + half * x1).ravel()])
    fine = np.zeros(v.size)
    coarse = np.zeros(v.size)
    fine[:n2] = (half * w2).ravel()
    coarse[n2:] = (half * w1).ravel()
    return v, fine, coarse


def rule_sum(f, fine, coarse) -> Quadrature:
    """The log_rule integral of node values f (last axis) with its error estimate.

    The estimate is the difference of the two orders plus a rounding
    allowance of _ROUNDING times the integral of |f|.
    """
    # elementwise sums, not BLAS products, which may spread one sum over threads
    return Quadrature((f * fine).sum(-1), np.abs((f * (fine - coarse)).sum(-1))
                      + _ROUNDING * (np.abs(f) * fine).sum(-1))


def _cut_crossings(spec: wts.WeightSpec, bset: bnd.BoundarySet, sign: float,
                   kinks: np.ndarray, floor: float) -> np.ndarray:
    """Angles floor <= |theta| <= pi where gamma + dist reaches the pure cut, where Lambda' jumps.

    There gamma = theta^2 Lambda(cut), so they are the roots of
    phi(theta) = dist + theta^2 Lambda(cut) - cut; between consecutive
    kinks of dist phi is monotone, and every bracket with a sign change is
    bisected.  dist < |theta| (1 is in E), so phi < 0 below the root t0 of
    theta + theta^2 Lambda(cut) = cut, and only the kinks above t0 bracket.
    """
    cut, lam_cut = spec.pure_cut, float(wts.eval_lambda(spec, spec.pure_cut))

    def phi(t):
        return bnd.distance_to_set(bset, np.exp(1j * sign * t)) + t * t * lam_cut - cut

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


def panel_edges(weight: wts.WeightSpec, bset: bnd.BoundarySet, sign: float,
                v_lo: float, v_hi: float, breaks=()):
    """Panel edges in v = log(1/|theta|) over [v_lo, v_hi] for the angles of one sign.

    Uniform panels at most _PANEL_WIDTH wide, the given breaks, the kinks
    of theta -> dist(e^{i theta}, E) on that side (the first in each cell of
    width _KINK_SPACING in v: deep point sequences have thousands), and every
    angle where gamma + dist crosses the pure cut of Lambda.  A set whose
    kinks raise CapacityError (a deep Cantor set) gets no kink breaks.  The
    rule's error estimate shows what either leaves unresolved.
    """
    try:
        kinks = bnd.kink_angles(bset, math.exp(-v_hi))
    except CapacityError:
        kinks = np.empty(0)
    kinks = np.abs(kinks[np.sign(kinks) == sign])
    v_kinks = -np.log(kinks)
    v_kinks = v_kinks[np.unique(np.floor(v_kinks / _KINK_SPACING), return_index=True)[1]]
    crossings = _cut_crossings(weight, bset, sign, kinks, math.exp(-v_hi))
    inner = np.concatenate([v_kinks, -np.log(crossings), np.asarray(breaks, dtype=float)])
    uniform = np.linspace(v_lo, v_hi, max(1, math.ceil((v_hi - v_lo) / _PANEL_WIDTH)) + 1)
    return np.concatenate([uniform, inner[(v_lo < inner) & (inner < v_hi)]])


def gamma_criterion_partial(
    weight: wts.WeightSpec,
    bset: bnd.BoundarySet,
    eps,
    upper: float,
) -> Quadrature:
    """Integral of gamma(theta)/theta^2 over [eps, upper], one per eps if eps is an array.

    Integrated in v = log(1/theta) (the natural scale; eps may be e^-600),
    where the integrand is gamma/theta, by log_rule on panel_edges with a
    break at every log(1/eps); the error estimate compares the two orders.
    """
    eps_a, upper = np.asarray(eps, dtype=float), float(upper)
    if not (np.all(0.0 < eps_a) and np.all(eps_a < upper)):
        raise UsageError("need 0 < eps < upper")
    if upper > weight.pure_cut * (1.0 + 1e-12):
        raise UsageError(f"upper must not exceed the pure region edge {weight.pure_cut!r}")
    v_eps = -np.log(eps_a)
    edges = panel_edges(weight, bset, 1.0, -math.log(upper), float(v_eps.max()), v_eps.ravel())
    v, fine, coarse = log_rule(edges)
    f = solve_gamma_array(weight, bset, np.exp(-v)).gamma * np.exp(v)
    return rule_sum(np.where(v < v_eps[..., None], f, 0.0), fine, coarse)
