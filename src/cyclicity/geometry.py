"""Implicit domain boundaries and the half-plane coordinate transfer.

The star-shaped domain attached to a weight Lambda and a boundary set E has
boundary radius 1 - gamma(theta), where gamma solves

    gamma = theta^2 * Lambda(gamma + dist(e^{i theta}, E)).

g(gamma) = gamma - theta^2 Lambda(gamma + d) is strictly increasing (Lambda
is decreasing), so the root is unique; it is found by Chandrupatla's method
(inverse quadratic interpolation safeguarded by bisection) in x = log gamma,
with u = log(1/|theta|) in place of theta^2 (gamma may be as small as
1e-300, where g is hopeless to evaluate in linear space).  The bracket comes
from one fixed-point step: in x the equation reads x = T(x) with T
decreasing, so x and T(x) lie on opposite sides of the root, and two
evaluations from the guess gamma + d = |theta| bracket it tightly, or
land on it exactly.  Where they do neither, the bracket falls back to
[1e-300, 1 - 1e-12], whose ends decide the refusals.  The root-finder runs on arrays of angles,
freezing each as it converges; solve_gamma is its one-angle case.  Every
solution carries a residual certificate.

Integrals of gamma-dependent data over theta use one fixed-node rule:
composite Gauss-Legendre in v = log(1/|theta|) at 20 and 10 points per
panel on the same panels (uniform, plus breaks at the kinks of the distance
to E, at the angles where gamma + dist crosses Lambda's pure cut, and at
any caller's breaks).  All nodes are solved in one array call; the value is
the 20-point sum and the error estimate the difference of the two plus a
rounding allowance.  gamma_criterion_partial integrates gamma/theta^2 this
way, for one cutoff or many.

to_halfplane gives points w the coordinates (R, phi) with
1 - w = e^{i phi} / R.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import boundary as bnd
from . import weights as wts
from .errors import DomainError, NumericError, UsageError

_GAMMA_FLOOR = 1e-300
_THETA_FLOOR = 1e-300  # below this theta itself is not representable
_RESIDUAL_REL = 1e-12
_MAX_STEPS = 200  # root-finder steps; about 10 are needed
_BLOCK = 4096  # angles solved together; bounds the solver's working memory
_RULE_ORDER = 20  # Gauss-Legendre points per panel; the error estimate uses half as many
_ROUNDING = 50.0 * np.finfo(float).eps  # relative rounding allowance of a rule sum
_PANEL_WIDTH = 8.0  # widest uniform panel, in v = log(1/theta) or, for phragmen.sigma, v = log r
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
    R: float  # R and phi are arrays for array input
    phi: float


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


def increasing_root(f, lo, hi, f_lo, f_hi, *args):
    """Root of an increasing f(x, *args) in each bracket [lo, hi], elementwise (1-d arrays).

    Needs f(lo) < 0 <= f(hi); args are arrays shaped like lo.  Chandrupatla's
    method (Adv. Eng. Software 28, 1997): each step evaluates f at one point
    of the bracket, found by inverse quadratic interpolation through the
    bracket's ends and the end it last dropped where that interpolant is
    monotone, by bisection elsewhere, and never nearer an end than half the
    tolerance (over half an ulp of x, so every step moves).  The bracket keeps f < 0
    at its lower end and f >= 0 at its upper; an element stops when the
    bracket is at most 1e-14 + 4e-16 |lower end| wide, returns its midpoint,
    and is frozen.  No brackets give an empty array.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi  # a is the newest point, b the bracket's other end
    t = np.full(lo.shape, 0.5)
    root = np.empty(lo.shape)
    idx = np.arange(lo.size)
    for _ in range(_MAX_STEPS):
        if not idx.size:
            return root
        x = a + t * (b - a)
        fx = f(x, *args)
        # c is the end just dropped; it lies beyond a, on a's side of the root
        same = (fx < 0.0) == (fa < 0.0)
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(same, b, a), np.where(same, fb, fa)
        a, fa = x, fx
        width = np.abs(b - a)
        tol = 1e-14 + 4e-16 * np.abs(np.minimum(a, b))
        done = width <= tol
        if np.count_nonzero(done):
            root[idx[done]] = 0.5 * (a[done] + b[done])
            keep = ~done
            idx, a, fa, b, fb, c, fc, width, tol = (
                v[keep] for v in (idx, a, fa, b, fb, c, fc, width, tol))
            args = tuple(v[keep] for v in args)
        # the inverse quadratic through (f, x) at a, b, c is monotone on the
        # bracket where Chandrupatla's test iqi holds; t is where it meets 0
        xi, df_ab, df_cb = (a - b) / (c - b), fa - fb, fc - fb
        phi = df_ab / df_cb
        iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        with np.errstate(divide="ignore", invalid="ignore"):  # fc == fa only where iqi is false
            t = np.where(iqi, fa / df_cb * (fc / df_ab + (1.0 - 1.0 / xi) * fb / (df_cb - df_ab)), 0.5)
        t_min = 0.5 * tol / width
        t = np.minimum(np.maximum(t, t_min), 1.0 - t_min)
    raise NumericError("root-finder did not converge within the step cap")


def _gamma_equation(spec: wts.WeightSpec, x, u, d):
    """h(x) = x + 2u - log Lambda(e^x + d): the sign of gamma - theta^2 Lambda(gamma + d), gamma = e^x."""
    return x + 2.0 * u - np.log(wts.eval_lambda(spec, np.minimum(np.exp(x) + d, 2.0)))


def _log_gamma(spec: wts.WeightSpec, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x = log gamma of gamma = e^(-2u) Lambda(gamma + d), elementwise (1-d arrays).

    _gamma_equation is h(x) = x - T(x) with T(x) = log Lambda(min(e^x + d, 2))
    - 2u decreasing, so x and T(x) lie on opposite sides of the root.  The
    bracket starts from x0 = log Lambda(min(|theta|, 2)) - 2u, T where
    gamma + d = |theta| (1 is in E, so d <= |theta|), and x1 = x0 - h(x0),
    both clamped to [log 1e-300, log(1 - 1e-12)].  Where h(x1) == 0 strictly
    inside those ends, x1 is the root and is returned as it is: x1 == x0
    where h(x0) == 0, as for const_w on the full circle and wherever
    Lambda's argument is held at 2.  Elsewhere, where the pair does not
    strictly bracket, that side falls back to its global end, whose sign
    decides the refusals as if the whole bracket had been evaluated; that
    happens at a clamped end and where rounding leaves h(x1) on the side of
    h(x0).
    increasing_root then narrows the bracket to at most 1e-14 + 4e-16
    |log gamma|; converged elements are frozen.
    """
    h = functools.partial(_gamma_equation, spec)
    ends = (math.log(_GAMMA_FLOOR), math.log(1.0 - 1e-12))
    x0 = np.clip(np.log(wts.eval_lambda(spec, np.minimum(np.exp(-u), 2.0))) - 2.0 * u, *ends)
    h0 = h(x0, u, d)
    root = np.clip(x0 - h0, *ends)
    h1 = h(root, u, d)
    rest = ~((h1 == 0.0) & (ends[0] < root) & (root < ends[1]))
    x0, h0, x1, h1, u, d = (v[rest] for v in (x0, h0, root, h1, u, d))
    swap = x1 < x0
    lo, h_lo = np.where(swap, x1, x0), np.where(swap, h1, h0)
    hi, h_hi = np.where(swap, x0, x1), np.where(swap, h0, h1)
    for x, hx, bad, end in ((lo, h_lo, ~(h_lo < 0.0), ends[0]), (hi, h_hi, ~(h_hi > 0.0), ends[1])):
        if np.count_nonzero(bad):
            x[bad] = end
            hx[bad] = h(x[bad], u[bad], d[bad])
    if np.any(h_lo >= 0.0):
        raise NumericError("lower bracket failed; weight is not admissible at this theta")
    if np.any(h_hi <= 0.0):
        raise NumericError(
            "no root with gamma < 1; Lambda is too large at scale 1 "
            "(solve for normalized_for_lambda1(weight) or restrict to smaller |theta|)"
        )
    root[rest] = increasing_root(h, lo, hi, h_lo, h_hi, u, d)
    return root


def _residual(spec: wts.WeightSpec, x, u, d):
    """|gamma - theta^2 Lambda(gamma + d)| = gamma |1 - exp(-_gamma_equation)|, underflow-safe."""
    gamma = np.exp(x)
    residual = gamma * np.abs(1.0 - np.exp(-_gamma_equation(spec, x, u, d)))
    bad = ~(residual <= _RESIDUAL_REL * np.maximum(gamma, _GAMMA_FLOOR))  # a NaN residual fails
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise NumericError(f"residual certificate failed: {residual[i]!r} at gamma={gamma[i]!r}")
    return gamma, residual


def solve_gamma_array(weight: wts.WeightSpec, bset: bnd.BoundarySet, thetas) -> GammaSolution:
    """Solve gamma = theta^2 Lambda(gamma + dist(e^{i theta}, E)) on (0, 1) for each theta.

    Worked in u = log(1/|theta|) and x = log gamma, so theta^2 is never
    formed.  Returns a GammaSolution of arrays shaped like thetas; every
    element carries its residual certificate.
    """
    theta = np.asarray(thetas, dtype=float)
    if not np.isfinite(theta).all():
        raise DomainError("theta must be finite")
    if np.any(theta == 0.0):
        raise DomainError("theta must be nonzero")
    if np.any(np.abs(theta) > math.pi):
        raise DomainError("theta must lie in [-pi, pi]")
    if np.any(np.abs(theta) < _THETA_FLOOR):
        raise DomainError(f"|theta| below the representable floor {_THETA_FLOOR}")
    flat = theta.ravel()
    gamma, residual, d = np.empty(flat.size), np.empty(flat.size), np.empty(flat.size)
    for k in range(0, flat.size, _BLOCK):
        block = slice(k, k + _BLOCK)
        t = flat[block]
        d[block] = bnd.distance_to_set(bset, np.exp(1j * t))
        u = -np.log(np.abs(t))
        gamma[block], residual[block] = _residual(weight, _log_gamma(weight, u, d[block]), u, d[block])
    shape = theta.shape
    return GammaSolution(theta=theta, gamma=gamma.reshape(shape), residual=residual.reshape(shape),
                         dist_at_theta=d.reshape(shape))


def solve_gamma(weight: wts.WeightSpec, bset: bnd.BoundarySet, theta: float) -> GammaSolution:
    """Solve gamma = theta^2 Lambda(gamma + dist(e^{i theta}, E)) on (0, 1)."""
    sol = solve_gamma_array(weight, bset, float(theta))
    return GammaSolution(*(float(f) for f in (sol.theta, sol.gamma, sol.residual, sol.dist_at_theta)))


def to_halfplane(w) -> HalfplaneCoords:
    """Coordinates (R, phi) with 1 - w = e^{i phi} / R; w may be an array, and a scalar gives floats.

    R is 1/hypot(Re, Im) of 1 - w: Python's abs, where numpy's may be an ulp off."""
    one_minus = 1.0 - np.asarray(w, dtype=complex)
    if np.count_nonzero(one_minus == 0.0):
        raise DomainError("w = 1 has no half-plane image")
    big_r, phi = 1.0 / np.hypot(one_minus.real, one_minus.imag), np.arctan2(one_minus.imag, one_minus.real)
    return HalfplaneCoords(float(big_r), float(phi)) if phi.ndim == 0 else HalfplaneCoords(big_r, phi)


# the positive Gauss-Legendre nodes on [-1, 1] and their weights, ascending,
# for the two orders log_rule uses: the bits of numpy.polynomial.legendre.
# leggauss, whose rule is symmetric.  Literal tables spare every process that
# module's import and eigvalsh call
_GAUSS_HALF = {
    20: (("0x1.3973df98b86b0p-4", "0x1.d281636928bc0p-3", "0x1.7eaccf15652c4p-2", "0x1.05905c13f7ff7p-1",
          "0x1.45a8d3fa710dbp-1", "0x1.7e1f37346a54ep-1", "0x1.ada0bd5efd6e7p-1", "0x1.d31064173fd92p-1",
          "0x1.ed8dba7bd769fp-1", "0x1.fc7b5a0c71ce1p-1"),
         ("0x1.38d6c490a3380p-3", "0x1.31819b52c59a4p-3", "0x1.230348f34a542p-3", "0x1.0db2c5db26e08p-3",
          "0x1.e41ff31573b56p-4", "0x1.a1817a317a834p-4", "0x1.5519fe196e247p-4", "0x1.00b467df7e461p-4",
          "0x1.4c9b5ea53b638p-5", "0x1.209680274e74ep-6")),
    10: (("0x1.30e507891e27ap-3", "0x1.bbcc009016adcp-2", "0x1.5bdb9228de198p-1", "0x1.bae995e9cb2f3p-1",
          "0x1.f2a3e062af2d8p-1"),
         ("0x1.2e9de7014d6eep-2", "0x1.13baa7a559c01p-2", "0x1.c0b059d00bc30p-3", "0x1.32138c878efdep-3",
          "0x1.1115f8b62dc1fp-4")),
}


@functools.cache
def _gauss(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], for n in _GAUSS_HALF."""
    x, w = (np.array([float.fromhex(h) for h in half]) for half in _GAUSS_HALF[n])
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def log_rule(edges):
    """Composite Gauss-Legendre rules of two orders on the panels between edges.

    Returns the nodes v of both rules and, on all nodes, the weights of the
    order-_RULE_ORDER rule and of the half-order rule (each zero on the
    other's nodes): sum(f(v) * fine) is the integral, and the same sum
    with fine - coarse gives its error estimate (see rule_sum).
    """
    e = bnd.first_of_runs(np.sort(np.asarray(edges, dtype=float)))
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
    """v = log(1/|theta|) where gamma + dist reaches the pure cut (Lambda' jumps), floor <= |theta| <= pi.

    There gamma = theta^2 Lambda(cut), so these are the roots of
    phi(theta) = dist + theta^2 Lambda(cut) - cut; between consecutive
    kinks of dist phi is monotone, and increasing_root solves each bracket
    with a sign change in v (in theta its absolute tolerance is coarse beside
    a small cut), oriented by the sign of phi at its lower end.  dist < |theta|
    (1 is in E), so phi < 0 below the root t0 of theta + theta^2 Lambda(cut)
    = cut, and only the kinks above t0 bracket.  kinks are those of
    boundary.kink_angles on this side: ascending, without repeats, below pi.
    """
    cut, lam_cut = spec.pure_cut, float(wts.eval_lambda(spec, spec.pure_cut))

    def phi(t):
        return bnd.distance_to_set(bset, np.exp(1j * sign * t)) + t * t * lam_cut - cut

    t0 = min(math.pi, max(floor, 2.0 * cut / (1.0 + math.sqrt(1.0 + 4.0 * lam_cut * cut))))
    ends = np.concatenate(([t0], kinks[kinks > t0], [math.pi]))
    f = phi(ends)
    k = np.flatnonzero((f[:-1] < 0.0) != (f[1:] < 0.0))
    orient = np.where(f[k + 1] < 0.0, 1.0, -1.0)  # ends[k + 1] is the lower end in v
    return increasing_root(lambda v, o: o * phi(np.exp(-v)), -np.log(ends[k + 1]),
                           -np.log(ends[k]), orient * f[k + 1], orient * f[k], orient)


def uniform_panels(lo: float, hi: float) -> np.ndarray:
    """Edges of the fewest equal panels at most _PANEL_WIDTH wide over [lo, hi]."""
    return np.linspace(lo, hi, max(1, math.ceil((hi - lo) / _PANEL_WIDTH)) + 1)


def panel_edges(weight: wts.WeightSpec, bset: bnd.BoundarySet, sign: float,
                v_lo: float, v_hi: float, breaks=()):
    """Panel edges in v = log(1/|theta|) over [v_lo, v_hi] for the angles of one sign.

    Uniform panels at most _PANEL_WIDTH wide, the given breaks, the kinks
    of theta -> dist(e^{i theta}, E) on that side (the deepest in each cell
    of width _KINK_SPACING in v: deep point sequences have thousands), and
    every angle where gamma + dist crosses the pure cut of Lambda.  Which
    kinks exist down to which depth is boundary.kink_angles' to say (a
    deep Cantor set has none listed); the rule's error estimate shows what
    the breaks leave unresolved.
    """
    kinks = bnd.kink_angles(bset, math.exp(-v_hi), sign)
    v_kinks = -np.log(kinks)  # descending, so each cell's first is its deepest
    v_kinks = bnd.first_of_runs(v_kinks, np.floor(v_kinks / _KINK_SPACING))
    crossings = _cut_crossings(weight, bset, sign, kinks, math.exp(-v_hi))
    inner = np.concatenate([v_kinks, crossings, np.asarray(breaks, dtype=float)])
    return np.concatenate([uniform_panels(v_lo, v_hi), inner[(v_lo < inner) & (inner < v_hi)]])


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
