"""Privalov-shadow outer comparisons and the outer witness.

The singular inner function S(z) = exp(-(1+z)/(1-z)) has |S(z)| =
exp(-(1-|z|^2)/|1-z|^2).  For lambda in the disc, the Privalov shadow is the
boundary arc of length 1-|lambda| centered at the radial projection of
lambda; the shadow outer function f = exp(log_f_lambda) built from the
Herglotz integral over the shadow is normalized (via the constant c_lambda)
so that |f(lambda) S(lambda)| = 1.

Boundary-arc integrals use the closed-form antiderivative of the Herglotz
kernel,

    int (e^{it}+z)/(e^{it}-z) dt  =  [-t - 2i Log(e^{it}-z)],

on arrays of z off the arc, inside or outside the circle, over arcs up to
2 pi long; the branch of Log is fixed by the sign of the Poisson integral
(the test suite checks it against 30-digit mpmath and adaptive quadrature).

The comparison function

    H_lambda(z) = c_lambda (1-|l|^2)/|1-l|^2 * P(z; shadow)
                  - (1-|z|^2)/|1-z|^2 - Lambda(dist(z, E))

ties the weighted norm of f S to a sign analysis; grids restricted to
the region where (1-|l|^2)/|1-l|^2 <= a Lambda(A dist(lambda, E)) are checked
case by case in the tests.

The outer witness for the convergent-criterion case has boundary modulus
log|F(e^{i theta})| = amplitude * gamma(theta)/theta^2; by linearity the
smallest dyadic amplitude making |F| dominate exp((1-|w|^2)/|1-w|^2 +
Lambda(dist(w, E))) on boundary samples is found from a single Poisson
integral per sample point.  All samples share one fixed-node rule in
log(1/|theta|) (geometry.log_rule) down to |theta| ~ 1e-290, with an error
estimate and, where the weight and set allow one, a bound on what lies
deeper.  The search divides by the integral less its error estimate.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import boundary as bnd
from . import criterion as crit
from . import geometry as geo
from . import weights as wts
from .errors import DomainError, NumericError, UsageError

_EXP_CAP = 700.0  # exp overflow guard
_GUARD_CHECKPOINTS = 12  # cutoffs of the convergence guard
_GUARD_U_MAX = 300.0  # deepest log(1/theta) the convergence guard integrates to
_WITNESS_U = float(math.floor(-math.log(bnd._ENUM_FLOOR)))  # 667: the witness rule's deepest log(1/|theta|)
_LOG_GAMMA_FLOOR = float(math.floor(-math.log(geo._GAMMA_FLOOR)))  # 690: the gamma solver's lower bracket


# ---------------------------------------------------------------------------
# the Privalov shadow


def herglotz_arc_integral(z, lo: float, hi: float):
    """Integral of (e^{it}+z)/(e^{it}-z) dt over [lo, hi], 0 < hi - lo <= 2 pi, in closed form.

    z is any point off the closed arc, inside or outside the circle; an array
    of z gives an array, a scalar a complex.  With the antiderivative
    -t - 2i Log(e^{it}-z) the imaginary part telescopes to -2 log|ratio|,
    ratio = (e^{i hi}-z)/(e^{i lo}-z).  d/dt arg(e^{it}-z) = (1+P)/2 for the
    Poisson kernel P, whose arc integral lies in (0, 2 pi) for |z| < 1 and in
    (-2 pi, 0) for |z| > 1, so the rise of the argument lies within pi/2 of
    m = (hi-lo)/2 + sign(1-|z|) pi/2; it is the value of arg(ratio) + 2 pi k
    nearest m.
    """
    if not 0.0 < hi - lo <= 2.0 * math.pi:
        raise UsageError("need 0 < hi - lo <= 2 pi")
    zs = np.asarray(z, dtype=complex)
    ea, eb = cmath.exp(1j * lo) - zs, cmath.exp(1j * hi) - zs
    on_arc = (np.abs(zs) == 1.0) & (np.mod(np.angle(zs) - lo, 2.0 * math.pi) <= hi - lo)
    if np.count_nonzero((ea == 0.0) | (eb == 0.0) | on_arc):
        raise DomainError("z lies on the arc")
    ratio = eb / ea
    arg = np.angle(ratio)
    m = 0.5 * (hi - lo) + np.sign(1.0 - np.abs(zs)) * (0.5 * math.pi)
    rise = arg + 2.0 * math.pi * np.round((m - arg) / (2.0 * math.pi))
    out = (2.0 * rise - (hi - lo)) - 2j * np.log(np.abs(ratio))
    return complex(out) if out.ndim == 0 else out


def c_lambda(lam: complex) -> float:
    """Normalizing constant with 1/c = Poisson integral over the shadow at lambda.

    Closed form: 1/c = 4 arctan( (1+r)/(1-r) * tan((1-r)/4) ), r = |lambda|;
    a geometric argument gives 1/c >= 4/5.
    """
    lam = complex(lam)
    r = abs(lam)
    if not (0.0 < r < 1.0):
        raise DomainError("c_lambda needs 0 < |lambda| < 1")
    inv = 4.0 * math.atan((1.0 + r) / (1.0 - r) * math.tan(0.25 * (1.0 - r)))
    return 1.0 / inv


def log_f_lambda(lam: complex, z):
    """log f(z): Herglotz integral over the shadow, scaled by c_lambda.

    The shadow is the arc phase(lambda) -/+ h, h = (1-|lambda|)/2; z's
    distance to it is that of z e^{-i phase(lambda)} to the arc set [-h, h].
    z may be an array of points for the one lambda; a scalar z gives a complex.
    """
    lam = complex(lam)
    zs = np.asarray(z, dtype=complex)
    if np.count_nonzero(np.abs(zs) >= 1.0):
        raise DomainError("log_f_lambda needs |z| < 1")
    c = c_lambda(lam)  # refuses all but 0 < |lambda| < 1
    phase, h = cmath.phase(lam), 0.5 * (1.0 - abs(lam))
    shadow = bnd.BoundarySet("arc", a=-h, b=h)  # the shadow turned to phase 0
    if np.count_nonzero(bnd.distance_to_set(shadow, zs * cmath.exp(-1j * phase)) < 1e-12):
        raise NumericError("z is within 1e-12 of the shadow arc")
    ratio = (1.0 - abs(lam) ** 2) / abs(1.0 - lam) ** 2
    return c * ratio * herglotz_arc_integral(zs, phase - h, phase + h)


def h_lambda(weight: wts.WeightSpec, bset: bnd.BoundarySet, lam: complex, z):
    """Comparison function H_lambda(z); satisfies
    |f(z) S(z)| exp(-Lambda(dist(z,E))) = exp(H_lambda(z)).

    z may be an array of points for the one lambda; a scalar z gives a float.
    """
    zs = np.asarray(z, dtype=complex)
    p_term = log_f_lambda(lam, zs).real  # refuses |z| >= 1
    ratio_z = (1.0 - np.abs(zs) ** 2) / np.abs(1.0 - zs) ** 2
    lam_term = wts.eval_lambda(weight, np.minimum(bnd.distance_to_set(bset, zs), 2.0))
    h = p_term - ratio_z - lam_term
    return float(h) if h.ndim == 0 else h


# ---------------------------------------------------------------------------
# comparison regions


@dataclass(frozen=True)
class GammaRegionSpec:
    """Region where (1-|l|^2)/|1-l|^2 <= a Lambda(A dist(lambda, E))."""

    weight: wts.WeightSpec
    bset: bnd.BoundarySet
    a: float = 2.0 / (5.0 * math.pi)
    A: float | None = None

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise DomainError("a must be positive")
        if self.A is not None and self.A < 1.0:
            raise DomainError("A must be >= 1")

    @property
    def big_a(self) -> float:
        if self.A is not None:
            return float(self.A)
        return 1000.0 if self.bset.kind == "full" else 100.0


def in_gamma_region(spec: GammaRegionSpec, lam):
    """Membership predicate; Lambda's argument is clamped at 2 (totality).

    lam may be an array; a scalar lam gives a bool.
    """
    lams = np.asarray(lam, dtype=complex)
    if np.count_nonzero(np.abs(lams) >= 1.0):
        raise DomainError("membership needs |lambda| < 1")
    lhs = (1.0 - np.abs(lams) ** 2) / np.abs(1.0 - lams) ** 2
    d = bnd.distance_to_set(spec.bset, lams)
    inside = lhs <= spec.a * wts.eval_lambda(spec.weight, np.minimum(spec.big_a * d, 2.0))
    return bool(inside) if inside.ndim == 0 else inside


def case_tag(spec: GammaRegionSpec, lam: complex, z):
    """Which case of the sign analysis a (lambda, z) pair falls into.

    z may be an array of points for the one lambda; a scalar z gives a str.
    """
    zs = np.asarray(z, dtype=complex)
    near = spec.big_a * bnd.distance_to_set(spec.bset, lam) >= bnd.distance_to_set(spec.bset, zs)
    far = np.abs(1.0 - zs) >= 6.0 * abs(1.0 - complex(lam))
    tag = np.where(near, "case1", np.where(far, "case2", "case3"))
    return str(tag) if tag.ndim == 0 else tag


# ---------------------------------------------------------------------------
# outer witness for the convergent case


@functools.lru_cache(maxsize=64)
def gamma_integral_is_convergent(weight: wts.WeightSpec, bset: bnd.BoundarySet) -> bool:
    """Whether the criterion integral of gamma(theta)/theta^2 converges.

    The partial integrals from _GUARD_CHECKPOINTS cutoffs, geometric in
    u = log(1/theta) from just inside the pure cut down to u = _GUARD_U_MAX,
    come from one gamma_criterion_partial rule (sums over node subsets);
    only a "convergent" verdict of divergence_verdict (the criterion's own
    estimator) passes.  The verdict depends on the pair alone and is cached.
    """
    upper = weight.pure_cut * 0.9
    u0 = math.log(1.0 / upper)
    k = np.arange(1, _GUARD_CHECKPOINTS + 1)
    eps = np.exp(-u0 * (_GUARD_U_MAX / u0) ** (k / _GUARD_CHECKPOINTS))
    partials = geo.gamma_criterion_partial(weight, bset, eps, upper).value
    return crit.divergence_verdict(partials, eps).verdict == "convergent"


def keldysh_log_boundary(weight: wts.WeightSpec, bset: bnd.BoundarySet, thetas) -> np.ndarray:
    """Boundary data gamma(theta)/theta^2 of the unit-amplitude witness, per theta.

    The weight is first rescaled so Lambda(1) < 1/10 (the smallness
    normalization the domain construction assumes; gamma then exists for
    every theta up to pi, and all divergence criteria are scale-robust).
    """
    sol = geo.solve_gamma_array(geo.normalized_for_lambda1(weight), bset, thetas)
    th = np.abs(sol.theta)
    return sol.gamma / th / th  # theta^2 itself may underflow


def _witness_depth(spec: wts.WeightSpec) -> float:
    """Deepest u = log(1/|theta|) of the witness rule: _WITNESS_U, or less.

    Every set has dist <= |theta| and gamma <= |theta| there, so
    gamma >= theta^2 Lambda(2|theta|) = |theta| s / (2 (u - log 2)^a); the
    depth stops where that bound meets the solver's floor gamma = 1e-300.
    """
    u = _WITNESS_U
    for _ in range(8):  # a contraction: the step shrinks by a/u
        u = min(_WITNESS_U, _LOG_GAMMA_FLOOR + math.log(0.5 * spec.scale)
                - spec.log_exponent * math.log(u - math.log(2.0)))
    return u


def _witness_tail(spec: wts.WeightSpec, bset: bnd.BoundarySet, depth: float) -> float:
    """Bound on the integral of gamma/|theta| over u = log(1/|theta|) > depth, one side.

    gamma = theta^2 Lambda(gamma + d) <= theta^2 Lambda(gamma) gives
    gamma/|theta| <= sqrt(s) u^(-a/2) on every set; on the point set
    d >= c|theta| with c = 2/pi also gives gamma/|theta| <= (s/c)(u - log c)^(-a).
    Where neither is integrable the bound is inf.
    """
    s, a = spec.scale, spec.log_exponent
    bounds = [math.inf]
    if a > 2.0:
        bounds.append(math.sqrt(s) * depth ** (1.0 - 0.5 * a) / (0.5 * a - 1.0))
    if bset.kind == "point" and a > 1.0:
        c = 2.0 / math.pi
        bounds.append(s / c * (depth - math.log(c)) ** (1.0 - a) / (a - 1.0))
    return min(bounds)


class WitnessIntegral(NamedTuple):
    """Witness integrals at each sample, with the rule's error estimate and
    a bound on the Poisson integral beyond the rule's depth (inf if none is known)."""

    value: np.ndarray
    error: np.ndarray
    tail: np.ndarray


def _witness_poisson(weight: wts.WeightSpec, bset: bnd.BoundarySet, ws,
                     herglotz: bool = False) -> WitnessIntegral:
    """Poisson (or Herglotz) integrals of the unit-amplitude boundary data at each w.

    The weight is the normalized one (geometry.normalized_for_lambda1) that
    both witness entries build once and their guard takes.  One composite
    Gauss-Legendre rule in v = log(1/|theta|) per side of the circle serves
    every w: geometry.panel_edges (uniform panels, kinks, pure-cut
    crossings) plus panels graded by powers of 2 in delta = 1 - |w| around
    each w's angle, from
    |theta| = pi down to |theta| = e^-depth (about 1e-290), all solved in
    one array call.  The value stops at that depth: data and Poisson kernel
    are >= 0, so stopping only lowers it.  The error estimate is the
    difference of the two rule orders on the Poisson part; the tail bounds
    the Poisson part beyond the depth.
    """
    ws = np.atleast_1d(np.asarray(ws, dtype=complex))
    modulus = np.hypot(ws.real, ws.imag)  # numpy's abs may be an ulp off, and 1 - |w|^2 cancels
    if np.any(modulus >= 1.0):
        raise DomainError("witness evaluation needs |w| < 1")
    depth = _witness_depth(weight)
    tail = _witness_tail(weight, bset, depth)
    theta_w, delta = np.abs(np.angle(ws)), 1.0 - modulus
    count = np.ceil(np.log2(2.0 * math.pi / delta))  # steps delta * 2^k, k = -2 .. count - 1, per side
    power = np.arange(-2.0, count.max())
    steps = np.where(power < count[:, None], delta[:, None] * 2.0 ** power, math.nan)
    near = np.concatenate((theta_w[:, None], theta_w[:, None] + steps, theta_w[:, None] - steps), axis=1)
    breaks = -np.log(near[(0.0 < near) & (near < math.pi)])  # NaN fails both tests
    v_lo = math.log(1.0 / math.pi)
    pos, neg = (geo.log_rule(geo.panel_edges(weight, bset, sign, v_lo, depth, breaks)) for sign in (1.0, -1.0))
    theta = np.concatenate([np.exp(-pos[0]), -np.exp(-neg[0])])
    fine, coarse = (np.concatenate([pos[k], neg[k]]) for k in (1, 2))
    data = keldysh_log_boundary(weight, bset, theta) * np.abs(theta)
    e, top = np.exp(1j * theta), 1.0 - modulus ** 2  # top: the kernels' 1 - |w|^2
    value, error = [], []
    for w, t in zip(ws, top):
        poisson = geo.rule_sum(t / np.abs(e - w) ** 2 * data, fine, coarse)
        value.append(((e + w) / (e - w) * data * fine).sum() if herglotz else poisson.value)
        error.append(poisson.error)
    beyond = 2.0 * top / (np.hypot((1.0 - ws).real, (1.0 - ws).imag) - math.exp(-depth)) ** 2 * tail
    return WitnessIntegral(*(np.array(x) / (2.0 * math.pi) for x in (value, error, beyond)))


def keldysh_outer(weight: wts.WeightSpec, bset: bnd.BoundarySet, amplitude: float,
                  w: complex) -> complex:
    """Outer function with boundary modulus exp(amplitude * gamma(theta)/theta^2).

    Requires the criterion integral of the normalized weight to converge
    (see gamma_integral_is_convergent); the boundary data is then integrable
    and the Herglotz integral defines an outer function.
    """
    if amplitude < 0.0:
        raise DomainError("amplitude must be nonnegative")
    if amplitude == 0.0:
        return complex(1.0, 0.0)
    weight = geo.normalized_for_lambda1(weight)
    if not gamma_integral_is_convergent(weight, bset):
        raise DomainError("criterion integral diverges; no outer witness exists")
    lf = amplitude * complex(_witness_poisson(weight, bset, [w], herglotz=True).value[0])
    if lf.real > _EXP_CAP:
        raise NumericError("witness magnitude overflows at this amplitude")
    return cmath.exp(lf)


def witness_amplitude_search(weight: wts.WeightSpec, bset: bnd.BoundarySet,
                             thetas, max_power: int = 10) -> int:
    """Smallest dyadic amplitude dominating the required boundary growth.

    The weight is normalized first (geometry.normalized_for_lambda1); the
    guard, gamma and the witness all take that weight.  At each sampled
    boundary point w = (1 - gamma) e^{i theta} the witness must satisfy
    log|F(w)| > (1-|w|^2)/|1-w|^2 + Lambda(dist(w, E)).  log|F|
    is linear in the amplitude, so one Poisson integral per sample suffices;
    one rule serves all samples.  The search divides by the integral less
    its rule error estimate; stopping the rule at its depth only lowers it.
    """
    weight = geo.normalized_for_lambda1(weight)
    if not gamma_integral_is_convergent(weight, bset):
        raise DomainError("criterion integral diverges; no outer witness exists")
    sol = geo.solve_gamma_array(weight, bset, thetas)
    ws = (1.0 - sol.gamma) * np.exp(1j * sol.theta)
    poisson = _witness_poisson(weight, bset, ws)
    base = poisson.value - poisson.error
    if np.any(base <= 0.0):
        raise NumericError("witness Poisson integral is not positive")
    d = bnd.distance_to_set(bset, ws)
    rhs = (1.0 - np.abs(ws) ** 2) / np.abs(1.0 - ws) ** 2 + wts.eval_lambda(weight, np.minimum(d, 2.0))
    need = max(1.0, float(np.max(rhs / base)))
    power = max(0, int(math.ceil(math.log2(need * (1.0 + 1e-12)))))
    if power > max_power:
        raise NumericError(f"no amplitude up to 2^{max_power} dominates the boundary growth")
    return 1 << power
