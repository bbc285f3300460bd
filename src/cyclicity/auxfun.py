"""Singular inner function, Privalov-shadow outer comparisons, and the outer witness.

The singular inner function S(z) = exp(-(1+z)/(1-z)) has |S(z)| =
exp(-(1-|z|^2)/|1-z|^2).  For lambda in the disc, the Privalov shadow is the
boundary arc of length 1-|lambda| centered at the radial projection of
lambda; the outer function f_lambda built from the Herglotz integral over the
shadow is normalized (via the constant c_lambda) so that
|f_lambda(lambda) S(lambda)| = 1.

Boundary-arc integrals use the closed-form antiderivative of the Herglotz
kernel,

    int (e^{it}+z)/(e^{it}-z) dt  =  [-t - 2i Log(e^{it}-z)],

tracked along a continuous branch by adaptive subdivision (the test suite
checks it against adaptive quadrature).

The comparison function

    H_lambda(z) = c_lambda (1-|l|^2)/|1-l|^2 * P(z; shadow)
                  - (1-|z|^2)/|1-z|^2 - Lambda(dist(z, E))

ties the weighted norm of f_lambda S to a sign analysis; grids restricted to
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
_WITNESS_U = 667.0  # deepest log(1/|theta|) of the witness rule: theta ~ 2e-290
_LOG_GAMMA_FLOOR = 690.0  # just inside log(1e300): the gamma solver's lower bracket


# ---------------------------------------------------------------------------
# singular inner function and the Privalov shadow


def singular_inner(z: complex) -> complex:
    """S(z) = exp(-(1+z)/(1-z)) on the open unit disc."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("singular_inner needs |z| < 1")
    return cmath.exp(-(1.0 + z) / (1.0 - z))


@dataclass(frozen=True)
class PrivalovShadow:
    """Boundary arc of length 1-|lambda| centered at arg(lambda)."""

    lam: complex

    def __post_init__(self) -> None:
        r = abs(self.lam)
        if not (0.0 < r < 1.0):
            raise DomainError("shadow needs 0 < |lambda| < 1")

    @property
    def center(self) -> float:
        return cmath.phase(self.lam)

    @property
    def half_length(self) -> float:
        return 0.5 * (1.0 - abs(self.lam))

    @property
    def lo(self) -> float:
        return self.center - self.half_length

    @property
    def hi(self) -> float:
        return self.center + self.half_length

    def distance_from(self, z: complex) -> float:
        theta = cmath.phase(z) if z != 0 else 0.0
        if self.lo <= theta <= self.hi:
            return abs(abs(z) - 1.0)
        d_lo = abs(z - cmath.exp(1j * self.lo))
        d_hi = abs(z - cmath.exp(1j * self.hi))
        return min(d_lo, d_hi)


def herglotz_arc_integral(z: complex, lo: float, hi: float) -> complex:
    """Closed-form integral of (e^{it}+z)/(e^{it}-z) dt over [lo, hi].

    The antiderivative branch is kept continuous by splitting the arc until
    each piece turns the argument of e^{it}-z by less than pi/2.
    """
    if hi <= lo:
        raise UsageError("need lo < hi")
    d_arg = 0.0
    d_logmod = 0.0
    stack = [(lo, hi)]
    guard = 0
    while stack:
        a, b = stack.pop()
        ea = cmath.exp(1j * a) - z
        eb = cmath.exp(1j * b) - z
        if ea == 0 or eb == 0:
            raise DomainError("z lies on the arc")
        ratio = eb / ea
        if abs(cmath.phase(ratio)) > math.pi / 2 and b - a > 1e-12:
            mid = 0.5 * (a + b)
            stack.append((a, mid))
            stack.append((mid, b))
            guard += 1
            if guard > 10_000:
                raise NumericError("branch subdivision failed to terminate")
            continue
        d_arg += cmath.phase(ratio)
        d_logmod += math.log(abs(ratio))
    return complex(2.0 * d_arg - (hi - lo), -2.0 * d_logmod)


def poisson_arc_integral(z: complex, lo: float, hi: float) -> float:
    """Integral of the (unnormalized) Poisson kernel (1-|z|^2)/|e^{it}-z|^2 over [lo, hi]."""
    return herglotz_arc_integral(z, lo, hi).real


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


def log_f_lambda(lam: complex, z: complex) -> complex:
    """log f_lambda(z): Herglotz integral over the shadow, scaled by c_lambda."""
    lam = complex(lam)
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("f_lambda needs |z| < 1")
    if lam == 1.0:
        raise DomainError("lambda = 1 is not allowed")
    sh = PrivalovShadow(lam)
    if sh.distance_from(z) < 1e-12:
        raise NumericError("z is within 1e-12 of the shadow arc")
    ratio = (1.0 - abs(lam) ** 2) / abs(1.0 - lam) ** 2
    return c_lambda(lam) * ratio * herglotz_arc_integral(z, sh.lo, sh.hi)


def f_lambda(lam: complex, z: complex) -> complex:
    """The shadow outer function; |f_lambda(lambda) S(lambda)| = 1."""
    lf = log_f_lambda(lam, z)
    if lf.real > _EXP_CAP:
        raise NumericError("f_lambda magnitude overflows; evaluate log_f_lambda instead")
    return cmath.exp(lf)


def h_lambda(weight: wts.WeightSpec, bset: bnd.BoundarySet, lam: complex, z: complex) -> float:
    """Comparison function H_lambda(z); satisfies
    |f_lambda(z) S(z)| exp(-Lambda(dist(z,E))) = exp(H_lambda(z))."""
    lam = complex(lam)
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("h_lambda needs |z| < 1")
    sh = PrivalovShadow(lam)
    ratio_l = (1.0 - abs(lam) ** 2) / abs(1.0 - lam) ** 2
    p_term = c_lambda(lam) * ratio_l * poisson_arc_integral(z, sh.lo, sh.hi)
    ratio_z = (1.0 - abs(z) ** 2) / abs(1.0 - z) ** 2
    lam_term = wts.eval_lambda(weight, min(bnd.distance_to_set(bset, z), 2.0))
    return p_term - ratio_z - lam_term


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


def in_gamma_region(spec: GammaRegionSpec, lam: complex) -> bool:
    """Membership predicate; Lambda's argument is clamped at 2 (totality)."""
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise DomainError("membership needs |lambda| < 1")
    if lam == 1.0:
        return False
    lhs = (1.0 - abs(lam) ** 2) / abs(1.0 - lam) ** 2
    d = bnd.distance_to_set(spec.bset, lam)
    rhs = spec.a * wts.eval_lambda(spec.weight, min(spec.big_a * d, 2.0))
    return lhs <= rhs


def case_tag(spec: GammaRegionSpec, lam: complex, z: complex) -> str:
    """Which case of the sign analysis a (lambda, z) pair falls into."""
    d_lam = bnd.distance_to_set(spec.bset, lam)
    d_z = bnd.distance_to_set(spec.bset, z)
    if spec.big_a * d_lam >= d_z:
        return "case1"
    if abs(1.0 - z) >= 6.0 * abs(1.0 - lam):
        return "case2"
    return "case3"


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
    sol = geo.solve_gamma_array(weight, bset, thetas, normalize_lambda1=True)
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

    One composite Gauss-Legendre rule in v = log(1/|theta|) per side of the
    circle serves every w: geometry.panel_edges (uniform panels, kinks,
    pure-cut crossings) plus panels graded by powers of 2 in
    delta = 1 - |w| around each w's angle, from
    |theta| = pi down to |theta| = e^-depth (about 1e-290), all solved in
    one array call.  The value stops at that depth: data and Poisson kernel
    are >= 0, so stopping only lowers it.  The error estimate is the
    difference of the two rule orders on the Poisson part; the tail bounds
    the Poisson part beyond the depth.
    """
    ws = np.atleast_1d(np.asarray(ws, dtype=complex))
    if np.any(np.abs(ws) >= 1.0):
        raise DomainError("witness evaluation needs |w| < 1")
    spec = geo.normalized_for_lambda1(weight)
    depth = _witness_depth(spec)
    tail = _witness_tail(spec, bset, depth)
    breaks = []
    for w in ws:
        theta_w, delta = abs(cmath.phase(w)), 1.0 - abs(w)
        steps = delta * 2.0 ** np.arange(-2, math.ceil(math.log2(2.0 * math.pi / delta)))
        near = np.concatenate(([theta_w], theta_w + steps, theta_w - steps))
        breaks.append(-np.log(near[(0.0 < near) & (near < math.pi)]))
    breaks = np.concatenate(breaks)
    v_lo = math.log(1.0 / math.pi)
    pos, neg = (geo.log_rule(geo.panel_edges(spec, bset, sign, v_lo, depth, breaks)) for sign in (1.0, -1.0))
    theta = np.concatenate([np.exp(-pos[0]), -np.exp(-neg[0])])
    fine, coarse = (np.concatenate([pos[k], neg[k]]) for k in (1, 2))
    data = keldysh_log_boundary(spec, bset, theta) * np.abs(theta)
    e = np.exp(1j * theta)
    value, error, beyond = [], [], []
    for w in ws:
        poisson = geo.rule_sum((1.0 - abs(w) ** 2) / np.abs(e - w) ** 2 * data, fine, coarse)
        value.append(((e + w) / (e - w) * data * fine).sum() if herglotz else poisson.value)
        error.append(poisson.error)
        beyond.append(2.0 * (1.0 - abs(w) ** 2) / (abs(1.0 - w) - math.exp(-depth)) ** 2 * tail)
    return WitnessIntegral(*(np.array(x) / (2.0 * math.pi) for x in (value, error, beyond)))


def keldysh_outer(weight: wts.WeightSpec, bset: bnd.BoundarySet, amplitude: float,
                  w: complex) -> complex:
    """Outer function with boundary modulus exp(amplitude * gamma(theta)/theta^2).

    Requires the criterion integral to converge (see
    gamma_integral_is_convergent); the boundary data is then integrable and
    the Herglotz integral defines an outer function.
    """
    if amplitude < 0.0:
        raise DomainError("amplitude must be nonnegative")
    if amplitude == 0.0:
        return complex(1.0, 0.0)
    if not gamma_integral_is_convergent(weight, bset):
        raise DomainError("criterion integral diverges; no outer witness exists")
    lf = amplitude * complex(_witness_poisson(weight, bset, [w], herglotz=True).value[0])
    if lf.real > _EXP_CAP:
        raise NumericError("witness magnitude overflows at this amplitude")
    return cmath.exp(lf)


def witness_amplitude_search(weight: wts.WeightSpec, bset: bnd.BoundarySet,
                             thetas, max_power: int = 10) -> int:
    """Smallest dyadic amplitude dominating the required boundary growth.

    At each sampled boundary point w = (1 - gamma) e^{i theta} the witness
    must satisfy log|F(w)| > (1-|w|^2)/|1-w|^2 + Lambda(dist(w, E)).  log|F|
    is linear in the amplitude, so one Poisson integral per sample suffices;
    one rule serves all samples.  The search divides by the integral less
    its rule error estimate; stopping the rule at its depth only lowers it.
    """
    if not gamma_integral_is_convergent(weight, bset):
        raise DomainError("criterion integral diverges; no outer witness exists")
    weight = geo.normalized_for_lambda1(weight)
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
