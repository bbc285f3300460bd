"""Weight families Lambda(t) = scale / (t * w(t)^2) and their closed-form integrals.

Three families are supported, each a WeightSpec(family, ...):

* ``log_power``, alpha:  Lambda(t) = 1/(t log^alpha(1/t)),  w(t) = log^(alpha/2)(1/t)
* ``from_w``, p:         w(t) = log^p(1/t),  Lambda(t) = 1/(t w(t)^2)
* ``const_w``:           w == 1,  Lambda(t) = 1/t  (degenerate test family)

The fields of WeightSpec are its JSON config: WeightSpec("from_w", p=0.4)
is {"family": "from_w", "p": 0.4}.

The closed formulas are decreasing only while log(1/t) >= a, where a is the
log exponent (alpha, 2p, or 0).  eval_lambda therefore uses the formula on
(0, pure_cut] with pure_cut = min(t_cut, e^-a) and continues it by the
decreasing tail Lambda(pure_cut) * pure_cut / t up to t = 2.  The continuation
is continuous, keeps Lambda strictly decreasing on all of (0, 2], and cannot
change any divergence verdict (those depend on t -> 0 only).

eval_lambda and effective_w have one path for scalars and arrays: a scalar
t is evaluated as a one-element array and gives a float.

inv_tw_integral is the one closed form of the integrals of dt/(t w_eff^power)
over the pure region.  The classical condition integrals are its powers:
1 is the square-root (Nikolski) condition sqrt(Lambda/t), 2 the area
(Gevorkyan-Shamoyan) condition Lambda, and 2(1 - beta) the interpolating
C_beta condition Lambda^(1-beta)/t^beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import config
from .errors import DomainError, UsageError

FAMILIES = ("log_power", "from_w", "const_w")

DEFAULT_T_CUT = math.exp(-2.0)


@dataclass(frozen=True)
class WeightSpec(config.JsonConfig, what="weight"):
    """A weight family plus regularized-continuation parameters."""

    family: str
    alpha: float | None = None
    p: float | None = None
    t_cut: float = DEFAULT_T_CUT
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown weight family {self.family!r}")
        if self.family == "log_power":
            if self.alpha is None or self.alpha <= 0:
                raise DomainError("log_power requires alpha > 0")
            if self.p is not None:
                raise DomainError("log_power takes alpha, not p")
        elif self.family == "from_w":
            if self.p is None or self.p <= 0:
                raise DomainError("from_w requires p > 0")
            if self.alpha is not None:
                raise DomainError("from_w takes p, not alpha")
        else:
            if self.alpha is not None or self.p is not None:
                raise DomainError("const_w takes no exponent")
        if not (0.0 < self.t_cut < 1.0):
            raise DomainError("t_cut must lie in (0, 1)")
        if self.scale <= 0.0:
            raise DomainError("scale must be positive")

    @property
    def log_exponent(self) -> float:
        """Exponent a with Lambda(t) = scale/(t log^a(1/t)); 0 for const_w."""
        if self.family == "log_power":
            return float(self.alpha)
        if self.family == "from_w":
            return 2.0 * float(self.p)
        return 0.0

    @property
    def w_exponent(self) -> float:
        """Exponent of the generator w = log^(a/2)(1/t)."""
        return 0.5 * self.log_exponent

    @property
    def pure_cut(self) -> float:
        """Right edge of the pure-formula region (see module docstring)."""
        a = self.log_exponent
        if a <= 0.0:
            return self.t_cut
        return min(self.t_cut, math.exp(-a))

    def with_scale(self, scale: float) -> "WeightSpec":
        return replace(self, scale=scale)


# ---------------------------------------------------------------------------
# evaluation


def _points(t) -> np.ndarray:
    """t as a float array of at least one dimension, every point in (0, 2].

    Every evaluation runs on arrays, so a scalar takes the same operations
    as an array element (numpy's scalar power rounds differently).
    """
    ts = np.array(t, dtype=float, ndmin=1, copy=None)
    bad = (ts <= 0.0) | (ts > 2.0)
    if np.count_nonzero(bad):
        raise DomainError(f"t={ts[bad][0]!r} outside (0, 2.0]")
    return ts


def _result(x: np.ndarray, t):
    """x in the shape of t: a float for a scalar t."""
    return float(x[0]) if np.ndim(t) == 0 else x


def _log_inv(t: np.ndarray, cut: float) -> np.ndarray:
    """log(1/t) for t in (0, cut]; it is least at cut, so one check there covers every t."""
    if math.log(1.0 / cut) <= 1e-12:
        raise DomainError(f"log(1/t) vanishes at t={cut!r}; outside the usable region")
    return np.log(1.0 / t)


def eval_lambda(spec: WeightSpec, t):
    """Evaluate Lambda(t) on (0, 2], tail-continued beyond the pure region.

    Scalars and arrays share one path; a scalar t gives a float.
    """
    ts = _points(t)
    cut, a = spec.pure_cut, spec.log_exponent
    # min(t, cut) is t wherever the pure formula is kept
    unit = 1.0 / (ts * _log_inv(np.minimum(ts, cut), cut) ** a) if a > 0.0 else 1.0 / ts
    unit_cut = 1.0 / (cut * math.log(1.0 / cut) ** a)
    unit = np.where(ts <= cut, unit, unit_cut * cut / ts)
    # scale multiplies last so that scale covariance is exact in floats
    return _result(spec.scale * unit, t)


def effective_w(spec: WeightSpec, t):
    """w for which Lambda = 1/(t w^2) holds identically on (0, 2].

    Includes the scale (w_eff = w / sqrt(scale)) and the tail continuation,
    so the arc-classification thresholds stay consistent with the weight
    actually in force.
    """
    ts = _points(t)
    return _result(1.0 / np.sqrt(ts * eval_lambda(spec, ts)), t)


# ---------------------------------------------------------------------------
# closed-form partial integrals of 1/(t * w_eff(t)^power)


def _log_power_integral(pref: float, s: float, La, Lb):
    """pref * integral of L^(-s) dL over [Lb, La]; the log branch covers s = 1."""
    if abs(s - 1.0) < 1e-14:
        return pref * (np.log(La) - np.log(Lb))
    return pref * (La ** (1.0 - s) - Lb ** (1.0 - s)) / (1.0 - s)


def inv_tw_integral(spec: WeightSpec, power: float, lo, hi):
    """Integral of dt / (t * w_eff(t)^power) over [lo, hi] in the pure region.

    Substituting L = log(1/t) gives scale^(power/2) * int L^(-s) dL with
    s = power*a/2, which is elementary.  Vectorized over lo/hi arrays.
    """
    cut = spec.pure_cut
    lo_a = np.asarray(lo, dtype=float)
    hi_a = np.asarray(hi, dtype=float)
    if np.any(lo_a <= 0.0) or np.any(hi_a > cut * (1.0 + 1e-12)):
        raise DomainError("integral bounds must lie in the pure region")
    La = np.log(1.0 / lo_a)
    Lb = np.log(1.0 / np.minimum(hi_a, cut))
    s = power * spec.log_exponent / 2.0
    val = np.maximum(_log_power_integral(spec.scale ** (power / 2.0), s, La, Lb), 0.0)
    if np.ndim(lo) == 0 and np.ndim(hi) == 0:
        return float(val)
    return val


# ---------------------------------------------------------------------------
# regularity report


@dataclass(frozen=True)
class RegularityReport:
    max_t_lambda: float
    argmax_t_lambda: float
    max_log_deriv_ratio: float
    lambda_decreasing: bool
    t_lambda_vanishing: bool
    n_points: int


def check_regularity(spec: WeightSpec, grid) -> RegularityReport:
    """Grid report of t*Lambda(t), t|Lambda'|/Lambda, monotonicity.

    The grid must be decreasing, contain at least 8 points inside the pure
    region, and span at least 4 decades.  On the pure region
    t|Lambda'|/Lambda = |1 - a/log(1/t)|, which needs no Lambda' (that
    overflows below t ~ 1e-154).
    """
    ts = np.fromiter(grid, dtype=float)
    if ts.size < 8:
        raise UsageError("grid must contain at least 8 points")
    cut = spec.pure_cut
    if not np.all((ts > 0.0) & (ts <= cut)):
        raise UsageError(f"grid points must lie in the pure region (0, {cut!r}]")
    if np.any(ts[1:] >= ts[:-1]):
        raise UsageError("grid must be strictly decreasing")
    if ts[0] / ts[-1] < 1e4:
        raise UsageError("grid must span at least 4 decades")

    lam = eval_lambda(spec, ts)
    tl = ts * lam
    i_max = int(np.argmax(tl))
    a = spec.log_exponent
    ratios = np.abs(1.0 - a / _log_inv(ts, cut)) if a > 0.0 else np.ones_like(ts)
    return RegularityReport(
        max_t_lambda=float(tl[i_max]),
        argmax_t_lambda=float(ts[i_max]),
        max_log_deriv_ratio=float(ratios.max()),
        lambda_decreasing=bool(np.all(lam[1:] > lam[:-1])),
        t_lambda_vanishing=bool(tl[-1] <= 0.5 * tl[0]),
        n_points=len(ts),
    )
