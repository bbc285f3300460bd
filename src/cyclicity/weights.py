"""Weight families Lambda(t) = scale / (t * w(t)^2) and their condition integrands.

Three families are supported:

* ``log_power(alpha)``:  Lambda(t) = 1/(t log^alpha(1/t)),  w(t) = log^(alpha/2)(1/t)
* ``from_w(p)``:         w(t) = log^p(1/t),  Lambda(t) = 1/(t w(t)^2)
* ``const_w``:           w == 1,  Lambda(t) = 1/t  (degenerate test family)

The closed formulas are decreasing only while log(1/t) >= a, where a is the
log exponent (alpha, 2p, or 0).  eval_lambda therefore uses the formula on
(0, pure_cut] with pure_cut = min(t_cut, e^-a) and continues it by the
decreasing tail Lambda(pure_cut) * pure_cut / t up to t = 2.  The continuation
is continuous, keeps Lambda strictly decreasing on all of (0, 2], and cannot
change any divergence verdict (those depend on t -> 0 only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, UsageError

FAMILIES = ("log_power", "from_w", "const_w")
CONDITION_KINDS = ("nikolski", "gs", "c_beta")

DEFAULT_T_CUT = math.exp(-2.0)


@dataclass(frozen=True)
class WeightSpec:
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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def log_power(alpha: float, t_cut: float = DEFAULT_T_CUT, scale: float = 1.0) -> "WeightSpec":
        return WeightSpec("log_power", alpha=alpha, t_cut=t_cut, scale=scale)

    @staticmethod
    def from_w(p: float, t_cut: float = DEFAULT_T_CUT, scale: float = 1.0) -> "WeightSpec":
        return WeightSpec("from_w", p=p, t_cut=t_cut, scale=scale)

    @staticmethod
    def const_w(t_cut: float = DEFAULT_T_CUT, scale: float = 1.0) -> "WeightSpec":
        return WeightSpec("const_w", t_cut=t_cut, scale=scale)

    # -- derived quantities ------------------------------------------------

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

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {"family": self.family, "t_cut": self.t_cut, "scale": self.scale}
        if self.family == "log_power":
            out["alpha"] = self.alpha
        elif self.family == "from_w":
            out["p"] = self.p
        return out

    @staticmethod
    def from_json(obj: dict) -> "WeightSpec":
        if not isinstance(obj, dict):
            raise UsageError("weight config must be a JSON object")
        allowed = {"family", "alpha", "p", "t_cut", "scale"}
        unknown = set(obj) - allowed
        if unknown:
            raise UsageError(f"unknown weight config fields: {sorted(unknown)}")
        if "family" not in obj:
            raise UsageError("weight config requires 'family'")
        kwargs = {k: obj[k] for k in ("alpha", "p", "t_cut", "scale") if k in obj}
        return WeightSpec(obj["family"], **kwargs)


# ---------------------------------------------------------------------------
# evaluation


def _log_inv(t: float) -> float:
    L = math.log(1.0 / t)
    if L <= 1e-12:
        raise DomainError(f"log(1/t) vanishes at t={t!r}; outside the usable region")
    return L


def _pure_lambda(spec: WeightSpec, t: float) -> float:
    # scale multiplies last so that scale covariance is exact in floats
    if spec.family == "const_w":
        return spec.scale * (1.0 / t)
    return spec.scale * (1.0 / (t * _log_inv(t) ** spec.log_exponent))


def eval_lambda(spec: WeightSpec, t) -> float:
    """Evaluate Lambda(t) on (0, 2], tail-continued beyond the pure region."""
    if isinstance(t, np.ndarray):
        return _eval_lambda_vec(spec, t)
    t = float(t)
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t!r}")
    if t > 2.0:
        raise DomainError(f"t must be <= 2, got {t!r}")
    cut = spec.pure_cut
    if t <= cut:
        return _pure_lambda(spec, t)
    return spec.scale * (_pure_lambda(spec.with_scale(1.0), cut) * cut / t)


def _eval_lambda_vec(spec: WeightSpec, t: np.ndarray) -> np.ndarray:
    if np.any(t <= 0.0) or np.any(t > 2.0):
        raise DomainError("t values must lie in (0, 2]")
    cut = spec.pure_cut
    a = spec.log_exponent
    out = np.empty_like(t, dtype=float)
    pure = t <= cut
    if a > 0.0:
        L = np.log(1.0 / t[pure])
        out[pure] = spec.scale / (t[pure] * L**a)
    else:
        out[pure] = spec.scale / t[pure]
    out[~pure] = _pure_lambda(spec, cut) * cut / t[~pure]
    return out


def eval_w(spec: WeightSpec, t: float) -> float:
    """The generator w(t) on the pure region (0, pure_cut]; unscaled."""
    t = float(t)
    cut = spec.pure_cut
    if not (0.0 < t <= cut):
        raise DomainError(f"t={t!r} outside the pure region (0, {cut!r}]")
    if spec.family == "const_w":
        return 1.0
    return _log_inv(t) ** spec.w_exponent


def effective_w(spec: WeightSpec, t):
    """w for which Lambda = 1/(t w^2) holds identically on (0, 2].

    Includes the scale (w_eff = w / sqrt(scale)) and the tail continuation,
    so the arc-classification thresholds stay consistent with the weight
    actually in force.  Accepts scalars or numpy arrays.
    """
    lam = eval_lambda(spec, t)
    return 1.0 / np.sqrt(np.asarray(t, dtype=float) * lam) if isinstance(t, np.ndarray) else 1.0 / math.sqrt(t * lam)


def lambda_prime(spec: WeightSpec, t: float) -> float:
    """Closed-form Lambda'(t) on (0, 2]."""
    t = float(t)
    if t <= 0.0 or t > 2.0:
        raise DomainError(f"t must lie in (0, 2], got {t!r}")
    cut = spec.pure_cut
    if t > cut:
        return -_pure_lambda(spec, cut) * cut / t**2
    a = spec.log_exponent
    if a <= 0.0:
        return -spec.scale / t**2
    L = _log_inv(t)
    return -spec.scale * (L - a) / (t**2 * L ** (a + 1.0))


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
    region, and span at least 4 decades.  Lambda' is the closed form
    `lambda_prime`.
    """
    ts = [float(t) for t in grid]
    if len(ts) < 8:
        raise UsageError("grid must contain at least 8 points")
    cut = spec.pure_cut
    if any(not (0.0 < t <= cut) for t in ts):
        raise UsageError(f"grid points must lie in the pure region (0, {cut!r}]")
    if any(t2 >= t1 for t1, t2 in zip(ts, ts[1:])):
        raise UsageError("grid must be strictly decreasing")
    if ts[0] / ts[-1] < 1e4:
        raise UsageError("grid must span at least 4 decades")

    lam = [eval_lambda(spec, t) for t in ts]
    tl = [t * v for t, v in zip(ts, lam)]
    i_max = max(range(len(ts)), key=lambda i: tl[i])

    ratios = [t * abs(lambda_prime(spec, t)) / v for t, v in zip(ts, lam)]
    decreasing = all(l2 > l1 for l1, l2 in zip(lam, lam[1:]))
    vanishing = tl[-1] <= 0.5 * tl[0]
    return RegularityReport(
        max_t_lambda=max(tl),
        argmax_t_lambda=ts[i_max],
        max_log_deriv_ratio=max(ratios),
        lambda_decreasing=decreasing,
        t_lambda_vanishing=vanishing,
        n_points=len(ts),
    )


# ---------------------------------------------------------------------------
# classical condition integrands


def condition_integrand(spec: WeightSpec, kind: str, t: float, beta: float | None = None) -> float:
    """Integrand of the Nikolski, Gevorkyan-Shamoyan, or interpolating C_beta condition.

    nikolski: sqrt(Lambda(t)/t);  gs: Lambda(t);  c_beta: Lambda(t)^(1-beta)/t^beta
    with beta in [0, 1/2].  For log_power(alpha) the c_beta integrand reduces to
    1/(t log^(alpha(1-beta))(1/t)), which the tests exploit as an identity.
    """
    if kind not in CONDITION_KINDS:
        raise UsageError(f"unknown condition kind {kind!r}")
    t = float(t)
    cut = spec.pure_cut
    if not (0.0 < t <= cut):
        raise DomainError(f"t={t!r} outside the pure region (0, {cut!r}]")
    lam = eval_lambda(spec, t)
    if kind == "nikolski":
        return math.sqrt(lam / t)
    if kind == "gs":
        return lam
    if beta is None or not (0.0 <= beta <= 0.5):
        raise UsageError("c_beta requires beta in [0, 1/2]")
    return lam ** (1.0 - beta) / t**beta


def condition_partials(spec: WeightSpec, kind: str, checkpoints, beta: float | None = None) -> np.ndarray:
    """Partial integrals of a condition integrand from each checkpoint up to pure_cut.

    For the log families every kind is of the form const/(t L^s), so the
    closed form of inv_tw_integral applies; this keeps verdict scans exact.
    """
    if kind not in CONDITION_KINDS:
        raise UsageError(f"unknown condition kind {kind!r}")
    eps = np.asarray(list(checkpoints), dtype=float)
    cut = spec.pure_cut
    if np.any(eps <= 0.0) or np.any(eps >= cut):
        raise UsageError("checkpoints must lie in (0, pure_cut)")
    a = spec.log_exponent
    if kind == "nikolski":
        s, pref = a / 2.0, math.sqrt(spec.scale)
    elif kind == "gs":
        s, pref = a, spec.scale
    else:
        if beta is None or not (0.0 <= beta <= 0.5):
            raise UsageError("c_beta requires beta in [0, 1/2]")
        s, pref = a * (1.0 - beta), spec.scale ** (1.0 - beta)
    return np.maximum(_log_power_integral(pref, s, np.log(1.0 / eps), math.log(1.0 / cut)), 0.0)
