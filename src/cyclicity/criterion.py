"""Arc-classification cyclicity criterion, divergence estimation, threshold oracles.

Complementary arcs (a, b) of the boundary set are classified against the
weight's generator w (here w_eff = 1/sqrt(t*Lambda(t)), so Lambda = 1/(t w^2)
holds identically, scale and tail continuation included):

* long           a/b <= 1/2          (ties long)
* short          1 - a/b < 2/w(b)
* intermediate   2/w(b) <= 1 - a/b < 1/2   (ties at 2/w(b) intermediate)

Per-arc contributions to the criterion sum:

* short          integral over the arc of dt/(t w(t))   (its share of the
                 E-union-short first term)
* intermediate   log[(1 - a/b) w(b)] / w(b)^2
* long           integral over the arc of dt/(t w(t)^2) + log+ w(b) / w(b)^2

The log+ clamp only matters in the degenerate regime w < 1 (large weight
scale near the cut); it keeps every contribution nonnegative, which the
report's monotonicity contract requires, and cannot change any verdict
(finitely many terms are affected).

The report also carries the equivalent three-quantity form: the integral of
dt/(t w) over E, the global integral of dt/(t w^2), and the unified arc sum
of log[1 + (1 - a/b) w(b)] / w(b)^2; both forms must yield the same verdict.

Partial sums are decided by fitting their growth in u = log(1/eps): bounded,
logarithmic (c + b log u), or a power c + b u^q, with q estimated from the
increments (this removes the unknown constant) together with a log-log
correction regressor that absorbs (log u)^m factors.  Divergence is
undecidable from finitely many values, so the estimator follows a declared
policy:

* it is scale-free: multiplying the sums by any c > 0 leaves the verdict
  unchanged (the tail counts as bounded when its last third grows by at
  most 1e-3 of the last sum, with no absolute floor);
* the margin is fixed at DEFAULT_MARGIN = 0.05: q >= 0.05 is divergent,
  q <= -0.05 convergent, and in between a clean fit of S against log u
  certifies logarithmic divergence, anything else is inconclusive.

The calibration matrix in tests/test_criterion.py (TestCalibration) checks
the policy on synthetic sums of known growth u^q (log u)^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boundary as bnd
from . import weights as wts
from .errors import CapacityError, DomainError, UsageError

KAPPA = math.log(2.0) / math.log(3.0)

ARC_CLASSES = ("short", "intermediate", "long")
VERDICTS = ("divergent", "convergent", "inconclusive")
THEOREMS = ("teo2", "teo3", "nikolski", "gs")

DEFAULT_MARGIN = 0.05

# deepest log(1/eps) reachable before the point-sequence rules underflow float64
_U_MAX = 650.0

# arcs per batch of whole-arc terms in the criterion engine (bounds its memory)
_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# arc classification and contributions


def _arc_class(a, b, w_b):
    """Class codes (indices into ARC_CLASSES) of arcs (a, b) with w_b = w(b).

    The one class rule of the module docstring, for floats and arrays alike.
    """
    q = a / b
    return np.where(q <= 0.5, 2, np.where(1.0 - q < 2.0 / w_b, 0, 1))


def arc_terms(weight: wts.WeightSpec, a, b, lower):
    """Class codes, contributions and unified arc-sum terms of arcs (a, b).

    Array form of classify_arc and arc_contribution: every a lies below the
    pure cut, arcs straddling the cut are scored by their inner part
    (a, pure_cut), and the integrals run over [max(a, lower), b].  The third
    output is log[1 + (1 - a/b) w(b)] / w(b)^2, the three-quantity form's term.
    """
    b = np.minimum(b, weight.pure_cut)
    w_b = wts.effective_w(weight, b)
    cls = _arc_class(a, b, w_b)
    ratio = 1.0 - a / b
    lo = np.maximum(a, lower)
    inter = np.log(ratio * w_b) / w_b**2
    long_ = wts.inv_tw_integral(weight, 2.0, lo, b) + np.maximum(np.log(w_b), 0.0) / w_b**2
    value = np.where(cls == 0, wts.inv_tw_integral(weight, 1.0, lo, b), np.where(cls == 1, inter, long_))
    return cls, value, np.log1p(ratio * w_b) / w_b**2


def classify_arc(arc: bnd.Arc, weight: wts.WeightSpec) -> str:
    """Class tag of a complementary arc; arcs straddling the cut are scored
    by their inner part (a, pure_cut)."""
    cut = weight.pure_cut
    if arc.a >= cut:
        raise UsageError("arc lies entirely outside the pure region")
    b_eff = min(arc.b, cut)
    return ARC_CLASSES[int(_arc_class(arc.a, b_eff, wts.effective_w(weight, b_eff)))]


def arc_contribution(arc: bnd.Arc, cls: str, weight: wts.WeightSpec, lower: float = 0.0) -> float:
    """Contribution of one arc to the criterion, optionally truncated below at `lower`."""
    if cls not in ARC_CLASSES:
        raise UsageError(f"unknown arc class {cls!r}")
    expected = classify_arc(arc, weight)
    if cls != expected:
        raise UsageError(f"class mismatch: arc classifies as {expected!r}, got {cls!r}")
    if max(arc.a, lower) <= 0.0:  # only long arcs reach a = 0
        raise DomainError("arc with a = 0 needs a positive lower cutoff for its integral")
    return float(arc_terms(weight, arc.a, arc.b, lower)[1])


# ---------------------------------------------------------------------------
# criterion report


@dataclass(frozen=True)
class CriterionReport:
    """Per-checkpoint terms of the criterion and of its three-quantity form."""

    checkpoints: np.ndarray
    e_and_short: np.ndarray
    intermediate_sum: np.ndarray
    long_sum: np.ndarray
    total: np.ndarray
    alt_e_integral: np.ndarray
    alt_gs_integral: np.ndarray
    alt_arc_sum: np.ndarray

    def verdict(self) -> "DivergenceVerdict":
        return divergence_verdict(self.total, self.checkpoints)

    def alt_verdict(self) -> "DivergenceVerdict":
        """The three quantities sum to a divergent integral iff one of them
        diverges: the most divergent verdict wins (divergent over inconclusive
        over convergent), and among its holders the largest exponent."""
        parts = [divergence_verdict(series, self.checkpoints)
                 for series in (self.alt_e_integral, self.alt_gs_integral, self.alt_arc_sum)]
        rank = ("convergent", "inconclusive", "divergent")
        return max(parts, key=lambda p: (rank.index(p.verdict),
                                         -1.0 if math.isnan(p.exponent) else p.exponent))


def _validate_checkpoints(eps: np.ndarray, cut: float) -> None:
    if eps.size < 1:
        raise UsageError("need at least one checkpoint")
    if np.any(eps <= 0.0) or np.any(eps >= cut):
        raise UsageError(f"checkpoints must lie strictly inside (0, {cut!r})")
    if np.any(np.diff(eps) >= 0.0):
        raise UsageError("checkpoints must be strictly decreasing")


def _checkpoint_sums(eps, a, b, terms):
    """Per-checkpoint sums of arc terms in one pass over the arcs.

    The arcs (a, b) are disjoint and sorted by decreasing b, so at checkpoint
    e the arcs with b >= e form a leading run, of which at most the last
    straddles e (a < e).  terms(idx, lower) gives the (columns x arcs) terms
    of the arcs a[idx], integrals starting at max(a, lower).  Whole-arc terms
    are computed once, in blocks of at most _BLOCK arcs, and summed segment
    by segment between checkpoints; the straddling arcs are then added with
    lower = e.  Returns (columns x checkpoints).
    """
    n_in = np.searchsorted(-b, -eps, side="right")  # arcs with b >= e
    n_whole = np.searchsorted(-a, -eps, side="right")  # arcs with a >= e
    bounds = np.concatenate(([0], n_whole))
    segments = 0.0
    for lo in range(0, max(bounds[-1], 1), _BLOCK):  # one empty block if no arc is whole
        block = terms(slice(lo, min(lo + _BLOCK, bounds[-1])), eps[-1])
        cuts = np.clip(bounds - lo, 0, block.shape[1])
        segments = segments + np.array([np.sum(block[:, i:j], axis=1) for i, j in zip(cuts[:-1], cuts[1:])]).T
    sums = np.cumsum(segments, axis=1)
    k = np.flatnonzero(n_whole < n_in)
    sums[:, k] += terms(n_whole[k], eps[k])
    return sums


def _cantor_candidates(weight, depth, eps_min):
    """Gaps of F_depth with b >= eps_min that may be non-short, as (a, b) arrays.

    Exact DFS below a cap per generation; every other gap is provably short:
    (den/b) * w_eff(b) is strictly decreasing in b, so all gaps of generation
    g with b above the root b*(g) are short.
    """
    cut = weight.pure_cut
    if eps_min < 3.0**-depth:
        need = int(math.ceil(math.log(1.0 / eps_min) / math.log(3.0)))
        raise CapacityError(f"cantor depth {depth} insufficient for eps={eps_min!r}; need depth >= {need}")

    def b_star(g: int) -> float:
        den = 3.0**-g
        lo, hi = 2.0 * den, cut
        if lo >= hi:
            return 0.0  # no generation-g gap lies below the cut

        def h(x: float) -> float:
            return (den / x) * wts.effective_w(weight, x) - 2.0

        if h(lo) <= 0.0:
            return lo
        if h(hi) >= 0.0:
            return hi
        for _ in range(120):
            mid = math.sqrt(lo * hi)
            if h(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return hi

    caps = {g: min(b_star(g) * 1.001, cut) for g in range(1, depth + 1)}
    a_list, b_list = [], []
    for a_num, b_num, g in bnd.cantor_nonshort_candidates(depth, lambda g: caps[g], hard_floor=eps_min * 0.999):
        den = 3.0**-g
        a_list.append(a_num * den)
        b_list.append(b_num * den)
    # arcs are disjoint, so at most one gap straddles the cut; its inner part
    # is scored like any other arc
    loc = bnd._cantor_locate(depth, cut)
    if loc[0] == "gap" and loc[1] < cut:
        a_list.append(loc[1])
        b_list.append(loc[2])
    return np.asarray(a_list, dtype=float), np.asarray(b_list, dtype=float)


def _cantor_e_integral(weight, depth, eps):
    """Integral of dt/(t w_eff) over F_depth intersected with [e, cut], per checkpoint e.

    Walks the construction one generation at a time.  A generation-g
    interval [x, x + w] of F_depth holds a copy of F_(depth-g) scaled by w:
    mass w (2/3)^(depth-g), centred, with variance w^2 (1/8 - 9^-(depth-g)/24).
    Once the interval lies inside one piece [e_k, e_(k-1)] (e_(-1) = cut) and
    w <= x / 100, its integral is the two-point rule that is exact for cubics
    under that measure (error of order (w/x)^4; the tests check the result
    against full gap enumeration to 1e-8).  The intervals left at generation
    depth are whole and integrate in closed form, clipped to each piece.
    Every term is nonnegative and lands in one piece, and the pieces are
    cumulated, so the result is nondecreasing by construction.
    """
    s = weight.w_exponent
    pref = math.sqrt(weight.scale)
    cut = weight.pure_cut
    edges = np.concatenate(([cut], eps))  # piece k is [eps[k], edges[k]]
    pieces = np.zeros(eps.size)
    x = np.zeros(1)  # left ends of the live generation-g intervals
    for g in range(depth):
        w = 3.0**-g
        x = x[(x + w > eps[-1]) & (x < cut)]
        k = np.searchsorted(-eps, -x)  # eps[k] <= x < edges[k]
        done = (k < eps.size) & (x + w <= edges[np.minimum(k, eps.size - 1)]) & (100.0 * w <= x)
        n = depth - g
        mid, half = x[done] + 0.5 * w, w * math.sqrt(0.125 - 9.0**-n / 24.0)
        t = np.concatenate((mid - half, mid + half))
        rule = pref / (t * np.log(1.0 / t) ** s)
        pieces += np.bincount(np.tile(k[done], 2), rule, eps.size) * (0.5 * w * (2.0 / 3.0) ** n)
        x = x[~done]
        x = np.concatenate((x, x + 2.0 * w / 3.0))
    w = 3.0**-depth
    x = x[(x + w > eps[-1]) & (x < cut)][:, None]
    pieces += wts.inv_tw_integral(weight, 1.0, np.maximum(x, eps), np.minimum(x + w, edges[:-1])).sum(axis=0)
    return np.cumsum(pieces)


def _set_arcs(weight, bset, eps):
    """The arcs of one set kind and its E-parts, per checkpoint.

    Returns (a, b, e_part, alt_e): the arcs as (a, b_eff) arrays sorted by
    decreasing b, with a below the cut and b at or above the smallest
    checkpoint; the part of e_and_short that no listed arc carries; and the
    integral of dt/(t w) over E.  The two E-parts coincide except on the
    Cantor set, which lists only its non-short gaps: there e_part is the
    integral over [e, cut] less the listed gaps, and alt_e the integral over
    F_depth.
    """
    cut = weight.pure_cut
    eps_min = float(eps[-1])
    empty = np.empty(0)
    e_hi = 0.0  # interval kinds: E meets the pure region in (0, e_hi]
    if bset.kind == "cantor":
        a, b = _cantor_candidates(weight, bset.depth, eps_min)
    elif bset.kind == "full":
        a, b, e_hi = empty, empty, cut
    elif bset.kind == "arc":
        b0 = float(bset.b)
        a, b = (np.array([b0]), np.ones(1)) if b0 < 1.0 else (empty, empty)
        e_hi = min(b0, cut)
    elif bset.kind == "point":
        a, b = np.zeros(1), np.ones(1)
    else:
        if eps_min < math.exp(-_U_MAX) * 0.5:
            raise CapacityError(f"point-sequence enumeration floor exceeded; smallest usable eps is exp(-{_U_MAX})")
        a, b = bnd.arc_arrays(bset, eps_min * 0.5)
    keep = (a < cut * (1.0 - 1e-15)) & (b >= eps_min)
    a, b = a[keep], np.minimum(b[keep], cut)
    if bset.kind != "cantor":
        e_part = np.zeros(eps.size)
        if e_hi > 0.0:
            e_part = wts.inv_tw_integral(weight, 1.0, np.minimum(eps, e_hi), e_hi)
        return a, b, e_part, e_part
    nonshort = _arc_class(a, b, wts.effective_w(weight, b)) != 0
    order = np.argsort(-b[nonshort])
    a, b = a[nonshort][order], b[nonshort][order]

    def tw1(idx, lower):
        return wts.inv_tw_integral(weight, 1.0, np.maximum(a[idx], lower), b[idx])[None]

    e_part = wts.inv_tw_integral(weight, 1.0, eps, cut) - _checkpoint_sums(eps, a, b, tw1)[0]
    return a, b, e_part, _cantor_e_integral(weight, bset.depth, eps)


def criterion_partials(weight: wts.WeightSpec, bset: bnd.BoundarySet, checkpoints) -> CriterionReport:
    """Evaluate every criterion term restricted to |t| >= eps_k, per checkpoint."""
    eps = np.asarray(list(checkpoints), dtype=float)
    cut = weight.pure_cut
    _validate_checkpoints(eps, cut)
    a, b, e_part, alt_e = _set_arcs(weight, bset, eps)

    def by_class(idx, lower):
        cls, value, unified = arc_terms(weight, a[idx], b[idx], lower)
        return np.stack([np.where(cls == c, value, 0.0) for c in range(3)] + [unified])

    short, inter, long_s, arc_sum = _checkpoint_sums(eps, a, b, by_class)
    # short gaps the set does not list enter the unified arc sum through
    # their integral, e_part - alt_e (zero unless the set is Cantor); the
    # running maximum keeps the rounding of alt_e from making it dip
    unlisted = np.maximum.accumulate(np.maximum(e_part - alt_e, 0.0))
    e_and_short = e_part + short
    cols = (2.0 if bset.mirror else 1.0) * np.array([
        e_and_short, inter, long_s, e_and_short + inter + long_s,
        alt_e, wts.inv_tw_integral(weight, 2.0, eps, cut), arc_sum + unlisted,
    ])
    return CriterionReport(eps, *cols)


def default_checkpoints(weight: wts.WeightSpec, bset: bnd.BoundarySet, count: int = 24) -> np.ndarray:
    """Geometric-in-log cutoff schedule eps_k = exp(-u0 g^k) adapted to the set."""
    if count < 6:
        raise UsageError("need at least 6 checkpoints")
    cut = weight.pure_cut
    u0 = math.log(1.0 / cut) + 0.4
    if bset.kind == "cantor":
        u_max = bset.depth * math.log(3.0) * 0.9999
    else:
        u_max = _U_MAX * 0.97  # stay clear of the enumeration floor
    if u_max <= u0 * 1.2:
        raise UsageError("pure region too small for a usable checkpoint schedule")
    g = (u_max / u0) ** (1.0 / (count - 1))
    return np.exp(-u0 * g ** np.arange(count))


# ---------------------------------------------------------------------------
# divergence verdicts


@dataclass(frozen=True)
class DivergenceVerdict:
    verdict: str
    model: str  # bounded | log | power
    exponent: float
    fit_residual: float


def divergence_verdict(partials, checkpoints) -> DivergenceVerdict:
    """Classify nondecreasing partial sums as divergent, convergent, or inconclusive.

    Growth is modelled in u = log(1/eps) of the checkpoints.  See the module
    docstring for the model family and the estimator policy.
    """
    S = np.asarray(list(partials), dtype=float)
    eps = np.asarray(list(checkpoints), dtype=float)
    K = S.size
    if K < 6:
        raise UsageError("need at least 6 partial sums")
    if eps.size != K:
        raise UsageError("checkpoints and partials must have equal length")
    if np.any(eps <= 0.0) or np.any(np.diff(eps) >= 0.0):
        raise UsageError("checkpoints must be positive and strictly decreasing")
    if eps[0] / eps[-1] < 1e4:
        raise UsageError("checkpoints must span at least 4 geometric decades")
    u = np.log(1.0 / eps)
    if np.any(np.diff(S) < -1e-9 * np.max(np.abs(S))):
        raise UsageError("partial sums must be nondecreasing")

    tail = float(S[-1] - S[(2 * K) // 3])
    if tail <= 1e-3 * abs(float(S[-1])):
        return DivergenceVerdict("convergent", "bounded", float("nan"), tail)

    dS = np.diff(S)
    du = np.diff(u)
    um = np.sqrt(u[1:] * u[:-1])
    mask = (dS > 0.0) & (um > 1.5)
    if int(mask.sum()) < 5:
        return DivergenceVerdict("inconclusive", "power", float("nan"), float("inf"))
    x = np.log(um[mask])
    y = np.log(dS[mask] / du[mask])

    # The tail regime decides convergence.  When the nearest arcs cross a
    # class boundary the increments take a sharp downward step; fit only past
    # the last such break (or, if too little is left, without the steps).
    # Otherwise just drop the early transient.
    if x.size >= 8:
        loc = np.diff(y) / np.diff(x)
        med_l = float(np.median(loc))
        mad_l = float(np.median(np.abs(loc - med_l)))
        thr = max(6.0 * 1.4826 * mad_l, 0.8)
        dips = np.nonzero(loc < med_l - thr)[0]
        if dips.size:
            start = int(dips.max()) + 2  # skip the increment containing the break
            if x.size - start >= 6:
                x, y = x[start:], y[start:]
            else:
                keep = np.ones(x.size, dtype=bool)
                keep[dips + 1] = False
                if int(keep.sum()) >= 6:
                    x, y = x[keep], y[keep]
        elif x.size > 10:
            keep = x >= x.max() - 0.65 * (x.max() - x.min())
            if int(keep.sum()) >= 8:
                x, y = x[keep], y[keep]

    # Increments are modelled as C u^(q-1) (log u)^m with m in {0, 1} (all the
    # sums and integrals here carry at most a first-power log factor).  Fixing
    # m keeps the fit well-posed; a free log-exponent regressor is nearly
    # collinear with log u and can silently trade slope for curvature.  When
    # neither m explains the data decisively better, the exponent estimate is
    # the average of the two: the models bracket the truth.
    design = np.column_stack([np.ones_like(x), x])
    fits = []
    for m in (0.0, 1.0):
        ym = y - m * np.log(np.maximum(x, 1e-3))
        cf, *_ = np.linalg.lstsq(design, ym, rcond=None)
        rm = float(np.sqrt(np.mean((ym - design @ cf) ** 2)))
        fits.append((rm, 1.0 + float(cf[1])))
    (r0, q0), (r1, q1) = fits
    if r0 <= r1 / 1.35:
        resid, q_hat = r0, q0
    elif r1 <= r0 / 1.35:
        resid, q_hat = r1, q1
    else:
        resid, q_hat = max(r0, r1), 0.5 * (q0 + q1)

    if q_hat >= DEFAULT_MARGIN:
        return DivergenceVerdict("divergent", "power", q_hat, resid)
    if q_hat <= -DEFAULT_MARGIN:
        return DivergenceVerdict("convergent", "power", q_hat, resid)

    # Near-flat exponent: a clean fit of S against log u still certifies
    # (logarithmic) divergence.
    sel = u > 1.5
    xs = np.log(u[sel])
    ys = S[sel]
    if xs.size >= 8 and q_hat >= -0.005:
        dsg = np.column_stack([np.ones_like(xs), xs])
        c_all, *_ = np.linalg.lstsq(dsg, ys, rcond=None)
        rms = float(np.sqrt(np.mean((dsg @ c_all - ys) ** 2)))
        span = float(ys.max() - ys.min())
        if span > 0.0 and rms / span < 0.05:
            return DivergenceVerdict("divergent", "log", q_hat, rms / span)
    return DivergenceVerdict("inconclusive", "power", q_hat, resid)


# ---------------------------------------------------------------------------
# threshold oracles


def threshold_value(theorem: str, beta: float = 0.0) -> float:
    """Critical alpha below (and at) which the prediction is divergent."""
    if theorem == "teo2":
        if not (0.0 <= beta <= 0.5):
            raise UsageError("teo2 requires beta in [0, 1/2]")
        return 1.0 / (1.0 - beta)
    if theorem == "teo3":
        return 1.0 / (1.0 - KAPPA / 2.0)
    if theorem == "nikolski":
        return 2.0
    if theorem == "gs":
        return 1.0
    raise UsageError(f"unknown theorem {theorem!r}")


def threshold_oracle(theorem: str, alpha: float, beta: float = 0.0) -> str:
    """Closed-form predicted verdict for the named threshold family."""
    if alpha <= 0.0:
        raise UsageError("alpha must be positive")
    return "divergent" if alpha <= threshold_value(theorem, beta) else "convergent"


def oracle_set(theorem: str, beta: float = 0.0, depth: int = 30) -> bnd.BoundarySet:
    """The boundary set a threshold family refers to."""
    if theorem == "teo2":
        return bnd.BoundarySet.beta_points(beta)
    if theorem == "teo3":
        return bnd.BoundarySet.cantor(depth)
    if theorem == "nikolski":
        return bnd.BoundarySet.full_circle()
    if theorem == "gs":
        return bnd.BoundarySet.single_point()
    raise UsageError(f"unknown theorem {theorem!r}")


def cantor_reduced_partials(weight: wts.WeightSpec, depth: int, count: int = 20):
    """Class-counting partial sums for the middle-thirds set.

    At any representable truncation depth the raw arc sums sit deep in the
    pre-asymptotic regime: a gap of relative size 1/m turns intermediate only
    once w(b) >= 2m, which for w = log^(alpha/2) happens at generations in
    the hundreds and beyond.  The dominant-scale counting that governs the
    threshold is nevertheless computable directly from the construction: at
    generation M the set offers ~ w^kappa gaps of the critical relative size
    (kappa = log 2 / log 3, the branching-to-scaling ratio), each weighing
    ~ 1/w^2, so the generations up to M contribute the class-counting mass

        S(M) = integral over v in [v0, M log 3] of w_eff(e^-v)^(kappa-2) dv,

    the integral form of the per-generation series sum w_eff(3^-g)^(kappa-2).
    Its growth exponent in u = log(1/eps) is exactly 1 - alpha (1 - kappa/2),
    which drives the threshold scans.

    Returns (checkpoints, partial sums), checkpoints descending from just
    below the pure cut to 3^-depth.
    """
    if depth < 8:
        raise UsageError("need depth >= 8 for a usable scan")
    cut = weight.pure_cut
    u0 = math.log(1.0 / cut) + 0.2
    u_max = depth * math.log(3.0)
    if u_max <= 1.5 * u0:
        raise UsageError("pure region leaves too little depth below the cut")
    g = (u_max / u0) ** (1.0 / (count - 1))
    u = u0 * g ** np.arange(count)
    s = weight.w_exponent * (2.0 - KAPPA)  # integrand is scale-adjusted v^-s
    pref = weight.scale ** ((2.0 - KAPPA) / 2.0)
    return np.exp(-u), wts._log_power_integral(pref, s, u, u0)


def theorem_scan_point(theorem: str, alpha: float, beta: float = 0.0, depth: int = 30):
    """One scan row: estimator verdict vs closed-form oracle for a threshold family.

    teo3 rows use the class-counting reduction (see cantor_reduced_partials);
    the other families sit inside the estimator's reach at desk scale and use
    the criterion machinery directly.
    """
    if theorem not in THEOREMS:
        raise UsageError(f"unknown theorem {theorem!r}")
    weight = wts.WeightSpec.log_power(alpha)
    if theorem == "teo3":
        eps, sums = cantor_reduced_partials(weight, depth)
        verdict = divergence_verdict(sums, eps)
    elif theorem == "nikolski":
        # decided by the classical condition integral; the criterion's E-part
        # is the same closed form and is cross-checked in the tests
        bset = bnd.BoundarySet.full_circle()
        eps = default_checkpoints(weight, bset)
        sums = wts.condition_partials(weight, "nikolski", eps)
        verdict = divergence_verdict(sums, eps)
    else:
        bset = oracle_set(theorem, beta=beta, depth=depth)
        eps = default_checkpoints(weight, bset)
        report = criterion_partials(weight, bset, eps)
        verdict = report.verdict()
    oracle = threshold_oracle(theorem, alpha, beta)
    in_band = abs(alpha - threshold_value(theorem, beta)) < DEFAULT_MARGIN if theorem != "teo2" else (
        abs(alpha * (1.0 - beta) - 1.0) < DEFAULT_MARGIN
    )
    return {
        "alpha": alpha,
        "beta": beta,
        "fitted_exponent": verdict.exponent,
        "verdict": verdict.verdict,
        "model": verdict.model,
        "oracle": oracle,
        "in_band": in_band,
        "agree": verdict.verdict == oracle,
    }
