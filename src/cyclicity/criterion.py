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

Every arc sum is one pass over the set's arcs, block by block.  A point
sequence's arcs come from boundary.arc_blocks in blocks of ARC_BLOCK arcs as
the pass goes, so the engine's memory is bounded by one block and not by the
arc count (about 4 * 10^5 arcs on beta = 1/2 down to e^-630); the block cuts
also fix the bits of the sums.

Partial sums are decided by fitting their growth in u = log(1/eps): bounded,
logarithmic (c + b log u), or a power c + b u^q, with q estimated from the
increments (this removes the unknown constant) together with a log-log
correction regressor that absorbs (log u)^m factors; every fit is a
least-squares line in closed form.  Divergence is undecidable from finitely
many values, so the estimator follows a declared policy:

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
THEOREMS = ("teo2", "teo3", "nikolski", "gs")

DEFAULT_MARGIN = 0.05

# depth in log(1/eps) of the default checkpoint schedule off the Cantor set;
# the floor of the arc enumeration itself is boundary's (1e-290, u ~ 667)
_U_MAX = 650.0

# arcs per block taken from the arc enumerator by the criterion engine and by
# the per-arc listing; bounds their memory, and the engine's block cuts fix
# the bits of its sums
ARC_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# arc classification and contributions


def _arc_class(a, b, w_b):
    """Class codes (indices into ARC_CLASSES) of arcs (a, b) with w_b = w(b).

    The one class rule of the module docstring, for floats and arrays alike.
    """
    q = a / b
    return np.where(q <= 0.5, 2, np.where(1.0 - q < 2.0 / w_b, 0, 1))


def is_scored(weight: wts.WeightSpec, a):
    """Which arcs (a, b) the engine and its per-arc listing score: a below the pure cut by more than rounding."""
    return a < weight.pure_cut * (1.0 - 1e-15)


def arc_terms(weight: wts.WeightSpec, a, b, lower):
    """Class codes, contributions and unified arc-sum terms of arcs (a, b).

    Array form of classify_arc and arc_contribution: every a lies below the
    pure cut, arcs straddling the cut are scored by their inner part
    (a, pure_cut), and the integrals run over [max(a, lower), b].  The third
    output is log[1 + (1 - a/b) w(b)] / w(b)^2, the three-quantity form's term.
    The intermediate term fills every arc; each integral is evaluated on its
    own class only.
    """
    b = np.minimum(b, weight.pure_cut)
    w_b = np.asarray(wts.effective_w(weight, b))
    cls = _arc_class(a, b, w_b)
    ratio = 1.0 - a / b
    lo = np.maximum(a, lower)
    value = np.asarray(np.log(ratio * w_b) / w_b**2)
    short, long_ = cls == 0, cls == 2
    if short.any():
        value[short] = wts.inv_tw_integral(weight, 1.0, lo[short], b[short])
    if long_.any():
        w_l = w_b[long_]
        value[long_] = wts.inv_tw_integral(weight, 2.0, lo[long_], b[long_]) + np.maximum(np.log(w_l), 0.0) / w_l**2
    return cls, value, np.log1p(ratio * w_b) / w_b**2


def classify_arc(arc: bnd.Arc, weight: wts.WeightSpec) -> str:
    """Class tag of a complementary arc; arcs straddling the cut are scored
    by their inner part (a, pure_cut), and arcs that is_scored skips are refused."""
    if not is_scored(weight, arc.a):
        raise UsageError("arc does not start below the pure cut; the criterion does not score it")
    b_eff = min(arc.b, weight.pure_cut)
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


def _checkpoint_sums(eps, blocks, terms, rows):
    """Per-checkpoint sums of arc terms in one pass over blocks of arcs.

    blocks yields the arcs as (a, b) arrays, disjoint and sorted by
    decreasing b across the blocks.  At checkpoint e the arcs with b >= e
    form a leading run, of which at most the last straddles e (a < e).
    terms(a, b, lower) gives the (rows x arcs) terms of the arcs (a, b),
    integrals starting at max(a, lower).  Each block's whole arcs (a >= e_min)
    are scored in one call and summed by one np.sum per non-empty segment
    between checkpoints; each checkpoint's straddling arc is kept as the pass
    reaches it, and all of them are scored, with lower = e, in one call at
    the end.  Returns (rows x checkpoints).

    Memory is bounded by one block, not by the arc count.  The sums depend
    on where the blocks are cut, so the blocks fix their bits.
    """
    segments = np.zeros((rows, eps.size))
    straddle_a, straddle_b = np.zeros(eps.size), np.zeros(eps.size)  # the arc straddling each checkpoint, if any
    for a, b in blocks:
        whole = np.searchsorted(-a, -eps, side="right")  # arcs of the block with a >= e
        k = np.flatnonzero(whole < np.searchsorted(-b, -eps, side="right"))
        straddle_a[k], straddle_b[k] = a[whole[k]], b[whole[k]]
        n = whole[-1]
        if n:
            part = terms(a[:n], b[:n], eps[-1])
            cuts = [0, *whole.tolist()]
            for j, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                if hi > lo:  # np.add.reduce is np.sum without its Python wrapper
                    segments[:, j] += np.add.reduce(part[:, lo:hi], axis=1)
    sums = np.cumsum(segments, axis=1)
    k = np.flatnonzero(straddle_b)  # a straddling arc has b >= e > 0
    sums[:, k] += terms(straddle_a[k], straddle_b[k], eps[k])
    return sums


def _cantor_nonshort(weight, depth, eps_min):
    """The scored gaps of F_depth with b >= eps_min that _arc_class finds
    non-short, as (a, b_eff) arrays (needs eps_min >= 3^-depth).

    The walk tests each gap with _arc_class.  A gap (a, b) inside a
    generation-g interval [x, x + 3^-g], x > 0, has 1 - a/b_eff < 3^-(g+1)/x
    and w_eff(b_eff) <= w_eff(x), w_eff decreasing; so it goes on only from
    x = 0 (long gaps) and from intervals below the cut whose bound
    (3^-(g+1)/x) w_eff(x) reaches 2 within a 1.001 margin for rounding.
    """
    cut = weight.pure_cut
    if eps_min < 3.0**-depth:
        need = bnd.cantor_generation(eps_min)
        raise CapacityError(f"cantor depth {depth} insufficient for eps={eps_min!r}; need depth >= {need}")

    def step(g, num):  # one effective_w call per generation
        a, b = bnd.cantor_ends(3 * num + 1, g + 1)
        k = np.flatnonzero(is_scored(weight, a) & (b >= eps_min))
        a, b, x = a[k], np.minimum(b[k], cut), bnd.cantor_ends(num, g)[0]
        inner = (num > 0) & (x < cut)
        w = wts.effective_w(weight, np.concatenate((b, x[inner])))
        walk_on = num == 0
        walk_on[inner] = 3.0 ** -(g + 1) * w[k.size:] * 1.001 >= 2.0 * x[inner]
        return k[_arc_class(a, b, w[:k.size]) != 0], walk_on

    a, b = bnd.cantor_ends(*bnd.cantor_nonshort_candidates(depth, step))
    return a, np.minimum(b, cut)


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

    def children(g, num, _owner):
        w = 3.0**-g
        x, end = bnd.cantor_ends(num, g)  # the live generation-g intervals [x, end]
        live = (end > eps[-1]) & (x < cut)
        k = np.searchsorted(-eps, -x)  # eps[k] <= x < edges[k]
        done = live & (k < eps.size) & (end <= edges[np.minimum(k, eps.size - 1)]) & (100.0 * w <= x)
        n = depth - g
        mid, half = x[done] + 0.5 * w, w * math.sqrt(0.125 - 9.0**-n / 24.0)
        t = np.concatenate((mid - half, mid + half))
        rule = pref / (t * np.log(1.0 / t) ** s)
        pieces[:] += np.bincount(np.tile(k[done], 2), rule, eps.size) * (0.5 * w * (2.0 / 3.0) ** n)
        return live & ~done, live & ~done

    x, end = bnd.cantor_ends(bnd.cantor_walk(depth, children)[0], depth)  # the generation-depth intervals
    keep = (end > eps[-1]) & (x < cut)
    x, end = x[keep][:, None], end[keep][:, None]
    pieces += wts.inv_tw_integral(weight, 1.0, np.maximum(x, eps), np.minimum(end, edges[:-1])).sum(axis=0)
    return np.cumsum(pieces)


def _set_arcs(weight, bset, eps):
    """The arcs of one set kind and its E-parts, per checkpoint.

    Returns (blocks, e_part, alt_e).  blocks gives the arcs as (a, b_eff)
    blocks sorted by decreasing b, with a below the cut and b at or above
    the smallest checkpoint.  A point sequence's blocks are computed as they
    are taken, so they can be taken once and its whole arc list never
    exists.  e_part is the part of e_and_short that no listed arc carries,
    and alt_e the integral of dt/(t w) over E.  The two E-parts coincide
    except on the Cantor set, which lists only its non-short gaps (those of
    _cantor_nonshort, sorted): there e_part is the integral over [e, cut]
    less the listed gaps, and alt_e the integral over F_depth.
    """
    cut = weight.pure_cut
    eps_min = float(eps[-1])
    if bset.kind == "cantor":
        a, b = _cantor_nonshort(weight, bset.depth, eps_min)
        order = np.argsort(-b)
        a, b = a[order], b[order]

        def tw1(a, b, lower):
            return wts.inv_tw_integral(weight, 1.0, np.maximum(a, lower), b)[None]

        e_part = wts.inv_tw_integral(weight, 1.0, eps, cut) - _checkpoint_sums(eps, [(a, b)], tw1, 1)[0]
        return [(a, b)], e_part, _cantor_e_integral(weight, bset.depth, eps)

    def kept(a, b):
        keep = is_scored(weight, a) & (b >= eps_min)
        return a[keep], np.minimum(b[keep], cut)

    blocks = (kept(a, b) for a, b in bnd.arc_blocks(bset, eps_min * 0.5, ARC_BLOCK))

    # interval kinds: E meets the pure region in (0, e_hi]
    e_hi = cut if bset.kind == "full" else min(float(bset.b), cut) if bset.kind == "arc" else 0.0
    e_part = np.zeros(eps.size)
    if e_hi > 0.0:
        e_part = wts.inv_tw_integral(weight, 1.0, np.minimum(eps, e_hi), e_hi)
    return blocks, e_part, e_part


def criterion_partials(weight: wts.WeightSpec, bset: bnd.BoundarySet, checkpoints) -> CriterionReport:
    """Evaluate every criterion term restricted to |t| >= eps_k, per checkpoint."""
    eps = np.asarray(list(checkpoints), dtype=float)
    cut = weight.pure_cut
    _validate_checkpoints(eps, cut)
    blocks, e_part, alt_e = _set_arcs(weight, bset, eps)

    def by_class(a, b, lower):
        cls, value, unified = arc_terms(weight, a, b, lower)
        return np.stack([np.where(cls == c, value, 0.0) for c in range(3)] + [unified])

    short, inter, long_s, arc_sum = _checkpoint_sums(eps, blocks, by_class, len(ARC_CLASSES) + 1)
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


def _median(values) -> float:
    v = sorted(values)
    k = len(v) // 2
    return v[k] if len(v) % 2 else (v[k - 1] + v[k]) / 2.0


def _line_fit(pts):
    """Slope and rms residual of the least-squares line through the points (x, y)."""
    n = len(pts)
    x_bar, y_bar = sum(x for x, _ in pts) / n, sum(y for _, y in pts) / n
    d = [(x - x_bar, y - y_bar) for x, y in pts]
    slope = sum(dx * dy for dx, dy in d) / sum(dx * dx for dx, _ in d)
    return slope, math.sqrt(sum((dy - slope * dx) ** 2 for dx, dy in d) / n)


def divergence_verdict(partials, checkpoints) -> DivergenceVerdict:
    """Classify nondecreasing partial sums as divergent, convergent, or inconclusive.

    Growth is modelled in u = log(1/eps) of the checkpoints.  See the module
    docstring for the model family and the estimator policy.  The series are
    a few dozen values long, so the estimator runs on Python floats.
    """
    S = np.asarray(partials, dtype=float).tolist()
    eps = np.asarray(checkpoints, dtype=float).tolist()
    K = len(S)
    if K < 6:
        raise UsageError("need at least 6 partial sums")
    if len(eps) != K:
        raise UsageError("checkpoints and partials must have equal length")
    if not all(map(math.isfinite, S + eps)):
        raise UsageError("partial sums and checkpoints must be finite")
    if any(e <= 0.0 for e in eps) or any(e1 - e0 >= 0.0 for e0, e1 in zip(eps, eps[1:])):
        raise UsageError("checkpoints must be positive and strictly decreasing")
    if eps[0] / eps[-1] < 1e4:
        raise UsageError("checkpoints must span at least 4 geometric decades")
    u = [math.log(1.0 / e) for e in eps]
    if u[-1] == math.inf or any(u1 <= u0 for u0, u1 in zip(u, u[1:])):
        raise UsageError("log(1/eps) must be finite and strictly increasing")
    dS = [s1 - s0 for s0, s1 in zip(S, S[1:])]
    floor = -1e-9 * max(abs(s) for s in S)
    if any(d < floor for d in dS):
        raise UsageError("partial sums must be nondecreasing")

    tail = S[-1] - S[(2 * K) // 3]
    if tail <= 1e-3 * abs(S[-1]):
        return DivergenceVerdict("convergent", "bounded", float("nan"), tail)

    pts = []  # (log u, log dS/du) at the geometric midpoints of the growing steps
    for d, u0, u1 in zip(dS, u, u[1:]):
        if d > 0.0 and u1 * u0 > 2.25:  # um > 1.5, and no root of a negative product
            pts.append((math.log(math.sqrt(u1 * u0)), math.log(d / (u1 - u0))))
    if len(pts) < 5:
        return DivergenceVerdict("inconclusive", "power", float("nan"), float("inf"))

    # The tail regime decides convergence.  When the nearest arcs cross a
    # class boundary the increments take a sharp downward step; fit only past
    # the last such break (or, if too little is left, without the steps).
    # Otherwise just drop the early transient.
    if len(pts) >= 8:
        loc = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        med_l = _median(loc)
        thr = max(6.0 * 1.4826 * _median([abs(v - med_l) for v in loc]), 0.8)
        dips = [i for i, v in enumerate(loc) if v < med_l - thr]
        if dips:
            start = dips[-1] + 2  # skip the increment containing the break
            if len(pts) - start >= 6:
                pts = pts[start:]
            elif len(pts) - len(dips) >= 6:
                pts = [p for i, p in enumerate(pts) if i - 1 not in dips]
        elif len(pts) > 10:
            xs = [x for x, _ in pts]
            x_lo = max(xs) - 0.65 * (max(xs) - min(xs))
            if sum(x >= x_lo for x, _ in pts) >= 8:
                pts = [p for p in pts if p[0] >= x_lo]

    # Increments are modelled as C u^(q-1) (log u)^m with m in {0, 1} (all the
    # sums and integrals here carry at most a first-power log factor).  Fixing
    # m keeps the fit well-posed; a free log-exponent regressor is nearly
    # collinear with log u and can silently trade slope for curvature.  When
    # neither m explains the data decisively better, the exponent estimate is
    # the average of the two: the models bracket the truth.
    slope0, r0 = _line_fit(pts)
    slope1, r1 = _line_fit([(x, y - math.log(max(x, 1e-3))) for x, y in pts])
    q0, q1 = 1.0 + slope0, 1.0 + slope1
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
    late = [(math.log(v), s) for v, s in zip(u, S) if v > 1.5]
    if len(late) >= 8 and q_hat >= -0.005:
        _, rms = _line_fit(late)
        span = max(s for _, s in late) - min(s for _, s in late)
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
    cut = weight.pure_cut
    u0 = math.log(1.0 / cut) + 0.2
    need = bnd.cantor_generation(1e-4 * math.exp(-u0))  # divergence_verdict's 4 decades from e^-u0
    if depth < need:
        raise UsageError(f"depth {depth} gives checkpoints under 4 geometric decades; need depth >= {need}")
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
    weight = wts.WeightSpec("log_power", alpha=alpha)
    if theorem == "teo3":
        eps, sums = cantor_reduced_partials(weight, depth)
        verdict = divergence_verdict(sums, eps)
    elif theorem == "nikolski":
        # the square-root condition: sqrt(Lambda/t) = 1/(t w_eff), power 1
        eps = default_checkpoints(weight, bnd.BoundarySet("full"))
        verdict = divergence_verdict(wts.inv_tw_integral(weight, 1.0, eps, weight.pure_cut), eps)
    else:
        bset = bnd.BoundarySet("beta", beta=beta) if theorem == "teo2" else bnd.BoundarySet("point")
        eps = default_checkpoints(weight, bset)
        report = criterion_partials(weight, bset, eps)
        verdict = report.verdict()
    oracle = threshold_oracle(theorem, alpha, beta)
    return {
        "alpha": alpha,
        "fitted_exponent": verdict.exponent,
        "verdict": verdict.verdict,
        "oracle": oracle,
        "agree": verdict.verdict == oracle,
    }
