"""Compact boundary sets E on the unit circle, 1 in E, via complementary arcs.

All parametric sets live in the angle window [0, 1] (radians), matching the
one-sided convention of the studied families; a mirror flag reflects the set
across the real axis for symmetric experiments.  The point 1 = e^{i0} belongs
to E for every kind.

Kinds
-----
full        the whole circle
arc         a closed arc [a, b] with a <= 0 <= b
point       the singleton {1} (degenerate single-point set)
geometric   angles 2^-n, n >= 0, accumulating at 0
doubly_exp  angles 2^-(2^n), n >= 0, plus the window anchor 1
beta        angles exp(-n^(1-beta)), n >= 1, plus the anchor 1, beta in [0, 1/2]
cantor      the middle-thirds set at a finite generation depth (1..38),
            with exact rational gap endpoints k / 3^N

Distances are Euclidean (chordal).  Chord and arc-length differ by a factor
in [2/pi, 1], so every divergence criterion is insensitive to the choice.
distance_to_set takes arrays of points; kink_angles lists the angles where
the distance along the circle has corners, for quadrature break points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError, UsageError

KINDS = ("full", "arc", "point", "geometric", "doubly_exp", "beta", "cantor")

MAX_CANTOR_DEPTH = 38  # 3^38 < 2^63, gap endpoints stay exact in 64-bit terms
_MAX_ARC_LIST = 1 << 21
_MAX_KINK_GAPS = 1 << 13  # Cantor gaps are exact fractions: listing more is slow

# Smallest angle the point-sequence rules can represent in float64 with slack.
_ENUM_FLOOR = 1e-290


@dataclass(frozen=True)
class Arc:
    """An open complementary arc (a, b) in window angles, 0 <= a < b <= 1.

    Cantor arcs carry exact rational endpoints alongside the floats.
    """

    a: float
    b: float
    a_exact: Fraction | None = None
    b_exact: Fraction | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < self.b <= 1.0 + 1e-12):
            raise DomainError(f"invalid arc ({self.a!r}, {self.b!r})")


@dataclass(frozen=True)
class BoundarySet:
    kind: str
    beta: float | None = None
    depth: int | None = None
    a: float | None = None
    b: float | None = None
    mirror: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DomainError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "beta":
            if self.beta is None or not (0.0 <= self.beta <= 0.5):
                raise DomainError("beta kind requires beta in [0, 1/2]")
        elif self.beta is not None:
            raise DomainError("beta parameter only valid for kind 'beta'")
        if self.kind == "cantor":
            if self.depth is None or not (1 <= self.depth):
                raise DomainError("cantor kind requires depth >= 1")
            if self.depth > MAX_CANTOR_DEPTH:
                raise CapacityError(f"cantor depth {self.depth} exceeds {MAX_CANTOR_DEPTH}")
        elif self.depth is not None:
            raise DomainError("depth parameter only valid for kind 'cantor'")
        if self.kind == "arc":
            if self.a is None or self.b is None or not (self.a <= 0.0 <= self.b) or self.a == self.b == 0:
                raise DomainError("arc kind requires a <= 0 <= b, not both zero (use 'point')")
        elif self.a is not None or self.b is not None:
            raise DomainError("a/b parameters only valid for kind 'arc'")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def full_circle() -> "BoundarySet":
        return BoundarySet("full")

    @staticmethod
    def single_arc(a: float, b: float, mirror: bool = False) -> "BoundarySet":
        return BoundarySet("arc", a=a, b=b, mirror=mirror)

    @staticmethod
    def single_point(mirror: bool = False) -> "BoundarySet":
        return BoundarySet("point", mirror=mirror)

    @staticmethod
    def geometric(mirror: bool = False) -> "BoundarySet":
        return BoundarySet("geometric", mirror=mirror)

    @staticmethod
    def doubly_exp(mirror: bool = False) -> "BoundarySet":
        return BoundarySet("doubly_exp", mirror=mirror)

    @staticmethod
    def beta_points(beta: float, mirror: bool = False) -> "BoundarySet":
        return BoundarySet("beta", beta=beta, mirror=mirror)

    @staticmethod
    def cantor(depth: int, mirror: bool = False) -> "BoundarySet":
        return BoundarySet("cantor", depth=depth, mirror=mirror)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.beta is not None:
            out["beta"] = self.beta
        if self.depth is not None:
            out["depth"] = self.depth
        if self.a is not None:
            out["a"] = self.a
            out["b"] = self.b
        if self.mirror:
            out["mirror"] = True
        return out

    @staticmethod
    def from_json(obj: dict) -> "BoundarySet":
        if not isinstance(obj, dict):
            raise UsageError("set config must be a JSON object")
        allowed = {"kind", "beta", "depth", "a", "b", "mirror"}
        unknown = set(obj) - allowed
        if unknown:
            raise UsageError(f"unknown set config fields: {sorted(unknown)}")
        if "kind" not in obj:
            raise UsageError("set config requires 'kind'")
        kwargs = {k: obj[k] for k in ("beta", "depth", "a", "b", "mirror") if k in obj}
        return BoundarySet(obj["kind"], **kwargs)


# ---------------------------------------------------------------------------
# point-sequence rules


def _beta_angle(beta: float, n) -> np.ndarray:
    return np.exp(-np.asarray(n, dtype=float) ** (1.0 - beta))


def _sequence_points_desc(bset: BoundarySet, floor: float) -> np.ndarray:
    """E-point angles of a point-sequence kind, descending, down to >= floor."""
    if floor <= 0.0:
        raise UsageError("point-sequence enumeration needs a positive cutoff")
    floor = max(floor, _ENUM_FLOOR)
    if bset.kind == "geometric":
        n_max = int(math.floor(-math.log2(floor))) + 1
        pts = 2.0 ** -np.arange(0, n_max + 1)
    elif bset.kind == "doubly_exp":
        m_max = int(math.ceil(math.log2(max(1.0, -math.log2(floor))))) + 1
        pts = np.concatenate(([1.0], 2.0 ** -(2.0 ** np.arange(0, m_max + 1))))
    elif bset.kind == "beta":
        u_max = math.log(1.0 / floor)
        n_max = int(math.ceil(u_max ** (1.0 / (1.0 - bset.beta)))) + 1
        pts = np.concatenate(([1.0], _beta_angle(bset.beta, np.arange(1, n_max + 1))))
    else:
        raise UsageError(f"{bset.kind!r} is not a point-sequence kind")
    pts = pts[pts > 0.0]
    keep = pts >= floor
    # include one point below the floor so the straddling gap is closed
    idx = int(np.sum(keep))
    return pts[: min(len(pts), idx + 1)]


# ---------------------------------------------------------------------------
# Cantor machinery (exact integer endpoints over 3^g)


def _cantor_gaps(depth: int, cutoff: float, limit: int = _MAX_ARC_LIST):
    """All middle-third gaps of generations 1..depth with b >= cutoff.

    Yields (a_num, b_num, g) with endpoints a_num/3^g, b_num/3^g, exact.
    A subtree over [lo, hi] is pruned when hi < cutoff: every gap it contains
    lies below the cutoff.
    """
    out = []

    def rec(lo_num: int, g_den: int, g: int) -> None:
        # current interval [lo_num, lo_num + 1] / 3^g_den of F_{g_den}
        if g > depth:
            return
        # child structure at generation g: interval splits in thirds
        lo3 = 3 * lo_num
        den = g_den + 1
        scale = 3.0 ** -den
        # gap (lo3+1, lo3+2)/3^g; open arcs meet [cutoff, 1] only when b > cutoff
        if (lo3 + 2) * scale > cutoff:
            out.append((lo3 + 1, lo3 + 2, g))
            if len(out) > limit:
                raise CapacityError("cantor arc enumeration exceeds the list capacity; use a larger cutoff")
        # left child [lo3, lo3+1], right child [lo3+2, lo3+3]
        if (lo3 + 1) * scale > cutoff:
            rec(lo3, den, g + 1)
        if (lo3 + 3) * scale > cutoff:
            rec(lo3 + 2, den, g + 1)

    rec(0, 0, 1)
    return out


def cantor_nonshort_candidates(depth: int, b_max_of_gen, hard_floor: float = 0.0):
    """Exact DFS enumeration of generation-g gaps with b <= b_max_of_gen(g).

    b_max_of_gen(g) must upper-bound the right endpoint below which a gap can
    be anything but short; gaps above it are guaranteed short.  Returns
    (a_num, b_num, g) triples with b >= hard_floor.
    """
    out = []
    for g in range(1, depth + 1):
        den = 3.0**-g
        # prefix digits d_1..d_{g-1} in {0,2}; b = prefix + 2*3^-g
        cap_num = max(float(b_max_of_gen(g)), 0.0) / den  # numerator bound at denom 3^g

        def rec(prefix_num: int, i: int) -> None:
            if prefix_num + 2 > cap_num:
                return
            if len(out) > 200_000:
                raise CapacityError("non-short candidate enumeration exploded; threshold bound is wrong")
            if i == g:
                b = (prefix_num + 2) * den
                if b >= hard_floor:
                    out.append((prefix_num + 1, prefix_num + 2, g))
                return
            rec(prefix_num, i + 1)
            rec(prefix_num + 2 * 3 ** (g - i), i + 1)

        rec(0, 1)
    return out


def cantor_measure(depth: int, x: float) -> float:
    """Lebesgue measure of F_depth intersected with [0, x] (exact walk)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return (2.0 / 3.0) ** depth
    m = 0.0
    lo, hi = 0.0, 1.0
    remaining = depth
    while True:
        if remaining == 0:
            m += max(0.0, min(x, hi) - lo)
            return m
        third = (hi - lo) / 3.0
        child = third * (2.0 / 3.0) ** (remaining - 1)
        if x >= hi - third:
            m += child
            lo = hi - third
            remaining -= 1
        elif x <= lo + third:
            hi = lo + third
            remaining -= 1
        else:
            m += child  # left child lies entirely below x
            return m


def _cantor_locate(depth: int, theta: float):
    """Walk theta through the construction; return ('set',) or ('gap', a, b)."""
    lo, hi = 0.0, 1.0
    for _ in range(depth):
        third = (hi - lo) / 3.0
        g_lo, g_hi = lo + third, hi - third
        if theta < g_lo:
            hi = g_lo
        elif theta > g_hi:
            lo = g_hi
        elif theta == g_lo or theta == g_hi:
            return ("set",)
        else:
            return ("gap", g_lo, g_hi)
    return ("set",)


# ---------------------------------------------------------------------------
# complementary arcs


def _window_arcs_exact(bset: BoundarySet, cutoff: float) -> list[Arc]:
    if bset.kind == "full":
        return []
    if bset.kind == "arc":
        b = float(bset.b)
        if b >= 1.0:
            return []
        return [Arc(b, 1.0)] if 1.0 >= cutoff else []
    if bset.kind == "point":
        return [Arc(0.0, 1.0)] if 1.0 >= cutoff else []
    if bset.kind == "cantor":
        gaps = _cantor_gaps(bset.depth, cutoff)
        arcs = []
        for a_num, b_num, g in gaps:
            den = 3**g
            arcs.append(
                Arc(a_num / den, b_num / den, a_exact=Fraction(a_num, den), b_exact=Fraction(b_num, den))
            )
        return arcs
    pts = _sequence_points_desc(bset, cutoff)
    arcs = []
    for hi_pt, lo_pt in zip(pts[:-1], pts[1:]):
        if hi_pt > cutoff and lo_pt < hi_pt:
            arcs.append(Arc(float(lo_pt), float(hi_pt)))
    return arcs


def complementary_arcs(bset: BoundarySet, cutoff: float) -> list[Arc]:
    """Complementary window arcs meeting [cutoff, 1], sorted by decreasing b.

    An open arc meets [cutoff, 1] exactly when b > cutoff.  cutoff = 0 is
    accepted for kinds with finitely many window arcs (full/arc/point/cantor);
    point sequences require cutoff > 0.
    """
    if cutoff < 0.0:
        raise UsageError("cutoff must be nonnegative")
    if cutoff == 0.0 and bset.kind in ("geometric", "doubly_exp", "beta"):
        raise UsageError("cutoff must be positive for point-sequence kinds")
    arcs = _window_arcs_exact(bset, cutoff)
    if len(arcs) > _MAX_ARC_LIST:
        raise CapacityError("arc list capacity exceeded; raise the cutoff")
    return sorted(arcs, key=lambda arc: -arc.b)


def arc_arrays(bset: BoundarySet, cutoff: float):
    """(a, b) endpoint arrays of the complementary arcs with b >= cutoff.

    Vectorized companion of complementary_arcs for criterion-scale sweeps.
    """
    if bset.kind in ("geometric", "doubly_exp", "beta"):
        pts = _sequence_points_desc(bset, cutoff)
        return np.asarray(pts[1:], dtype=float), np.asarray(pts[:-1], dtype=float)
    arcs = complementary_arcs(bset, cutoff)
    return (
        np.asarray([arc.a for arc in arcs], dtype=float),
        np.asarray([arc.b for arc in arcs], dtype=float),
    )


# ---------------------------------------------------------------------------
# distance and measure


def _candidate_angles(bset: BoundarySet, theta: np.ndarray) -> np.ndarray:
    """Angles of E-points near each theta, one row per angle.

    Nearest-in-angle is nearest-in-chord, so the distance is the least chord
    to a row's candidates.  Rows are padded by repeating a candidate.
    """
    if bset.kind == "arc":
        inside = (bset.a <= theta) & (theta <= bset.b)
        return np.stack([np.where(inside, theta, bset.a), np.where(inside, theta, bset.b)], axis=-1)
    zero = np.zeros_like(theta)
    if bset.kind == "point":
        return zero[..., None]
    if bset.kind == "cantor":
        near = np.empty(theta.shape + (2,))
        for i, t in np.ndenumerate(theta):
            loc = _cantor_locate(bset.depth, t) if 0.0 <= t <= 1.0 else ("gap", 0.0, 0.0)
            near[i] = (t, t) if loc[0] == "set" else loc[1:]
        return np.concatenate([np.stack([zero, zero + 1.0], axis=-1), near], axis=-1)
    # point sequences: invert the rule and take a small index neighborhood
    inside = (theta > 0.0) & (theta < 1.0)
    u = np.log(1.0 / np.clip(theta, _ENUM_FLOOR, 1.0))
    j = np.arange(-2, 3)
    if bset.kind == "geometric":
        n = np.maximum(0, np.floor(u / math.log(2.0)).astype(int)[..., None] + j)
        near = np.ldexp(1.0, -n)
    elif bset.kind == "doubly_exp":
        m0 = np.log2(np.maximum(u / math.log(2.0), 1.0))
        near = np.ldexp(1.0, -(2 ** np.maximum(0, np.floor(m0).astype(int)[..., None] + j)))
    else:
        n0 = u ** (1.0 / (1.0 - bset.beta))
        near = _beta_angle(bset.beta, np.maximum(1, np.floor(n0)[..., None] + j))
    near = np.where(inside[..., None], near, 0.0)
    return np.concatenate([np.stack([zero, zero + 1.0], axis=-1), near], axis=-1)


def distance_to_set(bset: BoundarySet, z):
    """Euclidean distance from z (|z| <= 1) to E; z may be a numpy array."""
    zs = np.asarray(z, dtype=complex)
    x, y = zs.real, zs.imag
    r = np.hypot(x, y)
    if np.count_nonzero(r > 1.0 + 1e-12):
        raise DomainError(f"|z| must be <= 1, got {np.max(r)!r}")
    if bset.kind == "full":
        d = np.abs(1.0 - r)
    else:
        theta = np.arctan2(y, x)
        if bset.mirror and bset.kind != "arc":
            theta, y = np.abs(theta), np.abs(y)
        eta = _candidate_angles(bset, theta)
        d = np.hypot(x[..., None] - np.cos(eta), y[..., None] - np.sin(eta)).min(axis=-1)
    return float(d) if d.ndim == 0 else d


def kink_angles(bset: BoundarySet, floor: float) -> np.ndarray:
    """Angles theta with floor <= |theta| < pi where dist(e^{i theta}, E) has a corner.

    These are the ends of E's complementary arcs and the arcs' midpoints.
    The window arcs come from arc_arrays; a Cantor set with more than
    _MAX_KINK_GAPS gaps raises CapacityError before they are enumerated.
    The outer gap from the window end 1 round to 0 has its midpoint at
    0.5 - pi, or at pi for a mirrored set.
    """
    if bset.kind in ("full", "point"):
        return np.empty(0)
    if bset.kind == "arc":
        mid = 0.5 * (bset.a + bset.b) + math.pi
        pts = np.array([bset.a, bset.b, mid - 2.0 * math.pi if mid > math.pi else mid])
    else:
        if bset.kind == "cantor" and 2**bset.depth > _MAX_KINK_GAPS:
            raise CapacityError(f"cantor depth {bset.depth} has more than {_MAX_KINK_GAPS} gaps")
        a, b = arc_arrays(bset, floor)
        pts = np.concatenate([a, b, 0.5 * (a + b)])
        pts = np.concatenate([pts, -pts]) if bset.mirror else np.append(pts, 0.5 - math.pi)
    pts = np.unique(pts)
    return pts[(np.abs(pts) >= floor) & (np.abs(pts) < math.pi)]


def measure_complement(bset: BoundarySet, eps: float) -> float:
    """Total angular length of the complementary window arcs inside [eps, 1]."""
    if not (0.0 <= eps < 1.0):
        raise UsageError("eps must lie in [0, 1)")
    if bset.kind == "full":
        return 0.0
    if bset.kind == "arc":
        b = min(float(bset.b), 1.0)
        return max(0.0, 1.0 - max(b, eps))
    if bset.kind == "cantor":
        e_mass = cantor_measure(bset.depth, 1.0) - cantor_measure(bset.depth, eps)
        return max(0.0, (1.0 - eps) - e_mass)
    # countable kinds: E has measure zero
    return 1.0 - eps
