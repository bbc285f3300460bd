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
cantor      the middle-thirds set at a finite generation depth (1..38);
            its gap ends are integer numerators over 3^g, exact in int64,
            and every float end of a Cantor gap or interval, here and in
            the criterion, is cantor_ends' correctly rounded num / 3^g

The fields of BoundarySet are its JSON config: BoundarySet("cantor",
depth=20) is {"kind": "cantor", "depth": 20}.  Each point-sequence kind has
one rule, _sequence_rule, for its points and their nearest-point search.
arc_blocks is the one arc enumerator for every kind: it gives the arcs in
blocks of a chosen size, and a point sequence computes each block from its
own range of point indices, so its memory is bounded by the block size and
not by the arc count (about 4 * 10^5 arcs on beta = 1/2 near the floor).
The criterion engine and its per-arc listing take the arcs block by block.
arc_arrays is all of them in one block, capped at _MAX_ARC_LIST arcs, and
complementary_arcs its list-of-Arc view.

Distances are Euclidean (chordal).  Chord and arc-length differ by a factor
in [2/pi, 1], so every divergence criterion is insensitive to the choice.
Scalars and arrays share one path: distance_to_set and cantor_measure take
either and give a float for a scalar.  kink_angles lists the angles where
the distance along the circle has corners, for quadrature break points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import CapacityError, DomainError, UsageError

KINDS = ("full", "arc", "point", "geometric", "doubly_exp", "beta", "cantor")

MAX_CANTOR_DEPTH = 38  # 3^38 < 2^63, gap endpoints stay exact in 64-bit terms
_EXACT_GEN = 33  # 3^33 < 2^53: up to here num and 3^gen are exact floats
_POW3 = np.array([float(3**g) for g in range(_EXACT_GEN + 1)])
_MAX_ARC_LIST = 1 << 21
# deeper Cantor sets give the gamma quadrature no kink breaks; lifting the
# bound would change its panels (geometry.panel_edges) on those sets
_MAX_KINK_GAPS = 1 << 13

# Smallest angle the point-sequence rules can represent in float64 with slack.
_ENUM_FLOOR = 1e-290


@dataclass(frozen=True)
class Arc:
    """An open complementary arc (a, b) in window angles, 0 <= a < b <= 1."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < self.b <= 1.0 + 1e-12):
            raise DomainError(f"invalid arc ({self.a!r}, {self.b!r})")


@dataclass(frozen=True)
class BoundarySet(config.JsonConfig, what="set"):
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


# ---------------------------------------------------------------------------
# point-sequence rules


def _sequence_rule(bset: BoundarySet):
    """(angle(n), index(u), first) of a point-sequence kind.

    The E-points below the anchor 1 are angle(n) for integers n >= first,
    decreasing in n; index inverts angle in u = log(1/theta), so that
    angle(index(u)) = e^-u and the points per unit of u are index'(u).
    """
    if bset.kind == "geometric":  # angle(0) is the anchor itself
        return (lambda n: np.ldexp(1.0, -n)), (lambda u: u / math.log(2.0)), 1
    if bset.kind == "doubly_exp":
        return (lambda n: np.ldexp(1.0, -(2**n))), (lambda u: np.log2(np.maximum(u / math.log(2.0), 1.0))), 0
    if bset.kind == "beta":
        e = 1.0 - bset.beta
        return (lambda n: np.exp(-np.asarray(n, dtype=float) ** e)), (lambda u: u ** (1.0 / e)), 1
    raise UsageError(f"{bset.kind!r} is not a point-sequence kind")


def _sequence_blocks(bset: BoundarySet, cutoff: float, size: int):
    """The window arcs of a point-sequence kind with b > cutoff, as (a, b)
    blocks of at most size arcs, each computed from its own index range.

    The points, descending, are the anchor 1 and then the positive angle(n)
    for first <= n <= ceil(index(log(1/cutoff))) + 1; each arc runs between
    consecutive points, and the last one listed ends at the first point at
    or below the cutoff.
    """
    if cutoff >= 1.0:  # b <= 1 on every arc
        return
    angle, index, first = _sequence_rule(bset)
    n_end = int(math.ceil(index(math.log(1.0 / cutoff)))) + 2
    top = 1.0  # the point above the block's arcs
    for n in range(first, n_end, size):
        pts = angle(np.arange(n, min(n + size, n_end)))
        pts = np.concatenate(([top], pts[pts > 0.0]))
        k = np.count_nonzero(pts[:-1] > cutoff)  # points decrease, so these arcs come first
        if k:
            yield pts[1:k + 1], pts[:k]
        if k < size:
            return
        top = pts[-1]


# ---------------------------------------------------------------------------
# Cantor machinery: every Cantor quantity comes from one walk, cantor_walk,
# and every float end of a gap or interval from one rule, cantor_ends


def cantor_ends(num: np.ndarray, gen):
    """(num / 3^gen, (num + 1) / 3^gen), each correctly rounded: the float
    ends of the Cantor gaps or intervals (num, num + 1) / 3^gen.

    gen is one generation or an array like num.  Up to _EXACT_GEN, num and
    3^gen are exact floats, so one IEEE division is the correctly rounded
    quotient; deeper ends are quotients of Python ints.
    """
    if not isinstance(gen, np.ndarray) and gen <= _EXACT_GEN:  # divide by one exact scalar
        return num / _POW3[gen], (num + 1) / _POW3[gen]
    gen = np.broadcast_to(gen, num.shape)
    den = _POW3[np.minimum(gen, _EXACT_GEN)]
    ends = num / den, (num + 1) / den
    deep = np.flatnonzero(gen > _EXACT_GEN)
    exact = (3 ** gen[deep]).tolist()  # exact in int64
    for end, k in zip(ends, (num[deep], num[deep] + 1)):
        end[deep] = [n / d for n, d in zip(k.tolist(), exact)]
    return ends


def cantor_generation(x: float) -> int:
    """The generation of the scale x: ceil(log(1/x) / log 3), the first g
    with 3^-g <= x up to rounding."""
    return int(math.ceil(math.log(1.0 / x) / math.log(3.0)))


def cantor_walk(depth: int, children, owner=None):
    """Walk the construction of F_depth one generation at a time.

    The live intervals of generation g are [num, num + 1] / 3^g, int64 and
    exact (3^38 < 2^63); owner[i] names the query that interval i serves (one
    owner, 0, by default).  At each g < depth, children(g, num, owner) returns
    two masks: whose left child [3 num, 3 num + 1] and whose right child
    [3 num + 2, 3 num + 3] go on.  Returns (num, owner) at generation depth.
    """
    owner = np.zeros(1, dtype=np.intp) if owner is None else owner
    num = np.zeros(owner.size, dtype=np.int64)
    for g in range(depth):
        left, right = children(g, num, owner)
        num = np.concatenate((3 * num[left], 3 * num[right] + 2))
        owner = np.concatenate((owner[left], owner[right]))
    return num, owner


def _gap_walk(depth: int, step, limit: int, overflow: str):
    """(num, gen) of the gaps (num, num + 1) / 3^gen taken by step(g, num), which
    picks, among the live generation-g intervals [num, num + 1] / 3^g, whose gap
    (3 num + 1, 3 num + 2) / 3^(g + 1) is taken and whose children go on."""
    nums, gens = [], []

    def children(g, num, _owner):
        take, walk_on = step(g, num)
        nums.append(3 * num[take] + 1)
        gens.append(np.full(nums[-1].size, g + 1))
        if sum(map(len, nums)) > limit:
            raise CapacityError(overflow)
        return walk_on, walk_on

    cantor_walk(depth, children)
    return np.concatenate(nums), np.concatenate(gens)


def cantor_gaps(depth: int, cutoff: float):
    """(num, gen): the gaps (num, num + 1) / 3^gen of F_depth with b > cutoff."""
    def step(g, num):  # a gap inside an interval ends below it, rounded too
        return cantor_ends(3 * num + 1, g + 1)[1] > cutoff, cantor_ends(num, g)[1] > cutoff

    return _gap_walk(depth, step, _MAX_ARC_LIST, "cantor arc enumeration exceeds the list capacity; use a larger cutoff")


def cantor_nonshort_candidates(depth: int, step):
    """(num, gen) of the gaps that step takes, as in _gap_walk: the criterion's
    walk for a Cantor set's non-short gaps, refused past 200,000 gaps."""
    return _gap_walk(depth, step, 200_000,
                     "cantor non-short gap list exceeds its capacity of 200000; use a smaller depth")


def cantor_locate(depth: int, theta):
    """(a, b, mass) of each angle theta, clipped into [0, 1]: the ends of the
    gap of F_depth holding it ((theta, theta) on F_depth, gap ends included)
    and the measure of F_depth intersected with [0, theta]."""
    t = np.clip(np.asarray(theta, dtype=float), 0.0, 1.0)
    flat = t.ravel()
    found = np.stack([flat, flat, 0.0 * flat])

    def children(g, num, owner):
        x = flat[owner]
        lo, hi = cantor_ends(3 * num + 1, g + 1)
        gap = (lo < x) & (x < hi)
        found[:2, owner[gap]] = lo[gap], hi[gap]
        found[2, owner[x >= lo]] += 3.0 ** -(g + 1) * (2.0 / 3.0) ** (depth - g - 1)  # the left child lies below x
        return x < lo, x > hi

    num, owner = cantor_walk(depth, children, np.arange(flat.size))
    lo, hi = cantor_ends(num, depth)
    found[2, owner] += np.maximum(0.0, np.minimum(flat[owner], hi) - lo)
    return tuple(found.reshape((3,) + t.shape))


def cantor_measure(depth: int, x):
    """Lebesgue measure of F_depth intersected with [0, x]; x may be an array."""
    mass = cantor_locate(depth, x)[2]
    return float(mass) if mass.ndim == 0 else mass


# ---------------------------------------------------------------------------
# complementary arcs


def arc_blocks(bset: BoundarySet, cutoff: float, size: int):
    """The complementary window arcs meeting [cutoff, 1], as (a, b) blocks.

    The one arc enumerator for every set kind.  An open arc meets [cutoff, 1]
    exactly when b > cutoff; the arcs come sorted by decreasing b, in blocks
    of size arcs, the last one shorter.  cutoff = 0 is accepted for kinds
    with finitely many window arcs (full/arc/point/cantor); point sequences
    require cutoff >= _ENUM_FLOOR and raise CapacityError below it.  A
    point sequence computes each block from its own range of point indices,
    so memory is bounded by the block size, not by the arc count; the
    other kinds list at most _MAX_ARC_LIST arcs and slice them.  The
    cutoff is checked on the call, before any block is taken.
    """
    if cutoff < 0.0:
        raise UsageError("cutoff must be nonnegative")
    if bset.kind in ("geometric", "doubly_exp", "beta"):
        if cutoff == 0.0:
            raise UsageError("cutoff must be positive for point-sequence kinds")
        if cutoff < _ENUM_FLOOR:
            raise CapacityError(f"point-sequence enumeration floor is {_ENUM_FLOOR}; use a larger cutoff")
        return _sequence_blocks(bset, cutoff, size)
    if bset.kind == "full" or (bset.kind == "arc" and bset.b >= 1.0):
        a = b = np.empty(0)  # E covers the window
    elif bset.kind in ("arc", "point"):
        a, b = np.array([float(bset.b) if bset.kind == "arc" else 0.0]), np.ones(1)
    else:
        num, gen = cantor_gaps(bset.depth, cutoff)
        a, b = cantor_ends(num, gen)
        # the walk lists gaps by generation; a deep gap (3^g > 2^53) may have
        # coinciding float ends, and then no float angle lies inside it
        order = np.argsort(-b, kind="stable")
        order = order[a[order] < b[order]]
        a, b = a[order], b[order]
    n = np.count_nonzero(b > cutoff)  # b decreases, so these arcs come first
    return ((a[j:j + size], b[j:j + size]) for j in range(0, n, size))


def arc_arrays(bset: BoundarySet, cutoff: float):
    """(a, b) endpoint arrays of the arcs of arc_blocks, all in one block.

    More than _MAX_ARC_LIST arcs raise CapacityError.
    """
    a, b = next(arc_blocks(bset, cutoff, _MAX_ARC_LIST + 1), (np.empty(0), np.empty(0)))
    if a.size > _MAX_ARC_LIST:
        raise CapacityError("arc list capacity exceeded; raise the cutoff")
    return a, b


def complementary_arcs(bset: BoundarySet, cutoff: float) -> list[Arc]:
    """The arcs of arc_arrays as a list of Arc."""
    a, b = arc_arrays(bset, cutoff)
    return [Arc(lo, hi) for lo, hi in zip(a.tolist(), b.tolist())]


# ---------------------------------------------------------------------------
# distances


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
        near = np.stack(cantor_locate(bset.depth, theta)[:2], axis=-1)
        return np.concatenate([np.stack([zero, zero + 1.0], axis=-1), near], axis=-1)
    # point sequences: invert the rule and take a small index neighborhood
    angle, index, first = _sequence_rule(bset)
    n = np.floor(index(np.log(1.0 / np.clip(theta, _ENUM_FLOOR, 1.0)))).astype(int)
    near = angle(np.maximum(first, n[..., None] + np.arange(-2, 3)))
    near = np.where(((theta > 0.0) & (theta < 1.0))[..., None], near, 0.0)
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


def first_of_runs(x: np.ndarray, key: np.ndarray | None = None) -> np.ndarray:
    """x less each element whose key (x by default) equals the one before:
    np.unique's first indices on ordered keys, without its numpy.ma import."""
    key = x if key is None else key
    return np.concatenate((x[:1], x[1:][key[1:] != key[:-1]]))


def kink_angles(bset: BoundarySet, floor: float, sign: float) -> np.ndarray:
    """Angles t with floor <= t < pi where t -> dist(e^{i sign t}, E) has a
    corner, ascending and without repeats.

    These are the ends of E's complementary arcs and the arcs' midpoints.
    The window arcs come from arc_arrays down to max(floor, _ENUM_FLOOR),
    where even beta = 1/2 has far fewer than _MAX_ARC_LIST, so no capacity
    limit is raised.  A Cantor set with more than _MAX_KINK_GAPS gaps lists
    no kinks.  The outer gap from the window end 1 round to 0 has its
    midpoint at pi - 0.5 on the negative side, or at pi for a mirrored set,
    whose two sides have the same kinks.
    """
    if bset.kind in ("full", "point") or (bset.kind == "cantor" and 2**bset.depth > _MAX_KINK_GAPS):
        return np.empty(0)
    if bset.kind == "arc":
        mid = 0.5 * (bset.a + bset.b) + math.pi
        pts = sign * np.array([bset.a, bset.b, mid - 2.0 * math.pi if mid > math.pi else mid])
    elif sign < 0.0 and not bset.mirror:
        pts = np.array([math.pi - 0.5])
    else:
        a, b = arc_arrays(bset, max(floor, _ENUM_FLOOR))
        pts = np.concatenate([a, b, 0.5 * (a + b)])
    pts = first_of_runs(np.sort(pts))
    return pts[(pts >= floor) & (pts < math.pi)]
