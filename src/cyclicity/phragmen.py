"""Cross-section lengths, growth integrals, and a Monte Carlo harmonic measure oracle.

Two unbounded domain shapes are supported:

* cartesian: G = {x + iy : x >= 0, |y| <= phi(x)} for an increasing profile phi
* sector:    G = {R e^{i theta} : |theta| < pi/2 - phi(R)} for an opening
             deficiency phi(R) in [0, pi/2)

The cross-section length s(r) of the circle |z| = r inside G feeds the
comparison quantity sigma(rho) = exp(pi * int_1^rho dr / s(r)), taken in
v = log r by geometry's Gauss-Legendre rule with its error estimate;
walk-on-spheres estimates the harmonic measure of the circular cross-section
at |z| = rho independently, to validate the decay rate exp(-pi int dr/s).

Walk-on-spheres steps move by g/|g| for a standard normal pair g (an exactly
uniform angle, no trigonometry) over inscribed-disc radii that are exact for
half planes, constant-opening sectors, the wedge |y| <= x and the half strips
|y| <= c (const1 is const at level 1), and lower bounds otherwise: the
distance to the tangent line at (x, x^2) for the profile x^2, and for invlog
the distance to the static sector beyond a radius between the walker and
where the opening reaches its angle.  A lower bound keeps the walk law
exact, it only costs steps.

The JSON config of a DomainProfile nests its value as params: {"value": x},
as every echoed config and its hash do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from . import geometry as geo
from .errors import DomainError, NumericError, UsageError

VARIANTS = ("cartesian", "sector")
PHI_NAMES = ("x", "x2", "const1", "const", "invlog")

_WOS_TOL_FACTOR = 1e-4
_WOS_MAX_STEPS = 100_000
_BLOCK = 4096
_GRADES = 40  # sigma panels halving toward the lower end; the last is 2^-40 of the first


@dataclass(frozen=True)
class DomainProfile(config.JsonConfig, what="profile"):
    variant: str
    phi: str
    value: float | None = None  # constant for phi == "const"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.phi not in PHI_NAMES:
            raise DomainError(f"unknown phi handle {self.phi!r}")
        if self.phi == "const":
            if self.value is None or self.value < 0.0:
                raise DomainError("phi 'const' needs a nonnegative value")
            if self.variant == "cartesian" and self.value == 0.0:
                raise DomainError("cartesian phi 'const' needs a value > 0 (level 0 is a ray)")
            if self.variant == "sector" and self.value >= math.pi / 2:
                raise DomainError("sector opening deficiency must be < pi/2")
        elif self.value is not None:
            raise DomainError("value parameter only valid for phi 'const'")
        if self.variant == "sector" and self.phi in ("x", "x2"):
            raise DomainError(f"phi {self.phi!r} is a cartesian profile")
        if self.variant == "cartesian" and self.phi == "invlog":
            raise DomainError("phi 'invlog' is a sector profile")

    # -- profile function ----------------------------------------------------

    def phi_at(self, v):
        """phi at a point or an array of points; const1 is const at level 1."""
        if self.phi == "x":
            return v
        if self.phi == "x2":
            return v * v
        if self.phi in ("const1", "const"):
            return 1.0 if self.value is None else float(self.value)
        # opening deficiency 1/log R, valid where it is < pi/2
        if np.any(np.asarray(v) <= self.r_min()):
            raise DomainError(f"invlog profile needs R > {self.r_min()!r}")
        return 1.0 / np.log(v)

    def r_min(self) -> float:
        """Radius below which the sector-variant domain is empty."""
        if self.variant == "sector" and self.phi == "invlog":
            return math.exp(2.0 / math.pi)
        return 0.0

    def contains(self, z: complex) -> bool:
        x, y = z.real, z.imag
        if self.variant == "cartesian":
            return x >= 0.0 and abs(y) <= self.phi_at(x)
        r = abs(z)
        if r <= self.r_min():
            return False
        return abs(math.atan2(y, x)) < math.pi / 2 - self.phi_at(r)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        out = super().to_json()
        if "value" in out:
            out["params"] = {"value": out.pop("value")}
        return out

    @classmethod
    def from_json(cls, obj) -> "DomainProfile":
        """The profile of {"variant", "phi", "params": {"value": x}}; value is read from params alone."""
        if isinstance(obj, dict):
            if "value" in obj:
                raise UsageError(f"unknown profile config fields: {sorted(set(obj) - {'variant', 'phi', 'params'})}")
            params = obj.get("params", {})
            if not isinstance(params, dict) or set(params) - {"value"}:
                raise UsageError("profile params may only carry 'value'")
            obj = {k: v for k, v in obj.items() if k != "params"} | params
        return super().from_json(obj)


# ---------------------------------------------------------------------------
# cross sections and growth integrals


def arc_length_s(profile: DomainProfile, r):
    """Length s(r) of the cross-section arc of |z| = r inside the domain.

    Cartesian: with x(r) solving x^2 + phi(x)^2 = r^2 in closed form,
    s(r) = 2r arctan(phi(x)/x); on a half strip |y| <= c, x = 0 for r <= c,
    where the circle's right half lies in the strip and s = pi r.
    Sector: s(r) = r (pi - 2 phi(r)).  One path: a scalar r gives a float.
    """
    rs = np.array(r, dtype=float, ndmin=1, copy=None)
    if np.count_nonzero(rs <= 0.0):
        raise DomainError(f"circle r={float(rs[rs <= 0.0][0])!r} does not cross the domain")
    if profile.variant == "sector":
        s = rs * (math.pi - 2.0 * profile.phi_at(rs))  # phi_at refuses r <= r_min
    else:
        if profile.phi == "x":
            x = rs / math.sqrt(2.0)
        elif profile.phi == "x2":
            x = rs * np.sqrt(2.0 / (1.0 + np.hypot(1.0, 2.0 * rs)))
        else:
            c = profile.phi_at(0.0)
            x = np.sqrt(np.maximum(rs - c, 0.0)) * np.sqrt(rs + c)
        s = 2.0 * rs * np.arctan2(profile.phi_at(x), x)
    return float(s[0]) if np.ndim(r) == 0 else s


def sigma(profile: DomainProfile, rho: float) -> float:
    """Comparison quantity exp(pi int_lo^rho dr / s(r)); rho^2 must be finite.

    lo = max(1, r_min (1 + 1e-9)).  pi int r/s dv in v = log r by
    geometry.log_rule, on geometry.uniform_panels plus panels graded by
    powers of 2 toward v0 = log of the half strip's corner r = c clamped to [lo, rho],
    or toward lo on the other profiles (the strip's square-root corner, the
    invlog pole just below lo); below the corner s = pi r, and one panel
    from lo to v0 integrates the constant exactly.  NumericError if the
    rule's error estimate exceeds 1e-6 of the integral or sigma overflows.
    """
    rho = float(rho)
    if not math.isfinite(rho * rho):
        raise DomainError(f"rho must be finite with a finite square, got {rho!r}")
    lo = max(1.0, profile.r_min() * (1.0 + 1e-9))
    if rho < lo:
        raise DomainError(f"rho must be >= {lo!r}")
    corner = profile.phi_at(0.0) if profile.variant == "cartesian" else lo
    v_lo, v0, v_hi = math.log(lo), math.log(min(max(corner, lo), rho)), math.log(rho)
    uniform = geo.uniform_panels(v0, v_hi)
    graded = v0 + (uniform[1] - v0) * 0.5 ** np.arange(1, _GRADES + 1)
    v, fine, coarse = geo.log_rule(np.concatenate([[v_lo], uniform, graded]))
    r = np.exp(v)
    val, err = (float(x) for x in geo.rule_sum(math.pi * r / arc_length_s(profile, r), fine, coarse))
    if not err <= 1e-6 * val:
        raise NumericError(f"sigma quadrature error estimate {err!r} exceeds 1e-6 of "
                           f"pi int dr/s = {val!r} at rho = {rho!r}")
    try:
        return math.exp(val)
    except OverflowError:
        raise NumericError(f"sigma overflows: pi int dr/s = {val!r} at rho = {rho!r}") from None


# ---------------------------------------------------------------------------
# walk-on-spheres harmonic measure


def _boundary_distance(profile: DomainProfile, x: np.ndarray, y: np.ndarray,
                       xx: np.ndarray) -> np.ndarray:
    """Lower bound for the distance to the lateral boundary (vectorized); xx is x * x."""
    if profile.phi in ("const1", "const"):
        c = profile.phi_at(0.0)
        if profile.variant == "sector":  # r sin(beta - theta), exact as beta = pi/2 - c <= pi/2
            return x * math.cos(c) - np.abs(y) * math.sin(c)
        return np.minimum(x, c - np.abs(y))
    if profile.variant == "sector":
        r = np.hypot(x, y)
        gap, log_r = math.pi / 2 - np.abs(np.arctan2(y, x)), np.log(r)
        # invlog: the opening beta(R) = pi/2 - 1/log R widens with R and meets
        # the walker's angle at R_theta = exp(1/gap) < r; beyond rho0, halfway
        # from R_theta to r, the domain holds the static sector of opening
        # beta(rho0) > theta (R_theta is clipped at r, keeping exp finite)
        rho0 = 0.5 * (r + np.exp(log_r / np.maximum(gap * log_r, 1.0)))
        ang = r * np.sin(np.minimum(gap - 1.0 / np.log(rho0), math.pi / 2))
        return np.minimum(ang, r - rho0)
    if profile.phi == "x":
        # the wedge |y| <= x: distance to the nearer of the lines y = +-x
        return np.maximum(x - np.abs(y), 0.0) * math.sqrt(0.5)
    # phi = x^2: distance to the tangent line at (x, x^2), which supports the
    # convex set {y >= x^2}; 0.25 + x^2 stays finite where x^2 does
    gap = np.maximum(xx - np.abs(y), 0.0)
    return 0.5 * gap / np.sqrt(0.25 + xx)


@dataclass(frozen=True)
class HarmonicMeasureEstimate:
    mean: float
    standard_error: float
    paths: int
    seed: int
    rho: float
    capped_paths: int


def _walk(profile: DomainProfile, z0: complex, rho: float, paths: int, seed: int, tol: float):
    """(hits, capped) of harmonic_measure_mc's walk: the live walkers of
    consecutive blocks share one set of arrays, in block order, so the
    oldest block's walkers lead them."""
    x = y = np.empty(0)
    owner = np.empty(0, dtype=np.intp)  # block index of each live walker
    window = []  # (block index, generator, clock at admission) of the blocks with live walkers
    admitted = hits = capped = clock = 0
    while True:
        while x.size < _BLOCK and admitted * _BLOCK < paths:
            n = min(_BLOCK, paths - admitted * _BLOCK)
            rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(admitted,))))
            window.append((admitted, rng, clock))
            x = np.concatenate((x, np.full(n, z0.real)))
            y = np.concatenate((y, np.full(n, z0.imag)))
            owner = np.concatenate((owner, np.full(n, admitted)))
            admitted += 1
        if not window:
            return hits, capped
        xx = x * x
        d_side = _boundary_distance(profile, x, y, xx)
        d_circ = rho - np.sqrt(xx + y * y)
        step = np.minimum(d_side, d_circ)
        absorbed = step < tol
        hits += int(np.count_nonzero(absorbed & (d_circ <= d_side)))
        keep = np.flatnonzero(~absorbed)
        x, y, step, owner = x.take(keep), y.take(keep), step.take(keep), owner.take(keep)
        live = np.bincount(owner, minlength=admitted).tolist()
        window = [w for w in window if live[w[0]]]
        if window:
            gx, gy = np.concatenate([rng.standard_normal((2, live[b])) for b, rng, _ in window], axis=1)
            step /= np.sqrt(gx * gx + gy * gy)
            x += step * gx
            y += step * gy
        clock += 1
        # walkers left after _WOS_MAX_STEPS steps of their block count as lateral-boundary hits
        while window and clock - window[0][2] >= _WOS_MAX_STEPS:
            n = live[window.pop(0)[0]]
            capped += n
            x, y, owner = x[n:], y[n:], owner[n:]


def harmonic_measure_mc(profile: DomainProfile, z0: complex, rho: float,
                        paths: int, seed: int) -> HarmonicMeasureEstimate:
    """Probability that Brownian motion from z0 exits through |z| = rho.

    Walk-on-spheres with absorption tolerance 1e-4 * rho; deterministic for a
    given seed: every block of 4096 paths draws its normal pairs from its own
    SFC64 generator, seeded by SeedSequence(seed, spawn_key=(block,)).  The
    blocks step together through one window of at most 2 * 4096 - 1 live
    walkers, the next block entering whenever fewer than 4096 are live, and
    each block draws the sizes, in the order, that it would draw alone.
    Walkers still live after 100,000 steps count as lateral-boundary hits
    and as capped_paths.  rho and rho^2 must be finite.
    """
    z0 = complex(z0)
    rho = float(rho)
    paths = int(paths)
    if paths < 10_000:
        raise UsageError("need at least 1e4 paths")
    if not math.isfinite(rho * rho):
        raise DomainError(f"rho must be finite with a finite square, got {rho!r}")
    if not profile.contains(z0):
        raise DomainError(f"z0={z0!r} is not inside the domain")
    if abs(z0) >= rho / 2.0:
        raise DomainError("need |z0| < rho/2")
    hits, capped = _walk(profile, z0, rho, paths, seed, _WOS_TOL_FACTOR * rho)
    p = hits / paths
    se = math.sqrt(max(p * (1.0 - p), 1.0 / paths) / paths)
    return HarmonicMeasureEstimate(mean=p, standard_error=se, paths=paths,
                                   seed=seed, rho=rho, capped_paths=capped)
