"""Cross-check routes that only the tests use: adaptive quadrature and
asymptotic predictors set against the toolkit's closed forms and solvers,
and the paper's objects that no command evaluates (the singular inner
function, the classical condition integrands, the profile height y(x) and
the growth-divergence integrand), the walk-on-spheres estimate run
one block after another, the reference of the windowed walk, and the
witness integrals summed one sample at a time."""

import cmath
import math

import mpmath
import numpy as np
from scipy.integrate import quad

from cyclicity import auxfun, boundary, geometry, weights
from cyclicity.auxfun import WitnessIntegral, herglotz_arc_integral
from cyclicity.criterion import DEFAULT_MARGIN, DivergenceVerdict
from cyclicity.errors import DomainError, NumericError, UsageError
from cyclicity.geometry import increasing_root
from cyclicity.phragmen import DomainProfile, HarmonicMeasureEstimate, _boundary_distance

CONDITION_KINDS = ("nikolski", "gs", "c_beta")


def singular_inner(z: complex) -> complex:
    """S(z) = exp(-(1+z)/(1-z)) on the open unit disc."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("singular_inner needs |z| < 1")
    return cmath.exp(-(1.0 + z) / (1.0 - z))


def condition_integrand(spec, kind: str, t, beta: float | None = None):
    """Integrand of the Nikolski, Gevorkyan-Shamoyan, or interpolating C_beta condition.

    nikolski: sqrt(Lambda(t)/t);  gs: Lambda(t);  c_beta: Lambda(t)^(1-beta)/t^beta
    with beta in [0, 1/2], on the pure region.  The square root is taken of
    Lambda(t) t, which stays finite where Lambda(t)/t overflows (t < 1e-154).
    """
    if kind not in CONDITION_KINDS:
        raise UsageError(f"unknown condition kind {kind!r}")
    ts = np.asarray(t, dtype=float)
    if np.any((ts <= 0.0) | (ts > spec.pure_cut)):
        raise DomainError("condition integrands live on the pure region")
    lam = weights.eval_lambda(spec, ts)
    if kind == "nikolski":
        return np.sqrt(lam * ts) / ts
    if kind == "gs":
        return lam
    if beta is None or not (0.0 <= beta <= 0.5):
        raise UsageError("c_beta requires beta in [0, 1/2]")
    return lam ** (1.0 - beta) / ts**beta


def condition_integral_quad(spec, kind: str, lo: float, hi: float, beta: float | None = None) -> float:
    """Integral of a condition integrand over [lo, hi] in the pure region, by
    adaptive quadrature in L = log(1/t) (dt = -t dL)."""
    val, _ = quad(lambda L: float(condition_integrand(spec, kind, math.exp(-L), beta)) * math.exp(-L),
                  math.log(1.0 / hi), math.log(1.0 / lo), epsrel=1e-11, epsabs=0.0, limit=200)
    return val


def condition_partials_quad(spec, kind: str, checkpoints, beta: float | None = None) -> np.ndarray:
    """Integrals of a condition integrand from each checkpoint up to pure_cut:
    quadrature between consecutive checkpoints, cumulated."""
    edges = np.concatenate(([spec.pure_cut], np.asarray(checkpoints, dtype=float)))
    return np.cumsum([condition_integral_quad(spec, kind, lo, hi, beta) for hi, lo in zip(edges, edges[1:])])


def solve_profile_y(weight, x: float) -> float:
    """Boundary height y(x) >= 0 of the half-plane image of the full-circle domain.

    The radial profile of the full-circle domain transfers to the half-plane
    boundary x = Lambda(4x / ((x+1)^2 + y^2)): solve Lambda(u) = x for u
    (unique by monotonicity) in s = log u with increasing_root, then
    y = sqrt(4x/u - (x+1)^2).  A root requires Lambda(4x/(x+1)^2) <= x.
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    u0 = 4.0 * x / (x + 1.0) ** 2
    lam_u0 = weights.eval_lambda(weight, u0)
    if lam_u0 > x:
        raise DomainError(f"no boundary point at height x={x!r}: Lambda({u0!r}) = {lam_u0!r} > x")
    log_x = math.log(x)

    def f(s):  # log x - log Lambda(e^s): increasing and nearly linear in s = log u
        return log_x - np.log(weights.eval_lambda(weight, np.exp(s)))

    lo, hi = np.array([math.log(1e-300)]), np.array([math.log(u0)])
    u = math.exp(increasing_root(f, lo, hi, f(lo), log_x - np.log([lam_u0]))[0])
    rel = abs(weights.eval_lambda(weight, u) - x) / x
    if rel > 1e-9:
        raise NumericError(f"profile root residual {rel!r} too large at x={x!r}")
    return math.sqrt(max(4.0 * x / u - (x + 1.0) ** 2, 0.0))


def pl_divergence_integrand(profile: DomainProfile, point: float) -> float:
    """Integrand of the growth-divergence condition for the profile.

    Cartesian: x phi'(x) / phi(x)^2; sector: phi(R)/R.
    """
    v = float(point)
    if v <= 0.0:
        raise DomainError("point must be positive")
    if profile.variant == "sector":
        return profile.phi_at(v) / v
    ph = profile.phi_at(v)
    if ph <= 0.0:
        raise DomainError("profile vanishes at this point")
    phi_prime = {"x": 1.0, "x2": 2.0 * v}.get(profile.phi, 0.0)  # the rest are constant
    return v * phi_prime / ph**2


def herglotz_arc_integral_quad(z: complex, lo: float, hi: float) -> complex:
    """Adaptive quadrature of (e^{it}+z)/(e^{it}-z) dt over [lo, hi]."""

    def kern(t: float) -> complex:
        e = cmath.exp(1j * t)
        return (e + z) / (e - z)

    re, _ = quad(lambda t: kern(t).real, lo, hi, epsrel=1e-9, epsabs=1e-13, limit=200)
    im, _ = quad(lambda t: kern(t).imag, lo, hi, epsrel=1e-9, epsabs=1e-13, limit=200)
    return complex(re, im)


def herglotz_arc_integral_mpmath(z: complex, lo: float, hi: float) -> complex:
    """The Herglotz arc integral at 30 digits from principal logs on short pieces.

    The antiderivative -t - 2i Log(e^{it}-z) is summed over n equal pieces,
    n chosen so that arg(e^{it}-z) turns by at most pi/2 on each: its rate
    (1+P)/2 is bounded by (1 + (1+|z|)/||z|-1|)/2.  Needs |z| != 1.
    """
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        rate = (1 + (1 + abs(z)) / abs(1 - abs(z))) / 2
        n = int(mpmath.ceil((hi - lo) * rate / (mpmath.pi / 2)))
        e = [mpmath.expj(t) - z for t in mpmath.linspace(mpmath.mpf(lo), mpmath.mpf(hi), n + 1)]
        logs = mpmath.fsum(mpmath.log(b / a) for a, b in zip(e, e[1:]))
        return complex(-(mpmath.mpf(hi) - mpmath.mpf(lo)) - 2j * logs)


def c_lambda_inv_quad(lam: complex) -> float:
    """1/c_lambda as the Poisson integral over the shadow at lambda, the arc
    of length 1 - |lambda| centred at phase(lambda)."""
    phase, half = cmath.phase(lam), 0.5 * (1.0 - abs(lam))
    return herglotz_arc_integral(lam, phase - half, phase + half).real


def profile_y_predictor(weight, x: float) -> float:
    """Asymptotic predictor 2 sqrt(x/u) for the profile height y(x), u = Lambda^{-1}(x)."""
    y = solve_profile_y(weight, x)
    u = 4.0 * x / ((x + 1.0) ** 2 + y * y)
    return 2.0 * math.sqrt(x / u)


def pl_divergence_partials(profile: DomainProfile, checkpoints) -> np.ndarray:
    """Partial integrals of the divergence integrand from a base point up to
    each checkpoint (increasing outer limits)."""
    pts = [float(p) for p in checkpoints]
    if any(p2 <= p1 for p1, p2 in zip(pts, pts[1:])):
        raise UsageError("checkpoints must be strictly increasing")
    base = max(profile.r_min() * 1.5, 2.0)
    if pts[0] <= base:
        raise UsageError(f"checkpoints must exceed the base point {base!r}")
    out, acc, prev = [], 0.0, base
    for p in pts:
        val, _ = quad(lambda v: pl_divergence_integrand(profile, v), prev, p,
                      epsrel=1e-8, epsabs=1e-14, limit=200)
        acc += val
        prev = p
        out.append(acc)
    return np.asarray(out)


def cut_crossings_bisection(spec, bset, sign: float, kinks, floor: float) -> np.ndarray:
    """The angles theta of geometry._cut_crossings by 64 bisection steps in theta.

    Each bracket between kinks where phi(theta) = dist + theta^2 Lambda(cut)
    - cut changes sign is halved 64 times, far below float resolution.
    """
    cut, lam_cut = spec.pure_cut, float(weights.eval_lambda(spec, spec.pure_cut))

    def phi(t):
        return boundary.distance_to_set(bset, np.exp(1j * sign * t)) + t * t * lam_cut - cut

    t0 = min(math.pi, max(floor, 2.0 * cut / (1.0 + math.sqrt(1.0 + 4.0 * lam_cut * cut))))
    ends = np.unique(np.concatenate(([t0], kinks[kinks > t0], [math.pi])))
    f = phi(ends)
    bracket = np.flatnonzero((f[:-1] < 0.0) != (f[1:] < 0.0))
    lo, hi, f_lo = ends[bracket], ends[bracket + 1], f[bracket]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        same = (phi(mid) < 0.0) == (f_lo < 0.0)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def log_gamma_global_bracket(spec, u, log_d_u):
    """geometry._log_gamma solved by increasing_root from the whole bracket [log 1e-300, log(1 - 1e-12)].

    A bracketing solve of the same h: both global ends are evaluated for
    every angle, they alone decide the refusals, and increasing_root runs
    from there to the same stopping rule.
    """
    lo = np.full(u.shape, math.log(1e-300))
    hi = np.full(u.shape, math.log(1.0 - 1e-12))

    def h(x, u, log_d_u):
        return geometry._gamma_equation(spec, x, u, log_d_u)[0]

    h_lo, h_hi = h(lo, u, log_d_u), h(hi, u, log_d_u)
    if np.any(h_lo >= 0.0):
        raise NumericError("lower bracket failed; weight is not admissible at this theta")
    if np.any(h_hi <= 0.0):
        raise NumericError(
            "no root with gamma < 1; Lambda is too large at scale 1 "
            "(solve for normalized_for_lambda1(weight) or restrict to smaller |theta|)"
        )
    return increasing_root(h, lo, hi, h_lo, h_hi, u, log_d_u)


def witness_poisson_per_sample(weight, bset, ws, herglotz: bool = False) -> WitnessIntegral:
    """auxfun._witness_poisson with its breaks and its sums made one sample at a time.

    The same rule and the same boundary data; each sample's breaks, kernel,
    rule sum and tail come from its own scalars (np.angle and abs of the
    numpy complex, whose bits are np.hypot's).
    """
    ws = np.atleast_1d(np.asarray(ws, dtype=complex))
    depth = auxfun._witness_depth(weight)
    tail = auxfun._witness_tail(weight, bset, depth)
    breaks = []
    for w in ws:
        theta_w, delta = abs(float(np.angle(w))), 1.0 - abs(w)
        steps = delta * 2.0 ** np.arange(-2, math.ceil(math.log2(2.0 * math.pi / delta)))
        near = np.concatenate(([theta_w], theta_w + steps, theta_w - steps))
        breaks.append(-np.log(near[(0.0 < near) & (near < math.pi)]))
    v_lo = math.log(1.0 / math.pi)
    pos, neg = (geometry.log_rule(geometry.panel_edges(weight, bset, sign, v_lo, depth, np.concatenate(breaks)))
                for sign in (1.0, -1.0))
    theta = np.concatenate([np.exp(-pos[0]), -np.exp(-neg[0])])
    fine, coarse = (np.concatenate([pos[k], neg[k]]) for k in (1, 2))
    data = auxfun.keldysh_log_boundary(weight, bset, theta) * np.abs(theta)
    e = np.exp(1j * theta)
    value, error, beyond = [], [], []
    for w in ws:
        poisson = geometry.rule_sum((1.0 - abs(w) ** 2) / np.abs(e - w) ** 2 * data, fine, coarse)
        value.append(((e + w) / (e - w) * data * fine).sum() if herglotz else poisson.value)
        error.append(poisson.error)
        beyond.append(2.0 * (1.0 - abs(w) ** 2) / (abs(1.0 - w) - math.exp(-depth)) ** 2 * tail)
    return WitnessIntegral(*(np.array(x) / (2.0 * math.pi) for x in (value, error, beyond)))


def log_sigma_mpmath(profile: DomainProfile, rho: float) -> float:
    """log sigma(rho) = pi int_lo^rho dr/s(r) at 30 digits, lo as in phragmen.sigma.

    s comes from the arc's own geometry rather than the toolkit's crossing
    formulas: on the half strip |y| <= c, pi r for r <= c (the right half
    circle lies in the strip, so pi dr/s = dv) and 2r asin(c/r) beyond;
    2r atan(x) with x^2 + x^4 = r^2 on x^2; the wedge, the constant sectors
    and invlog (int v/(pi v - 2) dv) integrate in closed form.
    """
    with mpmath.workdps(30):
        v_lo = mpmath.log(mpmath.mpf(max(1.0, profile.r_min() * (1.0 + 1e-9))))
        v_hi = mpmath.log(mpmath.mpf(rho))
        if profile.phi == "invlog":
            def g(v):
                return v + 2 / mpmath.pi * mpmath.log(mpmath.pi * v - 2)
            return float(g(v_hi) - g(v_lo))
        if profile.variant == "sector":
            return float(mpmath.pi / (mpmath.pi - 2 * mpmath.mpf(profile.phi_at(0.0))) * (v_hi - v_lo))
        if profile.phi == "x":
            return float(2 * (v_hi - v_lo))
        below = 0
        if profile.phi == "x2":
            def s(r):
                return 2 * r * mpmath.atan(mpmath.sqrt((mpmath.sqrt(1 + 4 * r * r) - 1) / 2))
        else:
            c = mpmath.mpf(profile.phi_at(0.0))

            def s(r):
                return 2 * r * mpmath.asin(c / r)
            v_c = min(max(mpmath.log(c), v_lo), v_hi)
            below, v_lo = v_c - v_lo, v_c
            if v_lo == v_hi:
                return float(below)
        # tanh-sinh takes the strip's square-root corner at the lower end;
        # pieces of width at most 2 in v keep e^v resolved
        pieces = mpmath.linspace(v_lo, v_hi, int(mpmath.ceil((v_hi - v_lo) / 2)) + 1)
        val, err = mpmath.quad(lambda v: mpmath.exp(v) / s(mpmath.exp(v)), pieces, error=True)
        assert err < mpmath.mpf(10) ** -25 * val, (profile, rho, err)
        return float(below + mpmath.pi * val)


def divergence_verdict_numpy(partials, checkpoints) -> DivergenceVerdict:
    """criterion.divergence_verdict written on NumPy arrays: medians by
    np.median and the two-parameter fits by np.linalg.lstsq."""
    S = np.asarray(list(partials), dtype=float)
    eps = np.asarray(list(checkpoints), dtype=float)
    K = S.size
    if K < 6:
        raise UsageError("need at least 6 partial sums")
    if eps.size != K:
        raise UsageError("checkpoints and partials must have equal length")
    if not (np.all(np.isfinite(S)) and np.all(np.isfinite(eps))):
        raise UsageError("partial sums and checkpoints must be finite")
    if np.any(eps <= 0.0) or np.any(np.diff(eps) >= 0.0):
        raise UsageError("checkpoints must be positive and strictly decreasing")
    with np.errstate(over="ignore"):  # a subnormal eps overflows 1/eps
        if eps[0] / eps[-1] < 1e4:
            raise UsageError("checkpoints must span at least 4 geometric decades")
        u = np.log(1.0 / eps)
    if u[-1] == np.inf or np.any(np.diff(u) <= 0.0):
        raise UsageError("log(1/eps) must be finite and strictly increasing")
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

    if x.size >= 8:
        loc = np.diff(y) / np.diff(x)
        med_l = float(np.median(loc))
        mad_l = float(np.median(np.abs(loc - med_l)))
        thr = max(6.0 * 1.4826 * mad_l, 0.8)
        dips = np.nonzero(loc < med_l - thr)[0]
        if dips.size:
            start = int(dips.max()) + 2
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


def sequence_arcs_from_point_list(bset, cutoff):
    """(a, b) of the window arcs of a point-sequence set with b > cutoff,
    from the whole list of its points down to one below the cutoff (the
    enumeration boundary.arc_blocks does block by block)."""
    angle, index, first = boundary._sequence_rule(bset)
    pts = angle(np.arange(first, int(math.ceil(index(math.log(1.0 / cutoff)))) + 2))
    pts = np.concatenate(([1.0], pts[(0.0 < pts) & (pts < 1.0)]))  # the anchor once, on geometric too
    pts = pts[: np.count_nonzero(pts >= cutoff) + 1]
    a, b = pts[1:], pts[:-1]
    n = np.count_nonzero(b > cutoff)
    return a[:n], b[:n]


def checkpoint_sums_by_segment(eps, blocks, terms):
    """criterion._checkpoint_sums on the whole arrays (a, b) of the blocks:
    whole-arc terms block by block, one np.sum per segment between
    checkpoints within each block, segments cut from the whole arrays."""
    blocks = list(blocks)
    a, b = (np.concatenate([np.empty(0), *(block[i] for block in blocks)]) for i in (0, 1))
    n_in = np.searchsorted(-b, -eps, side="right")
    n_whole = np.searchsorted(-a, -eps, side="right")
    bounds = np.concatenate(([0], n_whole))
    segments = np.zeros((terms(a[:0], b[:0], eps[-1]).shape[0], eps.size))  # the terms of no arc give the rows
    lo = 0
    for block_a, _ in blocks:
        hi = min(lo + block_a.size, bounds[-1])
        if hi > lo:
            part = terms(a[lo:hi], b[lo:hi], eps[-1])
            cuts = np.clip(bounds - lo, 0, part.shape[1])
            segments = segments + np.array([np.sum(part[:, i:j], axis=1) for i, j in zip(cuts[:-1], cuts[1:])]).T
        lo += block_a.size
    sums = np.cumsum(segments, axis=1)
    k = np.flatnonzero(n_whole < n_in)
    sums[:, k] += terms(a[n_whole[k]], b[n_whole[k]], eps[k])
    return sums


def simulate_per_block(profile: DomainProfile, z0: complex, rho: float, paths: int, seed: int,
                       block: int, max_steps: int) -> HarmonicMeasureEstimate:
    """phragmen.harmonic_measure_mc with its blocks of `block` paths walked one
    after another, each until its last walker stops or max_steps steps."""
    z0, rho = complex(z0), float(rho)
    tol = 1e-4 * rho
    hits = capped = 0
    for block_index in range((paths + block - 1) // block):
        n = min(block, paths - block_index * block)
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block_index,))))
        x = np.full(n, z0.real)  # positions of the walkers still alive
        y = np.full(n, z0.imag)
        for _ in range(max_steps):
            if not x.size:
                break
            d_side = _boundary_distance(profile, x, y, x * x)
            d_circ = rho - np.sqrt(x * x + y * y)
            step = np.minimum(d_side, d_circ)
            absorbed = step < tol
            hits += int(np.count_nonzero(d_circ[absorbed] <= d_side[absorbed]))
            keep = ~absorbed
            x, y, step = x[keep], y[keep], step[keep]
            gx, gy = rng.standard_normal((2, x.size))
            step /= np.sqrt(gx * gx + gy * gy)
            x += step * gx
            y += step * gy
        # walkers left after max_steps count as lateral-boundary hits
        capped += int(x.size)
    p = hits / paths
    se = math.sqrt(max(p * (1.0 - p), 1.0 / paths) / paths)
    return HarmonicMeasureEstimate(mean=p, standard_error=se, paths=paths, seed=seed, rho=rho, capped_paths=capped)
