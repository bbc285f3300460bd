"""Independent oracles and output checks for the benchmark's jobs.

The toolkit's mathematics is not imported here.  The weight Lambda, the
generator w_eff, the distances to the boundary sets, the threshold rules and
the closed-form integrals are written out again from their definitions.  The
one exception is the witness check, which evaluates the public
``cyclicity.auxfun.keldysh_outer`` because the outer function is the quantity
the check is about.

Every check takes the job and the bytes the job wrote and raises CheckFailed
with a reason, or returns a small dict of parsed facts that the cross-job
checks (``check_group``) use.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

KAPPA = math.log(2.0) / math.log(3.0)
DEFAULT_T_CUT = math.exp(-2.0)
VERDICT_BAND = 0.05
MONOTONE_REL = 1e-9

ANALYZE_COLUMNS = ("e_and_short", "intermediate_sum", "long_sum", "total",
                   "alt_e_integral", "alt_gs_integral", "alt_arc_sum")


class CheckFailed(Exception):
    """A job's output disagrees with an oracle."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_tol


# ---------------------------------------------------------------------------
# weights: Lambda(t) = scale / (t w(t)^2), continued by a 1/t tail past the cut


def log_exponent(weight: dict) -> float:
    """a in Lambda = scale / (t log^a(1/t)): alpha, 2p, or 0 for const_w."""
    family = weight["family"]
    if family == "log_power":
        return float(weight["alpha"])
    if family == "from_w":
        return 2.0 * float(weight["p"])
    return 0.0


def pure_cut(weight: dict) -> float:
    """Right edge of the region where the closed formula is used and decreasing."""
    t_cut = float(weight.get("t_cut", DEFAULT_T_CUT))
    a = log_exponent(weight)
    return t_cut if a <= 0.0 else min(t_cut, math.exp(-a))


def lam(weight: dict, t: float) -> float:
    """Lambda(t) on (0, 2]: the formula up to the cut, then Lambda(cut) * cut / t."""
    scale = float(weight.get("scale", 1.0))
    a = log_exponent(weight)
    cut = pure_cut(weight)
    s = min(t, cut)
    at_s = scale / (s * math.log(1.0 / s) ** a)
    return at_s if t <= cut else at_s * cut / t


def w_eff(weight: dict, t: float) -> float:
    """The generator with Lambda = 1 / (t w^2), scale and tail included."""
    return 1.0 / math.sqrt(t * lam(weight, t))


def tw_integral(weight: dict, power: float, lo: float, hi: float) -> float:
    """Integral of dt / (t w_eff(t)^power) over [lo, hi] inside the pure region.

    With L = log(1/t), w_eff = L^(a/2) / sqrt(scale), so the integrand is
    scale^(power/2) L^(-s) dL with s = power * a / 2.
    """
    scale = float(weight.get("scale", 1.0))
    s = 0.5 * power * log_exponent(weight)
    l_lo, l_hi = math.log(1.0 / hi), math.log(1.0 / lo)
    if s == 1.0:
        prim = math.log(l_hi) - math.log(l_lo)
    else:
        prim = (l_hi ** (1.0 - s) - l_lo ** (1.0 - s)) / (1.0 - s)
    return scale ** (0.5 * power) * prim


def normalized(weight: dict) -> dict:
    """The weight rescaled so that Lambda(1) < 1/10, as the witness requires."""
    lam1 = lam(weight, 1.0)
    if lam1 < 0.1:
        return weight
    return {**weight, "scale": float(weight.get("scale", 1.0)) * 0.099 / lam1}


# ---------------------------------------------------------------------------
# boundary sets: angles of E inside the window [0, 1]


def _chord(eta: float, z: complex) -> float:
    return abs(z - complex(math.cos(eta), math.sin(eta)))


def _sequence_candidates(bset: dict, theta: float) -> list[float]:
    """E-angles bracketing theta for the point-sequence kinds, plus 0 and 1."""
    out = [0.0, 1.0]
    if not 0.0 < theta < 1.0:
        return out
    u = math.log(1.0 / theta)
    kind = bset["kind"]
    if kind == "geometric":
        n0 = int(u / math.log(2.0))
        out += [2.0 ** -n for n in range(max(0, n0 - 1), n0 + 3)]
    elif kind == "beta":
        e = 1.0 - float(bset["beta"])
        n0 = int(u ** (1.0 / e))
        out += [math.exp(-(n ** e)) for n in range(max(1, n0 - 1), n0 + 3)]
    else:
        raise ValueError(f"no candidate rule for {kind!r}")
    return out


def _cantor_gap(depth: int, theta: float):
    """The gap of F_depth holding theta in (0, 1) as (a, b), or None on F_depth."""
    lo, width = 0.0, 1.0
    for _ in range(depth):
        width /= 3.0
        digit = math.floor((theta - lo) / width)
        if digit == 1:
            return lo + width, lo + 2.0 * width
        lo += min(max(digit, 0), 2) * width
    return None


def distance(bset: dict, z: complex) -> float:
    """Chordal distance from z (|z| <= 1) to E."""
    kind = bset["kind"]
    if kind == "full":
        return abs(1.0 - abs(z))
    if kind == "point":
        return abs(z - 1.0)
    theta = math.atan2(z.imag, z.real)
    if kind == "cantor":
        cands = [0.0, 1.0]
        if 0.0 < theta < 1.0:
            gap = _cantor_gap(int(bset["depth"]), theta)
            cands += [theta] if gap is None else list(gap)
    else:
        cands = _sequence_candidates(bset, theta)
    return min(_chord(eta, z) for eta in cands)


def sequence_points(bset: dict, floor: float) -> list[float]:
    """E-angles of a point-sequence kind in [floor, 1], descending, plus the next one below."""
    kind = bset["kind"]
    if kind == "geometric":
        pts, n = [], 0
        while True:
            pts.append(2.0 ** -n)
            if pts[-1] < floor:
                return pts
            n += 1
    if kind == "beta":
        e = 1.0 - float(bset["beta"])
        pts, n = [1.0], 1
        while True:
            pts.append(math.exp(-(n ** e)))
            if pts[-1] < floor:
                return pts
            n += 1
    raise ValueError(f"{kind!r} is not a supported point sequence")


# ---------------------------------------------------------------------------
# threshold rules


def threshold_position(weight: dict, bset: dict) -> tuple[float, float]:
    """(x, threshold): the criterion diverges iff x <= threshold."""
    a = log_exponent(weight)
    kind = bset["kind"]
    if kind == "beta":
        return a * (1.0 - float(bset["beta"])), 1.0
    if kind == "full":
        return a, 2.0
    if kind in ("point", "geometric", "doubly_exp"):
        return a, 1.0
    if kind == "cantor":
        return a, 1.0 / (1.0 - KAPPA / 2.0)
    raise ValueError(f"no threshold rule for {kind!r}")


def threshold_rule(weight: dict, bset: dict) -> str | None:
    """Closed-form verdict, or None inside the declared inconclusive band."""
    x, thr = threshold_position(weight, bset)
    if abs(x - thr) < VERDICT_BAND:
        return None
    return "divergent" if x <= thr else "convergent"


THEOREM_SETS = {"teo2": "beta", "teo3": "cantor", "nikolski": "full", "gs": "point"}


def scan_rule(theorem: str, alpha: float, beta: float) -> tuple[str, bool]:
    """(oracle verdict, inside the band) for one scan row."""
    x, thr = threshold_position({"family": "log_power", "alpha": alpha},
                                {"kind": THEOREM_SETS[theorem], "beta": beta})
    return ("divergent" if x <= thr else "convergent"), abs(x - thr) < VERDICT_BAND


# ---------------------------------------------------------------------------
# the implicit boundary gamma(theta) = theta^2 Lambda(gamma + dist)


def gamma_gap(weight: dict, bset: dict, theta: float, gamma: float) -> float:
    """g(gamma) = gamma - theta^2 Lambda(gamma + d); increasing in gamma."""
    d = distance(bset, cmath.exp(1j * theta))
    return gamma - theta * theta * lam(weight, min(gamma + d, 2.0))


def solve_gamma(weight: dict, bset: dict, theta: float) -> float:
    """Root of g by bisection in log(gamma)."""
    d = distance(bset, cmath.exp(1j * theta))
    log_th2 = 2.0 * math.log(abs(theta))

    def h(x: float) -> float:
        return x - log_th2 - math.log(lam(weight, min(math.exp(x) + d, 2.0)))

    lo, hi = math.log(1e-300), math.log(1.0 - 1e-12)
    if not (h(lo) < 0.0 < h(hi)):
        raise CheckFailed(f"oracle cannot bracket gamma at theta={theta!r}")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            break
    return math.exp(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# parsing


def _csv_rows(text: str, header: tuple[str, ...]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and tuple(rows[0]) == header, f"csv header {rows[:1]!r} != {header!r}")
    return rows[1:]


def _report(text: str, command: str) -> dict:
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from exc
    _require(rep.get("command") == command, f"report command {rep.get('command')!r} != {command!r}")
    return rep


# ---------------------------------------------------------------------------
# criterion analyze


def check_analyze(job, text: str) -> dict:
    spec = job.spec
    weight, bset = spec["weight"], spec["set"]
    rep = _report(text, "criterion analyze")
    _require(rep["config"]["set"]["kind"] == bset["kind"], "report echoes another set")
    res = rep["results"]
    eps = res["checkpoints"]
    _require(len(eps) >= 6 and all(e > 0.0 for e in eps), "bad checkpoint list")
    _require(all(e2 < e1 for e1, e2 in zip(eps, eps[1:])), "checkpoints not decreasing")
    for name in ANALYZE_COLUMNS:
        col = res[name]
        _require(len(col) == len(eps), f"{name}: {len(col)} values for {len(eps)} checkpoints")
        _require(all(v >= 0.0 for v in col), f"{name} has a negative entry")
        # the same allowance the toolkit's verdict estimator grants partial sums
        slack = MONOTONE_REL * max(1.0, max(col))
        _require(all(v2 >= v1 - slack for v1, v2 in zip(col, col[1:])), f"{name} decreases")
    for k, tot in enumerate(res["total"]):
        parts = res["e_and_short"][k] + res["intermediate_sum"][k] + res["long_sum"][k]
        _require(_close(tot, parts, 1e-10, 1e-12), f"total {tot!r} != sum of parts {parts!r} at k={k}")
    cut = pure_cut(weight)
    for k, e in enumerate(eps):
        want = tw_integral(weight, 2.0, e, cut)
        got = res["alt_gs_integral"][k]
        _require(_close(got, want, 1e-9, 1e-12), f"alt_gs_integral {got!r} != closed form {want!r} at eps={e!r}")
        if bset["kind"] == "full":
            want = tw_integral(weight, 1.0, e, cut)
            got = res["e_and_short"][k]
            _require(_close(got, want, 1e-9, 1e-12), f"e_and_short {got!r} != closed form {want!r} at eps={e!r}")
    expect = threshold_rule(weight, bset)
    if expect is not None:
        _require(res["verdict"] == expect, f"verdict {res['verdict']!r}, threshold rule says {expect!r}")
    return {"verdict": res["verdict"]}


def check_arcs(job, text: str) -> None:
    """Per-arc CSV: disjoint rows sorted by decreasing b, class tags by the rule."""
    spec = job.spec
    weight, bset, cutoff = spec["weight"], spec["set"], spec["arcs_cutoff"]
    rows = _csv_rows(text, ("a", "b", "class", "contribution"))
    _require(len(rows) > 0, "no arcs listed")
    cut = pure_cut(weight)
    arcs = []
    for a_s, b_s, cls, c_s in rows:
        a, b, contrib = float(a_s), float(b_s), float(c_s)
        _require(0.0 <= a < b and b > cutoff and a < cut, f"arc ({a!r}, {b!r}) out of range")
        _require(contrib >= 0.0, f"negative contribution on arc ({a!r}, {b!r})")
        b_eff = min(b, cut)
        ratio = a / b_eff
        w_b = w_eff(weight, b_eff)
        if abs(ratio - 0.5) < 1e-9 or abs((1.0 - ratio) * w_b - 2.0) < 1e-9:
            allowed = {"short", "intermediate", "long"}  # a tie the 12-digit CSV cannot settle
        elif ratio <= 0.5:
            allowed = {"long"}
        elif 1.0 - ratio < 2.0 / w_b:
            allowed = {"short"}
        else:
            allowed = {"intermediate"}
        _require(cls in allowed, f"arc ({a!r}, {b!r}) tagged {cls!r}, rule says {sorted(allowed)}")
        arcs.append((a, b))
    for (a1, b1), (a2, b2) in zip(arcs, arcs[1:]):
        _require(b2 < b1, f"arcs not sorted by decreasing b at b={b2!r}")
        _require(b2 <= a1, f"arcs ({a1!r}, {b1!r}) and ({a2!r}, {b2!r}) overlap")
    if bset["kind"] in ("geometric", "beta"):
        pts = sequence_points(bset, cutoff)
        want = [(lo, hi) for hi, lo in zip(pts, pts[1:]) if hi > cutoff and lo < cut]
        _require(len(want) == len(arcs), f"{len(arcs)} arcs listed, the set has {len(want)}")
        for (a, b), (wa, wb) in zip(arcs, want):
            _require(_close(a, wa, 1e-11) and _close(b, wb, 1e-11),
                     f"arc ({a!r}, {b!r}) is not the set's arc ({wa!r}, {wb!r})")


# ---------------------------------------------------------------------------
# scan


def check_scan(job, text: str) -> None:
    spec = job.spec
    rows = _csv_rows(text, ("alpha", "fitted_exponent", "verdict", "oracle", "agree"))
    alphas, a = [], spec["alpha_from"]
    while a <= spec["alpha_to"] + 1e-12:
        alphas.append(round(a, 12))
        a += spec["step"]
    _require(len(rows) == len(alphas), f"{len(rows)} scan rows, expected {len(alphas)}")
    for (al_s, _q, verdict, oracle, agree), alpha in zip(rows, alphas):
        _require(_close(float(al_s), alpha, 1e-11), f"scan row alpha {al_s} != {alpha!r}")
        want, in_band = scan_rule(spec["theorem"], alpha, spec["beta"])
        _require(oracle == want, f"alpha={alpha}: oracle column {oracle!r}, rule says {want!r}")
        _require(agree == str(verdict == oracle), f"alpha={alpha}: agree column {agree!r} inconsistent")
        if not in_band:
            _require(verdict == want, f"alpha={alpha}: verdict {verdict!r}, rule says {want!r}")


# ---------------------------------------------------------------------------
# gamma and omega trace


def check_root(weight: dict, bset: dict, theta: float, gamma: float, residual: float) -> None:
    """gamma solves gamma = theta^2 Lambda(gamma + d) and its certificate holds."""
    _require(0.0 < gamma < 1.0, f"gamma={gamma!r} outside (0, 1)")
    _require(0.0 <= residual <= 1e-12 * gamma, f"residual certificate {residual!r} > 1e-12 gamma")
    # g is increasing, so the root lies within 1e-10 relative of the printed
    # (12-digit) gamma exactly when g changes sign across that interval
    lo, hi = gamma * (1.0 - 1e-10), gamma * (1.0 + 1e-10)
    _require(gamma_gap(weight, bset, theta, lo) < 0.0 < gamma_gap(weight, bset, theta, hi),
             f"theta={theta!r}: gamma={gamma!r} is not the root of gamma = theta^2 Lambda(gamma + d)")


def check_full_circle(weight: dict, theta: float, gamma: float) -> None:
    """On the full circle d = 0, so gamma w(gamma) = |theta| sqrt(scale) in the pure region."""
    if gamma > pure_cut(weight):
        return
    lhs = gamma * math.log(1.0 / gamma) ** (0.5 * log_exponent(weight))
    rhs = abs(theta) * math.sqrt(float(weight.get("scale", 1.0)))
    _require(_close(lhs, rhs, 1e-9), f"theta={theta!r}: gamma w(gamma) = {lhs!r} != theta sqrt(scale) = {rhs!r}")


def check_halfplane(theta: float, gamma: float, big_r: float, phi: float) -> None:
    """(R, phi) rebuild w = (1 - gamma) e^{i theta} through 1 - w = e^{i phi} / R."""
    s = math.sin(0.5 * theta)
    # 1 - w without the cancellation in 1 - cos(theta)
    one_minus_w = complex(2.0 * s * s + gamma * math.cos(theta), -(1.0 - gamma) * math.sin(theta))
    rebuilt = cmath.exp(1j * phi) / big_r
    # the toolkit forms 1 - w from the float w, which carries one rounding of 1
    _require(abs(rebuilt - one_minus_w) <= 1e-9 * abs(one_minus_w) + 1e-15,
             f"theta={theta!r}: (R, phi) = ({big_r!r}, {phi!r}) does not rebuild (1 - gamma) e^(i theta)")


def check_trace_row(weight: dict, bset: dict, theta: float, row: list[str]) -> None:
    th_s, g_s, res_s, r_s, phi_s = row
    gamma = float(g_s)
    _require(_close(float(th_s), theta, 1e-11), f"row theta {th_s} != {theta!r}")
    check_root(weight, bset, theta, gamma, float(res_s))
    if bset["kind"] == "full":
        check_full_circle(weight, theta, gamma)
    check_halfplane(theta, gamma, float(r_s), float(phi_s))


def check_trace(job, text: str) -> None:
    spec = job.spec
    rows = _csv_rows(text, ("theta", "gamma", "residual", "R", "phi"))
    thetas = spec["thetas"]
    _require(len(rows) == len(thetas), f"{len(rows)} rows for {len(thetas)} angles")
    for theta, row in zip(thetas, rows):
        check_trace_row(spec["weight"], spec["set"], theta, row)


# ---------------------------------------------------------------------------
# aux keldysh


def check_keldysh(job, text: str, keldysh_outer) -> None:
    """Amplitude is the smallest power of two whose witness dominates at every sample.

    ``keldysh_outer(weight_json, set_json, amplitude, w)`` is the toolkit's
    outer function; log|F| is linear in the amplitude, so one evaluation at
    amplitude 1 per sample decides both amp and amp/2.
    """
    spec = job.spec
    rep = _report(text, "aux keldysh")
    amp = rep["results"]["amplitude"]
    max_power = spec["max_power"]
    _require(isinstance(amp, int) and amp >= 1 and amp & (amp - 1) == 0 and amp <= 2 ** max_power,
             f"amplitude {amp!r} is not a power of two in [1, 2^{max_power}]")
    norm = normalized(spec["weight"])
    bset = spec["set"]
    half_fails = False
    for theta in spec["samples"]:
        gamma = solve_gamma(norm, bset, theta)
        w = (1.0 - gamma) * cmath.exp(1j * theta)
        need = (1.0 - abs(w) ** 2) / abs(1.0 - w) ** 2 + lam(norm, min(distance(bset, w), 2.0))
        base = math.log(abs(keldysh_outer(spec["weight"], bset, 1.0, w)))
        _require(amp * base > need, f"theta={theta!r}: amp*log|F| = {amp * base!r} <= {need!r}")
        half_fails |= 0.5 * amp * base <= need
    _require(amp == 1 or half_fails, f"amplitude {amp} is not minimal: amp/2 dominates at every sample")


# ---------------------------------------------------------------------------
# hm-mc and sigma


HALF_OPENING = {("sector", "const"): math.pi / 2.0, ("cartesian", "x"): math.pi / 4.0}


def exact_exit_probability(half_opening: float, rho: float) -> float:
    """Harmonic measure of |z| = rho in the sector |arg z| < beta, |z| < rho, seen from 1.

    z -> z^(pi/(2 beta)) maps it onto a half-disc of radius rho^(pi/(2 beta)).
    """
    return 4.0 / math.pi * math.atan(rho ** (-math.pi / (2.0 * half_opening)))


def check_hm(job, text: str) -> dict:
    spec = job.spec
    rep = _report(text, "hm-mc")
    res = rep["results"]
    mean, se, capped = res["mean"], res["standard_error"], res["capped_paths"]
    _require(0.0 <= mean <= 1.0 and se > 0.0, f"estimate {mean!r} +- {se!r} is not a probability")
    _require(capped == 0, f"{capped} walkers hit the step cap")
    profile = spec["profile"]
    half = HALF_OPENING.get((profile["variant"], profile["phi"]))
    if half is not None:
        exact = exact_exit_probability(half, spec["rho"])
        _require(abs(mean - exact) <= 4.0 * se, f"estimate {mean!r} is {abs(mean - exact) / se:.1f} SE from {exact!r}")
    return {"mean": mean, "se": se}


def check_sigma(job, text: str) -> None:
    spec = job.spec
    rep = _report(text, "sigma")
    val, rho = rep["results"]["sigma"], spec["rho"]
    profile = spec["profile"]
    if profile["variant"] == "sector":
        _require(_close(val, rho, 1e-3), f"sigma {val!r} != rho {rho!r} on the half-plane")
    else:
        _require(_close(val, rho * rho, 5e-3), f"sigma {val!r} != rho^2 {rho * rho!r} on the wedge")


# ---------------------------------------------------------------------------
# cross-job checks


def check_group(kind: str, facts: list[dict]) -> None:
    """Checks over a group of jobs of one round, given each job's parsed facts."""
    if kind == "variants":
        verdicts = {f["verdict"] for f in facts}
        _require(len(verdicts) == 1, f"verdict changes across scale/t_cut variants: {sorted(verdicts)}")
    elif kind == "x2-decay":
        near, far = facts
        bound = near["mean"] + 3.0 * math.hypot(near["se"], far["se"])
        _require(far["mean"] <= bound, f"far estimate {far['mean']!r} exceeds near estimate + 3 SE = {bound!r}")
    else:
        raise ValueError(f"unknown group check {kind!r}")
