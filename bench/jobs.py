"""Seeded job lists of the benchmark's workloads.

Every job is one ``cyclicity`` command line.  The seed picks parameter values
from fixed menus and draws angle ranges and Monte Carlo seeds; it never changes
how many jobs of each class a list holds, so the cost of a list and the class
that sets its median job stay the same from seed to seed.  Each menu value of
a criterion job lies outside the 0.05 band around its threshold, where the
closed-form verdict is decided.

This module imports nothing from the toolkit: a job list is plain data.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

T_CUTS = (math.exp(-2.0), math.exp(-3.0))
SCALES = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class Job:
    name: str
    klass: str
    argv: tuple[str, ...]
    check: str
    spec: dict
    arcs_out: bool = False
    group: tuple[str, str] | None = None  # (group check kind, group key)


def _js(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# criterion-matrix


# (set, family, divergent menu, convergent menu): each case runs at one value
# per menu under all six scale/t_cut variants
SMALL_CASES = (
    ({"kind": "full"}, "log_power", (0.5, 1.0, 1.5), (2.5, 3.0)),
    ({"kind": "full"}, "from_w", (0.5, 0.8), (1.25, 1.5)),
    ({"kind": "point"}, "log_power", (0.5, 0.7), (1.5, 2.0, 2.5)),
    ({"kind": "geometric"}, "from_w", (0.3, 0.4), (0.6, 0.7)),
    ({"kind": "doubly_exp"}, "from_w", (0.3, 0.4), (0.6, 0.7)),
    ({"kind": "beta", "beta": 0.0}, "log_power", (0.5, 0.8), (1.5, 2.0, 2.5)),
    ({"kind": "beta", "beta": 0.25}, "log_power", (0.8, 1.0), (1.5, 2.0, 2.5)),
)
BETA_HALF = ((1.0, 1.5), (2.5, 3.0))  # beta = 0.5, about 400k arcs per job
CANTOR_DEPTH = 30
CANTOR_ALPHAS = (1.0, 2.5)
# (set, family, exponent menu, cutoff menu) of the per-arc listing jobs
ARC_LISTINGS = (
    ({"kind": "beta", "beta": 0.25}, "log_power", (1.5, 2.5), (1e-200, 1e-250)),
    ({"kind": "geometric"}, "from_w", (0.4, 0.6), (1e-150, 1e-200)),
)
# (theorem, beta, alpha_from, alpha_to, step menu): the acceptance scans
SCANS = (
    ("teo2", 0.25, 1.0, 2.5, (0.5,)),
    ("teo3", 0.0, 1.0, 2.0, (0.2, 0.25)),
    ("nikolski", 0.0, 0.5, 2.5, (0.5, 1.0)),
    ("gs", 0.0, 0.5, 2.5, (0.5, 1.0)),
)


def _weight(family: str, value: float, **extra) -> dict:
    key = {"log_power": "alpha", "from_w": "p"}[family]
    return {"family": family, key: value, **extra}


def _analyze(name, klass, weight, bset, group=None, arcs_cutoff=None) -> Job:
    argv = ["criterion", "analyze", "--weight", _js(weight), "--set", _js(bset)]
    spec = {"weight": weight, "set": bset}
    if arcs_cutoff is not None:
        argv += ["--arcs-cutoff", repr(arcs_cutoff)]
        spec["arcs_cutoff"] = arcs_cutoff
    return Job(name, klass, tuple(argv), "analyze", spec, arcs_out=arcs_cutoff is not None, group=group)


def criterion_matrix(rng: random.Random) -> list[Job]:
    jobs = []
    for bset, family, div_menu, conv_menu in SMALL_CASES:
        for side, menu in (("div", div_menu), ("conv", conv_menu)):
            value = rng.choice(menu)
            key = f"{bset['kind']}-{bset.get('beta', '')}-{family}-{side}"
            for t_cut in T_CUTS:
                for scale in SCALES:
                    weight = _weight(family, value, t_cut=t_cut, scale=scale)
                    jobs.append(_analyze(f"analyze/{key}/{t_cut:.3f}/{scale}", "analyze-small",
                                         weight, bset, group=("variants", key)))
    for side, menu in zip(("div", "conv"), BETA_HALF):
        weight = _weight("log_power", rng.choice(menu), t_cut=rng.choice(T_CUTS), scale=rng.choice(SCALES))
        jobs.append(_analyze(f"analyze/beta-0.5/{side}", "analyze-beta-0.5", weight,
                             {"kind": "beta", "beta": 0.5}))
    weight = _weight("log_power", rng.choice(CANTOR_ALPHAS))
    jobs.append(_analyze(f"analyze/cantor-{CANTOR_DEPTH}", "analyze-cantor", weight,
                         {"kind": "cantor", "depth": CANTOR_DEPTH}))
    for bset, family, menu, cutoffs in ARC_LISTINGS:
        weight = _weight(family, rng.choice(menu))
        jobs.append(_analyze(f"arcs/{bset['kind']}", "analyze-arcs", weight, bset,
                             arcs_cutoff=rng.choice(cutoffs)))
    for theorem, beta, lo, hi, steps in SCANS:
        step = rng.choice(steps)
        argv = ["scan", "--theorem", theorem, "--alpha-from", repr(lo), "--alpha-to", repr(hi),
                "--step", repr(step), "--beta", repr(beta)]
        spec = {"theorem": theorem, "beta": beta, "alpha_from": lo, "alpha_to": hi, "step": step}
        jobs.append(Job(f"scan/{theorem}", "scan", tuple(argv), "scan", spec))
    return jobs


# ---------------------------------------------------------------------------
# boundary-witness


TRACE_SETS = ({"kind": "full"}, {"kind": "point"}, {"kind": "geometric"},
              {"kind": "beta", "beta": 0.25}, {"kind": "cantor", "depth": 15})
TRACE_POINTS = 40
# witness searches: point set at alpha 2 and 3, full circle at alpha 3
WITNESSES = (({"kind": "point"}, 2.0), ({"kind": "point"}, 3.0), ({"kind": "full"}, 3.0))
WITNESS_SAMPLES = (1e-2, 1e-3, 1e-4)
WITNESS_MAX_POWER = 10


def _trace_weights(rng: random.Random) -> list[dict]:
    """The seven acceptance-6 weights, exponents nudged by at most 0.02.

    A solve costs more when Lambda's argument passes the pure cut, so the
    exponents, which move the cut, stay close to fixed values.
    """
    def nudge(x: float) -> float:
        return x + rng.uniform(-0.02, 0.02)

    return [_weight("log_power", nudge(a)) for a in (0.5, 1.0, 2.0, 2.5)] + [
        _weight("from_w", nudge(0.5)),
        _weight("from_w", nudge(1.0), scale=4.0),
        {"family": "const_w"},
    ]


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    """The angles numpy.geomspace(lo, hi, n) gives, to rounding."""
    step = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(k * step) for k in range(n)]


def boundary_witness(rng: random.Random) -> list[Job]:
    jobs = []
    weights = _trace_weights(rng)
    for wi, weight in enumerate(weights):
        for bset in TRACE_SETS:
            # 1e-10 .. 1e-1 shifted by up to one grid step, so the share of
            # large angles, which cost more, is the same for every seed
            shift = 10.0 ** (-rng.uniform(0.0, 9.0 / (TRACE_POINTS - 1)))
            lo, hi = 1e-10 * shift, 1e-1 * shift
            argv = ["omega", "trace", "--weight", _js(weight), "--set", _js(bset),
                    "--from", repr(lo), "--to", repr(hi), "--points", str(TRACE_POINTS)]
            spec = {"weight": weight, "set": bset, "thetas": _geomspace(lo, hi, TRACE_POINTS)}
            jobs.append(Job(f"trace/w{wi}/{bset['kind']}", "omega-trace", tuple(argv), "trace", spec))
    for k in range(15):
        weight = weights[k % len(weights)]
        bset = TRACE_SETS[k % len(TRACE_SETS)]
        theta = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-10.0, -1.0)
        # the = form, since argparse reads a bare negative number as an option
        argv = ["gamma", "--weight", _js(weight), "--set", _js(bset), f"--theta={theta!r}"]
        spec = {"weight": weight, "set": bset, "thetas": [theta]}
        jobs.append(Job(f"gamma/{k}", "gamma", tuple(argv), "trace", spec))
    for bset, alpha in WITNESSES:
        weight = _weight("log_power", alpha)
        samples = ",".join(repr(t) for t in WITNESS_SAMPLES)
        argv = ["aux", "keldysh", "--weight", _js(weight), "--set", _js(bset),
                "--samples", samples, "--max-power", str(WITNESS_MAX_POWER)]
        spec = {"weight": weight, "set": bset, "samples": list(WITNESS_SAMPLES),
                "max_power": WITNESS_MAX_POWER}
        jobs.append(Job(f"keldysh/{bset['kind']}/{alpha}", "aux-keldysh", tuple(argv), "keldysh", spec))
    return jobs


# ---------------------------------------------------------------------------
# harmonic-mc


HALF_PLANE = {"variant": "sector", "phi": "const", "params": {"value": 0.0}}
WEDGE = {"variant": "cartesian", "phi": "x"}
PARABOLA = {"variant": "cartesian", "phi": "x2"}
LIGHT_RHOS = (4.0, 8.0, 16.0)
LIGHT_PATHS = 20_000
X2_RHOS = (4.0, 16.0)
X2_PATHS = 100_000
SIGMA_RHOS = ((10.0, 20.0), (50.0, 100.0))


def _hm(name, klass, profile, rho, paths, seed, group=None) -> Job:
    argv = ["hm-mc", "--profile", _js(profile), "--z0", "1,0", "--rho", repr(rho),
            "--paths", str(paths), "--seed", str(seed)]
    return Job(name, klass, tuple(argv), "hm", {"profile": profile, "rho": rho}, group=group)


def harmonic_mc(rng: random.Random) -> list[Job]:
    jobs = []
    for pname, profile in (("half-plane", HALF_PLANE), ("wedge", WEDGE)):
        for rho in LIGHT_RHOS:
            for rep in range(3):
                seed = rng.randrange(1, 2**31)
                jobs.append(_hm(f"hm/{pname}/{rho}/{rep}", "hm-mc-2e4", profile, rho, LIGHT_PATHS, seed))
    seed = rng.randrange(1, 2**31)
    for rho in X2_RHOS:
        jobs.append(_hm(f"hm/x2/{rho}", "hm-mc-x2", PARABOLA, rho, X2_PATHS, seed, group=("x2-decay", "x2")))
    for pname, profile in (("half-plane", HALF_PLANE), ("wedge", WEDGE)):
        for k, menu in enumerate(SIGMA_RHOS):
            rho = rng.choice(menu)
            argv = ["sigma", "--profile", _js(profile), "--rho", repr(rho)]
            jobs.append(Job(f"sigma/{pname}/{k}", "sigma", tuple(argv), "sigma",
                            {"profile": profile, "rho": rho}))
    return jobs


WORKLOADS = {
    "criterion-matrix": criterion_matrix,
    "boundary-witness": boundary_witness,
    "harmonic-mc": harmonic_mc,
}


def build(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
