"""Command-line front end: config parsing, experiment orchestration, reports.

Subcommands
-----------
weights check      regularity report for a weight family
gamma              solve the implicit boundary equation at one angle
omega trace        trace the domain boundary over an angle range
sigma              the cross-section growth integral of a domain profile
hm-mc              Monte Carlo harmonic measure (walk-on-spheres)
aux verify-lemma   sign/sup grid for the shadow comparison function
aux keldysh        outer-witness amplitude search at boundary samples
criterion analyze  full criterion report for a weight/set pair
scan               estimator-vs-oracle sweep for a threshold family

Exit codes: 0 success, 1 usage/config error, 2 numeric failure, 3 when the
headline verdict is inconclusive and --strict-verdict is set.

Reports are byte-stable: canonical JSON (sorted keys, %.12g floats) or CSV
with a declared header; timing goes to stderr only.  Identical config and
seed produce identical bytes.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import auxfun as aux
from . import boundary as bnd
from . import criterion as crit
from . import geometry as geo
from . import phragmen as phr
from . import weights as wts
from .errors import CapacityError, CyclicityError, DomainError, NumericError, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# canonical serialization


def format_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return '"%s"' % repr(x)
    return "%.12g" % x


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.12g float tokens, no whitespace drift."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, float)):
        return format_float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def csv_text(header, rows) -> str:
    def cell(v):
        if isinstance(v, (np.floating, float)):
            return "%.12g" % float(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def config_hash(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


class RunReport:
    """Report wrapper: command echo, version, config hash, results payload."""

    def __init__(self, command: str, config: dict, results):
        self.command = command
        self.config = config
        self.results = results

    def payload(self) -> dict:
        return {
            "command": self.command,
            "version": __version__,
            "config_hash": config_hash({"command": self.command, **self.config}),
            "config": self.config,
            "results": self.results,
        }


def emit_report(report: RunReport, fmt: str, header=None, rows=None) -> str:
    """Serialized bytes of a report: canonical JSON, or CSV rows with header."""
    if fmt == "json":
        return canonical_json(report.payload()) + "\n"
    if fmt == "csv":
        if header is None:
            raise UsageError("csv format needs tabular results")
        return csv_text(header, rows)
    raise UsageError(f"unknown format {fmt!r}")


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _load_json_arg(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON for {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{what} must be a JSON object")
    return obj


def _weight(args) -> wts.WeightSpec:
    return wts.WeightSpec.from_json(_load_json_arg(args.weight, "--weight"))


def _bset(args) -> bnd.BoundarySet:
    return bnd.BoundarySet.from_json(_load_json_arg(args.set, "--set"))


def _profile(args) -> phr.DomainProfile:
    return phr.DomainProfile.from_json(_load_json_arg(args.profile, "--profile"))


def build_parser() -> _Parser:
    p = _Parser(prog="cyclicity", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, weight=True, bset=True):
        if weight:
            sp.add_argument("--weight", required=True, help="weight spec JSON")
        if bset:
            sp.add_argument("--set", required=True, help="boundary set JSON")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    pw = sub.add_parser("weights", help="weight-family operations")
    pws = pw.add_subparsers(dest="subcommand", required=True)
    pwc = pws.add_parser("check", help="regularity report on a grid")
    add_common(pwc, bset=False)
    pwc.add_argument("--grid-from", type=float, default=1e-2)
    pwc.add_argument("--grid-to", type=float, default=1e-8)
    pwc.add_argument("--points", type=int, default=25)
    pwc.add_argument("--format", choices=("json",), default="json")

    pg = sub.add_parser("gamma", help="solve the implicit boundary equation")
    add_common(pg)
    pg.add_argument("--theta", type=float, required=True)
    pg.add_argument("--normalize-lambda1", action="store_true")

    po = sub.add_parser("omega", help="domain boundary operations")
    pos = po.add_subparsers(dest="subcommand", required=True)
    pot = pos.add_parser("trace", help="trace the boundary over an angle range")
    add_common(pot)
    pot.add_argument("--from", dest="from_", type=float, required=True, help="smallest angle")
    pot.add_argument("--to", type=float, required=True, help="largest angle")
    pot.add_argument("--points", type=int, default=50)
    pot.add_argument("--normalize-lambda1", action="store_true")

    ps = sub.add_parser("sigma", help="cross-section growth integral")
    ps.add_argument("--profile", required=True, help="domain profile JSON")
    ps.add_argument("--rho", type=float, required=True)
    ps.add_argument("--out", default=None)

    ph = sub.add_parser("hm-mc", help="Monte Carlo harmonic measure")
    ph.add_argument("--profile", required=True, help="domain profile JSON")
    ph.add_argument("--z0", default="1,0", help="interior start point re,im")
    ph.add_argument("--rho", type=float, required=True)
    ph.add_argument("--paths", type=int, default=100_000)
    ph.add_argument("--seed", type=int, required=True)
    ph.add_argument("--out", default=None)

    pa = sub.add_parser("aux", help="auxiliary function checks")
    pas = pa.add_subparsers(dest="subcommand", required=True)
    pav = pas.add_parser("verify-lemma", help="sign grid for the comparison function")
    add_common(pav)
    pav.add_argument("--a", type=float, default=2.0 / (5.0 * math.pi))
    pav.add_argument("--A", type=float, default=None)
    pav.add_argument("--grid", type=int, default=12)
    pak = pas.add_parser("keldysh", help="outer witness amplitude search")
    add_common(pak)
    pak.add_argument("--samples", default="1e-2,1e-3,1e-4",
                     help="comma-separated boundary angles")
    pak.add_argument("--max-power", type=int, default=10)

    pc = sub.add_parser("criterion", help="cyclicity criterion")
    pcs = pc.add_subparsers(dest="subcommand", required=True)
    pca = pcs.add_parser("analyze", help="full criterion report")
    add_common(pca)
    pca.add_argument("--checkpoints", type=int, default=24)
    pca.add_argument("--format", choices=("json", "csv"), default="json")
    pca.add_argument("--arcs-out", default=None, help="per-arc CSV path")
    pca.add_argument("--arcs-cutoff", type=float, default=None)
    pca.add_argument("--strict-verdict", action="store_true")

    pn = sub.add_parser("scan", help="threshold-family sweep")
    pn.add_argument("--theorem", required=True, choices=crit.THEOREMS)
    pn.add_argument("--alpha-from", type=float, required=True)
    pn.add_argument("--alpha-to", type=float, required=True)
    pn.add_argument("--step", type=float, required=True)
    pn.add_argument("--beta", type=float, default=0.0)
    pn.add_argument("--depth", type=int, default=30)
    pn.add_argument("--out", default=None)
    pn.add_argument("--strict-verdict", action="store_true")
    return p


# ---------------------------------------------------------------------------
# command handlers


def _cmd_weights_check(args) -> int:
    spec = _weight(args)
    if args.points < 8:
        raise UsageError("need at least 8 grid points")
    grid = np.geomspace(args.grid_from, args.grid_to, args.points)
    rep = wts.check_regularity(spec, grid)
    report = RunReport("weights check", {"weight": spec.to_json(),
                                         "grid_from": args.grid_from,
                                         "grid_to": args.grid_to,
                                         "points": args.points},
                       {"max_t_lambda": rep.max_t_lambda,
                        "argmax_t_lambda": rep.argmax_t_lambda,
                        "max_log_deriv_ratio": rep.max_log_deriv_ratio,
                        "lambda_decreasing": rep.lambda_decreasing,
                        "t_lambda_vanishing": rep.t_lambda_vanishing,
                        "n_points": rep.n_points})
    _write_out(emit_report(report, "json"), args.out)
    return EXIT_OK


_TRACE_HEADER = ("theta", "gamma", "residual", "R", "phi")


def _trace_rows(weight, bset, thetas, normalize):
    sol = geo.solve_gamma_array(weight, bset, thetas, normalize_lambda1=normalize)
    rows = []
    for theta, gamma, residual in zip(sol.theta.tolist(), sol.gamma.tolist(), sol.residual.tolist()):
        hp = geo.to_halfplane((1.0 - gamma) * cmath.exp(1j * theta))
        rows.append((theta, gamma, residual, hp.R, hp.phi))
    return rows


def _cmd_gamma(args) -> int:
    rows = _trace_rows(_weight(args), _bset(args), [args.theta], args.normalize_lambda1)
    _write_out(csv_text(_TRACE_HEADER, rows), args.out)
    return EXIT_OK


def _cmd_omega_trace(args) -> int:
    if not (0.0 < args.from_ < args.to):
        raise UsageError("need 0 < --from < --to")
    if args.points < 2:
        raise UsageError("need at least 2 points")
    thetas = np.geomspace(args.from_, args.to, args.points)
    rows = _trace_rows(_weight(args), _bset(args), thetas, args.normalize_lambda1)
    _write_out(csv_text(_TRACE_HEADER, rows), args.out)
    return EXIT_OK


def _cmd_sigma(args) -> int:
    profile = _profile(args)
    val = phr.sigma(profile, args.rho)
    report = RunReport("sigma", {"profile": profile.to_json(), "rho": args.rho},
                       {"sigma": val})
    _write_out(emit_report(report, "json"), args.out)
    return EXIT_OK


def _cmd_hm_mc(args) -> int:
    profile = _profile(args)
    try:
        re_s, im_s = args.z0.split(",")
        z0 = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise UsageError("--z0 must be re,im") from exc
    est = phr.harmonic_measure_mc(profile, z0, args.rho, args.paths, args.seed)
    report = RunReport("hm-mc", {"profile": profile.to_json(), "z0": [z0.real, z0.imag],
                                 "rho": args.rho, "paths": args.paths, "seed": args.seed},
                       {"mean": est.mean, "standard_error": est.standard_error,
                        "capped_paths": est.capped_paths})
    _write_out(emit_report(report, "json"), args.out)
    return EXIT_OK


def _cmd_verify_lemma(args) -> int:
    weight, bset = _weight(args), _bset(args)
    spec = aux.GammaRegionSpec(weight=weight, bset=bset, a=args.a, A=args.A)
    n = args.grid
    if n < 2:
        raise UsageError("--grid must be >= 2")
    lams = []
    radii = 1.0 - np.geomspace(1e-8, 1e-1, n)
    angles = np.geomspace(1e-3, math.pi * 0.9, n)
    for r in radii:
        for ang in angles:
            lam = r * cmath.exp(1j * float(ang))
            if aux.in_gamma_region(spec, lam):
                lams.append(lam)
    zs = [rr * cmath.exp(1j * float(az))
          for rr in 1.0 - np.geomspace(1e-7, 0.5, n)
          for az in np.linspace(0.0, math.pi, n)]
    rows = []
    sup_h = -math.inf
    for lam in lams:
        for z in zs:
            h = aux.h_lambda(weight, bset, lam, z)
            sup_h = max(sup_h, h)
            rows.append((lam.real, lam.imag, z.real, z.imag, h,
                         aux.case_tag(spec, lam, z)))
    _write_out(csv_text(("lambda_re", "lambda_im", "z_re", "z_im", "H", "case_tag"), rows),
               args.out)
    # stdout stays pure CSV when the grid goes there
    summary = sys.stderr if args.out in (None, "-") else sys.stdout
    summary.write("SUP_H %s\n" % format_float(sup_h))
    return EXIT_OK


def _cmd_keldysh(args) -> int:
    weight, bset = _weight(args), _bset(args)
    try:
        thetas = [float(t) for t in args.samples.split(",") if t]
    except ValueError as exc:
        raise UsageError("--samples must be comma-separated angles") from exc
    if not thetas:
        raise UsageError("need at least one sample angle")
    amp = aux.witness_amplitude_search(weight, bset, thetas, max_power=args.max_power)
    report = RunReport("aux keldysh", {"weight": weight.to_json(), "set": bset.to_json(),
                                       "samples": thetas, "max_power": args.max_power},
                       {"amplitude": amp})
    _write_out(emit_report(report, "json"), args.out)
    return EXIT_OK


def _cmd_criterion_analyze(args) -> int:
    weight, bset = _weight(args), _bset(args)
    if args.checkpoints < 6:
        raise UsageError("--checkpoints must be >= 6")
    eps = crit.default_checkpoints(weight, bset, count=args.checkpoints)
    report = crit.criterion_partials(weight, bset, eps)
    verdict = report.verdict()
    alt = report.alt_verdict()
    results = {
        "checkpoints": list(report.checkpoints),
        "e_and_short": list(report.e_and_short),
        "intermediate_sum": list(report.intermediate_sum),
        "long_sum": list(report.long_sum),
        "total": list(report.total),
        "alt_e_integral": list(report.alt_e_integral),
        "alt_gs_integral": list(report.alt_gs_integral),
        "alt_arc_sum": list(report.alt_arc_sum),
        "verdict": verdict.verdict,
        "model": verdict.model,
        "fitted_exponent": verdict.exponent,
        "fit_residual": verdict.fit_residual,
        "alt_verdict": alt.verdict,
        "forms_agree": verdict.verdict == alt.verdict,
    }
    run = RunReport("criterion analyze", {"weight": weight.to_json(), "set": bset.to_json(),
                                          "checkpoints": args.checkpoints}, results)
    if args.format == "json":
        _write_out(emit_report(run, "json"), args.out)
    else:
        header = ("eps", "e_and_short", "intermediate_sum", "long_sum", "total",
                  "alt_e_integral", "alt_gs_integral", "alt_arc_sum")
        rows = list(zip(report.checkpoints, report.e_and_short, report.intermediate_sum,
                        report.long_sum, report.total, report.alt_e_integral,
                        report.alt_gs_integral, report.alt_arc_sum))
        _write_out(emit_report(run, "csv", header=header, rows=rows), args.out)
    if args.arcs_out is not None:
        if args.arcs_cutoff is not None:
            cutoff = args.arcs_cutoff
        elif bset.kind == "cantor":
            # a full enumeration down to the deepest checkpoint is exponential
            cutoff = max(float(eps.min()), 3.0 ** -min(bset.depth, 11))
        else:
            cutoff = float(eps.min())
        enum_set = bset
        if bset.kind == "cantor":
            # list generations down to the cutoff scale; deeper gaps sit below
            # it or are exponentially many slivers of the listed ones
            gen_cap = max(1, min(bset.depth, int(math.ceil(math.log(1.0 / cutoff) / math.log(3.0)))))
            enum_set = bnd.BoundarySet.cantor(gen_cap, mirror=bset.mirror)
        a, b = bnd.arc_arrays(enum_set, cutoff)
        # an open arc meets [cutoff, 1] when b > cutoff (as in complementary_arcs)
        keep = (b > cutoff) & (a < weight.pure_cut)
        a, b = a[keep], b[keep]
        cls, contrib, _ = crit.arc_terms(weight, a, b, float(eps.min()))
        rows = zip(a, b, (crit.ARC_CLASSES[c] for c in cls), contrib)
        _write_out(csv_text(("a", "b", "class", "contribution"), rows), args.arcs_out)
    if args.strict_verdict and verdict.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.step <= 0.0:
        raise UsageError("--step must be positive")
    alphas = []
    a = args.alpha_from
    while a <= args.alpha_to + 1e-12:
        alphas.append(round(a, 12))
        a += args.step
    rows = []
    any_inconclusive = False
    for alpha in alphas:
        row = crit.theorem_scan_point(args.theorem, alpha, beta=args.beta, depth=args.depth)
        any_inconclusive |= row["verdict"] == "inconclusive"
        rows.append((row["alpha"], row["fitted_exponent"], row["verdict"],
                     row["oracle"], row["agree"]))
    _write_out(csv_text(("alpha", "fitted_exponent", "verdict", "oracle", "agree"), rows),
               args.out)
    if args.strict_verdict and any_inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


_HANDLERS = {
    ("weights", "check"): _cmd_weights_check,
    ("gamma", None): _cmd_gamma,
    ("omega", "trace"): _cmd_omega_trace,
    ("sigma", None): _cmd_sigma,
    ("hm-mc", None): _cmd_hm_mc,
    ("aux", "verify-lemma"): _cmd_verify_lemma,
    ("aux", "keldysh"): _cmd_keldysh,
    ("criterion", "analyze"): _cmd_criterion_analyze,
    ("scan", None): _cmd_scan,
}


def run_command(argv) -> int:
    """Parse and execute; returns the exit code (never raises toolkit errors)."""
    parser = build_parser()
    t0 = time.time()
    try:
        args = parser.parse_args(list(argv))
        handler = _HANDLERS[(args.command, getattr(args, "subcommand", None))]
        code = handler(args)
    except (UsageError, DomainError, CapacityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (NumericError, OSError) as exc:
        sys.stderr.write(f"numeric/io error: {exc}\n")
        return EXIT_NUMERIC
    except CyclicityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    sys.stderr.write("elapsed %.3fs\n" % (time.time() - t0))
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
