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

Reports are byte-stable; timing goes to stderr only, and identical config
and seed produce identical bytes.  A JSON report is the envelope {command,
version, config_hash, config, results} in canonical JSON (sorted keys,
%.12g floats); a CSV report is a declared header and its columns.  The CSV of
criterion analyze has the columns of the JSON arrays of its results, with
the checkpoints named eps.  Every float flag, every number in a JSON
argument, every --samples angle and both --z0 coordinates must be finite.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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

MAX_SCAN_ROWS = 100_000  # rows one scan may list, far above any sweep in the README


# ---------------------------------------------------------------------------
# canonical serialization


_float_token = "%.12g".__mod__  # the one float format of every report


def format_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return '"%s"' % repr(x)
    return _float_token(x)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.12g float tokens, no whitespace drift."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray) and obj.dtype == float and obj.ndim == 1 and np.isfinite(obj).all():
        return "[" + ",".join(map(_float_token, obj.tolist())) + "]"
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


def csv_lines(columns) -> str:
    """CSV lines of equal-length columns, each ending in a newline: a float
    column's cells as %.12g, any other column's as str, in one format call."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    cells = np.column_stack([c.astype(object) for c in columns]).ravel().tolist()
    return (fmt * (len(cells) // len(columns))) % tuple(cells)


def csv_text(header, columns) -> str:
    return ",".join(header) + "\n" + csv_lines(columns)


def config_hash(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def json_report(command: str, config: dict, results) -> str:
    """The JSON report: command echo, version, config hash, config and results."""
    return canonical_json({"command": command, "version": __version__,
                           "config_hash": config_hash({"command": command, **config}),
                           "config": config, "results": results}) + "\n"


def _write_out(text, out: str | None) -> None:
    """Write text, a string or an iterable of strings, to out (stdout for None or -)."""
    chunks = [text] if isinstance(text, str) else text
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _finite(text: str) -> float:
    """The argparse type of every float flag; a non-number keeps argparse's own message."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _finite_list(text: str) -> list[float]:
    """The argparse type of a comma-separated list of finite numbers; empty items are skipped."""
    return [_finite(t) for t in text.split(",") if t]


def _load_json_arg(text: str, what: str) -> dict:
    def finite(token: str, kind=float):  # NaN, Infinity, 1e999 and integers past the float range
        if not math.isfinite(float(token)):
            raise UsageError(f"{what} must hold finite numbers, not {token}")
        return kind(token)

    try:
        obj = json.loads(text, parse_float=finite, parse_constant=finite,
                         parse_int=lambda token: finite(token, int))
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


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built on first use and shared by every later call.

    Sharing is safe: parse_args writes into a fresh namespace, never into
    the parser.  Each leaf parser binds its handler, which run_command calls.
    """
    p = _Parser(prog="cyclicity", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    json_flags = {"weight": "weight spec JSON", "set": "boundary set JSON",
                  "profile": "domain profile JSON"}

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def leaf(parent, name, handler, help, *flags):
        sp = parent.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        for flag in flags:
            sp.add_argument("--" + flag, required=True, help=json_flags[flag])
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        return sp

    pwc = leaf(group("weights", "weight-family operations"), "check", _cmd_weights_check,
               "regularity report on a grid", "weight")
    pwc.add_argument("--grid-from", type=_finite, default=1e-2)
    pwc.add_argument("--grid-to", type=_finite, default=1e-8)
    pwc.add_argument("--points", type=int, default=25)

    pg = leaf(sub, "gamma", _cmd_gamma, "solve the implicit boundary equation", "weight", "set")
    pg.add_argument("--theta", type=_finite, required=True)
    pg.add_argument("--normalize-lambda1", action="store_true")

    pot = leaf(group("omega", "domain boundary operations"), "trace", _cmd_omega_trace,
               "trace the boundary over an angle range", "weight", "set")
    pot.add_argument("--from", dest="from_", type=_finite, required=True, help="smallest angle")
    pot.add_argument("--to", type=_finite, required=True, help="largest angle")
    pot.add_argument("--points", type=int, default=50)
    pot.add_argument("--normalize-lambda1", action="store_true")

    ps = leaf(sub, "sigma", _cmd_sigma, "cross-section growth integral", "profile")
    ps.add_argument("--rho", type=_finite, required=True)

    ph = leaf(sub, "hm-mc", _cmd_hm_mc, "Monte Carlo harmonic measure", "profile")
    ph.add_argument("--z0", type=_finite_list, default="1,0", help="interior start point re,im")
    ph.add_argument("--rho", type=_finite, required=True)
    ph.add_argument("--paths", type=int, default=100_000)
    ph.add_argument("--seed", type=int, required=True)

    pas = group("aux", "auxiliary function checks")
    pav = leaf(pas, "verify-lemma", _cmd_verify_lemma, "sign grid for the comparison function",
               "weight", "set")
    pav.add_argument("--a", type=_finite, default=2.0 / (5.0 * math.pi))
    pav.add_argument("--A", type=_finite, default=None)
    pav.add_argument("--grid", type=int, default=12)
    pak = leaf(pas, "keldysh", _cmd_keldysh, "outer witness amplitude search", "weight", "set")
    pak.add_argument("--samples", type=_finite_list, default="1e-2,1e-3,1e-4",
                     help="comma-separated boundary angles")
    pak.add_argument("--max-power", type=int, default=10)

    pca = leaf(group("criterion", "cyclicity criterion"), "analyze", _cmd_criterion_analyze,
               "full criterion report", "weight", "set")
    pca.add_argument("--checkpoints", type=int, default=24)
    pca.add_argument("--format", choices=("json", "csv"), default="json")
    pca.add_argument("--arcs-out", default=None, help="per-arc CSV path")
    pca.add_argument("--arcs-cutoff", type=_finite, default=None)
    pca.add_argument("--strict-verdict", action="store_true")

    pn = leaf(sub, "scan", _cmd_scan, "threshold-family sweep")
    pn.add_argument("--theorem", required=True, choices=crit.THEOREMS)
    pn.add_argument("--alpha-from", type=_finite, required=True)
    pn.add_argument("--alpha-to", type=_finite, required=True)
    pn.add_argument("--step", type=_finite, required=True)
    pn.add_argument("--beta", type=_finite, default=0.0)
    pn.add_argument("--depth", type=int, default=30)
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
    config = {"weight": spec.to_json(), "grid_from": args.grid_from, "grid_to": args.grid_to,
              "points": args.points}
    _write_out(json_report("weights check", config, dataclasses.asdict(rep)), args.out)
    return EXIT_OK


def _trace_csv(weight, bset, thetas, normalize) -> str:
    sol = geo.solve_gamma_array(geo.normalized_for_lambda1(weight) if normalize else weight, bset, thetas)
    hp = geo.to_halfplane((1.0 - sol.gamma) * np.exp(1j * sol.theta))
    return csv_text(("theta", "gamma", "residual", "R", "phi"), (sol.theta, sol.gamma, sol.residual, hp.R, hp.phi))


def _cmd_gamma(args) -> int:
    _write_out(_trace_csv(_weight(args), _bset(args), [args.theta], args.normalize_lambda1), args.out)
    return EXIT_OK


def _cmd_omega_trace(args) -> int:
    if not (0.0 < args.from_ < args.to):
        raise UsageError("need 0 < --from < --to")
    if args.points < 2:
        raise UsageError("need at least 2 points")
    thetas = np.geomspace(args.from_, args.to, args.points)
    _write_out(_trace_csv(_weight(args), _bset(args), thetas, args.normalize_lambda1), args.out)
    return EXIT_OK


def _cmd_sigma(args) -> int:
    profile = _profile(args)
    val = phr.sigma(profile, args.rho)
    _write_out(json_report("sigma", {"profile": profile.to_json(), "rho": args.rho}, {"sigma": val}),
               args.out)
    return EXIT_OK


def _cmd_hm_mc(args) -> int:
    profile = _profile(args)
    if len(args.z0) != 2:
        raise UsageError("--z0 must be re,im")
    z0 = complex(*args.z0)
    est = phr.harmonic_measure_mc(profile, z0, args.rho, args.paths, args.seed)
    config = {"profile": profile.to_json(), "z0": [z0.real, z0.imag], "rho": args.rho,
              "paths": args.paths, "seed": args.seed}
    results = {"mean": est.mean, "standard_error": est.standard_error, "capped_paths": est.capped_paths}
    _write_out(json_report("hm-mc", config, results), args.out)
    return EXIT_OK


def _cmd_verify_lemma(args) -> int:
    weight, bset = _weight(args), _bset(args)
    spec = aux.GammaRegionSpec(weight=weight, bset=bset, a=args.a, A=args.A)
    n = args.grid
    if n < 2:
        raise UsageError("--grid must be >= 2")
    grid = np.outer(1.0 - np.geomspace(1e-8, 1e-1, n), np.exp(1j * np.geomspace(1e-3, math.pi * 0.9, n))).ravel()
    lams = grid[aux.in_gamma_region(spec, grid)]
    zs = np.outer(1.0 - np.geomspace(1e-7, 0.5, n), np.exp(1j * np.linspace(0.0, math.pi, n))).ravel()
    h = np.array([aux.h_lambda(weight, bset, lam, zs) for lam in lams]).ravel()
    tags = np.array([aux.case_tag(spec, lam, zs) for lam in lams]).ravel()
    columns = (np.repeat(lams.real, zs.size), np.repeat(lams.imag, zs.size),
               np.tile(zs.real, lams.size), np.tile(zs.imag, lams.size), h, tags)
    _write_out(csv_text(("lambda_re", "lambda_im", "z_re", "z_im", "H", "case_tag"), columns), args.out)
    # stdout stays pure CSV when the grid goes there
    summary = sys.stderr if args.out in (None, "-") else sys.stdout
    summary.write("SUP_H %s\n" % format_float(float(h.max(initial=-math.inf))))
    return EXIT_OK


def _cmd_keldysh(args) -> int:
    weight, bset = _weight(args), _bset(args)
    if not args.samples:
        raise UsageError("need at least one sample angle")
    amp = aux.witness_amplitude_search(weight, bset, args.samples, max_power=args.max_power)
    config = {"weight": weight.to_json(), "set": bset.to_json(), "samples": args.samples,
              "max_power": args.max_power}
    _write_out(json_report("aux keldysh", config, {"amplitude": amp}), args.out)
    return EXIT_OK


def _arc_listing(weight, bset, eps, cutoff):
    """The per-arc CSV of the window arcs with b above cutoff that the
    criterion scores, as its header and then one string per block of arcs.

    Every refusal of the cutoff is raised on this call, before any text is made.
    """
    lower = float(eps.min())
    if cutoff is None:
        cutoff = lower
        if bset.kind == "cantor":
            # a full enumeration down to the deepest checkpoint is exponential
            cutoff = max(cutoff, 3.0 ** -min(bset.depth, 11))
    if bset.kind == "cantor":
        # list generations down to the cutoff scale; deeper gaps sit below
        # it or are exponentially many slivers of the listed ones
        gen_cap = max(1, min(bset.depth, bnd.cantor_generation(cutoff)))
        bset = bnd.BoundarySet("cantor", depth=gen_cap, mirror=bset.mirror)
    blocks = bnd.arc_blocks(bset, cutoff, crit.ARC_BLOCK)
    names = np.array(crit.ARC_CLASSES)

    def text():
        yield "a,b,class,contribution\n"
        for a, b in blocks:
            keep = crit.is_scored(weight, a)
            a, b = a[keep], b[keep]
            cls, contrib, _ = crit.arc_terms(weight, a, b, lower)
            yield csv_lines((a, b, names[cls], contrib))

    return text()


def _cmd_criterion_analyze(args) -> int:
    weight, bset = _weight(args), _bset(args)
    if args.checkpoints < 6:
        raise UsageError("--checkpoints must be >= 6")
    if args.arcs_cutoff is not None and args.arcs_cutoff <= 0.0:
        raise UsageError("--arcs-cutoff must be positive")
    eps = crit.default_checkpoints(weight, bset, count=args.checkpoints)
    report = crit.criterion_partials(weight, bset, eps)
    verdict = report.verdict()
    alt = report.alt_verdict()
    names = [f.name for f in dataclasses.fields(report)]
    columns = [getattr(report, name) for name in names]
    if args.format == "csv":
        text = csv_text(["eps", *names[1:]], columns)
    else:
        results = dict(zip(names, columns), verdict=verdict.verdict, model=verdict.model,
                       fitted_exponent=verdict.exponent, fit_residual=verdict.fit_residual,
                       alt_verdict=alt.verdict, forms_agree=verdict.verdict == alt.verdict)
        config = {"weight": weight.to_json(), "set": bset.to_json(), "checkpoints": args.checkpoints}
        text = json_report("criterion analyze", config, results)
    # the listing's cutoff is checked before anything is written, so a refused cutoff writes nothing
    arcs = None if args.arcs_out is None else _arc_listing(weight, bset, eps, args.arcs_cutoff)
    _write_out(text, args.out)
    if arcs is not None:
        _write_out(arcs, args.arcs_out)
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
        if len(alphas) > MAX_SCAN_ROWS:  # also a step below the float spacing of alpha
            raise UsageError(f"--step {args.step!r} gives more than {MAX_SCAN_ROWS} scan rows")
        a += args.step
    header = ("alpha", "fitted_exponent", "verdict", "oracle", "agree")
    points = [crit.theorem_scan_point(args.theorem, alpha, beta=args.beta, depth=args.depth) for alpha in alphas]
    _write_out(csv_text(header, [[point[name] for point in points] for name in header]), args.out)
    if args.strict_verdict and any(point["verdict"] == "inconclusive" for point in points):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def run_command(argv) -> int:
    """Parse and execute; returns the exit code (never raises toolkit errors)."""
    t0 = time.perf_counter()
    try:
        args = build_parser().parse_args(list(argv))
        code = args.handler(args)
    except SystemExit as exc:  # parse_args, after printing --help or --version
        return exc.code
    except (UsageError, DomainError, CapacityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (NumericError, OSError) as exc:
        sys.stderr.write(f"numeric/io error: {exc}\n")
        return EXIT_NUMERIC
    except CyclicityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    sys.stderr.write("elapsed %.3fs\n" % (time.perf_counter() - t0))
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
