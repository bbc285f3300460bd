"""Self-test of the benchmark's checks: each must pass a real output and reject a perturbed one.

Usage (from the root of a checkout):

    python3 bench/selftest.py

One job of each kind runs once through ``cyclicity.cli.run_command``.  Its
output must pass the check, and every perturbation below must be rejected.
Prints one line per case and exits non-zero if any case goes the wrong way.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import jobs
import oracles
import run

FAILURES: list[str] = []


def _expect(label: str, fn, reject: bool) -> None:
    try:
        fn()
        rejected, why = False, ""
    except oracles.CheckFailed as exc:
        rejected, why = True, str(exc)
    ok = rejected == reject
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {'rejected' if rejected else 'accepted'}"
          + (f" ({why[:90]})" if why else ""))
    if not ok:
        FAILURES.append(label)


def _run(cli, job, workdir: Path) -> tuple[str, str | None]:
    out, arcs = workdir / "out", workdir / "arcs"
    argv = list(job.argv) + ["--out", str(out)] + (["--arcs-out", str(arcs)] if job.arcs_out else [])
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_command(argv)
    if code != 0:
        raise SystemExit(f"error: {job.name} exited {code}")
    return out.read_text(), arcs.read_text() if job.arcs_out else None


def _edit_json(text: str, edit) -> str:
    rep = json.loads(text)
    edit(rep["results"])
    return json.dumps(rep)


def _edit_csv(text: str, edit) -> str:
    lines = text.splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    edit(rows)
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def _scaled(cell: str, factor: float) -> str:
    return repr(float(cell) * factor)


def analyze_cases(cli, wd: Path) -> None:
    full = jobs._analyze("full", "x", {"family": "log_power", "alpha": 1.5}, {"kind": "full"})
    text, _ = _run(cli, full, wd)
    check = oracles.check_analyze
    _expect("analyze: real output", lambda: check(full, text), False)

    def flip_verdict(r):
        r["verdict"] = "convergent"

    def decrease(r):
        r["e_and_short"][5] = r["e_and_short"][4] - 1e-3

    def negative(r):
        r["intermediate_sum"][0] = -1e-3

    def total_off(r):
        r["total"][7] *= 1.001

    def alt_gs_off(r):
        r["alt_gs_integral"][9] *= 1.0 + 1e-6

    def e_part_off(r):  # keeps total = sum of parts, so only the closed form can object
        r["e_and_short"][9] *= 1.0 + 1e-6
        r["total"][9] = r["e_and_short"][9] + r["intermediate_sum"][9] + r["long_sum"][9]

    for label, edit in (("verdict against the threshold rule", flip_verdict),
                        ("decreasing column", decrease), ("negative entry", negative),
                        ("total != sum of parts", total_off),
                        ("alt_gs_integral off its closed form", alt_gs_off),
                        ("full-circle e_and_short off its closed form", e_part_off)):
        bad = _edit_json(text, edit)
        _expect(f"analyze: {label}", lambda: check(full, bad), True)

    _expect("variants: one verdict", lambda: oracles.check_group(
        "variants", [{"verdict": "divergent"}] * 6), False)
    _expect("variants: verdict changes", lambda: oracles.check_group(
        "variants", [{"verdict": "divergent"}] * 5 + [{"verdict": "inconclusive"}]), True)

    arcs_job = jobs._analyze("arcs", "x", {"family": "log_power", "alpha": 2.5},
                             {"kind": "beta", "beta": 0.25}, arcs_cutoff=1e-40)
    _, arcs = _run(cli, arcs_job, wd)
    _expect("arcs: real listing", lambda: oracles.check_arcs(arcs_job, arcs), False)

    def swap(rows):
        rows[3], rows[4] = rows[4], rows[3]

    def overlap(rows):
        rows[6][1] = _scaled(rows[5][0], 1.01)

    def retag(rows):
        rows[10][2] = "long" if rows[10][2] != "long" else "short"

    def drop(rows):
        del rows[-1]

    def shift(rows):  # stays inside its gap, so order and disjointness still hold
        rows[12][0] = _scaled(rows[12][0], 1.0001)

    for label, edit in (("rows out of order", swap), ("overlapping rows", overlap),
                        ("wrong class tag", retag), ("missing arc", drop),
                        ("endpoint off the set", shift)):
        bad = _edit_csv(arcs, edit)
        _expect(f"arcs: {label}", lambda: oracles.check_arcs(arcs_job, bad), True)


def scan_cases(cli, wd: Path) -> None:
    scan = jobs.Job("scan", "scan", ("scan", "--theorem", "gs", "--alpha-from", "0.5", "--alpha-to", "2.5",
                                     "--step", "1.0", "--beta", "0.0"), "scan",
                    {"theorem": "gs", "beta": 0.0, "alpha_from": 0.5, "alpha_to": 2.5, "step": 1.0})
    text, _ = _run(cli, scan, wd)
    _expect("scan: real output", lambda: oracles.check_scan(scan, text), False)

    def flip_both(rows):  # verdict and agree flipped together stay self-consistent
        rows[2][2] = "divergent"
        rows[2][4] = "False"

    def flip_oracle(rows):
        rows[0][3] = "convergent"
        rows[0][4] = "False"

    def flip_agree(rows):
        rows[1][4] = "False"

    for label, edit in (("verdict against the rule", flip_both), ("oracle column", flip_oracle),
                        ("agree column", flip_agree)):
        bad = _edit_csv(text, edit)
        _expect(f"scan: {label}", lambda: oracles.check_scan(scan, bad), True)


def trace_cases(cli, wd: Path) -> None:
    weight = {"family": "from_w", "p": 1.0, "scale": 4.0}
    for bset in ({"kind": "full"}, {"kind": "cantor", "depth": 15}):
        lo, hi, n = 1e-10, 1e-1, 12
        trace = jobs.Job("trace", "x", ("omega", "trace", "--weight", json.dumps(weight), "--set", json.dumps(bset),
                                        "--from", repr(lo), "--to", repr(hi), "--points", str(n)), "trace",
                         {"weight": weight, "set": bset, "thetas": jobs._geomspace(lo, hi, n)})
        text, _ = _run(cli, trace, wd)
        kind = bset["kind"]
        _expect(f"trace {kind}: real output", lambda: oracles.check_trace(trace, text), False)

        def gamma_off(rows):
            rows[4][1] = _scaled(rows[4][1], 1.0 + 1e-9)

        def residual_big(rows):
            rows[2][2] = _scaled(rows[2][1], 1e-11)

        def r_off(rows):
            rows[6][3] = _scaled(rows[6][3], 1.0 + 1e-6)

        def phi_off(rows):
            rows[8][4] = repr(float(rows[8][4]) + 1e-6)

        for label, edit in (("gamma off the root", gamma_off), ("residual certificate", residual_big),
                            ("R off", r_off), ("phi off", phi_off), ("missing row", lambda rows: rows.pop())):
            bad = _edit_csv(text, edit)
            _expect(f"trace {kind}: {label}", lambda: oracles.check_trace(trace, bad), True)

    theta, gamma = 1e-3, oracles.solve_gamma(weight, {"kind": "full"}, 1e-3)
    _expect("full circle: gamma w(gamma) = theta sqrt(scale)",
            lambda: oracles.check_full_circle(weight, theta, gamma), False)
    _expect("full circle: gamma off by 1e-6",
            lambda: oracles.check_full_circle(weight, theta, gamma * (1.0 + 1e-6)), True)


def keldysh_cases(cli, wd: Path) -> None:
    bset, alpha = jobs.WITNESSES[0]
    weight = {"family": "log_power", "alpha": alpha}
    job = jobs.Job("keldysh", "x", ("aux", "keldysh", "--weight", json.dumps(weight), "--set", json.dumps(bset),
                                    "--samples", "0.01,0.001,0.0001", "--max-power", "10"), "keldysh",
                   {"weight": weight, "set": bset, "samples": [1e-2, 1e-3, 1e-4], "max_power": 10})
    text, _ = _run(cli, job, wd)
    amp = json.loads(text)["results"]["amplitude"]

    def with_amp(value):
        return _edit_json(text, lambda r: r.update(amplitude=value))

    check = oracles.check_keldysh
    outer = run.keldysh_outer
    _expect(f"keldysh: real amplitude {amp}", lambda: check(job, text, outer), False)
    _expect("keldysh: not a power of two", lambda: check(job, with_amp(amp + 1), outer), True)
    _expect("keldysh: amplitude too small", lambda: check(job, with_amp(amp // 2), outer), True)
    _expect("keldysh: amplitude not minimal", lambda: check(job, with_amp(2 * amp), outer), True)


def phragmen_cases(cli, wd: Path) -> None:
    for pname, profile in (("half-plane", jobs.HALF_PLANE), ("wedge", jobs.WEDGE)):
        job = jobs._hm(pname, "x", profile, 8.0, 20_000, 2026)
        text, _ = _run(cli, job, wd)
        _expect(f"hm-mc {pname}: real output", lambda: oracles.check_hm(job, text), False)
        shifted = _edit_json(text, lambda r: r.update(mean=r["mean"] + 5.0 * r["standard_error"]))
        _expect(f"hm-mc {pname}: mean 5 SE off", lambda: oracles.check_hm(job, shifted), True)
        capped = _edit_json(text, lambda r: r.update(capped_paths=1))
        _expect(f"hm-mc {pname}: capped path", lambda: oracles.check_hm(job, capped), True)

        sig = jobs.Job("sigma", "x", ("sigma", "--profile", json.dumps(profile), "--rho", "100.0"), "sigma",
                       {"profile": profile, "rho": 100.0})
        text, _ = _run(cli, sig, wd)
        _expect(f"sigma {pname}: real output", lambda: oracles.check_sigma(sig, text), False)
        off = _edit_json(text, lambda r: r.update(sigma=r["sigma"] * 1.01))
        _expect(f"sigma {pname}: 1% off", lambda: oracles.check_sigma(sig, off), True)

    near, far = {"mean": 0.09, "se": 0.001}, {"mean": 0.015, "se": 0.0004}
    _expect("x2 decay: far below near", lambda: oracles.check_group("x2-decay", [near, far]), False)
    _expect("x2 decay: far above near", lambda: oracles.check_group(
        "x2-decay", [near, {"mean": 0.1, "se": 0.001}]), True)


def main() -> int:
    run.pin_environment()
    cli = run.load_program()
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        wd = Path(tmp)
        for cases in (analyze_cases, scan_cases, trace_cases, keldysh_cases, phragmen_cases):
            cases(cli, wd)
    print(f"{len(FAILURES)} case(s) went the wrong way" if FAILURES else "every check passes real output and rejects perturbed output")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
