"""Benchmark of the cyclicity toolkit: fixed, seeded batches of CLI jobs.

Usage (from the root of a checkout):

    python3 bench/run.py --workload criterion-matrix --seed 1 --seconds 30 --trace 0

A run builds the workload's job list from the seed, then runs the whole list
in rounds, in this one process and single-threaded, for --seconds (at
least three rounds; a round started is finished).  Each job calls
``cyclicity.cli.run_command`` with --out to a scratch file and is timed from
outside; after the round every output is checked against the independent
oracles in ``oracles.py``.  A job that exits non-zero, raises, or fails a
check counts as failed.

--trace 0 reports the end-to-end metrics: wall_s (median round time),
job_p50_ms (median over jobs of each job's median time), peak_rss_mb and
setup_s (median time from a fresh interpreter to a built job list, over
several fresh processes).  --trace 1 alternates untraced and traced rounds
and reports the per-layer metrics of ``tracing.py``; end-to-end metrics never
come from a traced round.

The last line of standard output is the result as one JSON object.  A fuller
record, with the machine and library versions, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs
import oracles
from tracing import PER_LAYER, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 4  # two untraced, two traced
SETUP_PROBES = 5
READY = "setup-ready"


def pin_environment() -> None:
    """Single-threaded numerics and no ambient Monte Carlo threads, whatever the caller set.

    Must run before numpy is first imported.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("CYCLICITY_THREADS", None)


def load_program():
    """The toolkit's CLI module, imported from the checkout's src/."""
    if not (SRC / "cyclicity" / "cli.py").is_file():
        raise SystemExit(f"error: toolkit source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from cyclicity import cli

    return cli


# ---------------------------------------------------------------------------
# setup time


def _setup_probe(workload: str, seed: int) -> None:
    """What a run does before its first job: imports and the job list."""
    load_program()
    jobs.build(workload, seed)
    print(READY, flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its built job list."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
            try:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - t0)
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != READY or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    return times


# ---------------------------------------------------------------------------
# rounds


class Checker:
    """Runs each job's check once per distinct output; outputs are deterministic."""

    def __init__(self):
        self.memo: dict[tuple, tuple[str | None, dict]] = {}

    def _check(self, job, text: str, arcs_text: str | None) -> dict:
        if job.check == "analyze":
            facts = oracles.check_analyze(job, text)
            if job.arcs_out:
                oracles.check_arcs(job, arcs_text)
            return facts
        if job.check == "keldysh":
            oracles.check_keldysh(job, text, keldysh_outer)
            return {}
        fn = {"scan": oracles.check_scan, "trace": oracles.check_trace,
              "hm": oracles.check_hm, "sigma": oracles.check_sigma}[job.check]
        return fn(job, text) or {}

    def __call__(self, job, text: str, arcs_text: str | None) -> tuple[str | None, dict]:
        key = (job.name, text, arcs_text)
        if key not in self.memo:
            try:
                self.memo[key] = (None, self._check(job, text, arcs_text))
            except (oracles.CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
                self.memo[key] = (f"{type(exc).__name__}: {exc}", {})
        return self.memo[key]


def keldysh_outer(weight: dict, bset: dict, amplitude: float, w: complex) -> complex:
    from cyclicity import auxfun, boundary, weights

    return auxfun.keldysh_outer(weights.WeightSpec.from_json(weight),
                                boundary.BoundarySet.from_json(bset), amplitude, w)


def run_round(cli, job_list, workdir: Path, checker: Checker, tracer=None) -> dict:
    times, cpu, outcomes = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for i, job in enumerate(job_list):
            out = workdir / f"{i}.out"
            argv = list(job.argv) + ["--out", str(out)]
            if job.arcs_out:
                argv += ["--arcs-out", str(workdir / f"{i}.arcs")]
            sink = io.StringIO()
            with contextlib.redirect_stderr(sink):
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    code = cli.run_command(argv)
                except Exception as exc:  # a crash is a failed job, not a failed run
                    code = -1
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                t1 = time.perf_counter()
                c1 = time.process_time()
            times.append(t1 - t0)
            cpu.append(c1 - c0)
            # run_command reports its own timing as an "elapsed" line; only errors are kept
            errors = [ln for ln in sink.getvalue().splitlines() if not ln.startswith("elapsed ")]
            outcomes.append((code, errors))
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures: dict[str, tuple[str, str]] = {}  # job name -> ("exit" | "check", reason)
    groups: dict[tuple[str, str], list] = {}
    for i, (job, (code, errors)) in enumerate(zip(job_list, outcomes)):
        if code != 0:
            failures[job.name] = ("exit", f"exit {code}: {' | '.join(errors)}")
            continue
        text = (workdir / f"{i}.out").read_text()
        arcs_text = (workdir / f"{i}.arcs").read_text() if job.arcs_out else None
        err, facts = checker(job, text, arcs_text)
        if err is not None:
            failures[job.name] = ("check", err)
        elif job.group is not None:
            groups.setdefault(job.group, []).append((job, facts))
    for (kind, _key), members in groups.items():
        try:
            oracles.check_group(kind, [facts for _job, facts in members])
        except oracles.CheckFailed as exc:
            for job, _facts in members:
                failures[job.name] = ("check", f"group check: {exc}")
    return {"times": times, "cpu": cpu, "wall": sum(times), "cpu_s": sum(cpu),
            "failures": failures, "traced": tracer is not None}


def _environment() -> dict:
    import numpy
    import platform
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "system": platform.system()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_environment()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    cli = load_program()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    job_list = jobs.build(args.workload, args.seed)
    checker = Checker()
    tracer = Tracer() if args.trace else None

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    rounds, layer_rounds = [], []
    min_rounds = MIN_TRACE_ROUNDS if args.trace else MIN_ROUNDS
    try:
        # the first round's checks count against --seconds too, so that a
        # run's length does not depend on how long its checks take
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
            traced = tracer is not None and len(rounds) % 2 == 1
            r = run_round(cli, job_list, workdir, checker, tracer if traced else None)
            if traced:
                layer_rounds.append(layer_metrics(tracer))
            rounds.append(r)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    attempted = len(job_list) * len(rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    failures = sorted({f"{name}: {why}" for r in rounds for name, (_kind, why) in r["failures"].items()})
    wrong = any(kind == "check" for r in rounds for kind, _why in r["failures"].values())
    wall_s = statistics.median(r["wall"] for r in plain)

    if args.trace:
        metrics = {}
        counts_repeat = True
        for name, unit in PER_LAYER:
            if name.startswith("run."):
                continue
            values = [lr[name] for lr in layer_rounds]
            if unit == "count":
                counts_repeat &= len(set(values)) == 1
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[name] = _metric(value, unit)
        metrics["run.cpu_s"] = _metric(statistics.median(r["cpu_s"] for r in plain), "s")
        traced_wall = statistics.median(r["wall"] for r in rounds if r["traced"])
        metrics["run.trace_overhead_s"] = _metric(traced_wall - wall_s, "s")
        extra = {"counts_repeat": counts_repeat, "layer_rounds": layer_rounds}
    else:
        per_job = [statistics.median(r["times"][i] for r in plain) for i in range(len(job_list))]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "job_p50_ms": _metric(1e3 * statistics.median(per_job), "ms"),
            "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
        }
        classes: dict[str, list[float]] = {}
        for job, t in zip(job_list, per_job):
            classes.setdefault(job.klass, []).append(t)
        extra = {"setup_times": setup_times,
                 "classes": {k: {"jobs": len(v), "seconds": sum(v), "share_of_wall": sum(v) / sum(per_job)}
                             for k, v in classes.items()}}

    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(), "jobs": len(job_list),
              "round_walls": [r["wall"] for r in rounds], "failures": failures, **extra, "result": result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {len(job_list)} jobs, "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
