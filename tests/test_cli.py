import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cyclicity import __version__, criterion
from cyclicity.boundary import BoundarySet
from cyclicity.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    canonical_json,
    config_hash,
    csv_lines,
    csv_text,
    json_report,
    run_command,
)
from cyclicity.weights import WeightSpec

W1 = '{"family":"log_power","alpha":1.0}'
W2 = '{"family":"log_power","alpha":2.0}'
PT = '{"kind":"point"}'
GEO = '{"kind":"geometric"}'
CANTOR14 = '{"kind":"cantor","depth":14}'
HP = '{"variant":"sector","phi":"const","params":{"value":0}}'
WEDGE = '{"variant":"cartesian","phi":"x"}'
STRIP = '{"variant":"cartesian","phi":"const1"}'


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_missing_weight_is_usage(self, capsys):
        code, _, err = run(capsys, "gamma", "--set", PT, "--theta", "0.01")
        assert code == EXIT_USAGE
        assert "weight" in err

    def test_bad_json_is_usage(self, capsys):
        code, _, _ = run(capsys, "gamma", "--weight", "{not json", "--set", PT, "--theta", "0.01")
        assert code == EXIT_USAGE

    def test_unknown_config_field_is_usage(self, capsys):
        code, _, _ = run(capsys, "gamma", "--weight", '{"family":"log_power","alpha":1,"x":2}',
                         "--set", PT, "--theta", "0.01")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("rho", ["inf", "nan"])
    def test_non_finite_rho_is_usage(self, capsys, rho):
        code, out, err = run(capsys, "sigma", "--profile", HP, "--rho", rho)
        assert code == EXIT_USAGE and out == "" and "finite" in err
        code, out, err = run(capsys, "hm-mc", "--profile", HP, "--rho", rho,
                             "--paths", "10000", "--seed", "1")
        assert code == EXIT_USAGE and out == "" and "finite" in err

    def test_hm_mc_rho_square_overflow_is_usage(self, capsys):
        code, out, err = run(capsys, "hm-mc", "--profile", HP, "--rho", "1e200",
                             "--paths", "10000", "--seed", "1")
        assert code == EXIT_USAGE and out == "" and "finite" in err

    def test_sigma_rho_square_overflow_is_usage(self, capsys):
        code, out, err = run(capsys, "sigma", "--profile", WEDGE, "--rho", "1e300")
        assert code == EXIT_USAGE and out == "" and "finite" in err

    def test_sigma_overflow_is_numeric(self, capsys):
        # pi int_1^500 dr/s is about 784 on the half strip, past log(float max)
        code, out, err = run(capsys, "sigma", "--profile", STRIP, "--rho", "500")
        assert code == EXIT_NUMERIC and out == ""
        assert err.startswith("numeric/io error: sigma overflows")

    @pytest.mark.parametrize("profile, log_sigma", [
        (HP, 100.0 * math.log(10.0)),  # sigma(rho) = rho exactly
        ('{"variant":"cartesian","phi":"x2"}', 232.12943783647927),  # crosschecks.log_sigma_mpmath
    ], ids=["half-plane", "x2"])
    def test_sigma_far_out(self, capsys, profile, log_sigma):
        # 230 units of v = log r: uniform panels carry the rule as far as rho^2 is finite
        code, out, err = run(capsys, "sigma", "--profile", profile, "--rho", "1e100")
        assert code == EXIT_OK
        assert json.loads(out)["results"]["sigma"] == pytest.approx(math.exp(log_sigma), rel=1e-11)

    def test_sigma_wide_half_strip(self, capsys):
        # the circles r < c = 2 cross the strip |y| <= 2 in their right half
        strip2 = '{"variant":"cartesian","phi":"const","params":{"value":2}}'
        code, out, err = run(capsys, "sigma", "--profile", strip2, "--rho", "10")
        assert code == EXIT_OK
        log_sigma = 6.724372496684208  # crosschecks.log_sigma_mpmath
        assert json.loads(out)["results"]["sigma"] == pytest.approx(math.exp(log_sigma), rel=1e-11)

    @pytest.mark.parametrize("profile", [STRIP])
    def test_sigma_far_cartesian_is_numeric(self, capsys, profile):
        # pi int dr/s is about (pi/2) 1e100 on the half strip; no traceback from
        # the cross-section length
        code, out, err = run(capsys, "sigma", "--profile", profile, "--rho", "1e100")
        assert code == EXIT_NUMERIC and out == "" and err.startswith("numeric/io error: sigma overflows")

    def test_sigma_on_a_ray_is_usage(self, capsys):
        # a cartesian level 0 is a ray with no interior, not a half plane with sigma = rho
        ray = '{"variant":"cartesian","phi":"const","params":{"value":0}}'
        code, out, err = run(capsys, "sigma", "--profile", ray, "--rho", "10")
        assert code == EXIT_USAGE and out == "" and "> 0" in err

    @staticmethod
    def fresh_python(probe: str) -> str:
        """Standard output of `probe` run in a new interpreter on this checkout."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                              check=True, timeout=60).stdout

    def test_runtime_imports_no_scipy(self):
        # the toolkit runs on numpy alone; scipy serves the tests' cross-checks
        probe = "import sys, cyclicity.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert self.fresh_python(probe) == "[]\n"

    def test_analyze_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.median imports numpy.ma on first use, about 13 ms of a one-shot run
        argv = ["criterion", "analyze", "--weight", W1, "--set", GEO, "--out", str(tmp_path / "r.json")]
        probe = ("import sys; from cyclicity.cli import run_command; "
                 f"code = run_command({argv!r}); print(code, 'numpy.ma' in sys.modules)")
        assert self.fresh_python(probe) == "0 False\n"

    def test_numeric_failure_exit(self, capsys):
        # theta = pi without the normalization flag has no root below 1
        code, _, err = run(capsys, "gamma", "--weight", W1, "--set", PT, "--theta", "3.14159")
        assert code == EXIT_NUMERIC

    def test_success(self, capsys):
        code, out, _ = run(capsys, "gamma", "--weight", W1, "--set", PT, "--theta", "0.01")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header == "theta,gamma,residual,R,phi"
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["gamma"]) == pytest.approx(1.8968e-3, rel=1e-3)
        assert float(vals["R"]) == pytest.approx(98.34, rel=1e-3)

    def test_version_returns_exit_code(self, capsys):
        code, out, err = run(capsys, "--version")
        assert (code, out, err) == (EXIT_OK, __version__ + "\n", "")

    @pytest.mark.parametrize("alpha, depth, need", [(1.0, 8, 11), (2.0, 10, 11), (4.0, 11, 13)])
    def test_shallow_teo3_scan_names_the_depth_it_needs(self, capsys, alpha, depth, need):
        code, out, err = run(capsys, "scan", "--theorem", "teo3", "--alpha-from", repr(alpha),
                             "--alpha-to", repr(alpha), "--step", "1", "--depth", str(depth))
        assert code == EXIT_USAGE and out == ""
        assert f"need depth >= {need}" in err and "4 geometric decades" in err
        code, _, _ = run(capsys, "scan", "--theorem", "teo3", "--alpha-from", repr(alpha),
                         "--alpha-to", repr(alpha), "--step", "1", "--depth", str(need))
        assert code == EXIT_OK

    def test_keldysh_at_a_large_scale_normalizes_before_its_guard(self, capsys):
        amplitudes = []
        for scale in ("1e4", "1e6"):
            weight = f'{{"family":"log_power","alpha":3.0,"scale":{scale}}}'
            code, out, _ = run(capsys, "aux", "keldysh", "--weight", weight, "--set", PT, "--samples", "1e-2,1e-3")
            assert code == EXIT_OK
            amplitudes.append(json.loads(out)["results"]["amplitude"])
        assert amplitudes == [4, 4]

    def test_help_returns_exit_code(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK and out.startswith("usage: cyclicity")

    def test_strict_verdict_inconclusive(self, capsys):
        # scanning across the cantor threshold with a tight band hits it
        code, out, _ = run(capsys, "scan", "--theorem", "teo3",
                           "--alpha-from", "1.43", "--alpha-to", "1.49", "--step", "0.02",
                           "--strict-verdict")
        if code == EXIT_INCONCLUSIVE:
            assert "inconclusive" in out
        else:
            assert code == EXIT_OK  # the near-threshold fits may still resolve


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, _, _ = run(capsys, "hm-mc", "--profile", HP, "--z0", "1,0",
                             "--rho", "8", "--paths", "20000", "--seed", "42",
                             "--out", str(f))
            assert code == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_scan_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            run(capsys, "scan", "--theorem", "gs", "--alpha-from", "0.5",
                "--alpha-to", "2.5", "--step", "1.0", "--out", str(f))
        assert f1.read_bytes() == f2.read_bytes()
        header = f1.read_text().splitlines()[0]
        assert header == "alpha,fitted_exponent,verdict,oracle,agree"

    @pytest.mark.parametrize("argv, config_hash, config", [
        (("--weight", '{"family":"from_w","p":0.4}', "--set", GEO, "--checkpoints", "24"), "5e6b271c6f404a03",
         {"checkpoints": 24, "set": {"kind": "geometric"},
          "weight": {"family": "from_w", "p": 0.4, "scale": 1, "t_cut": 0.135335283237}}),
        (("--weight", '{"family":"log_power","alpha":2.0,"scale":0.1}',
          "--set", '{"kind":"arc","a":0.0,"b":0.2,"mirror":true}'), "19082a7779b58ffb",
         {"checkpoints": 24, "set": {"a": 0, "b": 0.2, "kind": "arc", "mirror": True},
          "weight": {"alpha": 2, "family": "log_power", "scale": 0.1, "t_cut": 0.135335283237}}),
    ], ids=["readme-analyze", "mirrored-arc-from-zero"])
    def test_echoed_config_is_pinned(self, capsys, argv, config_hash, config):
        # the echoed config and its hash are part of every report: a change to them shows here
        code, out, _ = run(capsys, "criterion", "analyze", *argv)
        report = json.loads(out)
        assert code == EXIT_OK and (report["config_hash"], report["config"]) == (config_hash, config)

    def test_no_timing_in_report(self, capsys):
        _, out, err = run(capsys, "sigma", "--profile", HP, "--rho", "10")
        assert "elapsed" in err
        assert "elapsed" not in out


class TestParserReuse:
    """One parser serves every run_command call in a process."""

    CALLS = {
        "csv": ("criterion", "analyze", "--weight", W1, "--set", PT, "--checkpoints", "8",
                "--format", "csv"),
        "json": ("criterion", "analyze", "--weight", W1, "--set", PT, "--checkpoints", "8"),
        "normalized": ("omega", "trace", "--weight", W1, "--set", PT, "--from", "1e-4",
                       "--to", "1e-2", "--points", "5", "--normalize-lambda1"),
        "plain": ("omega", "trace", "--weight", W1, "--set", PT, "--from", "1e-4",
                  "--to", "1e-2", "--points", "5"),
        "bad": ("gamma", "--weight", W1, "--set", PT, "--theta", "x"),
    }

    def test_built_once(self):
        assert build_parser() is build_parser()

    def outputs(self, capsys, names, fresh):
        got = []
        for name in names:
            if fresh:
                build_parser.cache_clear()
            code, out, _ = run(capsys, *self.CALLS[name])
            got.append((code, out))
        return got

    @pytest.mark.parametrize("names", [("csv", "json"), ("normalized", "plain"),
                                       ("bad", "plain")])
    def test_back_to_back_calls_match_single_calls(self, capsys, names):
        # no option value, and no state of a failed parse, carries over
        single = self.outputs(capsys, names, fresh=True)
        assert self.outputs(capsys, names, fresh=False) == single
        assert single[0][0] == (EXIT_USAGE if names[0] == "bad" else EXIT_OK)
        assert single[0][1] != single[1][1]


class TestCanonicalJson:
    def test_sorted_keys_and_floats(self):
        s = canonical_json({"b": 1.0, "a": [0.1, 2]})
        assert s == '{"a":[0.1,2],"b":1}'

    def test_float_format(self):
        assert canonical_json(1.0 / 3.0) == "0.333333333333"
        assert canonical_json(float("nan")) == '"nan"'

    def test_round_trip_after_canonicalization(self):
        once = json_report("x", {"v": 0.1234567890123456789}, {"out": [1.0, 2.5]})
        parsed = json.loads(once)
        assert once.endswith("}\n")
        assert sorted(parsed) == ["command", "config", "config_hash", "results", "version"]
        assert parsed["config_hash"] == config_hash({"command": "x", "v": 0.1234567890123456789})
        assert json_report(parsed["command"], parsed["config"], parsed["results"]) == once

    def test_float_array_as_its_floats(self):
        # the one-pass array path gives the bytes of the element-by-element path
        values = [0.1, -0.0, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, 123456789012345.0, 2.0]
        assert canonical_json(np.array(values)) == canonical_json(values)
        assert canonical_json(np.array(values)) == "[" + ",".join("%.12g" % v for v in values) + "]"
        assert canonical_json(np.array([1.0, math.inf, math.nan])) == '[1,"inf","nan"]'
        assert canonical_json(np.array([], dtype=float)) == "[]"
        assert canonical_json(np.arange(3)) == "[0,1,2]"

    def test_config_hash_deterministic(self):
        a = config_hash({"x": 1.0, "y": "z"})
        b = config_hash({"y": "z", "x": 1.0})
        assert a == b and len(a) == 16


class TestCsvText:
    def test_cells(self):
        # a float column's cells as %.12g, any other column's as str
        columns = ([0.1, -0.0], np.array([1.0 / 3.0, math.nan]), ["short", "long"], [True, False],
                   [3, np.int64(-2)], np.array([0.5, -math.inf], dtype=np.float32))
        assert csv_text(("a", "b", "c", "d", "e", "f"), columns) == (
            "a,b,c,d,e,f\n0.1,0.333333333333,short,True,3,0.5\n-0,nan,long,False,-2,-inf\n")

    def test_no_rows(self):
        assert csv_text(("x", "y"), ([], np.empty(0))) == "x,y\n"
        assert csv_lines((np.empty(0), np.array([], dtype=object))) == ""

    def test_columns_are_their_cells(self):
        # the one format call gives each cell's own %.12g or str
        values = np.array([0.1, 5e-324, 1.7976931348623157e308, 123456789012345.0, -2.5e-300, 2.0])
        tags = np.array(["short", "long", "intermediate"])[[0, 1, 2, 2, 1, 0]]
        expect = "".join("%.12g,%s,%.12g\n" % (v, t, -v) for v, t in zip(values.tolist(), tags.tolist()))
        assert csv_lines((values, tags, -values)) == expect


class TestCommands:
    def test_weights_check(self, capsys):
        code, out, _ = run(capsys, "weights", "check", "--weight", W1)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["results"]["lambda_decreasing"] is True
        assert payload["results"]["max_t_lambda"] == pytest.approx(1.0 / math.log(100.0), rel=1e-9)

    def test_weights_check_deep_grid(self, capsys):
        # Lambda' overflows below t ~ 1e-154; the ratio (L - 1)/L does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "weights", "check", "--weight", W1, "--grid-to", "1e-200")
        assert code == EXIT_OK
        L = 200.0 * math.log(10.0)
        ratio = json.loads(out)["results"]["max_log_deriv_ratio"]
        assert ratio == pytest.approx((L - 1.0) / L, rel=1e-12)

    def test_omega_trace(self, capsys):
        code, out, _ = run(capsys, "omega", "trace", "--weight", W1, "--set", PT,
                           "--from", "1e-4", "--to", "1e-2", "--points", "7")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert lines[0] == "theta,gamma,residual,R,phi"

    def test_empty_scan_has_header_only(self, capsys):
        code, out, _ = run(capsys, "scan", "--theorem", "gs", "--alpha-from", "2.0",
                           "--alpha-to", "1.0", "--step", "0.5")
        assert code == EXIT_OK
        assert out == "alpha,fitted_exponent,verdict,oracle,agree\n"

    def test_criterion_analyze_json_and_arcs(self, capsys, tmp_path):
        arcs = tmp_path / "arcs.csv"
        code, out, _ = run(capsys, "criterion", "analyze", "--weight", W1, "--set", GEO,
                           "--checkpoints", "12", "--arcs-out", str(arcs),
                           "--arcs-cutoff", "1e-3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["results"]["verdict"] == "divergent"
        assert payload["results"]["forms_agree"] is True
        lines = arcs.read_text().splitlines()
        assert lines[0] == "a,b,class,contribution"
        classes = [line.split(",")[2] for line in lines[1:]]
        # arcs fully below the cut are all long; the one straddling the cut
        # is scored by its inner sliver, which is short
        assert classes.count("long") >= len(classes) - 1
        assert all(c in ("long", "short") for c in classes)

    @pytest.mark.parametrize("depth", [15, 20])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.5])
    def test_criterion_analyze_shallow_cantor(self, capsys, alpha, depth):
        # the truncation E-integral and the unified arc sum stay nondecreasing
        code, out, err = run(capsys, "criterion", "analyze", "--weight",
                             json.dumps({"family": "log_power", "alpha": alpha}),
                             "--set", json.dumps({"kind": "cantor", "depth": depth}))
        assert code == EXIT_OK, err
        res = json.loads(out)["results"]
        for key in ("alt_e_integral", "alt_arc_sum"):
            assert all(hi >= lo for lo, hi in zip(res[key], res[key][1:])), key

    @pytest.mark.parametrize("weight,bset", [
        ('{"family":"log_power","alpha":1.5}', '{"kind":"beta","beta":0.25}'),
        ('{"family":"from_w","p":0.4}', GEO),
    ])
    def test_arc_listing_matches_engine(self, capsys, tmp_path, weight, bset):
        # at the default cutoff (the smallest checkpoint) the listed arcs are
        # exactly the arcs the engine sums at its last checkpoint
        arcs = tmp_path / "arcs.csv"
        code, out, _ = run(capsys, "criterion", "analyze", "--weight", weight, "--set", bset,
                           "--checkpoints", "12", "--arcs-out", str(arcs))
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        sums = {"short": 0.0, "intermediate": 0.0, "long": 0.0}
        for line in arcs.read_text().splitlines()[1:]:
            _, _, cls, contrib = line.split(",")
            sums[cls] += float(contrib)
        assert sums["intermediate"] + sums["long"] > 0.0
        # the CSV carries 12 significant digits per row
        assert sums["intermediate"] == pytest.approx(res["intermediate_sum"][-1], rel=1e-10, abs=1e-14)
        assert sums["long"] == pytest.approx(res["long_sum"][-1], rel=1e-10, abs=1e-14)
        short = res["e_and_short"][-1] - res["alt_e_integral"][-1]
        assert sums["short"] == pytest.approx(short, rel=1e-9, abs=1e-12)

    def test_arc_listing_has_only_the_arcs_the_engine_scores(self, capsys, tmp_path):
        # the cut lies a rounding step above the point 1/8, so the arc (1/8, 1/4)
        # is not scored; the listing once wrote it as a row "0.125,0.25,short,0"
        weight = WeightSpec("from_w", p=0.4, t_cut=0.12500000000000003)
        arcs = tmp_path / "arcs.csv"
        code, _, _ = run(capsys, "criterion", "analyze", "--weight", json.dumps(weight.to_json()), "--set", GEO,
                         "--checkpoints", "12", "--out", str(tmp_path / "report.json"), "--arcs-out", str(arcs))
        assert code == EXIT_OK
        listed = [float(line.split(",")[0]) for line in arcs.read_text().splitlines()[1:]]
        bset = BoundarySet("geometric")
        blocks, _, _ = criterion._set_arcs(weight, bset, criterion.default_checkpoints(weight, bset, 12))
        scored = np.concatenate([a for a, _ in blocks])
        assert len(listed) == scored.size and listed[0] == scored[0] == 0.0625

    @pytest.mark.parametrize("bset", ['{"kind":"beta","beta":0.25}', CANTOR14])
    def test_arc_listing_bytes_do_not_depend_on_its_blocks(self, capsys, tmp_path, monkeypatch, bset):
        # the listing is written block by block: blocks of 7 arcs give the
        # bytes of the default blocks, here written to stdout by "-"
        argv = ("criterion", "analyze", "--weight", W1, "--set", bset, "--checkpoints", "12",
                "--out", str(tmp_path / "report.json"))
        code, default, _ = run(capsys, *argv, "--arcs-out", "-")
        assert code == EXIT_OK
        monkeypatch.setattr(criterion, "ARC_BLOCK", 7)
        code, _, _ = run(capsys, *argv, "--arcs-out", str(tmp_path / "arcs.csv"))
        assert code == EXIT_OK
        assert default.count("\n") > 50 * 7
        assert (tmp_path / "arcs.csv").read_text() == default

    @pytest.mark.parametrize("bset", [GEO, '{"kind":"doubly_exp"}', '{"kind":"beta","beta":0.0}',
                                      '{"kind":"beta","beta":0.25}', '{"kind":"beta","beta":0.4}'])
    def test_arc_listing_above_the_window_is_empty(self, capsys, tmp_path, bset):
        # no window arc has b > 1: a cutoff above the window lists no arc (on
        # beta sets it once took a fractional power of the negative log(1/cutoff))
        arcs = tmp_path / "arcs.csv"
        code, _, err = run(capsys, "criterion", "analyze", "--weight", W1, "--set", bset,
                           "--checkpoints", "12", "--arcs-out", str(arcs), "--arcs-cutoff", "2")
        assert code == EXIT_OK, err
        assert arcs.read_text() == "a,b,class,contribution\n"

    @pytest.mark.parametrize("bset", [CANTOR14, GEO])
    def test_criterion_csv_columns_are_the_json_arrays(self, capsys, bset):
        # the same eight columns, token for token; the checkpoints are named eps in the CSV
        argv = ("criterion", "analyze", "--weight", W1, "--set", bset, "--checkpoints", "12")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_OK
        header, *rows = [line.split(",") for line in out.splitlines()]
        names = ["checkpoints", *header[1:]]
        assert header[0] == "eps" and len(header) == 8
        assert all(isinstance(res[name], list) for name in names)
        assert list(zip(*rows)) == [tuple(canonical_json(v) for v in res[name]) for name in names]

    def test_aux_keldysh(self, capsys):
        code, out, _ = run(capsys, "aux", "keldysh", "--weight", W2, "--set", PT,
                           "--samples", "1e-2,1e-3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["results"]["amplitude"] <= 1024

    def test_aux_keldysh_full_circle_above_nikolski(self, capsys):
        # the criterion integral converges on the full circle for every alpha > 2
        code, out, err = run(capsys, "aux", "keldysh", "--weight", '{"family":"log_power","alpha":2.5}',
                             "--set", '{"kind":"full"}')
        assert code == EXIT_OK, err
        assert json.loads(out)["results"]["amplitude"] <= 1024

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,bset", [(3, GEO), (3, '{"kind":"beta","beta":0.25}'),
                                            (1.5, '{"kind":"doubly_exp"}')])
    def test_aux_keldysh_point_sequences(self, capsys, alpha, bset):
        # the kink breaks of the witness rule resolve these sets without
        # warnings; at alpha = 1.5 no bound on the data beyond the rule's
        # depth is known, and the rule's value, a lower bound, still serves
        started = time.perf_counter()
        code, out, err = run(capsys, "aux", "keldysh", "--weight", f'{{"family":"log_power","alpha":{alpha}}}',
                             "--set", bset)
        assert code == EXIT_OK, err
        assert json.loads(out)["results"]["amplitude"] == 4
        assert time.perf_counter() - started < 2.0

    def test_aux_verify_lemma_csv_on_stdout(self, capsys):
        code, out, err = run(capsys, "aux", "verify-lemma", "--weight", W1, "--set",
                             '{"kind":"full"}', "--grid", "4")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda_re", "lambda_im", "z_re", "z_im", "H", "case_tag"]
        assert len(rows) > 1 and all(len(row) == 6 for row in rows)
        assert all(float(row[4]) <= 1e-9 for row in rows[1:])
        assert err.startswith("SUP_H ")

    def test_aux_verify_lemma(self, capsys, tmp_path):
        f = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "aux", "verify-lemma", "--weight", W1, "--set",
                           '{"kind":"full"}', "--grid", "6", "--out", str(f))
        assert code == EXIT_OK
        assert out.startswith("SUP_H ")
        assert float(out.split()[1]) <= 1e-9
        assert f.read_text().splitlines()[0] == "lambda_re,lambda_im,z_re,z_im,H,case_tag"


    def test_aux_verify_lemma_empty_region(self, capsys):
        # no lambda of the grid lies in the region: the header alone, and SUP_H is -inf
        code, out, err = run(capsys, "aux", "verify-lemma", "--weight", W1, "--set", PT,
                             "--a", "1e-9", "--grid", "4")
        assert code == EXIT_OK
        assert out == "lambda_re,lambda_im,z_re,z_im,H,case_tag\n"
        assert err.startswith('SUP_H "-inf"\n')


class TestRefusals:
    """Inputs the CLI refuses with exit 1, writing nothing, not even the report."""

    CASES = {
        "gamma-theta-nan": ("gamma", "--weight", W1, "--set", PT, "--theta", "nan"),
        "scan-alpha-from-nan": ("scan", "--theorem", "gs", "--alpha-from", "nan", "--alpha-to", "1.0",
                                "--step", "0.5"),
        "keldysh-samples-nan": ("aux", "keldysh", "--weight", W2, "--set", PT, "--samples", "1e-2,nan"),
        "hm-mc-z0-nan": ("hm-mc", "--profile", HP, "--z0", "nan,0", "--rho", "16", "--seed", "1"),
        "hm-mc-z0-one-coordinate": ("hm-mc", "--profile", HP, "--z0", "1", "--rho", "16", "--seed", "1"),
        "weight-scale-nan": ("weights", "check", "--weight", '{"family":"log_power","alpha":1.0,"scale":NaN}'),
        "weight-scale-overflow": ("weights", "check", "--weight",
                                  '{"family":"log_power","alpha":1.0,"scale":1e999}'),
        "weight-alpha-past-float-range": ("gamma", "--weight", '{"family":"log_power","alpha":1%s}' % ("0" * 400),
                                          "--set", PT, "--theta", "0.01"),
        "verify-lemma-a-nan": ("aux", "verify-lemma", "--weight", W1, "--set", '{"kind":"full"}',
                               "--a", "nan", "--grid", "4"),
        "arcs-cutoff-below-floor": ("criterion", "analyze", "--weight", W1, "--set", GEO,
                                    "--arcs-cutoff", "1e-300"),
        "arcs-cutoff-zero": ("criterion", "analyze", "--weight", W1, "--set", CANTOR14, "--arcs-cutoff", "0"),
        "arcs-cutoff-nan": ("criterion", "analyze", "--weight", W1, "--set", CANTOR14, "--arcs-cutoff", "nan"),
        "arcs-cutoff-inf": ("criterion", "analyze", "--weight", W1, "--set", CANTOR14, "--arcs-cutoff", "inf"),
        "arcs-over-capacity": ("criterion", "analyze", "--weight", W1, "--set", '{"kind":"cantor","depth":30}',
                               "--arcs-cutoff", "1e-14"),
        # a large generator w leaves over 200,000 gaps non-short
        "cantor-nonshort-over-capacity": ("criterion", "analyze", "--weight",
                                          '{"family":"log_power","alpha":10,"scale":1e-3}',
                                          "--set", '{"kind":"cantor","depth":38}'),
        # a config field of the wrong JSON type, once a TypeError traceback or a silent misreading
        "set-depth-float": ("criterion", "analyze", "--weight", W1, "--set", '{"kind":"cantor","depth":14.0}'),
        "set-beta-string": ("criterion", "analyze", "--weight", W1, "--set", '{"kind":"beta","beta":"0.25"}'),
        "set-mirror-string": ("criterion", "analyze", "--weight", W1, "--set", '{"kind":"point","mirror":"no"}'),
        "weight-alpha-string": ("criterion", "analyze", "--weight", '{"family":"log_power","alpha":"2"}',
                                "--set", PT),
        "weight-scale-string": ("criterion", "analyze", "--weight",
                                '{"family":"log_power","alpha":1.0,"scale":"1"}', "--set", PT),
        "weight-alpha-bool": ("criterion", "analyze", "--weight", '{"family":"log_power","alpha":true}',
                              "--set", PT),
        "profile-value-string": ("sigma", "--profile", '{"variant":"sector","phi":"const","params":{"value":"1"}}',
                                 "--rho", "10"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_refused_before_writing(self, capsys, tmp_path, name):
        argv = self.CASES[name]
        extra = ["--arcs-out", str(tmp_path / "arcs.csv")] if argv[0] == "criterion" else []
        code, out, err = run(capsys, *argv, *extra)  # the report would go to stdout
        assert (code, out) == (EXIT_USAGE, "") and err.startswith("error: ")
        code, out, err = run(capsys, *argv, *extra, "--out", str(tmp_path / "report"))
        assert (code, out) == (EXIT_USAGE, "") and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_cantor_nonshort_refusal_names_the_capacity(self, capsys):
        _, _, err = run(capsys, *self.CASES["cantor-nonshort-over-capacity"])
        assert err.startswith("error: ") and "capacity" in err

    def test_float_flags_say_finite(self, capsys):
        _, _, err = run(capsys, *self.CASES["gamma-theta-nan"])
        assert "finite" in err
        _, _, err = run(capsys, "gamma", "--weight", W1, "--set", PT, "--theta", "x")
        assert err == "error: argument --theta: invalid float value: 'x'\n"
        # the list flags read each item as a float flag does
        _, _, err = run(capsys, "hm-mc", "--profile", HP, "--z0", "1,inf", "--rho", "16", "--seed", "1")
        assert err == "error: argument --z0: 'inf' is not a finite number\n"

    def test_infinite_scan_end_is_refused_in_time(self, tmp_path):
        # an unbounded alpha range once looped forever: a regression fails here instead of hanging
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "scan.csv"
        argv = ["scan", "--theorem", "gs", "--alpha-from", "0.5", "--alpha-to", "inf", "--step", "0.5"]
        proc = subprocess.run([sys.executable, "-m", "cyclicity", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "") and "finite" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("alpha_from, alpha_to, step", [
        ("1", "2", "1e-20"), ("1", "1e300", "1"),
        # moves alpha at first, then stalls at 2, where the float spacing doubles
        ("1.9999999999999998", "2.000000000001", "1.3e-16"),
    ], ids=["step-below-spacing", "1e300-rows", "stalls-at-2"])
    def test_endless_scan_is_refused_in_time(self, tmp_path, alpha_from, alpha_to, step):
        # a step that leaves alpha unchanged once looped forever, and 1e300 rows never end either
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "scan.csv"
        argv = ["scan", "--theorem", "gs", "--alpha-from", alpha_from, "--alpha-to", alpha_to, "--step", step]
        proc = subprocess.run([sys.executable, "-m", "cyclicity", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr.startswith("error: ") and "100000 scan rows" in proc.stderr
        assert not out.exists()
