import csv
import io
import json
import math
import time

import pytest

from cyclicity.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    RunReport,
    canonical_json,
    config_hash,
    emit_report,
    run_command,
)

W1 = '{"family":"log_power","alpha":1.0}'
W2 = '{"family":"log_power","alpha":2.0}'
PT = '{"kind":"point"}'
GEO = '{"kind":"geometric"}'
HP = '{"variant":"sector","phi":"const","params":{"value":0}}'


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

    def test_no_timing_in_report(self, capsys):
        _, out, err = run(capsys, "sigma", "--profile", HP, "--rho", "10")
        assert "elapsed" in err
        assert "elapsed" not in out


class TestCanonicalJson:
    def test_sorted_keys_and_floats(self):
        s = canonical_json({"b": 1.0, "a": [0.1, 2]})
        assert s == '{"a":[0.1,2],"b":1}'

    def test_float_format(self):
        assert canonical_json(1.0 / 3.0) == "0.333333333333"
        assert canonical_json(float("nan")) == '"nan"'

    def test_round_trip_after_canonicalization(self):
        r = RunReport("x", {"v": 0.1234567890123456789}, {"out": [1.0, 2.5]})
        once = emit_report(r, "json")
        parsed = json.loads(once)
        r2 = RunReport(parsed["command"], parsed["config"], parsed["results"])
        assert emit_report(r2, "json") == once

    def test_config_hash_deterministic(self):
        a = config_hash({"x": 1.0, "y": "z"})
        b = config_hash({"y": "z", "x": 1.0})
        assert a == b and len(a) == 16


class TestCommands:
    def test_weights_check(self, capsys):
        code, out, _ = run(capsys, "weights", "check", "--weight", W1)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["results"]["lambda_decreasing"] is True
        assert payload["results"]["max_t_lambda"] == pytest.approx(1.0 / math.log(100.0), rel=1e-9)

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
