import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cyclicity.boundary import Arc, BoundarySet, complementary_arcs
from cyclicity.criterion import (
    DEFAULT_MARGIN,
    KAPPA,
    arc_contribution,
    cantor_reduced_partials,
    classify_arc,
    criterion_partials,
    default_checkpoints,
    divergence_verdict,
    theorem_scan_point,
    threshold_oracle,
    threshold_value,
)
from cyclicity.errors import CapacityError, UsageError
from cyclicity.weights import WeightSpec, effective_w, inv_tw_integral


class TestClassify:
    def test_short(self):
        w = WeightSpec.from_w(1.0)
        arc = Arc(0.95 * 2.0**-10, 2.0**-10)
        assert classify_arc(arc, w) == "short"

    def test_intermediate(self):
        w = WeightSpec.from_w(1.0)
        arc = Arc(0.6 * 2.0**-10, 2.0**-10)
        assert classify_arc(arc, w) == "intermediate"

    def test_long_is_weight_free(self):
        arc = Arc(0.4 * 2.0**-10, 2.0**-10)
        for w in (WeightSpec.from_w(1.0), WeightSpec.log_power(0.5), WeightSpec.const_w()):
            assert classify_arc(arc, w) == "long"

    def test_boundary_ties(self):
        w = WeightSpec.from_w(1.0)
        b = 2.0**-10
        wb = effective_w(w, b)
        assert classify_arc(Arc(b / 2.0, b), w) == "long"  # ratio exactly 1/2
        a_tie = b * (1.0 - 2.0 / wb)
        assert classify_arc(Arc(a_tie, b), w) == "intermediate"

    def test_partition_on_sweeps(self):
        w = WeightSpec.from_w(0.7)
        rng = np.random.default_rng(3)
        for _ in range(300):
            b = float(np.exp(rng.uniform(np.log(1e-9), np.log(w.pure_cut * 0.99))))
            a = b * rng.uniform(0.01, 0.999)
            tags = [classify_arc(Arc(a, b), w)]
            assert len(tags) == 1 and tags[0] in ("short", "intermediate", "long")


class TestContribution:
    def test_intermediate_value(self):
        w = WeightSpec.from_w(1.0)
        arc = Arc(0.6 * 2.0**-10, 2.0**-10)
        got = arc_contribution(arc, "intermediate", w)
        assert got == pytest.approx(0.02122541457741479, rel=1e-12)

    def test_long_value(self):
        w = WeightSpec.from_w(1.0)
        b = math.exp(-4.0)
        arc = Arc(b / 4.0, b)
        got = arc_contribution(arc, "long", w)
        expect = (0.25 - 1.0 / (4.0 + math.log(4.0))) + math.log(4.0) / 16.0
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.150987, rel=1e-5)

    def test_short_against_quadrature(self):
        w = WeightSpec.from_w(1.0)
        b = 2.0**-10
        arc = Arc(0.95 * b, b)
        got = arc_contribution(arc, "short", w)
        ref = quad(lambda t: 1.0 / (t * math.log(1.0 / t)), arc.a, arc.b, epsrel=1e-12)[0]
        assert got == pytest.approx(ref, rel=1e-9)
        # mean-value estimate log(1/0.95)/w(b) is within one percent
        assert got == pytest.approx(math.log(1.0 / 0.95) / math.log(2.0**10), rel=1e-2)

    def test_class_mismatch_rejected(self):
        w = WeightSpec.from_w(1.0)
        arc = Arc(0.6 * 2.0**-10, 2.0**-10)
        with pytest.raises(UsageError):
            arc_contribution(arc, "long", w)

    def test_intermediate_terms_exceed_log2_over_w2(self):
        w = WeightSpec.from_w(0.8)
        rng = np.random.default_rng(8)
        for _ in range(100):
            b = float(np.exp(rng.uniform(np.log(1e-8), np.log(1e-2))))
            wb = effective_w(w, b)
            if 2.0 / wb >= 0.5:
                continue
            ratio = rng.uniform(2.0 / wb, 0.499)
            arc = Arc(b * (1.0 - ratio), b)
            if classify_arc(arc, w) != "intermediate":
                continue
            assert arc_contribution(arc, "intermediate", w) >= math.log(2.0) / wb**2 - 1e-15


def _brute_cantor_sums(weight, depth, eps_values):
    """Brute-force evaluation of every criterion term by full gap enumeration."""
    cut = weight.pure_cut
    gaps_a, gaps_b = [], []
    prev = np.array([(1.0 / 3.0, 2.0 / 3.0)])
    for g in range(1, depth + 1):
        if g == 1:
            gen = prev
        else:
            gen = np.concatenate([prev / 3.0, 2.0 / 3.0 + prev / 3.0])
        prev = gen
        gaps_a.append(gen[:, 0])
        gaps_b.append(gen[:, 1])
    a = np.concatenate(gaps_a)
    b = np.concatenate(gaps_b)
    keep = a < cut * (1.0 - 1e-15)
    a2, b2 = a[keep], np.minimum(b[keep], cut)
    w_b = effective_w(weight, b2)
    ratio = 1.0 - a2 / b2
    long_m = (a2 / b2) <= 0.5
    short_m = ~long_m & (ratio < 2.0 / w_b)
    inter_m = ~long_m & ~short_m

    out = []
    for eps in eps_values:
        inc = b2 >= eps
        lo = np.maximum(a2, eps)
        ints1 = inv_tw_integral(weight, 1.0, lo, b2)
        ints2 = inv_tw_integral(weight, 2.0, lo, b2)
        e_part = inv_tw_integral(weight, 1.0, eps, cut) - float(np.sum(ints1[inc & (inter_m | long_m)]))
        inter = float(np.sum(np.log(ratio[inc & inter_m] * w_b[inc & inter_m]) / w_b[inc & inter_m] ** 2))
        long_s = float(np.sum(ints2[inc & long_m])
                       + np.sum(np.maximum(np.log(w_b[inc & long_m]), 0.0) / w_b[inc & long_m] ** 2))
        # E-part of the truncation F_N, from the full gap list
        all_gaps = inv_tw_integral(weight, 1.0, np.maximum(a[keep], eps), b2)
        e_fn = inv_tw_integral(weight, 1.0, eps, cut) - float(np.sum(all_gaps[inc]))
        out.append((e_part, inter, long_s, e_fn))
    return out


class TestCantorEngineExact:
    def test_against_brute_force(self):
        weight = WeightSpec.log_power(1.3)
        depth = 14
        eps = np.array([3.0**-5, 3.0**-9, 3.0**-14])
        rep = criterion_partials(weight, BoundarySet.cantor(depth), eps)
        brute = _brute_cantor_sums(weight, depth, eps)
        for i, (e_part, inter, long_s, e_fn) in enumerate(brute):
            assert rep.e_and_short[i] == pytest.approx(e_part, rel=1e-10, abs=1e-12)
            assert rep.intermediate_sum[i] == pytest.approx(inter, rel=1e-10, abs=1e-12)
            assert rep.long_sum[i] == pytest.approx(long_s, rel=1e-10, abs=1e-12)
            # the truncation E-integral comes from a two-point rule per interval
            assert rep.alt_e_integral[i] == pytest.approx(e_fn, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_e_integral_on_default_schedule(self, alpha):
        # every checkpoint of the default schedule is a piece edge of the
        # cumulated E-integral
        weight = WeightSpec.log_power(alpha)
        bset = BoundarySet.cantor(14)
        eps = default_checkpoints(weight, bset)
        rep = criterion_partials(weight, bset, eps)
        e_fn = np.array([row[3] for row in _brute_cantor_sums(weight, 14, eps)])
        np.testing.assert_allclose(rep.alt_e_integral, e_fn, rtol=1e-8)
        assert np.all(np.diff(rep.alt_e_integral) >= 0.0)
        assert np.all(np.diff(rep.alt_arc_sum) >= 0.0)

    def test_insufficient_depth(self):
        weight = WeightSpec.log_power(1.0)
        with pytest.raises(CapacityError):
            criterion_partials(weight, BoundarySet.cantor(10), [3.0**-12])

    def test_mirror_doubles(self):
        weight = WeightSpec.log_power(1.0)
        eps = np.array([3.0**-4, 3.0**-8])
        one = criterion_partials(weight, BoundarySet.cantor(9), eps)
        two = criterion_partials(weight, BoundarySet.cantor(9, mirror=True), eps)
        assert np.allclose(two.total, 2.0 * one.total, rtol=1e-12)


def _brute_arc_sums(weight, bset, eps_values):
    """Per-checkpoint criterion columns, summed arc by arc with scalar closed forms."""
    cut = weight.pure_cut
    e_hi = cut if bset.kind == "full" else min(bset.b, cut) if bset.kind == "arc" else 0.0
    rows = []
    for eps in eps_values:
        e_part = inv_tw_integral(weight, 1.0, eps, e_hi) if e_hi > eps else 0.0
        short = inter = long_s = unified = 0.0
        for arc in complementary_arcs(bset, eps):
            if arc.a >= cut:
                continue
            b = min(arc.b, cut)
            w_b = effective_w(weight, b)
            q = arc.a / b
            lo = max(arc.a, eps)
            if q <= 0.5:
                long_s += inv_tw_integral(weight, 2.0, lo, b) + max(math.log(w_b), 0.0) / w_b**2
            elif 1.0 - q < 2.0 / w_b:
                short += inv_tw_integral(weight, 1.0, lo, b)
            else:
                inter += math.log((1.0 - q) * w_b) / w_b**2
            unified += math.log1p((1.0 - q) * w_b) / w_b**2
        rows.append((e_part + short, inter, long_s, e_part, inv_tw_integral(weight, 2.0, eps, cut), unified))
    factor = 2.0 if bset.mirror else 1.0
    return factor * np.array(rows).T


class TestEngineAgainstBruteForce:
    SETS = (
        BoundarySet.full_circle(),
        BoundarySet.single_arc(-0.3, 0.04),
        BoundarySet.single_arc(-0.3, 1.5),
        BoundarySet.single_point(),
        BoundarySet.geometric(),
        BoundarySet.geometric(mirror=True),
        BoundarySet.doubly_exp(),
        BoundarySet.beta_points(0.0),
        BoundarySet.beta_points(0.25),
        BoundarySet.beta_points(0.5),
    )
    WEIGHTS = (WeightSpec.log_power(1.5), WeightSpec.from_w(0.4, t_cut=math.exp(-3.0), scale=10.0))

    @pytest.mark.parametrize("bset", SETS, ids=lambda s: s.kind + ("-m" if s.mirror else ""))
    @pytest.mark.parametrize("weight", WEIGHTS, ids=("log_power", "from_w"))
    def test_columns(self, weight, bset):
        if bset.kind == "beta":
            # keep the scalar reference small: ~5k arcs at beta = 1/2
            eps = np.geomspace(0.5 * weight.pure_cut, 1e-30, 9)
        else:
            # reaches the deepest usable eps: doubly-exponential arcs there
            # start at a ~ 2^-1024, below any checkpoint
            eps = default_checkpoints(weight, bset)
        rep = criterion_partials(weight, bset, eps)
        got = (rep.e_and_short, rep.intermediate_sum, rep.long_sum, rep.alt_e_integral,
               rep.alt_gs_integral, rep.alt_arc_sum)
        for column, want in zip(got, _brute_arc_sums(weight, bset, eps)):
            np.testing.assert_allclose(column, want, rtol=1e-12, atol=0.0)


class TestReports:
    def test_monotone_in_cutoff(self):
        for weight, bset in ((WeightSpec.log_power(1.0), BoundarySet.cantor(20)),
                             (WeightSpec.from_w(0.4), BoundarySet.geometric()),
                             (WeightSpec.log_power(2.0), BoundarySet.beta_points(0.5)),
                             (WeightSpec.log_power(1.5), BoundarySet.single_point())):
            rep = criterion_partials(weight, bset, default_checkpoints(weight, bset, 16))
            for series in (rep.total, rep.e_and_short, rep.intermediate_sum,
                           rep.long_sum, rep.alt_e_integral, rep.alt_gs_integral,
                           rep.alt_arc_sum):
                # the verdict estimator's own allowance
                assert np.all(np.diff(series) >= -1e-9 * max(1.0, np.max(np.abs(series))))

    def test_full_circle_closed_form(self):
        weight = WeightSpec.from_w(1.0)
        eps = np.array([1e-4, 1e-10, 1e-40])
        rep = criterion_partials(weight, BoundarySet.full_circle(), eps)
        L0 = math.log(1.0 / weight.pure_cut)
        expect = np.log(np.log(1.0 / eps)) - math.log(L0)
        assert np.allclose(rep.e_and_short, expect, rtol=1e-12)
        assert np.allclose(rep.intermediate_sum, 0.0)
        assert np.allclose(rep.long_sum, 0.0)

    def test_single_arc_matches_full_circle_near_zero(self):
        # a closed arc through 1 behaves like the full circle for small cutoffs
        weight = WeightSpec.log_power(1.5)
        eps = np.geomspace(1e-3, 1e-30, 8)
        rep_full = criterion_partials(weight, BoundarySet.full_circle(), eps)
        rep_arc = criterion_partials(weight, BoundarySet.single_arc(-0.3, 0.4), eps)
        assert np.allclose(rep_arc.e_and_short, rep_full.e_and_short, rtol=1e-9)

    def test_point_set_is_gs_integral(self):
        weight = WeightSpec.log_power(1.0)
        eps = np.geomspace(1e-3, 1e-20, 6)
        rep = criterion_partials(weight, BoundarySet.single_point(), eps)
        cut = weight.pure_cut
        gs = np.log(np.log(1.0 / eps)) - math.log(math.log(1.0 / cut))
        w_cut = effective_w(weight, cut)
        edge = math.log(w_cut) / w_cut**2 if w_cut > 1.0 else 0.0
        assert np.allclose(rep.long_sum, gs + edge, rtol=1e-10)

    def test_adding_arcs_never_decreases(self):
        weight = WeightSpec.from_w(0.5)
        eps = 1e-6
        base = arc_contribution(Arc(0.5e-3, 1e-3), "long", weight, lower=eps)
        assert base > 0.0


# a geometric-in-log schedule, u from 2 to 600 (the span of default_checkpoints)
SCHEDULE = np.exp(-np.geomspace(2.0, 600.0, 24))


class TestDivergenceVerdict:
    def test_log_model_member(self):
        S = np.log(np.log(1.0 / SCHEDULE))  # S = log u
        v = divergence_verdict(S, SCHEDULE)
        assert v.verdict == "divergent"
        assert v.model == "log"

    def test_cauchy_bounded(self):
        S = [5.0 - 2.0**-k for k in range(1, 25)]
        v = divergence_verdict(S, SCHEDULE)
        assert v.verdict == "convergent"
        assert v.model == "bounded"
        assert v.fit_residual < 1e-3

    def test_exact_power(self):
        eps = np.exp(-2.5 * 1.3 ** np.arange(18))
        u = np.log(1.0 / eps)
        for q in (0.6, 0.25, -0.3):
            S = (u**q - u[0] ** q) / q  # partial integral of u^(q-1), nondecreasing
            v = divergence_verdict(S, eps)
            assert v.exponent == pytest.approx(q, abs=1e-6)
            assert v.verdict == ("divergent" if q > 0 else "convergent")

    def test_non_monotone_rejected(self):
        with pytest.raises(UsageError):
            divergence_verdict([1.0, 2.0, 1.5, 3.0, 4.0, 5.0], SCHEDULE[::4])

    def test_too_few_points(self):
        with pytest.raises(UsageError):
            divergence_verdict([1.0, 2.0, 3.0], SCHEDULE[::8])

    def test_span_requirement(self):
        with pytest.raises(UsageError):
            divergence_verdict(np.arange(8.0), np.geomspace(1e-2, 1e-3, 8))

    @given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
                    min_size=7, max_size=30),
           st.floats(min_value=0.0, max_value=1e3),
           st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=16.0, max_value=650.0),
           st.integers(min_value=-30, max_value=30))
    @settings(max_examples=200, deadline=None)
    def test_scale_free(self, increments, start, u0, u_max, k):
        # powers of two scale every sum exactly, so the verdict may not move
        eps = np.exp(-np.geomspace(u0, u_max, len(increments) + 1))
        S = start + np.concatenate(([0.0], np.cumsum(increments)))
        assert divergence_verdict(2.0**k * S, eps).verdict == divergence_verdict(S, eps).verdict

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("kind", ["point", "geometric"])
    def test_report_verdicts_scale_free(self, kind, alpha):
        # Lambda scaled by 1e-6 scales every criterion term by about 1e-6
        bset = BoundarySet(kind)
        got = []
        for scale in (1.0, 1e-6):
            w = WeightSpec.log_power(alpha, scale=scale)
            rep = criterion_partials(w, bset, default_checkpoints(w, bset))
            got.append((rep.verdict().verdict, rep.alt_verdict().verdict))
        assert got[0] == got[1]


def _calibration_rows(dip):
    """(q, m, C, verdict) over sums C * int u^(q-1) (log u)^m du on the
    default schedule, with the increment at index dip (if any) cut to 1/10."""
    eps = default_checkpoints(WeightSpec.log_power(1.0), BoundarySet.full_circle())
    u = np.log(1.0 / eps)
    um, du = np.sqrt(u[1:] * u[:-1]), np.diff(u)
    rows = []
    for q in np.arange(-20, 21) * 0.025:
        for m in (0, 1):
            inc = um ** (q - 1.0) * np.log(um) ** m * du
            if dip is not None:
                inc[dip] *= 0.1
            for C in (1e-6, 1.0, 1e6):
                S = C * np.concatenate(([0.0], np.cumsum(inc)))
                rows.append((q, m, C, divergence_verdict(S, eps).verdict))
    return rows


class TestCalibration:
    """Confusion matrix of the estimator on sums of known growth.

    Truth is divergent for q >= 0 and convergent for q < 0.  Within the band
    |q| <= DEFAULT_MARGIN an inconclusive verdict is allowed (at q = +-0.05
    exactly the estimate sits on the margin, where rounding decides).
    """

    @pytest.mark.parametrize("dip", [None, 6, 12, 18])
    def test_confusion_matrix(self, dip):
        wrong, inconclusive_outside = [], []
        for q, m, C, verdict in _calibration_rows(dip):
            truth = "divergent" if q >= 0.0 else "convergent"
            if verdict == "inconclusive":
                if abs(q) > DEFAULT_MARGIN:
                    inconclusive_outside.append((q, m, C))
            elif verdict != truth:
                wrong.append((q, m, C, verdict))
        assert wrong == []
        assert inconclusive_outside == []


class TestThresholdOracle:
    def test_teo3_threshold_value(self):
        assert threshold_value("teo3") == pytest.approx(1.4608, abs=5e-5)
        assert KAPPA == pytest.approx(math.log(2.0) / math.log(3.0), rel=1e-15)

    def test_teo2(self):
        assert threshold_oracle("teo2", 1.5, 0.5) == "divergent"  # 0.75 <= 1
        assert threshold_oracle("teo2", 2.5, 0.5) == "convergent"  # 1.25 > 1
        assert threshold_oracle("teo2", 2.0, 0.5) == "divergent"  # boundary included

    def test_specials(self):
        assert threshold_oracle("nikolski", 2.0) == "divergent"
        assert threshold_oracle("nikolski", 2.01) == "convergent"
        assert threshold_oracle("gs", 1.0) == "divergent"
        assert threshold_oracle("gs", 1.01) == "convergent"

    def test_bad_inputs(self):
        with pytest.raises(UsageError):
            threshold_oracle("teo2", 1.0, 0.9)
        with pytest.raises(UsageError):
            threshold_oracle("nope", 1.0)


class TestReducedCantor:
    def test_exponent_is_exact(self):
        for alpha in (1.0, 1.3, 1.7, 2.2):
            weight = WeightSpec.log_power(alpha)
            eps, sums = cantor_reduced_partials(weight, 30)
            v = divergence_verdict(sums, eps)
            assert v.exponent == pytest.approx(1.0 - alpha * (1.0 - KAPPA / 2.0), abs=1e-9)

    def test_partial_ratio_frozen(self):
        # growth ratio between depth-15 and depth-30 of the class-counting
        # mass, from its closed form (the asymptotic-pure-power prediction
        # 2^0.3155 ~ 1.244 ignores the additive constant and is not attained)
        weight = WeightSpec.log_power(1.0)
        q = 1.0 - (1.0 - KAPPA / 2.0)
        u0 = math.log(1.0 / weight.pure_cut) + 0.2

        def S(u):
            return (u**q - u0**q) / q

        eps, sums = cantor_reduced_partials(weight, 30)
        u = np.log(1.0 / eps)
        assert np.allclose(sums, S(u), rtol=1e-12)
        got = np.interp(30 * math.log(3.0), u, sums) / np.interp(15 * math.log(3.0), u, sums)
        assert got == pytest.approx(1.5199, abs=2e-3)


class TestScan:
    def test_teo3_rows(self):
        for alpha in (1.0, 1.2, 1.4, 1.6, 1.8, 2.0):
            row = theorem_scan_point("teo3", alpha)
            assert row["in_band"] or row["agree"], row
            if alpha <= 1.4:
                true_q = 1.0 - alpha * (1.0 - KAPPA / 2.0)
                assert row["fitted_exponent"] == pytest.approx(true_q, abs=0.05)

    def test_scan_verdict_scale_invariance(self):
        for sc in (0.1, 1.0, 10.0):
            w = WeightSpec.log_power(1.6, scale=sc)
            eps, sums = cantor_reduced_partials(w, 30)
            assert divergence_verdict(sums, eps).verdict == "convergent"
