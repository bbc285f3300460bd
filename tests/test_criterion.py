import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from crosschecks import checkpoint_sums_by_segment, condition_partials_quad, divergence_verdict_numpy
from cyclicity import criterion
from cyclicity.boundary import Arc, BoundarySet, arc_arrays, complementary_arcs
from cyclicity.criterion import (
    DEFAULT_MARGIN,
    KAPPA,
    arc_contribution,
    cantor_reduced_partials,
    classify_arc,
    criterion_partials,
    default_checkpoints,
    divergence_verdict,
    is_scored,
    theorem_scan_point,
    threshold_oracle,
    threshold_value,
)
from cyclicity.errors import CapacityError, UsageError
from cyclicity.weights import WeightSpec, effective_w, inv_tw_integral


class TestClassify:
    def test_short(self):
        w = WeightSpec("from_w", p=1.0)
        arc = Arc(0.95 * 2.0**-10, 2.0**-10)
        assert classify_arc(arc, w) == "short"

    def test_intermediate(self):
        w = WeightSpec("from_w", p=1.0)
        arc = Arc(0.6 * 2.0**-10, 2.0**-10)
        assert classify_arc(arc, w) == "intermediate"

    def test_long_is_weight_free(self):
        arc = Arc(0.4 * 2.0**-10, 2.0**-10)
        for w in (WeightSpec("from_w", p=1.0), WeightSpec("log_power", alpha=0.5), WeightSpec("const_w")):
            assert classify_arc(arc, w) == "long"

    def test_boundary_ties(self):
        w = WeightSpec("from_w", p=1.0)
        b = 2.0**-10
        wb = effective_w(w, b)
        assert classify_arc(Arc(b / 2.0, b), w) == "long"  # ratio exactly 1/2
        a_tie = b * (1.0 - 2.0 / wb)
        assert classify_arc(Arc(a_tie, b), w) == "intermediate"

    def test_partition_on_sweeps(self):
        w = WeightSpec("from_w", p=0.7)
        rng = np.random.default_rng(3)
        for _ in range(300):
            b = float(np.exp(rng.uniform(np.log(1e-9), np.log(w.pure_cut * 0.99))))
            a = b * rng.uniform(0.01, 0.999)
            tags = [classify_arc(Arc(a, b), w)]
            assert len(tags) == 1 and tags[0] in ("short", "intermediate", "long")

    def test_arcs_the_engine_skips_are_refused(self):
        # a lies below the pure cut only by rounding, so is_scored skips the
        # arc; classifying or scoring it alone would disagree with the engine
        w = WeightSpec("from_w", p=0.4, t_cut=0.12500000000000003)
        arc = Arc(0.125, 0.25)
        assert arc.a < w.pure_cut and not is_scored(w, arc.a)
        with pytest.raises(UsageError, match="does not score"):
            classify_arc(arc, w)
        with pytest.raises(UsageError, match="does not score"):
            arc_contribution(arc, "short", w)


class TestContribution:
    def test_intermediate_value(self):
        w = WeightSpec("from_w", p=1.0)
        arc = Arc(0.6 * 2.0**-10, 2.0**-10)
        got = arc_contribution(arc, "intermediate", w)
        assert got == pytest.approx(0.02122541457741479, rel=1e-12)

    def test_long_value(self):
        w = WeightSpec("from_w", p=1.0)
        b = math.exp(-4.0)
        arc = Arc(b / 4.0, b)
        got = arc_contribution(arc, "long", w)
        expect = (0.25 - 1.0 / (4.0 + math.log(4.0))) + math.log(4.0) / 16.0
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.150987, rel=1e-5)

    def test_short_against_quadrature(self):
        w = WeightSpec("from_w", p=1.0)
        b = 2.0**-10
        arc = Arc(0.95 * b, b)
        got = arc_contribution(arc, "short", w)
        ref = quad(lambda t: 1.0 / (t * math.log(1.0 / t)), arc.a, arc.b, epsrel=1e-12)[0]
        assert got == pytest.approx(ref, rel=1e-9)
        # mean-value estimate log(1/0.95)/w(b) is within one percent
        assert got == pytest.approx(math.log(1.0 / 0.95) / math.log(2.0**10), rel=1e-2)

    def test_class_mismatch_rejected(self):
        w = WeightSpec("from_w", p=1.0)
        arc = Arc(0.6 * 2.0**-10, 2.0**-10)
        with pytest.raises(UsageError):
            arc_contribution(arc, "long", w)

    def test_intermediate_terms_exceed_log2_over_w2(self):
        w = WeightSpec("from_w", p=0.8)
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
    # 1.3 at scale 1 has generations with both short and non-short gaps and
    # all-short generations, 2.5 at scale 0.1 one generation non-short up to
    # the cut, 1.3 at scale 10 only all-short generations, and 3 at scale 0.01
    # a generation non-short up to the cut with non-short gaps past its first
    @pytest.mark.parametrize("alpha, scale", [(1.3, 1.0), (2.5, 0.1), (1.3, 10.0), (3.0, 0.01)])
    def test_against_brute_force(self, alpha, scale):
        weight = WeightSpec("log_power", alpha=alpha, scale=scale)
        depth = 14
        eps = np.array([3.0**-5, 3.0**-9, 3.0**-14])
        rep = criterion_partials(weight, BoundarySet("cantor", depth=depth), eps)
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
        weight = WeightSpec("log_power", alpha=alpha)
        bset = BoundarySet("cantor", depth=14)
        eps = default_checkpoints(weight, bset)
        rep = criterion_partials(weight, bset, eps)
        e_fn = np.array([row[3] for row in _brute_cantor_sums(weight, 14, eps)])
        np.testing.assert_allclose(rep.alt_e_integral, e_fn, rtol=1e-8)
        assert np.all(np.diff(rep.alt_e_integral) >= 0.0)
        assert np.all(np.diff(rep.alt_arc_sum) >= 0.0)

    @given(st.sampled_from(("log_power", "from_w", "const_w")), st.floats(min_value=0.3, max_value=10.0),
           st.floats(min_value=-3.0, max_value=3.0), st.sampled_from((0.5, 0.05, math.exp(-2.0), math.exp(-3.0))),
           st.integers(min_value=1, max_value=13), st.integers(min_value=1, max_value=13))
    @settings(max_examples=150, deadline=None)
    def test_walk_lists_exactly_the_nonshort_gaps(self, family, exponent, log_scale, t_cut, depth, eps_gen):
        # the walk's bound only prunes: of all the gaps the per-arc listing
        # gives, with the same float ends, it lists those scored, kept and
        # found non-short by _arc_class
        exp = {"log_power": {"alpha": exponent}, "from_w": {"p": exponent}, "const_w": {}}[family]
        weight = WeightSpec(family, t_cut=t_cut, scale=10.0**log_scale, **exp)
        eps_min = 3.0 ** -min(eps_gen, depth)
        a, b = arc_arrays(BoundarySet("cantor", depth=depth), 0.0)
        keep = criterion.is_scored(weight, a) & (b >= eps_min)
        a, b = a[keep], np.minimum(b[keep], weight.pure_cut)
        nonshort = criterion._arc_class(a, b, effective_w(weight, b)) != 0
        got = criterion._cantor_nonshort(weight, depth, eps_min)
        assert sorted(zip(*(x.tolist() for x in got))) == sorted(zip(a[nonshort].tolist(), b[nonshort].tolist()))

    def test_insufficient_depth(self):
        weight = WeightSpec("log_power", alpha=1.0)
        with pytest.raises(CapacityError):
            criterion_partials(weight, BoundarySet("cantor", depth=10), [3.0**-12])

    def test_mirror_doubles(self):
        weight = WeightSpec("log_power", alpha=1.0)
        eps = np.array([3.0**-4, 3.0**-8])
        one = criterion_partials(weight, BoundarySet("cantor", depth=9), eps)
        two = criterion_partials(weight, BoundarySet("cantor", depth=9, mirror=True), eps)
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
        BoundarySet("full"),
        BoundarySet("arc", a=-0.3, b=0.04),
        BoundarySet("arc", a=-0.3, b=1.5),
        BoundarySet("point"),
        BoundarySet("geometric"),
        BoundarySet("geometric", mirror=True),
        BoundarySet("doubly_exp"),
        BoundarySet("beta", beta=0.0),
        BoundarySet("beta", beta=0.25),
        BoundarySet("beta", beta=0.5),
    )
    WEIGHTS = (WeightSpec("log_power", alpha=1.5), WeightSpec("from_w", p=0.4, t_cut=math.exp(-3.0), scale=10.0))

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
        for weight, bset in ((WeightSpec("log_power", alpha=1.0), BoundarySet("cantor", depth=20)),
                             (WeightSpec("from_w", p=0.4), BoundarySet("geometric")),
                             (WeightSpec("log_power", alpha=2.0), BoundarySet("beta", beta=0.5)),
                             (WeightSpec("log_power", alpha=1.5), BoundarySet("point"))):
            rep = criterion_partials(weight, bset, default_checkpoints(weight, bset, 16))
            for series in (rep.total, rep.e_and_short, rep.intermediate_sum,
                           rep.long_sum, rep.alt_e_integral, rep.alt_gs_integral,
                           rep.alt_arc_sum):
                # the verdict estimator's own allowance
                assert np.all(np.diff(series) >= -1e-9 * max(1.0, np.max(np.abs(series))))

    def test_full_circle_closed_form(self):
        weight = WeightSpec("from_w", p=1.0)
        eps = np.array([1e-4, 1e-10, 1e-40])
        rep = criterion_partials(weight, BoundarySet("full"), eps)
        L0 = math.log(1.0 / weight.pure_cut)
        expect = np.log(np.log(1.0 / eps)) - math.log(L0)
        assert np.allclose(rep.e_and_short, expect, rtol=1e-12)
        assert np.allclose(rep.intermediate_sum, 0.0)
        assert np.allclose(rep.long_sum, 0.0)

    def test_single_arc_matches_full_circle_near_zero(self):
        # a closed arc through 1 behaves like the full circle for small cutoffs
        weight = WeightSpec("log_power", alpha=1.5)
        eps = np.geomspace(1e-3, 1e-30, 8)
        rep_full = criterion_partials(weight, BoundarySet("full"), eps)
        rep_arc = criterion_partials(weight, BoundarySet("arc", a=-0.3, b=0.4), eps)
        assert np.allclose(rep_arc.e_and_short, rep_full.e_and_short, rtol=1e-9)

    def test_point_set_is_gs_integral(self):
        weight = WeightSpec("log_power", alpha=1.0)
        eps = np.geomspace(1e-3, 1e-20, 6)
        rep = criterion_partials(weight, BoundarySet("point"), eps)
        cut = weight.pure_cut
        gs = np.log(np.log(1.0 / eps)) - math.log(math.log(1.0 / cut))
        w_cut = effective_w(weight, cut)
        edge = math.log(w_cut) / w_cut**2 if w_cut > 1.0 else 0.0
        assert np.allclose(rep.long_sum, gs + edge, rtol=1e-10)

    @pytest.mark.parametrize("bset", [BoundarySet("geometric"), BoundarySet("doubly_exp"),
                                      BoundarySet("beta", beta=0.25)], ids=lambda b: b.kind)
    def test_point_sequence_reaches_the_enumeration_floor(self, bset):
        # the arcs are enumerated down to half the smallest checkpoint, and
        # boundary's floor (1e-290) is the only one that refuses
        weight = WeightSpec("log_power", alpha=1.5)
        rep = criterion_partials(weight, bset, np.geomspace(0.5 * weight.pure_cut, 3e-290, 12))
        assert np.all(np.isfinite(rep.total)) and np.all(np.diff(rep.total) >= 0.0)
        with pytest.raises(CapacityError, match="floor is 1e-290"):
            criterion_partials(weight, bset, np.geomspace(0.5 * weight.pure_cut, 1.9e-290, 12))

    def test_adding_arcs_never_decreases(self):
        weight = WeightSpec("from_w", p=0.5)
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
            w = WeightSpec("log_power", alpha=alpha, scale=scale)
            rep = criterion_partials(w, bset, default_checkpoints(w, bset))
            got.append((rep.verdict().verdict, rep.alt_verdict().verdict))
        assert got[0] == got[1]


def _calibration_rows(dip):
    """(q, m, C, S) over sums S = C * int u^(q-1) (log u)^m du on the default
    schedule, with the increment at index dip (if any) cut to 1/10."""
    eps = default_checkpoints(WeightSpec("log_power", alpha=1.0), BoundarySet("full"))
    u = np.log(1.0 / eps)
    um, du = np.sqrt(u[1:] * u[:-1]), np.diff(u)
    rows = []
    for q in np.arange(-20, 21) * 0.025:
        for m in (0, 1):
            inc = um ** (q - 1.0) * np.log(um) ** m * du
            if dip is not None:
                inc[dip] *= 0.1
            for C in (1e-6, 1.0, 1e6):
                rows.append((q, m, C, C * np.concatenate(([0.0], np.cumsum(inc)))))
    return eps, rows


class TestCalibration:
    """Confusion matrix of the estimator on sums of known growth.

    Truth is divergent for q >= 0 and convergent for q < 0.  Within the band
    |q| <= DEFAULT_MARGIN an inconclusive verdict is allowed (at q = +-0.05
    exactly the estimate sits on the margin, where rounding decides).
    """

    @pytest.mark.parametrize("dip", [None, 6, 12, 18])
    def test_confusion_matrix(self, dip):
        eps, rows = _calibration_rows(dip)
        wrong, inconclusive_outside = [], []
        for q, m, C, S in rows:
            verdict = divergence_verdict(S, eps).verdict
            truth = "divergent" if q >= 0.0 else "convergent"
            if verdict == "inconclusive":
                if abs(q) > DEFAULT_MARGIN:
                    inconclusive_outside.append((q, m, C))
            elif verdict != truth:
                wrong.append((q, m, C, verdict))
        assert wrong == []
        assert inconclusive_outside == []


def _assert_matches_reference(S, eps):
    """divergence_verdict against its NumPy form: exponent and residual within
    1e-12, verdict and model identical.

    Where the reference exponent lies within 1e-12 of a threshold the policy
    compares it with (+-DEFAULT_MARGIN, and -0.005 for the log model), rounding
    decides the verdict, and only the exponent is compared.
    """
    got = divergence_verdict(S, eps)
    with np.errstate(invalid="ignore"):  # the root of a negative u product is NaN there
        want = divergence_verdict_numpy(S, eps)

    def close(x, y):
        return x == y or (math.isnan(x) and math.isnan(y)) or abs(x - y) <= 1e-12

    assert close(got.exponent, want.exponent), (got, want)
    if any(abs(want.exponent - t) <= 1e-12 for t in (DEFAULT_MARGIN, -DEFAULT_MARGIN, -0.005)):
        return
    assert (got.verdict, got.model) == (want.verdict, want.model), (got, want)
    assert close(got.fit_residual, want.fit_residual), (got, want)


@st.composite
def _nondecreasing_series(draw):
    """(S, eps): a schedule geometric in g = log(1/eps) + shift and sums of
    g^(q-1) (1 + log g)^m increments, jittered, with a few increments cut or
    zeroed and a flat tail.  A positive shift puts the first checkpoints
    above 1, where u = log(1/eps) is negative."""
    k = draw(st.integers(min_value=6, max_value=30))
    g0 = draw(st.floats(min_value=0.5, max_value=5.0))
    g_max = draw(st.floats(min_value=16.0, max_value=650.0))
    shift = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0)))
    g = np.geomspace(g0, g_max, k)
    eps = np.exp(shift - g)
    gm = np.sqrt(g[1:] * g[:-1])
    q = draw(st.floats(min_value=-1.0, max_value=1.0))
    m = draw(st.sampled_from((0, 1)))
    jitter = draw(st.lists(st.floats(min_value=0.25, max_value=4.0), min_size=k - 1, max_size=k - 1))
    inc = gm ** (q - 1.0) * (1.0 + np.log(gm)) ** m * np.diff(g) * np.array(jitter)
    for i in draw(st.lists(st.integers(min_value=0, max_value=k - 2), max_size=4)):
        inc[i] *= draw(st.sampled_from((0.0, 1e-3, 0.1)))
    flat = draw(st.integers(min_value=0, max_value=k // 2))
    inc[inc.size - flat:] = 0.0
    C = 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
    start = draw(st.floats(min_value=0.0, max_value=100.0))
    return C * (start + np.concatenate(([0.0], np.cumsum(inc)))), eps


def _degenerate_case(kind):
    """Series and checkpoints that pass the shape checks but carry a non-finite
    value or two checkpoints whose logs round equal."""
    S, eps = np.cumsum(np.ones(24)), np.geomspace(1e-3, 1e-200, 24)
    if kind == "last-sum-inf":
        S[-1] = np.inf
    elif kind == "sum-nan":
        S[10] = np.nan
    elif kind == "eps-one-ulp-apart":
        S, eps = np.cumsum(np.ones(25)), np.insert(eps, 11, np.nextafter(eps[10], 0.0))
    elif kind == "first-eps-inf":
        eps[0] = np.inf
    else:
        eps[-1] = 5e-324
    return S, eps


class TestEstimatorAgainstReference:
    @pytest.mark.parametrize("dip", [None, 6, 12, 18])
    def test_calibration_rows(self, dip):
        eps, rows = _calibration_rows(dip)
        for _q, _m, _C, S in rows:
            _assert_matches_reference(S, eps)

    @given(_nondecreasing_series())
    @settings(max_examples=200, deadline=None)
    def test_random_nondecreasing_series(self, case):
        _assert_matches_reference(*case)

    @pytest.mark.parametrize("k", [12, 20, 30])
    def test_checkpoints_above_one(self, k):
        # u = log(1/eps) runs from -3.5 up through 0: the fit points' log u
        # first falls, then rises, and some neighbours straddle u = 0
        g = np.geomspace(0.5, 200.0, k)
        eps, gm = np.exp(4.0 - g), np.sqrt(g[1:] * g[:-1])
        for q in (-0.5, -0.2, 0.0, 0.3, 0.8):
            for m in (0, 1):
                inc = gm ** (q - 1.0) * (1.0 + np.log(gm)) ** m * np.diff(g)
                _assert_matches_reference(np.concatenate(([0.0], np.cumsum(inc))), eps)

    @pytest.mark.parametrize("S, eps, message", [
        ([1.0, 2.0, 3.0], SCHEDULE[::8], "need at least 6 partial sums"),
        (np.arange(8.0), SCHEDULE[::4], "checkpoints and partials must have equal length"),
        (np.arange(6.0), SCHEDULE[::4][::-1], "positive and strictly decreasing"),
        (np.arange(6.0), -SCHEDULE[::4], "positive and strictly decreasing"),
        (np.arange(8.0), np.geomspace(1e-2, 1e-3, 8), "at least 4 geometric decades"),
        ([1.0, 2.0, 1.5, 3.0, 4.0, 5.0], SCHEDULE[::4], "must be nondecreasing"),
        pytest.param(*_degenerate_case("last-sum-inf"), "must be finite", id="last-sum-inf"),
        pytest.param(*_degenerate_case("sum-nan"), "must be finite", id="sum-nan"),
        pytest.param(*_degenerate_case("eps-one-ulp-apart"), r"log\(1/eps\) must be finite and strictly increasing",
                     id="eps-one-ulp-apart"),
        pytest.param(*_degenerate_case("first-eps-inf"), "must be finite", id="first-eps-inf"),
        pytest.param(*_degenerate_case("last-eps-subnormal"), r"log\(1/eps\) must be finite and strictly increasing",
                     id="last-eps-subnormal"),
    ])
    def test_refusals_match(self, S, eps, message):
        for estimator in (divergence_verdict, divergence_verdict_numpy):
            with pytest.raises(UsageError, match=message):
                estimator(S, eps)

    def test_undecided_returns(self):
        flat = divergence_verdict([1.0] * 24, SCHEDULE)
        assert (flat.verdict, flat.model, flat.fit_residual) == ("convergent", "bounded", 0.0)
        assert math.isnan(flat.exponent)
        # growth only in the first few increments, then a tail just above the bounded floor
        S = np.concatenate((np.arange(1.0, 5.0), np.full(20, 4.0)))
        S[-1] += 0.01
        sparse = divergence_verdict(S, SCHEDULE)
        assert (sparse.verdict, sparse.model, sparse.fit_residual) == ("inconclusive", "power", math.inf)
        assert math.isnan(sparse.exponent)


class TestCheckpointSums:
    """The one-pass block reduction of _checkpoint_sums against one np.sum per segment."""

    @staticmethod
    def blocks(a, b, size):
        return [(a[lo:lo + size], b[lo:lo + size]) for lo in range(0, a.size, size)]

    @staticmethod
    def case():
        # 30 disjoint arcs sorted by decreasing b; the checkpoints leave
        # empty segments at the start (above every arc), in the middle and
        # at the end, and some checkpoints fall inside an arc
        rng = np.random.default_rng(11)
        ends = np.sort(rng.uniform(0.0, 1.0, 60))[::-1]
        b, a = ends[0::2], ends[1::2]
        eps = np.array([1.5, 1.2, 0.5 * (a[2] + b[2]), a[9], 0.999 * a[9], b[20], a[24],
                        0.5 * (a[27] + b[27]), 0.5 * a[29], 0.25 * a[29], 0.1 * a[29]])
        vals = rng.uniform(0.0, 1.0, (2, a.size))

        def terms(a_arcs, b_arcs, lower):
            idx = np.searchsorted(-b, -b_arcs)  # each arc's place in the case
            return np.stack([vals[0, idx], vals[1, idx] * (b_arcs - np.maximum(a_arcs, lower))])

        return eps, a, b, terms

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 1 << 16])
    def test_bit_identical(self, size):
        eps, a, b, terms = self.case()
        blocks = self.blocks(a, b, size)
        got = criterion._checkpoint_sums(eps, iter(blocks), terms, 2)
        want = checkpoint_sums_by_segment(eps, blocks, terms)
        assert got.shape == (2, eps.size)
        assert np.array_equal(got, want)
        assert np.all(np.diff(got, axis=1) >= 0.0)

    @pytest.mark.parametrize("size", [300, 777, 1000, 1 << 16])
    def test_long_segments(self, size):
        # segments of 150 to 2,500 arcs: np.sum splits them pairwise above
        # 128 terms, and the blocks fall both inside and around segments
        rng = np.random.default_rng(5)
        ends = np.sort(rng.uniform(0.0, 1.0, 8000))[::-1]
        b, a = ends[0::2], ends[1::2]
        eps = np.array([a[149], 0.5 * (a[1000] + b[1000]), a[1399], b[3900], a[3999], 0.5 * a[3999]])
        vals = rng.lognormal(0.0, 3.0, (2, a.size))

        def terms(a_arcs, b_arcs, lower):
            idx = np.searchsorted(-b, -b_arcs)
            return np.stack([vals[0, idx], vals[1, idx] * (b_arcs - np.maximum(a_arcs, lower))])

        blocks = self.blocks(a, b, size)
        got = criterion._checkpoint_sums(eps, iter(blocks), terms, 2)
        assert np.array_equal(got, checkpoint_sums_by_segment(eps, blocks, terms))

    def test_no_whole_arc(self):
        # every arc straddles or lies below the checkpoints: no block has a whole arc
        eps, a, b, terms = self.case()
        eps = np.array([1.5, 1.2, 0.5 * (a[0] + b[0])])
        blocks = self.blocks(a, b, 5)
        got = criterion._checkpoint_sums(eps, iter(blocks), terms, 2)
        assert np.array_equal(got, checkpoint_sums_by_segment(eps, blocks, terms))
        assert np.array_equal(got[:, :2], np.zeros((2, 2)))

    def test_no_arcs(self):
        eps, _, _, terms = self.case()
        assert np.array_equal(criterion._checkpoint_sums(eps, iter(()), terms, 2), np.zeros((2, eps.size)))
        assert np.array_equal(checkpoint_sums_by_segment(eps, [], terms), np.zeros((2, eps.size)))


class TestEngineMemory:
    def test_beta_half_streams_its_arcs(self):
        # about 4 * 10^5 arcs reach the deepest checkpoint; the engine holds
        # one block of them at a time, where the whole list took 16 MB
        weight, bset = WeightSpec("log_power", alpha=1.5), BoundarySet("beta", beta=0.5)
        eps = default_checkpoints(weight, bset)
        tracemalloc.start()
        try:
            report = criterion_partials(weight, bset, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

        # the same columns from the whole arc list, cut into the engine's
        # blocks of ARC_BLOCK arcs, each then cut to the pure region
        cut, size = weight.pure_cut, criterion.ARC_BLOCK
        blocks = []
        a, b = arc_arrays(bset, eps[-1] * 0.5)
        for lo in range(0, a.size, size):
            a_blk, b_blk = a[lo:lo + size], b[lo:lo + size]
            keep = (a_blk < cut * (1.0 - 1e-15)) & (b_blk >= eps[-1])
            blocks.append((a_blk[keep], np.minimum(b_blk[keep], cut)))
        assert sum(a_blk.size > 0 for a_blk, _ in blocks) > 4

        def by_class(a, b, lower):
            cls, value, unified = criterion.arc_terms(weight, a, b, lower)
            return np.stack([np.where(cls == c, value, 0.0) for c in range(3)] + [unified])

        short, inter, long_s, arc_sum = checkpoint_sums_by_segment(eps, blocks, by_class)
        e_and_short = np.zeros(eps.size) + short
        want = [eps, e_and_short, inter, long_s, e_and_short + inter + long_s, np.zeros(eps.size),
                inv_tw_integral(weight, 2.0, eps, cut), arc_sum + np.zeros(eps.size)]
        got = [report.checkpoints, report.e_and_short, report.intermediate_sum, report.long_sum, report.total,
               report.alt_e_integral, report.alt_gs_integral, report.alt_arc_sum]
        for column, expected in zip(got, want):
            assert column.tobytes() == expected.tobytes()


def _weights_and_sets():
    family = st.sampled_from(("log_power", "from_w"))
    exponent = st.floats(min_value=0.3, max_value=3.0)
    scale = st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0**x)
    t_cut = st.sampled_from((0.1, math.exp(-2.0), math.exp(-3.0)))
    weight = st.builds(lambda f, x, c, s: WeightSpec(f, **{"alpha" if f == "log_power" else "p": x},
                                                     t_cut=c, scale=s),
                       family, exponent, t_cut, scale)
    bset = st.one_of(
        st.sampled_from((BoundarySet("full"), BoundarySet("point"), BoundarySet("geometric"),
                         BoundarySet("doubly_exp"), BoundarySet("beta", beta=0.0),
                         BoundarySet("beta", beta=0.25), BoundarySet("arc", a=-0.3, b=0.04),
                         BoundarySet("geometric", mirror=True))),
        st.integers(min_value=8, max_value=20).map(lambda depth: BoundarySet("cantor", depth=depth)),
    )
    return weight, bset


class TestPartialsNondecreasing:
    @given(*_weights_and_sets(), st.integers(min_value=6, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_every_column(self, weight, bset, count):
        # the verdict estimator's allowance: a dip of at most 1e-9 of the largest sum
        rep = criterion_partials(weight, bset, default_checkpoints(weight, bset, count))
        for series in (rep.e_and_short, rep.intermediate_sum, rep.long_sum, rep.total,
                       rep.alt_e_integral, rep.alt_gs_integral, rep.alt_arc_sum):
            assert np.all(np.diff(series) >= -1e-9 * np.max(np.abs(series)))


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
            weight = WeightSpec("log_power", alpha=alpha)
            eps, sums = cantor_reduced_partials(weight, 30)
            v = divergence_verdict(sums, eps)
            assert v.exponent == pytest.approx(1.0 - alpha * (1.0 - KAPPA / 2.0), abs=1e-9)

    def test_partial_ratio_frozen(self):
        # growth ratio between depth-15 and depth-30 of the class-counting
        # mass, from its closed form (the asymptotic-pure-power prediction
        # 2^0.3155 ~ 1.244 ignores the additive constant and is not attained)
        weight = WeightSpec("log_power", alpha=1.0)
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
            assert set(row) == {"alpha", "fitted_exponent", "verdict", "oracle", "agree"}
            in_band = abs(alpha - threshold_value("teo3")) < DEFAULT_MARGIN
            assert in_band or row["agree"], row
            if alpha <= 1.4:
                true_q = 1.0 - alpha * (1.0 - KAPPA / 2.0)
                assert row["fitted_exponent"] == pytest.approx(true_q, abs=0.05)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 12.0])
    def test_teo3_names_the_smallest_depth_that_fits(self, alpha):
        # a depth too shallow for 4 decades of checkpoints is refused before
        # the fit, naming the smallest depth, and that depth is fitted
        with pytest.raises(UsageError, match=r"need depth >= \d+") as refused:
            theorem_scan_point("teo3", alpha, depth=1)
        need = int(str(refused.value).rsplit(">= ", 1)[1])
        with pytest.raises(UsageError, match=f"need depth >= {need}$"):
            theorem_scan_point("teo3", alpha, depth=need - 1)
        assert theorem_scan_point("teo3", alpha, depth=need)["verdict"] in ("divergent", "convergent", "inconclusive")

    def test_nikolski_rows(self):
        # the square-root condition integral grows like u^(1 - alpha/2) in
        # u = log(1/eps); the closed form and quadrature give the same fit
        for alpha in (0.5, 1.5, 2.5, 3.0):
            row = theorem_scan_point("nikolski", alpha)
            assert row["agree"], row
            assert row["fitted_exponent"] == pytest.approx(1.0 - alpha / 2.0, abs=1e-9)
            weight = WeightSpec("log_power", alpha=alpha)
            eps = default_checkpoints(weight, BoundarySet("full"))
            ref = divergence_verdict(condition_partials_quad(weight, "nikolski", eps), eps)
            assert row["fitted_exponent"] == pytest.approx(ref.exponent, abs=1e-6)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: just above the teo2 threshold 1/(1 - beta) the fitted verdict calls "
        "convergent sums divergent; certified tails are to mend it, and then this marker goes"))
    @pytest.mark.parametrize("beta,alpha", [(0.0, 1.05), (0.0, 1.10), (0.0, 1.15), (0.25, 1.35), (0.25, 1.38)])
    def test_teo2_just_above_the_threshold_is_not_divergent(self, beta, alpha):
        # the oracle says convergent at each point; the fitted exponents are
        # 0.121, 0.074, 0.026, 0.063 and 0.029
        row = theorem_scan_point("teo2", alpha, beta=beta)
        assert row["oracle"] == "convergent"
        assert row["verdict"] != "divergent", row

    def test_scan_verdict_scale_invariance(self):
        for sc in (0.1, 1.0, 10.0):
            w = WeightSpec("log_power", alpha=1.6, scale=sc)
            eps, sums = cantor_reduced_partials(w, 30)
            assert divergence_verdict(sums, eps).verdict == "convergent"
