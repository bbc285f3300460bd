import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosschecks import condition_integral_quad, condition_integrand, condition_partials_quad
from cyclicity.errors import DomainError, UsageError
from cyclicity.weights import (
    WeightSpec,
    check_regularity,
    eval_lambda,
    effective_w,
    inv_tw_integral,
)

E = math.e


class TestEvalLambda:
    def test_log_power_pure_formula(self):
        # t = e^-1 sits in the pure region once t_cut admits it
        spec = WeightSpec("log_power", alpha=1.0, t_cut=math.exp(-1.0))
        assert eval_lambda(spec, math.exp(-1.0)) == pytest.approx(E, rel=1e-14)

    def test_from_w_pure(self):
        spec = WeightSpec("from_w", p=1.0)
        assert eval_lambda(spec, math.exp(-2.0)) == pytest.approx(E**2 / 4.0, rel=1e-14)

    def test_tail_continuation_value(self):
        # Lambda(e^-2) * e^-2 / 0.3 = (e^2/2) e^-2 / 0.3 = 1/0.6
        spec = WeightSpec("log_power", alpha=1.0)
        assert eval_lambda(spec, 0.3) == pytest.approx(1.0 / 0.6, rel=1e-13)

    def test_continuity_at_cut(self):
        for spec in (WeightSpec("log_power", alpha=1.3), WeightSpec("from_w", p=0.7), WeightSpec("const_w")):
            cut = spec.pure_cut
            below = eval_lambda(spec, cut * (1.0 - 1e-9))
            above = eval_lambda(spec, cut * (1.0 + 1e-9))
            assert above == pytest.approx(below, rel=1e-7)
            assert eval_lambda(spec, cut) == pytest.approx(below, rel=1e-8)

    def test_domain_errors(self):
        spec = WeightSpec("log_power", alpha=1.0)
        with pytest.raises(DomainError):
            eval_lambda(spec, 0.0)
        with pytest.raises(DomainError):
            eval_lambda(spec, -1.0)
        with pytest.raises(DomainError):
            eval_lambda(spec, 2.5)
        # log(1/t) vanishes at the pure cut: the tail constant is undefined
        flat = WeightSpec("log_power", alpha=1e-13, t_cut=1.0 - 1e-13)
        for fn in (eval_lambda, effective_w):
            for t in (flat.pure_cut, 1.5):
                with pytest.raises(DomainError):
                    fn(flat, t)

    def test_pure_cut_shrinks_for_large_exponent(self):
        # the raw formula increases past e^-alpha; the formula region stops there
        spec = WeightSpec("log_power", alpha=4.0)
        assert spec.pure_cut == pytest.approx(math.exp(-4.0))
        ts = np.linspace(1e-4, 2.0, 400)
        vals = eval_lambda(spec, ts)
        assert np.all(np.diff(vals) < 0.0)

    @given(st.floats(min_value=0.2, max_value=3.0),
           st.floats(min_value=1e-6, max_value=2.0),
           st.floats(min_value=1e-6, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_strict_monotonicity(self, alpha, t1, t2):
        if abs(t1 - t2) < 1e-9 * max(t1, t2):
            return
        lo, hi = min(t1, t2), max(t1, t2)
        spec = WeightSpec("log_power", alpha=alpha)
        assert eval_lambda(spec, lo) > eval_lambda(spec, hi)

    def test_scale_covariance_exact(self):
        base = WeightSpec("log_power", alpha=1.5)
        scaled = WeightSpec("log_power", alpha=1.5, scale=7.0)
        for t in (1e-6, 1e-3, 0.05, 0.5, 1.7):
            assert eval_lambda(scaled, t) == 7.0 * eval_lambda(base, t)

    @given(st.sampled_from([("log_power", 0.5), ("log_power", 1.0), ("log_power", 2.5), ("log_power", 4.0),
                            ("from_w", 0.25), ("from_w", 0.7), ("const_w", None)]),
           st.sampled_from([math.exp(-2.0), math.exp(-3.0), 0.3]),
           st.floats(min_value=0.1, max_value=10.0).filter(lambda c: math.frexp(c)[0] != 0.5),
           st.lists(st.one_of(st.floats(min_value=-290.0, max_value=0.3).map(lambda x: min(10.0**x, 2.0)),
                              st.floats(min_value=1e-290, max_value=2.0)),
                    min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_one_path_for_scalars_and_arrays(self, family, t_cut, scale, ts):
        name, exponent = family
        exponents = {"alpha" if name == "log_power" else "p": exponent} if exponent else {}
        unit = WeightSpec(name, t_cut=t_cut, **exponents)
        spec = unit.with_scale(scale)
        t = np.array(ts)
        for fn in (eval_lambda, effective_w):
            vals = fn(spec, t)
            for i, ti in enumerate(ts):
                one = fn(spec, ti)
                assert type(one) is float and one == vals[i]  # bit for bit
        # scale multiplies last, so covariance is exact on arrays too
        assert np.array_equal(eval_lambda(spec, t), scale * eval_lambda(unit, t))

    @pytest.mark.parametrize("spec", [WeightSpec("log_power", alpha=0.5, scale=0.1),
                                      WeightSpec("log_power", alpha=2.5, scale=3.0),
                                      WeightSpec("log_power", alpha=4.0, t_cut=math.exp(-3.0), scale=10.0),
                                      WeightSpec("from_w", p=0.7, t_cut=0.3, scale=0.7),
                                      WeightSpec("const_w", scale=3.0)])
    def test_mpmath_oracle_at_cut_and_deep(self, spec):
        # measured worst error 2.6 ulp over 480 (spec, t) pairs of this kind
        cut = spec.pure_cut
        ts = [math.nextafter(cut, 0.0), cut, math.nextafter(cut, 2.0), cut * (1.0 - 1e-9), cut * (1.0 + 1e-9), 1e-290]
        for t in ts:
            with mpmath.workdps(50):
                x = mpmath.mpf(min(t, cut))
                ref = spec.scale / (x * mpmath.log(1 / x) ** spec.log_exponent) * x / t
                assert abs(eval_lambda(spec, t) - ref) <= 4.0 * math.ulp(float(ref))
            assert eval_lambda(spec, np.array([t]))[0] == eval_lambda(spec, t)


def eval_w(spec, t):
    """The generator w(t) on the pure region: effective_w carries 1/sqrt(scale)."""
    return effective_w(spec, t) * math.sqrt(spec.scale)


class TestEvalW:
    def test_values(self):
        assert eval_w(WeightSpec("from_w", p=0.5), math.exp(-4.0)) == pytest.approx(2.0, rel=1e-14)
        assert eval_w(WeightSpec("from_w", p=1.0), 0.1) == pytest.approx(math.log(10.0), rel=1e-13)
        assert eval_w(WeightSpec("const_w"), 0.01) == 1.0
        assert eval_w(WeightSpec("log_power", alpha=3.0, scale=7.0), math.exp(-9.0)) == pytest.approx(27.0, rel=1e-13)

    def test_doubling_identity_exact(self):
        spec = WeightSpec("from_w", p=1.0)
        for t in (1e-2, 1e-4, 1e-7):
            assert eval_w(spec, t * t) / eval_w(spec, t) == pytest.approx(2.0, rel=1e-14)

    def test_out_of_region(self):
        # past the pure cut w_eff follows the 1/t tail of Lambda, not log^p(1/t)
        spec = WeightSpec("from_w", p=1.0)
        for t in (0.5, 1.0, 2.0):
            assert eval_w(spec, t) == pytest.approx(math.log(1.0 / spec.pure_cut), rel=1e-13)
        for t in (0.0, 2.5):
            with pytest.raises(DomainError):
                effective_w(spec, t)

    @given(st.floats(min_value=0.2, max_value=2.0), st.floats(min_value=1e-8, max_value=1e-1))
    @settings(max_examples=60, deadline=None)
    def test_identity_t_lambda_w2(self, p, t):
        spec = WeightSpec("from_w", p=p, scale=3.0)
        if t > spec.pure_cut:
            return
        assert t * eval_lambda(spec, t) * eval_w(spec, t) ** 2 == pytest.approx(3.0, rel=1e-12)

    def test_effective_w_matches_pure_w_at_unit_scale(self):
        spec = WeightSpec("log_power", alpha=1.4)
        for t in (1e-5, 1e-2):
            assert effective_w(spec, t) == pytest.approx(math.log(1.0 / t) ** 0.7, rel=1e-12)

    def test_scalars_give_floats_and_arrays_agree(self):
        spec = WeightSpec("from_w", p=0.7, scale=3.0)
        ts = np.array([1e-100, 1e-5, 0.1, spec.pure_cut])
        c_beta = lambda s, t: inv_tw_integral(s, 1.5, t, s.pure_cut)  # noqa: E731
        for fn in (effective_w, c_beta):
            vals = fn(spec, ts)
            assert vals.shape == ts.shape
            for t, v in zip(ts.tolist(), vals):
                one = fn(spec, t)
                assert type(one) is float and one == v
        assert type(effective_w(WeightSpec("const_w"), 0.01)) is float


class TestLogDerivativeRatio:
    @pytest.mark.parametrize("spec", [WeightSpec("log_power", alpha=1.0), WeightSpec("from_w", p=0.8, scale=3.0),
                                      WeightSpec("log_power", alpha=2.5), WeightSpec("const_w")])
    def test_against_central_differences(self, spec):
        # check_regularity's closed form |1 - a/log(1/t)| is t|Lambda'|/Lambda;
        # it grows as t falls, so a grid cut off at t reports it at t
        grid = np.geomspace(spec.pure_cut * 0.9, 1e-12, 40)
        for k in range(31, 40):
            t = grid[k]
            h = 1e-6 * t
            fd = (eval_lambda(spec, t + h) - eval_lambda(spec, t - h)) / (2 * h)
            rep = check_regularity(spec, grid[:k + 1])
            assert rep.max_log_deriv_ratio == pytest.approx(t * abs(fd) / eval_lambda(spec, t), rel=1e-7)


class TestCheckRegularity:
    def test_log_power_report(self):
        spec = WeightSpec("log_power", alpha=1.0)
        grid = np.geomspace(1e-2, 1e-8, 25)
        rep = check_regularity(spec, grid)
        assert rep.max_t_lambda == pytest.approx(1.0 / math.log(100.0), rel=1e-10)
        assert rep.argmax_t_lambda == pytest.approx(1e-2)
        assert rep.max_log_deriv_ratio < 1.0
        # t|Lambda'|/Lambda = (L - 1)/L with L = log(1/t), largest at the smallest t
        logs = np.log(1.0 / grid)
        assert rep.max_log_deriv_ratio == pytest.approx(np.max((logs - 1.0) / logs), rel=1e-12)
        assert rep.lambda_decreasing
        assert rep.t_lambda_vanishing

    def test_const_w_not_vanishing(self):
        spec = WeightSpec("const_w")
        grid = np.geomspace(1e-2, 1e-8, 12)
        rep = check_regularity(spec, grid)
        assert rep.max_t_lambda == pytest.approx(1.0)
        assert not rep.t_lambda_vanishing
        assert rep.lambda_decreasing

    def test_usage_errors(self):
        spec = WeightSpec("log_power", alpha=1.0)
        with pytest.raises(UsageError):
            check_regularity(spec, np.geomspace(1e-2, 1e-8, 5))
        with pytest.raises(UsageError):
            check_regularity(spec, np.geomspace(1e-2, 1e-4, 10))
        with pytest.raises(UsageError):
            check_regularity(spec, np.geomspace(1.0, 1e-8, 10))


class TestConditionIntegrand:
    """The condition integrals are inv_tw_integral at powers 1 (nikolski),
    2 (gs) and 2(1 - beta) (c_beta), against quadrature of the integrands."""

    def test_nikolski_value(self):
        spec = WeightSpec("log_power", alpha=2.0)
        got = condition_integrand(spec, "nikolski", math.exp(-4.0))
        assert got == pytest.approx(math.exp(4.0) / 4.0, rel=1e-13)
        for lo, hi in ((1e-6, 1e-2), (1e-250, spec.pure_cut)):
            ref = condition_integral_quad(spec, "nikolski", lo, hi)
            assert inv_tw_integral(spec, 1.0, lo, hi) == pytest.approx(ref, rel=1e-10)

    def test_gs_equals_lambda(self):
        spec = WeightSpec("log_power", alpha=1.0, t_cut=math.exp(-1.0))
        assert condition_integrand(spec, "gs", math.exp(-1.0)) == pytest.approx(E, rel=1e-13)
        for lo, hi in ((1e-6, 1e-2), (1e-250, spec.pure_cut)):
            ref = condition_integral_quad(spec, "gs", lo, hi)
            assert inv_tw_integral(spec, 2.0, lo, hi) == pytest.approx(ref, rel=1e-10)

    def test_cbeta_reduces_to_nikolski(self):
        # alpha (1 - beta) = 1 boundary: for alpha = 2, beta = 1/2 the integrands coincide
        spec = WeightSpec("log_power", alpha=2.0)
        for t in (1e-2, 1e-4, 1e-6):
            a = condition_integrand(spec, "c_beta", t, beta=0.5)
            b = condition_integrand(spec, "nikolski", t)
            assert a == pytest.approx(b, rel=1e-12)
        # and so do the integrals at power 2(1 - beta) = 1
        ref = condition_integral_quad(spec, "c_beta", 1e-9, 1e-2, beta=0.5)
        assert inv_tw_integral(spec, 1.0, 1e-9, 1e-2) == pytest.approx(ref, rel=1e-10)

    def test_cbeta_closed_identity(self):
        spec = WeightSpec("log_power", alpha=1.5)
        for t in (1e-3, 1e-5):
            got = condition_integrand(spec, "c_beta", t, beta=0.25)
            L = math.log(1.0 / t)
            assert got == pytest.approx(1.0 / (t * L ** (1.5 * 0.75)), rel=1e-12)
        # the scale enters as scale^(1 - beta) = scale^(power/2)
        scaled = WeightSpec("log_power", alpha=1.5, scale=2.0)
        ref = condition_integral_quad(scaled, "c_beta", 1e-200, 1e-3, beta=0.25)
        assert inv_tw_integral(scaled, 2.0 * (1.0 - 0.25), 1e-200, 1e-3) == pytest.approx(ref, rel=1e-10)

    def test_bounds_outside_pure_region(self):
        spec = WeightSpec("log_power", alpha=1.0)
        for lo, hi in ((0.0, 1e-3), (-1e-3, 1e-3), (1e-3, 0.5)):
            with pytest.raises(DomainError):
                inv_tw_integral(spec, 1.0, lo, hi)


class TestIntegralHelper:
    def test_against_quadrature(self):
        from scipy.integrate import quad

        spec = WeightSpec("from_w", p=0.8, scale=2.0)
        for power in (1.0, 2.0):
            lo, hi = 1e-5, 1e-2
            ref = quad(lambda t: 1.0 / (t * effective_w(spec, t) ** power), lo, hi,
                       epsrel=1e-11)[0]
            assert inv_tw_integral(spec, power, lo, hi) == pytest.approx(ref, rel=1e-9)

    def test_condition_partials_closed_form(self):
        # the area condition, power 2: int dt/(t log(1/t)) = log log(1/eps) - log log(1/cut)
        spec = WeightSpec("log_power", alpha=1.0)
        eps = np.array([1e-3, 1e-6, 1e-9])
        got = inv_tw_integral(spec, 2.0, eps, spec.pure_cut)
        L0 = math.log(1.0 / spec.pure_cut)
        expect = np.log(np.log(1.0 / eps)) - math.log(L0)
        assert np.allclose(got, expect, rtol=1e-12)
        assert np.allclose(condition_partials_quad(spec, "gs", eps), expect, rtol=1e-10)


class TestSerialization:
    def test_round_trip(self):
        for spec in (WeightSpec("log_power", alpha=1.5, t_cut=0.1, scale=2.0),
                     WeightSpec("from_w", p=0.4), WeightSpec("const_w")):
            assert WeightSpec.from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(UsageError):
            WeightSpec.from_json({"family": "log_power", "alpha": 1.0, "bogus": 1})

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            WeightSpec("log_power", alpha=-1.0)
        with pytest.raises(DomainError):
            WeightSpec("log_power", alpha=1.0, t_cut=1.5)
        with pytest.raises(DomainError):
            WeightSpec("from_w")
