import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from crosschecks import cut_crossings_bisection, log_gamma_global_bracket, profile_y_predictor, solve_profile_y
from cyclicity import boundary, geometry, weights
from cyclicity.boundary import BoundarySet
from cyclicity.errors import DomainError, NumericError, UsageError
from cyclicity.geometry import (
    GammaSolution,
    gamma_criterion_partial,
    normalized_for_lambda1,
    solve_gamma,
    solve_gamma_array,
    to_halfplane,
)
from cyclicity.weights import WeightSpec, eval_lambda

FULL = BoundarySet("full")
POINT = BoundarySet("point")
LOG_FLOOR, LOG_TOP = math.log(1e-300), math.log(1.0 - 1e-12)  # the solver's global bracket in log gamma

# inputs on which the solver's two-point start does not bracket on some side
# and falls back to the global end there: a start at a clamped end, or
# rounding that leaves h(x1) on the side of h(x0)
FALLBACKS = {
    "clamped-floor": (WeightSpec("log_power", alpha=4.0), FULL, 1e-290),
    "same-sign": (WeightSpec("log_power", alpha=2.5, scale=0.1), POINT, 7.952183377984458e-231),
}
# inputs whose start lands on the exact root, h(x0) == 0 and so x1 == x0:
# const_w on the full circle, and the point set near pi, where Lambda's
# argument is held at 2
EXACT_STARTS = {
    "const_w": (WeightSpec("const_w"), FULL, 1e-3),
    "x1-equals-x0": (normalized_for_lambda1(WeightSpec("log_power", alpha=2.0)), POINT, -3.1),
}


def solve_from_global_bracket(weight, bset, thetas):
    """solve_gamma_array started from the whole bracket, as the solver once was."""
    with mock.patch.object(geometry, "_log_gamma", log_gamma_global_bracket):
        return solve_gamma_array(weight, bset, thetas)


def outcome(solve, weight, bset, thetas):
    """A solver's GammaSolution, or the type and message of its refusal."""
    try:
        return solve(weight, bset, thetas)
    except (DomainError, NumericError) as exc:
        return type(exc), str(exc)


@st.composite
def weights_any(draw):
    family = draw(st.sampled_from(["log_power", "from_w", "const_w"]))
    exponent = draw(st.floats(0.2, 10.0))
    spec = WeightSpec(family, alpha=exponent if family == "log_power" else None,
                      p=exponent / 2.0 if family == "from_w" else None,
                      scale=math.exp(draw(st.floats(math.log(0.1), math.log(10.0)))))
    return normalized_for_lambda1(spec) if draw(st.booleans()) else spec


@st.composite
def sets_any(draw):
    kind = draw(st.sampled_from(boundary.KINDS))
    mirror = draw(st.booleans())
    if kind == "beta":
        return BoundarySet(kind, beta=draw(st.floats(0.0, 0.5)), mirror=mirror)
    if kind == "cantor":
        return BoundarySet(kind, depth=draw(st.integers(1, 38)), mirror=mirror)
    if kind == "arc":
        return BoundarySet(kind, a=-draw(st.floats(0.0, 1.0)), b=draw(st.floats(1e-3, 1.0)), mirror=mirror)
    return BoundarySet(kind, mirror=mirror)


angles = st.tuples(st.floats(math.log(1e-290), math.log(math.pi)), st.sampled_from([-1.0, 1.0])).map(
    lambda v: v[1] * min(math.exp(v[0]), math.pi))


class TestSolveGamma:
    def test_const_w_exact_identity(self):
        # w == 1 makes gamma * w(gamma) = |theta| exact: gamma = |theta|
        spec = WeightSpec("const_w")
        for theta in (0.01, 0.1, -0.05):
            sol = solve_gamma(spec, FULL, theta)
            assert sol.gamma == pytest.approx(abs(theta), rel=1e-11)

    def test_log_power_full_circle(self):
        # independent oracle: root of g^2 log(1/g) = 0.01
        oracle = brentq(lambda g: g * g * math.log(1.0 / g) - 0.01, 1e-8, 0.5, xtol=1e-16)
        sol = solve_gamma(WeightSpec("log_power", alpha=1.0), FULL, 0.1)
        assert sol.gamma == pytest.approx(oracle, rel=1e-10)
        assert sol.gamma == pytest.approx(0.0595369, rel=1e-5)

    def test_point_set(self):
        d = 2.0 * math.sin(0.005)
        oracle = brentq(lambda g: g - 1e-4 / ((g + d) * math.log(1.0 / (g + d))),
                        1e-12, 0.4, xtol=1e-18)
        sol = solve_gamma(WeightSpec("log_power", alpha=1.0), POINT, 0.01)
        assert sol.dist_at_theta == pytest.approx(d, rel=1e-12)
        assert sol.gamma == pytest.approx(oracle, rel=1e-10)
        assert sol.gamma == pytest.approx(1.8968e-3, rel=1e-4)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("theta", [1e-3, 1e-50, 1e-150, 1e-290])
    def test_mpmath_oracle_full_circle(self, theta, alpha):
        # gamma^2 log(1/gamma)^alpha = theta^2: with x = log gamma, the root of
        # 2x + alpha log(-x) = 2 log theta, to 60 digits
        with mpmath.workdps(60):
            rhs = 2 * mpmath.log(mpmath.mpf(theta))
            x = mpmath.findroot(lambda x: 2 * x + alpha * mpmath.log(-x) - rhs, rhs / 2)
            oracle = float(mpmath.exp(x))
        sol = solve_gamma(WeightSpec("log_power", alpha=alpha), FULL, theta)
        assert sol.gamma == pytest.approx(oracle, rel=1e-12)

    def test_residual_certificates(self):
        rng = np.random.default_rng(11)
        specs = [WeightSpec("log_power", alpha=a) for a in (0.5, 1.0, 2.0)] + [WeightSpec("from_w", p=0.6)]
        sets = [FULL, POINT, BoundarySet("geometric"), BoundarySet("cantor", depth=12)]
        for _ in range(200):
            spec = specs[rng.integers(len(specs))]
            bset = sets[rng.integers(len(sets))]
            theta = float(np.exp(rng.uniform(np.log(1e-9), np.log(0.1))))
            sol = solve_gamma(spec, bset, theta)
            assert sol.residual <= 1e-12 * max(sol.gamma, 1e-300)

    def test_gamma_w_identity_on_set(self):
        # for dist = 0: gamma w(gamma) = |theta| sqrt(scale)
        spec = WeightSpec("from_w", p=1.0, scale=4.0)
        for theta in (1e-3, 1e-5):
            sol = solve_gamma(spec, FULL, theta)
            w = math.log(1.0 / sol.gamma)
            assert sol.gamma * w == pytest.approx(abs(theta) * 2.0, rel=1e-9)

    def test_gamma_over_theta_vanishes(self):
        # gamma/theta ~ 1/sqrt(log(1/theta)): slow, but strictly decreasing
        spec = WeightSpec("log_power", alpha=1.0)
        ratios = []
        for k in range(2, 9):
            theta = 10.0**-k
            sol = solve_gamma(spec, FULL, theta)
            ratios.append(sol.gamma / theta)
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0 / math.sqrt(math.log(1e8)), rel=0.1)

    def test_dop1_lower_bound(self):
        spec = WeightSpec("log_power", alpha=1.0)
        vals = [solve_gamma(spec, POINT, t).gamma / t**2
                for t in np.geomspace(1e-4, 0.1, 40)]
        assert min(vals) > 0.0

    def test_array_matches_scalar(self):
        # the scalar solver is the array solver on one angle: same bits for
        # every element, so a result does not depend on how angles are batched
        rng = np.random.default_rng(17)
        thetas = np.exp(rng.uniform(np.log(1e-290), np.log(0.1), 40)) * rng.choice([-1.0, 1.0], 40)
        cases = [(WeightSpec("log_power", alpha=2.0), bset, thetas)
                 for bset in (FULL, POINT, BoundarySet("geometric"), BoundarySet("beta", beta=0.25),
                              BoundarySet("cantor", depth=12))]
        # each fallback and exact-start case among angles that bracket at
        # once, so that the solve runs the bracketing angles apart from them
        cases += [(spec, bset, np.append(thetas, theta))
                  for spec, bset, theta in {**FALLBACKS, **EXACT_STARTS}.values()]
        for spec, bset, angles in cases:
            sols = solve_gamma_array(spec, bset, angles)
            assert sols.gamma.shape == angles.shape
            for k, theta in enumerate(angles.tolist()):
                one = solve_gamma(spec, bset, theta)
                assert (one.gamma, one.residual, one.dist_at_theta) == (
                    sols.gamma[k], sols.residual[k], sols.dist_at_theta[k])

    @settings(max_examples=300, deadline=None)
    @given(weight=weights_any(), bset=sets_any(), thetas=st.lists(angles, min_size=1, max_size=4))
    def test_bracket_start_matches_the_global_bracket(self, weight, bset, thetas):
        # the certified two-point bracket changes where the root-finder
        # starts, not what it returns or refuses: gamma agrees with the
        # global-bracket solve to the stopping rule's width, every residual
        # certificate holds, and a refusal is the same error
        got = outcome(solve_gamma_array, weight, bset, thetas)
        ref = outcome(solve_from_global_bracket, weight, bset, thetas)
        if isinstance(ref, tuple) or isinstance(got, tuple):
            assert got == ref
            return
        np.testing.assert_allclose(got.gamma, ref.gamma, rtol=2e-13, atol=0.0)
        assert np.all(got.residual <= 1e-12 * np.maximum(got.gamma, 1e-300))

    @staticmethod
    def recorded_solve(spec, bset, theta):
        """solve_gamma's solution and every log gamma at which it evaluated the equation."""
        equation, seen = geometry._gamma_equation, []

        def recorded(*args):
            seen.extend(np.asarray(args[1]).tolist())
            return equation(*args)

        with mock.patch.object(geometry, "_gamma_equation", recorded):
            return solve_gamma(spec, bset, theta), seen

    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_fallback_to_the_global_end(self, case):
        # the start reaches the lower global end of the bracket, and the
        # result is the global-bracket solve's
        spec, bset, theta = FALLBACKS[case]
        got, seen = self.recorded_solve(spec, bset, theta)
        assert {LOG_FLOOR, LOG_TOP} & set(seen) == {LOG_FLOOR}
        assert got.gamma == pytest.approx(solve_from_global_bracket(spec, bset, theta).gamma, rel=2e-13)

    @pytest.mark.parametrize("case", sorted(EXACT_STARTS))
    def test_exact_start_is_the_root(self, case):
        # a start on the exact root is returned as it is: three evaluations
        # (the two start points and the residual certificate), no global
        # end, a zero residual, and the global-bracket solve's gamma
        spec, bset, theta = EXACT_STARTS[case]
        got, seen = self.recorded_solve(spec, bset, theta)
        assert len(seen) == 3 and len(set(seen)) == 1
        assert not {LOG_FLOOR, LOG_TOP} & set(seen)
        assert got.residual == 0.0 and got.gamma == math.exp(seen[0])
        assert got.gamma == pytest.approx(solve_from_global_bracket(spec, bset, theta).gamma, rel=2e-13)

    @pytest.mark.parametrize("spec, bset, theta, message", [
        (WeightSpec("log_power", alpha=10.0), POINT, 1e-290, "lower bracket failed"),
        (WeightSpec("log_power", alpha=1.0), FULL, 3.0, "no root with gamma < 1"),
    ], ids=["floor", "top"])
    def test_clamped_start_refuses_as_the_global_bracket(self, spec, bset, theta, message):
        # the guess lies beyond a global end, is clamped to it and fails there
        # with the global-bracket solve's error
        ref = outcome(solve_from_global_bracket, spec, bset, [theta])
        assert ref[0] is NumericError and ref[1].startswith(message)
        assert outcome(solve_gamma_array, spec, bset, [theta]) == ref

    def test_lambda_evaluations_per_angle(self, monkeypatch):
        # the acceptance-6 grid: about 9 evaluations an angle, with the two
        # bracket ends, any global end the bracket falls back to and the
        # residual certificate (bisection needs about 58)
        calls = []

        def counted(spec, t):
            calls.append(np.size(t))
            return eval_lambda(spec, t)

        monkeypatch.setattr(weights, "eval_lambda", counted)
        rng = np.random.default_rng(66)
        specs = [WeightSpec("log_power", alpha=a) for a in (0.5, 1.0, 2.0, 2.5)] + [
            WeightSpec("from_w", p=0.5), WeightSpec("from_w", p=1.0), WeightSpec("const_w")]
        sets = [FULL, POINT, BoundarySet("geometric"), BoundarySet("beta", beta=0.25),
                BoundarySet("cantor", depth=15)]
        worst = 0
        for spec in specs:
            for bset in sets:
                for theta in np.exp(rng.uniform(np.log(1e-10), np.log(0.1), 6)).tolist():
                    calls.clear()
                    solve_gamma(spec, bset, -theta if rng.uniform() < 0.5 else theta)
                    assert set(calls) == {1}
                    worst = max(worst, len(calls))
        assert worst <= 11

    def test_array_errors(self):
        spec = WeightSpec("log_power", alpha=1.0)
        with pytest.raises(DomainError):
            solve_gamma_array(spec, FULL, [1e-3, 0.0])
        with pytest.raises(DomainError):
            solve_gamma_array(spec, FULL, [1e-3, -4.0])
        with pytest.raises(NumericError):
            solve_gamma_array(spec, FULL, [1e-3, math.pi])
        for theta in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                solve_gamma_array(spec, FULL, [1e-3, theta])

    def test_nan_residual_fails_the_certificate(self):
        one = np.ones(1)
        with pytest.raises(NumericError, match="residual certificate"):
            geometry._residual(WeightSpec("log_power", alpha=1.0), math.nan * one, 5.0 * one, 0.0 * one)

    def test_errors(self):
        spec = WeightSpec("log_power", alpha=1.0)
        with pytest.raises(DomainError):
            solve_gamma(spec, FULL, 0.0)
        with pytest.raises(DomainError):
            solve_gamma(spec, FULL, 4.0)

    def test_normalize_lambda1(self):
        spec = WeightSpec("log_power", alpha=1.0)
        with pytest.raises(NumericError):
            solve_gamma(spec, FULL, math.pi)  # Lambda(1) too large at unit scale
        norm = normalized_for_lambda1(spec)
        sol = solve_gamma(norm, FULL, math.pi)
        assert 0.0 < sol.gamma < 1.0
        assert eval_lambda(norm, 1.0) < 0.1


class TestGaussTables:
    @pytest.mark.parametrize("n", [geometry._RULE_ORDER, geometry._RULE_ORDER // 2])
    def test_tables_are_leggauss_bits(self, n):
        # the literal tables, mirrored from their positive halves, hold
        # leggauss's rule bit for bit
        x, w = geometry._gauss(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == ref_x.tobytes()
        assert w.tobytes() == ref_w.tobytes()


class TestIncreasingRoot:
    def test_empty_brackets(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return x

        e = np.empty(0)
        root = geometry.increasing_root(f, e, e, e, e)
        assert root.shape == (0,) and calls == []


class TestCutCrossings:
    # solved in v = log(1/theta), the crossings keep their relative precision
    # however small the pure cut (e^-25 at alpha = 25); a solve in theta with
    # the same absolute tolerance is off by 6e-5 there
    @pytest.mark.parametrize("alpha", [3.0, 10.0, 25.0])
    @pytest.mark.parametrize("bset", [BoundarySet("geometric"), BoundarySet("beta", beta=0.25)],
                             ids=["geometric", "beta0.25"])
    def test_against_bisection(self, alpha, bset):
        spec = WeightSpec("log_power", alpha=alpha)
        floor = 1e-3 * spec.pure_cut
        found = 0
        for sign in (1.0, -1.0):
            kinks = boundary.kink_angles(bset, floor, sign)
            expect = cut_crossings_bisection(spec, bset, sign, kinks, floor)
            v = geometry._cut_crossings(spec, bset, sign, kinks, floor)
            np.testing.assert_allclose(np.exp(-v), expect, rtol=1e-13, atol=0.0)
            found += expect.size
        assert found > 0


class TestHalfplane:
    def test_real_axis(self):
        hp = to_halfplane(0.75 + 0.0j)
        assert hp.R == pytest.approx(4.0)
        assert hp.phi == pytest.approx(0.0)

    def test_inverse_map(self):
        hp = to_halfplane(1.0 - cmath.exp(1j * math.pi / 4) / 10.0)
        assert hp.R == pytest.approx(10.0, rel=1e-12)
        assert hp.phi == pytest.approx(math.pi / 4, rel=1e-12)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(w - 1.0) < 1e-3:
                continue
            hp = to_halfplane(w)
            # 1 - w = e^{i phi} / R
            assert abs(1.0 - cmath.exp(1j * hp.phi) / hp.R - w) <= 1e-12 * max(abs(w), 1.0)

    def test_boundary_point_asymptotics(self):
        # on the domain boundary: R |theta| and (pi/2 - |phi|)/(gamma/|theta|)
        # are bounded by the module constant C = 4 on sweeps
        spec = WeightSpec("log_power", alpha=1.0)
        for bset in (FULL, POINT):
            for theta in np.geomspace(1e-5, 1e-2, 12):
                sol = solve_gamma(spec, bset, float(theta))
                hp = to_halfplane((1.0 - sol.gamma) * cmath.exp(1j * theta))
                r_ratio = hp.R * abs(theta)
                p_ratio = (math.pi / 2 - abs(hp.phi)) / (sol.gamma / abs(theta))
                assert 0.25 <= r_ratio <= 4.0
                assert 0.25 <= p_ratio <= 4.0

    def test_worked_example(self):
        sol = solve_gamma(WeightSpec("log_power", alpha=1.0), POINT, 0.01)
        hp = to_halfplane((1.0 - sol.gamma) * cmath.exp(0.01j))
        assert hp.R == pytest.approx(98.34, rel=2e-3)
        assert math.pi / 2 - abs(hp.phi) == pytest.approx(0.1926, rel=2e-3)

    def test_w_equals_one(self):
        with pytest.raises(DomainError):
            to_halfplane(1.0 + 0.0j)
        with pytest.raises(DomainError):
            to_halfplane(np.array([0.5, 1.0]))

    def test_array_is_its_scalar_calls(self):
        # bit for bit, and R is 1/abs(1 - w) as Python computes it
        rng = np.random.default_rng(26)
        w = np.concatenate([rng.uniform(-1.0, 1.0, 300) + 1j * rng.uniform(-1.0, 1.0, 300),
                            (1.0 - 10.0 ** rng.uniform(-12.0, -1.0, 300))
                            * np.exp(1j * rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-10.0, 0.49, 300))])
        hp = to_halfplane(w)
        scalar = [to_halfplane(x) for x in w.tolist()]
        assert all(type(p.R) is float and type(p.phi) is float for p in scalar)
        assert hp.R.tolist() == [p.R for p in scalar] == [1.0 / abs(1.0 - x) for x in w.tolist()]
        assert hp.phi.tolist() == [p.phi for p in scalar]


class TestProfileSolver:
    def test_const_w_closed_form(self):
        # Lambda = 1/t: u = 1/x, y = sqrt(4 x^2 - (x+1)^2); at x = 2: sqrt(7)
        got = solve_profile_y(WeightSpec("const_w"), 2.0)
        assert got == pytest.approx(math.sqrt(7.0), rel=1e-10)

    def test_log_power_oracle(self):
        u = brentq(lambda u: u * math.log(1.0 / u) - 0.1, 1e-8, 0.3, xtol=1e-16)
        y = math.sqrt(40.0 / u - 121.0)
        got = solve_profile_y(WeightSpec("log_power", alpha=1.0), 10.0)
        assert got == pytest.approx(y, rel=1e-9)
        assert got == pytest.approx(36.19, rel=1e-3)

    def test_asymptotic_predictor(self):
        spec = WeightSpec("log_power", alpha=1.0)
        y = solve_profile_y(spec, 10.0)
        pred = profile_y_predictor(spec, 10.0)
        assert pred == pytest.approx(37.83, rel=1e-3)
        assert 0.9 <= y / pred <= 1.1

    @pytest.mark.parametrize("spec", [WeightSpec("log_power", alpha=a) for a in (0.5, 1.0, 2.0, 2.5)]
                             + [WeightSpec("from_w", p=0.5), WeightSpec("const_w")])
    def test_root_residual(self, spec):
        # u is recovered from y = sqrt(4x/u - (x+1)^2)
        for x in (2.0, 10.0, 100.0, 1e6):
            y = solve_profile_y(spec, x)
            u = 4.0 * x / (y * y + (x + 1.0) ** 2)
            assert abs(eval_lambda(spec, u) - x) / x <= 1e-9

    def test_no_root_diagnostic(self):
        with pytest.raises(DomainError):
            solve_profile_y(WeightSpec("log_power", alpha=1.0), 1e-3)


class TestGammaCriterionPartial:
    def test_const_w_closed_form(self):
        # gamma/theta^2 = 1/theta: the integral is log(upper/eps)
        got = gamma_criterion_partial(WeightSpec("const_w"), FULL, 1e-4, 1e-1)
        assert got.value == pytest.approx(math.log(1000.0), rel=1e-10)
        assert abs(got.value - math.log(1000.0)) <= got.error

    def test_log_power_2_exact_oracle(self):
        # gamma L(gamma) = theta exactly; substituting theta = e^-v the
        # integral is int dv / L(v) with L = v + log L, which integrates in
        # closed form to [log L + 1/L]; the asymptotic predictor log(50)
        # overshoots this by ~18 percent
        def L_of(v):
            L = v + math.log(max(v, 2.0))
            for _ in range(80):
                L = v + math.log(L)
            return L

        closed = (math.log(L_of(100.0)) + 1.0 / L_of(100.0)) - (math.log(L_of(2.0)) + 1.0 / L_of(2.0))
        got = gamma_criterion_partial(WeightSpec("log_power", alpha=2.0), FULL,
                                      math.exp(-100.0), math.exp(-2.0))
        assert closed == pytest.approx(3.19614539543922, rel=1e-10)
        assert got.value == pytest.approx(closed, rel=1e-8)
        assert abs(got.value - closed) <= got.error
        assert 0.5 <= got.value / math.log(50.0) <= 1.0

    def test_partials_over_several_cutoffs(self):
        # one rule with a break at each cutoff gives every partial integral
        spec = WeightSpec("log_power", alpha=2.0)
        eps = np.exp(-np.array([10.0, 100.0, 300.0]))
        got = gamma_criterion_partial(spec, POINT, eps, spec.pure_cut)
        for k, e in enumerate(eps):
            one = gamma_criterion_partial(spec, POINT, e, spec.pure_cut)
            assert got.value[k] == pytest.approx(one.value, abs=got.error[k] + one.error)
        assert np.all(np.diff(got.value) > 0.0)

    def test_nikolski_convergent_case_cauchy(self):
        # alpha = 4 (the convergent side of the square-root condition):
        # partial integrals converge; exp(-1000) underflows float64, so the
        # checkpoint ladder stops at exp(-690)
        spec = WeightSpec("log_power", alpha=4.0)
        upper = spec.pure_cut * 0.9
        vals = [gamma_criterion_partial(spec, FULL, math.exp(-v), upper).value
                for v in (10.0, 100.0, 500.0, 650.0)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d > 0.0 for d in diffs)
        assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3

    def test_dense_set_kink_breaks_thinned(self):
        # every arc of beta = 0.5 is listed, but at most one kink break per
        # cell of width _KINK_SPACING in v reaches the panels
        spec = WeightSpec("log_power", alpha=3.0)
        edges = geometry.panel_edges(spec, BoundarySet("beta", beta=0.5), 1.0, 1.0, 600.0)
        uniform = math.ceil(599.0 / geometry._PANEL_WIDTH) + 1
        cells = 599.0 / geometry._KINK_SPACING
        assert 0.9 * cells < edges.size - uniform < cells + 8

    def test_kink_breaks_above_the_enumeration_floor_kept(self):
        # no arc is listed below v = 667.7 (boundary's floor 1e-290), but a rule
        # reaching past it keeps every kink break of a rule that stops short
        # of it (a capacity fallback once dropped them all)
        spec, bset = WeightSpec("log_power", alpha=3.0), BoundarySet("beta", beta=0.25)

        def breaks(v_hi):
            edges = geometry.panel_edges(spec, bset, 1.0, 1.0, v_hi)
            return edges[~np.isin(edges, geometry.uniform_panels(1.0, v_hi))]

        deep, shallow = breaks(680.0), breaks(667.0)
        assert deep.size > 0.95 * 667.0 / geometry._KINK_SPACING
        assert np.all(np.isin(shallow[shallow < 666.75], deep))

    @pytest.mark.parametrize("error", [DomainError, RuntimeError])
    def test_other_arc_errors_propagate(self, monkeypatch, error):
        def broken(bset, cutoff):
            raise error("not a capacity overflow")

        monkeypatch.setattr(boundary, "arc_arrays", broken)
        with pytest.raises(error):
            gamma_criterion_partial(WeightSpec("log_power", alpha=1.0), BoundarySet("geometric"), 1e-4, 1e-2)

    def test_usage(self):
        with pytest.raises(UsageError):
            gamma_criterion_partial(WeightSpec("log_power", alpha=1.0), FULL, 1e-2, 1e-3)
        with pytest.raises(UsageError):
            gamma_criterion_partial(WeightSpec("log_power", alpha=1.0), FULL, 1e-4, 1.5)
