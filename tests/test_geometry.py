import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from crosschecks import profile_y_predictor
from cyclicity import boundary, geometry
from cyclicity.boundary import BoundarySet
from cyclicity.errors import CapacityError, DomainError, NumericError, UsageError
from cyclicity.geometry import (
    GammaSolution,
    gamma_criterion_partial,
    normalized_for_lambda1,
    solve_gamma,
    solve_gamma_array,
    solve_profile_y,
    to_halfplane,
)
from cyclicity.weights import WeightSpec, eval_lambda

FULL = BoundarySet.full_circle()
POINT = BoundarySet.single_point()


class TestSolveGamma:
    def test_const_w_exact_identity(self):
        # w == 1 makes gamma * w(gamma) = |theta| exact: gamma = |theta|
        spec = WeightSpec.const_w()
        for theta in (0.01, 0.1, -0.05):
            sol = solve_gamma(spec, FULL, theta)
            assert sol.gamma == pytest.approx(abs(theta), rel=1e-11)

    def test_log_power_full_circle(self):
        # independent oracle: root of g^2 log(1/g) = 0.01
        oracle = brentq(lambda g: g * g * math.log(1.0 / g) - 0.01, 1e-8, 0.5, xtol=1e-16)
        sol = solve_gamma(WeightSpec.log_power(1.0), FULL, 0.1)
        assert sol.gamma == pytest.approx(oracle, rel=1e-10)
        assert sol.gamma == pytest.approx(0.0595369, rel=1e-5)

    def test_point_set(self):
        d = 2.0 * math.sin(0.005)
        oracle = brentq(lambda g: g - 1e-4 / ((g + d) * math.log(1.0 / (g + d))),
                        1e-12, 0.4, xtol=1e-18)
        sol = solve_gamma(WeightSpec.log_power(1.0), POINT, 0.01)
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
        sol = solve_gamma(WeightSpec.log_power(alpha), FULL, theta)
        assert sol.gamma == pytest.approx(oracle, rel=1e-12)

    def test_residual_certificates(self):
        rng = np.random.default_rng(11)
        specs = [WeightSpec.log_power(a) for a in (0.5, 1.0, 2.0)] + [WeightSpec.from_w(0.6)]
        sets = [FULL, POINT, BoundarySet.geometric(), BoundarySet.cantor(12)]
        for _ in range(200):
            spec = specs[rng.integers(len(specs))]
            bset = sets[rng.integers(len(sets))]
            theta = float(np.exp(rng.uniform(np.log(1e-9), np.log(0.1))))
            sol = solve_gamma(spec, bset, theta)
            assert sol.residual <= 1e-12 * max(sol.gamma, 1e-300)

    def test_gamma_w_identity_on_set(self):
        # for dist = 0: gamma w(gamma) = |theta| sqrt(scale)
        spec = WeightSpec.from_w(1.0, scale=4.0)
        for theta in (1e-3, 1e-5):
            sol = solve_gamma(spec, FULL, theta)
            w = math.log(1.0 / sol.gamma)
            assert sol.gamma * w == pytest.approx(abs(theta) * 2.0, rel=1e-9)

    def test_gamma_over_theta_vanishes(self):
        # gamma/theta ~ 1/sqrt(log(1/theta)): slow, but strictly decreasing
        spec = WeightSpec.log_power(1.0)
        ratios = []
        for k in range(2, 9):
            theta = 10.0**-k
            sol = solve_gamma(spec, FULL, theta)
            ratios.append(sol.gamma / theta)
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0 / math.sqrt(math.log(1e8)), rel=0.1)

    def test_dop1_lower_bound(self):
        spec = WeightSpec.log_power(1.0)
        vals = [solve_gamma(spec, POINT, t).gamma / t**2
                for t in np.geomspace(1e-4, 0.1, 40)]
        assert min(vals) > 0.0

    def test_array_matches_scalar(self):
        # the scalar solver is the array solver on one angle: same bits
        rng = np.random.default_rng(17)
        thetas = np.exp(rng.uniform(np.log(1e-290), np.log(0.1), 40)) * rng.choice([-1.0, 1.0], 40)
        for bset in (FULL, POINT, BoundarySet.geometric(), BoundarySet.beta_points(0.25),
                     BoundarySet.cantor(12)):
            sols = solve_gamma_array(WeightSpec.log_power(2.0), bset, thetas)
            assert sols.gamma.shape == thetas.shape
            for k in (0, 17, 39):
                one = solve_gamma(WeightSpec.log_power(2.0), bset, float(thetas[k]))
                assert (one.gamma, one.residual, one.dist_at_theta) == (
                    sols.gamma[k], sols.residual[k], sols.dist_at_theta[k])

    def test_array_errors(self):
        spec = WeightSpec.log_power(1.0)
        with pytest.raises(DomainError):
            solve_gamma_array(spec, FULL, [1e-3, 0.0])
        with pytest.raises(DomainError):
            solve_gamma_array(spec, FULL, [1e-3, -4.0])
        with pytest.raises(NumericError):
            solve_gamma_array(spec, FULL, [1e-3, math.pi])

    def test_errors(self):
        spec = WeightSpec.log_power(1.0)
        with pytest.raises(DomainError):
            solve_gamma(spec, FULL, 0.0)
        with pytest.raises(DomainError):
            solve_gamma(spec, FULL, 4.0)

    def test_normalize_lambda1(self):
        spec = WeightSpec.log_power(1.0)
        with pytest.raises(NumericError):
            solve_gamma(spec, FULL, math.pi)  # Lambda(1) too large at unit scale
        sol = solve_gamma(spec, FULL, math.pi, normalize_lambda1=True)
        assert 0.0 < sol.gamma < 1.0
        norm = normalized_for_lambda1(spec)
        assert eval_lambda(norm, 1.0) < 0.1


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
            assert abs(hp.reconstruct() - w) <= 1e-12 * max(abs(w), 1.0)

    def test_boundary_point_asymptotics(self):
        # on the domain boundary: R |theta| and (pi/2 - |phi|)/(gamma/|theta|)
        # are bounded by the module constant C = 4 on sweeps
        spec = WeightSpec.log_power(1.0)
        for bset in (FULL, POINT):
            for theta in np.geomspace(1e-5, 1e-2, 12):
                sol = solve_gamma(spec, bset, float(theta))
                hp = to_halfplane((1.0 - sol.gamma) * cmath.exp(1j * theta))
                r_ratio = hp.R * abs(theta)
                p_ratio = (math.pi / 2 - abs(hp.phi)) / (sol.gamma / abs(theta))
                assert 0.25 <= r_ratio <= 4.0
                assert 0.25 <= p_ratio <= 4.0

    def test_worked_example(self):
        sol = solve_gamma(WeightSpec.log_power(1.0), POINT, 0.01)
        hp = to_halfplane((1.0 - sol.gamma) * cmath.exp(0.01j))
        assert hp.R == pytest.approx(98.34, rel=2e-3)
        assert math.pi / 2 - abs(hp.phi) == pytest.approx(0.1926, rel=2e-3)

    def test_w_equals_one(self):
        with pytest.raises(DomainError):
            to_halfplane(1.0 + 0.0j)


class TestProfileSolver:
    def test_const_w_closed_form(self):
        # Lambda = 1/t: u = 1/x, y = sqrt(4 x^2 - (x+1)^2); at x = 2: sqrt(7)
        got = solve_profile_y(WeightSpec.const_w(), 2.0)
        assert got == pytest.approx(math.sqrt(7.0), rel=1e-10)

    def test_log_power_oracle(self):
        u = brentq(lambda u: u * math.log(1.0 / u) - 0.1, 1e-8, 0.3, xtol=1e-16)
        y = math.sqrt(40.0 / u - 121.0)
        got = solve_profile_y(WeightSpec.log_power(1.0), 10.0)
        assert got == pytest.approx(y, rel=1e-9)
        assert got == pytest.approx(36.19, rel=1e-3)

    def test_asymptotic_predictor(self):
        spec = WeightSpec.log_power(1.0)
        y = solve_profile_y(spec, 10.0)
        pred = profile_y_predictor(spec, 10.0)
        assert pred == pytest.approx(37.83, rel=1e-3)
        assert 0.9 <= y / pred <= 1.1

    def test_no_root_diagnostic(self):
        with pytest.raises(DomainError):
            solve_profile_y(WeightSpec.log_power(1.0), 1e-3)


class TestGammaCriterionPartial:
    def test_const_w_closed_form(self):
        # gamma/theta^2 = 1/theta: the integral is log(upper/eps)
        got = gamma_criterion_partial(WeightSpec.const_w(), FULL, 1e-4, 1e-1)
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
        got = gamma_criterion_partial(WeightSpec.log_power(2.0), FULL,
                                      math.exp(-100.0), math.exp(-2.0))
        assert closed == pytest.approx(3.19614539543922, rel=1e-10)
        assert got.value == pytest.approx(closed, rel=1e-8)
        assert abs(got.value - closed) <= got.error
        assert 0.5 <= got.value / math.log(50.0) <= 1.0

    def test_partials_over_several_cutoffs(self):
        # one rule with a break at each cutoff gives every partial integral
        spec = WeightSpec.log_power(2.0)
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
        spec = WeightSpec.log_power(4.0)
        upper = spec.pure_cut * 0.9
        vals = [gamma_criterion_partial(spec, FULL, math.exp(-v), upper).value
                for v in (10.0, 100.0, 500.0, 650.0)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d > 0.0 for d in diffs)
        assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3

    def test_arc_capacity_drops_break_points(self, monkeypatch):
        spec = WeightSpec.log_power(1.0)
        geo_set = BoundarySet.geometric()
        expected = gamma_criterion_partial(spec, geo_set, 1e-4, 1e-2)
        kinks = boundary.kink_angles(geo_set, 1e-4)
        kinks = -np.log(kinks[kinks > 0.0])
        kinks = kinks[(kinks > -math.log(1e-2)) & (kinks < -math.log(1e-4))]
        assert kinks.size > 0

        def overflow(bset, cutoff):
            raise CapacityError("arc list capacity exceeded")

        monkeypatch.setattr(boundary, "arc_arrays", overflow)
        edges = geometry.panel_edges(spec, geo_set, 1.0, -math.log(1e-2), -math.log(1e-4))
        assert not np.any(np.isin(kinks, edges))
        got = gamma_criterion_partial(spec, geo_set, 1e-4, 1e-2)
        assert abs(got.value - expected.value) <= got.error
        assert got.error > expected.error

    def test_dense_set_kink_breaks_thinned(self):
        # every arc of beta = 0.5 is listed, but at most one kink break per
        # cell of width _KINK_SPACING in v reaches the panels
        spec = WeightSpec.log_power(3.0)
        edges = geometry.panel_edges(spec, BoundarySet.beta_points(0.5), 1.0, 1.0, 600.0)
        uniform = math.ceil(599.0 / geometry._PANEL_WIDTH) + 1
        cells = 599.0 / geometry._KINK_SPACING
        assert 0.9 * cells < edges.size - uniform < cells + 8

    @pytest.mark.parametrize("error", [DomainError, RuntimeError])
    def test_other_arc_errors_propagate(self, monkeypatch, error):
        def broken(bset, cutoff):
            raise error("not a capacity overflow")

        monkeypatch.setattr(boundary, "arc_arrays", broken)
        with pytest.raises(error):
            gamma_criterion_partial(WeightSpec.log_power(1.0), BoundarySet.geometric(), 1e-4, 1e-2)

    def test_usage(self):
        with pytest.raises(UsageError):
            gamma_criterion_partial(WeightSpec.log_power(1.0), FULL, 1e-2, 1e-3)
        with pytest.raises(UsageError):
            gamma_criterion_partial(WeightSpec.log_power(1.0), FULL, 1e-4, 1.5)
