import cmath
import math

import mpmath
import numpy as np
import pytest

from crosschecks import c_lambda_inv_quad, herglotz_arc_integral_quad
from cyclicity import auxfun, geometry
from cyclicity.auxfun import (
    GammaRegionSpec,
    PrivalovShadow,
    c_lambda,
    case_tag,
    f_lambda,
    gamma_integral_is_convergent,
    h_lambda,
    herglotz_arc_integral,
    in_gamma_region,
    keldysh_log_boundary,
    keldysh_outer,
    log_f_lambda,
    singular_inner,
    witness_amplitude_search,
)
from cyclicity.boundary import BoundarySet, distance_to_set
from cyclicity.errors import DomainError, NumericError
from cyclicity.geometry import normalized_for_lambda1, solve_gamma
from cyclicity.weights import WeightSpec, eval_lambda

FULL = BoundarySet.full_circle()
POINT = BoundarySet.single_point()
A_DEFAULT = 2.0 / (5.0 * math.pi)


def lambda_grid(n=50, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        lam = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
        if 0.05 < abs(lam) < 0.95 and abs(1.0 - lam) > 0.05:
            out.append(lam)
    return out


class TestSingularInner:
    def test_at_zero(self):
        assert singular_inner(0.0) == pytest.approx(math.exp(-1.0))

    def test_at_half(self):
        assert abs(singular_inner(0.5)) == pytest.approx(math.exp(-3.0), rel=1e-13)

    def test_modulus_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(80):
            z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(z) >= 0.97:
                continue
            expect = math.exp(-(1.0 - abs(z) ** 2) / abs(1.0 - z) ** 2)
            assert abs(singular_inner(z)) == pytest.approx(expect, rel=1e-12)

    def test_modulus_tends_to_one_up_the_imaginary_axis(self):
        vals = [abs(singular_inner(1j * t)) for t in (0.9, 0.99, 0.999)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] > 0.999

    def test_domain(self):
        with pytest.raises(DomainError):
            singular_inner(1.2)


class TestShadowConstant:
    def test_closed_form_values(self):
        assert 1.0 / c_lambda(0.5) == pytest.approx(1.4419706192944657, rel=1e-12)
        assert 1.0 / c_lambda(0.9) == pytest.approx(1.7741163785216432, rel=1e-12)

    def test_closed_form_vs_quadrature(self):
        for lam in (0.3, 0.5 + 0.2j, 0.85j, -0.6 + 0.1j):
            assert 1.0 / c_lambda(lam) == pytest.approx(c_lambda_inv_quad(lam), rel=1e-8)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 1.0 - 1e-6])
    def test_mpmath_oracles(self, r):
        # 50-digit closed form and 50-digit quadrature of the Poisson kernel
        # (1 - r^2)/(1 - 2 r cos t + r^2) over the shadow [-(1-r)/2, (1-r)/2]
        with mpmath.workdps(50):
            rm = mpmath.mpf(r)
            closed = 4 * mpmath.atan((1 + rm) / (1 - rm) * mpmath.tan((1 - rm) / 4))
            half = (1 - rm) / 2
            quad = mpmath.quad(lambda t: (1 - rm**2) / (1 - 2 * rm * mpmath.cos(t) + rm**2),
                               [-half, 0, half])
            assert abs(quad / closed - 1) < mpmath.mpf(10) ** -40
            assert c_lambda(r) == pytest.approx(float(1 / closed), rel=1e-12)

    def test_lower_bound_four_fifths(self):
        for lam in lambda_grid():
            assert 1.0 / c_lambda(lam) >= 0.8

    def test_shadow_length(self):
        sh = PrivalovShadow(0.6 * cmath.exp(0.5j))
        assert sh.hi - sh.lo == pytest.approx(0.4, rel=1e-13)


class TestHerglotz:
    def test_at_origin(self):
        got = herglotz_arc_integral(0.0, -0.3, 0.4)
        assert got == pytest.approx(0.7 + 0.0j, abs=1e-14)

    def test_closed_vs_quadrature(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            lo = rng.uniform(-1.0, 0.5)
            hi = lo + rng.uniform(0.05, 1.0)
            a = herglotz_arc_integral(z, lo, hi)
            b = herglotz_arc_integral_quad(z, lo, hi)
            assert abs(a - b) < 1e-8 * max(1.0, abs(a))

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_near_arc_branch_tracking(self):
        # the quadrature route struggles near the peaked kernel; the closed
        # form with branch subdivision is the reference
        z = 0.9995 * cmath.exp(0.25j)
        a = herglotz_arc_integral(z, 0.0, 0.5)
        b = herglotz_arc_integral_quad(z, 0.0, 0.5)
        assert abs(a - b) < 1e-7 * abs(a)


class TestFLambda:
    def test_unimodular_product_on_grid(self):
        for lam in lambda_grid():
            val = abs(f_lambda(lam, lam) * singular_inner(lam))
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_value_at_origin(self):
        # Herglotz kernel is 1 at z = 0: log f(0) = c * ratio * |shadow|
        got = abs(f_lambda(0.5, 0.0))
        assert got == pytest.approx(2.8299049058843933, rel=1e-10)
        assert math.log(got) == pytest.approx(c_lambda(0.5) * 3.0 * 0.5, rel=1e-12)

    def test_sup_bound(self):
        rng = np.random.default_rng(7)
        for lam in lambda_grid(25):
            cap = 2.5 * math.pi * (1.0 - abs(lam) ** 2) / abs(1.0 - lam) ** 2
            for _ in range(8):
                z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
                if abs(z) >= 0.95:
                    continue
                assert log_f_lambda(lam, z).real <= cap + 1e-9

    def test_near_shadow_rejected(self):
        lam = 0.9
        sh = PrivalovShadow(lam)
        z = cmath.exp(1j * sh.center) * (1.0 - 1e-14)
        with pytest.raises(NumericError):
            f_lambda(lam, z)


class TestHLambda:
    def test_cancellation_at_lambda(self):
        # H(lambda) = -Lambda(dist(lambda, E)) exactly; the first two terms
        # cancel because the shadow Poisson integral at lambda is 1/c
        weight = WeightSpec.log_power(1.0)
        for bset in (FULL, POINT):
            for lam in lambda_grid(20, seed=2):
                lam_term = eval_lambda(weight, min(distance_to_set(bset, lam), 2.0))
                assert h_lambda(weight, bset, lam, lam) == pytest.approx(-lam_term, abs=1e-9)

    def test_case1_nonpositive(self):
        weight = WeightSpec.log_power(1.0)
        spec = GammaRegionSpec(weight=weight, bset=FULL, a=A_DEFAULT, A=1000.0)
        rng = np.random.default_rng(3)
        checked = 0
        for r_gap in np.geomspace(1e-6, 1e-3, 12):
            for ang in np.geomspace(0.05, 2.5, 12):
                lam = (1.0 - r_gap) * cmath.exp(1j * float(ang))
                if not in_gamma_region(spec, lam):
                    continue
                for _ in range(6):
                    z_gap = rng.uniform(0.0, min(1000.0 * r_gap, 0.5))
                    z = (1.0 - z_gap) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                    if case_tag(spec, lam, z) != "case1":
                        continue
                    assert h_lambda(weight, FULL, lam, z) <= 1e-9
                    checked += 1
        assert checked > 50

    def test_case3_nonpositive(self):
        weight = WeightSpec.log_power(1.0)
        spec = GammaRegionSpec(weight=weight, bset=FULL, a=A_DEFAULT, A=1000.0)
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(400):
            r_gap = float(np.exp(rng.uniform(np.log(1e-9), np.log(1e-5))))
            ang = float(np.exp(rng.uniform(np.log(0.05), np.log(1.0))))
            lam = (1.0 - r_gap) * cmath.exp(1j * ang)
            if not in_gamma_region(spec, lam):
                continue
            z_gap = rng.uniform(1000.0 * r_gap * 1.5, min(6000.0 * r_gap, 0.9))
            z = (1.0 - z_gap) * cmath.exp(1j * ang * rng.uniform(0.2, 1.0))
            if case_tag(spec, lam, z) != "case3":
                continue
            assert h_lambda(weight, FULL, lam, z) <= 1e-9
            checked += 1
        assert checked > 30

    def test_grid_sup_nonregression(self):
        # over the region grid x z grid the sup stays below the recorded
        # constant (the case analysis gives <= 0 for these a, A)
        weight = WeightSpec.log_power(1.0)
        spec = GammaRegionSpec(weight=weight, bset=FULL, a=A_DEFAULT, A=1000.0)
        rng = np.random.default_rng(23)
        sup = -math.inf
        count = 0
        for r_gap in np.geomspace(1e-8, 1e-2, 10):
            for ang in np.geomspace(0.02, 3.0, 10):
                lam = (1.0 - r_gap) * cmath.exp(1j * float(ang))
                if not in_gamma_region(spec, lam):
                    continue
                for _ in range(10):
                    z = complex(rng.uniform(-0.999, 0.999), rng.uniform(-0.999, 0.999))
                    if abs(z) >= 0.9999:
                        continue
                    sup = max(sup, h_lambda(weight, FULL, lam, z))
                    count += 1
        assert count > 200
        assert sup <= 1e-9  # recorded constant: 0 for (a, A) = (2/(5pi), 1000)

    def test_log_identity(self):
        weight = WeightSpec.log_power(1.0)
        lam = 0.7 * cmath.exp(0.9j)
        for z in (0.2 + 0.1j, -0.5j, 0.6 * cmath.exp(2.0j)):
            lhs = abs(f_lambda(lam, z) * singular_inner(z)) * math.exp(
                -eval_lambda(weight, min(distance_to_set(FULL, z), 2.0)))
            rhs = math.exp(h_lambda(weight, FULL, lam, z))
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestGammaRegion:
    def test_membership_examples(self):
        weight = WeightSpec.log_power(1.0)
        spec = GammaRegionSpec(weight=weight, bset=POINT, a=A_DEFAULT, A=1000.0)
        lam = (1.0 - 1e-8) * cmath.exp(1e-3j)
        assert in_gamma_region(spec, lam)
        assert not in_gamma_region(spec, 1.0 - 1e-6 + 0.0j)
        assert not in_gamma_region(spec, 0.0 + 0.0j)

    def test_default_A(self):
        weight = WeightSpec.log_power(1.0)
        assert GammaRegionSpec(weight=weight, bset=FULL).big_a == 1000.0
        assert GammaRegionSpec(weight=weight, bset=POINT).big_a == 100.0


class TestKeldyshWitness:
    def test_amplitude_zero_is_one(self):
        weight = WeightSpec.log_power(2.0)
        assert keldysh_outer(weight, POINT, 0.0, 0.3 + 0.2j) == 1.0 + 0.0j

    def test_divergent_case_rejected(self):
        weight = WeightSpec.log_power(1.0)
        with pytest.raises(DomainError):
            keldysh_outer(weight, FULL, 1.0, 0.1 + 0.0j)
        assert not gamma_integral_is_convergent(weight, FULL)

    def test_convergence_guard_accepts(self):
        assert gamma_integral_is_convergent(WeightSpec.log_power(2.0), POINT)

    @pytest.mark.parametrize("alpha", [2.2, 2.5])
    def test_convergence_guard_full_circle_above_nikolski(self, alpha):
        # gamma w(gamma) = theta on the full circle: the integral converges for alpha > 2
        assert gamma_integral_is_convergent(WeightSpec.log_power(alpha), FULL)

    def test_guard_runs_once_per_pair(self, monkeypatch):
        calls = []
        partial = geometry.gamma_criterion_partial

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return partial(*args, **kwargs)

        monkeypatch.setattr(geometry, "gamma_criterion_partial", counting)
        gamma_integral_is_convergent.cache_clear()
        weight = WeightSpec.log_power(2.0)
        for w in (0.3 + 0.2j, 0.5 - 0.1j):
            keldysh_outer(weight, POINT, 1.0, w)
        assert calls == [(weight, POINT)]

    def test_witness_amplitude_and_inequality(self):
        weight = WeightSpec.log_power(2.0)
        thetas = [1e-2, 1e-3, 1e-4]
        amp = witness_amplitude_search(weight, POINT, thetas)
        assert amp <= 2**10
        amp2 = witness_amplitude_search(weight, POINT, thetas)
        assert amp2 == amp
        # verify the domination inequality at the samples for the found amplitude
        norm = normalized_for_lambda1(weight)
        for theta in thetas:
            sol = solve_gamma(norm, POINT, theta)
            w = (1.0 - sol.gamma) * cmath.exp(1j * theta)
            F = keldysh_outer(weight, POINT, float(amp), w)
            rhs = (1.0 - abs(w) ** 2) / abs(1.0 - w) ** 2 + eval_lambda(
                norm, min(distance_to_set(POINT, w), 2.0))
            assert math.log(abs(F)) > rhs

    def test_interior_value_reproducible_two_quadratures(self):
        # |F| at an interior point, computed via the Herglotz route and via
        # the real Poisson route, agree to the quadrature tolerance
        from cyclicity.auxfun import _witness_poisson

        weight = WeightSpec.log_power(2.0)
        w = 0.15 + 0.1j
        herg = _witness_poisson(weight, POINT, [w], herglotz=True).value[0]
        pois = _witness_poisson(weight, POINT, [w], herglotz=False).value[0]
        assert herg.real == pytest.approx(pois, rel=1e-9)
        F = keldysh_outer(weight, POINT, 2.0, w)
        assert abs(F) == pytest.approx(math.exp(2.0 * pois), rel=1e-9)


class TestWitnessRule:
    @pytest.mark.parametrize("alpha,bset", [(2.0, POINT), (3.0, FULL), (3.0, BoundarySet.geometric())])
    def test_error_estimate_covers_a_finer_rule(self, monkeypatch, alpha, bset):
        # the rule at orders 20/10 against orders 40/20 on panels a quarter
        # as wide: the coarse result's error estimate covers the difference
        weight = normalized_for_lambda1(WeightSpec.log_power(alpha))
        sol = geometry.solve_gamma_array(weight, bset, [1e-2, 1e-3, 1e-4])
        ws = (1.0 - sol.gamma) * np.exp(1j * sol.theta)
        coarse = auxfun._witness_poisson(weight, bset, ws)
        monkeypatch.setattr(geometry, "_RULE_ORDER", 40)
        monkeypatch.setattr(geometry, "_PANEL_WIDTH", 2.0)
        fine = auxfun._witness_poisson(weight, bset, ws)
        assert np.all(np.abs(coarse.value - fine.value) <= coarse.error)
        assert np.all(coarse.error < 1e-2 * coarse.value)
        assert np.all(coarse.tail < 0.1 * coarse.value)

    @pytest.mark.parametrize("alpha,bset,recorded", [
        (2.0, POINT, (1.89862833658, 8.38856000339, 46.9919809667)),
        (3.0, POINT, (1.02717677496, 3.03922408719, 12.8118165761)),
        (3.0, FULL, (5.35880315705, 32.5337248071, 225.46432813)),
    ])
    def test_part_above_1e8_matches_adaptive_quadrature(self, monkeypatch, alpha, bset, recorded):
        # the Poisson integral over 1e-8 <= |theta| <= pi at the samples
        # 1e-2, 1e-3, 1e-4, recorded from adaptive Gauss-Kronrod quadrature
        # (scipy quad, epsrel 1e-8), which stopped at |theta| = 1e-8
        monkeypatch.setattr(auxfun, "_witness_depth", lambda spec: math.log(1e8))
        monkeypatch.setattr(auxfun, "_witness_tail", lambda spec, bset, depth: 0.0)
        weight = normalized_for_lambda1(WeightSpec.log_power(alpha))
        sol = geometry.solve_gamma_array(weight, bset, [1e-2, 1e-3, 1e-4])
        got = auxfun._witness_poisson(weight, bset, (1.0 - sol.gamma) * np.exp(1j * sol.theta))
        np.testing.assert_allclose(got.value, recorded, rtol=1e-8)

    def test_no_cutoff_below_1e8(self):
        # the boundary data is solved, not dropped, down to theta ~ 1e-290
        thetas = np.array([1e-9, -1e-50, 1e-200, 2e-290])
        data = keldysh_log_boundary(WeightSpec.log_power(2.0), POINT, thetas)
        assert np.all(np.isfinite(data)) and np.all(data > 0.0)
        # gamma/|theta| <= (s/c)(u - log c)^-a on the point set, c = 2/pi
        s = normalized_for_lambda1(WeightSpec.log_power(2.0)).scale
        u = -np.log(np.abs(thetas))
        c = 2.0 / math.pi
        assert np.all(data * np.abs(thetas) <= s / c * (u - math.log(c)) ** -2.0)

    def test_full_circle_amplitude_with_deep_tail(self):
        # the data below theta = 1e-8 carries most of the Poisson integral on
        # the full circle at alpha = 2.2; with it the smallest amplitude is 2
        assert witness_amplitude_search(WeightSpec.log_power(2.2), FULL, [1e-2, 1e-3, 1e-4]) == 2

    @pytest.mark.parametrize("weight,bset", [
        (WeightSpec.log_power(2.0), FULL),
        (WeightSpec.log_power(1.0), POINT),
        (WeightSpec.log_power(1.9), BoundarySet.geometric()),
    ])
    def test_unbounded_tail_keeps_the_value(self, weight, bset):
        # no remainder bound is known: the tail is inf, but the rule's value
        # (a lower bound) and its error estimate stay finite
        assert auxfun._witness_tail(weight, bset, 600.0) == math.inf
        got = auxfun._witness_poisson(weight, bset, [0.99 * cmath.exp(0.01j)])
        assert np.all(np.isinf(got.tail))
        assert np.all(got.value > 0.0) and np.all(got.error < 1e-3 * got.value)
