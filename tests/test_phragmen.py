import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cyclicity import phragmen
from cyclicity.errors import DomainError, NumericError, UsageError
from cyclicity.phragmen import (
    DomainProfile,
    HarmonicMeasureEstimate,
    arc_length_s,
    harmonic_measure_mc,
    sigma,
)

from crosschecks import log_sigma_mpmath, pl_divergence_integrand, pl_divergence_partials, simulate_per_block

HP = DomainProfile("sector", "const", value=0.0)
WEDGE = DomainProfile("cartesian", "x")
STRIP = DomainProfile("cartesian", "const1")
X2 = DomainProfile("cartesian", "x2")
# every (variant, phi) pair, constant profiles at two levels or more; the
# strips at levels 2 and 5 have their corner r = c inside the sigma interval
ALL_PROFILES = [WEDGE, X2, STRIP, DomainProfile("cartesian", "const", value=0.5),
                DomainProfile("cartesian", "const", value=2.0), DomainProfile("cartesian", "const", value=5.0),
                DomainProfile("sector", "const1"), HP, DomainProfile("sector", "const", value=0.7),
                DomainProfile("sector", "invlog")]


def _profile_id(p):
    return f"{p.variant}-{p.phi}-{p.value}"


# (profile, z0, rho) of the windowed-walk cross-check: every kind of distance bound
WINDOW_CASES = [(HP, 1.0, 4.0), (WEDGE, 1.0, 4.0), (X2, 1.0, 4.0),
                (DomainProfile("cartesian", "const", value=1.0), 0.5, 4.0),
                (DomainProfile("sector", "const1"), 1.5, 4.0), (DomainProfile("sector", "invlog"), 5.0, 12.0)]


class TestArcLength:
    def test_half_plane(self):
        assert arc_length_s(HP, 3.0) == pytest.approx(3.0 * math.pi, rel=1e-12)

    def test_wedge(self):
        # phi(x) = x: x(r) = r/sqrt(2), s = pi r / 2
        assert arc_length_s(WEDGE, 2.0) == pytest.approx(math.pi, rel=1e-10)

    def test_half_strip(self):
        expect = 10.0 * (math.pi - 2.0 * math.atan(math.sqrt(99.0)))
        assert arc_length_s(STRIP, 10.0) == pytest.approx(expect, rel=1e-10)
        assert expect == pytest.approx(2.0033, rel=1e-4)

    def test_far_out(self):
        # atan(phi/x) keeps its precision where the arc is short (pi - 2 atan(x/phi)
        # cancels to 0 at r = 1e16), and the closed forms form no phi(r)^2
        assert arc_length_s(STRIP, 1e16) == 2.0
        assert arc_length_s(STRIP, 1e200) == 2.0
        assert arc_length_s(X2, 1e100) == pytest.approx(math.pi * 1e100, rel=1e-12)

    def test_x2_mpmath_oracle(self):
        # x^2 + x^4 = r^2 solved at 30 digits
        with mpmath.workdps(30):
            for r in (1e-3, 0.5, 3.0, 1e4, 1e60):
                x = mpmath.sqrt((mpmath.sqrt(1 + 4 * mpmath.mpf(r) ** 2) - 1) / 2)
                expect = float(2 * r * mpmath.atan(x))
                assert arc_length_s(X2, r) == pytest.approx(expect, rel=1e-14)

    def test_validity(self):
        # inside the strip's corner the circle's right half lies in the strip
        assert arc_length_s(STRIP, 0.5) == 0.5 * math.pi
        with pytest.raises(DomainError):
            arc_length_s(HP, -1.0)
        with pytest.raises(DomainError):
            arc_length_s(DomainProfile("sector", "invlog"), np.array([3.0, 1.5]))

    def test_strip_corner(self):
        # at r = c the circle's right half lies in the strip: s = pi c, no division by x = 0
        assert arc_length_s(STRIP, 1.0) == math.pi
        assert arc_length_s(DomainProfile("cartesian", "const", value=0.5), 0.5) == 0.5 * math.pi

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=_profile_id)
    def test_array_is_scalar(self, profile):
        r = np.geomspace(2.0, 1e6, 25)
        s = arc_length_s(profile, r)
        assert s.shape == r.shape
        assert [arc_length_s(profile, x) for x in r] == s.tolist()
        assert type(arc_length_s(profile, 2.0)) is float


class TestSigma:
    def test_half_plane_exact(self):
        for rho in (10.0, 100.0):
            assert sigma(HP, rho) == pytest.approx(rho, rel=1e-3)

    def test_wedge_square(self):
        for rho in (10.0, 100.0):
            assert sigma(WEDGE, rho) == pytest.approx(rho * rho, rel=5e-3)

    def test_sigma_at_one(self):
        assert sigma(HP, 1.0) == 1.0

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_non_finite_rho_refused(self, rho):
        with pytest.raises(DomainError, match="finite"):
            sigma(HP, rho)

    def test_monotone(self):
        vals = [sigma(STRIP, r) for r in (2.0, 4.0, 8.0, 16.0)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_half_strip_exponential_rate(self):
        # log sigma - (pi/2) rho settles to a constant
        offs = [math.log(sigma(STRIP, rho)) - math.pi / 2.0 * rho for rho in (10.0, 20.0, 40.0)]
        assert max(offs) - min(offs) < 0.05

    @pytest.mark.parametrize("rho", [2.0, 10.0, 100.0])
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=_profile_id)
    def test_mpmath_oracle(self, profile, rho):
        # invlog starts 1e-9 above its pole, where pi - 2/log r cancels
        # about 9 of the digits of log r
        rel = 1e-8 if profile.phi == "invlog" else 1e-14
        assert math.log(sigma(profile, rho)) == pytest.approx(log_sigma_mpmath(profile, rho), rel=rel)

    def test_inaccurate_rule_is_refused(self, monkeypatch):
        # s jumps at r = 3, inside a panel: the rule's two orders disagree
        monkeypatch.setattr(phragmen, "arc_length_s",
                            lambda profile, r: np.where(r < 3.0, 1.0, 2.0) * math.pi * r)
        with pytest.raises(NumericError, match="error estimate"):
            sigma(HP, 100.0)


class TestIntegrand:
    def test_wedge(self):
        assert pl_divergence_integrand(WEDGE, 5.0) == pytest.approx(0.2)

    def test_x2_convergent(self):
        prof = DomainProfile("cartesian", "x2")
        assert pl_divergence_integrand(prof, 4.0) == pytest.approx(2.0 / 16.0)

    def test_invlog_divergent_loglog(self):
        prof = DomainProfile("sector", "invlog")
        assert pl_divergence_integrand(prof, 100.0) == pytest.approx(
            1.0 / (100.0 * math.log(100.0)), rel=1e-12)
        pts = [10.0**k for k in range(1, 7)]
        partials = pl_divergence_partials(prof, pts)
        # partial integrals grow like log log R: increments shrink slowly
        diffs = np.diff(partials)
        assert np.all(diffs > 0.0)
        assert diffs[-1] < diffs[0]

    def test_proposition_lower_bound_consistency(self):
        # log sigma(rho) >= log(c rho) + (1/6) int x phi'/phi^2 dx, with c
        # calibrated at the smallest rho of the sweep
        for prof in (WEDGE, DomainProfile("cartesian", "x2")):
            rhos = [4.0, 8.0, 16.0, 32.0]

            def x_of_r(r):
                lo, hi = 0.0, r
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if mid**2 + prof.phi_at(mid) ** 2 < r * r:
                        lo = mid
                    else:
                        hi = mid
                return 0.5 * (lo + hi)

            def bound_integral(rho):
                return quad(lambda x: pl_divergence_integrand(prof, x),
                            max(x_of_r(1.0), 1e-9), x_of_r(rho), epsrel=1e-9)[0]

            c = sigma(prof, rhos[0]) / (rhos[0] * math.exp(bound_integral(rhos[0]) / 6.0))
            for rho in rhos[1:]:
                lhs = math.log(sigma(prof, rho))
                rhs = math.log(c * rho) + bound_integral(rho) / 6.0
                assert lhs >= rhs - 1e-6


class TestMonteCarlo:
    def test_half_plane_scaling(self):
        # exact harmonic measure from z0 = 1 decays like (4/pi)/rho
        vals = {}
        for rho in (4.0, 8.0, 16.0):
            est = harmonic_measure_mc(HP, 1.0 + 0.0j, rho, 20_000, seed=9)
            vals[rho] = est.mean * rho
            assert est.capped_paths == 0
        ratios = list(vals.values())
        assert max(ratios) / min(ratios) < 3.0
        assert vals[16.0] == pytest.approx(4.0 / math.pi, rel=0.15)

    def test_wedge_scaling(self):
        vals = []
        for rho in (4.0, 8.0, 16.0):
            est = harmonic_measure_mc(WEDGE, 1.0 + 0.0j, rho, 20_000, seed=9)
            vals.append(est.mean * rho * rho)
        assert max(vals) / min(vals) < 3.0

    def test_probability_and_monotonicity(self):
        prev = None
        for rho in (4.0, 8.0, 16.0):
            est = harmonic_measure_mc(STRIP, 0.5 + 0.0j, rho, 20_000, seed=2)
            assert 0.0 <= est.mean <= 1.0
            if prev is not None:
                assert est.mean <= prev + 3.0 * est.standard_error
            prev = est.mean

    def test_seeded_determinism(self):
        a = harmonic_measure_mc(HP, 1.0 + 0.0j, 8.0, 20_000, seed=123)
        b = harmonic_measure_mc(HP, 1.0 + 0.0j, 8.0, 20_000, seed=123)
        assert a == b
        c = harmonic_measure_mc(HP, 1.0 + 0.0j, 8.0, 20_000, seed=124)
        assert c.mean != a.mean

    @pytest.mark.parametrize("prof, rho, paths, seed, mean, se", [
        (X2, 4.0, 100_000, 11, 0.08851, 0.0008981980845002955),
        (X2, 16.0, 100_000, 11, 0.01445, 0.00037737511179196755),
        (HP, 8.0, 20_000, 5, 0.15925, 0.0025873677502434786),
        (WEDGE, 16.0, 20_000, 5, 0.0061, 0.0005505810567028256),
    ], ids=["x2-rho4", "x2-rho16", "half-plane-rho8", "wedge-rho16"])
    def test_pinned_estimates(self, prof, rho, paths, seed, mean, se):
        # exact values: each block of 4096 paths draws from its own generator,
        # and the window that steps the blocks together keeps every block's draws
        est = harmonic_measure_mc(prof, 1.0 + 0.0j, rho, paths, seed=seed)
        assert est == HarmonicMeasureEstimate(mean=mean, standard_error=se, paths=paths,
                                               seed=seed, rho=rho, capped_paths=0)

    def test_capped_walks(self, monkeypatch):
        monkeypatch.setattr(phragmen, "_WOS_MAX_STEPS", 10)
        est = harmonic_measure_mc(WEDGE, 1.0 + 0.0j, 4.0, 10_000, seed=11)
        assert est.mean == 0.0181
        assert est.capped_paths == 5248

    # 64-path blocks skip 40,961 paths on the invlog sector: 12,289 paths already
    # end in a one-path block there, and walking 641 blocks one by one took 4 s
    @pytest.mark.parametrize("prof, z0, rho, paths, seed, block, max_steps", [
        pytest.param(prof, z0, rho, paths, seed, block, max_steps,
                     id=f"{_profile_id(prof)}-{paths}-{seed}-{name}")
        for prof, z0, rho in WINDOW_CASES for paths in (10_000, 12_289, 40_961) for seed in (3, 2026)
        for name, block, max_steps in (("default", 4096, 100_000), ("block-64", 64, 100_000), ("cap-10", 4096, 10))
        if (prof.phi, paths, block) != ("invlog", 40_961, 64)])
    def test_window_is_the_per_block_walk(self, monkeypatch, prof, z0, rho, paths, seed, block, max_steps):
        # the window steps many blocks at once, but every block draws exactly
        # as it does alone, so the estimate is the block-by-block walk's
        monkeypatch.setattr(phragmen, "_BLOCK", block)
        monkeypatch.setattr(phragmen, "_WOS_MAX_STEPS", max_steps)
        seen, distance = [], phragmen._boundary_distance

        def watched(profile, x, *rest):  # one call per step, on every walker in the window
            seen.append(x.size)
            return distance(profile, x, *rest)

        monkeypatch.setattr(phragmen, "_boundary_distance", watched)
        est = harmonic_measure_mc(prof, z0, rho, paths, seed)
        assert est == simulate_per_block(prof, z0, rho, paths, seed, block, max_steps)
        # some step walked two blocks at once, and none more than 2 block - 1 walkers
        assert block < max(seen) <= 2 * block - 1

    def test_invlog_near_r_min_reaches_the_circle(self):
        # from z0 = 3 the boundary is about 1 away; a bound of 0 wherever
        # theta >= beta(r/2) once absorbed every walker at its first step
        est = harmonic_measure_mc(DomainProfile("sector", "invlog"), 3.0 + 0.0j, 16.0, 10_000, seed=1)
        assert est.mean > 0.0 and est.capped_paths == 0

    @pytest.mark.parametrize("variant, z0, rho", [("cartesian", 0.5, 4.0), ("sector", 2.0, 8.0)])
    def test_const1_is_const_at_level_1(self, variant, z0, rho):
        # both spellings of one domain take the same steps
        a, b = (harmonic_measure_mc(DomainProfile(variant, *phi), z0, rho, 20_000, seed=1)
                for phi in (("const1",), ("const", 1.0)))
        assert (a.mean, a.standard_error, a.capped_paths) == (b.mean, b.standard_error, b.capped_paths)

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            harmonic_measure_mc(HP, 1.0 + 0.0j, 8.0, 100, seed=1)
        with pytest.raises(DomainError):
            harmonic_measure_mc(HP, -1.0 + 0.0j, 8.0, 20_000, seed=1)
        with pytest.raises(DomainError):
            harmonic_measure_mc(HP, 5.0 + 0.0j, 8.0, 20_000, seed=1)

    @pytest.mark.parametrize("rho", [math.inf, math.nan, 1e200])
    def test_non_finite_rho_refused(self, rho):
        # 1e200 is finite, but the walk's squared radius is not
        with pytest.raises(DomainError, match="finite"):
            harmonic_measure_mc(HP, 1.0 + 0.0j, rho, 20_000, seed=1)

    @pytest.mark.parametrize("prof, half_opening", [(HP, math.pi / 2), (WEDGE, math.pi / 4)],
                             ids=["half-plane", "wedge"])
    def test_closed_form_exit_probability(self, prof, half_opening):
        # z -> z^(pi/(2 beta)) maps the truncated sector onto a half-disc
        for rho in (4.0, 8.0, 16.0):
            exact = 4.0 / math.pi * math.atan(rho ** (-math.pi / (2.0 * half_opening)))
            for seed in range(1, 6):
                est = harmonic_measure_mc(prof, 1.0 + 0.0j, rho, 20_000, seed=seed)
                assert est.capped_paths == 0
                assert abs(est.mean - exact) <= 4.0 * est.standard_error, (rho, seed, est)


class TestProfileConfig:
    def test_round_trip(self):
        for prof in (HP, WEDGE, STRIP, DomainProfile("sector", "invlog"),
                     DomainProfile("cartesian", "x2")):
            assert DomainProfile.from_json(prof.to_json()) == prof

    def test_invalid(self):
        with pytest.raises(DomainError):
            DomainProfile("sector", "x")
        with pytest.raises(DomainError):
            DomainProfile("cartesian", "invlog")
        with pytest.raises(DomainError):
            DomainProfile("sector", "const", value=2.0)
        with pytest.raises(DomainError, match="> 0"):
            DomainProfile("cartesian", "const", value=0.0)  # a ray, no interior
        with pytest.raises(UsageError):
            DomainProfile.from_json({"variant": "sector", "phi": "const", "junk": 1})


def _exact_lateral_distance(profile, x, y):
    """Distance from (x, y) to the lateral boundary, at 50 digits."""
    with mpmath.workdps(50):
        px, py = mpmath.mpf(x), abs(mpmath.mpf(y))
        if profile.phi == "x2":
            # nearest point (t, t^2) of the upper branch: f(t) = 2t^3 + (1 - 2|y|)t - x
            # has one positive root, below 1 + x + sqrt|y|; f is convex for t > 0,
            # so Newton's method from there decreases monotonically onto it
            t = 1 + px + mpmath.sqrt(py)
            for _ in range(200):
                step = (2 * t**3 + (1 - 2 * py) * t - px) / (6 * t * t + 1 - 2 * py)
                t -= step
                if abs(step) <= mpmath.mpf(10) ** -45 * t:
                    break
            else:
                raise AssertionError("Newton's method did not converge")
            return mpmath.hypot(t - px, t * t - py)
        beta = mpmath.pi / 4 if profile.phi == "x" else mpmath.pi / 2 - mpmath.mpf(profile.value)
        dists = []
        for ex, ey in ((mpmath.cos(beta), mpmath.sin(beta)), (mpmath.cos(beta), -mpmath.sin(beta))):
            s = max(px * ex + py * ey, 0)  # projection onto the boundary ray
            dists.append(mpmath.hypot(px - s * ex, py - s * ey))
        return min(dists)


def _invlog_distance(x, y):
    """Distance from (x, y) to the invlog sector's boundary R e^{+-i beta(R)},
    beta(R) = pi/2 - 1/log R, R >= r_min (where beta = 0), at 40 digits.

    The nearest of 40,001 curve points, from R = r_min on a geometric grid
    in R - r_min, brackets the minimum, which golden-section search refines.
    """
    r_min = DomainProfile("sector", "invlog").r_min()
    grid = r_min + np.concatenate([[0.0], np.geomspace(1e-12, 4.0 * math.hypot(x, y) + 10.0, 40_000)])
    beta = np.concatenate([[0.0], math.pi / 2 - 1.0 / np.log(grid[1:])])
    i = int(np.argmin(np.hypot(x - grid * np.cos(beta), abs(y) - grid * np.sin(beta))))
    with mpmath.workdps(40):
        px, py, rm = mpmath.mpf(x), abs(mpmath.mpf(y)), mpmath.exp(2 / mpmath.pi)

        def dist(R):
            b = mpmath.pi / 2 - 1 / mpmath.log(R) if R > rm else mpmath.mpf(0)
            return mpmath.hypot(px - R * mpmath.cos(b), py - R * mpmath.sin(b))

        lo, hi = max(mpmath.mpf(grid[max(i - 1, 0)]), rm), mpmath.mpf(grid[min(i + 1, grid.size - 1)])
        g = (mpmath.sqrt(5) - 1) / 2
        for _ in range(120):
            a, c = hi - g * (hi - lo), lo + g * (hi - lo)
            lo, hi = (lo, c) if dist(a) < dist(c) else (a, hi)
        return min(dist((lo + hi) / 2), dist(rm))


def _interior_point(profile, a, u):
    """A point of the domain from a radial or horizontal coordinate a and a
    fraction u in (-1, 1) of the cross-section."""
    if profile.phi == "x2":
        return a, u * a * a
    if profile.phi == "x":
        return a, u * a
    theta = u * (math.pi / 2 - profile.value)
    return a * math.cos(theta), a * math.sin(theta)


_PROFILES = st.sampled_from([HP, WEDGE, X2]) | st.builds(
    lambda v: DomainProfile("sector", "const", value=v), st.floats(min_value=0.0, max_value=1.5))


class TestBoundaryDistance:
    @given(_PROFILES, st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=-0.999, max_value=0.999))
    @settings(max_examples=300, deadline=None)
    def test_lower_bound_against_exact(self, profile, a, u):
        x, y = _interior_point(profile, a, u)
        got = float(phragmen._boundary_distance(profile, np.array([x]), np.array([y]), np.array([x * x]))[0])
        exact = float(_exact_lateral_distance(profile, x, y))
        r = math.hypot(x, y)
        # a lower bound up to the rounding of the coordinates, which near the
        # boundary is all that is left of the distance
        assert got <= exact + 8.0 * np.finfo(float).eps * (r + exact)
        if profile.phi == "x2":
            gap = max(x * x - abs(y), 0.0)
            cone = gap / math.sqrt(1.0 + (2.0 * (x + gap)) ** 2)
            assert got >= cone
        else:
            assert abs(got - exact) <= 8.0 * np.finfo(float).eps * r
            if exact >= r / 8.0:  # cancellation costs at most 3 bits
                assert abs(got - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("frac", [0.0, 0.5, -0.9, 0.99])
    @pytest.mark.parametrize("r", [1.9, 1.95, 2.0, 2.5, 3.0, 5.0, 10.0, 30.0, 100.0])
    def test_invlog_bound_against_exact(self, r, frac):
        # from just above r_min = e^(2/pi) ~ 1.896 outward, on the axis and
        # up to a hundredth of the opening from the curve: a positive lower
        # bound everywhere (once 0 wherever theta >= beta(r/2)), and not loose
        profile = DomainProfile("sector", "invlog")
        theta = frac * (math.pi / 2 - 1.0 / math.log(r))
        x, y = r * math.cos(theta), r * math.sin(theta)
        got = float(phragmen._boundary_distance(profile, np.array([x]), np.array([y]), np.array([x * x]))[0])
        exact = float(_invlog_distance(x, y))
        assert 0.25 * exact <= got <= exact
