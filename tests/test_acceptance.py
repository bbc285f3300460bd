"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import cmath
import math
import time

import numpy as np
import pytest

from crosschecks import condition_partials_quad, profile_y_predictor, singular_inner, solve_profile_y
from cyclicity.auxfun import (
    GammaRegionSpec,
    case_tag,
    c_lambda,
    h_lambda,
    in_gamma_region,
    log_f_lambda,
    witness_amplitude_search,
)
from cyclicity.boundary import BoundarySet, distance_to_set
from cyclicity.criterion import (
    KAPPA,
    cantor_reduced_partials,
    criterion_partials,
    default_checkpoints,
    divergence_verdict,
    theorem_scan_point,
    threshold_oracle,
)
from cyclicity.geometry import normalized_for_lambda1, solve_gamma
from cyclicity.phragmen import DomainProfile, harmonic_measure_mc, sigma
from cyclicity.weights import WeightSpec, effective_w, eval_lambda

A_DEFAULT = 2.0 / (5.0 * math.pi)
MARGIN = 0.05


def _report(n, name, started):
    print(f"\nACCEPTANCE {n} ({name}): PASS  [{time.monotonic() - started:.1f}s]")


def test_acceptance_1_cantor_threshold():
    started = time.monotonic()
    threshold = 1.0 / (1.0 - KAPPA / 2.0)
    for alpha in (1.0, 1.2, 1.4, 1.6, 1.8, 2.0):
        row = theorem_scan_point("teo3", alpha, depth=30)
        if abs(alpha - threshold) >= MARGIN:
            assert row["verdict"] == row["oracle"], (alpha, row)
        if alpha <= 1.4:
            true_q = 1.0 - alpha * (1.0 - KAPPA / 2.0)
            assert row["fitted_exponent"] == pytest.approx(true_q, abs=0.05), (alpha, row)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(1, "cantor threshold scan, depth 30", started)


def test_acceptance_2_interpolating_matrix():
    started = time.monotonic()
    for beta in (0.0, 0.25, 0.5):
        for alpha in (1.0, 1.5, 2.0, 2.5):
            row = theorem_scan_point("teo2", alpha, beta=beta)
            prod = alpha * (1.0 - beta)
            if abs(prod - 1.0) >= MARGIN:
                expect = "divergent" if prod <= 1.0 else "convergent"
                assert row["verdict"] == expect, (alpha, beta, row)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(2, "interpolating-family matrix", started)


def test_acceptance_3_specializations():
    started = time.monotonic()
    full = BoundarySet("full")
    point = BoundarySet("point")
    for alpha in (0.5, 1.5, 2.5):
        weight = WeightSpec("log_power", alpha=alpha)
        expect = threshold_oracle("nikolski", alpha)
        # route 1: the classical square-root condition integral, by quadrature
        eps = default_checkpoints(weight, full)
        v1 = divergence_verdict(condition_partials_quad(weight, "nikolski", eps), eps)
        # route 2: the criterion's own E-part for the full circle
        rep = criterion_partials(weight, full, eps)
        v2 = divergence_verdict(rep.e_and_short, eps)
        assert v1.verdict == expect, (alpha, v1)
        assert v2.verdict == expect, (alpha, v2)
        # single-point set: the area-condition specialization
        expect_gs = threshold_oracle("gs", alpha)
        rep_pt = criterion_partials(weight, point, default_checkpoints(weight, point))
        assert rep_pt.verdict().verdict == expect_gs, (alpha, rep_pt.verdict())
    for p in (0.4, 0.6):
        weight = WeightSpec("from_w", p=p)
        expect = "divergent" if 2.0 * p <= 1.0 else "convergent"
        for kind in ("geometric", "doubly_exp"):
            bset = BoundarySet(kind)
            rep = criterion_partials(weight, bset, default_checkpoints(weight, bset))
            assert rep.verdict().verdict == expect, (p, kind, rep.verdict())
    _report(3, "classical specializations and corollary sets", started)


def test_acceptance_4_auxiliary_identities():
    started = time.monotonic()
    rng = np.random.default_rng(41)
    grid = []
    while len(grid) < 50:
        lam = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
        if 0.05 < abs(lam) < 0.95 and abs(1.0 - lam) > 0.05:
            grid.append(lam)
    weight = WeightSpec("log_power", alpha=1.0)
    full = BoundarySet("full")
    for lam in grid:
        assert abs(cmath.exp(log_f_lambda(lam, lam)) * singular_inner(lam)) == pytest.approx(1.0, abs=1e-9)
        assert 1.0 / c_lambda(lam) >= 0.8
        cap = 2.5 * math.pi * (1.0 - abs(lam) ** 2) / abs(1.0 - lam) ** 2
        for _ in range(4):
            z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(z) >= 0.95:
                continue
            assert log_f_lambda(lam, z).real <= cap + 1e-9
        lam_term = eval_lambda(weight, min(distance_to_set(full, lam), 2.0))
        assert h_lambda(weight, full, lam, lam) == pytest.approx(-lam_term, abs=1e-9)

    # case-1 and case-3 configuration grids stay nonpositive
    spec = GammaRegionSpec(weight=weight, bset=full, a=A_DEFAULT, A=1000.0)
    checked = {"case1": 0, "case3": 0}
    for r_gap in np.geomspace(1e-8, 1e-4, 8):
        for ang in np.geomspace(0.05, 2.0, 8):
            lam = (1.0 - r_gap) * cmath.exp(1j * float(ang))
            if not in_gamma_region(spec, lam):
                continue
            for z_gap, z_ang in ((500.0 * r_gap, 0.3), (0.4, 2.0), (1500.0 * r_gap, float(ang) * 0.8)):
                if z_gap >= 1.0:
                    continue
                z = (1.0 - z_gap) * cmath.exp(1j * z_ang)
                tag = case_tag(spec, lam, z)
                if tag in checked:
                    assert h_lambda(weight, full, lam, z) <= 1e-9, (lam, z, tag)
                    checked[tag] += 1
    assert checked["case1"] > 20 and checked["case3"] > 5, checked
    _report(4, "shadow-function identities and sign grids", started)


def test_acceptance_5_phragmen_lindelof():
    started = time.monotonic()
    hp = DomainProfile("sector", "const", value=0.0)
    wedge = DomainProfile("cartesian", "x")
    for rho in (10.0, 100.0):
        assert sigma(hp, rho) == pytest.approx(rho, rel=1e-3)
        assert sigma(wedge, rho) == pytest.approx(rho * rho, rel=5e-3)
    for profile in (hp, wedge):
        ests = {rho: harmonic_measure_mc(profile, 1.0 + 0.0j, rho, 100_000, seed=2026)
                for rho in (4.0, 8.0, 16.0)}
        bounds = {rho: 1.0 / sigma(profile, rho) for rho in ests}
        ratios = {rho: ests[rho].mean / bounds[rho] for rho in ests}
        assert max(ratios.values()) / min(ratios.values()) < 3.0, ratios
        c_fit = math.exp(np.mean([math.log(r) for r in ratios.values()]))
        for rho, est in ests.items():
            assert est.mean - 3.0 * est.standard_error <= c_fit * bounds[rho], (rho, est)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(5, "sigma closed forms and MC harmonic-measure bound", started)


def test_acceptance_6_geometry_certificates():
    started = time.monotonic()
    rng = np.random.default_rng(66)
    weights = [WeightSpec("log_power", alpha=a) for a in (0.5, 1.0, 2.0, 2.5)] + [
        WeightSpec("from_w", p=0.5), WeightSpec("from_w", p=1.0), WeightSpec("const_w")]
    sets = [BoundarySet("full"), BoundarySet("point"),
            BoundarySet("geometric"), BoundarySet("beta", beta=0.25), BoundarySet("cantor", depth=15)]
    for _ in range(1000):
        weight = weights[rng.integers(len(weights))]
        bset = sets[rng.integers(len(sets))]
        theta = float(np.exp(rng.uniform(np.log(1e-10), np.log(0.1))))
        if rng.uniform() < 0.5:
            theta = -theta
        sol = solve_gamma(weight, bset, theta)
        assert sol.residual <= 1e-12 * max(sol.gamma, 1e-300)

    # gamma * w(gamma) = |theta| sqrt(scale) on the set (dist = 0)
    full = BoundarySet("full")
    for p, scale in ((0.5, 1.0), (1.0, 1.0), (1.0, 4.0)):
        weight = WeightSpec("from_w", p=p, scale=scale)
        for theta in (1e-2, 1e-4, 1e-6):
            sol = solve_gamma(weight, full, theta)
            got = sol.gamma * effective_w(weight, sol.gamma) * math.sqrt(scale)
            assert got == pytest.approx(theta * math.sqrt(scale), rel=1e-9)

    # profile solver against the asymptotic predictor, Lambda-values >= 10
    for alpha in (0.5, 1.0, 1.5, 2.0, 2.5):
        weight = WeightSpec("log_power", alpha=alpha)
        for x in (10.0, 20.0, 50.0, 100.0):
            y = solve_profile_y(weight, x)
            pred = profile_y_predictor(weight, x)
            assert 0.9 <= y / pred <= 1.1, (alpha, x, y / pred)
    _report(6, "gamma residual certificates and profile asymptotics", started)


def test_acceptance_7_forms_and_invariances():
    started = time.monotonic()
    t_cuts = (math.exp(-2.0), math.exp(-3.0))
    scales = (0.1, 1.0, 10.0)

    # cantor rows: the reduced-series verdicts are invariant
    threshold = 1.0 / (1.0 - KAPPA / 2.0)
    for alpha in (1.0, 1.2, 1.4, 1.6, 1.8, 2.0):
        if abs(alpha - threshold) < MARGIN:
            continue
        verdicts = set()
        for tc in t_cuts:
            for sc in scales:
                w = WeightSpec("log_power", alpha=alpha, t_cut=tc, scale=sc)
                eps, sums = cantor_reduced_partials(w, 30)
                verdicts.add(divergence_verdict(sums, eps).verdict)
        assert len(verdicts) == 1, (alpha, verdicts)

    cases = []
    for beta in (0.0, 0.25, 0.5):
        for alpha in (1.0, 1.5, 2.0, 2.5):
            if abs(alpha * (1.0 - beta) - 1.0) >= MARGIN:
                cases.append((("log_power", alpha), BoundarySet("beta", beta=beta)))
    for alpha in (0.5, 1.5, 2.5):
        cases.append((("log_power", alpha), BoundarySet("full")))
        cases.append((("log_power", alpha), BoundarySet("point")))
    for p in (0.4, 0.6):
        cases.append((("from_w", p), BoundarySet("geometric")))
        cases.append((("from_w", p), BoundarySet("doubly_exp")))

    for fam, bset in cases:
        verdicts = set()
        agree_at_default = None
        for tc in t_cuts:
            for sc in scales:
                if fam[0] == "log_power":
                    w = WeightSpec("log_power", alpha=fam[1], t_cut=tc, scale=sc)
                else:
                    w = WeightSpec("from_w", p=fam[1], t_cut=tc, scale=sc)
                rep = criterion_partials(w, bset, default_checkpoints(w, bset))
                verdicts.add(rep.verdict().verdict)
                if sc == 1.0 and tc == t_cuts[0]:
                    agree_at_default = rep.verdict().verdict == rep.alt_verdict().verdict
        assert len(verdicts) == 1, (fam, bset.kind, verdicts)
        assert agree_at_default, (fam, bset.kind)
    _report(7, "form equivalence and scale/t_cut invariance", started)


def test_acceptance_8_keldysh_witness():
    started = time.monotonic()
    weight = WeightSpec("log_power", alpha=2.0)
    point = BoundarySet("point")
    thetas = [1e-2, 1e-3, 1e-4]
    amp = witness_amplitude_search(weight, point, thetas, max_power=10)
    assert amp <= 2**10
    # stable across reruns
    assert witness_amplitude_search(weight, point, thetas, max_power=10) == amp
    # the domination inequality holds at every sample for the found amplitude
    from cyclicity.auxfun import _witness_poisson

    norm = normalized_for_lambda1(weight)
    ws = [(1.0 - solve_gamma(norm, point, theta).gamma) * cmath.exp(1j * theta) for theta in thetas]
    bases = _witness_poisson(norm, point, ws).value
    for theta, w, base in zip(thetas, ws, bases):
        lhs = amp * base
        rhs = (1.0 - abs(w) ** 2) / abs(1.0 - w) ** 2 + eval_lambda(
            norm, min(distance_to_set(point, w), 2.0))
        assert lhs > rhs, (theta, lhs, rhs)
    print(f"\n  recorded witness amplitude: {amp}")
    _report(8, "outer witness amplitude", started)
