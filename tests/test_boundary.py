import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicity.boundary import (
    Arc,
    BoundarySet,
    arc_arrays,
    cantor_measure,
    complementary_arcs,
    distance_to_set,
    kink_angles,
    measure_complement,
)
from cyclicity.errors import CapacityError, DomainError, UsageError


def _any_set(draw_kind, beta, depth):
    if draw_kind == "geometric":
        return BoundarySet.geometric()
    if draw_kind == "doubly_exp":
        return BoundarySet.doubly_exp()
    if draw_kind == "beta":
        return BoundarySet.beta_points(beta)
    return BoundarySet.cantor(depth)


class TestComplementaryArcs:
    def test_cantor_depth2(self):
        arcs = complementary_arcs(BoundarySet.cantor(2), 0.0)
        got = {(a.a_exact, a.b_exact) for a in arcs}
        expect = {(Fraction(1, 3), Fraction(2, 3)),
                  (Fraction(1, 9), Fraction(2, 9)),
                  (Fraction(7, 9), Fraction(8, 9))}
        assert got == expect
        bs = [a.b for a in arcs]
        assert bs == sorted(bs, reverse=True)

    def test_geometric_cutoff(self):
        arcs = complementary_arcs(BoundarySet.geometric(), 2.0**-5)
        got = [(a.a, a.b) for a in arcs]
        expect = [(2.0 ** -(n + 1), 2.0**-n) for n in range(5)]
        assert got == expect

    def test_beta_gap_ratio(self):
        # 1 - a5/a4 = 1 - exp(-(sqrt5 - sqrt4)), comparable to n^-beta
        arcs = complementary_arcs(BoundarySet.beta_points(0.5), 1e-2)
        pairs = {(round(a.a, 12), round(a.b, 12)) for a in arcs}
        a4, a5 = math.exp(-2.0), math.exp(-math.sqrt(5.0))
        assert (round(a5, 12), round(a4, 12)) in pairs
        ratio = 1.0 - a5 / a4
        assert ratio == pytest.approx(0.2102730115580701, rel=1e-12)
        assert 0.25 <= ratio / 4.0**-0.5 <= 4.0

    def test_point_kind_window_arc(self):
        arcs = complementary_arcs(BoundarySet.single_point(), 0.0)
        assert len(arcs) == 1
        assert arcs[0].a == 0.0 and arcs[0].b == 1.0

    def test_cutoff_rules(self):
        with pytest.raises(UsageError):
            complementary_arcs(BoundarySet.geometric(), 0.0)
        with pytest.raises(UsageError):
            complementary_arcs(BoundarySet.cantor(3), -1.0)

    def test_cantor_capacity(self):
        with pytest.raises(CapacityError):
            BoundarySet.cantor(40)

    def test_arc_arrays_match_list(self):
        for bset in (BoundarySet.geometric(), BoundarySet.beta_points(0.25), BoundarySet.cantor(6)):
            arcs = complementary_arcs(bset, 1e-3)
            a, b = arc_arrays(bset, 1e-3)
            la = {(round(x.a, 14), round(x.b, 14)) for x in arcs}
            lb = {(round(float(x), 14), round(float(y), 14)) for x, y in zip(a, b)}
            assert la <= lb  # arrays may carry one extra straddler below the cutoff

    @given(st.sampled_from(["geometric", "doubly_exp", "beta", "cantor"]),
           st.floats(min_value=0.0, max_value=0.5),
           st.integers(min_value=1, max_value=10),
           st.floats(min_value=1e-6, max_value=0.2))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_and_sorted(self, kind, beta, depth, cutoff):
        bset = _any_set(kind, beta, depth)
        arcs = complementary_arcs(bset, cutoff)
        for first, second in zip(arcs, arcs[1:]):
            assert first.b > second.b
            assert second.b <= first.a or second.a >= first.b  # disjoint

    def test_cantor_self_similarity_exact(self):
        # depth N+1 arcs inside [0, 1/3] are exactly one third of depth N arcs
        for depth in (2, 4, 6):
            inner = {(a.a_exact, a.b_exact)
                     for a in complementary_arcs(BoundarySet.cantor(depth + 1), 0.0)
                     if a.b_exact <= Fraction(1, 3)}
            scaled = {(x / 3, y / 3)
                      for x, y in ((a.a_exact, a.b_exact)
                                   for a in complementary_arcs(BoundarySet.cantor(depth), 0.0))}
            assert inner == scaled


class TestDistance:
    def test_radial_point(self):
        for bset in (BoundarySet.single_point(), BoundarySet.geometric(), BoundarySet.cantor(5)):
            assert distance_to_set(bset, 0.5 + 0.0j) == pytest.approx(0.5, abs=1e-14)

    def test_full_circle(self):
        assert distance_to_set(BoundarySet.full_circle(), cmath.exp(0.7j)) == pytest.approx(0.0, abs=1e-12)
        assert distance_to_set(BoundarySet.full_circle(), 0.25j) == pytest.approx(0.75)

    def test_cantor_gap_midpoint(self):
        z = cmath.exp(0.5j)
        d = distance_to_set(BoundarySet.cantor(3), z)
        assert d == pytest.approx(2.0 * math.sin(1.0 / 12.0), rel=1e-12)

    def test_membership_zero_distance(self):
        for theta in (1.0 / 3.0, 2.0 / 9.0, 1.0, 0.0):
            d = distance_to_set(BoundarySet.cantor(20), cmath.exp(1j * theta))
            assert d <= 2.0 * 3.0**-20 + 1e-12

    def test_exact_member_has_zero_distance(self):
        for n in (0, 3, 20):
            z = cmath.exp(1j * 2.0**-n)
            assert distance_to_set(BoundarySet.geometric(), z) == 0.0

    def test_geometric_bracketing(self):
        bset = BoundarySet.geometric()
        theta = 0.75 * 2.0**-3  # between 2^-4 and 2^-3
        z = cmath.exp(1j * theta)
        expect = min(abs(z - cmath.exp(1j * 2.0**-3)), abs(z - cmath.exp(1j * 2.0**-4)))
        assert distance_to_set(bset, z) == pytest.approx(expect, rel=1e-12)

    def test_single_arc(self):
        bset = BoundarySet.single_arc(-0.5, 0.5)
        assert distance_to_set(bset, 0.9 * cmath.exp(0.2j)) == pytest.approx(0.1, abs=1e-12)
        z = cmath.exp(1.0j)
        assert distance_to_set(bset, z) == pytest.approx(abs(z - cmath.exp(0.5j)), rel=1e-12)

    def test_mirror(self):
        bset = BoundarySet.geometric(mirror=True)
        plain = BoundarySet.geometric()
        z = cmath.exp(-1j * 0.11) * 0.999
        assert distance_to_set(bset, z) == pytest.approx(
            distance_to_set(plain, z.conjugate()), rel=1e-12)

    def test_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            distance_to_set(BoundarySet.full_circle(), 2.0 + 0.0j)

    def test_negative_angle_without_mirror(self):
        # nearest point of a one-sided set to a negative angle is the point 1
        bset = BoundarySet.single_point()
        z = 0.99 * cmath.exp(-0.3j)
        assert distance_to_set(bset, z) == pytest.approx(abs(z - 1.0), rel=1e-13)


class TestKinkAngles:
    def test_dense_sequence_lists_every_kink(self):
        # beta = 0.5 has about 2e5 arcs above 1e-200; each end and midpoint is a kink
        bset = BoundarySet.beta_points(0.5)
        a, b = arc_arrays(bset, 1e-200)
        assert a.size > 100_000
        kinks = kink_angles(bset, 1e-200)
        assert np.all(np.isin(b, kinks)) and np.all(np.isin(0.5 * (a + b), kinks))
        assert np.abs(kinks).min() >= 1e-200 and 0.5 - math.pi in kinks

    def test_deep_cantor_refused(self):
        assert kink_angles(BoundarySet.cantor(5), 1e-3).size > 3 * 2**4
        with pytest.raises(CapacityError):
            kink_angles(BoundarySet.cantor(20), 1e-3)


class TestMeasure:
    def test_geometric_telescoping(self):
        assert measure_complement(BoundarySet.geometric(), 2.0**-4) == pytest.approx(1.0 - 2.0**-4)

    def test_cantor_depth2(self):
        assert measure_complement(BoundarySet.cantor(2), 0.0) == pytest.approx(5.0 / 9.0, rel=1e-14)

    def test_cantor_null_in_the_limit(self):
        assert measure_complement(BoundarySet.cantor(34), 0.0) == pytest.approx(1.0, abs=1e-5)

    def test_monotone_in_eps(self):
        for bset in (BoundarySet.cantor(8), BoundarySet.geometric(), BoundarySet.single_arc(-0.2, 0.4)):
            vals = [measure_complement(bset, e) for e in (1e-4, 1e-3, 1e-2, 0.1, 0.5)]
            assert all(v1 >= v2 - 1e-15 for v1, v2 in zip(vals, vals[1:]))

    def test_cantor_measure_walk(self):
        assert cantor_measure(2, 1.0) == pytest.approx((2.0 / 3.0) ** 2)
        assert cantor_measure(2, 1.0 / 3.0) == pytest.approx(2.0 / 9.0)
        assert cantor_measure(5, 0.5) == pytest.approx(0.5 * (2.0 / 3.0) ** 5, rel=1e-12)


class TestSerialization:
    def test_round_trip(self):
        for bset in (BoundarySet.full_circle(), BoundarySet.single_arc(-0.1, 0.3),
                     BoundarySet.single_point(), BoundarySet.geometric(mirror=True),
                     BoundarySet.doubly_exp(), BoundarySet.beta_points(0.25),
                     BoundarySet.cantor(12)):
            assert BoundarySet.from_json(bset.to_json()) == bset

    def test_unknown_fields(self):
        with pytest.raises(UsageError):
            BoundarySet.from_json({"kind": "full", "junk": 2})

    def test_invalid(self):
        with pytest.raises(DomainError):
            BoundarySet("beta", beta=0.9)
        with pytest.raises(DomainError):
            BoundarySet("arc", a=0.1, b=0.5)  # must contain angle 0
        with pytest.raises(DomainError):
            Arc(0.5, 0.2)
