import cmath
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosschecks import sequence_arcs_from_point_list
from cyclicity import boundary
from cyclicity.boundary import (
    Arc,
    BoundarySet,
    arc_arrays,
    arc_blocks,
    cantor_ends,
    cantor_gaps,
    cantor_locate,
    cantor_measure,
    complementary_arcs,
    distance_to_set,
    kink_angles,
)
from cyclicity.errors import CapacityError, DomainError, UsageError


def _any_set(draw_kind, beta, depth):
    if draw_kind == "geometric":
        return BoundarySet("geometric")
    if draw_kind == "doubly_exp":
        return BoundarySet("doubly_exp")
    if draw_kind == "beta":
        return BoundarySet("beta", beta=beta)
    return BoundarySet("cantor", depth=depth)


def _interval_nums(depth):
    """Left-end numerators over 3^depth of the 2^depth intervals of F_depth,
    from their ternary digits in {0, 2}."""
    return [sum(d * 3 ** (depth - 1 - i) for i, d in enumerate(digits))
            for digits in itertools.product((0, 2), repeat=depth)]


def _brute_gaps(depth, cutoff):
    """{(num, g)}: the gaps (num, num + 1) / 3^g of F_depth with b > cutoff,
    one per interval of F_(g-1), compared exactly."""
    return {(3 * n + 1, g) for g in range(1, depth + 1) for n in _interval_nums(g - 1)
            if 3 * n + 2 > Fraction(cutoff) * 3**g}


def _walk_gaps(depth, cutoff):
    num, gen = cantor_gaps(depth, cutoff)
    return set(zip(num.tolist(), gen.tolist()))


class TestComplementaryArcs:
    def test_cantor_depth2(self):
        assert _walk_gaps(2, 0.0) == _brute_gaps(2, 0.0) == {(1, 1), (1, 2), (7, 2)}
        arcs = complementary_arcs(BoundarySet("cantor", depth=2), 0.0)
        assert [(a.a, a.b) for a in arcs] == [(7 / 9, 8 / 9), (1 / 3, 2 / 3), (1 / 9, 2 / 9)]

    @pytest.mark.parametrize("depth", [1, 2, 5, 8, 11, 12])
    @pytest.mark.parametrize("cutoff", [0.0, 1e-3, 0.2])
    def test_cantor_gaps_against_digit_enumeration(self, depth, cutoff):
        expect = _brute_gaps(depth, cutoff)
        assert _walk_gaps(depth, cutoff) == expect
        arcs = complementary_arcs(BoundarySet("cantor", depth=depth), cutoff)
        assert {(a.a, a.b) for a in arcs} == {(n / 3**g, (n + 1) / 3**g) for n, g in expect}
        assert len(arcs) == len(expect)

    def test_geometric_cutoff(self):
        arcs = complementary_arcs(BoundarySet("geometric"), 2.0**-5)
        got = [(a.a, a.b) for a in arcs]
        expect = [(2.0 ** -(n + 1), 2.0**-n) for n in range(5)]
        assert got == expect

    def test_beta_gap_ratio(self):
        # 1 - a5/a4 = 1 - exp(-(sqrt5 - sqrt4)), comparable to n^-beta
        arcs = complementary_arcs(BoundarySet("beta", beta=0.5), 1e-2)
        pairs = {(round(a.a, 12), round(a.b, 12)) for a in arcs}
        a4, a5 = math.exp(-2.0), math.exp(-math.sqrt(5.0))
        assert (round(a5, 12), round(a4, 12)) in pairs
        ratio = 1.0 - a5 / a4
        assert ratio == pytest.approx(0.2102730115580701, rel=1e-12)
        assert 0.25 <= ratio / 4.0**-0.5 <= 4.0

    def test_point_kind_window_arc(self):
        arcs = complementary_arcs(BoundarySet("point"), 0.0)
        assert len(arcs) == 1
        assert arcs[0].a == 0.0 and arcs[0].b == 1.0
        assert complementary_arcs(BoundarySet("arc", a=-0.3, b=1.5), 0.0) == []  # E covers the window

    def test_cutoff_rules(self):
        with pytest.raises(UsageError):
            complementary_arcs(BoundarySet("geometric"), 0.0)
        with pytest.raises(UsageError):
            complementary_arcs(BoundarySet("cantor", depth=3), -1.0)

    @pytest.mark.parametrize("bset", [BoundarySet("geometric"), BoundarySet("doubly_exp"),
                                      BoundarySet("beta", beta=0.25)], ids=lambda b: b.kind)
    def test_point_sequences_refuse_cutoffs_below_the_floor(self, bset):
        # below 1e-290 the rules once stopped at the floor and listed fewer arcs than asked
        a, b = arc_arrays(bset, 1e-290)
        assert b.min() > 1e-290 and a.min() < 1e-290
        with pytest.raises(CapacityError, match="floor"):
            arc_arrays(bset, 1e-300)

    @given(st.sampled_from([("geometric", None), ("doubly_exp", None)]
                           + [("beta", x) for x in (0.0, 0.1, 0.25, 0.4, 0.5)]),
           st.booleans(),
           st.one_of(st.just(1.0), st.floats(min_value=-290.0, max_value=0.0).map(lambda x: 10.0**x)),
           st.sampled_from([1, 7, 8192, 1 << 16]))
    @settings(max_examples=60, deadline=None)
    @example(("beta", 0.5), False, 1e-290, 8192)  # the longest listing, 55 blocks
    def test_blocks_are_the_point_list_arcs(self, kind, mirror, cutoff, size):
        # the blocks, each from its own index range, join into the arcs of
        # the whole point list, in value and dtype
        bset = BoundarySet(kind[0], beta=kind[1], mirror=mirror)
        blocks = list(arc_blocks(bset, cutoff, size))
        assert all(a.size == b.size == size for a, b in blocks[:-1])
        assert all(0 < a.size == b.size <= size for a, b in blocks[-1:])
        want_a, want_b = sequence_arcs_from_point_list(bset, cutoff)
        assert all(a.dtype == b.dtype == want_a.dtype for a, b in blocks)
        assert np.array_equal(np.concatenate([want_a[:0], *(a for a, _ in blocks)]), want_a)
        assert np.array_equal(np.concatenate([want_b[:0], *(b for _, b in blocks)]), want_b)
        a, b = arc_arrays(bset, cutoff)
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)

    @pytest.mark.parametrize("bset", [BoundarySet("geometric"), BoundarySet("doubly_exp"),
                                      BoundarySet("beta", beta=0.5)], ids=lambda b: b.kind)
    def test_blocks_refuse_the_floor_on_the_call(self, bset):
        with pytest.raises(CapacityError, match="floor"):
            arc_blocks(bset, 1e-300, 7)
        with pytest.raises(UsageError):
            arc_blocks(bset, 0.0, 7)

    def test_arc_list_capacity(self, monkeypatch):
        # 101 geometric arcs have b > 2^-100.5
        monkeypatch.setattr(boundary, "_MAX_ARC_LIST", 101)
        assert arc_arrays(BoundarySet("geometric"), 2.0**-100.5)[0].size == 101
        monkeypatch.setattr(boundary, "_MAX_ARC_LIST", 100)
        with pytest.raises(CapacityError, match="arc list capacity exceeded"):
            arc_arrays(BoundarySet("geometric"), 2.0**-100.5)
        assert sum(a.size for a, _ in arc_blocks(BoundarySet("geometric"), 2.0**-100.5, 7)) == 101

    def test_cantor_capacity(self):
        with pytest.raises(CapacityError):
            BoundarySet("cantor", depth=40)

    def test_arc_arrays_match_list(self):
        for bset in (BoundarySet("geometric"), BoundarySet("beta", beta=0.25), BoundarySet("cantor", depth=6)):
            arcs = complementary_arcs(bset, 1e-3)
            a, b = arc_arrays(bset, 1e-3)
            assert [(x.a, x.b) for x in arcs] == list(zip(a.tolist(), b.tolist()))

    @pytest.mark.parametrize("depth, cutoff", [(34, 1 - 1e-14), (36, 1 - 1e-15), (38, 1 - 3e-16)])
    def test_deep_cantor_gaps_near_one(self, depth, cutoff):
        # gaps narrower than one ulp have coinciding float ends and are left out
        a, b = arc_arrays(BoundarySet("cantor", depth=depth), cutoff)
        assert a.size > 0 and np.all(a < b) and np.all(b > cutoff)
        arcs = complementary_arcs(BoundarySet("cantor", depth=depth), cutoff)
        assert [(x.a, x.b) for x in arcs] == list(zip(a.tolist(), b.tolist()))
        # every end is the exact quotient num / 3^g, correctly rounded
        num, gen = cantor_gaps(depth, cutoff)
        exact = {(n / 3**g, (n + 1) / 3**g) for n, g in zip(num.tolist(), gen.tolist())}
        assert set(zip(a.tolist(), b.tolist())) == {(lo, hi) for lo, hi in exact if lo < hi and hi > cutoff}

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

    @given(st.integers(min_value=1, max_value=38), st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1))
    @example(33, [0.0, 0.3, 1.0])
    @example(34, [0.0, 0.3, 1.0])
    @settings(max_examples=200, deadline=None)
    def test_cantor_ends_are_correctly_rounded(self, gen, fractions):
        # num / 3^gen and (num + 1) / 3^gen equal Python's int quotients bit
        # for bit, for one generation and for an array of generations
        num = [min(int(f * 3**gen), 3**gen - 1) for f in fractions]
        expect = [[n / 3**gen for n in num], [(n + 1) / 3**gen for n in num]]
        num = np.array(num, dtype=np.int64)
        for got in (cantor_ends(num, gen), cantor_ends(num, np.full(num.size, gen))):
            assert [end.tolist() for end in got] == expect

    def test_cantor_ends_mix_generations(self):
        # an array of generations on both sides of 3^33 < 2^53 < 3^34
        gen = np.array([1, 33, 34, 38, 20])
        num = np.array([1, 3**33 - 2, 3**34 // 2, 3**38 - 1, 12345], dtype=np.int64)
        got = cantor_ends(num, gen)
        for end, k in zip(got, (num, num + 1)):
            assert end.tolist() == [n / 3**g for n, g in zip(k.tolist(), gen.tolist())]

    @pytest.mark.parametrize("depth", [1, 5, 9, 13])
    def test_located_gap_ends_are_the_listed_ends(self, depth):
        # the gap holding each listed arc's midpoint, as cantor_locate (and so
        # distance_to_set) finds it, has the listed float ends
        a, b = arc_arrays(BoundarySet("cantor", depth=depth), 0.0)
        lo, hi, _ = cantor_locate(depth, 0.5 * (a + b))
        assert lo.tolist() == a.tolist() and hi.tolist() == b.tolist()

    def test_cantor_self_similarity_exact(self):
        # depth N+1 gaps inside [0, 1/3] are exactly one third of depth N gaps:
        # (n, n + 1) / 3^g becomes (n, n + 1) / 3^(g+1)
        for depth in (2, 4, 6):
            inner = {(n, g) for n, g in _walk_gaps(depth + 1, 0.0) if 3 * (n + 1) <= 3**g}
            assert inner == {(n, g + 1) for n, g in _walk_gaps(depth, 0.0)}


class TestDistance:
    def test_radial_point(self):
        for bset in (BoundarySet("point"), BoundarySet("geometric"), BoundarySet("cantor", depth=5)):
            assert distance_to_set(bset, 0.5 + 0.0j) == pytest.approx(0.5, abs=1e-14)

    def test_full_circle(self):
        assert distance_to_set(BoundarySet("full"), cmath.exp(0.7j)) == pytest.approx(0.0, abs=1e-12)
        assert distance_to_set(BoundarySet("full"), 0.25j) == pytest.approx(0.75)

    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=-math.pi, max_value=math.pi)),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_cantor_against_every_interval(self, depth, points):
        # the chord to [lo, hi] is least at the angle clipped into it or at an end
        z = np.array([r * cmath.exp(1j * t) for r, t in points])
        lo = np.array(_interval_nums(depth)) / 3**depth
        hi = lo + 3.0**-depth
        theta = np.angle(z)[:, None]
        eta = np.concatenate([np.clip(theta, lo, hi), lo + 0.0 * theta, hi + 0.0 * theta], axis=1)
        expect = np.abs(z[:, None] - np.exp(1j * eta)).min(axis=1)
        got = distance_to_set(BoundarySet("cantor", depth=depth), z)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)

    def test_cantor_gap_midpoint(self):
        z = cmath.exp(0.5j)
        d = distance_to_set(BoundarySet("cantor", depth=3), z)
        assert d == pytest.approx(2.0 * math.sin(1.0 / 12.0), rel=1e-12)

    def test_membership_zero_distance(self):
        for theta in (1.0 / 3.0, 2.0 / 9.0, 1.0, 0.0):
            d = distance_to_set(BoundarySet("cantor", depth=20), cmath.exp(1j * theta))
            assert d <= 2.0 * 3.0**-20 + 1e-12

    def test_exact_member_has_zero_distance(self):
        for n in (0, 3, 20):
            z = cmath.exp(1j * 2.0**-n)
            assert distance_to_set(BoundarySet("geometric"), z) == 0.0

    def test_geometric_bracketing(self):
        bset = BoundarySet("geometric")
        theta = 0.75 * 2.0**-3  # between 2^-4 and 2^-3
        z = cmath.exp(1j * theta)
        expect = min(abs(z - cmath.exp(1j * 2.0**-3)), abs(z - cmath.exp(1j * 2.0**-4)))
        assert distance_to_set(bset, z) == pytest.approx(expect, rel=1e-12)

    def test_single_arc(self):
        bset = BoundarySet("arc", a=-0.5, b=0.5)
        assert distance_to_set(bset, 0.9 * cmath.exp(0.2j)) == pytest.approx(0.1, abs=1e-12)
        z = cmath.exp(1.0j)
        assert distance_to_set(bset, z) == pytest.approx(abs(z - cmath.exp(0.5j)), rel=1e-12)

    def test_mirror(self):
        bset = BoundarySet("geometric", mirror=True)
        plain = BoundarySet("geometric")
        z = cmath.exp(-1j * 0.11) * 0.999
        assert distance_to_set(bset, z) == pytest.approx(
            distance_to_set(plain, z.conjugate()), rel=1e-12)

    def test_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            distance_to_set(BoundarySet("full"), 2.0 + 0.0j)

    def test_negative_angle_without_mirror(self):
        # nearest point of a one-sided set to a negative angle is the point 1
        bset = BoundarySet("point")
        z = 0.99 * cmath.exp(-0.3j)
        assert distance_to_set(bset, z) == pytest.approx(abs(z - 1.0), rel=1e-13)


class TestKinkAngles:
    def test_dense_sequence_lists_every_kink(self):
        # beta = 0.5 has about 2e5 arcs above 1e-200; each end and midpoint is a kink
        bset = BoundarySet("beta", beta=0.5)
        a, b = arc_arrays(bset, 1e-200)
        assert a.size > 100_000
        kinks = kink_angles(bset, 1e-200, 1.0)
        assert np.all(np.isin(b, kinks)) and np.all(np.isin(0.5 * (a + b), kinks))
        assert kinks[0] >= 1e-200 and np.all(np.diff(kinks) > 0.0) and kinks[-1] < math.pi
        # the outer gap from 1 round to 0 has the one kink of the negative side
        assert kink_angles(bset, 1e-200, -1.0).tolist() == [math.pi - 0.5]

    def test_listed_down_to_the_enumeration_floor(self):
        # a floor below boundary's own lists the arcs down to that one, not none
        bset = BoundarySet("beta", beta=0.5)
        deep, floor = kink_angles(bset, 1e-300, 1.0), kink_angles(bset, boundary._ENUM_FLOOR, 1.0)
        assert floor.size > 400_000
        np.testing.assert_array_equal(deep[deep >= boundary._ENUM_FLOOR], floor)

    def test_deep_cantor_lists_none(self):
        assert kink_angles(BoundarySet("cantor", depth=5), 1e-3, 1.0).size > 3 * 2**4
        assert kink_angles(BoundarySet("cantor", depth=13), 1e-3, 1.0).size > 0  # 2^13 gaps
        for sign in (1.0, -1.0):
            assert kink_angles(BoundarySet("cantor", depth=14), 1e-3, sign).size == 0
            assert kink_angles(BoundarySet("cantor", depth=20, mirror=True), 1e-3, sign).size == 0

    @pytest.mark.parametrize("bset", [BoundarySet("geometric"), BoundarySet("doubly_exp"),
                                      BoundarySet("beta", beta=0.25), BoundarySet("cantor", depth=6)],
                             ids=lambda b: b.kind)
    def test_mirrored_sides_agree(self, bset):
        mirrored = dataclasses.replace(bset, mirror=True)
        pos, neg = (kink_angles(mirrored, 1e-30, sign) for sign in (1.0, -1.0))
        np.testing.assert_array_equal(pos, neg)
        np.testing.assert_array_equal(pos, kink_angles(bset, 1e-30, 1.0))

    def test_arc_sides(self):
        # E = [-0.2, 0.3]: the outer gap runs from 0.3 round to -0.2, its midpoint at 0.05 - pi
        bset = BoundarySet("arc", a=-0.2, b=0.3)
        assert kink_angles(bset, 1e-3, 1.0).tolist() == [0.3]
        assert kink_angles(bset, 1e-3, -1.0).tolist() == [0.2, -(0.05 + math.pi - 2.0 * math.pi)]


class TestMeasure:
    def test_cantor_measure_walk(self):
        assert cantor_measure(2, 1.0) == pytest.approx((2.0 / 3.0) ** 2)
        assert cantor_measure(2, 1.0 / 3.0) == pytest.approx(2.0 / 9.0)
        assert cantor_measure(5, 0.5) == pytest.approx(0.5 * (2.0 / 3.0) ** 5, rel=1e-12)

    @pytest.mark.parametrize("depth", [1, 3, 8])
    def test_cantor_measure_against_every_interval(self, depth):
        x = np.concatenate([np.linspace(-0.1, 1.1, 301), [1.0 / 3.0, 2.0 / 3.0, 1.0]]).reshape(-1, 4)
        lo = np.array(_interval_nums(depth)) / 3**depth
        expect = np.clip(x[..., None] - lo, 0.0, 3.0**-depth).sum(axis=-1)
        got = cantor_measure(depth, x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)


class TestSerialization:
    def test_round_trip(self):
        for bset in (BoundarySet("full"), BoundarySet("arc", a=-0.1, b=0.3),
                     BoundarySet("point"), BoundarySet("geometric", mirror=True),
                     BoundarySet("doubly_exp"), BoundarySet("beta", beta=0.25),
                     BoundarySet("cantor", depth=12)):
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
