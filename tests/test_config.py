"""The JSON configs: WeightSpec, BoundarySet and DomainProfile from and to JSON objects."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicity.boundary import MAX_CANTOR_DEPTH, BoundarySet
from cyclicity.errors import UsageError
from cyclicity.phragmen import DomainProfile
from cyclicity.weights import WeightSpec

_positive = st.floats(min_value=1e-3, max_value=10.0)
_mirror = st.booleans()

WEIGHTS = st.builds(
    lambda family, x, t_cut, scale: WeightSpec(family, t_cut=t_cut, scale=scale,
                                               **({} if family == "const_w" else
                                                  {"alpha" if family == "log_power" else "p": x})),
    st.sampled_from(("log_power", "from_w", "const_w")), _positive | st.integers(1, 5),
    st.floats(min_value=1e-6, max_value=0.999), _positive | st.integers(1, 5))

SETS = st.one_of(
    st.builds(BoundarySet, st.sampled_from(("full", "point", "geometric", "doubly_exp")), mirror=_mirror),
    st.builds(lambda beta, m: BoundarySet("beta", beta=beta, mirror=m),
              st.floats(min_value=0.0, max_value=0.5) | st.just(0), _mirror),
    st.builds(lambda depth, m: BoundarySet("cantor", depth=depth, mirror=m),
              st.integers(1, MAX_CANTOR_DEPTH), _mirror),
    st.builds(lambda a, b, m: BoundarySet("arc", a=a, b=b, mirror=m),
              st.floats(min_value=-1.0, max_value=0.0) | st.just(0),
              st.floats(min_value=1e-6, max_value=1.0), _mirror),
)

PROFILES = st.one_of(
    st.builds(DomainProfile, st.just("cartesian"), st.sampled_from(("x", "x2", "const1"))),
    st.builds(DomainProfile, st.just("sector"), st.sampled_from(("const1", "invlog"))),
    st.builds(lambda v: DomainProfile("cartesian", "const", v), st.floats(min_value=1e-3, max_value=100.0)),
    st.builds(lambda v: DomainProfile("sector", "const", v),
              st.floats(min_value=0.0, max_value=1.5) | st.integers(0, 1)),
)


def _with_nulls(obj: dict, names) -> dict:
    """obj with an explicit null for each optional field it leaves out."""
    return {**{name: None for name in names}, **obj}


class TestRoundTrip:
    @given(WEIGHTS)
    @settings(max_examples=200, deadline=None)
    def test_weight(self, spec):
        obj = spec.to_json()
        assert WeightSpec.from_json(obj) == spec
        assert WeightSpec.from_json(_with_nulls(obj, ("alpha", "p"))) == spec

    @given(SETS)
    @settings(max_examples=200, deadline=None)
    def test_set(self, bset):
        obj = bset.to_json()
        assert BoundarySet.from_json(obj) == bset
        assert BoundarySet.from_json(_with_nulls(obj, ("beta", "depth", "a", "b"))) == bset
        assert BoundarySet.from_json({**obj, "mirror": bset.mirror}) == bset

    @given(PROFILES)
    @settings(max_examples=100, deadline=None)
    def test_profile(self, prof):
        obj = prof.to_json()
        assert DomainProfile.from_json(obj) == prof
        if prof.value is None:
            assert DomainProfile.from_json({**obj, "params": {"value": None}}) == prof


class TestToJson:
    def test_written_fields(self):
        # the fields that are neither None nor False, in the shape every echoed config has
        assert WeightSpec("const_w").to_json() == {"family": "const_w", "t_cut": math.exp(-2.0), "scale": 1.0}
        assert BoundarySet("point").to_json() == {"kind": "point"}
        assert BoundarySet("point", mirror=True).to_json() == {"kind": "point", "mirror": True}
        assert BoundarySet("arc", a=0.0, b=0.2).to_json() == {"kind": "arc", "a": 0.0, "b": 0.2}
        assert DomainProfile("cartesian", "x").to_json() == {"variant": "cartesian", "phi": "x"}
        assert DomainProfile("sector", "const", 0).to_json() == {"variant": "sector", "phi": "const",
                                                                  "params": {"value": 0}}


class TestTypeRefusals:
    CASES = [
        (BoundarySet, {"kind": "cantor", "depth": 14.0}, "'depth' must be an integer or null, not 14.0"),
        (BoundarySet, {"kind": "cantor", "depth": True}, "'depth' must be an integer or null, not true"),
        (BoundarySet, {"kind": "beta", "beta": "0.25"}, "'beta' must be a number or null, not \"0.25\""),
        (BoundarySet, {"kind": "point", "mirror": "no"}, "'mirror' must be true or false, not \"no\""),
        (BoundarySet, {"kind": "point", "mirror": 1}, "'mirror' must be true or false, not 1"),
        (BoundarySet, {"kind": "point", "mirror": None}, "'mirror' must be true or false, not null"),
        (BoundarySet, {"kind": 5}, "'kind' must be a string, not 5"),
        (WeightSpec, {"family": "log_power", "alpha": "2"}, "'alpha' must be a number or null, not \"2\""),
        (WeightSpec, {"family": "log_power", "alpha": True}, "'alpha' must be a number or null, not true"),
        (WeightSpec, {"family": "log_power", "alpha": 1, "scale": "1"}, "'scale' must be a number, not \"1\""),
        (WeightSpec, {"family": "log_power", "alpha": 1, "t_cut": None}, "'t_cut' must be a number, not null"),
        (WeightSpec, {"family": 5}, "'family' must be a string, not 5"),
        (DomainProfile, {"variant": "sector", "phi": "const", "params": {"value": "1"}},
         "'value' must be a number or null, not \"1\""),
        (DomainProfile, {"variant": "sector", "phi": "const", "params": {"value": True}},
         "'value' must be a number or null, not true"),
        (DomainProfile, {"variant": 5, "phi": "x"}, "'variant' must be a string, not 5"),
    ]

    @pytest.mark.parametrize("cls, obj, message", CASES)
    def test_wrong_type_is_a_usage_error(self, cls, obj, message):
        with pytest.raises(UsageError) as info:
            cls.from_json(obj)
        assert str(info.value).endswith(message)

    def test_key_checks_come_first(self):
        # unknown keys, then the required key, then types; the messages of earlier releases
        with pytest.raises(UsageError, match="set config must be a JSON object"):
            BoundarySet.from_json([1])
        with pytest.raises(UsageError, match=r"unknown weight config fields: \['q'\]"):
            WeightSpec.from_json({"family": 5, "q": 1})
        with pytest.raises(UsageError, match="set config requires 'kind'"):
            BoundarySet.from_json({"beta": "x"})
        with pytest.raises(UsageError, match="profile params may only carry 'value'"):
            DomainProfile.from_json({"variant": "sector", "phi": "x", "params": {"value": "1", "v": 1}})

    @pytest.mark.parametrize("cls, obj, message", [
        (WeightSpec, {"alpha": 1.0}, "weight config requires 'family'"),
        (BoundarySet, {"depth": 3}, "set config requires 'kind'"),
        (DomainProfile, {"variant": "sector"}, "profile config requires 'phi'"),
        (DomainProfile, {"phi": "x"}, "profile config requires 'variant'"),
        (DomainProfile, {}, "profile config requires 'variant'"),
    ])
    def test_fields_without_a_default_are_required(self, cls, obj, message):
        with pytest.raises(UsageError) as info:
            cls.from_json(obj)
        assert str(info.value) == message

    def test_profile_value_only_in_params(self):
        # a top-level value is an unknown field, as it was before profiles read their JSON as configs
        for obj, unknown in (({"variant": "sector", "phi": "const", "value": 1}, "['value']"),
                             ({"variant": "sector", "value": 1, "junk": 2}, "['junk', 'value']")):
            with pytest.raises(UsageError) as info:
                DomainProfile.from_json(obj)
            assert str(info.value) == f"unknown profile config fields: {unknown}"
