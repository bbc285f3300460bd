"""JSON configs read and written by their dataclass fields.

A field's annotation is its JSON type: float takes a number (int or float,
never a bool), int an integer (never a bool), bool true or false, str a
string, and X | None also null.  The dataclass's __post_init__ checks values.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing

from .errors import UsageError

_JSON_TYPES = {float: ({int, float}, "a number"), int: ({int}, "an integer"),
               bool: ({bool}, "true or false"), str: ({str}, "a string")}


@functools.cache
def _field_types(cls) -> dict:
    """{field name: (accepted Python types, their JSON name)}, resolved once per class."""
    hints, types = typing.get_type_hints(cls), {}
    for field in dataclasses.fields(cls):
        args = set(typing.get_args(hints[field.name])) or {hints[field.name]}
        accepted, desc = _JSON_TYPES[(args - {type(None)}).pop()]
        nullable = type(None) in args
        types[field.name] = (accepted | {type(None)}, desc + " or null") if nullable else (accepted, desc)
    return types


def check_types(cls, obj: dict, what: str) -> None:
    """Refuse any value of obj whose type is not its field's JSON type."""
    for name, value in obj.items():
        accepted, desc = _field_types(cls)[name]
        if type(value) not in accepted:  # exact types, so a bool is no int
            raise UsageError(f"{what} config field {name!r} must be {desc}, not {json.dumps(value, default=repr)}")


class JsonConfig:
    """Base of a config dataclass X(JsonConfig, what=name in messages, required=key)."""

    def __init_subclass__(cls, what: str, required: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._what, cls._required = what, required

    @classmethod
    def from_json(cls, obj):
        """cls built from a JSON object whose keys are its fields, the required one among them."""
        if not isinstance(obj, dict):
            raise UsageError(f"{cls._what} config must be a JSON object")
        unknown = set(obj) - set(_field_types(cls))
        if unknown:
            raise UsageError(f"unknown {cls._what} config fields: {sorted(unknown)}")
        if cls._required not in obj:
            raise UsageError(f"{cls._what} config requires {cls._required!r}")
        check_types(cls, obj, cls._what)
        return cls(**obj)

    def to_json(self) -> dict:
        """The fields that are neither None nor False."""
        return {name: value for name in _field_types(type(self))
                if (value := getattr(self, name)) is not None and value is not False}
