"""JSON configs read and written by their dataclass fields.

A field's annotation is its JSON type: float takes a number (int or float,
never a bool), int an integer (never a bool), bool true or false, str a
string, and X | None also null.  A field without a default is required.
The dataclass's __post_init__ checks values.
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


@functools.cache
def _required(cls) -> tuple:
    """The fields without a default, in declaration order, found once per class."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.default is f.default_factory is dataclasses.MISSING)


class JsonConfig:
    """Base of a config dataclass X(JsonConfig, what=name in messages)."""

    def __init_subclass__(cls, what: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._what = what

    @classmethod
    def from_json(cls, obj):
        """cls built from a JSON object of its fields; refuses unknown keys, then a missing
        required field, then a value that is not its field's JSON type."""
        if not isinstance(obj, dict):
            raise UsageError(f"{cls._what} config must be a JSON object")
        types = _field_types(cls)
        unknown = set(obj) - set(types)
        if unknown:
            raise UsageError(f"unknown {cls._what} config fields: {sorted(unknown)}")
        for name in _required(cls):
            if name not in obj:
                raise UsageError(f"{cls._what} config requires {name!r}")
        for name, value in obj.items():
            accepted, desc = types[name]
            if type(value) not in accepted:  # exact types, so a bool is no int
                raise UsageError(f"{cls._what} config field {name!r} must be {desc}, not "
                                 f"{json.dumps(value, default=repr)}")
        return cls(**obj)

    def to_json(self) -> dict:
        """The fields that are neither None nor False."""
        return {name: value for name in _field_types(type(self))
                if (value := getattr(self, name)) is not None and value is not False}
