"""One JSON codec for every report dataclass.

A report inherits JsonCodec and gets to_jsonable, from_jsonable and
json_str.  Both directions follow the field annotations, read once per
class: floats pass through except the two infinities, which JSON cannot
hold and which become the strings "inf" and "-inf"; enums become their
values; homogeneous tuples become lists; nested reports encode
themselves.  A decoded report therefore re-encodes to the same
json_str.  Field metadata adjusts one field: OMIT keeps it out of the
JSON, custom(encode, decode) replaces the annotation's rule.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import math
import operator
import types
import typing

__all__ = ["JsonCodec", "OMIT", "custom"]

_KEY = "fracvar.codec"
OMIT = {_KEY: None}
_INF = math.inf
_INF_NAMES = {"inf": _INF, "-inf": -_INF}


def custom(encode, decode) -> dict:
    """Field metadata: encode and decode the field with these functions."""
    return {_KEY: (encode, decode)}


def _finite(x):
    if x == _INF:
        return "inf"
    return "-inf" if x == -_INF else x


def _float_in(x):
    return _INF_NAMES.get(x, x)


# Float arrays are most of every payload.  A finite sum, one C-level
# pass, proves that no item is infinite and lets the common case skip
# the per-item work; an overflowing sum only takes the slow path.
def _floats(x) -> list:
    return list(x) if math.isfinite(sum(x)) else [_finite(v) for v in x]


def _float_rows(x) -> list:
    if math.isfinite(sum(itertools.chain.from_iterable(x))):
        return [list(v) for v in x]
    return [_floats(v) for v in x]


def _each(dec):
    return lambda x: tuple(map(dec, x))


def _optional(enc, dec):
    return (lambda x: None if x is None else enc(x)), (lambda x: None if x is None else dec(x))


@functools.cache
def _coder(tp) -> tuple:
    """(encode, decode) for a value annotated tp."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is float:
        return _finite, _float_in
    if origin in (typing.Union, types.UnionType):  # X | None
        (arm,) = (a for a in args if a is not type(None))
        return _optional(*_coder(arm))
    if origin is tuple:
        (item,) = set(args) - {Ellipsis}  # homogeneous tuples only
        enc, dec = _coder(item)
        if enc is _finite:
            return _floats, _each(dec)
        if enc is _floats:
            return _float_rows, _each(dec)
        return (lambda x: [enc(v) for v in x]), _each(dec)
    if issubclass(tp, JsonCodec):
        return tp.to_jsonable, tp.from_jsonable
    if issubclass(tp, enum.Enum):
        return operator.attrgetter("value"), tp
    if tp in (bool, int, str, dict):
        return tp, tp
    raise TypeError(f"no JSON encoding for {tp!r}")


@functools.cache
def _layout(cls) -> tuple:
    """(name, encode, decode) for each field the JSON carries."""
    hints = typing.get_type_hints(cls)
    carried = [f for f in dataclasses.fields(cls) if f.metadata.get(_KEY, ()) is not None]
    return tuple((f.name, *(f.metadata.get(_KEY) or _coder(hints[f.name]))) for f in carried)


class JsonCodec:
    """Mixin for a report dataclass: JSON through its fields and annotations."""

    def to_jsonable(self) -> dict:
        return {name: enc(getattr(self, name)) for name, enc, _ in _layout(type(self))}

    @classmethod
    def from_jsonable(cls, d: dict):
        return cls(**{name: dec(d[name]) for name, _, dec in _layout(cls)})

    def json_str(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2)
