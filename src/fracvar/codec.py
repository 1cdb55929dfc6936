"""One JSON codec for every report dataclass.

A report inherits JsonCodec and gets to_jsonable, from_jsonable and
json_str.  Both directions follow the field annotations, read once per
class: floats pass through except the two infinities, which JSON cannot
hold and which become the strings "inf" and "-inf"; enums become their
values; homogeneous tuples become lists; nested reports encode
themselves.  A decoded report therefore re-encodes to the same
json_str.  Field metadata custom(encode, decode) replaces the
annotation's rule for one field.

json_str is json.dumps(to_jsonable(), sort_keys=True, indent=2) byte
for byte, written by _dumps: with an indent, json leaves its C encoder
for a pure-Python one that yields each item and separator on its own.
_dumps writes a list of finite floats with one float.__repr__ pass and
one join, and a list of equal-length rows of scalars, such as a
report's probe trace, through one format string.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
import operator
import types
import typing
from json.encoder import encode_basestring_ascii as _quote

__all__ = ["JsonCodec", "custom"]

_KEY = "fracvar.codec"
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
    """(name, encode, decode) for each field."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return tuple((f.name, *(f.metadata.get(_KEY) or _coder(hints[f.name]))) for f in fields)


class JsonCodec:
    """Mixin for a report dataclass: JSON through its fields and annotations."""

    def to_jsonable(self) -> dict:
        return {name: enc(getattr(self, name)) for name, enc, _ in _layout(type(self))}

    @classmethod
    def from_jsonable(cls, d: dict):
        return cls(**{name: dec(d[name]) for name, _, dec in _layout(cls)})

    def json_str(self) -> str:
        return _dumps(self.to_jsonable(), 2)


def _dumps(value, indent: int) -> str:
    """json.dumps(value, sort_keys=True, indent=indent), byte for byte.

    Keys must be strings, as in every report; any other key, like any
    value json cannot write, raises TypeError.
    """
    return _encode(value, "\n", " " * indent)


def _encode(o, nl: str, step: str) -> str:
    """o as json writes it with its indent step, nl the line break before o's items."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_str(o)
    inner = nl + step
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = _scalar_items(o) or _row_text(o, inner, step)
        items = items or [_encode(v, inner, step) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_quote(k) + ": " + _encode(v, inner, step) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _float_str(x) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    return "-Infinity" if x == -_INF else float.__repr__(x)


_SCALARS = {str, int, float, bool, type(None)}


# Float lists are most of every report.  A finite sum, one C-level pass,
# proves that no item of a float list is infinite or NaN, and
# float.__repr__ then writes the list in one more pass.
def _scalar_items(xs) -> list | None:
    """Each item written, when xs holds only str, int, float, bool or None, else None."""
    kinds = set(map(type, xs))
    if kinds == {float} and math.isfinite(sum(xs)):
        return list(map(float.__repr__, xs))
    return [_encode(v, "", "") for v in xs] if kinds <= _SCALARS else None


def _row_text(rows, nl: str, step: str) -> list | None:
    """The rows written out as one item, when they are lists of scalars all of
    one nonzero length, else None.  nl is the line break before each row."""
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    widths = set(map(len, rows))
    flat = len(widths) == 1 and _scalar_items(list(itertools.chain.from_iterable(rows)))
    if not flat:
        return None
    inner = nl + step
    row = "[" + inner + ("," + inner).join(["%s"] * widths.pop()) + nl + "]"
    return [("," + nl).join([row] * len(rows)) % tuple(flat)]
