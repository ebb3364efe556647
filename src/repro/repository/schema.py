"""One schema walk for every wire record.

Each record that crosses the wire (the §3 entry, the query AST, plan,
stats and result) is a frozen dataclass whose dict form is one encoder
and one decoder, compiled once per class from its fields and type hints.
:func:`wire` returns the ``(to_dict, from_dict)`` pair; ``from_dict``
checks every value at every depth and raises the caller's error naming
the bad value's path (``models[0].description``, ``where.parts[1]``).

Leaves are ``str``, ``bool``, ``int`` (64-bit) and ``float``, matched by
``type(v) is ...``, plus ``EntryType`` and ``Version``.  Shapes are
``tuple[T, ...]`` (a JSON list), ``dict[str, T]``, ``X | None``, a
dataclass (a JSON object; a field with a default may be absent, one
with ``init=False`` is not on the wire, ``metadata["key"]`` renames
one), and a base class that is no dataclass: a union of its dataclass
subclasses, tagged by each one's ``op``.  Record-level rules live in
each record's ``__post_init__``, which every decode runs.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from operator import attrgetter
from types import NoneType, UnionType
from typing import Any, Callable, get_args, get_origin, get_type_hints

from repro.repository.template import EntryType
from repro.repository.versioning import Version

__all__ = ["wire"]


class _Malformed(Exception):
    """A missing key or a wrong value.  ``path`` grows as the walk
    unwinds (innermost step first), so a well-formed dict builds no
    path."""

    def __init__(self, problem: str, *path: str | int) -> None:
        super().__init__(problem)
        self.path = list(path)


def _exactly(kind: type, noun: str) -> Callable:
    def check(value: Any) -> Any:
        if type(value) is kind:
            return value
        raise _Malformed(f"is not {noun}: {type(value).__name__}")

    return check


def _integer(value: Any) -> int:
    if type(value) is not int:
        raise _Malformed(f"is not an integer: {type(value).__name__}")
    if not -(1 << 63) <= value < 1 << 63:
        raise _Malformed("is outside the 64-bit integer range")
    return value


def _entry_type(value: Any) -> EntryType:
    try:
        return EntryType(value)
    except ValueError:
        names = [member.value for member in EntryType]
        raise _Malformed(f"is not one of {names}: {value!r}") from None


#: Leaf type -> (encode, decode, what a list of them is called); an
#: encode of None keeps the value as is.
_LEAVES: dict[Any, tuple[Callable | None, Callable, str]] = {
    str: (None, _exactly(str, "a string"), "strings"),
    bool: (None, _exactly(bool, "a boolean"), "booleans"),
    int: (None, _integer, "integers"),
    float: (None, _exactly(float, "a floating-point number"), "numbers"),
    EntryType: (attrgetter("value"), _entry_type, "entry types"),
    Version: (str, Version.parse, "versions"),
}

#: Annotation -> (encode, decode); a union is entered before its
#: members compile, so a recursive tree compiles once.
_COMPILED: dict[Any, tuple[Callable | None, Callable]] = {}


def _codec(hint: Any) -> tuple[Callable | None, Callable]:
    """The (encode, decode) pair for one annotation, compiled once."""
    if hint in _COMPILED:
        return _COMPILED[hint]
    origin = get_origin(hint)
    if hint in _LEAVES:
        pair = _LEAVES[hint][:2]
    elif origin is tuple:
        item, _ellipsis = get_args(hint)
        plural = _LEAVES[item][2] if item in _LEAVES else "objects"
        pair = _sequence(*_codec(item), plural)
    elif origin is dict:
        _key, item = get_args(hint)
        pair = _mapping(*_codec(item))
    elif origin is UnionType:
        present = next(arg for arg in get_args(hint) if arg is not NoneType)
        pair = _optional(*_codec(present))
    elif is_dataclass(hint):
        pair = _record(hint)
    elif isinstance(hint, type) and hint.__subclasses__():
        return _union(hint)
    else:
        raise TypeError(f"no wire codec for {hint!r}")
    _COMPILED[hint] = pair
    return pair


def _sequence(encode_item, decode_item, plural: str) -> tuple:
    def decode(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise _Malformed(f"is not a list of {plural}: {type(value).__name__}")
        items = []
        for index, item in enumerate(value):
            try:
                items.append(decode_item(item))
            except _Malformed as error:
                error.path.append(index)
                raise
        return tuple(items)

    if encode_item is None:
        return list, decode
    return (lambda items: [encode_item(item) for item in items]), decode


def _mapping(encode_item, decode_item) -> tuple:
    def decode(value: Any) -> dict:
        if not isinstance(value, dict):
            raise _Malformed(f"is not an object: {type(value).__name__}")
        items = {}
        for key, item in value.items():
            try:
                items[key] = decode_item(item)
            except _Malformed as error:
                error.path.append(key)
                raise
        return items

    if encode_item is None:
        return dict, decode
    return (lambda items: {key: encode_item(v) for key, v in items.items()}), decode


def _optional(encode_present, decode_present) -> tuple:
    def decode(value: Any) -> Any:
        return None if value is None else decode_present(value)

    if encode_present is None:
        return None, decode
    return (lambda value: None if value is None else encode_present(value)), decode


#: The default of a key that is absent; ``MISSING`` marks a required one.
_ABSENT = object()


def _record(cls: type) -> tuple[Callable, Callable]:
    hints = get_type_hints(cls)
    members = []
    for spec in fields(cls):
        if spec.init:
            key = spec.metadata.get("key", spec.name)
            members.append((key, spec.name, *_codec(hints[spec.name]), spec.default))

    def encode(record: Any) -> dict[str, Any]:
        return {
            key: getattr(record, name) if enc is None else enc(getattr(record, name))
            for key, name, enc, _decode, _default in members
        }

    def decode(data: Any) -> Any:
        if not isinstance(data, dict):
            raise _Malformed(f"is not an object: {type(data).__name__}")
        values = []
        for key, _name, _encode, decode_field, default in members:
            value = data.get(key, _ABSENT)
            if value is _ABSENT:
                if default is MISSING:
                    raise _Malformed("is missing", key)
                values.append(default)
                continue
            try:
                values.append(decode_field(value))
            except _Malformed as error:
                error.path.append(key)
                raise
        return cls(*values)

    return encode, decode


def _union(base: type) -> tuple[Callable, Callable]:
    encoders: dict[type, Callable] = {}
    decoders: dict[str, Callable] = {}

    def encode(value: Any) -> dict[str, Any]:
        return {"op": value.op, **encoders[type(value)](value)}

    def decode(data: Any) -> Any:
        if not isinstance(data, dict):
            raise _Malformed(f"is not an object: {type(data).__name__}")
        op = data.get("op")
        decode_member = decoders.get(op) if type(op) is str else None
        if decode_member is None:
            raise _Malformed(f"has unknown {base.__name__.lower()} op {op!r}")
        return decode_member(data)

    _COMPILED[base] = encode, decode
    for member in base.__subclasses__():
        encoders[member], decoders[member.op] = _record(member)
    return encode, decode


def wire(cls: Any, noun: str, error: type[Exception]) -> tuple[Callable, Callable]:
    """``(to_dict, from_dict)`` for one wire record; ``from_dict`` raises
    ``error`` naming the bad value's path, or for a body nested past the
    recursion limit (no depth is counted in shared state)."""
    encode, decode = _codec(cls)

    def from_dict(data: Any) -> Any:
        try:
            return decode(data)
        except _Malformed as malformed:
            steps = reversed(malformed.path)
            where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)
            subject = f"{noun} field {where.lstrip('.')!r}" if where else noun
            raise error(f"malformed {subject} {malformed}") from None
        except RecursionError:
            raise error(f"malformed {noun}: nested too deeply") from None

    return encode, from_dict
