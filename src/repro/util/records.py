"""Declared records: one codec for the line-oriented input formats.

A trace job and a fault-plan record are frozen dataclasses: a field's
annotation is its value type and its default is what a writer may leave
out.  :class:`RecordCodec` reads both from the class, so a format
declares only its ``(key, attribute)`` table and its required keys;
:func:`read_jsonl` / :func:`write_jsonl` are the one JSON-lines loop
(``{"meta": {...}}`` lines carry a ``name`` and ``comments``) of the
trace and fault-plan formats.  One value rule holds in every format:
``float`` fields are finite numbers, ``int`` fields integral numbers,
``bool`` fields ``true``/``false`` (or 0/1), ``str`` fields strings,
``Tuple[int, ...]`` fields lists of integers, and a bool is never a
number.  A broken value raises the format's error naming line and key.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = ["RecordCodec", "numbered_lines", "read_jsonl", "write_jsonl"]


def _finite(v: Any) -> float:
    if v.__class__ is float:
        if v - v == 0.0:  # NaN and ±inf give NaN
            return v
        raise ValueError("not a finite number")
    if v.__class__ is int:
        return float(v)
    raise ValueError("expected a number")


def _integer(v: Any) -> int:
    if v.__class__ is int:
        return v
    if v.__class__ is float and v.is_integer():
        return int(v)
    raise ValueError("expected an integer")


def _flag(v: Any) -> bool:
    if v is True or v is False:
        return v
    if v.__class__ is int and (v == 0 or v == 1):
        return v == 1
    raise ValueError("expected true or false")


def _text(v: Any) -> str:
    if v.__class__ is str:
        return v
    raise ValueError("expected a string")


def _integers(v: Any) -> Tuple[int, ...]:
    if v.__class__ is list:
        try:
            return tuple(map(_integer, v))
        except ValueError:
            pass
    raise ValueError("expected a list of integers")


#: field annotation -> value check (returns the coerced value).
_CHECKS = {float: _finite, int: _integer, bool: _flag, str: _text,
           Tuple[int, ...]: _integers}
#: stands in for a required key's default: unequal to every value.
_ALWAYS = object()


class RecordCodec:
    """JSON object / text row <-> frozen dataclass, for one format.

    ``keys`` is the ``(key, attribute)`` table in output order and
    ``required`` the keys every record carries.  ``validate=True`` also
    runs each parsed record's ``validate()``, its error prefixed with
    the line.
    """

    def __init__(self, cls: type, keys: Sequence[Tuple[str, str]],
                 required: Sequence[str], error: type,
                 validate: bool = False) -> None:
        hints = typing.get_type_hints(cls)
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        self.cls = cls
        self.keys = tuple(keys)
        self.required = tuple(required)
        self.error = error
        self.validate = validate
        #: key -> (attribute, value check)
        self._table = {key: (attr, _CHECKS[hints[attr]])
                       for key, attr in self.keys}
        self._out = tuple(
            (key, attr, _ALWAYS if key in self.required else defaults[attr])
            for key, attr in self.keys)

    def to_dict(self, rec: Any) -> Dict[str, Any]:
        """Required keys plus non-default values, in key-table order."""
        out: Dict[str, Any] = {}
        for key, attr, default in self._out:
            value = getattr(rec, attr)
            if value != default:
                out[key] = value
        return out

    def from_dict(self, obj: Dict[str, Any], where: str) -> Any:
        """Build a record from a JSON object (unknown keys are ignored,
        for forward compatibility)."""
        for key in self.required:
            if key not in obj:
                raise self.error(f"{where}: record lacks {key!r}")
        table = self._table
        fields = {}
        for key, value in obj.items():
            entry = table.get(key)
            if entry is None:
                continue
            attr, check = entry
            try:
                fields[attr] = check(value)
            except (ValueError, OverflowError) as exc:
                raise self.error(f"{where}: bad value {value!r} for "
                                 f"{key!r} ({exc})") from None
        return self._build(fields, where)

    def from_row(self, tokens: Sequence[str], where: str) -> Any:
        """Build a record from numeric text columns in key-table order
        (extra trailing columns are ignored)."""
        fields = {}
        for col, ((key, (attr, check)), tok) in enumerate(
                zip(self._table.items(), tokens), 1):
            try:
                value = float(tok)
            except ValueError:
                value = tok  # a string: every numeric check refuses it
            try:
                fields[attr] = check(value)
            except (ValueError, OverflowError) as exc:
                raise self.error(f"{where}: bad number {tok!r} for {key} "
                                 f"(column {col}: {exc})") from None
        return self._build(fields, where)

    def _build(self, fields: Dict[str, Any], where: str) -> Any:
        rec = self.cls(**fields)
        if self.validate:
            try:
                rec.validate()
            except self.error as exc:
                raise self.error(f"{where}: {exc}") from None
        return rec


def numbered_lines(text: str) -> Iterator[Tuple[int, str]]:
    """``(line number, stripped line)`` for every non-blank line."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line:
            yield lineno, line


def read_jsonl(text: str, name: str, error: type
               ) -> Tuple[str, List[str], List[Tuple[int, Dict]]]:
    """Split JSON lines into ``(name, comments, [(line number, object),
    ...])``; a malformed line raises ``error`` naming it."""
    comments: List[str] = []
    rows: List[Tuple[int, Dict]] = []
    loads = json.loads
    for lineno, line in numbered_lines(text):
        try:
            obj = loads(line)
        except (ValueError, RecursionError) as exc:
            raise error(f"line {lineno}: bad JSON "
                        f"({getattr(exc, 'msg', exc)})") from None
        if obj.__class__ is not dict:
            raise error(f"line {lineno}: expected a JSON object")
        if "meta" not in obj:
            rows.append((lineno, obj))
            continue
        meta = obj["meta"]
        if meta.__class__ is not dict:
            raise error(f"line {lineno}: 'meta' must be a JSON object")
        name = meta.get("name", name)
        extra = meta.get("comments", [])
        if name.__class__ is not str:
            raise error(f"line {lineno}: bad value {name!r} for 'name' in "
                        "'meta' (expected a string)")
        if extra.__class__ is not list or any(c.__class__ is not str
                                              for c in extra):
            raise error(f"line {lineno}: bad value {extra!r} for "
                        "'comments' in 'meta' (expected a list of strings)")
        comments.extend(extra)
    return name, comments, rows


def write_jsonl(meta: Dict[str, Any], comments: Sequence[str],
                records: Iterable[Dict[str, Any]]) -> str:
    """A ``meta`` line (with ``comments`` when there are any), then one
    JSON object per record; ends with a newline."""
    if comments:
        meta = dict(meta, comments=list(comments))
    lines = [json.dumps({"meta": meta})]
    lines.extend(map(json.dumps, records))
    return "\n".join(lines) + "\n"
