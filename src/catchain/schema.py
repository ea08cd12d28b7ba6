"""Typed fields of a JSON config: each field has one check and one default.

A block is a dict of :class:`Field` entries; :func:`read_fields` checks a
JSON object against it and returns every field's value with the defaults
filled in.  Every failure is a :class:`ConfigError` whose message names the
field as ``<block>.<key>``.  The tables themselves live with the commands
that read them (``catchain.cli``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple


class ConfigError(ValueError):
    pass


REQUIRED = object()


class Field(NamedTuple):
    check: Callable[[Any, str], Any]  # (value, name) -> the value the commands use
    default: Any = REQUIRED  # None: the field may be left out
    nullable: bool = False  # JSON null stands for the default


class Check(NamedTuple):
    """``ok`` tests a value, ``wants`` says what it must be and ``to`` maps it
    to what the commands use; ``kind`` and ``arg`` describe the check."""

    kind: str
    arg: Any
    ok: Callable[[Any], bool]
    wants: str
    to: Callable | None = None

    def __call__(self, value, name):
        if not self.ok(value):
            raise ConfigError(f"{name} must be {self.wants}, got {value!r}")
        return value if self.to is None else self.to(value)


def _finite(value) -> bool:
    """Whether ``value`` is a JSON number, not a boolean, with a finite float value."""
    try:
        return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _shape(value, depth: int):
    """Shape of a finite number (``()``) or of a rectangular list of them
    nested at most ``depth`` deep; ``None`` for anything else."""
    if not isinstance(value, list):
        return () if _finite(value) else None
    shapes = {_shape(v, depth - 1) for v in value} if depth else {None}
    if None in shapes or len(shapes) > 1:
        return None
    return (len(value), *shapes.pop()) if shapes else (0,)


def integer(minimum: int) -> Check:
    return Check(
        "integer",
        minimum,
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum,
        f"an integer >= {minimum}",
    )


def real(low: float = -math.inf, closed: bool = False, also: tuple = ()) -> Check:
    """A finite number above ``low`` (or equal to it when ``closed``), or one
    of the values in ``also`` as it is."""
    bound = "" if low == -math.inf else f" {'>=' if closed else '>'} {low:g}"
    return Check(
        "real",
        (low, closed, also),
        lambda v: v in also or (_finite(v) and (v >= low if closed else v > low)),
        f"a finite number{bound}" + "".join(f" or {a!r}" for a in also),
    )


def one_of(choices) -> Check:
    """One of the names in ``choices``; a dict maps each name to the value the
    commands use."""
    return Check(
        "one_of",
        tuple(choices),
        lambda v: isinstance(v, str) and v in choices,
        " or ".join(map(repr, choices)),
        choices.get if isinstance(choices, dict) else None,
    )


def array(depth: int) -> Check:
    """A finite number or a rectangular list of finite numbers nested at most
    ``depth`` deep; the shape is left to the object built from it."""
    return Check(
        "array",
        depth,
        lambda v: _shape(v, depth) is not None,
        f"a finite number or a rectangular list of them at most {depth} deep",
    )


BOOLEAN = Check("boolean", None, lambda v: isinstance(v, bool), "true or false")
PATH = Check("path", None, lambda v: isinstance(v, str) and v != "", "a string path")


def read_fields(fields: dict, block, where: str) -> dict:
    """Check ``block`` (the config root when ``where`` is empty) against
    ``fields``: every field's value, with defaults filled in."""
    what = f"{where} block" if where else "config root"
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be an object, got {block!r}")
    unknown = set(block) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {what}")
    values = {}
    for key, field in fields.items():
        name = f"{where}.{key}" if where else key
        value = block.get(key)
        if value is None and (key not in block or field.nullable):
            if field.default is REQUIRED:
                raise ConfigError(f"{name} is required")
            if field.default is None:
                values[key] = None
                continue
            value = field.default
        values[key] = field.check(value, name)
    return values
