"""The JSON spec format, read and written in this module only.

Each family keeps one table ``{kind: (class, fields)}`` beside its classes, where
``fields`` maps each JSON name to ``(attribute, reader)``; the backtest config's,
in ``portfolio``, is a bare ``fields`` table with no kind.  A field is optional
exactly when its class gives the attribute a default.  Every value passes through
``read``, so an unknown key, a missing field, or a value its reader refuses (a
boolean, a string for a number, a non-number in a list, a fractional whole number)
is a ValueError that names the field; so is a nested spec's own error, as of the
backtest config's ``g``.

``NumericsError`` lives here too, so that the CLI and every layer share one
class without importing a layer for it.
"""
from __future__ import annotations

from dataclasses import MISSING, fields


class NumericsError(RuntimeError):
    """Raised when a computation cannot return a trustworthy finite number: a
    population integral that is not finite or whose tail decays too slowly, a
    Monte Carlo run that cannot resolve its estimates' spread, a portfolio or
    Markowitz solve left open or not certified, or a non-finite CLI output."""


def number(value) -> float:
    """A JSON number as a float; a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    return float(value)


def numbers(value) -> tuple:
    """A JSON list of numbers as a tuple of floats."""
    if not isinstance(value, list):
        raise TypeError
    return tuple(number(v) for v in value)


def whole(value) -> int:
    """A JSON number with no fractional part, as an int."""
    if not number(value).is_integer():
        raise TypeError
    return int(value)


def text(value) -> str:
    if not isinstance(value, str):
        raise TypeError
    return value


def read(cls, table: dict, spec: dict, what: str):
    """cls(**the fields of spec), each converted by its reader in ``table``."""
    for name in spec:
        if name not in table:
            raise ValueError(f"{what} has an unknown field {name!r}")
    optional = {f.name for f in fields(cls)
                if f.default is not MISSING or f.default_factory is not MISSING}
    values = {}
    for name, (attr, reader) in table.items():
        if name in spec:
            try:
                values[attr] = reader(spec[name])
            except (TypeError, OverflowError):
                raise ValueError(f"{what} has a bad value for the field {name!r}: "
                                 f"{spec[name]!r}") from None
            except ValueError as exc:  # a nested spec's own message, as of the config's g
                raise ValueError(f"{what} has a bad value for the field {name!r}: "
                                 f"{exc}") from None
        elif attr not in optional:
            raise ValueError(f"{what} is missing the field {name!r}")
    return cls(**values)


def build(spec, noun: str, kinds: dict):
    """The object that a spec of one family describes, e.g. {"kind": "lomax", "theta": 4}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"{noun} spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {noun} kind: {kind!r}")
    cls, table = kinds[kind]
    return read(cls, table, {k: v for k, v in spec.items() if k != "kind"},
                f"{noun} spec of kind {kind!r}")


def spec_of(obj, kinds: dict) -> dict:
    """The spec that builds obj back; the first kind of its class wins over an alias."""
    for kind, (cls, table) in kinds.items():
        if type(obj) is cls:
            spec = {"kind": kind}
            for name, (attr, _) in table.items():
                value = getattr(obj, attr)
                spec[name] = list(value) if isinstance(value, tuple) else value
            return spec
    raise NotImplementedError(f"{type(obj).__name__} has no spec kind")
