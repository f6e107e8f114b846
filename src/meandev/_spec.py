"""Field access for the JSON-style specs that the ``*_from_spec`` builders read."""
from __future__ import annotations


def spec_field(spec: dict, what: str, name: str, convert=float, default=None):
    """convert(spec[name]), or ``default`` when one is given and the field is absent.

    A missing field, or a value that ``convert`` rejects (wrong type, not a
    number, too large for a float), is a ValueError that names the field.
    """
    if default is not None and name not in spec:
        return default
    try:
        return convert(spec[name])
    except KeyError:
        raise ValueError(f"{what} of kind {spec.get('kind')!r} is missing the field "
                         f"{name!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} field {name!r} has a bad value: {spec[name]!r}") from None


def float_tuple(values) -> tuple:
    return tuple(float(v) for v in values)
