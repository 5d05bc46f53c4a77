"""The package's error classes, the range checks that every config object
applies to its numbers (``require_int`` for counts, ``require_number`` for
every other scalar: finite, inside its interval), and the one JSON reader: a
section is checked against a schema (``_fill``); a section that configures a
dataclass takes that dataclass's fields, types and defaults and becomes one
through ``_build``, whose errors name the section.  Configs, checkpoint
headers, skeleton files and motion files are all read so.

Every library error is an ``RmgError``: the CLI exits 3 on
``NonFiniteLoss`` and 2 on any other.  ``InvalidConfig`` (an input violates
its invariants) and ``DimensionMismatch`` (shapes or counts disagree) say
which kind of input is at fault.  ``NotTangent`` and ``AntipodalPoints`` name
the geometry's contracts: ``cmd_sweep`` writes a row for the first, and
``make_flow_batch`` redraws the prior rows that would raise the second.  A new
error class is added only for a new way a caller reacts; otherwise a raise
site takes the class of its kind and says the rest in its message."""

import dataclasses
import json
import math
import sys
import typing
from functools import cache
from numbers import Integral, Real
from types import MappingProxyType

import numpy as np


class RmgError(Exception):
    """Base class for all library errors."""


class InvalidConfig(RmgError):
    """An input violates its invariants: a config, file or argument value."""


class DimensionMismatch(RmgError):
    """Array dimensions, joint counts or parameter counts disagree with the
    layout they must fit."""


class NotTangent(RmgError):
    """A claimed tangent vector violates the tangency constraints."""


class AntipodalPoints(RmgError):
    """No unique minimizing geodesic between (near-)antipodal points."""


class NonFiniteLoss(RmgError):
    """Training produced a NaN or infinite loss or gradient norm."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


def require_int(name: str, value, minimum: int) -> None:
    """Raise InvalidConfig naming ``name`` unless ``value`` is an integer of at
    least ``minimum`` and at most ``sys.maxsize // 8``, the most entries a
    float64 array can hold; NaN, 2.5 and booleans are not integers."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise InvalidConfig(f"{name} must be an integer >= {minimum}, got {value!r}")
    require_rows(name, value, 1)


def require_number(name: str, value, low=-math.inf, high=math.inf, open_low=False) -> None:
    """Raise InvalidConfig naming ``name`` unless ``value`` is a real number,
    not a boolean, finite (NaN is not), in ``[low, high]``, or in
    ``(low, high]`` with ``open_low``."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not abs(value) <= sys.float_info.max  # an int past the float range fails too
            or not (low < value <= high if open_low else low <= value <= high)):
        interval = (f"{'(' if open_low or low == -math.inf else '['}{low:g}, "
                    f"{high:g}{']' if high < math.inf else ')'}")
        raise InvalidConfig(f"{name} must be a finite number in {interval}, got {value}")


def require_rows(name: str, rows: int, width: int) -> None:
    """Raise InvalidConfig naming ``name`` unless ``rows`` rows of ``width``
    float64 entries fit in one array: at most ``sys.maxsize // 8`` entries."""
    if rows * width > sys.maxsize // 8:
        each = "" if width == 1 else f" rows of {width} entries"
        raise InvalidConfig(f"{name} {rows}{each} is more than any array can hold")


def _is_schema_one(value) -> bool:
    """Whether ``value`` is the integer 1, the one schema a config or
    checkpoint header may declare: ``true`` and ``1.0`` are not."""
    return type(value) is int and value == 1


# the JSON reader: schema key -> (JSON type, default or REQUIRED); null is
# accepted exactly where the default is None
REQUIRED = object()

# ``np.ndarray`` stands for an array of numbers, or of arrays of numbers:
# the JSON value of a field that becomes a float array
_JSON_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
               list: "an array", dict: "an object", np.ndarray: "an array of numbers"}


def _number(value) -> bool:
    """Whether ``value`` is a number that a float holds: no boolean, and no
    integer beyond the float range."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def _numbers(value, depth: int = 2) -> bool:
    """Whether ``value`` is an array whose entries are numbers or, down to
    ``depth`` levels, such arrays.  No field nests deeper, and the bound keeps
    a line nested hundreds deep from exhausting the stack."""
    return isinstance(value, list) and all(
        _number(v) or (depth > 1 and _numbers(v, depth - 1)) for v in value)


def _check(value, typ: type, nullable: bool, where: str) -> None:
    """Raise unless ``value`` has JSON type ``typ``; an integer is a number
    if a float holds it, a boolean is neither.  The message shows at most 80
    characters of the value, which may be a whole motion file's frames."""
    if value is None and nullable:
        return
    if typ is np.ndarray:
        if _numbers(value):
            return
    elif typ is float:
        if _number(value):
            return
    elif isinstance(value, typ) and (typ is bool or not isinstance(value, bool)):
        return
    got = json.dumps(value)
    raise InvalidConfig(f"{where} must be {_JSON_NAMES[typ]}{' or null' if nullable else ''}, "
                        f"got {got if len(got) <= 80 else got[:77] + '...'}")


def _fill(doc, ctx: str, schema) -> dict:
    """``doc`` checked against ``schema``, with every default filled in."""
    _check(doc, dict, False, ctx)
    for key in doc:
        if key not in schema:
            raise InvalidConfig(f"unknown key '{key}' in {ctx}")
    out = {}
    for key, (typ, default) in schema.items():
        if key in doc:
            _check(doc[key], typ, default is None, f"{ctx}.{key}")
            out[key] = doc[key]
        elif default is REQUIRED:
            raise InvalidConfig(f"{ctx} requires '{key}'")
        else:
            out[key] = default
    return out


def _json_type(hint) -> type:
    """The JSON type of a field: ``np.ndarray`` (an array of numbers) for
    array and float-tuple fields, ``list`` for other tuples."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple and set(typing.get_args(hint)) <= {float, Ellipsis}:
        return np.ndarray
    hint = typing.get_origin(hint) or hint
    return dict if dataclasses.is_dataclass(hint) else (list if hint is tuple else hint)


@cache
def _dataclass_schema(cls, fixed: tuple = ()) -> MappingProxyType:
    """Schema entries for the fields of dataclass ``cls`` not in ``fixed``;
    computed once per dataclass, so that a read per motion frame stays cheap,
    and read-only, since every caller shares it."""
    hints = typing.get_type_hints(cls)
    return MappingProxyType({f.name: (_json_type(hints[f.name]),
                                      REQUIRED if f.default is dataclasses.MISSING else f.default)
                             for f in dataclasses.fields(cls) if f.name not in fixed})


def _build(cls, d, ctx: str, **fixed):
    """Dataclass ``cls`` from JSON section ``d`` plus the ``fixed`` fields."""
    kwargs = _fill(d, ctx, _dataclass_schema(cls, tuple(fixed)))
    try:
        return cls(**kwargs, **fixed)
    except (InvalidConfig, TypeError, ValueError) as exc:  # ValueError: a ragged array
        raise InvalidConfig(f"{ctx}: {exc}") from exc
