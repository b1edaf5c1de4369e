"""How a JSON document value becomes a validated field, for configs and phantoms.

A document object builds a target (a dataclass or function), and its keys
are the target's parameter names. A parameter's annotation says what its key
must hold: `float` a finite JSON number (booleans rejected), `int` an
integer, `str`, `list` or `dict` a string, array or object, `Path` a
string, `Tuple[...]` an array read element by element (fixed length unless
`Tuple[X, ...]`), a dataclass an object that builds it, and
`Optional[X]` null or what `X` reads. Its default is the key's default,
used as it is when the key is absent. Every violation is a `ConfigError`
that names the key.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import numbers
import sys
import typing
from pathlib import Path

from .errors import ConfigError, InvalidInputError

REQUIRED = inspect.Parameter.empty
_KINDS = {float: "a number", int: "an integer", str: "a string", list: "a list",
          dict: "an object"}


def integer(value) -> bool:
    """True for an integer that is not a bool, as an `int` document key holds."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def read_text(path: Path, what: str) -> str:
    """The UTF-8 text in `path`; an unreadable file raises OSError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"bad {what} file {path}: {exc}") from exc


def read_document(path: Path, what: str) -> dict:
    """The JSON object in `path`; an unreadable file raises OSError."""
    text = read_text(path, what)
    try:
        return _value(json.loads(text), f"{what} document", dict)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad {what} JSON {path}: {exc}") from exc


@functools.lru_cache(maxsize=None)  # inspect.signature costs ~50 us a call
def _parameters(target):
    return inspect.signature(target).parameters


def keys(target) -> tuple:
    """`target`'s parameter names: the keys of the document object it is built from."""
    return tuple(_parameters(target))


def schema_default(target, name: str):
    """Default of `target`'s parameter `name`; REQUIRED if it has none."""
    return _parameters(target)[name].default


@functools.lru_cache(maxsize=None)
def _hints(target) -> dict:
    return typing.get_type_hints(target)


def read(raw: dict, where: str, key: str, hint, default=REQUIRED):
    """The one reader of a document field: `raw[key]` checked against `hint`,
    or `default` as it is when `raw` has no `key`."""
    name = f"{where}.{key}" if where else key
    if key in raw:
        return _value(raw[key], name, hint)
    if default is REQUIRED:
        raise ConfigError(f"'{name}' is required")
    return default


def _value(value, name: str, hint):
    if hint in _KINDS:
        kind = (int, float) if hint is float else hint
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"'{name}' must be {_KINDS[hint]}")
        if hint is float:
            if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past float range
                raise ConfigError(f"'{name}' must be finite")
            return float(value)
        return value
    if hint is Path:
        return Path(_value(value, name, str))
    if dataclasses.is_dataclass(hint):
        return build(hint, value, name)
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        return None if value is None else _value(value, name, typing.get_args(hint)[0])
    items = typing.get_args(hint)  # Tuple[...]
    if not isinstance(value, list):
        raise ConfigError(f"'{name}' must be a list")
    if items[-1] is Ellipsis:
        items = items[:1] * len(value)
    elif len(value) != len(items):
        raise ConfigError(f"'{name}' must have {len(items)} entries")
    return tuple(_value(v, f"{name}[{i}]", item) for i, (v, item) in enumerate(zip(value, items)))


def build(target, raw, where: str, **given):
    """Construct `target` from the JSON object `raw`, one key per parameter.

    `raw` may hold any of `target`'s parameter names; those passed in `given`
    are not read from it. `where` names the object in messages, and "" is the
    config document itself.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}' must be an object")
    unknown = set(raw) - set(keys(target))
    if unknown:
        place = f"'{where}'" if where else "the config"
        raise ConfigError(f"unknown key(s) in {place}: {sorted(unknown)}")
    hints = _hints(target)
    kwargs = {name: read(raw, where, name, hints[name], schema_default(target, name))
              for name in keys(target) if name not in given}
    try:
        return target(**kwargs, **given)
    except InvalidInputError as exc:
        raise ConfigError(f"'{where}': {exc}") from exc
