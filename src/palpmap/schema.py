"""How a JSON document value becomes a validated field, for configs, phantoms and meshes.

A schema row maps document keys to the parameters of a target (a dataclass
or function). A parameter's annotation says what its key must hold: `float`
a finite JSON number (booleans rejected), `int` an integer, `str`, `list` or
`dict` a string, array or object, and `Tuple[...]` an array read element by
element (fixed length unless `Tuple[X, ...]`). Its default is the key's
default. Every violation is a `ConfigError` that names the key.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import typing
from pathlib import Path
from typing import Optional

from .errors import ConfigError, InvalidInputError

REQUIRED = inspect.Parameter.empty
_KINDS = {float: "a number", int: "an integer", str: "a string", list: "a list",
          dict: "an object"}


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


def reject_unknown(data: dict, allowed: set, where: str):
    """Raise ConfigError naming the keys of `data` outside `allowed`."""
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


@functools.lru_cache(maxsize=None)  # inspect.signature costs ~50 us a call
def schema_default(target, name: str):
    """Default of `target`'s parameter `name`; REQUIRED if it has none."""
    return inspect.signature(target).parameters[name].default


@functools.lru_cache(maxsize=None)
def _hints(target) -> dict:
    return typing.get_type_hints(target)


def read(raw: dict, where: str, key: str, hint, default=REQUIRED):
    """The one reader of a document field: `raw[key]` checked against `hint`."""
    return _value(raw.get(key, default), f"{where}.{key}" if where else key, hint)


def _value(value, name: str, hint):
    if value is REQUIRED:
        raise ConfigError(f"'{name}' is required")
    if hint not in _KINDS:  # Tuple[...]
        items = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):  # tuple: a default
            raise ConfigError(f"'{name}' must be a list")
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ConfigError(f"'{name}' must have {len(items)} entries")
        return tuple(_value(v, f"{name}[{i}]", item)
                     for i, (v, item) in enumerate(zip(value, items)))
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        raise ConfigError(f"'{name}' must be {_KINDS[hint]}")
    if hint is float:
        if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past float range
            raise ConfigError(f"'{name}' must be finite")
        return float(value)
    return value


def build(target, keys: dict, raw, where: str, allowed: Optional[set] = None, **given):
    """Construct `target` from the JSON object `raw` through the row `keys`.

    `raw` may hold only `keys`, or `allowed` where it feeds more than one row;
    `given` passes the parameters that are not document fields.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}' must be an object")
    reject_unknown(raw, set(keys) if allowed is None else allowed, f"'{where}'")
    hints = _hints(target)
    kwargs = {name: read(raw, where, key, hints[name], schema_default(target, name))
              for key, name in keys.items()}
    try:
        return target(**kwargs, **given)
    except InvalidInputError as exc:
        raise ConfigError(f"'{where}': {exc}") from exc
