"""Indented JSON text for the documents spg writes."""

from __future__ import annotations

import functools
import json

__all__ = ["dumps_indented"]

_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


@functools.lru_cache(maxsize=None)
def _flat_encode(depth: int):
    """The encode method of a C encoder that writes a container's items
    one to a line, each indented depth levels: a compact encoder whose item
    separator carries the newline and the indent."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + _INDENT * depth, ": ")).encode


def _key(key) -> str:
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return json.dumps(json.dumps(key))  # json quotes the key's own JSON text
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(value, depth: int, parts: list[str]) -> None:
    if isinstance(value, dict):
        items = value.values()
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        items = value
        opening, closing = "[", "]"
    else:
        parts.append(json.dumps(value))
        return
    if not value:
        parts.append(opening + closing)
        return
    pad = "\n" + _INDENT * (depth + 1)
    if not any(isinstance(item, _CONTAINERS) and item for item in items):
        # no nonempty container inside: the C encoder writes the items
        parts += (opening, pad, _flat_encode(depth + 1)(value)[1:-1])
    elif isinstance(value, dict):
        separator = opening + pad
        for key, item in sorted(value.items()):
            parts += (separator, _key(key), ": ")
            _emit(item, depth + 1, parts)
            separator = "," + pad
    else:
        separator = opening + pad
        for item in value:
            parts.append(separator)
            _emit(item, depth + 1, parts)
            separator = "," + pad
    parts += ("\n", _INDENT * depth, closing)


def dumps_indented(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    The standard library writes indented JSON with its pure-Python encoder.
    Here every dict or list (a tuple counts as a list) that holds no
    nonempty container goes to the C encoder whole, with its items one to a
    line, and only the containers above those are walked in Python.
    Scalars and keys are written by plain json.dumps, so floats, NaN and
    the infinities, big integers and the escapes of strings come out as
    json writes them.
    """
    parts: list[str] = []
    _emit(value, 0, parts)
    return "".join(parts)
