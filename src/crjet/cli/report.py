"""Canonical report rendering.

Reports are plain trees of dicts, lists and scalars; a tuple of scalars is
a scalar too, rendered as (a, b).  The text form sorts every key, renders
exact rationals as p/q, keeps floats in shortest round-trip form, and
never embeds timestamps or environment data, so the same tree always
produces the same bytes.  The JSON form converts the exact scalar types
and tuples to their canonical strings and delegates the rest to the
standard encoder with sorted keys.  Every value is rendered here, so an
integer of more digits than Python prints fails in emit alone.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ..series import CScalar, Unbounded

SCHEMA_VERSION = 1

_SCALARS = (str, bool, int, float, Fraction, CScalar, Unbounded,
            type(None))


def scalar_text(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(scalar_text(v) for v in value) + ")"
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, CScalar):
        return value.render()
    return str(value)  # str of a float is its shortest round-trip form


def _is_scalar(value) -> bool:
    if isinstance(value, tuple):
        return all(_is_scalar(v) for v in value)
    return isinstance(value, _SCALARS)


def _block(node, indent) -> list:
    pad = " " * indent
    lines = []
    if isinstance(node, dict):
        for key in sorted(node):
            value = node[key]
            if _is_scalar(value):
                lines.append(f"{pad}{key}: {scalar_text(value)}")
            elif isinstance(value, dict) and not value:
                lines.append(f"{pad}{key}: {{}}")
            elif isinstance(value, list) and not value:
                lines.append(f"{pad}{key}: []")
            elif isinstance(value, list) \
                    and all(_is_scalar(v) for v in value):
                inner = ", ".join(scalar_text(v) for v in value)
                lines.append(f"{pad}{key}: [{inner}]")
            else:
                lines.append(f"{pad}{key}:")
                lines.extend(_block(value, indent + 2))
        return lines
    if isinstance(node, list):
        for item in node:
            if _is_scalar(item):
                lines.append(f"{pad}- {scalar_text(item)}")
            else:
                sub = _block(item, indent + 2)
                lines.append(pad + "- " + sub[0].lstrip())
                lines.extend(sub[1:])
        return lines
    raise TypeError(f"unsupported report node {type(node).__name__}")


def _jsonable(node):
    if isinstance(node, dict):
        return {key: _jsonable(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_jsonable(value) for value in node]
    if isinstance(node, (tuple, CScalar, Unbounded, Fraction)):
        return scalar_text(node)
    return node


def emit(tree, json_mode=False) -> str:
    if json_mode:
        return json.dumps(_jsonable(tree), sort_keys=True, indent=2) + "\n"
    return "\n".join(line.rstrip() for line in _block(tree, 0)) + "\n"
