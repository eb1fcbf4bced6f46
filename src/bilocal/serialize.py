"""Canonical JSON encoding: exact rationals as "p/q" strings, integers
bare, keys sorted.  Emitted documents reserialize byte-identically."""

from __future__ import annotations

import json
from fractions import Fraction
from numbers import Rational

from .linalg import rational


def jsonable(obj):
    """Recursively convert reports to JSON-native values."""
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or isinstance(obj, int) or isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if hasattr(obj, "to_json"):
        return jsonable(obj.to_json())
    return str(obj)


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or a bare integer string, canonical; rejects floats."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"rational expected, got {text!r}")
    return rational(Fraction(text))
