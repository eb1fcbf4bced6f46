"""Canonical JSON encoding: exact rationals as "p/q" strings, integers
bare, keys sorted.  Emitted documents reserialize byte-identically."""

from __future__ import annotations

import json
from fractions import Fraction
from numbers import Rational

from .linalg import rational


def jsonable(obj):
    """Recursively convert a report to JSON-native values, exactly: an exact
    int or bool, a str or None as itself, a Fraction as an int or "p/q", a
    dict with str keys, a list or a tuple by its items.  Anything else (a
    float, another int subclass such as a ``fock.ModeSlot``, whose JSON
    would be its bare int code, a key that is not a str, an object) raises
    TypeError."""
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if type(obj) in (int, bool) or isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError(f"JSON object keys are str, got {sorted(map(repr, obj))}")
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    raise TypeError(f"no exact JSON for {type(obj).__name__} {obj!r}")


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or a bare integer string, canonical; rejects floats."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"rational expected, got {text!r}")
    return rational(Fraction(text))
