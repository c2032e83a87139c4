"""Exact rational parsing and formatting.

All analysis-side values in this package are exact
:class:`fractions.Fraction` values at the API (arbitrary-precision, always in
lowest terms, positive denominator); the Markov core runs its products and
solves on integer numerators over one common denominator, and no float is
used anywhere. This module owns the text representation used by the
CLI and the chain-spec JSON format: ``"a/b"`` or ``"a"`` with integer parts
only, in ASCII digits. Parsing and output are exact for integers of any
size, whatever int/str digit limit the interpreter sets. Floats and booleans
are rejected everywhere an exact value is expected.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["as_exact", "format_rational", "parse_rational"]

# [0-9], not \d: \d also matches non-ASCII digits such as Arabic-Indic ones.
_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"a/b"`` or ``"a"`` into an exact Fraction.

    Raises ValueError for anything else, including decimal notation
    ("0.5"), scientific notation, zero denominators and values that are not
    strings.
    """
    match = isinstance(text, str) and _RATIONAL_RE.match(text.strip())
    if not match:
        raise ValueError(
            f"not an exact rational: {_shown(text)} (expected 'a/b' or 'a' with integer parts)"
        )
    numerator = _integer(match.group(1))
    if match.group(2) is None:
        return Fraction(numerator)
    denominator = _integer(match.group(2))
    if denominator == 0:
        raise ValueError(f"zero denominator in rational: {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"a/b"`` in lowest terms, or ``"a"`` for integers.

    Exact for any size, whatever the interpreter's int-to-str digit limit. An
    int is rendered too; any other value, a bool or a float included, raises
    ValueError.
    """
    if not isinstance(value, (Fraction, int)) or isinstance(value, bool):
        raise ValueError(f"format_rational needs a Fraction or an int, got {_shown(value)}")
    num = _decimal(value.numerator)
    return num if value.denominator == 1 else f"{num}/{_decimal(value.denominator)}"


def _decimal(n: int) -> str:
    """``str(n)``, split into halves with divmod while n is too big for str."""
    try:
        return str(n)
    except ValueError:  # more digits than the interpreter's int/str limit
        if n < 0:
            return "-" + _decimal(-n)
        k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
        high, low = divmod(n, 10**k)
        return _decimal(high) + _decimal(low).zfill(k)


def _shown(value) -> str:
    """``repr(value)``, with an int and each part of a Fraction written whole
    by :func:`_decimal`."""
    if type(value) is Fraction:
        return f"Fraction({_decimal(value.numerator)}, {_decimal(value.denominator)})"
    return _decimal(value) if type(value) is int else repr(value)


def _integer(text: str) -> int:
    """``int(text)`` for an optionally signed run of ASCII digits, split into
    halves while it is too long for int; the inverse of :func:`_decimal`."""
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter's int/str limit
        if text[0] == "-":
            return -_integer(text[1:])
        k = len(text) // 2
        return _integer(text[:-k]) * 10**k + _integer(text[-k:])


def as_exact(value: Fraction | int | str) -> Fraction:
    """Coerce an exact input (Fraction, int, or rational string) to Fraction.

    Floats are refused: silently accepting them would smuggle binary rounding
    into identities that are checked by exact comparison. Booleans are
    refused too: ``True`` is an int to Python but never a probability here.
    Any other type raises TypeError; a malformed string raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (bool, float)):
        refused = "booleans are not" if isinstance(value, bool) else "floats are not"
    else:
        refused = "only Fractions, ints and strings are"
    raise TypeError(
        f"{refused} accepted, got {type(value).__name__}: {_shown(value)};"
        ' write rationals as strings like "1/2"'
    )


def require_int(name: str, value, low: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int, bools refused, and at
    least ``low`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {_shown(value)}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {_decimal(value)}")


def _required(name: str, kind: type, value):
    """``value``; ValueError naming ``kind`` unless it is one, so that an
    entry point refuses a value of another type before reading a field."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {_shown(value)}")
    return value
