"""Scalar domains: exact rationals, and floats under one zero band.

Every public operation in the library runs on one of two backends.  The exact
backend uses ``int``/``fractions.Fraction`` entries and decides signs exactly.
A float is an exact dyadic rational, and every elimination (determinant,
rank, inverse, solve, kernel, LDU, peel, flag representative, eigenbasis
refinement) runs on that exact value, never reading a tolerance.  The band
``_ZERO_BAND * (1 + |scale|)`` is read in three places only: the sign rule of
a float minor table (:mod:`totpos.classify`, so float positivity verdicts),
:func:`totpos.classify.sign_variation`, and
:meth:`totpos.linalg.Matrix.approx_equal`.  There a float inside the band is
zero, which turns "is this minor positive?" into a three-way question.  The
band is one private constant, the same for every call; :func:`zero_threshold`
and :func:`is_zero` are the only code that reads it.  Callers that need a
boolean collapse the indeterminate band pessimistically and emit a
:class:`totpos.errors.StrictnessWarning`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

from .errors import InputError

Scalar = Union[int, Fraction, float]


def is_exact_scalar(x: object) -> bool:
    """True for int/Fraction (bool excluded), false for float and anything else."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _require_scalar(x: object) -> None:
    """The entry rule: an int, Fraction or finite float, never a bool or str."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, float)):
        raise InputError(f"entry {x!r} is not a supported scalar")
    if isinstance(x, float) and not math.isfinite(x):
        raise InputError("float entries must be finite, not NaN or infinite")


# Absolute and relative width of the float zero band.
_ZERO_BAND = 1e-9


def zero_threshold(scale: float) -> float:
    """Largest |x| a float backend reads as zero at the given scale."""
    return _ZERO_BAND + _ZERO_BAND * abs(scale)


def is_zero(x: float, scale: float) -> bool:
    """True when the float x lies inside the zero band at the given scale,
    or is NaN, which no band excludes."""
    return not abs(x) > zero_threshold(scale)


def magnitude(values: Iterable[Scalar]) -> float:
    """Max |x| over nonempty values, the scale of zero-band tests.

    An exact value past the float range saturates it to inf; exact sign
    decisions never read the scale.
    """
    try:
        return max(abs(float(x)) for x in values)
    except OverflowError:
        return math.inf


def minor_scale(entry_scale: float, k: int) -> float:
    """Zero-band scale of an order-k minor: max(entry_scale, 1)**k.

    Past the float range it saturates to inf, a band that takes in every
    finite value.
    """
    try:
        return max(entry_scale, 1.0) ** k
    except OverflowError:
        return math.inf


def sign_of(x: Scalar, scale: float = 1.0) -> int:
    """Sign in {-1, 0, +1}; floats inside the zero band flatten to 0."""
    if is_exact_scalar(x):
        return (x > 0) - (x < 0)
    if is_zero(float(x), scale):
        return 0
    return 1 if x > 0 else -1


# Python's default limit on the digits of an int parsed from a string, checked
# here on every input integer (a mantissa, each side of p/q, a JSON integer)
# so it holds where the interpreter's limit is lifted; the same bound on
# decimal exponents keeps "1e100000000" from building a 10**8-digit integer.
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)\Z")


def _echo(token: str) -> str:
    """A token as an error quotes it: its repr, cut to its first 20 characters and ...
    when it is longer."""
    return repr(token) if len(token) <= 20 else f"{token[:20]!r}..."


def parse_scalar(text: str, exact: bool = True) -> Scalar:
    """Parse ``int``, ``p/q`` or decimal notation.

    The exact backend maps decimals to the rational they denote, so "0.25"
    becomes 1/4 with no binary rounding.  Over 4300 digits in a mantissa or a
    side of p/q, or an exponent past 4300, is refused before it is built.
    """
    s = text.strip()
    if not s:
        raise InputError("empty scalar")
    exponent = _EXPONENT.search(s)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "")
        if len(digits) > len(str(_MAX_DIGITS)) or int(digits or 0) > _MAX_DIGITS:
            raise InputError(
                f"scalar {_echo(text)} has a decimal exponent beyond "
                f"{_MAX_DIGITS} in magnitude"
            )
    mantissa = s if exponent is None else s[: exponent.start()]
    if any(sum(map(str.isdecimal, side)) > _MAX_DIGITS for side in mantissa.split("/")):
        raise InputError(f"scalar {_echo(s)} has more than {_MAX_DIGITS} digits")
    try:
        value = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse scalar {_echo(text)}") from exc
    if exact:
        return value
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"scalar {_echo(text)} is outside the float range") from None


def format_scalar(x: Scalar) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def as_fraction(x: Scalar) -> Fraction:
    """Exact conversion; floats convert via their binary expansion."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)
