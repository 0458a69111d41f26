"""Positivity classification via exhaustive minors of every order.

A square matrix is totally positive when every minor of every order is
strictly positive, and totally nonnegative when none is negative.  Checking
all of them is exponential in n but exact, which is the point: these
functions are the ground truth the rest of the library is tested against.

Every verdict reads one minor table per matrix.  The table is built order by
order, and one scan finds its least sign (negative, zero, indeterminate in
the float zero band, or positive), stopping at the first negative minor, or
at the first zero one when only strict positivity is asked.  ``classify``
decides all three kinds from a single scan and then scans only the powers
for the oscillatory exponent; ``gk_spectrum`` reads its compound matrices
from the table that certifies total positivity.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InputError, StrictnessWarning
from .linalg import Matrix, _require_invertible, minor_levels
from .scalars import DEFAULT_POLICY, Scalar, TolerancePolicy, minor_scale, sign_of


class TPKind(enum.Enum):
    TOTALLY_POSITIVE = "TotallyPositive"
    TOTALLY_NONNEGATIVE_ONLY = "TotallyNonNegativeOnly"
    NEITHER = "Neither"


@dataclass(frozen=True)
class TPClass:
    """Classification verdict plus the oscillatory exponent when one exists.

    ``oscillatory_m`` is the least power for which every minor of the power
    turns strictly positive; totally positive inputs report 1, and inputs
    whose powers never get there report None.
    """

    kind: TPKind
    oscillatory_m: int | None

    def __post_init__(self) -> None:
        if self.kind is TPKind.TOTALLY_POSITIVE and self.oscillatory_m != 1:
            raise InputError("totally positive matrices have exponent 1")
        if self.kind is TPKind.NEITHER and self.oscillatory_m is not None:
            raise InputError("matrices outside the nonnegative class have no exponent")


def sign_variation(
    vector: Sequence[Scalar], policy: TolerancePolicy | None = None
) -> int:
    """Number of strict sign changes after discarding zero entries.

    Float entries inside the policy's zero band count as zeros.
    """
    if len(vector) == 0:
        raise InputError("sign variation needs a nonempty vector")
    p = policy or DEFAULT_POLICY
    scale = max((abs(float(x)) for x in vector), default=1.0)
    signs = [s for x in vector if (s := sign_of(x, p, max(scale, 1.0))) != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class _Least(enum.IntEnum):
    """Least sign over a minor table, ordered so that min() combines them."""

    NEGATIVE = 0
    ZERO = 1
    INDETERMINATE = 2  # a nonzero float minor inside the zero band
    POSITIVE = 3


def _scan_minors(
    m: Matrix,
    policy: TolerancePolicy,
    strict: bool,
    on_level: Callable[[int, dict], None] | None = None,
) -> _Least:
    """Least sign over every minor of a square matrix, one table per call.

    Stops at the first negative minor, and, when only strict positivity is
    asked (``strict``), also at the first minor decided to be zero.  A float
    minor inside the zero band is indeterminate: it does not stop the scan,
    since a later negative or zero minor still decides the answer.
    ``on_level(k, table)`` receives each order-k table once all its minors
    have been scanned without stopping.
    """
    scale = m.entry_scale()
    least = _Least.POSITIVE
    for k, table in minor_levels(m):
        level_scale = minor_scale(scale, k)
        for value in table.values():
            s = sign_of(value, policy, level_scale)
            if s < 0:
                return _Least.NEGATIVE
            if s == 0:
                if m.is_exact or value == 0.0:
                    if strict:
                        return _Least.ZERO
                    least = _Least.ZERO
                else:
                    least = min(least, _Least.INDETERMINATE)
        if on_level is not None:
            on_level(k, table)
    return least


def _is_positive(least: _Least) -> bool:
    """Strict positivity from a scan; indeterminate warns and resolves to False."""
    if least is _Least.INDETERMINATE:
        warnings.warn(
            "a minor fell inside the zero band; strict positivity is "
            "indeterminate at this tolerance and resolves to False",
            StrictnessWarning,
            stacklevel=3,
        )
    return least is _Least.POSITIVE


def is_totally_nonnegative(m: Matrix, policy: TolerancePolicy | None = None) -> bool:
    """True when no minor of any order is negative."""
    if not m.is_square:
        raise InputError("total nonnegativity is defined for square matrices")
    return _scan_minors(m, policy or DEFAULT_POLICY, strict=False) > _Least.NEGATIVE


def is_totally_positive(m: Matrix, policy: TolerancePolicy | None = None) -> bool:
    """True when every minor of every order is strictly positive."""
    if not m.is_square:
        raise InputError("total positivity is defined for square matrices")
    return _is_positive(_scan_minors(m, policy or DEFAULT_POLICY, strict=True))


def variation_diminishes_on(
    m: Matrix, vector: Sequence[Scalar], policy: TolerancePolicy | None = None
) -> bool:
    """Check sign_variation(M v) <= sign_variation(v) for one vector."""
    if not m.is_square:
        raise InputError("variation tests are defined for square matrices")
    if len(vector) != m.cols:
        raise InputError("vector length must match the matrix size")
    p = policy or DEFAULT_POLICY
    return sign_variation(m.apply(vector), p) <= sign_variation(vector, p)


def is_variation_diminishing(m: Matrix, policy: TolerancePolicy | None = None) -> bool:
    """Criterion over compounds: no order may contain entries of both signs.

    Requires invertibility; equivalent to variation-diminishing action on
    all of R^n for invertible matrices.
    """
    if not m.is_square:
        raise InputError("variation tests are defined for square matrices")
    p = policy or DEFAULT_POLICY
    _require_invertible(m, p, "variation-diminishing test")
    scale = m.entry_scale()
    for k, table in minor_levels(m):
        has_pos = False
        has_neg = False
        level_scale = minor_scale(scale, k)
        for value in table.values():
            s = sign_of(value, p, level_scale)
            if s > 0:
                has_pos = True
            elif s < 0:
                has_neg = True
            if has_pos and has_neg:
                return False
    return True


def is_oscillatory(
    m: Matrix, m_max: int | None = None, policy: TolerancePolicy | None = None
) -> int | None:
    """Least power making the matrix totally positive, or None.

    Only totally nonnegative matrices qualify; the search is capped at
    ``m_max`` (default n - 1, the classical sufficient bound, floored at 1).
    """
    if not m.is_square:
        raise InputError("oscillatory classification is defined for square matrices")
    if m_max is not None and m_max < 1:
        raise InputError("m_max must be at least 1")
    return classify(m, m_max, policy).oscillatory_m


def classify(
    m: Matrix, m_max: int | None = None, policy: TolerancePolicy | None = None
) -> TPClass:
    """Three-way classification with the oscillatory exponent attached.

    One scan of ``m`` decides the kind.  A totally nonnegative ``m`` is
    already known not to be totally positive, so the exponent search scans
    only its powers, from the square up to ``m_max``.
    """
    if not m.is_square:
        raise InputError("total positivity is defined for square matrices")
    p = policy or DEFAULT_POLICY
    least = _scan_minors(m, p, strict=False)
    if _is_positive(least):
        return TPClass(TPKind.TOTALLY_POSITIVE, 1)
    if least is _Least.NEGATIVE:
        return TPClass(TPKind.NEITHER, None)
    cap = m_max if m_max is not None else max(m.rows - 1, 1)
    if cap < 1:
        raise InputError("m_max must be at least 1")
    power = m
    for exponent in range(2, cap + 1):
        power = power @ m
        if _is_positive(_scan_minors(power, p, strict=True)):
            return TPClass(TPKind.TOTALLY_NONNEGATIVE_ONLY, exponent)
    return TPClass(TPKind.TOTALLY_NONNEGATIVE_ONLY, None)
