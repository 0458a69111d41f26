"""Positivity classification via exhaustive minors of every order.

A square matrix is totally positive when every minor of every order is
strictly positive, and totally nonnegative when none is negative.  Checking
all of them is exponential in n but exact, which is the point: these
functions are the ground truth the rest of the library is tested against.
The minor table is built order by order and the scan aborts on the first
witness, so the common negative case is cheap.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, SingularityError, StrictnessWarning
from .linalg import Matrix, det, minor_levels
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


def _scan_minors(
    m: Matrix, policy: TolerancePolicy, mode: str
) -> bool:
    """mode='positive': all minors > 0; mode='nonnegative': none < 0."""
    scale = m.entry_scale()
    indeterminate = False
    for k, table in minor_levels(m):
        level_scale = minor_scale(scale, k)
        for value in table.values():
            s = sign_of(value, policy, level_scale)
            if s < 0:
                return False
            if mode == "positive" and s == 0:
                if not m.is_exact and value != 0.0:
                    indeterminate = True
                else:
                    return False
    if indeterminate:
        warnings.warn(
            "a minor fell inside the zero band; strict positivity is "
            "indeterminate at this tolerance and resolves to False",
            StrictnessWarning,
            stacklevel=3,
        )
        return False
    return True


def is_totally_nonnegative(m: Matrix, policy: TolerancePolicy | None = None) -> bool:
    """True when no minor of any order is negative."""
    if not m.is_square:
        raise InputError("total nonnegativity is defined for square matrices")
    return _scan_minors(m, policy or DEFAULT_POLICY, "nonnegative")


def is_totally_positive(m: Matrix, policy: TolerancePolicy | None = None) -> bool:
    """True when every minor of every order is strictly positive."""
    if not m.is_square:
        raise InputError("total positivity is defined for square matrices")
    return _scan_minors(m, policy or DEFAULT_POLICY, "positive")


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
    scale = m.entry_scale()
    if sign_of(det(m, p), p, minor_scale(scale, m.rows)) == 0:
        raise SingularityError("variation-diminishing test requires invertibility")
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
    p = policy or DEFAULT_POLICY
    cap = m_max if m_max is not None else max(m.rows - 1, 1)
    if cap < 1:
        raise InputError("m_max must be at least 1")
    if not is_totally_nonnegative(m, p):
        return None
    power = m
    for exponent in range(1, cap + 1):
        if is_totally_positive(power, p):
            return exponent
        power = power @ m
    return None


def classify(
    m: Matrix, m_max: int | None = None, policy: TolerancePolicy | None = None
) -> TPClass:
    """Three-way classification with the oscillatory exponent attached."""
    p = policy or DEFAULT_POLICY
    if is_totally_positive(m, p):
        return TPClass(TPKind.TOTALLY_POSITIVE, 1)
    if is_totally_nonnegative(m, p):
        return TPClass(
            TPKind.TOTALLY_NONNEGATIVE_ONLY, is_oscillatory(m, m_max, p)
        )
    return TPClass(TPKind.NEITHER, None)
