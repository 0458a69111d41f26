"""Positivity classification: the least sign over all minors of every order.

A square matrix is totally positive when every minor of every order is
strictly positive, and totally nonnegative when none is negative.  Every
verdict here is the least minor sign of one matrix: negative, zero,
indeterminate (a float minor inside the zero band) or positive.  The band
of an order-k minor is the one zero-band rule of :mod:`totpos.scalars` at
scale max(entry scale, 1)^k; no verdict takes a tolerance argument.

On exact input the sign comes from the bidiagonal factorization in O(n^3):
a negative entry or leading principal minor means negative; otherwise an
invertible M = L * diag(d) * U is totally nonnegative exactly when its
unitriangular factors are products of nonnegative generators over the fixed
reduced word (Cryer 1976; Lusztig 1994; Gasca and Pena 1992), and totally
positive exactly when all those parameters are positive (Whitney); a factor
the peel rejects therefore means a negative minor.  So does a vanishing
leading principal minor of an invertible matrix, since an invertible totally
nonnegative matrix has all of them positive (Cryer 1976).  Singular input
with a vanishing leading principal minor is left to the exhaustive minor
table, exponential in n, which also decides every float verdict.  That scan
reads each order of the table by one sign rule and stops after the first
order holding a negative minor, or a zero one when only strict positivity
is asked.  On exact input the table runs on integers, and each sign is read
from its integer rows with no exact minor built; ``gk_spectrum``, which
reads its compound matrices from the table that certifies total positivity,
gets each minor correctly rounded to a float from the same rows.  The table
holds at most the minors of the full table at n = 12; a larger scan, such
as any float verdict past n = 12, raises InputError.
``classify`` decides all three kinds from one sign and then asks only about
the powers for the oscillatory exponent.  By Gantmacher and Krein (1950),
a totally nonnegative matrix has a totally positive power exactly when it
is invertible and every entry a(i, i+1) and a(i+1, i) is positive, and then
its (n-1)-th power is totally positive.  So a matrix that fails this
criterion gets no exponent without any power being formed; the search
runs over the powers of one that passes, each of them invertible, so the
factorization decides each exact power in O(n^3).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import InputError, StrictnessWarning
from .linalg import Matrix, _MinorLevel, _require_invertible, _require_order, det, minor_levels
from .scalars import Scalar, _require_scalar, magnitude, minor_scale, sign_of, zero_threshold
from .whitney import _ldu, membership_uni


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


def sign_variation(vector: Sequence[Scalar]) -> int:
    """Number of strict sign changes after discarding zero entries.

    Float entries inside the zero band count as zeros.
    """
    if len(vector) == 0:
        raise InputError("sign variation needs a nonempty vector")
    for x in vector:
        _require_scalar(x)
    scale = max(magnitude(vector), 1.0)
    signs = [s for x in vector if (s := sign_of(x, scale)) != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class _Least(enum.IntEnum):
    """Least sign over a minor table, ordered so that min() combines them."""

    NEGATIVE = 0
    ZERO = 1
    INDETERMINATE = 2  # a nonzero float minor inside the zero band, or NaN
    POSITIVE = 3


def _minor_kinds(m: Matrix) -> Iterator[tuple[int, _MinorLevel, set[_Least]]]:
    """Yield (k, order-k minor table, the kinds of its minors), k = 1, 2, ....

    The one sign rule for a minor table: an exact minor takes its exact
    sign, an exact or float zero is ZERO, and a nonzero float inside the
    order-k zero band is INDETERMINATE.  Each sign is read from the table's
    rows, which hold the minors times a positive scale, so no exact minor
    is built.
    """
    scale = m.entry_scale()
    neg, zero, indet, pos = _Least
    for k, table in minor_levels(m):
        # exact minors meet a band of width 0; float rows hold the minors
        # themselves, and a NaN float minor, from overflowing products,
        # is neither side of the band: indeterminate
        t = 0 if m.is_exact else zero_threshold(minor_scale(scale, k))
        yield k, table, {
            pos if v > t else neg if v < -t else zero if v == 0 else indet
            for row in table.rows
            for v in row
        }


def _scan_minors(
    m: Matrix,
    strict: bool,
    on_level: Callable[[int, _MinorLevel], None] | None = None,
) -> _Least:
    """Least sign over every minor of a square matrix, one table per call.

    Stops after the first order holding a negative minor, and, when only
    strict positivity is asked (``strict``), also after the first holding a
    zero one.  A float minor inside the zero band is indeterminate: it does
    not stop the scan, since a later negative or zero minor still decides
    the answer.  ``on_level(k, table)`` receives each order-k table that
    did not stop the scan.
    """
    least = _Least.POSITIVE
    for k, table, kinds in _minor_kinds(m):
        least = min(least, *kinds)
        if least is _Least.NEGATIVE or (strict and least is _Least.ZERO):
            return least
        if on_level is not None:
            on_level(k, table)
    return least


def _factored_least(m: Matrix) -> _Least | None:
    """Least minor sign of an exact square matrix from its LDU factors.

    None when a leading principal minor and det(m) both vanish.  A negative
    pivot, a zero pivot of an invertible matrix (Cryer 1976) or a factor
    the peel rejects proves a negative minor (Cryer; Lusztig).
    """
    if min(map(min, map(m.row_tuple, range(m.rows)))) < 0:
        return _Least.NEGATIVE
    pivots, lower, upper = _ldu(m, positive=True)
    if lower is None:
        return _Least.NEGATIVE if pivots[-1] < 0 or det(m) != 0 else None
    low = membership_uni(lower, "lower")
    up = membership_uni(upper, "upper") if low is not None else None
    if up is None:
        return _Least.NEGATIVE
    return _Least.POSITIVE if low.strict and up.strict else _Least.ZERO


def _least_sign(m: Matrix, strict: bool) -> _Least:
    """Least minor sign: from the factorization when it decides, else a scan."""
    least = _factored_least(m) if m.is_exact else None
    return _scan_minors(m, strict) if least is None else least


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


def is_totally_nonnegative(m: Matrix) -> bool:
    """True when no minor of any order is negative."""
    if not m.is_square:
        raise InputError("total nonnegativity is defined for square matrices")
    return _least_sign(m, strict=False) > _Least.NEGATIVE


def is_totally_positive(m: Matrix) -> bool:
    """True when every minor of every order is strictly positive."""
    if not m.is_square:
        raise InputError("total positivity is defined for square matrices")
    return _is_positive(_least_sign(m, strict=True))


def monoid_generate_check(m: Matrix) -> bool:
    """True iff the matrix lies in the invertible totally nonnegative monoid.

    Equivalent to membership in the closure of products of nonnegative
    elementary generators and positive diagonals.  Singular input is a
    domain error, not a negative answer; singularity is decided on the
    exact determinant, of a float matrix's dyadic copy too.
    """
    if not m.is_square:
        raise InputError("monoid membership requires a square matrix")
    _require_invertible(m, "monoid membership test")
    return is_totally_nonnegative(m)


def variation_diminishes_on(m: Matrix, vector: Sequence[Scalar]) -> bool:
    """Check sign_variation(M v) <= sign_variation(v) for one vector."""
    if not m.is_square:
        raise InputError("variation tests are defined for square matrices")
    if len(vector) != m.cols:
        raise InputError("vector length must match the matrix size")
    return sign_variation(m.apply(vector)) <= sign_variation(vector)


def is_variation_diminishing(m: Matrix) -> bool:
    """Criterion over compounds: no order may contain entries of both signs.

    Requires invertibility, decided on the exact determinant as in
    :func:`monoid_generate_check`; equivalent to variation-diminishing
    action on all of R^n for invertible matrices.
    """
    if not m.is_square:
        raise InputError("variation tests are defined for square matrices")
    _require_invertible(m, "variation-diminishing test")
    return not any(
        _Least.NEGATIVE in kinds and _Least.POSITIVE in kinds
        for _, _, kinds in _minor_kinds(m)
    )


def is_oscillatory(m: Matrix, m_max: int | None = None) -> int | None:
    """Least power making the matrix totally positive, or None.

    Only totally nonnegative matrices qualify, and among them, by the
    Gantmacher-Krein criterion, only invertible ones whose entries a(i, i+1)
    and a(i+1, i) are all positive; for those the search is capped at
    ``m_max`` (default n - 1, floored at 1), and the (n-1)-th power is
    always totally positive, so the default cap never misses the exponent.
    """
    if not m.is_square:
        raise InputError("oscillatory classification is defined for square matrices")
    return classify(m, m_max).oscillatory_m


def classify(m: Matrix, m_max: int | None = None) -> TPClass:
    """Three-way classification with the oscillatory exponent attached.

    One least minor sign of ``m`` decides the kind.  A totally nonnegative
    ``m`` is already known not to be totally positive.  Unless it is
    invertible (det, exact on a float matrix's dyadic copy, is nonzero) with
    every entry a(i, i+1) and a(i+1, i) positive, no power of it is totally
    positive (Gantmacher-Krein) and the exponent is None; otherwise the
    search asks about its powers, from the square up to ``m_max``.  An
    ``m_max`` that is not an int >= 1 raises InputError before any work.
    """
    if m_max is not None:
        _require_order(m_max, "m_max")
    if not m.is_square:
        raise InputError("total positivity is defined for square matrices")
    least = _least_sign(m, strict=False)
    if _is_positive(least):
        return TPClass(TPKind.TOTALLY_POSITIVE, 1)
    if least is _Least.NEGATIVE:
        return TPClass(TPKind.NEITHER, None)
    # the Gantmacher-Krein criterion: otherwise no power is totally positive
    if not all(m[i, i + 1] > 0 < m[i + 1, i] for i in range(m.rows - 1)) or det(m) == 0:
        return TPClass(TPKind.TOTALLY_NONNEGATIVE_ONLY, None)
    cap = m_max if m_max is not None else max(m.rows - 1, 1)
    power = m
    for exponent in range(2, cap + 1):
        try:
            power = power @ m
        except InputError:
            # a float power past the float range has an infinitely wide zero
            # band, as do all later ones: none can be certified positive
            _is_positive(_Least.INDETERMINATE)
            break
        if _is_positive(_least_sign(power, strict=True)):
            return TPClass(TPKind.TOTALLY_NONNEGATIVE_ONLY, exponent)
    return TPClass(TPKind.TOTALLY_NONNEGATIVE_ONLY, None)
