"""Positive curves of flags over the circle, and convexity of moment curves.

Points of the circle are rational parameters plus a single point at
infinity (the one-point compactification of the line); cyclic order lists
finite parameters increasingly and then infinity.  Four distinct points
split into two pairs of crossing chords, and a quadruple of flags sitting
over such points is positive when some change of basis sends the first
reference flag to the standard flag, the second to the reversed flag, and
the two side flags into the open positive cell and its primed companion.
Such bases differ by diagonal matrices, and positive rescalings never
change those memberships.  A flag in the open cell has a lower
unitriangular representative with every entry below the diagonal positive,
so the signs of that representative's first column fix the one sign class
worth testing.  The lower unitriangular group fixes the reversed flag and
moves the standard one onto every flag opposed to it, so this is the
positive quadruple of Fock and Goncharov (Publ. Math. IHES 2006; Guichard
and Wienhard, ECM 2016): the side flags come from a totally positive
element of that group and from the inverse of one, whether or not a point
is infinity.  They prove that a cyclic configuration is positive iff its
coordinates for one triangulation are, and that its cyclically ordered
parts are then positive; a triangle's coordinates read its flags, a
diagonal's those of the two triangles beside it.  Each fan quadrilateral
(1, i, i+1, i+2), with the diagonal (1, i+1) as its reference pair, holds
two fan triangles and the diagonal between them; the k-3 of them cover the
fan, so when they pass, every quadruple passes.

The model positive curve is the osculating flag curve of the moment curve
t -> (1, t, t^2, ..., t^m); its flags come from the scaled derivative
columns, which form a unit-determinant triangular matrix.  The same moment
curve is convex: no hyperplane meets it in more than m projective points,
which is checked exactly by Sturm root counting plus a separate test at
infinity.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DomainError, InputError
from .flags import Flag, _cell_params, adapted_basis, flag_from_matrix, reversed_flag
from .linalg import Matrix, _cleared, _cleared_line, _ints_only, _is_int, _solve_exact
from .scalars import Scalar, _require_scalar, as_fraction


@dataclass(frozen=True, order=False)
class CirclePoint:
    """A point of the projective line over the rationals.

    ``param`` is the affine coordinate; None encodes the point at
    infinity, which closes the circle after all finite parameters.
    """

    param: Fraction | None

    @staticmethod
    def at(value: Scalar) -> "CirclePoint":
        _require_scalar(value)
        return CirclePoint(as_fraction(value))

    @staticmethod
    def infinity() -> "CirclePoint":
        return CirclePoint(None)

    @staticmethod
    def from_angle(degrees: Scalar) -> "CirclePoint":
        """Half-angle chart: the angle maps to tan(angle / 2).

        Right angles hit exact rational parameters; anything else takes
        the exact binary value of the float tangent.
        """
        _require_scalar(degrees)
        d = as_fraction(degrees) % 360
        table = {
            Fraction(0): Fraction(0),
            Fraction(90): Fraction(1),
            Fraction(270): Fraction(-1),
        }
        if d == 180:
            return CirclePoint.infinity()
        if d in table:
            return CirclePoint(table[d])
        return CirclePoint(Fraction(math.tan(math.radians(float(d)) / 2)))

    @property
    def is_infinity(self) -> bool:
        return self.param is None

    def sort_key(self) -> tuple[int, Fraction]:
        if self.param is None:
            return (1, Fraction(0))
        return (0, self.param)

    def __str__(self) -> str:
        if self.param is None:
            return "inf"
        if self.param.denominator == 1:
            return str(self.param.numerator)
        return f"{self.param.numerator}/{self.param.denominator}"


@dataclass(frozen=True)
class DihedralQuadruple:
    """Four distinct circle points plus their crossing-chord partition."""

    points: tuple[CirclePoint, CirclePoint, CirclePoint, CirclePoint]
    pairs: tuple[frozenset, frozenset]

    def numbering_is_compatible(self) -> bool:
        """True when positions (1, 3) and (2, 4) realize the partition."""
        first = frozenset((self.points[0], self.points[2]))
        return first in self.pairs


def dihedral_partition(
    p1: CirclePoint, p2: CirclePoint, p3: CirclePoint, p4: CirclePoint
) -> DihedralQuadruple:
    """Partition four distinct points into the two pairs of crossing chords.

    In cyclic order the first and third points pair up, as do the second
    and fourth; the result records the caller's numbering unchanged.
    """
    pts = (p1, p2, p3, p4)
    if len(set(pts)) != 4:
        raise InputError("the four circle points must be distinct")
    cyc = sorted(pts, key=CirclePoint.sort_key)
    pairs = (frozenset((cyc[0], cyc[2])), frozenset((cyc[1], cyc[3])))
    return DihedralQuadruple(points=pts, pairs=pairs)


@dataclass(frozen=True)
class MomentCurve:
    """The rational normal curve t -> (1, t, t^2, ..., t^degree)."""

    degree: int

    def __post_init__(self) -> None:
        if not _is_int(self.degree) or self.degree < 1:
            raise InputError(f"moment curves need an int degree >= 1, got {self.degree!r}")

    @property
    def n(self) -> int:
        return self.degree + 1

    def flag_at(self, point: CirclePoint) -> Flag:
        """The osculating flag at ``point``, which makes the curve a flag curve."""
        return osculating_flag(self, point)


def osculating_flag(curve: MomentCurve, point: CirclePoint) -> Flag:
    """Flag of scaled derivatives of the moment curve at a point.

    Column j holds the (j-1)-st derivative divided by (j-1)!, i.e. entry
    (i, j) is binomial(i-1, j-1) t^{i-j}; at infinity the chain collapses
    to spans of the trailing coordinate vectors.
    """
    n = curve.n
    if point.is_infinity:
        return reversed_flag(n)
    t = point.param
    rows = [
        [
            (math.comb(i, j) * t ** (i - j)) if i >= j else Fraction(0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return flag_from_matrix(Matrix(rows))


class TableFlagCurve:
    """Flag curve given by an explicit finite table of samples."""

    def __init__(self, entries: Mapping[CirclePoint, Flag] | Sequence[tuple[CirclePoint, Flag]]):
        items = list(entries.items()) if isinstance(entries, Mapping) else list(entries)
        if len(items) < 4:
            raise InputError("a flag curve table needs at least four samples")
        self._table: dict[CirclePoint, Flag] = {}
        sizes = set()
        for point, flag in items:
            if point in self._table:
                raise InputError(f"duplicate sample point {point}")
            self._table[point] = flag
            sizes.add(flag.n)
        if len(sizes) != 1:
            raise InputError("all sampled flags must share one dimension")
        self.n = sizes.pop()
        self.degree = self.n - 1

    @property
    def points(self) -> tuple[CirclePoint, ...]:
        return tuple(self._table)

    def flag_at(self, point: CirclePoint) -> Flag:
        try:
            return self._table[point]
        except KeyError:
            raise InputError(f"no sample stored at point {point}") from None


def is_positive_quadruple(
    flags: Sequence[Flag],
    quadruple: DihedralQuadruple,
) -> bool:
    """Positivity of four flags in the numbering of the given quadruple.

    Flags 1 and 3 are the reference pair (they must be opposed); flags 2
    and 4 are tested for landing in the open positive cell and its primed
    companion after the change of basis adapted to the reference pair, one
    exact solve for both.  That basis is fixed up to a diagonal matrix.  A
    sign matrix s turns the second flag's lower unitriangular factor L into
    s L s, so the signs of L's first column (the second flag's first column
    in the adapted frame over its corner entry) are the only class that can
    put it in the open cell; a zero there rules every class out, and as s
    and -s give the same flags, that column's own signs name the class.  The
    verdict does not depend on which compatible numbering was chosen, and
    an incompatible numbering simply fails.
    """
    if len(flags) != 4:
        raise InputError("a quadruple test needs exactly four flags")
    f1, f2, f3, f4 = flags
    n = f1.n
    if any(f.n != n for f in flags):
        raise InputError("all four flags must share one dimension")
    if len(set(quadruple.points)) != 4:
        raise InputError("quadruple points must be distinct")
    try:
        w = adapted_basis(f1, f3)
    except DomainError:
        raise DomainError("reference flags (positions 1 and 3) must be opposed") from None
    # w^-1 [A2 | A4], whose integer form has the signs of its entries
    sides = _solve_exact(w, f2.rep, f4.rep)
    signs = [(row[0] > 0) - (row[0] < 0) for row in _cleared(sides)[0]]
    if 0 in signs:
        return False
    def side(cut: slice) -> Matrix:
        return sides._mapped(lambda g: [[s * x for x in row[cut]] for s, row in zip(signs, g)],
                             lambda r, c: (r, c[cut]))

    return (_cell_params(side(slice(n)), False) is not None
            and _cell_params(side(slice(n, None)), True) is not None)


@dataclass(frozen=True)
class CurveReport:
    """Tally of quadruple tests over a sampled flag curve."""

    degree: int
    n_points: int
    mode: str
    seed: int
    total: int
    passed: int
    failed: int
    first_failure: tuple[str, str, str, str] | None

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.total > 0


def is_positive_curve_sampled(
    curve,
    samples: int = 8,
    mode: str = "exhaustive",
    seed: int = 0,
    points: Sequence[CirclePoint] | None = None,
    trials: int | None = None,
) -> CurveReport:
    """Test every (or a sampled set of) cyclically ordered 4-point subset.

    ``curve`` is any object with ``degree`` and ``flag_at``;  explicit
    ``points`` win over a table's own samples, which win over a default
    ladder of ``samples`` half-integers.  Exhaustive mode counts all C(k, 4)
    subsets; random mode draws ``trials`` subsets from a seeded generator,
    each as it is tested.  Exhaustive mode first tests the k-3 fan
    quadruples, which decide a positive curve (module docstring).  The
    report lists no subsets; it keeps the first failure.
    """
    if mode not in ("exhaustive", "random"):
        raise InputError(f"unknown sampling mode {mode!r}")
    if points is None:
        if isinstance(curve, TableFlagCurve):
            points = curve.points
        else:
            if not _is_int(samples) or samples < 4:
                raise InputError(f"samples must be an int >= 4, got {samples!r}")
            # symmetric half-integer ladder, all distinct and exact
            points = [CirclePoint(Fraction(2 * j - (samples - 1), 2)) for j in range(samples)]
    pts = sorted(set(points), key=CirclePoint.sort_key)
    if len(pts) != len(points):
        raise InputError("sample points must be distinct")
    if len(pts) < 4:
        raise InputError("need at least four sample points")
    flags = {p: curve.flag_at(p) for p in pts}
    if mode == "exhaustive":
        total = math.comb(len(pts), 4)
        subsets = itertools.combinations(range(len(pts)), 4)
    else:
        total = trials if trials is not None else 100
        if not _is_int(total) or total < 1:
            raise InputError(f"need an int count of at least one trial, got {total!r}")
        rng = random.Random(seed)
        subsets = (tuple(sorted(rng.sample(range(len(pts)), 4))) for _ in range(total))
    verdicts: dict[tuple[int, ...], bool] = {}  # read again: the fan's, random mode's draws

    def positive(subset: tuple[int, ...], keep: bool) -> bool:
        if subset in verdicts:
            return verdicts[subset]
        quad = tuple(pts[i] for i in subset)
        verdict = is_positive_quadruple([flags[p] for p in quad], dihedral_partition(*quad))
        return verdicts.setdefault(subset, verdict) if keep else verdict

    fan = [(0, i, i + 1, i + 2) for i in range(1, len(pts) - 2)]
    try:
        fan_decides = mode == "exhaustive" and all(positive(s, True) for s in fan)
    except DomainError:
        fan_decides = False
    misses = (s for s in (() if fan_decides else subsets) if not positive(s, mode == "random"))
    first = next(misses, None)
    failed = sum(1 for _ in misses) + (first is not None)
    return CurveReport(
        degree=curve.degree,
        n_points=len(pts),
        mode=mode,
        seed=seed,
        total=total,
        passed=total - failed,
        failed=failed,
        first_failure=tuple(str(pts[i]) for i in first) if first else None,
    )


# -- hyperplane sections of the moment curve --------------------------------


def _integer_line(coeffs: Sequence[Scalar]) -> list[int]:
    """Integer coefficients of the same roots, in a new list: ints only as they are,
    as :func:`totpos.linalg._cleared` reads a grid of ints; other coefficients are
    checked by the entry rule and cleared of their denominators, a float read exactly."""
    if _ints_only(coeffs):
        return list(coeffs)
    for x in coeffs:
        _require_scalar(x)
    return _cleared_line([as_fraction(x) for x in coeffs])[0]


def sturm_distinct_real_roots(coeffs: Sequence[Scalar]) -> int:
    """Number of distinct real roots, by one Sturm chain on integers.

    Ascending coefficient order.  Each remainder is scaled by |lead| before a
    top term is cancelled and divided by its content (Collins 1967): a positive
    multiple of the rational chain's member, with its signs.  A common factor
    of non-square-free input scales whole chain evaluations without changing
    sign variation counts.  The zero polynomial is rejected.
    """
    p = _integer_line(coeffs)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise InputError("the zero polynomial has no root count")
    if len(p) == 1:
        return 0
    chain = [p, [i * x for i, x in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        while len(r) >= len(b):
            f = r.pop() if b[-1] > 0 else -r.pop()
            r = [abs(b[-1]) * x for x in r]
            for i, y in enumerate(b[:-1], len(r) + 1 - len(b)):
                r[i] -= f * y
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        g = math.gcd(*r)
        chain.append([-x // g for x in r])
    # the chain's signs at +infinity, and at -infinity: every leading
    # coefficient is a nonzero integer, so there is no zero to skip
    top = [q[-1] > 0 for q in chain]
    bottom = [s if len(q) % 2 else not s for s, q in zip(top, chain)]

    def changes(signs: list[bool]) -> int:
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return changes(bottom) - changes(top)


def hyperplane_intersection_count(
    curve: MomentCurve, coeffs: Sequence[Scalar]
) -> int:
    """Distinct projective intersection points of a hyperplane with the curve.

    ``coeffs`` lists the hyperplane against the coordinates 1, t, ...,
    t^degree.  Finite intersections are the distinct real roots of the
    dot-product polynomial; the point at infinity is an extra intersection
    exactly when the top coefficient vanishes.
    """
    n = curve.n
    if len(coeffs) != n:
        raise InputError(f"hyperplane needs {n} coefficients")
    p = _integer_line(coeffs)
    if not any(p):
        raise InputError("hyperplane coefficients must not all vanish")
    finite = sturm_distinct_real_roots(p)
    at_infinity = 1 if coeffs[-1] == 0 else 0
    return finite + at_infinity


@dataclass(frozen=True)
class ConvexReport:
    """Outcome of sampling hyperplane sections of a moment curve."""

    degree: int
    trials: int
    seed: int
    coeff_bound: int
    max_count: int

    @property
    def ok(self) -> bool:
        return self.max_count <= self.degree


def convex_curve_check(
    curve: MomentCurve,
    trials: int = 1000,
    seed: int = 0,
    coeff_bound: int = 9,
) -> ConvexReport:
    """Sample random integer hyperplanes and verify the convexity bound.

    No hyperplane may meet the curve in more than ``degree`` distinct
    projective points.
    """
    if not _is_int(trials) or trials < 1:
        raise InputError(f"need an int count of at least one trial, got {trials!r}")
    if not _is_int(coeff_bound) or coeff_bound < 1:
        raise InputError(f"coefficient bound must be a positive int, got {coeff_bound!r}")
    rng = random.Random(seed)
    n = curve.n
    worst = 0
    for _ in range(trials):
        h = [0] * n
        while not any(h):
            h = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
        worst = max(worst, hyperplane_intersection_count(curve, h))
    return ConvexReport(
        degree=curve.degree,
        trials=trials,
        seed=seed,
        coeff_bound=coeff_bound,
        max_count=worst,
    )
