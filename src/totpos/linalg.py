"""Dense matrices over exact rationals or floats, with minor machinery.

Matrices are immutable.  A matrix whose entries are all ``int``/``Fraction``
runs on the exact backend; any float entry switches the whole matrix to the
float backend (mixed entries coerce to float).  Row/column indices on
:class:`Matrix` methods are 0-based Python indices; the index-set functions
(:func:`minor`, :func:`submatrix`, :func:`ksubsets`) speak the 1-based,
strictly increasing convention used throughout the public API.

Every float is an exact dyadic rational, so there is one elimination path:
determinants, rank, solves, inverses and kernels all come from one
fraction-free Bareiss elimination of the exact copy of the input (a float
matrix is read through :meth:`Matrix.to_exact`), run on integers after the
denominators are cleared along the rows or the columns, whichever costs fewer
bits; their results are exact on either backend.  Exact products run on
integers too.  Minors of all orders come from a dynamic program that expands
each order-k minor along its last row using the order k-1 table, which is far
cheaper than independent eliminations when a caller needs every minor of
every order.  On exact input that table runs on integers, after one clearing
of the denominators, and each order is a read-only view over those integer
rows: signs and correctly rounded floats are read from the integers, and an
exact minor is built only when a key is read; on float input it runs in
floats, whose signs :mod:`totpos.classify` reads through the zero band.
:meth:`Matrix.approx_equal` is the only other reader of the band here.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import InputError, SingularityError
from .scalars import Scalar, _require_scalar, as_fraction, is_exact_scalar, is_zero, magnitude

IndexSet = tuple[int, ...]

# Most minors one exhaustive table may hold: the full table at n = 12.
_MINOR_TABLE_CAP = math.comb(24, 12) - 1


class Matrix:
    """Immutable dense matrix with an exact or float entry domain."""

    __slots__ = ("rows", "cols", "_entries", "_exact")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        data = tuple(tuple(row) for row in entries)
        if not data or not data[0]:
            raise InputError("matrix must have at least one row and one column")
        width = len(data[0])
        for row in data:
            if len(row) != width:
                raise InputError("ragged rows: all rows must have equal length")
            for x in row:
                _require_scalar(x)
        exact = all(is_exact_scalar(x) for row in data for x in row)
        if not exact:
            try:
                data = tuple(tuple(float(x) for x in row) for row in data)
            except OverflowError:
                raise InputError("an entry lies outside the float range") from None
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_entries", data)
        object.__setattr__(self, "_exact", exact)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Matrix is immutable")

    # -- basic accessors -------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._exact

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def zero(self) -> Scalar:
        return 0 if self._exact else 0.0

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self._entries[i][j]

    def row_tuple(self, i: int) -> tuple[Scalar, ...]:
        return self._entries[i]

    def col_tuple(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self._entries)

    def to_lists(self) -> list[list[Scalar]]:
        return [list(row) for row in self._entries]

    def entry_scale(self) -> float:
        """Max |entry|, the scale of zero-band tests; saturates to inf."""
        return magnitude(itertools.chain.from_iterable(self._entries))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        if n < 1:
            raise InputError("identity needs n >= 1")
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> "Matrix":
        n = len(values)
        if n < 1:
            raise InputError("diagonal needs at least one value")
        return Matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Scalar]]) -> "Matrix":
        if not columns:
            raise InputError("need at least one column")
        n = len(columns[0])
        return Matrix([[col[i] for col in columns] for i in range(n)])

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(
                f"shape mismatch for product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        bt = list(zip(*other._entries))
        if self._exact and other._exact:
            return Matrix(_exact_products(self._entries, bt))
        return Matrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in bt]
                for row in self._entries
            ]
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._entries, other._entries)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._entries, other._entries)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self._entries])

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix([[c * x for x in row] for row in self._entries])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self._entries)))

    def apply(self, vector: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vector) != self.cols:
            raise InputError("vector length must equal the column count")
        if self._exact and all(is_exact_scalar(x) for x in vector):
            return tuple(row[0] for row in _exact_products(self._entries, [vector]))
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self._entries)

    def to_float(self) -> "Matrix":
        try:
            return Matrix([[float(x) for x in row] for row in self._entries])
        except OverflowError:
            raise InputError("an entry lies outside the float range") from None

    def to_exact(self) -> "Matrix":
        """Exact view; float entries convert via their binary expansion."""
        if self._exact:
            return self
        return Matrix([[as_fraction(x) for x in row] for row in self._entries])

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                a == b
                for r1, r2 in zip(self._entries, other._entries)
                for a, b in zip(r1, r2)
            )
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def approx_equal(self, other: "Matrix") -> bool:
        if self.rows != other.rows or self.cols != other.cols:
            return False
        scale = max(self.entry_scale(), other.entry_scale(), 1.0)
        return all(
            is_zero(float(a) - float(b), scale)
            for r1, r2 in zip(self._entries, other._entries)
            for a, b in zip(r1, r2)
        )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self._entries
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def _require_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError("shape mismatch")


def _exact_products(rows: Sequence[Sequence], cols: Sequence[Sequence]) -> list[list]:
    """Dot products of exact rows and columns, summed on integers: each is
    cleared once by the lcm of its denominators, and an entry is one Fraction
    over two lcms, or an int when neither holds a Fraction, as in a sum."""
    def cleared(v):
        d = math.lcm(*(x.denominator for x in v))
        wrap = any(isinstance(x, Fraction) for x in v)
        return [x.numerator * (d // x.denominator) for x in v], d, wrap

    right = [cleared(col) for col in cols]
    return [
        [Fraction(s, d * e) if f or g else s for b, e, g in right for s in [sum(map(mul, a, b))]]
        for a, d, f in map(cleared, rows)
    ]


# -- index sets ----------------------------------------------------------


def index_set(indices: Iterable[int], bound: int) -> IndexSet:
    """Validate a 1-based, strictly increasing index tuple within [1, bound]."""
    t = tuple(indices)
    if not t:
        raise InputError("index set must be nonempty")
    prev = 0
    for i in t:
        if not isinstance(i, int) or isinstance(i, bool):
            raise InputError(f"index {i!r} is not an integer")
        if i <= prev:
            raise InputError(f"indices must be strictly increasing, got {t}")
        prev = i
    if t[-1] > bound:
        raise InputError(f"index {t[-1]} exceeds bound {bound}")
    return t


def ksubsets(n: int, k: int) -> tuple[IndexSet, ...]:
    """All 1-based k-subsets of [1, n] in lexicographic order."""
    if not 1 <= k <= n:
        raise InputError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return tuple(itertools.combinations(range(1, n + 1), k))


def submatrix(m: Matrix, row_set: Iterable[int], col_set: Iterable[int]) -> Matrix:
    rs = index_set(row_set, m.rows)
    cs = index_set(col_set, m.cols)
    return Matrix([[m[i - 1, j - 1] for j in cs] for i in rs])


# -- elimination kernels --------------------------------------------------


def _bareiss(
    rows: Sequence[Sequence[int | Fraction]], reduce: bool = False
) -> tuple[list[list[int]], list[int], int, list[int], list[int]]:
    """Fraction-free Bareiss (1968) elimination, the one exact kernel.

    Rows M become integers A = diag(R)·M·diag(C), clearing denominators on
    the side (rows or columns) whose lcms have fewer bits; the other side's
    scales are all ones.  Each update divides exactly by the previous pivot.
    Returns (A, pivot columns, row permutation sign, R, C): A in echelon form,
    or with ``reduce`` in d·RREF form, every pivot equal to the last one, d.
    """
    row_den = [math.lcm(*(x.denominator for x in row)) for row in rows]
    col_den = [math.lcm(*(x.denominator for x in col)) for col in zip(*rows)]
    if sum(d.bit_length() for d in row_den) <= sum(d.bit_length() for d in col_den):
        col_den = [1] * len(col_den)
    else:
        row_den = [1] * len(row_den)
    a = [
        [x.numerator * (r * c // x.denominator) for x, c in zip(row, col_den)]
        for row, r in zip(rows, row_den)
    ]
    nrows = len(a)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(len(col_den)):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        row = a[r]
        pivot = row[c]
        for i in range(nrows) if reduce else range(r + 1, nrows):
            if i != r:
                f = a[i][c]
                a[i] = [(x * pivot - f * y) // prev for x, y in zip(a[i], row)]
        pivots.append(c)
        prev = pivot
    return a, pivots, sign, row_den, col_den


# -- determinants ---------------------------------------------------------


def det(m: Matrix) -> Fraction:
    """Exact determinant, a Fraction; float input is read exactly."""
    if not m.is_square:
        raise InputError("determinant requires a square matrix")
    a, pivots, sign, row_den, col_den = _bareiss(m.to_exact().to_lists())
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(sign * a[-1][-1], math.prod(row_den) * math.prod(col_den))


def _require_invertible(m: Matrix, what: str) -> None:
    """Raise SingularityError unless det(m), exact on any input, is nonzero."""
    if det(m) == 0:
        raise SingularityError(f"{what} requires invertibility")


def minor(
    m: Matrix,
    row_set: Iterable[int],
    col_set: Iterable[int],
) -> Scalar:
    """Determinant of the submatrix on 1-based index sets of equal size."""
    rs = index_set(row_set, m.rows)
    cs = index_set(col_set, m.cols)
    if len(rs) != len(cs):
        raise InputError("minor requires equally sized row and column sets")
    return det(submatrix(m, rs, cs))


class _MinorLevel(Mapping):
    """One order k of the minor table: a read-only view keyed like the dict
    {(row set, column set): minor}, both sets in lexicographic order.

    ``rows[i][j]`` is the minor on the i-th row and j-th column k-subset
    times ``scale`` > 0, so it has the minor's sign.  On exact input of
    order k >= 2 it is an integer minor of dM with ``scale`` d**k, and
    ``wrap`` says the minors are Fractions; otherwise it is the minor itself.
    An exact minor is built only when a key is read.
    """

    __slots__ = ("subsets", "rows", "scale", "wrap", "_at")

    def __init__(self, subsets, at, rows, scale, wrap):
        self.subsets, self._at = subsets, at
        self.rows, self.scale, self.wrap = rows, scale, wrap

    def __getitem__(self, key: tuple[IndexSet, IndexSet]) -> Scalar:
        try:
            r, c = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        v = self.rows[self._at[r]][self._at[c]]
        return Fraction(v, self.scale) if self.wrap else v

    def __iter__(self) -> Iterator[tuple[IndexSet, IndexSet]]:
        return itertools.product(self.subsets, repeat=2)

    def __len__(self) -> int:
        return len(self.subsets) ** 2

    def __repr__(self) -> str:
        return repr(dict(self))

    def floats(self) -> list[list[float]]:
        """The minors row by row, each correctly rounded to a float: on
        scaled rows an int/int true division, which CPython rounds
        correctly, as it does ``float()`` of an int or a Fraction; past the
        float range, InputError."""
        s = self.scale
        try:
            return [list(map(float, row)) if s == 1 else [v / s for v in row]
                    for row in self.rows]
        except OverflowError:
            raise InputError("a minor lies outside the float range") from None


def _require_order(k: object, what: str) -> None:
    """Raise InputError unless k is an int >= 1; a bool is not an order."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InputError(f"{what} must be an int >= 1, got {k!r}")


def minor_levels(
    m: Matrix, max_order: int | None = None
) -> Iterator[tuple[int, Mapping[tuple[IndexSet, IndexSet], Scalar]]]:
    """Yield (k, table of all order-k minors), for k = 1, 2, ....

    Each order-k minor is expanded along its last row against the order k-1
    table.  Exact input runs on integers: its entries are scaled once by the
    lcm d of their denominators, and each table is a read-only view over
    the integer minors of dM in lexicographic subset order, with scale d**k.
    Signs and correctly rounded floats are read from those integers; an
    exact minor (a Fraction, or an int when every entry is an int) is built
    only when a key is read.  Float input runs the same recursion in floats.
    Square matrices only, and the levels asked for may hold at most
    ``_MINOR_TABLE_CAP`` minors, the full table at n = 12; a larger request
    raises InputError, as does an order ``max_order`` that is not an int
    >= 1.  Callers may stop iterating early; nothing beyond the consumed
    level is computed.
    """
    if not m.is_square:
        raise InputError("minor tables require a square matrix")
    if max_order is not None:
        _require_order(max_order, "the largest minor order")
    n = m.rows
    top = n if max_order is None else min(max_order, n)
    size = sum(math.comb(n, k) ** 2 for k in range(1, top + 1))
    if size > _MINOR_TABLE_CAP:
        raise InputError(
            f"the minor table of orders 1..{top} of a {n}x{n} matrix holds "
            f"{size:,} minors, past the cap of {_MINOR_TABLE_CAP:,} "
            "(the full table at n = 12)"
        )
    entries = [m.row_tuple(i) for i in range(n)]
    if m.is_exact:
        d = math.lcm(*(x.denominator for row in entries for x in row))
        a = [[x.numerator * (d // x.denominator) for x in row] for row in entries]
        wrap = any(isinstance(x, Fraction) for row in entries for x in row)
    else:
        a, d, wrap = entries, 1, False
    # prev[i][j] is the minor of a on the i-th row and j-th column (k-1)-subset
    prev, at = a, {(i,): i - 1 for i in range(1, n + 1)}
    yield 1, _MinorLevel(tuple(at), at, entries, 1, False)
    # each row followed by its negation: a minus cofactor sign reads at +n;
    # negation is exact, so float sums equal those that subtract the term
    signed = [[*row, *(-x for x in row)] for row in a]
    zero = m.zero
    for k in range(2, top + 1):
        subsets = tuple(itertools.combinations(range(1, n + 1), k))
        # per column set, its last-row expansion: (signed column, index of
        # the column set without it)
        plan = [
            [
                (c - 1 + n * ((k + p + 1) % 2), at[cs[:p] + cs[p + 1 :]])
                for p, c in enumerate(cs)
            ]
            for cs in subsets
        ]
        cur = []
        for rs in subsets:
            row = signed[rs[-1] - 1]
            sub = prev[at[rs[:-1]]]
            values = []
            for terms in plan:
                acc = zero
                for c, j in terms:
                    e = row[c]
                    if e:
                        acc += e * sub[j]
                values.append(acc)
            cur.append(values)
        prev, at = cur, {s: i for i, s in enumerate(subsets)}
        yield k, _MinorLevel(subsets, at, cur, d**k, wrap)


def compound(m: Matrix, k: int) -> Matrix:
    """Order-k multiplicative compound: minors on lexicographic k-subsets."""
    if not m.is_square:
        raise InputError("compound requires a square matrix")
    _require_order(k, "compound order")
    if k > m.rows:
        raise InputError(f"compound order must lie in [1, {m.rows}], got {k}")
    for _, level in minor_levels(m, k):
        pass
    if not level.wrap:
        return Matrix(level.rows)
    return Matrix([[Fraction(v, level.scale) for v in row] for row in level.rows])


# -- rank, inverses, nullspace --------------------------------------------


def rank(m: Matrix) -> int:
    return len(_bareiss(m.to_exact().to_lists())[1])


def inverse(m: Matrix) -> Matrix:
    """Exact matrix inverse; raises SingularityError when none exists."""
    if not m.is_square:
        raise InputError("inverse requires a square matrix")
    return Matrix(_solve_exact(m, Matrix.identity(m.rows).to_lists()))


def transpose_inverse(m: Matrix) -> Matrix:
    """The map M -> (M^T)^{-1}, an involutive group automorphism."""
    return inverse(m).transpose()


def _solve_exact(
    m: Matrix, rhs: Sequence[Sequence[Scalar]]
) -> list[list[Fraction]]:
    """Rows of X with m X = rhs, from one reduced elimination of [m | rhs].

    ``rhs`` is given by rows; raises SingularityError if m is singular.
    """
    n = m.rows
    a, pivots, _, _, col_den = _bareiss(
        [[*row, *map(as_fraction, b)] for row, b in zip(m.to_exact().to_lists(), rhs)],
        reduce=True,
    )
    if pivots != list(range(n)):
        raise SingularityError("matrix is singular")
    return [
        [Fraction(x * col_den[i], a[i][i] * d) for x, d in zip(a[i][n:], col_den[n:])]
        for i in range(n)
    ]


def solve(m: Matrix, rhs: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Exact solve of a square system; raises SingularityError if singular."""
    if not m.is_square:
        raise InputError("solve requires a square matrix")
    if len(rhs) != m.rows:
        raise InputError("right-hand side length mismatch")
    return tuple(row[0] for row in _solve_exact(m, [[b] for b in rhs]))


def nullspace(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Exact kernel basis (possibly empty); float input is read exactly."""
    a, pivots, _, _, col_den = _bareiss(m.to_exact().to_lists(), reduce=True)
    free = [c for c in range(m.cols) if c not in pivots]
    basis: list[tuple[Fraction, ...]] = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-a[r][f] * col_den[c], a[r][c] * col_den[f])
        basis.append(tuple(v))
    return basis


def reversal_permutation(n: int) -> Matrix:
    """Permutation matrix sending basis vector e_i to e_{n+1-i}."""
    return Matrix(
        [[1 if j == n - 1 - i else 0 for j in range(n)] for i in range(n)]
    )
