"""Dense matrices over exact rationals or floats, with minor machinery.

Matrices are immutable.  A matrix whose entries are all ``int``/``Fraction``
runs on the exact backend; any float entry switches the whole matrix to the
float backend (mixed entries coerce to float).  Row/column indices on
:class:`Matrix` methods are 0-based Python indices; the index-set functions
(:func:`minor`, :func:`submatrix`, :func:`ksubsets`) speak the 1-based,
strictly increasing convention used throughout the public API.

Every float is an exact dyadic rational, so there is one elimination path:
determinants, rank, solves, inverses and kernels all come from one
fraction-free Bareiss elimination of the exact copy of the input, run on its
integer form A = diag(R)·M·diag(C), which the LDU, the peel and flag
representatives read too; a grid of ints is its own form, R = C = 1.
Determinants and rank read its forward pass; solves, inverses and kernels
reach the reduced form from that echelon form by fraction-free
back-substitution.  Entries are checked where a matrix enters
(:class:`Matrix`, :meth:`Matrix.from_columns`, :meth:`Matrix.diagonal`, the
parsers); a matrix an exact kernel (a product too) builds skips the check and
stores its form, with a grid marking its int entries, so no kernel clears it
again; its entries are built from the form when read, each A[i][j] / (R[i]·C[j]).
Minors of all orders come from a dynamic program that expands each
order-k minor along its last row using the order k-1 table, which is far
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
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from .errors import InputError, SingularityError
from .scalars import Scalar, _require_scalar, as_fraction, is_exact_scalar, is_zero, magnitude

IndexSet = tuple[int, ...]

# Most minors one exhaustive table may hold: the full table at n = 12.
_MINOR_TABLE_CAP = math.comb(24, 12) - 1


class Matrix:
    """Immutable dense matrix with an exact or float entry domain; a kernel's output,
    an exact product too, stores its integer form (A, R, C) and builds entries when read."""

    __slots__ = ("rows", "cols", "_entries", "_exact", "_form", "_ints")

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
        self._set(rows=len(data), cols=width, _entries=data, _exact=exact, _form=None)

    @staticmethod
    def _of(entries=None, exact: bool = True, form=None, ints=None) -> "Matrix":
        """A kernel's output, unchecked: its rows, or its integer form and a grid
        whose nonzero cells mark the int entries, all frozen."""
        if form is None:
            entries = tuple(map(tuple, entries))
            return object.__new__(Matrix)._set(rows=len(entries), cols=len(entries[0]),
                                               _entries=entries, _exact=exact, _form=None)
        a, r, c = form
        return object.__new__(_Lazy)._set(rows=len(r), cols=len(c), _exact=True, _form=(
            tuple(map(tuple, a)), tuple(r), tuple(c)), _ints=tuple(map(tuple, ints)))

    def _mapped(self, f, scales) -> "Matrix":
        """f of the entries, or of a kernel's form and grid, its scales mapped by scales(R, C);
        f rearranges the cells and may change their signs, which keeps a grid's marks."""
        if self._form is None:
            return Matrix._of(f(self._entries), self._exact)
        a, r, c = self._form
        return Matrix._of(form=(f(a), *scales(r, c)), ints=f(self._ints))

    def _set(self, **values: object) -> "Matrix":
        for name, value in values.items():
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):  # copy and pickle rebuild a checked matrix from the entries
        return Matrix, (self._entries,)

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
        _require_order(n, "the identity's size")
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
        if any(len(col) != n for col in columns):
            raise InputError("ragged columns: all columns must have equal length")
        return Matrix([[col[i] for col in columns] for i in range(n)])

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(
                f"shape mismatch for product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        if self._exact and other._exact:
            # an entry is an int when its row of self and its column of other hold no Fraction
            left, right = (m._ints if m._form else [[not isinstance(x, Fraction) for x in row]
                                                    for row in m._entries] for m in (self, other))
            cols = [all(k) for k in zip(*right)]
            return Matrix._of(form=_product_form(self, other),
                              ints=[[r and c for c in cols] for r in map(all, left)])
        bt = list(zip(*other._entries))
        return Matrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in bt]
                for row in self._entries
            ]
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, sub)

    def _combined(self, other: "Matrix", op) -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError("shape mismatch")
        return Matrix([list(map(op, r1, r2)) for r1, r2 in zip(self._entries, other._entries)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self._entries])

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix([[c * x for x in row] for row in self._entries])

    def transpose(self) -> "Matrix":
        return self._mapped(lambda g: list(zip(*g)), lambda r, c: (c, r))

    def apply(self, vector: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vector) != self.cols:
            raise InputError("vector length must equal the column count")
        column = Matrix([[x] for x in vector])
        if self._exact and column._exact:
            return (self @ column).col_tuple(0)
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self._entries)

    def to_float(self) -> "Matrix":
        # an int/int true division rounds correctly, as float() of a Fraction
        rows, r, c = self._form or (self._entries, None, None)
        try:
            return Matrix._of([[float(x) for x in row] for row in rows] if r is None else
                              [[x / (s * t) for x, t in zip(row, c)] for row, s in zip(rows, r)],
                              exact=False)
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
        # no entry is NaN, so tuple equality is entrywise ==
        return (self.rows, self.cols, self._entries) == (other.rows, other.cols, other._entries)

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


class _Lazy(Matrix):
    """A kernel's output that stores its form and builds its entries on first
    read; an LDU factor, which most callers never read, builds its form and
    grid on first read too, as those of the output _build returns.  The hook
    lives here, not on Matrix: a class with __getattr__ reads every attribute
    more slowly."""

    __slots__ = ("_build",)

    def __getattr__(self, name: str) -> object:
        """The entries of a kernel's output, built on first read from its form:
        A[i][j] / (R[i]·C[j]), an int where the grid marks one, else a Fraction."""
        if name in ("_form", "_ints"):
            built = self._build()
            self._set(_form=built._form, _ints=built._ints, _build=None)
            return getattr(self, name)
        if name != "_entries":
            raise AttributeError(name)
        a, r, c = self._form
        value = tuple(
            tuple(x // (s * t) if k else Fraction(x, s * t) for x, t, k in zip(row, c, ks))
            for row, s, ks in zip(a, r, self._ints))
        object.__setattr__(self, name, value)
        return value


def _cut(lines, scales) -> tuple[list[list[int]], list[int]]:
    """Integer lines and their scales, each over their common factor."""
    g = [math.gcd(s, *line) for s, line in zip(scales, lines)]
    return ([line if h == 1 else [x // h for x in line] for h, line in zip(g, lines)],
            [s // h for s, h in zip(scales, g)])


def _cleared_line(v: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """Integers w and the lcm d of an exact vector's denominators: v = w / d."""
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def _product_form(left: Matrix, right: Matrix) -> tuple[list[list[int]], list[int], Sequence[int]]:
    """Form of a·b from the operands' forms: with t_j = C_a[j]·R_b[j] and
    L = lcm(t), (A_a·diag(L/t)·A_b, R_a·L, C_b), each row over its common factor."""
    (a, r, c), (b, s, e) = _cleared(left), _cleared(right)
    top = math.lcm(*(t := list(map(mul, c, s))))
    cols = [[x * (top // y) for x, y in zip(col, t)] for col in zip(*b)]
    return *_cut([[sum(map(mul, x, y)) for y in cols] for x in a], [x * top for x in r]), e


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
    if not (_is_int(n) and _is_int(k) and 1 <= k <= n):
        raise InputError(f"k must satisfy 1 <= k <= n in ints, got k={k!r}, n={n!r}")
    return tuple(itertools.combinations(range(1, n + 1), k))


def submatrix(m: Matrix, row_set: Iterable[int], col_set: Iterable[int]) -> Matrix:
    rs = index_set(row_set, m.rows)
    cs = index_set(col_set, m.cols)
    return Matrix([[m[i - 1, j - 1] for j in cs] for i in rs])


# -- elimination kernels --------------------------------------------------


def _cleared(*blocks) -> tuple[Sequence[Sequence[int]], Sequence[int], Sequence[int]]:
    """Integer form (A, R, C), A = diag(R)·M·diag(C), of the exact blocks M = [M1 | M2 | ...],
    each a Matrix or rows.  A kernel's form (a product's too) is read as is, and a grid of
    ints only (no bool) is its own form, A = M and R = C = 1, with no lcm and no copy:
    callers must not mutate A.  Other entries have their denominators read once and are
    cleared on the side whose lcms have fewer bits, the other side's scales all ones.
    Joined, each row is scaled to its scales' lcm."""
    if len(blocks) > 1:
        forms = [_cleared(b) for b in blocks]
        row_den = [math.lcm(*r) for r in zip(*(f[1] for f in forms))]
        a = [[x * k for f in forms for k in [r // f[1][i]] for x in f[0][i]]
             for i, r in enumerate(row_den)]
        return a, row_den, [c for f in forms for c in f[2]]
    (rows,) = blocks
    if isinstance(rows, Matrix):
        if rows._form:
            return rows._form
        rows = rows.to_exact()._entries
    if _ints_only(itertools.chain.from_iterable(rows)):
        return rows, [1] * len(rows), [1] * len(rows[0])
    dens = [[x.denominator for x in row] for row in rows]
    row_den = [math.lcm(*d) for d in dens]
    col_den = [math.lcm(*d) for d in zip(*dens)]
    if sum(d.bit_length() for d in row_den) <= sum(d.bit_length() for d in col_den):
        col_den = [1] * len(col_den)
    else:
        row_den = [1] * len(row_den)
    return [
        [x.numerator * (r * c // e) for x, c, e in zip(row, col_den, ds)]
        for row, r, ds in zip(rows, row_den, dens)
    ], row_den, col_den


def _columns(form) -> list[tuple[list[int], int]]:
    """Column j of a form's matrix as A's column j times lcm(R)/R_i over lcm(R)·C_j."""
    a, r, c = form
    top = math.lcm(*r)
    return [([x * (top // s) for x, s in zip(col, r)], top * d) for col, d in zip(zip(*a), c)]


def _bareiss(
    *blocks, reduce: bool = False
) -> tuple[list[list[int]], list[int], int, Sequence[int], Sequence[int]]:
    """Fraction-free Bareiss (1968) elimination, the one exact kernel.

    Runs on the integer form A = diag(R)·M·diag(C) of :func:`_cleared`.  Each
    update divides exactly by the previous pivot.  Returns (A, pivot
    columns p, row permutation sign, R, C): A in echelon form U, or with
    ``reduce`` in d·RREF form X, every pivot equal to the last one, d.  X comes
    from U by fraction-free back-substitution (Nakos, Turner and Williams 1997),
    from the last pivot row up, over the non-pivot columns f only:
    X_r[f] = (d·U_r[f] - sum over s > r of U_r[p_s]·X_s[f]) // U_r[p_r], exact
    because X is integral.  Pivots, d, sign and X are those of Gauss-Jordan.
    """
    a, row_den, col_den = _cleared(*blocks)
    a = list(a)
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
        for i in range(r + 1, nrows):
            f = a[i][c]
            a[i] = [(x * pivot - f * y) // prev for x, y in zip(a[i], row)]
        pivots.append(c)
        prev = pivot
    if reduce and pivots:
        free = [c for c in range(len(col_den)) if c not in pivots]
        # (p_s, X_s[free]) for the pivot rows s below r; the last one is already X's
        solved = [(pivots[-1], [a[len(pivots) - 1][f] for f in free])]
        for r in range(len(pivots) - 2, -1, -1):
            row = a[r]
            x = [prev * row[f] for f in free]
            for p, xs in solved:
                if k := row[p]:
                    x = [u - k * v for u, v in zip(x, xs)]
            x = [u // row[pivots[r]] for u in x]
            solved.append((pivots[r], x))
            out = [0] * len(col_den)
            out[pivots[r]] = prev
            for f, v in zip(free, x):
                out[f] = v
            a[r] = out
    return a, pivots, sign, row_den, col_den


# -- determinants ---------------------------------------------------------


def det(m: Matrix) -> Fraction:
    """Exact determinant, a Fraction; float input is read exactly."""
    if not m.is_square:
        raise InputError("determinant requires a square matrix")
    a, pivots, sign, row_den, col_den = _bareiss(m)
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
        correctly, as it does ``float()`` of an int or a Fraction.  Past the
        float range, InputError; so too when every nonzero minor of the order
        rounds to 0.0, which would leave no sign to read."""
        s = self.scale
        try:
            out = [list(map(float, row)) if s == 1 else [v / s for v in row]
                   for row in self.rows]
        except OverflowError:
            raise InputError("a minor lies outside the float range") from None
        if not any(map(any, out)) and any(map(any, self.rows)):
            raise InputError("a minor lies outside the float range")
        return out


def _is_int(k: object) -> bool:
    return isinstance(k, int) and not isinstance(k, bool)


def _ints_only(values: Iterable[object]) -> bool:
    """True when every value's type is int: no bool, no Fraction, however integral."""
    return set(map(type, values)) == {int}


def _require_order(k: object, what: str) -> None:
    """Raise InputError unless k is an int >= 1; a bool is not an order."""
    if not _is_int(k) or k < 1:
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
    return len(_bareiss(m)[1])


def inverse(m: Matrix) -> Matrix:
    """Exact matrix inverse; raises SingularityError when none exists."""
    if not m.is_square:
        raise InputError("inverse requires a square matrix")
    return _solve_exact(m, Matrix.identity(m.rows))


def transpose_inverse(m: Matrix) -> Matrix:
    """The map M -> (M^T)^{-1}, an involutive group automorphism."""
    return inverse(m).transpose()


def _solve_exact(m: Matrix, *rhs: Matrix) -> Matrix:
    """X with m X = [rhs...], from one reduced elimination of [m | rhs...],
    or SingularityError.  With d the common pivot, X[i][k] = A[i][n+k] C_i /
    (d C_{n+k}): X's form is A's right block times C_i sign(d) over the row
    scales |d|, each row cut by its common factor, and the block's C; every
    entry is a Fraction."""
    n = m.rows
    a, pivots, _, _, col_den = _bareiss(m, *rhs, reduce=True)
    if pivots != list(range(n)):
        raise SingularityError("matrix is singular")
    d, k = a[-1][n - 1], len(col_den) - n
    return Matrix._of(form=(*_cut([[x * col_den[i] * (1 if d > 0 else -1) for x in a[i][n:]]
                                   for i in range(n)], [abs(d)] * n), col_den[n:]),
                      ints=[[0] * k] * n)


def solve(m: Matrix, rhs: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Exact solve of a square system; raises SingularityError if singular."""
    if not m.is_square:
        raise InputError("solve requires a square matrix")
    if len(rhs) != m.rows:
        raise InputError("right-hand side length mismatch")
    for b in rhs:
        _require_scalar(b)
    return _solve_exact(m, Matrix([[as_fraction(b)] for b in rhs])).col_tuple(0)


def nullspace(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Exact kernel basis (possibly empty); float input is read exactly."""
    a, pivots, _, _, col_den = _bareiss(m, reduce=True)
    free = [c for c in range(m.cols) if c not in pivots]
    basis: list[tuple[Fraction, ...]] = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-a[r][f] * col_den[c], a[r][c] * col_den[f])
        basis.append(tuple(v))
    return basis


def _flipped(m: Matrix, rows: bool, cols: bool) -> Matrix:
    """m with the order of its rows and/or its columns reversed."""
    return m._mapped(
        lambda g: [row[::-1] if cols else row for row in (g[::-1] if rows else g)],
        lambda r, c: (r[::-1] if rows else r, c[::-1] if cols else c),
    )


def reversal_permutation(n: int) -> Matrix:
    """Permutation matrix sending basis vector e_i to e_{n+1-i}."""
    _require_order(n, "the permutation's size")
    return Matrix(
        [[1 if j == n - 1 - i else 0 for j in range(n)] for i in range(n)]
    )
