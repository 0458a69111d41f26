"""Factorization of totally positive matrices into elementary bidiagonals.

Every totally positive matrix factors uniquely as

    (product of lower elementary matrices over a fixed word)
    * (positive diagonal)
    * (product of upper elementary matrices over the same word),

where the word is a fixed reduced sequence of row indices of length
n(n-1)/2.  Two words are supported: the standard word 1,2,...,n-1,
1,...,n-2, ..., 1 and its reversed companion n-1,...,1, n-1,...,2, ...,
n-1.  Synthesis applies each generator as one column operation;
factorization runs a Gauss decomposition into L * diag * U followed by a
greedy peel of each unitriangular factor.  One peel serves both words: it
strips one generator at a time from the right by a column operation, and
the reversed word is the standard rule applied to the anti-transpose
w0 X^T w0, which maps each generator x_i to x_{n-i} and reverses products.
The peel rule is exact on the image of the parameter map; a negative
parameter or a failed identity check shows non-membership.  Every input is
factored exactly, a float matrix as the dyadic rationals its entries are,
so no tolerance decides a zero: the elimination is a fraction-free Bareiss
pass and the peel runs on integer columns; each pivot and parameter is one
Fraction, and a factor's entries are built from the integers when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .errors import DomainError, InputError
from .linalg import Matrix, _cleared, _columns, _cut, _flipped, _is_int, _Lazy, _require_order
from .scalars import Scalar, _require_scalar

WordKind = Literal["standard", "reversed"]
Side = Literal["lower", "upper"]


def _blocks(n: int, kind: WordKind) -> tuple[tuple[int, int], ...]:
    """(letter, block) pairs of a word; block j holds 1..n-j in the standard
    word and n-1..j in the reversed one.  Words and peels both read it."""
    _require_order(n, "the word size")
    if kind == "standard":
        return tuple([(i, j) for j in range(1, n) for i in range(1, n - j + 1)])
    if kind == "reversed":
        return tuple([(i, j) for j in range(1, n) for i in range(n - 1, j - 1, -1)])
    raise InputError(f"unknown word kind {kind!r}")


def word_for(n: int, kind: WordKind) -> tuple[int, ...]:
    return tuple([i for i, _ in _blocks(n, kind)])


def standard_word(n: int) -> tuple[int, ...]:
    """1, 2, ..., n-1, 1, ..., n-2, ..., 1; length n(n-1)/2."""
    return word_for(n, "standard")


def reversed_word(n: int) -> tuple[int, ...]:
    """n-1, ..., 1, n-1, ..., 2, ..., n-1; length n(n-1)/2."""
    return word_for(n, "reversed")


def _generator(i: int, a: Scalar, n: int, at: tuple[int, int]) -> Matrix:
    """Identity of size n plus ``a`` at 0-based entry ``at``, for index i."""
    if not (_is_int(i) and _is_int(n) and 1 <= i <= n - 1):
        raise InputError(f"generator index must be an int in [1, n-1], got {i!r} with n={n!r}")
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[at[0]][at[1]] = a
    return Matrix(rows)


def gen_x(i: int, a: Scalar, n: int) -> Matrix:
    """Lower elementary generator: identity plus ``a`` at entry (i+1, i)."""
    return _generator(i, a, n, at=(i, i - 1))


def gen_y(i: int, a: Scalar, n: int) -> Matrix:
    """Upper elementary generator: identity plus ``a`` at entry (i, i+1)."""
    return _generator(i, a, n, at=(i - 1, i))


def _validate_params(
    values: Sequence[Scalar], strict: bool, label: str
) -> tuple[Scalar, ...]:
    out = tuple(values)
    for v in out:
        _require_scalar(v)
        s = v.numerator if isinstance(v, Fraction) else v  # a Fraction's denominator is > 0
        if strict and not s > 0:
            raise InputError(f"{label} parameters must be strictly positive, got {v}")
        if not strict and s < 0:
            raise InputError(f"{label} parameters must be nonnegative, got {v}")
    return out


def _check_word(n: int, word: Sequence[int]) -> None:
    """Raise InputError unless n is an int >= 1 and every letter an int in
    [1, n-1]; a bool is not an int."""
    if not _is_int(n) or n < 1:
        raise InputError(f"parameters need an int n >= 1, got {n!r}")
    for i in word:
        if not _is_int(i) or not 1 <= i <= n - 1:
            raise InputError(f"word letter {i!r} is not an int in [1, {n - 1}]")


@dataclass(frozen=True)
class TPParameters:
    """Factorization data: word, lower/upper parameters and the diagonal.

    ``strict=True`` demands every lower/upper parameter be positive, which
    is exactly the totally positive stratum; ``strict=False`` allows zeros
    and lands in the nonnegative closure.  The diagonal is positive in
    either state.
    """

    n: int
    word: tuple[int, ...]
    a: tuple[Scalar, ...]
    t: tuple[Scalar, ...]
    b: tuple[Scalar, ...]
    strict: bool = True

    def __post_init__(self) -> None:
        n = self.n
        _check_word(n, self.word)
        expected = n * (n - 1) // 2
        if len(self.word) != expected:
            raise InputError(
                f"word length must be n(n-1)/2 = {expected}, got {len(self.word)}"
            )
        if len(self.a) != expected or len(self.b) != expected:
            raise InputError("parameter tuples must match the word length")
        if len(self.t) != n:
            raise InputError("diagonal must have n entries")
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "a", _validate_params(self.a, self.strict, "lower"))
        object.__setattr__(self, "b", _validate_params(self.b, self.strict, "upper"))
        object.__setattr__(self, "t", _validate_params(self.t, True, "diagonal"))


@dataclass(frozen=True)
class UniParams:
    """One-sided factorization data over a word, with declared strictness."""

    n: int
    word: tuple[int, ...]
    side: Side
    c: tuple[Scalar, ...]
    strict: bool

    def __post_init__(self) -> None:
        if self.side not in ("lower", "upper"):
            raise InputError(f"side must be 'lower' or 'upper', got {self.side!r}")
        _check_word(self.n, self.word)
        if len(self.c) != len(self.word):
            raise InputError("parameter tuple must match the word length")
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "c", _validate_params(self.c, self.strict, self.side))


def synthesize_uni(p: UniParams) -> Matrix:
    """Product of the word's generators, each applied as a column operation.

    Right multiplication by gen_x(i, c) adds c times column i+1 to column i,
    and by gen_y(i, c) adds c times column i to column i+1, so the product
    costs O(n^3) rather than the O(n^5) of multiplying full generators.
    Entry types are those of that product: a float parameter turns every
    entry into a float, and a row that holds a Fraction turns wholly
    Fraction at the next generator.
    """
    n = p.n
    rows: list[list[Scalar]] = [[int(r == j) for j in range(n)] for r in range(n)]
    ints, mixed, done = 0, 1, 2  # per row: all int, some Fraction, none to promote
    state = [ints] * n
    for i, c in zip(p.word, p.c):
        dst, src = (i - 1, i) if p.side == "lower" else (i, i - 1)
        if isinstance(c, float):
            rows = [[float(x) for x in row] for row in rows]
            state = [done] * n
        for r, row in enumerate(rows):
            if state[r] == mixed:
                row[:] = map(Fraction, row)
                state[r] = done
            row[dst] += c * row[src]
            if state[r] == ints and isinstance(row[dst], Fraction):
                state[r] = mixed
    return Matrix(rows)


def synthesize(p: TPParameters) -> Matrix:
    """Multiply out lower generators, the diagonal, then upper generators.

    Strict parameters yield a totally positive matrix; relaxed parameters
    yield an invertible totally nonnegative one.
    """
    lower = synthesize_uni(UniParams(p.n, p.word, "lower", p.a, p.strict))
    upper = synthesize_uni(UniParams(p.n, p.word, "upper", p.b, p.strict))
    return lower @ Matrix.diagonal(list(p.t)) @ upper


# -- Gauss decomposition ---------------------------------------------------


def _ldu(m: Matrix, positive: bool = False) -> tuple[list[Fraction], Matrix | None, Matrix | None]:
    """Pivot-free exact elimination M = L * diag(d) * U, one pivot at a time.

    Returns (d, L, U), each factor built when first read, since most callers
    read one factor or none.  Stops at the first zero pivot, or with
    ``positive`` at the first negative one too; d then ends with that pivot
    and L and U are None.  The k-th leading principal minor is d_1 ... d_k.

    A pivot-free Bareiss pass runs on the integers A = diag(R) M diag(C) of
    :func:`totpos.linalg._cleared`.  Before step k, a[i][j] (i, j >= k) is
    the minor of A on rows 0..k-1, i and columns 0..k-1, j, so P_k = a[k][k]
    is its leading principal minor of order k+1; step k updates only the
    entries below and right of the pivot, so row k and column k keep these
    values.  Then d_k = P_k / (P_{k-1} R_k C_k), L[i][k] = a[i][k] R_k /
    (R_i P_k) and U[k][j] = a[k][j] C_k / (C_j P_k).
    """
    n = m.rows
    a, row_den, col_den = _cleared(m)
    a = [list(row) for row in a]
    diag: list[Fraction] = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        diag.append(Fraction(pivot, prev * row_den[k] * col_den[k]))
        if pivot == 0 or (positive and pivot < 0):
            return diag, None, None
        row = a[k][k + 1:]
        for i in range(k + 1, n):
            f, tail = a[i][k], a[i][k + 1:]
            a[i][k + 1:] = [(x * pivot - f * y) // prev for x, y in zip(tail, row)]
        prev = pivot

    def upper(g, s) -> Matrix:
        # row i times s_i sign(P_i): integers over |P| and s, cut by gcds with P;
        # the entries on and below the diagonal are the ints 1 and 0
        return Matrix._of(form=(*_cut(
            [[0] * i + [x * t for x in row[i:]]
             for i, row in enumerate(g) for t in [s[i] if row[i] > 0 else -s[i]]],
            [abs(row[i]) for i, row in enumerate(g)]), s),
            ints=[[1] * (i + 1) + [0] * (n - 1 - i) for i in range(n)])

    def factor(build) -> Matrix:  # built when first read
        return object.__new__(_Lazy)._set(rows=n, cols=n, _exact=True, _build=build)

    # L is the transpose of the upper factor read from A^T and R
    return (diag, factor(lambda: upper(list(zip(*a)), row_den).transpose()),
            factor(lambda: upper(a, col_den)))


def gauss_ldu(m: Matrix) -> tuple[Matrix, tuple[Fraction, ...], Matrix] | None:
    """Pivot-free M = L * diag(d) * U with L, U unitriangular.

    Exists iff every leading principal minor is nonzero; returns None
    otherwise.  No row exchanges: the decomposition must respect the
    triangular structure, so a vanishing pivot is a genuine obstruction.
    Pivots and factors are exact, float input included: the elimination
    runs on integers, and each factor builds its entries when they are read.
    """
    if not m.is_square:
        raise InputError("decomposition requires a square matrix")
    diag, lower, upper = _ldu(m)
    if lower is None:
        return None
    return lower, tuple(diag), upper


# -- peels ------------------------------------------------------------------


def _peel(m: Matrix | tuple, kind: WordKind) -> tuple[Fraction, ...] | None:
    """Strip the word's lower generators from the right, one column at a time.

    Standard word: when the rightmost remaining generator has letter i and
    lives in block j, writing the product as X * gen_x(i, c) forces the
    identity Q[i+j, i] = c * Q[i+j, i+1]: column i of the block-(< j) prefix
    cannot reach row i+j, while column i+1 can.  The ratio at that fixed
    position recovers c even when other parameters vanish (0/0 resolves to
    0), and the column operation col(i) -= c * col(i+1) removes the
    generator.

    Reversed word: the anti-transpose X -> w0 X^T w0 sends gen_x(i, c) to
    gen_x(n-i, c) and reverses products, so the same rule runs on the
    anti-transposed matrix Q', stripping the reversed word's generators from
    left to right: Q'[n-j+1, n-i] = c * Q'[n-j+1, n-i+1].  A final identity
    check rejects matrices outside the image of the parameter map.  In the
    nonnegative cone each prefix product, so each x and y, is nonnegative:
    the peel returns None at the first negative one, a c < 0 among them.

    Q is a Matrix or its integer form.  Each column is held as integers over
    one positive denominator, so a column operation is one integer combination
    divided by the column's content, and each parameter is one Fraction.
    """
    a, row_den, col_den = form = m if isinstance(m, tuple) else _cleared(m)
    n = len(a)
    blocks = _blocks(n, kind)
    if kind == "standard":
        cols, order = _columns(form), range(len(blocks) - 1, -1, -1)
    else:  # column c of w0 Q^T w0 is row n-1-c of Q read backwards
        rows = _columns((list(zip(*a)), col_den, row_den))
        cols, order = [(v[::-1], d) for v, d in reversed(rows)], range(len(blocks))
    out: list[Fraction] = [Fraction(0)] * len(blocks)
    for s in order:
        i, j = blocks[s]
        r, col = (i + j - 1, i) if kind == "standard" else (n - j, n - i)  # 0-based row
        (u, d), (v, e) = cols[col - 1], cols[col]
        x, y = u[r], v[r]  # c = (x / d) / (y / e), where 0/0 is 0
        if x == 0:
            continue
        if x < 0 or y <= 0:
            return None
        h = math.gcd(x, y)
        x, y = x // h, y // h
        out[s] = Fraction(x * e, y * d)
        w = [y * a - x * b for a, b in zip(u, v)]
        g = math.gcd(y * d, *w)
        cols[col - 1] = [t // g for t in w], y * d // g
    if all(v == [e if i == k else 0 for i in range(n)] for k, (v, e) in enumerate(cols)):
        return tuple(out)
    return None


def membership_uni(
    m: Matrix,
    side: Side,
    word: WordKind = "standard",
) -> UniParams | None:
    """Factor a unitriangular matrix over the chosen word, if possible.

    Returns UniParams whose ``strict`` flag records whether all parameters
    came out positive, or None when the matrix is not a product of
    nonnegative generators over that word, which the peel decides.
    """
    if not m.is_square:
        raise InputError("membership requires a square matrix")
    if side not in ("lower", "upper"):
        raise InputError(f"side must be 'lower' or 'upper', got {side!r}")
    letters = word_for(m.rows, word)  # InputError on an unknown word kind
    target, kind = m, word
    if side == "upper":
        # conjugating by the reversal permutation (reversing the rows and
        # the columns) swaps the two sides and the two words while
        # preserving parameter order
        target, kind = _flipped(m, True, True), "reversed" if word == "standard" else "standard"
    a, row_den, col_den = form = _cleared(target)
    # lower unitriangular: A[i][i] = R_i C_i, and A is zero above the diagonal
    if not all(x == (row_den[i] * col_den[i] if i == j else 0)
               for i, row in enumerate(a) for j, x in enumerate(row[i:], i)):
        raise DomainError(f"matrix is not {side} unitriangular")
    cs = _peel(form, kind)
    return None if cs is None else UniParams(m.rows, letters, side, cs, all(cs))


def factorize(m: Matrix, word: WordKind = "standard") -> TPParameters:
    """Recover the unique factorization parameters of a totally positive matrix.

    Raises DomainError when the input is provably not totally positive (the
    Gauss decomposition or a peel fails, or a recovered parameter is not
    positive).  Input is factored exactly on integers, float input
    included, and its parameters are Fractions.  On exact input,
    :func:`totpos.classify.is_totally_positive` reads its verdict from this
    same elimination and the same peels, and falls back to the minor table
    only where they cannot decide.
    """
    if not m.is_square:
        raise InputError("factorization requires a square matrix")
    n = m.rows
    letters = word_for(n, word)
    ldu = gauss_ldu(m)
    if ldu is None:
        raise DomainError(
            "a leading principal minor vanishes; the matrix is not totally positive"
        )
    lower_mat, diag, upper_mat = ldu
    if any(not d > 0 for d in diag):
        raise DomainError("a leading principal minor ratio is not positive")
    lower = membership_uni(lower_mat, "lower", word)
    upper = membership_uni(upper_mat, "upper", word)
    if lower is None or upper is None:
        raise DomainError("unitriangular factor is outside the nonnegative cone")
    if not (lower.strict and upper.strict):
        raise DomainError(
            "factorization parameters are not all strictly positive; "
            "the matrix is totally nonnegative at best"
        )
    return TPParameters(n, letters, lower.c, diag, upper.c, strict=True)

