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
The peel rule is exact on the image of the parameter map and detects
non-membership by a failed final identity check.  Every input is factored
over Fraction, a float matrix as the dyadic rationals its entries are, so
pivots, factors and parameters are always exact and no tolerance decides a
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .errors import DomainError, InputError
from .linalg import Matrix
from .scalars import Scalar

WordKind = Literal["standard", "reversed"]
Side = Literal["lower", "upper"]


def _blocks(n: int, kind: WordKind) -> tuple[tuple[int, int], ...]:
    """(letter, block) pairs of a word; block j holds 1..n-j in the standard
    word and n-1..j in the reversed one.  Words and peels both read it."""
    if n < 1:
        raise InputError("word size needs n >= 1")
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


def gen_x(i: int, a: Scalar, n: int) -> Matrix:
    """Lower elementary generator: identity plus ``a`` at entry (i+1, i)."""
    if not 1 <= i <= n - 1:
        raise InputError(f"generator index must lie in [1, {n - 1}], got {i}")
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i][i - 1] = a
    return Matrix(rows)


def gen_y(i: int, a: Scalar, n: int) -> Matrix:
    """Upper elementary generator: identity plus ``a`` at entry (i, i+1)."""
    if not 1 <= i <= n - 1:
        raise InputError(f"generator index must lie in [1, {n - 1}], got {i}")
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1][i] = a
    return Matrix(rows)


def _validate_params(
    values: Sequence[Scalar], strict: bool, label: str
) -> tuple[Scalar, ...]:
    out = tuple(values)
    for v in out:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction, float)):
            raise InputError(f"{label} parameter {v!r} is not a supported scalar")
        if strict and not v > 0:
            raise InputError(f"{label} parameters must be strictly positive, got {v}")
        if not strict and v < 0:
            raise InputError(f"{label} parameters must be nonnegative, got {v}")
    return out


def _check_word(n: int, word: Sequence[int]) -> None:
    """Raise InputError unless n >= 1 and every letter lies in [1, n-1]."""
    if n < 1:
        raise InputError("parameters need n >= 1")
    for i in word:
        if not 1 <= i <= n - 1:
            raise InputError(f"word letter {i} outside [1, {n - 1}]")


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
        for v in self.t:
            if not v > 0:
                raise InputError(f"diagonal entries must be positive, got {v}")
        object.__setattr__(self, "t", tuple(self.t))


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


def _work_rows(m: Matrix) -> list[list[Fraction]]:
    """Mutable exact copy of the rows: every entry, a float too, becomes the
    Fraction it equals, so / is exact."""
    return [[Fraction(x) for x in m.row_tuple(i)] for i in range(m.rows)]


def _ldu(m: Matrix, positive: bool = False) -> tuple[list[Fraction], Matrix | None, Matrix | None]:
    """Pivot-free exact elimination M = L * diag(d) * U, one pivot at a time.

    Returns (d, L, U).  Stops at the first zero pivot, or with ``positive``
    at the first negative one too; d then ends with that pivot and L and U
    are None.  The k-th leading principal minor is d_1 ... d_k.
    """
    n = m.rows
    a = _work_rows(m)
    lower = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    diag: list[Fraction] = []
    for k in range(n):
        pivot = a[k][k]
        diag.append(pivot)
        if pivot == 0 or (positive and pivot < 0):
            return diag, None, None
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            lower[i][k] = f
            if f != 0:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    upper = [
        [a[i][j] / diag[i] if j > i else (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return diag, Matrix(lower), Matrix(upper)


def gauss_ldu(m: Matrix) -> tuple[Matrix, tuple[Fraction, ...], Matrix] | None:
    """Pivot-free M = L * diag(d) * U with L, U unitriangular.

    Exists iff every leading principal minor is nonzero; returns None
    otherwise.  No row exchanges: the decomposition must respect the
    triangular structure, so a vanishing pivot is a genuine obstruction.
    Pivots and factors are exact, float input included.
    """
    if not m.is_square:
        raise InputError("decomposition requires a square matrix")
    diag, lower, upper = _ldu(m)
    if lower is None:
        return None
    return lower, tuple(diag), upper


# -- peels ------------------------------------------------------------------


def _check_identity(a: list[list[Fraction]]) -> bool:
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x != (1 if i == j else 0):
                return False
    return True


def _peel_ratio(num: Fraction, den: Fraction) -> Fraction | None:
    """num/den, where 0/0 is 0; None marks non-membership."""
    if den == 0:
        return Fraction(0) if num == 0 else None
    return num / den


def _peel(m: Matrix, kind: WordKind) -> tuple[Fraction, ...] | None:
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
    check rejects matrices outside the image of the parameter map.
    """
    n = m.rows
    blocks = _blocks(n, kind)
    a = _work_rows(m)
    if kind == "standard":
        order = range(len(blocks) - 1, -1, -1)
    else:
        a = [[a[n - 1 - c][n - 1 - r] for c in range(n)] for r in range(n)]
        order = range(len(blocks))
    out: list[Fraction] = [Fraction(0)] * len(blocks)
    for s in order:
        i, j = blocks[s]
        r, col = (i + j - 1, i) if kind == "standard" else (n - j, n - i)  # 0-based row
        c = _peel_ratio(a[r][col - 1], a[r][col])
        if c is None:
            return None
        out[s] = c
        if c != 0:
            for row in a:
                row[col - 1] -= c * row[col]
    if not _check_identity(a):
        return None
    return tuple(out)


def _is_unitriangular(m: Matrix, side: Side) -> bool:
    n = m.rows
    for i in range(n):
        if m[i, i] != 1:
            return False
        for j in range(n):
            if side == "lower" and j > i and m[i, j] != 0:
                return False
            if side == "upper" and j < i and m[i, j] != 0:
                return False
    return True


def membership_uni(
    m: Matrix,
    side: Side,
    word: WordKind = "standard",
) -> UniParams | None:
    """Factor a unitriangular matrix over the chosen word, if possible.

    Returns UniParams whose ``strict`` flag records whether all parameters
    came out positive, or None when the matrix is not a product of
    nonnegative generators over that word.
    """
    if not m.is_square:
        raise InputError("membership requires a square matrix")
    if not _is_unitriangular(m, side):
        raise DomainError(f"matrix is not {side} unitriangular")
    if word not in ("standard", "reversed"):
        raise InputError(f"unknown word kind {word!r}")
    n = m.rows
    if side == "lower":
        target = m
        kind = word
    else:
        # conjugating by the reversal permutation (reversing the rows and
        # the columns) swaps the two sides and the two words while
        # preserving parameter order
        target = Matrix([row[::-1] for row in reversed(m.to_lists())])
        kind = "reversed" if word == "standard" else "standard"
    cs = _peel(target, kind)
    if cs is None:
        return None
    if any(c < 0 for c in cs):
        return None
    strict = all(c > 0 for c in cs)
    return UniParams(n, word_for(n, word), side, cs, strict)


def factorize(m: Matrix, word: WordKind = "standard") -> TPParameters:
    """Recover the unique factorization parameters of a totally positive matrix.

    Raises DomainError when the input is provably not totally positive (the
    Gauss decomposition or a peel fails, or a recovered parameter is not
    positive).  Input is factored over Fraction, float input included, so
    its parameters are Fractions.  On exact input,
    :func:`totpos.classify.is_totally_positive` reads its verdict from this
    same elimination and the same peels, and falls back to the minor table
    only where they cannot decide.
    """
    if not m.is_square:
        raise InputError("factorization requires a square matrix")
    n = m.rows
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
    return TPParameters(n, word_for(n, word), lower.c, diag, upper.c, strict=True)

