"""Complete flags, positivity cells, and stable flag pairs of positive maps.

A flag is the increasing chain of column spans of an invertible matrix.
Each flag owns a unique column-echelon representative: scanning columns
left to right, every column is reduced against the pivots already chosen,
scaled so its bottommost nonzero entry is 1, and earlier pivot rows are
zeroed.  The representative is computed exactly, a float matrix as the
dyadic rationals its entries are, so no tolerance decides a pivot: the
columns are reduced as integers, and each entry is built when read.  Two
matrices generate the same flag exactly when their canonical
representatives coincide, which turns flag equality into matrix equality.

The open positive cell consists of flags of strictly-factorizable lower
unitriangular matrices; its primed companion consists of flags of inverses
of such matrices.  Both are read from the lower Gauss factor L of a
representative: the open cell peels L over the standard word, and the
primed cell peels the twist of L^-1 over the reversed word, a signed index
reversal of L^T, so no inverse is formed.  A totally positive matrix fixes
exactly one flag from each cell, spanned by its eigenbasis in decreasing
respectively increasing eigenvalue order, and the induced action on the
tangent spaces at those fixed flags dilates at one and contracts at the
other, read in the eigenbasis itself: it is the frame adapted to the pair.
Two flags are opposed exactly when one Gauss decomposition of their
relative position exists, which also yields that frame, and the images of
a stable pair and its moduli come from one frame map.  The stability and
torus tolerances are module constants, not per-call settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from .bilinear import _twisted, tilde
from .errors import (
    ConsistencyError,
    DomainError,
    InputError,
    SingularityError,
)
from .linalg import (
    Matrix, _cleared, _columns, _flipped, _solve_exact, inverse, reversal_permutation)
from .spectra import gk_spectrum, refine_eigenbasis
from .whitney import UniParams, gauss_ldu, membership_uni, standard_word

SigmaMode = Literal["identity", "tilde"]

# How far a stable flag's representative may move under the action, relative to
# its largest entry, and the off-diagonal bound, relative to the diagonal, of a map on the positive torus.
_STABILITY_TOL = 1e-6
_COMPONENT_REL_TOL = 1e-8


@dataclass(frozen=True)
class Flag:
    """A complete flag, built from any square invertible matrix whose
    column-span chain it is and stored through its canonical representative,
    so equal flags compare equal."""

    rep: Matrix

    def __post_init__(self) -> None:
        if not self.rep.is_square:
            raise InputError("flags come from square invertible matrices")
        object.__setattr__(self, "rep", _canonical_rep(self.rep))

    @property
    def n(self) -> int:
        return self.rep.rows

    def approx_equal(self, other: "Flag") -> bool:
        return self.rep.approx_equal(other.rep)


def _canonical_rep(g: Matrix) -> Matrix:
    """Column echelon representative, reduced on integer columns: column v
    becomes v * u[p] - v[p] * u for each earlier column u with pivot row p,
    then v over its content with a positive pivot entry: the form, over the
    pivot entries (the column lcms); the ints are the 1 on each pivot and the
    0s on the pivot rows before it, every other entry is a Fraction."""
    ints: list[list[int]] = []
    pivots: list[int] = []
    for v, _ in _columns(_cleared(g)):
        for p, u in zip(pivots, ints):
            f, e = v[p], u[p]
            if f:
                v = [a * e - f * b for a, b in zip(v, u)]
        content = math.gcd(*v)
        if content == 0:
            raise SingularityError("matrix columns are linearly dependent")
        piv = max(i for i, a in enumerate(v) if a)
        ints.append([a // content if v[piv] > 0 else -a // content for a in v])
        pivots.append(piv)
    # row i, the pivot of column j, holds ints from column j on
    return Matrix._of(form=(list(zip(*ints)), [1] * len(ints), [v[p] for v, p in zip(ints, pivots)]),
                      ints=[[0] * j + [1] * (g.cols - j) for j in map(pivots.index, range(g.rows))])


def flag_from_matrix(g: Matrix) -> Flag:
    """Flag of the column-span chain of an invertible matrix, ``Flag(g)``;
    the representative is exact, a float matrix read as its dyadic copy."""
    return Flag(g)


def standard_flag(n: int) -> Flag:
    return Flag(Matrix.identity(n))


def reversed_flag(n: int) -> Flag:
    return Flag(reversal_permutation(n))


def _relative_ldu(f1: Flag, f2: Flag) -> tuple[Matrix, tuple[Fraction, ...], Matrix] | None:
    """Pivot-free LDU of w0 A^-1 B (A, B the representatives, w0 the
    reversal), each factor built when first read; None exactly when the
    flags are not opposed.  A^-1 moves the pair to the standard flag and
    the flag of A^-1 B, and e_1..e_k with the first n-k columns of A^-1 B
    span everything iff the last n-k rows of those columns, the order n-k
    leading block of w0 A^-1 B, are independent."""
    if f1.n != f2.n:
        raise InputError("flags must live in the same dimension")
    # w0 @ X reverses the rows of X
    return gauss_ldu(_flipped(_solve_exact(f1.rep, f2.rep), True, False))


def opposed(f1: Flag, f2: Flag) -> bool:
    """General position: every split of the two chains spans everything."""
    return _relative_ldu(f1, f2) is not None


def _cell_params(g: Matrix, primed: bool) -> UniParams | None:
    """Strict parameters of the lower LDU factor L of g, or of L^-1 for the
    primed cell; None when there are none.

    g may be any invertible representative of the flag: the canonical one
    is g times an upper triangular matrix, so the two share their lower
    unitriangular factor, and either both have an LDU or neither does.
    L^-1 is never formed: the twist sends each generator x_i(c) to
    x_{n-i}(c), so the standard word's products to the reversed word's, and
    L^-1 has the standard-word parameters c exactly when its twist
    (-1)^(n+1) C0 L^T C0 has the reversed-word parameters c.
    """
    ldu = gauss_ldu(g)
    if ldu is None:
        return None
    n, lower, word = g.rows, ldu[0], "standard"
    if primed:
        lower, word = _twisted(lower.transpose(), True, True, n % 2 == 0), "reversed"
    params = membership_uni(lower, "lower", word)
    if params is None or not params.strict:
        return None
    return UniParams(n, standard_word(n), "lower", params.c, True) if primed else params


def in_B_pos(f: Flag) -> UniParams | None:
    """Certificate that the flag lies in the open positive cell.

    Returns strictly positive factorization parameters of the flag's lower
    unitriangular representative, or None when the flag is outside the
    open cell (including its boundary).
    """
    return _cell_params(f.rep, False)


def in_B_pos_prime(f: Flag) -> UniParams | None:
    """Certificate for the primed cell: the standard-word parameters of the
    inverse of the representative's lower factor, peeled from its twist
    over the reversed word with no inverse formed."""
    return _cell_params(f.rep, True)


def adapted_basis(f1: Flag, f2: Flag) -> Matrix:
    """Basis with w_k spanning the line F1_k intersect F2_{n-k+1}.

    Requires opposed flags; each column is scaled so its bottommost
    nonzero entry is 1.  The change of basis to this frame sends f1 to the
    standard flag and f2 to the reversed one.

    With A, B the representatives, w0 the reversal and w0 A^-1 B = L D U
    the opposedness test, A w0 L w0 is A times an upper unitriangular
    matrix, and its k-th column, A w0 times column n-k+1 of L, lies in the
    span of the first n-k+1 columns of B U^-1.
    """
    ldu = _relative_ldu(f1, f2)
    if ldu is None:
        raise DomainError("flags are not opposed; the adapted basis does not exist")
    # A times an upper unitriangular matrix: the n lines are independent
    frame = f1.rep @ _flipped(ldu[0], True, True)
    return _bottom_normalized(frame)


def _bottom_normalized(frame: Matrix) -> Matrix:
    """Columns of an exact frame scaled to a bottommost nonzero entry of 1; its form holds
    each column over its content, signed to a positive bottom, scaled by it; R = 1."""
    columns = []
    for v, _ in _columns(_cleared(frame)):
        bottom = next(x for x in reversed(v) if x)
        g = math.gcd(*v) if bottom > 0 else -math.gcd(*v)
        columns.append(([x // g for x in v], bottom // g))
    ints, bottoms = zip(*columns)
    return Matrix._of(form=(list(zip(*ints)), [1] * frame.rows, bottoms),
                      ints=[[0] * frame.cols] * frame.rows)


@dataclass(frozen=True)
class StableFlagPair:
    """The two fixed flags of a positive map, with transversal data.

    ``dilation_moduli`` are the absolute eigenvalues of the induced action
    on the tangent space at the repelling flag (all above 1),
    ``contraction_moduli`` the same at the attracting flag (all below 1),
    and ``finite_order_moduli`` the absolute eigenvalues on the common
    stabilizer directions (all equal to 1 in theory).  ``margin`` is the
    least factorization parameter across both positivity certificates.
    """

    flag: Flag
    flag_prime: Flag
    params: UniParams
    params_prime: UniParams
    eigenvalues: tuple[float, ...]
    dilation_moduli: tuple[float, ...]
    contraction_moduli: tuple[float, ...]
    finite_order_moduli: tuple[float, ...]
    stability_residual: float
    margin: float
    sigma_mode: SigmaMode


def _flag_distance(a: Flag, b: Flag) -> float:
    """Largest entrywise gap of the rounded representatives over their largest |entry|."""
    x, y = a.rep.to_float().to_lists(), b.rep.to_float().to_lists()
    gap = max(abs(p - q) for r, s in zip(x, y) for p, q in zip(r, s))
    return gap / max(abs(p) for row in x + y for p in row)


def _transport_blocks(
    m: Matrix, sigma_mode: SigmaMode
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Moduli of the induced map on strictly-upper, strictly-lower and
    diagonal matrix coordinates in the adapted frame.

    ``m`` is the frame map: the action is y -> m y m^-1 in identity mode
    and y -> -m y^T m^-1 in tilde mode.  Entry ((a, b), (i, j)) of its
    n^2 x n^2 operator, the coefficient of y[i, j] in entry (a, b) of the
    image, is m[a, i] m^-1[j, b], respectively -m[a, j] m^-1[i, b]; each
    block is the operator restricted to one set of coordinates.
    """
    n = m.rows
    a = np.array(m.to_float().to_lists(), dtype=np.float64)
    if not np.max(np.abs(a)) >= np.finfo(np.float64).tiny:
        raise InputError("the frame map lies outside the float range")
    op = np.einsum("ai,jb->abij", a, np.linalg.inv(a))
    if sigma_mode == "tilde":
        op = -op.swapaxes(2, 3)
    op = op.reshape(n * n, n * n)
    i, j = np.divmod(np.arange(n * n), n)

    def block_moduli(coords: np.ndarray) -> tuple[float, ...]:
        eig = np.linalg.eigvals(op[np.ix_(coords, coords)])
        return tuple(sorted((float(abs(x)) for x in eig), reverse=True))

    return block_moduli(i < j), block_moduli(i > j), block_moduli(i == j)


def stable_flags(g: Matrix, sigma_mode: SigmaMode = "identity") -> StableFlagPair:
    """Fixed flags of the twisted conjugation action of a positive map.

    In identity mode the input must be totally positive; in tilde mode the
    input times its twist must be.  The attracting flag collects the
    eigenvectors in decreasing eigenvalue order and lands in the open
    positive cell; the repelling flag takes the increasing order and lands
    in the primed cell; the eigenvectors are refined exactly, and a float map
    is read as its dyadic copy.  Both fixed-point claims are re-verified on
    the computed flags, as are the cell memberships and the transversal moduli.
    """
    if not g.is_square:
        raise InputError("stable flags require a square matrix")
    n = g.rows
    if n < 2:
        raise InputError(f"stable flags need n >= 2, got a {n}x{n} matrix")
    g = g.to_exact()
    if sigma_mode == "identity":
        composite = g
        requirement = "identity mode requires a totally positive matrix"
    elif sigma_mode == "tilde":
        composite = g @ tilde(g)
        requirement = (
            "tilde mode requires the matrix times its twist to be totally positive"
        )
    else:
        raise InputError(f"unknown sigma mode {sigma_mode!r}")
    try:
        spectrum = gk_spectrum(composite)
    except DomainError:
        raise DomainError(requirement) from None
    v = refine_eigenbasis(composite, spectrum.eigenvalues, spectrum.eigenvectors)
    flag = flag_from_matrix(v)
    flag_prime = flag_from_matrix(_flipped(v, False, True))
    params = in_B_pos(flag)
    if params is None:
        raise ConsistencyError("attracting flag missed the open positive cell")
    params_prime = in_B_pos_prime(flag_prime)
    if params_prime is None:
        raise ConsistencyError("repelling flag missed the primed positive cell")
    # column k of v spans F_k meet F'_{n-k+1}, so v frames the pair, which is
    # opposed: flag_from_matrix has already rejected a dependent v
    w = _bottom_normalized(v)
    w_inv = inverse(w)
    # the representatives are w and w reversed times upper triangular
    # matrices, which tilde keeps upper triangular: the images are the flags
    # of g alpha(w) and of its reversal, with alpha(w) = tilde(w) in tilde mode
    w_alpha = w
    if sigma_mode == "tilde":
        w_alpha = _twisted(w_inv.transpose(), True, True, n % 2 == 0)
    image = g @ w_alpha
    residual = max(
        _flag_distance(flag_from_matrix(image), flag),
        _flag_distance(flag_from_matrix(_flipped(image, False, True)), flag_prime),
    )
    if residual > _STABILITY_TOL:
        raise ConsistencyError(
            f"computed flags move under the action by {residual:.3e}, "
            f"beyond the stability tolerance {_STABILITY_TOL:.3e}"
        )
    if sigma_mode == "tilde":
        # the tangent action is y -> -m y^T m^-1 with m = w^-1 g tilde(w) C0
        image = _twisted(image, False, True)
    dilation, contraction, finite = _transport_blocks(w_inv @ image, sigma_mode)
    margin = min(
        min(float(c) for c in params.c),
        min(float(c) for c in params_prime.c),
    )
    return StableFlagPair(
        flag=flag,
        flag_prime=flag_prime,
        params=params,
        params_prime=params_prime,
        eigenvalues=spectrum.eigenvalues,
        dilation_moduli=dilation,
        contraction_moduli=contraction,
        finite_order_moduli=finite,
        stability_residual=residual,
        margin=margin,
        sigma_mode=sigma_mode,
    )


def identity_component_check(g: Matrix, pair: StableFlagPair) -> bool:
    """True when the map is diagonal with positive entries in the frame
    adapted to its stable pair, i.e. lies on the positive torus through the
    identity rather than a twisted component: one exact solve, rounded once."""
    if not g.is_square:
        raise InputError("component check requires a square matrix")
    w = adapted_basis(pair.flag, pair.flag_prime)
    d = _solve_exact(w, g.to_exact() @ w).to_float()
    n = d.rows
    diag = [float(d[i, i]) for i in range(n)]
    scale = max(abs(x) for x in diag)
    if scale == 0.0:
        return False
    for i in range(n):
        for j in range(n):
            if i != j and abs(float(d[i, j])) > _COMPONENT_REL_TOL * scale:
                return False
    return all(x > 0 for x in diag)
