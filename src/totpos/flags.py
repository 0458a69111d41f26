"""Complete flags, positivity cells, and stable flag pairs of positive maps.

A flag is the increasing chain of column spans of an invertible matrix.
Each flag owns a unique column-echelon representative: scanning columns
left to right, every column is reduced against the pivots already chosen,
scaled so its bottommost nonzero entry is 1, and earlier pivot rows are
zeroed.  The representative is computed exactly, a float matrix as the
dyadic rationals its entries are, so no tolerance decides a pivot.  Two
matrices generate the same flag exactly when their canonical
representatives coincide, which turns flag equality into matrix equality.

The open positive cell consists of flags of strictly-factorizable lower
unitriangular matrices; its primed companion consists of flags of inverses
of such matrices.  A totally positive matrix fixes exactly one flag from
each cell, spanned by its eigenbasis in decreasing respectively increasing
eigenvalue order, and the induced action on the tangent spaces at those
fixed flags dilates at one and contracts at the other, read in the
eigenbasis itself: it is the frame adapted to the pair.  The stability
and torus tolerances are module constants, not per-call settings.
"""

from __future__ import annotations

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
    Matrix,
    _solve_exact,
    inverse,
    rank,
    reversal_permutation,
)
from .scalars import as_fraction
from .spectra import _rationalize_columns, gk_spectrum, refine_eigenbasis
from .whitney import UniParams, gauss_ldu, membership_uni

SigmaMode = Literal["identity", "tilde"]

# How far a stable flag's representative may move under the action, and the
# off-diagonal bound, relative to the diagonal, of a map on the positive torus.
_STABILITY_TOL = 1e-6
_COMPONENT_REL_TOL = 1e-8


@dataclass(frozen=True)
class Flag:
    """A complete flag, stored through its canonical representative."""

    rep: Matrix

    @property
    def n(self) -> int:
        return self.rep.rows

    def approx_equal(self, other: "Flag") -> bool:
        return self.rep.approx_equal(other.rep)


def _canonical_rep(g: Matrix) -> Matrix:
    n = g.rows
    canon: list[list] = []
    pivots: list[int] = []
    for j in range(n):
        v = [as_fraction(x) for x in g.col_tuple(j)]
        for p, u in zip(pivots, canon):
            f = v[p]
            if f != 0:
                v = [a - f * b for a, b in zip(v, u)]
        piv = next((i for i in range(n - 1, -1, -1) if v[i]), None)
        if piv is None:
            raise SingularityError("matrix columns are linearly dependent")
        inv = 1 / v[piv]
        v = [a * inv for a in v]
        v[piv] = 1
        for p in pivots:
            v[p] = 0
        canon.append(v)
        pivots.append(piv)
    return Matrix.from_columns(canon)


def flag_from_matrix(g: Matrix) -> Flag:
    """Flag of the column-span chain of an invertible matrix; the
    representative is exact, a float matrix read as its dyadic copy."""
    if not g.is_square:
        raise InputError("flags come from square invertible matrices")
    return Flag(_canonical_rep(g))


def standard_flag(n: int) -> Flag:
    return Flag(Matrix.identity(n))


def reversed_flag(n: int) -> Flag:
    return Flag(reversal_permutation(n))


def opposed(f1: Flag, f2: Flag) -> bool:
    """General position: every split of the two chains spans everything."""
    if f1.n != f2.n:
        raise InputError("flags must live in the same dimension")
    n = f1.n
    if n == 1:
        return True
    for k in range(1, n):
        cols = [list(f1.rep.col_tuple(j)) for j in range(k)] + [
            list(f2.rep.col_tuple(j)) for j in range(n - k)
        ]
        if rank(Matrix.from_columns(cols)) < n:
            return False
    return True


def _cell_params(g: Matrix, primed: bool) -> UniParams | None:
    """Strict parameters of the lower LDU factor of g, or of its inverse
    for the primed cell; None when there are none.

    g may be any invertible representative of the flag: the canonical one
    is g times an upper triangular matrix, so the two share their lower
    unitriangular factor, and either both have an LDU or neither does.
    """
    ldu = gauss_ldu(g)
    if ldu is None:
        return None
    lower = inverse(ldu[0]) if primed else ldu[0]
    params = membership_uni(lower, "lower")
    if params is None or not params.strict:
        return None
    return params


def in_B_pos(f: Flag) -> UniParams | None:
    """Certificate that the flag lies in the open positive cell.

    Returns strictly positive factorization parameters of the flag's lower
    unitriangular representative, or None when the flag is outside the
    open cell (including its boundary).
    """
    return _cell_params(f.rep, False)


def in_B_pos_prime(f: Flag) -> UniParams | None:
    """Certificate for the primed cell: the representative's inverse factors."""
    return _cell_params(f.rep, True)


def adapted_basis(f1: Flag, f2: Flag) -> Matrix:
    """Basis with w_k spanning the line F1_k intersect F2_{n-k+1}.

    Requires opposed flags with exact representatives; each column is
    scaled so its bottommost nonzero entry is 1.  The change of basis to
    this frame sends f1 to the standard flag and f2 to the reversed one.

    With A, B the representatives and w0 the reversal, the flags are
    opposed exactly when w0 A^-1 B = L D U has a pivot-free Gauss
    decomposition; then A w0 L w0 is A times an upper unitriangular
    matrix, and its k-th column, A w0 times column n-k+1 of L, lies in
    the span of the first n-k+1 columns of B U^-1.
    """
    if f1.n != f2.n:
        raise InputError("flags must live in the same dimension")
    if not (f1.rep.is_exact and f2.rep.is_exact):
        raise InputError("adapted bases require exact representatives")
    # w0 @ X reverses the rows of X, and X @ w0 its columns
    ldu = gauss_ldu(Matrix(_solve_exact(f1.rep, f2.rep.to_lists())[::-1]))
    if ldu is None:
        raise DomainError("flags are not opposed; the adapted basis does not exist")
    # A times an upper unitriangular matrix: the n lines are independent
    frame = f1.rep @ Matrix([row[::-1] for row in ldu[0].to_lists()[::-1]])
    return _bottom_normalized(frame)


def _bottom_normalized(frame: Matrix) -> Matrix:
    """Columns of an exact frame scaled to a bottommost nonzero entry of 1."""
    columns = []
    for j in range(frame.cols):
        col = frame.col_tuple(j)
        bottom = Fraction(next(x for x in reversed(col) if x != 0))
        columns.append([x / bottom for x in col])
    return Matrix.from_columns(columns)


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
    diff = a.rep.to_float() - b.rep.to_float()
    return max(abs(float(x)) for row in diff.to_lists() for x in row)


def _transport_blocks(
    g_w: Matrix, sigma_mode: SigmaMode, k_mat: Matrix | None
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Moduli of the induced map on strictly-upper, strictly-lower and
    diagonal matrix coordinates in the adapted frame."""
    n = g_w.rows
    g = np.array(g_w.to_float().to_lists(), dtype=np.float64)
    g_inv = np.linalg.inv(g)
    if sigma_mode == "tilde":
        assert k_mat is not None
        k = np.array(k_mat.to_float().to_lists(), dtype=np.float64)
        k_inv = np.linalg.inv(k)

    def transport(y: np.ndarray) -> np.ndarray:
        if sigma_mode == "tilde":
            y = -k @ y.T @ k_inv
        return g @ y @ g_inv

    upper = [(i, j) for i in range(n) for j in range(n) if i < j]
    lower = [(i, j) for i in range(n) for j in range(n) if i > j]
    diag = [(i, i) for i in range(n)]

    def block_moduli(coords: list[tuple[int, int]]) -> tuple[float, ...]:
        if not coords:
            return ()
        op = np.zeros((len(coords), len(coords)))
        for col, (i, j) in enumerate(coords):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            t = transport(e)
            for row, (a, b) in enumerate(coords):
                op[row, col] = t[a, b]
        return tuple(sorted((float(abs(x)) for x in np.linalg.eigvals(op)), reverse=True))

    return block_moduli(upper), block_moduli(lower), block_moduli(diag)


def stable_flags(g: Matrix, sigma_mode: SigmaMode = "identity") -> StableFlagPair:
    """Fixed flags of the twisted conjugation action of a positive map.

    In identity mode the input must be totally positive; in tilde mode the
    input times its twist must be.  The attracting flag collects the
    eigenvectors in decreasing eigenvalue order and lands in the open
    positive cell; the repelling flag takes the increasing order and lands
    in the primed cell.  Both fixed-point claims are re-verified on the
    computed flags, as are the cell memberships and the transversal
    dilation/contraction moduli.
    """
    if not g.is_square:
        raise InputError("stable flags require a square matrix")
    n = g.rows
    if n < 2:
        raise InputError(f"stable flags need n >= 2, got a {n}x{n} matrix")
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
    if composite.is_exact:
        v = refine_eigenbasis(composite, spectrum.eigenvalues, spectrum.eigenvectors)
    else:
        v = _rationalize_columns(spectrum.eigenvectors)
    flag = flag_from_matrix(v)
    flag_prime = flag_from_matrix(
        Matrix.from_columns([list(v.col_tuple(j)) for j in range(n - 1, -1, -1)])
    )
    params = in_B_pos(flag)
    if params is None:
        raise ConsistencyError("attracting flag missed the open positive cell")
    params_prime = in_B_pos_prime(flag_prime)
    if params_prime is None:
        raise ConsistencyError("repelling flag missed the primed positive cell")

    def alpha_image(f: Flag) -> Flag:
        rep = f.rep if sigma_mode == "identity" else tilde(f.rep)
        return flag_from_matrix(g @ rep)

    residual = max(
        _flag_distance(alpha_image(flag), flag),
        _flag_distance(alpha_image(flag_prime), flag_prime),
    )
    if residual > _STABILITY_TOL:
        raise ConsistencyError(
            f"computed flags move under the action by {residual:.3e}, "
            f"beyond the stability tolerance {_STABILITY_TOL:.3e}"
        )
    # column k of v spans F_k meet F'_{n-k+1}, so v frames the pair, which is
    # opposed: flag_from_matrix has already rejected a dependent v
    w = _bottom_normalized(v)
    w_inv = inverse(w)
    g_w = w_inv @ g @ w
    k_mat = None
    if sigma_mode == "tilde":
        k_mat = _twisted(w_inv, False, True) @ w_inv.transpose()
    dilation, contraction, finite = _transport_blocks(g_w, sigma_mode, k_mat)
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
    identity rather than a twisted component."""
    if not g.is_square:
        raise InputError("component check requires a square matrix")
    w = adapted_basis(pair.flag, pair.flag_prime)
    d = inverse(w).to_float() @ g.to_float() @ w.to_float()
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
