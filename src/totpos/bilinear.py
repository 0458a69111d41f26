"""Bilinear forms compatible with total positivity, and the duality twist.

A bilinear form on an n-dimensional space is encoded by its Gram matrix
``gram[r][s] = <e_r, e_s>``.  The positivity condition asks that the signed
comparison matrix A with entry (s, r) equal to (-1)^r <e_{n+1-r}, e_s> be
totally positive; equivalently, a family of signed determinants built
straight from the Gram grid must be positive (both routes are exposed, and
they must agree).

For such a form, the eigenbasis of an associated totally positive matrix
diagonalizes the form against the index involution r -> n+1-r: the Gram
matrix in that basis is supported on the anti-diagonal, and the signed
anti-diagonal values chain together into the reciprocals of the eigenvalue
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import _Least, _scan_minors, is_totally_positive
from .errors import ConsistencyError, DomainError, InputError
from .linalg import Matrix, _is_int, _require_order, transpose_inverse
from .scalars import _require_scalar
from .spectra import gk_spectrum, refine_eigenbasis

# Off-anti-diagonal Gram entries of the canonical basis, relative to the
# largest anti-diagonal entry.
_OFF_ANTI_DIAGONAL_TOL = 1e-9


def star(r: int, n: int) -> int:
    """Complementary index n + 1 - r."""
    if not (_is_int(r) and _is_int(n) and 1 <= r <= n):
        raise InputError(f"index must be an int in [1, {n!r}], got {r!r}")
    return n + 1 - r


@dataclass(frozen=True)
class BilinearForm:
    """A bilinear form held as its Gram matrix against the working basis."""

    gram: Matrix

    def __post_init__(self) -> None:
        if not self.gram.is_square:
            raise InputError("a Gram matrix must be square")

    @property
    def n(self) -> int:
        return self.gram.rows

    def pair(self, u, v):
        """Evaluate <u, v> = u^T * gram * v."""
        if len(u) != self.n:
            raise InputError("vector length must equal the form's size")
        for x in u:
            _require_scalar(x)
        return sum(
            ui * x for ui, x in zip(u, self.gram.apply(v))
        )


def form_to_A(form: BilinearForm) -> Matrix:
    """Signed comparison matrix: entry (s, r) is (-1)^r <e_{r*}, e_s>, so
    A = gram^T C0."""
    return _twisted(form.gram.transpose(), False, True)


def A_to_form(a: Matrix) -> BilinearForm:
    """Inverse of :func:`form_to_A`: the Gram matrix C0 A^T."""
    if not a.is_square:
        raise InputError("comparison matrix must be square")
    return BilinearForm(_twisted(a.transpose(), True, False))


def is_totally_positive_form(form: BilinearForm) -> bool:
    """Positivity via total positivity of the comparison matrix."""
    return is_totally_positive(form_to_A(form))


def form_family_positive(form: BilinearForm) -> bool:
    """Positivity via the signed determinant family, straight off the Gram.

    For every order k and every pair of increasing index tuples r, s the
    determinant det[ (-1)^{r_m} <e_{r_m *}, e_{s_l}> ]_{m,l} must be
    positive.  Independent of :func:`is_totally_positive_form`; the two
    verdicts must always agree.  The family is read from the minor table of
    the signed grid; a float minor inside the zero band resolves to False
    without a warning.  The family is exhaustive on purpose, so it shares
    the table's cap: n <= 12, and a larger form raises InputError.
    """
    signed = form_to_A(form).transpose()
    least = _scan_minors(signed, strict=True)
    return least is _Least.POSITIVE


def c0_matrix(n: int) -> Matrix:
    """The twist matrix: column r is (-1)^r e_{n+1-r}."""
    _require_order(n, "the twist matrix's size")
    return _twisted(Matrix.identity(n), True, False)


def _twisted(m: Matrix, left: bool, right: bool, negate: bool = False) -> Matrix:
    """+-C0^left @ m @ C0^right (minus with ``negate``), as one signed index
    reversal: C0 @ m moves row n-1-i of m, negated when n-i is odd, to row i
    (0-based), and m @ C0 column n-1-j, negated when j+1 is odd, to column j.
    A float zero always comes out as 0.0, never -0.0."""
    n = m.rows
    odd_cols = [right and j % 2 == 0 for j in range(n)]

    def twist(grid) -> list[list]:
        out = []
        for i, row in enumerate(grid[::-1] if left else grid):
            flip = negate != (left and (n - i) % 2 == 1)
            cells = row[::-1] if right else row
            out.append([-x if flip != odd else x for x, odd in zip(cells, odd_cols)])
        return out if m.is_exact else [[0.0 + x for x in row] for row in out]

    return m._mapped(twist, lambda r, c: (r[::-1] if left else r, c[::-1] if right else c))


def tilde(m: Matrix) -> Matrix:
    """The involution M -> C0 (M^T)^{-1} C0^{-1}.

    An automorphism of the general linear group that maps each lower
    elementary generator with letter i to the one with letter n-i (same
    parameter), and therefore preserves total positivity (the involution of
    Fomin and Zelevinsky, J. Amer. Math. Soc. 1999).  As C0^{-1} is
    (-1)^{n+1} C0, entry (i, j) is (-1)^{i+j} T[n-1-i][n-1-j], T = (M^T)^{-1}.
    On an inverse the twist needs no inversion: tilde(L^{-1}) is
    (-1)^{n+1} C0 L^T C0, which is how the primed flag cell is tested.
    """
    if not m.is_square:
        raise InputError("the twist involution requires a square matrix")
    return _twisted(transpose_inverse(m), True, True, m.rows % 2 == 0)


@dataclass(frozen=True)
class CanonicalBasisResult:
    """Output of :func:`canonical_basis`.

    ``basis`` holds one exact eigenvector per column, matched with
    ``eigenvalues`` in strictly decreasing order; ``gram_in_basis`` is the
    input Gram matrix against it, exact on both backends.  ``z_values[r-1]``
    is (-1)^r times its entry (r, r*), and ``chain[r-1] = z_r / z_{r*}``,
    which reproduces the reciprocals of the eigenvalues.
    """

    comparison: Matrix
    eigenvalues: tuple[float, ...]
    basis: Matrix
    gram_in_basis: Matrix
    z_values: tuple[float, ...]
    chain: tuple[float, ...]


def canonical_basis(form: BilinearForm) -> CanonicalBasisResult:
    """Anti-diagonalizing basis of a totally positive bilinear form.

    Builds the canonical totally positive matrix attached to the form,
    tilde(A) A with A the transpose of the comparison matrix, takes its
    eigenbasis, and returns the form's Gram matrix in that basis together
    with the signed anti-diagonal profile.  A float Gram matrix is read as
    its dyadic copy.  Raises DomainError when the form is not totally
    positive, and ConsistencyError when an internal identity fails beyond
    tolerance.
    """
    form = BilinearForm(form.gram.to_exact())
    n = form.n
    a = form_to_A(form)
    if not is_totally_positive(a):
        raise DomainError("the form is not totally positive")
    a_op = a.transpose()
    comparison = tilde(a_op) @ a_op
    try:
        spectrum = gk_spectrum(comparison)
    except DomainError:
        raise ConsistencyError(
            "the canonical comparison matrix failed its positivity law"
        ) from None
    # an exact basis: off-anti-diagonal entries vanish but for the Gram's rounding
    v = refine_eigenbasis(comparison, spectrum.eigenvalues, spectrum.eigenvectors)
    gram_new = v.transpose() @ form.gram @ v
    g = gram_new.to_float()
    if any(g[r, n - 1 - r] == 0.0 and gram_new[r, n - 1 - r] for r in range(n)):
        raise InputError("the Gram matrix in the canonical basis lies outside the float range")
    anti_scale = max(abs(g[r, n - 1 - r]) for r in range(n))
    if anti_scale == 0.0:
        raise ConsistencyError("anti-diagonal of the transformed Gram vanished")
    for r in range(n):
        for s in range(n):
            if s != n - 1 - r and abs(g[r, s]) > _OFF_ANTI_DIAGONAL_TOL * anti_scale:
                raise ConsistencyError(
                    f"off-anti-diagonal Gram entry ({r + 1}, {s + 1}) = "
                    f"{gram_new[r, s]!r} exceeds tolerance"
                )
    z: list[float] = []
    for r in range(1, n + 1):
        value = g[r - 1, star(r, n) - 1]
        z.append(-value if r % 2 else value)
    if any(x == 0.0 for x in z):
        raise ConsistencyError("a signed anti-diagonal value vanished")
    chain = tuple(z[r - 1] / z[star(r, n) - 1] for r in range(1, n + 1))
    return CanonicalBasisResult(
        comparison=comparison,
        eigenvalues=spectrum.eigenvalues,
        basis=v,
        gram_in_basis=gram_new,
        z_values=tuple(z),
        chain=chain,
    )
