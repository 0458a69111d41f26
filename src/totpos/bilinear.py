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
from .linalg import Matrix, transpose_inverse
from .spectra import gk_spectrum, refine_eigenbasis

# Off-anti-diagonal Gram entries of the canonical basis, relative to the
# largest anti-diagonal entry.
_OFF_ANTI_DIAGONAL_TOL = 1e-9


def star(r: int, n: int) -> int:
    """Complementary index n + 1 - r."""
    if not 1 <= r <= n:
        raise InputError(f"index must lie in [1, {n}], got {r}")
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
        return sum(
            ui * x for ui, x in zip(u, self.gram.apply(v))
        )


def form_to_A(form: BilinearForm) -> Matrix:
    """Signed comparison matrix: entry (s, r) is (-1)^r <e_{r*}, e_s>."""
    n = form.n
    g = form.gram
    return Matrix(
        [
            [
                (-(g[star(r, n) - 1, s - 1]) if r % 2 else g[star(r, n) - 1, s - 1])
                for r in range(1, n + 1)
            ]
            for s in range(1, n + 1)
        ]
    )


def A_to_form(a: Matrix) -> BilinearForm:
    """Inverse of :func:`form_to_A`: rebuild the Gram grid from the signs."""
    if not a.is_square:
        raise InputError("comparison matrix must be square")
    n = a.rows
    rows = []
    for i in range(1, n + 1):
        sign = -1 if (n + 1 - i) % 2 else 1
        rows.append([sign * a[j - 1, n - i] for j in range(1, n + 1)])
    return BilinearForm(Matrix(rows))


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
    if n < 1:
        raise InputError("twist matrix needs n >= 1")
    return _twisted(Matrix.identity(n), True, False)


def _twisted(m: Matrix, left: bool, right: bool, sign: int = 1) -> Matrix:
    """sign * C0^left @ m @ C0^right, as one signed index reversal: C0 @ m
    moves row n-1-i of m, times (-1)^(n-i), to row i (0-based), and m @ C0
    column n-1-j, times (-1)^(j+1), to column j.  Each entry is 0 + s * x, so
    a float zero never turns into -0.0."""
    n, a = m.rows, m.to_lists()
    return Matrix([
        [0 + sign * (-1) ** (left * (n - i) + right * (j + 1))
         * a[-1 - i if left else i][-1 - j if right else j] for j in range(n)]
        for i in range(n)
    ])


def tilde(m: Matrix) -> Matrix:
    """The involution M -> C0 (M^T)^{-1} C0^{-1}.

    An automorphism of the general linear group that maps each lower
    elementary generator with letter i to the one with letter n-i (same
    parameter), and therefore preserves total positivity.  As C0^{-1} is
    (-1)^{n+1} C0, entry (i, j) is (-1)^{i+j} T[n-1-i][n-1-j], T = (M^T)^{-1}.
    """
    if not m.is_square:
        raise InputError("the twist involution requires a square matrix")
    n = m.rows
    return _twisted(transpose_inverse(m), True, True, (-1) ** (n + 1))


@dataclass(frozen=True)
class CanonicalBasisResult:
    """Output of :func:`canonical_basis`.

    ``basis`` holds one eigenvector per column, matched with
    ``eigenvalues`` in strictly decreasing order.  ``gram_in_basis`` is the
    Gram matrix of the input form against that basis; ``z_values[r-1]`` is
    (-1)^r times its entry (r, r*), and ``chain[r-1] = z_r / z_{r*}``,
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

    Builds the canonical totally positive matrix attached to the form (a
    signed product of the comparison matrix with its twisted inverse),
    takes its eigenbasis, and returns the form's Gram matrix in that basis
    together with the signed anti-diagonal profile.  Raises DomainError
    when the form is not totally positive, and ConsistencyError when an
    internal identity fails beyond tolerance.
    """
    n = form.n
    if not is_totally_positive_form(form):
        raise DomainError("the form is not totally positive")
    a_op = form_to_A(form).transpose()
    c = _twisted(transpose_inverse(a_op), True, False)
    c_check = transpose_inverse(c)
    sign = 1 if n % 2 else -1
    comparison = (c @ c_check).scale(sign)
    try:
        spectrum = gk_spectrum(comparison)
    except DomainError:
        raise ConsistencyError(
            "the canonical comparison matrix failed its positivity law"
        ) from None
    if comparison.is_exact and form.gram.is_exact:
        # exact basis: the off-anti-diagonal entries then vanish to the
        # accuracy of the basis itself, not of float64 arithmetic
        v = refine_eigenbasis(
            comparison, spectrum.eigenvalues, spectrum.eigenvectors
        )
        gram_new = v.transpose() @ form.gram @ v
    else:
        v = spectrum.eigenvectors
        gram_new = v.transpose() @ form.gram.to_float() @ v
    anti_scale = max(
        abs(float(gram_new[r, n - 1 - r])) for r in range(n)
    )
    if anti_scale == 0.0:
        raise ConsistencyError("anti-diagonal of the transformed Gram vanished")
    for r in range(n):
        for s in range(n):
            if s == n - 1 - r:
                continue
            if abs(float(gram_new[r, s])) > _OFF_ANTI_DIAGONAL_TOL * anti_scale:
                raise ConsistencyError(
                    f"off-anti-diagonal Gram entry ({r + 1}, {s + 1}) = "
                    f"{gram_new[r, s]!r} exceeds tolerance"
                )
    z: list[float] = []
    for r in range(1, n + 1):
        value = float(gram_new[r - 1, star(r, n) - 1])
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
