"""Eigenvalue structure of totally positive matrices via compound matrices.

A totally positive matrix has n distinct, strictly positive eigenvalues.
Each compound matrix of a totally positive matrix has strictly positive
entries, so it carries a simple Perron root; the k-th largest eigenvalue of
the original matrix is the ratio of the Perron roots of the order-k and
order-(k-1) compounds.  This module computes those roots by power iteration
with a Rayleigh-quotient stopping rule, polishes every eigenpair by
Rayleigh-quotient iteration in extended precision using a local Gaussian
solver, and cross-checks the compound identities against Rayleigh quotients
taken exactly over the input.

:func:`refine_eigenbasis` runs on integers: one integer form of the matrix
per call, one fraction-free forward elimination and back-substitution per
shifted solve, one continued-fraction rounding per entry; a shift that is an
exact eigenvalue takes the :func:`totpos.linalg.nullspace` line, and
:func:`verify_gk` reads the same step.

:func:`gk_spectrum` owns the spectral law itself: it returns only when the
eigenvalues are positive and separated by the gap tolerance and every
eigenpair residual is within tolerance, and raises ConvergenceError
otherwise.  :func:`verify_gk` reports the independent cross-checks on top:
the compound Perron roots against products of exact Rayleigh quotients, and
the eigenvalue product against the exact determinant.

The iteration caps and tolerances are module constants, the same for
every call: the spectral law is checked at one fixed tolerance.

numpy supplies float array arithmetic here; only ``flags`` calls a library
eigenvalue routine, for the moduli of its small tangent-block operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classify import _Least, _scan_minors
from .errors import ConvergenceError, DomainError, InputError
from .linalg import Matrix, _bareiss, _cleared, _cleared_line, _MinorLevel, det, nullspace
from .scalars import Scalar, _require_scalar


# Read when a routine runs, not bound as defaults, so a test may patch one.
_POWER_CAP = 10000
_REFINE_CAP = 100
_POWER_TOL = 1e-13
_RESIDUAL_TOL = 1e-8
_GAP_TOL = 1e-8
_PRODUCT_REL_TOL = 1e-7
_DET_REL_TOL = 1e-9
_MAX_DENOMINATOR = 10**30
# Largest |entry| the power iteration takes as it is, and the reciprocal the
# least nonzero one; outside, it runs on the matrix scaled by a power of two,
# so no square leaves the float range.
_POWER_RANGE = 2.0**500


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in strictly decreasing order with matched eigenvectors.

    ``eigenvectors`` holds unit-norm columns, sign-fixed so the first
    coordinate away from zero is positive; column r matches eigenvalue r.
    ``perron_roots[k-1]`` is the Perron root of the order-k compound.
    """

    eigenvalues: tuple[float, ...]
    eigenvectors: Matrix
    residuals: tuple[float, ...]
    perron_roots: tuple[float, ...]


class _SingularSystem(Exception):
    pass


def _solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting in the dtype of ``a``."""
    n = a.shape[0]
    m = np.empty((n, n + 1), dtype=np.result_type(a, b))
    m[:, :n] = a
    m[:, n] = b
    for k in range(n):
        p = k + int(abs(m[k:, k]).argmax())
        if m[p, k] == 0:
            raise _SingularSystem
        if p != k:
            m[[k, p]] = m[[p, k]]
        if k + 1 < n:
            m[k + 1 :, k:] -= (m[k + 1 :, k] / m[k, k])[:, None] * m[k, k:]
    x = np.empty(n, dtype=a.dtype)
    for i in range(n - 1, -1, -1):
        x[i] = (m[i, n] - m[i, i + 1 : n] @ x[i + 1 : n]) / m[i, i]
    return x


def _residual(a: np.ndarray, theta, x: np.ndarray) -> float:
    r = a @ x - theta * x
    return float(np.sqrt(np.sum(r * r)))


def _rayleigh_refine(
    a: np.ndarray,
    theta,
    x: np.ndarray,
    fixed_shift_iters: int = 1,
) -> tuple[float, np.ndarray, float]:
    """Inverse iteration warm-up, then Rayleigh-quotient iteration.

    The first ``fixed_shift_iters`` solves keep the shift pinned so the
    iteration locks onto the eigenvalue nearest the initial estimate before
    the cubically convergent Rayleigh updates take over.
    """
    dtype = a.dtype
    eps = float(np.finfo(dtype).eps)
    # nudge large enough to clear the ulp spacing at the shift's magnitude
    jitter = dtype.type(64) * np.finfo(dtype).eps
    anorm = float(np.sqrt(np.sum(a * a)))
    n = a.shape[0]
    eye = np.eye(n, dtype=dtype)
    x = x.astype(dtype)
    x = x / np.sqrt(np.sum(x * x))
    theta = dtype.type(theta)
    shift = theta
    best = (float(theta), x, _residual(a, theta, x))
    for it in range(_REFINE_CAP):
        try:
            y = _solve_dense(a - shift * eye, x)
        except _SingularSystem:
            shift = shift + (abs(shift) + dtype.type(1)) * jitter
            continue
        norm = np.sqrt(np.sum(y * y))
        if not np.isfinite(norm) or norm == 0:
            shift = shift + (abs(shift) + dtype.type(1)) * jitter
            continue
        y = y / norm
        if float(y @ x) < 0:
            y = -y
        x = y
        theta = (x @ (a @ x)) / (x @ x)
        res = _residual(a, theta, x)
        if res < best[2]:
            best = (float(theta), x, res)
        if res <= 32 * eps * (anorm + abs(float(theta))):
            return float(theta), x, res
        if it + 1 >= fixed_shift_iters:
            shift = theta
    return best


def _power_perron(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of an entrywise positive matrix."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0]), np.ones(1)
    top = float(np.max(np.abs(a)))
    if top > _POWER_RANGE or 0 < top < 1 / _POWER_RANGE:
        # squares would overflow or underflow: iterate on a / 2**e, exact, and scale back
        e = math.frexp(top)[1]
        root, vec = _power_perron(np.ldexp(a, -e))
        return math.ldexp(root, e), vec
    scale = float(np.sqrt(np.sum(a * a)))
    x = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    converged = False
    ax = a @ x
    for _ in range(_POWER_CAP):
        # the product the last quotient formed is the next step's a @ x
        y = ax
        norm = float(np.sqrt(y @ y))
        if norm == 0.0 or not np.isfinite(norm):
            raise ConvergenceError("power iteration degenerated")
        y /= norm
        ax = a @ y
        lam_new = float(y @ ax)
        if abs(lam_new - lam) <= _POWER_TOL * max(abs(lam_new), 1.0):
            x, lam = y, lam_new
            converged = True
            break
        x, lam = y, lam_new
    if not converged and _residual(a, lam, x) > 1e-6 * (scale + abs(lam)):
        raise ConvergenceError(
            f"power iteration did not converge within {_POWER_CAP} steps"
        )
    theta, vec, _ = _rayleigh_refine(
        a.astype(np.longdouble), lam, x.astype(np.longdouble)
    )
    return float(theta), vec.astype(np.float64)


def perron(m: Matrix) -> tuple[float, tuple[float, ...]]:
    """Perron root and eigenvector of an entrywise positive matrix.

    The eigenvector is normalized to unit coordinate sum, so its entries
    are strictly positive and sum to one.
    """
    if not m.is_square:
        raise InputError("Perron data requires a square matrix")
    for i in range(m.rows):
        for x in m.row_tuple(i):
            if not x > 0:
                raise DomainError("Perron root requires strictly positive entries")
    a = np.array(m.to_float().to_lists(), dtype=np.float64)
    root, vec = _power_perron(a)
    vec = np.abs(vec)
    vec = vec / vec.sum()
    return root, tuple(float(v) for v in vec)


def _compound_arrays(m: Matrix) -> list[np.ndarray]:
    """Float arrays of every compound order 1..n of a totally positive matrix.

    The exact minor table that certifies total positivity is the one the
    arrays are read from: each entry is one correctly rounded quotient of
    the table's integer row value by its scale d**k, so no exact minor is
    built.  Raises DomainError when the certificate fails.
    """
    out: list[np.ndarray] = []

    def keep(k: int, table: _MinorLevel) -> None:
        out.append(np.array(table.floats(), dtype=np.float64))

    if _scan_minors(m, strict=True, on_level=keep) is not _Least.POSITIVE:
        raise DomainError("matrix is not totally positive")
    return out


def _normalize_column(v: np.ndarray) -> np.ndarray:
    v = v / np.sqrt(np.sum(v * v))
    lead = np.max(np.abs(v))
    for x in v:
        if abs(x) > 1e-12 * lead:
            if x < 0:
                v = -v
            break
    return v


def gk_spectrum(m: Matrix) -> Spectrum:
    """Full eigen-decomposition of a totally positive matrix.

    Eigenvalues come from ratios of consecutive compound Perron roots;
    eigenvectors come from shifted inverse iteration refined per eigenpair.
    One exact minor table, of a float matrix's dyadic copy, both certifies
    total positivity and supplies the compounds.  Raises DomainError when
    the input is not totally positive and ConvergenceError when two
    eigenvalues are too close to separate at the gap tolerance, or an
    eigenpair residual exceeds its tolerance.
    """
    if not m.is_square:
        raise InputError("spectral analysis requires a square matrix")
    n = m.rows
    compounds = _compound_arrays(m.to_exact())
    roots: list[float] = []
    for arr in compounds:
        root, _ = _power_perron(arr)
        roots.append(root)
    values: list[float] = []
    prev = 1.0
    for k in range(n):
        values.append(roots[k] / prev)
        prev = roots[k]
    for k in range(n - 1):
        if not values[k + 1] < values[k] * (1 - _GAP_TOL):
            raise ConvergenceError(
                f"eigenvalues {k + 1} and {k + 2} are closer than the gap "
                f"tolerance {_GAP_TOL}; cannot certify distinctness"
            )
    if values[-1] <= 0:
        raise ConvergenceError("computed eigenvalues are not all positive")
    a64 = compounds[0]
    ald = a64.astype(np.longdouble)
    anorm = float(np.sqrt(np.sum(a64 * a64)))
    columns: list[np.ndarray] = []
    residuals: list[float] = []
    # deterministic start vector with generic overlap against every
    # eigendirection (an all-ones start can be exactly orthogonal to
    # eigenvectors of symmetric inputs)
    start = (1.0 + 0.1 * np.sin(np.arange(n) + 1.0)).astype(np.longdouble)
    # the input is cast to float64, so no quotient can be trusted past an
    # absolute eps * anorm floor; a genuine eigenpair slide moves theta by
    # the order of the spectral gap and still fires the guard
    drift_floor = 32.0 * float(np.finfo(np.float64).eps) * anorm
    for k, c in enumerate(values):
        theta, vec, _ = _rayleigh_refine(
            ald, c, start.copy(), fixed_shift_iters=2
        )
        if abs(theta - c) > 1e-6 * abs(c) + drift_floor:
            raise ConvergenceError(
                f"inverse iteration for eigenvalue {k + 1} drifted from "
                f"{c!r} to {theta!r}"
            )
        v64 = _normalize_column(vec.astype(np.float64))
        res = _residual(a64, c, v64)
        if not res <= _RESIDUAL_TOL * (anorm + abs(c)):
            raise ConvergenceError(
                f"residual {res:.3e} for eigenvalue {k + 1} exceeds tolerance"
            )
        columns.append(v64)
        residuals.append(res)
    vectors = Matrix.from_columns([list(map(float, col)) for col in columns])
    return Spectrum(
        eigenvalues=tuple(values),
        eigenvectors=vectors,
        residuals=tuple(residuals),
        perron_roots=tuple(roots),
    )


@dataclass(frozen=True)
class GKReport:
    """verify_gk outcome: the spectrum plus each cross-check verdict.

    ``distinct_positive_descending`` and ``residuals_ok`` are always True:
    :func:`gk_spectrum` raises ConvergenceError instead of returning a
    spectrum that breaks either, so a report exists only when both hold.
    ``compound_product_ok`` and ``determinant_ok`` are the cross-checks.
    """

    n: int
    eigenvalues: tuple[float, ...]
    perron_roots: tuple[float, ...]
    residuals: tuple[float, ...]
    distinct_positive_descending: bool
    residuals_ok: bool
    compound_product_ok: bool
    determinant_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_gk(m: Matrix) -> GKReport:
    """Check the spectral law on one matrix and report every sub-verdict.

    The compound cross-check compares each compound Perron root against the
    product of Rayleigh quotients x^T M x / x^T x, taken exactly over the
    exact matrix, with x from one exact inverse-iteration step shifted by
    each eigenvalue: two genuinely different computations of the same
    quantity.  A float matrix is read as its dyadic copy.  Raises
    DomainError and ConvergenceError as :func:`gk_spectrum` does.
    """
    m = m.to_exact()
    spectrum = gk_spectrum(m)
    failures: list[str] = []
    c = spectrum.eigenvalues
    form = _cleared(m)
    n = m.rows
    start = [10 + (3 * i * i + i) % 7 for i in range(n)]
    compound_ok = True
    prod = 1.0
    for k in range(n):
        # the quotient ignores the scale of x, so the integer step serves
        x = _inverse_step(form, c[k], start) or start
        quotient = Fraction(sum(p * q for p, q in zip(x, m.apply(x))), sum(p * p for p in x))
        prod *= float(quotient)
        if abs(spectrum.perron_roots[k] - prod) > _PRODUCT_REL_TOL * abs(
            spectrum.perron_roots[k]
        ):
            compound_ok = False
    if not compound_ok:
        failures.append(
            "a compound Perron root disagrees with the partial eigenvalue product"
        )
    d = float(det(m))
    full_product = 1.0
    for x in c:
        full_product *= x
    det_ok = abs(full_product - d) <= _DET_REL_TOL * max(abs(d), 1e-300)
    if not det_ok:
        failures.append("eigenvalue product disagrees with the determinant")
    return GKReport(
        n=m.rows,
        eigenvalues=c,
        perron_roots=spectrum.perron_roots,
        residuals=spectrum.residuals,
        distinct_positive_descending=True,
        residuals_ok=True,
        compound_product_ok=compound_ok,
        determinant_ok=det_ok,
        failures=tuple(failures),
    )


def _limited(n: int, d: int, bound: int) -> tuple[int, int]:
    """Fraction(n, d).limit_denominator(bound) as its coprime pair (p, q), q > 0,
    read off the continued fraction of n/d, which need not be in lowest terms:
    Euclid's quotients and the tie test do not see a common factor of n and d."""
    if d < 0:
        n, d = -n, -d
    top = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while d:
        k, r = divmod(n, d)
        if q0 + k * q1 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + k * p1, q0 + k * q1
        n, d = d, r
    else:
        return p1, q1
    # the fraction lies between the convergent p1/q1 and the semiconvergent, and
    # is nearer p1/q1, or as near, when 2·d·(q0 + k·q1) <= its denominator
    k = (bound - q0) // q1
    if 2 * d * (q0 + k * q1) <= top:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _rationalize_columns(v: Matrix) -> Matrix:
    """Each float entry as the nearest rational with denominator <= 10^12."""
    return Matrix._of([[Fraction(*_limited(*float(x).as_integer_ratio(), 10**12)) for x in row]
                       for row in v._entries])


def _inverse_step(form, value: Scalar, w: list[int]) -> list[int] | None:
    """One exact inverse-iteration step: a nonzero integer multiple z of the x with
    (m - value I) x = w, m given by its form (A, R, C) and value = p/q.

    Reads z_i = C_i·y_i off one reduced elimination of [q·A - p·diag(R_i·C_i) | R·w],
    whose right column is a multiple of y = diag(C)^-1·x.  A singular shifted matrix
    means the shift is an exact eigenvalue, whose eigenvector is then the kernel of
    the shifted matrix, computable without error; None when that kernel is not a line.
    """
    a, r, c = form
    n = len(r)
    p, q = Fraction(value).as_integer_ratio()
    shifted = [[q * x for x in row] for row in a]
    for i, row in enumerate(shifted):
        row[i] -= p * r[i] * c[i]
    e, pivots, *_ = _bareiss([[*row, s * x] for row, s, x in zip(shifted, r, w)], reduce=True)
    if pivots == list(range(n)):
        return [t * row[n] for t, row in zip(c, e)]
    kernel = nullspace(Matrix._of(shifted))
    return [t * x for t, x in zip(c, _cleared_line(kernel[0])[0])] if len(kernel) == 1 else None


def refine_eigenbasis(
    m: Matrix, eigenvalues: tuple[float, ...], vectors: Matrix
) -> Matrix:
    """Exact rational eigenbasis from a float one, one solve per column.

    Rationalizes each column, then applies one exact inverse-iteration step
    of m, a float m read as its dyadic copy, shifted by the rational image
    of the column's float eigenvalue.  The shift sits many orders of
    magnitude closer to its own eigenvalue than to any neighbor, so one
    exact solve sharpens the eigendirection far below the float64 error the
    column starts with.  The step runs on integers: m is cleared once, each
    solve gives an integer multiple z of the solution, and entry i is z_i / z_P,
    P the first largest |z_i|, rounded from the integer pair to denominator
    <= 10^30, or relative to its own size if that gives 0.  When a shift is
    an exact eigenvalue the column is its kernel line from
    :func:`totpos.linalg.nullspace`, or is kept as rationalized if the
    kernel is not a line.  Eigenvalues follow the entry rule: an int,
    Fraction or finite float, else InputError.
    """
    if not m.is_square:
        raise InputError("eigenbasis refinement requires a square matrix")
    n = m.rows
    if len(eigenvalues) != n or vectors.rows != n or vectors.cols != n:
        raise InputError("eigenbasis shape does not match the matrix")
    for value in eigenvalues:
        _require_scalar(value)
    form = _cleared(m)
    start = _rationalize_columns(vectors)
    top = _MAX_DENOMINATOR
    columns = []
    for j in range(n):
        col = start.col_tuple(j)
        z = _inverse_step(form, eigenvalues[j], _cleared_line(col)[0])
        if z is None:
            columns.append(col)
            continue
        pivot = max(z, key=abs)
        # an entry that would round to 0 is rounded relative to its own size
        rounded = [_limited(x, pivot, top) for x in z]
        columns.append([Fraction(*(y if y[0] or not x else
                                   _limited(x, pivot, top * -(-abs(pivot) // abs(x)))))
                        for x, y in zip(z, rounded)])
    return Matrix._of(list(zip(*columns)))
