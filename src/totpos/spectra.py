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

from .classify import _is_positive, _scan_minors
from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    SingularityError,
)
from .linalg import Matrix, _MinorLevel, det, nullspace, solve


# Read when a routine runs, not bound as defaults, so a test may patch one.
_POWER_CAP = 10000
_REFINE_CAP = 100
_POWER_TOL = 1e-13
_RESIDUAL_TOL = 1e-8
_GAP_TOL = 1e-8
_PRODUCT_REL_TOL = 1e-7
_DET_REL_TOL = 1e-9
_MAX_DENOMINATOR = 10**30
# Largest |entry| the power iteration takes as it is; past it, it runs on
# the matrix scaled by a power of two, so no square leaves the float range.
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
    m = np.concatenate([a.copy(), b.reshape(n, 1)], axis=1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        if m[p, k] == 0:
            raise _SingularSystem
        if p != k:
            m[[k, p]] = m[[p, k]]
        factors = m[k + 1 :, k] / m[k, k]
        if factors.size:
            m[k + 1 :, k:] -= np.outer(factors, m[k, k:])
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
    if top > _POWER_RANGE:
        # squares would overflow: iterate on a / 2**e, exact, and scale back
        e = math.frexp(top)[1]
        root, vec = _power_perron(np.ldexp(a, -e))
        return math.ldexp(root, e), vec
    scale = float(np.sqrt(np.sum(a * a)))
    x = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    converged = False
    for _ in range(_POWER_CAP):
        y = a @ x
        norm = float(np.sqrt(y @ y))
        if norm == 0.0 or not np.isfinite(norm):
            raise ConvergenceError("power iteration degenerated")
        y /= norm
        lam_new = float(y @ (a @ y))
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

    The minor table that certifies total positivity is the one the arrays
    are read from: each entry is one correctly rounded quotient of the
    table's integer row value by its scale d**k, so no exact minor is
    built.  Raises DomainError when the certificate fails.
    """
    out: list[np.ndarray] = []

    def keep(k: int, table: _MinorLevel) -> None:
        out.append(np.array(table.floats(), dtype=np.float64))

    if not _is_positive(_scan_minors(m, strict=True, on_level=keep)):
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
    One minor table both certifies total positivity and supplies the
    compounds.  Raises DomainError when the input is not totally positive
    and ConvergenceError when two eigenvalues are too close to separate at
    the gap tolerance.
    """
    if not m.is_square:
        raise InputError("spectral analysis requires a square matrix")
    n = m.rows
    compounds = _compound_arrays(m)
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
    a64 = np.array(m.to_float().to_lists(), dtype=np.float64)
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
        if res > _RESIDUAL_TOL * (anorm + abs(c)):
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
    """verify_gk outcome: the spectrum plus each cross-check verdict."""

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
    quantity.  Raises DomainError, as :func:`gk_spectrum` does, when the
    input is not totally positive.
    """
    spectrum = gk_spectrum(m)
    failures: list[str] = []
    c = spectrum.eigenvalues
    descending = all(x > 0 for x in c) and all(
        c[i] > c[i + 1] for i in range(len(c) - 1)
    )
    if not descending:
        failures.append("eigenvalues are not positive and strictly decreasing")
    a = np.array(m.to_float().to_lists(), dtype=np.float64)
    anorm = float(np.sqrt(np.sum(a * a)))
    residual_bound = [_RESIDUAL_TOL * (anorm + abs(x)) for x in c]
    residuals_ok = all(
        r <= b for r, b in zip(spectrum.residuals, residual_bound)
    )
    if not residuals_ok:
        failures.append("an eigenpair residual exceeds its tolerance")
    exact = m.to_exact()
    n = m.rows
    start = [10 + (3 * i * i + i) % 7 for i in range(n)]
    compound_ok = True
    prod = 1.0
    for k in range(n):
        x = _inverse_step(exact, c[k], start) or start
        # the quotient ignores the scale of x, so x may as well be integral
        lcm = math.lcm(*(p.denominator for p in x))
        x = [p.numerator * (lcm // p.denominator) for p in x]
        quotient = Fraction(sum(p * q for p, q in zip(x, exact.apply(x))), sum(p * p for p in x))
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
        distinct_positive_descending=descending,
        residuals_ok=residuals_ok,
        compound_product_ok=compound_ok,
        determinant_ok=det_ok,
        failures=tuple(failures),
    )


def _rationalize_columns(v: Matrix) -> Matrix:
    """Each float entry as the nearest rational with denominator <= 10^12."""
    return Matrix(
        [[Fraction(float(x)).limit_denominator(10**12) for x in row] for row in v.to_lists()]
    )


def _inverse_step(
    m: Matrix, value: float, start: list[Fraction] | list[int]
) -> list[Fraction] | None:
    """One exact inverse-iteration step: solve (m - value I) x = start.

    A singular shifted matrix means the shift is an exact eigenvalue, whose
    eigenvector is then the kernel of the shifted matrix, computable without
    error; None when that kernel is not a single line.
    """
    shifted = m - Matrix.diagonal([Fraction(value)] * m.rows)
    try:
        return list(solve(shifted, start))
    except SingularityError:
        kernel = nullspace(shifted)
        return list(kernel[0]) if len(kernel) == 1 else None


def refine_eigenbasis(
    m: Matrix, eigenvalues: tuple[float, ...], vectors: Matrix
) -> Matrix:
    """Exact rational eigenbasis from a float one, one solve per column.

    Rationalizes each eigenvector column, then applies a single exact
    inverse-iteration step shifted by the rational image of the column's
    float eigenvalue.  The shift sits many orders of magnitude closer to
    its own eigenvalue than to any neighbor, so one exact solve sharpens
    the eigendirection far below the float64 error the column starts
    with.  When a shift is an exact eigenvalue the column is its kernel
    line, or is kept as rationalized if the kernel is not a line.
    """
    if not m.is_square:
        raise InputError("eigenbasis refinement requires a square matrix")
    if not m.is_exact:
        raise InputError("eigenbasis refinement requires an exact matrix")
    n = m.rows
    if len(eigenvalues) != n or vectors.rows != n or vectors.cols != n:
        raise InputError("eigenbasis shape does not match the matrix")
    start = _rationalize_columns(vectors)
    columns: list[list[Fraction]] = []
    for j in range(n):
        col = list(start.col_tuple(j))
        raw = _inverse_step(m, eigenvalues[j], col)
        if raw is None:
            columns.append(col)
            continue
        pivot = max(raw, key=abs)
        columns.append(
            [(x / pivot).limit_denominator(_MAX_DENOMINATOR) for x in raw]
        )
    return Matrix.from_columns(columns)
