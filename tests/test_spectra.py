"""Eigenvalue ladders of totally positive matrices via compound Perron roots."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from totpos.bilinear import A_to_form, canonical_basis
from totpos.errors import ConvergenceError, DomainError, InputError, TotposError
from totpos.flags import stable_flags
from totpos.linalg import Matrix, det
from totpos.sampling import random_tp_matrix
from totpos import spectra
from totpos.spectra import gk_spectrum, perron, verify_gk

VANDERMONDE = Matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])


def test_perron_symmetric_frozen():
    value, vector = perron(Matrix([[2, 1], [1, 2]]))
    assert math.isclose(value, 3.0, rel_tol=1e-12)
    assert math.isclose(vector[0], 0.5, rel_tol=1e-10)
    assert math.isclose(vector[1], 0.5, rel_tol=1e-10)


def test_perron_requires_positive_entries():
    with pytest.raises(DomainError):
        perron(Matrix([[1, 0], [0, 1]]))
    with pytest.raises(DomainError):
        perron(Matrix([[1, -1], [1, 1]]))


def test_perron_1x1():
    value, vector = perron(Matrix([[7]]))
    assert value == 7.0 and vector == (1.0,)


def test_gk_matches_numpy_oracle():
    # QR on these non-normal matrices can lose several digits of the
    # smallest eigenvalue, so the broad cross-check is deliberately loose;
    # the tight comparison below uses exact characteristic polynomials.
    rng = random.Random(100)
    for n in (2, 3, 4, 5):
        for _ in range(6):
            m = random_tp_matrix(n, rng)
            spec = gk_spectrum(m)
            ref = sorted((abs(v) for v in np.linalg.eigvals(m.to_float().to_lists())), reverse=True)
            for ours, theirs in zip(spec.eigenvalues, ref):
                assert math.isclose(ours, theirs, rel_tol=1e-6, abs_tol=1e-12)


def test_gk_matches_exact_charpoly_roots():
    import mpmath
    import sympy

    rng = random.Random(101)
    for n in (2, 3, 4, 5):
        m = random_tp_matrix(n, rng)
        sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(m[i, j]))
        coeffs = [sympy.Rational(c) for c in sm.charpoly().all_coeffs()]
        with mpmath.workdps(50):
            roots = mpmath.polyroots(
                [mpmath.mpf(int(c.p)) / int(c.q) for c in coeffs],
                maxsteps=200,
                extraprec=100,
            )
            exact = sorted((float(abs(r)) for r in roots), reverse=True)
        spec = gk_spectrum(m)
        for ours, ref in zip(spec.eigenvalues, exact):
            assert math.isclose(ours, ref, rel_tol=1e-11)


def test_gk_eigenvalue_structure():
    rng = random.Random(200)
    m = random_tp_matrix(4, rng)
    spec = gk_spectrum(m)
    values = spec.eigenvalues
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    # eigenvector residuals are small relative to the matrix scale
    a = np.array(m.to_float().to_lists())
    v = np.array(spec.eigenvectors.to_lists())
    for k, lam in enumerate(values):
        r = np.linalg.norm(a @ v[:, k] - lam * v[:, k])
        assert r <= 1e-8 * max(np.abs(a).max(), abs(lam))
        # unit norm, first significant coordinate positive
        assert math.isclose(np.linalg.norm(v[:, k]), 1.0, rel_tol=1e-9)
        lead = next(x for x in v[:, k] if abs(x) > 1e-9)
        assert lead > 0


def test_gk_product_identities():
    rng = random.Random(300)
    for n in (2, 3, 4):
        m = random_tp_matrix(n, rng)
        spec = gk_spectrum(m)
        prod = 1.0
        for k, root in enumerate(spec.perron_roots, start=1):
            prod_k = math.prod(spec.eigenvalues[:k])
            assert math.isclose(root, prod_k, rel_tol=1e-7)
        assert math.isclose(
            math.prod(spec.eigenvalues), float(det(m)), rel_tol=1e-9
        )


def test_gk_rejects_non_tp():
    with pytest.raises(DomainError):
        gk_spectrum(Matrix.identity(3))
    with pytest.raises(DomainError):
        gk_spectrum(Matrix([[1, 2], [3, 4]]))


def test_gk_gap_guard():
    # TP, with eigenvalues 1 +- 1e-10: too close to separate
    m = Matrix([[1, 1], [Fraction(1, 10**20), 1]])
    with pytest.raises(ConvergenceError, match="closer than the gap tolerance 1e-08"):
        gk_spectrum(m)


def test_verify_gk_passes_on_tp():
    rng = random.Random(400)
    for n in (2, 3, 4, 5):
        report = verify_gk(random_tp_matrix(n, rng))
        assert report.passed, report.failures
        assert report.distinct_positive_descending
        assert report.residuals_ok
        assert report.compound_product_ok
        assert report.determinant_ok
        assert report.failures == ()


def test_verify_gk_cross_check_holds_at_a_wide_spread():
    # lambda_1 / lambda_8 is large enough here that float Rayleigh quotients
    # of the float copy missed the compound Perron roots by more than 1e-7
    m = random_tp_matrix(8, random.Random("spectral/tp/8/0"))
    report = verify_gk(m)
    assert report.passed, report.failures


def test_verify_gk_float_input():
    report = verify_gk(VANDERMONDE.to_float())
    assert report.passed


def test_verify_gk_tolerances_are_enforced(monkeypatch):
    rng = random.Random(8)
    m = random_tp_matrix(3, rng)
    monkeypatch.setattr(spectra, "_PRODUCT_REL_TOL", 0.0)
    monkeypatch.setattr(spectra, "_DET_REL_TOL", 0.0)
    strict = verify_gk(m)
    assert not strict.passed
    assert strict.failures


def test_gk_spectrum_owns_the_residual_check(monkeypatch):
    # gk_spectrum raises on a residual past its bound, so verify_gk never
    # returns a report whose residuals_ok is False
    monkeypatch.setattr(spectra, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(ConvergenceError, match="exceeds tolerance"):
        verify_gk(random_tp_matrix(4, random.Random(8)))


def test_perron_eigenvector_is_positive():
    rng = random.Random(210)
    for n in (2, 3, 4, 5):
        spec = gk_spectrum(random_tp_matrix(n, rng))
        assert all(x > 0 for x in spec.eigenvectors.col_tuple(0))


def _spectral_entry_points(m):
    return {
        "gk_spectrum": lambda: gk_spectrum(m),
        "verify_gk": lambda: verify_gk(m),
        "stable_flags identity": lambda: stable_flags(m),
        "stable_flags tilde": lambda: stable_flags(m, sigma_mode="tilde"),
        "canonical_basis": lambda: canonical_basis(A_to_form(m)),
        "perron": lambda: perron(m),
    }


def test_entries_past_the_float_range_are_input_errors():
    m = random_tp_matrix(4, random.Random(5)).scale(Fraction(10**400))
    for call in _spectral_entry_points(m).values():
        with pytest.raises(InputError, match="outside the float range"):
            call()


def test_compounds_past_the_float_range_are_input_errors():
    # the entries fit, but the order-2 minors do not
    m = random_tp_matrix(4, random.Random(5)).scale(Fraction(10**200))
    overflowing = {"gk_spectrum", "verify_gk", "stable_flags identity"}
    for name, call in _spectral_entry_points(m).items():
        if name in overflowing:
            with pytest.raises(InputError, match="a minor lies outside the float range"):
                call()
        else:
            try:
                call()
            except TotposError:
                pass  # any library error but a bare OverflowError


@pytest.mark.parametrize("digits", [200, 300])
def test_compounds_below_the_float_range_are_input_errors(digits):
    # the entries fit, but every order-2 minor rounds to 0.0, which would
    # leave the Perron ladder an all-zero compound; the twisted and form
    # routes and the Perron root ignore the scale and answer
    m = random_tp_matrix(4, random.Random(5)).scale(Fraction(1, 10**digits))
    underflowing = {"gk_spectrum", "verify_gk", "stable_flags identity"}
    for name, call in _spectral_entry_points(m).items():
        if name in underflowing:
            with pytest.raises(InputError, match="a minor lies outside the float range"):
                call()
        else:
            call()


def test_perron_past_the_square_range_scales_by_a_power_of_two():
    # entries near 10**200 have squares past the float range; the root is
    # scale-equivariant, and the iteration runs on the matrix over 2**e
    m = random_tp_matrix(4, random.Random(5))
    root, vec = perron(m)
    big_root, big_vec = perron(m.scale(Fraction(10**200)))
    assert math.isclose(big_root, root * 1e200, rel_tol=1e-12)
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(big_vec, vec))


def test_perron_below_the_square_range_scales_by_a_power_of_two():
    # entries near 10**-200 have squares below the float range
    m = random_tp_matrix(4, random.Random(5))
    root, vec = perron(m)
    small_root, small_vec = perron(m.scale(Fraction(1, 10**200)))
    assert math.isclose(small_root, root * 1e-200, rel_tol=1e-12)
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(small_vec, vec))


def test_power_iteration_on_a_zero_matrix_degenerates():
    # no power of two rescales 0; an exact matrix whose float copy underflows to 0 too
    with pytest.raises(ConvergenceError, match="degenerated"):
        spectra._power_perron(np.zeros((3, 3)))
    with pytest.raises(ConvergenceError, match="degenerated"):
        perron(random_tp_matrix(4, random.Random(5)).scale(Fraction(1, 10**400)))


def test_results_below_the_float_range_are_input_errors():
    # the canonical comparison matrix and the tilde composite ignore the scale,
    # but the Gram matrix in the basis and the frame map underflow to 0
    m = random_tp_matrix(4, random.Random(5))
    tiny = m.scale(Fraction(1, 10**400))
    with pytest.raises(InputError, match="outside the float range"):
        stable_flags(tiny, sigma_mode="tilde")
    with pytest.raises(InputError, match="outside the float range"):
        canonical_basis(A_to_form(tiny))
    small = m.scale(Fraction(1, 10**300))
    assert stable_flags(small, sigma_mode="tilde").eigenvalues == stable_flags(m, "tilde").eigenvalues
    assert canonical_basis(A_to_form(small)).basis == canonical_basis(A_to_form(m)).basis


@pytest.mark.parametrize("value", [math.nan, math.inf, None, True, "3"])
def test_refine_eigenbasis_eigenvalues_follow_the_entry_rule(value):
    m = Matrix([[2, 1], [1, 2]])
    spectrum = gk_spectrum(m)
    with pytest.raises(InputError):
        spectra.refine_eigenbasis(m, (spectrum.eigenvalues[0], value), spectrum.eigenvectors)


def _farey_tie(rng, bound):
    """A fraction halfway between two neighbors of the Farey sequence of order bound."""
    d = rng.randint(2, bound)
    c = rng.randrange(1, d)
    while math.gcd(c, d) != 1:
        c = rng.randrange(1, d)
    b = pow(c, -1, d)
    b += (bound - b) // d * d  # the left neighbor of c/d with the largest denominator
    a = (b * c - 1) // d
    return Fraction(a, b) / 2 + Fraction(c, d) / 2


def test_limited_rounds_integer_pairs_as_limit_denominator():
    rng = random.Random(26)
    cases = []
    for _ in range(400):
        bound = rng.choice([1, 2, 7, 10**3, 10**12, 10**30, rng.randint(1, 10**40)])
        n, d = rng.randint(-10**60, 10**60), rng.randint(1, 10**rng.randint(1, 60))
        g = rng.choice([1, -1, rng.randint(2, 10**30), -rng.randint(2, 10**30)])
        cases.append((n * g, d * g, bound))  # unreduced, either sign
        small = rng.randint(1, bound)  # a denominator at most the bound
        cases.append((rng.randint(-10**6, 10**6) * g, small * g, bound))
        if bound > 2:
            tie = _farey_tie(rng, min(bound, 10**9))
            cases.append((tie.numerator * g, tie.denominator * g, min(bound, 10**9)))
    cases += [(0, 5, 1), (0, -5, 10**30), (7, 2, 1), (-7, 2, 1), (1, 3, 1), (2, 3, 1)]
    for n, d, bound in cases:
        want = Fraction(n, d).limit_denominator(bound)
        assert spectra._limited(n, d, bound) == (want.numerator, want.denominator), (n, d, bound)


def test_refine_eigenbasis_reads_a_float_matrix_as_its_dyadic_copy():
    # past n = 3 the float copy of a random TP matrix often fails the float
    # TP gate, which reads the zero band
    rng = random.Random(61)
    for n in (2, 2, 3, 3):
        m = random_tp_matrix(n, rng).to_float()
        spectrum = gk_spectrum(m)
        got, want = (
            spectra.refine_eigenbasis(a, spectrum.eigenvalues, spectrum.eigenvectors)
            for a in (m, m.to_exact())
        )
        # repr, not ==: it sees entry types as well as values
        assert got.is_exact and repr(got.to_lists()) == repr(want.to_lists())


@pytest.mark.parametrize("x", [10**39 + 3, 10**100 + 3])
@pytest.mark.parametrize("sigma_mode", ["identity", "tilde"])
def test_refined_entries_far_below_the_largest_keep_their_sign(x, sigma_mode):
    # an eigenvector entry some 1e-40 of its column's largest used to round
    # to 0 and put the attracting flag on the cell boundary
    pair = stable_flags(Matrix([[x, 1], [x + 1, 2 * x]]), sigma_mode)
    assert pair.params.strict and pair.params_prime.strict
    assert pair.stability_residual == 0.0


def test_refine_eigenbasis_keeps_a_column_whose_kernel_is_not_a_line():
    # each shift is an exact eigenvalue of the identity, whose kernel is the plane
    vectors = Matrix([[0.6, 0.8], [0.8, -0.6]])
    got = spectra.refine_eigenbasis(Matrix.identity(2), (1, 1), vectors)
    assert repr(got.to_lists()) == repr([[Fraction(3, 5), Fraction(4, 5)],
                                         [Fraction(4, 5), Fraction(-3, 5)]])


@pytest.mark.parametrize(
    "diagonal, theta", [((2.0, 3.0), 2.0), ((1e-310, 3.0), 0.0)], ids=["singular", "overflowing"]
)
def test_rayleigh_refine_jitters_a_shift_it_cannot_solve(monkeypatch, diagonal, theta):
    # a - theta I is singular, or its solve overflows to inf: either way the
    # shift moves up by the jitter, and the iteration still finds e1
    shifts = []
    solve = spectra._solve_dense

    def spy(a, b):
        shifts.append(3.0 - a[1, 1])
        return solve(a, b)

    monkeypatch.setattr(spectra, "_solve_dense", spy)
    with np.errstate(over="ignore"):
        _, vec, res = spectra._rayleigh_refine(np.diag(diagonal), theta, np.array([1.0, 1.0]))
    assert shifts[0] == theta < shifts[1]
    assert abs(vec[1]) < 1e-12 < abs(vec[0]) and res < 1e-13


def test_rayleigh_refine_returns_its_best_pair_when_the_cap_runs_out(monkeypatch):
    monkeypatch.setattr(spectra, "_REFINE_CAP", 0)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    theta, vec, res = spectra._rayleigh_refine(a, 2.5, np.array([3.0, 4.0]))
    assert theta == 2.5 and list(vec) == [0.6, 0.8]
    assert res == spectra._residual(a, 2.5, vec)


# -- the dense solve and the power iteration against their earlier loops ---------


def _concatenated_solve(a, b):
    """Gaussian elimination with partial pivoting on a concatenated copy, an
    np.outer rank-one update per step: the solver the dense solve replaced."""
    n = a.shape[0]
    m = np.concatenate([a.copy(), b.reshape(n, 1)], axis=1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        if m[p, k] == 0:
            raise spectra._SingularSystem
        if p != k:
            m[[k, p]] = m[[p, k]]
        factors = m[k + 1 :, k] / m[k, k]
        if factors.size:
            m[k + 1 :, k:] -= np.outer(factors, m[k, k:])
    x = np.empty(n, dtype=a.dtype)
    for i in range(n - 1, -1, -1):
        x[i] = (m[i, n] - m[i, i + 1 : n] @ x[i + 1 : n]) / m[i, i]
    return x


def _recomputing_power_perron(a):
    """The power iteration that formed a @ x afresh at every step."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0]), np.ones(1)
    top = float(np.max(np.abs(a)))
    if top > spectra._POWER_RANGE or 0 < top < 1 / spectra._POWER_RANGE:
        e = math.frexp(top)[1]
        root, vec = _recomputing_power_perron(np.ldexp(a, -e))
        return math.ldexp(root, e), vec
    scale = float(np.sqrt(np.sum(a * a)))
    x = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    converged = False
    for _ in range(spectra._POWER_CAP):
        y = a @ x
        norm = float(np.sqrt(y @ y))
        if norm == 0.0 or not np.isfinite(norm):
            raise ConvergenceError("power iteration degenerated")
        y /= norm
        lam_new = float(y @ (a @ y))
        if abs(lam_new - lam) <= spectra._POWER_TOL * max(abs(lam_new), 1.0):
            x, lam = y, lam_new
            converged = True
            break
        x, lam = y, lam_new
    if not converged and spectra._residual(a, lam, x) > 1e-6 * (scale + abs(lam)):
        raise ConvergenceError(
            f"power iteration did not converge within {spectra._POWER_CAP} steps"
        )
    theta, vec, _ = spectra._rayleigh_refine(a.astype(np.longdouble), lam, x.astype(np.longdouble))
    return float(theta), vec.astype(np.float64)


def _outcome(f, *args):
    try:
        return f(*args)
    except (spectra._SingularSystem, ConvergenceError) as exc:
        return type(exc), str(exc)


def _same(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return got.dtype == want.dtype and np.array_equal(got, want)


def test_dense_solve_is_the_concatenated_solve_bit_for_bit():
    rng = np.random.default_rng(31)
    singular = 0
    for n in range(1, 71):
        for trial in range(4):
            a = rng.standard_normal((n, n)).astype(np.longdouble)
            b = rng.standard_normal(n).astype(np.longdouble)
            if trial == 1:
                a[:, rng.integers(n)] = 0  # singular at the step of that column
            if trial == 2 and n > 1:
                a[-1] = 3 * a[0]  # singular at the last step, or earlier by cancellation
            if trial == 3:
                a = a.astype(np.float64) * 10.0 ** rng.integers(-300, 300)
                b = b.astype(np.float64)
            want = _outcome(_concatenated_solve, a, b)
            singular += isinstance(want, tuple)
            assert _same(_outcome(spectra._solve_dense, a, b), want), (n, trial)
    assert singular >= 70


def test_power_perron_is_the_recomputing_iteration_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(31)
    cases = [rng.random((n, n)) + 0.01 for n in range(1, 13) for _ in range(3)]
    cases += [rng.random((4, 4)) * 2.0**e for e in (-900, -600, 600, 900)]  # rescaled
    for a in cases:
        root, vec = spectra._power_perron(a)
        want_root, want_vec = _recomputing_power_perron(a)
        assert root == want_root and _same(vec, want_vec)
    # too few steps for a slowly converging matrix: both give up with one error
    monkeypatch.setattr(spectra, "_POWER_CAP", 3)
    slow = np.array([[1.0, 1e-3], [1e-3, 0.999]])
    want = _outcome(_recomputing_power_perron, slow)
    assert want[0] is ConvergenceError
    assert _outcome(spectra._power_perron, slow) == want
