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


def test_perron_past_the_square_range_scales_by_a_power_of_two():
    # entries near 10**200 have squares past the float range; the root is
    # scale-equivariant, and the iteration runs on the matrix over 2**e
    m = random_tp_matrix(4, random.Random(5))
    root, vec = perron(m)
    big_root, big_vec = perron(m.scale(Fraction(10**200)))
    assert math.isclose(big_root, root * 1e200, rel_tol=1e-12)
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(big_vec, vec))
