"""Positivity classes, sign variation, and the variation-diminishing test."""

import random
from fractions import Fraction as F

import pytest
import sympy

from totpos.classify import (
    TPKind,
    classify,
    is_oscillatory,
    is_totally_nonnegative,
    is_totally_positive,
    is_variation_diminishing,
    sign_variation,
    variation_diminishes_on,
)
from totpos.errors import SingularityError, StrictnessWarning
from totpos.linalg import Matrix, ksubsets, reversal_permutation, submatrix
from totpos.sampling import random_tn_matrix, random_tp_matrix, random_vector
from totpos.scalars import TolerancePolicy
from totpos.whitney import monoid_generate_check

VANDERMONDE = Matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
TRIDIAG = Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])


def _all_minors_positive_sympy(m):
    # independent oracle: enumerate every minor through sympy
    sm = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j]))
    for k in range(1, m.rows + 1):
        for rs in ksubsets(m.rows, k):
            for cs in ksubsets(m.cols, k):
                sub = sm[[r - 1 for r in rs], [c - 1 for c in cs]]
                if sub.det() <= 0:
                    return False
    return True


def test_sign_variation_frozen():
    assert sign_variation([1, -1, 1]) == 2
    assert sign_variation([1, 0, -1]) == 1
    assert sign_variation([0, 0, 0]) == 0
    assert sign_variation([0, 3, 0, -2, 0]) == 1
    assert sign_variation([F(1, 2)]) == 0
    assert sign_variation([-1, -2, -3]) == 0


def test_sign_variation_float_band():
    p = TolerancePolicy(eps_abs=1e-9, eps_rel=1e-9)
    # the middle entry sits inside the zero band and is dropped
    assert sign_variation([1.0, -1e-12, 1.0], p) == 0


def test_vandermonde_is_totally_positive():
    assert is_totally_positive(VANDERMONDE)
    assert _all_minors_positive_sympy(VANDERMONDE)


def test_tn_only_examples():
    ones = Matrix([[1, 1], [1, 1]])
    assert is_totally_nonnegative(ones)
    assert not is_totally_positive(ones)
    ident = Matrix.identity(3)
    assert is_totally_nonnegative(ident)
    assert not is_totally_positive(ident)


def test_neither_example():
    m = Matrix([[1, 2], [3, 4]])  # negative determinant
    assert not is_totally_nonnegative(m)
    assert not is_totally_positive(m)
    assert classify(m).kind is TPKind.NEITHER


def test_tridiagonal_oscillatory_exponent():
    assert is_totally_nonnegative(TRIDIAG)
    assert not is_totally_positive(TRIDIAG)
    assert is_oscillatory(TRIDIAG) == 2
    assert _all_minors_positive_sympy(TRIDIAG @ TRIDIAG)
    result = classify(TRIDIAG)
    assert result.kind is TPKind.TOTALLY_NONNEGATIVE_ONLY
    assert result.oscillatory_m == 2


def test_identity_is_not_oscillatory():
    assert is_oscillatory(Matrix.identity(3)) is None
    result = classify(Matrix.identity(3))
    assert result.kind is TPKind.TOTALLY_NONNEGATIVE_ONLY
    assert result.oscillatory_m is None


def test_classify_tp():
    result = classify(VANDERMONDE)
    assert result.kind is TPKind.TOTALLY_POSITIVE
    assert result.oscillatory_m == 1


def test_oscillatory_requires_tn():
    assert is_oscillatory(Matrix([[1, 2], [3, 4]])) is None


def test_synthesized_matrices_classify_correctly():
    rng = random.Random(99)
    for n in (2, 3, 4):
        for _ in range(10):
            assert is_totally_positive(random_tp_matrix(n, rng))
            assert is_totally_nonnegative(random_tn_matrix(n, rng))


def test_nonnegative_implies_variation_diminishing():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = random_tn_matrix(n, rng)
        assert is_variation_diminishing(m)


def test_variation_diminishing_known_cases():
    assert is_variation_diminishing(Matrix.identity(3))
    assert is_variation_diminishing(VANDERMONDE)
    # all first-order entries negative, single top minor positive: no
    # opposite pair lives inside one compound
    assert is_variation_diminishing(Matrix.identity(2).scale(-1))
    assert not is_variation_diminishing(Matrix([[1, 0], [0, -1]]))


def test_variation_diminishing_singular_raises():
    with pytest.raises(SingularityError):
        is_variation_diminishing(Matrix([[1, 1], [1, 1]]))


def test_tn_action_diminishes_variation():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(2, 5)
        m = random_tn_matrix(n, rng)
        for _ in range(10):
            v = random_vector(n, rng)
            image = [
                sum(m[i, j] * v[j] for j in range(n)) for i in range(n)
            ]
            assert sign_variation(image) <= sign_variation(v)
            assert variation_diminishes_on(m, v)


def test_float_zero_band_is_pessimistic_and_warns():
    # an entry inside the band cannot be certified strictly positive
    m = Matrix([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.warns(StrictnessWarning):
        assert not is_totally_positive(m)


def test_float_zero_band_saturates_past_float_range():
    # the entry scale's fourth power leaves the float range: the order-4 band
    # turns infinitely wide and resolves like any band, never OverflowError
    m = Matrix([[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 1e100]])
    with pytest.warns(StrictnessWarning):
        assert not is_totally_positive(m)
    assert is_totally_nonnegative(m)
    with pytest.raises(SingularityError):
        is_variation_diminishing(m)
    with pytest.raises(SingularityError):
        monoid_generate_check(m)
    big_diagonal = Matrix.diagonal([1e100, 1.0, 1.0, 1.0])
    assert classify(big_diagonal).kind is TPKind.TOTALLY_NONNEGATIVE_ONLY


def test_float_tp_clearly_positive():
    m = VANDERMONDE.to_float()
    assert is_totally_positive(m)
    assert is_totally_nonnegative(m)


def test_reversal_conjugation_preserves_positivity():
    rng = random.Random(17)
    for n in (2, 3, 4):
        m = random_tp_matrix(n, rng)
        r = reversal_permutation(n)
        assert is_totally_positive(r @ m @ r)


def test_products_stay_in_class():
    rng = random.Random(19)
    for n in (2, 3, 4):
        tp = random_tp_matrix(n, rng) @ random_tp_matrix(n, rng)
        assert is_totally_positive(tp)
        tn = random_tn_matrix(n, rng) @ random_tn_matrix(n, rng)
        assert is_totally_nonnegative(tn)
