"""Bilinear forms, the attached matrix family, and the canonical eigenbasis."""

import math
import random
import warnings
from fractions import Fraction as F

import pytest

from totpos.bilinear import (
    A_to_form,
    _twisted,
    BilinearForm,
    c0_matrix,
    canonical_basis,
    form_family_positive,
    form_to_A,
    is_totally_positive_form,
    star,
    tilde,
)
from totpos.classify import is_totally_positive
from totpos.errors import DomainError, InputError, SingularityError
from totpos.linalg import Matrix, det, inverse, ksubsets, submatrix
from totpos.scalars import minor_scale, zero_threshold
from totpos.sampling import random_positive_form, random_tp_matrix
from totpos.whitney import gen_x, gen_y

# hand-multiplied reference pair: this Gram matrix attaches to this matrix
GRAM = Matrix([[3, 7], [-1, -2]])
ATTACHED = Matrix([[1, 3], [2, 7]])


def test_star_involution():
    assert [star(r, 4) for r in (1, 2, 3, 4)] == [4, 3, 2, 1]
    for n in (1, 3, 6):
        for r in range(1, n + 1):
            assert star(star(r, n), n) == r


def test_c0_matrix_frozen():
    # column r is (-1)^r times the (n+1-r)-th basis vector
    assert c0_matrix(2) == Matrix([[0, 1], [-1, 0]])
    assert c0_matrix(3) == Matrix([[0, 0, -1], [0, 1, 0], [-1, 0, 0]])


def test_c0_squares_to_signed_identity():
    for n in range(1, 6):
        c0 = c0_matrix(n)
        expect = Matrix.identity(n).scale((-1) ** (n + 1))
        assert c0 @ c0 == expect


def test_form_matrix_round_trip_frozen():
    assert form_to_A(BilinearForm(GRAM)) == ATTACHED
    assert A_to_form(ATTACHED).gram == GRAM


def test_form_matrix_round_trip_random():
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        m = random_tp_matrix(n, rng)
        assert form_to_A(A_to_form(m)) == m
        g = Matrix([[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        assert A_to_form(form_to_A(BilinearForm(g))).gram == g


def test_pairing_matches_gram():
    form = BilinearForm(GRAM)
    assert form.pair([1, 0], [0, 1]) == 7
    assert form.pair([1, 1], [1, 1]) == 3 + 7 - 1 - 2


def test_positive_form_detection():
    assert is_totally_positive_form(BilinearForm(GRAM))
    assert not is_totally_positive_form(BilinearForm(Matrix.identity(2)))


def test_form_family_agrees_with_attached_matrix_test():
    rng = random.Random(21)
    for n in (2, 3, 4):
        for _ in range(8):
            if rng.randrange(2):
                form = random_positive_form(n, rng)
            else:
                form = BilinearForm(
                    Matrix(
                        [
                            [F(rng.randint(-3, 3)) for _ in range(n)]
                            for _ in range(n)
                        ]
                    )
                )
            assert form_family_positive(form) == is_totally_positive_form(form)


def _old_form_family_positive(form):
    # oracle: every signed determinant of the family through its own
    # elimination, judged against the order-k zero band
    n = form.n
    signed = form_to_A(form).transpose()
    scale = signed.entry_scale()
    for k in range(1, n + 1):
        for rset in ksubsets(n, k):
            for sset in ksubsets(n, k):
                value = det(submatrix(signed, rset, sset))
                if form.gram.is_exact:
                    if not value > 0:
                        return False
                elif not float(value) > zero_threshold(minor_scale(scale, k)):
                    return False
    return True


def _family_inputs():
    rng = random.Random(61)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            form = random_positive_form(n, rng)
            yield form
            gram = form.gram.to_lists()
            i, j = rng.randrange(n), rng.randrange(n)
            gram[i][j] *= F(rng.choice((-1, 1)) * rng.randint(1, 10), 20) + 1
            yield BilinearForm(Matrix(gram))
            yield BilinearForm(Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]))
    # zero band, exact zeros and float-range overflow
    yield BilinearForm(Matrix([[1.0 + 1e-15, -1.0], [1.0, -1.0]]))
    yield BilinearForm(Matrix([[1.0, -1.0], [1.0, -1.0]]))
    yield BilinearForm(Matrix([[1e200, -1e200], [1e200, -1e200]]))
    yield BilinearForm(Matrix([[1e200, -1.0], [1.0, -1e200]]))


def test_form_family_reads_the_minor_table_like_the_determinant_loop():
    verdicts = set()
    for form in _family_inputs():
        grams = [form.gram] + ([form.gram.to_float()] if form.gram.is_exact else [])
        for gram in grams:
            f = BilinearForm(gram)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the family never warns
                got = form_family_positive(f)
            assert got == _old_form_family_positive(f), gram.to_lists()
            verdicts.add((got, gram.is_exact))
    assert verdicts == {(v, e) for v in (True, False) for e in (True, False)}


def test_form_family_is_capped_at_n_12():
    # the family reads every minor of the signed grid, so it stops where the
    # minor table does; the comparison-matrix test has no cap
    form = A_to_form(random_tp_matrix(13, random.Random(13)))
    assert is_totally_positive_form(form)
    with pytest.raises(InputError, match="past the cap"):
        form_family_positive(form)


def test_tilde_is_involution():
    rng = random.Random(33)
    for n in (2, 3, 4):
        m = random_tp_matrix(n, rng)
        assert tilde(tilde(m)) == m


def test_tilde_preserves_total_positivity():
    rng = random.Random(34)
    for n in (2, 3, 4):
        for _ in range(4):
            m = random_tp_matrix(n, rng)
            assert is_totally_positive(tilde(m))


def test_tilde_on_generators():
    # the involution swaps a generator to its mirrored-index partner
    for n in (2, 3, 4):
        for i in range(1, n):
            a = F(3, 2)
            assert tilde(gen_x(i, a, n)) == gen_x(n - i, a, n)
            assert tilde(gen_y(i, a, n)) == gen_y(n - i, a, n)


def test_tilde_frozen_value():
    m = Matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    expect = (
        c0_matrix(3) @ inverse(m.transpose()) @ inverse(c0_matrix(3))
    )
    assert tilde(m) == expect
    assert tilde(m) == Matrix(
        [[F(1, 2), F(3, 2), 1], [1, 4, 3], [F(1, 2), F(5, 2), 3]]
    )


def _c0_product(*factors):
    """Left-to-right product by one sum of products per entry, the loop the
    twist products ran before they became index reversals."""
    out = factors[0].to_lists()
    for f in factors[1:]:
        cols = list(zip(*f.to_lists()))
        out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in out]
    return out


def test_twists_match_the_c0_products():
    # repr, not ==: it sees entry types and the sign of a float zero
    rng = random.Random(37)
    seen_float_zero = False
    for _ in range(200):
        n = rng.randint(1, 5)
        exact = rng.random() < 0.5
        rows = [
            [0 if rng.random() < 0.4 else F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        m = Matrix(rows) if exact else Matrix(rows).to_float()
        try:
            t = inverse(m).transpose()
        except SingularityError:
            continue
        c0 = c0_matrix(n)
        c0_inv = c0 if n % 2 else -c0
        assert repr(tilde(m).to_lists()) == repr(_c0_product(c0, t, c0_inv)), m
        for left, right in ((True, False), (False, True), (True, True)):
            expect = _c0_product(*([c0] * left + [t] + [c0] * right))
            assert repr(_twisted(t, left, right).to_lists()) == repr(expect), m
        seen_float_zero |= not exact and 0.0 in (x for row in t.to_lists() for x in row)
    assert seen_float_zero


def test_canonical_basis_frozen_2x2():
    result = canonical_basis(BilinearForm(GRAM))
    assert result.comparison == Matrix([[7, 16], [24, 55]])
    # eigenvalues 31 +- 8*sqrt(15)
    hi = 31 + 8 * math.sqrt(15)
    lo = 31 - 8 * math.sqrt(15)
    assert math.isclose(result.eigenvalues[0], hi, rel_tol=1e-12)
    assert math.isclose(result.eigenvalues[1], lo, rel_tol=1e-9)
    assert math.isclose(result.chain[0] * hi, 1.0, rel_tol=1e-9)
    assert math.isclose(result.chain[1] * lo, 1.0, rel_tol=1e-9)


def test_canonical_basis_properties():
    rng = random.Random(44)
    for n in (2, 3, 4):
        for _ in range(4):
            form = random_positive_form(n, rng)
            result = canonical_basis(form)
            c = result.eigenvalues
            assert det(result.comparison) == 1  # exact unimodularity
            # reciprocal pairing of the spectrum
            for r in range(n):
                assert math.isclose(c[r] * c[n - 1 - r], 1.0, rel_tol=1e-8)
            # chain identity z_r / z_{r*} = 1 / c_r, increasing
            for r in range(n):
                assert math.isclose(result.chain[r] * c[r], 1.0, rel_tol=1e-7)
            assert all(
                a < b for a, b in zip(result.chain, result.chain[1:])
            )
            # Gram in the new basis concentrates on the anti-diagonal
            g = result.gram_in_basis
            anti = max(
                abs(float(g[r, n - 1 - r])) for r in range(n)
            )
            for r in range(n):
                for s in range(n):
                    if s != n - 1 - r:
                        assert abs(float(g[r, s])) <= 1e-9 * anti


def test_canonical_basis_rejects_non_positive_form():
    with pytest.raises(DomainError):
        canonical_basis(BilinearForm(Matrix.identity(3)))


def test_form_shape_validation():
    with pytest.raises(InputError):
        BilinearForm(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_chain_survives_basis_rescaling():
    # z_r and z_{r*} both pick up the scale of column r, so their ratios
    # cannot see a column rescaling
    rng = random.Random(23)
    for n in (2, 3):
        form = random_positive_form(n, rng)
        result = canonical_basis(form)

        def chain_of(v):
            gram_new = v.transpose() @ form.gram @ v
            z = []
            for r in range(1, n + 1):
                value = gram_new[r - 1, star(r, n) - 1]
                z.append(-value if r % 2 else value)
            return [z[r - 1] / z[star(r, n) - 1] for r in range(1, n + 1)]

        base = chain_of(result.basis)
        scales = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        rescaled = Matrix.from_columns(
            [
                [x * scales[j] for x in result.basis.col_tuple(j)]
                for j in range(n)
            ]
        )
        assert chain_of(rescaled) == base
        for r in range(n):
            assert math.isclose(float(base[r]), result.chain[r], rel_tol=1e-8)
