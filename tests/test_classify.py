"""Positivity classes, sign variation, and the variation-diminishing test."""

import math
import random
import sys
import warnings
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from totpos import linalg, monoid_generate_check
from totpos.bilinear import A_to_form, canonical_basis, form_to_A, tilde
from totpos.classify import (
    TPClass,
    TPKind,
    _factored_least,
    _is_positive,
    _Least,
    _least_sign,
    _scan_minors,
    classify,
    is_oscillatory,
    is_totally_nonnegative,
    is_totally_positive,
    is_variation_diminishing,
    sign_variation,
    variation_diminishes_on,
)
from totpos.errors import (
    ConvergenceError,
    DomainError,
    SingularityError,
    StrictnessWarning,
)
from totpos.flags import stable_flags
from totpos.errors import InputError
from totpos.linalg import Matrix, det, ksubsets, minor, reversal_permutation, submatrix
from totpos.sampling import random_tn_matrix, random_tp_matrix, random_vector
from totpos.scalars import minor_scale, sign_of, zero_threshold
from totpos.spectra import gk_spectrum
from totpos.whitney import gen_x, gen_y

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
    # exact signs never read the scale, which saturates past the float range
    assert sign_variation([F(10**400), -1, 1]) == 2
    assert variation_diminishes_on(Matrix.identity(3), [F(10**400), -1, 1])


def test_sign_variation_float_band():
    # the middle entry sits inside the zero band and is dropped
    assert sign_variation([1.0, -1e-12, 1.0]) == 0


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


def test_float_copies_of_invertible_matrices_are_not_refused():
    # invertibility is decided on the exact dyadic copy, so a float copy of
    # an invertible matrix is never refused as singular, however large its
    # entries make the zero band of its determinant
    rng = random.Random(600)
    checked = 0
    while checked < 600:
        n = rng.randint(2, 5)
        pick = rng.randrange(3)
        if pick == 0:
            m = random_tp_matrix(n, rng)
        elif pick == 1:
            m = random_tn_matrix(n, rng)
        else:
            m = Matrix(
                [[F(rng.randint(-2, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            )
        if det(m) == 0:
            continue
        x = m.to_float()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StrictnessWarning)
            is_variation_diminishing(x)
            assert monoid_generate_check(x) == is_totally_nonnegative(x)
        checked += 1


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
    # invertibility is decided on the exact copy, whose determinant is far
    # from zero; the minor signs still come from the band, which puts no
    # order's minors on both sides of zero
    assert det(m) != 0
    assert is_variation_diminishing(m)
    assert monoid_generate_check(m)
    big_diagonal = Matrix.diagonal([1e100, 1.0, 1.0, 1.0])
    assert classify(big_diagonal).kind is TPKind.TOTALLY_NONNEGATIVE_ONLY
    # a diagonal has no power that is totally positive (Gantmacher-Krein), so
    # its square, which would leave the float range, is never formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = classify(Matrix.diagonal([1e200, 1.0, 1.0]))
    assert (result.kind, result.oscillatory_m) == (TPKind.TOTALLY_NONNEGATIVE_ONLY, None)
    # a tridiagonal with a positive band passes the criterion; its square
    # leaves the float range, which a matrix refuses, so strict positivity of
    # the powers is indeterminate
    big = 1e200
    with pytest.warns(StrictnessWarning) as caught:
        result = classify(Matrix([[big, 1, 0], [1, big, 1], [0, 1, big]]))
    assert len(caught) == 1
    assert (result.kind, result.oscillatory_m) == (TPKind.TOTALLY_NONNEGATIVE_ONLY, None)


def test_nan_float_minor_is_indeterminate_not_negative():
    # the order-2 float minor is inf - inf = NaN; the exact copy's is 0
    m = Matrix([[1e200, 1e200], [1e200, 1e200]])
    assert classify(m.to_exact()).kind is TPKind.TOTALLY_NONNEGATIVE_ONLY
    with pytest.warns(StrictnessWarning):
        assert classify(m).kind is TPKind.TOTALLY_NONNEGATIVE_ONLY


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


def _float_det(m):
    # a float determinant by partial-pivot elimination, independent of the
    # library's exact kernel; a column whose largest candidate lies in the
    # zero band has no pivot
    scale = max(m.entry_scale(), 1.0)
    a = [list(map(float, m.row_tuple(i))) for i in range(m.rows)]
    product = 1.0
    for c in range(m.cols):
        p = max(range(c, m.rows), key=lambda i: abs(a[i][c]))
        if abs(a[p][c]) <= zero_threshold(scale):
            return 0.0
        if p != c:
            a[c], a[p] = a[p], a[c]
            product = -product
        product *= a[c][c]
        inv = 1.0 / a[c][c]
        for i in range(c + 1, m.rows):
            f = a[i][c] * inv
            if f == 0.0:
                continue
            for j in range(c + 1, m.cols):
                a[i][j] -= f * a[c][j]
    return product


def _oracle_kind(m):
    # independent oracle: every minor through its own elimination, signs
    # judged with the same zero band as the scan; float minors come from a
    # float elimination, exact ones from the exact kernel
    scale = m.entry_scale()
    value = minor if m.is_exact else lambda m, rs, cs: _float_det(submatrix(m, rs, cs))
    signs = {
        sign_of(value(m, rs, cs), minor_scale(scale, k))
        for k in range(1, m.rows + 1)
        for rs in ksubsets(m.rows, k)
        for cs in ksubsets(m.rows, k)
    }
    if -1 in signs:
        return TPKind.NEITHER
    return TPKind.TOTALLY_POSITIVE if signs == {1} else TPKind.TOTALLY_NONNEGATIVE_ONLY


def _oracle_exponent(m, kind):
    if kind is TPKind.TOTALLY_POSITIVE:
        return 1
    if kind is TPKind.NEITHER:
        return None
    power = m
    for exponent in range(2, max(m.rows - 1, 1) + 1):
        power = power @ m
        if _oracle_kind(power) is TPKind.TOTALLY_POSITIVE:
            return exponent
    return None


def _differential_inputs():
    rng = random.Random(2024)
    for n in range(1, 6):
        for _ in range(4):
            yield random_tp_matrix(n, rng)
            yield random_tn_matrix(n, rng)
            tp = random_tp_matrix(n, rng)
            i, j = rng.randrange(n), rng.randrange(n)
            nudge = F(rng.choice((-1, 1)) * rng.randint(1, 10), 20)
            yield Matrix(
                [
                    [x * (1 + nudge) if (r, c) == (i, j) else x for c, x in enumerate(row)]
                    for r, row in enumerate(tp.to_lists())
                ]
            )
            yield Matrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])


def test_scan_matches_exhaustive_minor_oracle():
    kinds = set()
    for exact in _differential_inputs():
        for m in (exact, exact.to_float()):
            kind = _oracle_kind(m)
            kinds.add((kind, m.is_exact))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StrictnessWarning)
                result = classify(m)
                assert (result.kind, result.oscillatory_m) == (
                    kind,
                    _oracle_exponent(m, kind),
                ), m.to_lists()
                # gk_spectrum reads a float matrix as its dyadic copy
                if _oracle_kind(m.to_exact()) is TPKind.TOTALLY_POSITIVE:
                    try:
                        gk_spectrum(m)
                    except ConvergenceError:
                        pass
                else:
                    with pytest.raises(DomainError, match="not totally positive"):
                        gk_spectrum(m)
    # every verdict occurs on both backends
    assert len(kinds) == 6


def _scan_class(m):
    # oracle: kind and exponent from the exhaustive minor table alone
    least = _scan_minors(m, strict=False)
    if least is _Least.POSITIVE:
        return TPKind.TOTALLY_POSITIVE, 1
    if least is _Least.NEGATIVE:
        return TPKind.NEITHER, None
    power = m
    for exponent in range(2, max(m.rows - 1, 1) + 1):
        power = power @ m
        if _scan_minors(power, strict=True) is _Least.POSITIVE:
            return TPKind.TOTALLY_NONNEGATIVE_ONLY, exponent
    return TPKind.TOTALLY_NONNEGATIVE_ONLY, None


def _integer_multiple(m):
    # a positive multiple has the same minor signs and the same exponent
    scale = math.lcm(*(F(x).denominator for row in m.to_lists() for x in row))
    return Matrix([[int(x * scale) for x in row] for row in m.to_lists()])


def _factorization_inputs():
    rng = random.Random(6006)
    for n in range(1, 7):
        for _ in range(3 if n == 6 else 6):
            tn = random_tn_matrix(n, rng)
            singular = tn.to_lists()
            singular[-1] = singular[0]
            tp = random_tp_matrix(n, rng).to_lists()
            i, j = rng.randrange(n), rng.randrange(n)
            tp[i][j] *= 1 + F(rng.choice((-1, 1)) * rng.randint(1, 10), 20)
            yield from (random_tp_matrix(n, rng), tn, Matrix(tp), Matrix(singular))
            yield Matrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
            yield Matrix([[rng.randint(-1, 6) for _ in range(n)] for _ in range(n)])
    # invertible TN products off the reduced word: repeated letters, zero
    # parameters and diagonal scalings; the peel must accept both factors
    for n in range(2, 6):
        for _ in range(10):
            m = Matrix.identity(n)
            for _ in range(rng.randint(0, 3 * n * n)):
                a = rng.choice((0, 0, F(rng.randint(1, 9), rng.randint(1, 4))))
                gen = rng.choice((gen_x, gen_y))
                m = m @ gen(rng.randint(1, n - 1), a, n)
                if rng.randrange(10) == 0:
                    m = m @ Matrix.diagonal([F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)])
            yield m


def test_factorization_verdict_matches_scan():
    decided = set()
    for fractional in _factorization_inputs():
        for m in (fractional, _integer_multiple(fractional)):
            want = _scan_class(m)
            result = classify(m)
            assert (result.kind, result.oscillatory_m) == want, m.to_lists()
            assert is_totally_positive(m) == (want[0] is TPKind.TOTALLY_POSITIVE)
            assert is_totally_nonnegative(m) == (want[0] is not TPKind.NEITHER)
            least = _factored_least(m)
            if least is not None:
                assert least is _scan_minors(m, strict=False)
                decided.add((least, all(isinstance(x, int) for row in m.to_lists() for x in row)))
    # the factorization itself decides all three signs, on int and Fraction
    # entries alike
    assert decided == {
        (s, ints) for s in (_Least.NEGATIVE, _Least.ZERO, _Least.POSITIVE) for ints in (True, False)
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(
                    st.integers(-1, 4),
                    st.fractions(min_value=0, max_value=3, max_denominator=4),
                ),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_factored_verdict_agrees_with_scan(rows):
    m = Matrix(rows)
    least = _factored_least(m)
    assert least is None or least is _scan_minors(m, strict=False)
    assert (classify(m).kind, classify(m).oscillatory_m) == _scan_class(m)


def _count_tables(monkeypatch):
    # patch every namespace that imported the generator, as the bench tracer does
    original = linalg.minor_levels
    seen = []

    def counting(m, *args, **kwargs):
        seen.append(m)
        return original(m, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("totpos") and getattr(module, "minor_levels", None) is original:
            monkeypatch.setattr(module, "minor_levels", counting)
    return seen


def test_one_minor_table_per_certified_matrix(monkeypatch):
    seen = _count_tables(monkeypatch)
    rng = random.Random(5)
    g = random_tp_matrix(4, rng)
    # exact verdicts on invertible input come from the factorization
    assert classify(g).kind is TPKind.TOTALLY_POSITIVE
    assert classify(TRIDIAG).oscillatory_m == 2
    assert classify(Matrix([[1, 2], [3, 4]])).kind is TPKind.NEITHER
    # positive pivots, but the peel rejects L: a negative minor
    assert classify(Matrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]])).kind is TPKind.NEITHER
    assert is_totally_positive(g) and not is_totally_positive(TRIDIAG)
    assert is_totally_nonnegative(TRIDIAG) and monoid_generate_check(g)
    assert seen == []
    # a vanishing leading principal minor leaves the answer to one table
    ones = Matrix([[1, 1], [1, 1]])
    assert classify(ones).kind is TPKind.TOTALLY_NONNEGATIVE_ONLY
    assert seen == [ones]
    seen.clear()
    # float verdicts read one table per matrix
    vf, tf = VANDERMONDE.to_float(), TRIDIAG.to_float()
    assert classify(vf).kind is TPKind.TOTALLY_POSITIVE
    assert seen == [vf]
    seen.clear()
    assert classify(tf).oscillatory_m == 2
    assert seen == [tf, tf @ tf]
    seen.clear()
    gk_spectrum(g)
    assert seen == [g]
    seen.clear()
    form = A_to_form(random_tp_matrix(3, rng))
    canonical_basis(form)
    # the form's positivity comes from the factorization; one table for the
    # comparison matrix, which both certifies the positivity law and
    # supplies the compounds
    assert len(seen) == 1 and seen[0] != form_to_A(form)
    assert is_totally_positive(seen[0])
    seen.clear()
    stable_flags(g)
    assert seen == [g]
    seen.clear()
    stable_flags(g, sigma_mode="tilde")
    assert seen == [g @ tilde(g)]


def _old_scan_minors(m, strict):
    # oracle: the per-minor sign loop the one-rule scan replaced; it stops
    # at the first negative (or, strict, zero) minor in table order
    scale = m.entry_scale()
    least = _Least.POSITIVE
    for k, table in linalg.minor_levels(m):
        level_scale = minor_scale(scale, k)
        for value in table.values():
            s = sign_of(value, level_scale)
            if s < 0:
                return _Least.NEGATIVE
            if s == 0:
                if m.is_exact or value == 0.0:
                    if strict:
                        return _Least.ZERO
                    least = _Least.ZERO
                else:
                    least = min(least, _Least.INDETERMINATE)
    return least


def _old_variation_diminishing(m):
    # oracle: the per-minor loop looking for both signs inside one order
    linalg._require_invertible(m, "variation-diminishing test")
    scale = m.entry_scale()
    for k, table in linalg.minor_levels(m):
        has_pos = False
        has_neg = False
        level_scale = minor_scale(scale, k)
        for value in table.values():
            s = sign_of(value, level_scale)
            if s > 0:
                has_pos = True
            elif s < 0:
                has_neg = True
            if has_pos and has_neg:
                return False
    return True


def _strict_verdict(least):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        positive = _is_positive(least)
    return positive, [w.category for w in caught]


# float inputs at the edges of the sign rule: minors inside the zero band,
# exact zeros, zero and negative minors of one order, and entry scales
# whose powers leave the float range (infinite bands, inf and NaN minors)
_EDGE_INPUTS = [
    Matrix([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
    Matrix([[1.0, 1.0], [1.0, 1.0]]),
    Matrix([[1.0, 1e-12], [0.0, 1.0]]),
    Matrix([[1, 0, 2], [1, 0, 1], [0, 0, 1]]),
    Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    Matrix([[1, 2, 1], [1, 2, 1], [2, 1, 1]]),
    Matrix([[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 1e100]]),
    Matrix([[1e200, 1e200], [1e200, 1e200]]),
    Matrix([[1e200, 1.0], [1.0, 1e200]]),
    Matrix([[1e200, -1.0], [1.0, 1e-200]]),
    Matrix.diagonal([1e200, 1.0, 1.0]),
    Matrix([[1.0, 1e-9, 2.0], [-1e-10, 1.0, 1.0], [3.0, 1.0, 1.0]]),
]


def _sign_rule_inputs():
    rng = random.Random(909)
    for exact in _differential_inputs():
        yield exact
        yield exact.to_float()
    for n in range(1, 6):
        for _ in range(8):
            m = Matrix([[rng.randint(-2, 3) for _ in range(n)] for _ in range(n)])
            yield m
            yield m.to_float()
    yield from _EDGE_INPUTS


def test_one_sign_rule_matches_per_minor_loops():
    seen = set()
    for m in _sign_rule_inputs():
        loose = _scan_minors(m, strict=False)
        assert loose is _old_scan_minors(m, strict=False), m.to_lists()
        strict, old = _scan_minors(m, strict=True), _old_scan_minors(m, strict=True)
        # a zero and a negative minor of one order: the old loop returned
        # whichever came first, the fold returns the least
        assert strict is old or {strict, old} == {_Least.NEGATIVE, _Least.ZERO}
        assert _strict_verdict(strict) == _strict_verdict(old)
        seen |= {(loose, m.is_exact), (strict, m.is_exact)}
        try:
            want = _old_variation_diminishing(m)
        except SingularityError:
            with pytest.raises(SingularityError):
                is_variation_diminishing(m)
        else:
            assert is_variation_diminishing(m) == want, m.to_lists()
            seen.add(("diminishing", want))
    # every kind on the float backend, every exact one, and both answers of
    # the variation test
    assert seen >= {(least, False) for least in _Least}
    assert seen >= {(least, True) for least in _Least if least is not _Least.INDETERMINATE}
    assert seen >= {("diminishing", True), ("diminishing", False)}


def test_invertible_zero_pivot_is_negative_without_a_table():
    # an invertible totally nonnegative matrix has positive leading
    # principal minors, so a zero one decides Neither unless det vanishes
    rng = random.Random(1976)
    decided = {True: set(), False: set()}
    for n in range(2, 7):
        for _ in range(40):
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            k = rng.randrange(n)
            for i in range(k + 1):
                rows[i][k] = 0  # the (k+1)-th leading principal minor vanishes
            m = Matrix(rows)
            least = _factored_least(m)
            want = _scan_minors(m, strict=False)
            invertible = det(m) != 0
            if invertible:
                assert least is _Least.NEGATIVE is want, rows
            else:
                assert least is None or least is want, rows
            decided[invertible].add(want)
    assert decided[True] == {_Least.NEGATIVE}
    # singular zero-pivot input takes every verdict the table can give
    assert decided[False] == {_Least.NEGATIVE, _Least.ZERO}


def test_zero_pivot_past_the_table_cap():
    pascal = [[math.comb(i + j, i) for j in range(14)] for i in range(14)]
    reversal = [row[::-1] for row in pascal]  # invertible, zero-free
    reversal[0][0] = 0
    m = Matrix(reversal)
    assert det(m) != 0
    assert classify(m).kind is TPKind.NEITHER
    assert not is_totally_nonnegative(m)
    pascal[0] = [0] * 14  # singular: only the table could decide
    with pytest.raises(InputError, match="past the cap"):
        classify(Matrix(pascal))


def _clear_of_the_band(m):
    # every exact minor lies outside twice the zero band of its order
    scale = m.entry_scale()
    return all(
        abs(value) > 2 * zero_threshold(minor_scale(scale, k))
        for k, table in linalg.minor_levels(m)
        for value in table.values()
    )


def test_float_backend_agrees_with_exact_outside_the_band():
    # the float contract: when no minor comes near the zero band, a float
    # copy gets the exact verdicts, and no strict question warns
    rng = random.Random(2007)
    kinds = []
    for trial in range(2000):
        n = rng.randint(1, 4)
        if trial % 3 == 0:
            m = random_tp_matrix(n, rng)
        else:
            m = Matrix(
                [[F(rng.randint(-2, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            )
        if not _clear_of_the_band(m):
            continue
        verdicts = []
        for x in (m, m.to_float()):
            with warnings.catch_warnings():
                warnings.simplefilter("error", StrictnessWarning)
                verdicts.append(
                    (
                        classify(x),
                        is_totally_positive(x),
                        is_totally_nonnegative(x),
                        is_variation_diminishing(x),
                    )
                )
        assert verdicts[0] == verdicts[1], m.to_lists()
        kinds.append(verdicts[0][0].kind)
    # no minor is zero, so every kept input is totally positive or neither
    assert len(kinds) > 1000
    assert kinds.count(TPKind.TOTALLY_POSITIVE) > 500
    assert kinds.count(TPKind.NEITHER) > 200


@pytest.mark.parametrize("m_max", [0, -1, 1.5, True, "2"])
def test_m_max_is_checked_before_any_work(m_max):
    # TP, TN-only and Neither inputs: the same check, whatever the kind
    for m in (Matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]]), TRIDIAG, Matrix([[1, 2], [3, 4]])):
        with pytest.raises(InputError, match="m_max must be an int >= 1"):
            classify(m, m_max)
        with pytest.raises(InputError, match="m_max must be an int >= 1"):
            is_oscillatory(m, m_max)
    assert classify(TRIDIAG, 1).oscillatory_m is None
    assert is_oscillatory(TRIDIAG, 2) == 2


def _ungated_class(m, m_max=None):
    # oracle: classify's search before the Gantmacher-Krein criterion, which
    # forms every power up to the cap whatever the matrix
    least = _least_sign(m, strict=False)
    if _is_positive(least):
        return TPKind.TOTALLY_POSITIVE, 1
    if least is _Least.NEGATIVE:
        return TPKind.NEITHER, None
    power = m
    for exponent in range(2, (m_max or max(m.rows - 1, 1)) + 1):
        try:
            power = power @ m
        except InputError:
            break
        if _is_positive(_least_sign(power, strict=True)):
            return TPKind.TOTALLY_NONNEGATIVE_ONLY, exponent
    return TPKind.TOTALLY_NONNEGATIVE_ONLY, None


def _singular_family(n):
    # B C, with B the n x (n-1) Vandermonde matrix on nodes 1..n and C the
    # transpose of the one on nodes 2..n+1: singular, with every minor of
    # order below n positive (Cauchy-Binet), so totally nonnegative
    b = Matrix([[i**j for j in range(n - 1)] for i in range(1, n + 1)])
    c = Matrix([[k**j for k in range(2, n + 2)] for j in range(n - 1)])
    return b @ c


def test_gated_exponent_matches_the_ungated_power_search():
    rng = random.Random(2027)
    corpus = [random_tn_matrix(n, rng) for n in range(2, 7) for _ in range(40)]
    corpus += [Matrix([[1] * n for _ in range(n)]) for n in (2, 3, 4)]
    exponents = set()
    for exact in corpus:
        for m in (exact, exact.to_float()):
            for m_max in range(1, m.rows + 1):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", StrictnessWarning)
                    result = classify(m, m_max)
                    want = _ungated_class(m, m_max)
                assert (result.kind, result.oscillatory_m) == want, (m.to_lists(), m_max)
                exponents.add(want[1])
    for n in range(4, 9):
        result = classify(_singular_family(n))
        assert (result.kind, result.oscillatory_m) == _ungated_class(_singular_family(n))
    # the corpus holds oscillatory and non-oscillatory TN-only matrices
    assert {None, 1, 2, 3} <= exponents


def test_no_power_is_formed_when_the_criterion_fails(monkeypatch):
    singular = [_singular_family(n) for n in range(8, 12)]
    # invertible and TN, but a(2,3) = a(3,2) = 0, or a zero band below or
    # above the diagonal; and singular with positive bands
    split = Matrix([[1, 1, 0], [1, 2, 0], [0, 0, 1]])
    upper = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    ones = Matrix([[1] * 3 for _ in range(3)])

    def refuse(a, b):
        raise AssertionError("a power was formed")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    for m in singular:
        assert classify(m) == TPClass(TPKind.TOTALLY_NONNEGATIVE_ONLY, None)
    for m in (split, upper, upper.transpose(), ones, ones.to_float(), split.to_float()):
        assert classify(m, 10**6).oscillatory_m is None
        assert is_oscillatory(m, 10**6) is None
    # the criterion holds on the tridiagonal, whose square is formed
    with pytest.raises(AssertionError, match="a power was formed"):
        classify(TRIDIAG, 10**6)
