"""Bidiagonal synthesis, factorization, and monoid membership."""

import math
import random
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totpos import monoid_generate_check
from totpos.classify import is_totally_nonnegative, is_totally_positive
from totpos.errors import (
    DomainError,
    InputError,
    SingularityError,
)
from totpos.linalg import Matrix, det, inverse
from totpos.sampling import (
    random_tn_matrix,
    random_tp_matrix,
    random_tp_parameters,
    random_uni_params,
)
from totpos.whitney import (
    TPParameters,
    UniParams,
    _ldu,
    _peel,
    factorize,
    gauss_ldu,
    gen_x,
    gen_y,
    membership_uni,
    reversed_word,
    standard_word,
    synthesize,
    synthesize_uni,
    word_for,
)


def test_words_frozen():
    assert standard_word(2) == (1,)
    assert standard_word(3) == (1, 2, 1)
    assert standard_word(4) == (1, 2, 3, 1, 2, 1)
    assert reversed_word(3) == (2, 1, 2)
    assert reversed_word(4) == (3, 2, 1, 3, 2, 3)
    for n in range(2, 7):
        assert len(standard_word(n)) == n * (n - 1) // 2
        assert len(reversed_word(n)) == n * (n - 1) // 2
    assert word_for(3, "standard") == standard_word(3)
    assert word_for(3, "reversed") == reversed_word(3)
    with pytest.raises(InputError):
        word_for(3, "sorted")


def test_generators_frozen():
    x = gen_x(1, F(5), 3)
    assert x == Matrix([[1, 0, 0], [5, 1, 0], [0, 0, 1]])
    y = gen_y(2, F(7), 3)
    assert y == Matrix([[1, 0, 0], [0, 1, 7], [0, 0, 1]])
    with pytest.raises(InputError):
        gen_x(3, F(1), 3)  # letter out of range
    with pytest.raises(InputError):
        gen_y(0, F(1), 3)


def test_synthesize_frozen_n2():
    p = TPParameters(
        n=2, word=(1,), a=(F(2),), t=(F(3), F(5)), b=(F(7),), strict=True
    )
    # x_1(2) diag(3,5) y_1(7) multiplied by hand
    assert synthesize(p) == Matrix([[3, 21], [6, 47]])


def test_parameter_validation():
    with pytest.raises(InputError):
        TPParameters(2, (1,), (F(1), F(1)), (F(1), F(1)), (F(1),), True)
    with pytest.raises(InputError):
        TPParameters(2, (1,), (F(1),), (F(1),), (F(1),), True)  # t too short
    with pytest.raises(InputError):
        TPParameters(2, (1,), (F(1),), (F(0), F(1)), (F(1),), True)  # t not > 0
    with pytest.raises(InputError):
        TPParameters(2, (1,), (F(0),), (F(1), F(1)), (F(1),), True)  # strict zero
    with pytest.raises(InputError):
        TPParameters(2, (1,), (F(-1),), (F(1), F(1)), (F(1),), False)  # negative
    with pytest.raises(InputError):
        TPParameters(2, (2,), (F(1),), (F(1), F(1)), (F(1),), True)  # bad letter
    # relaxed zeros are legal
    TPParameters(2, (1,), (F(0),), (F(1), F(1)), (F(0),), False)
    with pytest.raises(InputError):
        UniParams(3, (1, 2, 1), "diagonal", (F(1),) * 3, True)


def test_synthesized_strict_is_totally_positive():
    rng = random.Random(2024)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            for word in ("standard", "reversed"):
                m = random_tp_parameters(n, rng, word=word)
                assert is_totally_positive(synthesize(m))


def test_factorize_recovers_parameters_exactly():
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        for word in ("standard", "reversed"):
            for _ in range(6):
                p = random_tp_parameters(n, rng, word=word)
                q = factorize(synthesize(p), word=word)
                assert q.a == p.a
                assert q.t == p.t
                assert q.b == p.b


def test_factorize_synthesize_matrix_roundtrip():
    rng = random.Random(32)
    for n in (2, 3, 4):
        m = random_tp_matrix(n, rng)
        assert synthesize(factorize(m)) == m
        assert synthesize(factorize(m, word="reversed")) == m


def _generator_product(n, word, side, params):
    # oracle: the product of the full generator matrices
    gen = gen_x if side == "lower" else gen_y
    result = Matrix.identity(n)
    for i, c in zip(word, params):
        result = result @ gen(i, c, n)
    return result


def test_synthesis_matches_generator_product():
    rng = random.Random(77)

    def draw(strict):
        kind = rng.randrange(4)
        low = 1 if strict else 0
        if kind == 0:
            return rng.randint(low, 4)
        if kind == 1:
            return F(rng.randint(low, 9), rng.randint(1, 4))
        if kind == 2:
            return F(rng.randint(max(low, 1), 3))
        return rng.randint(1, 2)

    for n in range(1, 7):
        for word in ("standard", "reversed"):
            wd = word_for(n, word)
            for strict in (True, False):
                for params in (
                    [draw(strict) for _ in wd],
                    [rng.randint(int(strict), 3) for _ in wd],  # ints only
                    [F(rng.randint(int(strict), 5), 2) for _ in wd],  # Fractions only
                ):
                    t = [draw(True) for _ in range(n)]
                    p = TPParameters(n, wd, tuple(params), tuple(t), tuple(params[::-1]), strict)
                    lower = _generator_product(n, wd, "lower", p.a)
                    upper = _generator_product(n, wd, "upper", p.b)
                    want = lower @ Matrix.diagonal(t) @ upper
                    # entry types matter as well as values, so compare reprs
                    assert repr(synthesize(p).to_lists()) == repr(want.to_lists())
                    for side, cs, oracle in (("lower", p.a, lower), ("upper", p.b, upper)):
                        got = synthesize_uni(UniParams(n, wd, side, cs, strict))
                        assert repr(got.to_lists()) == repr(oracle.to_lists())
    # a float parameter turns the whole product into floats, values unchanged
    p = UniParams(3, standard_word(3), "lower", (F(1, 3), 0.5, 2), True)
    assert repr(synthesize_uni(p).to_lists()) == repr(
        _generator_product(3, p.word, "lower", p.c).to_lists()
    )
    with pytest.raises(InputError, match="not a supported scalar"):
        UniParams(2, (1,), "lower", (True,), True)


def test_exact_input_gives_fraction_results():
    # / on int entries would give floats here, e.g. t = (2, 0.5)
    q = factorize(Matrix([[2, 1], [1, 1]]))
    assert (q.a, q.t, q.b) == ((F(1, 2),), (F(2), F(1, 2)), (F(1, 2),))
    p = membership_uni(Matrix([[1, 0], [3, 1]]), "lower")
    assert p is not None and p.c == (F(3),)
    lower, diag, upper = gauss_ldu(Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
    assert diag == (F(2), F(3, 2), F(4, 3))
    values = [*q.a, *q.t, *q.b, *p.c, *diag]
    values += [x for m in (lower, upper) for row in m.to_lists() for x in row]
    assert not any(isinstance(x, float) for x in values)
    assert all(isinstance(x, F) for x in [*q.a, *q.t, *q.b, *p.c, *diag])
    relaxed = membership_uni(gen_x(2, 5, 3), "lower")
    assert relaxed is not None and all(isinstance(c, F) for c in relaxed.c)


def test_gauss_ldu():
    rng = random.Random(6)
    for _ in range(10):
        m = random_tp_matrix(3, rng)
        lower, diag, upper = gauss_ldu(m)
        assert lower @ Matrix.diagonal(list(diag)) @ upper == m
    # zero leading pivot stops the pivot-free elimination
    assert gauss_ldu(Matrix([[0, 1], [1, 0]])) is None


def test_membership_boundary_cases():
    # single far generator embedded in n = 3, relaxed parameters
    m = gen_x(2, F(5), 3)
    p = membership_uni(m, "lower")
    assert p is not None and not p.strict
    assert p.c == (F(0), F(5), F(0))
    assert synthesize_uni(p) == m

    # partial product stays factorable over both words
    m2 = gen_x(1, F(3), 3) @ gen_x(2, F(2), 3)
    p2 = membership_uni(m2, "lower")
    assert p2 is not None and p2.c == (F(3), F(2), F(0))
    p3 = membership_uni(m2, "lower", word="reversed")
    assert p3 is not None and p3.c == (F(0), F(3), F(2))
    assert synthesize_uni(p3) == m2

    # identity: all parameters zero
    p4 = membership_uni(Matrix.identity(4), "lower")
    assert p4 is not None and set(p4.c) == {F(0)}


def test_membership_rejections():
    assert membership_uni(gen_x(1, F(-1), 3), "lower") is None
    # e31 alone cannot be a nonnegative product of adjacent generators
    e31 = Matrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    assert membership_uni(e31, "lower") is None
    with pytest.raises(DomainError):
        membership_uni(Matrix([[1, 1], [0, 1]]), "lower")  # wrong side
    with pytest.raises(DomainError):
        membership_uni(Matrix([[2, 0], [0, 1]]), "lower")  # not unipotent


def test_membership_float_conditioning():
    # a float factor is peeled exactly: the ratio 1/0 at row 3 is a
    # rejection, as on the exact copy, not a pivot too small to trust
    e31 = Matrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]]).to_float()
    assert membership_uni(e31, "lower") is None
    assert membership_uni(e31, "lower", word="reversed") is None


def test_membership_upper_side():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for word in ("standard", "reversed"):
            p = random_uni_params(n, rng, side="upper", strict=True, word=word)
            u = synthesize_uni(p)
            q = membership_uni(u, "upper", word=word)
            assert q is not None and q.c == p.c
    # transposes of relaxed lower products are recognized on the upper side
    m = (gen_x(1, F(3), 3) @ gen_x(2, F(2), 3)).transpose()
    q = membership_uni(m, "upper")
    assert q is not None
    assert synthesize_uni(q) == m


def _work_rows(m: Matrix) -> list[list[Fraction]]:
    """Mutable exact copy of the rows: every entry, a float too, becomes the
    Fraction it equals, so / is exact."""
    return [[Fraction(x) for x in m.row_tuple(i)] for i in range(m.rows)]


def _check_identity(a: list[list[Fraction]]) -> bool:
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x != (1 if i == j else 0):
                return False
    return True


def _peel_ratio(num: Fraction, den: Fraction) -> Fraction | None:
    """num/den, where 0/0 is 0; None marks non-membership."""
    if den == 0:
        return Fraction(0) if num == 0 else None
    return num / den


def _oracle_peel_standard(m):
    # oracle: the standard-word peel with its own block table
    n = m.rows
    letters = [(i, j) for j in range(1, n) for i in range(1, n - j + 1)]
    a = _work_rows(m)
    out = [0] * len(letters)
    for s in range(len(letters) - 1, -1, -1):
        i, j = letters[s]
        r = i + j - 1
        c = _peel_ratio(a[r][i - 1], a[r][i])
        if c is None:
            return None
        out[s] = c
        if c != 0:
            for row in range(n):
                a[row][i - 1] -= c * a[row][i]
    return tuple(out) if _check_identity(a) else None


def _oracle_peel_reversed(m):
    # oracle: the reversed-word peel by row operations, left to right
    n = m.rows
    letters = [(i, j) for j in range(1, n) for i in range(n - 1, j - 1, -1)]
    a = _work_rows(m)
    out = [0] * len(letters)
    for s in range(len(letters)):
        i, j = letters[s]
        c = _peel_ratio(a[i][j - 1], a[i - 1][j - 1])
        if c is None:
            return None
        out[s] = c
        if c != 0:
            for col in range(n):
                a[i][col] -= c * a[i - 1][col]
    return tuple(out) if _check_identity(a) else None


_ORACLE_PEELS = {"standard": _oracle_peel_standard, "reversed": _oracle_peel_reversed}


def _oracle_membership(m, side, word):
    if side == "lower":
        target, kind = m, word
    else:
        target = Matrix([row[::-1] for row in reversed(m.to_lists())])
        kind = "reversed" if word == "standard" else "standard"
    cs = _ORACLE_PEELS[kind](target)
    if cs is None or any(c < 0 for c in cs):
        return None
    return UniParams(m.rows, word_for(m.rows, word), side, cs, all(c > 0 for c in cs))


def _oracle_cone_peel(kind, m):
    # the peel stops at a negative parameter: the oracle's parameters when
    # all are >= 0, else None
    cs = _ORACLE_PEELS[kind](m)
    return None if cs is None or any(c < 0 for c in cs) else cs


def _outcome(fn, *args):
    # (result, exception type); entry types matter, so results go through repr
    try:
        return repr(fn(*args)), None
    except Exception as exc:  # the oracle and the peel must raise alike
        return None, type(exc)


def test_one_peel_matches_both_oracle_peels():
    rng = random.Random(606)

    def perturbed(m, side):
        # one off-diagonal entry of the factor's triangle moves or vanishes
        rows = m.to_lists()
        n = m.rows
        below = side == "lower"
        cells = [(i, j) for i in range(n) for j in range(n) if (i > j if below else i < j)]
        i, j = rng.choice(cells)
        rows[i][j] += rng.choice((F(-1, 3), F(1, 7), F(1, 10**9), -rows[i][j]))
        return Matrix(rows)

    compared = 0
    for n in range(1, 7):
        for side in ("lower", "upper"):
            for word in ("standard", "reversed"):
                for trial in range(12):
                    strict = trial % 3 == 0
                    p = random_uni_params(n, rng, side=side, strict=strict, word=word)
                    m = synthesize_uni(p)
                    inputs = [m]
                    if n > 1:
                        inputs.append(perturbed(m, side))
                    for x in inputs + [y.to_float() for y in inputs]:
                        # a float factor is peeled as its exact dyadic copy
                        exact = x.to_exact()
                        assert _outcome(membership_uni, x, side, word) == _outcome(
                            _oracle_membership, exact, side, word
                        )
                        if side == "lower":
                            for kind in ("standard", "reversed"):
                                assert _outcome(_peel, x, kind) == _outcome(
                                    _oracle_cone_peel, kind, exact
                                )
                        compared += 1
    assert compared > 500


def test_a_negative_parameter_is_rejected_where_it_is_peeled():
    # one parameter turned negative at the first, a middle and the last
    # position the peel reaches; the upper side peels the flipped word
    rng = random.Random(808)
    rejected = 0
    for n in range(2, 7):
        for side, gen in (("lower", gen_x), ("upper", gen_y)):
            for word in ("standard", "reversed"):
                letters = word_for(n, word)
                peeled_first = (side == "lower") == (word == "reversed")
                order = list(range(len(letters)))[:: 1 if peeled_first else -1]
                for s in dict.fromkeys((order[0], order[len(order) // 2], order[-1])):
                    cs = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in letters]
                    cs[s] = -cs[s]
                    m = Matrix.identity(n)
                    for i, c in zip(letters, cs):
                        m = m @ gen(i, c, n)
                    for x in (m, m.to_float()):
                        got = _outcome(membership_uni, x, side, word)
                        assert got == _outcome(_oracle_membership, x.to_exact(), side, word)
                        rejected += got == (repr(None), None)
    assert rejected == 2 * sum(4 * len({0, k // 2, k - 1}) for k in (1, 3, 6, 10, 15))


def test_relaxed_membership_roundtrips_matrix():
    rng = random.Random(54)
    for n in (2, 3, 4, 5):
        for word in ("standard", "reversed"):
            for _ in range(8):
                p = random_uni_params(n, rng, side="lower", strict=False, word=word)
                m = synthesize_uni(p)
                q = membership_uni(m, "lower", word=word)
                assert q is not None
                assert synthesize_uni(q) == m


def test_factorize_errors():
    with pytest.raises(DomainError):
        factorize(Matrix([[1, 2], [3, 4]]))  # negative determinant
    with pytest.raises(DomainError):
        factorize(Matrix([[0, 1], [1, 0]]))  # vanishing leading minor
    with pytest.raises(DomainError):
        factorize(Matrix([[1, 0], [1, 1]]))  # boundary, not strictly positive
    with pytest.raises(InputError):
        factorize(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_monoid_check_agrees_with_minor_scan():
    rng = random.Random(63)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        if rng.randrange(2):
            m = random_tn_matrix(n, rng)
        else:
            m = Matrix(
                [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(n)]
            )
        if det(m) == 0:
            continue
        assert monoid_generate_check(m) == is_totally_nonnegative(m)
        checked += 1
    assert checked > 30


def test_monoid_check_singular_raises():
    with pytest.raises(SingularityError):
        monoid_generate_check(Matrix([[1, 1], [1, 1]]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=F(1, 8), max_value=F(8)),
            min_size=n * (n - 1) + n,
            max_size=n * (n - 1) + n,
        )
    )
)
def test_synthesis_always_tp(values):
    n = next(k for k in range(2, 6) if k * (k - 1) + k == len(values))
    count = n * (n - 1) // 2
    p = TPParameters(
        n=n,
        word=standard_word(n),
        a=tuple(values[:count]),
        t=tuple(values[count : count + n]),
        b=tuple(values[count + n :]),
        strict=True,
    )
    assert is_totally_positive(synthesize(p))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.sampled_from(("standard", "reversed")),
            st.lists(
                st.one_of(
                    st.integers(1, 9), st.fractions(min_value=F(1, 8), max_value=F(8))
                ),
                min_size=n * n,
                max_size=n * n,
            ),
        )
    )
)
def test_factorize_inverts_synthesize(case):
    word, values = case
    n = next(k for k in range(1, 6) if k * k == len(values))
    count = n * (n - 1) // 2
    p = TPParameters(
        n=n,
        word=word_for(n, word),
        a=tuple(values[:count]),
        t=tuple(values[count : count + n]),
        b=tuple(values[count + n :]),
        strict=True,
    )
    m = synthesize(p)
    q = factorize(m, word=word)
    assert (q.a, q.t, q.b) == (p.a, p.t, p.b)
    assert all(isinstance(x, F) for x in q.a + q.t + q.b)
    assert synthesize(q) == m


def test_one_parameter_subgroup_law():
    for i in (1, 2, 3):
        for a, b in ((F(1, 2), F(3)), (F(2), F(5, 7))):
            assert gen_x(i, a, 4) @ gen_x(i, b, 4) == gen_x(i, a + b, 4)
            assert gen_y(i, a, 4) @ gen_y(i, b, 4) == gen_y(i, a + b, 4)


def test_tp_products_approximate_tn_matrices():
    # an additive perturbation of a TN matrix can push a vanishing minor
    # negative, so approximation runs through products: the product with
    # any TP factor is TP, and shrinking the factor's parameters toward
    # the identity walks the product back to the input
    rng = random.Random(31)
    for trial in range(12):
        n = 2 + trial % 3
        m = random_tn_matrix(n, rng)
        base = random_tp_parameters(n, rng, strict=True)
        prev = None
        for k in (2, 4, 8):
            eps = F(1, 10**k)
            scaled = TPParameters(
                n=n,
                word=base.word,
                a=tuple(x * eps for x in base.a),
                t=tuple(1 + (x - 1) * eps for x in base.t),
                b=tuple(x * eps for x in base.b),
                strict=True,
            )
            product = m @ synthesize(scaled)
            assert is_totally_positive(product)
            dist = max(
                abs(product[i, j] - m[i, j])
                for i in range(n)
                for j in range(n)
            )
            if prev is not None:
                assert dist < prev
            prev = dist


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_uni_params_check_their_word(side):
    # letter 0 would write above the diagonal of a lower product
    for n, word in ((3, (0,)), (3, (3,)), (3, (1, 5)), (0, ())):
        with pytest.raises(InputError, match="word letter|n >= 1"):
            UniParams(n, word, side, (F(1),) * len(word), True)
    assert UniParams(3, (1, 2), side, (F(1), F(2)), True).word == (1, 2)


def test_tp_parameters_check_their_word():
    for n, word in ((3, (0, 1, 2)), (3, (1, 3, 1)), (0, ())):
        size = n * (n - 1) // 2
        with pytest.raises(InputError, match="word letter|n >= 1"):
            TPParameters(n, word, (F(1),) * size, (F(1),) * n, (F(1),) * size)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda v: UniParams(2, (1,), "lower", (v,), False), id="uni-relaxed"),
        pytest.param(lambda v: UniParams(2, (1,), "upper", (v,), True), id="uni-strict"),
        pytest.param(lambda v: TPParameters(2, (1,), (v,), (1, 1), (1,), False), id="tp-lower"),
        pytest.param(lambda v: TPParameters(2, (1,), (1,), (1, 1), (v,), True), id="tp-upper"),
        pytest.param(lambda v: TPParameters(2, (1,), (1,), (v, 1), (1,)), id="tp-diagonal"),
    ],
)
@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, True, "2", None], ids=repr
)
def test_parameters_follow_the_entry_rule(build, value):
    # the rule of matrix entries: non-finite floats, bools, strings and
    # None are refused when the parameters are built, not at synthesis
    with pytest.raises(InputError, match="not a supported scalar|must be finite"):
        build(value)
    # and the finite scalars of every kind are still accepted
    for ok in (2, F(1, 3), 0.5):
        build(ok)


def test_arguments_are_checked_before_the_domain():
    # an unknown side or word is an input error whatever the matrix holds
    for rows in ([[1, 2], [3, 1]], [[1, 0], [1, 1]], [[1, 0], [0, 1]], [[2, 0], [0, 1]]):
        m = Matrix(rows)
        with pytest.raises(InputError, match="side"):
            membership_uni(m, "middle")
        with pytest.raises(InputError, match="word kind"):
            membership_uni(m, "lower", word="foo")
    for rows in ([[1, 2], [3, 4]], [[0, 1], [1, 0]], [[1, 0], [1, 1]], [[2, 1], [1, 1]]):
        with pytest.raises(InputError, match="word kind"):
            factorize(Matrix(rows), word="foo")


def _typed(result):
    # values with their types: a Matrix repr prints 1 and Fraction(1) alike
    if isinstance(result, Matrix):
        return _typed(result.to_lists())
    if isinstance(result, (list, tuple)):
        return [_typed(x) for x in result]
    return type(result), result


def _heavy_fraction(rng):
    # above 1,000 bits, with a denominator of its own
    return F(rng.getrandbits(1010) - 2**1009, rng.getrandbits(1010) | 2**1009 | 1)


def _bits(m):
    return max(max(F(x).numerator.bit_length(), F(x).denominator.bit_length())
               for row in m.to_lists() for x in row)


def _oracle_ldu(m, positive=False):
    # oracle: the pivot-at-a-time elimination on Fractions
    n = m.rows
    a = _work_rows(m)
    lower = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    diag = []
    for k in range(n):
        pivot = a[k][k]
        diag.append(pivot)
        if pivot == 0 or (positive and pivot < 0):
            return diag, None, None
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            lower[i][k] = f
            if f != 0:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    upper = [
        [a[i][j] / diag[i] if j > i else (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return diag, Matrix(lower), Matrix(upper)


def _ldu_cases():
    rng = random.Random(1515)

    def small_fraction():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    palettes = {
        "int": lambda: rng.randint(-9, 9),
        "fraction": small_fraction,
        "float": lambda: rng.uniform(-3, 3),
        "int and fraction": lambda: rng.choice((rng.randint(-9, 9), small_fraction())),
        "mixed": lambda: rng.choice((rng.randint(-9, 9), small_fraction(), rng.uniform(-3, 3))),
        "heavy": lambda: _heavy_fraction(rng),
    }

    def with_stops(rows):
        # the matrix, then a zero and a negative pivot at each position k
        yield rows
        pivots = _oracle_ldu(Matrix(rows))[0]
        for k in range(len(rows)):
            zero = [list(row) for row in rows]
            if k == 0:
                zero[0][0] *= 0
            else:  # the leading block of order k+1 becomes singular
                zero[k][: k + 1] = zero[0][: k + 1]
            yield zero
            if k < len(pivots):  # pivots 0..k-1 are nonzero; pivot k moves to about -1
                negative = [list(row) for row in rows]
                negative[k][k] = negative[k][k] - pivots[k] - 1
                yield negative

    for n in range(1, 8):
        for name, draw in palettes.items():
            for _ in range(3 if name != "heavy" else 2 if n < 5 else 0):
                yield from with_stops([[draw() for _ in range(n)] for _ in range(n)])
        for _ in range(2):
            # every pivot positive; the diagonal scalings give each entry
            # a heavy denominator of its own
            tp = random_tp_matrix(n, rng).to_lists()
            left = [F(rng.getrandbits(510) + 1, rng.getrandbits(510) | 1) for _ in range(n)]
            right = [F(rng.getrandbits(510) + 1, rng.getrandbits(510) | 1) for _ in range(n)]
            yield from with_stops(tp)
            yield [
                [x * left[i] * right[j] for j, x in enumerate(row)] for i, row in enumerate(tp)
            ]


def test_ldu_matches_the_fraction_elimination():
    compared = heavy = 0
    stops = set()
    for rows in _ldu_cases():
        m = Matrix(rows)
        for positive in (False, True):
            want = _oracle_ldu(m, positive)
            assert _typed(_ldu(m, positive)) == _typed(want)
            if want[1] is None:
                stops.add((m.rows, len(want[0]) - 1, want[0][-1] == 0))
            compared += 1
        heavy += _bits(m) > 1000
    # zero and negative stops at every position of every size
    every = {(n, k, zero) for n in range(1, 8) for k in range(n) for zero in (True, False)}
    assert every <= stops
    assert compared > 2000 and heavy > 50


def test_one_peel_matches_both_oracle_peels_on_heavy_factors():
    # factors with entries above 1,000 bits, each over a denominator of its own
    rng = random.Random(707)
    compared = heavy = 0
    for n in range(2, 6):
        for word in ("standard", "reversed"):
            for _ in range(2):
                params = [abs(_heavy_fraction(rng)) for _ in word_for(n, word)]
                factor = synthesize_uni(UniParams(n, word_for(n, word), "lower", params, True))
                # the lower factor of diag(s) M diag(t) is diag(s) L diag(s)^-1
                lower = gauss_ldu(random_tp_matrix(n, rng))[0].to_lists()
                s = [abs(_heavy_fraction(rng)) for _ in range(n)]
                scaled = Matrix(
                    [[x * s[i] / s[j] for j, x in enumerate(row)] for i, row in enumerate(lower)]
                )
                lowers = [factor, inverse(factor), scaled, inverse(scaled)]
                for low in lowers:
                    cells = [(i, j) for i in range(n) for j in range(i)]
                    i, j = rng.choice(cells)
                    bent = low.to_lists()
                    bent[i][j] += rng.choice((F(1, 7), -bent[i][j]))
                    for x in (low, Matrix(bent)):
                        for side, y in (("lower", x), ("upper", x.transpose())):
                            assert _outcome(membership_uni, y, side, word) == _outcome(
                                _oracle_membership, y, side, word
                            )
                        for kind in ("standard", "reversed"):
                            want = _outcome(_oracle_cone_peel, kind, x)
                            assert _outcome(_peel, x, kind) == want
                        compared += 1
                        heavy += _bits(x) > 1000
    assert compared > 100 and heavy > 100
