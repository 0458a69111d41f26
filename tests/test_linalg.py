"""Exact and floating-point linear algebra primitives."""

import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from totpos.classify import _Least, _minor_kinds, _scan_minors, is_variation_diminishing
from totpos.errors import DomainError, InputError, SingularityError
from totpos.linalg import (
    Matrix,
    compound,
    det,
    index_set,
    inverse,
    ksubsets,
    minor,
    minor_levels,
    nullspace,
    rank,
    reversal_permutation,
    solve,
    submatrix,
    transpose_inverse,
)
from totpos.sampling import random_tp_matrix
from totpos.scalars import minor_scale, zero_threshold
from totpos.spectra import _compound_arrays


def _random_fraction_matrix(n, rng, bound=6):
    return Matrix(
        [
            [F(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def _sympy_det(m):
    sm = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j]))
    r = sympy.Rational(sm.det())
    return F(int(r.p), int(r.q))


def test_matrix_shape_and_access():
    m = Matrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[0, 1] == 2
    assert m.row_tuple(1) == (3, 4)
    assert m.col_tuple(0) == (1, 3)
    assert m.to_lists() == [[1, 2], [3, 4]]


def test_matrix_exactness_and_coercion():
    assert Matrix([[1, F(1, 2)]]).is_exact
    mixed = Matrix([[1, 0.5]])
    assert not mixed.is_exact
    assert isinstance(mixed[0, 0], float)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="finite"):
            Matrix([[1.0, bad]])
    with pytest.raises(InputError, match="outside the float range"):
        Matrix([[10**400, 0.5]])
    # an exact entry past the float range saturates the tolerance scale
    assert Matrix([[10**400, 1]]).entry_scale() == math.inf


def test_matrix_equality_and_hash():
    a = Matrix([[F(1), F(2)], [F(3), F(4)]])
    b = Matrix([[1, 2], [3, 4]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Matrix([[1, 2], [3, 5]])


def test_matrix_is_immutable():
    m = Matrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 2


def test_matrix_constructors():
    assert Matrix.identity(2) == Matrix([[1, 0], [0, 1]])
    assert Matrix.diagonal([2, 3]) == Matrix([[2, 0], [0, 3]])
    assert Matrix.from_columns([[1, 2], [3, 4]]) == Matrix([[1, 3], [2, 4]])


def test_matrix_ragged_rows_rejected():
    with pytest.raises(InputError):
        Matrix([[1, 2], [3]])
    with pytest.raises(InputError):
        Matrix([])


def test_matmul_frozen():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5, 6], [7, 8]])
    assert a @ b == Matrix([[19, 22], [43, 50]])


def _product_by_sums(a, b):
    """The product as one sum of products per entry, the loop before the
    integer kernel: the oracle for values and entry types alike."""
    cols = list(zip(*b.to_lists()))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.to_lists()]


# entry palettes: F(k, 1) makes a Fraction row or column whose lcm is 1
_PALETTES = {
    "int": lambda rng: rng.randint(-4, 4),
    "fraction": lambda rng: F(rng.randint(-9, 9), rng.randint(1, 5)),
    "unit fraction": lambda rng: F(rng.randint(-4, 4)),
    "float": lambda rng: rng.choice([0.0, -0.0, 0.5, -2.75, rng.uniform(-3, 3)]),
}


def _palette_matrix(rng, rows, cols, kinds):
    a = [[_PALETTES[rng.choice(kinds)](rng) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:  # a zero row
        a[rng.randrange(rows)] = [rng.choice([0, F(0), 0.0])] * cols
    if rng.random() < 0.3:  # a zero column
        j, zero = rng.randrange(cols), rng.choice([0, F(0), 0.0])
        for row in a:
            row[j] = zero
    return Matrix(a)


@pytest.mark.parametrize(
    "kinds",
    [("int",), ("fraction",), ("int", "unit fraction"), ("int", "fraction"),
     ("float",), ("int", "fraction", "float")],
)
def test_products_match_the_sum_of_products_loop(kinds):
    # repr, not ==: Fraction(3, 1) == 3, so only repr sees an entry's type
    rng = random.Random(repr(kinds))
    for _ in range(300):
        r, c, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = _palette_matrix(rng, r, c, kinds)
        b = _palette_matrix(rng, c, k, rng.choice([kinds, ("int",), ("unit fraction",)]))
        assert repr((a @ b).to_lists()) == repr(_product_by_sums(a, b)), (a, b)
        v = [_PALETTES[rng.choice(kinds)](rng) for _ in range(c)]
        expect = tuple(sum(x * y for x, y in zip(row, v)) for row in a.to_lists())
        assert repr(a.apply(v)) == repr(expect), (a, v)
    one = Matrix([[F(6, 2)]])
    assert repr((one @ Matrix([[2]]))[0, 0]) == "Fraction(6, 1)"
    assert repr(Matrix([[2]]).apply([3])) == "(6,)"


def test_arithmetic_operators():
    a = Matrix([[1, 2], [3, 4]])
    assert a + a == a.scale(2)
    assert a - a == Matrix([[0, 0], [0, 0]])
    assert (-a)[1, 0] == -3
    assert a.transpose() == Matrix([[1, 3], [2, 4]])


def test_det_frozen_small():
    assert det(Matrix([[3]])) == 3
    assert det(Matrix([[1, 2], [3, 4]])) == -2
    assert det(Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])) == 4


def test_det_hilbert_4():
    # classical exact value of the 4x4 Hilbert determinant
    h = Matrix([[F(1, i + j + 1) for j in range(4)] for i in range(4)])
    assert det(h) == F(1, 6048000)


def test_det_singular_exact():
    assert det(Matrix([[1, 2], [2, 4]])) == 0


def test_det_matches_sympy():
    rng = random.Random(20260816)
    for n in range(1, 6):
        for _ in range(8):
            m = _random_fraction_matrix(n, rng)
            assert det(m) == _sympy_det(m)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_det_multiplicative(pair):
    a, b = Matrix(pair[0]), Matrix(pair[1])
    assert det(a @ b) == det(a) * det(b)


def test_det_float_matches_numpy():
    import numpy as np

    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
        ours = det(Matrix(rows))
        ref = float(np.linalg.det(np.array(rows)))
        assert math.isclose(ours, ref, rel_tol=1e-9, abs_tol=1e-12)


def test_index_set_validation():
    assert index_set((1, 3), 4) == (1, 3)
    with pytest.raises(InputError):
        index_set((3, 1), 4)  # not increasing
    with pytest.raises(InputError):
        index_set((0, 1), 4)  # 1-based
    with pytest.raises(InputError):
        index_set((1, 5), 4)  # out of range


def test_ksubsets_lex_order_and_count():
    subs = list(ksubsets(4, 2))
    assert subs == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert len(list(ksubsets(6, 3))) == math.comb(6, 3)


def test_minor_is_submatrix_det():
    rng = random.Random(77)
    m = _random_fraction_matrix(4, rng)
    for rs in ksubsets(4, 2):
        for cs in ksubsets(4, 2):
            assert minor(m, rs, cs) == det(submatrix(m, rs, cs))


def test_minor_levels_complete_and_consistent():
    rng = random.Random(13)
    m = _random_fraction_matrix(4, rng)
    seen_orders = []
    for k, table in minor_levels(m, 4):
        seen_orders.append(k)
        assert set(table) == {(r, c) for r in ksubsets(4, k) for c in ksubsets(4, k)}
        for (r, c), value in table.items():
            assert value == det(submatrix(m, r, c))
    assert seen_orders == [1, 2, 3, 4]


def test_compound_entries_and_cauchy_binet():
    rng = random.Random(3)
    a = _random_fraction_matrix(4, rng)
    b = _random_fraction_matrix(4, rng)
    for k in (1, 2, 3):
        ca, cb, cab = compound(a, k), compound(b, k), compound(a @ b, k)
        assert ca.rows == math.comb(4, k)
        assert cab == ca @ cb
    assert compound(a, 4) == Matrix([[det(a)]])
    # entry check against the lex subset order
    c2 = compound(a, 2)
    subs = list(ksubsets(4, 2))
    for i, rs in enumerate(subs):
        for j, cs in enumerate(subs):
            assert c2[i, j] == minor(a, rs, cs)


def _laplace_levels(m, max_order=None):
    """Oracle: the last-row Laplace recursion run directly on the entries,
    over Fraction for exact input and in floats for float input."""
    n = m.rows
    top = n if max_order is None else min(max_order, n)
    level = {
        ((i,), (j,)): m[i - 1, j - 1] for i in range(1, n + 1) for j in range(1, n + 1)
    }
    if top >= 1:
        yield 1, level
    for k in range(2, top + 1):
        nxt = {}
        for rset in ksubsets(n, k):
            row = m.row_tuple(rset[-1] - 1)
            for cset in ksubsets(n, k):
                acc = m.zero
                for pos, c in enumerate(cset):
                    entry = row[c - 1]
                    if entry == 0:
                        continue
                    term = entry * level[(rset[:-1], cset[:pos] + cset[pos + 1 :])]
                    if (k + pos + 1) % 2 == 0:
                        acc += term
                    else:
                        acc -= term
                nxt[(rset, cset)] = acc
        level = nxt
        yield k, level


def _minor_table_cases():
    """Exact inputs: distinct large denominators, negatives, zeros, integer
    entries, integral Fractions, 1x1."""
    rng = random.Random(808)
    yield Matrix([[F(-7, 3)]])
    yield Matrix([[5]])
    entries = (
        lambda: F(rng.randint(-(10**15), 10**15), rng.randint(1, 10**12)),
        lambda: rng.choice([0, 0, rng.randint(-9, 9)]),
        lambda: F(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 10**20 + 39])),
        lambda: F(rng.randint(-9, 9)),
    )
    for n in (2, 4, 6):
        for entry in entries:
            yield Matrix([[entry() for _ in range(n)] for _ in range(n)])


def test_exact_minor_levels_are_the_exact_minors():
    for m in _minor_table_cases():
        n = m.rows
        fractional = any(isinstance(x, F) for row in m.to_lists() for x in row)
        for top in {None, 1, max(n - 1, 1)}:
            levels = list(minor_levels(m, top))
            assert [k for k, _ in levels] == list(range(1, (top or n) + 1))
            assert levels == list(_laplace_levels(m, top))
            for k, table in levels:
                for (r, c), value in table.items():
                    assert value == det(submatrix(m, r, c))
                    if k > 1:
                        assert type(value) is (F if fractional else int)


def test_compound_floats_are_correctly_rounded_minors():
    for m in _minor_table_cases():
        for k in range(1, m.rows + 1):
            subsets = ksubsets(m.rows, k)
            c = compound(m, k)
            for i, r in enumerate(subsets):
                for j, s in enumerate(subsets):
                    assert float(c[i, j]).hex() == float(det(submatrix(m, r, s))).hex()


def test_float_minor_levels_match_the_float_recursion_bit_for_bit():
    rng = random.Random(909)
    cases = [m.to_float() for m in _minor_table_cases()]
    wide = [[rng.uniform(-3, 3) * 10.0 ** rng.randint(-40, 40) for _ in range(6)] for _ in range(6)]
    # minors overflow to inf, and inf - inf gives nan
    huge = [[1e300 * rng.choice([-1, 0, 1, 2]) for _ in range(4)] for _ in range(4)]
    cases += [Matrix(wide), Matrix(huge)]
    for m in cases:
        for top in (None, 2):
            pairs = zip(minor_levels(m, top), _laplace_levels(m, top), strict=True)
            for (k, got), (k2, want) in pairs:
                assert k == k2 and got.keys() == want.keys()
                assert [v.hex() for v in got.values()] == [want[key].hex() for key in got]


def test_minor_table_size_cap():
    from totpos.linalg import _MINOR_TABLE_CAP

    assert _MINOR_TABLE_CAP == math.comb(24, 12) - 1
    assert next(minor_levels(Matrix.identity(12)))[0] == 1
    big = Matrix.identity(13).to_float()
    assert next(minor_levels(big, 5))[0] == 1  # 2,255,643 minors
    for top in (6, None):
        with pytest.raises(InputError, match="past the cap of 2,704,155"):
            next(minor_levels(big, top))


def test_minor_orders_must_be_positive_ints():
    m = Matrix([[2, 1], [1, 3]])
    assert [k for k, _ in minor_levels(m, 5)] == [1, 2]
    for order in (0, -2, 1.5, True, "2"):
        with pytest.raises(InputError, match="must be an int >= 1"):
            next(minor_levels(m, order))
        with pytest.raises(InputError, match="must be an int >= 1"):
            compound(m, order)
    with pytest.raises(InputError, match=r"must lie in \[1, 2\], got 3"):
        compound(m, 3)


def _old_minor_kinds(m):
    # oracle: the sign rule read from the exact minors of a Fraction dict
    scale = m.entry_scale()
    neg, zero, indet, pos = _Least
    for k, level in minor_levels(m):
        table = dict(level)
        t = 0 if m.is_exact else zero_threshold(minor_scale(scale, k))
        yield k, table, {
            pos if v > t else neg if not v >= -t else zero if v == 0 else indet
            for v in table.values()
        }


def _old_scan(m, strict):
    least = _Least.POSITIVE
    for _, _, kinds in _old_minor_kinds(m):
        least = min(least, *kinds)
        if least is _Least.NEGATIVE or (strict and least is _Least.ZERO):
            break
    return least


def _old_compound_arrays(m):
    # oracle: float() of each exact minor, keyed by subsets, orders 1..n
    n = m.rows
    out = []
    for k, table, kinds in _old_minor_kinds(m):
        if min(kinds) is not _Least.POSITIVE:
            raise DomainError("matrix is not totally positive")
        subsets = ksubsets(n, k)
        out.append([[float(table[(r, c)]) for c in subsets] for r in subsets])
    return out


def _hexes(rows):
    return [[x.hex() for x in row] for row in rows]


def _table_read_cases():
    rng = random.Random(909)
    exact = list(_minor_table_cases())
    # the float cases of the bit-for-bit recursion test, built the same way
    wide = [[rng.uniform(-3, 3) * 10.0 ** rng.randint(-40, 40) for _ in range(6)] for _ in range(6)]
    huge = [[1e300 * rng.choice([-1, 0, 1, 2]) for _ in range(4)] for _ in range(4)]
    floats = [m.to_float() for m in exact] + [Matrix(wide), Matrix(huge)]
    tp = [random_tp_matrix(n, random.Random(n)) for n in (1, 3, 5)]
    # totally positive with huge denominators, so the integer minors of dM
    # pass 2**53 and each float is one rounding of a long quotient
    tp += [m.scale(F(10**20 + 39, 3**41)) for m in tp]
    return exact + tp + floats + [m.to_float() for m in tp]


@pytest.mark.filterwarnings("ignore::totpos.errors.StrictnessWarning")
def test_minor_table_reads_match_the_exact_minors():
    seen = set()
    for m in _table_read_cases():
        pairs = zip(_minor_kinds(m), _old_minor_kinds(m), strict=True)
        for (k, level, kinds), (k2, table, want) in pairs:
            assert k == k2 and kinds == want, (m.to_lists(), k)
            assert repr(level) == repr(table)
            assert _hexes(level.floats()) == _hexes(
                [[float(table[(r, c)]) for c in level.subsets] for r in level.subsets]
            )
            seen |= {(m.is_exact, kind) for kind in kinds}
        for strict in (False, True):
            assert _scan_minors(m, strict) is _old_scan(m, strict)
        try:
            want = _old_compound_arrays(m)
        except DomainError:
            with pytest.raises(DomainError):
                _compound_arrays(m)
        else:
            got = _compound_arrays(m)
            assert [_hexes(a.tolist()) for a in got] == [_hexes(a) for a in want]
            seen.add(("compounds", m.is_exact))
        try:
            got = is_variation_diminishing(m)
        except SingularityError:  # the test asks for invertible input
            continue
        want = not any(
            _Least.NEGATIVE in kinds and _Least.POSITIVE in kinds
            for _, _, kinds in _old_minor_kinds(m)
        )
        assert got == want, m.to_lists()
        seen.add(("diminishing", want))
    assert seen >= {(True, kind) for kind in _Least if kind is not _Least.INDETERMINATE}
    assert seen >= {(False, kind) for kind in _Least}
    assert seen >= {("compounds", True), ("compounds", False)}
    assert seen >= {("diminishing", True), ("diminishing", False)}


def test_rank_and_nullspace():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert rank(m) == 2
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert all(
        sum(m[i, j] * v[j] for j in range(3)) == 0 for i in range(3)
    )
    assert rank(Matrix.identity(5)) == 5
    assert nullspace(Matrix.identity(3)) == []


def test_inverse_exact_and_errors():
    rng = random.Random(42)
    for _ in range(10):
        m = _random_fraction_matrix(3, rng)
        if det(m) == 0:
            continue
        assert m @ inverse(m) == Matrix.identity(3)
    with pytest.raises(SingularityError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_inverse_float():
    m = Matrix([[2.0, 1.0], [1.0, 1.0]])
    prod = m @ inverse(m)
    assert prod.approx_equal(Matrix.identity(2).to_float())
    # a band 1000 times tighter than the library's zero band
    scale = max(prod.entry_scale(), 1.0)
    assert all(
        abs(prod[i, j] - (i == j)) <= 1e-12 + 1e-12 * scale
        for i in range(2)
        for j in range(2)
    )


def test_transpose_inverse():
    m = Matrix([[1, 2], [0, 1]])
    assert transpose_inverse(m) == inverse(m.transpose())


def test_solve_exact():
    m = Matrix([[2, 1], [1, 3]])
    x = solve(m, [F(5), F(10)])
    assert [2 * x[0] + x[1], x[0] + 3 * x[1]] == [5, 10]
    with pytest.raises(SingularityError):
        solve(Matrix([[1, 1], [1, 1]]), [1, 2])


def test_reversal_permutation():
    rho = reversal_permutation(3)
    assert rho == Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert rho @ rho == Matrix.identity(3)


def _sympy_matrix(m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j]))


def _from_sympy(values):
    return tuple(F(int(x.p), int(x.q)) for x in values)


def _differential_cases():
    """Seeded exact inputs: n = 1..7, square and n x (n+1), a third of them
    rank-deficient, with denominators small, large per entry, or large and
    shared down each column or along each row."""
    rng = random.Random(20261018)
    for n in range(1, 8):
        for trial in range(12):
            cols = n + trial % 2
            style = trial // 3
            col_dens = [rng.randint(1, 10**20) for _ in range(cols)]
            row_dens = [rng.randint(1, 10**20) for _ in range(n)]

            def entry(i, j):
                num = rng.randint(-(10**12), 10**12)
                if style == 0:
                    return F(rng.randint(-9, 9), rng.randint(1, 4))
                if style == 1:
                    return F(num, rng.randint(1, 10 ** rng.randint(1, 24)))
                if style == 2:
                    return F(num, col_dens[j])
                return F(num, row_dens[i])

            rows = [[entry(i, j) for j in range(cols)] for i in range(n)]
            if trial % 3 == 2:
                # rank-deficient: a row replaced by a combination of the others
                i = rng.randrange(n)
                others = [r for k, r in enumerate(rows) if k != i]
                coeffs = [F(rng.randint(-3, 3), rng.randint(1, 7)) for _ in others]
                rows[i] = [sum((c * r[j] for c, r in zip(coeffs, others)), F(0)) for j in range(cols)]
            rhs = [F(rng.randint(-99, 99), rng.randint(1, 10**9)) for _ in range(n)]
            yield Matrix(rows), rhs


def test_exact_kernel_matches_sympy():
    from totpos.linalg import _bareiss

    deficient = 0
    column_cleared = 0
    for m, rhs in _differential_cases():
        sm = _sympy_matrix(m)
        r = rank(m)
        assert r == sm.rank()
        deficient += r < m.rows
        column_cleared += any(c != 1 for c in _bareiss(m.to_lists())[4])
        assert nullspace(m) == [_from_sympy(v) for v in sm.nullspace()]
        if not m.is_square:
            continue
        (d,) = _from_sympy([sm.det()])
        assert det(m) == d
        if d == 0:
            with pytest.raises(SingularityError):
                inverse(m)
            with pytest.raises(SingularityError):
                solve(m, rhs)
            continue
        inv = sm.inv()
        assert inverse(m) == Matrix([list(_from_sympy(inv.row(i))) for i in range(m.rows)])
        assert solve(m, rhs) == _from_sympy(sm.LUsolve(sympy.Matrix(rhs)))
    assert deficient >= 25 and column_cleared >= 10
