"""The float contract for elimination: a float matrix is eliminated as the
exact dyadic rationals its entries are.

Every elimination routine answers on a float matrix exactly as it does on
that matrix's exact copy, near-singular and zero-band-edge inputs included.
The float partial-pivot sweep and Gauss-Jordan loops that once ran on float
input are kept here as oracles: on well-conditioned input the exact answers
agree with them to float accuracy.
"""

import random
from fractions import Fraction as F

from totpos.errors import SingularityError
from totpos.flags import flag_from_matrix, in_B_pos, in_B_pos_prime
from totpos.linalg import Matrix, det, inverse, nullspace, rank, solve, transpose_inverse
from totpos.sampling import random_tp_matrix, random_uni_params
from totpos.scalars import zero_threshold
from totpos.whitney import factorize, gauss_ldu, membership_uni, synthesize_uni

_REL_TOL = 1e-9


def _float_sweep(m):
    """Partial-pivot forward sweep: (pivot columns, signed pivot product).

    A column whose largest candidate lies in the zero band has no pivot.
    """
    scale = max(m.entry_scale(), 1.0)
    a = [list(map(float, m.row_tuple(i))) for i in range(m.rows)]
    pivots = []
    product = 1.0
    for c in range(m.cols):
        r = len(pivots)
        if r == m.rows:
            break
        p = max(range(r, m.rows), key=lambda i: abs(a[i][c]))
        if abs(a[p][c]) <= zero_threshold(scale):
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            product = -product
        product *= a[r][c]
        inv = 1.0 / a[r][c]
        for i in range(r + 1, m.rows):
            f = a[i][c] * inv
            if f == 0.0:
                continue
            for j in range(c + 1, m.cols):
                a[i][j] -= f * a[r][j]
        pivots.append(c)
    return pivots, product


def _gauss_jordan_inverse(m):
    """Float Gauss-Jordan inverse with partial pivoting, or None when a
    pivot falls inside the zero band."""
    n = m.rows
    scale = max(m.entry_scale(), 1.0)
    a = [
        list(map(float, m.row_tuple(i))) + [1.0 if j == i else 0.0 for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        piv = max(range(c, n), key=lambda i: abs(a[i][c]))
        if abs(a[piv][c]) <= zero_threshold(scale):
            return None
        a[c], a[piv] = a[piv], a[c]
        inv_p = 1.0 / a[c][c]
        a[c] = [x * inv_p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0.0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def _outcome(fn, *args):
    # (repr of the result, None) or (None, (exception type, message))
    try:
        return repr(fn(*args)), None
    except Exception as exc:  # the float and exact calls must raise alike
        return None, (type(exc), str(exc))


def _band_edge(rng, n):
    """A float matrix with a pivot, an entry or a determinant near the band."""
    eps = rng.choice((1e-15, 1e-12, 1e-10, 1e-9, 2e-9, 1e-8, 1e-6))
    choice = rng.randrange(4)
    if choice == 0:  # two rows a hair apart
        rows = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1:
            rows[1] = [x + eps * rng.uniform(-1, 1) for x in rows[0]]
        return Matrix(rows)
    if choice == 1:  # one small diagonal entry
        values = [rng.uniform(0.5, 3) for _ in range(n)]
        values[rng.randrange(n)] = eps
        return Matrix.diagonal(values)
    if choice == 2:  # a leading pivot near zero
        rows = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        rows[0][0] = eps
        return Matrix(rows)
    # a singular integer matrix, moved off singularity by eps in one entry
    base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(max(n - 1, 1))]
    rows = [list(map(float, row)) for row in base]
    while len(rows) < n:
        rows.append([float(sum(row[j] for row in base)) for j in range(n)])
    rows[-1][-1] += eps
    return Matrix(rows)


def _square_inputs():
    rng = random.Random(1407)
    for n in range(1, 6):
        for _ in range(12):
            yield Matrix([[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)])
            yield random_tp_matrix(n, rng).to_float()
            yield _band_edge(rng, n)
            # singular integer matrices, exactly singular as floats too
            yield Matrix([[float(rng.randint(0, 2)) for _ in range(n)] for _ in range(n)])
    yield Matrix([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    yield Matrix([[1, 1, 1, 1], [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 1e100]])
    yield Matrix([[1e-300, 1.0], [1.0, 1e-300]])
    yield Matrix([[1e200, 1e200], [1e200, 1e200]])
    yield Matrix([[-0.2, -0.48, -0.12, 1], [0, -1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]])


def test_float_elimination_is_elimination_of_the_exact_copy():
    compared = 0
    for m in _square_inputs():
        assert not m.is_exact
        x = m.to_exact()
        rhs = [float(i + 1) for i in range(m.rows)]
        for fn, args in (
            (det, ()),
            (rank, ()),
            (inverse, ()),
            (transpose_inverse, ()),
            (nullspace, ()),
            (gauss_ldu, ()),
            (factorize, ()),
            (factorize, ("reversed",)),
            (flag_from_matrix, ()),
        ):
            assert _outcome(fn, m, *args) == _outcome(fn, x, *args), (fn.__name__, m)
            compared += 1
        assert _outcome(solve, m, rhs) == _outcome(solve, x, rhs)
        if _outcome(flag_from_matrix, m)[1] is None:
            # both cell tests on the flag of the float matrix and of its copy
            f, g = flag_from_matrix(m), flag_from_matrix(x)
            for cell in (in_B_pos, in_B_pos_prime):
                assert repr(cell(f)) == repr(cell(g))
        assert isinstance(det(m), F)
    assert compared > 2000


def test_float_peel_is_the_peel_of_the_exact_copy():
    rng = random.Random(1408)
    compared = 0
    for n in range(1, 7):
        for side in ("lower", "upper"):
            for word in ("standard", "reversed"):
                for trial in range(6):
                    p = random_uni_params(n, rng, side=side, strict=trial % 2 == 0, word=word)
                    m = synthesize_uni(p).to_float()
                    rows = m.to_lists()
                    if n > 1:
                        # nudge one entry of the factor's triangle
                        cells = [
                            (i, j) for i in range(n) for j in range(n)
                            if (i > j if side == "lower" else i < j)
                        ]
                        i, j = rng.choice(cells)
                        rows[i][j] += rng.choice((1e-15, -1e-12, 1e-9, -rows[i][j]))
                    for y in (m, Matrix(rows)):
                        for kind in ("standard", "reversed"):
                            assert _outcome(membership_uni, y, side, kind) == _outcome(
                                membership_uni, y.to_exact(), side, kind
                            )
                            compared += 1
    assert compared > 500


def _clear_of_the_band(m):
    """An invertible m with entry scale s >= 1 and cond_inf(m) < 1e5.

    A float elimination then loses at most about 11 of its 16 digits, and
    each partial pivot u_kk of PA = LU is at least 1/||U^-1|| >=
    1/(n ||A^-1||) >= s/(n cond) > 2e-6 s, far outside the band 1e-9 (1 + s).
    """
    if m.entry_scale() < 1:
        return False
    try:
        inv = inverse(m)
    except SingularityError:
        return False
    norm = max(sum(abs(x) for x in m.row_tuple(i)) for i in range(m.rows))
    inv_norm = max(sum(abs(x) for x in inv.row_tuple(i)) for i in range(inv.rows))
    return norm * inv_norm < 1e5


def test_exact_answers_agree_with_the_float_oracles_clear_of_the_band():
    checked = 0
    for m in _square_inputs():
        if not _clear_of_the_band(m):
            continue
        pivots, product = _float_sweep(m)
        assert len(pivots) == m.rows == rank(m)
        exact_det = det(m)
        assert abs(product - exact_det) <= _REL_TOL * abs(exact_det)
        old = _gauss_jordan_inverse(m)
        new = inverse(m)
        top = max(abs(x) for row in new.to_lists() for x in row)
        assert old is not None
        assert all(
            abs(a - b) <= _REL_TOL * top for r1, r2 in zip(old, new.to_lists()) for a, b in zip(r1, r2)
        )
        checked += 1
    assert checked > 100


def test_exact_rank_agrees_with_the_float_sweep_on_integer_matrices():
    # products of small integer factors: the rank is exact, and the float
    # sweep's residues stay far inside the band
    rng = random.Random(1409)
    for _ in range(200):
        rows, inner, cols = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 5)
        a = Matrix([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)])
        b = Matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)])
        m = (a @ b).to_float()
        assert rank(m) == rank(m.to_exact()) == len(_float_sweep(m)[0])
