"""Circle points, flag quadruples, positive curves, and convexity."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
import sympy

from totpos import curves
from totpos.curves import (
    CirclePoint,
    CurveReport,
    MomentCurve,
    TableFlagCurve,
    convex_curve_check,
    dihedral_partition,
    hyperplane_intersection_count,
    is_positive_curve_sampled,
    is_positive_quadruple,
    osculating_flag,
    sturm_distinct_real_roots,
)
from totpos.errors import ConsistencyError, DomainError, InputError
from totpos.flags import (
    adapted_basis,
    flag_from_matrix,
    in_B_pos,
    in_B_pos_prime,
    opposed,
    reversed_flag,
    standard_flag,
)
from totpos.linalg import Matrix, inverse, nullspace, reversal_permutation
from totpos.sampling import (
    random_flag,
    random_invertible,
    random_positive_cell_flag,
    random_tp_matrix,
    random_uni_params,
)
from totpos.whitney import TPParameters, UniParams, gauss_ldu, membership_uni, synthesize_uni


def test_circle_point_basics():
    p = CirclePoint.at(F(1, 2))
    assert not p.is_infinity
    assert str(p) == "1/2"
    assert str(CirclePoint.at(3)) == "3"
    assert str(CirclePoint.infinity()) == "inf"
    assert CirclePoint.infinity().is_infinity


def test_circle_point_cyclic_order():
    pts = [
        CirclePoint.infinity(),
        CirclePoint.at(F(-2)),
        CirclePoint.at(F(0)),
        CirclePoint.at(F(5)),
    ]
    ordered = sorted(pts, key=CirclePoint.sort_key)
    assert [str(p) for p in ordered] == ["-2", "0", "5", "inf"]


def test_from_angle():
    assert CirclePoint.from_angle(0) == CirclePoint.at(0)
    assert CirclePoint.from_angle(90) == CirclePoint.at(1)
    assert CirclePoint.from_angle(180).is_infinity
    assert CirclePoint.from_angle(270) == CirclePoint.at(-1)
    assert CirclePoint.from_angle(360) == CirclePoint.at(0)
    # generic angles give tan(angle/2)
    p = CirclePoint.from_angle(60)
    assert math.isclose(float(p.param), math.tan(math.radians(30)))


def test_dihedral_partition_crossing_pairs():
    a, b, c, d = (CirclePoint.at(F(v)) for v in (0, 1, 2, 3))
    q = dihedral_partition(a, b, c, d)
    assert q.pairs == (frozenset((a, c)), frozenset((b, d)))
    assert q.numbering_is_compatible()
    # a rotated numbering keeps the same partition but marks positions
    q2 = dihedral_partition(b, c, d, a)
    assert set(q2.pairs) == set(q.pairs)
    assert q2.numbering_is_compatible()
    # an adjacent numbering is recorded as incompatible
    q3 = dihedral_partition(a, c, b, d)
    assert not q3.numbering_is_compatible()


def test_dihedral_partition_with_infinity():
    a, b, c = (CirclePoint.at(F(v)) for v in (-1, 0, 1))
    inf = CirclePoint.infinity()
    q = dihedral_partition(a, b, c, inf)
    assert q.pairs == (frozenset((a, c)), frozenset((b, inf)))


def test_dihedral_partition_rejects_duplicates():
    a = CirclePoint.at(F(1))
    with pytest.raises(InputError):
        dihedral_partition(a, a, CirclePoint.at(F(2)), CirclePoint.at(F(3)))


def test_moment_curve_validation():
    assert MomentCurve(3).n == 4
    with pytest.raises(InputError):
        MomentCurve(0)


def test_osculating_flag_frozen():
    f = osculating_flag(MomentCurve(2), CirclePoint.at(F(0)))
    assert f == standard_flag(3)
    f_inf = osculating_flag(MomentCurve(2), CirclePoint.infinity())
    assert f_inf.rep == reversal_permutation(3)
    # at t = 1 the scaled-derivative columns are binomial coefficients
    f1 = osculating_flag(MomentCurve(2), CirclePoint.at(F(1)))
    raw = Matrix([[1, 0, 0], [1, 1, 0], [1, 2, 1]])
    assert f1 == flag_from_matrix(raw)


def test_osculating_flags_of_distinct_points_are_opposed():
    from totpos.flags import opposed

    curve = MomentCurve(3)
    pts = [CirclePoint.at(F(v, 2)) for v in (-3, 0, 1, 5)] + [
        CirclePoint.infinity()
    ]
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            assert opposed(
                osculating_flag(curve, p), osculating_flag(curve, q)
            )


def test_quadruple_positive_on_moment_curve():
    c = MomentCurve(3)
    pts = [CirclePoint.at(F(v, 2)) for v in (-3, -1, 1, 3)]
    q = dihedral_partition(*pts)
    flags = [c.flag_at(p) for p in pts]
    assert is_positive_quadruple(flags, q)


def test_quadruple_rejects_wrong_pairing():
    c = MomentCurve(2)
    pts = [CirclePoint.at(F(v)) for v in (0, 1, 2, 3)]
    q = dihedral_partition(*pts)
    flags = [c.flag_at(p) for p in pts]
    # reference pair adjacent on the circle: not a crossing pair
    assert not is_positive_quadruple(
        [flags[0], flags[2], flags[1], flags[3]], q
    )


def test_quadruple_rejects_sign_flip():
    c = MomentCurve(3)
    pts = [CirclePoint.at(F(v, 2)) for v in (-3, -1, 1, 3)]
    q = dihedral_partition(*pts)
    flags = [c.flag_at(p) for p in pts]
    d = Matrix.diagonal([F(1), F(-1), F(1), F(1)])
    corrupted = flag_from_matrix(d @ flags[1].rep)
    assert not is_positive_quadruple(
        [flags[0], corrupted, flags[2], flags[3]], q
    )


def test_quadruple_input_validation():
    c = MomentCurve(2)
    pts = [CirclePoint.at(F(v)) for v in (0, 1, 2, 3)]
    q = dihedral_partition(*pts)
    flags = [c.flag_at(p) for p in pts]
    with pytest.raises(InputError):
        is_positive_quadruple(flags[:3], q)
    with pytest.raises(DomainError):
        # same flag at positions 1 and 3 can never be opposed
        is_positive_quadruple([flags[0], flags[1], flags[0], flags[3]], q)


def test_positive_curve_exhaustive():
    for degree in (2, 3):
        report = is_positive_curve_sampled(
            MomentCurve(degree), samples=6
        )
        assert report.total == math.comb(6, 4)
        assert report.ok
        assert report.failed == 0
        assert report.first_failure is None


def test_positive_curve_includes_infinity():
    pts = [CirclePoint.at(F(v)) for v in (-2, 0, 1, 3)] + [
        CirclePoint.infinity()
    ]
    report = is_positive_curve_sampled(
        MomentCurve(2), points=pts
    )
    assert report.total == 5 and report.ok


def test_positive_curve_random_mode_is_seeded():
    curve = MomentCurve(2)
    r1 = is_positive_curve_sampled(curve, samples=7, mode="random", seed=3, trials=12)
    r2 = is_positive_curve_sampled(curve, samples=7, mode="random", seed=3, trials=12)
    assert r1 == r2
    assert r1.total == 12 and r1.ok


def test_table_flag_curve():
    base = MomentCurve(2)
    pts = [CirclePoint.at(F(v)) for v in (0, 1, 2, 3)]
    table = TableFlagCurve([(p, base.flag_at(p)) for p in pts])
    assert table.n == 3 and table.degree == 2
    assert table.flag_at(pts[0]) == base.flag_at(pts[0])
    report = is_positive_curve_sampled(table)
    assert report.total == 1 and report.ok
    with pytest.raises(InputError):
        table.flag_at(CirclePoint.at(F(9)))
    with pytest.raises(InputError):
        TableFlagCurve([(pts[0], base.flag_at(pts[0]))])


def test_corrupted_table_curve_fails():
    base = MomentCurve(2)
    pts = [CirclePoint.at(F(v)) for v in (0, 1, 2, 3)]
    d = Matrix.diagonal([F(-1), F(1), F(1)])
    entries = []
    for i, p in enumerate(pts):
        flag = base.flag_at(p)
        if i == 1:
            flag = flag_from_matrix(d @ flag.rep)
        entries.append((p, flag))
    report = is_positive_curve_sampled(TableFlagCurve(entries))
    assert report.failed == report.total == 1
    assert report.first_failure == ("0", "1", "2", "3")


def test_sturm_frozen_counts():
    assert sturm_distinct_real_roots([2, -3, 0, 1]) == 2  # (t-1)^2 (t+2)
    assert sturm_distinct_real_roots([1, 0, 1]) == 0  # t^2 + 1
    assert sturm_distinct_real_roots([0, -1, 0, 1]) == 3  # t(t-1)(t+1)
    assert sturm_distinct_real_roots([0, 0, 0, 1]) == 1  # t^3
    assert sturm_distinct_real_roots([5]) == 0
    assert sturm_distinct_real_roots([F(-1, 2), F(1, 3)]) == 1
    with pytest.raises(InputError):
        sturm_distinct_real_roots([0, 0])


def test_sturm_matches_sympy():
    rng = random.Random(61)
    t = sympy.Symbol("t")
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs):
            continue
        ours = sturm_distinct_real_roots(coeffs)
        poly = sympy.Poly(list(reversed(coeffs)), t)
        theirs = len(set(poly.real_roots()))
        assert ours == theirs


def _fraction_sturm_count(coeffs):
    """The Sturm count over the rationals, with one Fraction per term: the
    chain the integer pseudo-remainders replaced."""
    p = [F(x) for x in coeffs]
    while p[-1] == 0:
        p.pop()
    if len(p) == 1:
        return 0
    chain = [p, [p[i] * i for i in range(1, len(p))]]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        while len(r) >= len(b):
            factor = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i in range(len(b)):
                r[shift + i] -= factor * b[i]
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        chain.append([-x for x in r])
    plus = [q[-1] > 0 for q in chain]
    minus = [(q[-1] > 0) == (len(q) % 2 == 1) for q in chain]
    changes = lambda signs: sum(a != b for a, b in zip(signs, signs[1:]))
    return changes(minus) - changes(plus)


def _seeded_polynomial(rng):
    """Degree <= 8 with rational, float or integer roots and coefficients,
    often repeated roots, and a leading coefficient of either sign."""
    kind = rng.choice(["roots", "int", "fraction", "float"])
    if kind != "roots":
        draw = {
            "int": lambda: rng.randint(-9, 9),
            "fraction": lambda: F(rng.randint(-9, 9), rng.randint(1, 7)),
            "float": lambda: rng.choice([0.0, rng.uniform(-4, 4), 0.125 * rng.randint(-9, 9)]),
        }[kind]
        coeffs = [draw() for _ in range(rng.randint(1, 9))]
        return coeffs if any(coeffs) else coeffs + [1]
    # a product of linear and quadratic factors, each with a multiplicity
    coeffs = [F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))]
    while len(coeffs) < 9 and rng.random() < 0.9:
        if rng.random() < 0.8:
            factor = [F(-rng.randint(-5, 5), rng.randint(1, 3)), 1]
        else:
            factor = [rng.randint(1, 4), rng.randint(-2, 2), 1]
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            if len(coeffs) + len(factor) - 1 > 9:
                break
            coeffs = [
                sum(coeffs[i] * factor[k - i] for i in range(len(coeffs)) if 0 <= k - i < len(factor))
                for k in range(len(coeffs) + len(factor) - 1)
            ]
    return [float(x) for x in coeffs] if rng.random() < 0.2 else coeffs


def test_sturm_matches_the_fraction_chain():
    rng = random.Random(67)
    counts = set()
    for _ in range(5000):
        coeffs = _seeded_polynomial(rng)
        got = sturm_distinct_real_roots(coeffs)
        assert repr(got) == repr(_fraction_sturm_count(coeffs)), coeffs
        counts.add(got)
    assert counts == set(range(9))


@pytest.mark.parametrize(
    "bad", [[math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0], ["1", 2], [True, 1], [1, None]]
)
def test_sturm_coefficients_follow_the_entry_rule(bad):
    with pytest.raises(InputError):
        sturm_distinct_real_roots(bad)
    with pytest.raises(InputError):
        hyperplane_intersection_count(MomentCurve(1), bad)


def test_int_coefficients_are_read_in_place_and_checked_once(monkeypatch):
    checked, cleared = [], []
    check, clear = curves._require_scalar, curves._cleared_line
    monkeypatch.setattr(curves, "_require_scalar", lambda x: checked.append(x) or check(x))
    monkeypatch.setattr(curves, "_cleared_line", lambda v: cleared.append(v) or clear(v))
    rng = random.Random(71)
    curve = MomentCurve(4)
    lines = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(300)]
    lines = [h for h in lines + [[1, 0, 0, 0, 0], [0, -2, 0, 0, 0]] if any(h)]
    counts = []
    for h in lines:
        before = list(h)
        counts.append((hyperplane_intersection_count(curve, h), sturm_distinct_real_roots(h)))
        assert h == before  # trailing zeros are dropped from a copy
    assert checked == cleared == []
    for h, count in zip(lines, counts):
        copy = [F(x) for x in h]
        assert (hyperplane_intersection_count(curve, copy), sturm_distinct_real_roots(copy)) == count
    # each Fraction coefficient is checked once per call
    assert len(checked) == 2 * 5 * len(lines) and len(cleared) == 2 * len(lines)


def test_hyperplane_intersection_counts():
    curve = MomentCurve(3)
    # x2 - x0 = 0 meets at t = -1, 1, and at infinity
    assert hyperplane_intersection_count(curve, [-1, 0, 1, 0]) == 3
    # top coordinate: only t = 0
    assert hyperplane_intersection_count(curve, [0, 0, 0, 1]) == 1
    # constant coordinate never vanishes at finite t but hits infinity
    assert hyperplane_intersection_count(curve, [1, 0, 0, 0]) == 1
    with pytest.raises(InputError):
        hyperplane_intersection_count(curve, [1, 2, 3])
    with pytest.raises(InputError):
        hyperplane_intersection_count(curve, [0, 0, 0, 0])


def test_convexity_bound_holds():
    for degree in (2, 3):
        report = convex_curve_check(MomentCurve(degree), trials=300, seed=1)
        assert report.ok
        assert report.max_count <= degree
        # the bound is attained somewhere in a sample this large
        assert report.max_count == degree


def test_convex_check_validation():
    with pytest.raises(InputError):
        convex_curve_check(MomentCurve(2), trials=0)
    with pytest.raises(InputError):
        convex_curve_check(MomentCurve(2), coeff_bound=0)


def test_curve_sample_validation():
    curve = MomentCurve(2)
    with pytest.raises(InputError):
        is_positive_curve_sampled(curve, samples=3)
    with pytest.raises(InputError):
        is_positive_curve_sampled(curve, mode="fuzzy")
    with pytest.raises(InputError):
        is_positive_curve_sampled(
            curve, points=[CirclePoint.at(F(0))] * 4
        )
    for trials in (0, -3):
        with pytest.raises(InputError, match="at least one trial"):
            is_positive_curve_sampled(curve, mode="random", trials=trials)


_ONES = (F(1),) * 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: TPParameters(3.0, (1, 2, 1), _ONES, _ONES, _ONES),
        lambda: TPParameters(3, (1.5, 2, 1), _ONES, _ONES, _ONES),
        lambda: TPParameters(3, (True, 2, 1), _ONES, _ONES, _ONES),
        lambda: UniParams(3.0, (1, 2, 1), "lower", _ONES, True),
        lambda: UniParams(3, (1.5, 2, 1), "lower", _ONES, True),
        lambda: UniParams(3, (True, 2, 1), "upper", _ONES, True),
        lambda: MomentCurve(2.5),
        lambda: MomentCurve(True),
        lambda: is_positive_curve_sampled(MomentCurve(2), samples=5.5),
        lambda: is_positive_curve_sampled(MomentCurve(2), mode="random", trials=2.5),
        lambda: convex_curve_check(MomentCurve(2), trials=2.5),
        lambda: convex_curve_check(MomentCurve(2), coeff_bound=2.5),
    ],
    ids=[
        "tp-n-float", "tp-letter-float", "tp-letter-bool",
        "uni-n-float", "uni-letter-float", "uni-letter-bool",
        "degree-float", "degree-bool", "samples-float", "trials-float",
        "convex-trials-float", "convex-bound-float",
    ],
)
def test_integer_arguments_refuse_floats_and_bools(call):
    # each was accepted, or crashed later with a TypeError or ValueError
    with pytest.raises(InputError, match="int"):
        call()


def test_quadruple_verdict_is_conjugation_invariant():
    rng = random.Random(43)
    curve = MomentCurve(2)
    pts = [CirclePoint.at(F(v, 2)) for v in (-3, -1, 1, 3)]
    quad = dihedral_partition(*pts)
    flags = [curve.flag_at(p) for p in pts]
    h = random_invertible(3, rng)
    moved = [flag_from_matrix(h @ f.rep) for f in flags]
    assert is_positive_quadruple(moved, quad)
    swapped = [moved[0], moved[2], moved[1], moved[3]]
    assert not is_positive_quadruple(swapped, quad)


def test_other_compatible_numbering_agrees():
    curve = MomentCurve(3)
    pts = [CirclePoint.at(F(v)) for v in (-2, 0, 1, 5)]
    flags = [curve.flag_at(p) for p in pts]
    direct = is_positive_quadruple(flags, dihedral_partition(*pts))
    rotated_pts = pts[1:] + pts[:1]
    rotated = flags[1:] + flags[:1]
    assert (
        is_positive_quadruple(rotated, dihedral_partition(*rotated_pts))
        == direct
    )
    assert direct


def test_hyperplane_count_is_scale_invariant():
    curve = MomentCurve(3)
    for h in ([-1, 0, 1, 0], [0, 0, 0, 1], [2, -3, 1, 4]):
        base = hyperplane_intersection_count(curve, h)
        for lam in (F(3), F(-1, 7)):
            scaled = [lam * x for x in h]
            assert hyperplane_intersection_count(curve, scaled) == base


def _adapted_basis_oracle(f1, f2):
    # one kernel per k: w_k spans F1_k intersect F2_{n-k+1}
    n = f1.n
    columns = []
    for k in range(1, n + 1):
        span_cols = [list(f1.rep.col_tuple(j)) for j in range(k)] + [
            list(f2.rep.col_tuple(j)) for j in range(n - k + 1)
        ]
        kernel = nullspace(Matrix.from_columns(span_cols))
        if len(kernel) != 1:
            raise DomainError("flags are not opposed")
        w = [
            sum(c * f1.rep[i, j] for j, c in enumerate(kernel[0][:k]))
            for i in range(n)
        ]
        if all(x == 0 for x in w):
            raise ConsistencyError("adapted basis vector vanished")
        bottom = next(x for x in reversed(w) if x != 0)
        columns.append([x / bottom for x in w])
    basis = Matrix.from_columns(columns)
    if nullspace(basis):
        raise ConsistencyError("adapted basis is singular")
    return basis


def _quadruple_oracle(flags):
    # every one of the 2^n diagonal sign classes
    f1, f2, f3, f4 = flags
    if not opposed(f1, f3):
        raise DomainError("reference flags (positions 1 and 3) must be opposed")
    h = inverse(_adapted_basis_oracle(f1, f3))
    for signs in itertools.product((1, -1), repeat=f1.n):
        s = Matrix.diagonal(list(signs))
        if in_B_pos(flag_from_matrix(s @ h @ f2.rep)) is not None and (
            in_B_pos_prime(flag_from_matrix(s @ h @ f4.rep)) is not None
        ):
            return True
    return False


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, ConsistencyError) as exc:
        return type(exc)


def _primed_cell_flag(n, rng):
    return flag_from_matrix(inverse(synthesize_uni(random_uni_params(n, rng))))


def _differential_pairs(n, rng):
    for _ in range(4):
        yield random_flag(n, rng), random_flag(n, rng)
        yield random_positive_cell_flag(n, rng), _primed_cell_flag(n, rng)
        f = random_flag(n, rng)
        yield f, f
    yield standard_flag(n), standard_flag(n)
    yield reversed_flag(n), reversed_flag(n)
    # flags in every relative position, moved by one base change
    g = random_invertible(n, rng)
    perms = list(itertools.permutations(range(n)))
    for perm in rng.sample(perms, min(len(perms), 6)):
        p = Matrix([[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)])
        yield flag_from_matrix(g), flag_from_matrix(g @ p)


def _differential_quadruples(n, rng):
    curve = MomentCurve(n - 1)
    pts = [CirclePoint.at(F(v, 2)) for v in (-3, -1, 1, 3)]
    flags = [curve.flag_at(p) for p in pts]
    h = random_invertible(n, rng)
    flip = Matrix.diagonal([F(rng.choice((1, -1))) for _ in range(n)])
    bump = Matrix.identity(n).to_lists()
    bump[rng.randrange(n)][rng.randrange(n)] += F(rng.randint(1, 5), 3)
    yield flags
    yield [flag_from_matrix(h @ f.rep) for f in flags]
    yield [flags[0], flags[2], flags[1], flags[3]]
    yield [flags[0], flag_from_matrix(flip @ flags[1].rep), flags[2], flags[3]]
    yield [flags[0], flags[1], flags[2], flag_from_matrix(Matrix(bump) @ flags[3].rep)]
    yield [flags[0], flags[1], flags[0], flags[3]]
    for _ in range(3):
        cell = [standard_flag(n), random_positive_cell_flag(n, rng)]
        cell += [reversed_flag(n), _primed_cell_flag(n, rng)]
        yield [flag_from_matrix(h @ flip @ f.rep) for f in cell]
        yield [random_flag(n, rng) for _ in range(4)]


def test_flag_pairs_match_kernel_and_sign_search_oracles():
    rng = random.Random(2024)
    quad = dihedral_partition(*(CirclePoint.at(F(v)) for v in (0, 1, 2, 3)))
    outcomes = set()
    for n in range(2, 6):
        for f1, f2 in _differential_pairs(n, rng):
            want = _outcome(_adapted_basis_oracle, f1, f2)
            got = _outcome(adapted_basis, f1, f2)
            if want is ConsistencyError:
                # each intersection is a line but the flags are not opposed
                assert not opposed(f1, f2)
                want = DomainError
            assert got == want, (f1.rep.to_lists(), f2.rep.to_lists())
            outcomes.add(want if isinstance(want, type) else "basis")
        for flags in _differential_quadruples(n, rng):
            want = _outcome(_quadruple_oracle, flags)
            assert _outcome(is_positive_quadruple, flags, quad) == want
            outcomes.add(want)
    assert outcomes == {"basis", DomainError, True, False}


def _inverse_then_peel_quadruple(flags):
    """The quadruple test as it ran before it reused the cell test: an exact
    inverse of the adapted basis, two products, and its own sign-adjusted
    peel of the second flag's lower factor."""
    f1, f2, f3, f4 = flags
    try:
        w = adapted_basis(f1, f3)
    except DomainError:
        raise DomainError("reference flags (positions 1 and 3) must be opposed") from None
    h = inverse(w)
    ldu = gauss_ldu(h @ f2.rep)
    if ldu is None or 0 in ldu[0].col_tuple(0):
        return False
    signs = [1 if x > 0 else -1 for x in ldu[0].col_tuple(0)]
    lower = Matrix(
        [[si * sj * x for sj, x in zip(signs, row)] for si, row in zip(signs, ldu[0].to_lists())]
    )
    params = membership_uni(lower, "lower")
    if params is None or not params.strict:
        return False
    fourth = gauss_ldu(Matrix.diagonal(signs) @ h @ f4.rep)
    if fourth is None:
        return False
    params = membership_uni(inverse(fourth[0]), "lower")
    return params is not None and params.strict


def _one_sign_flipped(f, rng):
    signs = [F(1)] * f.n
    signs[rng.randrange(f.n)] = F(-1)
    return flag_from_matrix(Matrix.diagonal(signs) @ f.rep)


def _zero_in_first_column(f1, f3, rng):
    """A second flag whose first column in the frame adapted to (f1, f3)
    has a zero, at the corner or below it."""
    x = random_invertible(f1.n, rng).to_lists()
    x[rng.randrange(f1.n)][0] = F(0)
    if not nullspace(Matrix(x)):
        return flag_from_matrix(adapted_basis(f1, f3) @ Matrix(x))
    return None


def _quadruple_inputs(n, rng):
    """Seeded quadruples of exact flags in C^n, with the kind of each."""
    if n > 1:
        curve = MomentCurve(n - 1)
        for _ in range(2):
            pts = [CirclePoint.at(F(v, 3)) for v in sorted(rng.sample(range(-12, 13), 4))]
            h = random_invertible(n, rng)
            flags = [flag_from_matrix(h @ curve.flag_at(p).rep) for p in pts]
            yield "positive", flags
            yield "swapped", [flags[0], flags[2], flags[1], flags[3]]
            yield "flipped", [flags[0], _one_sign_flipped(flags[1], rng), flags[2], flags[3]]
            yield "flipped", [flags[0], flags[1], flags[2], _one_sign_flipped(flags[3], rng)]
            f = random_flag(n, rng)
            yield "not opposed", [f, flags[1], f, flags[3]]
    for _ in range(3):
        yield "random", [random_flag(n, rng) for _ in range(4)]
        f1, f3 = random_positive_cell_flag(n, rng), _primed_cell_flag(n, rng)
        f2 = _zero_in_first_column(f1, f3, rng)
        if f2 is not None:
            yield "zero", [f1, f2, f3, random_flag(n, rng)]


def test_quadruple_matches_the_inverse_then_peel_oracle():
    rng = random.Random(1307)
    quad = dihedral_partition(*(CirclePoint.at(F(v)) for v in (0, 1, 2, 3)))
    seen = set()
    for n in range(1, 7):
        for kind, flags in _quadruple_inputs(n, rng):
            want = _outcome(_inverse_then_peel_quadruple, flags)
            assert _outcome(is_positive_quadruple, flags, quad) == want, (kind, n)
            if kind == "positive":
                assert want is True
            elif kind in ("swapped", "zero"):
                assert want is False
            elif kind == "not opposed":
                assert want is DomainError
            seen.add((kind, want))
    assert {("flipped", False), ("random", True), ("random", False)} <= seen


def _loop_oracle(curve, points, mode="exhaustive", seed=0, trials=None):
    """The curve check as it ran before the fan triangulation: every subset
    of the sorted points, exhaustive or seeded, tested in order."""
    pts = sorted(points, key=CirclePoint.sort_key)
    flags = {p: curve.flag_at(p) for p in pts}
    if mode == "exhaustive":
        subsets = list(itertools.combinations(range(len(pts)), 4))
    else:
        rng = random.Random(seed)
        subsets = [tuple(sorted(rng.sample(range(len(pts)), 4))) for _ in range(trials)]
    passed = failed = 0
    first_failure = None
    for subset in subsets:
        quad_points = tuple(pts[i] for i in subset)
        ok = is_positive_quadruple([flags[p] for p in quad_points], dihedral_partition(*quad_points))
        if ok:
            passed += 1
        else:
            failed += 1
            if first_failure is None:
                first_failure = tuple(str(p) for p in quad_points)
    return CurveReport(
        curve.degree, len(pts), mode, seed, len(subsets), passed, failed, first_failure
    )


def _pushed(g, f):
    return flag_from_matrix(g @ f.rep)


def _curve_tables(n, k, rng):
    """Seeded flag tables over k circle points in C^n, with their kind: the
    osculating flags of the moment curve, and that curve edited."""
    values = sorted(rng.sample(range(-15, 16), k - 1 if rng.random() < 0.4 else k))
    pts = [CirclePoint.at(F(v, 2)) for v in values]
    if len(pts) < k:
        pts.append(CirclePoint.infinity())
    base = [osculating_flag(MomentCurve(n - 1), p) for p in pts]
    tp = random_tp_matrix(n, rng)
    i, j = sorted(rng.sample(range(k), 2))
    swapped = list(base)
    swapped[i], swapped[j] = base[j], base[i]
    edits = {
        "moment": base,
        "swapped": swapped,
        "random": base[:i] + [random_flag(n, rng)] + base[i + 1 :],
        "tp": [_pushed(tp, f) for f in base],
        "one pushed": base[:i] + [_pushed(tp, base[i])] + base[i + 1 :],
        "flipped": base[:i] + [_one_sign_flipped(base[i], rng)] + base[i + 1 :],
        "not opposed": base[:j] + [base[i]] + base[j + 1 :],
    }
    # each kind at every n, on two of the six sizes k
    for index, (kind, flags) in enumerate(edits.items()):
        if (index - n - k) % 3 == 0:
            yield kind, pts, TableFlagCurve(list(zip(pts, flags)))


def _report_or_error(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except DomainError as exc:
        return (type(exc), str(exc))


def test_curve_check_matches_the_loop_oracle():
    rng = random.Random(2006)
    seen = set()
    for n in range(2, 7):
        for k in range(4, 10):
            for kind, pts, curve in _curve_tables(n, k, rng):
                seed = rng.randrange(100)
                for mode, trials in (("exhaustive", None), ("random", max(1, k - 4)), ("random", k + 2)):
                    if mode == "random" and (n + k) % 2:
                        continue
                    want = _report_or_error(_loop_oracle, curve, pts, mode, seed, trials)
                    got = _report_or_error(
                        is_positive_curve_sampled, curve, mode=mode, seed=seed, trials=trials
                    )
                    assert got == want, (kind, n, k, mode, trials)
                    if isinstance(want, tuple):
                        seen.add((kind, mode, "error"))
                    else:
                        seen.add((kind, mode, "ok" if "failed=0" in want else "fails"))
    assert {("moment", "exhaustive", "ok"), ("tp", "random", "ok")} <= seen
    assert {("swapped", "exhaustive", "fails"), ("flipped", "exhaustive", "fails")} <= seen
    assert {("random", "random", "fails")} <= seen
    assert {("one pushed", "exhaustive", "fails"), ("not opposed", "exhaustive", "error")} <= seen


@pytest.fixture
def quadruple_calls(monkeypatch):
    calls = []
    original = curves.is_positive_quadruple

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(curves, "is_positive_quadruple", counted)
    return calls


@pytest.mark.parametrize("samples, total", [(8, 70), (9, 126)])
def test_positive_curve_costs_the_fan_only(quadruple_calls, samples, total):
    report = is_positive_curve_sampled(MomentCurve(3), samples=samples)
    assert (report.total, report.passed, report.failed) == (total, total, 0)
    assert len(quadruple_calls) == samples - 3


@pytest.mark.parametrize("trials", [4, 12])
def test_random_mode_tests_the_seeded_draws_only(quadruple_calls, trials):
    # more or fewer trials than the 6 fan quadrilaterals: no fan in random mode
    pts = [CirclePoint.at(F(v)) for v in range(-4, 5)]
    report = is_positive_curve_sampled(MomentCurve(3), points=pts, mode="random", seed=5, trials=trials)
    assert (report.total, report.passed) == (trials, trials)
    rng = random.Random(5)
    draws = [tuple(sorted(rng.sample(range(9), 4))) for _ in range(trials)]
    want = list(dict.fromkeys(tuple(pts[i] for i in d) for d in draws))
    assert [q.points for _, q in quadruple_calls] == want


def test_failing_curve_tests_each_subset_at_most_once(quadruple_calls):
    base = MomentCurve(2)
    pts = [CirclePoint.at(F(v)) for v in range(-3, 4)]
    flags = [base.flag_at(p) for p in pts]
    flags[2], flags[4] = flags[4], flags[2]
    entries = list(zip(pts, flags))
    report = is_positive_curve_sampled(TableFlagCurve(entries))
    assert report.failed > 0 and report.total == math.comb(7, 4)
    assert len(quadruple_calls) <= report.total
    assert len({tuple(map(str, q.points)) for _, q in quadruple_calls}) == len(quadruple_calls)


def test_failing_curve_keeps_only_the_fans_verdicts(monkeypatch):
    # 16 points on the degree-2 moment curve, one flag sign-flipped: the fan
    # fails, so all C(16, 4) = 1,820 subsets are tested, each once.  The
    # replayed verdicts keep the traced call to the check's own bookkeeping.
    base = MomentCurve(2)
    pts = [CirclePoint.at(F(v)) for v in range(1, 17)]
    flags = [base.flag_at(p) for p in pts]
    flags[8] = flag_from_matrix(Matrix.diagonal([1, -1, 1]) @ flags[8].rep)
    curve = TableFlagCurve(list(zip(pts, flags)))
    original, seen = curves.is_positive_quadruple, {}

    def replayed(quad_flags, quadruple):
        key = tuple(map(id, quad_flags))
        if key not in seen:
            seen[key] = original(quad_flags, quadruple)
        return seen[key]

    monkeypatch.setattr(curves, "is_positive_quadruple", replayed)
    want = is_positive_curve_sampled(curve)  # also fills the interpreter's free lists
    assert (want.total, want.failed) == (1820, 364) and len(seen) == 1820
    tracemalloc.start()
    try:
        got = is_positive_curve_sampled(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert repr(got) == repr(want)
    assert peak < 100_000, peak
