"""Integer forms of kernel outputs: entries checked at the boundary, built
when read, and identical to those of a checked copy of the same input."""

import dataclasses
import gc
import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction as F

import pytest

from totpos import flags as flags_module
from totpos import linalg, spectra
from totpos.bilinear import tilde
from totpos.classify import (
    classify,
    is_totally_nonnegative,
    is_totally_positive,
    monoid_generate_check,
)
from totpos.curves import CirclePoint, MomentCurve, dihedral_partition, is_positive_quadruple
from totpos.errors import InputError, SingularityError
from totpos.flags import (
    Flag,
    adapted_basis,
    in_B_pos,
    in_B_pos_prime,
    opposed,
    reversed_flag,
    standard_flag,
)
from totpos.linalg import (
    Matrix,
    _bareiss,
    _cleared,
    _columns,
    _flipped,
    _solve_exact,
    compound,
    det,
    inverse,
    nullspace,
    rank,
    solve,
)
from totpos.sampling import (
    random_flag,
    random_invertible,
    random_positive_cell_flag,
    random_tp_matrix,
    random_uni_params,
)
from totpos.serialization import parse_matrix
from totpos.spectra import gk_spectrum, refine_eigenbasis
from totpos.whitney import factorize, gauss_ldu, gen_x, gen_y, membership_uni, synthesize_uni


def _slot_set(m, name):
    # the slot itself, not the __getattr__ of a kernel output, which would build it
    try:
        getattr(Matrix, name).__get__(m)
    except AttributeError:
        return False
    return True


def _entries_built(m):
    return _slot_set(m, "_entries")


# -- the upper factor nobody reads ---------------------------------------------


def test_cell_tests_and_frames_never_build_the_upper_factor(monkeypatch):
    factors = []
    real = flags_module.gauss_ldu

    def spy(m):
        ldu = real(m)
        if ldu is not None:
            factors.append(ldu)
        return ldu

    monkeypatch.setattr(flags_module, "gauss_ldu", spy)
    rng = random.Random(2207)
    verdicts = []
    for n in range(2, 7):
        cell = random_positive_cell_flag(n, rng)
        unit = synthesize_uni(random_uni_params(n, rng, side="lower", strict=True))
        primed = Flag(inverse(unit))
        other = random_flag(n, rng)
        before = len(factors)
        verdicts += [opposed(cell, primed), not opposed(cell, cell)]
        opposed(other, cell)
        # opposedness builds no factor
        assert not any(_slot_set(f, "_form") for ldu in factors[before:] for f in ldu[::2])
        verdicts += [
            in_B_pos(cell) is not None,
            in_B_pos_prime(primed) is not None,
        ]
        in_B_pos(other), in_B_pos_prime(other)
        adapted_basis(cell, primed)
        curve = MomentCurve(n - 1)
        points = [CirclePoint.at(F(v, 2)) for v in (-3, -1, 1, 3)]
        quad = [curve.flag_at(p) for p in points]
        q = dihedral_partition(*points)
        verdicts += [
            is_positive_quadruple(quad, q),
            not is_positive_quadruple([quad[0], quad[2], quad[1], quad[3]], q),
        ]
    assert all(verdicts)
    assert len(factors) > 50
    assert any(_slot_set(lower, "_form") for lower, _, _ in factors)
    assert not any(_slot_set(upper, "_form") or _entries_built(upper) for _, _, upper in factors)


def test_a_read_upper_factor_builds_its_entries():
    u = gauss_ldu(Matrix([[2, 1], [1, 3]]))[2]
    assert not _entries_built(u)
    assert u.to_lists() == [[1, F(1, 2)], [0, 1]]
    assert _entries_built(u)


# -- kernel-built and checked inputs give identical results --------------------


def _typed(x):
    """A result with every entry's type: repr alone prints 1 and F(1) alike."""
    if isinstance(x, Matrix):
        rows = x.to_lists()
        return "Matrix", repr(rows), [[type(v) for v in row] for row in rows], hash(x)
    if isinstance(x, Flag):
        return "Flag", _typed(x.rep)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [(f.name, _typed(getattr(x, f.name))) for f in dataclasses.fields(x)]
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_typed(v) for v in x]
    return type(x), repr(x)


def _refined(m):
    spectrum = gk_spectrum(m)
    return refine_eigenbasis(m, spectrum.eigenvalues, spectrum.eigenvectors)


KERNELS = {
    "matmul": lambda m: m @ m.transpose(),
    "transpose": lambda m: m.transpose(),
    "inverse": inverse,
    "solve": lambda m: solve(m, [F(i + 1, 2) for i in range(m.rows)]),
    "nullspace": nullspace,
    "det": det,
    "rank": rank,
    "gauss_ldu": gauss_ldu,
    "compound": lambda m: compound(m, min(2, m.rows)),
    "Flag": Flag,
    "adapted_basis": lambda m: (
        adapted_basis(Flag(m), reversed_flag(m.rows)),
        adapted_basis(standard_flag(m.rows), Flag(m)),
    ),
    "tilde": tilde,
    "refine_eigenbasis": _refined,
    "membership_uni": lambda m: (membership_uni(m, "lower"), membership_uni(m, "upper", "reversed")),
    "factorize": factorize,
}


def _outcome(kernel, m):
    # the result or the exception, and the warnings: both inputs must agree
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, exc = kernel(m), None
        except Exception as error:
            result, exc = None, (type(error), str(error))
    return result, (exc, [(w.category, str(w.message)) for w in caught])


def _kernel_built(m):
    """Exact copies of m and of its factors that carry their integer forms."""
    n = m.rows
    out = [_solve_exact(Matrix.identity(n), m)]
    if det(m) != 0:
        out += [inverse(m), Flag(m).rep]
    ldu = gauss_ldu(m)
    if ldu is not None:
        out += [ldu[0], ldu[2], ldu[0].transpose(), _flipped(ldu[2], True, True)]
    return out


def _bases(n, rng):
    tp = random_tp_matrix(n, rng)
    yield tp
    yield random_invertible(n, rng)
    yield Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
    if n > 1:
        rows = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n - 1)]
        yield Matrix(rows + [[a + b for a, b in zip(rows[0], rows[-1])]])


def test_kernels_read_a_form_as_they_read_checked_entries():
    rng = random.Random(2212)
    compared = set()
    for n in range(1, 7):
        for base in _bases(n, rng):
            for built in _kernel_built(base):
                assert built._form is not None
                for m in (built, built.to_float()):
                    checked = Matrix(m.to_lists())
                    assert checked._form is None
                    for name, kernel in KERNELS.items():
                        got, got_exc = _outcome(kernel, m)
                        want, want_exc = _outcome(kernel, checked)
                        assert got_exc == want_exc, (name, m)
                        assert _typed(got) == _typed(want), (name, m)
                        assert got == want, (name, m)
                        compared.add((name, got_exc[0] is None, m.is_exact))
    # every kernel ran to a result on exact and on float input
    assert {(name, True, exact) for name in KERNELS for exact in (True, False)} <= compared


# -- the boundary ----------------------------------------------------------------


BAD_ENTRIES = [True, math.nan, math.inf, -math.inf, "1"]


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
def test_public_constructors_check_every_entry(bad):
    with pytest.raises(InputError):
        Matrix([[1, bad], [2, 3]])
    with pytest.raises(InputError):
        Matrix.from_columns([[1, 2], [bad, 3]])
    with pytest.raises(InputError):
        Matrix.diagonal([1, bad])


@pytest.mark.parametrize(
    "text", ["[[1, true], [2, 3]]", "[[1, NaN], [2, 3]]", "[[1, Infinity], [2, 3]]",
             '[[1, "x"], [2, 3]]', "1 nan\n2 3", "1 inf\n2 3", "1 x\n2 3"])
@pytest.mark.parametrize("exact", [True, False])
def test_parsers_check_every_entry(text, exact):
    with pytest.raises(InputError):
        parse_matrix(text, exact=exact)


# -- exact products, normalized frames and refined eigenbases --------------------


def _entrywise_product(a, b):
    """The entrywise oracle: Python sums of entry products, each a Fraction
    when its row of a or its column of b holds one, else an int."""
    def fractional(line):
        return any(isinstance(x, F) for x in line)

    cols = list(zip(*b.to_lists()))
    return [[F(s) if fractional(row) or fractional(col) else s
             for col in cols for s in [sum(x * y for x, y in zip(row, col))]]
            for row in a.to_lists()]


def _assert_kernel_output(m, want):
    """A fresh kernel output: its form represents want, to_float from that
    form is float() of want bit for bit, and its entries are want, types too."""
    a, r, c = m._form
    assert all(type(x) is int and x > 0 for x in (*r, *c))
    assert [[type(x) for x in row] for row in a] == [[int] * m.cols] * m.rows
    assert [list(row) for row in a] == [[s * x * t for x, t in zip(row, c)]
                                        for row, s in zip(want, r)]
    assert _float_bits(m.to_float()) == [[float(x).hex() for x in row] for row in want]
    assert repr(m.to_lists()) == repr(want)
    assert [[type(x) for x in row] for row in m.to_lists()] == [[type(x) for x in row] for row in want]
    _assert_holds_no_operand(m)


def _assert_holds_no_operand(m):
    """m's slots hold numbers in nested tuples: no operand and no function that
    reads one.  Slots are read as slots: reading _entries would build them."""
    def leaves(v):
        return [x for y in v for x in leaves(y)] if isinstance(v, tuple) else [v]

    held = []
    for name in Matrix.__slots__:
        try:
            held += leaves(getattr(Matrix, name).__get__(m))
        except AttributeError:  # not built yet
            pass
    assert all(type(x) in (int, bool, F) for x in held)


def _float_bits(m):
    return [[float(x).hex() for x in row] for row in m.to_lists()]


def _operands(rows, cols, rng):
    """Exact rows x cols matrices of every kind a product meets: checked
    int-only and mixed int/Fraction, kernel-built, and a kernel whose
    entries are already built."""
    ints = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    mixed = [[F(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.5 else x for x in row]
             for row in ints]
    yield "checked int", Matrix(ints)
    yield "checked mixed", Matrix(mixed)
    yield "int product", Matrix(ints) @ Matrix.identity(cols)
    for label, grid in (("int", ints), ("mixed", mixed)):
        # identity^-1 [grid] keeps every entry's value; entries are Fractions
        kernel = _solve_exact(Matrix.identity(rows), Matrix(grid))
        yield f"kernel {label}", kernel
        read = _solve_exact(Matrix.identity(rows), Matrix(grid))
        read.to_lists()
        yield f"read kernel {label}", read
    if rows == cols:
        m = random_invertible(rows, rng)
        yield "inverse", inverse(m)
        yield "flag rep", Flag(m).rep
        ldu = gauss_ldu(Matrix(mixed))
        if ldu is not None:
            yield "lower factor", ldu[0]
    yield "transposed kernel", _solve_exact(Matrix.identity(cols), Matrix(mixed).transpose()).transpose()


SHAPES = [(1, 1, 1), (1, 4, 1), (4, 1, 4), (1, 3, 5), (5, 3, 1), (3, 3, 3), (2, 5, 3), (4, 4, 4)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_products_match_the_entrywise_oracle(shape):
    rows, inner, cols = shape
    rng = random.Random(hash(shape) % 10**6)
    seen = set()
    for left_label, left in _operands(rows, inner, rng):
        for right_label, right in _operands(inner, cols, rng):
            want = _entrywise_product(left, right)
            _assert_kernel_output(left @ right, want)
            # read entries first, then floats from the form: the product holds
            # no operand before or after
            p = left @ right
            _assert_holds_no_operand(p)
            assert repr(p.to_lists()) == repr(want)
            _assert_holds_no_operand(p)
            assert _float_bits(p.to_float()) == [[float(x).hex() for x in row] for row in want]
            # a product of products: a row that holds a Fraction is all Fractions
            unit = Matrix.identity(cols)
            _assert_kernel_output((left @ right) @ unit, _entrywise_product(Matrix(want), unit))
            seen.add((left_label, right_label))
    assert ("checked int", "checked int") in seen and ("read kernel mixed", "kernel int") in seen


def _left_fold(factors):
    p = factors[0]
    for g in factors[1:]:
        p = p @ g
    return p


def test_long_unread_product_chains_build_without_recursion():
    n = 4
    factors = [(gen_x, gen_y)[k % 2](k % (n - 1) + 1, F(1, 2 + k % 3), n) for k in range(1000)]
    want = factors[0].to_lists()
    for g in factors[1:]:
        want = _entrywise_product(Matrix(want), g)
    assert det(_left_fold(factors)) == 1 and rank(_left_fold(factors)) == n
    assert repr(_left_fold(factors).to_lists()) == repr(want)
    assert _float_bits(_left_fold(factors).to_float()) == [[float(x).hex() for x in row]
                                                           for row in want]
    p = _left_fold(factors)
    det(p)
    assert repr(p.to_lists()) == repr(want)
    _assert_holds_no_operand(p)
    # repeated squaring shares each factor
    p = gen_x(1, F(1, 2), n)
    for _ in range(40):
        p = p @ p
    assert p[1, 0] == 2**39 and p.to_float()[1, 0] == 2.0**39
    # a product stores only its form, so a chain read only through it holds no factor
    tracemalloc.start()
    try:
        p = _left_fold(factors[:300])
        det(p)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024


def _old_bottom_normalized(frame):
    """The normalization as a checked build, column by column."""
    columns = []
    for j in range(frame.cols):
        col = frame.col_tuple(j)
        bottom = F(next(x for x in reversed(col) if x != 0))
        columns.append([x / bottom for x in col])
    return Matrix.from_columns(columns)


def _old_inverse_step(m, value, start):
    """One exact inverse-iteration step on Fractions: solve (m - value I) x = start,
    or the kernel line of a singular shift, None when the kernel is not a line."""
    s = F(value)
    m = Matrix([[x - s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.to_lists())])
    try:
        return list(_solve_exact(m, Matrix([[b] for b in start])).col_tuple(0))
    except SingularityError:
        kernel = nullspace(m)
        return list(kernel[0]) if len(kernel) == 1 else None


def _old_refine_eigenbasis(m, eigenvalues, vectors):
    """refine_eigenbasis on Fractions, with its columns built as a checked matrix."""
    m = m.to_exact()
    start = Matrix([[F(float(x)).limit_denominator(10**12) for x in row] for row in vectors.to_lists()])
    columns = []
    for j in range(m.rows):
        col = list(start.col_tuple(j))
        raw = _old_inverse_step(m, eigenvalues[j], col)
        if raw is None:
            columns.append(col)
            continue
        pivot = max(raw, key=abs)
        top = spectra._MAX_DENOMINATOR
        columns.append([y and (y.limit_denominator(top) or y.limit_denominator(
            top * math.ceil(1 / abs(y)))) for y in (x / pivot for x in raw)])
    return Matrix.from_columns(columns)


def _criterion_7_corpus():
    rng = random.Random(1007)
    return [random_tp_matrix(n, rng) for n in (2, 3, 4, 5) for _ in range(100)]


def test_refined_eigenbases_and_their_frames_match_checked_builds():
    for g in _criterion_7_corpus():
        spectrum = gk_spectrum(g)
        args = (g, spectrum.eigenvalues, spectrum.eigenvectors)
        old = _old_refine_eigenbasis(*args)
        want = old.to_lists()
        refined = refine_eigenbasis(*args)
        assert repr(refined.to_lists()) == repr(want)
        assert [[type(x) for x in row] for row in refined.to_lists()] == [[F] * g.rows] * g.rows
        frame = flags_module._bottom_normalized(refine_eigenbasis(*args))
        _assert_kernel_output(frame, _old_bottom_normalized(old).to_lists())


def _refinement_corpus():
    """Canonical comparison matrices at n = 2..8 (odd n: the middle eigenvalue 1 is an
    exact shift), both stable-flag composites, and entries 1e-40 and 1e-100 of their
    column's largest."""
    rng = random.Random(2026)
    corpus = []
    for n in range(2, 9):
        g = random_tp_matrix(n, rng)
        a = g.transpose()
        corpus += [tilde(a) @ a, g, g @ tilde(g)]
    return corpus + [Matrix([[x, 1], [x + 1, 2 * x]]) for x in (10**39 + 3, 10**100 + 3)]


def _rayleigh(m, x):
    return sum(p * q for p, q in zip(x, m.apply(x))) / F(sum(p * p for p in x))


def test_refinement_on_integers_matches_the_fraction_path(monkeypatch):
    kernels = []
    monkeypatch.setattr(spectra, "nullspace", lambda m: kernels.append(m.rows) or nullspace(m))
    for exact in _refinement_corpus():
        spectrum = gk_spectrum(exact)
        # the float copy too, refined as its dyadic copy with the same float eigenbasis
        for m in (exact, exact.to_float()):
            args = (m, spectrum.eigenvalues, spectrum.eigenvectors)
            got, want = refine_eigenbasis(*args).to_lists(), _old_refine_eigenbasis(*args).to_lists()
            assert repr(got) == repr(want)
            assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]
        # verify_gk's Rayleigh quotients, which ignore the scale of the step
        start = [10 + (3 * i * i + i) % 7 for i in range(exact.rows)]
        for value in spectrum.eigenvalues:
            new, old = (x or start for x in (spectra._inverse_step(_cleared(exact), value, start),
                                             _old_inverse_step(exact, value, start)))
            assert _rayleigh(exact, new) == _rayleigh(exact, old)
    # the singular shift 1 of each odd-n comparison matrix and tilde composite, in the
    # refinement and the step; their float copies' dyadic values lack it
    assert sorted(kernels) == [n for n in (3, 5, 7) for _ in range(4)]


def _per_entry_refine_eigenbasis(m, eigenvalues, vectors):
    """refine_eigenbasis with one Fraction built per entry: the same integer steps and
    roundings, its columns stored as entries, not as their integer form."""
    form = _cleared(m)
    start = spectra._rationalize_columns(vectors)
    top = spectra._MAX_DENOMINATOR
    columns = []
    for j in range(m.rows):
        col = start.col_tuple(j)
        z = spectra._inverse_step(form, eigenvalues[j], linalg._cleared_line(col)[0])
        if z is None:
            columns.append(col)
            continue
        pivot = max(z, key=abs)
        rounded = [spectra._limited(x, pivot, top) for x in z]
        columns.append([F(*(y if y[0] or not x else
                            spectra._limited(x, pivot, top * -(-abs(pivot) // abs(x)))))
                        for x, y in zip(z, rounded)])
    return Matrix._of(list(zip(*columns)))


def _refinement_inputs():
    """The refinement corpus, every tenth criterion 7 matrix and a kept column, each with
    the float copy of its matrix."""
    cases = [(m, gk_spectrum(m)) for m in _refinement_corpus() + _criterion_7_corpus()[::10]]
    cases = [(m, s.eigenvalues, s.eigenvectors) for m, s in cases]
    # the identity's kernel at the shift 1 is not a line: both columns are kept
    cases.append((Matrix.identity(2), (1, 1), Matrix([[0.6, -0.8], [0.8, 0.6]])))
    return cases + [(m.to_float(), *rest) for m, *rest in cases]


def test_refined_columns_read_as_the_per_entry_build():
    for args in _refinement_inputs():
        got, want = refine_eigenbasis(*args), _per_entry_refine_eigenbasis(*args)
        assert not _entries_built(got)
        rows = got.to_lists()
        assert repr(rows) == repr(want.to_lists())
        assert {type(x) for row in rows for x in row} == {F}
        assert got == want and hash(got) == hash(want)


def test_a_refined_eigenbasis_is_cleared_by_its_columns():
    for args in _refinement_inputs():
        v = refine_eigenbasis(*args)
        a, r, c = form = _cleared(v)
        assert form is v._form and list(r) == [1] * v.rows
        for j, col in enumerate(zip(*_per_entry_refine_eigenbasis(*args).to_lists())):
            # column j over the lcm of its denominators
            assert c[j] == math.lcm(*(x.denominator for x in col))
            assert [row[j] for row in a] == [x * c[j] for x in col]


def test_stable_flags_and_canonical_bases_build_no_eigenbasis_entry(monkeypatch):
    from totpos import bilinear
    from totpos.sampling import random_positive_form

    bases = []

    def spy(*args):
        bases.append(refine_eigenbasis(*args))
        return bases[-1]

    monkeypatch.setattr(flags_module, "refine_eigenbasis", spy)
    monkeypatch.setattr(bilinear, "refine_eigenbasis", spy)
    rng = random.Random(2406)
    for n in range(2, 7):
        g = random_tp_matrix(n, rng)
        for m in (g, g.to_float()):
            for mode in ("identity", "tilde"):
                flags_module.stable_flags(m, mode)
        bilinear.canonical_basis(random_positive_form(n, rng))
    assert len(bases) == 25
    assert not any(_entries_built(v) for v in bases)


def test_quadruple_frames_match_checked_builds():
    rng = random.Random(2404)
    compared = 0
    for n in (3, 4, 5, 6):
        for _ in range(6):
            values = set()
            while len(values) < 4:
                values.add(F(rng.randint(-12, 12), rng.randint(1, 3)))
            curve = MomentCurve(n - 1)
            quad = [curve.flag_at(CirclePoint(v)) for v in sorted(values)]
            # the reference pair of a positive and of a corrupted quadruple
            for f1, f3 in ((quad[0], quad[2]), (quad[0], quad[1])):
                lower = flags_module._relative_ldu(f1, f3)[0]
                frame = Matrix((f1.rep @ _flipped(lower, True, True)).to_lists())
                _assert_kernel_output(adapted_basis(f1, f3), _old_bottom_normalized(frame).to_lists())
                compared += 1
    assert compared == 48


# -- the saving itself -------------------------------------------------------------


def test_stable_flags_and_frames_never_multiply_entrywise(monkeypatch):
    rng = random.Random(2405)
    maps = [random_tp_matrix(n, rng) for n in range(2, 7) for _ in range(2)]
    pairs = []
    for n in range(2, 7):
        cell = random_positive_cell_flag(n, rng)
        primed = Flag(inverse(synthesize_uni(random_uni_params(n, rng, side="lower", strict=True))))
        pairs += [(cell, primed), (primed, cell)]
    assert all(opposed(*p) for p in pairs)

    def results():
        return [flags_module.stable_flags(g) for g in maps], [adapted_basis(*p) for p in pairs]

    want = results()
    products = []
    real = Matrix.__matmul__

    def spy(a, b):
        products.append(p := real(a, b))
        return p

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    got = results()
    exact = [p for p in products if p.is_exact]
    assert len(exact) >= 2 * len(maps) + len(pairs)
    assert not any(_entries_built(p) for p in exact)
    assert _typed(got) == _typed(want)
    assert got == want


def test_products_and_views_hold_no_operand():
    a = Matrix([[1, F(1, 2)], [3, 4]])
    b = inverse(Matrix([[2, 1], [1, 1]]))
    counts = sys.getrefcount(a), sys.getrefcount(b)
    p = a @ b
    det(p)
    t = b.transpose()
    assert (sys.getrefcount(a), sys.getrefcount(b)) == counts
    assert p.to_lists() == [[F(1, 2), 0], [-1, 5]] and t.to_lists() == [[1, -1], [-1, 2]]


# -- a grid of ints is its own integer form -----------------------------------


def _oracle_cleared(*blocks):
    """The clearing rule before grids of ints were read as their own form: every
    grid pays both lcms and is rebuilt."""
    if len(blocks) > 1:
        forms = [_oracle_cleared(b) for b in blocks]
        row_den = [math.lcm(*r) for r in zip(*(f[1] for f in forms))]
        a = [[x * k for f in forms for k in [r // f[1][i]] for x in f[0][i]]
             for i, r in enumerate(row_den)]
        return a, row_den, [c for f in forms for c in f[2]]
    (rows,) = blocks
    if isinstance(rows, Matrix):
        if rows._form:
            return rows._form
        rows = rows.to_exact()._entries
    row_den = [math.lcm(*(x.denominator for x in row)) for row in rows]
    col_den = [math.lcm(*(x.denominator for x in col)) for col in zip(*rows)]
    if sum(d.bit_length() for d in row_den) <= sum(d.bit_length() for d in col_den):
        col_den = [1] * len(col_den)
    else:
        row_den = [1] * len(row_den)
    return [[x.numerator * (r * c // x.denominator) for x, c in zip(row, col_den)]
            for row, r in zip(rows, row_den)], row_den, col_den


def _int_grids(rng):
    yield [[7]]
    yield [[0]]
    yield [[-(2**1100) - 3]]
    for n, m in [(1, 4), (3, 1), (2, 2), (3, 5), (6, 6), (8, 8)]:
        yield [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        yield [[0] * m for _ in range(n)]
        yield [[rng.getrandbits(1100) - 2**1099 for _ in range(m)] for _ in range(n)]
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        rows[rng.randrange(n)] = [0] * m
        yield rows


def _same_form(got, want):
    a, r, c = got
    assert [list(row) for row in a] == [list(row) for row in want[0]]
    assert (list(r), list(c)) == (list(want[1]), list(want[2]))
    assert all(type(x) is int for row in a for x in row)


def test_int_grids_are_their_own_form_and_match_the_clearing_rule():
    rng = random.Random(3201)
    for rows in _int_grids(rng):
        form = _cleared(rows)
        assert form[0] is rows  # no copy
        _same_form(form, _oracle_cleared(rows))
        _same_form(_cleared(Matrix(rows)), _oracle_cleared(Matrix(rows)))
        fractions = [[F(x, rng.choice([1, 1, 2, 3, 7])) for x in row] for row in rows]
        kernel = _solve_exact(Matrix.identity(len(rows)), Matrix(fractions))
        blocks = [rows, Matrix(rows), fractions, Matrix(fractions), kernel]
        for i, j in [(0, 2), (2, 0), (1, 3), (0, 1), (3, 4), (4, 0)]:
            _same_form(_cleared(blocks[i], blocks[j]), _oracle_cleared(blocks[i], blocks[j]))
        _same_form(_cleared(rows, fractions, rows), _oracle_cleared(rows, fractions, rows))
    # an integral Fraction, or a bool in rows a kernel was handed, takes the general path
    for rows in ([[1, F(3)], [2, 5]], [[F(3)]], [[True, 2], [0, 1]]):
        form = _cleared(rows)
        assert form[0] is not rows
        _same_form(form, _oracle_cleared(rows))


def test_kernels_leave_the_int_rows_they_are_handed_unchanged():
    rng = random.Random(3202)
    for n in range(1, 7):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n > 2:
            rows[-1] = [0] * n
        rhs = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(n)]
        w = [rng.randint(1, 9) for _ in range(n)]
        before = [list(row) for row in rows], [list(row) for row in rhs], list(w)
        m = Matrix(rows)
        _bareiss(rows)
        _bareiss(rows, reduce=True)
        _bareiss(rows, rhs, reduce=True)
        _columns(_cleared(rows))
        for value in (F(1, 3), rows[0][0], 0):  # a diagonal entry may be an eigenvalue
            spectra._inverse_step(_cleared(rows), value, w)
        spectra._inverse_step(_cleared([[2] + [0] * (n - 1)] + [[0] * n] * (n - 1)), 2, w)
        if det(m) != 0:
            _solve_exact(m, rhs)
            inverse(m)
        det(m), rank(m), nullspace(m), gauss_ldu(m)
        assert ([list(row) for row in rows], [list(row) for row in rhs], list(w)) == before
        assert m == Matrix(before[0])


def _integer_matrices(rng):
    """Seeded int matrices at n = 1..8: the quick rejects of the certify
    bench, Vandermonde and Pascal matrices, singular ones and zero rows."""
    for n in range(1, 9):
        yield [[i**j for j in range(n)] for i in range(1, n + 1)]
        yield [[math.comb(i + j, i) for j in range(n)] for i in range(n)]
        for _ in range(3):
            rows = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
            rows[rng.randrange(n)][rng.randrange(n)] *= -1
            yield rows
            if n > 1:
                rows = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
                r1, r2 = sorted(rng.sample(range(n), 2))
                c1, c2 = sorted(rng.sample(range(n), 2))
                rows[r1][c1], rows[r2][c2], rows[r1][c2], rows[r2][c1] = 1, 1, 9, 9
                yield rows
            yield [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        rows = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        yield rows[:-1] + [list(rows[0])] if n > 1 else [[0]]  # a repeated row
        yield [[0] * n] + rows[1:]
        yield [[i * j for j in range(1, n + 1)] for i in range(1, n + 1)]  # rank one


VERDICTS = {
    "classify": classify,
    "is_totally_positive": is_totally_positive,
    "is_totally_nonnegative": is_totally_nonnegative,
    "monoid_generate_check": monoid_generate_check,
    "det": det,
    "rank": rank,
    "gauss_ldu": gauss_ldu,
    "factorize": factorize,
}


def test_int_matrices_get_the_verdicts_of_their_fraction_copies():
    for rows in _integer_matrices(random.Random(3203)):
        m, copy = Matrix(rows), Matrix([[F(x) for x in row] for row in rows])
        assert _cleared(copy)[0] is not copy._entries  # the copy takes the general path
        for name, verdict in VERDICTS.items():
            got, want = _outcome(verdict, m), _outcome(verdict, copy)
            assert (_typed(got[0]), got[1]) == (_typed(want[0]), want[1]), (name, rows)


def test_quick_rejects_of_int_matrices_take_no_lcm(monkeypatch):
    rng = random.Random(3204)
    rows = [[rng.randint(1, 9) for _ in range(6)] for _ in range(6)]
    rows[0][:2], rows[1][:2] = [1, 9], [9, 1]  # the leading 2x2 minor is -80
    m = Matrix(rows)
    assert det(m) != 0
    calls = []
    real = linalg.math.lcm
    monkeypatch.setattr(linalg.math, "lcm", lambda *args: calls.append(args) or real(*args))
    assert not is_totally_positive(m) and not monoid_generate_check(m)
    assert calls == []
    # the spy sees the general path's lcms
    assert not is_totally_positive(Matrix([[F(x) for x in row] for row in rows]))
    assert calls
