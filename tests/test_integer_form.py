"""Integer forms of kernel outputs: entries checked at the boundary, built
when read, and identical to those of a checked copy of the same input."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction as F

import pytest

from totpos import flags as flags_module
from totpos.bilinear import tilde
from totpos.curves import CirclePoint, MomentCurve, dihedral_partition, is_positive_quadruple
from totpos.errors import InputError
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
from totpos.whitney import factorize, gauss_ldu, membership_uni, synthesize_uni


def _entries_built(m):
    # the slot itself, not Matrix.__getattr__, which would build them
    try:
        Matrix._entries.__get__(m)
    except AttributeError:
        return False
    return True


# -- the upper factor nobody reads ---------------------------------------------


def test_cell_tests_and_frames_never_build_the_upper_factor(monkeypatch):
    uppers = []
    real = flags_module.gauss_ldu

    def spy(m):
        ldu = real(m)
        if ldu is not None:
            uppers.append(ldu[2])
        return ldu

    monkeypatch.setattr(flags_module, "gauss_ldu", spy)
    rng = random.Random(2207)
    verdicts = []
    for n in range(2, 7):
        cell = random_positive_cell_flag(n, rng)
        unit = synthesize_uni(random_uni_params(n, rng, side="lower", strict=True))
        primed = Flag(inverse(unit))
        other = random_flag(n, rng)
        verdicts += [
            in_B_pos(cell) is not None,
            in_B_pos_prime(primed) is not None,
            opposed(cell, primed),
        ]
        in_B_pos(other), in_B_pos_prime(other), opposed(other, cell)
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
    assert len(uppers) > 50
    assert not any(_entries_built(u) for u in uppers)


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
