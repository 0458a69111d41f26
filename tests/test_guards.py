"""Shape guards and edge inputs: each refusal is an InputError naming its rule."""

import random
from fractions import Fraction as F

import pytest

from totpos.bilinear import A_to_form, tilde
from totpos.classify import (
    TPClass,
    TPKind,
    classify,
    is_oscillatory,
    is_totally_nonnegative,
    is_totally_positive,
    is_variation_diminishing,
    monoid_generate_check,
    sign_variation,
    variation_diminishes_on,
)
from totpos.curves import (
    CirclePoint,
    DihedralQuadruple,
    MomentCurve,
    TableFlagCurve,
    is_positive_curve_sampled,
    is_positive_quadruple,
)
from totpos.errors import InputError
from totpos.flags import identity_component_check, opposed, stable_flags, standard_flag
from totpos.linalg import (
    Matrix,
    compound,
    det,
    index_set,
    inverse,
    minor,
    minor_levels,
    solve,
)
from totpos.sampling import random_invertible
from totpos.scalars import parse_scalar
from totpos.serialization import payload
from totpos.spectra import gk_spectrum, perron, refine_eigenbasis
from totpos.whitney import TPParameters, UniParams, gauss_ldu, membership_uni

RECT = Matrix([[1, 2, 3], [4, 5, 6]])
SQ2 = Matrix([[2, 1], [1, 2]])
SQ3 = Matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
_PTS = [CirclePoint.at(v) for v in range(5)]
_FLAGS = [MomentCurve(2).flag_at(p) for p in _PTS]

# name: (call, a pattern of the message it must raise)
GUARDS = {
    "is_totally_nonnegative": (
        lambda: is_totally_nonnegative(RECT), "total nonnegativity is defined for square"),
    "is_totally_positive": (
        lambda: is_totally_positive(RECT), "total positivity is defined for square"),
    "monoid_generate_check": (
        lambda: monoid_generate_check(RECT), "monoid membership requires a square"),
    "variation_diminishes_on": (
        lambda: variation_diminishes_on(RECT, [1, 2, 3]), "variation tests are defined for square"),
    "variation_diminishes_on length": (
        lambda: variation_diminishes_on(SQ2, [1, 2, 3]), "vector length must match"),
    "is_variation_diminishing": (
        lambda: is_variation_diminishing(RECT), "variation tests are defined for square"),
    "is_oscillatory": (
        lambda: is_oscillatory(RECT), "oscillatory classification is defined for square"),
    "classify": (lambda: classify(RECT), "total positivity is defined for square"),
    "TPClass positive": (lambda: TPClass(TPKind.TOTALLY_POSITIVE, 2), "exponent 1"),
    "TPClass neither": (lambda: TPClass(TPKind.NEITHER, 2), "have no exponent"),
    "sign_variation empty": (lambda: sign_variation([]), "nonempty vector"),
    "parse_scalar blank": (lambda: parse_scalar("  "), "empty scalar"),
    "diagonal": (lambda: Matrix.diagonal([]), "at least one value"),
    "from_columns": (lambda: Matrix.from_columns([]), "at least one column"),
    "matmul": (lambda: RECT @ SQ2, "shape mismatch for product: 2x3 @ 2x2"),
    "add": (lambda: SQ2 + RECT, "shape mismatch"),
    "index_set empty": (lambda: index_set([], 3), "must be nonempty"),
    "index_set float": (lambda: index_set([1.0], 3), "index 1.0 is not an integer"),
    "det": (lambda: det(RECT), "determinant requires a square"),
    "minor sizes": (lambda: minor(SQ3, [1, 2], [1]), "equally sized row and column sets"),
    "minor_levels": (lambda: next(minor_levels(RECT)), "minor tables require a square"),
    "compound": (lambda: compound(RECT, 1), "compound requires a square"),
    "inverse": (lambda: inverse(RECT), "inverse requires a square"),
    "solve": (lambda: solve(RECT, [1, 2]), "solve requires a square"),
    "solve length": (lambda: solve(SQ2, [1]), "right-hand side length mismatch"),
    "A_to_form": (lambda: A_to_form(RECT), "comparison matrix must be square"),
    "tilde": (lambda: tilde(RECT), "twist involution requires a square"),
    "opposed dimensions": (lambda: opposed(standard_flag(2), standard_flag(3)), "same dimension"),
    "stable_flags": (lambda: stable_flags(RECT), "stable flags require a square"),
    "identity_component_check": (
        lambda: identity_component_check(RECT, None), "component check requires a square"),
    "perron": (lambda: perron(RECT), "Perron data requires a square"),
    "gk_spectrum": (lambda: gk_spectrum(RECT), "spectral analysis requires a square"),
    "refine_eigenbasis": (lambda: refine_eigenbasis(RECT, (1.0, 2.0), Matrix.identity(2)),
                          "eigenbasis refinement requires a square"),
    "refine_eigenbasis shape": (lambda: refine_eigenbasis(SQ2, (1.0,), Matrix.identity(2)),
                                "eigenbasis shape does not match"),
    "TPParameters word length": (
        lambda: TPParameters(2, (), (), (1, 1), ()), r"word length must be n\(n-1\)/2 = 1"),
    "UniParams word length": (
        lambda: UniParams(3, (1, 2), "lower", (1,), True), "must match the word length"),
    "gauss_ldu": (lambda: gauss_ldu(RECT), "decomposition requires a square"),
    "membership_uni": (lambda: membership_uni(RECT, "lower"), "membership requires a square"),
    "random_invertible": (lambda: random_invertible(0, random.Random(0)), "need n >= 1"),
    "table duplicate point": (
        lambda: TableFlagCurve([(_PTS[0], f) for f in _FLAGS]), "duplicate sample point 0"),
    "table dimensions": (lambda: TableFlagCurve(list(zip(_PTS, _FLAGS[:4] + [standard_flag(4)]))),
                         "share one dimension"),
    "quadruple repeated points": (
        lambda: is_positive_quadruple(_FLAGS[:4], DihedralQuadruple((*_PTS[:3], _PTS[0]), ())),
        "quadruple points must be distinct"),
    "curve three points": (lambda: is_positive_curve_sampled(MomentCurve(2), points=_PTS[:3]),
                           "at least four sample points"),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guards_refuse_with_their_rule(name):
    call, message = GUARDS[name]
    with pytest.raises(InputError, match=message):
        call()


def test_matrix_comparisons_with_other_types_and_shapes():
    assert (Matrix([[3]]) == 3) is False
    assert Matrix([[3]]).__eq__(3) is NotImplemented
    assert Matrix.identity(2).approx_equal(Matrix.identity(3)) is False


@pytest.mark.parametrize("key", [5, (), ((1,),), ((1,), (1,), (1,))], ids=repr)
def test_minor_table_refuses_malformed_keys_as_missing(key):
    _, table = next(minor_levels(SQ2))
    with pytest.raises(KeyError):
        table[key]
    assert table.get(key) is None and key not in table
    assert table[(1,), (2,)] == 1


def test_payload_of_an_unlisted_type_is_its_text():
    assert payload(F(1, 2)) == "1/2"
    assert payload(1 + 2j) == "(1+2j)"
