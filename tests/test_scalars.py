"""Scalar parsing, formatting, and the float zero band."""

import math
from fractions import Fraction as F

import pytest

from totpos.errors import InputError
from totpos.scalars import (
    as_fraction,
    format_scalar,
    is_exact_scalar,
    is_zero,
    minor_scale,
    parse_scalar,
    sign_of,
    zero_threshold,
)


def test_parse_scalar_exact():
    assert parse_scalar("3") == F(3)
    assert parse_scalar("-1/2") == F(-1, 2)
    assert parse_scalar("0.25") == F(1, 4)
    with pytest.raises(InputError):
        parse_scalar("seven")
    with pytest.raises(InputError):
        parse_scalar("1/0")


def test_parse_scalar_float():
    x = parse_scalar("1/4", exact=False)
    assert isinstance(x, float) and x == 0.25
    with pytest.raises(InputError, match="outside the float range"):
        parse_scalar("1e400", exact=False)
    assert parse_scalar("1e400") == 10**400


def test_parse_scalar_bounds_decimal_exponent():
    assert parse_scalar("1e4300") == 10**4300
    assert parse_scalar("1E-0004300") == F(1, 10**4300)
    for text in ("1e4301", "2.5E-4301", "1e4_301", "1e100000000"):
        for exact in (True, False):
            with pytest.raises(InputError, match="decimal exponent beyond 4300"):
                parse_scalar(text, exact=exact)


def test_parse_scalar_bounds_digits():
    # the digits of a mantissa count together, each side of p/q apart
    for text in ("7" * 4300, "7" * 2150 + "." + "7" * 2150 + "e-9", "7" * 4300 + "/" + "3" * 4300):
        assert parse_scalar(text) == F(text)
    for text in ("7" * 4301, "7" * 2150 + "." + "7" * 2151, "1/" + "3" * 4301, "7_" * 4301):
        for exact in (True, False):
            with pytest.raises(InputError, match="more than 4300 digits") as exc:
                parse_scalar(text, exact=exact)
            assert len(str(exc.value)) < 80


def test_minor_scale_saturates():
    assert minor_scale(0.5, 3) == 1.0
    assert minor_scale(2.0, 3) == 8.0
    assert minor_scale(1e100, 4) == math.inf


def test_format_round_trip():
    for text in ("3", "-5", "1/2", "-7/3"):
        assert format_scalar(parse_scalar(text)) == text
    assert format_scalar(0.5) == "0.5"


def test_as_fraction():
    assert as_fraction(3) == F(3)
    assert as_fraction(0.5) == F(1, 2)
    assert as_fraction(F(2, 7)) == F(2, 7)


def test_is_exact_scalar():
    assert is_exact_scalar(3)
    assert is_exact_scalar(F(1, 3))
    assert not is_exact_scalar(0.5)
    assert not is_exact_scalar(True)  # bools are not numbers here


def test_zero_band():
    assert is_zero(5e-10, 0.0)
    assert not is_zero(5e-9, 0.0)
    # relative part grows with scale
    assert is_zero(5e-4, 1e6)
    assert not is_zero(5e-3, 1e6)


@pytest.mark.parametrize("s", [0.0, 1.0, 9.0, 1e6, 1e300, math.inf])
def test_zero_threshold_is_pinned(s):
    # bit for bit the band every float verdict has been read against
    assert zero_threshold(s).hex() == (1e-9 + 1e-9 * abs(s)).hex()


def test_sign_of_exact_is_strict():
    assert sign_of(F(1, 10**12)) == 1
    assert sign_of(F(0)) == 0
    assert sign_of(-F(1, 10**12)) == -1
    # exact signs never read the scale, not even an infinite one
    assert sign_of(F(1, 10**12), math.inf) == 1


def test_nan_is_inside_every_band():
    # NaN is neither side of the band, so it reads as zero, never as negative
    assert is_zero(math.nan, 1.0) and is_zero(math.nan, math.inf)
    assert sign_of(math.nan) == 0


def test_sign_of_float_flattens_band():
    assert sign_of(1e-12) == 0
    assert sign_of(1e-3) == 1
    assert sign_of(-1e-3) == -1
    assert sign_of(1e-3, 1e6) == 0


def _scalar_argument_calls():
    from totpos.bilinear import BilinearForm
    from totpos.classify import sign_variation, variation_diminishes_on
    from totpos.curves import CirclePoint
    from totpos.linalg import Matrix, solve

    m = Matrix([[1, 1], [1, 2]])
    return {
        "sign_variation nan": lambda: sign_variation([math.nan, 1.0]),
        "sign_variation inf": lambda: sign_variation([math.inf, -1.0]),
        "solve bool": lambda: solve(m, [True, 1]),
        "solve str": lambda: solve(m, ["a", 1]),
        "apply str": lambda: m.apply([1, "2"]),
        "apply nan": lambda: m.apply([math.nan, 1.0]),
        "variation_diminishes_on str": lambda: variation_diminishes_on(m, [1, "2"]),
        "pair first bool": lambda: BilinearForm(m).pair([True, 0], [1, 0]),
        "pair second str": lambda: BilinearForm(m).pair([1, 0], ["1", 0]),
        "at bool": lambda: CirclePoint.at(True),
        "at str": lambda: CirclePoint.at("1/2"),
        "at nan": lambda: CirclePoint.at(math.nan),
        "from_angle bool": lambda: CirclePoint.from_angle(True),
        "from_angle inf": lambda: CirclePoint.from_angle(math.inf),
    }


@pytest.mark.parametrize("case", sorted(_scalar_argument_calls()))
def test_scalar_arguments_follow_the_entry_rule(case):
    # the matrix entry rule, with its messages, for every scalar argument
    with pytest.raises(InputError, match="is not a supported scalar|must be finite"):
        _scalar_argument_calls()[case]()
