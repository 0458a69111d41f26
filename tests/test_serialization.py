"""Matrix interchange formats and the JSON payload encoder."""

import json
import sys
from fractions import Fraction as F

import pytest

from totpos.curves import CirclePoint, dihedral_partition
from totpos.errors import InputError
from totpos.linalg import Matrix
from totpos.serialization import (
    format_matrix_grid,
    input_digest,
    parse_matrix,
    parse_matrix_grid,
    parse_matrix_json,
    payload,
)


def test_grid_round_trip():
    m = Matrix([[F(1, 2), F(-3)], [F(7), F(22, 7)]])
    assert parse_matrix_grid(format_matrix_grid(m)) == m


def test_grid_comments_and_blanks():
    text = "# header\n1 2\n\n3 4   # trailing\n"
    assert parse_matrix_grid(text) == Matrix([[1, 2], [3, 4]])


def test_grid_errors():
    with pytest.raises(InputError):
        parse_matrix_grid("# nothing\n")
    with pytest.raises(InputError):
        parse_matrix_grid("1 x\n")
    with pytest.raises(InputError):
        parse_matrix_grid("1 2\n3\n")  # ragged


def test_json_matrix_forms():
    m = parse_matrix_json([[1, "1/2"], [0.25, 2]])
    assert m == Matrix([[1, F(1, 2)], [F(1, 4), 2]])
    wrapped = parse_matrix_json({"entries": [[1, 2], [3, 4]]})
    assert wrapped == Matrix([[1, 2], [3, 4]])
    with pytest.raises(InputError):
        parse_matrix_json([[True]])
    with pytest.raises(InputError):
        parse_matrix_json("nope")
    # a JSON number is read from its text, as the grid reads the same token
    assert parse_matrix("[[1e400, 1], [1, 1]]") == parse_matrix("1e400 1\n1 1")
    with pytest.raises(InputError, match="outside the float range"):
        parse_matrix("[[1e400, 1], [1, 1]]", exact=False)
    for text in ("[[NaN, 1], [1, 1]]", "[[1, -Infinity], [1, 1]]"):
        for exact in (True, False):
            with pytest.raises(InputError, match="cannot parse scalar"):
                parse_matrix(text, exact=exact)


def test_json_int_past_the_digit_bound_is_input_error():
    # repr of such an int raises ValueError past the interpreter's digit
    # limit; with the limit lifted, the scalar rule refuses the digits
    old = sys.get_int_max_str_digits()
    try:
        for limit in (old, 0):
            sys.set_int_max_str_digits(limit)
            for exact in (True, False):
                with pytest.raises(InputError, match="more than 4300 digits"):
                    parse_matrix_json([[10**5000, 1], [1, 1]], exact=exact)
    finally:
        sys.set_int_max_str_digits(old)
    assert parse_matrix_json([[10**4299, 0.1]]) == Matrix([[10**4299, F(1, 10)]])


def test_json_cell_errors_name_the_row_and_column():
    # an int past the digit limit reaches the cell reader only from a direct
    # caller: in JSON text the integer hook refuses it while loading
    cases = [([[1, 2], [3, 10**5000]], "row 2, column 2: integer entry has more than 4300 digits"),
             ([[1, 2, 3], [4, 5, False]], "row 2, column 3: unsupported matrix entry false"),
             ([[1, object]], "row 1, column 2: unsupported matrix entry <class 'object'>"),
             ([["1/0"]], "row 1, column 1: cannot parse scalar '1/0'")]
    for rows, message in cases:
        with pytest.raises(InputError) as info:
            parse_matrix_json(rows)
        assert str(info.value) == message


def test_parse_matrix_autodetect():
    assert parse_matrix("[[1, 2], [3, 4]]") == Matrix([[1, 2], [3, 4]])
    assert parse_matrix("1 2\n3 4\n") == Matrix([[1, 2], [3, 4]])
    with pytest.raises(InputError):
        parse_matrix("[[1, 2], [3, 4]")


def test_parse_matrix_float_backend():
    m = parse_matrix("1/2 1\n0 3\n", exact=False)
    assert not m.is_exact
    assert m[0, 0] == 0.5


def test_digest_is_stable():
    assert input_digest("1 2\n") == input_digest("1 2\n")
    assert input_digest("1 2\n") != input_digest("1 3\n")
    assert len(input_digest("x")) == 64


def test_payload_scalars_and_matrix():
    tree = payload({"x": F(1, 3), "m": Matrix([[1, 0.5]])})
    assert tree["x"] == "1/3"
    assert tree["m"]["entries"] == [[1, 0.5]]
    assert tree["m"]["exact"] is False
    # payload is always JSON-serializable
    json.dumps(tree)


def test_payload_dataclass_with_property():
    from totpos.curves import ConvexReport

    report = ConvexReport(degree=2, trials=5, seed=0, coeff_bound=3, max_count=2)
    tree = payload(report)
    assert tree["ok"] is True
    assert tree["max_count"] == 2
    json.dumps(tree)


def test_payload_quadruple():
    pts = [CirclePoint.at(F(v)) for v in (0, 1, 2, 3)]
    q = dihedral_partition(*pts)
    tree = payload(q)
    assert tree["points"] == ["0", "1", "2", "3"]
    assert sorted(tree["pairs"][0]) in (["0", "2"], ["1", "3"])
    json.dumps(tree)
