"""Command-line interface: output shapes, determinism, exit codes."""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from totpos.cli import main


@pytest.fixture()
def vandermonde(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1 1 1\n1 2 4\n1 3 9\n")
    return str(path)


@pytest.fixture()
def gram(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 7\n-1 -2\n")
    return str(path)


def test_classify_text(vandermonde, capsys):
    assert main(["classify", vandermonde]) == 0
    out = capsys.readouterr().out
    assert "kind: TotallyPositive" in out
    assert "oscillatory exponent: 1" in out
    assert "input sha256:" in out


def test_classify_json(vandermonde, capsys):
    assert main(["classify", vandermonde, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "TotallyPositive"
    assert data["oscillatory_exponent"] == 1
    assert len(data["input_sha256"]) == 64


def test_factor_and_resynthesize(vandermonde, tmp_path, capsys):
    assert main(["factor", vandermonde, "--json"]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["word"] == [1, 2, 1]
    assert params["a"] == ["1/2", "2", "1/2"]
    assert params["t"] == ["1", "1", "2"]
    assert params["b"] == ["1/3", "3", "2/3"]
    # round trip through synth --params
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params))
    assert main(["synth", "--params", str(pfile)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == ["1 1 1", "1 2 4", "1 3 9"]


def test_synth_seeded_deterministic(capsys):
    assert main(["synth", "--n", "3", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["synth", "--n", "3", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first


def test_spectrum(vandermonde, capsys):
    assert main(["spectrum", vandermonde, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["report"]
    assert data["passed"] is True
    assert len(data["eigenvalues"]) == 3


def test_canonical_form(gram, capsys):
    assert main(["canonical-form", gram, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["result"]
    assert data["comparison"]["entries"] == [["7", "16"], ["24", "55"]]


def test_tilde_command(vandermonde, capsys):
    assert main(["tilde", vandermonde]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["1/2", "3/2", "1"]


def test_flag_pos(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("1 0\n2 1\n")
    assert main(["flag-pos", str(path)]) == 0
    out = capsys.readouterr().out
    assert "positive cell: yes" in out
    assert "primed cell: no" in out


def test_flag_pos_float_backend_answers(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("-0.2 -0.48 -0.12 1\n0 -1 1 0\n1 1 0 0\n1 0 0 0\n")
    assert main(["flag-pos", str(path), "--backend", "float"]) == 0
    out = capsys.readouterr().out
    assert "positive cell: no" in out
    assert "primed cell: no" in out


def test_opposed(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("1 0\n0 1\n")
    b = tmp_path / "b.txt"
    b.write_text("0 1\n1 0\n")
    assert main(["opposed", str(a), str(b)]) == 0
    assert "opposed: yes" in capsys.readouterr().out
    assert main(["opposed", str(a), str(a)]) == 0
    assert "opposed: no" in capsys.readouterr().out


def test_stable_flags_command(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 1\n1 1\n")
    assert main(["stable-flags", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["pair"]
    assert data["sigma_mode"] == "identity"
    assert data["margin"] > 0


def test_quadruple_command(tmp_path, capsys):
    from fractions import Fraction as F

    from totpos.curves import CirclePoint, MomentCurve, osculating_flag
    from totpos.serialization import format_matrix_grid

    paths = []
    for i, t in enumerate((0, 1, 2, 3)):
        flag = osculating_flag(MomentCurve(2), CirclePoint.at(F(t)))
        p = tmp_path / f"f{i}.txt"
        p.write_text(format_matrix_grid(flag.rep) + "\n")
        paths.append(str(p))
    assert main(["quadruple", *paths, "--points", "0,1,2,3"]) == 0
    assert "positive quadruple: yes" in capsys.readouterr().out


def test_curve_check_command(capsys):
    assert main(["curve-check", "--degree", "2", "--samples", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["report"]
    assert data["ok"] is True and data["total"] == 5


def test_convex_check_command(capsys):
    assert main(["convex-check", "--degree", "2", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "bound respected: True" in out


def test_exit_code_domain_error(tmp_path, capsys):
    path = tmp_path / "neg.txt"
    path.write_text("1 -2\n3 4\n")
    assert main(["factor", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("abc\n")
    assert main(["classify", str(path)]) == 2
    assert main(["classify", str(tmp_path / "missing.txt")]) == 2


def test_float_backend_with_tolerance(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1 1 1\n1 2 4\n1 3 9\n")
    assert main(["classify", str(path), "--backend", "float"]) == 0
    assert "TotallyPositive" in capsys.readouterr().out


def test_synth_params_require_word(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"n": 2, "a": ["1"], "t": ["1", "1"], "b": ["1"]}))
    assert main(["synth", "--params", str(pfile)]) == 2
    assert "missing field 'word'" in capsys.readouterr().err


def test_float_overflow_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1e400 1\n1 1\n")
    assert main(["classify", str(path), "--backend", "float"]) == 2
    assert "outside the float range" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_non_finite_json_entry_is_input_error(tmp_path, capsys, backend):
    path = tmp_path / "huge.json"
    path.write_text("[[1e400, 1], [1, 1]]\n")
    assert main(["classify", str(path), "--backend", backend]) == 2
    assert capsys.readouterr().err == (
        "error: JSON matrix entries must be finite numbers, got inf\n"
    )


def test_exact_entry_past_float_range_classifies(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1e400 1\n1 1\n")
    assert main(["classify", str(path)]) == 0
    assert "kind: TotallyPositive" in capsys.readouterr().out
    path.write_text("1e400 1\n1e400 1\n")  # singular: the minor scan decides
    assert main(["classify", str(path)]) == 0
    assert "kind: TotallyNonNegativeOnly" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_huge_decimal_exponent_is_input_error(tmp_path, capsys, backend):
    path = tmp_path / "huge.txt"
    path.write_text("1e100000000 1\n1 -3.5E-4301\n")
    assert main(["classify", str(path), "--backend", backend]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "decimal exponent beyond 4300" in err


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("sigma", ["identity", "tilde"])
def test_stable_flags_one_by_one_is_input_error(tmp_path, capsys, backend, sigma):
    path = tmp_path / "one.txt"
    path.write_text("5\n")
    args = ["stable-flags", str(path), "--sigma", sigma, "--backend", backend]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1x1" in err
    assert "Traceback" not in err


def test_minor_table_cap_is_input_error(tmp_path, capsys):
    # the symmetric Pascal matrix C(i+j, i) is totally positive
    path = tmp_path / "pascal14.txt"
    rows = (" ".join(str(math.comb(i + j, i)) for j in range(14)) for i in range(14))
    path.write_text("\n".join(rows))
    assert main(["classify", str(path), "--backend", "float"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "past the cap of 2,704,155" in err
    assert "Traceback" not in err
    assert main(["classify", str(path)]) == 0  # exact: the factorization decides
    assert "kind: TotallyPositive" in capsys.readouterr().out


def test_zero_pivot_past_the_table_cap(tmp_path, capsys):
    pascal = [[math.comb(i + j, i) for j in range(14)] for i in range(14)]
    path = tmp_path / "reversed14.txt"
    reversal = [row[::-1] for row in pascal]
    reversal[0][0] = 0  # invertible with a zero pivot: Neither in O(n^3)
    path.write_text("\n".join(" ".join(map(str, row)) for row in reversal))
    assert main(["classify", str(path)]) == 0
    assert "kind: Neither" in capsys.readouterr().out
    pascal[0] = [0] * 14  # singular with a zero pivot: the table is refused
    path.write_text("\n".join(" ".join(map(str, row)) for row in pascal))
    assert main(["classify", str(path)]) == 2
    assert "past the cap of 2,704,155" in capsys.readouterr().err


_NO_ARITHMETIC = {
    "synth": ["synth", "--n", "3"],
    "quadruple": ["quadruple", "a", "b", "c", "d", "--points", "0,1,2,3"],
    "curve-check": ["curve-check", "--degree", "2"],
    "convex-check": ["convex-check", "--degree", "2"],
}


# argparse refuses an unknown option before any input file is read
_ARITHMETIC = {
    command: [command, "m.txt"]
    for command in (
        "classify", "factor", "spectrum", "canonical-form", "tilde", "flag-pos",
        "stable-flags",
    )
} | {"opposed": ["opposed", "a.txt", "b.txt"]}


@pytest.mark.parametrize("command", sorted(_ARITHMETIC))
def test_tolerance_option_is_unrecognized(command, capsys):
    # the float zero band is one fixed rule; no subcommand takes a tolerance
    with pytest.raises(SystemExit) as exc:
        main([*_ARITHMETIC[command], "--backend", "float", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--backend", "float"], ["--tol", "1e-8"]])
@pytest.mark.parametrize("command", sorted(_NO_ARITHMETIC))
def test_commands_without_arithmetic_refuse_its_options(command, option, capsys):
    # these commands read no float backend and no tolerance
    with pytest.raises(SystemExit) as exc:
        main([*_NO_ARITHMETIC[command], *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


# -- fuzzing -------------------------------------------------------------------

_TOKENS = st.one_of(
    st.integers(-5, 9).map(str),
    st.sampled_from(
        ["1/2", "-3/4", "0.25", "1e3", "2.5e-3", "1e308", "1e400", "-1e-400",
         "1e4301", "1e100000000", "1/0", "nan", "inf", "-inf", "abc", "0x10",
         "1_000", "--", "1.2.3", "#", "9" * 5000]
    ),
)
_CELLS = st.one_of(
    st.integers(-5, 9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**5000, 10**400, True, None, "1/3", "x", [], {}]),
)


def _grid_text(rows):
    return "\n".join(" ".join(row) for row in rows) + "\n"


def _json_text(rows):
    # json.dumps writes NaN and Infinity literals, and the digits of huge ints
    with _int_digits(6000):
        return json.dumps(rows)


@contextlib.contextmanager
def _int_digits(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


_SQUARE = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_TOKENS, min_size=n, max_size=n), min_size=n, max_size=n)
)
_RAGGED = st.lists(st.lists(_TOKENS, min_size=1, max_size=4), min_size=1, max_size=4)
_MATRIX_TEXT = st.one_of(
    _SQUARE.map(_grid_text),
    _RAGGED.map(_grid_text),
    st.lists(st.lists(_CELLS, max_size=4), max_size=4).map(_json_text),
    st.sampled_from(["", "[", "{}", '{"entries": [[1]]}', "[[1, 2], [3]]", "[" * 5000]),
    st.text(max_size=40),
)
_MATRIX_COMMANDS = [
    ["classify"], ["factor"], ["spectrum"], ["canonical-form"], ["tilde"],
    ["flag-pos"], ["stable-flags"], ["stable-flags", "--sigma", "tilde"],
]


def _run_cleanly(argv, as_json):
    if as_json:
        argv = [*argv, "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert "error: " in err.getvalue()
    elif as_json:
        json.loads(out.getvalue())


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.sampled_from(_MATRIX_COMMANDS + [["opposed"], ["quadruple"]]),
    _MATRIX_TEXT,
    _MATRIX_TEXT,
    st.sampled_from(["exact", "float"]),
    st.booleans(),
)
def test_cli_fuzz_exits_cleanly(command, first, second, backend, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate((first, second)):
            path = Path(tmp) / f"m{i}"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        if command == ["opposed"]:
            argv = ["opposed", *paths]
        elif command == ["quadruple"]:
            argv = ["quadruple", *paths, *paths, "--points", "0,1,2,inf"]
        else:
            argv = [*command[:1], paths[0], *command[1:]]
        if command != ["quadruple"]:
            argv += ["--backend", backend]
        _run_cleanly(argv, as_json)


_PARAMS_TEXT = st.one_of(
    st.dictionaries(
        st.sampled_from(["n", "word", "a", "t", "b", "strict"]),
        st.one_of(_CELLS, st.lists(_CELLS, max_size=4)),
    ).map(_json_text),
    _MATRIX_TEXT,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_PARAMS_TEXT, st.booleans())
def test_cli_fuzz_synth_params_exit_cleanly(text, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.json"
        path.write_text(text, encoding="utf-8")
        _run_cleanly(["synth", "--params", str(path)], as_json)


def test_power_cap_below_one_is_input_error(vandermonde, capsys):
    assert main(["classify", vandermonde, "--power-cap", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: m_max must be an int >= 1, got 0\n"


@pytest.mark.parametrize("command", ["spectrum", "stable-flags", "canonical-form"])
def test_values_past_the_float_range_are_input_errors(tmp_path, capsys, command):
    # a totally positive matrix, and for canonical-form the Gram matrix of
    # a positive form, scaled past the float range
    rows = [[1, 1, 1], [1, 2, 4], [1, 3, 9]] if command != "canonical-form" else [
        [3, 7], [-1, -2]
    ]
    path = tmp_path / "huge.txt"
    path.write_text("\n".join(" ".join(f"{x}e400" for x in row) for row in rows))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "outside the float range" in err
    assert err.count("\n") == 1 and "Traceback" not in err
