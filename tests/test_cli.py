"""Command-line interface: output shapes, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from totpos import cli
from totpos.bilinear import A_to_form
from totpos.classify import classify
from totpos.cli import main
from totpos.curves import CirclePoint, MomentCurve, TableFlagCurve
from totpos.flags import flag_from_matrix
from totpos.linalg import Matrix
from totpos.errors import InputError
from totpos.sampling import random_tp_matrix
from totpos.scalars import format_scalar, parse_scalar
from totpos.serialization import format_matrix_grid, input_digest, parse_matrix, payload
from totpos.whitney import factorize


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
    digests = [input_digest(p.read_text()) for p in (a, b)]
    # the digests in argument order, as in the JSON output
    assert capsys.readouterr().out == f"opposed: yes\ninput sha256: {digests[0]}, {digests[1]}\n"
    assert main(["opposed", str(a), str(a)]) == 0
    assert capsys.readouterr().out == f"opposed: no\ninput sha256: {digests[0]}, {digests[0]}\n"


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
    digests = ", ".join(input_digest(Path(p).read_text()) for p in paths)
    assert capsys.readouterr().out == f"positive quadruple: yes\ninput sha256: {digests}\n"


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


_PARAMS2 = {"n": 2, "word": [1], "a": ["1"], "t": ["1", "1"], "b": ["1"]}


@pytest.mark.parametrize(
    "field, value",
    [("n", 2.7), ("n", "2"), ("n", True), ("word", [1.9]), ("word", ["1"]),
     ("word", [True]), ("word", "1"), ("strict", "false"), ("strict", None),
     ("strict", 0), ("a", "1"), ("t", "11"), ("b", {"1": 1})],
)
def test_synth_params_refuse_non_json_types(tmp_path, capsys, field, value):
    # values int() or bool() would coerce, and strings or objects a loop
    # would read item by item
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({**_PARAMS2, field: value}))
    assert main(["synth", "--params", str(pfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "must be a JSON" in captured.err


@pytest.mark.parametrize(
    "field, number, string, shown",
    [("n", "2.7", '"2.7"', "parameter field 'n' must be a JSON integer"),
     ("word", "[1.5]", '["1.5"]', "word letter must be a JSON integer"),
     ("strict", "1.5", '"1.5"', "parameter field 'strict' must be a JSON boolean"),
     ("strict", "Infinity", '"Infinity"', "parameter field 'strict' must be a JSON boolean")],
)
def test_synth_params_errors_tell_a_number_from_a_string(tmp_path, capsys, field, number,
                                                         string, shown):
    pfile = tmp_path / "params.json"
    token = number.strip("[]")
    for value, got in ((number, token), (string, repr(token))):
        fields = {k: v for k, v in _PARAMS2.items() if k != field}
        pfile.write_text(json.dumps(fields)[:-1] + f', "{field}": {value}}}')
        assert main(["synth", "--params", str(pfile)]) == 2
        assert capsys.readouterr().err == f"error: {shown}, got {got}\n"


def test_synth_params_strict_flag(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    relaxed = {**_PARAMS2, "a": ["0"]}
    pfile.write_text(json.dumps({**relaxed, "strict": False}))
    assert main(["synth", "--params", str(pfile)]) == 0
    for params in (relaxed, {**relaxed, "strict": True}):
        pfile.write_text(json.dumps(params))
        assert main(["synth", "--params", str(pfile)]) == 2
    assert "strictly positive" in capsys.readouterr().err


_ECHO_FILES = {
    "vand": "1 1 1\n1 2 4\n1 3 9\n",
    "gram": "3 7\n-1 -2\n",
    "lower": "1 0 0\n1 1 0\n1 2 1\n",
    "reversal": "0 0 1\n0 1 0\n1 0 0\n",
    # osculating flags of the degree-2 moment curve at 0, 1/2 and 2
    "q1": "1 0 0\n1/2 1 0\n1/4 1 1\n",
    "q2": "1 0 0\n2 1 0\n4 4 1\n",
    "params": json.dumps(_PARAMS2),
}
# Each command that reads inputs; a bare name is an input file.
_ECHO_COMMANDS = {
    "classify": ["classify", "vand"],
    "factor": ["factor", "vand"],
    "synth": ["synth", "--params", "params"],
    "spectrum": ["spectrum", "vand"],
    "canonical-form": ["canonical-form", "gram"],
    "tilde": ["tilde", "vand"],
    "flag-pos": ["flag-pos", "lower"],
    "opposed": ["opposed", "lower", "reversal"],
    "stable-flags": ["stable-flags", "vand"],
    "quadruple": ["quadruple", "lower", "q1", "q2", "reversal", "--points", "0,1/2,2,inf"],
}


@pytest.mark.parametrize("command", sorted(_ECHO_COMMANDS))
def test_inputs_are_echoed_in_argument_order(tmp_path, capsys, command):
    paths = {}
    for name, text in _ECHO_FILES.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    argv = [str(paths[a]) if a in paths else a for a in _ECHO_COMMANDS[command]]
    digests = [input_digest(_ECHO_FILES[a]) for a in _ECHO_COMMANDS[command] if a in paths]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"input sha256: {', '.join(digests)}"
    assert main([*argv, "--json"]) == 0
    echoed = json.loads(capsys.readouterr().out)["input_sha256"]
    assert echoed == (digests if len(digests) > 1 else digests[0])


@pytest.mark.parametrize("argv", [["curve-check", "--degree", "2", "--samples", "5"],
                                  ["convex-check", "--degree", "2", "--trials", "20"]])
def test_commands_without_inputs_echo_no_digest(capsys, argv):
    assert main(argv) == 0
    assert "sha256" not in capsys.readouterr().out
    assert main([*argv, "--json"]) == 0
    assert "input_sha256" not in json.loads(capsys.readouterr().out)


def test_seeded_synth_digest_names_the_word(capsys):
    runs = {}
    for word in ("standard", "reversed"):
        assert main(["synth", "--n", "3", "--seed", "7", "--word", word]) == 0
        runs[word] = capsys.readouterr().out.splitlines()
    # other matrices from the same seed, so other digests
    assert runs["standard"][0].split() == ["6", "27/2", "21/2"]
    assert runs["reversed"][0].split() == ["6", "6", "3"]
    assert runs["reversed"][-1] == "input sha256: " + input_digest(
        "seed=7 n=3 relaxed=False word=reversed"
    )
    assert runs["standard"][-1] != runs["reversed"][-1]


# Each subcommand's positionals and options with their defaults, in order.
_PARSER = {
    "classify": [("matrix", None), ("--power-cap", None), ("--json", False),
                 ("--backend", "exact")],
    "factor": [("matrix", None), ("--word", "standard"), ("--json", False),
               ("--backend", "exact")],
    "synth": [("--params", None), ("--n", None), ("--seed", 0), ("--relaxed", False),
              ("--word", "standard"), ("--json", False)],
    "spectrum": [("matrix", None), ("--json", False), ("--backend", "exact")],
    "canonical-form": [("matrix", None), ("--json", False), ("--backend", "exact")],
    "tilde": [("matrix", None), ("--json", False), ("--backend", "exact")],
    "flag-pos": [("matrix", None), ("--json", False), ("--backend", "exact")],
    "opposed": [("first", None), ("second", None), ("--json", False),
                ("--backend", "exact")],
    "stable-flags": [("matrix", None), ("--sigma", "identity"), ("--json", False),
                     ("--backend", "exact")],
    "quadruple": [("first", None), ("second", None), ("third", None), ("fourth", None),
                  ("--points", None), ("--json", False)],
    "curve-check": [("--degree", None), ("--samples", 8), ("--mode", "exhaustive"),
                    ("--trials", None), ("--seed", 0), ("--points", None),
                    ("--json", False)],
    "convex-check": [("--degree", None), ("--trials", 1000), ("--seed", 0),
                     ("--bound", 9), ("--json", False)],
}


def test_parser_declares_each_subcommand_in_order():
    (subs,) = [
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    assert list(subs.choices) == list(_PARSER)
    for name, sub in subs.choices.items():
        declared = [
            (a.option_strings[0] if a.option_strings else a.dest, a.default)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert declared == _PARSER[name], name
        handler = getattr(cli, "_cmd_" + name.replace("-", "_"))
        assert sub.get_default("func") is handler


def test_float_overflow_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1e400 1\n1 1\n")
    assert main(["classify", str(path), "--backend", "float"]) == 2
    assert "outside the float range" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_non_finite_json_entry_is_input_error(tmp_path, capsys, backend):
    # the JSON number 1e400 is 10^400, as the grid token is: exact, it
    # classifies; on the float backend it fails with the grid's message
    path = tmp_path / "huge.json"
    path.write_text("[[1e400, 1], [1, 1]]\n")
    if backend == "exact":
        assert main(["classify", str(path)]) == 0
        assert "kind: TotallyPositive" in capsys.readouterr().out
    else:
        assert main(["classify", str(path), "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert err == "error: row 1, column 1: scalar '1e400' is outside the float range\n"
        (tmp_path / "huge.txt").write_text("1e400 1\n1 1\n")
        assert main(["classify", str(tmp_path / "huge.txt"), "--backend", backend]) == 2
        assert capsys.readouterr().err == err.replace("row 1, column 1", "line 1")
    path.write_text("[[NaN, 1], [1, 1]]\n")
    assert main(["classify", str(path), "--backend", backend]) == 2
    assert capsys.readouterr().err == "error: row 1, column 1: cannot parse scalar 'NaN'\n"


@pytest.mark.parametrize(
    "text, backend, err",
    [("[[1, 2], [3, 1e400]]", "float", "row 2, column 2: scalar '1e400' is outside the float range"),
     ('[[1, 2, 3], [4, 5, "x"]]', "exact", "row 2, column 3: cannot parse scalar 'x'"),
     ("[[1, true], [3, 4]]", "exact", "row 1, column 2: unsupported matrix entry true"),
     ("[[1, 2], [null, 4]]", "exact", "row 2, column 1: unsupported matrix entry null"),
     ("[[1, 2], [3, [4]]]", "exact", "row 2, column 2: unsupported matrix entry [4]"),
     pytest.param(f"[[1, 2], [3, 1{'0' * 4300}]]", "exact",
                  "row 2, column 2: scalar '10000000000000000000'... has more than 4300 digits",
                  id="int-past-the-digit-bound")],
)
def test_json_matrix_errors_name_the_row_and_column(tmp_path, capsys, text, backend, err):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["classify", str(path), "--backend", backend]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


# -- one reading of every number -----------------------------------------------

_READ_ALIKE = ["0.1", "2.675", "1e-5", "1.5e300", "1e400", "1e-400", "-0.0", "5e-324",
               "1.7976931348623157e308", "2.2250738585072014e-308", "0.10000000000000000001"]


def _decimal_tokens(count, seed=30):
    """JSON number tokens: the cases above, then seeded signs, integer parts,
    fractions of up to 30 digits and exponents from -340 to 320."""
    rng = random.Random(seed)
    tokens = list(_READ_ALIKE)
    while len(tokens) < count:
        whole = str(rng.randrange(10 ** rng.choice([1, 3, 15, 30])))
        digits = "".join(rng.choices("0123456789", k=rng.choice([0, 1, 5, 17, 30])))
        exponent = rng.choice(["", f"e{rng.randint(-340, 320)}", f"E+{rng.randint(0, 30)}",
                               f"e-{rng.randint(0, 30)}"])
        tokens.append(rng.choice(["", "-"]) + whole + ("." + digits if digits else "") + exponent)
    return tokens


def _read(text, exact):
    try:
        return repr(parse_matrix(text, exact=exact))
    except InputError as exc:
        # the grid names the line, JSON the row and column
        return re.sub(r"^(line \d+|row \d+, column \d+): ", "", str(exc))


def test_grid_and_json_read_the_same_decimals():
    tokens = _decimal_tokens(400)
    motivation = [["0.1", "0.3", "1.1", "3.3"], ["0.1", "0.3", "0.3", "0.9"]]
    for cells in motivation + [tokens[i : i + 4] for i in range(0, len(tokens), 4)]:
        rows = [cells[:2], cells[2:]]
        grid = "\n".join(" ".join(row) for row in rows)
        numbers = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
        strings = json.dumps(rows)
        for exact in (True, False):
            want = _read(grid, exact)
            assert _read(numbers, exact) == _read(strings, exact) == want, (cells, exact)
    for text in ("0.1 0.3\n1.1 3.3", "0.1 0.3\n0.3 0.9"):
        assert classify(parse_matrix(text)).kind.value == "TotallyNonNegativeOnly"
    # the float backend reads each JSON number as the double json.loads gives
    for token in tokens:
        value = float(json.loads(token))
        if math.isinf(value):
            with pytest.raises(InputError, match="outside the float range"):
                parse_scalar(token, exact=False)
        else:
            assert parse_scalar(token, exact=False) == value, token


def test_synth_params_read_numbers_as_strings(tmp_path, capsys):
    positive = [t for t in _decimal_tokens(80) if Fraction(t) > 0]
    path = tmp_path / "params.json"
    for i in range(0, len(positive) - 3, 4):
        a, t1, t2, b = positive[i : i + 4]
        printed = []
        for quote in ("", '"'):
            a_, t1_, t2_, b_ = (quote + x + quote for x in (a, t1, t2, b))
            path.write_text(f'{{"n": 2, "word": [1], "a": [{a_}], "t": [{t1_}, {t2_}], "b": [{b_}]}}')
            assert main(["synth", "--params", str(path), "--json"]) == 0
            out = json.loads(capsys.readouterr().out)
            printed.append((out["params"], out["matrix"]))
        assert printed[0] == printed[1], (a, t1, t2, b)
        assert printed[0][0]["a"] == [format_scalar(Fraction(a))]


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
    grid, numbers = tmp_path / "huge.txt", tmp_path / "huge.json"
    grid.write_text("1e100000000 1\n1 -3.5E-4301\n")
    numbers.write_text("[[1e100000000, 1], [1, 1]]\n")
    for path in (grid, numbers):
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


@pytest.mark.parametrize("command", ["stable-flags", "canonical-form"])
def test_results_below_the_float_range_are_input_errors(tmp_path, capsys, command):
    m = random_tp_matrix(4, random.Random(5)).scale(Fraction(1, 10**400))
    args = [command, str(tmp_path / "tiny.txt")]
    if command == "canonical-form":
        m = A_to_form(m).gram
    else:
        args += ["--sigma", "tilde"]
    (tmp_path / "tiny.txt").write_text(
        "\n".join(" ".join(f"{x.numerator}/{x.denominator}" for x in row) for row in m.to_lists()))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "outside the float range" in err
    assert err.count("\n") == 1 and "Traceback" not in err


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


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_minors_below_the_float_range_are_input_errors(tmp_path, capsys, fmt):
    # the entries fit in a float, but every order-2 minor rounds to 0.0
    path = tmp_path / "tiny.txt"
    path.write_text("1e-200 1e-200 1e-200\n1e-200 2e-200 4e-200\n1e-200 3e-200 9e-200\n")
    assert main(["spectrum", str(path), *fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "a minor lies outside the float range" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text",
    ["[[1" + "0" * 400 + ", 1], [1, 1]]\n", "1" + "0" * 400 + " 1\n1 1\n"],
    ids=["json", "grid"],
)
def test_integer_past_the_float_range_is_input_error(tmp_path, capsys, text):
    # JSON and grid integers follow one rule: exit 2 and one error line
    path = tmp_path / "huge.txt"
    path.write_text(text)
    assert main(["classify", str(path), "--backend", "float"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "outside the float range" in err
    assert err.count("\n") == 1
    assert main(["classify", str(path)]) == 0


_NUMERIC_CELLS = st.one_of(
    st.integers(-5, 9),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=False, allow_infinity=False),
)
_NUMERIC_JSON = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(_NUMERIC_CELLS, min_size=n, max_size=n), min_size=n, max_size=n
    )
).map(json.dumps)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.sampled_from(_MATRIX_COMMANDS), _NUMERIC_JSON, st.sampled_from(["exact", "float"]))
def test_cli_fuzz_numeric_json_exits_cleanly(command, text, backend):
    # well-formed JSON numbers only, up to 10**400 and every finite float
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(text, encoding="utf-8")
        _run_cleanly([*command[:1], str(path), *command[1:], "--backend", backend], False)


def _huge_tp_matrix(digits):
    # totally positive: positive entries and determinant x**2 + 1, so its
    # factor parameters and its twist print about twice the entry digits
    x = 10 ** (digits - 1) + 3
    return Matrix([[2 * x, x - 1], [x + 1, x]])


@pytest.mark.parametrize("as_json", [False, True])
def test_exact_results_past_the_digit_limit_print(tmp_path, capsys, as_json):
    a = 10**2699 + 7
    m = Matrix([[a, 3], [5, a]])
    path = tmp_path / "big.txt"
    with _int_digits(0):
        path.write_text(format_matrix_grid(m))
        want = payload(factorize(m))
    limit = sys.get_int_max_str_digits()
    assert main(["factor", str(path), *(["--json"] if as_json else [])]) == 0
    assert sys.get_int_max_str_digits() == limit  # restored on return
    out = capsys.readouterr().out
    if as_json:
        assert json.loads(out)["params"] == want
    else:
        assert f"a: {' '.join(want['a'])}" in out.splitlines()


@pytest.mark.parametrize("digits", [4290, 4300, 4301, 4310])
@pytest.mark.parametrize("command", sorted(_ARITHMETIC))
def test_entries_at_the_digit_bound_exit_cleanly(tmp_path, capsys, command, digits):
    # a totally positive matrix, and for canonical-form the Gram matrix of
    # the positive form whose comparison matrix it is
    m = _huge_tp_matrix(digits)
    path = tmp_path / "m.txt"
    with _int_digits(0):
        path.write_text(format_matrix_grid(A_to_form(m).gram if command == "canonical-form" else m))
    argv = [command, *[str(path)] * (len(_ARITHMETIC[command]) - 1)]
    for extra in ([], ["--json"]):
        code = main([*argv, *extra])
        out, err = capsys.readouterr()
        assert code in (0, 2), err
        if code:
            assert err.count("\n") == 1 and err.startswith("error: ")
        elif extra:
            json.loads(out)
        if digits > 4300:
            assert code == 2 and "has more than 4300 digits" in err


@pytest.mark.parametrize("form", ["grid", "json", "params"])
def test_token_past_the_digit_bound_is_one_short_error(tmp_path, capsys, form):
    huge = "1" + "0" * 4399
    text = {
        "grid": f"{huge} 1\n1 1\n",
        "json": f"[[{huge}, 1], [1, 1]]",
        "params": f'{{"n": 2, "word": [1], "a": [{huge}, 1], "t": [1], "b": [1]}}',
    }[form]
    path = tmp_path / "huge.txt"
    path.write_text(text)
    argv = ["synth", "--params", str(path)] if form == "params" else ["classify", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "more than 4300 digits" in err and len(err) < 100
    # the grid names the line and a JSON matrix the cell; parameters have no cell
    where = {"grid": "line 1: ", "json": "row 1, column 1: ", "params": ""}[form]
    assert err == f"error: {where}scalar '10000000000000000000'... has more than 4300 digits\n"


def test_a_dash_reads_the_matrix_from_stdin(monkeypatch, capsys):
    text = "1 1 1\n1 2 4\n1 3 9\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["classify", "-", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "TotallyPositive" and data["input_sha256"] == input_digest(text)


@pytest.mark.parametrize(
    "argv, message",
    [(["synth"], "synth needs either --params or --n"),
     (["curve-check", "--degree", "2", "--points", "0,,1,2"], "empty circle point token"),
     (["quadruple", "v", "v", "v", "v", "--points", "0,1,2"], "--points needs exactly four")],
    ids=["synth-no-source", "empty-point", "three-points"],
)
def test_argument_errors_exit_2_with_one_line(vandermonde, capsys, argv, message):
    assert main([vandermonde if a == "v" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_curve_check_text_names_the_first_failure(monkeypatch, capsys):
    # no moment curve fails, so the command is handed a table curve with one
    # flag sign-flipped (the failing table of tests/test_curves.py)
    pts = [CirclePoint.at(v) for v in range(4)]
    flags = [MomentCurve(2).flag_at(p) for p in pts]
    flags[1] = flag_from_matrix(Matrix.diagonal([-1, 1, 1]) @ flags[1].rep)
    monkeypatch.setattr(cli, "MomentCurve", lambda degree: TableFlagCurve(list(zip(pts, flags))))
    assert main(["curve-check", "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "failed: 1\nok: False\nfirst failure at: 0, 1, 2, 3\n" in out


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_output_pipe_exits_1_without_a_traceback(tmp_path, unbuffered):
    # the twist of a 100x100 bidiagonal ones matrix prints 130 KB, more than a pipe holds
    path = tmp_path / "big.txt"
    path.write_text("\n".join(" ".join("1" if j in (i, i + 1) else "0" for j in range(100))
                              for i in range(100)))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, "-m", "totpos.cli", "tilde", str(path), "--json"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=60) == 1
