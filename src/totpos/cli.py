"""Command-line interface.

Matrices come from files (or ``-`` for stdin) in grid or JSON form.  A
command's handler returns its JSON fields and text lines and prints
nothing; ``main`` prints them with the sha256 digest of each input read,
in argument order, so results can be tied back to inputs (a seeded
``synth`` digests its options; ``curve-check`` and ``convex-check`` read no
input).  ``--json`` switches to machine-readable output, and on all but
``synth``, ``quadruple``, ``curve-check`` and ``convex-check``,
``--backend float`` reads decimals as binary floats.  Only the signs of
a float minor table (positivity verdicts) use the one zero band; every
other result, spectra and flags included, is that of the dyadic copy the
floats are.  Exit codes: 0 success, 1 domain or computation failure or an
output pipe closed by its reader (no traceback), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

from .bilinear import BilinearForm, canonical_basis, tilde
from .classify import classify
from .curves import (
    CirclePoint,
    MomentCurve,
    convex_curve_check,
    dihedral_partition,
    is_positive_curve_sampled,
    is_positive_quadruple,
)
from .errors import InputError, TotposError
from .flags import flag_from_matrix, in_B_pos, in_B_pos_prime, opposed, stable_flags
from .linalg import Matrix
from .sampling import random_tp_parameters
from .scalars import parse_scalar
from .serialization import (
    _json_repr, _load_json, format_matrix_grid, input_digest, parse_matrix, payload,
)
from .spectra import verify_gk
from .whitney import TPParameters, factorize, synthesize

# A handler's result: its JSON fields and text lines, without the digests.
_Output = tuple[dict[str, Any], list[str]]


def _exact(args: argparse.Namespace) -> bool:
    return getattr(args, "backend", "exact") == "exact"


def _read_input(args: argparse.Namespace, path: str) -> str:
    """Read a file, or stdin for ``-``, and record its digest for ``main``."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
    args.digests.append(input_digest(text))
    return text


def _load_matrix(args: argparse.Namespace, path: str) -> Matrix:
    return parse_matrix(_read_input(args, path), exact=_exact(args))


def _fmt_floats(values) -> str:
    return ", ".join(f"{float(v):.12g}" for v in values)


def _cmd_classify(args: argparse.Namespace) -> _Output:
    result = classify(_load_matrix(args, args.matrix), m_max=args.power_cap)
    out = {"kind": result.kind, "oscillatory_exponent": result.oscillatory_m}
    lines = [f"kind: {result.kind.value}"]
    if result.oscillatory_m is not None:
        lines.append(f"oscillatory exponent: {result.oscillatory_m}")
    return out, lines


def _cmd_factor(args: argparse.Namespace) -> _Output:
    params = factorize(_load_matrix(args, args.matrix), word=args.word)
    return {"params": params}, [
        f"word: {' '.join(str(i) for i in params.word)}",
        f"a: {' '.join(str(x) for x in params.a)}",
        f"t: {' '.join(str(x) for x in params.t)}",
        f"b: {' '.join(str(x) for x in params.b)}",
    ]


def _json_int(value: Any, what: str) -> int:
    # bool is an int subclass, but JSON true/false is not a JSON integer
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be a JSON integer, got {_json_repr(value)}")
    return value


def _params_from_json(text: str) -> TPParameters:
    data = _load_json(text, "parameters")
    if not isinstance(data, dict):
        raise InputError("parameter JSON must be an object")
    try:
        def listed(key: str) -> list:
            # a string or an object would otherwise be read item by item
            if not isinstance(data[key], list):
                raise InputError(f"parameter field {key!r} must be a JSON array")
            return data[key]

        def scalars(key: str) -> tuple:
            return tuple(
                parse_scalar(str(x), exact=True) for x in listed(key)
            )

        n = _json_int(data["n"], "parameter field 'n'")
        word = tuple(_json_int(i, "word letter") for i in listed("word"))
        strict = data.get("strict", True)
        if not isinstance(strict, bool):
            raise InputError(
                f"parameter field 'strict' must be a JSON boolean, got {_json_repr(strict)}"
            )

        return TPParameters(
            n=n,
            word=word,
            a=scalars("a"),
            t=scalars("t"),
            b=scalars("b"),
            strict=strict,
        )
    except KeyError as exc:
        raise InputError(f"parameter JSON missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed parameter JSON: {exc}") from None


def _cmd_synth(args: argparse.Namespace) -> _Output:
    if args.params is not None:
        params = _params_from_json(_read_input(args, args.params))
    else:
        if args.n is None:
            raise InputError("synth needs either --params or --n")
        import random

        rng = random.Random(args.seed)
        params = random_tp_parameters(
            args.n, rng, strict=not args.relaxed, word=args.word
        )
        args.digests.append(input_digest(
            f"seed={args.seed} n={args.n} relaxed={args.relaxed} word={args.word}"
        ))
    m = synthesize(params)
    return {"matrix": m, "params": params}, [format_matrix_grid(m)]


def _cmd_spectrum(args: argparse.Namespace) -> _Output:
    report = verify_gk(_load_matrix(args, args.matrix))
    return {"report": report}, [
        f"eigenvalues: {_fmt_floats(report.eigenvalues)}",
        f"perron roots of compounds: {_fmt_floats(report.perron_roots)}",
        f"distinct positive descending: {report.distinct_positive_descending}",
        f"residuals ok: {report.residuals_ok}",
        f"compound product ok: {report.compound_product_ok}",
        f"determinant ok: {report.determinant_ok}",
        f"passed: {report.passed}",
    ]


def _cmd_canonical_form(args: argparse.Namespace) -> _Output:
    result = canonical_basis(BilinearForm(_load_matrix(args, args.matrix)))
    return {"result": result}, [
        "comparison matrix:",
        format_matrix_grid(result.comparison),
        f"eigenvalues: {_fmt_floats(result.eigenvalues)}",
        f"z values: {_fmt_floats(result.z_values)}",
        f"chain ratios: {_fmt_floats(result.chain)}",
    ]


def _cmd_flag_pos(args: argparse.Namespace) -> _Output:
    flag = flag_from_matrix(_load_matrix(args, args.matrix))
    cert = in_B_pos(flag)
    cert_prime = in_B_pos_prime(flag)
    out = {
        "positive_cell": cert is not None,
        "positive_cell_params": cert,
        "primed_cell": cert_prime is not None,
        "primed_cell_params": cert_prime,
    }
    lines = [
        f"positive cell: {'yes' if cert is not None else 'no'}",
        f"primed cell: {'yes' if cert_prime is not None else 'no'}",
    ]
    return out, lines


def _cmd_opposed(args: argparse.Namespace) -> _Output:
    m1, m2 = _load_matrix(args, args.first), _load_matrix(args, args.second)
    verdict = opposed(flag_from_matrix(m1), flag_from_matrix(m2))
    return {"opposed": verdict}, [f"opposed: {'yes' if verdict else 'no'}"]


def _cmd_stable_flags(args: argparse.Namespace) -> _Output:
    pair = stable_flags(_load_matrix(args, args.matrix), sigma_mode=args.sigma)
    return {"pair": pair}, [
        f"sigma mode: {pair.sigma_mode}",
        f"eigenvalues: {_fmt_floats(pair.eigenvalues)}",
        f"dilation moduli: {_fmt_floats(pair.dilation_moduli)}",
        f"contraction moduli: {_fmt_floats(pair.contraction_moduli)}",
        f"finite order moduli: {_fmt_floats(pair.finite_order_moduli)}",
        f"stability residual: {pair.stability_residual:.3g}",
        f"positivity margin: {float(pair.margin):.6g}",
    ]


def _parse_points(text: str) -> list[CirclePoint]:
    points = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise InputError("empty circle point token")
        if tok in ("inf", "oo"):
            points.append(CirclePoint.infinity())
        else:
            points.append(CirclePoint.at(parse_scalar(tok, exact=True)))
    return points


def _cmd_quadruple(args: argparse.Namespace) -> _Output:
    points = _parse_points(args.points)
    if len(points) != 4:
        raise InputError("--points needs exactly four comma-separated values")
    flags = [
        flag_from_matrix(_load_matrix(args, path))
        for path in (args.first, args.second, args.third, args.fourth)
    ]
    quadruple = dihedral_partition(*points)
    verdict = is_positive_quadruple(flags, quadruple)
    out = {
        "points": [str(p) for p in points],
        "pairs": quadruple.pairs,
        "positive": verdict,
    }
    return out, [f"positive quadruple: {'yes' if verdict else 'no'}"]


def _cmd_curve_check(args: argparse.Namespace) -> _Output:
    curve = MomentCurve(args.degree)
    points = _parse_points(args.points) if args.points else None
    report = is_positive_curve_sampled(
        curve,
        samples=args.samples,
        mode=args.mode,
        seed=args.seed,
        points=points,
        trials=args.trials,
    )
    lines = [
        f"degree: {report.degree}",
        f"points: {report.n_points}",
        f"quadruples tested: {report.total}",
        f"passed: {report.passed}",
        f"failed: {report.failed}",
        f"ok: {report.ok}",
    ]
    if report.first_failure is not None:
        lines.append(f"first failure at: {', '.join(report.first_failure)}")
    return {"report": report}, lines


def _cmd_convex_check(args: argparse.Namespace) -> _Output:
    report = convex_curve_check(
        MomentCurve(args.degree),
        trials=args.trials,
        seed=args.seed,
        coeff_bound=args.bound,
    )
    return {"report": report}, [
        f"degree: {report.degree}",
        f"hyperplanes tested: {report.trials}",
        f"max distinct intersections: {report.max_count}",
        f"bound respected: {report.ok}",
    ]


def _cmd_tilde(args: argparse.Namespace) -> _Output:
    result = tilde(_load_matrix(args, args.matrix))
    return {"matrix": result}, [format_matrix_grid(result)]


# Commands whose input is exact only: no matrix, or exact circle points.
_EXACT_ONLY = ("synth", "quadruple", "curve-check", "convex-check")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totpos",
        description="Total positivity toolkit: classification, factorization, "
        "spectra, canonical forms, flags, and positive curves.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    stdin = "matrix file, or - for stdin"
    flag = "flag representative matrix file"

    def command(name: str, func, summary: str, **files: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=summary)
        for dest, text in files.items():
            p.add_argument(dest, help=text)
        p.set_defaults(func=func)
        return p

    p = command("classify", _cmd_classify, "classify a square matrix", matrix=stdin)
    p.add_argument(
        "--power-cap",
        type=int,
        default=None,
        help="largest power tried for the oscillatory exponent",
    )
    p = command("factor", _cmd_factor, "bidiagonal factorization parameters", matrix=stdin)
    p.add_argument("--word", choices=("standard", "reversed"), default="standard")
    p = command("synth", _cmd_synth, "synthesize a matrix from parameters")
    p.add_argument("--params", help="JSON parameter file, or - for stdin")
    p.add_argument("--n", type=int, help="size for seeded random parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--relaxed", action="store_true", help="allow zero parameters")
    p.add_argument("--word", choices=("standard", "reversed"), default="standard")
    command("spectrum", _cmd_spectrum, "eigenvalue ladder with verification", matrix=stdin)
    command("canonical-form", _cmd_canonical_form,
            "canonical eigenbasis of a positive bilinear form",
            matrix="Gram matrix file, or - for stdin")
    command("tilde", _cmd_tilde, "apply the twisted-inverse involution", matrix=stdin)
    command("flag-pos", _cmd_flag_pos, "positive cell membership of a flag", matrix=flag)
    command("opposed", _cmd_opposed, "test whether two flags are opposed",
            first=f"first {flag}", second=f"second {flag}")
    p = command("stable-flags", _cmd_stable_flags,
                "attracting and repelling flags of a positive map", matrix=stdin)
    p.add_argument("--sigma", choices=("identity", "tilde"), default="identity")
    p = command("quadruple", _cmd_quadruple, "positivity of four flags over the circle",
                first=flag, second=flag, third=flag, fourth=flag)
    p.add_argument(
        "--points",
        required=True,
        help="four comma-separated circle points, e.g. 0,1/2,2,inf",
    )
    p = command("curve-check", _cmd_curve_check,
                "quadruple positivity of a sampled osculating curve")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", help="explicit comma-separated circle points")
    p = command("convex-check", _cmd_convex_check,
                "hyperplane intersection bound for a moment curve")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=9)

    # last, so they close every command's usage and help
    for name, p in subs.choices.items():
        p.add_argument("--json", action="store_true", help="emit JSON output")
        if name not in _EXACT_ONLY:
            p.add_argument(
                "--backend",
                choices=("exact", "float"),
                default="exact",
                help="arithmetic used when parsing matrix input",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.digests = []
    # results may print ints past the digit limit, held on input by parse_scalar
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        out, lines = args.func(args)
        digests = args.digests  # one per input read, in argument order
        if digests:
            out["input_sha256"] = digests[0] if len(digests) == 1 else digests
            lines.append(f"input sha256: {', '.join(digests)}")
        text = json.dumps(payload(out), indent=2, sort_keys=True) if args.json else "\n".join(lines)
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left: what is unwritten goes to devnull, so the exit flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return 0
    except TotposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
