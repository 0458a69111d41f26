"""Command-line interface.

Matrices come from files (or ``-`` for stdin) in grid or JSON form; every
command echoes a sha256 digest of its raw input so results can be tied
back to inputs.  ``--json`` switches to machine-readable output, and on
all but ``synth``, ``quadruple``, ``curve-check`` and ``convex-check``,
``--backend float`` reads decimals as binary floats.  The library
eliminates those floats exactly, as the dyadic rationals they are, so
determinants, factorizations and flags are exact; only the signs of a float
minor table (the positivity verdicts) are read through the one fixed zero
band.  Exit codes: 0 success, 1 domain or computation failure, 2 malformed
input.
"""

from __future__ import annotations

import argparse
import json
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
from .serialization import format_matrix_grid, input_digest, parse_matrix, payload
from .spectra import verify_gk
from .whitney import TPParameters, factorize, synthesize


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _exact(args: argparse.Namespace) -> bool:
    return getattr(args, "backend", "exact") == "exact"


def _load_matrix(args: argparse.Namespace, path: str) -> tuple[Matrix, str]:
    text = _read_text(path)
    return parse_matrix(text, exact=_exact(args)), input_digest(text)


def _emit(args: argparse.Namespace, result: dict[str, Any], lines: list[str]) -> int:
    if args.json:
        print(json.dumps(payload(result), indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _fmt_floats(values) -> str:
    return ", ".join(f"{float(v):.12g}" for v in values)


def _cmd_classify(args: argparse.Namespace) -> int:
    m, digest = _load_matrix(args, args.matrix)
    result = classify(m, m_max=args.power_cap)
    out = {
        "input_sha256": digest,
        "kind": result.kind,
        "oscillatory_exponent": result.oscillatory_m,
    }
    lines = [f"kind: {result.kind.value}"]
    if result.oscillatory_m is not None:
        lines.append(f"oscillatory exponent: {result.oscillatory_m}")
    lines.append(f"input sha256: {digest}")
    return _emit(args, out, lines)


def _cmd_factor(args: argparse.Namespace) -> int:
    m, digest = _load_matrix(args, args.matrix)
    params = factorize(m, word=args.word)
    out = {"input_sha256": digest, "params": params}
    lines = [
        f"word: {' '.join(str(i) for i in params.word)}",
        f"a: {' '.join(str(x) for x in params.a)}",
        f"t: {' '.join(str(x) for x in params.t)}",
        f"b: {' '.join(str(x) for x in params.b)}",
        f"input sha256: {digest}",
    ]
    return _emit(args, out, lines)


def _params_from_json(text: str) -> TPParameters:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"bad JSON parameters: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("parameter JSON must be an object")
    try:
        n = int(data["n"])
        word = tuple(int(i) for i in data["word"])

        def scalars(key: str) -> tuple:
            return tuple(
                parse_scalar(str(x), exact=True) for x in data[key]
            )

        return TPParameters(
            n=n,
            word=word,
            a=scalars("a"),
            t=scalars("t"),
            b=scalars("b"),
            strict=bool(data.get("strict", True)),
        )
    except KeyError as exc:
        raise InputError(f"parameter JSON missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed parameter JSON: {exc}") from None


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.params is not None:
        text = _read_text(args.params)
        params = _params_from_json(text)
        digest = input_digest(text)
    else:
        if args.n is None:
            raise InputError("synth needs either --params or --n")
        import random

        rng = random.Random(args.seed)
        params = random_tp_parameters(
            args.n, rng, strict=not args.relaxed, word=args.word
        )
        digest = input_digest(f"seed={args.seed} n={args.n} relaxed={args.relaxed}")
    m = synthesize(params)
    out = {"input_sha256": digest, "matrix": m, "params": params}
    lines = [format_matrix_grid(m), f"input sha256: {digest}"]
    return _emit(args, out, lines)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    m, digest = _load_matrix(args, args.matrix)
    report = verify_gk(m)
    out = {"input_sha256": digest, "report": report}
    lines = [
        f"eigenvalues: {_fmt_floats(report.eigenvalues)}",
        f"perron roots of compounds: {_fmt_floats(report.perron_roots)}",
        f"distinct positive descending: {report.distinct_positive_descending}",
        f"residuals ok: {report.residuals_ok}",
        f"compound product ok: {report.compound_product_ok}",
        f"determinant ok: {report.determinant_ok}",
        f"passed: {report.passed}",
        f"input sha256: {digest}",
    ]
    return _emit(args, out, lines)


def _cmd_canonical_form(args: argparse.Namespace) -> int:
    m, digest = _load_matrix(args, args.matrix)
    result = canonical_basis(BilinearForm(m))
    out = {"input_sha256": digest, "result": result}
    lines = [
        "comparison matrix:",
        format_matrix_grid(result.comparison),
        f"eigenvalues: {_fmt_floats(result.eigenvalues)}",
        f"z values: {_fmt_floats(result.z_values)}",
        f"chain ratios: {_fmt_floats(result.chain)}",
        f"input sha256: {digest}",
    ]
    return _emit(args, out, lines)


def _cmd_flag_pos(args: argparse.Namespace) -> int:
    m, digest = _load_matrix(args, args.matrix)
    flag = flag_from_matrix(m)
    cert = in_B_pos(flag)
    cert_prime = in_B_pos_prime(flag)
    out = {
        "input_sha256": digest,
        "positive_cell": cert is not None,
        "positive_cell_params": cert,
        "primed_cell": cert_prime is not None,
        "primed_cell_params": cert_prime,
    }
    lines = [
        f"positive cell: {'yes' if cert is not None else 'no'}",
        f"primed cell: {'yes' if cert_prime is not None else 'no'}",
        f"input sha256: {digest}",
    ]
    return _emit(args, out, lines)


def _cmd_opposed(args: argparse.Namespace) -> int:
    m1, d1 = _load_matrix(args, args.first)
    m2, d2 = _load_matrix(args, args.second)
    verdict = opposed(flag_from_matrix(m1), flag_from_matrix(m2))
    out = {"input_sha256": [d1, d2], "opposed": verdict}
    lines = [f"opposed: {'yes' if verdict else 'no'}"]
    return _emit(args, out, lines)


def _cmd_stable_flags(args: argparse.Namespace) -> int:
    m, digest = _load_matrix(args, args.matrix)
    pair = stable_flags(m, sigma_mode=args.sigma)
    out = {"input_sha256": digest, "pair": pair}
    lines = [
        f"sigma mode: {pair.sigma_mode}",
        f"eigenvalues: {_fmt_floats(pair.eigenvalues)}",
        f"dilation moduli: {_fmt_floats(pair.dilation_moduli)}",
        f"contraction moduli: {_fmt_floats(pair.contraction_moduli)}",
        f"finite order moduli: {_fmt_floats(pair.finite_order_moduli)}",
        f"stability residual: {pair.stability_residual:.3g}",
        f"positivity margin: {float(pair.margin):.6g}",
        f"input sha256: {digest}",
    ]
    return _emit(args, out, lines)


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


def _cmd_quadruple(args: argparse.Namespace) -> int:
    points = _parse_points(args.points)
    if len(points) != 4:
        raise InputError("--points needs exactly four comma-separated values")
    flags = []
    digests = []
    for path in (args.first, args.second, args.third, args.fourth):
        m, digest = _load_matrix(args, path)
        flags.append(flag_from_matrix(m))
        digests.append(digest)
    quadruple = dihedral_partition(*points)
    verdict = is_positive_quadruple(flags, quadruple)
    out = {
        "input_sha256": digests,
        "points": [str(p) for p in points],
        "pairs": quadruple.pairs,
        "positive": verdict,
    }
    lines = [f"positive quadruple: {'yes' if verdict else 'no'}"]
    return _emit(args, out, lines)


def _cmd_curve_check(args: argparse.Namespace) -> int:
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
    out = {"report": report}
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
    return _emit(args, out, lines)


def _cmd_convex_check(args: argparse.Namespace) -> int:
    report = convex_curve_check(
        MomentCurve(args.degree),
        trials=args.trials,
        seed=args.seed,
        coeff_bound=args.bound,
    )
    out = {"report": report}
    lines = [
        f"degree: {report.degree}",
        f"hyperplanes tested: {report.trials}",
        f"max distinct intersections: {report.max_count}",
        f"bound respected: {report.ok}",
    ]
    return _emit(args, out, lines)


def _cmd_tilde(args: argparse.Namespace) -> int:
    m, digest = _load_matrix(args, args.matrix)
    result = tilde(m)
    out = {"input_sha256": digest, "matrix": result}
    lines = [format_matrix_grid(result), f"input sha256: {digest}"]
    return _emit(args, out, lines)


def _add_common(sub: argparse.ArgumentParser, arithmetic: bool = True) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON output")
    if not arithmetic:
        return
    sub.add_argument(
        "--backend",
        choices=("exact", "float"),
        default="exact",
        help="arithmetic used when parsing matrix input",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totpos",
        description="Total positivity toolkit: classification, factorization, "
        "spectra, canonical forms, flags, and positive curves.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="classify a square matrix")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.add_argument(
        "--power-cap",
        type=int,
        default=None,
        help="largest power tried for the oscillatory exponent",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("factor", help="bidiagonal factorization parameters")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.add_argument("--word", choices=("standard", "reversed"), default="standard")
    _add_common(p)
    p.set_defaults(func=_cmd_factor)

    p = subs.add_parser("synth", help="synthesize a matrix from parameters")
    p.add_argument("--params", help="JSON parameter file, or - for stdin")
    p.add_argument("--n", type=int, help="size for seeded random parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--relaxed", action="store_true", help="allow zero parameters")
    p.add_argument("--word", choices=("standard", "reversed"), default="standard")
    _add_common(p, arithmetic=False)
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("spectrum", help="eigenvalue ladder with verification")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser(
        "canonical-form", help="canonical eigenbasis of a positive bilinear form"
    )
    p.add_argument("matrix", help="Gram matrix file, or - for stdin")
    _add_common(p)
    p.set_defaults(func=_cmd_canonical_form)

    p = subs.add_parser("tilde", help="apply the twisted-inverse involution")
    p.add_argument("matrix", help="matrix file, or - for stdin")
    _add_common(p)
    p.set_defaults(func=_cmd_tilde)

    p = subs.add_parser("flag-pos", help="positive cell membership of a flag")
    p.add_argument("matrix", help="flag representative matrix file")
    _add_common(p)
    p.set_defaults(func=_cmd_flag_pos)

    p = subs.add_parser("opposed", help="test whether two flags are opposed")
    p.add_argument("first", help="first flag representative matrix file")
    p.add_argument("second", help="second flag representative matrix file")
    _add_common(p)
    p.set_defaults(func=_cmd_opposed)

    p = subs.add_parser(
        "stable-flags", help="attracting and repelling flags of a positive map"
    )
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.add_argument("--sigma", choices=("identity", "tilde"), default="identity")
    _add_common(p)
    p.set_defaults(func=_cmd_stable_flags)

    p = subs.add_parser("quadruple", help="positivity of four flags over the circle")
    p.add_argument("first", help="flag representative matrix file")
    p.add_argument("second", help="flag representative matrix file")
    p.add_argument("third", help="flag representative matrix file")
    p.add_argument("fourth", help="flag representative matrix file")
    p.add_argument(
        "--points",
        required=True,
        help="four comma-separated circle points, e.g. 0,1/2,2,inf",
    )
    _add_common(p, arithmetic=False)
    p.set_defaults(func=_cmd_quadruple)

    p = subs.add_parser(
        "curve-check", help="quadruple positivity of a sampled osculating curve"
    )
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", help="explicit comma-separated circle points")
    _add_common(p, arithmetic=False)
    p.set_defaults(func=_cmd_curve_check)

    p = subs.add_parser(
        "convex-check", help="hyperplane intersection bound for a moment curve"
    )
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=9)
    _add_common(p, arithmetic=False)
    p.set_defaults(func=_cmd_convex_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TotposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
