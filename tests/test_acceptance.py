"""Acceptance suite: one test per criterion, one printed verdict line each.

Every test prints ``criterion NN [label]: PASS/FAIL`` through the capture
bypass so the verdict ladder is visible in any pytest run.  Tolerances are
pinned here and must not be loosened; failures are meant to be loud.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from totpos import bilinear, spectra
from totpos import flags as flag_module
from totpos.bilinear import (
    BilinearForm,
    canonical_basis,
    form_family_positive,
    is_totally_positive_form,
    tilde,
)
from totpos.classify import is_totally_positive, sign_variation
from totpos.curves import (
    CirclePoint,
    MomentCurve,
    convex_curve_check,
    dihedral_partition,
    is_positive_curve_sampled,
    is_positive_quadruple,
)
from totpos.flags import (
    flag_from_matrix,
    identity_component_check,
    in_B_pos,
    in_B_pos_prime,
    opposed,
    stable_flags,
)
from totpos.linalg import Matrix, det
from totpos.sampling import (
    random_positive_form,
    random_tp_matrix,
    random_tp_parameters,
    random_uni_params,
)
from totpos.spectra import _rationalize_columns, gk_spectrum, verify_gk
from totpos.whitney import factorize, gen_x, synthesize, synthesize_uni


def _verdict(capsys, num: int, label: str, failures: list) -> None:
    ok = not failures
    with capsys.disabled():
        print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
        for f in failures[:5]:
            print(f"    {f}")
    assert ok, f"criterion {num} failed: {failures[:5]}"


def test_criterion_01_whitney_round_trip(capsys):
    failures = []
    rng = random.Random(1001)
    for n in (2, 3, 4, 5):
        for trial in range(200):
            p = random_tp_parameters(n, rng, strict=True)
            m = synthesize(p)
            if not is_totally_positive(m):
                failures.append(f"n={n} trial={trial}: synthesis not TP")
                continue
            q = factorize(m)
            if (q.a, q.t, q.b) != (p.a, p.t, p.b):
                failures.append(f"n={n} trial={trial}: parameters not recovered")
    _verdict(capsys, 1, "whitney round-trip", failures)


def test_criterion_02_variation_diminishing_direction(capsys):
    failures = []
    rng = random.Random(1002)
    for trial in range(200):
        n = 2 + trial % 4  # n cycles over {2,..,5}
        m = synthesize(random_tp_parameters(n, rng, strict=False))
        for _ in range(50):
            v = [F(rng.randint(-9, 9)) for _ in range(n)]
            image = [sum(m[i, j] * v[j] for j in range(n)) for i in range(n)]
            if sign_variation(image) > sign_variation(v):
                failures.append(f"trial={trial}: variation grew")
                break
    _verdict(capsys, 2, "variation diminishing", failures)


def test_criterion_03_eigenvalue_ladder(capsys):
    assert spectra._PRODUCT_REL_TOL == 1e-7
    assert spectra._DET_REL_TOL == 1e-9
    failures = []
    rng = random.Random(1003)
    for n in (2, 3, 4, 5, 6):
        for trial in range(100):
            m = random_tp_matrix(n, rng)
            report = verify_gk(m)
            if not report.passed:
                failures.append(
                    f"n={n} trial={trial}: {'; '.join(report.failures)}"
                )
    _verdict(capsys, 3, "eigenvalue ladder", failures)


def test_criterion_04_canonical_form(capsys):
    assert bilinear._OFF_ANTI_DIAGONAL_TOL == 1e-9
    failures = []
    rng = random.Random(1004)
    for n in (2, 3, 4, 5):
        for trial in range(100):
            form = random_positive_form(n, rng)
            result = canonical_basis(form)
            c = result.eigenvalues
            chain = result.chain
            if any(a >= b for a, b in zip(chain, chain[1:])):
                failures.append(f"n={n} trial={trial}: chain not increasing")
            for r in range(n):
                if not math.isclose(c[r] * c[n - 1 - r], 1.0, rel_tol=1e-9):
                    failures.append(
                        f"n={n} trial={trial}: c_r * c_r-star != 1"
                    )
                    break
            for r in range(n):
                if not math.isclose(chain[r] * c[r], 1.0, rel_tol=1e-8):
                    failures.append(f"n={n} trial={trial}: chain != 1/c")
                    break
    _verdict(capsys, 4, "canonical form", failures)


def test_criterion_05_tilde_involution(capsys):
    failures = []
    rng = random.Random(1005)
    for trial in range(100):
        n = 2 + trial % 4  # n cycles over {2,..,5}
        m = random_tp_matrix(n, rng)
        if not is_totally_positive(tilde(m)):
            failures.append(f"trial={trial}: image not TP")
        if tilde(tilde(m)) != m:
            failures.append(f"trial={trial}: not an involution")
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            for a in (F(1, 3), F(2), F(7, 2)):
                if tilde(gen_x(i, a, n)) != gen_x(n - i, a, n):
                    failures.append(f"n={n} i={i}: generator identity")
    _verdict(capsys, 5, "tilde involution", failures)


def test_criterion_06_cells_are_opposed(capsys):
    failures = []
    rng = random.Random(1006)
    from totpos.linalg import inverse

    for trial in range(500):
        n = 2 + trial % 4  # n cycles over {2,..,5}
        u = synthesize_uni(random_uni_params(n, rng, side="lower", strict=True))
        v = synthesize_uni(random_uni_params(n, rng, side="lower", strict=True))
        f = flag_from_matrix(u)
        f_prime = flag_from_matrix(inverse(v))
        if in_B_pos(f) is None or in_B_pos_prime(f_prime) is None:
            failures.append(f"trial={trial}: sample left its cell")
        elif not opposed(f, f_prime):
            failures.append(f"trial={trial}: pair not opposed")
    _verdict(capsys, 6, "positive cells opposed", failures)


def test_criterion_07_stable_flags(capsys):
    assert flag_module._STABILITY_TOL == 1e-6
    assert flag_module._COMPONENT_REL_TOL == 1e-8
    failures = []
    rng = random.Random(1007)
    for n in (2, 3, 4, 5):
        for trial in range(100):
            g = random_tp_matrix(n, rng)
            pair = stable_flags(g, sigma_mode="identity")
            if in_B_pos(pair.flag) is None:
                failures.append(f"n={n} trial={trial}: flag not in cell")
            if in_B_pos_prime(pair.flag_prime) is None:
                failures.append(f"n={n} trial={trial}: primed flag not in cell")
            if not opposed(pair.flag, pair.flag_prime):
                failures.append(f"n={n} trial={trial}: pair not opposed")
            if pair.stability_residual > 1e-6:
                failures.append(f"n={n} trial={trial}: not alpha-stable")
            if not all(v > 1 + 1e-6 for v in pair.dilation_moduli):
                failures.append(f"n={n} trial={trial}: dilation margin")
            if not all(v < 1 - 1e-6 for v in pair.contraction_moduli):
                failures.append(f"n={n} trial={trial}: contraction margin")
            if not identity_component_check(g, pair):
                failures.append(f"n={n} trial={trial}: component check")
            if n <= 4:
                spec = gk_spectrum(g)
                cols = [spec.eigenvectors.col_tuple(j) for j in range(n)]
                winners = []
                for perm in itertools.permutations(range(n)):
                    v = _rationalize_columns(
                        Matrix.from_columns([cols[j] for j in perm])
                    )
                    if in_B_pos(flag_from_matrix(v)) is not None:
                        winners.append(perm)
                if winners != [tuple(range(n))]:
                    failures.append(
                        f"n={n} trial={trial}: orderings {winners}"
                    )
    _verdict(capsys, 7, "stable flags", failures)


def test_criterion_08_stable_flags_tilde_mode(capsys):
    assert flag_module._STABILITY_TOL == 1e-6
    failures = []
    rng = random.Random(1008)
    for trial in range(50):
        n = 2 + trial % 3  # n cycles over {2, 3, 4}
        g = random_tp_matrix(n, rng)  # then g . tilde(g) is TP
        pair = stable_flags(g, sigma_mode="tilde")
        if pair.stability_residual > 1e-6:
            failures.append(f"trial={trial}: not alpha-stable")
        if not all(v > 1 + 1e-6 for v in pair.dilation_moduli):
            failures.append(f"trial={trial}: dilation margin")
        if not all(v < 1 - 1e-6 for v in pair.contraction_moduli):
            failures.append(f"trial={trial}: contraction margin")
        if not all(abs(v - 1.0) <= 1e-6 for v in pair.finite_order_moduli):
            failures.append(f"trial={trial}: finite-order moduli")
    _verdict(capsys, 8, "stable flags, twisted", failures)


def test_criterion_09_positive_curves(capsys):
    failures = []
    for degree in (2, 3):
        report = is_positive_curve_sampled(
            MomentCurve(degree), samples=8
        )
        if report.total != 70 or not report.ok:
            failures.append(
                f"degree={degree}: {report.passed}/{report.total} quadruples"
            )
    # corrupted quadruples: wrong reference pairing and sign-flipped flags
    rejected = 0
    attempts = 0
    for degree in (2, 3):
        curve = MomentCurve(degree)
        n = degree + 1
        for shift in range(5):
            pts = [CirclePoint.at(F(v - 2 * shift, 2)) for v in (-3, -1, 1, 3)]
            quad = dihedral_partition(*pts)
            flags = [curve.flag_at(p) for p in pts]
            attempts += 1
            if not is_positive_quadruple(
                [flags[0], flags[2], flags[1], flags[3]], quad
            ):
                rejected += 1
            d = Matrix.diagonal(
                [F(-1) if i == shift % n else F(1) for i in range(n)]
            )
            corrupted = flag_from_matrix(d @ flags[1].rep)
            attempts += 1
            if not is_positive_quadruple(
                [flags[0], corrupted, flags[2], flags[3]], quad
            ):
                rejected += 1
    if attempts != 20 or rejected != 20:
        failures.append(f"corrupted quadruples: {rejected}/{attempts} rejected")
    for degree in (2, 3):
        report = convex_curve_check(
            MomentCurve(degree), trials=1000, seed=1009
        )
        if not report.ok:
            failures.append(
                f"degree={degree}: intersection count {report.max_count}"
            )
    _verdict(capsys, 9, "positive curves", failures)


def test_criterion_10_form_test_agreement(capsys):
    failures = []
    rng = random.Random(1010)
    for trial in range(100):
        n = 2 + trial % 3  # n cycles over {2, 3, 4}
        if trial % 2:
            form = random_positive_form(n, rng)
        else:
            form = BilinearForm(
                Matrix(
                    [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
                )
            )
        if form_family_positive(form) != is_totally_positive_form(form):
            failures.append(f"trial={trial}: routes disagree")
    _verdict(capsys, 10, "form test agreement", failures)
