"""Seeded random generators for matrices, parameters, forms, and flags.

Everything draws from a caller-supplied ``random.Random`` so runs are
reproducible; values are small exact fractions unless stated otherwise.
Positivity classes are produced by construction (through the parameter
maps), never by rejection against the classifiers they are meant to test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bilinear import A_to_form, BilinearForm
from .errors import InputError
from .flags import Flag, flag_from_matrix
from .linalg import Matrix, det
from .whitney import TPParameters, UniParams, synthesize, synthesize_uni, word_for


def positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 4))


def relaxed_fraction(rng: random.Random) -> Fraction:
    """A nonnegative parameter; zero with probability 1/4."""
    if rng.randrange(4) == 0:
        return Fraction(0)
    return positive_fraction(rng)


def random_tp_parameters(
    n: int,
    rng: random.Random,
    strict: bool = True,
    word: str = "standard",
) -> TPParameters:
    wd = word_for(n, word)
    draw = positive_fraction if strict else relaxed_fraction
    return TPParameters(
        n=n,
        word=wd,
        a=tuple(draw(rng) for _ in wd),
        t=tuple(positive_fraction(rng) for _ in range(n)),
        b=tuple(draw(rng) for _ in wd),
        strict=strict,
    )


def random_uni_params(
    n: int,
    rng: random.Random,
    side: str = "lower",
    strict: bool = True,
    word: str = "standard",
) -> UniParams:
    wd = word_for(n, word)
    draw = positive_fraction if strict else relaxed_fraction
    return UniParams(
        n=n,
        word=wd,
        side=side,
        c=tuple(draw(rng) for _ in wd),
        strict=strict,
    )


def random_tp_matrix(n: int, rng: random.Random) -> Matrix:
    """Totally positive, exact, invertible by construction."""
    return synthesize(random_tp_parameters(n, rng, strict=True))


def random_tn_matrix(n: int, rng: random.Random) -> Matrix:
    """Totally nonnegative and invertible; strict positivity not guaranteed."""
    return synthesize(random_tp_parameters(n, rng, strict=False))


def random_vector(n: int, rng: random.Random) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9)) for _ in range(n)]


def random_nonzero_vector(n: int, rng: random.Random) -> list[Fraction]:
    v = random_vector(n, rng)
    while all(x == 0 for x in v):
        v = random_vector(n, rng)
    return v


def random_invertible(n: int, rng: random.Random) -> Matrix:
    """Exact integer matrix with nonzero determinant, by redraw."""
    if n < 1:
        raise InputError("need n >= 1")
    while True:
        m = Matrix(
            [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        )
        if det(m) != 0:
            return m


def random_positive_form(n: int, rng: random.Random) -> BilinearForm:
    """A bilinear form whose attached matrix family is totally positive."""
    return A_to_form(random_tp_matrix(n, rng))


def random_flag(n: int, rng: random.Random) -> Flag:
    return flag_from_matrix(random_invertible(n, rng))


def random_positive_cell_flag(n: int, rng: random.Random) -> Flag:
    """A flag inside the open positive cell, built from strict parameters."""
    u = synthesize_uni(random_uni_params(n, rng, side="lower", strict=True))
    return flag_from_matrix(u)
