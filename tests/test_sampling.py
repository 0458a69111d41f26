"""Seeded generators: reproducibility and advertised class membership."""

import random
from fractions import Fraction as F

from totpos.classify import is_totally_nonnegative, is_totally_positive
from totpos.bilinear import is_totally_positive_form
from totpos.flags import in_B_pos
from totpos.linalg import det
from totpos.sampling import (
    random_invertible,
    random_nonzero_vector,
    random_positive_cell_flag,
    random_positive_form,
    random_tn_matrix,
    random_tp_matrix,
    random_tp_parameters,
)


def test_generators_are_seed_deterministic():
    a = random_tp_matrix(3, random.Random(77))
    b = random_tp_matrix(3, random.Random(77))
    assert a == b
    p = random_tp_parameters(4, random.Random(5))
    q = random_tp_parameters(4, random.Random(5))
    assert p == q


def test_class_membership_by_construction():
    rng = random.Random(3)
    assert is_totally_positive(random_tp_matrix(4, rng))
    assert is_totally_nonnegative(random_tn_matrix(4, rng))
    assert det(random_invertible(3, rng)) != 0
    assert is_totally_positive_form(random_positive_form(3, rng))
    assert in_B_pos(random_positive_cell_flag(3, rng)) is not None
    assert any(x != 0 for x in random_nonzero_vector(4, rng))


def test_relaxed_parameters_hit_zero():
    rng = random.Random(8)
    p = random_tp_parameters(5, rng, strict=False)
    assert not p.strict
    assert any(x == 0 for x in p.a + p.b)  # zero rate 1/4 over 20 draws


def test_nonzero_vector_redraws_an_all_zero_draw():
    assert random.Random(23).randint(-9, 9) == 0  # the first draw of a 1-vector
    assert random_nonzero_vector(1, random.Random(23)) != [0]
