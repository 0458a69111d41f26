"""Flags, positive cells, opposed pairs, and stable flags of positive maps."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from totpos.bilinear import c0_matrix, tilde
from totpos.errors import DomainError, InputError, SingularityError
from totpos.flags import (
    Flag,
    _transport_blocks,
    adapted_basis,
    flag_from_matrix,
    identity_component_check,
    in_B_pos,
    in_B_pos_prime,
    opposed,
    reversed_flag,
    stable_flags,
    standard_flag,
)
from totpos.linalg import Matrix, det, inverse, rank, reversal_permutation
from totpos.sampling import (
    random_flag,
    random_invertible,
    random_positive_cell_flag,
    random_tp_matrix,
    random_uni_params,
)
from totpos.whitney import synthesize_uni


def _random_upper_unitriangular(n, rng):
    rows = [
        [
            F(1) if i == j else (F(rng.randint(-3, 3)) if j > i else F(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return Matrix(rows)


def test_canonical_rep_is_representative_independent():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(8):
            g = random_invertible(n, rng)
            u = _random_upper_unitriangular(n, rng)
            d = Matrix.diagonal([F(rng.choice([1, 2, -3])) for _ in range(n)])
            # right action by any invertible upper triangular fixes the flag
            assert flag_from_matrix(g) == flag_from_matrix(g @ u @ d)


def test_canonical_rep_frozen():
    f = flag_from_matrix(Matrix([[2, 1], [4, 1]]))
    # first column scaled to pivot 1 at the bottom; second reduced against
    # it and rescaled to pivot 1
    assert f.rep == Matrix([[F(1, 2), 1], [1, 0]])


def test_flag_requires_invertible():
    with pytest.raises(SingularityError):
        flag_from_matrix(Matrix([[1, 2], [2, 4]]))


def test_standard_and_reversed_flags():
    assert standard_flag(3).rep == Matrix.identity(3)
    assert reversed_flag(3).rep == reversal_permutation(3)
    assert opposed(standard_flag(3), reversed_flag(3))
    assert not opposed(standard_flag(3), standard_flag(3))


def test_opposed_examples():
    rng = random.Random(9)
    for n in (2, 3, 4):
        f = random_flag(n, rng)
        assert not opposed(f, f)
    # flags sharing the first line fail at level k = 1
    f1 = flag_from_matrix(Matrix([[1, 0], [1, 1]]))
    f2 = flag_from_matrix(Matrix([[1, 1], [1, 0]]))
    assert not opposed(f1, f2)


def test_positive_cell_membership_round_trip():
    rng = random.Random(14)
    for n in (2, 3, 4):
        for _ in range(6):
            p = random_uni_params(n, rng, side="lower", strict=True)
            u = synthesize_uni(p)
            f = flag_from_matrix(u)
            cert = in_B_pos(f)
            assert cert is not None and cert.strict
            # the certificate reproduces the same flag
            assert flag_from_matrix(synthesize_uni(cert)) == f
            # and the primed test recognizes the inverse side
            f_prime = flag_from_matrix(inverse(u))
            cert_prime = in_B_pos_prime(f_prime)
            assert cert_prime is not None and cert_prime.strict


def test_boundary_flags_are_rejected():
    assert in_B_pos(standard_flag(3)) is None  # identity is not strict
    assert in_B_pos_prime(standard_flag(3)) is None
    assert in_B_pos(reversed_flag(3)) is None
    # a sign-flipped direction leaves the closed cone entirely
    bad = flag_from_matrix(Matrix([[1, 0], [-2, 1]]))
    assert in_B_pos(bad) is None


def test_float_flag_cells_answer_like_the_exact_copy():
    # the lower factor of a float flag is inverted exactly, so it stays
    # unitriangular and the primed cell answers instead of raising
    m = Matrix([[-0.2, -0.48, -0.12, 1], [0, -1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]])
    for g in (m, m.to_exact()):
        f = flag_from_matrix(g)
        assert f.rep.is_exact
        assert in_B_pos(f) is None
        assert in_B_pos_prime(f) is None


def test_cells_are_disjoint():
    rng = random.Random(25)
    for n in (2, 3):
        for _ in range(6):
            f = random_positive_cell_flag(n, rng)
            assert in_B_pos(f) is not None
            assert in_B_pos_prime(f) is None


def test_adapted_basis_properties():
    rng = random.Random(40)
    for n in (2, 3, 4):
        for _ in range(5):
            f1 = random_positive_cell_flag(n, rng)
            f2 = flag_from_matrix(
                inverse(synthesize_uni(random_uni_params(n, rng, strict=True)))
            )
            if not opposed(f1, f2):
                continue
            w = adapted_basis(f1, f2)
            assert det(w) != 0
            for k in range(1, n + 1):
                # leading k columns of w span the same space as those of f1
                stacked = Matrix.from_columns(
                    [w.col_tuple(j) for j in range(k)]
                    + [f1.rep.col_tuple(j) for j in range(k)]
                )
                assert rank(stacked) == k
                # k-th column of w lies in the (n-k+1)-st space of f2
                stacked2 = Matrix.from_columns(
                    [f2.rep.col_tuple(j) for j in range(n - k + 1)]
                    + [w.col_tuple(k - 1)]
                )
                assert rank(stacked2) == n - k + 1


def test_adapted_basis_requires_opposed():
    with pytest.raises(DomainError):
        adapted_basis(standard_flag(3), standard_flag(3))
    # each pairwise intersection is a line, yet the flags are not opposed
    with pytest.raises(DomainError):
        adapted_basis(standard_flag(2), standard_flag(2))


def test_stable_flags_structure():
    rng = random.Random(50)
    for n in (2, 3, 4):
        for _ in range(3):
            g = random_tp_matrix(n, rng)
            pair = stable_flags(g)
            assert pair.sigma_mode == "identity"
            assert in_B_pos(pair.flag) is not None
            assert in_B_pos_prime(pair.flag_prime) is not None
            assert opposed(pair.flag, pair.flag_prime)
            assert pair.stability_residual <= 1e-6
            assert pair.margin > 0
            assert all(v > 1 for v in pair.dilation_moduli)
            assert all(v < 1 for v in pair.contraction_moduli)
            assert all(
                math.isclose(v, 1.0, rel_tol=1e-9)
                for v in pair.finite_order_moduli
            )
            assert identity_component_check(g, pair)


def test_stable_flags_eigenvalues_descend():
    rng = random.Random(51)
    g = random_tp_matrix(4, rng)
    pair = stable_flags(g)
    assert all(a > b for a, b in zip(pair.eigenvalues, pair.eigenvalues[1:]))


def test_stable_flag_is_fixed_by_the_map():
    rng = random.Random(52)
    for n in (2, 3):
        g = random_tp_matrix(n, rng)
        pair = stable_flags(g)
        image = flag_from_matrix(g @ pair.flag.rep)
        assert image.approx_equal(pair.flag)
        image_prime = flag_from_matrix(g @ pair.flag_prime.rep)
        assert image_prime.approx_equal(pair.flag_prime)


def test_only_descending_order_lands_in_positive_cell():
    # permuting eigenvector columns leaves the positive cell immediately
    from totpos.spectra import _rationalize_columns
    from totpos.spectra import gk_spectrum

    rng = random.Random(53)
    for n in (2, 3):
        g = random_tp_matrix(n, rng)
        spec = gk_spectrum(g)
        cols = [spec.eigenvectors.col_tuple(j) for j in range(n)]
        hits = []
        for perm in itertools.permutations(range(n)):
            v = _rationalize_columns(
                Matrix.from_columns([cols[j] for j in perm])
            )
            cert = in_B_pos(flag_from_matrix(v))
            hits.append((perm, cert is not None))
        winners = [perm for perm, ok in hits if ok]
        assert winners == [tuple(range(n))]


def test_stable_flags_tilde_mode():
    rng = random.Random(54)
    for n in (2, 3):
        g = random_tp_matrix(n, rng)
        pair = stable_flags(g, sigma_mode="tilde")
        assert pair.sigma_mode == "tilde"
        assert pair.stability_residual <= 1e-6
        assert all(v > 1 for v in pair.dilation_moduli)
        assert all(v < 1 for v in pair.contraction_moduli)
        assert all(
            abs(v - 1.0) <= 1e-6 for v in pair.finite_order_moduli
        )
        # the fixed flag of g . tilde is stable under the twisted action
        image = flag_from_matrix(g @ tilde(pair.flag.rep))
        assert image.approx_equal(pair.flag)


@pytest.mark.parametrize("sigma_mode", ["identity", "tilde"])
def test_stable_frame_matches_adapted_basis_oracle(sigma_mode):
    # the moduli are read in the eigenbasis frame; the frame adapted to the
    # returned pair must give the same tuples
    rng = random.Random(58)
    for n in (2, 3, 4, 5):
        g = random_tp_matrix(n, rng)
        for m in (g, g.to_float()) if n == 2 else (g,):
            pair = stable_flags(m, sigma_mode=sigma_mode)
            w = adapted_basis(pair.flag, pair.flag_prime)
            w_inv = inverse(w)
            k_mat = None
            if sigma_mode == "tilde":
                k_mat = w_inv @ c0_matrix(n) @ w_inv.transpose()
            assert _transport_blocks(w_inv @ m @ w, sigma_mode, k_mat) == (
                pair.dilation_moduli,
                pair.contraction_moduli,
                pair.finite_order_moduli,
            )


def test_stable_flags_rejects_non_tp():
    with pytest.raises(DomainError):
        stable_flags(Matrix.identity(3))
    with pytest.raises(InputError):
        stable_flags(random_tp_matrix(3, random.Random(1)), sigma_mode="swap")


def test_uniqueness_survives_larger_sizes():
    from totpos.spectra import _rationalize_columns
    from totpos.spectra import gk_spectrum

    rng = random.Random(57)
    for n in (4, 5):
        g = random_tp_matrix(n, rng)
        spec = gk_spectrum(g)
        cols = [spec.eigenvectors.col_tuple(j) for j in range(n)]
        winners = [
            perm
            for perm in itertools.permutations(range(n))
            if in_B_pos(
                flag_from_matrix(
                    _rationalize_columns(
                        Matrix.from_columns([cols[j] for j in perm])
                    )
                )
            )
            is not None
        ]
        assert winners == [tuple(range(n))]


def test_transversal_moduli_are_dual():
    # the action on the tangent space at one fixed flag inverts the
    # moduli of the action at the other
    rng = random.Random(29)
    for n in (2, 3, 4):
        pair = stable_flags(random_tp_matrix(n, rng))
        inverted = sorted(1.0 / v for v in pair.contraction_moduli)
        assert len(pair.dilation_moduli) == len(inverted)
        for a, b in zip(sorted(pair.dilation_moduli), inverted):
            assert math.isclose(a, b, rel_tol=1e-8)


def test_tilde_keeps_the_positive_cell():
    rng = random.Random(41)
    for n in (2, 3, 4):
        u = synthesize_uni(random_uni_params(n, rng, side="lower", strict=True))
        image = flag_from_matrix(tilde(u))
        assert in_B_pos(image) is not None
