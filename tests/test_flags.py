"""Flags, positive cells, opposed pairs, and stable flags of positive maps."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
from fractions import Fraction as F

import numpy as np
import pytest

from totpos.bilinear import c0_matrix, tilde
from totpos import flags as flags_module
from totpos.errors import DomainError, InputError, SingularityError
from totpos.flags import (
    Flag,
    _canonical_rep,
    _cell_params,
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
from totpos.linalg import Matrix, det, inverse, rank, reversal_permutation, submatrix
from totpos.sampling import (
    random_flag,
    random_invertible,
    random_positive_cell_flag,
    random_tp_matrix,
    random_uni_params,
)
from totpos.scalars import as_fraction
from totpos.whitney import gauss_ldu, membership_uni, synthesize_uni


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


def test_flag_holds_its_canonical_representative():
    # any representative builds the same flag; none but a square invertible one
    assert Flag(Matrix([[2, 0], [0, 1]])) == standard_flag(2)
    assert Flag(Matrix([[2, 1], [4, 1]])).rep == Matrix([[F(1, 2), 1], [1, 0]])
    assert Flag(Matrix([[0.5, 0.0], [1.0, 3.0]])).rep.is_exact
    with pytest.raises(SingularityError):
        Flag(Matrix([[1, 2], [2, 4]]))
    with pytest.raises(InputError, match="square invertible"):
        Flag(Matrix([[1, 0, 0], [0, 1, 0]]))


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


def test_flags_and_stable_pairs_copy_and_pickle():
    g = random_tp_matrix(4, random.Random(51))
    pair = stable_flags(g)
    for x in (Flag(g), Flag(g.to_float()), pair):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x
    def typed(f):
        return f.rep.is_exact, [[(type(x), x) for x in row] for row in f.rep.to_lists()]

    for y in (copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
        assert typed(y.flag) == typed(pair.flag) and typed(y.flag_prime) == typed(pair.flag_prime)


def test_identity_component_check_refuses_maps_off_the_torus():
    rng = random.Random(55)
    g, h = random_tp_matrix(3, rng), random_tp_matrix(3, rng)
    pair = stable_flags(g)
    assert identity_component_check(g, pair)
    # another frame: off-diagonal entries past the relative tolerance
    assert not identity_component_check(h, pair)
    # diagonal in the frame, but with negative entries
    assert not identity_component_check(-g, pair)
    # no diagonal scale at all
    assert not identity_component_check(Matrix([[0] * 3] * 3), pair)


def test_identity_component_check_reads_the_frame_map_exactly():
    # g·g is diagonal in g's frame; float products of the frame and the map
    # once cancelled it off the torus
    g = random_tp_matrix(6, random.Random(0))
    pair = stable_flags(g)
    assert identity_component_check(g @ g, pair)
    assert identity_component_check(g.to_float(), pair)


def test_stability_residual_is_relative_to_the_representatives():
    # a Vandermonde matrix with a corner of 10**20 is totally positive; its
    # representatives hold entries near 10**20 that agree to rounding, which
    # an absolute gap read as a move of about 1.6e4
    rows = [[i**j for j in range(4)] for i in range(1, 5)]
    rows[3][3] = 10**20
    pair = stable_flags(Matrix(rows))
    assert pair.stability_residual < 1e-15


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
            w_alpha = w if sigma_mode == "identity" else tilde(w) @ c0_matrix(n)
            # stable_flags reads a float map as its dyadic copy
            assert _transport_blocks(w_inv @ m.to_exact() @ w_alpha, sigma_mode) == (
                pair.dilation_moduli,
                pair.contraction_moduli,
                pair.finite_order_moduli,
            )


def _primed_flag(n, rng):
    u = synthesize_uni(random_uni_params(n, rng, side="lower", strict=True))
    return flag_from_matrix(inverse(u))


def _oracle_opposed(f1, f2):
    # oracle: one rank test per split of the two chains
    n = f1.n
    for k in range(1, n):
        cols = [list(f1.rep.col_tuple(j)) for j in range(k)] + [
            list(f2.rep.col_tuple(j)) for j in range(n - k)
        ]
        if rank(Matrix.from_columns(cols)) < n:
            return False
    return True


def test_opposed_matches_the_rank_oracle():
    rng = random.Random(1818)
    verdicts = []
    for n in range(1, 7):
        perms = [tuple(range(n)), tuple(range(n - 1, -1, -1))]
        perms += [tuple(rng.sample(range(n), n)) for _ in range(6)]
        perm_flags = [
            flag_from_matrix(Matrix([[int(p[j] == i) for j in range(n)] for i in range(n)]))
            for p in perms
        ]
        pairs = [(f, h) for f in perm_flags for h in perm_flags]
        for _ in range(4):
            f, h = random_flag(n, rng), random_flag(n, rng)
            cell, primed = random_positive_cell_flag(n, rng), _primed_flag(n, rng)
            pairs += [(f, h), (f, f), (cell, primed), (primed, cell), (cell, cell)]
            if n > 1:
                # h with its first line replaced by f's: the two share a line
                shared = Matrix.from_columns(
                    [f.rep.col_tuple(0)] + [h.rep.col_tuple(j) for j in range(1, n)]
                )
                if det(shared) != 0:
                    pairs += [(f, flag_from_matrix(shared)), (flag_from_matrix(shared), f)]
        for f1, f2 in pairs:
            want = _oracle_opposed(f1, f2)
            assert opposed(f1, f2) == want
            float1, float2 = Flag(f1.rep.to_float()), Flag(f2.rep.to_float())
            assert opposed(float1, float2) == _oracle_opposed(float1, float2)
            # beside an exact one, a float representative is read as its
            # dyadic copy, not rounding the exact one to floats
            dyadic1 = Flag(float1.rep.to_exact())
            assert opposed(float1, f2) == _oracle_opposed(dyadic1, f2)
            verdicts.append(want)
    assert verdicts.count(True) > 150 and verdicts.count(False) > 150


def _oracle_transport_blocks(g_w, sigma_mode, k_mat):
    # oracle: the map applied to each unit matrix, the twist conjugating
    # through a second matrix k: y -> g (-k y^T k^-1) g^-1 in tilde mode
    n = g_w.rows
    g = np.array(g_w.to_float().to_lists(), dtype=np.float64)
    g_inv = np.linalg.inv(g)
    if sigma_mode == "tilde":
        k = np.array(k_mat.to_float().to_lists(), dtype=np.float64)
        k_inv = np.linalg.inv(k)

    def transport(y):
        if sigma_mode == "tilde":
            y = -k @ y.T @ k_inv
        return g @ y @ g_inv

    def block_moduli(coords):
        op = np.zeros((len(coords), len(coords)))
        for col, (i, j) in enumerate(coords):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            t = transport(e)
            for row, (a, b) in enumerate(coords):
                op[row, col] = t[a, b]
        return tuple(sorted((float(abs(x)) for x in np.linalg.eigvals(op)), reverse=True))

    pairs = [(i, j) for i in range(n) for j in range(n)]
    return (
        block_moduli([(i, j) for i, j in pairs if i < j]),
        block_moduli([(i, j) for i, j in pairs if i > j]),
        block_moduli([(i, j) for i, j in pairs if i == j]),
    )


def test_transport_blocks_match_the_unit_matrix_oracle():
    rng = random.Random(1819)
    for n in range(2, 6):
        g = random_tp_matrix(n, rng)
        for sigma_mode in ("identity", "tilde"):
            pair = stable_flags(g, sigma_mode)
            w = adapted_basis(pair.flag, pair.flag_prime)
            w_inv = inverse(w)
            g_w = w_inv @ g @ w
            if sigma_mode == "identity":
                got = _transport_blocks(g_w, sigma_mode)
                assert got == _oracle_transport_blocks(g_w, sigma_mode, None)
            else:
                # one frame map m = g_w k, formed exactly, against the float
                # product through k: equal up to rounding
                k = w_inv @ c0_matrix(n) @ w_inv.transpose()
                got = _transport_blocks(g_w @ k, sigma_mode)
                want = _oracle_transport_blocks(g_w, sigma_mode, k)
                assert [len(t) for t in got] == [len(t) for t in want]
                for x, y in zip(sum(got, ()), sum(want, ())):
                    assert math.isclose(x, y, rel_tol=1e-6)
            assert got == (
                pair.dilation_moduli,
                pair.contraction_moduli,
                pair.finite_order_moduli,
            )
        # any frame map; with k = 1 the oracle rounds each coefficient once too
        m = random_invertible(n, rng)
        assert _transport_blocks(m, "identity") == _oracle_transport_blocks(m, "identity", None)
        assert _transport_blocks(m, "tilde") == _oracle_transport_blocks(
            m, "tilde", Matrix.identity(n)
        )


def test_tilde_mode_twists_only_the_input(monkeypatch):
    # the flags' images are read from the twist of the frame, formed from
    # the frame's one inverse, not by twisting each flag again
    calls = []

    def counted(m):
        calls.append(m)
        return tilde(m)

    monkeypatch.setattr(flags_module, "tilde", counted)
    g = random_tp_matrix(4, random.Random(1820))
    stable_flags(g, sigma_mode="tilde")
    assert calls == [g]


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


def _oracle_canonical_rep(g):
    # oracle: the column reduction on Fractions
    n = g.rows
    canon = []
    pivots = []
    for j in range(n):
        v = [as_fraction(x) for x in g.col_tuple(j)]
        for p, u in zip(pivots, canon):
            f = v[p]
            if f != 0:
                v = [a - f * b for a, b in zip(v, u)]
        piv = next((i for i in range(n - 1, -1, -1) if v[i]), None)
        if piv is None:
            raise SingularityError("matrix columns are linearly dependent")
        inv = 1 / v[piv]
        v = [a * inv for a in v]
        v[piv] = 1
        for p in pivots:
            v[p] = 0
        canon.append(v)
        pivots.append(piv)
    return Matrix.from_columns(canon)


def _typed_outcome(fn, g):
    # entries with their types (a Matrix repr prints 1 and Fraction(1)
    # alike), or the exception type
    try:
        return [[(type(x), x) for x in row] for row in fn(g).to_lists()], None
    except Exception as exc:  # the oracle and the kernel must raise alike
        return None, type(exc)


def test_canonical_rep_matches_the_fraction_reduction():
    rng = random.Random(1616)

    def small_fraction():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    palettes = {
        "int": lambda: rng.randint(-9, 9),
        "sparse": lambda: rng.choice((0, 0, 0, rng.randint(-3, 3))),
        "fraction": small_fraction,
        "float": lambda: rng.uniform(-3, 3),
        "int and fraction": lambda: rng.choice((rng.randint(-9, 9), small_fraction())),
        "mixed": lambda: rng.choice((rng.randint(-9, 9), small_fraction(), rng.uniform(-3, 3))),
        "heavy": lambda: F(rng.getrandbits(1010) - 2**1009, rng.getrandbits(1010) | 2**1009),
    }
    outcomes = set()
    compared = heavy = 0
    for n in range(1, 8):
        for name, draw in palettes.items():
            for _ in range(12 if name != "heavy" else 3 if n < 6 else 1):
                rows = [[draw() for _ in range(n)] for _ in range(n)]
                cases = [rows]
                if n > 1:
                    # column j a combination of the earlier ones: dependent
                    j = rng.randrange(1, n)
                    c = [rng.randint(-2, 2) for _ in range(j)]
                    dependent = [list(row) for row in rows]
                    for row in dependent:
                        row[j] = sum(ci * x for ci, x in zip(c, row[:j]))
                    cases.append(dependent)
                for x in cases:
                    g = Matrix(x)
                    want = _typed_outcome(_oracle_canonical_rep, g)
                    assert _typed_outcome(_canonical_rep, g) == want
                    outcomes.add(want[1])
                    compared += 1
                    heavy += name == "heavy"
        for perm in itertools.islice(itertools.permutations(range(n)), 24):
            g = Matrix([[int(perm[j] == i) for j in range(n)] for i in range(n)])
            want = _typed_outcome(_oracle_canonical_rep, g)
            assert _typed_outcome(_canonical_rep, g) == want
    assert outcomes == {None, SingularityError}
    assert compared > 900 and heavy > 30


def _oracle_cell_params(g, primed):
    # oracle: the primed cell as it was tested before the twist, by peeling
    # the inverse of the lower factor over the standard word
    ldu = gauss_ldu(g)
    if ldu is None:
        return None
    params = membership_uni(inverse(ldu[0]) if primed else ldu[0], "lower")
    if params is None or not params.strict:
        return None
    return params


def test_twisted_primed_peel_matches_the_inverse_oracle(monkeypatch):
    rng = random.Random(1699)
    reps = []
    for n in range(1, 7):
        for _ in range(6):
            uni = [
                synthesize_uni(random_uni_params(n, rng, side="lower", strict=strict))
                for strict in (True, False)
            ]
            for g in (random_flag(n, rng).rep, uni[0], inverse(uni[0]), inverse(uni[1])):
                d = Matrix.diagonal([F(rng.choice([1, 2, -3]), rng.randint(1, 3)) for _ in range(n)])
                moved = g @ _random_upper_unitriangular(n, rng) @ d
                reps += [g, moved, moved.to_float()]
    for n in range(2, 6):
        g = random_tp_matrix(n, rng)
        for sigma_mode in ("identity", "tilde"):
            pair = stable_flags(g, sigma_mode)
            reps += [pair.flag_prime.rep, pair.flag.rep]
    expected = [(_oracle_cell_params(g, p), g, p) for g in reps for p in (False, True)]

    # no cell test inverts a matrix
    def refuse(m):
        raise AssertionError("a cell test called inverse")

    monkeypatch.setattr(flags_module, "inverse", refuse)
    primed = 0
    for want, g, p in expected:
        # repr sees the word, the parameters and their types
        assert repr(_cell_params(g, p)) == repr(want), (g, p)
        primed += p and want is not None
    assert primed > 150


def _plucker_cell(g, primed):
    """Lusztig's rule, which peels nothing: the flag of g lies in the open positive cell
    exactly when, for each k < n, the k x k minors of g on columns 1..k over every row
    set I are nonzero and of one sign; the primed cell reads each minor times (-1)^sum(I)."""
    n = g.rows
    for k in range(1, n):
        signs = set()
        for rows in itertools.combinations(range(1, n + 1), k):
            m = det(submatrix(g, rows, range(1, k + 1))) * (-1 if primed and sum(rows) % 2 else 1)
            signs.add((m > 0) - (m < 0))
        if signs not in ({1}, {-1}):
            return False
    return True


def _near_boundary(g, rng):
    """g with one entry moved: to 0, across its sign, or by a little."""
    rows = g.to_lists()
    i, j = rng.randrange(g.rows), rng.randrange(g.cols)
    rows[i][j] = rng.choice([0, -rows[i][j], rows[i][j] + F(rng.choice([-1, 1]), rng.randint(1, 1000))])
    return Matrix(rows)


def test_cell_tests_match_the_flag_minor_rule():
    rng = random.Random(1313)
    reps = []
    for n in (2, 3, 4, 5, 6):
        for _ in range(8):
            # zero parameters put a flag on the boundary; inverses lie on the primed side
            for strict in (True, False):
                u = synthesize_uni(random_uni_params(n, rng, side="lower", strict=strict))
                for g in (u, inverse(u)):
                    reps += [g, _near_boundary(g, rng)]
            reps.append(random_flag(n, rng).rep)
    reps += [g.to_float() for g in reps[::3]]
    # the flags of criteria 6-8: stable pairs of TP maps in both modes
    for n in (2, 3, 4, 5):
        g = random_tp_matrix(n, rng)
        for sigma_mode in ("identity", "tilde"):
            pair = stable_flags(g, sigma_mode)
            reps += [pair.flag.rep, pair.flag_prime.rep]
    verdicts = {(p, v): 0 for p in (False, True) for v in (False, True)}
    for g in reps:
        try:
            f = flag_from_matrix(g)
        except SingularityError:
            continue
        for cell, primed in ((in_B_pos, False), (in_B_pos_prime, True)):
            inside = cell(f) is not None
            assert inside == _plucker_cell(f.rep, primed), (g, primed)
            verdicts[primed, inside] += 1
    # each cell answers both ways, many times
    assert min(verdicts.values()) > 100


def _old_route_stable_flags(g, sigma_mode):
    """stable_flags with the flags and cells read off the canonical representatives of
    the refined eigenbasis v and of v·w0; the frame is the basis adapted to that pair."""
    from totpos.spectra import gk_spectrum, refine_eigenbasis

    g = g.to_exact()
    composite = g if sigma_mode == "identity" else g @ tilde(g)
    spectrum = gk_spectrum(composite)
    v = refine_eigenbasis(composite, spectrum.eigenvalues, spectrum.eigenvectors)
    flag = flag_from_matrix(v)
    flag_prime = flag_from_matrix(Matrix.from_columns([v.col_tuple(j) for j in reversed(range(v.cols))]))
    params, params_prime = in_B_pos(flag), in_B_pos_prime(flag_prime)
    w = adapted_basis(flag, flag_prime)
    w_alpha = w if sigma_mode == "identity" else tilde(w)
    image = g @ w_alpha
    w0 = reversal_permutation(g.rows)
    residual = max(flags_module._flag_distance(flag_from_matrix(image), flag),
                   flags_module._flag_distance(flag_from_matrix(image @ w0), flag_prime))
    if sigma_mode == "tilde":
        image = image @ c0_matrix(g.rows)
    moduli = _transport_blocks(inverse(w) @ image, sigma_mode)
    return flags_module.StableFlagPair(
        flag, flag_prime, params, params_prime, spectrum.eigenvalues, *moduli, residual,
        min(float(c) for c in params.c + params_prime.c), sigma_mode)


def test_stable_flags_read_off_the_frame_match_the_canonical_route():
    rng = random.Random(1007)
    cases = [(random_tp_matrix(n, rng), "identity") for n in (2, 3, 4, 5) for _ in range(100)]
    rng = random.Random(1008)
    cases += [(random_tp_matrix(2 + k % 3, rng), "tilde") for k in range(50)]
    rng = random.Random(1821)
    cases += [(random_tp_matrix(n, rng), mode) for n in range(2, 9) for mode in ("identity", "tilde")]
    cases += [(g.to_float(), mode) for g, mode in cases]
    for g, mode in cases:
        got, want = stable_flags(g, mode), _old_route_stable_flags(g, mode)
        for field in dataclasses.fields(got):
            assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), (g, mode, field.name)
        for f, h in ((got.flag, want.flag), (got.flag_prime, want.flag_prime)):
            assert [[type(x) for x in row] for row in f.rep.to_lists()] == \
                [[type(x) for x in row] for row in h.rep.to_lists()]
        assert got == want
    assert len(cases) == 928


def test_cell_params_are_the_same_for_every_representative():
    # g·U·D spans g's flag for any upper unitriangular U and invertible diagonal D
    rng = random.Random(1822)
    answers = {(p, a): 0 for p in (False, True) for a in (False, True)}
    for n in range(2, 7):
        for _ in range(6):
            units = [synthesize_uni(random_uni_params(n, rng, side="lower", strict=s)) for s in (True, False)]
            for g in (*units, *map(inverse, units), random_flag(n, rng).rep, reversal_permutation(n),
                      Matrix.identity(n)):
                canonical = flag_from_matrix(g).rep
                for _ in range(2):
                    d = Matrix.diagonal([F(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 5))
                                         for _ in range(n)])
                    moved = g @ _random_upper_unitriangular(n, rng) @ d
                    for primed in (False, True):
                        want = _cell_params(canonical, primed)
                        assert repr(_cell_params(moved, primed)) == repr(want), (g, primed)
                        answers[primed, want is not None] += 1
    # both cells answer both ways, the boundary flags (non-strict units, w0, 1) among the Nones
    assert min(answers.values()) > 50


@pytest.mark.parametrize("column", ["repeated", "zero"])
def test_a_dependent_eigenbasis_raises_singularity(monkeypatch, column):
    def dependent(m, eigenvalues, vectors):
        rows = [[1, 2, 1], [2, 1, 2], [3, 5, 3]]
        return Matrix([[row[0], row[1], 0 if column == "zero" else row[2]] for row in rows])

    monkeypatch.setattr(flags_module, "refine_eigenbasis", dependent)
    with pytest.raises(SingularityError, match="linearly dependent"):
        stable_flags(random_tp_matrix(3, random.Random(1823)))
