"""Free Lie algebra layer: Lyndon bases, Witt ranks, bracket arithmetic."""

import itertools
import random

import pytest

from arrlie import (
    DEFAULT_GUARD,
    SizeGuardError,
    witt_rank,
)
from arrlie import HolonomyAlgebra, braid, near_pencil, rings
from lie_reference import (
    LieElement,
    basis_pair_bracket,
    bracket,
    check_guard,
    coords,
    dense_reduce,
    element,
    expand_tree,
    is_lyndon,
    lie_coords,
    lyndon_basis,
    lyndon_columns,
    lyndon_words,
    lie_generator,
    lie_zero,
    standard_factorization,
    tensor_to_lyndon,
    word_coords,
    word_row_pieces,
)


def brute_lyndon(k, n):
    """Enumerate length-n words over 0..k-1 smaller than all proper rotations."""
    out = []
    for w in itertools.product(range(k), repeat=n):
        if all(w < w[i:] + w[:i] for i in range(1, n)):
            out.append(w)
    return out


def lyndon_to_tensor(k, n, coeffs):
    basis = lyndon_basis(k, n)
    out = {}
    for i, c in coeffs.items():
        for w, e in expand_tree(basis.trees[i]).items():
            out[w] = out.get(w, 0) + c * e
    return {w: c for w, c in out.items() if c}


def tensor_commutator(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
            out[wb + wa] = out.get(wb + wa, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


def random_element(rng, k, n, ring=rings.Z):
    dim = len(lyndon_basis(k, n))
    coeffs = {i: rng.randint(-3, 3) for i in rng.sample(range(dim), min(3, dim))}
    return LieElement(k, n, coeffs, ring)


# ---------------------------------------------------------------------------
# words and ranks

@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in range(1, 7)])
def test_lyndon_words_match_rotation_filter(k, n):
    assert lyndon_words(k, n) == brute_lyndon(k, n)


def test_witt_rank_spots():
    assert [witt_rank(2, n) for n in range(1, 6)] == [2, 1, 2, 3, 6]
    assert witt_rank(3, 3) == 8
    assert witt_rank(6, 3) == 70
    assert [witt_rank(1, n) for n in range(1, 5)] == [1, 0, 0, 0]
    with pytest.raises(ValueError, match="degree must be positive"):
        witt_rank(2, 0)


def test_is_lyndon_and_factorization():
    assert is_lyndon((0, 0, 1))
    assert not is_lyndon((1, 0))
    assert not is_lyndon(())
    for w in lyndon_words(3, 5):
        u, v = standard_factorization(w)
        assert u + v == w
        assert is_lyndon(u) and is_lyndon(v)
        # v is the lex-least proper suffix, hence the longest Lyndon one
        assert v == min(w[i:] for i in range(1, len(w)))


def test_basis_is_indexed_and_memoized():
    b1 = lyndon_basis(2, 4)
    b2 = lyndon_basis(2, 4)
    assert b1 is b2
    assert len(b1) == witt_rank(2, 4) == 3
    assert [b1.index[w] for w in b1.words] == list(range(len(b1)))


def test_size_guard():
    with pytest.raises(SizeGuardError):
        lyndon_basis(4, 20)
    assert issubclass(SizeGuardError, ValueError)
    assert DEFAULT_GUARD >= 10 ** 6
    # one letter counts as two, so its degree is bounded too
    check_guard(1, 23)
    with pytest.raises(SizeGuardError, match=r"2\^24 > 10000000"):
        check_guard(1, 24)
    # a degree past the guard's bit length is refused without a power
    with pytest.raises(SizeGuardError):
        check_guard(6, 10 ** 12)
    check_guard(2, 7, guard=128)
    with pytest.raises(SizeGuardError):
        check_guard(2, 8, guard=128)


# ---------------------------------------------------------------------------
# tensor expansion and rewriting

def test_expand_tree_left_normed_example():
    # [x0, [x0, x1]] = x0x0x1 - 2 x0x1x0 + x1x0x0
    basis = lyndon_basis(2, 3)
    tree = basis.trees[basis.index[(0, 0, 1)]]
    assert tree == (0, (0, 1))
    assert expand_tree(tree) == {(0, 0, 1): 1, (0, 1, 0): -2, (1, 0, 0): 1}


@pytest.mark.parametrize("k,n", [(2, 3), (2, 5), (3, 4)])
def test_basis_trees_rewrite_to_unit_vectors(k, n):
    basis = lyndon_basis(k, n)
    for i, tree in enumerate(basis.trees):
        assert tensor_to_lyndon(expand_tree(tree), k, n) == {i: 1}


def test_round_trip_through_the_tensor_algebra():
    rng = random.Random(7)
    for k, n in [(2, 4), (3, 3), (4, 2)]:
        for _ in range(5):
            dim = len(lyndon_basis(k, n))
            coeffs = {i: rng.randint(-4, 4) for i in range(dim) if rng.random() < 0.5}
            coeffs = {i: c for i, c in coeffs.items() if c}
            assert tensor_to_lyndon(lyndon_to_tensor(k, n, coeffs), k, n) == coeffs


def test_non_lie_tensors_are_rejected():
    with pytest.raises(ValueError, match="not a Lie element"):
        tensor_to_lyndon({(1, 0): 1}, 2, 2)
    with pytest.raises(ValueError, match="not a Lie element"):
        tensor_to_lyndon({(0, 1): 1}, 2, 2)  # x0x1 alone, missing -x1x0
    assert tensor_to_lyndon({(0, 1): 1, (1, 0): -1}, 2, 2) == {0: 1}


# ---------------------------------------------------------------------------
# coefficients at the Lyndon words

@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3, 4) for n in range(1, 7)])
def test_lyndon_columns_are_unitriangular(k, n):
    cols = lyndon_columns(k, n)
    assert len(cols) == witt_rank(k, n)
    for i, col in enumerate(cols):
        assert col[i] == 1
        assert all(j > i for j in col if j != i)


def test_word_coords_read_the_tensor_expansion():
    rng = random.Random(5)
    for k, n in [(2, 5), (3, 4), (4, 3)]:
        words = lyndon_basis(k, n).words
        for _ in range(5):
            vec = [rng.randint(-3, 3) for _ in words]
            poly = lyndon_to_tensor(k, n, dict(enumerate(vec)))
            x = [poly.get(w, 0) for w in words]
            assert word_coords(k, n, vec) == x
            assert word_coords(k, n, dict(enumerate(vec))) == x
            assert lie_coords(k, n, x) == vec


def _unit(n, j):
    return [int(i == j) for i in range(n)]


@pytest.mark.parametrize("arr", [braid(4), near_pencil(5)], ids=["braid4", "np5"])
def test_holonomy_coordinates_go_through_the_table(arr):
    # tower coordinates against the word rows of the ideal: every basis
    # class survives element then coords, the generators the word-row
    # elimination keeps for the next degree have coords zero, and the
    # word rows give the same lattice up to isomorphism
    alg = HolonomyAlgebra(arr, 4)
    for d in range(1, 5):
        q = alg.quotient(d)
        for j in range(alg.dim(d)):
            e = _unit(alg.dim(d), j)
            assert coords(alg, d, element(alg, d, e)) == dense_reduce(q, e)
    for d, (sub, kept) in enumerate(itertools.islice(word_row_pieces(arr), 3), 2):
        assert (sub.rank, sub.torsion) == (alg.rank(d), alg.torsion(d))
        for poly in kept:
            assert coords(alg, d, poly) == [0] * alg.dim(d)


# ---------------------------------------------------------------------------
# bracket arithmetic

def test_bracket_small_examples():
    x0 = lie_generator(2, 0)
    x1 = lie_generator(2, 1)
    c = bracket(x0, x1)
    assert c.coeffs == {0: 1}
    assert bracket(x1, x0).coeffs == {0: -1}
    assert bracket(x0, x0).is_zero()
    d = bracket(x0, c)  # [x0, [x0, x1]]
    assert d.degree == 3 and d.coeffs == {0: 1}


def test_bracket_antisymmetry_and_jacobi_sampled():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.choice([2, 3])
        a = random_element(rng, k, 1)
        b = random_element(rng, k, 1)
        c = random_element(rng, k, rng.choice([1, 2]))
        assert (bracket(a, b) + bracket(b, a)).is_zero()
        jac = bracket(bracket(a, b), c) + bracket(bracket(b, c), a) \
            + bracket(bracket(c, a), b)
        assert jac.is_zero()


def test_bracket_agrees_with_tensor_commutator():
    rng = random.Random(13)
    for _ in range(20):
        k = rng.choice([2, 3])
        da = rng.choice([1, 2])
        db = rng.choice([1, 2])
        a = random_element(rng, k, da)
        b = random_element(rng, k, db)
        lhs = bracket(a, b).coeffs
        rhs = tensor_to_lyndon(
            tensor_commutator(lyndon_to_tensor(k, da, a.coeffs),
                              lyndon_to_tensor(k, db, b.coeffs)),
            k, da + db)
        assert lhs == rhs


def test_basis_pair_bracket_matches_bracket():
    for da, db in [(1, 1), (1, 2), (2, 2)]:
        na, nb = len(lyndon_basis(3, da)), len(lyndon_basis(3, db))
        for ia in range(min(na, 3)):
            for ib in range(min(nb, 3)):
                a = LieElement(3, da, {ia: 1})
                b = LieElement(3, db, {ib: 1})
                assert basis_pair_bracket(3, da, db, ia, ib) == bracket(a, b).coeffs


# ---------------------------------------------------------------------------
# element arithmetic over the three coefficient rings

def test_element_arithmetic():
    a = LieElement(2, 2, {0: 2})
    b = LieElement(2, 2, {0: -2})
    assert (a + b).is_zero()
    assert (a - b).coeffs == {0: 4}
    assert a.scale(3).coeffs == {0: 6}
    assert lie_zero(2, 2).vector() == [0]
    assert a.vector() == [2]


def test_element_coefficients_normalize_by_ring():
    over_f5 = LieElement(2, 1, {0: 7, 1: 5}, rings.fp(5))
    assert over_f5.coeffs == {0: 2}
    with pytest.raises(ValueError, match="ring mismatch"):
        LieElement(2, 1, {0: 1}) + LieElement(2, 1, {0: 1}, rings.Q)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        LieElement(2, 1, {0: 1}) + LieElement(3, 1, {0: 1})
    with pytest.raises(ValueError, match="out of range"):
        lie_generator(2, 5)


def test_bracket_over_a_field():
    x0 = lie_generator(2, 0, rings.fp(3))
    x1 = lie_generator(2, 1, rings.fp(3))
    c = bracket(x0, x1)
    assert c.ring == rings.fp(3)
    assert c.scale(3).is_zero()
