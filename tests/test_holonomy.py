"""Holonomy Lie algebra: relation sets, graded pieces, Falk invariant, Magnus."""

import itertools
import random
import re

import pytest

from arrlie import (
    DEFAULT_GUARD,
    Arrangement,
    GradedAbelian,
    HolonomyAlgebra,
    braid,
    empty_relation_set,
    falk_invariant,
    generic,
    holonomy_graded,
    make_presentation,
    near_pencil,
    pencil,
    presentation_from_json,
    relation_set,
    standard_catalog,
    witt_rank,
)
from arrlie import exactla, holonomy, rings
from arrlie.decomp import letter_matrix
from arrlie.freelie import SizeGuardError
from arrlie.holonomy import (
    as_relation_set,
    holonomy_degrees,
    holonomy_map_from_presentation,
    i2_basis,
    pair_index,
    relation_set_from_presentation,
)
from arrlie.nilpotent import k_invariant_matrix
from lie_reference import (FullRowTower, LieElement, bracket, bracket_coords,
                           coords, dense_reduce, element, ideal_words, lie_generator,
                           rank_sparse_pivots, word_row_degrees,
                           word_row_pieces)


# ---------------------------------------------------------------------------
# relation sets

def test_relation_set_braid4():
    arr = braid(4)
    rs = relation_set(arr)
    assert len(rs) == sum(len(f.members) for f in arr.flats) == 18
    assert rs.alphabet == 6
    assert rs.atom_names == arr.atoms
    pidx = pair_index(6)
    by_label = dict(zip(rs.labels, rs.elements))
    # flat 2 is the double point {H12, H34}
    assert by_label[(2, 0)] == {pidx[(0, 5)]: 1}
    assert by_label[(2, 5)] == {pidx[(0, 5)]: -1}
    # [x_H, x_H + x_K + x_L] drops the self term
    assert by_label[(0, 0)] == {pidx[(0, 1)]: 1, pidx[(0, 3)]: 1}


def test_relation_family_sums_to_zero_per_flat():
    for _, arr in standard_catalog():
        rs = relation_set(arr)
        sums = {}
        for (fi, _h), el in zip(rs.labels, rs.elements):
            acc = sums.setdefault(fi, {})
            for c, v in el.items():
                acc[c] = acc.get(c, 0) + v
        for acc in sums.values():
            assert not any(acc.values())


def test_empty_relation_set_gives_the_free_lie_algebra():
    rs = empty_relation_set(3)
    for d in range(1, 5):
        g = holonomy_graded(rs, d)
        assert (g.rank, g.torsion) == (witt_rank(3, d), ())


# ---------------------------------------------------------------------------
# graded pieces

def test_braid3_grades_like_free_rank_two():
    arr = braid(3)
    assert [holonomy_graded(arr, d).rank for d in (2, 3, 4, 5)] == [1, 2, 3, 6]


def test_braid4_grades():
    arr = braid(4)
    g2 = holonomy_graded(arr, 2)
    g3 = holonomy_graded(arr, 3)
    assert (g2.rank, g2.torsion) == (4, ())
    assert (g3.rank, g3.torsion) == (10, ())
    assert holonomy_graded(arr, 1).rank == 6


@pytest.mark.parametrize("k", [3, 4, 5])
def test_pencil_grades_match_witt(k):
    arr = pencil(k)
    for d in (2, 3, 4):
        assert holonomy_graded(arr, d).rank == witt_rank(k - 1, d)


def test_generic_is_abelian_and_near_pencil_localizes():
    for d in (2, 3):
        assert holonomy_graded(generic(4), d).rank == 0
    assert holonomy_graded(near_pencil(5), 2).rank == 3
    assert holonomy_graded(near_pencil(5), 3).rank == 8


def test_field_ranks_agree_when_torsion_free():
    # the tower over Z against the word rows over Q and F_2, which share
    # no code with it
    arr = braid(4)
    over_z = holonomy_degrees(arr, 4, rings.Z)
    for ring in (rings.Q, rings.fp(2)):
        oracle = word_row_degrees(arr, 4, ring)
        for d, (rz, (rank, _t)) in enumerate(zip(over_z, oracle), 1):
            assert rz.torsion == ()
            assert rank == rz.rank, (d, ring)
            assert holonomy_graded(arr, d, ring).rank == rz.rank


def test_fiber_type_ranks_at_the_top_of_the_ladder():
    # Falk-Randell: braid(n) has exponents 1..n-1, phi_k = sum witt(e, k)
    assert holonomy_graded(braid(5), 4, rings.Z) == GradedAbelian(81)
    assert holonomy_graded(braid(4), 5, rings.Q).rank == 54
    # near_pencil(7) has exponents 1, 5, 1, so phi_5 = witt(5, 5)
    assert holonomy_graded(near_pencil(7), 5, rings.Z) == GradedAbelian(624)
    # degrees 5 and 6, which the tower reaches cheaply
    assert holonomy_graded(braid(5), 5, rings.Z) == GradedAbelian(258)
    assert holonomy_graded(braid(4), 6, rings.Z) == GradedAbelian(125)
    # near_pencil(6) has exponents 1, 4, 1, so phi_6 = witt(4, 6)
    assert holonomy_graded(near_pencil(6), 6, rings.Z) == GradedAbelian(670)


def test_holonomy_algebra_agrees_with_holonomy_graded():
    for source in (near_pencil(5), make_presentation(2, ["xxyXXY"])):
        alg = HolonomyAlgebra(source, 4)
        for d in (2, 3, 4):
            g = holonomy_graded(source, d, rings.Z)
            assert (alg.rank(d), alg.torsion(d)) == (g.rank, g.torsion), d


def test_holonomy_degrees_refuses_a_top_that_is_not_an_int():
    # refused before the empty answer of a top below 1, as holonomy_graded
    # refuses it before its own "degree must be positive"
    for top in (0.5, False, 2.0):
        for call in (holonomy_degrees, holonomy_graded):
            with pytest.raises(ValueError, match="max_degree %r is not an int" % top):
                call(braid(3), top)
    assert holonomy_degrees(braid(3), 0) == []
    with pytest.raises(ValueError, match="degree must be positive"):
        holonomy_graded(braid(3), 0)


def test_presentation_with_doubled_commutator_has_two_torsion():
    pres = make_presentation(2, ["xxyXXY"])
    g2 = holonomy_graded(pres, 2)
    assert (g2.rank, g2.torsion) == (0, (2,))
    g3 = holonomy_graded(pres, 3)
    assert (g3.rank, g3.torsion) == (0, (2, 2))
    g4 = holonomy_graded(pres, 4)
    assert (g4.rank, g4.torsion) == (0, (2, 2, 2))
    assert holonomy_graded(pres, 2, rings.Q).rank == 0


def commutator_presentations(seed, count):
    """Seeded presentations on 2 or 3 generators: products of [g^m, h^n]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.choice((2, 3))
        rels = []
        for _ in range(rng.randint(1, 3)):
            rel = ""
            for _ in range(rng.randint(1, 2)):
                a, b = rng.sample("xyz"[:k], 2)
                m, n = rng.randint(1, 3), rng.randint(1, 3)
                rel += a * m + b * n + a.upper() * m + b.upper() * n
            rels.append(rel)
        out.append(make_presentation(k, rels))
    return out


UC_SOURCES = [
    # (presentation, top degree); the third stalls the Smith form of the
    # word rows over Z, so it is compared over F_p only
    (make_presentation(2, ["xxyXXY"]), 5),
    (make_presentation(2, ["xxxyXXXY"]), 5),
    (make_presentation(3, ["yyyxxxYYYXXX", "xyyyXYYYzzxxZZXX"]), 5),
] + [(pres, 4) for pres in commutator_presentations(2, 10)]


def test_universal_coefficients_between_z_and_fp():
    # dim_Fp h_n = rank_Z h_n + #{d : p | d}: the tower over Z against the
    # word rows over F_p, not against a table, nor against itself
    divisible = 0
    for pres, top in UC_SOURCES:
        over_z = holonomy_degrees(pres, top, rings.Z)
        for p in (2, 3, 5):
            oracle = word_row_degrees(pres, top, rings.fp(p))
            for d, (gz, (dim, _t)) in enumerate(zip(over_z, oracle), 1):
                expect = gz.rank + sum(1 for t in gz.torsion if t % p == 0)
                assert dim == expect, (pres, d, p)
                divisible += expect > gz.rank
    assert divisible >= 10
    # the universal coefficients above fix how many divisors 2, 3 and 5
    # divide; each divisor of the presentation that stalled is 36
    stalled = holonomy_degrees(UC_SOURCES[2][0], 5, rings.Z)
    assert [set(g.torsion) for g in stalled[1:]] == [{36}] * 4


def bracket_path_degrees(source, top, ring):
    """Reference: (rank, torsion) per degree from Lyndon-basis ideal rows.

    Degree n > 2 brackets every generator with the rows the elimination of
    degree n-1 leaves (reduced pivot and residual rows over Z, the input
    rows at the pivots over a field), through freelie.bracket.
    """
    relset = as_relation_set(source)
    k = relset.alphabet
    out = [(k, ())]
    rows = [dict(e) for e in relset.elements]
    for n in range(2, top + 1):
        if n > 2:
            rows = [bracket(lie_generator(k, j), LieElement(k, n - 1, b)).coeffs
                    for b in below for j in range(k)]
        w = witt_rank(k, n)
        if ring == rings.Z:
            q = exactla.QuotientLattice(w, rows)
            out.append((q.rank, q.torsion))
            pivots, residual = exactla._eliminate(rows, "Z")
            below = [row for _c, _rid, row in pivots] + [row for _rid, row in residual]
        else:
            rank, basis = rank_sparse_pivots(rows, p=rings.char(ring))
            out.append((w - rank, ()))
            below = [rows[i] for i in basis]
    return out


ORACLE_RINGS = (rings.Z, rings.Q, rings.fp(2), rings.fp(3))


@pytest.mark.parametrize("name,arr", standard_catalog(),
                         ids=[name for name, _ in standard_catalog()])
def test_word_rows_match_the_bracket_path_on_the_catalog(name, arr):
    # the two free-Lie oracles agree, and the tower agrees with them
    for ring in ORACLE_RINGS:
        want = bracket_path_degrees(arr, 4, ring)
        assert word_row_degrees(arr, 4, ring) == want, (name, ring)
        got = holonomy_degrees(arr, 4, ring)
        assert [(g.rank, g.torsion) for g in got] == want, (name, ring)


def presentation_sources():
    sources = [make_presentation(2, ["xxyXXY"]), make_presentation(2, ["xxxyXXXY"])]
    return sources + commutator_presentations(2, 10)


def test_word_rows_match_the_bracket_path_on_presentations():
    with_torsion = 0
    for pres in presentation_sources():
        for ring in ORACLE_RINGS:
            want = bracket_path_degrees(pres, 4, ring)
            assert word_row_degrees(pres, 4, ring) == want, (pres, ring)
            got = [(g.rank, g.torsion) for g in holonomy_degrees(pres, 4, ring)]
            assert got == want, (pres, ring)
            with_torsion += any(t for _r, t in got)
    assert with_torsion >= 5


def test_ideal_generators_have_zero_coordinates():
    # every generator of I_n that the word-row oracle builds, from the
    # generators it keeps for I_{n-1}, is a Lie polynomial the tower
    # sends to zero
    for pres, top in UC_SOURCES:
        alg = HolonomyAlgebra(pres, top)
        below = None
        for n, (_dim, kept) in zip(range(2, top + 1), word_row_pieces(pres, rings.Q)):
            for poly in ideal_words(alg.relset, n, below):
                assert coords(alg, n, poly) == [0] * alg.dim(n), (pres, n)
            below = kept


def test_graded_abelian_validation():
    assert GradedAbelian(rank=2, torsion=(2, 4)).torsion == (2, 4)
    with pytest.raises(ValueError, match="negative rank"):
        GradedAbelian(rank=-1)
    with pytest.raises(ValueError, match="must exceed 1"):
        GradedAbelian(rank=0, torsion=(1,))
    with pytest.raises(ValueError, match="chain"):
        GradedAbelian(rank=0, torsion=(2, 3))


def test_graded_abelian_refuses_values_that_are_not_ints():
    # GradedAbelian(1.5, (2.7,)) kept rank 1.5 with torsion (2,), and
    # GradedAbelian(True, ("6",)) kept torsion (6,)
    for rank, torsion in ((1.5, ()), (1, (2.7,)), (True, ()), (1, ("6",)),
                          (1, (False,)), (2.0, (2, 4))):
        with pytest.raises(ValueError, match="must be ints"):
            GradedAbelian(rank, torsion)


# ---------------------------------------------------------------------------
# presentations and the degree-2 Magnus expansion

def test_make_presentation_validation():
    pres = make_presentation(2, ["xyXY"])
    assert pres.names == ("x", "y")
    with pytest.raises(ValueError, match="nonzero exponent sum in x"):
        make_presentation(2, ["xxY"])
    with pytest.raises(ValueError, match="unknown generator"):
        make_presentation(2, ["xz"])
    with pytest.raises(ValueError, match="distinct generator names"):
        make_presentation(2, [], names=["x", "x"])
    with pytest.raises(ValueError, match="single lowercase"):
        make_presentation(2, [], names=["x", "YY"])
    with pytest.raises(ValueError, match="at least one generator"):
        make_presentation(0, [])


def test_make_presentation_refuses_relators_that_are_not_strings():
    # a list of letters is not stored unhashable, and an int or None is a
    # ValueError naming it, not a TypeError from reading its letters
    for rel in (["x", "y", "X", "Y"], 3, None, b"xyXY"):
        with pytest.raises(ValueError, match=r"^relator %s is not a string$"
                           % re.escape(repr(rel))):
            make_presentation(2, ["xyXY", rel])


def test_presentation_from_json():
    pres = presentation_from_json({"generators": 3, "relators": ["abAB"],
                                   "names": ["a", "b", "c"]})
    assert pres.names == ("a", "b", "c")
    with pytest.raises(ValueError, match="needs 'generators' and 'relators'"):
        presentation_from_json({"generators": 2})


def test_magnus_degree2_commutator():
    pres = make_presentation(2, ["xyXY"])
    assert relation_set_from_presentation(pres).elements == ({0: 1},)


def test_magnus_degree2_doubled_commutator():
    pres = make_presentation(2, ["xxyXXY"])
    assert relation_set_from_presentation(pres).elements == ({0: 2},)


def magnus_series(pres, relator):
    """The Magnus expansion x -> 1 + X, x^-1 -> 1 - X + X^2 of a relator to
    degree 2, multiplied out letter by letter as truncated noncommutative
    polynomials: {monomial: coefficient}, a monomial the tuple of its
    generator indices."""
    series = {(): 1}
    for g, e in pres.letter_sequence(relator):
        letter = {(): 1, (g,): 1} if e > 0 else {(): 1, (g,): -1, (g, g): 1}
        product = {}
        for u, a in series.items():
            for v, b in letter.items():
                if len(u) + len(v) <= 2:
                    product[u + v] = product.get(u + v, 0) + a * b
        series = product
    return series


def zero_sum_relators(rng):
    """(generators, relator) pairs: seeded words whose exponent sums are
    zero, and conjugated commutators g[x, y]g^-1."""
    def spell(letters):
        return "".join("xyzab"[g] if e > 0 else "XYZAB"[g] for g, e in letters)

    for _ in range(400):
        k = rng.randint(1, 5)
        half = [(rng.randrange(k), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 6))]
        word = half + [(g, -e) for g, e in half]
        rng.shuffle(word)
        yield k, spell(word)
    for _ in range(100):
        k = rng.randint(2, 5)
        g = [(rng.randrange(k), rng.choice((1, -1)))
             for _ in range(rng.randint(0, 4))]
        x, y = rng.sample(range(k), 2)
        commutator = [(x, 1), (y, 1), (x, -1), (y, -1)]
        yield k, spell(g + commutator + [(h, -e) for h, e in reversed(g)])


def test_magnus_column_matches_the_multiplied_out_series():
    for k, relator in zero_sum_relators(random.Random(28)):
        pres = make_presentation(k, [relator])
        col = relation_set_from_presentation(pres).elements[0]
        series = magnus_series(pres, relator)
        pidx = pair_index(k)
        assert all(col.values()), relator
        for i in range(k):
            assert series.get((i,), 0) == 0, relator
            assert series.get((i, i), 0) == 0, relator
            for j in range(i + 1, k):
                c = series.get((i, j), 0)
                assert series.get((j, i), 0) == -c, relator
                assert col.get(pidx[(i, j)], 0) == c, relator


def test_holonomy_map_columns():
    pres = make_presentation(2, ["xxyXXY"])
    assert holonomy_map_from_presentation(pres) == [[2]]
    pres = make_presentation(3, ["xyXY", "yzYZ"])
    mat = holonomy_map_from_presentation(pres)
    pidx = pair_index(3)
    assert len(mat) == 3 and len(mat[0]) == 2
    assert mat[pidx[(0, 1)]][0] == 1
    assert mat[pidx[(1, 2)]][1] == 1


# ---------------------------------------------------------------------------
# Orlik-Solomon degree 2 and the Falk invariant

def test_i2_basis_dimension():
    from arrlie import betti
    for _, arr in standard_catalog():
        cols, labels = i2_basis(arr)
        k = arr.n_atoms
        assert len(cols) == k * (k - 1) // 2 - betti(arr).b2
        assert len(labels) == len(cols)
        rows = [dict(c) for c in cols]
        assert exactla.rank_sparse(rows) == len(cols)


def test_k_invariant_is_dual_to_the_ideal_inclusion():
    arr = braid(4)
    kinv = k_invariant_matrix(arr)
    cols, _ = i2_basis(arr)
    assert len(kinv) == len(cols) == 4
    assert all(len(row) == 15 for row in kinv)


def test_falk_invariant_spots():
    assert falk_invariant(braid(3)) == 2
    assert falk_invariant(braid(4)) == 10
    assert falk_invariant(braid(5)) == 30
    assert falk_invariant(pencil(4)) == witt_rank(3, 3) == 8
    assert falk_invariant(generic(5)) == 0
    assert falk_invariant(near_pencil(5)) == 8


def test_falk_equals_degree3_rank_over_q():
    for arr in (braid(4), pencil(5), near_pencil(4)):
        assert falk_invariant(arr) == holonomy_graded(arr, 3, rings.Q).rank


# ---------------------------------------------------------------------------
# letter matrices between a free Lie algebra and a sub-alphabet

def _free_pair(members, n=6, max_degree=3):
    big = HolonomyAlgebra(empty_relation_set(n), max_degree=max_degree)
    small = HolonomyAlgebra(empty_relation_set(len(members)), max_degree=max_degree)
    pos = {a: i for i, a in enumerate(members)}
    return big, small, [pos.get(a) for a in range(n)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_restrict_after_embed_is_identity(d):
    members = (0, 2, 4)
    big, small, letters = _free_pair(members)
    emb = letter_matrix(small, big, list(members), d)
    res = letter_matrix(big, small, letters, d)
    assert exactla.mat_mul(res, emb) == exactla.identity(small.dim(d))
    # restriction only keeps basis classes whose words use the members alone
    for j, e in enumerate(exactla.identity(big.dim(d))):
        if any(row[j] for row in res):
            assert all(c in members for w in element(big, d, e) for c in w)


def test_restricted_images_cover_the_local_basis():
    members = (1, 3, 5)
    big, small, letters = _free_pair(members)
    for d in (2, 3):
        res = letter_matrix(big, small, letters, d)
        hit = []
        for j in range(big.dim(d)):
            col = [row[j] for row in res]
            if any(col):
                # an order-preserving renaming sends a Lyndon word to one
                assert sorted(col) == [0] * (len(col) - 1) + [1]
                hit.append(col.index(1))
        assert sorted(hit) == list(range(small.dim(d)))


# ---------------------------------------------------------------------------
# the truncated algebra object

def test_holonomy_algebra_quotients_and_brackets():
    alg = HolonomyAlgebra(braid(4), max_degree=3)
    assert alg.alphabet == 6
    assert (alg.rank(2), alg.rank(3)) == (4, 10)
    assert alg.dim(2) == 4
    rng = random.Random(3)
    for d in (2, 3):
        quot = alg.quotient(d)
        vec = [rng.randint(-5, 5) for _ in range(alg.dim(d))]
        assert coords(alg, d, element(alg, d, vec)) == dense_reduce(quot, vec)
    e1 = [1, 0, 0, 0, 0, 0]
    e2 = [0, 1, 0, 0, 0, 0]
    c12 = bracket_coords(alg, 1, e1, 1, e2)
    c21 = bracket_coords(alg, 1, e2, 1, e1)
    assert dense_reduce(alg.quotient(2), [a + b for a, b in zip(c12, c21)]) == [0] * 4
    assert bracket_coords(alg, 2, c12, 2, c12) is None  # degree 4 > truncation


def test_holonomy_guard_and_override():
    # the guard is the tower's cost of each degree, from its pair columns
    # and triples: braid(4) in degree 4 has dimensions 6, 4, 10 below it,
    # so 6 * 10 + C(4, 2) = 66 columns and C(6, 2) * 4 = 60 triples
    assert holonomy.wedge_counts(4, [0, 6, 4, 10]) == (66, 60)
    assert holonomy.tower_cost(66, 60) == 66 * 60 // 8 + 4 * 60 == 735
    with pytest.raises(SizeGuardError, match="degree 4 has 66 pair columns "
                       "and 60 triples, which cost 735 > guard 734"):
        HolonomyAlgebra(braid(4), 4, guard=734)
    assert HolonomyAlgebra(braid(4), 4, guard=735).rank(4) == 21
    # the default guard sits between braid(6) in degree 5 (0.6 s) and
    # braid(4) in degree 9 and braid(5) in degree 7 (minutes)
    assert holonomy.tower_cost(4865, 10200) <= DEFAULT_GUARD
    assert holonomy.tower_cost(8744, 13734) > DEFAULT_GUARD
    assert holonomy.tower_cost(12960, 25410) > DEFAULT_GUARD
    # no knob lifts it
    with pytest.raises(TypeError):
        HolonomyAlgebra(braid(4), 4, override=True)


@pytest.mark.parametrize("name,arr", standard_catalog(),
                         ids=[name for name, _ in standard_catalog()])
def test_wedge_counts_match_the_blocks_they_count(name, arr):
    # the guard's counts against the blocks themselves, in every weight of
    # the tower to degree 5, and of its degree-3 truncation (w <= 6, the
    # weights ce_h2 reads)
    alg = HolonomyAlgebra(arr, max_degree=5)
    dims = [0] + [alg.dim(d) for d in range(1, 6)]
    for w, below in [(w, dims) for w in range(2, 6)] + \
            [(w, dims[:4] + [0] * 3) for w in range(2, 7)]:
        cols, _torsion_rows, triple_rows = holonomy.wedge_block(
            w, below, lambda s: 0, lambda s, t: {})
        assert holonomy.wedge_counts(w, below) == (len(cols), len(triple_rows)), w


# ---------------------------------------------------------------------------
# the triple rows the tower skips

def pencils_with_doubles(prefix, n, pencils):
    """An arrangement of n atoms from its multiple points, every pair of
    atoms in no pencil a double point."""
    seen = {p for pen in pencils for p in itertools.combinations(sorted(pen), 2)}
    pens = [sorted(pen) for pen in pencils] + [
        list(p) for p in itertools.combinations(range(n), 2) if p not in seen]
    return Arrangement(["%s%d" % (prefix, i + 1) for i in range(n)], pencils=pens)


def hesse():
    # the 12 lines of AG(2, 3), in 4 parallel classes of 3, meeting 4 at a
    # time in its 9 points
    return pencils_with_doubles("H", 12, [
        [y, 3 + x, 6 + (y - x) % 3, 9 + (y - 2 * x) % 3]
        for x in range(3) for y in range(3)])


def pappus():
    # the 9 triple points are the lines of the Pappus configuration
    A, B, C, a, b, c, X, Y, Z = range(9)
    return pencils_with_doubles("P", 9, [
        [A, B, C], [a, b, c], [X, Y, Z], [A, b, X], [a, B, X], [A, c, Y],
        [a, C, Y], [B, c, Z], [b, C, Z]])


FULL_ROW_SOURCES = (
    [(name, arr, 5) for name, arr in standard_catalog()]
    + [("near_pencil(%d)" % k, near_pencil(k), 5) for k in (6, 7, 8)]
    + [("braid(4)", braid(4), 7), ("braid(5)", braid(5), 5),
       ("braid(6)", braid(6), 4), ("hesse", hesse(), 4), ("pappus", pappus(), 6)]
    + [("pres%d" % i, pres, 4)
       for i, pres in enumerate(commutator_presentations(1, 10))]
    # [z, a] = 2 [x, y] in degree 2: a bracket whose smallest coordinate
    # is 2, not a unit, so no row may be skipped for it
    + [("za=2xy", make_presentation(4, ["zaZAyxYXyxYX"]), 5)])


@pytest.mark.parametrize("name,source,top", FULL_ROW_SOURCES,
                         ids=["%s-d%d" % (name, top) for name, _s, top in FULL_ROW_SOURCES])
def test_skipped_triple_rows_lie_in_the_lattice_of_every_row(name, source, top):
    # the tower built from every triple row gives the same ranks and
    # torsion, and every triple row of the library's own blocks, those it
    # skipped included, projects to 0 in the library's lattice
    alg = HolonomyAlgebra(source, top)
    full = FullRowTower(source)
    tower = alg._tower
    dims = [0] + [alg.dim(d) for d in range(1, top)]
    for n in range(2, top + 1):
        q = full.lattice(n)
        assert (alg.rank(n), alg.torsion(n)) == (q.rank, q.torsion), n
        _cols, _torsion_rows, rows = holonomy.wedge_block(
            n, dims, tower._divisor, tower.product)
        lattice = alg.quotient(n)
        assert not any(lattice.project(row) for row in rows), n


def test_hesse_and_pappus_keep_their_torsion():
    assert holonomy_graded(hesse(), 4) == GradedAbelian(692, (3, 3, 3, 3))
    assert [(g.rank, g.torsion) for g in holonomy_degrees(pappus(), 6)] == [
        (9, ()), (9, ()), (20, ()), (30, (2,)), (60, ()), (90, ())]


def test_the_tower_builds_fewer_triple_rows(monkeypatch):
    # the rows each degree's lattice is built from (no relation or torsion
    # row past degree 2 here), against the triples of that degree: the
    # rule skips rows from degree 4 on
    real, sizes = holonomy.QuotientLattice, []

    def recording(w, gens):
        sizes.append(len(gens))
        return real(w, gens)

    monkeypatch.setattr(holonomy, "QuotientLattice", recording)
    holonomy._tower.cache_clear()
    try:
        for arr, top, kept, triples in ((braid(5), 4, [120, 371], [120, 450]),
                                        (braid(4), 5, [20, 52, 133], [20, 60, 186])):
            sizes.clear()
            alg = HolonomyAlgebra(arr, top)
            assert alg.rank(top)
            dims = [0] + [alg.dim(d) for d in range(1, top)]
            assert [holonomy.wedge_counts(n, dims)[1]
                    for n in range(3, top + 1)] == triples
            assert sizes[2:] == kept
    finally:
        holonomy._tower.cache_clear()


PROJECT_UNITS_SOURCES = (
    [(name, arr, 4) for name, arr in standard_catalog()]
    + [("braid(4)", braid(4), 6), ("hesse", hesse(), 4), ("pappus", pappus(), 4)]
    + [("pres%d" % i, pres, 4)
       for i, pres in enumerate(commutator_presentations(1, 10))]
    + [("xxxyXXXY", make_presentation(2, ["xxxyXXXY"]), 4)])


@pytest.mark.parametrize("name,source,top", PROJECT_UNITS_SOURCES,
                         ids=["%s-d%d" % (name, top) for name, _s, top in PROJECT_UNITS_SOURCES])
def test_project_units_gives_the_coordinates_project_gives(name, source, top):
    # one backward pass over the pivot rows against one reduction per
    # column, on every lattice of the tower, those with torsion included
    alg = HolonomyAlgebra(source, top)
    for d in range(1, top + 1):
        q = alg.quotient(d)
        assert q.project_units() == [q.project({c: 1}) for c in range(q.w)], d
    if name in ("hesse", "pappus"):
        assert alg.torsion(4) in ((3, 3, 3, 3), (2,))


@pytest.mark.parametrize("source", [hesse(), pappus()], ids=["hesse", "pappus"])
def test_lift_then_project_is_the_identity_on_every_coordinate(source):
    # the degree-4 lattices carry (Z/3)^4 and Z/2: their residual blocks
    # are read and lifted through the stored rows of U and columns of U^-1
    q = HolonomyAlgebra(source, 4).quotient(4)
    assert q.torsion in ((3, 3, 3, 3), (2,))
    for k in range(q.dim):
        for v in (1, -2):
            assert q.project(q.lift({k: v})) == q.reduce({k: v}), k
    c = {k: k % 7 - 3 for k in range(q.dim)}
    assert q.project(q.lift(c)) == q.reduce(c)


def test_the_tower_reads_each_degree_of_brackets_in_one_pass(monkeypatch):
    # building braid(5) to degree 4 reads the brackets of degrees 2 and 3,
    # each degree's table from one project_units, and projects no pair
    real, calls = exactla.QuotientLattice.project_units, []

    def counting(q):
        calls.append(q)
        return real(q)

    def refused(q, x):
        raise AssertionError("a bracket projected on its own")

    monkeypatch.setattr(exactla.QuotientLattice, "project_units", counting)
    monkeypatch.setattr(exactla.QuotientLattice, "project", refused)
    rels = relation_set(braid(5))
    tower = holonomy._Tower(rels.alphabet, tuple(
        tuple(sorted(e.items())) for e in rels.elements))
    assert tower.level(4)[0].rank == 81
    for d in (2, 3):
        for s, t in tower.level(d)[1]:
            tower.product(s, t)
    assert [q.w for q in calls] == [45, 100]
    assert calls[0] is tower.level(2)[0] and calls[1] is tower.level(3)[0]


# ---------------------------------------------------------------------------
# one tower per relation set per process

def _tower_state(alg, top):
    """Everything a view reads off its tower to degree top: ranks, torsion,
    pair columns, and the coordinates of every bracket of basis classes."""
    state = [(alg.rank(d), alg.torsion(d), alg.pairs(d) if d > 1 else ())
             for d in range(1, top + 1)]
    for d1 in range(1, top):
        for d2 in range(d1, top - d1 + 1):
            for i in range(alg.dim(d1)):
                for j in range(alg.dim(d2)):
                    state.append(alg.bracket(d1, {i: 1}, d2, {j: 1}))
    return state


def test_views_of_one_relation_set_share_one_tower():
    arr = braid(4)
    alg = HolonomyAlgebra(arr, max_degree=3)
    rels = relation_set(arr)
    # the same relations with their items in another order, under other names
    shuffled = type(rels)(alphabet=rels.alphabet,
                          elements=tuple(dict(reversed(e.items()))
                                         for e in rels.elements),
                          labels=rels.labels, atom_names=tuple("abcdef"))
    for other in (HolonomyAlgebra(arr, max_degree=4),
                  HolonomyAlgebra(rels, max_degree=2),
                  HolonomyAlgebra(shuffled, max_degree=3)):
        assert other._tower is alg._tower
    assert HolonomyAlgebra(near_pencil(5), 3)._tower is not alg._tower
    assert _tower_state(alg, 3) == _tower_state(HolonomyAlgebra(shuffled, 3), 3)


def test_a_view_keeps_its_degree_and_guard_on_a_grown_tower():
    arr = braid(5)
    low = HolonomyAlgebra(arr, max_degree=3)
    high = HolonomyAlgebra(arr, max_degree=5)
    assert high._tower is low._tower
    assert [high.rank(d) for d in range(1, 6)] == [10, 10, 30, 81, 258]
    with pytest.raises(ValueError, match="degree 4 outside 1..3"):
        low.quotient(4)
    with pytest.raises(ValueError, match="degree 4 outside 1..3"):
        low.bracket(2, {0: 1}, 2, {1: 1})
    e0, e1 = [1] + [0] * 9, [0, 1] + [0] * 8
    assert bracket_coords(low, 2, e0, 2, e1) is None
    # degree 4 (345 columns and 450 triples, 21206 units) is admitted at
    # the default guard, and refused below its cost though the tower
    # holds it
    assert holonomy_degrees(arr, 4, rings.Q)[-1] == GradedAbelian(81)
    with pytest.raises(SizeGuardError, match="degree 4 has 345 pair columns"):
        HolonomyAlgebra(arr, max_degree=4, guard=21205)
    with pytest.raises(SizeGuardError, match="cost 21206 > guard 21205"):
        holonomy_degrees(arr, 4, rings.Q, guard=21205)


def test_the_tower_memo_is_bounded_and_rebuilds_identically():
    info = holonomy._tower.cache_info
    assert info().maxsize == holonomy.TOWER_MEMO_SIZE
    alg = HolonomyAlgebra(braid(4), max_degree=4)
    before = _tower_state(alg, 4)
    # as many newer relation sets as the memo holds evict braid(4)
    for k in range(2, 2 + holonomy.TOWER_MEMO_SIZE):
        HolonomyAlgebra(generic(k), max_degree=3).rank(3)
        assert info().currsize <= holonomy.TOWER_MEMO_SIZE
    again = HolonomyAlgebra(braid(4), max_degree=4)
    assert again._tower is not alg._tower
    assert _tower_state(again, 4) == before


def test_pairs_and_brackets_cannot_change_the_tower():
    alg = HolonomyAlgebra(near_pencil(5), max_degree=3)
    pairs = alg.pairs(3)
    assert isinstance(pairs, tuple)
    with pytest.raises(TypeError):
        pairs[0] = ((1, 0), (2, 0))
    vec = alg.bracket(1, {0: 1}, 1, {1: 1})
    want = dict(vec)
    assert vec
    vec.clear()
    vec[99] = 1
    assert alg.bracket(1, {0: 1}, 1, {1: 1}) == want
    assert alg.pairs(3) == pairs


def test_a_failed_degree_leaves_the_tower_as_it_was(monkeypatch):
    # the fault goes into a tower built for this test, and the memo is
    # cleared again so no later test reads a tower built under it
    holonomy._tower.cache_clear()
    try:
        alg = HolonomyAlgebra(braid(4), max_degree=2)
        assert alg.rank(2) == 4
        real, calls = holonomy.QuotientLattice, []

        def fails_once(w, gens):
            calls.append(w)
            if len(calls) == 1:
                raise ArithmeticError("quotient lattice failed modular cross-check")
            return real(w, gens)

        monkeypatch.setattr(holonomy, "QuotientLattice", fails_once)
        # the guard of degree 4 counts off degree 3, so it builds degree 3
        with pytest.raises(ArithmeticError, match="cross-check"):
            HolonomyAlgebra(braid(4), max_degree=4)
        view = HolonomyAlgebra(braid(4), max_degree=4)
        assert view._tower is alg._tower
        assert [view.rank(d) for d in range(1, 5)] == [6, 4, 10, 21]
        assert len(calls) == 3
        monkeypatch.undo()
        got = _tower_state(view, 4)
        holonomy._tower.cache_clear()
        fresh = HolonomyAlgebra(braid(4), max_degree=4)
        assert fresh._tower is not alg._tower
        assert got == _tower_state(fresh, 4)
    finally:
        holonomy._tower.cache_clear()


def test_an_empty_degree_builds_no_rows(monkeypatch):
    # generic(100) has h_2 = 0, so degree 3 has no pair columns; its
    # 161700 triple rows would all be empty, and none is built
    real = holonomy.wedge_block

    def no_weight_three(w, *args):
        if w == 3:
            raise AssertionError("wedge_block ran for an empty degree")
        return real(w, *args)

    monkeypatch.setattr(holonomy, "wedge_block", no_weight_three)
    holonomy._tower.cache_clear()
    try:
        assert holonomy.wedge_counts(3, [0, 100, 0]) == (0, 161700)
        assert holonomy_graded(generic(100), 3) == GradedAbelian(0)
        alg = HolonomyAlgebra(generic(100), max_degree=4)
        assert [alg.dim(d) for d in (1, 2, 3, 4)] == [100, 0, 0, 0]
        assert alg.pairs(3) == alg.pairs(4) == ()
    finally:
        holonomy._tower.cache_clear()


def test_an_empty_degree_costs_nothing_under_the_guard():
    # degree 3 of generic(100) has no pair columns and builds no rows, so
    # its 161700 triples cost 0 units, and a guard far below 4 per triple
    # admits it
    assert holonomy.tower_cost(0, 161700) == 0
    alg = HolonomyAlgebra(generic(100), 3, guard=500_000)
    assert alg.rank(3) == 0 and alg.torsion(3) == ()
