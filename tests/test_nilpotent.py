"""Class-2 quotients, k-invariants, splittings, and CE homology of truncations."""

import random
import re
from dataclasses import dataclass

import pytest

from arrlie import (
    Arrangement,
    betti,
    Class2Element,
    Class2Group,
    GradedAbelian,
    GradedLie,
    braid,
    ce_h2,
    generic,
    h2_rank_check,
    holonomy_graded,
    is_decomposable,
    k_invariant_matrix,
    make_presentation,
    near_pencil,
    pencil,
    relation_words,
    standard_catalog,
    truncated_lie,
)
from arrlie import exactla, rings
from arrlie.holonomy import HolonomyAlgebra, as_relation_set, pair_index, pair_list
from lie_reference import (bracket_coords, bracket_vec, check_jacobi,
                           dense_project, dense_reduce, det_int, flat_ce_h2,
                           graded_lie_from_tables, is_zero, mat_sub, sparse,
                           word_row_degrees)
from test_holonomy import commutator_presentations, hesse, pappus, presentation_sources


def rand_el(rng, grp):
    exps = tuple(rng.randint(-3, 3) for _ in range(grp.k))
    tail = tuple(rng.randint(-3, 3) for _ in range(grp.gr2.dim))
    return grp.multiply(grp.identity(),
                        type(grp.identity())(exps, tuple(dense_reduce(grp.gr2, tail))))


# ---------------------------------------------------------------------------
# the class-2 group

def test_group_axioms_on_pencil3():
    grp = Class2Group(pencil(3))
    assert grp.k == 3 and grp.gr2.dim == 1
    rng = random.Random(2)
    for _ in range(30):
        g, h, f = (rand_el(rng, grp) for _ in range(3))
        assert grp.multiply(grp.multiply(g, h), f) == grp.multiply(g, grp.multiply(h, f))
        assert grp.is_identity(grp.multiply(g, grp.inverse(g)))
        # class 2: commutators are central
        c = grp.commutator(g, h)
        assert c.exps == (0, 0, 0)
        assert grp.is_identity(grp.commutator(c, f))
    g = grp.generator(0)
    assert grp.power(g, 3).exps == (3, 0, 0)
    assert grp.power(g, -2) == grp.multiply(grp.inverse(g), grp.inverse(g))


def test_commutator_of_generators_is_the_cocycle():
    grp = Class2Group(braid(4))
    for i in range(6):
        for j in range(i):
            c = grp.commutator(grp.generator(i), grp.generator(j))
            assert not any(c.exps)
            assert c.tail == grp.cocycle(i, j)
    # cocycle vanishes on the diagonal and above
    assert grp.cocycle(2, 2) == (0,) * grp.gr2.dim
    assert grp.cocycle(1, 4) == (0,) * grp.gr2.dim


def test_elements_do_not_cross_groups():
    small = Class2Group(pencil(3))
    big = Class2Group(pencil(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        small.multiply(small.identity(), big.identity())


def test_relation_words_evaluate_to_identity():
    for arr in (braid(4), near_pencil(4), pencil(5)):
        grp = Class2Group(arr)
        words = relation_words(arr)
        assert len(words) == sum(len(f.members) for f in arr.flats)
        for (fi, h), word in words:
            assert h in arr.flats[fi].members
            assert grp.is_identity(grp.evaluate(word))


def test_word_parsing_modes():
    grp = Class2Group(pencil(3))           # names H1, H2, H3: dotted syntax
    el = grp.evaluate("H1.H2.H1^-1.H2^-1")
    assert el.exps == (0, 0, 0) and any(el.tail)
    assert grp.evaluate("H1.H1^2.H1^-3").exps == (0, 0, 0)
    with pytest.raises(ValueError, match="unknown generator"):
        grp.evaluate("H1.H9")
    pres = make_presentation(2, ["xyXY"])  # single letters: plain syntax
    pgrp = Class2Group(pres)
    el = pgrp.evaluate("xyXY")
    assert pgrp.is_identity(el)            # the relator is killed in gr2
    with pytest.raises(ValueError, match="unknown generator"):
        pgrp.evaluate("xq")
    # letters only when every name is one lowercase letter: uppercase
    # names are dotted tokens, and "A" next to "a" is not its inverse
    grp = Class2Group(Arrangement(["X", "Y", "Z"], pencils=[(0, 1, 2)]))
    assert grp.evaluate("X").exps == (1, 0, 0)
    assert grp.evaluate("X.Y^-1").exps == (1, -1, 0)
    grp = Class2Group(Arrangement(["a", "A", "b"], pencils=[(0, 1, 2)]))
    assert grp.evaluate("A").exps == grp.evaluate("A^1").exps == (0, 1, 0)


# dotted word tokens: accepted words with their sequences, refused words
# with their messages; the table is frozen from the per-call pattern the
# compiled one replaced.  \d is Unicode-aware, so an Arabic-Indic digit is
# an exponent.
WORD_TOKENS = [
    ("H1", [(0, 1)]),
    ("H1^-2", [(0, -2)]),
    (" H1 ", [(0, 1)]),
    ("H1^\u0663", [(0, 3)]),
    ("H1^0", [(0, 0)]),
    ("H3^12", [(2, 12)]),
    ("H1.H2^-1. H3 ", [(0, 1), (1, -1), (2, 1)]),
    ("H1^", "bad word token 'H1^'"),
    ("H1^+2", "bad word token 'H1^+2'"),
    ("H1 ^2", "bad word token 'H1 ^2'"),
    ("H1^ 2", "bad word token 'H1^ 2'"),
    ("H1^-", "bad word token 'H1^-'"),
    ("H1^2^3", "bad word token 'H1^2^3'"),
    ("^2", "bad word token '^2'"),
    ("H1..H2", "bad word token ''"),
    ("", "bad word token ''"),
    ("H9", "unknown generator 'H9' in word 'H9'"),
    ("h1", "unknown generator 'h1' in word 'h1'"),
    ("H1.H9^2", "unknown generator 'H9' in word 'H1.H9^2'"),
]


@pytest.mark.parametrize("text,want", WORD_TOKENS)
def test_word_token_table(text, want):
    grp = Class2Group(pencil(3))
    if isinstance(want, list):
        assert grp.parse_word(text) == want
    else:
        with pytest.raises(ValueError) as err:
            grp.parse_word(text)
        assert str(err.value) == want


def _seeded_words(names, rng, count, pad):
    """Dotted words over names; with pad, some tokens padded with spaces."""
    words = []
    for _ in range(count):
        tokens = []
        for _ in range(rng.randint(1, 8)):
            tok = rng.choice(names)
            if rng.random() < 0.6:
                tok += "^%d" % rng.choice((-3, -2, -1, 0, 1, 2, 3, 12))
            if pad:
                tok = rng.choice(("", " ", "  ")) + tok + rng.choice(("", " "))
            tokens.append(tok)
        words.append(".".join(tokens))
    return words


def test_a_warm_token_memo_changes_no_word_and_no_error():
    rng = random.Random(19)
    for src in (pencil(3), braid(4), make_presentation(2, ["xxyXXY"])):
        warm = Class2Group(src)
        # a word with no "." or "^" over single-letter names is a letter word
        letters = len(warm.names[0]) == 1
        words = _seeded_words(list(warm.names), rng, 40, pad=not letters)
        if letters:
            words += ["xyXY", "xxY", "Yx", "x^2. y^-1 "]
        for w in words:
            warm.evaluate(w)
        for w in words:
            assert warm.evaluate(w) == Class2Group(src).evaluate(w), w
            assert warm.parse_word(w) == Class2Group(src).parse_word(w), w
        name = warm.names[0]
        bad = [name + "^", name + "^x", "^2", name + "^--1", "Q7",
               name + ".Q7^2", name + "." + name + "^", " " + name + "^+1",
               "." if letters else ""]
        for text in bad + bad:
            with pytest.raises(ValueError) as fresh_err:
                Class2Group(src).parse_word(text)
            with pytest.raises(ValueError) as warm_err:
                warm.evaluate(text)
            assert str(warm_err.value) == str(fresh_err.value), text


def test_evaluate_accepts_prepared_words():
    grp = Class2Group(pencil(3))
    word = [(0, 1), (1, 1), (0, -1), (1, -1)]
    assert grp.evaluate(word) == grp.evaluate("H1.H2.H1^-1.H2^-1")


def test_evaluate_refuses_a_non_integer_exponent():
    grp = Class2Group(pencil(3))
    for e in (1.5, 2.0, "2", True, None):
        with pytest.raises(ValueError, match="is not an integer"):
            grp.evaluate([(0, e), (1, 1)])
    # the index of a pair is checked before its exponent
    with pytest.raises(ValueError, match="out of range"):
        grp.evaluate([(1, 1), (3, 1.5)])
    assert grp.evaluate([(0, 10 ** 30)]).exps == (10 ** 30, 0, 0)


def test_evaluate_refuses_a_generator_index_that_is_not_an_int():
    # True was read as generator 1
    grp = Class2Group(near_pencil(4))
    for idx in (True, False, 1.0, "1"):
        with pytest.raises(ValueError, match="index %s is not an integer"
                           % re.escape(repr(idx))):
            grp.evaluate([(0, 1), (idx, 1)])


def old_multiply(grp, g, h):
    """The product as it was computed before words were collected in pair
    coordinates: project the cocycle of each product, then add in gr2."""
    pidx = pair_index(grp.k)
    raw = [0] * len(pidx)
    for i, a in enumerate(g.exps):
        for j in range(i):
            raw[pidx[(j, i)]] -= a * h.exps[j]
    tail = dense_reduce(grp.gr2, [a + b + x for a, b, x in zip(
        g.tail, h.tail, dense_project(grp.gr2, raw))])
    return Class2Element(tuple(a + b for a, b in zip(g.exps, h.exps)),
                         tuple(tail))


def old_fold(grp, word):
    """The letter-by-letter evaluation: one power and one product per letter."""
    out = grp.identity()
    for idx, e in word:
        out = old_multiply(grp, out, grp.power(grp.generator(idx), e))
    return out


FOLD_SOURCES = ([("braid4", braid(4)), ("near_pencil5", near_pencil(5)),
                 ("pencil4", pencil(4)), ("generic5", generic(5)),
                 ("xxyXXY", make_presentation(2, ["xxyXXY"])),
                 ("xxxyXXXY", make_presentation(2, ["xxxyXXXY"]))]
                + [("pres%d" % i, pres) for i, pres
                   in enumerate(commutator_presentations(2, 10))])


def test_fold_sources_carry_torsion():
    tors = [name for name, src in FOLD_SOURCES if Class2Group(src).gr2.torsion]
    assert len(tors) >= 5 and {"xxyXXY", "xxxyXXXY"} <= set(tors)


@pytest.mark.parametrize("name,src", FOLD_SOURCES,
                         ids=[name for name, _ in FOLD_SOURCES])
def test_evaluate_matches_the_letter_by_letter_fold(name, src):
    grp = Class2Group(src)
    rng = random.Random(name)
    words = [[(rng.randrange(grp.k), rng.randint(-3, 3))
              for _ in range(rng.randint(0, 12))] for _ in range(40)]
    big = 10 ** 30
    words.append([(0, big), (grp.k - 1, 1), (0, -3), (1, big), (0, 1)])
    elements = []
    for word in words:
        el = grp.evaluate(word)
        assert el == old_fold(grp, word), word
        assert el.exps == tuple(sum(e for i, e in word if i == j)
                                for j in range(grp.k))
        elements.append(el)
    # products and inverses collect with the same cocycle
    for g, h in zip(elements, elements[1:]):
        assert grp.multiply(g, h) == old_multiply(grp, g, h)
        assert grp.is_identity(old_multiply(grp, g, grp.inverse(g)))
    for bad in (grp.k, -1):
        with pytest.raises(ValueError, match="out of range"):
            grp.evaluate([(0, 1), (bad, 1)])


def checked_collect(grp, v, word):
    """Collection as it ran when every letter was range checked and every
    generator above it visited; the error names the first bad index."""
    pidx = pair_index(grp.k)
    raw = [0] * len(pidx)
    for idx, e in word:
        if not 0 <= idx < grp.k:
            raise ValueError("generator index %d out of range" % idx)
        for i in range(idx + 1, grp.k):
            if v[i]:
                raw[pidx[(idx, i)]] -= e * v[i]
        v[idx] += e
    return dense_project(grp.gr2, raw)


def checked_evaluate(grp, word):
    if isinstance(word, str):
        word = grp.parse_word(word)
    v = [0] * grp.k
    tail = checked_collect(grp, v, word)
    return Class2Element(tuple(v), tuple(tail))


def checked_multiply(grp, g, h):
    v = list(g.exps)
    c = checked_collect(grp, v, [(j, e) for j, e in enumerate(h.exps) if e])
    tail = dense_reduce(grp.gr2, [a + b + x for a, b, x in zip(g.tail, h.tail, c)])
    return Class2Element(tuple(v), tuple(tail))


def checked_inverse(grp, g):
    c = checked_collect(grp, list(g.exps), [(j, -e) for j, e in enumerate(g.exps) if e])
    tail = dense_reduce(grp.gr2, [-(a + x) for a, x in zip(g.tail, c)])
    return Class2Element(tuple(-a for a in g.exps), tuple(tail))


def _outcome_text(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("name,arr", standard_catalog(),
                         ids=[name for name, _ in standard_catalog()])
def test_collection_matches_the_letter_checked_walk(name, arr):
    # 200 seeded words per group, as raw sequences (a few with an index out
    # of range) and as dotted text; each product and inverse too
    grp = Class2Group(arr)
    rng = random.Random("collect " + name)
    prev = grp.identity()
    errors = 0
    for _ in range(200):
        word = [(rng.randrange(grp.k), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(0, 16))]
        if word and rng.random() < 0.1:
            word.insert(rng.randrange(len(word)), (rng.choice((-1, grp.k)), 1))
            errors += 1
        text = ".".join("%s^%d" % (grp.names[i], e) for i, e in word
                        if 0 <= i < grp.k)
        for w in (word, text):
            got = _outcome_text(grp.evaluate, w)
            assert got == _outcome_text(checked_evaluate, grp, w), w
        if isinstance(got, str):
            continue
        assert grp.multiply(prev, got) == checked_multiply(grp, prev, got)
        assert grp.inverse(got) == checked_inverse(grp, got)
        prev = got
    assert errors >= 10


def test_gr2_is_the_degree_two_lattice_of_the_tower():
    # gr2 is the tower's own degree-2 lattice, and it projects every pair
    # as the lattice of the relations over the same pair columns does
    sources = [src for _name, src in standard_catalog()] + presentation_sources()
    for src in sources:
        grp = Class2Group(src)
        assert grp.gr2 is HolonomyAlgebra(src, 2).quotient(2)
        pairs = pair_list(grp.k)
        assert HolonomyAlgebra(src, 2).pairs(2) == tuple(
            ((1, i), (1, j)) for i, j in pairs)
        want = exactla.QuotientLattice(len(pairs), grp.relset.elements)
        for c in range(len(pairs)):
            assert grp.gr2.project({c: 1}) == want.project({c: 1})


# ---------------------------------------------------------------------------
# k-invariant

def test_k_invariant_shapes_and_retraction():
    for arr in (pencil(3), braid(4), near_pencil(5)):
        kinv = k_invariant_matrix(arr)
        w = arr.n_atoms * (arr.n_atoms - 1) // 2
        assert all(len(row) == w for row in kinv)
        # the columns generate Z^r: kinv has an integer right inverse
        assert exactla.QuotientLattice(len(kinv), [sparse(c) for c in zip(*kinv)]).dim == 0
    assert k_invariant_matrix(pencil(3)) == [[1, -1, 1]]


def test_k_invariant_kernel_is_the_relation_span():
    from arrlie import relation_set
    arr = braid(4)
    kinv = k_invariant_matrix(arr)
    # the saturated kernel of kinv: the free part of Z^w / its rows
    kern = exactla.QuotientLattice(len(kinv[0]), [sparse(r) for r in kinv])
    assert kern.rank == betti(arr).b2 == 11
    # every relation pairs to zero against the ideal basis
    rs = relation_set(arr)
    w = len(kinv[0])
    for el in rs.elements:
        vec = [0] * w
        for c, v in el.items():
            vec[c] = v
        assert all(sum(row[t] * vec[t] for t in range(w)) == 0 for row in kinv)


def test_k_invariant_for_presentations():
    assert k_invariant_matrix(make_presentation(2, [])) == [[1]]
    assert k_invariant_matrix(make_presentation(2, ["xyXY"])) == []


def test_k_invariant_of_a_presentation_builds_no_lattice_past_its_tower(monkeypatch):
    pres = make_presentation(3, ["xyXYzxZX"])
    gr2 = HolonomyAlgebra(pres, 2).quotient(2)
    built = []
    init = exactla.QuotientLattice.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(exactla.QuotientLattice, "__init__", counting_init)
    kinv = k_invariant_matrix(pres)
    assert built == []
    assert len(kinv) == gr2.rank == 2 and all(len(row) == 3 for row in kinv)


def test_k_invariant_of_a_presentation_reads_the_degree_two_quotient():
    # rows are the free coordinates of gr2 = Lie_2 / relations, the basis
    # HolonomyAlgebra uses, of the bracket [x_i, x_j] of each wedge pair
    rng = random.Random(23)
    letters = "xyzXYZ"
    saw_torsion = 0
    for _ in range(8):
        k = rng.randint(2, 3)
        relators = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(k), 2)
            e = rng.randint(1, 3)
            relators.append(letters[a] * e + letters[b] + letters[a + 3] * e
                            + letters[b + 3])
        pres = make_presentation(k, relators)
        kinv = k_invariant_matrix(pres)
        alg = HolonomyAlgebra(pres, 2)
        units = exactla.identity(k)
        cols = [bracket_coords(alg, 1, units[i], 1, units[j])[:alg.rank(2)]
                for i, j in pair_list(k)]
        assert kinv == [[col[i] for col in cols] for i in range(alg.rank(2))]
        assert len(kinv) == alg.rank(2)
        saw_torsion += bool(alg.torsion(2))
    assert saw_torsion


# ---------------------------------------------------------------------------
# splittings of H2(N) = gr_n + H2(X), a reference the verifier does not use

@dataclass(frozen=True)
class SplittingData:
    """Splitting pair for coordinates (gr_n block, H2(X) block).

    sigma = [I | -lam] retracts onto gr_n; section h = [[lam],[I]] embeds
    H2(X); ker sigma = im h.
    """
    lam: tuple
    sigma: tuple
    section: tuple

    @property
    def gr_dim(self):
        return len(self.sigma)

    @property
    def h2x_dim(self):
        return len(self.section[0]) if self.section else 0


def splitting_from_hom(lam, gr_dim=None, h2x_dim=None):
    """Splitting of 0 -> gr_n -> gr_n + H2(X) -> H2(X) -> 0 from a hom lam.

    lam maps H2(X) coordinates to gr_n coordinates (a gr_dim x h2x_dim
    matrix).  Verifies sigma . i = id, pi . h = id and ker sigma = im h.
    """
    lam = [list(row) for row in lam]
    a = len(lam) if gr_dim is None else gr_dim
    if len(lam) not in (0, a):
        raise ValueError("dimension mismatch: lam has %d rows, expected %d"
                         % (len(lam), a))
    if lam:
        widths = {len(row) for row in lam}
        if len(widths) != 1:
            raise ValueError("dimension mismatch: ragged lam")
        c = widths.pop()
        if h2x_dim is not None and c != h2x_dim:
            raise ValueError("dimension mismatch: lam has %d columns, expected %d"
                             % (c, h2x_dim))
    else:
        if h2x_dim is None:
            raise ValueError("empty lam needs explicit h2x_dim")
        c = h2x_dim
        lam = [[0] * c for _ in range(a)]
    sigma = [[int(i == j) for j in range(a)] + [-x for x in lam[i]]
             for i in range(a)]
    section = [list(lam[i]) for i in range(a)] + \
              [[int(i == j) for j in range(c)] for i in range(c)]
    inc = [[int(i == j) for j in range(a)] for i in range(a)] + \
          [[0] * a for _ in range(c)]
    proj = [[0] * a + [int(i == j) for j in range(c)] for i in range(c)]
    if not is_zero(mat_sub(exactla.mat_mul(sigma, inc), exactla.identity(a))):
        raise AssertionError("splitting identity sigma.i = id failed")
    if not is_zero(mat_sub(exactla.mat_mul(proj, section), exactla.identity(c))):
        raise AssertionError("splitting identity pi.h = id failed")
    if not is_zero(exactla.mat_mul(sigma, section)):
        raise AssertionError("splitting identity sigma.h = 0 failed")
    # ker sigma = im h: [i | h] is block upper triangular with unit diagonal
    square = [inc[i] + section[i] for i in range(a + c)]
    if abs(det_int(square)) != 1:
        raise AssertionError("splitting does not span: [i | h] not unimodular")
    return SplittingData(lam=tuple(tuple(r) for r in lam),
                         sigma=tuple(tuple(r) for r in sigma),
                         section=tuple(tuple(r) for r in section))


def test_splitting_from_hom():
    s = splitting_from_hom([[1, 2]])
    assert s.sigma == ((1, -1, -2),)
    assert s.section == ((1, 2), (1, 0), (0, 1))
    assert (s.gr_dim, s.h2x_dim) == (1, 2)
    z = splitting_from_hom([], gr_dim=2, h2x_dim=1)
    assert z.sigma == ((1, 0, 0), (0, 1, 0))


def test_splitting_validation():
    with pytest.raises(ValueError, match="expected 3"):
        splitting_from_hom([[1], [2]], gr_dim=3)
    with pytest.raises(ValueError, match="ragged"):
        splitting_from_hom([[1, 2], [3]])
    with pytest.raises(ValueError, match="expected 5"):
        splitting_from_hom([[1, 2], [3, 4]], h2x_dim=5)
    with pytest.raises(ValueError, match="needs explicit h2x_dim"):
        splitting_from_hom([])


# ---------------------------------------------------------------------------
# truncated graded Lie rings

def test_truncated_lie_matches_the_holonomy_algebra():
    arr = braid(4)
    L = truncated_lie(arr, 3)
    assert [(g.rank, g.torsion) for g in L.degrees] == [(6, ()), (4, ()), (10, ())]
    alg = HolonomyAlgebra(arr, max_degree=3)
    rng = random.Random(4)
    for _ in range(5):
        u = [rng.randint(-2, 2) for _ in range(6)]
        v = [rng.randint(-2, 2) for _ in range(6)]
        assert bracket_vec(L, 1, u, 1, v) == bracket_coords(alg, 1, u, 1, v)
    assert bracket_vec(L, 2, [1, 0, 0, 0], 2, [1, 0, 0, 0]) is None  # past the top


def test_truncated_lie_keeps_torsion():
    L = truncated_lie(make_presentation(2, ["xxyXXY"]), 3)
    assert [(g.rank, g.torsion) for g in L.degrees] == \
        [(2, ()), (0, (2,)), (0, (2, 2))]
    assert L.dim(2) == 1 and L.divisors(2) == [2]
    z = bracket_vec(L, 1, [1, 0], 1, [0, 1])
    assert z == [1]
    assert bracket_vec(L, 1, [2, 0], 1, [0, 1]) == [0]  # 2z = 0


def test_truncated_lie_products_are_the_tower_brackets():
    # every unit pair s < t within the top, densified and read back with
    # its zeros dropped and reduced by the divisors of its degree
    cases = [(arr, 3) for _name, arr in standard_catalog()] + [(braid(4), 4)]
    cases += [(pres, 3) for pres in commutator_presentations(0, 10)]
    cases += [(make_presentation(2, ["xxyXXY"]), 3)]
    with_torsion = 0
    for src, top in cases:
        L = truncated_lie(src, top)
        alg = HolonomyAlgebra(src, top)
        units = {d: exactla.identity(alg.dim(d)) for d in range(1, top)}
        expected = {}
        for d1 in range(1, top):
            for d2 in range(d1, top - d1 + 1):
                divs = L.divisors(d1 + d2)
                for i in range(alg.dim(d1)):
                    for j in range(i + 1 if d1 == d2 else 0, alg.dim(d2)):
                        vec = bracket_coords(alg, d1, units[d1][i], d2, units[d2][j])
                        vec = {r: v % dv if dv else v
                               for r, (v, dv) in enumerate(zip(vec, divs))}
                        vec = {r: v for r, v in vec.items() if v}
                        if vec:
                            expected[(d1, i), (d2, j)] = vec
        assert L.products == expected
        with_torsion += any(g.torsion for g in L.degrees)
    assert len(cases) == 29 and with_torsion >= 2


def test_graded_lie_validation():
    # dense hand-built tables: their shapes and antisymmetry are the
    # converter's to check
    with pytest.raises(ValueError, match="missing bracket table"):
        graded_lie_from_tables([GradedAbelian(1), GradedAbelian(1)], {})
    with pytest.raises(ValueError, match="wrong height"):
        graded_lie_from_tables([GradedAbelian(2), GradedAbelian(1)],
                               {(1, 1): [[(0,), (0,)]]})
    with pytest.raises(ValueError, match="wrong width"):
        graded_lie_from_tables([GradedAbelian(2), GradedAbelian(1)],
                               {(1, 1): [[(0,)], [(0,)]]})
    with pytest.raises(ValueError, match="wrong degree"):
        graded_lie_from_tables([GradedAbelian(2), GradedAbelian(1)],
                               {(1, 1): [[(0,), (1, 1)], [(0,), (0,)]]})
    with pytest.raises(ValueError, match="not antisymmetric"):
        graded_lie_from_tables([GradedAbelian(2), GradedAbelian(1)],
                               {(1, 1): [[(0,), (1,)], [(1,), (0,)]]})
    # antisymmetric modulo 2, yet [e, e] is the order-2 class
    with pytest.raises(ValueError, match=r"nonzero bracket \[e, e\]"):
        graded_lie_from_tables([GradedAbelian(1), GradedAbelian(0, (2,))],
                               {(1, 1): [[(1,)]]})
    # the library's own intake: products s < t within the top
    degrees = [GradedAbelian(2), GradedAbelian(1)]
    for key, vec, msg in ((((1, 1), (1, 0)), {0: 1}, "not ordered s < t"),
                          (((1, 0), (1, 0)), {0: 1}, "not ordered s < t"),
                          (((1, 0), (2, 0)), {}, "past the top degree 2"),
                          (((1, 0), (1, 2)), {0: 1}, "not a basis class"),
                          (((0, 0), (1, 1)), {0: 1}, "not a basis class"),
                          (((1, 0), (1, 1)), {1: 1}, "outside degree 2")):
        with pytest.raises(ValueError, match=msg):
            GradedLie(degrees, {key: vec})
    with pytest.raises(ValueError, match="Jacobi"):
        GradedLie([GradedAbelian(3), GradedAbelian(1), GradedAbelian(1)],
                  {((1, 0), (1, 1)): {0: 1}, ((1, 2), (2, 0)): {0: 1}})


def test_graded_lie_refuses_a_bracket_its_torsion_does_not_kill():
    # t has order 2, so 2 [s, t] = [s, 2 t] = 0 and [s, t] is no free class;
    # once accepted, ce_h2 raised over Z and answered over Q, F_2 and F_3
    degrees = [GradedAbelian(1, (2,)), GradedAbelian(1)]
    products = {((1, 0), (1, 1)): {0: 1}}
    with pytest.raises(ValueError, match="violate the torsion"):
        GradedLie(degrees, products)
    with pytest.raises(ValueError, match="violate the torsion"):
        check_jacobi(GradedLie(degrees, products, validate=False))
    # an order-2 bracket is killed; Pappus has Z/2 in degree 4, below its top
    assert GradedLie([GradedAbelian(1, (2,)), GradedAbelian(0, (2,))], products).products
    L = truncated_lie(pappus(), 6)
    assert L.degrees[3].torsion == (2,) and truncated_lie(hesse(), 4).degrees[3].torsion


def test_graded_lie_reduces_its_products():
    L = GradedLie([GradedAbelian(3), GradedAbelian(1, (2,))],
                  {((1, 0), (1, 1)): {0: -3, 1: 5},
                   ((1, 0), (1, 2)): {0: 0, 1: 4},
                   ((1, 1), (1, 2)): {}})
    assert L.products == {((1, 0), (1, 1)): {0: -3, 1: 1}}


# ---------------------------------------------------------------------------
# CE homology of truncations

def test_ce_h2_classical_values():
    abelian = GradedLie([GradedAbelian(2)], {})
    assert ce_h2(abelian) == GradedAbelian(rank=1)
    heis = graded_lie_from_tables([GradedAbelian(2), GradedAbelian(1)],
                                  {(1, 1): [[(0,), (1,)], [(-1,), (0,)]]})
    for ring in (rings.Z, rings.Q, rings.fp(2)):
        assert ce_h2(heis, ring).rank == 2


def test_ce_h2_field_ranks_see_torsion():
    # Z^2 with a central order-2 bracket: abelian over Q, Heisenberg over F_2
    tor = graded_lie_from_tables([GradedAbelian(2), GradedAbelian(0, (2,))],
                                 {(1, 1): [[(0,), (1,)], [(-1,), (0,)]]})
    assert ce_h2(tor) == GradedAbelian(rank=1, torsion=(2, 2))
    assert ce_h2(tor, rings.Q).rank == 1
    assert ce_h2(tor, rings.fp(2)).rank == 2
    assert ce_h2(tor, rings.fp(3)).rank == 1


@pytest.mark.parametrize("rank, torsion, h2", [
    (0, (2, 4, 8), GradedAbelian(0, (2, 2, 4))),
    (1, (3, 9), GradedAbelian(0, (3, 3, 9))),
    (2, (3,), GradedAbelian(1, (3, 3))),
])
def test_ce_h2_of_an_abelian_group_is_its_exterior_square(rank, torsion, h2):
    # no brackets: H2 = Lambda^2 L, with Z/gcd(d_s, d_t) on every pair
    assert ce_h2(GradedLie([GradedAbelian(rank, torsion)], {})) == h2


@pytest.mark.parametrize("relator, h2", [
    ("xxyXXY", GradedAbelian(1, (2, 2, 2))),
    ("xxxyXXXY", GradedAbelian(1, (3, 3, 3))),
])
def test_ce_h2_lifts_boundaries_through_torsion_coordinates(relator, h2):
    # d2 of these boundaries is a nonzero multiple of a torsion divisor;
    # the values are those of the former dense kernel/solve/SNF chain
    L = truncated_lie(make_presentation(2, [relator]), 3)
    assert ce_h2(L) == h2
    assert ce_h2(L, rings.Q).rank == h2.rank


def test_ce_h2_refuses_boundaries_off_the_cycle_lattice():
    # degree 1 = <a, b, c>, degree 2 = <x, y, z> = <[a,b], [a,c], [b,c]>,
    # degree 3 = <w> with [x, c] = [z, a] = w and [y, b] = 0: the Jacobi
    # sum of a, b, c is 2w, so d2 . d3 is nonzero on a free coordinate
    t11 = [[(0, 0, 0), (1, 0, 0), (0, 1, 0)],
           [(-1, 0, 0), (0, 0, 0), (0, 0, 1)],
           [(0, -1, 0), (0, 0, -1), (0, 0, 0)]]
    t12 = [[(0,), (0,), (-1,)], [(0,), (0,), (0,)], [(-1,), (0,), (0,)]]
    t21 = [[(0,), (0,), (1,)], [(0,), (0,), (0,)], [(1,), (0,), (0,)]]
    L = graded_lie_from_tables(
        [GradedAbelian(3), GradedAbelian(3), GradedAbelian(1)],
        {(1, 1): t11, (1, 2): t12, (2, 1): t21}, validate=False)
    with pytest.raises(ArithmeticError, match="escaped the cycle lattice"):
        ce_h2(L)


def test_ce_h2_of_arrangement_truncations():
    assert ce_h2(truncated_lie(pencil(3), 2), rings.Q).rank == 4
    assert ce_h2(truncated_lie(braid(4), 2), rings.Q).rank == 21


# ---------------------------------------------------------------------------
# the H2 rank comparison

def test_h2_rank_check_degree3():
    rep = h2_rank_check(pencil(3), 3, rings.Q)
    assert rep == {"degree": 3, "ring": "q", "b2": 2, "h_n_rank": 2,
                   "ce_h2_rank": 4, "expected": 4, "pass": True,
                   "bridge": "exact"}
    rep = h2_rank_check(braid(4), 3, rings.Q)
    assert (rep["ce_h2_rank"], rep["h_n_rank"], rep["b2"]) == (21, 10, 11)
    assert rep["pass"]


def test_h2_rank_check_over_z_reports_torsion():
    rep = h2_rank_check(pencil(3), 3, rings.Z)
    assert rep["pass"] and rep["ce_h2_torsion"] == [] and rep["h_n_torsion"] == []


def test_h2_rank_check_degree4_over_z_on_a_decomposable_arrangement():
    # Papadima-Suciu: h_4 of near_pencil(5) is its local F_3, witt(3, 4) = 18
    rep = h2_rank_check(near_pencil(5), 4, rings.Z)
    assert rep["pass"] and rep["decomposable"]
    assert (rep["ce_h2_rank"], rep["h_n_rank"], rep["b2"]) == (25, 18, 7)
    assert rep["ce_h2_torsion"] == [] and rep["h_n_torsion"] == []


def test_h2_rank_check_degree4_needs_decomposability():
    rep = h2_rank_check(pencil(3), 4, rings.Q)
    assert rep["pass"] and rep["decomposable"]
    assert (rep["ce_h2_rank"], rep["h_n_rank"], rep["b2"]) == (5, 3, 2)
    with pytest.raises(ValueError, match="requires a decomposable"):
        h2_rank_check(braid(4), 4)
    with pytest.raises(ValueError, match="starts at degree 3"):
        h2_rank_check(pencil(3), 2)
    with pytest.raises(ValueError, match="only available for arrangements"):
        h2_rank_check(make_presentation(2, ["xyXY"]), 4)


def test_h2_rank_check_reads_b2_and_h_n_off_the_tower():
    # b2 is the rank of the relation rows over the ring, and h_n the
    # degree-n piece that holonomy_graded returns
    cases = [(arr, 3) for _name, arr in standard_catalog()]
    cases += [(arr, 4) for _name, arr in standard_catalog()
              if is_decomposable(arr)["decomposable"]]
    cases += [(pres, 3) for pres in presentation_sources()
              + [make_presentation(1, []), make_presentation(2, [])]]
    assert len(cases) == 17 + 15 + 14
    for source, n in cases:
        rows = [dict(el) for el in as_relation_set(source).elements]
        for ring in (rings.Z, rings.Q, rings.fp(2), rings.fp(3)):
            rep = h2_rank_check(source, n, ring)
            assert rep["b2"] == exactla.rank_sparse(rows, p=rings.char(ring))
            hn = holonomy_graded(source, n, ring)
            assert rep["h_n_rank"] == hn.rank
            assert rep.get("h_n_torsion", []) == list(hn.torsion)


def test_ce_h2_of_truncations_against_the_word_rows():
    # h2check holds by construction, since the tower takes h_n from the
    # same complex; here the CE complex of the truncation meets the word
    # rows of the ideal instead, which share no code with the tower
    checked = 0
    for name, arr in standard_catalog():
        if not is_decomposable(arr)["decomposable"]:
            continue
        b2 = betti(arr).b2
        oracle = word_row_degrees(arr, 4, rings.Z)
        for n in (3, 4):
            ce = ce_h2(truncated_lie(arr, n - 1))
            rank, torsion = oracle[n - 1]
            assert (ce.rank, ce.torsion) == (rank + b2, torsion), (name, n)
            checked += 1
    assert checked == 30  # the 15 decomposable catalog arrangements
    # torsion presentations at every top m: rank H2 is the rank of the
    # relation span plus rank h_{m+1}, and its torsion that of h_{m+1}
    cases = [(pres, m) for seed in (0, 1, 2)
             for pres in commutator_presentations(seed, 10) for m in (2, 3)]
    cases += [(make_presentation(2, [rel]), 3) for rel in ("xxyXXY", "xxxyXXXY")]
    with_torsion = 0
    for pres, m in cases:
        span = exactla.rank_sparse(list(as_relation_set(pres).elements))
        rank, torsion = word_row_degrees(pres, m + 1)[m]
        ce = ce_h2(truncated_lie(pres, m))
        assert (ce.rank, ce.torsion) == (rank + span, torsion), (pres.relators, m)
        checked += 1
        with_torsion += bool(torsion)
    assert checked == 92 and with_torsion >= 30


# ---------------------------------------------------------------------------
# the weighted complex against the flat one

CE_RINGS = (rings.Z, rings.Q, rings.fp(2), rings.fp(3))


def hand_built_rings():
    """The graded rings written out by hand in the tests above, and an
    abelian one whose H2 is Z/2 in weight 2 plus Z/3 in weight 4."""
    heis = {(1, 1): [[(0,), (1,)], [(-1,), (0,)]]}
    t11 = [[(0, 0, 0), (1, 0, 0), (0, 1, 0)],
           [(-1, 0, 0), (0, 0, 0), (0, 0, 1)],
           [(0, -1, 0), (0, 0, -1), (0, 0, 0)]]
    t12 = [[(0,), (0,), (-1,)], [(0,), (0,), (0,)], [(-1,), (0,), (0,)]]
    t21 = [[(0,), (0,), (1,)], [(0,), (0,), (0,)], [(1,), (0,), (0,)]]
    jac = {(1, 1): [[(0,), (1,), (0,)], [(-1,), (0,), (0,)], [(0,), (0,), (0,)]],
           (1, 2): [[(0,)], [(0,)], [(1,)]],
           (2, 1): [[(0,), (0,), (-1,)]]}
    from_tables = graded_lie_from_tables
    out = [GradedLie([GradedAbelian(2)], {}),
           from_tables([GradedAbelian(2), GradedAbelian(1)], heis),
           from_tables([GradedAbelian(2), GradedAbelian(0, (2,))], heis),
           from_tables([GradedAbelian(3), GradedAbelian(3), GradedAbelian(1)],
                       {(1, 1): t11, (1, 2): t12, (2, 1): t21}, validate=False),
           from_tables([GradedAbelian(3), GradedAbelian(1), GradedAbelian(1)],
                       jac, validate=False)]
    out += [GradedLie([GradedAbelian(r, t)], {})
            for r, t in ((0, (2, 4, 8)), (1, (3, 9)), (2, (3,)))]
    zero = [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]
    out.append(from_tables([GradedAbelian(0, (2, 2)), GradedAbelian(0, (3, 3))],
                           {(1, 1): zero}))
    return out


def random_ring(rng):
    """Top-3 ring with seeded antisymmetric tables and torsion, the Jacobi
    identity left to chance."""
    degrees = [GradedAbelian(3),
               GradedAbelian(rng.randint(0, 2), rng.choice([(), (2,), (2, 4)])),
               GradedAbelian(rng.randint(0, 2), rng.choice([(), (3,), (2, 6)]))]
    dims = [g.rank + len(g.torsion) for g in degrees]

    def vec(d):
        return tuple(rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(dims[d - 1]))

    t11 = [[None] * 3 for _ in range(3)]
    for i in range(3):
        t11[i][i] = (0,) * dims[1]
        for j in range(i + 1, 3):
            t11[i][j] = vec(2)
            t11[j][i] = tuple(-v for v in t11[i][j])
    t12 = [[vec(3) for _ in range(dims[1])] for _ in range(3)]
    t21 = [[tuple(-v for v in t12[i][j]) for i in range(3)]
           for j in range(dims[1])]
    return graded_lie_from_tables(
        degrees, {(1, 1): t11, (1, 2): t12, (2, 1): t21}, validate=False)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e)


def test_ce_h2_and_the_jacobi_check_match_the_flat_complex():
    # the library builds the exterior complex weight by weight; the
    # reference lists every pair and triple of the flat basis and checks
    # Jacobi on dense vectors, so the two share no enumeration
    rng = random.Random(15)
    sources = [arr for _name, arr in standard_catalog()]
    sources += [make_presentation(2, [rel]) for rel in ("xxyXXY", "xxxyXXXY")]
    sources += commutator_presentations(2, 10)
    rings_ = [truncated_lie(src, 3) for src in sources] + hand_built_rings()
    rings_ += [random_ring(rng) for _ in range(40)]
    broken = 0
    for L in rings_:
        jacobi = _outcome(check_jacobi, L)
        assert jacobi in (None, ValueError)
        assert (_outcome(GradedLie, L.degrees, L.products) is ValueError) \
            == (jacobi is ValueError)
        for ring in CE_RINGS:
            assert _outcome(ce_h2, L, ring) == _outcome(flat_ce_h2, L, ring)
        if jacobi is ValueError:
            broken += 1
            assert _outcome(ce_h2, L) is ArithmeticError
    assert broken >= 10 and len(rings_) - broken >= 40
    # 24 seeded rings break Jacobi; 6 more break only gcd(d_s, d_t) [s, t] = 0
    assert (len(rings_), broken) == (78, 30)
