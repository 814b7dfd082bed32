"""Lattice layer: pencils, Mobius data, catalog families, JSON interchange."""

import json
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest

from arrlie import (
    Arrangement,
    ArrangementError,
    arrangement_from_json,
    arrangement_to_json,
    betti,
    braid,
    catalog_arrangement,
    generic,
    load_arrangement,
    localize,
    mobius_l2,
    near_pencil,
    pencil,
    pencils_from_normals,
    standard_catalog,
)


def frac_rank(vectors):
    """Row reduction over Fraction, independent of the library's linear algebra."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def brute_pencils(normals):
    """Group pairs into rank-2 coincidence classes the slow way."""
    m = len(normals)
    flats = set()
    for i in range(m):
        for j in range(i + 1, m):
            members = sorted(
                l for l in range(m)
                if l in (i, j) or frac_rank([normals[i], normals[j], normals[l]]) == 2)
            flats.add(tuple(members))
    return sorted(flats)


# ---------------------------------------------------------------------------
# structure of the catalog families

def test_braid3_is_a_single_pencil():
    arr = braid(3)
    assert arr.atoms == ("H12", "H13", "H23")
    assert arr.pencils == ((0, 1, 2),)
    assert mobius_l2(arr) == [2]
    b = betti(arr)
    assert (b.b1, b.b2) == (3, 2)


def test_braid4_lattice():
    arr = braid(4)
    assert arr.atoms == ("H12", "H13", "H14", "H23", "H24", "H34")
    assert arr.pencils == ((0, 1, 3), (0, 2, 4), (0, 5), (1, 2, 5),
                           (1, 4), (2, 3), (3, 4, 5))
    assert mobius_l2(arr) == [2, 2, 1, 2, 1, 1, 2]
    b = betti(arr)
    assert (b.b1, b.b2) == (6, 11)


def test_braid5_counts():
    arr = braid(5)
    triples = sum(1 for p in arr.pencils if len(p) == 3)
    doubles = sum(1 for p in arr.pencils if len(p) == 2)
    assert (triples, doubles) == (10, 15)
    assert betti(arr).b2 == 35


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_pencil_and_generic_betti(k):
    assert betti(pencil(k)).b2 == k - 1
    assert betti(generic(k)).b2 == k * (k - 1) // 2


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_near_pencil_structure(k):
    arr = near_pencil(k)
    assert arr.pencils[0] == tuple(range(k - 1))
    assert len(arr.pencils) == k
    assert betti(arr).b2 == (k - 2) + (k - 1)


def test_catalog_dispatch():
    assert catalog_arrangement("braid", 4).atoms == braid(4).atoms
    with pytest.raises(ArrangementError, match="unknown catalog family"):
        catalog_arrangement("ceva", 3)
    names = [nm for nm, _ in standard_catalog()]
    assert len(names) == len(set(names)) == 17


def test_mobius_is_pencil_size_minus_one():
    for _, arr in standard_catalog():
        assert mobius_l2(arr) == [len(p) - 1 for p in arr.pencils]
        assert all(f.mu == len(f.members) - 1 for f in arr.flats)


# ---------------------------------------------------------------------------
# pencils from normals

def test_pencils_from_normals_matches_brute_force():
    # oracle: l joins the pencil of (i, j) iff rank(n_i, n_j, n_l) == 2,
    # and the first proportional pair in (i, j) order is the one named
    cases = [braid(n).normals for n in (3, 4, 5, 6)]
    rng = random.Random(7)
    for _ in range(200):
        dim = rng.choice((2, 3, 4))
        size, normals = rng.randint(2, 7), []
        while len(normals) < size:
            v = tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
                      for _ in range(dim))
            if any(v):
                normals.append(v)
        cases.append(normals)
    for normals in cases:
        m = len(normals)
        atoms = ["H%d" % (i + 1) for i in range(m)]
        bad = next(((i, j) for i in range(m) for j in range(i + 1, m)
                    if frac_rank([normals[i], normals[j]]) < 2), None)
        if bad is None:
            assert pencils_from_normals(atoms, normals) == brute_pencils(normals)
        else:
            msg = "atoms 'H%d' and 'H%d' are proportional" % (bad[0] + 1, bad[1] + 1)
            with pytest.raises(ArrangementError, match=msg):
                pencils_from_normals(atoms, normals)


def fraction_rref(u, v):
    """Reduced row echelon form of the rows u, v over Fraction, zero rows dropped."""
    rows = [[Fraction(x) for x in u], [Fraction(x) for x in v]]
    out = []
    for col in range(len(rows[0])):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        piv = [x / piv[col] for x in piv]
        rows = [[a - r[col] * b for a, b in zip(r, piv)] for r in rows]
        out = [[a - r[col] * b for a, b in zip(r, piv)] for r in out] + [piv]
    return tuple(tuple(r) for r in out)


def fraction_rref_pencils(atoms, normals):
    """Pencils as the pairs grouped by the rational RREF of their span."""
    m, planes = len(normals), {}
    for i in range(m):
        for j in range(i + 1, m):
            key = fraction_rref(normals[i], normals[j])
            if len(key) < 2:
                raise ArrangementError(
                    "normals of atoms %r and %r are proportional" % (atoms[i], atoms[j]))
            planes.setdefault(key, set()).update((i, j))
    return sorted(tuple(sorted(members)) for members in planes.values())


def test_pencils_from_normals_match_the_fraction_rref_grouping():
    # normals are rational combinations of a few base vectors, so many of
    # them share planes; negative, non-primitive and non-integral entries
    # and whole-vector rescalings all occur
    rng = random.Random(23)
    seen_big_pencil = seen_proportional = 0

    def rational():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))

    for _ in range(300):
        dim = rng.randint(2, 6)
        base = [[rational() for _ in range(dim)] for _ in range(rng.randint(2, 4))]
        size, normals = rng.randint(2, 8), []
        while len(normals) < size:
            a, b = rng.sample(base, 2)
            s, t, scale = rational(), rational(), rng.choice((-4, -1, 2, Fraction(-6, 4)))
            v = tuple(scale * (s * x + t * y) for x, y in zip(a, b))
            if any(v):
                normals.append(v)
        atoms = ["H%d" % (i + 1) for i in range(len(normals))]
        try:
            want = fraction_rref_pencils(atoms, normals)
        except ArrangementError as e:
            seen_proportional += 1
            with pytest.raises(ArrangementError, match=re.escape(str(e))):
                pencils_from_normals(atoms, normals)
            continue
        assert pencils_from_normals(atoms, normals) == want
        seen_big_pencil += any(len(p) > 2 for p in want)
    assert seen_big_pencil >= 30 and seen_proportional >= 30


def span_key_pencils(atoms, normals):
    """The pair-by-pair grouping that pencils_from_normals used to run:
    every pair is keyed by the fraction-free echelon form of its span, two
    primitive reductions each, and the first proportional pair is named."""
    def primitive(row):
        g = gcd(*row)
        if not g:
            return None
        if next(x for x in row if x) < 0:
            g = -g
        return tuple(x // g for x in row)

    def span_key(u, v):
        p = min(next((c for c, x in enumerate(w) if x), len(w)) for w in (u, v))
        r1, r2 = (u, v) if u[p] else (v, u)
        r2 = primitive([r1[p] * y - r2[p] * x for x, y in zip(r1, r2)])
        if r2 is None:
            return None
        q = next(c for c, x in enumerate(r2) if x)
        return primitive([r2[q] * x - r1[q] * y for x, y in zip(r1, r2)]), r2

    rows = []
    for v in normals:
        v = [Fraction(x) for x in v]
        d = lcm(*(x.denominator for x in v))
        rows.append([x.numerator * (d // x.denominator) for x in v])
    planes = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            key = span_key(rows[i], rows[j])
            if key is None:
                raise ArrangementError(
                    "normals of atoms %r and %r are proportional" % (atoms[i], atoms[j]))
            planes.setdefault(key, set()).update((i, j))
    return sorted(tuple(sorted(members)) for members in planes.values())


def test_pencils_from_normals_match_the_span_key_grouping():
    # relabelled and rescaled braid normals, plus normals drawn from a few
    # planes of a random space so that big pencils, a plane seen from
    # several first atoms and proportional pairs all occur
    rng = random.Random(31)
    cases = []
    for n in (3, 4, 5, 6, 7):
        normals = [tuple(rng.choice((1, -1, 2, Fraction(-1, 3))) * x for x in v)
                   for v in braid(n).normals]
        rng.shuffle(normals)
        cases.append(normals)
    for _ in range(300):
        dim = rng.randint(2, 7)
        base = [[rng.randint(-3, 3) for _ in range(dim)]
                for _ in range(rng.randint(2, 5))]
        normals = []
        while len(normals) < rng.randint(2, 10):
            a, b = rng.sample(base, 2)
            s, t = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            v = tuple(s * x + t * y for x, y in zip(a, b))
            if any(v):
                normals.append(v)
        cases.append(normals)
    big = proportional = 0
    for normals in cases:
        atoms = ["H%d" % (i + 1) for i in range(len(normals))]
        try:
            want = span_key_pencils(atoms, normals)
        except ArrangementError as e:
            proportional += 1
            with pytest.raises(ArrangementError, match=re.escape(str(e))):
                pencils_from_normals(atoms, normals)
            continue
        assert pencils_from_normals(atoms, normals) == want
        big += any(len(p) > 2 for p in want)
    assert big >= 40 and proportional >= 40


def test_pencils_from_normals_error_paths():
    with pytest.raises(ArrangementError, match="is zero"):
        pencils_from_normals(["a", "b"], [(1, 0), (0, 0)])
    with pytest.raises(ArrangementError, match="proportional"):
        pencils_from_normals(["a", "b"], [(1, 2), (2, 4)])
    with pytest.raises(ArrangementError, match="mixed dimensions"):
        pencils_from_normals(["a", "b"], [(1, 0), (0, 1, 0)])
    with pytest.raises(ArrangementError, match="2 normals for 3 atoms"):
        pencils_from_normals(["a", "b", "c"], [(1, 0), (0, 1)])


def test_unimodular_change_of_coordinates_preserves_pencils():
    arr = braid(4)
    u = [[1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [1, 0, 0, 2]]
    moved = [tuple(sum(u[r][c] * v[c] for c in range(4)) for r in range(4))
             for v in arr.normals]
    assert pencils_from_normals(arr.atoms, moved) == list(arr.pencils)


# ---------------------------------------------------------------------------
# constructor validation

def test_pair_cover_violations():
    with pytest.raises(ArrangementError, match="lie in two pencils"):
        Arrangement(["a", "b", "c"], pencils=[(0, 1, 2), (0, 1)])
    with pytest.raises(ArrangementError, match="lie in no pencil"):
        Arrangement(["a", "b", "c"], pencils=[(0, 1)])
    with pytest.raises(ArrangementError, match="fewer than two"):
        Arrangement(["a", "b"], pencils=[(0,), (0, 1)])
    with pytest.raises(ArrangementError, match="missing atom"):
        Arrangement(["a", "b"], pencils=[(0, 3)])


def test_constructor_misc_validation():
    with pytest.raises(ArrangementError, match="duplicate atom names"):
        Arrangement(["a", "a"], pencils=[(0, 1)])
    with pytest.raises(ArrangementError, match="need normals or pencils"):
        Arrangement(["a", "b"])
    with pytest.raises(ArrangementError, match="at least one atom"):
        Arrangement([], pencils=[])
    arr = Arrangement(["a", "b"], pencils=[[1, 0]])
    assert arr.pencils == ((0, 1),)
    assert arr.atom_index("b") == 1
    with pytest.raises(ArrangementError, match="unknown atom"):
        arr.atom_index("zz")


def test_library_arrangement_refuses_inexact_numbers():
    # normals went through Fraction(x) and pencil indices through int(i):
    # 0.1 became 3602879701896397/36028797018963968, and [0, 1.7, 2] and
    # [0, True, "2"] both became (0, 1, 2)
    for entry in (1.5, 0.1, True, "1/3", None):
        with pytest.raises(ArrangementError, match="normal entry %s is not"
                           % re.escape(repr(entry))):
            Arrangement(["a", "b", "c"], normals=[[1, 0], [0, 1], [entry, 1]])
    for pen in ([0, 1.7, 2], [0, True, "2"], [0, 1, 2.0]):
        for normals in (None, braid(3).normals):
            with pytest.raises(ArrangementError,
                               match="atom indices must be integers"):
                Arrangement(["a", "b", "c"], normals=normals, pencils=[pen])
    arr = Arrangement(["a", "b", "c"], normals=[[1, 0], [0, 1], [Fraction(1, 3), 1]])
    assert arr.normals[2] == (Fraction(1, 3), Fraction(1))
    assert all(type(x) is Fraction for v in arr.normals for x in v)


def test_given_pencils_must_match_derived_ones():
    arr = braid(3)
    Arrangement(arr.atoms, normals=arr.normals, pencils=[(0, 1, 2)])
    with pytest.raises(ArrangementError, match="disagree"):
        Arrangement(arr.atoms, normals=arr.normals,
                    pencils=[(0, 1), (0, 2), (1, 2)])


# ---------------------------------------------------------------------------
# localization

def test_localize_braid4_triple_flat():
    arr = braid(4)
    loc = localize(arr, 0)
    assert loc.atoms == ("H12", "H13", "H23")
    assert loc.pencils == ((0, 1, 2),)
    assert betti(loc).b2 == 2
    # normals come along and still derive a single pencil
    assert loc.normals == tuple(arr.normals[i] for i in (0, 1, 3))


def test_localize_double_point_and_bad_index():
    arr = braid(4)
    loc = localize(arr, 2)
    assert loc.atoms == ("H12", "H34")
    assert betti(loc).b2 == 1
    with pytest.raises(ArrangementError, match="no flat with index"):
        localize(arr, 7)


# ---------------------------------------------------------------------------
# JSON interchange

def test_json_round_trip_with_and_without_normals():
    for arr in (braid(4), near_pencil(5)):
        obj = arrangement_to_json(arr)
        back = arrangement_from_json(json.loads(json.dumps(obj)))
        assert back.atoms == arr.atoms
        assert back.pencils == arr.pencils
        assert back.normals == arr.normals


def test_json_accepts_rational_spellings():
    obj = {"atoms": ["a", "b"],
           "normals": [["1/2", 1], [[3, 4], "2"]]}
    arr = arrangement_from_json(obj)
    assert arr.normals == ((Fraction(1, 2), Fraction(1)),
                           (Fraction(3, 4), Fraction(2)))


def test_json_big_integers_become_strings():
    big = 2 ** 60
    arr = Arrangement(["a", "b"], normals=[(big, 1), (0, 1)])
    obj = arrangement_to_json(arr)
    assert obj["normals"][0][0] == str(big)
    back = arrangement_from_json(obj)
    assert back.normals == arr.normals


def test_json_rejects_floats_and_junk():
    with pytest.raises(ArrangementError, match="floats are not accepted"):
        arrangement_from_json({"atoms": ["a", "b"], "normals": [[0.5, 1], [1, 0]]})
    with pytest.raises(ArrangementError, match="bad rational string"):
        arrangement_from_json({"atoms": ["a", "b"], "normals": [["x", 1], [1, 0]]})
    with pytest.raises(ArrangementError, match="zero denominator"):
        arrangement_from_json({"atoms": ["a", "b"], "normals": [[[1, 0], 1], [1, 0]]})
    with pytest.raises(ArrangementError, match="boolean"):
        arrangement_from_json({"atoms": ["a", "b"], "normals": [[True, 1], [1, 0]]})
    with pytest.raises(ArrangementError, match="needs an 'atoms'"):
        arrangement_from_json({"pencils": [[0, 1]]})
    with pytest.raises(ArrangementError, match="must be an object"):
        arrangement_from_json([1, 2])


def test_load_arrangement_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ArrangementError, match="bad JSON"):
        load_arrangement(str(path))
    good = tmp_path / "pencil3.json"
    good.write_text(json.dumps(arrangement_to_json(pencil(3))))
    assert load_arrangement(str(good)).atoms == ("H1", "H2", "H3")
