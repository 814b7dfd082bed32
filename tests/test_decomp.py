"""Decomposability, correction-form lifts, obstructions, and the iso verifier."""

import math
import random
import re
from fractions import Fraction

import pytest

from arrlie import (
    GradedAbelian,
    HolonomyAlgebra,
    assemble_global_lift,
    braid,
    check_diagram,
    diagram_instance,
    generic,
    holonomy_graded,
    is_decomposable,
    lattice_iso,
    lcs_ranks_decomposable,
    local_lift,
    localize_global_lift,
    near_pencil,
    pencil,
    relation_set,
    standard_catalog,
    verify_decomposable_iso,
    witt_rank,
    zero_local_lifts,
)
from arrlie import decomp, exactla, holonomy, rings
from arrlie.arrangement import Arrangement, Flat2, localize
from arrlie.decomp import (
    Charts,
    _invertible,
    iso_h2_matrix,
    letter_matrix,
    lift_h2_matrix,
    relator_basis,
    relator_components,
    rename,
    restriction_stack,
)
from arrlie.holonomy import make_presentation
from arrlie.nilpotent import Class2Group, h2_rank_check
from lie_reference import (LieElement, bracket, bracket_coords, coords,
                           dense, dense_reduce, det_int, element, expand_tree,
                           is_zero, lyndon_basis, sparse, tensor_to_lyndon,
                           word_row_degrees)
from test_exactla import known_determinant_matrices
from test_holonomy import commutator_presentations


# ---------------------------------------------------------------------------
# the decomposability test

def test_braid4_is_not_decomposable():
    rep = is_decomposable(braid(4))
    assert rep == {"decomposable": False, "r_global": 10, "r_local": 8,
                   "torsion": []}


@pytest.mark.parametrize("arr_factory", [
    lambda: braid(3), lambda: pencil(4), lambda: generic(5),
    lambda: near_pencil(5)])
def test_catalog_families_are_decomposable(arr_factory):
    rep = is_decomposable(arr_factory())
    assert rep["decomposable"]
    assert rep["r_global"] == rep["r_local"]
    assert rep["torsion"] == []
    assert "qualifier" not in rep


def test_is_decomposable_wants_an_arrangement():
    with pytest.raises(TypeError):
        is_decomposable(relation_set(braid(3)))


# ---------------------------------------------------------------------------
# LCS ranks under the product formula

def test_lcs_ranks_pencil3():
    assert lcs_ranks_decomposable(pencil(3), 5) == [3, 1, 2, 3, 6]
    assert lcs_ranks_decomposable(braid(3), 5) == [3, 1, 2, 3, 6]


def test_lcs_ranks_generic_are_abelian():
    assert lcs_ranks_decomposable(generic(4), 4) == [4, 0, 0, 0]


def test_lcs_ranks_near_pencil5_and_witt_cross_check():
    arr = near_pencil(5)
    got = lcs_ranks_decomposable(arr, 5)
    assert got == [5, 3, 8, 18, 48]
    for m in range(2, 6):
        assert got[m - 1] == sum(witt_rank(f.mu, m) for f in arr.flats)
    # Papadima-Suciu in degree 4: the holonomy rank over Z is the product
    # formula value, with no torsion
    for arr, want in ((near_pencil(5), 18), (pencil(4), 18), (generic(5), 0)):
        assert lcs_ranks_decomposable(arr, 4)[3] == want
        assert holonomy_graded(arr, 4, rings.Z) == GradedAbelian(rank=want)


def _poly_mul(a, b, n):
    """Product of two integer polynomials (coefficient lists) mod t^n."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def test_lcs_ranks_expand_the_product_formula():
    # prod_n (1-t^n)^phi_n = (1-t)^(|A|-sum mu) prod_Y (1-mu(Y) t) mod t^9,
    # each side multiplied out as a polynomial, without Witt numbers
    top = 9
    checked = 0
    for name, arr in standard_catalog():
        if name in ("braid(4)", "braid(5)"):
            continue
        phis = lcs_ranks_decomposable(arr, top - 1)
        lhs = [1] + [0] * (top - 1)
        for n, phi in enumerate(phis, 1):
            # (1 - t^n)^phi by the binomial theorem, mod t^top
            factor = [0] * top
            for j in range((top - 1) // n + 1):
                factor[n * j] = (-1) ** j * math.comb(phi, j)
            lhs = _poly_mul(lhs, factor, top)
        mus = [f.mu for f in arr.flats]
        rhs = [1] + [0] * (top - 1)
        for c in mus:
            rhs = _poly_mul(rhs, [1, -c], top)
        # (1-t)^e; for e < 0 (generic arrangements) 1/(1-t) = 1 + t + t^2 + ...
        e = arr.n_atoms - sum(mus)
        for _ in range(abs(e)):
            rhs = _poly_mul(rhs, [1, -1] if e > 0 else [1] * top, top)
        assert lhs == rhs, name
        checked += 1
    assert checked == 15


def test_lcs_ranks_refuse_braid4():
    with pytest.raises(ValueError) as exc:
        lcs_ranks_decomposable(braid(4), 4)
    msg = str(exc.value)
    assert "decomposable" in msg
    assert "r_global=10" in msg and "r_local=8" in msg


# ---------------------------------------------------------------------------
# local lifts in correction form

def test_local_lift_accepts_names_and_indices():
    arr = braid(4)
    by_index = local_lift(arr, 1, {(0, 2): (1,), (2, 2): (-1,)}, 4)
    by_name = local_lift(arr, 1, {("H12", 2): (1,), ("H14", 2): (-1,)}, 4)
    assert by_index.corrections == by_name.corrections
    assert by_index.flat.members == (0, 2, 4)
    assert by_index.n == 4


def test_local_lift_validation():
    arr = braid(4)
    with pytest.raises(ValueError, match="not in flat"):
        local_lift(arr, 1, {(1, 2): (1,)}, 4)
    with pytest.raises(ValueError, match="degree 5 not in"):
        local_lift(arr, 1, {(0, 5): (1,)}, 4)
    with pytest.raises(ValueError, match="dimension"):
        local_lift(arr, 1, {(0, 2): (1, 0)}, 4)
    # degree 2 corrections must sum to zero when 2 <= n - 2
    with pytest.raises(ValueError, match="must sum to zero"):
        local_lift(arr, 1, {(0, 2): (1,)}, 4)
    # at n = 3 the top degree is free, so the same data is fine
    assert local_lift(arr, 1, {(0, 2): (1,)}, 3).n == 3


def test_local_lift_reads_each_coordinate_as_an_integer():
    # floats, strings, bools and non-integral Fractions are refused, not
    # truncated or parsed; an integral Fraction is its integer
    arr = near_pencil(4)
    for v in (1.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            local_lift(arr, 0, {(0, 3): [v, 0]}, 4)
    with pytest.raises(ValueError, match="non-integer coefficient 3/2"):
        local_lift(arr, 0, {(0, 3): [0, Fraction(3, 2)]}, 4)
    assert local_lift(arr, 0, {(0, 3): [Fraction(4, 2), 0]}, 4).corrections \
        == {(0, 3): {0: 2}}


def test_zero_local_lifts_cover_all_flats():
    arr = near_pencil(4)
    lifts = zero_local_lifts(arr, 4)
    assert [l.flat.index for l in lifts] == [0, 1, 2, 3]
    assert all(not l.corrections for l in lifts)


# ---------------------------------------------------------------------------
# assembly and localization

def test_zero_lifts_assemble_and_localize_back():
    arr = braid(4)
    glift = assemble_global_lift(zero_local_lifts(arr, 4), arr, 4)
    back = localize_global_lift(arr, glift)
    assert all(not l.corrections for l in back)
    assert all(not any(v) for v in glift.delta.values())


def test_braid4_valid_locals_can_fail_to_assemble():
    arr = braid(4)
    lifts = zero_local_lifts(arr, 4)
    lifts[1] = local_lift(arr, 1, {(0, 2): (1,), (2, 2): (-1,)}, 4)
    with pytest.raises(ValueError) as err:
        assemble_global_lift(lifts, arr, 4)
    assert str(err.value) == (
        "corrections do not assemble to an endomorphism: the relator of atom "
        "'H12' on flat 0 (0, 1, 3) has a nonzero degree 3 component "
        "[0, 0, 0, 0, 0, 0, 0, -1, 0, 0]")


def test_assemble_requires_exactly_one_lift_per_flat():
    arr = near_pencil(4)
    lifts = zero_local_lifts(arr, 4)
    with pytest.raises(ValueError, match="missing flat"):
        assemble_global_lift(lifts[:-1], arr, 4)
    with pytest.raises(ValueError, match="two local lifts"):
        assemble_global_lift(lifts + [lifts[0]], arr, 4)


def test_assemble_refuses_bad_hand_built_corrections():
    # a LocalLift built by hand is re-checked entry by entry: a negative
    # index, an index past the end, a float, a bool and a dense tuple are
    # refused, not read as another coordinate or value
    arr = near_pencil(4)
    flat = arr.flats[0]
    for vec in ({-1: 1}, {2: 1}, {0: 1.0}, {0: True}, (0, 1)):
        lifts = zero_local_lifts(arr, 4)
        lifts[0] = decomp.LocalLift(flat=flat, n=4, corrections={(0, 3): vec})
        with pytest.raises(ValueError, match=r"sparse integer coordinates "
                           r"\{i: c\} with 0 <= i < 2, got"):
            assemble_global_lift(lifts, arr, 4)
    lifts = zero_local_lifts(arr, 4)
    lifts[0] = decomp.LocalLift(flat=flat, n=4,
                                corrections={(0, 3): {1: 1}})
    assert assemble_global_lift(lifts, arr, 4).corrections \
        == local_lift(arr, 0, {(0, 3): (0, 1)}, 4).corrections


def test_near_pencil_corrections_round_trip():
    arr = near_pencil(4)
    corr = {(0, 2): (1,), (2, 2): (-1,), (1, 3): (0, 1)}
    lifts = zero_local_lifts(arr, 4)
    lifts[0] = local_lift(arr, 0, corr, 4)
    glift = assemble_global_lift(lifts, arr, 4)
    back = localize_global_lift(arr, glift)
    assert back[0].corrections == lifts[0].corrections
    for i in (1, 2, 3):
        assert not back[i].corrections


def test_relator_basis_drops_the_top_atom_per_flat():
    from arrlie import betti
    arr = near_pencil(4)
    basis = relator_basis(arr)
    assert basis == [(0, 0), (1, 0), (0, 1), (1, 2), (2, 3)]
    assert len(basis) == betti(arr).b2
    arrb = braid(4)
    assert len(relator_basis(arrb)) == betti(arrb).b2 == 11


def test_lift_h2_matrix_blocks():
    arr = near_pencil(4)
    corr = {(0, 2): (1,), (2, 2): (-1,), (1, 3): (0, 1)}
    lifts = zero_local_lifts(arr, 4)
    lifts[0] = local_lift(arr, 0, corr, 4)
    glift = assemble_global_lift(lifts, arr, 4)
    ch = Charts(arr, 4)
    top = ch.alg.dim(4)
    mat = lift_h2_matrix(arr, glift, top)
    b2 = len(relator_basis(arr))
    assert len(mat) == top + b2
    assert [row for row in mat[top:]] == exactla.identity(b2)
    for j, key in enumerate(relator_basis(arr)):
        assert [mat[i][j] for i in range(top)] == dense(ch.alg.quotient(4),
                                                         glift.delta[key])


# ---------------------------------------------------------------------------
# charts: embeddings and restrictions between local and global algebras

def embed_matrix(ch, f, d):
    return letter_matrix(ch.local_alg[f.index], ch.alg, f.members, d)


def restrict_matrix(ch, f, d):
    return letter_matrix(ch.alg, ch.local_alg[f.index],
                         ch.restriction[f.index], d)


def test_restrict_after_embed_is_the_identity():
    for arr in (braid(4), near_pencil(5)):
        ch = Charts(arr, 4)
        for f in arr.flats:
            for d in (1, 2, 3, 4):
                prod = exactla.mat_mul(restrict_matrix(ch, f, d),
                                       embed_matrix(ch, f, d))
                assert prod == exactla.identity(ch.local_alg[f.index].dim(d))


def test_foreign_embeddings_restrict_to_zero():
    # two flats share at most one atom, and no Lyndon word of degree >= 2
    # uses a single letter
    for arr in (braid(4), near_pencil(5)):
        ch = Charts(arr, 4)
        for f in arr.flats:
            for g in arr.flats:
                if g.index != f.index:
                    for d in (2, 3, 4):
                        prod = exactla.mat_mul(restrict_matrix(ch, g, d),
                                               embed_matrix(ch, f, d))
                        assert is_zero(prod)


def test_charts_share_one_local_algebra_per_pencil(monkeypatch):
    # a local arrangement is one pencil on its members, so flats of the
    # same multiplicity share one view, localized once, with the ranks of
    # the word rows
    calls = []

    def counted(arr, flat_index):
        calls.append(flat_index)
        return localize(arr, flat_index)

    monkeypatch.setattr(decomp, "localize", counted)
    for arr, distinct in ((near_pencil(5), 2), (braid(4), 2), (pencil(4), 1)):
        calls.clear()
        ch = Charts(arr, 4)
        assert len(calls) == distinct
        assert len({id(a) for a in ch.local_alg}) == distinct
        assert len({id(a._tower) for a in ch.local_alg}) == distinct
        for f in arr.flats:
            first = next(g for g in arr.flats if g.mu == f.mu)
            assert ch.local_alg[f.index] is ch.local_alg[first.index]
        for f, loc in zip(arr.flats, ch.local_alg):
            assert loc.alphabet == len(f.members)
            assert ([(loc.rank(d), loc.torsion(d)) for d in range(1, 5)]
                    == word_row_degrees(localize(arr, f.index), 4))


def test_restriction_stack_dimensions():
    # one row block per flat, as high as the flat's local degree-3 piece
    for arr, dims in ((braid(4), [2, 2, 0, 2, 0, 0, 2]), (pencil(3), [2])):
        ch = Charts(arr, 3)
        assert [ch.local_alg[f.index].dim(3) for f in arr.flats] == dims
        assert len(restriction_stack(arr, 3, charts=ch)) == sum(dims)


# ---------------------------------------------------------------------------
# letter matrices and relabeling

def test_letter_matrix_permutation_order_three():
    ch = Charts(pencil(3), 4)
    perm = [1, 2, 0]
    for d in (1, 2, 3, 4):
        m = letter_matrix(ch.alg, ch.alg, perm, d)
        cube = exactla.mat_mul(m, exactla.mat_mul(m, m))
        assert cube == exactla.identity(len(m))
    for bad in ([0, 0, 1], [0, None, 0], [0, 1, 3], [0, 1, -1], [0, 1]):
        with pytest.raises(ValueError, match="letter map"):
            letter_matrix(ch.alg, ch.alg, bad, 2)
    # a deleted letter is allowed: x_2 -> 0 drops the third coordinate
    sub = HolonomyAlgebra(generic(2), max_degree=2)
    assert letter_matrix(ch.alg, sub, [0, 1, None], 1) == [[1, 0, 0], [0, 1, 0]]


def _largest_flat_cycle(arr):
    """An automorphism of arr: cycle the members of a largest flat."""
    big = max(arr.flats, key=lambda f: f.mu).members
    perm = list(range(arr.n_atoms))
    for a, b in zip(big, big[1:] + big[:1]):
        perm[a] = b
    return perm


def test_warm_renaming_images_match_a_cold_run(monkeypatch):
    # every renaming the verifier makes on the decomposable catalog at
    # n = 4 and 5; each run is repeated, so the repeat reads a warm memo
    # (letter_matrix writes its columns out through rename, so g_n and rho
    # are recorded too).  The coverage floor counts renamings into a
    # nonzero target: the localization square skips a flat whose local
    # algebra is 0 in degree n, and 28 renamings on 6448 calls reach a
    # nonzero one, with or without that skip.
    real, calls = decomp.rename, []

    def recording(src, dst, letters, d, x):
        y = real(src, dst, letters, d, x)
        calls.append((src, dst, tuple(letters), d, x, y))
        return y

    lifts = []
    real_lift = exactla.QuotientLattice.lift
    monkeypatch.setattr(decomp, "rename", recording)
    holonomy._tower.cache_clear()
    try:
        for _name, arr in standard_catalog():
            if not is_decomposable(arr)["decomposable"]:
                continue
            perm = _largest_flat_cycle(arr)
            for n in (4, 5):
                assert verify_decomposable_iso(arr, arr, perm, n=n)["pass"]
            # the repeat lifts no class again: every definition is kept
            monkeypatch.setattr(exactla.QuotientLattice, "lift",
                                lambda q, c: lifts.append(c) or real_lift(q, c))
            for n in (4, 5):
                assert verify_decomposable_iso(arr, arr, perm, n=n)["pass"]
            monkeypatch.setattr(exactla.QuotientLattice, "lift", real_lift)
        assert not lifts
        monkeypatch.undo()
        cold, live, live_keys = {}, 0, set()
        for src, dst, letters, d, x, y in calls:
            images = src._tower.images[dst._tower.key, letters]
            assert all((d, j) in images for j, c in x.items() if c)
            key = (src._tower.key, src.max_degree, dst._tower.key,
                   dst.max_degree, letters, d)
            if key not in cold:
                holonomy._tower.cache_clear()
                mat = letter_matrix(HolonomyAlgebra(src.relset, src.max_degree),
                                    HolonomyAlgebra(dst.relset, dst.max_degree),
                                    list(letters), d)
                cold[key] = [[row[j] for row in mat] for j in range(src.dim(d))]
            want = [0] * dst.dim(d)
            for j, c in x.items():
                want = [w + c * v for w, v in zip(want, cold[key][j])]
            assert y == dst.quotient(d).reduce(sparse(want))
            if dst.dim(d):
                live += 1
                live_keys.add(key)
        assert live >= 6448 and len(live_keys) >= 28
    finally:
        holonomy._tower.cache_clear()


def test_a_renaming_memo_keeps_each_views_degree_bound():
    arr = near_pencil(5)
    fi = max(arr.flats, key=lambda f: f.mu).index
    members = arr.flats[fi].members
    pos = {a: i for i, a in enumerate(members)}
    letters = [pos.get(a) for a in range(arr.n_atoms)]
    glob5 = HolonomyAlgebra(arr, max_degree=5)
    loc5 = HolonomyAlgebra(localize(arr, fi), max_degree=5)
    full = [letter_matrix(glob5, loc5, letters, d) for d in (3, 4, 5)]
    back = [letter_matrix(loc5, glob5, members, d) for d in (3, 4, 5)]
    glob3 = HolonomyAlgebra(arr, max_degree=3)
    loc3 = HolonomyAlgebra(localize(arr, fi), max_degree=3)
    assert glob3._tower is glob5._tower and loc3._tower is loc5._tower
    for src, dst, lets in ((glob3, loc5, letters), (glob5, loc3, letters),
                           (loc3, glob5, members), (loc5, glob3, members)):
        with pytest.raises(ValueError, match="degree 4 outside 1..3"):
            letter_matrix(src, dst, lets, 4)
    assert letter_matrix(glob3, loc3, letters, 3) == full[0]
    assert letter_matrix(loc3, glob3, members, 3) == back[0]
    assert [letter_matrix(glob5, loc5, letters, d) for d in (3, 4, 5)] == full


def test_iso_h2_matrix_is_invertible():
    arr = pencil(3)
    iso = lattice_iso(arr, arr, {"H1": "H2", "H2": "H3", "H3": "H1"})
    g2 = iso_h2_matrix(arr, arr, iso)
    assert len(g2) == 2 and abs(det_int(g2)) == 1
    cube = exactla.mat_mul(g2, exactla.mat_mul(g2, g2))
    assert cube == exactla.identity(2)


# ---------------------------------------------------------------------------
# lattice isomorphisms

def test_lattice_iso_formats_and_validation():
    arr = near_pencil(4)
    by_list = lattice_iso(arr, arr, [1, 2, 0, 3])
    by_dict = lattice_iso(arr, arr, {"H1": "H2", "H2": "H3", "H3": "H1",
                                     "H4": "H4"})
    assert by_list == by_dict
    assert by_list.flat_map[0] == 0
    with pytest.raises(ValueError, match="not a bijection"):
        lattice_iso(arr, arr, [0, 0, 1, 2])
    with pytest.raises(ValueError, match="atom counts differ"):
        lattice_iso(arr, pencil(3), [0, 1, 2])
    with pytest.raises(ValueError, match="lists 3 images"):
        lattice_iso(arr, arr, [0, 1, 2])
    with pytest.raises(ValueError, match="pencil not preserved"):
        lattice_iso(near_pencil(4), near_pencil(4), [3, 1, 2, 0])


def test_lattice_iso_refuses_images_that_are_not_names_or_ints():
    # a float was truncated and a bool read as 0 or 1: [1.9, False, 2, 3.2]
    # gave the atom map (1, 0, 2, 3)
    arr = near_pencil(4)
    for mapping in ([1.9, False, 2, 3.2], [True, 2, 0, 3], ["H2", 2.0, 0, 3],
                    {True: 0, 0: 1, 2: 2, 3: 3}, {0: 1, 1: 0, 2: 2.0, 3: 3}):
        with pytest.raises(ValueError, match="neither a name nor an int"):
            lattice_iso(arr, arr, mapping)


def test_lattice_iso_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="pencil not preserved"):
        lattice_iso(generic(3), pencil(3), [0, 1, 2])


# ---------------------------------------------------------------------------
# the diagram checker on hand-built instances

def test_check_diagram_passes_on_consistent_data():
    inst = diagram_instance(g2=[[1, 0], [0, 1]],
                            la_star=[[1, 2], [0, 1]],
                            lb_star=[[1, 2], [0, 1]],
                            sigma=[[1, 0]])
    rep = check_diagram(inst)
    assert rep == {"pass": True, "ring": "z", "failed": None, "witness": None,
                   "identity1": True, "identity2": True}


def test_check_diagram_reports_identity1_failure():
    inst = diagram_instance(g2=[[1]], la_star=[[1], [0]], lb_star=[[1], [1]],
                            sigma=[[1, 0]])
    rep = check_diagram(inst)
    assert not rep["pass"] and rep["failed"] == 1
    assert rep["identity2"] is None
    assert rep["witness"] == {"identity": 1, "column": 0,
                              "lhs": [1, 1], "rhs": [1, 0]}


def test_identity_one_implies_identity_two_with_a_single_sigma():
    # with one splitting on both legs, sigma.la = sigma.lb.g2 follows from
    # lb.g2 = la; the second identity can only fail for a perturbed sigma
    import random
    rng = random.Random(17)
    for _ in range(10):
        g2 = [[1, rng.randint(-2, 2)], [0, -1]]
        lb = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
        la = exactla.mat_mul(lb, g2)
        sigma = [[rng.randint(-2, 2) for _ in range(3)]]
        rep = check_diagram(diagram_instance(g2, la, lb, sigma))
        assert rep["pass"] and rep["identity1"] and rep["identity2"]


def test_check_diagram_applies_each_legs_own_sigma():
    g2, la, lb = [[1]], [[1], [2]], [[1], [2]]
    inst = diagram_instance(g2, la, lb, sigma=[[1, 0]], sigma_a=[[1, 1]])
    assert (inst.sigma_a, inst.sigma_b) == (((1, 1),), ((1, 0),))
    rep = check_diagram(inst)
    assert rep["failed"] == 2 and rep["identity1"] and not rep["identity2"]
    assert rep["witness"] == {"identity": 2, "column": 0,
                              "lhs": [3], "rhs": [1]}
    assert check_diagram(diagram_instance(g2, la, lb, [[1, 0]],
                                          sigma_a=[[1, 0]]))["pass"]
    with pytest.raises(ValueError, match="sigma_a has 2 rows, sigma_b 1"):
        check_diagram(diagram_instance(g2, la, lb, [[1, 0]],
                                       sigma_a=[[1, 0], [0, 1]]))


def test_check_diagram_ring_sensitivity_of_g2():
    # an int and a Fraction entry decide alike: each is read in the ring
    base = dict(la_star=[[4], [2]], lb_star=[[2], [1]], sigma=[[1, 0]])
    for g2 in ([[2]], [[Fraction(2)]]):
        for ring in (rings.Z, rings.fp(2)):
            inst = diagram_instance(g2=g2, ring=ring, **base)
            with pytest.raises(ValueError, match="not invertible"):
                check_diagram(inst)
        for ring in (rings.Q, rings.fp(3)):
            rep = check_diagram(diagram_instance(g2=g2, ring=ring, **base))
            assert rep["pass"] and rep["ring"] == rings.name(ring)
    with pytest.raises(ValueError, match="non-integer coefficient"):
        check_diagram(diagram_instance(g2=[[Fraction(1, 2)]], **base))
    # a float or a string is no matrix entry, in any ring
    for g2 in ([[1.5]], [["1"]], [[2.0]]):
        for ring in (rings.Z, rings.Q, rings.fp(3)):
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                check_diagram(diagram_instance(g2=g2, ring=ring, **base))


def test_check_diagram_reads_every_matrix_into_its_ring():
    # la_star, lb_star and both splittings are read like g2 (rings.coeff)
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        check_diagram(diagram_instance(g2=[[1]], la_star=[[0.5], [1]],
                                       lb_star=[[0.5], [1]], sigma=[[1, 0]]))
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        check_diagram(diagram_instance(g2=[[1]], la_star=[[1.0], [1]],
                                       lb_star=[[1], [1]], sigma=[[1, 0]],
                                       ring=rings.fp(2)))
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        check_diagram(diagram_instance(g2=[[1]], la_star=[["1"], [1]],
                                       lb_star=[[1], [1]], sigma=[[1, 0]]))
    for key in ("sigma", "sigma_a"):
        base = dict(g2=[[1]], la_star=[[1], [1]], lb_star=[[1], [1]],
                    sigma=[[1, 0]])
        base[key] = [[1.5, 0]]
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            check_diagram(diagram_instance(**base))
    # a non-integral Fraction is refused over Z, and over F_3 it is read as
    # its residue: 1/2 = 2 and 3/2 = 0, so lb g2 = la holds there
    with pytest.raises(ValueError, match="non-integer coefficient"):
        check_diagram(diagram_instance(g2=[[1]], la_star=[[Fraction(1, 2)]],
                                       lb_star=[[1]], sigma=[[1]]))
    rep = check_diagram(diagram_instance(
        g2=[[1]], la_star=[[Fraction(1, 2)], [Fraction(3, 2)]],
        lb_star=[[2], [3]], sigma=[[1, 0]], ring=rings.fp(3)))
    assert rep["pass"] and rep["identity2"]


def test_check_diagram_identity_two_follows_from_identity_one():
    # With one splitting on both legs, identity 2 is sigma applied to
    # identity 1, so every sigma passes once lb g2 = la.  The verifier's
    # sigma perturbation, sigma_a = sigma - e_{0,g}, changes the A side of
    # identity 2 by row g of la, which is g2's first row.
    rng = random.Random(25)
    for ring in (rings.Z, rings.Q, rings.fp(2), rings.fp(5)):
        for _ in range(12):
            b2, g = rng.randint(1, 5), rng.randint(1, 4)
            perm = rng.sample(range(b2), b2)
            g2 = [[rng.choice((1, -1)) if j == perm[i] else 0
                   for j in range(b2)] for i in range(b2)]
            lb = ([[rng.randint(-3, 3) for _ in range(b2)] for _ in range(g)]
                  + exactla.identity(b2))
            la = exactla.mat_mul(lb, g2)
            if ring == rings.Q:
                sigma = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(g + b2)] for _ in range(g)]
            else:
                sigma = [[rng.randint(-3, 3) for _ in range(g + b2)]
                         for _ in range(g)]
            rep = check_diagram(diagram_instance(g2, la, lb, sigma, ring))
            assert rep["pass"] and rep["identity2"], (ring, g2, lb, sigma)
            sigma_a = [list(r) for r in sigma]
            sigma_a[0][g] -= 1
            rep = check_diagram(diagram_instance(g2, la, lb, sigma, ring,
                                                 sigma_a=sigma_a))
            assert not rep["pass"] and rep["failed"] == 2 and rep["identity1"]
            w = rep["witness"]
            assert w["identity"] == 2 and w["column"] == perm[0]
            assert w["lhs"][0] - w["rhs"][0] == -g2[0][perm[0]]


def test_sparse_invertibility_matches_the_determinant():
    # square integer matrices whose determinant is 1, 2, 3, 6 or 0, against
    # det_int: a unit over Z, nonzero over Q, prime to p over F_p
    ring_list = (rings.Z, rings.Q, rings.fp(2), rings.fp(3), rings.fp(5))
    seen = {ring: set() for ring in ring_list}
    for m, _built in known_determinant_matrices():
        det = det_int(m)
        for ring in ring_list:
            p = rings.char(ring)
            want = (det in (1, -1) if ring == rings.Z
                    else det % p != 0 if p else det != 0)
            assert _invertible(m, ring) == want, (m, ring)
            seen[ring].add(want)
    assert all(v == {True, False} for v in seen.values())
    # entries that are not ints are read into the ring; over Q a row of
    # fractions is scaled to integers by the lcm of its denominators
    assert _invertible([[Fraction(1, 2), 0], [0, 1]], rings.Q)
    assert not _invertible([[Fraction(1, 2), 1], [1, 2]], rings.Q)
    assert _invertible([[Fraction(-1), 0], [0, 1]], rings.Z)
    assert _invertible([[Fraction(1, 2), 0], [0, 1]], rings.fp(3))
    assert not _invertible([[Fraction(3, 2)]], rings.fp(3))
    assert not _invertible([[1, 2]], rings.Z) and _invertible([], rings.Z)
    # a float or a string is refused, not truncated or parsed
    for ring in (rings.Z, rings.Q, rings.fp(3)):
        for v in (1.5, "3", 2.0, True):
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                rings.coeff(ring, v)
        for m in ([[1.5]], [["1"]], [[1, 0], [0, 1.0]]):
            with pytest.raises(ValueError, match="not an int or a Fraction"):
                _invertible(m, ring)


def test_check_diagram_mod_p_identities():
    # columns agree mod 2 but not over Z
    inst = diagram_instance(g2=[[1]], la_star=[[3], [0]], lb_star=[[1], [0]],
                            sigma=[[1, 0]], ring=rings.fp(2))
    assert check_diagram(inst)["pass"]
    inst = diagram_instance(g2=[[1]], la_star=[[3], [0]], lb_star=[[1], [0]],
                            sigma=[[1, 0]], ring=rings.Z)
    assert check_diagram(inst)["failed"] == 1


def test_check_diagram_shape_errors():
    with pytest.raises(TypeError):
        check_diagram({"g2": [[1]]})
    with pytest.raises(ValueError, match="la_star has 2 rows, lb_star 1"):
        check_diagram(diagram_instance([[1]], [[1], [0]], [[1]], [[1, 0]]))
    with pytest.raises(ValueError, match="sigma must have 2 columns"):
        check_diagram(diagram_instance([[1]], [[1], [0]], [[1], [0]], [[1]]))
    with pytest.raises(ValueError, match="g2 must be"):
        check_diagram(diagram_instance([[1, 0]], [[1], [0]], [[1], [0]],
                                       [[1, 0]]))


# ---------------------------------------------------------------------------
# the end-to-end verifier

CYCLE3 = {"H1": "H2", "H2": "H3", "H3": "H1"}
P3_CORR = {0: {(0, 2): (1,), (1, 2): (-1,), (0, 3): (1, 0)}}


def test_verify_pencil3_cycle_zero_candidates():
    rep = verify_decomposable_iso(pencil(3), pencil(3), CYCLE3, n=4)
    assert rep["pass"] and rep["candidates"] == "zero"
    assert rep["check"]["failed"] is None
    assert rep["basis"]["grn_dim"] == 3 and rep["basis"]["grn_torsion"] == []
    assert rep["matrices"]["sigma"] == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                        [0, 0, 1, 0, 0]]
    assert rep["iso"]["atoms"] == CYCLE3
    assert all(not any(r) for r in rep["matrices"]["delta_b"])


@pytest.mark.parametrize("ring", [rings.Z, rings.Q, rings.fp(2)])
def test_verify_pencil3_with_transported_corrections(ring):
    rep = verify_decomposable_iso(pencil(3), pencil(3), CYCLE3, n=4,
                                  ring=ring, corrections=P3_CORR)
    assert rep["pass"] and rep["candidates"] == "transported"
    assert rep["ring"] == rings.name(ring)
    assert any(any(r) for r in rep["matrices"]["delta_b"])


def test_verify_generic4_any_permutation():
    arr = generic(4)
    for perm in ([1, 2, 3, 0], [3, 2, 1, 0], [0, 1, 2, 3]):
        rep = verify_decomposable_iso(arr, arr, perm, n=4)
        assert rep["pass"]
        assert rep["basis"]["grn_dim"] == 0
        assert rep["matrices"]["sigma"] == []


def test_verify_near_pencil4_with_corrections():
    corr = {0: {(0, 2): (1,), (2, 2): (-1,), (1, 3): (0, 1)}}
    rep = verify_decomposable_iso(near_pencil(4), near_pencil(4), [1, 2, 0, 3],
                                  n=4, corrections=corr)
    assert rep["pass"]


def test_verify_at_degree_three():
    rep = verify_decomposable_iso(pencil(3), pencil(3), CYCLE3, n=3)
    assert rep["pass"] and rep["degree"] == 3
    assert rep["basis"]["grn_dim"] == 2


def test_verify_sigma_perturbation_fails_identity_two():
    rep = verify_decomposable_iso(pencil(3), pencil(3), CYCLE3, n=4,
                                  corrections=P3_CORR, perturb="sigma")
    assert not rep["pass"]
    assert rep["check"]["failed"] == 2
    w = rep["check"]["witness"]
    assert w["identity"] == 2 and w["lhs"] != w["rhs"]
    assert rep["perturb"] == {"kind": "sigma"}


def test_verify_lift_perturbation_fails_identity_one():
    rep = verify_decomposable_iso(pencil(3), pencil(3), CYCLE3, n=4,
                                  perturb="lift")
    assert not rep["pass"]
    assert rep["check"]["failed"] == 1
    assert rep["check"]["witness"]["identity"] == 1


def test_verify_rejects_indecomposable_input():
    with pytest.raises(ValueError, match="not decomposable"):
        verify_decomposable_iso(braid(4), braid(4), list(range(6)), n=4)
    with pytest.raises(ValueError, match="starts at degree 3"):
        verify_decomposable_iso(pencil(3), pencil(3), CYCLE3, n=2)


def test_verify_perturb_is_a_kind_name():
    for bad in ({"kind": "sigma"}, "flat"):
        with pytest.raises(ValueError, match="perturb kind"):
            verify_decomposable_iso(pencil(3), pencil(3), CYCLE3, n=3,
                                    perturb=bad)


def two_triples():
    """Atoms a..e with triple points abc and ade, the other pairs double
    points: two flats with nonzero local algebras from degree 2 on."""
    return Arrangement("abcde", pencils=[(0, 1, 2), (0, 3, 4), (1, 3), (1, 4),
                                         (2, 3), (2, 4)])


# corrections on both triple points by level n: zero-sum below the top
# degree n-1, and one top-degree correction per triple point, so the
# degree-n relator components are not all 0
TT_CORR = {
    4: {0: {("a", 2): (1,), ("b", 2): (-1,), ("a", 3): (1, 0)},
        1: {("d", 2): (1,), ("e", 2): (-1,), ("e", 3): (0, 1)}},
    5: {0: {("a", 2): (1,), ("b", 2): (-1,), ("a", 3): (1, 0),
            ("c", 3): (-1, 0), ("b", 4): (1, 0, 0)},
        1: {("d", 2): (1,), ("e", 2): (-1,), ("e", 3): (0, 1),
            ("d", 3): (0, -1), ("e", 4): (0, 0, 1)}}}


def tt_lifts(arr, n):
    return [local_lift(arr, f.index, TT_CORR[n].get(f.index, {}), n)
            for f in arr.flats]


def test_two_triple_points_are_decomposable_and_share_one_local_view():
    arr = two_triples()
    rep = is_decomposable(arr)
    assert rep["decomposable"] and rep["r_global"] == rep["r_local"] == 4
    for n in (4, 5):
        ch = Charts(arr, n)
        assert ch.local_alg[0] is ch.local_alg[1]
        assert ch.local_alg[2] is ch.local_alg[5] is not ch.local_alg[0]
        # the square's off-diagonal blocks: every relator column of the
        # other triple point, nonzero, restricts to 0 on this one
        lifts = tt_lifts(arr, n)
        glift = assemble_global_lift(lifts, arr, n, charts=ch)
        for f, g in ((0, 1), (1, 0)):
            assert any(glift.delta[h, g] for h in arr.flats[g].members)
            for h in arr.flats[g].members:
                assert not rename(ch.alg, ch.local_alg[f], ch.restriction[f],
                                  n, glift.delta[h, g])
        assert [l.corrections for l in localize_global_lift(arr, glift, ch)] \
            == [l.corrections for l in lifts]


@pytest.mark.parametrize("iso", [[0, 2, 1, 4, 3], [0, 3, 4, 1, 2]])
@pytest.mark.parametrize("n", [4, 5])
def test_verify_two_triple_points_with_corrections_on_both(iso, n):
    # [0, 2, 1, 4, 3] fixes both triple points, [0, 3, 4, 1, 2] swaps them
    arr = two_triples()
    for ring in (rings.Z, rings.fp(2)):
        rep = verify_decomposable_iso(arr, arr, iso, n=n, ring=ring,
                                      corrections=TT_CORR[n])
        assert rep["pass"] and rep["candidates"] == "transported"
        assert any(any(r) for r in rep["matrices"]["delta_b"])
        for perturb, failed in (("lift", 1), ("sigma", 2)):
            rep = verify_decomposable_iso(arr, arr, iso, n=n, ring=ring,
                                          corrections=TT_CORR[n],
                                          perturb=perturb)
            assert not rep["pass"] and rep["check"]["failed"] == failed


def test_assemble_runs_the_round_trip_on_every_lift(monkeypatch):
    # a localization that loses a correction is caught by the assembly
    # itself, on whichever side of the verifier the lift is
    arr = two_triples()
    lifts = tt_lifts(arr, 4)
    real = decomp.localize_global_lift

    def lossy(*args, **kwargs):
        out = real(*args, **kwargs)
        corr = dict(out[1].corrections)
        del corr[min(corr)]
        out[1] = decomp.LocalLift(flat=out[1].flat, n=out[1].n,
                                  corrections=corr)
        return out

    monkeypatch.setattr(decomp, "localize_global_lift", lossy)
    with pytest.raises(RuntimeError, match=r"^localizing the assembled lift "
                       r"did not return the local corrections on flat 1$"):
        assemble_global_lift(lifts, arr, 4)
    with pytest.raises(RuntimeError, match="on flat 1"):
        verify_decomposable_iso(arr, arr, [0, 3, 4, 1, 2], n=4,
                                corrections=TT_CORR[4])


# ---------------------------------------------------------------------------
# brackets, renamings and relator components in quotient coordinates
# against the Lyndon-basis path: classes are expanded into tensor
# polynomials (lie_reference.element), taken to the Lyndon basis by
# rewriting (tensor_to_lyndon), bracketed or renamed there, and read back
# (lie_reference.coords)

def lyndon_lift(alg, d, c):
    """Lyndon-basis coordinates of the polynomial of a class."""
    return tensor_to_lyndon(element(alg, d, c), alg.alphabet, d)


def expand_lyndon(k, d, coeffs, rename=lambda t: t):
    poly = {}
    trees = lyndon_basis(k, d).trees
    for i, v in coeffs.items():
        for w, c in expand_tree(rename(trees[i])).items():
            poly[w] = poly.get(w, 0) + v * c
    return poly


def old_bracket_coords(alg, d1, c1, d2, c2):
    """Bracket through LieElement and freelie.bracket's rewriting."""
    a, b = (LieElement(alg.alphabet, d, lyndon_lift(alg, d, c))
            for d, c in ((d1, c1), (d2, c2)))
    d = d1 + d2
    return coords(alg, d, expand_lyndon(alg.alphabet, d, bracket(a, b).coeffs))


def old_letter_matrix(src, dst, letters, d):
    """Renaming through the bracketing tree of each Lyndon basis element."""
    def rename(t):
        return letters[t] if isinstance(t, int) else (rename(t[0]), rename(t[1]))
    words = lyndon_basis(src.alphabet, d).words
    cols = []
    for e in exactla.identity(src.dim(d)):
        kept = {i: v for i, v in lyndon_lift(src, d, e).items()
                if None not in [letters[a] for a in words[i]]}
        cols.append(coords(dst, d, expand_lyndon(src.alphabet, d, kept, rename)))
    return [[col[i] for col in cols] for i in range(dst.dim(d))]


def old_relator_component(alg, corrections, h, members, m):
    """Coordinate brackets per degree pair, summed and reduced."""
    def phi(a, i):
        return exactla.identity(alg.alphabet)[a] if i == 1 else corrections.get((a, i))
    total = [0] * alg.dim(m)
    for i in range(1, m):
        u = phi(h, i)
        if u is None:
            continue
        c = [0] * alg.dim(m - i)
        for kk in members:
            c = [x + y for x, y in zip(c, phi(kk, m - i) or [0] * len(c))]
        if any(c):
            b = old_bracket_coords(alg, i, u, m - i, c)
            total = [x + y for x, y in zip(total, b)]
    return dense_reduce(alg.quotient(m), total)


def equivalence_sources():
    out = [("xxyXXY", make_presentation(2, ["xxyXXY"])),
           ("xxxyXXXY", make_presentation(2, ["xxxyXXXY"]))]
    out += [("cp%d" % i, p)
            for i, p in enumerate(commutator_presentations(2, 10))]
    return out + [("near_pencil(5)", near_pencil(5)), ("pencil(4)", pencil(4)),
                  ("braid(4)", braid(4))]


@pytest.mark.parametrize("name,source", equivalence_sources(),
                         ids=[name for name, _ in equivalence_sources()])
def test_tensor_path_matches_the_lyndon_basis_path(name, source):
    top = 5 if name in ("near_pencil(5)", "pencil(4)") else 4
    alg = HolonomyAlgebra(source, max_degree=top)
    rng = random.Random(name)
    k = alg.alphabet
    for d1 in range(1, top):
        for d2 in range(1, top - d1 + 1):
            units = [(u, v) for u in exactla.identity(alg.dim(d1))
                     for v in exactla.identity(alg.dim(d2))]
            for u, v in units + [([rng.randint(-3, 3) for _ in range(alg.dim(d1))],
                                  [rng.randint(-3, 3) for _ in range(alg.dim(d2))])]:
                assert (bracket_coords(alg, d1, u, d2, v)
                        == old_bracket_coords(alg, d1, u, d2, v))
    seeded = {}
    for d in range(1, top + 1):
        c = seeded[d] = [rng.randint(-3, 3) for _ in range(alg.dim(d))]
        assert coords(alg, d, element(alg, d, c)) == dense_reduce(alg.quotient(d), c)
    # renamings: a permutation, then the same with one or two letters deleted
    perm = rng.sample(range(k), k)
    maps = [(alg, perm)] + [(alg, [None if a in gone else b for a, b in
                                   enumerate(perm)])
                            for gone in ({0}, {k - 1, 1})]
    if isinstance(source, Arrangement):
        ch = Charts(source, top)
        maps += [(ch.local_alg[f.index], [f.members.index(a) if a in f.members
                                          else None for a in range(k)])
                 for f in source.flats if len(f.members) > 2]
    # each renaming also maps the seeded class of every degree
    for dst, letters in maps:
        for d in range(1, top + 1):
            old = old_letter_matrix(alg, dst, letters, d)
            assert letter_matrix(alg, dst, letters, d) == old
            c = seeded[d]
            assert (rename(alg, dst, letters, d, sparse(c)) == dst.quotient(d).reduce(
                sparse([sum(a * b for a, b in zip(row, c)) for row in old])))
    # relator components of corrections summing to zero below top - 1
    flats = (source.flats if isinstance(source, Arrangement)
             else [Flat2(0, tuple(range(k)), k - 1)])
    for flat in flats:
        members = flat.members
        corr = {}
        for deg in range(2, top):
            total = [0] * alg.dim(deg)
            for h in members:
                vec = [rng.randint(-2, 2) for _ in range(alg.dim(deg))]
                if deg < top - 1 and h == members[-1]:
                    vec = [-t for t in total]
                total = [a + b for a, b in zip(total, vec)]
                corr[(h, deg)] = tuple(vec)
        sparse_corr = {key: sparse(vec) for key, vec in corr.items()}
        for m in range(3, top + 1):
            comps = relator_components(alg, [flat], sparse_corr, m)
            assert list(comps) == [(h, flat.index) for h in members]
            for h in members:
                assert (dense(alg.quotient(m), comps[(h, flat.index)])
                        == old_relator_component(alg, corr, h, members, m))


@pytest.mark.parametrize("arr,corr", [
    (pencil(3), P3_CORR[0]),
    (near_pencil(4), {(0, 2): (1,), (2, 2): (-1,), (1, 3): (0, 1)}),
], ids=["pencil(3)", "near_pencil(4)"])
def test_the_lift_keeps_its_top_relator_components(arr, corr):
    # glift.delta against the Lyndon-basis oracle on every relator, for
    # corrections on flat 0 that give nonzero degree-4 components
    lifts = zero_local_lifts(arr, 4)
    lifts[0] = local_lift(arr, 0, corr, 4)
    glift = assemble_global_lift(lifts, arr, 4)
    alg = HolonomyAlgebra(arr, max_degree=4)
    corrections = {key: dense(alg.quotient(key[1]), vec)
                   for key, vec in glift.corrections.items()}
    want = {(h, f.index): old_relator_component(
                alg, corrections, h, f.members, 4)
            for f in arr.flats for h in f.members}
    assert {key: dense(alg.quotient(4), vec)
            for key, vec in glift.delta.items()} == want
    assert any(any(v) for v in want.values())


def test_library_arguments_refuse_bools_and_floats():
    np4 = near_pencil(4)
    calls = [
        ("k 2.0", lambda: witt_rank(2.0, 3)),
        ("n True", lambda: witt_rank(2, True)),
        ("max_degree True", lambda: holonomy_graded(braid(3), True)),
        ("max_degree 3.0", lambda: holonomy_graded(braid(3), 3.0)),
        ("guard 1.5", lambda: HolonomyAlgebra(braid(3), 2, guard=1.5)),
        ("flat_index True", lambda: local_lift(np4, True, {}, 4)),
        ("max_degree 3.0", lambda: lcs_ranks_decomposable(pencil(3), 3.0)),
        ("max_degree 4.0",
         lambda: verify_decomposable_iso(np4, np4, [1, 2, 0, 3], n=4.0)),
        ("guard 1.5", lambda: is_decomposable(braid(4), guard=1.5)),
        ("e 2.5", lambda: grp.power(g, 2.5)),
        ("e True", lambda: grp.power(g, True)),
        ("k 2.5", lambda: pencil(2.5)),
        ("n 3.0", lambda: braid(3.0)),
        ("k 4.0", lambda: near_pencil(4.0)),
        ("k True", lambda: generic(True)),
        # the count h2_rank_check was given, not the degree it reads below
        ("n 3.0", lambda: h2_rank_check(braid(3), 3.0)),
    ]
    grp = Class2Group(np4)
    g = grp.generator(0)
    for what, call in calls:
        with pytest.raises(ValueError, match="^%s is not an int$" % re.escape(what)):
            call()
    with pytest.raises(ValueError, match="^k -2 is negative$"):
        witt_rank(-2, 2)
    assert grp.power(g, 2) == grp.multiply(g, g) and witt_rank(0, 1) == 0
