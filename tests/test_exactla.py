"""Exact linear algebra: Smith form, integer kernels, quotient lattices."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from arrlie import exactla, holonomy, rings
from arrlie.arrangement import Arrangement, braid, near_pencil
from lie_reference import copying_eliminate, det_int, is_zero, rank_sparse_pivots


def rand_mat(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def sparse_rows(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def det_brute(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


def det_divisors(mat):
    """Smith divisors from determinants alone: d_1...d_k = gcd of k x k minors."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, det_int([[mat[i][j] for j in cols]
                                         for i in rows]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_det_matches_permanent_expansion():
    rng = random.Random(5)
    for n in range(5):
        for _ in range(6):
            a = rand_mat(rng, n, n)
            assert det_int(a) == det_brute(a)
    assert det_int([]) == 1


def test_smith_normal_form_properties():
    rng = random.Random(6)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_mat(rng, m, n)
        divisors, u, uinv = exactla.smith_normal_form(a)
        assert abs(det_int(u)) == 1
        assert exactla.mat_mul(u, uinv) == exactla.identity(m)
        # U*A = D*V^-1: its rows past the divisors vanish
        assert is_zero(exactla.mat_mul(u, a)[len(divisors):])
        assert divisors == det_divisors(a)


def test_kernel_is_saturated_and_annihilates():
    # the saturated kernel of the rows is Hom(Z^n / rows, Z): the free
    # coordinates of the QuotientLattice by the rows, read as linear forms
    rng = random.Random(8)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = rand_mat(rng, m, n)
        q = exactla.QuotientLattice(n, sparse_rows(a))
        kern = exactla.columns_to_matrix([q.project({c: 1}) for c in range(n)], q.rank)
        rank = gauss_rank(sparse_rows(a), n)
        assert len(kern) == n - rank
        for v in kern:
            assert all(sum(a[i][j] * v[j] for j in range(n)) == 0 for i in range(m))
        if kern:
            # saturated: the kernel basis extends to a basis of Z^n
            assert det_divisors(kern) == [1] * len(kern)


def unimodular_matrix(rng, n):
    """A seeded product of elementary row operations, a row swap and a sign:
    determinant 1, or -1 when n = 1."""
    m = exactla.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.randint(-3, 3)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        m[i], m[j] = m[j], m[i]
    m[0] = [-a for a in m[0]]
    return m


def known_determinant_matrices():
    """120 seeded (m, det): m = U S V for two unimodular_matrix U, V of one
    size and S the identity with 1, 2, 3, 6 or 0 at its corner, so det(m)
    is that entry; half of the singular ones have a row that is a
    combination of two others."""
    rng = random.Random(14)
    for trial in range(120):
        n = rng.randint(1, 7)
        scale = exactla.identity(n)
        det = scale[0][0] = (1, 2, 3, 6, 0)[trial % 5]
        m = exactla.mat_mul(exactla.mat_mul(unimodular_matrix(rng, n), scale),
                            unimodular_matrix(rng, n))
        if det == 0 and n > 1 and trial % 2:
            i, j, k = (rng.sample(range(n), 3) if n > 2 else (0, 1, 1))
            m[i] = [2 * a - b for a, b in zip(m[j], m[k])]
        yield m, det


def test_det_gives_the_determinant_a_matrix_was_built_with(monkeypatch):
    # fraction-free elimination against the construction and det_int; and
    # is_unimodular, which decides its residual block by _det, against it
    real, blocks = exactla._det, []

    def recording(a):
        blocks.append(len(a))
        return real(a)

    monkeypatch.setattr(exactla, "_det", recording)
    reached = 0
    for m, det in known_determinant_matrices():
        assert real([row[:] for row in m]) == det == det_int(m)
        blocks.clear()
        assert exactla.is_unimodular(sparse_rows(m), len(m)) == (det in (1, -1))
        reached += bool(blocks and blocks[0])
    # seeded inputs whose residual block is nonempty: that path runs
    assert reached == 109
    # no unit entry, a zero pivot to swap past, a singular block
    for m in ([[2, 3], [3, 5]], [[2, 3], [4, 5]], [[0, 2, 3], [2, 0, 3], [3, 3, 0]],
              [[0, 2], [0, 3]], [[5]], []):
        assert real([row[:] for row in m]) == det_int(m)
    assert exactla.is_unimodular([{0: 2, 1: 3}, {0: 3, 1: 5}], 2)
    assert not exactla.is_unimodular([{0: 2, 1: 3}, {0: 4, 1: 5}], 2)


def test_ranks_agree_between_backends():
    rng = random.Random(10)
    for _ in range(10):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_mat(rng, m, n)
        rows = sparse_rows(a)
        rd = gauss_rank(rows, n)
        assert exactla.rank_sparse(rows) == rd
        divisors, *_ = exactla.smith_normal_form(a)
        assert len(divisors) == rd
        r2 = exactla.rank_sparse(rows, p=2)
        assert r2 <= rd


def gauss_rank(rows, n_cols, p=None):
    """Rank by dense Gaussian elimination over Fractions or F_p."""
    if p is None:
        mat = [[Fraction(r.get(c, 0)) for c in range(n_cols)] for r in rows]
    else:
        mat = [[r.get(c, 0) % p for c in range(n_cols)] for r in rows]
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        inv = 1 / top[c] if p is None else pow(top[c], -1, p)
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], top)]
                if p is not None:
                    mat[i] = [x % p for x in mat[i]]
        rank += 1
    return rank


def test_sparse_rank_and_basis_match_dense_elimination():
    # sets large and sparse enough that fill-in moves column counts up
    # and down between pivot steps, with and without dependent rows
    rng = random.Random(31)
    deficient = 0
    for _ in range(16):
        n_rows, n_cols = rng.randint(30, 60), rng.randint(20, 70)
        rows = []
        for _ in range(n_rows):
            cols = rng.sample(range(n_cols), rng.randint(2, 4))
            rows.append({c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in cols})
        for p in (None, 2, 3):
            rank, basis = rank_sparse_pivots(rows, p=p)
            assert rank == gauss_rank(rows, n_cols, p), p
            assert len(basis) == len(set(basis)) == rank
            assert gauss_rank([rows[i] for i in basis], n_cols, p) == rank
            deficient += rank < min(n_rows, n_cols)
    assert deficient >= 8


def test_empty_matrix_conventions():
    assert exactla.mat_mul([], []) == []
    assert exactla.mat_mul([[], []], []) == [[], []]
    assert exactla.identity(0) == []
    assert is_zero([[0, 0]]) and not is_zero([[0, 1]])


def test_quotient_lattice_with_torsion():
    q = exactla.QuotientLattice(3, [{0: 2}])
    assert (q.rank, q.torsion, q.dim) == (2, (2,), 3)
    v = q.project({0: 1})
    assert v == {2: 1}
    assert q.reduce({i: a + a for i, a in v.items()}) == {}
    for x in ({0: 1, 1: 2, 2: 3}, {1: -1, 2: 4}):
        c = q.project(x)
        assert q.project(q.lift(c)) == q.reduce(c)
    assert q.project({1: 1}) != {}


@pytest.mark.parametrize("w, gens, call, arg, bad", [
    (3, [{0: 2}], "project", {3: 1}, 3),
    (3, [{0: 2}], "project", {-1: 1}, -1),
    (4, [{0: 1, 1: 1}], "project", {7: 1}, 7),
    (4, [{0: 1, 1: 1}], "lift", {9: 1}, 9),
    (4, [{0: 1, 1: 1}], "lift", {0: 1, -2: 1}, -2),
    (3, [{0: 2}], "lift", {3: 1}, 3),
])
def test_project_and_lift_refuse_entries_out_of_range(w, gens, call, arg, bad):
    # project reads columns 0..w-1 and lift coordinates 0..dim-1; an entry
    # outside was read as some other column or coordinate, or dropped
    q = exactla.QuotientLattice(w, gens)
    with pytest.raises(ValueError, match=r" %d outside 0\.\." % bad):
        getattr(q, call)(arg)
    assert q.project({0: 1, w - 1: 1}) is not None and q.lift({q.dim - 1: 1})


def test_quotient_lattice_residual_block_matches_dense_smith_form():
    # Unit-free generator sets leave everything to the residual Smith form;
    # mixed sets eliminate some rows on +-1 pivots first.  The expected
    # divisors come from gcds of minors, not from the Smith form.
    rng = random.Random(12)
    saw_full_residual = saw_mixed = 0
    for trial in range(40):
        w, n = rng.randint(1, 6), rng.randint(1, 6)
        entries = (0, 2, -2, 3, -3, 4, 6) if trial % 2 else (0, 0, 1, -1, 2, -3, 4)
        gens = [[rng.choice(entries) for _ in range(w)] for _ in range(n)]
        q = exactla.QuotientLattice(w, sparse_rows(gens))
        divisors = det_divisors(gens)
        assert q.rank == w - len(divisors)
        assert q.torsion == tuple(d for d in divisors if d > 1)
        saw_full_residual += bool(q._res_cols) and not q._pivots
        saw_mixed += bool(q._res_cols) and bool(q._pivots)
        for g in sparse_rows(gens):
            assert q.project(g) == {}
        assert q.project_units() == [q.project({c: 1}) for c in range(w)]
        for _ in range(3):
            x, y = ({j: rng.randint(-5, 5) for j in range(w)} for _ in range(2))
            s = {j: x[j] + y[j] for j in range(w)}
            px, py = q.project(x), q.project(y)
            assert q.project(s) == q.reduce(
                {i: px.get(i, 0) + py.get(i, 0) for i in set(px) | set(py)})
            c = {i: rng.randint(-7, 7) for i in range(q.dim)}
            assert q.project(q.lift(c)) == q.reduce(c)
            assert all(v and (i < q.rank or 0 < v < q.torsion[i - q.rank])
                       for i, v in q.project(x).items())
    assert saw_full_residual and saw_mixed



def composite_modulus_trials():
    """60 seeded (rows, n_cols) whose entries are small, or multiples of
    p1, of p2 or of p1*p2 for the first two check primes."""
    p1, p2 = exactla._CHECK_PRIMES[:2]
    rng = random.Random(41)
    for _ in range(60):
        n_rows, n_cols = rng.randint(5, 30), rng.randint(4, 25)
        rows = []
        for _ in range(n_rows):
            cols = rng.sample(range(n_cols), rng.randint(1, min(4, n_cols)))
            if rng.random() < 0.5:
                entries = (-3, -2, -1, 1, 2, 3, p1, -p2)
            else:
                entries = (p1, 2 * p1, -p2, 3 * p2, p1 * p2, -5 * p1 * p2)
            rows.append({c: rng.choice(entries) for c in cols})
        yield rows, n_cols


def z_schedule(rows):
    """The (col, input id) pivot order of the integer pass on rows."""
    return [(c, rid) for c, rid, _row in exactla._eliminate(rows, "Z")[0]]


def test_one_modular_pass_gives_both_check_ranks():
    # entries that are multiples of p1, of p2 or of p1*p2 are units mod
    # neither one prime nor the product, so rows made of them survive the
    # unit pivots and the rest is ranked mod each prime on its own
    p1, p2 = exactla._CHECK_PRIMES[:2]
    saw_residual = saw_rank_split = 0
    for rows, n_cols in composite_modulus_trials():
        r1, r2 = exactla._ranks_mod(rows, (p1, p2), z_schedule(rows))
        assert r1 == exactla.rank_sparse(rows, p1) == gauss_rank(rows, n_cols, p1)
        assert r2 == exactla.rank_sparse(rows, p2) == gauss_rank(rows, n_cols, p2)
        saw_residual += bool(exactla._eliminate(rows, "Z")[1])
        saw_rank_split += r1 != r2
    assert saw_residual >= 20 and saw_rank_split >= 10


def seeded_sparse_rows():
    """Seeded sparse integer rows, mostly +-1 so that the Z pass pivots,
    with dependent rows, larger entries and explicit zeros."""
    rng = random.Random(53)
    for trial in range(40):
        n_rows, n_cols = rng.randint(5, 60), rng.randint(3, 40)
        entries = (0, 1, -1, 1, -1, 2, -3) if trial % 3 else (1, -1, 2, -2, 3, 6)
        rows = []
        for _ in range(n_rows):
            cols = rng.sample(range(n_cols), rng.randint(1, min(5, n_cols)))
            rows.append({c: rng.choice(entries) for c in cols})
        rows += [{c: 2 * v for c, v in row.items()} for row in rows[:trial % 4]]
        yield rows


def replay_shortcut_rows():
    """Rows that reach each shortcut of the replay (_ranks_mod)."""
    m = math.prod(exactla._CHECK_PRIMES[:2])
    return [
        # the integer pass pivots row 1 at column 2, then row 0 at column
        # 0 on its -1: a clean scheduled row, negated
        [{0: -1, 1: 1}, {1: 2, 2: 1}, {0: 2, 1: 3}],
        # rows 1 and 3 hold pivot column 0 only as an explicit 0
        [{0: 1}, {0: 0, 1: 1}, {1: 2, 2: 3}, {0: 0, 2: 5}],
        # rows 1 to 3 hold no pivot column and are left after the schedule
        [{0: 1, 1: 1}, {2: 2, 3: 2}, {3: 4}, {2: 6, 3: 3}],
        # entries outside (-m, m), in clean pivots, in reduced rows and in
        # rows left as they are; -m - 1 is a unit mod m but not -1
        [{0: 1, 1: m + 2}, {1: 1 - m, 2: -m - 1}, {2: 3 * m + 1},
         {1: 2 * m, 3: 4}, {0: m, 3: -m}, {4: 5 * m - 2, 5: m}],
    ]


def tower_blocks(monkeypatch, arr, top):
    """The generator rows of the holonomy tower's lattices in degrees
    2..top, recorded from a tower built afresh."""
    alg = holonomy.HolonomyAlgebra(arr, top)
    blocks = []
    lattice = holonomy.QuotientLattice

    def recording(w, gens):
        blocks.append([dict(g) for g in gens])
        return lattice(w, gens)

    monkeypatch.setattr(holonomy, "QuotientLattice", recording)
    relations = tuple(tuple(sorted(e.items())) for e in alg.relset.elements)
    holonomy._Tower(alg.alphabet, relations).level(top)
    return blocks[1:]


def test_cross_check_ranks_do_not_depend_on_the_schedule(monkeypatch):
    # The replay reads the schedule's columns and row ids only as hints:
    # a row becomes a pivot only on a unit entry it really has, and every
    # other row is reduced by all the pivots.  So the integer pass's
    # schedule, none, its reverse, it twice over, and seeded garbage with
    # unknown columns and repeated ids all give the ranks over F_p.
    primes = exactla._CHECK_PRIMES[:2]
    rng = random.Random(67)
    inputs = list(composite_modulus_trials())
    inputs += [(rows, 1 + max(c for row in rows for c in row))
               for rows in list(seeded_sparse_rows()) + replay_shortcut_rows()]
    for arr, top in ((braid(4), 5), (braid(5), 4), (near_pencil(6), 4)):
        inputs += [(rows, 1 + max(c for row in rows for c in row))
                   for rows in tower_blocks(monkeypatch, arr, top)]
    for rows, n_cols in inputs:
        before = [list(row.items()) for row in rows]
        want = [gauss_rank(rows, n_cols, p) for p in primes]
        assert [exactla.rank_sparse(rows, p) for p in primes] == want
        schedule = z_schedule(rows)
        garbage = [(rng.randrange(n_cols + 3), rng.randrange(len(rows)))
                   for _ in range(rng.randint(1, 2 * len(rows)))]
        for sched in (schedule, [], schedule[::-1], schedule + schedule,
                      garbage, garbage + schedule):
            assert exactla._ranks_mod(rows, primes, sched) == want
        assert [list(row.items()) for row in rows] == before
    assert len(inputs) == 60 + 40 + 4 + 4 + 3 + 3


def test_replay_reduces_only_rows_that_hold_a_pivot_column(monkeypatch):
    # on braid(5)'s degree-4 block the integer pass pivots 264 of 371
    # rows; 218 of them hold no earlier pivot column and have +-1 there,
    # so they become pivots as they are, and only the other 46 and the
    # 107 rows left after the schedule are reduced
    rows = tower_blocks(monkeypatch, braid(5), 4)[-1]
    schedule = z_schedule(rows)
    assert (len(rows), len(schedule)) == (371, 264)
    reduce, seen = exactla._reduce, []

    def counting(x, order, pivots, m=0):
        seen.append(len(pivots))
        return reduce(x, order, pivots, m)

    monkeypatch.setattr(exactla, "_reduce", counting)
    assert exactla._ranks_mod(rows, exactla._CHECK_PRIMES[:2], schedule) == [264, 264]
    assert len(seen) == 46 + 107 == 153
    assert seen.count(264) == 107


def assert_reduced(pivots, residual, m=None):
    # no stored zero; over F_m, m prime, every entry a symmetric residue
    for row in [row for _c, _rid, row in pivots] + [row for _rid, row in residual]:
        for v in row.values():
            assert v != 0
            if m:
                assert -m < 2 * v <= m


def relabeled(arr, seed):
    """arr, given by normals, with its atoms in a seeded order, as the
    benchmark feeds it."""
    order = list(range(arr.n_atoms))
    random.Random(seed).shuffle(order)
    return Arrangement([arr.atoms[i] for i in order],
                       normals=[arr.normals[i] for i in order])


def test_in_place_kernel_matches_the_copying_kernel(monkeypatch):
    # On every ring the pivots (column, input row, reduced row with its
    # item order) and the residual are those of the copying kernel.  The
    # inputs hold the tower blocks the benchmark eliminates, and columns
    # that were skipped for lack of a unit entry and pivoted later.
    primes = exactla._CHECK_PRIMES[:2]
    m = math.prod(primes)
    inputs = list(seeded_sparse_rows())
    inputs += [rows for rows, _n in composite_modulus_trials()]
    # over Z column 2 is skipped at count 2; the pivot row of column 0
    # keeps that count and turns its 2 into -1, so only a re-queue of the
    # skipped column pivots it next
    inputs.append([{0: 1, 2: 3}, {1: 1}, {0: 1, 1: 1, 2: 2}, {0: 2, 1: 1}])
    # entries 2, -2 and 3 leave columns without a +-1 that a later pivot
    # row gives one
    rng = random.Random(59)
    for _ in range(30):
        n_rows, n_cols = rng.randint(10, 30), rng.randint(6, 20)
        inputs.append([{c: rng.choice((2, -2, 3, 1))
                        for c in rng.sample(range(n_cols), rng.randint(2, 4))}
                       for _ in range(n_rows)])
    for arr, top in ((braid(4), 5), (braid(5), 5), (near_pencil(6), 4),
                     (relabeled(braid(5), 7), 4)):
        inputs += tower_blocks(monkeypatch, arr, top)
    saw_residual = skipped_then_pivoted = 0
    for rows in inputs:
        before = [list(row.items()) for row in rows]
        for ring in ("Z", "Q", 2, 3, 32003):
            skipped = []
            pivots, residual = exactla._eliminate(rows, ring)
            want_pivots, want_residual = copying_eliminate(rows, ring, skipped)
            assert ([(c, rid, list(row.items())) for c, rid, row in pivots]
                    == [(c, rid, list(row.items())) for c, rid, row in want_pivots])
            assert ([(rid, list(row.items())) for rid, row in residual]
                    == [(rid, list(row.items())) for rid, row in want_residual])
            assert_reduced(pivots, residual, None if ring in ("Z", "Q") else ring)
            if ring == "Z":
                saw_residual += bool(residual)
            else:
                assert not residual
            skipped_then_pivoted += len(set(skipped) & {c for c, _rid, _row in pivots})
        # the cross-check's ranks are those of the copying kernel over
        # Z/(p1*p2) on its units, plus its residual ranked mod each prime
        want_pivots, want_residual = copying_eliminate(rows, m)
        want = [len(want_pivots) + len(copying_eliminate(
            [row for _rid, row in want_residual], p)[0]) for p in primes]
        assert exactla._ranks_mod(rows, primes, z_schedule(rows)) == want
        assert [list(row.items()) for row in rows] == before
    assert len(inputs) == 40 + 60 + 1 + 30 + 14 and saw_residual >= 20
    assert skipped_then_pivoted >= 5


@pytest.mark.parametrize("w, gens, rank, torsion", [
    (4, [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 0]], 1, ()),
    (3, [[1, 1, 0], [1, 0, 1], [0, 1, 1]], 0, (2,)),
])
def test_modular_cross_check_catches_a_corrupted_integer_pass(monkeypatch, w, gens,
                                                              rank, torsion):
    gens = sparse_rows(gens)
    q = exactla.QuotientLattice(w, gens)
    assert (q.rank, q.torsion) == (rank, torsion)
    update_z = exactla._update_z
    dropped = []

    def lossy_update_z(prow, col, rows, col_rows, m):
        # the first updated row is lost, so the Z pass sees one generator less
        update_z(prow, col, rows, col_rows, m)
        if not dropped:
            rid, row = rows[0]
            dropped.append(dict(row))
            for c in row:
                col_rows[c].discard(rid)
            row.clear()

    monkeypatch.setattr(exactla, "_update_z", lossy_update_z)
    with pytest.raises(ArithmeticError, match="modular cross-check"):
        exactla.QuotientLattice(w, gens)
    assert dropped


# ---------------------------------------------------------------------------
# the prime test behind rings.fp

def test_is_prime_matches_trial_division_below_50000():
    sieve = bytearray([1]) * 50000
    sieve[0] = sieve[1] = 0
    for q in range(2, 224):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, 50000, q)))
    assert [n for n in range(50000) if rings._is_prime(n)] == \
        [n for n in range(50000) if sieve[n]]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the first bases, each with a factor above 37
    for n, factors in ((2047, (23, 89)), (1373653, (829, 1657)),
                       (25326001, (2251, 11251)), (3215031751, (151, 751, 28351))):
        assert math.prod(factors) == n
        assert not rings._is_prime(n)
    for p in (2147483647, 2147483629):
        assert all(p % q for q in range(2, math.isqrt(p) + 1))
        assert rings._is_prime(p)
    assert rings.fp(2147483647) == ("Fp", 2147483647)
    assert rings.parse("fp:2147483629") == ("Fp", 2147483629)
    for p in (2 ** 31, 2147483649):
        with pytest.raises(ValueError, match="too large"):
            rings.fp(p)


def test_fp_takes_only_an_int_and_parse_only_digits():
    # a float, a bool or a digit string is not a modulus, and a spec whose
    # modulus is not all digits is an unknown ring, not an int() message
    for p in (2.9, 3.0, True, "3"):
        with pytest.raises(ValueError, match=r"modulus %s is not an int"
                           % re.escape(repr(p))):
            rings.fp(p)
    for text in ("fp:abc", "fp:", "fp:2.9", "fp:-3", "fp:+3", "fp: 3", "fp:3_0"):
        with pytest.raises(ValueError, match=r"^unknown ring %s \(expected"
                           % re.escape(repr(text))):
            rings.parse(text)
    assert rings.parse(" FP:007 ") == rings.fp(7) == ("Fp", 7)
    # leading zeros are not read as digits of the modulus, and a modulus
    # longer than 2**31 is refused without being converted
    assert rings.parse("fp:" + "0" * 5000 + "7") == ("Fp", 7)
    with pytest.raises(ValueError, match=r"^modulus 1{5000} too large"):
        rings.parse("fp:" + "1" * 5000)
    # an int too long to print is named by its bit length
    with pytest.raises(ValueError, match=r"^modulus of 16610 bits too large, "
                       r"need p < 2\*\*31$"):
        rings.fp(10 ** 5000)
