"""Acceptance battery: ten end-to-end checks with wall-clock budgets.

Each check prints a single PASS/FAIL line.  pytest captures stdout by
default, so run with -s to watch the lines scroll by:

    python3 -m pytest -s -v tests/test_acceptance.py
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from arrlie import (
    Class2Group,
    arrangement_to_json,
    betti,
    braid,
    falk_invariant,
    generic,
    h2_rank_check,
    holonomy_graded,
    holonomy_map_from_presentation,
    is_decomposable,
    k_invariant_matrix,
    lcs_ranks_decomposable,
    make_presentation,
    near_pencil,
    pencil,
    relation_words,
    standard_catalog,
    verify_decomposable_iso,
    witt_rank,
)
from arrlie import exactla, rings
from lie_reference import (LieElement, bracket, dense_reduce, expand_tree,
                           lyndon_basis, lyndon_words, sparse)


@contextmanager
def criterion(label, budget=None):
    """Time a block, print one PASS/FAIL line, enforce the budget."""
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print("%s: FAIL (%.2fs)" % (label, time.monotonic() - t0))
        raise
    dt = time.monotonic() - t0
    if budget is not None and dt >= budget:
        print("%s: FAIL (%.2fs over the %ds budget)" % (label, dt, budget))
        raise AssertionError("%s took %.2fs, budget %ds" % (label, dt, budget))
    print("%s: PASS (%.2fs)" % (label, dt))


def lyndon_to_tensor(k, n, coeffs):
    out = {}
    basis = lyndon_basis(k, n)
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


def rand_lie(rng, k, n):
    dim = len(lyndon_basis(k, n))
    coeffs = {i: rng.randint(-3, 3) for i in rng.sample(range(dim), min(3, dim))}
    return LieElement(k, n, coeffs, rings.Z)


def rand_class2(rng, grp):
    exps = tuple(rng.randint(-3, 3) for _ in range(grp.k))
    tail = tuple(rng.randint(-3, 3) for _ in range(grp.gr2.dim))
    return grp.multiply(grp.identity(),
                        type(grp.identity())(exps, tuple(dense_reduce(grp.gr2, tail))))


def test_c01_witt_ranks_match_brute_force():
    # count Lyndon words the dumb way: smaller than every proper rotation
    with criterion("C1 Witt ranks vs brute-force rotation filter", budget=5):
        for k in range(1, 5):
            for n in range(1, 9):
                count = 0
                for w in itertools.product(range(k), repeat=n):
                    if all(w < w[i:] + w[:i] for i in range(1, n)):
                        count += 1
                assert count == witt_rank(k, n) == len(lyndon_words(k, n)), (k, n)


def test_c02_bracket_laws_on_random_samples():
    # 500 random samples: antisymmetry plus the tensor-commutator embedding
    # on pairs, the Jacobi identity on triples; total degree stays <= 4
    with criterion("C2 bracket laws on 500 random samples", budget=30):
        rng = random.Random(20260816)
        pairs = triples = 0
        while pairs + triples < 500:
            k = rng.randint(2, 4)
            if (pairs + triples) % 3 == 2:
                degs = [1, 1, rng.randint(1, 2)]
                rng.shuffle(degs)
                a, b, c = (rand_lie(rng, k, d) for d in degs)
                jac = bracket(bracket(a, b), c) + bracket(bracket(b, c), a) \
                    + bracket(bracket(c, a), b)
                assert jac.is_zero()
                triples += 1
            else:
                da = rng.randint(1, 3)
                db = rng.randint(1, 4 - da)
                a = rand_lie(rng, k, da)
                b = rand_lie(rng, k, db)
                ab = bracket(a, b)
                assert (ab + bracket(b, a)).is_zero()
                lhs = lyndon_to_tensor(k, da + db, ab.coeffs)
                rhs = tensor_commutator(lyndon_to_tensor(k, da, a.coeffs),
                                        lyndon_to_tensor(k, db, b.coeffs))
                assert lhs == rhs
                pairs += 1
        assert pairs + triples == 500 and triples >= 150


def test_c03_falk_equals_degree3_holonomy_rank():
    with criterion("C3 Falk invariant vs degree-3 rank over Q", budget=120):
        cases = [(braid(3), 2), (braid(4), 10), (braid(5), 30)]
        for k in range(2, 7):
            cases.append((pencil(k), witt_rank(k - 1, 3)))
            cases.append((generic(k), 0))
        for k in range(3, 7):
            cases.append((near_pencil(k), witt_rank(k - 2, 3)))
        for arr, expected in cases:
            phi3 = falk_invariant(arr)
            assert phi3 == expected
            assert phi3 == holonomy_graded(arr, 3, rings.Q).rank


def test_c04_decomposability_verdicts():
    with criterion("C4 decomposability verdicts", budget=60):
        rep = is_decomposable(braid(4))
        assert rep == {"decomposable": False, "r_global": 10, "r_local": 8,
                       "torsion": []}
        for name, arr in standard_catalog():
            rep = is_decomposable(arr)
            expected = name not in ("braid(4)", "braid(5)")
            assert rep["decomposable"] is expected, name
            assert rep["torsion"] == [], name
            # the same verdict comes out of ranks over Q
            r_q = holonomy_graded(arr, 3, rings.Q).rank
            assert r_q == rep["r_global"], name
            assert (r_q == rep["r_local"]) is expected, name


def test_c05_lcs_ranks_of_decomposable_entries():
    # degrees 2 and 3 against the holonomy algebra itself, degrees up to 5
    # against the sum-of-Witt-ranks prediction from the pencils
    with criterion("C5 LCS ranks of decomposable entries", budget=60):
        entries = [(name, arr) for name, arr in standard_catalog()
                   if is_decomposable(arr)["decomposable"]]
        assert len(entries) == 15
        for name, arr in entries:
            ranks = lcs_ranks_decomposable(arr, 5)
            assert ranks[0] == arr.n_atoms == betti(arr).b1, name
            mus = [len(f.members) - 1 for f in arr.flats]
            for m in range(2, 6):
                assert ranks[m - 1] == sum(witt_rank(mu, m) for mu in mus), name
            for d in (2, 3):
                graded = holonomy_graded(arr, d, rings.Z)
                assert ranks[d - 1] == graded.rank, name
                assert graded.torsion == (), name


def test_c06_h2_of_degree3_truncations():
    with criterion("C6 H2 rank identity for degree-3 truncations", budget=120):
        checked = 0
        for name, arr in standard_catalog():
            if holonomy_graded(arr, 2, rings.Z).torsion:
                continue
            rep = h2_rank_check(arr, 3, rings.Q)
            assert rep["pass"] and rep["bridge"] == "exact", name
            assert rep["ce_h2_rank"] == rep["h_n_rank"] + rep["b2"], name
            checked += 1
        assert checked == 17  # every catalog entry is torsion free in degree 2
        spot = h2_rank_check(pencil(3), 3, rings.Q)
        assert (spot["ce_h2_rank"], spot["h_n_rank"], spot["b2"]) == (4, 2, 2)
        spot = h2_rank_check(braid(4), 3, rings.Q)
        assert (spot["ce_h2_rank"], spot["h_n_rank"], spot["b2"]) == (21, 10, 11)


def test_c07_class2_quotients_catalog_wide():
    with criterion("C7 class-2 quotients across the catalog", budget=30):
        rng = random.Random(7)
        nilpotency_checks = 0
        for name, arr in standard_catalog():
            grp = Class2Group(arr)
            for _label, word in relation_words(arr):
                assert grp.is_identity(grp.evaluate(word)), name
            for _ in range(12):
                g, h, f = (rand_class2(rng, grp) for _ in range(3))
                c = grp.commutator(g, h)
                assert not any(c.exps)
                assert grp.is_identity(grp.commutator(c, f))
                nilpotency_checks += 1
            kinv = k_invariant_matrix(arr)
            b2 = betti(arr).b2
            w = arr.n_atoms * (arr.n_atoms - 1) // 2
            if kinv:
                # the columns generate Z^r: kinv has an integer right inverse
                cols = [sparse(c) for c in zip(*kinv)]
                assert exactla.QuotientLattice(len(kinv), cols).dim == 0, name
                rows = [sparse(r) for r in kinv]
                # the saturated kernel of kinv: the free part of Z^w / rows
                assert exactla.QuotientLattice(w, rows).rank == b2, name
            else:
                # no rows: the kernel is the whole wedge square
                assert w == b2, name
        assert nilpotency_checks >= 200


def test_c08_presentation_holonomy_map():
    with criterion("C8 holonomy map of x^2 y x^-2 y^-1"):
        pres = make_presentation(2, ["xxyXXY"])
        assert holonomy_map_from_presentation(pres) == [[2]]


def test_c09_isomorphism_verifier():
    with criterion("C9 nilpotent-quotient diagram verifier", budget=60):
        cycle = {"H1": "H2", "H2": "H3", "H3": "H1"}
        g4 = generic(4)
        for ring in (rings.Z, rings.fp(2)):
            rep = verify_decomposable_iso(pencil(3), pencil(3), cycle,
                                          n=4, ring=ring)
            assert rep["pass"]
            assert rep["check"]["identity1"] and rep["check"]["identity2"]
            for perm in itertools.permutations(range(4)):
                rep = verify_decomposable_iso(g4, g4, list(perm),
                                              n=4, ring=ring)
                assert rep["pass"], perm
        bad = verify_decomposable_iso(pencil(3), pencil(3), cycle, n=4,
                                      ring=rings.Z, perturb="sigma")
        assert bad["pass"] is False
        assert bad["perturb"] == {"kind": "sigma"}
        assert bad["check"]["failed"] == 2
        assert bad["check"]["witness"] is not None


def test_c10_deterministic_reports(tmp_path):
    # byte-identical --report output across repeat runs and thread counts
    with criterion("C10 deterministic reports"):
        braid4 = tmp_path / "braid4.json"
        braid4.write_text(json.dumps(arrangement_to_json(braid(4))))
        p3 = tmp_path / "pencil3.json"
        p3.write_text(json.dumps(arrangement_to_json(pencil(3))))
        iso = json.dumps({"H1": "H2", "H2": "H3", "H3": "H1"})
        commands = [
            ["betti", str(braid4)],
            ["lattice", str(braid4)],
            ["witt", "--alphabet", "3", "--max-degree", "6"],
            ["falk", str(braid4)],
            ["holonomy", str(braid4), "--max-degree", "3"],
            ["kinv", str(p3)],
            ["decomp", str(p3)],
            ["lcs", str(p3), "--max-degree", "5"],
            ["h2check", str(p3), "--ring", "q"],
            ["verify-iso", str(p3), str(p3), "--iso", iso, "--degree", "4"],
            ["catalog", "near_pencil", "4"],
        ]
        for argv in commands:
            outs = []
            for threads in ("1", "8", "1"):
                env = dict(os.environ, ARRLIE_THREADS=threads)
                proc = subprocess.run(
                    [sys.executable, "-m", "arrlie"] + argv + ["--report"],
                    capture_output=True, env=env)
                assert proc.returncode == 0, (argv, proc.stderr)
                outs.append(proc.stdout)
            assert outs[0] == outs[1] == outs[2], argv
