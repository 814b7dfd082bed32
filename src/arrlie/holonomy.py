"""Holonomy Lie algebra of an arrangement, graded pieces over Z, Q, F_p.

The algebra is the free Lie algebra on the atoms modulo the ideal
generated by the degree-2 elements [x_H, sum of x_K over K in Y] for
every rank-2 flat Y and every atom H in Y.  It is computed as a tower
(HolonomyAlgebra): h_2 is Lambda^2 V modulo the relations, and each
h_n is the cokernel of Lambda^3 -> Lambda^2 of the degrees below n, so
the cost follows the quotient and not the free Lie algebra, and so does
the size guard, which counts the pair columns and triples of degree n
from the dimensions below n (wedge_counts, tower_cost).  From degree 4
on, the Jacobi rows that d3 d4 = 0 proves redundant are not built
(wedge_block).  Each degree
is one integer QuotientLattice; Q and F_p read their dimensions off it
by universal coefficients (over_ring).  A class is the sparse dict of
its coordinates there, and brackets of classes come from the tower's
own tables.  The process keeps the towers of the last few relation sets
(TOWER_MEMO_SIZE), so every HolonomyAlgebra, ring and caller on one
relation set reads and extends one tower instead of building its degrees
again.

Also here: commutator-relator presentations with their degree-2 Magnus
coefficients, the degree-2 part of the Orlik-Solomon relation ideal, and
the nullity of multiplication E^1 x I^2 -> E^3 (the Falk invariant).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, gcd, prod

from . import exactla, rings
from .arrangement import Arrangement, Record
from .exactla import QuotientLattice
from .freelie import DEFAULT_GUARD, SizeGuardError, require_int

_GEN_LETTERS = "xyzabcdefghijklmnopqrstuvw"


class GradedAbelian(Record):
    """Finitely generated abelian group: free rank and divisor chain (> 1)."""

    def __init__(self, rank, torsion=()):
        tor = tuple(torsion)
        for v in (rank,) + tor:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError("rank and torsion must be ints, got %r" % (v,))
        if rank < 0:
            raise ValueError("negative rank")
        for d in tor:
            if d <= 1:
                raise ValueError("torsion divisors must exceed 1")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError("torsion divisors must form a chain")
        self._set("rank", rank)
        self._set("torsion", tor)


def pair_list(k):
    """Ordered pairs (i < j): the degree-2 Lyndon words over 0..k-1, lex order."""
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def pair_index(k):
    return {p: t for t, p in enumerate(pair_list(k))}


class RelationSet(Record):
    """Degree-2 relations over the degree-2 basis of the free Lie algebra.

    elements is a tuple of {pair position: coeff} dicts.  labels carries
    provenance: (flat index, atom index) for arrangement relations, or
    None for relations coming from a presentation.
    """

    def __init__(self, alphabet, elements, labels, atom_names):
        self._set("alphabet", alphabet)
        self._set("elements", elements)
        self._set("labels", labels)
        self._set("atom_names", atom_names)

    def __len__(self):
        return len(self.elements)


def relation_set(arr):
    """One relation [x_H, sum_{K in Y} x_K] per flat Y and atom H in Y.

    The per-flat family is redundant (its members sum to zero); it is kept
    whole and only reduced inside rank and normal-form computations.
    """
    k = arr.n_atoms
    pidx = pair_index(k)
    elements, labels = [], []
    for f in arr.flats:
        for h in f.members:
            coeffs = {}
            for kk in f.members:
                if kk == h:
                    continue
                if h < kk:
                    coeffs[pidx[(h, kk)]] = coeffs.get(pidx[(h, kk)], 0) + 1
                else:
                    coeffs[pidx[(kk, h)]] = coeffs.get(pidx[(kk, h)], 0) - 1
            elements.append(coeffs)
            labels.append((f.index, h))
    return RelationSet(alphabet=k, elements=tuple(elements), labels=tuple(labels),
                       atom_names=arr.atoms)


def empty_relation_set(k, names=None):
    if names is None:
        names = tuple("x%d" % (i + 1) for i in range(k))
    return RelationSet(alphabet=k, elements=(), labels=(), atom_names=tuple(names))


# ---------------------------------------------------------------------------
# presentations and the Magnus expansion to degree 2

def single_letter_names(names):
    """True when every name is one lowercase letter, so that words can be
    spelled as letters with capitals for inverses."""
    return all(len(n) == 1 and n.isalpha() and n == n.lower() for n in names)


def letter_word(names, text):
    """(generator index, +-1) pairs of a letter word such as "xyXY"."""
    lookup = {nm: i for i, nm in enumerate(names)}
    seq = []
    for ch in text:
        idx = lookup.get(ch.lower())
        if idx is None:
            raise ValueError("unknown generator %r in word %r" % (ch, text))
        seq.append((idx, -1 if ch.isupper() else 1))
    return seq


class Presentation(Record):
    """Finite presentation with commutator relators (zero exponent sums).

    Relators are letter words: lowercase is a generator, uppercase its
    inverse.  Default generator names are taken from 'xyzabc...' in
    order; pass names to choose others.
    """

    def __init__(self, generators, relators, names):
        self._set("generators", generators)
        self._set("relators", relators)
        self._set("names", names)

    def letter_sequence(self, relator):
        return letter_word(self.names, relator)


def make_presentation(generators, relators, names=None):
    if not isinstance(generators, int) or isinstance(generators, bool):
        raise ValueError("the number of generators must be an integer")
    if generators < 1:
        raise ValueError("need at least one generator")
    if names is None:
        if generators > len(_GEN_LETTERS):
            raise ValueError("default names cover up to %d generators, pass names"
                             % len(_GEN_LETTERS))
        names = tuple(_GEN_LETTERS[:generators])
    else:
        names = tuple(str(n) for n in names)
        if len(names) != generators or len(set(names)) != generators:
            raise ValueError("need %d distinct generator names" % generators)
        if not single_letter_names(names):
            raise ValueError("generator names must be single lowercase letters")
    p = Presentation(generators=generators, relators=tuple(relators), names=names)
    for rel in p.relators:
        if not isinstance(rel, str):
            raise ValueError("relator %r is not a string" % (rel,))
        seq = p.letter_sequence(rel)
        sums = [0] * generators
        for g, e in seq:
            sums[g] += e
        if any(sums):
            bad = [p.names[i] for i, s in enumerate(sums) if s]
            raise ValueError(
                "relator %r has nonzero exponent sum in %s; only commutator "
                "relators are supported" % (rel, ", ".join(bad)))
    return p


def presentation_from_json(obj):
    if not isinstance(obj, dict) or "generators" not in obj or "relators" not in obj:
        raise ValueError("presentation JSON needs 'generators' and 'relators'")
    names = obj.get("names")
    fields = [("relators", obj["relators"])]
    if names is not None:
        fields.append(("names", names))
    for key, val in fields:
        if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
            raise ValueError("presentation '%s' must be a list of strings" % key)
    return make_presentation(obj["generators"], obj["relators"], names)


def _magnus_column(pres, relator, pidx):
    """Degree-2 Magnus class of one relator over the pair basis (i < j).

    Under x |-> 1 + X the coefficient c_ij of X_i X_j (i < j) is the sum,
    over each letter x_j^e, of e times the exponent sum of x_i before it.
    With zero exponent sums (make_presentation) the coefficient of X_j X_i
    is -c_ij and that of X_i^2 is 0, so the c_ij are the whole class, a
    Lie element.
    """
    sums = [0] * pres.generators
    col = {}
    for g, e in pres.letter_sequence(relator):
        for i in range(g):
            if sums[i]:
                t = pidx[(i, g)]
                col[t] = col.get(t, 0) + e * sums[i]
        sums[g] += e
    return {t: c for t, c in col.items() if c}


def holonomy_map_from_presentation(pres):
    """Columns over the pair basis (i < j): the degree-2 Magnus class per relator."""
    return exactla.columns_to_matrix(relation_set_from_presentation(pres).elements,
                                     comb(pres.generators, 2))


def relation_set_from_presentation(pres):
    pidx = pair_index(pres.generators)
    cols = tuple(_magnus_column(pres, rel, pidx) for rel in pres.relators)
    return RelationSet(alphabet=pres.generators, elements=cols,
                       labels=(None,) * len(cols), atom_names=pres.names)


# ---------------------------------------------------------------------------
# graded pieces

def as_relation_set(source):
    if isinstance(source, Arrangement):
        return relation_set(source)
    if isinstance(source, RelationSet):
        return source
    if isinstance(source, Presentation):
        return relation_set_from_presentation(source)
    raise TypeError("expected an Arrangement, RelationSet, or Presentation")


def holonomy_degrees(source, top, ring=rings.Z, guard=DEFAULT_GUARD):
    """Degrees 1..top of the holonomy Lie algebra, as a list of GradedAbelian.

    Every ring reads the integer tower of HolonomyAlgebra through
    over_ring.  No bracket of degree top is computed.  The tower is the
    process's one tower of the relation set, so a second call, over any
    ring, builds only the degrees the earlier ones did not reach.
    """
    require_int("max_degree", top)
    rings.check(ring)
    if top < 1:
        return []
    alg = HolonomyAlgebra(source, top, guard=guard)
    return [over_ring(alg.quotient(d), ring) for d in range(1, top + 1)]


def over_ring(q, ring):
    """The quotient of the lattice q over ring (checked by the caller) as a
    GradedAbelian: over Z its rank and divisor chain, over Q its rank, over
    F_p, by universal coefficients, its rank plus the divisors p divides."""
    if ring == rings.Z:
        return GradedAbelian(rank=q.rank, torsion=q.torsion)
    return GradedAbelian(rank=q.rank + sum(
        1 for t in q.torsion if ring != rings.Q and t % ring[1] == 0))


def holonomy_graded(source, n, ring=rings.Z, guard=DEFAULT_GUARD):
    """Degree-n piece of the holonomy Lie algebra as a GradedAbelian.

    Over Q and F_p the torsion list is empty and rank is the vector-space
    dimension; over Z the divisor chain comes from a QuotientLattice.
    Degrees 2..n-1 are built on the way (see holonomy_degrees).
    """
    require_int("max_degree", n)
    if n < 1:
        raise ValueError("degree must be positive")
    return holonomy_degrees(source, n, ring, guard=guard)[-1]


class HolonomyAlgebra:
    """The holonomy Lie algebra over Z, degree by degree up to max_degree.

    A basis class is a pair (degree, index into that degree's quotient
    coordinates, free then torsion); classes compare as tuples.  Degree 1
    is free on the letters.  The columns of degree n >= 2 are the pairs
    s < t of classes whose degrees sum to n, standing for s ^ t, and h_n is
    the QuotientLattice of those columns by
      - the relations, in degree 2, whose columns are the letter pairs;
      - gcd(d_s, d_t) s ^ t for every pair with a torsion class, d being
        its divisor (0 for a free class);
      - [s,t] ^ u + [t,u] ^ s + [u,s] ^ t for every triple s < t < u with
        degree sum n, the brackets read off the degrees below n, except
        the rows (a, b, e), a < b letters, that the identity d3 d4 = 0
        shows to lie in the span of the others (wedge_block has the
        rule and its proof).
    So h_n = coker(Lambda^3(h_{<n})_n -> Lambda^2(h_{<n})_n), the block of
    weight n of the exterior complex (wedge_block).  The cokernel
    C, with [a, b] the class of a ^ b, makes h_{<n} + C a graded Lie ring
    generated in degree 1 that satisfies the relations, so h_n maps onto
    C; the bracket maps C onto h_n, and the two maps compose to the
    identity on brackets of generators.  This is the nilpotent quotient
    algorithm for graded Lie rings (Havas, Newman and Vaughan-Lee, J. Symb.
    Comput. 9, 1990; Schneider, DMTCS 1, 1997), its consistency checks
    read off the Chevalley-Eilenberg complex.

    The bracket [s, t] of degree n is the projection of the column s ^ t.
    The brackets are kept, and a degree's table is filled by its first
    bracket, from one backward pass over its lattice (project_units).
    Classes are sparse dicts of coordinates, and bracket takes two to the
    reduced coordinates of their bracket.  Read backwards, the lift of a class of degree n over the
    columns pairs(n) writes it as a sum of brackets [s, t] of classes
    below n, so a Lie map out of the algebra is determined, degree by
    degree, by the images of the letters (decomp.rename).

    An instance is a view on the tower of its relation set, which is
    shared by every view on the same alphabet and relations in the
    process (see _tower): each view keeps its own max_degree, and the
    tower grows only when some view asks for a degree it does not hold
    yet.  The tower is a deterministic function of the relation set, so
    sharing it changes no answer and no coordinate.

    The constructor raises SizeGuardError for a max_degree past the bit
    length of guard, and for the first degree d whose tower_cost, counted
    off the degrees below d (wedge_counts, building d - 1), exceeds guard.
    """

    def __init__(self, source, max_degree, guard=DEFAULT_GUARD):
        self.relset = as_relation_set(source)
        require_int("max_degree", max_degree)
        require_int("guard", guard)
        self.alphabet = self.relset.alphabet
        self.max_degree = max_degree
        self._tower = _tower(self.alphabet, tuple(
            tuple(sorted(e.items())) for e in self.relset.elements))
        if max_degree > max(guard.bit_length(), 1):
            raise SizeGuardError(
                "holonomy degree %d exceeds the guard: degrees past %d, the "
                "bit length of guard %d, are refused"
                % (max_degree, guard.bit_length(), guard))
        dims = [0]
        for d in range(2, max_degree + 1):
            dims.append(self._tower.level(d - 1)[0].dim)
            pairs, triples = wedge_counts(d, dims)
            cost = tower_cost(pairs, triples)
            if cost > guard:
                raise SizeGuardError(
                    "holonomy degree %d has %d pair columns and %d triples, "
                    "which cost %d > guard %d; raise the guard to proceed"
                    % (d, pairs, triples, cost, guard))

    def quotient(self, d):
        """QuotientLattice of degree d over its pair columns.  1 <= d <= max_degree."""
        if not 1 <= d <= self.max_degree:
            raise ValueError("degree %d outside 1..%d" % (d, self.max_degree))
        return self._tower.level(d)[0]

    def pairs(self, d):
        """The columns of degree d >= 2 as a tuple of pairs (s, t) of basis
        classes, in column order: the column s ^ t projects to [s, t]."""
        self.quotient(d)
        return self._tower.level(d)[1]

    def rank(self, d):
        return self.quotient(d).rank

    def torsion(self, d):
        return self.quotient(d).torsion

    def dim(self, d):
        return self.quotient(d).dim

    def bracket(self, d1, u, d2, v):
        """Sparse reduced coordinates of [u, v], for sparse u in degree d1
        and v in degree d2."""
        q = self.quotient(d1 + d2)
        product = self._tower.product
        acc = {}
        for i, a in u.items():
            for j, b in v.items():
                s, t, c = (d1, i), (d2, j), a * b
                if s == t:
                    continue
                if s > t:
                    s, t, c = t, s, -c
                for r, x in product(s, t).items():
                    acc[r] = acc.get(r, 0) + c * x
        return q.reduce(acc)


# The towers of the last few relation sets used in the process.  Eight
# cover one verify-iso (two global towers and one local tower per
# distinct pencil multiplicity) next to an h2check.  Like the rest of the
# library, the memo and the towers in it are not thread-safe.
TOWER_MEMO_SIZE = 8


@lru_cache(maxsize=TOWER_MEMO_SIZE)
def _tower(alphabet, relations):
    """The tower of one relation set: relations are the degree-2 relations
    as tuples of sorted (pair position, coefficient) items, in order."""
    return _Tower(alphabet, relations)


class _Tower:
    """Per-degree state of the holonomy tower of one relation set, grown on
    demand: for each degree its QuotientLattice and its pair columns.
    Beside them it keeps three memos, each filled on first use and dropped
    with the tower: the basis brackets (product), a degree at a time, the
    basis definitions (definition), and the images of basis classes under
    each renaming out of this tower, which decomp.rename fills.  No size
    guard runs here; HolonomyAlgebra runs it before asking for a degree."""

    def __init__(self, alphabet, relations):
        self.key = (alphabet, relations)
        self._relations = relations
        # degree 1 has no relations, so its coordinates are the letters
        self._levels = [(QuotientLattice(alphabet, []), ())]
        self._products = {}    # (s, t) with s < t -> sparse coords of [s, t]
        self._definitions = {}  # class of degree >= 2 -> its lift, see definition
        # (key of the destination tower, letters) -> {class: sparse image}
        self.images = {}

    def level(self, d):
        """(lattice, pair columns) of degree d >= 1."""
        while len(self._levels) < d:
            self._grow()
        return self._levels[d - 1]

    def _grow(self):
        """Add the next degree, built from the degrees below.  Its tables
        are added in one step once its lattice exists, so a failure on the
        way (the modular cross-check, an interrupt) leaves the tower as it
        was, and the next request builds the degree again."""
        n = len(self._levels) + 1
        dims = [0] + [q.dim for q, _pairs in self._levels]
        cols, rows = {}, []
        # with no pair columns every row is empty and h_n = 0, so none is built
        if wedge_counts(n, dims)[0]:
            cols, torsion_rows, triple_rows = wedge_block(
                n, dims, self._divisor, self.product, self._redundant(n))
            rows = [dict(e) for e in self._relations] if n == 2 else []
            rows += torsion_rows + triple_rows
        q = QuotientLattice(len(cols), rows)
        self._levels.append((q, tuple(cols)))

    def _redundant(self, n):
        """The rows of degree n that wedge_block may skip, as {e: c}: for
        each pair column (c, d) of degree n - 2 whose bracket has +-1 at
        its smallest coordinate e, the largest such c.  Read off the
        memoized products of degree n - 2; empty below degree 4."""
        skip = {}
        if n >= 4:
            for c, d in self._levels[n - 3][1]:
                vec = self.product(c, d)
                if vec:
                    e = min(vec)
                    if vec[e] in (1, -1):
                        # pairs run in lex order, so the last c is the largest
                        skip[n - 2, e] = c
        return skip

    def _divisor(self, s):
        q = self._levels[s[0] - 1][0]
        return 0 if s[1] < q.rank else q.torsion[s[1] - q.rank]

    def product(self, s, t):
        """Sparse coordinates of [s, t] for basis classes s < t.  The first
        miss in a degree fills the memo for every pair of that degree from
        one QuotientLattice.project_units.  The dict is the memo's own:
        callers read it and never change it."""
        vec = self._products.get((s, t))
        if vec is None:
            q, pairs = self.level(s[0] + t[0])
            self._products.update(zip(pairs, q.project_units()))
            vec = self._products[s, t]
        return vec

    def definition(self, s):
        """Basis class s = (e, j), e >= 2, as pairs ((a, b), lam != 0) with
        s = sum of lam [a, b]: the lift of its unit vector over the pair
        columns, the inverse of a bracket.  The tuple is the memo's own."""
        lift = self._definitions.get(s)
        if lift is None:
            q, pairs = self.level(s[0])
            lift = self._definitions[s] = tuple(
                (pairs[c], lam) for c, lam in sorted(q.lift({s[1]: 1}).items()))
        return lift


def wedge_block(w, dims, divisor, product, skip=None):
    """The weight-w block of the exterior complex of a graded Lie ring.

    A basis class is a pair (degree, index); classes compare as tuples.
    dims[a] is the dimension of degree a, for every a < w, divisor(s) the
    divisor of class s (0 if free), and product(s, t) the sparse
    coordinates of [s, t], s < t, in degree s[0] + t[0].  Returns
    (cols, torsion_rows, triple_rows), rows sparse over the columns:
    cols maps each pair s < t of weight w, standing for s ^ t, to its
    column, in lex order; torsion_rows holds gcd(d_s, d_t) s ^ t for each
    pair with a torsion class, in column order; triple_rows holds
    [s,t] ^ u + [t,u] ^ s + [u,s] ^ t for each triple s < t < u of weight
    w, in lex order, empty rows included, except the rows skip names.
    d2(s ^ t) = -[s, t] takes a triple row to minus its Jacobi sum.
    nilpotent.ce_h2 sums the whole blocks of a truncation.

    The tower reads h_w off this block, and passes skip = {e: c}
    (_Tower._redundant): the row (a, b, e) with letters a < b < c is left
    out.  For weight w >= 4, e is the smallest coordinate of a bracket
    [c, d] of degree w - 2 with [c, d]_e = +-1, and the row lies in the
    span of the kept rows, so the lattice, its rank and its torsion do not
    change:
      - the classes a < b < c < d, a and b letters, have weight w, and
        d3 d4 (a^b^c^d) = 0 in Lambda^2(h_{<w}), since h_{<w} is a
        graded Lie ring: the tower imposed Jacobi in every degree below
        w, up to the torsion rows, which are kept.  Expanding it gives a
        Z-relation among the triple rows of weight w;
      - rank the rows so that a row ranks higher the smaller its smallest
        class, then its middle class, then its largest class.  The
        top-ranked row of the relation is (a, b, e): every other row
        either misses a, or holds a together with a class above b;
      - the coefficient of (a, b, e) is +-[c, d]_e, as only the pair
        {c, d} yields rows that hold both a and b;
      - so when it is +-1 the row is a Z-combination of lower-ranked rows
        and torsion rows, and by induction up the ranking every skipped
        row lies in the span of the kept rows.
    """
    cols = {}
    for a in range(1, w // 2 + 1):
        for i in range(dims[a]):
            for j in range(i + 1 if 2 * a == w else 0, dims[w - a]):
                cols[(a, i), (w - a, j)] = len(cols)
    torsion_rows = []
    for (s, t), col in cols.items():
        g = gcd(divisor(s), divisor(t))
        if g:
            torsion_rows.append({col: g})
    triple_rows = []
    skip = skip or {}
    for s, t, u in _triples(w, dims):
        if t[0] == 1 and t < skip.get(u, t):
            continue
        row = {}
        _wedge_into(row, cols, s[0] + t[0], product(s, t), u, 1)
        _wedge_into(row, cols, t[0] + u[0], product(t, u), s, 1)
        _wedge_into(row, cols, s[0] + u[0], product(s, u), t, -1)
        triple_rows.append(row)
    return cols, torsion_rows, triple_rows


def wedge_counts(w, dims):
    """(pairs, triples) of weight w: the lengths of cols and triple_rows of
    wedge_block(w, dims, ...) with nothing skipped, counted from dims
    alone."""
    pairs = sum(comb(dims[a], 2) if 2 * a == w else dims[a] * dims[w - a]
                for a in range(1, w // 2 + 1))
    triples = sum(prod(comb(dims[x], m) for x, m in Counter((a, b, w - a - b)).items())
                  for a in range(1, w // 3 + 1) for b in range(a, (w - a) // 2 + 1))
    return pairs, triples


# Guard units of a degree with these counts, known before any of its rows
# exist: pair columns x triples / 8 for the elimination, and 4 per triple
# for building the rows (2 us and 130 bytes each, measured on the 1.3 M
# empty rows of generic(200) in degree 3: 2.7 s and 173 MB); a degree with
# no pair columns builds no rows (_Tower._grow), so it costs 0.  The count
# takes every triple, those whose rows the tower skips (wedge_block)
# included, so the rule moves no refusal boundary.  Top-degree
# times in a fresh process, Python 3.11 on a 2-CPU x86-64 machine: admitted,
# braid(4) d8 6.1 s, braid(5) d6 1.4 s, braid(6) d5 0.58 s (6.2 M units); refused,
# braid(4) d9 (15 M) over 37 s and 1 GB, braid(5) d7 (41 M) 321 s,
# braid(6) d6 (118 M) 12.2 s.  Counts cannot see fill-in, so some cheap
# degrees are refused too: near_pencil(10) d5 (21 M) 0.60 s, braid(8) d4
# (23 M) 0.32 s, near_pencil(16) d4 (25 M) 0.51 s, near_pencil(8) d6
# (43 M) 1.2 s, near_pencil(11) d5 (67 M) 1.3 s, braid(7) d5 (86 M) 2.3 s.
def tower_cost(pairs, triples):
    return pairs * triples // 8 + 4 * triples if pairs else 0


def _triples(n, dims):
    """Triples s < t < u of basis classes with degree sum n; dims[a] is the
    dimension of degree a."""
    for a in range(1, n // 3 + 1):
        for b in range(a, (n - a) // 2 + 1):
            c = n - a - b
            for i in range(dims[a]):
                for j in range(i + 1 if b == a else 0, dims[b]):
                    for l in range(j + 1 if c == b else 0, dims[c]):
                        yield (a, i), (b, j), (c, l)


def _wedge_into(row, cols, d, vec, u, sign):
    """Add sign * x ^ u to row, for x of degree d with sparse coordinates
    vec; cols maps ordered pairs of classes to columns."""
    for r, c in vec.items():
        x = (d, r)
        if x < u:
            col = cols[x, u]
        elif x > u:
            col, c = cols[u, x], -c
        else:
            continue
        row[col] = row.get(col, 0) + sign * c


# ---------------------------------------------------------------------------
# Orlik-Solomon degree 2 and the Falk invariant

def i2_basis(arr):
    """Z-basis of the degree-2 relation ideal of the Orlik-Solomon algebra.

    One column per flat Y and pair a < b of non-minimal members:
    del(e_m e_a e_b) = e_a^e_b - e_m^e_b + e_m^e_a with m = min(Y), in
    coordinates over the wedge pairs of atoms.  Returns (columns, labels).
    """
    k = arr.n_atoms
    pidx = pair_index(k)
    cols, labels = [], []
    for f in arr.flats:
        m = f.members[0]
        rest = f.members[1:]
        for s in range(len(rest)):
            for t in range(s + 1, len(rest)):
                a, b = rest[s], rest[t]
                col = {pidx[(a, b)]: 1, pidx[(m, b)]: -1, pidx[(m, a)]: 1}
                cols.append(col)
                labels.append((f.index, a, b))
    return cols, labels


def falk_invariant(arr):
    """Nullity over Q of multiplication E^1 x I^2 -> E^3."""
    k = arr.n_atoms
    cols, _labels = i2_basis(arr)
    if not cols:
        return 0
    pairs = pair_list(k)
    rows = []
    for h in range(k):
        for col in cols:
            row = {}
            for pt, c in col.items():
                a, b = pairs[pt]
                if h == a or h == b:
                    continue
                if h < a:
                    key, s = (h, a, b), 1
                elif h < b:
                    key, s = (a, h, b), -1
                else:
                    key, s = (a, b, h), 1
                row[key] = row.get(key, 0) + s * c
            rows.append({t: v for t, v in row.items() if v})
    return len(rows) - exactla.rank_sparse(rows)
