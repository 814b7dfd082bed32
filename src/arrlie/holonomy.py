"""Holonomy Lie algebra of an arrangement, graded pieces over Z, Q, F_p.

The algebra is the free Lie algebra on the atoms modulo the ideal
generated by the degree-2 elements [x_H, sum of x_K over K in Y] for
every rank-2 flat Y and every atom H in Y.  The ideal is built in the
tensor algebra, as word rows: I_2 from the relations (ij - ji per
bracket), and since I_n = [V, I_{n-1}], degree n from x_j b - b x_j for
every letter j and every kept generator b of degree n-1.  A Lie element
is determined by its coefficients at the Lyndon words, through a
unitriangular and so unimodular change of coordinates from the Lyndon
basis, so each degree is eliminated on those coefficients alone.  All
three rings use the one sparse elimination loop of exactla: over Q and
F_p it gives the rank, over Z it pivots only on +-1 entries and a dense
Smith normal form of the residual rows without a unit entry gives the
divisor chain.  The generators kept for the next degree are those at
the pivot rows (and over Z the residual rows too).

Only HolonomyAlgebra knows that its quotients are kept in Lyndon-word
coordinates; elsewhere a class is a tensor polynomial {word: coeff}, and
brackets, renamings and relator components are freelie.commutator sums.

Also here: commutator-relator presentations with their degree-2 Magnus
coefficients, the degree-2 part of the Orlik-Solomon relation ideal, and
the nullity of multiplication E^1 x I^2 -> E^3 (the Falk invariant).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import exactla, rings
from .arrangement import Arrangement, ArrangementError
from .exactla import QuotientLattice
from .freelie import (DEFAULT_GUARD, SizeGuardError, at_lyndon_words,
                      check_guard, commutator, expand_tree, lie_coords,
                      lyndon_basis, witt_rank, word_coords)

# refusal thresholds per degree; kwarg `override=True` lifts them
DEGREE_ALPHABET_LIMITS = {2: 64, 3: 15, 4: 8}
_HIGH_DEGREE_LIMIT = 4

_GEN_LETTERS = "xyzabcdefghijklmnopqrstuvw"


def holonomy_guard(k, n, override=False, guard=DEFAULT_GUARD):
    check_guard(k, n, guard)
    if override:
        return
    limit = DEGREE_ALPHABET_LIMITS.get(n, _HIGH_DEGREE_LIMIT)
    if n >= 2 and k > limit:
        raise SizeGuardError(
            "holonomy degree %d refuses alphabets beyond %d letters (got %d); "
            "pass override=True to proceed" % (n, limit, k))


@dataclass(frozen=True)
class GradedAbelian:
    """Finitely generated abelian group: free rank and divisor chain (> 1)."""
    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        tor = tuple(int(d) for d in self.torsion)
        for d in tor:
            if d <= 1:
                raise ValueError("torsion divisors must exceed 1")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError("torsion divisors must form a chain")
        object.__setattr__(self, "torsion", tor)


def pair_list(k):
    """Ordered pairs (i < j): the degree-2 Lyndon words over 0..k-1, lex order."""
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def pair_index(k):
    return {p: t for t, p in enumerate(pair_list(k))}


@dataclass(frozen=True)
class RelationSet:
    """Degree-2 relations over the degree-2 basis of the free Lie algebra.

    labels carries provenance: (flat index, atom index) for arrangement
    relations, or None for relations coming from a presentation.
    """
    alphabet: int
    elements: tuple   # of {pair position: coeff} dicts
    labels: tuple
    atom_names: tuple

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


@dataclass(frozen=True)
class Presentation:
    """Finite presentation with commutator relators (zero exponent sums).

    Relators are letter words: lowercase is a generator, uppercase its
    inverse.  Default generator names are taken from 'xyzabc...' in
    order; pass names to override.
    """
    generators: int
    relators: tuple
    names: tuple

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


def magnus_degree2(pres, relator):
    """Degree <= 2 coefficients of the Magnus expansion of one relator.

    Returns ({i: exponent sum}, {(i, j): coefficient of X_i X_j}).
    x |-> 1 + X, x^-1 |-> 1 - X + X^2 - ..., truncated at degree 2.
    """
    k = pres.generators
    d1 = [0] * k
    d2 = {}
    for g, e in pres.letter_sequence(relator):
        # (1 + D1 + D2) * (1 + e*X_g + [e<0]*X_g^2)
        for i in range(k):
            if d1[i]:
                key = (i, g)
                d2[key] = d2.get(key, 0) + d1[i] * e
        if e < 0:
            key = (g, g)
            d2[key] = d2.get(key, 0) + 1
        d1[g] += e
    return d1, {key: c for key, c in d2.items() if c}


def _magnus_column(pres, relator, pidx):
    """Degree-2 Magnus class of one relator over the pair basis (i < j)."""
    d1, d2 = magnus_degree2(pres, relator)
    assert not any(d1), "exponent sums checked at construction"
    col = {}
    for (i, j), c in d2.items():
        if i == j:
            raise ValueError("relator %r: degree-2 part is not a Lie element" % relator)
        if (j, i) in d2 and d2[(j, i)] != -c and i < j:
            raise ValueError("relator %r: degree-2 part is not a Lie element" % relator)
        if i < j:
            col[pidx[(i, j)]] = c
    return col


def holonomy_map_from_presentation(pres):
    """Columns over the pair basis (i < j): the degree-2 Magnus class per relator."""
    pidx = pair_index(pres.generators)
    cols = [_magnus_column(pres, rel, pidx) for rel in pres.relators]
    mat = [[0] * len(cols) for _ in range(len(pidx))]
    for t, col in enumerate(cols):
        for r, c in col.items():
            mat[r][t] = c
    return mat


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


def ideal_words(relset, n, below=None, ids=None):
    """Generators of the degree-n piece I_n of the relation ideal, as words.

    Each is a tensor polynomial {word: coeff}.  I_2 is spanned by the
    relations, a relation sum c [x_i, x_j] being sum c (ij - ji).  For
    n > 2, `below` holds tensor polynomials generating I_{n-1} and the
    generators are x_j b - b x_j for every b in `below` and every letter
    j, b-major, because I_n = [V, I_{n-1}].  `ids` picks generators by
    position; by default all are built.
    """
    k = relset.alphabet
    if n == 2:
        pairs = pair_list(k)
        elements = relset.elements if ids is None else [relset.elements[i] for i in ids]
        return [{w: s * c for t, c in e.items()
                 for w, s in ((pairs[t], 1), (pairs[t][::-1], -1))}
                for e in elements]
    if below is None:
        raise ValueError("degree %d needs a generating set of degree %d" % (n, n - 1))
    if ids is None:
        ids = range(len(below) * k)
    return [commutator({(r % k,): 1}, below[r // k]) for r in ids]


def ideal_rows(relset, n, below=None, guard=DEFAULT_GUARD, override=False):
    """Rows of the generators of I_n (ideal_words) at the degree-n Lyndon words.

    A Lie element is determined by its coefficients at the Lyndon words,
    through a unitriangular change of coordinates from the Lyndon basis
    (freelie.lyndon_columns), so these rows span I_n in coordinates that
    give the same rank and torsion.  Rows are sparse dicts over the
    indices of lyndon_basis(k, n); `below` is as in ideal_words.
    """
    k = relset.alphabet
    holonomy_guard(k, n, override=override, guard=guard)
    if n < 2:
        raise ValueError("the relation ideal starts in degree 2")
    index = lyndon_basis(k, n, guard).index
    return [at_lyndon_words(poly, index) for poly in ideal_words(relset, n, below)]


def _ideal_pieces(relset, ring, guard, override):
    """Eliminate I_2, I_3, ... in turn, yielding one result per degree.

    Over Z the result is the QuotientLattice of the Lyndon-word
    coefficients by I_n, over Q and F_p a GradedAbelian holding the rank
    of the quotient.  Degree n+1 is generated from the words of the
    generators the elimination keeps: the pivot rows over a field, the
    pivot and residual rows over Z.  Those span I_n, since each reduced
    row is its input row plus multiples of earlier pivot rows.
    """
    k = relset.alphabet
    below = None
    for n in itertools.count(2):
        rows = ideal_rows(relset, n, below, guard=guard, override=override)
        if ring == rings.Z:
            q = QuotientLattice(witt_rank(k, n), rows)
            ids = q.spanning_ids
        else:
            rank, ids = exactla.rank_sparse_pivots(rows, p=rings.char(ring))
            q = GradedAbelian(rank=witt_rank(k, n) - rank)
        yield q
        below = ideal_words(relset, n, below, ids)


def holonomy_degrees(source, top, ring=rings.Z, guard=DEFAULT_GUARD, override=False):
    """Degrees 1..top of the holonomy Lie algebra, as a list of GradedAbelian.

    Each degree of the ideal is generated once, from a generating set of
    the degree below, and eliminated on its Lyndon-word coefficients by
    the one sparse loop of exactla: rank_sparse_pivots over Q and F_p, a
    QuotientLattice over Z, which keeps to +-1 pivots and reads the
    divisor chain off the Smith normal form of the residual.
    """
    relset = as_relation_set(source)
    k = relset.alphabet
    if top < 1:
        return []
    if top > 1:
        holonomy_guard(k, top, override=override, guard=guard)
    pieces = _ideal_pieces(relset, ring, guard, override)
    return [GradedAbelian(rank=k)] + [
        GradedAbelian(rank=q.rank, torsion=q.torsion)
        for q in itertools.islice(pieces, top - 1)]


def holonomy_graded(source, n, ring=rings.Z, guard=DEFAULT_GUARD, override=False):
    """Degree-n piece of the holonomy Lie algebra as a GradedAbelian.

    Over Q and F_p the torsion list is empty and rank is the vector-space
    dimension; over Z the divisor chain comes from a QuotientLattice.
    Degrees 2..n-1 are built on the way (see holonomy_degrees).
    """
    if n < 1:
        raise ValueError("degree must be positive")
    return holonomy_degrees(source, n, ring, guard=guard, override=override)[-1]


class HolonomyAlgebra:
    """Quotient coordinates for the graded pieces, and tensor polynomials.

    Degrees are materialized lazily, in order and each once, by the same
    generator as holonomy_degrees over Z: the lattice of degree d is the
    Lyndon-word coefficients of Lie_d modulo the rows of I_d, eliminated
    on +-1 pivots, with a Smith normal form of any residual rows without
    a unit entry.  Coordinates are those of that QuotientLattice, so they
    depend on the generating set used and on the pivot order.  A class is
    worked with as a tensor polynomial, through two conversions: element
    lifts and expands the Lyndon bracketings, coords reads the Lyndon-word
    coefficients and projects.  project and lift convert from and to the
    Lyndon basis, through the table of freelie.lyndon_columns.
    """

    def __init__(self, source, max_degree, guard=DEFAULT_GUARD, override=False):
        self.relset = as_relation_set(source)
        self.alphabet = self.relset.alphabet
        self.max_degree = max_degree
        self.guard = guard
        for d in range(2, max_degree + 1):
            holonomy_guard(self.alphabet, d, override=override, guard=guard)
        # degree 1 has no relations, so its coordinates are the letters
        self._quotients = [QuotientLattice(self.alphabet, [])]
        self._pieces = _ideal_pieces(self.relset, rings.Z, guard, override)

    def quotient(self, d):
        """QuotientLattice of the degree-d Lyndon-word coefficients by I_d.

        1 <= d <= max_degree.
        """
        if not 1 <= d <= self.max_degree:
            raise ValueError("degree %d outside 1..%d" % (d, self.max_degree))
        while len(self._quotients) < d:
            self._quotients.append(next(self._pieces))
        return self._quotients[d - 1]

    def rank(self, d):
        return self.quotient(d).rank

    def torsion(self, d):
        return self.quotient(d).torsion

    def dim(self, d):
        return self.quotient(d).dim

    def project(self, d, vec):
        """Quotient coordinates of a degree-d element given over the Lyndon basis.

        vec may be a sparse dict or a dense list.
        """
        return self.quotient(d).project(word_coords(self.alphabet, d, vec, self.guard))

    def lift(self, d, coords):
        """A Lyndon-basis representative of the class with the given coordinates."""
        return lie_coords(self.alphabet, d, self.quotient(d).lift(coords), self.guard)

    def element(self, d, coords):
        """Tensor polynomial {word: coeff} of the lift of a class: its
        Lyndon-basis bracketings, expanded."""
        trees = lyndon_basis(self.alphabet, d, self.guard).trees
        poly = {}
        for t, v in zip(trees, self.lift(d, coords)):
            if v:
                for w, c in expand_tree(t).items():
                    poly[w] = poly.get(w, 0) + v * c
        return {w: c for w, c in poly.items() if c}

    def coords(self, d, poly):
        """Quotient coordinates of a degree-d Lie element given as a tensor
        polynomial: its coefficients at the Lyndon words, projected."""
        index = lyndon_basis(self.alphabet, d, self.guard).index
        return self.quotient(d).project(at_lyndon_words(poly, index))

    def bracket_coords(self, d1, c1, d2, c2):
        """Bracket of quotient classes, in degree d1+d2 coordinates (None past truncation)."""
        d = d1 + d2
        if d > self.max_degree:
            return None
        return self.coords(d, commutator(self.element(d1, c1), self.element(d2, c2)))


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


def _wedge3_index(k):
    trips = [(a, b, c) for a in range(k) for b in range(a + 1, k) for c in range(b + 1, k)]
    return trips, {t: i for i, t in enumerate(trips)}


def falk_invariant(arr):
    """Nullity over Q of multiplication E^1 x I^2 -> E^3."""
    k = arr.n_atoms
    cols, _labels = i2_basis(arr)
    if not cols:
        return 0
    pairs = pair_list(k)
    _trips, tidx = _wedge3_index(k)
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
                ti = tidx[key]
                row[ti] = row.get(ti, 0) + s * c
            rows.append({t: v for t, v in row.items() if v})
    return len(rows) - exactla.rank_sparse(rows)
