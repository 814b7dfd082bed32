"""Reference implementations the library no longer uses, kept as test oracles.

* check_guard, the size guard of the free Lie algebra on k letters in
  degree n, whose honest cost is k^n.
* The Lyndon basis of the free Lie algebra: Lyndon words of length n over
  letters 0..k-1 in lex order (Duval), each carrying its standard
  bracketing (split at the lexicographically least proper suffix, the
  longest proper Lyndon suffix), memoized per (k, n) as a LyndonBasis;
  and commutator(p, q) = pq - qp of tensor polynomials {word: coeff}.
* Free Lie algebra arithmetic on the Lyndon basis: LieElement and bracket,
  rewriting tensor commutators triangularly (tensor_to_lyndon), and
  word_coords, the Lyndon-basis to Lyndon-word change of coordinates.
* Lie elements as tensor polynomials read at the Lyndon words.  The
  expansion of a bracketed Lyndon word w is w plus lex-greater words
  (Chen-Fox-Lyndon), so a Lie element is determined by its coefficients
  at the Lyndon words alone: reading them off (at_lyndon_words) is a
  unitriangular change of coordinates (lyndon_columns), unimodular over
  Z, and lie_coords inverts it.
* The tensor-polynomial path through a HolonomyAlgebra: element expands
  a class into a tensor polynomial, coords reads a Lie polynomial back
  into quotient coordinates through its Lyndon-basis coefficients.
* The word-row oracle for the holonomy Lie algebra: the relation ideal
  cut out of the free Lie algebra degree by degree.  I_2 is spanned by
  the relations (ij - ji per bracket) and, since I_n = [V, I_{n-1}],
  degree n by x_j b - b x_j for every letter j and every kept generator b
  of degree n-1.  Each degree is eliminated on the coefficients at the
  Lyndon words, a unimodular change of coordinates from the Lyndon basis.
  It shares no code with the tower of HolonomyAlgebra beyond exactla.
* bracket_coords, the bracket of a HolonomyAlgebra on dense coordinate
  vectors.
* Dense structure-constant tables of a graded Lie ring
  (graded_lie_from_tables): their shapes, antisymmetry and [e, e] = 0
  checked entry by entry, then handed to GradedLie as its products s < t.
* The exterior complex of a truncated graded Lie ring over its flat
  basis: every pair and every triple of basis classes, whatever their
  weight (ce_differentials, flat_ce_h2), and the Jacobi identity checked
  on dense vectors triple by triple (check_jacobi), each densifying the
  products of the ring itself.  The library builds the same complex
  weight by weight (holonomy.wedge_block).
* FullRowTower, the holonomy tower built from every triple row of each
  weight (holonomy.wedge_block with nothing skipped), over its own
  brackets: the oracle for the rows the library's tower leaves out.
* The sparse elimination kernel as it was when every row update copied
  the row and a second loop diffed the old and new rows to keep the
  column counts (copying_eliminate): the oracle for exactla._eliminate,
  which updates rows in place.  It keeps the ring Q, which the library
  reads off its integer pass; rank_sparse_pivots reads a basis of the
  row span over Q off it, and over F_p off exactla._eliminate.
* det_int, the Bareiss determinant of a dense integer matrix, the oracle
  for the sparse invertibility test of the verifier and for unimodularity,
  and the dense matrix helpers mat_mul, mat_sub and is_zero, with
  sparse_rows and dense_rows between dense matrices and the sparse rows
  {column: entry} the verifier reads.
* dense_check_diagram, the diagram check as the verifier made it on dense
  matrices: the products by mat_mul, then the first column where any row
  differs: the oracle for decomp.check_diagram, which reads sparse rows.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass, field
from functools import partial
from math import gcd

from arrlie import exactla, rings
from arrlie.exactla import QuotientLattice
from arrlie.freelie import DEFAULT_GUARD, SizeGuardError, witt_rank
from arrlie.holonomy import GradedAbelian, as_relation_set, pair_list, wedge_block
from arrlie.nilpotent import GradedLie

_basis_cache = {}
_pair_bracket_cache = {}
_expand_cache = {}
_columns_cache = {}
# per HolonomyAlgebra: basis class -> polynomial, bracketing -> coordinates
_element_cache = weakref.WeakKeyDictionary()
_tree_cache = weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# the Lyndon basis of the free Lie algebra

def check_guard(alphabet, degree, guard=DEFAULT_GUARD):
    """Refuse when max(alphabet, 2) ** degree exceeds the guard.

    A one-letter alphabet counts as two, so the guard also bounds the
    degree there; the bit-length test refuses huge degrees before any
    power is computed.
    """
    if alphabet < 1 or degree < 1:
        raise ValueError("alphabet and degree must be positive")
    base = max(alphabet, 2)
    if degree > guard.bit_length() or base ** degree > guard:
        raise SizeGuardError(
            "alphabet %d at degree %d exceeds the guard (%d^%d > %d); "
            "raise the guard explicitly to proceed"
            % (alphabet, degree, base, degree, guard))


def lyndon_words(k, n):
    """All Lyndon words of length exactly n over 0..k-1, in lex order (Duval)."""
    if k < 1 or n < 1:
        return []
    out = []
    w = [0]
    while True:
        if len(w) == n:
            out.append(tuple(w))
        # periodic extension to length n, then increment the last slot
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == k - 1:
            w.pop()
        if not w:
            return out
        w[-1] += 1


def is_lyndon(w):
    """A nonempty word is Lyndon iff it is strictly smaller than every proper suffix."""
    if not w:
        return False
    return all(tuple(w) < tuple(w[i:]) for i in range(1, len(w)))


def standard_factorization(w):
    """Split a Lyndon word of length >= 2 at its lex-least proper suffix."""
    assert len(w) >= 2
    best = 1
    for i in range(2, len(w)):
        if w[i:] < w[best:]:
            best = i
    return w[:best], w[best:]


def _bracketing(w, memo):
    t = memo.get(w)
    if t is None:
        if len(w) == 1:
            t = w[0]
        else:
            u, v = standard_factorization(w)
            t = (_bracketing(u, memo), _bracketing(v, memo))
        memo[w] = t
    return t


@dataclass(frozen=True)
class LyndonBasis:
    alphabet: int
    degree: int
    words: tuple
    trees: tuple
    index: dict = field(repr=False)

    def __len__(self):
        return len(self.words)


def lyndon_basis(k, n, guard=DEFAULT_GUARD):
    """Memoized Lyndon basis in degree n."""
    check_guard(k, n, guard)
    key = (k, n)
    b = _basis_cache.get(key)
    if b is not None:
        return b
    words = lyndon_words(k, n)
    memo = {}
    trees = tuple(_bracketing(w, memo) for w in words)
    b = LyndonBasis(alphabet=k, degree=n, words=tuple(words), trees=trees,
                    index={w: i for i, w in enumerate(words)})
    _basis_cache[key] = b
    return b


def commutator(p, q):
    """pq - qp of tensor polynomials {word: coeff}, without zero terms."""
    out = {}
    for wa, ca in p.items():
        for wb, cb in q.items():
            c = ca * cb
            w = wa + wb
            out[w] = out.get(w, 0) + c
            w = wb + wa
            out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}



# ---------------------------------------------------------------------------
# Lie elements as tensor polynomials, read at the Lyndon words

def expand_tree(tree):
    """Iterated-commutator expansion of a bracketing tree in the tensor algebra.

    Returns {word: int coefficient}.  Trees are letters or (left, right) pairs.
    """
    if isinstance(tree, int):
        return {(tree,): 1}
    e = _expand_cache.get(tree)
    if e is not None:
        return e
    out = commutator(expand_tree(tree[0]), expand_tree(tree[1]))
    _expand_cache[tree] = out
    return out


def at_lyndon_words(poly, index):
    """Coefficients of a tensor polynomial at the words of index, as
    {position: coeff}; index maps Lyndon words to positions, as
    LyndonBasis.index does."""
    return {i: c for w, c in poly.items() if (i := index.get(w)) is not None}


def lyndon_columns(k, n, guard=DEFAULT_GUARD):
    """Coefficients at the degree-n Lyndon words of each basis element.

    Column i is expand_tree of the i-th bracketing restricted to Lyndon
    words, as {word index: coeff}: 1 at i and otherwise only at later
    indices, since the expansion of a bracketed Lyndon word is the word
    plus lex-greater words (Chen-Fox-Lyndon).  Memoized.
    """
    key = (k, n)
    cols = _columns_cache.get(key)
    if cols is None:
        basis = lyndon_basis(k, n, guard)
        cols = tuple(at_lyndon_words(expand_tree(t), basis.index)
                     for t in basis.trees)
        _columns_cache[key] = cols
    return cols


def lie_coords(k, n, x, guard=DEFAULT_GUARD):
    """Basis coordinates of the degree-n Lie element with Lyndon-word coefficients x.

    One pass of back substitution down the unitriangular column table.
    """
    a = list(x)
    for i, col in enumerate(lyndon_columns(k, n, guard)):
        v = a[i]
        if v:
            for j, c in col.items():
                a[j] -= v * c
            a[i] = v
    return a


# ---------------------------------------------------------------------------
# the tensor-polynomial path through a HolonomyAlgebra

def element(alg, d, coords):
    """Tensor polynomial {word: coeff} of a lift of a degree-d class: the
    sum over basis classes of its coordinates times their polynomials."""
    poly = {}
    for j, v in enumerate(coords):
        if v:
            for w, c in _class_element(alg, (d, j)).items():
                poly[w] = poly.get(w, 0) + v * c
    return {w: c for w, c in poly.items() if c}


def _class_element(alg, s):
    """Polynomial of a basis class: its lift to pair coordinates, each
    pair (a, b) expanded as the commutator of their polynomials."""
    memo = _element_cache.setdefault(alg, {})
    poly = memo.get(s)
    if poly is None:
        d, j = s
        if d == 1:
            poly = {(j,): 1}
        else:
            pairs = alg.pairs(d)
            acc = {}
            for col, lam in sorted(alg.quotient(d).lift({j: 1}).items()):
                a, b = pairs[col]
                for w, c in commutator(_class_element(alg, a),
                                       _class_element(alg, b)).items():
                    acc[w] = acc.get(w, 0) + lam * c
            poly = {w: c for w, c in acc.items() if c}
        memo[s] = poly
    return poly


def coords(alg, d, poly):
    """Quotient coordinates of a degree-d Lie element given as a tensor
    polynomial: its Lyndon-basis coefficients (lie_coords of its
    coefficients at the Lyndon words) times the coordinates of each
    Lyndon bracketing, reduced."""
    basis = lyndon_basis(alg.alphabet, d)
    x = [0] * len(basis)
    for w, c in poly.items():
        i = basis.index.get(w)
        if i is not None:
            x[i] = c
    acc = {}
    for tree, v in zip(basis.trees, lie_coords(alg.alphabet, d, x)):
        if v:
            for r, c in _tree_coords(alg, tree)[1].items():
                acc[r] = acc.get(r, 0) + v * c
    return dense(alg.quotient(d), alg.quotient(d).reduce(acc))


def sparse(vec):
    """The sparse dict of a dense vector's nonzero entries."""
    return {i: v for i, v in enumerate(vec) if v}


def dense(q, coords):
    """The dense coordinate list of sparse coordinates of the lattice q."""
    return [coords.get(i, 0) for i in range(q.dim)]


def dense_reduce(q, vec):
    """q.reduce read through dense vectors: a dense list, torsion reduced."""
    return dense(q, q.reduce(sparse(vec)))


def dense_project(q, x):
    """q.project of a dense ambient vector, as a dense coordinate list."""
    return dense(q, q.project(sparse(x)))


def _tree_coords(alg, tree):
    """(degree, sparse coordinates) of a bracketing tree of letters."""
    memo = _tree_cache.setdefault(alg, {})
    got = memo.get(tree)
    if got is None:
        if isinstance(tree, int):
            got = (1, {tree: 1})
        else:
            (d1, u), (d2, v) = _tree_coords(alg, tree[0]), _tree_coords(alg, tree[1])
            got = (d1 + d2, alg.bracket(d1, u, d2, v))
        memo[tree] = got
    return got


def bracket_coords(alg, d1, c1, d2, c2):
    """Bracket of dense quotient classes of a HolonomyAlgebra, in dense
    degree d1 + d2 coordinates (None past its max_degree)."""
    d = d1 + d2
    if d > alg.max_degree:
        return None
    vec = alg.bracket(d1, {i: v for i, v in enumerate(c1) if v},
                      d2, {i: v for i, v in enumerate(c2) if v})
    return [vec.get(r, 0) for r in range(alg.dim(d))]


# ---------------------------------------------------------------------------
# free Lie algebra arithmetic on the Lyndon basis

def tensor_to_lyndon(poly, k, n, guard=DEFAULT_GUARD):
    """Rewrite a degree-n Lie element given in the tensor algebra into basis coords.

    Raises ValueError if the polynomial is not a Z-combination of Lyndon
    bracketings (i.e. not a Lie element).
    """
    basis = lyndon_basis(k, n, guard)
    p = {w: c for w, c in poly.items() if c}
    out = {}
    while p:
        w = min(p)
        i = basis.index.get(w)
        if i is None:
            raise ValueError("not a Lie element: leading word %r is not Lyndon" % (w,))
        c = p[w]
        for w2, c2 in expand_tree(basis.trees[i]).items():
            v = p.get(w2, 0) - c * c2
            if v:
                p[w2] = v
            else:
                p.pop(w2, None)
        out[i] = out.get(i, 0) + c
    return {i: c for i, c in out.items() if c}


def word_coords(k, n, vec, guard=DEFAULT_GUARD):
    """Lyndon-word coefficients (dense) of a degree-n element given over the basis.

    vec may be a sparse dict or a dense list.
    """
    cols = lyndon_columns(k, n, guard)
    out = [0] * len(cols)
    for i, v in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
        if v:
            for j, c in cols[i].items():
                out[j] += v * c
    return out


def basis_pair_bracket(k, da, db, ia, ib, guard=DEFAULT_GUARD):
    """[basis(da)[ia], basis(db)[ib]] in degree da+db basis coordinates, over Z."""
    key = (k, da, db, ia, ib)
    r = _pair_bracket_cache.get(key)
    if r is not None:
        return r
    r = tensor_to_lyndon(commutator(expand_tree(lyndon_basis(k, da, guard).trees[ia]),
                                    expand_tree(lyndon_basis(k, db, guard).trees[ib])),
                         k, da + db, guard)
    _pair_bracket_cache[key] = r
    return r


@dataclass(frozen=True)
class LieElement:
    """Homogeneous free-Lie element: sparse coords over the degree-n Lyndon basis."""
    alphabet: int
    degree: int
    coeffs: dict
    ring: tuple = rings.Z

    def __post_init__(self):
        clean = {}
        for i, c in self.coeffs.items():
            c = rings.coeff(self.ring, c)
            if c:
                clean[int(i)] = c
        object.__setattr__(self, "coeffs", clean)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._compat(other)
        c = dict(self.coeffs)
        for i, v in other.coeffs.items():
            c[i] = c.get(i, 0) + v
        return LieElement(self.alphabet, self.degree, c, self.ring)

    def __sub__(self, other):
        self._compat(other)
        c = dict(self.coeffs)
        for i, v in other.coeffs.items():
            c[i] = c.get(i, 0) - v
        return LieElement(self.alphabet, self.degree, c, self.ring)

    def scale(self, s):
        return LieElement(self.alphabet, self.degree,
                          {i: s * v for i, v in self.coeffs.items()}, self.ring)

    def _compat(self, other):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch: %d vs %d" % (self.alphabet, other.alphabet))
        if self.ring != other.ring:
            raise ValueError("ring mismatch: %s vs %s" % (rings.name(self.ring), rings.name(other.ring)))

    def vector(self):
        """Dense coordinate list over the degree-n Lyndon basis."""
        n = len(lyndon_basis(self.alphabet, self.degree))
        v = [0] * n
        for i, c in self.coeffs.items():
            v[i] = c
        return v


def lie_zero(k, n, ring=rings.Z):
    return LieElement(k, n, {}, ring)


def lie_generator(k, i, ring=rings.Z):
    if not 0 <= i < k:
        raise ValueError("generator index %d out of range for alphabet %d" % (i, k))
    return LieElement(k, 1, {i: 1}, ring)


def bracket(a, b, guard=DEFAULT_GUARD):
    """Lie bracket [a, b] of homogeneous elements, rewritten into the basis."""
    a._compat(b)
    n = a.degree + b.degree
    check_guard(a.alphabet, n, guard)
    out = {}
    for ia, ca in sorted(a.coeffs.items()):
        for ib, cb in sorted(b.coeffs.items()):
            if a.degree == b.degree and ia == ib:
                continue
            if a.degree == b.degree and ib < ia:
                base = basis_pair_bracket(a.alphabet, b.degree, a.degree, ib, ia, guard)
                s = -ca * cb
            else:
                base = basis_pair_bracket(a.alphabet, a.degree, b.degree, ia, ib, guard)
                s = ca * cb
            for i, c in base.items():
                out[i] = out.get(i, 0) + s * c
    return LieElement(a.alphabet, n, out, a.ring)


# ---------------------------------------------------------------------------
# the word-row oracle

def ideal_words(relset, n, below=None, ids=None):
    """Generators of the degree-n piece I_n of the relation ideal, as words.

    Each is a tensor polynomial {word: coeff}.  I_2 is spanned by the
    relations, a relation sum c [x_i, x_j] being sum c (ij - ji).  For
    n > 2, `below` holds tensor polynomials generating I_{n-1} and the
    generators are x_j b - b x_j for every b in `below` and every letter
    j, b-major.  `ids` picks generators by position; by default all are
    built.
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


def ideal_rows(relset, n, below=None, guard=DEFAULT_GUARD):
    """Rows of the generators of I_n (ideal_words) at the degree-n Lyndon
    words, as sparse dicts over the indices of lyndon_basis(k, n)."""
    index = lyndon_basis(relset.alphabet, n, guard).index
    return [at_lyndon_words(poly, index) for poly in ideal_words(relset, n, below)]


def word_row_pieces(source, ring=rings.Z, guard=DEFAULT_GUARD):
    """Eliminate I_2, I_3, ... in turn, yielding (piece, kept words) per degree.

    Over Z the piece is the QuotientLattice of the Lyndon-word
    coefficients by I_n, over Q and F_p the rank of the quotient.  The
    kept words generate I_n: the pivot rows over a field, the pivot and
    residual rows over Z.
    """
    relset = as_relation_set(source)
    k = relset.alphabet
    below = None
    for n in itertools.count(2):
        rows = ideal_rows(relset, n, below, guard=guard)
        if ring == rings.Z:
            q = QuotientLattice(witt_rank(k, n), rows)
            # the input rows at the pivot and residual rows span I_n: each
            # reduced row is its input row plus multiples of earlier pivots
            pivots, residual = exactla._eliminate(rows, "Z")
            ids = [rid for _c, rid, _row in pivots] + [rid for rid, _row in residual]
        else:
            rank, ids = rank_sparse_pivots(rows, p=rings.char(ring))
            q = witt_rank(k, n) - rank
        below = ideal_words(relset, n, below, ids)
        yield q, below


def word_row_degrees(source, top, ring=rings.Z, guard=DEFAULT_GUARD):
    """(rank, torsion) of degrees 1..top from the word rows of the ideal."""
    k = as_relation_set(source).alphabet
    out = [(k, ())]
    for q, _words in itertools.islice(word_row_pieces(source, ring, guard), top - 1):
        out.append((q.rank, q.torsion) if ring == rings.Z else (q, ()))
    return out

# ---------------------------------------------------------------------------
# the exterior complex over the flat basis of a truncation

def graded_lie_from_tables(degrees, tables, validate=True):
    """GradedLie from dense structure-constant tables.

    tables maps (d1, d2) with d1 + d2 <= top to the table whose entry
    [i][j] is the coordinate vector of [e_i, e_j] in degree d1 + d2.  The
    shapes, antisymmetry and [e, e] = 0 are checked entry by entry modulo
    the divisors, and the entries i < j (in class order) become the
    products of the GradedLie.
    """
    top = len(degrees)
    divs = [None] + [[0] * g.rank + list(g.torsion) for g in degrees]

    def is_zero_mod(d, vec):
        return not any(v % dv if dv else v for v, dv in zip(vec, divs[d]))

    pairs = [(d1, d2) for d1 in range(1, top + 1)
             for d2 in range(1, top + 1 - d1)]
    for d1, d2 in pairs:
        if (d1, d2) not in tables:
            raise ValueError("missing bracket table for degrees (%d, %d)"
                             % (d1, d2))
        table = tables[(d1, d2)]
        if len(table) != len(divs[d1]):
            raise ValueError("bracket table (%d, %d) has wrong height"
                             % (d1, d2))
        for row in table:
            if len(row) != len(divs[d2]):
                raise ValueError("bracket table (%d, %d) has wrong width"
                                 % (d1, d2))
            if any(len(vec) != len(divs[d1 + d2]) for vec in row):
                raise ValueError("bracket value in table (%d, %d) "
                                 "lands in the wrong degree" % (d1, d2))
    products = {}
    for d1, d2 in pairs:
        table, other = tables[(d1, d2)], tables[(d2, d1)]
        for i, row in enumerate(table):
            for j, vec in enumerate(row):
                sym = [x + y for x, y in zip(vec, other[j][i])]
                if not is_zero_mod(d1 + d2, sym):
                    raise ValueError("bracket tables are not antisymmetric "
                                     "at degrees (%d, %d)" % (d1, d2))
                if d1 == d2 and i == j and not is_zero_mod(d1 + d2, vec):
                    raise ValueError("nonzero bracket [e, e] in degree %d" % d1)
                if (d1, i) < (d2, j):
                    products[(d1, i), (d2, j)] = {r: v for r, v in enumerate(vec)
                                                  if v}
    return GradedLie(degrees, products, validate=validate)


def dense_bracket(L, s, t):
    """Dense coordinates of [s, t] for basis classes s, t of L, read off
    its products with [t, s] = -[s, t] and [s, s] = 0; None past the top."""
    d = s[0] + t[0]
    if d > L.top:
        return None
    out = [0] * L.dim(d)
    if s != t:
        sign = 1 if s < t else -1
        for r, v in L.products.get((min(s, t), max(s, t)), {}).items():
            out[r] = sign * v
    return out


def bracket_vec(L, d1, u, d2, v):
    """[u, v] for dense u in degree d1 and v in degree d2 of L, reduced by
    the divisors; None past the top."""
    if d1 + d2 > L.top:
        return None
    out = [0] * L.dim(d1 + d2)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                vec = dense_bracket(L, (d1, i), (d2, j))
                out = [x + a * b * y for x, y in zip(out, vec)]
    divs = L.divisors(d1 + d2)
    return [x % dv if dv else x for x, dv in zip(out, divs)]


def check_jacobi(L):
    """Raise ValueError unless every triple of basis classes of L with
    degree sum <= top satisfies the Jacobi identity, and gcd(d_s, d_t)
    kills [s, t] for every pair, on dense vectors."""

    def _jacobi(args):
        a, b, c = args
        d = a[0] + b[0] + c[0]
        acc = [0] * L.dim(d)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            ez = [0] * L.dim(z[0])
            ez[z[1]] = 1
            term = bracket_vec(L, x[0] + y[0], dense_bracket(L, x, y), z[0], ez)
            acc = [p + q for p, q in zip(acc, term)]
        return not any(v % dv if dv else v for v, dv in zip(acc, L.divisors(d)))

    members, _offsets, divs = _flat_basis(L)
    for (a, da), (b, db) in itertools.combinations(zip(members, divs), 2):
        g, vec = gcd(da, db), dense_bracket(L, a, b)
        if g and vec is not None and any(
                g * v % dv if dv else v for v, dv in zip(vec, L.divisors(a[0] + b[0]))):
            raise ValueError("structure constants violate the torsion")
    triples = []
    for a, b, c in itertools.combinations(members, 3):
        if a[0] + b[0] + c[0] <= L.top:
            triples.append((a, b, c))
    if not all(_jacobi(t) for t in triples):
        raise ValueError("structure constants violate the Jacobi identity")


def _flat_basis(L):
    basis = [(d, i) for d in range(1, L.top + 1) for i in range(L.dim(d))]
    offsets = {}
    pos = 0
    for d in range(1, L.top + 1):
        offsets[d] = pos
        pos += L.dim(d)
    divs = []
    for d in range(1, L.top + 1):
        divs.extend(L.divisors(d))
    return basis, offsets, divs


def ce_differentials(L):
    """Sparse columns of d2: wedge^2 -> L and d3: wedge^3 -> wedge^2.

    Returns (basis, pairs, d2cols, d3cols); columns are dicts over the flat
    basis of L (for d2) or over the pair positions (for d3).  d2 . d3 = 0
    exactly whenever the graded pieces are torsion-free.
    """
    basis, offsets, _divs = _flat_basis(L)
    n = len(basis)
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    ppos = {pr: q for q, pr in enumerate(pairs)}

    def _bracket_flat(s, t):
        vec = dense_bracket(L, basis[s], basis[t])
        if vec is None:
            return {}
        off = offsets[basis[s][0] + basis[t][0]]
        return {off + c: val for c, val in enumerate(vec) if val}

    d2cols = []
    for s, t in pairs:
        b = _bracket_flat(s, t)
        d2cols.append({c: -val for c, val in b.items()})

    def _wedge_into(out, entries, t, sign):
        for r, val in entries.items():
            if r == t:
                continue
            if r < t:
                out[ppos[(r, t)]] = out.get(ppos[(r, t)], 0) + sign * val
            else:
                out[ppos[(t, r)]] = out.get(ppos[(t, r)], 0) - sign * val

    def _d3(triple):
        s, t, u = triple
        out = {}
        _wedge_into(out, _bracket_flat(s, t), u, -1)
        _wedge_into(out, _bracket_flat(s, u), t, +1)
        _wedge_into(out, _bracket_flat(t, u), s, -1)
        return {q: v for q, v in out.items() if v}

    triples = list(itertools.combinations(range(n), 3))
    d3cols = [_d3(t) for t in triples]
    return basis, pairs, d2cols, d3cols


def _field_truncation(L, p):
    """Surviving flat coordinates of L over Q (p=None) or F_p."""
    basis, offsets, divs = _flat_basis(L)
    keep = []
    for idx, dv in enumerate(divs):
        if dv == 0 or (p is not None and dv % p == 0):
            keep.append(idx)
    return basis, offsets, keep


def flat_ce_h2(L, ring=rings.Z):
    """H2 of the exterior complex of a truncated graded Lie ring.

    Over Z returns rank and elementary divisors, read from one quotient
    lattice of the boundaries lifted into the cycles, as nilpotent.ce_h2
    does; over Q or F_p, the dimension of H2 of L tensored with the field.
    """
    p = rings.char(ring)
    _basis, pairs, d2cols, d3cols = ce_differentials(L)
    if ring != rings.Z:
        _b, _o, keep = _field_truncation(L, p)
        kept = set(keep)
        kpos = {c: i for i, c in enumerate(keep)}
        live_pairs = [q for q, (s, t) in enumerate(pairs)
                      if s in kept and t in kept]
        lp = {q: i for i, q in enumerate(live_pairs)}
        d2rows = []
        for q in live_pairs:
            col = {kpos[c]: v for c, v in d2cols[q].items() if c in kept}
            d2rows.append(col)
        d3rows = []
        for col in d3cols:
            filt = {lp[q]: v for q, v in col.items() if q in lp}
            if filt:
                d3rows.append(filt)
        dim_l2 = len(live_pairs)
        rank = dim_l2 - exactla.rank_sparse(d2rows, p=p) \
                      - exactla.rank_sparse(d3rows, p=p)
        return GradedAbelian(rank=rank)

    divs = _flat_basis(L)[2]
    np_ = len(pairs)
    # the column of D for each torsion coordinate, after the pair columns
    tcol = {}
    for i, dv in enumerate(divs):
        if dv:
            tcol[i] = np_ + len(tcol)
    boundaries = [{q: gcd(divs[s], divs[t])} for q, (s, t) in enumerate(pairs)
                  if divs[s] or divs[t]]
    boundaries += [col for col in d3cols if col]
    lifted = []
    for b in boundaries:
        image = {}
        for q, v in b.items():
            for c, w in d2cols[q].items():
                image[c] = image.get(c, 0) + v * w
        row = dict(b)
        for c, v in image.items():
            if not v:
                continue
            if c not in tcol or v % divs[c]:
                raise ArithmeticError("boundaries escaped the cycle lattice")
            row[tcol[c]] = -v // divs[c]
        lifted.append(row)
    quot = QuotientLattice(np_ + len(tcol), lifted)
    d2rank = exactla.rank_sparse(d2cols + [{i: divs[i]} for i in tcol])
    return GradedAbelian(rank=quot.rank - d2rank, torsion=quot.torsion)


# ---------------------------------------------------------------------------
# the holonomy tower from every triple row

class FullRowTower:
    """The holonomy tower of a source with every triple row: degree n >= 2
    is the QuotientLattice of the whole weight-n block of
    holonomy.wedge_block, called without rows to skip, over the brackets
    of this tower's own degrees below n.  The oracle for the tower of
    HolonomyAlgebra, which leaves out the rows that d3 d4 = 0 proves
    redundant."""

    def __init__(self, source):
        relset = as_relation_set(source)
        self.relations = [dict(e) for e in relset.elements]
        self.lattices = [QuotientLattice(relset.alphabet, [])]
        self.cols = [{}]
        self.products = {}

    def lattice(self, d):
        while len(self.lattices) < d:
            n = len(self.lattices) + 1
            dims = [0] + [q.dim for q in self.lattices]
            cols, torsion_rows, triple_rows = wedge_block(
                n, dims, self.divisor, self.product)
            rows = (self.relations if n == 2 else []) + torsion_rows + triple_rows
            self.lattices.append(QuotientLattice(len(cols), rows))
            self.cols.append(cols)
        return self.lattices[d - 1]

    def divisor(self, s):
        q = self.lattices[s[0] - 1]
        return 0 if s[1] < q.rank else q.torsion[s[1] - q.rank]

    def product(self, s, t):
        vec = self.products.get((s, t))
        if vec is None:
            d = s[0] + t[0]
            vec = self.products[s, t] = self.lattice(d).project(
                {self.cols[d - 1][s, t]: 1})
        return vec


# ---------------------------------------------------------------------------
# sparse elimination

def rank_sparse_pivots(rows, p=None):
    """(rank, basis) of the row span over Q (p=None) or F_p.

    basis lists the input indices of the pivot rows, in elimination order.
    Those input rows are a basis of the span: each reduced pivot row is a
    nonzero multiple of its input row plus earlier pivot rows.
    """
    pivots, _ = (copying_eliminate(rows, "Q") if p is None
                 else exactla._eliminate(rows, p))
    return len(pivots), [rid for _c, rid, _row in pivots]


def copying_eliminate(rows, ring, skipped=None):
    """exactla._eliminate as it was before rows were updated in place: the
    oracle for the in-place kernel.  Sparse elimination over ring "Q", "Z"
    or Z/m for an int m > 1.  When skipped is a list, each column popped
    without a unit entry is appended to it.

    rows: iterable of {col: int} rows (copied, not modified).  Returns
    (pivots, residual): pivots lists (col, input id, reduced row) in
    elimination order, where the row is nonzero at col and zero at every
    column pivoted before it; residual lists (input id, reduced row) for
    the rows left nonzero, in input order.  Over Z/m every entry is a
    symmetric residue in (-m/2, m/2].  The pivot column is the one
    with the fewest live rows (ties: lowest column), taken from a lazy
    heap; the pivot row is the shortest eligible row in it, then the one
    with the smallest entry there, then the first.  Only units of the ring
    are eligible: v with gcd(v, m) = 1 over Z/m, and over Z = Z/0 that is
    +-1.  Over Q and over a prime field every nonzero entry is a unit and
    the residual is empty.  So every row operation is invertible: over Z
    it is unimodular, and pivot rows plus residual span the input lattice.
    A column without a unit entry is skipped until a later pivot row
    touches it, so no residual row has a unit entry.  Only the columns of
    a pivot row change (in count or in entries), so only those are pushed
    again; a popped entry whose count is out of date is dropped.  The
    ring's row update is picked once and applied to all the rows of a
    pivot column in one call.
    """
    if ring == "Q":
        update, m = _update_q, None
    elif ring == "Z":
        update, m = _update_z, 0
    else:
        update, m = partial(_update_mod, ring), ring
    live = {}
    for rid, r in enumerate(rows):
        if ring in ("Q", "Z"):
            d = {c: v for c, v in r.items() if v != 0}
        else:
            d = {}
            for c, v in r.items():
                v %= ring
                if v:
                    d[c] = v - ring if 2 * v > ring else v
        if d:
            live[rid] = d
    col_rows = {}
    for rid, row in live.items():
        for c in row:
            col_rows.setdefault(c, set()).add(rid)
    heap = [(len(s), c) for c, s in col_rows.items()]
    heapq.heapify(heap)
    pivots = []
    while live and heap:
        n, col = heapq.heappop(heap)
        rids = col_rows.get(col)
        if rids is None or len(rids) != n:
            continue
        if m is not None:
            rids = [rid for rid in rids if gcd(live[rid][col], m) == 1]
            if not rids:
                if skipped is not None:
                    skipped.append(col)
                continue
        prid = min(rids, key=lambda rid: (len(live[rid]), abs(live[rid][col]), rid))
        prow = live.pop(prid)
        pivots.append((col, prid, prow))
        for c in prow:
            s = col_rows[c]
            s.discard(prid)
            if not s:
                del col_rows[c]
        rids = sorted(col_rows.pop(col, ()))
        if rids:
            olds = [live[rid] for rid in rids]
            for rid, row, new in zip(rids, olds, update(prow, col, olds)):
                # entries change only in the columns of the pivot row
                for c in prow:
                    if c == col:
                        continue
                    if c in new:
                        if c not in row:
                            col_rows.setdefault(c, set()).add(rid)
                    elif c in row:
                        s = col_rows[c]
                        s.discard(rid)
                        if not s:
                            del col_rows[c]
                if new:
                    live[rid] = new
                else:
                    del live[rid]
        for c in prow:
            s = col_rows.get(c)
            if s is not None:
                heapq.heappush(heap, (len(s), c))
    return pivots, list(live.items())


def _update_q(prow, col, olds):
    """Rows minus multiples of prow clearing col: gcd-scaled, content divided."""
    pv = prow[col]
    out = []
    for row in olds:
        jv = row[col]
        g = gcd(pv, jv)
        m1, m2 = pv // g, jv // g
        new = {}
        for c, v in row.items():
            new[c] = v * m1
        for c, v in prow.items():
            w = new.get(c, 0) - v * m2
            if w:
                new[c] = w
            elif c in new:
                del new[c]
        g2 = 0
        for v in new.values():
            g2 = gcd(g2, v)
            if g2 == 1:
                break
        if g2 > 1:
            new = {c: v // g2 for c, v in new.items()}
        out.append(new)
    return out


def _update_mod(p, prow, col, olds):
    """Rows minus multiples of prow clearing col, mod p, in symmetric
    residues; prow[col] is a unit."""
    inv = pow(prow[col], -1, p)
    out = []
    for row in olds:
        f = (row[col] * inv) % p
        new = dict(row)
        for c, v in prow.items():
            w = (new.get(c, 0) - v * f) % p
            if w:
                new[c] = w - p if 2 * w > p else w
            elif c in new:
                del new[c]
        out.append(new)
    return out


def _update_z(prow, col, olds):
    """Rows minus row[col] * sign * prow, for a +-1 pivot: unimodular."""
    sign = prow[col]
    out = []
    for row in olds:
        f = row[col] * sign
        new = dict(row)
        for c, v in prow.items():
            w = new.get(c, 0) - f * v
            if w:
                new[c] = w
            elif c in new:
                del new[c]
        out.append(new)
    return out


# ---------------------------------------------------------------------------
# dense determinants

def det_int(mat):
    """Determinant of a square integer matrix, Bareiss fraction-free."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_zero(mat):
    return all(v == 0 for row in mat for v in row)


def mat_mul(a, b):
    """The product of two dense matrices; a row of a with no columns, or an
    empty b, gives empty rows."""
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    out = [[0] * len(b[0]) for _ in a]
    for ai, oi in zip(a, out):
        for v, bk in zip(ai, b):
            if v:
                for j, w in enumerate(bk):
                    if w:
                        oi[j] += v * w
    return out


def sparse_rows(mat):
    """The sparse rows {column: entry} of a dense matrix, zeros dropped."""
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def dense_rows(rows, width):
    """The dense matrix of sparse rows, each written out to width columns."""
    return [[r.get(j, 0) for j in range(width)] for r in rows]


# ---------------------------------------------------------------------------
# the diagram check on dense matrices

def _first_bad_column(a, b, p):
    for j in range(len(a[0]) if a else 0):
        for i in range(len(a)):
            d = a[i][j] - b[i][j]
            if (d % p if p else d) != 0:
                return j
    return None


def dense_check_diagram(g2, la, lb, sa, sb, ring):
    """The report of decomp.check_diagram for dense matrices that it
    accepts, g2 invertible: every entry read into the ring (a row of plain
    ints kept as it is), lb g2 against la, then sa la against sb (lb g2),
    each compared column by column, mod p over F_p."""
    def read(mat):
        return [r if all(type(x) is int for x in r)
                else [rings.coeff(ring, x) for x in r] for r in mat]

    g2, la, lb, sa, sb = map(read, (g2, la, lb, sa, sb))
    p = rings.char(ring)
    rep = {"pass": True, "ring": rings.name(ring), "failed": None,
           "witness": None, "identity1": True, "identity2": True}
    lhs1 = mat_mul(lb, g2)
    bad = _first_bad_column(lhs1, la, p) if la else None
    if bad is not None:
        rep.update(
            {"pass": False, "failed": 1, "identity1": False,
             "identity2": None,
             "witness": {"identity": 1, "column": bad,
                         "lhs": [r[bad] for r in lhs1],
                         "rhs": [r[bad] for r in la]}})
        return rep
    lhs2 = mat_mul(sa, la)
    rhs2 = mat_mul(sb, lhs1)
    bad = _first_bad_column(lhs2, rhs2, p) if lhs2 else None
    if bad is not None:
        rep.update(
            {"pass": False, "failed": 2, "identity2": False,
             "witness": {"identity": 2, "column": bad,
                         "lhs": [r[bad] for r in lhs2],
                         "rhs": [r[bad] for r in rhs2]}})
    return rep
