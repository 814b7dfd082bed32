"""Second nilpotent quotient, k-invariant, and CE homology.

The class-2 quotient of a commutator-relators group is handled in normal
form (v, w): v is the vector of exponent sums, w the dense coordinates of
gr2 = Lie_2 / relation span with torsion coordinates reduced, the form
nq2 prints.  The multiplication cocycle follows Hall collection with
larger generator indices moved left, so the commutator [x_i, x_j] for
i > j is the class of e_i wedge e_j, the bracket [x_i, x_j] of the
holonomy tower in degree 2.  A word is collected letter by letter into v
and a tail in gr2 coordinates, added up from those brackets, and the
tail's torsion is reduced once, at the end of the word.

A truncated graded Lie ring (GradedLie) is its graded pieces and the
sparse products [s, t] of its basis classes s < t, the form in which the
holonomy tower holds its brackets; truncated_lie hands them over as they
are.  Its H2 is computed from the exterior complex
Lambda^3 L -> Lambda^2 L -> L with d(a^b) = -[a,b].  The complex is graded
by weight, each weight w one whole block of holonomy.wedge_block (the
block the holonomy tower reads h_w off, less the rows it proves
redundant), and Lambda^2 L vanishes past weight 2 * top.
Over Q and F_p, H2 is a sum of differences of sparse ranks on the
coordinates that survive the field.  Over Z, graded pieces may carry
torsion: with D the torsion columns d_i e_i of L_w, the cycles of weight w
are the saturated kernel K of [d2 | D], read on its pair block.  Each
boundary (the Lambda^2 relations gcd(d_s, d_t) e_s^e_t and the rows of
d3) is lifted into K, and H2_w is one QuotientLattice of the lifts; its
torsion is that of H2_w and its rank exceeds rank H2_w by rank [d2 | D].
GradedLie checks the Jacobi identity as d2 . d3 = 0 on the same blocks.
"""

from __future__ import annotations

import re

from . import exactla, rings
from .arrangement import Arrangement, Record
from .exactla import QuotientLattice
from .freelie import DEFAULT_GUARD, SizeGuardError, require_int
from .holonomy import (GradedAbelian, HolonomyAlgebra, as_relation_set,
                       i2_basis, letter_word, over_ring, pair_list,
                       single_letter_names, wedge_block, wedge_counts)

# one dotted word token: a generator name with an optional integer exponent
_WORD_TOKEN = re.compile(r"([^\^\s]+)(?:\^(-?\d+))?")

# Guard units per triple of basis classes in the exterior complex of the
# truncation: its Lambda^3 rows set the time and memory of the H2
# comparison.  Measured at 13-20 us per triple over Q and F_p and 15-34 us
# over Z (near_pencil(8..12) at degree 4, 12 k to 229 k triples, Python
# 3.11 on a 2-CPU x86-64 machine), so 32 units put the default guard at
# runs of about ten seconds over Z.
_H2_TRIPLE_COST = 32


class Class2Element(Record):
    """Normal form (exponent vector, central tail) in a class-2 group."""

    def __init__(self, exps, tail):
        self._set("exps", exps)
        self._set("tail", tail)


class Class2Group:
    """Second nilpotent quotient of a commutator-relators group.

    Central extension of the free abelian group on the generators by
    gr2 = Lie_2 / relation span, the degree-2 piece of the holonomy tower.
    The structure cocycle sends (e_i, e_j) with i > j to the class of
    e_i wedge e_j, the tower's bracket [x_i, x_j] = -[x_j, x_i].  Words,
    products and inverses add those brackets up in gr2 coordinates and
    reduce the torsion once.
    """

    def __init__(self, source):
        self.source = source
        self.relset = as_relation_set(source)
        k = self.relset.alphabet
        self.k = k
        self.names = self.relset.atom_names
        alg = HolonomyAlgebra(self.relset, 2)
        self.gr2 = alg.quotient(2)
        # self._above[j]: (i, items of the cocycle (i, j)) for each i > j
        # whose cocycle is nonzero
        self._above = []
        for j in range(k):
            cocycles = [(i, alg.bracket(1, {i: 1}, 1, {j: 1})) for i in range(j + 1, k)]
            self._above.append([(i, tuple(c.items())) for i, c in cocycles if c])
        self._name_index = {nm: i for i, nm in enumerate(self.names)}
        self._letter_words = single_letter_names(self.names)
        self._tokens = {}   # dotted token as written -> (index, exponent)

    # -- basic elements ----------------------------------------------------
    def identity(self):
        return Class2Element((0,) * self.k, (0,) * self.gr2.dim)

    def generator(self, i):
        return self.evaluate([(i, 1)])

    def cocycle(self, i, j):
        """gr2 class of e_i wedge e_j for i > j (zero otherwise)."""
        return self.evaluate([(i, 1), (j, 1)]).tail

    def _check(self, g):
        if len(g.exps) != self.k or len(g.tail) != self.gr2.dim:
            raise ValueError("dimension mismatch: element does not belong "
                             "to this class-2 group")

    def _collect(self, v, word, tail):
        """Multiply exponent vector v on the right by word, in place, and
        add what the collection adds in gr2 to the dense list tail, in
        place; returns tail, its torsion not reduced.

        word is (generator index, exponent) pairs with every index in
        range.  Collecting x_idx^e past x_i^v[i] for every i > idx adds
        e * v[i] times the cocycle (i, idx).
        """
        above = self._above
        for idx, e in word:
            for i, cocycle in above[idx]:
                x = v[i]
                if x:
                    x *= e
                    for r, c in cocycle:
                        tail[r] += x * c
            v[idx] += e
        return tail

    def _element(self, v, tail):
        """The normal form of exponents v and a dense tail: its torsion
        coordinates reduced."""
        rank = self.gr2.rank
        return Class2Element(tuple(v), tuple(tail[:rank]) + tuple(
            c % d for c, d in zip(tail[rank:], self.gr2.torsion)))

    # -- group operations ---------------------------------------------------
    def multiply(self, g, h):
        self._check(g)
        self._check(h)
        v = list(g.exps)
        tail = [a + b for a, b in zip(g.tail, h.tail)]
        self._collect(v, [(j, e) for j, e in enumerate(h.exps) if e], tail)
        return self._element(v, tail)

    def inverse(self, g):
        # g times the word of -exps is (0, tail + c), so the inverse is
        # (-exps, -(tail + c))
        self._check(g)
        tail = self._collect(list(g.exps), [(j, -e) for j, e in enumerate(g.exps) if e],
                             list(g.tail))
        return self._element([-a for a in g.exps], [-a for a in tail])

    def power(self, g, e):
        require_int("e", e)
        if e < 0:
            return self.power(self.inverse(g), -e)
        out = self.identity()
        acc = g
        while e:
            if e & 1:
                out = self.multiply(out, acc)
            e >>= 1
            if e:
                acc = self.multiply(acc, acc)
        return out

    def commutator(self, g, h):
        return self.multiply(self.multiply(self.inverse(g), self.inverse(h)),
                             self.multiply(g, h))

    def is_identity(self, g):
        self._check(g)
        return not any(g.exps) and not any(g.tail)

    # -- words ---------------------------------------------------------------
    def parse_word(self, text):
        """Word syntax: either dotted tokens "H1.H2^-1" or, when every
        generator name is a single lowercase letter, a plain letter string
        with uppercase meaning inverse ("xyXY").

        Each dotted token that parses is kept as written, padding
        included, with its (index, exponent), so the group parses it once;
        a token that fails is not kept, and raises on every use."""
        if self._letter_words and "." not in text and "^" not in text:
            return letter_word(self.names, text)
        tokens = self._tokens
        return [tokens.get(token) or self._parse_token(token, text)
                for token in text.split(".")]

    def _parse_token(self, token, text):
        m = _WORD_TOKEN.fullmatch(token.strip())
        if not m:
            raise ValueError("bad word token %r" % token)
        idx = self._name_index.get(m.group(1))
        if idx is None:
            raise ValueError("unknown generator %r in word %r" % (m.group(1), text))
        exp = m.group(2) or "1"
        try:
            e = int(exp)
        except ValueError:  # more digits than the interpreter converts
            raise ValueError(
                "the exponent of generator %r has %d digits, too many to read"
                % (m.group(1), len(exp.lstrip("-")))) from None
        item = self._tokens[token] = (idx, e)
        return item

    def evaluate(self, word):
        """Normal form of a word: a string for parse_word, or a sequence of
        (generator index, exponent) pairs.  The whole word is collected in
        gr2 coordinates and its torsion reduced once.  A sequence is checked
        in one pass, every index an int in range and every exponent an int;
        parse_word builds only such pairs."""
        if isinstance(word, str):
            word = self.parse_word(word)
        else:
            word = list(word)
            for idx, e in word:
                if type(idx) is not int:
                    raise ValueError("generator index %r is not an integer"
                                     % (idx,))
                if not 0 <= idx < self.k:
                    raise ValueError("generator index %d out of range" % idx)
                if type(e) is not int:
                    raise ValueError("exponent %r of generator %d is not an "
                                     "integer" % (e, idx))
        v = [0] * self.k
        return self._element(v, self._collect(v, word, [0] * self.gr2.dim))


def relation_words(arr):
    """Group relators [x_H, prod of x_K over K in Y] per flat Y and H in Y.

    Returned as (label, word) pairs with label = (flat index, atom index)
    and word a sequence of (generator, exponent); every word evaluates to
    the identity in Class2Group(arr).
    """
    out = []
    for f in arr.flats:
        prod = [(kk, 1) for kk in f.members]
        inv_prod = [(kk, -1) for kk in reversed(f.members)]
        for h in f.members:
            word = [(h, -1)] + inv_prod + [(h, 1)] + prod
            out.append(((f.index, h), tuple(word)))
    return out


# ---------------------------------------------------------------------------
# k-invariant

def k_invariant_matrix(source):
    """Matrix of chi_2: wedge^2 of the abelianization -> gr2.

    Rows are indexed by the chosen basis of gr2 (for arrangements, the dual
    basis of the degree-2 relation ideal of the Orlik-Solomon algebra;
    otherwise the free coordinates of the tower's degree-2 lattice,
    HolonomyAlgebra.quotient(2), the gr2 of Class2Group), columns by the
    ordered pairs of generators.  chi_2 composed with a suitable integer
    inclusion is the identity, and its kernel is the relation span.
    """
    if isinstance(source, Arrangement):
        w = len(pair_list(source.n_atoms))
        return [[col.get(c, 0) for c in range(w)] for col in i2_basis(source)[0]]
    q = HolonomyAlgebra(source, 2).quotient(2)
    return exactla.columns_to_matrix(q.project_units(), q.rank)


# ---------------------------------------------------------------------------
# truncated graded Lie rings and their CE homology

class GradedLie:
    """Graded Lie ring over Z supported in degrees 1..top.

    degrees is a list of GradedAbelian (free rank plus divisor chain).  A
    basis class is a pair (degree, index into that degree's coordinates,
    free then torsion); classes compare as tuples.  products maps each pair
    s < t of classes with s[0] + t[0] <= top to the sparse coordinates
    {index: value} of [s, t] in degree s[0] + t[0]; a missing pair, and
    every bracket past the truncation, is 0.  So antisymmetry and
    [e, e] = 0 hold by construction.  Each key and coordinate is checked
    once, each value reduced by its divisor with its zeros dropped.  On the
    weight blocks 2..top of the exterior complex, d2 must vanish modulo the
    divisors on the torsion rows, as gcd(d_s, d_t) [s, t] = 0 in a Z-module,
    and on the triple rows, d2 . d3 = 0 being the Jacobi identity.
    """

    def __init__(self, degrees, products, validate=True):
        self.degrees = tuple(degrees)
        self.top = len(self.degrees)
        for ga in self.degrees:
            if not isinstance(ga, GradedAbelian):
                raise TypeError("degrees must be GradedAbelian instances")
        divs = [None] + [self.divisors(d) for d in range(1, self.top + 1)]
        self.products = {}
        for (s, t), vec in products.items():
            for x in (s, t):
                if not (1 <= x[0] <= self.top and 0 <= x[1] < len(divs[x[0]])):
                    raise ValueError("product key %r: %r is not a basis class"
                                     % ((s, t), x))
            if not s < t:
                raise ValueError("product key %r is not ordered s < t" % ((s, t),))
            d = s[0] + t[0]
            if d > self.top:
                raise ValueError("product key %r lands past the top degree %d"
                                 % ((s, t), self.top))
            out = {}
            for r, v in vec.items():
                if not 0 <= r < len(divs[d]):
                    raise ValueError("product %r has coordinate %r outside "
                                     "degree %d" % ((s, t), r, d))
                v = v % divs[d][r] if divs[d][r] else v
                if v:
                    out[r] = v
            if out:
                self.products[s, t] = out
        if validate:
            self._validate()

    def dim(self, d):
        ga = self.degrees[d - 1]
        return ga.rank + len(ga.torsion)

    def divisors(self, d):
        ga = self.degrees[d - 1]
        return [0] * ga.rank + list(ga.torsion)

    def _validate(self):
        for w, _cols, d2, torsion_rows, triple_rows in _blocks(
                self, range(2, self.top + 1)):
            divs = self.divisors(w)
            # d2: -gcd(d_s, d_t) [s, t] on a torsion row, minus the Jacobi sum on a triple
            for rows, what in ((torsion_rows, "torsion"),
                               (triple_rows, "Jacobi identity")):
                if any(v % divs[c] if divs[c] else v
                       for row in rows for c, v in _image(row, d2).items()):
                    raise ValueError("structure constants violate the " + what)


def truncated_lie(source, top, guard=DEFAULT_GUARD):
    """The quotient of the holonomy Lie algebra by degrees above top.

    Its products are the brackets [s, t] of the pair columns s < t of the
    HolonomyAlgebra tower in degrees 2..top, Jacobi-checked by GradedLie.
    """
    require_int("top", top)
    if top < 1:
        raise ValueError("truncation top degree must be at least 1")
    alg = HolonomyAlgebra(source, max_degree=top, guard=guard)
    degrees = [GradedAbelian(rank=alg.rank(d), torsion=alg.torsion(d))
               for d in range(1, top + 1)]
    products = {(s, t): alg.bracket(s[0], {s[1]: 1}, t[0], {t[1]: 1})
                for w in range(2, top + 1) for s, t in alg.pairs(w)}
    return GradedLie(degrees, products)


def _blocks(L, weights):
    """(w, cols, d2, torsion_rows, triple_rows) of the exterior complex of
    L in each weight w: the block of holonomy.wedge_block, with d2[col] the
    sparse coordinates of d2(s ^ t) = -[s, t] in degree w (empty past the
    top)."""
    dims = [0] + [L.dim(d) for d in range(1, L.top + 1)] + [0] * L.top
    divs = [None] + [L.divisors(d) for d in range(1, L.top + 1)]
    products, zero = L.products, {}

    def product(s, t):
        return products.get((s, t), zero)

    for w in weights:
        cols, torsion_rows, triple_rows = wedge_block(
            w, dims, lambda s: divs[s[0]][s[1]], product)
        d2 = [{r: -v for r, v in product(s, t).items()} for s, t in cols]
        yield w, cols, d2, torsion_rows, triple_rows


def _image(row, d2):
    """d2 of a sparse chain over the pair columns: its nonzero coordinates."""
    out = {}
    for q, v in row.items():
        for c, x in d2[q].items():
            out[c] = out.get(c, 0) + v * x
    return {c: v for c, v in out.items() if v}


def ce_h2(L, ring=rings.Z):
    """H2 of the exterior complex of a truncated graded Lie ring, the sum
    of its weights 2..2 * top (see the module docstring).

    Over Z returns rank and elementary divisors, over Q or F_p the
    dimension of H2 of L tensored with the field.
    """
    p = rings.char(ring)
    weights = range(2, 2 * L.top + 1)
    divs = [[]] + [L.divisors(d) for d in range(1, L.top + 1)] + [[]] * L.top
    if ring != rings.Z:
        live = [{i for i, dv in enumerate(ds)
                 if dv == 0 or (p is not None and dv % p == 0)} for ds in divs]
        rank = 0
        for w, cols, d2, _torsion_rows, triple_rows in _blocks(L, weights):
            pos = {}
            for (s, t), q in cols.items():
                if s[1] in live[s[0]] and t[1] in live[t[0]]:
                    pos[q] = len(pos)
            # rows are copied filtered only where a coordinate is dropped
            if len(live[w]) < len(divs[w]):
                d2 = [{c: v for c, v in d2[q].items() if c in live[w]} for q in pos]
            elif len(pos) < len(cols):
                d2 = [d2[q] for q in pos]
            if len(pos) < len(cols):
                triple_rows = [{pos[q]: v for q, v in row.items() if q in pos}
                               for row in triple_rows]
            rank += len(pos) - exactla.rank_sparse(d2, p=p) \
                - exactla.rank_sparse(triple_rows, p=p)
        return GradedAbelian(rank=rank)

    rank, torsion = 0, []
    for w, cols, d2, torsion_rows, triple_rows in _blocks(L, weights):
        # the column of D for each torsion coordinate, after the pair columns
        tcol = {}
        for c, dv in enumerate(divs[w]):
            if dv:
                tcol[c] = len(cols) + len(tcol)
        lifted = []
        for b in torsion_rows + triple_rows:
            row = dict(b)
            for c, v in _image(b, d2).items():
                if c not in tcol or v % divs[w][c]:
                    raise ArithmeticError("boundaries escaped the cycle lattice")
                row[tcol[c]] = -v // divs[w][c]
            lifted.append(row)
        quot = QuotientLattice(len(cols) + len(tcol), lifted)
        rank += quot.rank - exactla.rank_sparse(
            d2 + [{c: divs[w][c]} for c in tcol])
        torsion += quot.torsion
    # H2 is the direct sum of its weights, whose divisor chain is the Smith
    # form of the diagonal of theirs
    chain = QuotientLattice(len(torsion), [{i: d} for i, d in enumerate(torsion)])
    return GradedAbelian(rank=rank, torsion=chain.torsion)


def h2_rank_check(source, n=3, ring=rings.Q, guard=DEFAULT_GUARD):
    """Compare rank H2 of the degree-(n-1) truncation with rank h_n + b2.

    The split exact sequence behind the comparison needs the arrangement
    to be decomposable when n > 3; n = 3 holds unconditionally.  The
    group-to-Lie bridge is exact when gr2 is torsion-free and labeled
    heuristic otherwise.

    Since HolonomyAlgebra takes h_n as the cokernel of Lambda^3 -> Lambda^2
    on the truncation, which is the weight-n part of that same H2 and the
    same wedge_block, the comparison holds by construction on a correct
    tower: it checks the CE complex against the tower, not the tower
    against an independent computation (the tests compare it with the word
    rows of the ideal).  h_n and b2, the rank of the relations, are read
    off the degree-n view of the tower over ring (holonomy.over_ring), so
    the relation rows are eliminated only in the tower.  Raises
    SizeGuardError, before any Lambda^3 row of H2 exists, when its triples
    of weight <= 2(n-1) (holonomy.wedge_counts) cost more than guard, and
    then when the tower's cost of degree n does (HolonomyAlgebra).
    """
    require_int("n", n)
    where = rings.name(ring)
    if n < 3:
        raise ValueError("the H2 comparison starts at degree 3")
    relset = as_relation_set(source)
    decomp_report = None
    if n > 3:
        if not isinstance(source, Arrangement):
            raise ValueError("degree > 3 comparison is only available for "
                             "arrangements (it needs localization data)")
        from . import decomp
        decomp_report = decomp.is_decomposable(source, guard=guard)
        if not decomp_report["decomposable"]:
            raise ValueError(
                "H2 comparison at degree %d requires a decomposable "
                "arrangement: r_global=%d, r_local=%d" %
                (n, decomp_report["r_global"], decomp_report["r_local"]))
    alg = HolonomyAlgebra(relset, n - 1, guard=guard)
    dims = [0] + [alg.dim(d) for d in range(1, n)] + [0] * (n - 1)
    triples = sum(wedge_counts(w, dims)[1] for w in range(2, 2 * n - 1))
    if _H2_TRIPLE_COST * triples > guard:
        raise SizeGuardError(
            "H2 of the degree-%d truncation has %d triples, which cost %d > "
            "guard %d; raise the guard to proceed"
            % (n - 1, triples, _H2_TRIPLE_COST * triples, guard))
    # the degree-n holonomy guard, before any of H2 is computed
    view = HolonomyAlgebra(relset, n, guard=guard)
    L = truncated_lie(relset, n - 1, guard=guard)
    ce = ce_h2(L, ring)
    hn = over_ring(view.quotient(n), ring)
    q2 = view.quotient(2)
    # the rank of the relations: the pair columns less the rank of h_2
    b2 = q2.w - over_ring(q2, ring).rank
    expected = hn.rank + b2
    report = {
        "degree": n,
        "ring": where,
        "b2": b2,
        "h_n_rank": hn.rank,
        "ce_h2_rank": ce.rank,
        "expected": expected,
        "pass": ce.rank == expected,
        "bridge": "heuristic" if L.degrees[1].torsion else "exact",
    }
    if ring == rings.Z:
        report["ce_h2_torsion"] = list(ce.torsion)
        report["h_n_torsion"] = list(hn.torsion)
    if decomp_report is not None:
        report["decomposable"] = decomp_report["decomposable"]
    return report
