"""Decomposability, decomposable LCS ranks, lift assembly, and diagram checks.

An arrangement is decomposable when the degree 3 piece of its holonomy Lie
algebra is cut out by the local pencils: the restriction map to the direct
sum over rank-2 flats is an isomorphism.  We decide this by comparing the
global rank with the sum of local Witt numbers and checking that degree 3
carries no integer torsion.

For decomposable arrangements the lower central series ranks come from a
product formula, and nilpotent quotients of the fundamental group can be
compared across lattice-isomorphic arrangements.  The comparison works with
lifts in correction form: an endomorphism candidate of the truncated
holonomy algebra sends each degree 1 generator x_H to x_H plus correction
terms in degrees 2..n-1.  Local lifts live on a single pencil, in the local
algebra of its size (Charts), a global candidate is assembled by summing
embedded local corrections and vetted (assemble_global_lift), and the
degree n component of each relator bracket is the obstruction matrix that
feeds the H2-level commuting diagram; relator_components computes them
in every degree, globally and locally.  All matrices are exact, over Z, Q,
or F_p.  Every induced map between holonomy algebras is one renaming of
generators, applied to a class by rename: embedding a pencil (x_i ->
x_members[i]), restricting to a flat (x_H -> 0 outside it), and a lattice
isomorphism (x_H -> x_g(H)); letter_matrix writes a renaming out as a
matrix only where one is printed or inverted.  Renamings and relator
components stay in quotient coordinates: a class is a sum of brackets of
classes of lower degree (HolonomyAlgebra.pairs and the lift of its
coordinates), and both sides are bracketed with the tower's own tables
(HolonomyAlgebra.bracket).
"""

from __future__ import annotations

from collections import Counter

from . import exactla, rings
from .arrangement import Arrangement, Flat2, Record, _integer_row, localize
from .freelie import DEFAULT_GUARD, require_int, witt_rank
from .holonomy import HolonomyAlgebra, holonomy_graded

# ---------------------------------------------------------------------------
# decomposability and the decomposable LCS formula

def is_decomposable(arr, guard=DEFAULT_GUARD):
    """Decide decomposability from the degree 3 graded piece.

    Returns a report dict with r_global (rank of the degree 3 holonomy
    piece over Q), r_local (_local_rank at degree 3, the sum of the local
    Witt numbers witt(mu(Y), 3)), the integer torsion of degree 3, and the
    verdict.  The restriction map is always onto, so equal ranks plus a
    torsion-free source force an isomorphism over Z.  Equal ranks with
    torsion present get a qualifier instead: the map is an isomorphism
    over Q but not over Z.
    """
    if not isinstance(arr, Arrangement):
        raise TypeError("is_decomposable expects an Arrangement")
    g3 = holonomy_graded(arr, 3, rings.Z, guard=guard)
    r_global = g3.rank
    r_local = _local_rank(arr, 3)
    torsion = list(g3.torsion)
    rep = {
        "decomposable": r_global == r_local and not torsion,
        "r_global": r_global,
        "r_local": r_local,
        "torsion": torsion,
    }
    if r_global == r_local and torsion:
        rep["qualifier"] = "indeterminate over Z, decomposable over Q"
    return rep


def _local_rank(arr, k):
    """Sum of witt(mu(Y), k) over the rank-2 flats Y: for k >= 2 the
    degree-k rank of the direct sum of the local holonomy algebras, since
    that of a flat Y agrees with the free Lie algebra on mu(Y) generators
    from degree 2 on."""
    return sum(c * witt_rank(mu, k)
               for mu, c in Counter(f.mu for f in arr.flats).items())


def lcs_ranks_decomposable(arr, max_degree, guard=DEFAULT_GUARD):
    """LCS ranks phi_1..phi_N of the arrangement group, decomposable case.

    gr_k G is the direct sum over the flats of its local pieces for k >= 2
    (Papadima-Suciu), so phi_1 = |A| and phi_k = _local_rank(arr, k).  This
    is the product formula prod_n (1-t^n)^phi_n = (1-t)^(|A|-sum mu)
    prod_Y (1-mu(Y) t), factor by factor, since 1 - m t = prod_n
    (1-t^n)^witt(m, n).  Only valid for decomposable arrangements; anything
    else is refused.
    """
    require_int("max_degree", max_degree)
    rep = is_decomposable(arr, guard=guard)
    if not rep["decomposable"]:
        extra = "; " + rep["qualifier"] if "qualifier" in rep else ""
        raise ValueError(
            "the product formula for LCS ranks needs a decomposable "
            "arrangement: degree-3 ranks are r_global=%d, r_local=%d%s"
            % (rep["r_global"], rep["r_local"], extra))
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    return [arr.n_atoms] + [_local_rank(arr, k) for k in range(2, max_degree + 1)]


# ---------------------------------------------------------------------------
# coordinate charts between the global algebra and its localizations

class Charts:
    """Global truncated algebra plus one local algebra per pencil size.

    A flat's local arrangement is one pencil on its members, so the flats
    of one size share local_alg[fi], a view (HolonomyAlgebra) localized at
    the first of them, whose relset.atom_names it keeps.  Flat fi embeds
    by the letters of its members (local x_i -> x_members[i]) and
    restricts by restriction[fi] (x_H -> its position, or 0 outside)."""

    def __init__(self, arr, n, guard=DEFAULT_GUARD):
        self.arr = arr
        self.alg = HolonomyAlgebra(arr, max_degree=n, guard=guard)
        views, self.local_alg, self.restriction = {}, [], []
        for f in arr.flats:
            if f.mu not in views:
                views[f.mu] = HolonomyAlgebra(localize(arr, f.index),
                                              max_degree=n, guard=guard)
            self.local_alg.append(views[f.mu])
            pos = {a: i for i, a in enumerate(f.members)}
            self.restriction.append([pos.get(a) for a in range(arr.n_atoms)])


def rename(src, dst, letters, d, x):
    """Sparse reduced coordinates in dst of the image of the degree-d class
    of src with sparse coordinates x, under the Lie map renaming generators.

    letters[i] is the destination letter of x_i, or None when x_i goes to
    0.  Named letters must be distinct letters of dst.  A renaming is a map
    of Lie rings, so the letters fix it: a basis class of degree e >= 2 is
    the sum of lam [s, t] over its definition (the lift of its unit vector
    over the pair columns (s, t) of src), and its image is the sum of
    lam [phi(s), phi(t)], bracketed in dst and reduced.  The images of
    basis classes are kept on the tower of src, keyed by the relation set
    of dst and the letters, so every call, view and degree of one renaming
    in the process shares them; both views check d against their own
    max_degree before the memo is read.  The letters are checked when
    their memo is made: its key fixes both alphabets and the letters.
    """
    src.quotient(d)  # refuses a degree past the max_degree of src
    q = dst.quotient(d)
    tower = src._tower
    # keyed by dst's relation set, not its tower, so no evicted tower stays alive
    key = (dst._tower.key, tuple(letters))
    images = tower.images.get(key)
    if images is None:
        named = [a for a in letters if a is not None]
        if (len(letters) != src.alphabet or len(set(named)) != len(named)
                or any(not 0 <= a < dst.alphabet for a in named)):
            raise ValueError("letter map must send the %d source letters to "
                             "distinct letters below %d, or to None"
                             % (src.alphabet, dst.alphabet))
        images = tower.images[key] = {}

    def image(s):
        vec = images.get(s)
        if vec is None:
            e, j = s
            if e == 1:
                vec = {} if letters[j] is None else {letters[j]: 1}
            else:
                acc = {}
                for (a, b), lam in tower.definition(s):
                    u, v = image(a), image(b)
                    if u and v:
                        _add_into(acc, dst.bracket(a[0], u, b[0], v), lam)
                vec = dst.quotient(e).reduce(acc)
            images[s] = vec
        return vec

    acc = {}
    for j, c in x.items():
        _add_into(acc, image((d, j)), c)
    return q.reduce(acc)


def _add_into(acc, vec, c=1):
    """acc += c * vec, for sparse acc and vec, in place; zeros may stay."""
    for r, v in vec.items():
        acc[r] = acc.get(r, 0) + c * v


def letter_matrix(src, dst, letters, d):
    """Matrix on quotient coordinates of a renaming (see rename): column j
    is the image of the j-th basis class of degree d."""
    cols = [rename(src, dst, letters, d, {j: 1}) for j in range(src.dim(d))]
    return exactla.columns_to_matrix(cols, dst.dim(d))


def restriction_stack(arr, d, charts=None, guard=DEFAULT_GUARD):
    """Stacked restriction matrix h_d(A) -> direct sum of h_d(A_Y).

    One row block per flat with a nonzero local degree-d piece, in flat
    order.  Full row rank over Q expresses surjectivity of localization; a
    square unimodular stack is the degree-d decomposability certificate.
    """
    ch = charts or Charts(arr, d, guard=guard)
    return [row for f in arr.flats if ch.local_alg[f.index].dim(d)
            for row in letter_matrix(ch.alg, ch.local_alg[f.index],
                                     ch.restriction[f.index], d)]


# ---------------------------------------------------------------------------
# lifts in correction form

class LocalLift(Record):
    """Lift data on one pencil: corrections (atom, degree) -> sparse local
    coordinates."""

    def __init__(self, flat, n, corrections):
        self._set("flat", flat)
        self._set("n", n)
        self._set("corrections", corrections)


class GlobalLift(Record):
    """Assembled lift candidate: corrections (atom, degree) -> sparse global
    coordinates, delta (atom, flat index) -> sparse degree-n relator
    components (its H2 block)."""

    def __init__(self, n, corrections, delta):
        self._set("n", n)
        self._set("corrections", corrections)
        self._set("delta", delta)


def local_lift(arr, flat_index, corrections, n, guard=DEFAULT_GUARD, alg=None):
    """Build and validate a LocalLift on the given rank-2 flat.

    corrections maps (atom, degree) to a dense coordinate vector of
    integers in the degree-d piece of the local algebra; atoms may be
    names or global indices and degrees run in 2..n-1.  Below the top
    degree the corrections of a flat must sum to zero in each degree,
    otherwise the local relator brackets pick up nonzero components and
    the data does not define a lift.  The LocalLift holds them sparse.
    """
    require_int("flat_index", flat_index)
    if not 0 <= flat_index < len(arr.flats):
        raise ValueError("no flat with index %d" % flat_index)
    loc = alg if alg is not None else HolonomyAlgebra(
        localize(arr, flat_index), max_degree=n, guard=guard)
    sparse = {}
    for (atom, deg), vec in corrections.items():
        if isinstance(atom, str):
            atom = arr.atom_index(atom)
        _check_key(arr, flat_index, atom, deg, n)
        if len(vec) != loc.dim(deg):
            raise ValueError(
                "correction outside the local Lie piece: degree %d of the "
                "local algebra has dimension %d, got %d"
                % (deg, loc.dim(deg), len(vec)))
        sparse[atom, deg] = {i: c for i, c in enumerate(
            [rings.coeff(rings.Z, v) for v in vec]) if c}
    return _checked_local(arr, flat_index, loc, sparse, n)


def _check_key(arr, flat_index, atom, deg, n):
    """Refuse a correction key outside the local Lie pieces of the flat."""
    members = arr.flats[flat_index].members
    if atom not in members:
        raise ValueError(
            "correction outside the local Lie piece: atom %r is not in "
            "flat %d %r" % (arr.atoms[atom] if 0 <= atom < len(arr.atoms)
                            else atom, flat_index, members))
    if not 2 <= deg <= n - 1:
        raise ValueError(
            "correction outside the local Lie piece: degree %d not in "
            "2..%d" % (deg, n - 1))


def _checked_local(arr, flat_index, loc, corrections, n):
    """The LocalLift of sparse corrections keyed by global atom indices,
    each reduced in the local algebra loc; refused like local_lift."""
    clean, totals = {}, {}
    for (atom, deg), vec in corrections.items():
        _check_key(arr, flat_index, atom, deg, n)
        dim = loc.dim(deg)
        if not isinstance(vec, dict) or not all(
                type(i) is int and 0 <= i < dim and type(c) is int
                for i, c in vec.items()):
            raise ValueError(
                "correction outside the local Lie piece: degree %d of the "
                "local algebra takes sparse integer coordinates {i: c} "
                "with 0 <= i < %d, got %r" % (deg, dim, vec))
        vec = loc.quotient(deg).reduce(vec)
        if vec:
            clean[atom, deg] = vec
            _add_into(totals.setdefault(deg, {}), vec)
    for deg in range(2, n - 1):
        if loc.quotient(deg).reduce(totals.get(deg, {})):
            raise ValueError(
                "corrections on flat %d do not define a lift: the degree %d "
                "corrections must sum to zero in the local algebra"
                % (flat_index, deg))
    return LocalLift(flat=arr.flats[flat_index], n=n, corrections=clean)


def zero_local_lifts(arr, n):
    """One correction-free LocalLift per flat."""
    return [LocalLift(flat=f, n=n, corrections={}) for f in arr.flats]


def relator_components(alg, flats, corrections, m):
    """Degree-m components of the relators under a lift in correction form.

    The lift sends x_a to phi(x_a) = x_a plus corrections[(a, i)] in each
    degree i >= 2, and the relator of atom h on flat Y is [x_h, z_Y], z_Y
    the sum of x_k over the members k of Y.  Its degree-m component is the
    sum over i of [phi(x_h)_i, phi(z_Y)_{m-i}], bracketed in alg and
    reduced; phi(z_Y) is summed once per flat.  Returns {(h, flat index):
    coordinates}, in flat and member order.
    """
    def phi(a, i):
        return {a: 1} if i == 1 else corrections.get((a, i), {})

    out = {}
    for f in flats:
        z = {1: dict.fromkeys(f.members, 1)}
        for i in range(2, m):
            z[i] = {}
            for k in f.members:
                _add_into(z[i], phi(k, i))
        for h in f.members:
            total = {}
            for i in range(1, m):
                u, v = phi(h, i), z[m - i]
                if u and v:
                    _add_into(total, alg.bracket(i, u, m - i, v))
            out[(h, f.index)] = alg.quotient(m).reduce(total)
    return out


def assemble_global_lift(locals_, arr, n, guard=DEFAULT_GUARD, charts=None):
    """Assemble local lifts into a global lift candidate and vet it.

    The one place a lift is vetted.  The global correction of an atom in
    each degree is the sum over flats containing it of the embedded local
    correction, checked by _checked_local.  For the result to be an
    endomorphism of the truncated algebra every relator bracket must
    vanish in degrees up to n-1; a nonzero component is reported with its
    witness.  Then, flat by flat, restricting the global corrections must
    return the checked local ones (the round trip), and the degree-n
    components (delta) the local ones (the localization square).
    """
    ch = charts or Charts(arr, n, guard=guard)
    by_flat = {}
    for ll in locals_:
        if not isinstance(ll, LocalLift):
            raise TypeError("expected LocalLift instances")
        fi = ll.flat.index
        if fi in by_flat:
            raise ValueError("two local lifts given for flat %d" % fi)
        by_flat[fi] = ll
    for f in arr.flats:
        if f.index not in by_flat:
            raise ValueError("missing flat: no local lift for flat %d %r"
                             % (f.index, f.members))
    checked, glob = [], {}
    for f in arr.flats:
        ll = by_flat[f.index]
        if ll.n != n:
            raise ValueError("local lift on flat %d was built for degree %d, "
                             "not %d" % (f.index, ll.n, n))
        ll = _checked_local(arr, f.index, ch.local_alg[f.index],
                            ll.corrections, n)
        checked.append(ll)
        for (atom, deg), vec in sorted(ll.corrections.items()):
            _add_into(glob.setdefault((atom, deg), {}),
                      rename(ch.local_alg[f.index], ch.alg, f.members, deg, vec))
    corrections = {}
    for key in sorted(glob):
        vec = ch.alg.quotient(key[1]).reduce(glob[key])
        if vec:
            corrections[key] = vec

    for m in range(3, n):
        for (h, fi), comp in relator_components(ch.alg, arr.flats,
                                                corrections, m).items():
            if comp:
                raise ValueError(
                    "corrections do not assemble to an endomorphism: the "
                    "relator of atom %r on flat %d %r has a nonzero "
                    "degree %d component %r"
                    % (arr.atoms[h], fi, arr.flats[fi].members, m,
                       [comp.get(i, 0) for i in range(ch.alg.dim(m))]))

    delta = relator_components(ch.alg, arr.flats, corrections, n)
    glift = GlobalLift(n=n, corrections=corrections, delta=delta)
    for f in arr.flats:
        total = {}
        for h in f.members:
            _add_into(total, delta[h, f.index])
        if ch.alg.quotient(n).reduce(total):
            raise RuntimeError("degree-%d relator components of flat %d do "
                               "not sum to zero" % (n, f.index))
    for f, ll, back in zip(arr.flats, checked,
                           localize_global_lift(arr, glift, charts=ch)):
        if back.corrections != ll.corrections:
            raise RuntimeError("localizing the assembled lift did not return "
                               "the local corrections on flat %d" % f.index)
        loc = ch.local_alg[f.index]
        if not loc.dim(n):
            continue  # every column restricts to 0 = the local one
        corr = {(f.members.index(a), d): v
                for (a, d), v in ll.corrections.items()}
        local_cols = {f.members[i]: v for (i, _), v in relator_components(
            loc, [Flat2(0, tuple(range(f.mu + 1)), f.mu)], corr, n).items()}
        for g in arr.flats:
            for h in g.members:
                got = rename(ch.alg, loc, ch.restriction[f.index], n,
                             delta[(h, g.index)])
                want = local_cols[h] if g.index == f.index else {}
                if got != want:
                    raise RuntimeError(
                        "localization square fails at flat %d, relator "
                        "(%r, %d): restricted column %r, local column %r"
                        % (f.index, arr.atoms[h], g.index, got, want))
    return glift


def localize_global_lift(arr, glift, charts=None, guard=DEFAULT_GUARD):
    """Per-flat local lifts recovered by restricting a global lift.

    Restriction deletes every word that uses a letter outside the flat, so
    corrections embedded from other flats disappear and assembling then
    localizing returns the original local data.
    """
    n = glift.n
    ch = charts or Charts(arr, n, guard=guard)
    out = []
    for f in arr.flats:
        loc = ch.local_alg[f.index]
        corr = {}
        for h in f.members:
            for deg in range(2, n):
                vec = glift.corrections.get((h, deg))
                if vec is None:
                    continue
                v = rename(ch.alg, loc, ch.restriction[f.index], deg, vec)
                if v:
                    corr[(h, deg)] = v
        out.append(LocalLift(flat=f, n=n, corrections=corr))
    return out


def relator_basis(arr):
    """Basis of H2 of the complement: per flat, drop the largest atom.

    The relator classes of a flat sum to zero, so the others form a basis;
    returns the list of (atom, flat index) pairs in flat order.
    """
    out = []
    for f in arr.flats:
        drop = max(f.members)
        out.extend((h, f.index) for h in f.members if h != drop)
    return out


def lift_h2_matrix(arr, glift, dim):
    """Induced map on H2 of the lift, in split coordinates.

    H2 of the degree-n quotient group splits as the degree-n graded piece,
    of dimension dim, plus H2 of the complement; the lift acts as the
    identity on the second block and by the relator components
    (glift.delta) on the first.  Rows: degree-n coordinates then relator
    basis; columns: relator basis.
    """
    pairs = relator_basis(arr)
    top = exactla.columns_to_matrix([glift.delta[p] for p in pairs], dim)
    return top + exactla.identity(len(pairs))


# ---------------------------------------------------------------------------
# diagram instances

class DiagramInstance(Record):
    """Matrix data of the H2 comparison triangle over a coefficient ring.

    g2: H2(X_a) -> H2(X_b) on relator bases; la_star, lb_star: induced maps
    of the two lifts into the split H2 of the common nilpotent quotient;
    sigma_a, sigma_b: the splittings H2(N) -> degree-n piece applied after
    the A leg and after the B leg.  Each matrix is a tuple of row tuples.
    """

    def __init__(self, g2, la_star, lb_star, sigma_a, sigma_b, ring=rings.Z):
        self._set("g2", g2)
        self._set("la_star", la_star)
        self._set("lb_star", lb_star)
        self._set("sigma_a", sigma_a)
        self._set("sigma_b", sigma_b)
        self._set("ring", ring)


def _freeze(mat):
    return tuple(tuple(r) for r in mat)


def diagram_instance(g2, la_star, lb_star, sigma, ring=rings.Z, sigma_a=None):
    """DiagramInstance with splitting sigma on the B leg, and on the A leg
    too unless sigma_a is given."""
    return DiagramInstance(_freeze(g2), _freeze(la_star), _freeze(lb_star),
                           _freeze(sigma if sigma_a is None else sigma_a),
                           _freeze(sigma), ring)


def _first_bad_column(a, b, p):
    for j in range(len(a[0]) if a else 0):
        for i in range(len(a)):
            d = a[i][j] - b[i][j]
            if (d % p if p else d) != 0:
                return j
    return None


def _in_ring(mat, ring):
    """The rows of mat read into the ring (rings.coeff); a row of plain ints
    is kept as it is, so integer data pays one type scan per row."""
    return [r if set(map(type, r)) <= {int}
            else [rings.coeff(ring, x) for x in r] for r in mat]


def _invertible(mat, ring):
    """Whether a square matrix is invertible over the ring, by the sparse
    elimination: over Z its rows must span Z^n (exactla.is_unimodular),
    over Q and F_p they must have rank n.  A row that is not all ints is
    read into the ring first (_in_ring); over Q each row is then scaled by
    the lcm of its denominators (_integer_row), which keeps its rank."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        return False
    if n == 0:
        return True
    read = _in_ring(mat, ring)
    if ring == rings.Q:
        read = [_integer_row(r) for r in read]
    rows = [{j: v for j, v in enumerate(r) if v} for r in read]
    if ring == rings.Z:
        return exactla.is_unimodular(rows, n)
    return exactla.rank_sparse(rows, rings.char(ring)) == n


def check_diagram(d):
    """Check the two commutation identities of a DiagramInstance.

    Identity 1: lb_star composed with g2 equals la_star.  Identity 2: sigma_a
    after la_star equals sigma_b after lb_star after g2.  Both are exact
    matrix identities over the instance ring, every entry read into it
    first (_in_ring); the report carries the first violated identity and a
    witness column.
    """
    if not isinstance(d, DiagramInstance):
        raise TypeError("check_diagram expects a DiagramInstance")
    g2, la, lb, sa, sb = d.g2, d.la_star, d.lb_star, d.sigma_a, d.sigma_b
    ca = len(la[0]) if la else (len(g2[0]) if g2 else 0)
    cb = len(g2)
    h2n = len(la)
    if len(lb) != h2n:
        raise ValueError("shape mismatch: la_star has %d rows, lb_star %d"
                         % (h2n, len(lb)))
    if any(len(r) != ca for r in la):
        raise ValueError("shape mismatch: ragged la_star")
    if any(len(r) != cb for r in lb):
        raise ValueError("shape mismatch: lb_star is %d columns wide but g2 "
                         "has %d rows" % (len(lb[0]) if lb else 0, cb))
    if any(len(r) != ca for r in g2):
        raise ValueError("shape mismatch: g2 must be %dx%d" % (cb, ca))
    if any(len(r) != h2n for r in sa + sb):
        raise ValueError("shape mismatch: sigma must have %d columns" % h2n)
    if len(sa) != len(sb):
        raise ValueError("shape mismatch: sigma_a has %d rows, sigma_b %d"
                         % (len(sa), len(sb)))
    g2, la, lb, sa, sb = [_in_ring(m, d.ring) for m in (g2, la, lb, sa, sb)]
    if not _invertible(g2, d.ring):
        raise ValueError("g2 is not invertible over %s" % rings.name(d.ring))
    p = rings.char(d.ring)
    rep = {"pass": True, "ring": rings.name(d.ring), "failed": None,
           "witness": None, "identity1": True, "identity2": True}
    lhs1 = exactla.mat_mul(lb, g2)
    bad = _first_bad_column(lhs1, la, p) if la else None
    if bad is not None:
        rep.update(
            {"pass": False, "failed": 1, "identity1": False,
             "witness": {"identity": 1, "column": bad,
                         "lhs": [r[bad] for r in lhs1],
                         "rhs": [r[bad] for r in la]}})
        rep["identity2"] = None
        return rep
    lhs2 = exactla.mat_mul(sa, la)
    rhs2 = exactla.mat_mul(sb, lhs1)   # sigma_b (lb_star g2)
    bad = _first_bad_column(lhs2, rhs2, p) if lhs2 else None
    if bad is not None:
        rep.update(
            {"pass": False, "failed": 2, "identity2": False,
             "witness": {"identity": 2, "column": bad,
                         "lhs": [r[bad] for r in lhs2],
                         "rhs": [r[bad] for r in rhs2]}})
    return rep


# ---------------------------------------------------------------------------
# lattice isomorphisms and the end-to-end verifier

class LatticeIso(Record):
    """Atom bijection A -> B inducing a bijection of rank-2 flats."""

    def __init__(self, atom_map, flat_map):
        self._set("atom_map", atom_map)
        self._set("flat_map", flat_map)


def _atom(arr, x):
    """The index of an atom named by x: its name, or an int index."""
    if isinstance(x, str):
        return arr.atom_index(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("atom %r is neither a name nor an int index" % (x,))
    return x


def lattice_iso(arr_a, arr_b, mapping):
    """Validate an atom bijection as a rank <= 2 lattice isomorphism.

    mapping takes A-atoms to B-atoms, by name or by index (a dict, or a
    sequence giving images in atom order).  Every pencil of A must land
    exactly on a pencil of B of the same size.
    """
    ka, kb = len(arr_a.atoms), len(arr_b.atoms)
    if ka != kb:
        raise ValueError("atom counts differ: %d vs %d" % (ka, kb))
    if isinstance(mapping, dict):
        amap = [None] * ka
        for src, dst in mapping.items():
            i, j = _atom(arr_a, src), _atom(arr_b, dst)
            if not 0 <= i < ka:
                raise ValueError("unknown atom index %d" % i)
            amap[i] = j
    else:
        amap = [_atom(arr_b, x) for x in mapping]
        if len(amap) != ka:
            raise ValueError("mapping lists %d images for %d atoms"
                             % (len(amap), ka))
    if None in amap or sorted(amap) != list(range(kb)):
        raise ValueError("mapping is not a bijection onto the atoms of B")
    pencil_index = {f.members: f.index for f in arr_b.flats}
    fmap = []
    for f in arr_a.flats:
        image = tuple(sorted(amap[h] for h in f.members))
        fj = pencil_index.get(image)
        if fj is None:
            raise ValueError(
                "invalid iso (pencil not preserved): flat %d %r maps onto "
                "%r which is not a pencil of B" % (f.index, f.members, image))
        fmap.append(fj)
    if sorted(fmap) != list(range(len(arr_b.flats))):
        raise ValueError("invalid iso (pencil not preserved): flat images "
                         "are not a bijection")
    return LatticeIso(atom_map=tuple(amap), flat_map=tuple(fmap))


def iso_h2_matrix(arr_a, arr_b, iso):
    """Matrix of the induced map H2(X_A) -> H2(X_B) on relator bases.

    A relator class (H, Y) goes to (g(H), g(Y)), or, when g(H) is the atom
    relator_basis drops from the image flat, to minus the sum of the others.
    """
    pairs_a = relator_basis(arr_a)
    pairs_b = relator_basis(arr_b)
    index_b = {p: i for i, p in enumerate(pairs_b)}
    cols = []
    for h, fi in pairs_a:
        gj = iso.flat_map[fi]
        gh = iso.atom_map[h]
        if (gh, gj) in index_b:
            cols.append({index_b[(gh, gj)]: 1})
        else:
            cols.append({index_b[(k, gj)]: -1
                         for k in arr_b.flats[gj].members if k != gh})
    return exactla.columns_to_matrix(cols, len(pairs_b))


def _transport_local(ch_a, ch_b, iso, fi_a, llift_b, n):
    """Pull a B-side local lift back to the matching A-flat by renaming."""
    fa = ch_a.arr.flats[fi_a]
    fb = ch_b.arr.flats[iso.flat_map[fi_a]]
    pos_a = {iso.atom_map[h]: i for i, h in enumerate(fa.members)}
    back = [pos_a[b] for b in fb.members]
    loc_a = ch_a.local_alg[fi_a]
    loc_b = ch_b.local_alg[fb.index]
    corr = {}
    for (atom_b, deg), vec in sorted(llift_b.corrections.items()):
        v = rename(loc_b, loc_a, back, deg, vec)
        if v:
            corr[(fa.members[pos_a[atom_b]], deg)] = v
    return LocalLift(flat=fa, n=n, corrections=corr)


def _splitting(ch, n, ring):
    """The splitting H2(N) -> gr_n, [I | 0] in split coordinates, and the
    stacked degree-n restriction matrix rho.

    rho must be square and invertible over the ring: this is the
    decomposability certificate in degree n.
    """
    rho = restriction_stack(ch.arr, n, charts=ch)
    g = ch.alg.dim(n)
    if len(rho) != g:
        raise ValueError(
            "degree-%d localization is not square: %d local against %d "
            "global coordinates; the arrangement is not decomposable in "
            "this degree" % (n, len(rho), g))
    if not _invertible(rho, ring):
        raise ValueError("degree-%d localization matrix is not invertible "
                         "over %s" % (n, rings.name(ring)))
    b2 = len(relator_basis(ch.arr))
    sigma = [[1 if i == j else 0 for j in range(g)] + [0] * b2
             for i in range(g)]
    return sigma, rho


def verify_decomposable_iso(arr_a, arr_b, iso, n=4, ring=rings.Z,
                            corrections=None, perturb=None,
                            guard=DEFAULT_GUARD):
    """End-to-end diagram certificate for a lattice isomorphism at level n.

    Builds the degree-n nilpotent comparison on the B side: local lifts
    (zero corrections, or the given B-side corrections keyed by flat),
    their transported copies on the A side, the assembled and vetted global
    lifts, the induced H2 matrices, the relabeling matrix g2, and the
    splitting sigma = [I | 0] on both legs: with one sigma on both legs the
    second identity follows from the first, whatever sigma is.  Runs
    check_diagram on the result and returns the verdict together with every
    constructed matrix for audit.

    perturb is a negative-control hook, None, 'sigma' or 'lift': 'sigma'
    subtracts e_{0,g} from the splitting on the A leg only, which moves
    the second identity by g2's first row; 'lift' adds the
    first unit vector of degree n-1 to the first atom of the first A-side
    local lift that has such a degree.  Either change must make the
    certificate fail; a passing perturbed run would be a bug.  The report
    echoes it as {"kind": perturb}.
    """
    if not isinstance(iso, LatticeIso):
        iso = lattice_iso(arr_a, arr_b, iso)
    rep_a = is_decomposable(arr_a, guard=guard)
    rep_b = is_decomposable(arr_b, guard=guard)
    for side, rep in (("A", rep_a), ("B", rep_b)):
        if not rep["decomposable"]:
            raise ValueError(
                "arrangement %s is not decomposable (r_global=%d, r_local=%d"
                ", torsion=%r); the comparison needs decomposable inputs"
                % (side, rep["r_global"], rep["r_local"], rep["torsion"]))
    if n < 3:
        raise ValueError("the comparison starts at degree 3")
    if perturb not in (None, "sigma", "lift"):
        raise ValueError("perturb kind must be 'sigma' or 'lift'")

    ch_a = Charts(arr_a, n, guard=guard)
    ch_b = Charts(arr_b, n, guard=guard)

    locals_b = []
    given = corrections or {}
    for f in arr_b.flats:
        corr = given.get(f.index, {})
        locals_b.append(local_lift(arr_b, f.index, corr, n, guard=guard,
                                   alg=ch_b.local_alg[f.index]))
    glift_b = assemble_global_lift(locals_b, arr_b, n, guard=guard, charts=ch_b)

    locals_a = [_transport_local(ch_a, ch_b, iso, f.index,
                                 locals_b[iso.flat_map[f.index]], n)
                for f in arr_a.flats]
    if perturb == "lift":
        fi = next((f.index for f in arr_a.flats
                   if ch_a.local_alg[f.index].dim(n - 1) > 0), None)
        if fi is None:
            raise ValueError("cannot perturb a lift: every local algebra "
                             "vanishes in degree %d" % (n - 1))
        key = (arr_a.flats[fi].members[0], n - 1)
        corr = dict(locals_a[fi].corrections)
        corr[key] = dict(corr.get(key, {}))
        _add_into(corr[key], {0: 1})
        locals_a[fi] = LocalLift(flat=arr_a.flats[fi], n=n, corrections=corr)
    glift_a = assemble_global_lift(locals_a, arr_a, n, guard=guard, charts=ch_a)

    g_n = letter_matrix(ch_a.alg, ch_b.alg, list(iso.atom_map), n)
    pairs_a = relator_basis(arr_a)
    pairs_b = relator_basis(arr_b)
    g = ch_b.alg.dim(n)
    delta_a = exactla.columns_to_matrix(
        [rename(ch_a.alg, ch_b.alg, iso.atom_map, n, glift_a.delta[p])
         for p in pairs_a], g)
    g2 = iso_h2_matrix(arr_a, arr_b, iso)
    la = delta_a + g2
    lb = lift_h2_matrix(arr_b, glift_b, g)
    delta_b = lb[:g]

    sigma, rho = _splitting(ch_b, n, ring)
    sigma_a = None
    if perturb == "sigma":
        if g == 0 or not pairs_b:
            raise ValueError("cannot perturb sigma: the degree-%d piece or "
                             "H2 of the complement is zero" % n)
        sigma_a = [list(row) for row in sigma]
        sigma_a[0][g] -= 1
    check = check_diagram(diagram_instance(g2, la, lb, sigma, ring,
                                           sigma_a=sigma_a))

    report = {
        "pass": bool(check["pass"]),
        "ring": rings.name(ring),
        "degree": n,
        "check": check,
        "perturb": {"kind": perturb} if perturb else None,
        "candidates": "transported" if corrections else "zero",
        "decomposable": {"a": rep_a, "b": rep_b},
        "iso": {"atoms": {arr_a.atoms[i]: arr_b.atoms[j]
                          for i, j in enumerate(iso.atom_map)},
                "flats": list(iso.flat_map)},
        "basis": {"relators_a": [[arr_a.atoms[h], fi] for h, fi in pairs_a],
                  "relators_b": [[arr_b.atoms[h], fi] for h, fi in pairs_b],
                  "grn_dim": g,
                  "grn_torsion": list(ch_b.alg.torsion(n))},
        "matrices": {"g2": g2, "la_star": la, "lb_star": lb, "sigma": sigma,
                     "rho": rho, "g_n": g_n, "delta_a": delta_a,
                     "delta_b": delta_b},
    }
    return report
