"""Exact linear algebra over Z, Q, Z/m and F_p.

Everything here works with arbitrary-precision Python ints.  One sparse
elimination loop serves two rings, pivoting on their units: +-1 over Z
and every nonzero entry over F_p.  Only the row update depends on the ring, and it updates
each row in place, keeping the rows of each column in the same pass.
Over F_p entries are symmetric residues in (-p/2, p/2], so +-1 stays
+-1.  No row ever stores a zero entry.  The rows the Z pass leaves
without a unit entry, its residual, are read densely on the columns they
touch.  rank_sparse reads a rank over F_p off the loop, and over Q off
the Z pass plus a fraction-free finish of its residual (_bareiss), which
also decides is_unimodular.  Over Z the one lattice primitive is
QuotientLattice, Z^w modulo a sublattice: the residual goes to the Smith
normal form, of whose transforms it keeps only the sparse rows and
columns it reads.
The rank cross-check of a QuotientLattice (_ranks_mod) replays the Z
pass's pivot order, left looking, mod p1*p2 for two large primes, with
the reduction loop of QuotientLattice.project (_reduce) and no pivot
search; its ranks depend on the rows and the primes only.  It reads the
rows in place and reduces a copy only of a row that holds a pivot
column: the others become pivots, or join the rest, as they are.
QuotientLattice.project_units reads the coordinates of every unit vector
off one backward pass over the pivot rows.
Vectors are sparse dicts {index: value} throughout: the rows a lattice is
built from, the ambient vectors it projects and the coordinates it
answers in.  A lattice and is_unimodular refuse a row entry outside
their columns, read off the columns the Z pass collects.  Dense matrices
appear only in the Smith form, _bareiss and the two helpers (identity,
columns_to_matrix) of the Smith form and of the matrices a report
prints.  Every entry is an int: no Fraction, no float.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from math import gcd, inf, prod

# Deterministic pool of large primes for the modular rank cross-check.
_CHECK_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
)


def rank_sparse(rows, p=None):
    """Rank of the row span, exactly over Q (p=None) or over F_p.

    Over Q, the Z pass's +-1 pivots plus the rank of its residual (_bareiss).
    rows: iterable of {col: int} sparse rows.  Input rows are not modified.
    """
    if p is not None:
        return len(_eliminate(rows, p)[0])
    pivots, residual = _eliminate(rows, "Z")
    return len(pivots) + _bareiss(residual)[0]


def _ranks_mod(rows, primes, schedule):
    """Ranks of the row span over F_p for each of the distinct primes, by
    one left-looking pass mod m, m the product of the primes, that replays
    a pivot schedule of (col, input id) pairs, in order.

    Each scheduled row is reduced by the pivots found so far and becomes a
    pivot, scaled to 1 at col, if its entry at col is a unit mod m.  Every
    other row, a scheduled row that failed included, is then reduced by
    all the pivots (_reduce), and what is left is ranked mod each prime.
    A unit mod m is nonzero mod every p, and each pivot is zero at the
    columns pivoted before it, so the pivots stay independent mod p; the
    other rows are zero at every pivot column.  So the rank over F_p is
    the number of pivots plus the rank of the rest mod p, whatever the
    schedule: it decides how much work the pass does, not its answer.
    The integer pass's own pivot order makes every scheduled row a pivot.

    Only rows that change cost a copy.  rows is a sequence, read in place:
    a row that holds no pivot column needs no reduction, so a scheduled
    one with +-1 at col becomes a pivot as it is (_reduce reads +-1 as its
    own inverse), and one left after the schedule joins the rest as it
    is.  Only other units are scaled, and any other row is reduced as a
    copy, which joins the rest if it is nonzero.  Input rows are not
    modified.
    """
    m = prod(primes)
    order, pivots, used = {}, [], set()
    for col, rid in schedule:
        if rid in used:
            continue
        x = rows[rid]
        if not order.keys().isdisjoint(x):
            x = _reduce(dict(x), order, pivots, m)
        v = x.get(col)
        if v == 1 or v == -1:
            prow = x
        elif v is None or gcd(v, m) != 1:
            continue
        else:
            inv = pow(v, -1, m)
            prow = {}
            for c, u in x.items():
                u *= inv
                if not -m < u < m:
                    u %= m
                if u:
                    prow[c] = u
            prow[col] = 1
        used.add(rid)
        order[col] = len(pivots)
        pivots.append((col, prow))
    residual = []
    for rid, x in enumerate(rows):
        if rid in used:
            continue
        if not order.keys().isdisjoint(x):
            x = _reduce(dict(x), order, pivots, m)
        if x:
            residual.append(x)
    return [len(pivots) + (rank_sparse(residual, p) if residual else 0)
            for p in primes]


def _reduce(x, order, pivots, m=0):
    """Reduce the sparse vector x in place by the pivot rows, and return it.

    pivots lists (col, row) with row zero at the column of every pivot
    before it, and order maps each pivot column to its index there.  The
    pivot columns x touches are taken from a heap in that order, so a step
    never refills a column already cleared.  Each pivot entry is +-1, its
    own inverse.  Mod m > 1 an entry of x or of a pivot row is any
    representative, taken mod m only when an entry of x leaves (-m, m),
    so small entries stay small ints.  A fill-in -f * v is stored as it
    is, even if it is 0 mod m; it is brought into range when it is next
    updated or read as a multiplier, so a multiplier 0 mod m is read as 0.
    """
    heap = [order[c] for c in x if c in order]
    heapq.heapify(heap)
    while heap:
        col, row = pivots[heapq.heappop(heap)]
        f = x.pop(col, 0)
        if m and not -m < f < m:
            f %= m
        if not f:
            continue  # a column pushed again after it cleared
        f *= row[col]
        for c, v in row.items():
            if c == col:
                continue
            w = x.get(c)
            if w is None:
                x[c] = -f * v
                if c in order:
                    heapq.heappush(heap, order[c])
            else:
                w -= f * v
                if m and not -m < w < m:
                    w %= m
                if w:
                    x[c] = w
                else:
                    del x[c]
    return x


def _eliminate(rows, ring, width=None):
    """Sparse elimination over ring "Z" or F_p for a prime int p.

    rows: iterable of {col: int} rows (copied, not modified); given a
    width, a nonzero entry outside the columns 0..width-1 raises
    ValueError (_check_keys), read off the columns the pass collects
    before it pivots, so the check costs one min and max.  Returns
    (pivots, residual): pivots lists (col, input id, reduced row) in
    elimination order, where the row is nonzero at col and zero at every
    column pivoted before it; residual lists (input id, reduced row) for
    the rows left nonzero, in input order.  No row holds a zero entry, and
    over F_p every entry is a symmetric residue in (-p/2, p/2], so +-1
    stays +-1 and products stay small.  The pivot column is the one with
    the fewest live rows (ties: lowest column); the pivot row is the
    shortest eligible row in it, then the one with the smallest entry
    there, then the first, found in one scan of the column.  Only units of
    the ring are eligible: +-1 over Z, and over F_p every nonzero entry,
    so there the residual is empty.  So every row operation is invertible:
    over Z it is unimodular, and pivot rows plus residual span the input
    lattice.

    The columns wait in a heap of (count, column), and queued maps each
    queued column to the count of its live entry, at most its live count:
    a column is pushed when it is queued and again only when a pivot row
    drops its count below that entry's.  An entry for any other count, or
    for a column no longer queued, is stale and dropped when popped; a live
    entry whose column has since gained rows is pushed again at its count.
    So the first entry popped at its column's count is the least (count,
    column) of the queue.  A popped column without a unit entry leaves the
    queue and joins it again when a later pivot row touches it, as only a
    pivot row's columns change, in count or in entries; so no residual row
    has a unit entry.  The ring's update (_update_z or _update_mod) clears
    the pivot column from the other rows in place, and in the same pass
    moves each row in or out of the live-row set of every column where it
    gains or loses an entry.  Each row's update reads only that row and
    the pivot row, and the sets it touches end the same whatever the
    order, so the rows of the pivot column go to it in set order,
    unsorted.
    """
    update, m = (_update_z, 0) if ring == "Z" else (_update_mod, ring)
    half = m // 2 if m else 0
    live, col_rows = {}, {}
    for rid, r in enumerate(rows):
        if m:
            d = {}
            for c, v in r.items():
                v %= m
                if v:
                    d[c] = v - m if v > half else v
        else:
            d = {c: v for c, v in r.items() if v != 0}
        if d:
            live[rid] = d
            for c in d:
                s = col_rows.get(c)
                if s is None:
                    col_rows[c] = {rid}
                else:
                    s.add(rid)
    if width is not None:
        _check_keys(col_rows, width, "column")
    queued = {c: len(s) for c, s in col_rows.items()}
    heap = [(n, c) for c, n in queued.items()]
    heapq.heapify(heap)
    pivots = []
    while live and heap:
        n, col = heapq.heappop(heap)
        if queued.get(col) != n:
            continue
        rids = col_rows[col]
        if len(rids) != n:
            n = queued[col] = len(rids)
            heapq.heappush(heap, (n, col))
            continue
        del queued[col]
        if n == 1:
            (prid,) = rids
            v = live[prid][col]
            if m == 0 and v != 1 and v != -1:
                continue
        else:
            prid, plen, pabs = -1, inf, inf
            for rid in rids:
                row = live[rid]
                k = len(row)
                if k > plen:
                    continue
                v = row[col]
                a = v if v > 0 else -v
                if k == plen and (a > pabs or a == pabs and rid > prid):
                    continue
                if m == 0 and a != 1:
                    continue
                prid, plen, pabs = rid, k, a
            if prid < 0:
                continue
        # a compact copy: in-place updates leave a row's table oversized
        prow = dict(live.pop(prid))
        pivots.append((col, prid, prow))
        # a column's set may run empty until the update is done
        for c in prow:
            col_rows[c].discard(prid)
        batch = [(rid, live[rid]) for rid in col_rows.pop(col)]
        if batch:
            update(prow, col, batch, col_rows, m)
            for rid, row in batch:
                if not row:
                    del live[rid]
        for c in prow:
            s = col_rows.get(c)
            if s:
                k = len(s)
                if k < queued.get(c, inf):
                    queued[c] = k
                    heapq.heappush(heap, (k, c))
            elif s is not None:
                del col_rows[c]
                queued.pop(c, None)
    return pivots, list(live.items())


def _update_z(prow, col, rows, col_rows, m):
    """Each (rid, row) minus row[col] / prow[col] times prow, in place, with
    col_rows kept in step; prow[col] divides every row[col], as a +-1
    pivot over Z does, so the step is unimodular."""
    pv = prow[col]
    pitems = [(c, v, col_rows[c]) for c, v in prow.items() if c != col]
    for rid, row in rows:
        f = row.pop(col) // pv
        for c, v, s in pitems:
            x = row.get(c)
            if x is None:
                row[c] = -f * v
                s.add(rid)
            else:
                x -= f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
                    s.discard(rid)


def _update_mod(prow, col, rows, col_rows, m):
    """Each (rid, row) minus multiples of prow clearing col, mod the prime
    m, in place, with col_rows kept in step; prow[col] is nonzero.  Entries
    are kept in (-m/2, m/2]."""
    pv = prow[col]
    inv = pv if pv in (1, -1) else pow(pv, -1, m)
    half = m // 2
    pitems = [(c, v, col_rows[c]) for c, v in prow.items() if c != col]
    for rid, row in rows:
        f = row.pop(col) * inv % m
        if f > half:
            f -= m
        for c, v, s in pitems:
            x = row.get(c)
            if x is None:
                x = -f * v % m
                row[c] = x - m if x > half else x
                s.add(rid)
            else:
                x = (x - f * v) % m
                if x:
                    row[c] = x - m if x > half else x
                else:
                    del row[c]
                    s.discard(rid)


# ---------------------------------------------------------------------------
# dense integer matrix helpers

def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def columns_to_matrix(cols, nrows):
    """The dense nrows-row matrix whose columns are the sparse cols."""
    return [[col.get(i, 0) for col in cols] for i in range(nrows)]


# ---------------------------------------------------------------------------
# Smith normal form

def _swap_rows(d, u, uinv, i, k):
    d[i], d[k] = d[k], d[i]
    u[i], u[k] = u[k], u[i]
    for row in uinv:
        row[i], row[k] = row[k], row[i]


def _addmul_row(d, u, uinv, k, i, c):
    # row_k += c * row_i
    dk, di = d[k], d[i]
    for j in range(len(dk)):
        if di[j]:
            dk[j] += c * di[j]
    uk, ui = u[k], u[i]
    for j in range(len(uk)):
        if ui[j]:
            uk[j] += c * ui[j]
    for row in uinv:
        if row[k]:
            row[i] -= c * row[k]


def smith_normal_form(mat):
    """Smith normal form with its left transforms.

    Returns (divisors, U, Uinv): U*mat*V is diagonal with the positive
    divisor chain `divisors` in the upper-left corner, for some unimodular
    V that is not kept.  So the first len(divisors) rows of U*mat span the
    row lattice and the rest are zero.  Pivots are chosen by smallest
    absolute value to keep entries small.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    d = [list(map(int, row)) for row in mat]
    u, uinv = identity(m), identity(m)
    t = 0
    while t < m and t < n:
        # locate smallest nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                if di[j] != 0 and (best is None or abs(di[j]) < best[0]):
                    best = (abs(di[j]), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            _swap_rows(d, u, uinv, t, bi)
        # column operations act on d alone: V is not kept
        if bj != t:
            for row in d:
                row[t], row[bj] = row[bj], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        _addmul_row(d, u, uinv, i, t, -q)
                    if d[i][t]:
                        _swap_rows(d, u, uinv, t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    for row in d:
                        if row[t]:
                            row[j] -= q * row[t]
                    if d[t][j]:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        # enforce the divisibility chain
        piv = d[t][t]
        fixed = True
        for i in range(t + 1, m):
            di = d[i]
            for j in range(t + 1, n):
                if di[j] % piv:
                    _addmul_row(d, u, uinv, t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if piv < 0:
            for j in range(len(d[t])):
                d[t][j] = -d[t][j]
            for j in range(len(u[t])):
                u[t][j] = -u[t][j]
            for row in uinv:
                row[t] = -row[t]
        t += 1
    return [d[i][i] for i in range(t) if d[i][i] != 0], u, uinv


def is_unimodular(rows, n):
    """Whether n sparse integer rows, on the columns 0..n-1, span Z^n: a
    square matrix of determinant +-1.  An entry outside those columns
    raises ValueError.

    The sparse loop pivots on the +-1 entries by unimodular steps, and the
    residual rows are zero at every pivot column, so the matrix is
    unimodular exactly when the residual is, as a square matrix on the
    other columns: of full rank with a last pivot of +-1 (_bareiss).
    """
    pivots, residual = _eliminate(rows, "Z", n)
    if len(pivots) + len(residual) != n:
        return False
    rank, last = _bareiss(residual)
    return rank == len(residual) and last in (1, -1)


def _bareiss(residual):
    """(rank, last pivot or 1) of the (input id, row) pairs residual, read
    densely on the columns they touch, by fraction-free elimination (Bareiss,
    Math. Comp. 1968) that skips a column with no pivot left.  Each step
    divides exactly by the pivot before, so entries are minors and a full
    rank square block's last pivot is its determinant up to sign."""
    cols = sorted({c for _rid, row in residual for c in row})
    a = [[row.get(c, 0) for c in cols] for _rid, row in residual]
    k, prev = 0, 1
    for j in range(len(cols)):
        i = next((i for i in range(k, len(a)) if a[i][j]), None)
        if i is None:
            continue
        a[k], a[i] = a[i], a[k]
        ak, p = a[k], a[k][j]
        for i in range(k + 1, len(a)):
            f = a[i][j]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], ak)]
        prev, k = p, k + 1
    return k, prev


class QuotientLattice:
    """Z^w modulo the sublattice spanned by the given sparse {col: int} rows;
    a row entry outside the columns 0..w-1 raises ValueError.

    The rows are first eliminated by the sparse loop, which pivots only on
    units of Z (+-1); only the residual rows, which have no unit entry, go
    through a dense Smith normal form on the columns they touch, of whose
    transforms U, U^-1 it keeps one sparse entry per coordinate, free then
    torsion: the row of U that reads it, its divisor (0 if free) and the
    column of U^-1 that lifts it (_res).  The whole
    input is cross-checked by its ranks over two large primes: over F_p the
    rank must be the number of pivots plus the divisors prime to p.  Both
    ranks come from one pass mod p1*p2 that replays the pivot order of the
    Z pass with its own arithmetic (_ranks_mod).
    Coordinates are a normal form: `project` reduces by the pivot rows in
    elimination order, reads the surviving columns the residual does not
    touch, then the rows of U on the nonzero residual entries (_read_off);
    `project_units` gives those of every unit vector at once.  The free part
    has `rank` entries, the torsion part one entry per divisor > 1.  A
    class is the sparse dict {coordinate: value} of its nonzero
    coordinates, torsion reduced: `project` and `reduce` answer in it and
    `lift` reads it.
    """

    def __init__(self, w, gens):
        self.w = w
        rows = list(gens)  # read twice: the Z pass and the cross-check
        pivots, residual = _eliminate(rows, "Z", w)
        self._pivots = [(col, row) for col, _rid, row in pivots]
        self._pivot_order = {col: i for i, (col, _row) in enumerate(self._pivots)}
        residual = [row for _rid, row in residual]
        res_cols = sorted({c for row in residual for c in row})
        taken = {c for c, _row in self._pivots}.union(res_cols)
        self._res_cols = set(res_cols)
        self._free_cols = [c for c in range(w) if c not in taken]
        divisors, self._res = [], []
        if residual:
            mat = [[row.get(c, 0) for row in residual] for c in res_cols]
            divisors, u, uinv = smith_normal_form(mat)
            r = len(divisors)
            # the free rows k of U, then its torsion rows
            for k in [*range(r, len(res_cols)), *(i for i, d in enumerate(divisors) if d > 1)]:
                self._res.append(({c: v for c, v in zip(res_cols, u[k]) if v},
                                  divisors[k] if k < r else 0,
                                  {c: ui[k] for c, ui in zip(res_cols, uinv) if ui[k]}))
        if rows and w:
            # the whole input, not just the residual block, is cross-checked
            idx = (w * 31 + len(rows) * 7) % (len(_CHECK_PRIMES) - 1)
            primes = _CHECK_PRIMES[idx:idx + 2]
            schedule = [(col, rid) for col, rid, _row in pivots]
            for p, rank in zip(primes, _ranks_mod(rows, primes, schedule)):
                expect = len(pivots) + sum(1 for d in divisors if d % p)
                if rank != expect:
                    raise ArithmeticError("quotient lattice failed modular cross-check")
        self.rank = len(self._free_cols) + len(res_cols) - len(divisors)
        self.torsion = tuple(d for d in divisors if d > 1)

    @property
    def dim(self):
        """Total number of quotient coordinates (free + torsion)."""
        return self.rank + len(self.torsion)

    def project(self, x):
        """Sparse coordinates of the sparse ambient vector x: x reduced by
        the pivot rows in elimination order (_reduce), then read off.  A
        column outside 0..w-1 raises ValueError."""
        _check_keys(x, self.w, "ambient column")
        return self._read_off(_reduce({c: v for c, v in x.items() if v},
                                      self._pivot_order, self._pivots))

    def project_units(self):
        """[project({c: 1}) for c in range(w)], from one backward pass over
        the pivot rows.  A pivot row is zero at the columns pivoted before
        it and +-1 at its own, so the reduced form of a pivot column is
        minus its sign times the other entries of its row, each later
        pivot column replaced by its own reduced form.  The reduced form
        of e_c that vanishes on every pivot column is unique, so these are
        project's coordinates."""
        reduced = {}
        for col, row in reversed(self._pivots):
            s, acc = -row[col], {}
            for c, v in row.items():
                if c == col:
                    continue
                v *= s
                sub = reduced.get(c)
                if sub is None:
                    acc[c] = acc.get(c, 0) + v
                else:
                    for c2, u in sub.items():
                        acc[c2] = acc.get(c2, 0) + v * u
            reduced[col] = {c: v for c, v in acc.items() if v}
        return [self._read_off(reduced[c] if c in reduced else {c: 1})
                for c in range(self.w)]

    def _read_off(self, y):
        """Sparse coordinates of an ambient vector y that is zero at every
        pivot column: its free columns, then the rows of U (_res) on its
        nonzero residual entries.  y loses its residual columns."""
        res = {c: y.pop(c) for c in y.keys() & self._res_cols} if self._res_cols else {}
        free_cols = self._free_cols
        out = {bisect_left(free_cols, c): v for c, v in y.items()}
        if res:
            for i, (urow, d, _col) in enumerate(self._res, len(free_cols)):
                z = sum(u * res[c] for c, u in urow.items() if c in res)
                z = z % d if d else z
                if z:
                    out[i] = z
        return out

    def lift(self, coords):
        """A sparse ambient representative {column: value} of the class with
        the sparse coordinates {coordinate: value}, its residual columns
        summed from the columns of U^-1 (_res) and put in column order.  A
        coordinate outside 0..dim-1 raises ValueError."""
        _check_keys(coords, self.dim, "coordinate")
        free_cols = self._free_cols
        nfree = len(free_cols)
        x = {free_cols[i]: v for i, v in coords.items() if i < nfree and v}
        if self._res:
            acc = {}
            for i, v in coords.items():
                if i >= nfree and v:
                    for c, u in self._res[i - nfree][2].items():
                        acc[c] = acc.get(c, 0) + v * u
            x.update((c, acc[c]) for c in sorted(acc) if acc[c])
        return x

    def reduce(self, coords):
        """The nonzero entries of sparse coordinates, torsion reduced into
        range.  A coordinate outside 0..dim-1 raises ValueError."""
        _check_keys(coords, self.dim, "coordinate")
        rank = self.rank
        out = {}
        for i, v in coords.items():
            if i >= rank:
                v %= self.torsion[i - rank]
            if v:
                out[i] = v
        return out


def _check_keys(d, n, what):
    """Raise ValueError naming a key of the sparse dict d outside 0..n-1."""
    if d:
        lo, hi = min(d), max(d)
        if lo < 0 or hi >= n:
            raise ValueError("%s %d outside 0..%d" % (what, lo if lo < 0 else hi, n - 1))
