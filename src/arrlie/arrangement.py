"""Central hyperplane arrangements through their rank <= 2 intersection data.

An arrangement is a list of atoms (hyperplane labels) plus the family of
rank-2 pencils: every unordered pair of atoms lies in exactly one pencil.
Coordinates are optional; when normals (exact rationals) are given the
pencils are derived as maximal coincidence classes of 2-dimensional spans
and, if pencils were also supplied, the two must agree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from . import rings
from .freelie import require_int


class ArrangementError(ValueError):
    """Invalid arrangement data (bad atoms, normals, or pencil cover)."""


class Record:
    """Base of the frozen records: a record's fields are the parameters of
    its __init__ (its __match_args__), which stores each with self._set.
    Like frozen dataclasses, records compare equal only within one class,
    hash and print by their fields, and refuse assignment and deletion;
    unlike them, they cost no import of dataclasses and inspect, about
    20 ms of every process."""

    _set = object.__setattr__

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def _values(self):
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__match_args__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class Flat2(Record):
    """A rank-2 flat: the pencil of atoms containing it, with its Mobius value."""

    def __init__(self, index, members, mu):
        self._set("index", index)
        self._set("members", members)
        self._set("mu", mu)


class BettiData(Record):
    def __init__(self, b1, b2):
        self._set("b1", b1)
        self._set("b2", b2)


def _primitive(row):
    """row divided by the gcd of its entries, signed so its first nonzero
    entry is positive; None for the zero row."""
    g = gcd(*row)
    if not g:
        return None
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def _rational(x):
    """x read into Q: an int or a Fraction, never a bool, float or string."""
    try:
        return rings.coeff(rings.Q, x)
    except ValueError:
        raise ArrangementError("normal entry %r is not an int or a Fraction"
                               % (x,)) from None


def _integer_row(v):
    """The rational vector v times the lcm of its denominators."""
    v = [x if type(x) in (int, Fraction) else _rational(x) for x in v]
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v]


def pencils_from_normals(atoms, normals):
    """Rank-2 coincidence classes of the normals, as sorted index tuples.

    Each normal is made a primitive integer row once.  Atom i groups the
    later atoms j by the primitive form of n_i[p] * n_j - n_j[p] * n_i (p
    the first nonzero coordinate of n_i), the image of n_j modulo n_i, and
    skips pairs in a pencil found from an earlier atom.  Raises
    ArrangementError on zero, proportional, or ragged normals, naming the
    offending atoms.
    """
    m = len(normals)
    if m != len(atoms):
        raise ArrangementError("got %d normals for %d atoms" % (m, len(atoms)))
    dims = {len(v) for v in normals}
    if len(dims) > 1:
        raise ArrangementError("normals have mixed dimensions %s" % sorted(dims))
    for i, v in enumerate(normals):
        if all(x == 0 for x in v):
            raise ArrangementError("normal of atom %r is zero" % (atoms[i],))
    rows = [_primitive(_integer_row(v)) for v in normals]
    if len(set(rows)) < m:
        i, j = next((i, j) for i in range(m) for j in range(i + 1, m)
                    if rows[i] == rows[j])
        raise ArrangementError(
            "normals of atoms %r and %r are proportional" % (atoms[i], atoms[j]))
    out, covered = [], set()
    for i, u in enumerate(rows):
        p = next(c for c, x in enumerate(u) if x)
        a = u[p]
        planes = {}
        for j in range(i + 1, m):
            if (i, j) not in covered:
                b = rows[j][p]
                key = _primitive([a * y - b * x for x, y in zip(u, rows[j])])
                planes.setdefault(key, [i]).append(j)
        for members in planes.values():
            out.append(tuple(members))
            covered.update(combinations(members[1:], 2))
    out.sort()
    _check_pair_cover(atoms, out)
    return out


def _check_pair_cover(atoms, pencils):
    m = len(atoms)
    seen = {}
    for t, pen in enumerate(pencils):
        if len(pen) < 2:
            raise ArrangementError("pencil %r has fewer than two atoms" % (pen,))
        if len(set(pen)) != len(pen) or list(pen) != sorted(pen):
            raise ArrangementError("pencil %r is not a sorted set of atom indices" % (pen,))
        if pen[0] < 0 or pen[-1] >= m:
            raise ArrangementError("pencil %r references a missing atom" % (pen,))
        for a in range(len(pen)):
            for b in range(a + 1, len(pen)):
                pair = (pen[a], pen[b])
                if pair in seen:
                    raise ArrangementError(
                        "atoms %r and %r lie in two pencils" % (atoms[pair[0]], atoms[pair[1]]))
                seen[pair] = t
    for i in range(m):
        for j in range(i + 1, m):
            if (i, j) not in seen:
                raise ArrangementError(
                    "atoms %r and %r lie in no pencil" % (atoms[i], atoms[j]))


class Arrangement:
    """Atoms plus rank-2 pencils; normals optional and exact."""

    def __init__(self, atoms, normals=None, pencils=None):
        for pen in pencils or ():
            if any(isinstance(i, bool) or not isinstance(i, int) for i in pen):
                raise ArrangementError("pencil %r: atom indices must be integers"
                                       % (pen,))
        atoms = tuple(str(a) for a in atoms)
        if not atoms:
            raise ArrangementError("arrangement needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ArrangementError("duplicate atom names")
        if normals is None and pencils is None:
            raise ArrangementError("need normals or pencils")
        if normals is not None:
            normals = tuple(tuple(x if type(x) is Fraction else _rational(x)
                                  for x in v) for v in normals)
            derived = [tuple(p) for p in pencils_from_normals(atoms, normals)]
            if pencils is not None:
                given = sorted(tuple(sorted(p)) for p in pencils)
                if given != derived:
                    raise ArrangementError(
                        "given pencils disagree with the ones derived from normals: "
                        "%s vs %s" % (given, derived))
            pencils = derived
        else:
            pencils = sorted(tuple(sorted(p)) for p in pencils)
            _check_pair_cover(atoms, pencils)
        self.atoms = atoms
        self.normals = normals
        self.pencils = tuple(pencils)
        self.flats = tuple(
            Flat2(index=t, members=pen, mu=len(pen) - 1)
            for t, pen in enumerate(self.pencils))

    @property
    def n_atoms(self):
        return len(self.atoms)

    def atom_index(self, name):
        try:
            return self.atoms.index(name)
        except ValueError:
            raise ArrangementError("unknown atom %r" % (name,)) from None

    def __repr__(self):
        return "Arrangement(%d atoms, %d pencils)" % (len(self.atoms), len(self.pencils))


def mobius_l2(arr):
    """Mobius values of the rank-2 flats: mu(Y) = |Y| - 1, kept in Flat2.mu."""
    return [f.mu for f in arr.flats]


def betti(arr):
    """First and second Betti numbers of the complement."""
    return BettiData(b1=len(arr.atoms), b2=sum(mobius_l2(arr)))


def localize(arr, flat_index):
    """Sub-arrangement on the atoms of one rank-2 flat (a single pencil)."""
    if not 0 <= flat_index < len(arr.flats):
        raise ArrangementError("no flat with index %d" % flat_index)
    members = arr.flats[flat_index].members
    atoms = [arr.atoms[i] for i in members]
    normals = [arr.normals[i] for i in members] if arr.normals is not None else None
    return Arrangement(atoms, normals=normals,
                       pencils=None if normals is not None else [tuple(range(len(members)))])


# ---------------------------------------------------------------------------
# catalog generators

def braid(n):
    """Braid arrangement A_n: hyperplanes x_i = x_j in C^n, normals e_i - e_j."""
    require_int("n", n)
    if n < 2:
        raise ArrangementError("braid(n) needs n >= 2")
    atoms, normals = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            atoms.append("H%d%d" % (i, j))
            v = [Fraction(0)] * n
            v[i - 1] = Fraction(1)
            v[j - 1] = Fraction(-1)
            normals.append(v)
    return Arrangement(atoms, normals=normals)


def pencil(k):
    """k lines through one point: a single pencil on all atoms."""
    require_int("k", k)
    if k < 2:
        raise ArrangementError("pencil(k) needs k >= 2")
    return Arrangement(["H%d" % (i + 1) for i in range(k)],
                       pencils=[tuple(range(k))])


def generic(k):
    """k hyperplanes in general position: every pencil is a double point."""
    require_int("k", k)
    if k < 1:
        raise ArrangementError("generic(k) needs k >= 1")
    pens = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return Arrangement(["H%d" % (i + 1) for i in range(k)], pencils=pens)


def near_pencil(k):
    """One pencil of size k-1 plus double points with the last atom."""
    require_int("k", k)
    if k < 3:
        raise ArrangementError("near_pencil(k) needs k >= 3")
    pens = [tuple(range(k - 1))] + [(i, k - 1) for i in range(k - 1)]
    return Arrangement(["H%d" % (i + 1) for i in range(k)], pencils=pens)


_CATALOG = {"braid": braid, "pencil": pencil, "generic": generic, "near_pencil": near_pencil}


def catalog_arrangement(name, param):
    gen = _CATALOG.get(name)
    if gen is None:
        raise ArrangementError(
            "unknown catalog family %r (have: %s)" % (name, ", ".join(sorted(_CATALOG))))
    return gen(param)


def standard_catalog():
    """The deterministic desk-scale corpus used by the test suite."""
    out = []
    for n in (3, 4, 5):
        out.append(("braid(%d)" % n, braid(n)))
    for k in (2, 3, 4, 5, 6):
        out.append(("pencil(%d)" % k, pencil(k)))
    for k in (2, 3, 4, 5, 6):
        out.append(("generic(%d)" % k, generic(k)))
    for k in (3, 4, 5, 6):
        out.append(("near_pencil(%d)" % k, near_pencil(k)))
    return out


# ---------------------------------------------------------------------------
# JSON interchange; big integers as strings beyond the 53-bit safe range

_SAFE = 2 ** 53


def _int_to_json(v):
    return v if abs(v) < _SAFE else str(v)


def rat_to_json(f):
    f = Fraction(f)
    if f.denominator == 1:
        return _int_to_json(f.numerator)
    return [_int_to_json(f.numerator), _int_to_json(f.denominator)]


def rat_from_json(obj):
    if isinstance(obj, bool):
        raise ArrangementError("boolean is not a rational: %r" % (obj,))
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            raise ArrangementError("bad rational string %r" % (obj,)) from None
    if isinstance(obj, list) and len(obj) == 2:
        num, den = (rat_from_json(x) for x in obj)
        if den == 0:
            raise ArrangementError("zero denominator in %r" % (obj,))
        return num / den
    if isinstance(obj, float):
        raise ArrangementError("floats are not accepted, use strings or [num, den]: %r" % obj)
    raise ArrangementError("bad rational %r" % (obj,))


def arrangement_to_json(arr):
    out = {"atoms": list(arr.atoms),
           "pencils": [list(p) for p in arr.pencils]}
    if arr.normals is not None:
        out["normals"] = [[rat_to_json(x) for x in v] for v in arr.normals]
    return out


def arrangement_from_json(obj):
    if not isinstance(obj, dict):
        raise ArrangementError("arrangement JSON must be an object")
    if "atoms" not in obj:
        raise ArrangementError("arrangement JSON needs an 'atoms' list")
    atoms = obj["atoms"]
    normals = obj.get("normals")
    pencils = obj.get("pencils")
    if not isinstance(atoms, list):
        raise ArrangementError("'atoms' must be a list of names, got %r" % (atoms,))
    if normals is None and pencils is None:
        raise ArrangementError("arrangement JSON needs 'normals' or 'pencils'")
    for key, value in (("normals", normals), ("pencils", pencils)):
        if value is not None and not (isinstance(value, list)
                                      and all(isinstance(v, list) for v in value)):
            raise ArrangementError("'%s' must be a list of lists, got %r" % (key, value))
    if normals is not None:
        normals = [[rat_from_json(x) for x in v] for v in normals]
    return Arrangement(atoms, normals=normals, pencils=pencils)


def load_arrangement(path):
    import json
    with open(path) as f:
        try:
            obj = json.load(f)
        except ValueError as e:
            raise ArrangementError("bad JSON in %s: %s" % (path, e)) from None
    return arrangement_from_json(obj)
