"""The frozen records and what importing the package costs.

The records were frozen dataclasses; the values pinned here (repr text,
equality, hashes, errors) are the ones those dataclasses gave.
"""

import os
import subprocess
import sys

import pytest

import arrlie
from arrlie import (BettiData, Class2Element, DiagramInstance, Flat2,
                    GlobalLift, GradedAbelian, LatticeIso, LocalLift,
                    Presentation, RelationSet, rings)
from lie_reference import sparse_rows

RECORDS = [
    (Flat2(0, (0, 1, 2), 2),
     "Flat2(index=0, members=(0, 1, 2), mu=2)"),
    (Flat2(index=1, members=(3,), mu=0),
     "Flat2(index=1, members=(3,), mu=0)"),
    (BettiData(6, 11), "BettiData(b1=6, b2=11)"),
    (GradedAbelian(3), "GradedAbelian(rank=3, torsion=())"),
    (GradedAbelian(rank=0, torsion=[2, 4]),
     "GradedAbelian(rank=0, torsion=(2, 4))"),
    (GradedAbelian(1, (4,)), "GradedAbelian(rank=1, torsion=(4,))"),
    (RelationSet(2, ({0: 1},), ((0, 1),), ("a", "b")),
     "RelationSet(alphabet=2, elements=({0: 1},), labels=((0, 1),), "
     "atom_names=('a', 'b'))"),
    (Presentation(2, ("xyXY",), ("x", "y")),
     "Presentation(generators=2, relators=('xyXY',), names=('x', 'y'))"),
    (Class2Element((1, -2), (0, 3)), "Class2Element(exps=(1, -2), tail=(0, 3))"),
    (LocalLift(Flat2(0, (0, 1), 1), 3, {("H1", 2): (1,)}),
     "LocalLift(flat=Flat2(index=0, members=(0, 1), mu=1), n=3, "
     "corrections={('H1', 2): (1,)})"),
    (GlobalLift(3, {}, {("H1", 0): (1, 0)}),
     "GlobalLift(n=3, corrections={}, delta={('H1', 0): (1, 0)})"),
    (DiagramInstance(*(tuple(sparse_rows(m)) for m in
                       ([[1]], [[2]], [], [[0, 1]], [[1, 0]]))),
     "DiagramInstance(g2=({0: 1},), la_star=({0: 2},), lb_star=(), "
     "sigma_a=({1: 1},), sigma_b=({0: 1},), ring=('Z',))"),
    (DiagramInstance(g2=(), la_star=(), lb_star=(), sigma_a=(), sigma_b=(),
                     ring=rings.Q),
     "DiagramInstance(g2=(), la_star=(), lb_star=(), sigma_a=(), "
     "sigma_b=(), ring=('Q',))"),
    (LatticeIso((1, 0), (0,)), "LatticeIso(atom_map=(1, 0), flat_map=(0,))"),
]

FIELDS = {
    Flat2: ("index", "members", "mu"),
    BettiData: ("b1", "b2"),
    GradedAbelian: ("rank", "torsion"),
    RelationSet: ("alphabet", "elements", "labels", "atom_names"),
    Presentation: ("generators", "relators", "names"),
    Class2Element: ("exps", "tail"),
    LocalLift: ("flat", "n", "corrections"),
    GlobalLift: ("n", "corrections", "delta"),
    DiagramInstance: ("g2", "la_star", "lb_star", "sigma_a", "sigma_b", "ring"),
    LatticeIso: ("atom_map", "flat_map"),
}


@pytest.mark.parametrize("rec,text", RECORDS, ids=[t.split("(")[0] + str(i)
                                                   for i, (_, t) in enumerate(RECORDS)])
def test_record_repr_equality_hash_and_immutability(rec, text):
    cls = type(rec)
    fields = FIELDS[cls]
    values = tuple(getattr(rec, f) for f in fields)
    assert repr(rec) == text
    assert cls.__match_args__ == fields
    twin = cls(*values)
    assert rec == twin and not rec != twin
    assert cls(**dict(zip(fields, values))) == rec
    try:
        want = hash(values)
    except TypeError:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(rec)
    else:
        assert hash(rec) == hash(twin) == want
    for f in fields:
        with pytest.raises(AttributeError, match="cannot assign to field '%s'" % f):
            setattr(rec, f, 0)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        rec.extra = 0
    assert getattr(rec, fields[0]) == values[0]


def test_records_compare_only_within_their_class():
    assert Class2Element((1,), (2,)) != LatticeIso((1,), (2,))
    assert LatticeIso((1,), (2,)) != Class2Element((1,), (2,))
    assert BettiData(1, 2) != (1, 2)
    assert Flat2(0, (0, 1), 1) != Flat2(0, (0, 1), 2)
    assert GradedAbelian(2) == GradedAbelian(2, ())
    assert len({Flat2(0, (0, 1), 1), Flat2(0, (0, 1), 1), Flat2(1, (0, 1), 1)}) == 2


def test_record_constructors_and_their_errors():
    assert GradedAbelian(2).torsion == ()
    assert DiagramInstance((), (), (), (), ()).ring == rings.Z
    assert len(RelationSet(2, ({0: 1}, {}), ((0, 1), None), ("a", "b"))) == 2
    assert Presentation(2, ("xyXY",), ("x", "y")).letter_sequence("xY") == [(0, 1), (1, -1)]
    for make, message in [
            (lambda: GradedAbelian(-1), "negative rank"),
            (lambda: GradedAbelian(0, (1,)), "torsion divisors must exceed 1"),
            (lambda: GradedAbelian(0, (2, 3)), "torsion divisors must form a chain")]:
        with pytest.raises(ValueError, match=message):
            make()
    for make, message in [
            (lambda: Flat2(0, ()), r"Flat2.__init__\(\) missing 1 required "
                                   r"positional argument: 'mu'"),
            (lambda: BettiData(1, 2, 3), r"BettiData.__init__\(\) takes 3 "
                                         r"positional arguments but 4 were given"),
            (lambda: BettiData(1, b1=2), r"BettiData.__init__\(\) got multiple "
                                         r"values for argument 'b1'"),
            (lambda: LatticeIso((), (), x=1), r"LatticeIso.__init__\(\) got an "
                                              r"unexpected keyword argument 'x'")]:
        with pytest.raises(TypeError, match=message):
            make()


def test_importing_the_package_and_its_cli_skips_dataclasses_and_inspect():
    # both modules pull in more than the package uses; a fresh process
    # shows what an arrlie command pays for before it computes
    probe = ("import sys, arrlie, arrlie.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(arrlie.__file__)))
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                       text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
