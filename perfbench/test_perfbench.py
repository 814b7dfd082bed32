"""Checks of the benchmark's own oracle, inputs and span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import random
import sys
import types

import pytest

import oracle
import reference
import tracing


def test_oracle_reproduces_fiber_type_ranks():
    assert [oracle.witt(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert oracle.holonomy_rank("braid", 4, 5) == 54
    assert oracle.holonomy_rank("braid", 5, 4) == 81
    assert oracle.holonomy_rank("near_pencil", 6, 4) == oracle.witt(4, 4) == 60
    assert oracle.holonomy_rank("near_pencil", 5, 1) == 5
    assert oracle.h2check_expected("near_pencil", 5, 4)["expected"] == 18 + 7


def test_oracle_words():
    names = ["a", "b"]
    word = "a^2.b^-1.a"
    assert oracle.exponent_sums(word, names) == (3, -1)
    inv = oracle.inverse_word(word)
    assert inv == "a^-1.b^1.a^-2"
    assert oracle.exponent_sums(word + "." + inv, names) == (0, 0)
    # braid(4): 4 triple points and 3 double points, one relator per member
    assert len(oracle.relator_words("braid", 4)) == 4 * 3 + 3 * 2


@pytest.mark.parametrize("family,param", [("braid", 4), ("braid", 5),
                                          ("near_pencil", 5),
                                          ("near_pencil", 6)])
def test_relabelled_arrangement_validates_with_same_betti(family, param):
    arrlie = pytest.importorskip("arrlie")
    import child
    for seed in range(4):
        arr = child.relabel(arrlie, family, param, random.Random(seed))
        again = arrlie.arrangement_from_json(arrlie.arrangement_to_json(arr))
        b = arrlie.betti(again)
        assert (b.b1, b.b2) == oracle.betti(family, param)
        by_name = sorted(sorted(again.atoms[i] for i in p) for p in again.pencils)
        assert by_name == sorted(sorted(p) for p in oracle.pencils(family, param))


def test_reference_clock_rescales_each_stretch(monkeypatch):
    kernel = iter([0.010, 0.020, 0.030])
    monkeypatch.setattr(reference, "kernel_s", lambda: next(kernel))
    monkeypatch.setattr(reference, "REFERENCE_S", 0.012)
    monkeypatch.setattr(reference, "STRETCH_S", 0.25)
    clock = reference.Clock()
    clock.add(0.10)
    clock.add(0.20)      # the stretch reaches 0.25 s: kernel timed at 0.020
    clock.add(0.05)
    clock.close()        # kernel timed at 0.030
    clock.close()        # nothing pending, no kernel timing
    assert clock.raw_s == pytest.approx(0.35)
    assert clock.ref_s == pytest.approx(0.30 * 0.012 / 0.015
                                        + 0.05 * 0.012 / 0.025)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0,10] holds A [1,4] and B [5,9]; A holds B [2,3];
    # the outer B holds a recursive B [6,8].
    events = [("enter", "root", 0), ("enter", "A", 1), ("enter", "B", 2),
              ("exit", None, 3), ("exit", None, 4), ("enter", "B", 5),
              ("enter", "B", 6), ("exit", None, 8), ("exit", None, 9),
              ("exit", None, 10)]
    tr = tracing.Tracer(clock=FakeClock([t for _, _, t in events]))
    for kind, name, _t in events:
        tr.enter(name) if kind == "enter" else tr.exit()
    assert tr.stack == []
    calls, self_s, incl = zip(*(tr.totals[n] for n in ("root", "A", "B")))
    assert calls == (1, 1, 3)
    assert self_s == (10 - 3 - 4, 3 - 1, 1 + (4 - 2) + 2)
    assert incl == (10, 3, 1 + 4)   # the recursive B is not counted twice


def test_install_traces_imported_names_and_reports_absent_ones(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    lower = types.ModuleType("fakepkg.lower")
    upper = types.ModuleType("fakepkg.upper")

    def double(x):
        return 2 * x

    class Box:
        def get(self):
            return lower.double(21)

    lower.double, lower.Box = double, Box
    upper.double = double     # as `from .lower import double` would
    for name, mod in (("fakepkg", pkg), ("fakepkg.lower", lower),
                      ("fakepkg.upper", upper)):
        monkeypatch.setitem(sys.modules, name, mod)
    tr = tracing.Tracer()
    absent = tracing.install(tr, "fakepkg", [("lower.double", True, None),
                                             ("lower.Box.get", False, None),
                                             ("lower.gone", False, None),
                                             ("missing.f", False, None)])
    assert absent == ["lower.gone", "missing.f"]
    assert upper.double(1) == 2 and Box().get() == 42
    assert tr.totals["lower.double"][0] == 2
    assert tr.totals["lower.Box.get"][0] == 1
