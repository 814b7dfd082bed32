"""Per-layer spans recorded from outside the program.

The benchmark wraps the public functions of each arrlie module in the
child process; nothing under src/ is edited.  A wrapper opens a span on
entry and closes it on exit.  Spans are aggregated as they close, so a
run with millions of calls keeps a fixed amount of memory:

* calls    -- number of spans of that name,
* self_s   -- span duration minus the time covered by its child spans,
* s        -- inclusive duration, counted once for recursive calls.

A wrapped name that a later commit no longer has is reported as absent
and its metrics read 0; a counter whose hook no longer fits the function
is reported the same way.  Neither stops the run.
"""

from __future__ import annotations

import functools
import sys
import time

import oracle


class Tracer:
    """Stack of open spans plus per-name totals and free-form counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []      # open spans: [name, start, time covered by children]
        self.totals = {}     # name -> [calls, self_s, inclusive_s]
        self.active = {}     # name -> open spans of that name
        self.counts = {}     # counter name -> number
        self.pending = []    # (alphabet, degree) of ideal rows not yet consumed
        self.distinct = {}   # name -> set of argument tuples
        self.broken = set()  # names whose counter hook no longer fits

    def enter(self, name):
        self.active[name] = self.active.get(name, 0) + 1
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        name, start, covered = self.stack.pop()
        dur = end - start
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dur - covered
        self.active[name] -= 1
        if not self.active[name]:
            tot[2] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value


def wrap(tracer, name, fn, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            try:
                hook(tracer, args, kwargs, result)
            except Exception:  # a changed signature loses a counter, not the run
                tracer.broken.add(name)
        return result
    return traced


# ---------------------------------------------------------------------------
# counters taken at the layer boundaries

def _ideal_rows(tr, args, kwargs, rows):
    tr.count("holonomy.ideal_rows.rows", len(rows))
    tr.count("holonomy.ideal_rows.nnz", sum(len(r) for r in rows))
    n = args[1] if len(args) > 1 else kwargs["n"]
    tr.pending.append((args[0].alphabet, n))


def _consume_rows(tr, args, kwargs, result):
    """Rank of the ideal pieces whose rows were generated inside this span.

    holonomy_graded and HolonomyAlgebra.quotient are the consumers of
    ideal_rows; the rank of the ideal is witt(k, n) minus the answer's rank.
    """
    while tr.pending:
        k, n = tr.pending.pop()
        tr.count("holonomy.ideal_rows.useful", oracle.witt(k, n) - result.rank)


def _pair_bracket(tr, args, kwargs, result):
    tr.distinct.setdefault("freelie.basis_pair_bracket", set()).add(args[:5])


def _smith(tr, args, kwargs, result):
    mat = args[0]
    tr.count("exactla.smith_normal_form.cells",
             len(mat) * len(mat[0]) if mat else 0)


def _rank_sparse(tr, args, kwargs, result):
    rows = args[0]
    if isinstance(rows, (list, tuple)):
        tr.count("exactla.rank_sparse.nnz", sum(len(r) for r in rows))


# The first function of each layer also reports its inclusive time.
TARGETS = [
    ("cli.main", True, None),
    ("arrangement.pencils_from_normals", True, None),
    ("freelie.lyndon_basis", True, None),
    ("freelie.bracket", False, None),
    ("freelie.tensor_to_lyndon", False, None),
    ("freelie.basis_pair_bracket", False, _pair_bracket),
    ("holonomy.holonomy_graded", True, _consume_rows),
    ("holonomy.HolonomyAlgebra.quotient", False, _consume_rows),
    ("holonomy.HolonomyAlgebra.bracket_coords", False, None),
    ("holonomy.ideal_rows", False, _ideal_rows),
    ("exactla.smith_normal_form", True, _smith),
    ("exactla.rank_sparse", False, _rank_sparse),
    ("exactla.QuotientLattice.__init__", False, None),
    ("exactla.QuotientLattice.project", False, None),
    ("exactla.QuotientLattice.lift", False, None),
    ("exactla.solve_int", False, None),
    ("exactla.kernel_int", False, None),
    ("exactla.mat_vec", False, None),
    ("exactla.mat_mul", False, None),
    ("nilpotent.Class2Group.evaluate", True, None),
    ("nilpotent.truncated_lie", False, None),
    ("nilpotent.GradedLie.__init__", False, None),
    ("nilpotent.ce_differentials", False, None),
    ("nilpotent.ce_h2", False, None),
    ("decomp.is_decomposable", True, None),
    ("decomp.Charts.embed", False, None),
    ("decomp.Charts.restrict", False, None),
    ("decomp.assemble_global_lift", False, None),
    ("decomp.letter_matrix", False, None),
    ("decomp.check_diagram", False, None),
    ("decomp._mat_vec", False, None),
]

# Extra per-function metrics, each a counter the hooks above maintain.
EXTRA = {
    "freelie.basis_pair_bracket": ["distinct"],
    "holonomy.ideal_rows": ["rows", "nnz", "useful_ratio"],
    "exactla.smith_normal_form": ["cells"],
    "exactla.rank_sparse": ["nnz"],
}


def metric_names():
    """(name, unit, better) of every per-layer metric, in a fixed order."""
    out = []
    for name, inclusive, _hook in TARGETS:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
        if inclusive:
            out.append((name + ".s", "s", "lower"))
        for extra in EXTRA.get(name, ()):
            if extra == "useful_ratio":
                out.append((name + ".useful_ratio", "ratio", "higher"))
            else:
                out.append((name + "." + extra, "count", "lower"))
    out.append(("bench.trace_overhead_s", "s", "lower"))
    return out


def _resolve(modules, path):
    """(owner, attribute, function) for 'module.Class.func', or None."""
    modname, *attrs = path.split(".")
    owner = modules.get(modname)
    if owner is None:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    fn = getattr(owner, attrs[-1], None)
    if not callable(fn):
        return None
    return owner, attrs[-1], fn


def install(tracer, package="arrlie", targets=TARGETS):
    """Wrap every target in the loaded package; return the absent names.

    A module-level function is replaced wherever a module of the package
    holds it, so names brought in with `from .x import y` (for example
    holonomy.bracket) and calls inside the defining module are traced
    too.  Methods are replaced on their class.
    """
    prefix = package + "."
    modules = {name[len(prefix):]: mod for name, mod in sys.modules.items()
               if name.startswith(prefix) and mod is not None}
    holders = list(modules.values()) + [sys.modules[package]]
    absent = []
    for path, _inclusive, hook in targets:
        found = _resolve(modules, path)
        if found is None:
            absent.append(path)
            continue
        owner, attr, fn = found
        traced = wrap(tracer, path, fn, hook)
        if owner in holders:
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        else:
            setattr(owner, attr, traced)
    return absent


def layer_metrics(tracer):
    """Per-layer values of one traced pass, keyed like metric_names()."""
    out = {}
    for name, inclusive, _hook in TARGETS:
        calls, self_s, incl = tracer.totals.get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
        if inclusive:
            out[name + ".s"] = incl
    out["freelie.basis_pair_bracket.distinct"] = len(
        tracer.distinct.get("freelie.basis_pair_bracket", ()))
    rows = tracer.counts.get("holonomy.ideal_rows.rows", 0)
    for key in ("holonomy.ideal_rows.rows", "holonomy.ideal_rows.nnz",
                "exactla.smith_normal_form.cells", "exactla.rank_sparse.nnz"):
        out[key] = tracer.counts.get(key, 0)
    out["holonomy.ideal_rows.useful_ratio"] = (
        tracer.counts.get("holonomy.ideal_rows.useful", 0) / rows if rows else 0.0)
    return out
