"""Command line interface.

Subcommands operate on arrangement or presentation JSON files and print a
single JSON document to stdout (sorted keys, compact separators), so runs
are byte-for-byte reproducible.  Timing goes to stderr.  Exit codes: 0 for
success, 1 when a computed verdict is negative, 2 for bad inputs, 3 for an
internal error (an exception no input check anticipated).
"""

from __future__ import annotations

import functools
import gc
import io
import json
import math
import os
import sys
import time
import types
from fractions import Fraction

from . import decomp, rings
from .arrangement import _SAFE, ArrangementError, _int_to_json, \
    arrangement_from_json, arrangement_to_json, betti, catalog_arrangement, \
    mobius_l2
from .freelie import DEFAULT_GUARD, SizeGuardError, witt_rank
from .holonomy import (Presentation, falk_invariant, holonomy_degrees,
                       presentation_from_json)
from .nilpotent import Class2Group, h2_rank_check, k_invariant_matrix


class InputError(ValueError):
    """Bad file, flag, or JSON payload; maps to exit code 2."""


def _jsonable(x):
    """Make a payload JSON-safe: big ints and rationals become strings."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        try:
            return _int_to_json(x)
        except ValueError:  # more digits than the interpreter converts
            raise InputError("the result holds an integer of %d digits, too many "
                             "to print" % _digits(x)) from None
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _jsonable(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, str):
        return x
    if isinstance(x, (list, tuple)):
        # a list of small plain ints, such as a dense matrix row, is already
        # safe: check it in C rather than one call per entry
        if set(map(type, x)) <= {int} and (not x or -_SAFE < min(x) and max(x) < _SAFE):
            return x
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    raise TypeError("cannot serialize %r" % (x,))


def _digits(v):
    """Decimal digits of the int v, counted without converting it."""
    v, d = abs(v), v.bit_length() * 301029 // 10 ** 6  # 0.301029 < log10(2)
    while 10 ** d <= v:
        d += 1
    return d


def _dumps(payload):
    return json.dumps(_jsonable(payload), sort_keys=True,
                      separators=(",", ":")) + "\n"


def _print_table(payload, out):
    """Aligned key/value text for --table; nested values stay as JSON."""
    if isinstance(payload, dict):
        keys = sorted(payload)
        width = max(len(str(k)) for k in keys) if keys else 0
        for k in keys:
            v = payload[k]
            if isinstance(v, (dict, list, tuple)):
                v = json.dumps(_jsonable(v), sort_keys=True)
            out.write("%-*s  %s\n" % (width, k, v))
    elif isinstance(payload, (list, tuple)):
        for i, v in enumerate(payload):
            if isinstance(v, (dict, list, tuple)):
                v = json.dumps(_jsonable(v), sort_keys=True)
            out.write("%d  %s\n" % (i + 1, v))
    else:
        out.write("%s\n" % (payload,))


def _read_json(path, digests=None):
    """The JSON of a file; its sha256 is appended to digests when given
    (only --report prints them, so only then is hashlib loaded)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise InputError("%s: %s" % (path, e.strerror or e)) from None
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as e:
        raise InputError("%s: invalid JSON (%s)" % (path, e)) from None
    if digests is not None:
        import hashlib
        digests.append({"path": path, "sha256": hashlib.sha256(raw).hexdigest()})
    return obj


def _check_cost(what, cost, guard):
    """Refuse, before any work, a run that costs more than --guard."""
    if cost > guard:
        raise SizeGuardError("%s costs %d > guard %d; raise --guard to proceed"
                             % (what, cost, guard))


def _pencil_cost(atoms, dim):
    # every atom pair is checked against the pencil cover, 16 units, and,
    # with normals of dimension dim, its plane is keyed by one primitive
    # reduction, a third of a unit per coordinate: at the default guard
    # generic 1118, cover only, takes about 4.7 s, braid 41 (820 atoms in
    # dimension 41, admitted) about 4.3 s and braid 42 (refused) about
    # 5.2 s on a 2-CPU x86-64 machine
    return (atoms * (atoms - 1) // 2) * (48 + dim) // 3


def _read_input(path, digests, guard):
    """JSON of an input file, its digest recorded when digests is a list
    (--report).  An arrangement is refused here, before its pencils are
    derived, when they cost too much."""
    obj = _read_json(path, digests)
    if isinstance(obj, dict) and isinstance(obj.get("atoms"), list):
        atoms, normals = len(obj["atoms"]), obj.get("normals")
        dim = (max((len(v) for v in normals if isinstance(v, list)), default=0)
               if isinstance(normals, list) else 0)
        _check_cost("%s (%d atoms, dimension %d)" % (path, atoms, dim),
                    _pencil_cost(atoms, dim), guard)
    return obj


def _load_arrangement(path, digests, guard):
    obj = _read_input(path, digests, guard)
    try:
        return arrangement_from_json(obj)
    except ArrangementError as e:
        raise InputError("%s: %s" % (path, e)) from None


def _load_source(path, digests, guard):
    """Arrangement or presentation, keyed on the JSON shape."""
    obj = _read_input(path, digests, guard)
    try:
        if isinstance(obj, dict) and "generators" in obj:
            return presentation_from_json(obj)
        return arrangement_from_json(obj)
    except (ArrangementError, ValueError) as e:
        raise InputError("%s: %s" % (path, e)) from None


def _ring(text):
    try:
        return rings.parse(text)
    except ValueError as e:
        raise InputError(str(e)) from None


def _parse_json_arg(flag, text):
    """Inline JSON, or a path to a JSON file, given as the value of flag."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    if os.path.exists(text):
        return _read_json(text)
    raise InputError("%s %r is neither inline JSON nor a readable file"
                     % (flag, text))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _iso_from_json(obj):
    """--iso: an object or a list whose images are atom names or indices."""
    if isinstance(obj, dict):
        items = [("[%s]" % json.dumps(k), v) for k, v in obj.items()]
    elif isinstance(obj, list):
        items = [("[%d]" % i, v) for i, v in enumerate(obj)]
    else:
        raise InputError("--iso: expected an object or a list of atom "
                         "images, got %s" % json.dumps(obj))
    for path, v in items:
        if not (isinstance(v, str) or _is_int(v)):
            raise InputError("--iso%s: an atom image must be a name or an "
                             "integer index, got %s" % (path, json.dumps(v)))
    return obj


def _corrections_from_json(obj, n_flats, n):
    """--corrections {flat: {"atom.degree": [int, ...]}} as local_lift input,
    at verify degree n.  A flat index or a degree is converted only when
    it has no more digits, leading zeros aside, than n_flats or n: a
    longer one is out of range."""
    if not isinstance(obj, dict):
        raise InputError("--corrections: expected an object keyed by flat "
                         "index, got %s" % json.dumps(obj))
    out = {}
    for fi, table in obj.items():
        path = "--corrections[%s]" % json.dumps(fi)
        digits = fi.lstrip("0") or "0"
        if not (fi.isdecimal() and len(digits) <= len(str(n_flats))
                and int(digits) < n_flats):
            raise InputError("%s: not a flat index of B, which has %d "
                             "flats" % (path, n_flats))
        if not isinstance(table, dict):
            raise InputError('%s: expected an object keyed by "atom.degree", '
                             "got %s" % (path, json.dumps(table)))
        corr = {}
        for key, vec in table.items():
            kpath = "%s[%s]" % (path, json.dumps(key))
            atom, _, deg = key.rpartition(".")
            if not atom or not deg.isdecimal():
                raise InputError('%s: a key must read "atom.degree"' % kpath)
            deg = deg.lstrip("0") or "0"
            if len(deg) > len(str(n)):
                raise InputError("%s: degree not in 2..%d" % (kpath, n - 1))
            if not isinstance(vec, list):
                raise InputError("%s: expected a list of coordinates, got %s"
                                 % (kpath, json.dumps(vec)))
            for i, v in enumerate(vec):
                if not _is_int(v):
                    raise InputError("%s[%d]: a coordinate must be an integer,"
                                     " got %s" % (kpath, i, json.dumps(v)))
            corr[(atom, int(deg))] = tuple(vec)
        out[int(digits)] = corr
    return out


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit_code)

def _cmd_lattice(args, digests):
    arr = _load_arrangement(args.file, digests, args.guard)
    b = betti(arr)
    payload = {"atoms": list(arr.atoms),
               "pencils": [list(p) for p in arr.pencils],
               "mu": mobius_l2(arr), "b1": b.b1, "b2": b.b2}
    return payload, 0


def _cmd_betti(args, digests):
    arr = _load_arrangement(args.file, digests, args.guard)
    b = betti(arr)
    return {"b1": b.b1, "b2": b.b2}, 0


def _cmd_witt(args, digests):
    if args.alphabet < 1 or args.max_degree < 1:
        raise InputError("--alphabet and --max-degree must be positive")
    # max_degree entries of up to max_degree * log2(alphabet) bits each;
    # witt_rank(k, n) also scans n divisor candidates
    _check_cost("witt table to degree %d" % args.max_degree,
                args.max_degree ** 2 * args.alphabet.bit_length(), args.guard)
    return [witt_rank(args.alphabet, n)
            for n in range(1, args.max_degree + 1)], 0


def _cmd_holonomy(args, digests):
    if args.max_degree < 0:
        raise InputError("--max-degree must be non-negative")
    src = _load_source(args.file, digests, args.guard)
    ring = _ring(args.ring)
    degrees = holonomy_degrees(src, args.max_degree, ring, guard=args.guard)
    return {str(d): {"rank": g.rank, "torsion": list(g.torsion)}
            for d, g in enumerate(degrees, 1)}, 0


def _check_i2_cost(args, src):
    # kinv prints, and falk eliminates, one row per column of the degree-2
    # Orlik-Solomon ideal (per relator for a presentation), each as wide
    # as the atom pairs: the cost grows as atoms^4 on a big pencil
    if isinstance(src, Presentation):
        k, rows = src.generators, len(src.relators)
    else:
        k = src.n_atoms
        rows = sum(math.comb(len(f.members) - 1, 2) for f in src.flats)
    _check_cost("%s %s" % (args.command, args.file),
                rows * (k * (k - 1) // 2), args.guard)


def _cmd_falk(args, digests):
    arr = _load_arrangement(args.file, digests, args.guard)
    _check_i2_cost(args, arr)
    return falk_invariant(arr), 0


def _cmd_nq2(args, digests):
    src = _load_source(args.file, digests, args.guard)
    grp = Class2Group(src)
    try:
        el = grp.evaluate(args.word)
    except ValueError as e:
        raise InputError("bad --word: %s" % e) from None
    return {"exps": list(el.exps), "tail": list(el.tail),
            "identity": grp.is_identity(el),
            "names": list(grp.names)}, 0


def _cmd_kinv(args, digests):
    src = _load_source(args.file, digests, args.guard)
    _check_i2_cost(args, src)
    return k_invariant_matrix(src), 0


def _cmd_h2check(args, digests):
    src = _load_source(args.file, digests, args.guard)
    rep = h2_rank_check(src, n=args.degree, ring=_ring(args.ring),
                        guard=args.guard)
    return rep, 0 if rep["pass"] else 1


def _cmd_decomp(args, digests):
    arr = _load_arrangement(args.file, digests, args.guard)
    rep = decomp.is_decomposable(arr, guard=args.guard)
    return rep, 0 if rep["decomposable"] else 1


def _cmd_lcs(args, digests):
    arr = _load_arrangement(args.file, digests, args.guard)
    # witt(mu, m) for each multiplicity mu and m up to max_degree: powers
    # of up to m * log2(mu) bits over the m candidate divisors
    mu = max((f.mu for f in arr.flats), default=1)
    _check_cost("lcs to degree %d" % args.max_degree,
                max(args.max_degree, 0) ** 2 * mu.bit_length(), args.guard)
    return decomp.lcs_ranks_decomposable(arr, args.max_degree,
                                         guard=args.guard), 0


def _cmd_verify_iso(args, digests):
    arr_a = _load_arrangement(args.file_a, digests, args.guard)
    arr_b = _load_arrangement(args.file_b, digests, args.guard)
    iso = _iso_from_json(_parse_json_arg("--iso", args.iso))
    corrections = None
    if args.corrections:
        corrections = _corrections_from_json(
            _parse_json_arg("--corrections", args.corrections),
            len(arr_b.flats), args.degree)
    rep = decomp.verify_decomposable_iso(
        arr_a, arr_b, iso, n=args.degree, ring=_ring(args.ring),
        corrections=corrections, perturb=args.perturb,
        guard=args.guard)
    if args.out:
        # the sparse rows written densely, as wide as the basis of their columns
        g, b2 = rep["basis"]["grn_dim"], len(rep["basis"]["relators_b"])
        width = dict(g2=b2, la_star=b2, lb_star=b2, delta_a=b2, delta_b=b2,
                     sigma=g + b2, rho=g, g_n=g)
        rep = dict(rep, matrices={k: [[r.get(j, 0) for j in range(width[k])]
                                      for r in rows]
                                  for k, rows in rep["matrices"].items()})
        os.makedirs(args.out, exist_ok=True)
        bundle = {
            "verdict.json": {k: rep[k] for k in
                             ("pass", "ring", "degree", "check", "perturb",
                              "candidates")},
            "matrices.json": {"matrices": rep["matrices"],
                              "basis": rep["basis"]},
            "report.json": rep,
        }
        for name, payload in sorted(bundle.items()):
            with open(os.path.join(args.out, name), "w") as f:
                f.write(_dumps(payload))
    verdict = {k: rep[k] for k in ("pass", "ring", "degree", "check",
                                   "candidates")}
    return verdict, 0 if rep["pass"] else 1


def _cmd_catalog(args, digests):
    # only braid has normals, of dimension n
    n = max(args.param, 0)
    atoms, dim = (n * (n - 1) // 2, n) if args.family == "braid" else (n, 0)
    _check_cost("catalog %s %d" % (args.family, args.param),
                _pencil_cost(atoms, dim), args.guard)
    try:
        arr = catalog_arrangement(args.family, args.param)
    except ArrangementError as e:
        raise InputError(str(e)) from None
    payload = arrangement_to_json(arr)
    if args.out:
        with open(args.out, "w") as f:
            f.write(_dumps(payload))
    return payload, 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _arg(*flags, **keywords):
    """One argument of a subcommand, as add_argument would take it."""
    return flags, keywords


def _arguments(*own, ring=False, degree=None, maxdeg=None):
    """A subcommand's argument specs: its own, then the common ones."""
    specs = list(own) + [
        _arg("--table", action="store_true", default=False,
             help="aligned text output instead of JSON"),
        _arg("--report", action="store_true", default=False,
             help="wrap the payload with command echo and input digests"),
        _arg("--guard", type=int, default=DEFAULT_GUARD,
             help="refuse, before computing, any step whose cost exceeds "
                  "this many units"),
        _arg("--override", action="store_true", default=False,
             help="accepted for compatibility; has no effect")]
    if ring:
        specs.append(_arg("--ring", default="z",
                          help="coefficients: z, q, or fp:<p>"))
    if degree is not None:
        specs.append(_arg("--degree", type=int, default=degree))
    if maxdeg is not None:
        specs.append(_arg("--max-degree", type=int, default=maxdeg,
                          dest="max_degree"))
    return specs


_FILE = _arg("file")

# name: (help line, handler, argument specs), in the order -h lists them
_COMMANDS = {
    "lattice": ("atoms, pencils, Mobius and Betti data", _cmd_lattice,
                _arguments(_FILE)),
    "betti": ("b1 and b2 of the complement", _cmd_betti, _arguments(_FILE)),
    "witt": ("free Lie algebra rank table", _cmd_witt, _arguments(
        _arg("--alphabet", type=int, required=True), maxdeg=5)),
    "holonomy": ("graded pieces of the holonomy Lie algebra", _cmd_holonomy,
                 _arguments(_FILE, ring=True, maxdeg=3)),
    "falk": ("rank of the degree 3 piece over Q", _cmd_falk,
             _arguments(_FILE)),
    "nq2": ("evaluate a word in the class-2 quotient", _cmd_nq2, _arguments(
        _FILE,
        _arg("--word", required=True,
             help="dotted word like H1.H2.H1^-1.H2^-1, or, when every "
                  "name is one lowercase letter, letters like xyXY"))),
    "kinv": ("k-invariant matrix of the class-2 extension", _cmd_kinv,
             _arguments(_FILE)),
    "h2check": ("H2 rank comparison for the degree-n quotient", _cmd_h2check,
                _arguments(_FILE, ring=True, degree=3)),
    "decomp": ("decomposability verdict", _cmd_decomp, _arguments(_FILE)),
    "lcs": ("LCS ranks, decomposable product formula", _cmd_lcs,
            _arguments(_FILE, maxdeg=5)),
    "verify-iso": ("diagram certificate for a lattice isomorphism",
                   _cmd_verify_iso, _arguments(
        _arg("file_a"),
        _arg("file_b"),
        _arg("--iso", required=True,
             help="atom map as inline JSON or a path to a JSON file"),
        _arg("--corrections",
             help="B-side local corrections, inline JSON or a path: "
                  "{flat: {\"atom.degree\": [coords...]}}"),
        _arg("--perturb", choices=["sigma", "lift"],
             help="negative control: break one leg on purpose"),
        _arg("--out", help="directory for the audit bundle"),
        ring=True, degree=4)),
    "catalog": ("emit a catalog arrangement as JSON", _cmd_catalog, _arguments(
        _arg("family", help="braid, pencil, generic, or near_pencil"),
        _arg("param", type=int),
        _arg("--out", metavar="FILE",
             help="also write the printed JSON to FILE"))),
}


def _typed(kw, text):
    """A value as argparse reads it for spec kw: through type, then checked
    against choices; ValueError when either refuses it."""
    value = kw.get("type", str)(text)
    if "choices" in kw and value not in kw["choices"]:
        raise ValueError(text)
    return value


def _read_argv(argv):
    """The namespace argparse would make of argv, read from _COMMANDS, or
    None unless argv is plainly well formed: a subcommand, then positionals
    and exact option strings of that subcommand, a valued option's value
    as the next word (not starting with "-") or after "=", every value
    passing its type and choices, every required option given and as many
    positionals as the subcommand takes.  Everything else (-h, usage
    errors, abbreviations, "--", values starting with "-") goes to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, specs = _COMMANDS[argv[0]]
    options, positionals, values = {}, [], {"command": argv[0], "func": func}
    for flags, kw in specs:
        if flags[0].startswith("-"):
            dest = kw.get("dest", flags[0][2:].replace("-", "_"))
            options[flags[0]] = dest, kw
            values[dest] = kw.get("default")
        else:
            positionals.append((flags[0], kw))
    words, given, seen = iter(argv[1:]), [], set()
    try:
        for word in words:
            if not word.startswith("-"):
                given.append(word)
                continue
            flag, eq, text = word.partition("=")
            dest, kw = options[flag]
            if kw.get("action") != "store_true":
                if not eq:
                    text = next(words, "-")
                    if text.startswith("-"):
                        return None
                values[dest] = _typed(kw, text)
            elif eq:
                return None
            else:
                values[dest] = True
            seen.add(dest)
        if len(given) != len(positionals):
            return None
        for (dest, kw), text in zip(positionals, given):
            values[dest] = _typed(kw, text)
    except (KeyError, ValueError):
        return None
    if any(kw.get("required") and dest not in seen
           for dest, kw in options.values()):
        return None
    return types.SimpleNamespace(**values)


@functools.cache
def _build_parser():
    """The argparse parser of every subcommand, built from _COMMANDS on the
    first call and then kept for the process.  Only -h and the command
    lines _read_argv leaves need it, so only they import argparse."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors become input errors: one stderr line and exit 2."""

        def error(self, message):
            raise InputError("%s (see %s -h)"
                             % (" ".join(message.split()), self.prog))

    p = Parser(
        prog="arrlie",
        description="Exact nilpotent and Lie-algebraic invariants of "
                    "hyperplane-arrangement groups.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help, func, specs) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help)
        for flags, keywords in specs:
            sp.add_argument(*flags, **keywords)
        sp.set_defaults(func=func)
    return p


def main(argv=None):
    """Run one subcommand; returns the exit code.  Calls in one process
    share the holonomy towers (holonomy.HolonomyAlgebra), so a repeated
    query reuses the degrees already built."""
    argv = list(sys.argv[1:] if argv is None else argv)
    t0 = time.time()
    try:
        args = _read_argv(argv) or _build_parser().parse_args(argv)
        digests = [] if args.report else None
        payload, code = args.func(args, digests)
        if args.report:
            payload = {"command": argv, "inputs": digests, "report": payload}
        if args.table:
            buf = io.StringIO()
            _print_table(_jsonable(payload), buf)
            text = buf.getvalue()
        else:
            text = _dumps(payload)
    except ValueError as e:  # InputError, ArrangementError, SizeGuardError
        sys.stderr.write("arrlie: error: %s\n" % e)
        return 2
    except Exception as e:  # keep exit 1 for verdicts and stderr to one line
        sys.stderr.write("arrlie: internal error: %s: %s\n"
                         % (type(e).__name__, " ".join(str(e).split())))
        return 3
    # the timing covers the whole command, serialization included
    sys.stderr.write("arrlie: %s in %.3fs\n" % (args.command, time.time() - t0))
    sys.stdout.write(text)
    return code


# The modules and tables imported so far live as long as the process: move
# them out of the collector's generations, so that no collection during a
# command walks them again.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
