"""One pass of one workload, in a fresh Python process.

    python3 perfbench/child.py --workload NAME --seed N --pass-index I \
        --trace 0|1 --workdir DIR

The pass imports arrlie and builds its inputs from the seed and the pass
index (set-up).  Then it runs the workload's fixed query list one query at
a time and checks every answer against the oracle.  The last stdout line
is a JSON record: set-up and query times, peak memory, query counts,
failures, a digest of everything the program returned and, when traced,
the per-layer values.  run.py starts one of these per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import time

import oracle
import reference
import tracing

HOLONOMY_RUNGS = {
    # (family, param, max degree, ring)
    "holonomy-z": [("braid", 4, 4, "z"), ("braid", 5, 3, "z"),
                   ("near_pencil", 6, 4, "z")],
    "holonomy-field": [("braid", 5, 4, "q"), ("braid", 5, 4, "fp:32003"),
                       ("braid", 4, 5, "q")],
}
WORKLOADS = sorted(HOLONOMY_RUNGS) + ["lift-query"]

WORDS = 150          # Class2Group word evaluations per lift-query pass
WORD_LENGTH = 12
LIFT_DEGREE = 4


class Pass:
    """Timed queries of one pass, with their failures and output digest."""

    def __init__(self):
        self.clock = reference.Clock()
        self.attempted = 0
        self.failures = []
        self.digest = hashlib.sha256()

    def query(self, label, call, check):
        """Time call(), then check its result; any exception is a failure."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = call()
            self.clock.add(time.perf_counter() - t0)
            self.digest.update(repr(result).encode())
            problem = check(result)
        except Exception as e:  # a failed query is counted, the pass goes on
            problem = "%s: %s" % (type(e).__name__, e)
        if problem:
            self.failures.append("%s: %s" % (label, problem))


def run_cli(main, argv):
    """(exit code, stdout text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def relabel(arrlie, family, param, rng):
    """The catalog arrangement with its atoms in a seeded order.

    The result is isomorphic to the catalog one, so every answer stays the
    same while the program sees different index orders and matrices.
    """
    arr = arrlie.catalog_arrangement(family, param)
    order = list(range(arr.n_atoms))
    rng.shuffle(order)
    atoms = [arr.atoms[i] for i in order]
    if arr.normals is not None:
        return arrlie.Arrangement(atoms, normals=[arr.normals[i] for i in order])
    where = {old: new for new, old in enumerate(order)}
    return arrlie.Arrangement(
        atoms, pencils=[sorted(where[i] for i in p) for p in arr.pencils])


def write_json(arrlie, arr, path):
    with open(path, "w") as f:
        json.dump(arrlie.arrangement_to_json(arr), f)
    return path


def _expect_json(code, out, want_code, fields):
    if code != want_code:
        return "exit %r, expected %d" % (code, want_code)
    got = json.loads(out)
    bad = {k: got.get(k) for k, v in fields.items() if got.get(k) != v}
    return "got %r, expected %r" % (bad, {k: fields[k] for k in bad}) if bad else None


def holonomy_queries(arrlie, rungs, rng, workdir):
    """Setup and queries of the two holonomy workloads."""
    files = {}
    for family, param, _deg, _ring in rungs:
        if (family, param) not in files:
            arr = relabel(arrlie, family, param, rng)
            files[family, param] = write_json(
                arrlie, arr, os.path.join(workdir, "%s%d.json" % (family, param)))

    def queries(p):
        main = arrlie.cli.main
        for family, param, deg, ring in rungs:
            argv = ["holonomy", files[family, param], "--ring", ring,
                    "--override", "--max-degree", str(deg)]
            want = oracle.holonomy_payload(family, param, deg)
            p.query("%s(%d) to degree %d over %s" % (family, param, deg, ring),
                    lambda argv=argv: run_cli(main, argv),
                    lambda r, want=want: _expect_json(r[0], r[1], 0, want))
    return queries


def lift_queries(arrlie, rng, workdir):
    """Setup and queries of the lift-query workload."""
    arr_a = relabel(arrlie, "near_pencil", 5, rng)
    file_a = write_json(arrlie, arr_a, os.path.join(workdir, "np5_a.json"))
    file_b = write_json(arrlie, arrlie.near_pencil(5),
                        os.path.join(workdir, "np5_b.json"))
    # a seeded automorphism of the big pencil H1..H4, fixing H5
    names = oracle.atom_names("near_pencil", 5)
    images = names[:4]
    while images == names[:4]:
        images = rng.sample(names[:4], 4)
    iso = json.dumps(dict(zip(names, images + names[4:])), sort_keys=True)
    braid5 = relabel(arrlie, "braid", 5, rng)
    gens = list(braid5.atoms)
    words = [".".join("%s^%d" % (rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                      for _ in range(WORD_LENGTH)) for _ in range(WORDS)]
    relators = oracle.relator_words("braid", 5)
    verify = ["verify-iso", file_a, file_b, "--iso", iso,
              "--degree", str(LIFT_DEGREE)]
    h2 = oracle.h2check_expected("near_pencil", 5, LIFT_DEGREE)

    def witnessed(r):
        problem = _expect_json(r[0], r[1], 1, {"pass": False})
        if problem is None and not json.loads(r[1])["check"].get("witness"):
            problem = "negative verdict without a witness"
        return problem

    def queries(p):
        main = arrlie.cli.main
        p.query("verify-iso near_pencil(5) degree %d" % LIFT_DEGREE,
                lambda: run_cli(main, verify),
                lambda r: _expect_json(r[0], r[1], 0, {"pass": True}))
        p.query("verify-iso --perturb lift (negative control)",
                lambda: run_cli(main, verify + ["--perturb", "lift"]),
                witnessed)
        p.query("h2check near_pencil(5) degree %d over z" % LIFT_DEGREE,
                lambda: run_cli(main, ["h2check", file_a, "--degree",
                                       str(LIFT_DEGREE), "--ring", "z"]),
                lambda r: _expect_json(r[0], r[1], 0, h2))
        grp = []
        p.query("Class2Group(braid(5))",
                lambda: grp.append(arrlie.Class2Group(braid5)),
                lambda r: None)
        if not grp:
            return
        g = grp[0]
        for i, w in enumerate(words):
            sums = oracle.exponent_sums(w, gens)
            p.query("word %d exponent sums" % i, lambda w=w: g.evaluate(w),
                    lambda el, sums=sums: None if tuple(el.exps) == sums
                    else "exps %r, expected %r" % (el.exps, sums))
            p.query("word %d times its inverse" % i,
                    lambda w=w: g.evaluate(w + "." + oracle.inverse_word(w)),
                    lambda el: None if g.is_identity(el) else "not the identity")
        for i, w in enumerate(relators):
            p.query("relator %d" % i, lambda w=w: g.evaluate(w),
                    lambda el: None if g.is_identity(el) else "not the identity")
    return queries


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0, dest="pass_index")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    rng = random.Random("%s/%d/%d" % (args.workload, args.seed, args.pass_index))

    setup = reference.Clock()
    t0 = time.perf_counter()
    import arrlie
    import arrlie.cli
    tracer = tracing.Tracer() if args.trace else None
    absent = tracing.install(tracer) if tracer else []
    if args.workload == "lift-query":
        queries = lift_queries(arrlie, rng, args.workdir)
    else:
        queries = holonomy_queries(arrlie, HOLONOMY_RUNGS[args.workload], rng,
                                   args.workdir)
    setup.add(time.perf_counter() - t0)
    setup.close()

    p = Pass()
    queries(p)
    p.clock.close()
    layers = tracing.layer_metrics(tracer) if tracer else None
    if layers:
        # span times in the same reference seconds as wall_s
        scale = p.clock.ref_s / p.clock.raw_s if p.clock.raw_s else 1.0
        for name in layers:
            if name.endswith((".self_s", ".s")):
                layers[name] *= scale
    record = {
        "setup_s": setup.ref_s,
        "raw_setup_s": setup.raw_s,
        "wall_s": p.clock.ref_s,
        "raw_wall_s": p.clock.raw_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": p.attempted,
        "failures": p.failures,
        "digest": p.digest.hexdigest(),
        "layers": layers,
        "absent": absent + sorted("%s counters" % name
                                  for name in (tracer.broken if tracer else ())),
    }
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
