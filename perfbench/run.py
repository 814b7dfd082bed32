"""arrlie benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds src/arrlie.  Each pass is a
fresh single-threaded child process (perfbench/child.py) that imports
arrlie, builds its inputs from the seed and runs the workload's fixed
query list as a closed loop: one query at a time, the next only after the
previous returned.  Passes repeat until the next one would end after
--seconds.  Every answer is checked against perfbench/oracle.py.

--trace 0 reports the end-to-end metrics (medians over the passes):
wall_s, setup_s and peak_rss_mb.  --trace 1 alternates untraced and
traced passes on the same inputs, checks that the program's output is the
same both ways, and reports the per-layer metrics of perfbench/tracing.py.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (stdlib-only; arrlie is never imported here)

WORKLOADS = ("holonomy-z", "holonomy-field", "lift-query")
MIN_PASSES = 3        # untraced passes per --trace 0 run
MIN_PAIRS = 2         # untraced + traced pairs per --trace 1 run
DEADLINE_S = 150      # start no pass that would end after this
CHILD_LIMIT_S = 170   # a pass still running then is killed and fails
SCRUBBED_ENV = ("ARRLIE_THREADS", "ARRLIE_CACHE")


def source_id(root):
    """The git commit of the tree, or a digest of src/ outside a repository."""
    if os.path.isdir(os.path.join(root, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                               capture_output=True, text=True, timeout=30)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(args, index, traced, workdir, env, started):
    """One child pass; a crash or timeout comes back as a failed record."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(index), "--trace", "1" if traced else "0",
           "--workdir", workdir]
    t0 = time.monotonic()
    limit = max(5.0, CHILD_LIMIT_S - (t0 - started))
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=limit)
        lines = r.stdout.strip().splitlines()
        if r.returncode == 0 and lines:
            rec = json.loads(lines[-1])
        else:
            tail = (r.stderr.strip().splitlines() or ["no output"])[-1]
            rec = {"crash": "exit %d: %s" % (r.returncode, tail)}
    except subprocess.TimeoutExpired:
        rec = {"crash": "killed after %.0f s" % limit}
    rec["index"] = index
    rec["traced"] = traced
    rec["elapsed"] = time.monotonic() - t0
    return rec


def run_passes(args, workdir, env):
    """Passes until the next one would end after --seconds (or the deadline)."""
    started = time.monotonic()
    plan = [False, True] if args.trace else [False]
    minimum = MIN_PAIRS if args.trace else MIN_PASSES
    records = []
    index = 0
    while True:
        for traced in plan:
            records.append(run_pass(args, index, traced, workdir, env, started))
        index += 1
        elapsed = time.monotonic() - started
        step = sum(r["elapsed"] for r in records) / index
        if elapsed + step > DEADLINE_S:
            break
        if index >= minimum and elapsed + step > args.seconds:
            break
    return records


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(values):
    if len(values) < 2:
        return "%.4f (n=%d)" % (median(values), len(values))
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return "median %.4f, quartiles %.4f..%.4f (n=%d)" % (q2, q1, q3, len(values))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arrlie", "__init__.py")):
        sys.stderr.write("perfbench: no src/arrlie under %s; run from the root "
                         "of an arrlie source tree\n" % root)
        return 2

    workdir = os.path.join(root, ".perfbench_work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        records = run_passes(args, workdir, child_env(root))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    print("# env " + json.dumps({
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "commit": source_id(root), "seed": args.seed, "workload": args.workload,
        "trace": args.trace}, sort_keys=True))
    attempted = failed = 0
    problems = []
    for r in records:
        if "crash" in r:
            attempted += 1
            failed += 1
            problems.append("pass %d: %s" % (r["index"], r["crash"]))
            continue
        attempted += r["attempted"]
        failed += len(r["failures"])
        problems += ["pass %d: %s" % (r["index"], f) for f in r["failures"]]
    ok = [r for r in records if "crash" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    digests = {}
    for r in ok:
        digests.setdefault(r["index"], set()).add(r["digest"])
    for index, seen in sorted(digests.items()):
        if len(seen) > 1:
            failed += 1
            problems.append("pass %d: output differs with tracing on and off"
                            % index)
    for line in problems[:20]:
        sys.stderr.write("perfbench: FAILED %s\n" % line)

    wall = [r["wall_s"] for r in plain]
    print("# wall_s %s" % summarize(wall))
    print("# unscaled wall seconds %s" % summarize([r["raw_wall_s"] for r in plain]))
    print("# failed_frac %.4f (%d of %d queries)"
          % (failed / max(attempted, 1), failed, attempted))
    if args.trace:
        metrics = {}
        for name, unit, _better in tracing.metric_names():
            if name == "bench.trace_overhead_s":
                value = median([r["wall_s"] for r in traced]) - median(wall)
            else:
                value = median([r["layers"][name] for r in traced])
            metrics[name] = {"value": value, "unit": unit}
        absent = sorted({a for r in traced for a in r["absent"]})
        if absent:
            print("# absent (reported as 0): " + ", ".join(absent))
        total = median([r["wall_s"] for r in traced]) or 1.0
        shares = sorted(((v["value"] / total, k) for k, v in metrics.items()
                         if k.endswith(".self_s")), reverse=True)
        print("# self-time shares of traced wall %.3f s: %s" % (total, ", ".join(
            "%s %.1f%%" % (k[:-len(".self_s")], 100 * s) for s, k in shares[:8])))
    else:
        metrics = {
            "wall_s": {"value": median(wall), "unit": "s"},
            "setup_s": {"value": median([r["setup_s"] for r in plain]),
                        "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in plain]),
                            "unit": "MB"},
        }
        print("# setup_s %s" % summarize([r["setup_s"] for r in plain]))
        print("# unscaled setup seconds %s"
              % summarize([r["raw_setup_s"] for r in plain]))
        print("# peak_rss_mb %s" % summarize([r["peak_rss_mb"] for r in plain]))
    print(json.dumps({"correct": failed == 0 and bool(plain),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
