"""Exit code and stdout sha256 of a fixed set of arrlie commands.

    python3 tests/bytecheck.py [--fresh] > digests.txt

Writes the 17 arrangements of the standard catalog, two_triples and five
presentations into a temporary directory, runs every command there and
prints one line per command: the exit code, the sha256 of stdout and the command, with
each input file named by its basename, and after a command that writes
an --out bundle, one indented line per bundle file with its sha256 and
its path below the temporary directory, and after a command that exits 2,
one indented line with the sha256 of its stderr, the one error line.  By
default the commands run in order in this process through arrlie.cli.main, so later
commands read the holonomy towers that earlier ones built; with --fresh
each command runs in its own `python -m arrlie` process.  Help text is
wrapped at COLUMNS=80 either way.  Run it on two
source trees (it imports arrlie from the src/ beside this file) and diff
the outputs to check that a change keeps every byte.  pytest does not
collect this file: it is a script, not a test module.

The set, 526 commands plus the nq2 words:
  - h2check over z, q and fp:2 on the 17 catalog arrangements at degree 3
    and the 15 decomposable ones at degree 4, with and without --override;
  - holonomy over z, q and fp:3 on the 17 at --max-degree 3, and at 4
    with --override;
  - h2check (at its default degree 3) and holonomy --max-degree 4 on the
    presentations xxyXXY and xxxyXXXY, on conj5, five generators with
    conjugated commutator relators, and on the free groups free1 (no pair
    column) and free2 (no relation row), over z, q, fp:2 and fp:3, and
    kinv on each presentation;
  - lattice, betti, falk, kinv, decomp and lcs --max-degree 8 on the 17;
  - verify-iso near_pencil(5) under the 4-cycle of its big pencil at
    degree 4, plain and --perturb lift, over z and q;
  - verify-iso with bundles (--out), plain, --perturb lift and --perturb
    sigma over z, q and fp:2, on pencil(3) under a 3-cycle with
    corrections on its pencil, on near_pencil(4) under [1, 2, 0, 3] with
    corrections on its big pencil, both at degree 4, and on
    near_pencil(5) under the 4-cycle at degree 5 (27 commands);
  - verify-iso near_pencil(5) under the 4-cycle at degree 6 with a
    bundle, plain, over z and fp:2: the largest rho, g_n and delta;
  - verify-iso generic(5) under the transposition of H1 and H2 at degrees
    4 and 5 with a bundle, over z: every flat is a double point, whose
    local algebra is 0 in those degrees;
  - the degree-6 near_pencil(5) runs again with --perturb sigma, over z
    and fp:2: the splitting at the largest size;
  - verify-iso with bundles, plain, --perturb lift and --perturb sigma over
    z and fp:2, at degrees 4 and 5, on two_triples (atoms a..e, triple
    points abc and ade, the rest double points) under [0,2,1,4,3], which
    fixes both triple points, and [0,3,4,1,2], which swaps them, with
    corrections on both triple points (24 commands);
  - nq2 on the 17 with seeded dotted words (some tokens padded with
    spaces), on the presentations with seeded letter and dotted words,
    and three refused words;
  - SUB -h for each of the 12 subcommands;
  - four usage errors that the leading word decides: no argument, an
    unknown subcommand, a leading option and an extra argument;
  - eight lines in the forms a parser may read apart: options before the
    file, --max-degree=4 and --ring=fp:3, a repeated option, the
    abbreviation --max-deg, --max-degree -1 (a usage error of the
    command), a -- separator, --report and --word=WORD with --table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, os.path.abspath(SRC))

from arrlie import arrangement_to_json, standard_catalog  # noqa: E402
from arrlie.cli import main as arrlie_main  # noqa: E402

# name: (generators, relators); the third has conjugated commutators
# g[x, y]g^-1; free1 has a tower with no pair column, free2 one with no
# relation row
PRESENTATIONS = {"xxyXXY": (2, ["xxyXXY"]), "xxxyXXXY": (2, ["xxxyXXXY"]),
                 "conj5": (5, ["zxyXYZ", "abzyZYBA", "yxbXBYxaXA"]),
                 "free1": (1, []), "free2": (2, [])}
NOT_DECOMPOSABLE = ("braid(4)", "braid(5)")
NP5_CYCLE = '{"H1":"H2","H2":"H3","H3":"H4","H4":"H1","H5":"H5"}'
G5_SWAP = "[1,0,2,3,4]"
# two multiple points a-b-c and a-d-e: the only decomposable input here with
# two nonzero local algebras
TWO_TRIPLES = {"atoms": list("abcde"),
               "pencils": [[0, 1, 2], [0, 3, 4], [1, 3], [1, 4], [2, 3], [2, 4]]}
TT_ISOS = ("[0,2,1,4,3]", "[0,3,4,1,2]")
# --corrections by degree: zero-sum below the top degree n-1, and one
# top-degree correction per triple point, so the degree-n relator
# components are not all 0
TT_CORR = {
    "4": '{"0":{"a.2":[1],"b.2":[-1],"a.3":[1,0]},'
         '"1":{"d.2":[1],"e.2":[-1],"e.3":[0,1]}}',
    "5": '{"0":{"a.2":[1],"b.2":[-1],"a.3":[1,0],"c.3":[-1,0],"b.4":[1,0,0]},'
         '"1":{"d.2":[1],"e.2":[-1],"e.3":[0,1],"d.3":[0,-1],"e.4":[0,0,1]}}'}
# (catalog name, --iso, --corrections or None, degree) of the bundle runs
BUNDLES = [
    ("pencil(3)", '{"H1":"H2","H2":"H3","H3":"H1"}',
     '{"0":{"H1.2":[1],"H2.2":[-1],"H1.3":[1,0]}}', "4"),
    ("near_pencil(4)", "[1,2,0,3]",
     '{"0":{"H1.2":[1],"H3.2":[-1],"H2.3":[0,1]}}', "4"),
    ("near_pencil(5)", NP5_CYCLE, None, "5"),
]


def write_inputs(workdir):
    """Write the input files; returns (catalog names and files, presentation files)."""
    catalog = []
    for name, arr in standard_catalog():
        path = name.replace("(", "").replace(")", "") + ".json"
        with open(os.path.join(workdir, path), "w") as f:
            json.dump(arrangement_to_json(arr), f)
        catalog.append((name, path, list(arr.atoms)))
    with open(os.path.join(workdir, "two_triples.json"), "w") as f:
        json.dump(TWO_TRIPLES, f)
    pres = {}
    for name, (generators, relators) in PRESENTATIONS.items():
        pres[name] = name + ".json"
        with open(os.path.join(workdir, pres[name]), "w") as f:
            json.dump({"generators": generators, "relators": relators}, f)
    return catalog, pres


def dotted_word(rng, names, pad):
    tokens = []
    for _ in range(rng.randint(1, 10)):
        tok = rng.choice(names)
        if rng.random() < 0.7:
            tok += "^%d" % rng.choice((-3, -2, -1, 1, 2, 3))
        if pad and rng.random() < 0.3:
            tok = " " + tok + " "
        tokens.append(tok)
    return ".".join(tokens)


def commands(catalog, pres):
    """The command list, each an argv for arrlie.cli.main."""
    cmds = []
    for override in ([], ["--override"]):
        for ring in ("z", "q", "fp:2"):
            for name, path, _atoms in catalog:
                cmds.append(["h2check", path, "--degree", "3", "--ring", ring]
                            + override)
            for name, path, _atoms in catalog:
                if name not in NOT_DECOMPOSABLE:
                    cmds.append(["h2check", path, "--degree", "4", "--ring", ring]
                                + override)
    for degree, override in (("3", []), ("4", ["--override"])):
        for ring in ("z", "q", "fp:3"):
            for _name, path, _atoms in catalog:
                cmds.append(["holonomy", path, "--ring", ring, "--max-degree",
                             degree] + override)
    for path in pres.values():
        for ring in ("z", "q", "fp:2", "fp:3"):
            cmds.append(["h2check", path, "--ring", ring])
            cmds.append(["holonomy", path, "--max-degree", "4", "--ring", ring])
        cmds.append(["kinv", path])
    for sub in ("lattice", "betti", "falk", "kinv", "decomp"):
        for _name, path, _atoms in catalog:
            cmds.append([sub, path])
    for _name, path, _atoms in catalog:
        cmds.append(["lcs", path, "--max-degree", "8"])
    files = dict((name, path) for name, path, _atoms in catalog)
    np5 = files["near_pencil(5)"]
    for ring in ("z", "q"):
        for perturb in ([], ["--perturb", "lift"]):
            cmds.append(["verify-iso", np5, np5, "--iso", NP5_CYCLE, "--degree",
                         "4", "--ring", ring] + perturb)
    for name, iso, corrections, degree in BUNDLES:
        extra = ["--corrections", corrections] if corrections else []
        for ring in ("z", "q", "fp:2"):
            for perturb in ([], ["--perturb", "lift"], ["--perturb", "sigma"]):
                out = "bundle%d" % len(cmds)
                cmds.append(["verify-iso", files[name], files[name], "--iso",
                             iso, "--degree", degree, "--ring", ring]
                            + extra + perturb + ["--out", out])
    for ring in ("z", "fp:2"):
        out = "bundle%d" % len(cmds)
        cmds.append(["verify-iso", np5, np5, "--iso", NP5_CYCLE, "--degree",
                     "6", "--ring", ring, "--out", out])
    g5 = files["generic(5)"]
    for degree in ("4", "5"):
        out = "bundle%d" % len(cmds)
        cmds.append(["verify-iso", g5, g5, "--iso", G5_SWAP, "--degree",
                     degree, "--ring", "z", "--out", out])
    for ring in ("z", "fp:2"):
        out = "bundle%d" % len(cmds)
        cmds.append(["verify-iso", np5, np5, "--iso", NP5_CYCLE, "--degree",
                     "6", "--ring", ring, "--perturb", "sigma", "--out", out])
    for iso in TT_ISOS:
        for degree in ("4", "5"):
            for ring in ("z", "fp:2"):
                for perturb in ([], ["--perturb", "lift"], ["--perturb", "sigma"]):
                    out = "bundle%d" % len(cmds)
                    cmds.append(["verify-iso", "two_triples.json",
                                 "two_triples.json", "--iso", iso, "--degree",
                                 degree, "--ring", ring, "--corrections",
                                 TT_CORR[degree]] + perturb + ["--out", out])
    rng = random.Random(2024)
    for _name, path, atoms in catalog:
        for pad in (False, False, True):
            cmds.append(["nq2", path, "--word", dotted_word(rng, atoms, pad)])
    for name, path in pres.items():
        names = "xyzab"[:PRESENTATIONS[name][0]]
        letters = names + names.upper()
        for _ in range(3):
            word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
            cmds.append(["nq2", path, "--word", word])
        for _ in range(2):
            cmds.append(["nq2", path, "--word", dotted_word(rng, list(names), False)])
    for word in ("H1^", "H1.H9", ""):
        cmds.append(["nq2", files["pencil(3)"], "--word", word])
    for sub in ("lattice", "betti", "witt", "holonomy", "falk", "nq2", "kinv",
                "h2check", "decomp", "lcs", "verify-iso", "catalog"):
        cmds.append([sub, "-h"])
    cmds += [[], ["bogus"], ["--ring", "z", "holonomy", files["pencil(3)"]],
             ["holonomy", files["pencil(3)"], "extra"]]
    b4, p3 = files["braid(4)"], files["pencil(3)"]
    cmds += [["holonomy", "--ring", "q", "--max-degree", "3", b4],
             ["holonomy", b4, "--max-degree=4", "--ring=fp:3"],
             ["holonomy", b4, "--max-degree", "2", "--max-degree", "3"],
             ["holonomy", b4, "--max-deg", "3"],
             ["holonomy", b4, "--max-degree", "-1"],
             ["holonomy", "--max-degree", "3", "--", b4],
             ["betti", p3, "--report"],
             ["nq2", p3, "--word=H1.H2.H1^-1", "--table"]]
    return cmds


def run_here(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = arrlie_main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_fresh(argv):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    r = subprocess.run([sys.executable, "-m", "arrlie"] + argv, env=env,
                       capture_output=True, timeout=600)
    return r.returncode, r.stdout, r.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fresh", action="store_true",
                    help="run each command in its own process")
    args = ap.parse_args()
    run = run_fresh if args.fresh else run_here
    os.environ["COLUMNS"] = "80"   # the width -h wraps to, in both modes
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        catalog, pres = write_inputs(workdir)
        os.chdir(workdir)
        try:
            for argv in commands(catalog, pres):
                code, out, err = run(argv)
                print(code, hashlib.sha256(out).hexdigest(), shlex.join(argv),
                      flush=True)
                if code == 2:
                    print("    stderr", hashlib.sha256(err).hexdigest(), flush=True)
                if "--out" in argv:
                    bundle = argv[argv.index("--out") + 1]
                    for name in sorted(os.listdir(bundle)):
                        path = os.path.join(bundle, name)
                        with open(path, "rb") as f:
                            print("   ", hashlib.sha256(f.read()).hexdigest(),
                                  path, flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
