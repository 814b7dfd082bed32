"""Command line surface: frozen outputs, exit codes, report envelopes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from arrlie import cli
from arrlie.arrangement import arrangement_to_json, braid, near_pencil, pencil
from arrlie.cli import main

TIMING = re.compile(r"^arrlie: [a-z-]+ in \d+\.\d{3}s$")


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, arr in (("pencil3", pencil(3)), ("braid4", braid(4)),
                      ("np4", near_pencil(4))):
        p = tmp_path / ("%s.json" % name)
        p.write_text(json.dumps(arrangement_to_json(arr)))
        out[name] = str(p)
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"generators": 2, "relators": ["xxyXXY"]}))
    out["pres"] = str(pres)
    out["dir"] = str(tmp_path)
    return out


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# frozen single-command outputs

def test_betti_bytes(files, capsys):
    code, out, err = run(capsys, ["betti", files["pencil3"]])
    assert code == 0
    assert out == '{"b1":3,"b2":2}\n'
    lines = [l for l in err.splitlines() if l]
    assert len(lines) == 1 and TIMING.match(lines[0])


def test_timing_line_covers_serialization(files, capsys, monkeypatch):
    # the payload is serialized before the timing line is written, so a
    # slow serialization (kinv of a big pencil) shows in the reported time
    dumps = cli._dumps

    def slow_dumps(payload):
        time.sleep(0.3)
        return dumps(payload)

    monkeypatch.setattr(cli, "_dumps", slow_dumps)
    code, out, err = run(capsys, ["kinv", files["pencil3"]])
    assert code == 0 and json.loads(out) == [[1, -1, 1]]
    seconds = float(re.match(r"arrlie: kinv in (\d+\.\d+)s", err).group(1))
    assert seconds >= 0.3


def test_dumps_bytes_on_mixed_payloads():
    # lists of small ints skip the per-entry walk; bools, big ints,
    # rationals and nested containers must come out as before
    payload = {
        "small": [[0, 1, -2], [3, -4, 5], []],
        "big": [2 ** 53 - 1, 2 ** 53, -(2 ** 53), -(2 ** 53) + 1, 3 ** 40],
        "bools": [True, False, 1, 0],
        "rationals": [Fraction(4, 2), Fraction(-1, 3), Fraction(2 ** 60, 3), 7],
        "nested": ([1, [2, [3, True]], (4, 5)], {"x": [None, "s", 2 ** 70]}),
        7: (1, 2),
    }
    assert cli._dumps(payload) == (
        '{"7":[1,2],"big":[9007199254740991,"9007199254740992",'
        '"-9007199254740992",-9007199254740991,"12157665459056928801"],'
        '"bools":[true,false,1,0],"nested":[[1,[2,[3,true]],[4,5]],'
        '{"x":[null,"s","1180591620717411303424"]}],'
        '"rationals":[2,"-1/3","1152921504606846976/3",7],'
        '"small":[[0,1,-2],[3,-4,5],[]]}\n')


def test_lattice(files, capsys):
    code, out, _ = run(capsys, ["lattice", files["braid4"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["b1"] == 6 and payload["b2"] == 11
    assert payload["mu"] == [2, 2, 1, 2, 1, 1, 2]
    assert payload["pencils"][0] == [0, 1, 3]


def test_witt_json_and_table(files, capsys):
    code, out, _ = run(capsys, ["witt", "--alphabet", "1", "--max-degree", "3"])
    assert code == 0 and out == "[1,0,0]\n"
    code, out, _ = run(capsys, ["witt", "--alphabet", "2", "--max-degree", "5",
                                "--table"])
    assert code == 0
    assert out == "1  2\n2  1\n3  2\n4  3\n5  6\n"


def test_witt_big_entries_become_strings(capsys):
    from arrlie import witt_rank
    code, out, _ = run(capsys, ["witt", "--alphabet", "12",
                                "--max-degree", "16"])
    assert code == 0
    data = json.loads(out)
    assert isinstance(data[-1], str)
    assert int(data[-1]) == witt_rank(12, 16)
    code, _, err = run(capsys, ["witt", "--alphabet", "0", "--max-degree", "3"])
    assert code == 2 and "must be positive" in err


def test_falk_and_holonomy(files, capsys):
    code, out, _ = run(capsys, ["falk", files["braid4"]])
    assert code == 0 and out == "10\n"
    code, out, _ = run(capsys, ["holonomy", files["braid4"],
                                "--max-degree", "3"])
    assert code == 0
    assert json.loads(out) == {"1": {"rank": 6, "torsion": []},
                               "2": {"rank": 4, "torsion": []},
                               "3": {"rank": 10, "torsion": []}}


def test_holonomy_presentation_with_torsion(files, capsys):
    code, out, _ = run(capsys, ["holonomy", files["pres"],
                                "--max-degree", "2"])
    assert code == 0
    assert json.loads(out) == {"1": {"rank": 2, "torsion": []},
                               "2": {"rank": 0, "torsion": [2]}}
    code, out, _ = run(capsys, ["holonomy", files["pres"], "--max-degree", "2",
                                "--ring", "fp:2"])
    assert json.loads(out)["2"] == {"rank": 1, "torsion": []}
    code, out, _ = run(capsys, ["holonomy", files["pres"], "--max-degree", "0"])
    assert code == 0 and out == "{}\n"
    for extra in ([], ["--table"]):
        line = assert_exits_2_on_one_line(
            capsys, ["holonomy", files["pres"], "--max-degree", "-1"] + extra)
        assert "non-negative" in line


def test_kinv_and_nq2(files, capsys):
    code, out, _ = run(capsys, ["kinv", files["pencil3"]])
    assert code == 0 and out == "[[1,-1,1]]\n"
    code, out, _ = run(capsys, ["nq2", files["pencil3"],
                                "--word", "H1.H2.H1^-1.H2^-1"])
    assert code == 0
    assert json.loads(out) == {"exps": [0, 0, 0], "identity": False,
                               "names": ["H1", "H2", "H3"], "tail": [1]}
    # the commutator survives as the order-2 class; the relator itself dies
    code, out, _ = run(capsys, ["nq2", files["pres"], "--word", "xyXY"])
    assert code == 0
    assert json.loads(out) == {"exps": [0, 0], "identity": False,
                               "names": ["x", "y"], "tail": [1]}
    code, out, _ = run(capsys, ["nq2", files["pres"], "--word", "xxyXXY"])
    assert code == 0 and json.loads(out)["identity"] is True
    code, _, err = run(capsys, ["nq2", files["pencil3"], "--word", "H1.H9"])
    assert code == 2 and "bad --word" in err
    for atoms, word, exps in ((["X", "Y", "Z"], "X", [1, 0, 0]),
                              (["a", "A", "b"], "A", [0, 1, 0])):
        path = os.path.join(files["dir"], "letters.json")
        with open(path, "w") as f:
            json.dump({"atoms": atoms, "pencils": [[0, 1, 2]]}, f)
        code, out, _ = run(capsys, ["nq2", path, "--word", word])
        assert code == 0 and json.loads(out)["exps"] == exps


def test_decomp_verdict_exit_codes(files, capsys):
    code, out, _ = run(capsys, ["decomp", files["braid4"]])
    assert code == 1
    assert json.loads(out) == {"decomposable": False, "r_global": 10,
                               "r_local": 8, "torsion": []}
    code, out, _ = run(capsys, ["decomp", files["pencil3"]])
    assert code == 0 and json.loads(out)["decomposable"] is True


def test_lcs_and_its_refusal(files, capsys):
    code, out, _ = run(capsys, ["lcs", files["pencil3"], "--max-degree", "5"])
    assert code == 0 and out == "[3,1,2,3,6]\n"
    code, out, err = run(capsys, ["lcs", files["braid4"]])
    assert code == 2 and out == ""
    assert "arrlie: error:" in err and "decomposable" in err


def test_h2check(files, capsys):
    code, out, _ = run(capsys, ["h2check", files["pencil3"], "--ring", "q"])
    assert code == 0
    assert json.loads(out) == {"b2": 2, "bridge": "exact", "ce_h2_rank": 4,
                               "degree": 3, "expected": 4, "h_n_rank": 2,
                               "pass": True, "ring": "q"}


def test_catalog_stdout_and_file(files, capsys, tmp_path):
    code, out, _ = run(capsys, ["catalog", "pencil", "3"])
    assert code == 0
    assert json.loads(out) == {"atoms": ["H1", "H2", "H3"],
                               "pencils": [[0, 1, 2]]}
    dest = str(tmp_path / "out.json")
    code, out, _ = run(capsys, ["catalog", "braid", "3", "--out", dest])
    assert code == 0
    with open(dest) as f:
        assert f.read() == out
    assert "normals" in json.loads(out)
    code, _, err = run(capsys, ["catalog", "ceva", "3"])
    assert code == 2 and "unknown catalog family" in err


# ---------------------------------------------------------------------------
# verify-iso

ISO3 = '{"H1":"H2","H2":"H3","H3":"H1"}'


def test_verify_iso_pass_and_bundle(files, capsys, tmp_path):
    outdir = str(tmp_path / "audit")
    code, out, _ = run(capsys, ["verify-iso", files["pencil3"],
                                files["pencil3"], "--iso", ISO3,
                                "--degree", "4", "--out", outdir])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["pass"] is True and verdict["degree"] == 4
    assert sorted(os.listdir(outdir)) == ["matrices.json", "report.json",
                                          "verdict.json"]
    with open(os.path.join(outdir, "verdict.json")) as f:
        assert json.load(f) == {
            "candidates": "zero",
            "check": {"failed": None, "identity1": True, "identity2": True,
                      "pass": True, "ring": "z", "witness": None},
            "degree": 4, "pass": True, "perturb": None, "ring": "z"}
    with open(os.path.join(outdir, "report.json")) as f:
        rep = json.load(f)
    assert sorted(rep) == ["basis", "candidates", "check", "decomposable",
                           "degree", "iso", "matrices", "pass", "perturb",
                           "ring"]
    assert sorted(rep["matrices"]) == ["delta_a", "delta_b", "g2", "g_n",
                                       "la_star", "lb_star", "rho", "sigma"]


def test_verify_iso_with_corrections_and_ring(files, capsys):
    corr = '{"0":{"H1.2":[1],"H2.2":[-1],"H1.3":[1,0]}}'
    code, out, _ = run(capsys, ["verify-iso", files["pencil3"],
                                files["pencil3"], "--iso", ISO3,
                                "--corrections", corr, "--ring", "fp:2"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["pass"] is True and verdict["candidates"] == "transported"
    assert verdict["ring"] == "fp:2"


def test_verify_iso_perturbations_fail(files, capsys):
    for kind, ident in (("sigma", 2), ("lift", 1)):
        code, out, _ = run(capsys, ["verify-iso", files["pencil3"],
                                    files["pencil3"], "--iso", ISO3,
                                    "--perturb", kind])
        assert code == 1
        verdict = json.loads(out)
        assert verdict["pass"] is False
        assert verdict["check"]["failed"] == ident
        assert verdict["check"]["witness"]["identity"] == ident


def test_verify_iso_accepts_iso_files(files, capsys, tmp_path):
    iso_path = tmp_path / "iso.json"
    iso_path.write_text(ISO3)
    code, out, _ = run(capsys, ["verify-iso", files["pencil3"],
                                files["pencil3"], "--iso", str(iso_path)])
    assert code == 0 and json.loads(out)["pass"] is True
    code, _, err = run(capsys, ["verify-iso", files["pencil3"],
                                files["pencil3"], "--iso", "nosuch.json"])
    assert code == 2 and "neither inline JSON nor a readable file" in err


def test_verify_iso_bad_mapping(files, capsys):
    code, _, err = run(capsys, ["verify-iso", files["np4"], files["np4"],
                                "--iso", '[3,1,2,0]'])
    assert code == 2 and "pencil not preserved" in err


# ---------------------------------------------------------------------------
# input errors

def test_missing_and_broken_files(files, capsys, tmp_path):
    code, _, err = run(capsys, ["betti", str(tmp_path / "nope.json")])
    assert code == 2 and "arrlie: error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, ["betti", str(bad)])
    assert code == 2 and "invalid JSON" in err
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"atoms": ["a", "b", "c"],
                               "pencils": [[0, 1, 2], [0, 1]]}))
    code, _, err = run(capsys, ["betti", str(dup)])
    assert code == 2 and "two pencils" in err


def assert_exits_2_on_one_line(capsys, argv):
    """Run argv; it must exit 2 with one error line, returned."""
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    errors = err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("arrlie: error:")
    return errors[0]


def bad_file(tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("obj", [
    {"atoms": 5, "pencils": []},
    {"atoms": ["a", "b", "c"], "pencils": 3},
    {"atoms": ["a", "b", "c"], "pencils": [[0, 1.5, 2]]},
])
def test_malformed_arrangement_exits_2_on_one_line(tmp_path, capsys, obj):
    assert_exits_2_on_one_line(capsys, ["betti", bad_file(tmp_path, obj)])


@pytest.mark.parametrize("obj", [
    {"generators": 2, "relators": 3},
    {"generators": 2, "relators": [5]},
    {"generators": 2.5, "relators": ["xyXY"]},
    {"generators": True, "relators": ["xyXY"]},
    {"generators": 2, "relators": ["xyXY"], "names": "xy"},
])
def test_malformed_presentation_exits_2_on_one_line(tmp_path, capsys, obj):
    assert_exits_2_on_one_line(capsys, ["holonomy", bad_file(tmp_path, obj)])


@pytest.mark.parametrize("flag,value,path", [
    ("--iso", "[0,1.5,2]", "--iso[1]:"),
    ("--iso", "[true,0,2]", "--iso[0]:"),
    ("--iso", "5", "--iso:"),
    ("--iso", '{"H1":[1]}', '--iso["H1"]:'),
    ("--corrections", '{"0":{"H1.2":[1.5],"H2.2":[-1.5]}}',
     '--corrections["0"]["H1.2"][0]:'),
    ("--corrections", "[1]", "--corrections:"),
    ("--corrections", '{"0":[1]}', '--corrections["0"]:'),
    ("--corrections", '{"0":{"H1.2":5}}', '--corrections["0"]["H1.2"]:'),
    ("--corrections", '{"0":{"H12":[1]}}', '--corrections["0"]["H12"]:'),
    ("--corrections", '{"3":{"H1.2":[1]}}', '--corrections["3"]:'),
])
def test_malformed_iso_and_corrections_exit_2_naming_the_path(files, capsys,
                                                              flag, value,
                                                              path):
    iso = value if flag == "--iso" else ISO3
    argv = ["verify-iso", files["pencil3"], files["pencil3"], "--iso", iso]
    if flag != "--iso":
        argv += [flag, value]
    line = assert_exits_2_on_one_line(capsys, argv)
    assert line.startswith("arrlie: error: " + path)


def test_unexpected_exception_exits_3_on_one_line(files, capsys, monkeypatch):
    def boom(arr):
        raise ZeroDivisionError("boom\nsecond line")
    monkeypatch.setattr(cli, "betti", boom)
    code, out, err = run(capsys, ["betti", files["pencil3"]])
    assert code == 3 and out == ""
    assert err.splitlines() == ["arrlie: internal error: ZeroDivisionError: boom second line"]


def test_witt_is_size_guarded(capsys):
    code, out, err = run(capsys, ["witt", "--alphabet", "3",
                                  "--max-degree", "100000"])
    assert code == 2 and out == "" and "guard" in err


def test_lcs_is_size_guarded(files, capsys):
    # refused before any work: 10^6 squared times bit_length(mu = 2)
    code, out, err = run(capsys, ["lcs", files["pencil3"],
                                  "--max-degree", "1000000"])
    assert code == 2 and out == "" and "guard" in err
    code, out, _ = run(capsys, ["lcs", files["pencil3"], "--max-degree", "8",
                                "--guard", "128"])
    assert code == 0 and json.loads(out)[:5] == [3, 1, 2, 3, 6]
    code, out, err = run(capsys, ["lcs", files["pencil3"], "--max-degree", "8",
                                  "--guard", "127"])
    assert code == 2 and "costs 128 > guard 127" in err


def test_catalog_is_size_guarded(capsys):
    # refused before any pencil is built
    for argv in (["catalog", "braid", "30"], ["catalog", "generic", "100000"]):
        t0 = time.perf_counter()
        line = assert_exits_2_on_one_line(capsys, argv)
        assert time.perf_counter() - t0 < 1.0 and "guard" in line
    # every size the tests and the benchmark build passes the default guard
    for family, top in (("braid", 7), ("pencil", 8), ("generic", 8),
                        ("near_pencil", 8)):
        code, out, _ = run(capsys, ["catalog", family, str(top)])
        assert code == 0 and json.loads(out)["atoms"]
    # braid(5): 16 units for each of 45 atom pairs and 5 coordinates plus one
    line = assert_exits_2_on_one_line(capsys, ["catalog", "braid", "5",
                                               "--guard", "4319"])
    assert "costs 4320 > guard 4319" in line
    code, out, _ = run(capsys, ["catalog", "braid", "5", "--guard", "4320"])
    assert code == 0 and len(json.loads(out)["atoms"]) == 10


def normals_file(tmp_path, n):
    """The braid arrangement's normals e_i - e_j, written out by hand."""
    atoms, normals = [], []
    for i in range(n):
        for j in range(i + 1, n):
            atoms.append("H%d_%d" % (i + 1, j + 1))
            normals.append([(c == i) - (c == j) for c in range(n)])
    path = tmp_path / ("normals%d.json" % n)
    path.write_text(json.dumps({"atoms": atoms, "normals": normals}))
    return str(path)


def test_arrangement_files_are_size_guarded(tmp_path, capsys):
    # 253 atoms in dimension 23, refused before any pencil is derived
    big = normals_file(tmp_path, 23)
    for argv in (["betti", big], ["holonomy", big], ["kinv", big]):
        t0 = time.perf_counter()
        line = assert_exits_2_on_one_line(capsys, argv)
        assert time.perf_counter() - t0 < 1.0
        assert "(253 atoms, dimension 23) costs 12241152 > guard" in line
    # the catalog cost: braid(5) has 45 atom pairs in dimension 5
    small = normals_file(tmp_path, 5)
    line = assert_exits_2_on_one_line(capsys, ["betti", small,
                                               "--guard", "4319"])
    assert "costs 4320 > guard 4319" in line
    code, out, _ = run(capsys, ["betti", small, "--guard", "4320"])
    assert code == 0 and json.loads(out)["b1"] == 10


def test_kinv_and_falk_are_size_guarded(files, tmp_path, capsys):
    big = tmp_path / "pencil200.json"
    big.write_text(json.dumps(arrangement_to_json(pencil(200))))
    for command in ("kinv", "falk"):
        t0 = time.perf_counter()
        line = assert_exits_2_on_one_line(capsys, [command, str(big)])
        assert time.perf_counter() - t0 < 1.0 and "guard" in line
    # pencil(8): C(7, 2) = 21 ideal columns times 28 atom pairs
    small = tmp_path / "pencil8.json"
    small.write_text(json.dumps(arrangement_to_json(pencil(8))))
    for command in ("kinv", "falk"):
        line = assert_exits_2_on_one_line(capsys, [command, str(small),
                                                   "--guard", "587"])
        assert "costs 588 > guard 587" in line
        code, _, _ = run(capsys, [command, str(small), "--guard", "588"])
        assert code == 0
    # a presentation: one relator times one generator pair
    line = assert_exits_2_on_one_line(capsys, ["kinv", files["pres"],
                                               "--guard", "0"])
    assert "costs 1 > guard 0" in line


@pytest.mark.parametrize("argv", [
    [],
    ["holonomy"],
    ["holonomy", "{pencil3}", "--max-degree", "abc"],
    ["betti", "{pencil3}", "--bogus"],
    ["frobnicate", "{pencil3}"],
], ids=["no-command", "missing-file", "bad-int", "unknown-flag",
        "unknown-command"])
def test_usage_errors_exit_2_on_one_line(files, capsys, argv):
    line = assert_exits_2_on_one_line(
        capsys, [a.format(**files) for a in argv])
    assert "-h)" in line


def test_guard_violation_maps_to_exit_2(files, capsys):
    code, _, err = run(capsys, ["holonomy", files["braid4"],
                                "--max-degree", "3", "--guard", "10"])
    assert code == 2 and "guard" in err.lower()
    # a huge degree is refused at once, also over a one-letter alphabet
    one = os.path.join(files["dir"], "one.json")
    with open(one, "w") as f:
        json.dump({"generators": 1, "relators": []}, f)
    for path in (files["braid4"], one):
        t0 = time.perf_counter()
        line = assert_exits_2_on_one_line(
            capsys, ["holonomy", path, "--max-degree", "1000000000"])
        assert time.perf_counter() - t0 < 1.0 and "exceeds the guard" in line


def test_bad_ring_is_an_input_error(files, capsys):
    code, _, err = run(capsys, ["holonomy", files["pencil3"],
                                "--ring", "fp:6"])
    assert code == 2


# ---------------------------------------------------------------------------
# report envelope and determinism

def test_report_envelope(files, capsys):
    argv = ["betti", files["pencil3"], "--report"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    env = json.loads(out)
    assert env["command"] == argv
    assert env["report"] == {"b1": 3, "b2": 2}
    with open(files["pencil3"], "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    assert env["inputs"] == [{"path": files["pencil3"], "sha256": digest}]


def test_reports_are_deterministic_in_process(files, capsys, monkeypatch):
    argv = ["verify-iso", files["pencil3"], files["pencil3"], "--iso", ISO3,
            "--report"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    monkeypatch.setenv("ARRLIE_THREADS", "8")
    _, third, _ = run(capsys, argv)
    assert third == first


def test_entry_point_subprocess_determinism(files):
    cmd = [sys.executable, "-m", "arrlie", "h2check", files["pencil3"],
           "--report"]
    outs = []
    for threads in ("1", "8"):
        env = dict(os.environ, ARRLIE_THREADS=threads)
        r = subprocess.run(cmd, capture_output=True, env=env, check=True)
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0].decode())["report"]["pass"] is True
