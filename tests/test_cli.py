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
from arrlie.arrangement import arrangement_to_json, braid, generic, near_pencil, \
    pencil
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


def exit_and_digests(capsys, argv):
    """(exit code, stdout sha256, stderr sha256) of one call of main."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    cap = capsys.readouterr()
    return (code, hashlib.sha256(cap.out.encode()).hexdigest(),
            hashlib.sha256(cap.err.encode()).hexdigest())


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


def test_h2check_override_reaches_its_decomposability_step(capsys, tmp_path):
    # generic(16) at degree 4 passes at the default guard, with or without
    # --override, which has no effect; the guard runs at every step, the
    # decomposability test too.  On generic(16) that step is free, since
    # its degree 3 has no pair columns and builds no rows, so a low guard
    # stops the H2 triple count first (C(16, 3) = 560 triples, 32 units
    # each); near_pencil(8) is refused at the decomposability step
    path = tmp_path / "generic16.json"
    path.write_text(json.dumps(arrangement_to_json(generic(16))))
    for extra in ([], ["--override"]):
        code, out, _ = run(capsys, ["h2check", str(path), "--degree", "4"]
                           + extra)
        assert code == 0
        assert json.loads(out) == {
            "b2": 120, "bridge": "exact", "ce_h2_rank": 120,
            "ce_h2_torsion": [], "decomposable": True, "degree": 4,
            "expected": 120, "h_n_rank": 0, "h_n_torsion": [], "pass": True,
            "ring": "z"}
    line = assert_exits_2_on_one_line(capsys, ["h2check", str(path),
                                               "--degree", "4", "--guard",
                                               "2239", "--override"])
    assert "560 triples, which cost 17920 > guard 2239" in line
    path = tmp_path / "near_pencil8.json"
    path.write_text(json.dumps(arrangement_to_json(near_pencil(8))))
    line = assert_exits_2_on_one_line(capsys, ["h2check", str(path),
                                               "--degree", "4", "--guard",
                                               "1063"])
    assert ("holonomy degree 3 has 120 pair columns and 56 triples, which "
            "cost 1064 > guard 1063") in line


def test_h2check_is_size_guarded(capsys, tmp_path):
    # near_pencil(16) at degree 4: the degree-3 truncation has dimensions
    # 16, 91 and 910 and 1632645 triples of weight <= 6, refused before
    # any of them is built
    path = tmp_path / "near_pencil16.json"
    path.write_text(json.dumps(arrangement_to_json(near_pencil(16))))
    t0 = time.perf_counter()
    line = assert_exits_2_on_one_line(capsys, ["h2check", str(path),
                                               "--degree", "4", "--override"])
    assert time.perf_counter() - t0 < 3.0
    assert "1632645 triples, which cost 52244640 > guard 10000000" in line
    # near_pencil(5) at degree 4: 256 triples, 32 units each
    path = tmp_path / "near_pencil5.json"
    path.write_text(json.dumps(arrangement_to_json(near_pencil(5))))
    argv = ["h2check", str(path), "--degree", "4"]
    line = assert_exits_2_on_one_line(capsys, argv + ["--guard", "8191"])
    assert "256 triples, which cost 8192 > guard 8191" in line
    code, out, _ = run(capsys, argv + ["--guard", "8192"])
    assert code == 0 and json.loads(out)["pass"]


def test_h2check_refuses_degree_n_before_it_computes(capsys, tmp_path,
                                                    monkeypatch):
    # braid(9) at degree 3 under --guard 2000000: H2 of the degree-2
    # truncation has 60060 triples, 1921920 units, but the tower's
    # degree 3 costs more, and its guard runs before the truncation or its
    # H2 is built
    from arrlie import nilpotent

    def never(*args, **kwargs):
        raise AssertionError("computed before the degree-3 guard ran")

    monkeypatch.setattr(nilpotent, "truncated_lie", never)
    monkeypatch.setattr(nilpotent, "ce_h2", never)
    path = tmp_path / "braid9.json"
    path.write_text(json.dumps(arrangement_to_json(braid(9))))
    line = assert_exits_2_on_one_line(capsys, ["h2check", str(path), "--degree",
                                               "3", "--ring", "q", "--guard",
                                               "2000000"])
    assert ("holonomy degree 3 has 3024 pair columns and 7140 triples, which "
            "cost 2727480 > guard 2000000") in line


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
# frozen verify-iso bytes: near_pencil(5) against itself under the 4-cycle
# H1 -> H2 -> H3 -> H4 -> H1 of its big pencil, per degree, ring and
# negative control.  Each row pins the exit code, the sha256 of stdout and
# the sha256 of the bundle's report.json (every matrix of the comparison).

NP5_CYCLE = '{"H1":"H2","H2":"H3","H3":"H4","H4":"H1","H5":"H5"}'

VERIFY_ISO_BYTES = [
    (3, 'z', None, 0,
     '88b8bb425edf34f38335bda138d44b186cd44d915f9f6eb36086cb392442feda',
     '5b045017e0637ed95c0932104e50439b35410f53d6fa6bd416aa96bb4f501613'),
    (3, 'z', 'lift', 1,
     'a793ed464d9443b726499bad7a64f68bd23fdf93c3b90a31454cdd398af2603d',
     '5e18a6d684c104d45d59bfb5cd3b9f7642554c4fb880960316708a4a0aa2d9fd'),
    (3, 'z', 'sigma', 1,
     'e677f77a2da4b4e5a5b814d88ac9517546109ca5b44d18e8ea5a0a49bade5bb0',
     'fa6ea54c4691fef10da3433bd3692c3905e5b9e3faf433f8166e34dce80eff90'),
    (3, 'q', None, 0,
     '63ee353efc80bad6fa9c05e2708dfc43f4d185a4cc1ab8f50efcdee9c6ad567e',
     '5be97ab68e06bf6e80637f47b8fe02260048d30fce055c82ee389758d908453a'),
    (3, 'q', 'lift', 1,
     '1e3314f138b5d030cfd9edb65a89dd2041e9b700c190f9d7b2fb83d7c6fb84c4',
     '6df230b6bf731e8039492392377d058a839eec482bb534ec0354f4b374089fef'),
    (3, 'q', 'sigma', 1,
     'e80828bc0b06a62920d918ffe3bd94a7b08471fec739b8d493b32cb6e8cafbe8',
     '1bb3ea72a84f5571b4237eaac62d26a80f6d285ed5772d12b8ae72407586240a'),
    (3, 'fp:3', None, 0,
     '7cd619aaae14ab5519b312f25119ba2d5cbf35db8c85f3689d7fc62a08440515',
     'd8020970feb8b9c1c52eaf4054adfb279caca7f912841c846359899d7e90ecea'),
    (3, 'fp:3', 'lift', 1,
     '055b750c524247c2198cc4ade8ef10688a03f30ede11c58187887e26b97be3c5',
     '9c94367fc12bcca2518ce418e0e42d9d531bfe3e9883e0e5e1531a5cc178875b'),
    (3, 'fp:3', 'sigma', 1,
     '92247cfb58a776284b891e5cac6b8aa5703436be525ea29b85601448826d8f72',
     'cfb0e5f8d8c33398453f1e76c788efade8f79fe967106c9c3d2cd362fb8d4a4c'),
    (4, 'z', None, 0,
     '475fdfb0879fc3dc9ee4aee9bcf84132ffa9ced08496ee09d52ea037ea68cdb2',
     '432cd66f935152c38e9433a6a24ccceb3c511c5aec245d51233d8fc9ac1869b1'),
    (4, 'z', 'lift', 1,
     'a16b502aeb957b0462a87d66522c3bd6b88a28bb7514a1ef3462f82a7eb4b807',
     'f4a6c658aac274425e0280df4585d08575de914ffac3744301fe8df344b12dae'),
    (4, 'z', 'sigma', 1,
     '553e49b8a216eb1936b2373ffcbe0c44bc6c1badbda55f6a44af8b54d01f8bb9',
     '744332967fa2b3a2441c311f726b0cb81995a4bb107d97646293d9ef6393766c'),
    (4, 'q', None, 0,
     'd1a73befd4ca22f8724ed54a4fe8e941d8a04ebb93ece28b617ff1325651a6a3',
     'da7ec9dd601d22a945eaec5a05de38db7e81fa091720515b05b3560f58791b2c'),
    (4, 'q', 'lift', 1,
     'fd00fa4b994f16afd9f4219d173323ae0ad8bbc26da50f857a512e9878f8d9ac',
     '808e2266f32ed1cb1b1a81fd3fbe8c167e7d4e584159fe602c0c826ded962757'),
    (4, 'q', 'sigma', 1,
     '69c6c2df2bd9604be1600c583c5b633474af5fa2c6a435104e799cf71748239e',
     'ac099aab75e5ca77ac205b07e3595a07a1db4df1addb045a49972244a36a19b1'),
    (4, 'fp:3', None, 0,
     '22fda5d25fb020d5667b5cccb747955825c57d820899dd353260cd426fe89a91',
     'd3f29e20dac083c12fb20b35a43dd857cc91205325e71cf71dab276f9725d55b'),
    (4, 'fp:3', 'lift', 1,
     '3d04c7ce2049b227e7621a9b51ea797b7dbb2020ad17ddcdeed1bede99dcf51c',
     '8a2a298a49cac9cf470396d5dc769846bbc1b56910f4a197f5ba02edbc838a68'),
    (4, 'fp:3', 'sigma', 1,
     '05481be6be2c46de4df21026d579a599e4649455025def72a0f42ad57d5e81ff',
     'ca672cbb6f8993d1d9451dc28554f6b35ca9735d00b24e8f5bb21968159f081b'),
    (5, 'z', None, 0,
     '762b3bf05497f3995eb62e7c21028f32601910e1e5ca73f55a521823ada53497',
     '83a520b8bb28270160c6a30bf4f6f490ebd3a267ff10e7c2fee6325b5b21a864'),
    (5, 'z', 'lift', 1,
     '5bee8d1ae7b5271429ab2b1b1223fe5f767004fd7c629627c25c9277414a452d',
     'c8437e309680c5dfb1c9412629271c7dea8c6026d4d7a57bfbb12e34b410a4eb'),
    (5, 'z', 'sigma', 1,
     '7fc3e6f256ee7ead8b989c10c7c72f0236e526f0e7c192b869c63e29a1eb0a1f',
     '09e07569091f8596aff30d03ab144aa97be57ceb3d76c4f9e15482d94008e4cb'),
    (5, 'q', None, 0,
     '7b8f1f79c680f17ba94ace255b9f84fe98b49214ab86397991c4c9e127250828',
     'b3624cacfe63a06795678c3481c73b48302289084f4be5913770549e7ddcdf6d'),
    (5, 'q', 'lift', 1,
     'dd3548f66f4836a80374d8705c8cc1fad626ba5ca88c7c12b8668bd67e6ed9cd',
     '59bf31e566da7c282641a522926246f6a0bae6727732a7d7e63b9317594921c3'),
    (5, 'q', 'sigma', 1,
     '2f6a901c59f52ed14f63b14567bb2c1667ec8276bb65d455e1a0847674f9ccec',
     'b2b8b85f4a875da5c12f105d07b741bc833063b21263fa6268dd8a4460dbe5aa'),
    (5, 'fp:3', None, 0,
     'f4657a0bcf5790ee4b676b8b0c2aebb3410c11313a7ad20caec9434a8b24ba59',
     '76f1e9ed779ca411285d3e243847d123a914de842e2632e46ba13ac9b1300ed0'),
    (5, 'fp:3', 'lift', 1,
     '741f69e96fd1a827cd45082f92d12fa12a716eaba5e781dd470ebf8a47434c19',
     '41e1e15a6808d8d8357f99a982ebc4d1fe6e8033876511fd6ec4ad0694f4e89e'),
    (5, 'fp:3', 'sigma', 1,
     '834a44ea6d94be20e80694127493443ea2edb4b1167aa980154b246064076e9a',
     'bfbaad92f715c2d37b1c57697916b2d07f152b1b673eb27c24c369ddc812113e'),
]

# nonzero corrections on the big pencil at degree 5: degrees 2 and 3 sum
# to zero over the pencil, degree 4 is free
NP5_CORRECTIONS = (
    '{"0":{"H1.2":[1,0,-2],"H2.2":[-1,0,2],"H1.3":[0,1,0,0,0,0,0,3],'
    '"H3.3":[0,-1,0,0,0,0,0,-3],'
    '"H4.4":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,-1]}}')
NP5_CORRECTIONS_BYTES = (0,
                         '9998549d80d2efea1b2b1372ed09fb61e95bc9d238112a3e8929b7e913ae7388',
                         'daefc85e3d34feee40c34f1a8de7db594c4eeb239d2cd289be1670d1b0eeecfe')


def _verify_iso_digests(capsys, tmp_path, extra):
    path = tmp_path / "np5.json"
    if not path.exists():
        path.write_text(json.dumps(arrangement_to_json(near_pencil(5))))
    outdir = tmp_path / ("out%d" % len(list(tmp_path.iterdir())))
    code, out, _ = run(capsys, ["verify-iso", str(path), str(path), "--iso",
                                NP5_CYCLE, "--out", str(outdir)] + extra)
    report = (outdir / "report.json").read_bytes()
    return (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(report).hexdigest())


def test_verify_iso_bytes_are_frozen(capsys, tmp_path):
    for degree, ring, perturb, code, out, report in VERIFY_ISO_BYTES:
        extra = ["--degree", str(degree), "--ring", ring]
        if perturb:
            extra += ["--perturb", perturb]
        if degree == 5:
            extra.append("--override")
        got = _verify_iso_digests(capsys, tmp_path, extra)
        assert got == (code, out, report), extra
    extra = ["--degree", "5", "--override", "--corrections", NP5_CORRECTIONS]
    assert _verify_iso_digests(capsys, tmp_path, extra) == NP5_CORRECTIONS_BYTES


# One command set run twice in one process, in two orders: the later runs
# read the parser and every holonomy tower the earlier ones built.  Each
# entry is (exit code, stdout sha256[, sha256 of the --out bundle's
# matrices.json, report.json and verdict.json]), computed with fresh
# state per command before towers were shared.
REUSE_BYTES = {
    'holonomy z':
        (0, 'd1cdcac2ca5b7be64750e2fe7f9c664d521ef37196bbc06d8f853f570332a7ae'),
    'holonomy q':
        (0, 'd1cdcac2ca5b7be64750e2fe7f9c664d521ef37196bbc06d8f853f570332a7ae'),
    'holonomy fp:3':
        (0, 'd1cdcac2ca5b7be64750e2fe7f9c664d521ef37196bbc06d8f853f570332a7ae'),
    'holonomy pres z':
        (0, 'c691066dda2e6532c67bcfdc4b228fc836a09d65647bcbbc4c3fd3bed597144f'),
    'holonomy pres q':
        (0, '794e4db0ec54a54ac35b36a345e0c26cf23cd4d509968390ac4f8ab205ffde55'),
    'holonomy pres fp:3':
        (0, '143f762408aa0e929c1309254138640ce6a93eca3f474c090425dcf88f72b880'),
    'holonomy braid4':
        (0, 'a7ed0271f22e613ac5d96ae4ea64563bfab20e821f2d131a16afc02648dcbbaa'),
    'h2check 3':
        (0, 'b7c719ef77b52d2b4d93ccae3e688e3828c9f5a921ad99941153d91ad93f29d8'),
    'h2check 4':
        (0, 'abf94b71f7c8e94b2f42efb7e33ab6ef7701ae5775d8ac5c0694d29556edde7e'),
    'verify-iso':
        (0, '475fdfb0879fc3dc9ee4aee9bcf84132ffa9ced08496ee09d52ea037ea68cdb2'),
    'verify-iso lift':
        (1, 'a16b502aeb957b0462a87d66522c3bd6b88a28bb7514a1ef3462f82a7eb4b807'),
    'verify-iso out':
        (0, '475fdfb0879fc3dc9ee4aee9bcf84132ffa9ced08496ee09d52ea037ea68cdb2',
         'df13c3459cab7ba741d105322df4e7efdf994074a2817d4d9cb5d87f5387d639',
         '432cd66f935152c38e9433a6a24ccceb3c511c5aec245d51233d8fc9ac1869b1',
         'a11ca4370ada7aced38c2f3ebcd136708ce9daf0e30a49017734727fe7a4d157'),
    'kinv':
        (0, 'a5594460da825f8f4a1ad4b66babee907f365e0d0ec6dfda8eea2db9934ebc96'),
    'nq2':
        (0, '72fb33d4956a430a9ea2b8ad0bb7df845c6c3387356727c0df909f46a3f97523'),
    'lattice':
        (0, '1b0d97ee4f9922dbd8582f373532c0950eec567c695316b74fb1a8ad42434aaa'),
    'usage error':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '-h':
        (0, '03942fb304c3788f3c0d3c07c45bfccb68a1ab54a6459cedce0ea87b41e52539'),
}


def _reuse_commands(tmp_path):
    paths = {}
    for name, obj in (("np5", arrangement_to_json(near_pencil(5))),
                      ("braid4", arrangement_to_json(braid(4))),
                      ("pres", {"generators": 2, "relators": ["xxxyXXXY"]})):
        paths[name] = str(tmp_path / ("%s.json" % name))
        with open(paths[name], "w") as f:
            json.dump(obj, f)
    np5, pres = paths["np5"], paths["pres"]
    v = ["verify-iso", np5, np5, "--iso", NP5_CYCLE, "--degree", "4"]
    cmds = [("holonomy %s%s" % (name, ring),
             ["holonomy", path, "--max-degree", "4", "--ring", ring])
            for name, path in (("", np5), ("pres ", pres))
            for ring in ("z", "q", "fp:3")]
    cmds += [
        ("holonomy braid4", ["holonomy", paths["braid4"], "--max-degree", "4",
                             "--ring", "q"]),
        ("h2check 3", ["h2check", np5, "--degree", "3", "--ring", "z"]),
        ("h2check 4", ["h2check", np5, "--degree", "4", "--ring", "z"]),
        ("verify-iso", v),
        ("verify-iso lift", v + ["--perturb", "lift"]),
        ("verify-iso out", v + ["--out", str(tmp_path / "out")]),
        ("kinv", ["kinv", np5]),
        ("nq2", ["nq2", np5, "--word", "H1.H2.H1^-1.H2^-1"]),
        ("lattice", ["lattice", np5]),
        ("usage error", ["holonomy", np5, "--max-degree", "four"]),
        ("-h", ["-h"]),
    ]
    return cmds


def test_reuse_within_one_process_keeps_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # the width -h wraps its usage to
    cmds = _reuse_commands(tmp_path)
    assert sorted(name for name, _ in cmds) == sorted(REUSE_BYTES)
    for order in (cmds, cmds[::-1]):
        for name, argv in order:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            cap = capsys.readouterr()
            got = (code, hashlib.sha256(cap.out.encode()).hexdigest())
            if "--out" in argv:
                got += tuple(hashlib.sha256((tmp_path / "out" / f).read_bytes())
                             .hexdigest() for f in ("matrices.json", "report.json",
                                                    "verdict.json"))
            assert got == REUSE_BYTES[name], name
            if code == 2:
                lines = cap.err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("arrlie: error:")


# One usage error per subcommand ("" is the top level); argparse refuses
# each before any file is read.
USAGE_ERRORS = {
    "": ["nope"],
    "lattice": ["lattice"],
    "betti": ["betti", "f.json", "--nope"],
    "witt": ["witt", "--alphabet", "two"],
    "holonomy": ["holonomy", "f.json", "--max-degree"],
    "falk": ["falk", "f.json", "g.json"],
    "nq2": ["nq2", "f.json"],
    "kinv": ["kinv", "f.json", "--guard", "1.5"],
    "h2check": ["h2check", "f.json", "--degree", "x"],
    "decomp": ["decomp"],
    "lcs": ["lcs", "f.json", "--max-degree", "x"],
    "verify-iso": ["verify-iso", "a.json", "b.json", "--perturb", "both"],
    "catalog": ["catalog", "braid", "x"],
}

# (exit code, stdout sha256, stderr sha256) of `SUB -h` and of SUB's usage
# error at COLUMNS=80, as the parser gave them when it added every
# subcommand's arguments when it was built
PARSER_TEXT_BYTES = {
    ('', '-h'):
        (0, '03942fb304c3788f3c0d3c07c45bfccb68a1ab54a6459cedce0ea87b41e52539',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('lattice', '-h'):
        (0, '66798c986e2e839a984566c9bbf66f9339209196b4c084675c0543f45b3ea044',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('betti', '-h'):
        (0, '82524f38ae633603154202fedd0eaa3c5b732070747a16702800501835c3e0d3',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('witt', '-h'):
        (0, 'e94dc662ff2c634df92c3e58113f37628b3657f1d56675d336d7107032b02b0c',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('holonomy', '-h'):
        (0, '2be6433cd48299b250a0e59f1e1e243f3a16035ffc90d6dfe5b3878a4b8014aa',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('falk', '-h'):
        (0, '0f899e175cda939881b5dbe99eb084361a44482a01219176ca7edf3589ff0057',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('nq2', '-h'):
        (0, 'c2a9ff29892e6d80ab80a06141defeeda2faa23535d040405233eb73c97235df',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('kinv', '-h'):
        (0, '4d319afe652cedad0e4d93da0dbcdca37abc6c0ce1f1569ead719f4e8b38e46f',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('h2check', '-h'):
        (0, '3b4827550d78e7095e070c99c376809ea5eabef61907f9b9305597bdf727c69a',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('decomp', '-h'):
        (0, 'd2a9cd9d73d27897c86a6af7ef003d6411bf742b96ff9572bd01ba095a290462',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('lcs', '-h'):
        (0, 'f02220f9c160a25fc937dcb07ce6df3727d0358199b547e022f2e5fc7f49e3b9',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('verify-iso', '-h'):
        (0, 'd12972eba75979498da52ba8a6f4f3580f2671e5170bf4af74642c9e95f50c26',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('catalog', '-h'):
        (0, 'c9a84899a5e06cdfe51ae9950976042e576248d9a9fd7f783c05cc11eabb4052',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'b778d103b9efaa5f268f25f7f7edaf07052d001a08198f9b13ae8b2588908ef5'),
    ('lattice', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         '80dab77b5b5827855a80c6e7385ef459cb3f32db96d46871cc7d82034790cb58'),
    ('betti', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         '4871d0a6a3d3d7eb2e1707431fb160b71711cf8a1f8c45d1f35f27bdb2d76665'),
    ('witt', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         '1dfec7119367d325e08549c0a425b0d9a12b4b9ab8de5652005a9156015b807b'),
    ('holonomy', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'd4ff4598fde9e53a3e37e74dbce9c4511d78d125b5666b8caabb3f4b116e4c74'),
    ('falk', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'fdc63d886fce16010e4f4dcf00cfb3ce95c91b20dedf52fef23894521408a260'),
    ('nq2', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'f6adc97d5998c58b7217b68a0ac7b61f7648d7f4e865038931fd77686e61600a'),
    ('kinv', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         '994741b21a1fb9da4c8010deb4cf76e533b38e49c48c273ca853811f29cfcd40'),
    ('h2check', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         '7456b9e9d5439300e4368d4456eae8b60121e2e9404a695d05169c29747e97e5'),
    ('decomp', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'ea746c2b1a2bb791391272dadf532d6dc14be541033fdd92c0840c57cdaadf4e'),
    ('lcs', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'f68ec5ce0ec7b1ba8f86afbc6e89abf7aa0e05c84df3339c15593471f03985b2'),
    ('verify-iso', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         '72d095fa17a384c91131aaca661deb74fd81048ae35072785b7f7c47a62b802a'),
    ('catalog', 'error'):
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         '4a080ff787dc9728064e31ef931e8d55c02efde2917b2ea9f3cfd87d13514b0c'),
}


def test_parser_text_is_frozen(capsys, monkeypatch):
    # each order starts with no parser built, so its first case builds it
    monkeypatch.setenv("COLUMNS", "80")
    cases = [((name, "-h"), ([name] if name else []) + ["-h"])
             for name in USAGE_ERRORS]
    cases += [((name, "error"), argv) for name, argv in USAGE_ERRORS.items()]
    assert sorted(key for key, _ in cases) == sorted(PARSER_TEXT_BYTES)
    for order in (cases, cases[::-1]):
        cli._build_parser.cache_clear()
        for key, argv in order:
            assert exit_and_digests(capsys, argv) == PARSER_TEXT_BYTES[key], key


EMPTY_SHA256 = 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'

# (argv, (exit code, stdout sha256, stderr sha256)) of the usage errors a
# leading word or its absence decides, as the parser gave them when it held
# every subcommand; "bogus" and "z" are refused with all 12 names listed
TOP_LEVEL_ERRORS = [
    ([], (2, EMPTY_SHA256,
          '6cefbb89dfe056e7f351da414a9827c17f6f11ec3c4cd7e108e102e425102c42')),
    (["bogus"], (2, EMPTY_SHA256,
                 'c9539f5e30bef107275195784567c71940f76c077cc05400eab35383e6929869')),
    (["--ring", "z", "holonomy", "f.json"], (
        2, EMPTY_SHA256,
        '97b5de8af08cb061be7ff5b21c36a6937efc154d85e243d4d8485d814b93931e')),
    (["holonomy", "f.json", "extra"], (
        2, EMPTY_SHA256,
        '59b5b40ea1be15147acdf712c5b7bee61b20f124f3bb7a5f08047ab7c4dc2c64')),
]


def subcommands(parser):
    """The subcommand names a parser holds."""
    return set(parser._subparsers._group_actions[0].choices)


def test_a_well_formed_call_builds_no_parser(files, capsys, monkeypatch):
    # a well-formed line is read from the subcommand table; -h and usage
    # errors build the argparse parser, with every subcommand, and read as
    # pinned above
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    code, out, _ = run(capsys, ["holonomy", files["pencil3"]])
    assert code == 0 and json.loads(out)
    assert cli._build_parser.cache_info().misses == 0
    cases = TOP_LEVEL_ERRORS + [
        (["holonomy", "-h"], PARSER_TEXT_BYTES["holonomy", "-h"]),
        (USAGE_ERRORS["holonomy"], PARSER_TEXT_BYTES["holonomy", "error"])]
    # twice each: the kept parser must give the same texts again
    for _ in range(2):
        for argv, want in cases:
            assert exit_and_digests(capsys, argv) == want, argv
    assert cli._build_parser.cache_info().misses == 1
    assert subcommands(cli._build_parser()) == set(cli._COMMANDS)
    assert len(cli._COMMANDS) == 12


def test_a_well_formed_call_loads_neither_argparse_nor_hashlib(files):
    # hashlib is loaded for --report alone, argparse for what the table
    # reader leaves (here an abbreviation)
    probe = (
        "import contextlib, io, sys\n"
        "from arrlie.cli import main\n"
        "for extra in ([], ['--report'], ['--max-deg', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(['holonomy', sys.argv[1], '--max-degree', '3']"
        " + extra)\n"
        "    print(code, sorted({'argparse', 'hashlib'} & set(sys.modules)),"
        " file=sys.stderr)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    r = subprocess.run([sys.executable, "-c", probe, files["braid4"]],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert [l for l in r.stderr.splitlines() if not TIMING.match(l)] == [
        "0 []", "0 ['hashlib']", "0 ['argparse', 'hashlib']"]


# words the fuzz below puts in: values argparse reads but the table reader
# leaves to it, and words that make a usage error
FUZZ_WORDS = ["-1", "", "-", "--", "-h", "--help", "x", "0", "3", " 3", "-0",
              "z", "q", "fp:3", "sigma", "lift", "1.5", "--nope", "--nope=1",
              "-x", "--table", "--table=1", "--ring", "--max-degree=",
              "--guard=-5", "--perturb=both", "holonomy", "f.json"]


def _fuzzed(rng, argv, options):
    """argv with one to three seeded edits."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        opts = [i for i, w in enumerate(argv) if w.startswith("--") and
                "=" not in w and len(w) > 3 and i > 0]
        valued = [i for i in opts if i + 1 < len(argv)
                  and not argv[i + 1].startswith("-")]
        kind = rng.randrange(10)
        at = rng.randint(min(1, len(argv)), len(argv))
        if kind == 0 and opts:                     # abbreviate an option
            i = rng.choice(opts)
            argv[i] = argv[i][:rng.randint(3, len(argv[i]) - 1)]
        elif kind == 1 and valued:                 # --flag=value
            i = rng.choice(valued)
            argv[i:i + 2] = ["%s=%s" % (argv[i], argv[i + 1])]
        elif kind == 2 and len(argv) > 1:          # replace a word
            argv[rng.randrange(1, len(argv))] = rng.choice(FUZZ_WORDS)
        elif kind == 3:                            # insert a word
            argv.insert(at, rng.choice(FUZZ_WORDS))
        elif kind == 4 and valued:                 # repeat an option
            i = rng.choice(valued)
            argv[at:at] = [argv[i], rng.choice([argv[i + 1]] + FUZZ_WORDS)]
        elif kind == 5:                            # an option of any command
            argv.insert(at, rng.choice(options))
        elif kind == 6 and argv:                   # drop a word
            del argv[rng.randrange(len(argv))]
        elif kind == 7 and len(argv) > 2:          # options first
            argv[1:] = argv[2:] + argv[1:2]
        elif kind == 8 and argv:                   # another subcommand
            argv[0] = rng.choice(sorted(cli._COMMANDS) + ["hol", "-h", ""])
        elif kind == 9:                            # an end of options
            argv.insert(rng.randint(0, len(argv)), "--")
    return argv


def test_the_table_reader_agrees_with_argparse(tmp_path):
    # every line of the byte check and a seeded fuzz of mutated ones: where
    # the reader accepts a line, argparse makes the same namespace of it,
    # and where argparse refuses a line, the reader does too
    import contextlib
    import importlib.util
    import io
    import random
    spec = importlib.util.spec_from_file_location(
        "bytecheck", os.path.join(os.path.dirname(__file__), "bytecheck.py"))
    bytecheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bytecheck)
    base = bytecheck.commands(*bytecheck.write_inputs(str(tmp_path)))
    options = sorted({flags[0] for _, _, specs in cli._COMMANDS.values()
                      for flags, _ in specs if flags[0].startswith("-")})
    rng = random.Random(26)
    argvs = base + [_fuzzed(rng, rng.choice(base), options)
                    for _ in range(6000)]
    parser = cli._build_parser()
    counts = {"read": 0, "argparse only": 0, "refused": 0}
    for argv in argvs:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                want = vars(parser.parse_args(argv))
        except (cli.InputError, SystemExit):
            want = None
        got = cli._read_argv(argv)
        if got is not None:
            assert vars(got) == want, argv
        counts["read" if got else "refused" if want is None
               else "argparse only"] += 1
    assert min(counts.values()) > 300, counts


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
    pytest.param("--corrections", '{"%s":{"H1.2":[1]}}' % ("1" * 5000),
                 '--corrections["%s"]: not a flat index of B' % ("1" * 5000),
                 id="flat-key-of-5000-digits"),
    pytest.param("--corrections", '{"0":{"H1.%s":[1]}}' % ("1" * 5000),
                 '--corrections["0"]["H1.%s"]: degree not in 2..3' % ("1" * 5000),
                 id="degree-key-of-5000-digits"),
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
    # refused before any pencil is built: braid(42) has 370230 atom pairs in
    # dimension 42, generic(1119) 625521 pairs and no normals
    for argv in (["catalog", "braid", "42"], ["catalog", "generic", "1119"],
                 ["catalog", "generic", "100000"]):
        t0 = time.perf_counter()
        line = assert_exits_2_on_one_line(capsys, argv)
        assert time.perf_counter() - t0 < 1.0 and "guard" in line
    # every size the tests and the benchmark build passes the default guard,
    # and so does braid(23), whose normals cost a third of a unit per coordinate
    for family, top in (("braid", 7), ("pencil", 8), ("generic", 8),
                        ("near_pencil", 8), ("braid", 23)):
        code, out, _ = run(capsys, ["catalog", family, str(top)])
        assert code == 0 and json.loads(out)["atoms"]
    # braid(5): 45 atom pairs, 16 units each plus a third for each of 5
    # coordinates, 45 * 53 // 3
    line = assert_exits_2_on_one_line(capsys, ["catalog", "braid", "5",
                                               "--guard", "794"])
    assert "costs 795 > guard 794" in line
    code, out, _ = run(capsys, ["catalog", "braid", "5", "--guard", "795"])
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
    # 861 atoms in dimension 42, refused before any pencil is derived
    big = normals_file(tmp_path, 42)
    for argv in (["betti", big], ["holonomy", big], ["kinv", big]):
        t0 = time.perf_counter()
        line = assert_exits_2_on_one_line(capsys, argv)
        assert time.perf_counter() - t0 < 1.0
        assert "(861 atoms, dimension 42) costs 11106900 > guard" in line
    # the catalog cost: braid(5) has 45 atom pairs in dimension 5
    small = normals_file(tmp_path, 5)
    line = assert_exits_2_on_one_line(capsys, ["betti", small,
                                               "--guard", "794"])
    assert "costs 795 > guard 794" in line
    code, out, _ = run(capsys, ["betti", small, "--guard", "795"])
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
    # and over generic(8), whose h_n = 0 for n >= 3 costs nothing
    vanishing = os.path.join(files["dir"], "generic8.json")
    with open(vanishing, "w") as f:
        json.dump(arrangement_to_json(generic(8)), f)
    for path in (files["braid4"], one, vanishing):
        t0 = time.perf_counter()
        line = assert_exits_2_on_one_line(
            capsys, ["holonomy", path, "--max-degree", "1000000000"])
        assert time.perf_counter() - t0 < 1.0 and "exceeds the guard" in line


def test_the_tower_guard_refuses_a_degree_before_building_it(capsys, tmp_path,
                                                             monkeypatch):
    # braid(5) in degree 7 (12960 pair columns and 25410 triples; 321 s
    # and 694 MB when forced) is refused at the default guard, after
    # degree 6 is built for its counts and before any row of degree 7
    from arrlie import holonomy
    real, weights = holonomy.wedge_block, []

    def recording(w, *args):
        weights.append(w)
        return real(w, *args)

    monkeypatch.setattr(holonomy, "wedge_block", recording)
    holonomy._tower.cache_clear()
    path = tmp_path / "braid5.json"
    path.write_text(json.dumps(arrangement_to_json(braid(5))))
    try:
        line = assert_exits_2_on_one_line(
            capsys, ["holonomy", str(path), "--max-degree", "7"])
    finally:
        holonomy._tower.cache_clear()
    assert ("holonomy degree 7 has 12960 pair columns and 25410 triples, "
            "which cost 41265840 > guard 10000000") in line
    assert weights == [2, 3, 4, 5, 6]


def test_override_changes_nothing(files, capsys, tmp_path):
    # --override is still accepted, and has no effect on any command
    np5 = str(tmp_path / "np5.json")
    with open(np5, "w") as f:
        json.dump(arrangement_to_json(near_pencil(5)), f)
    iso = ["--iso", NP5_CYCLE]
    cmds = [["holonomy", files["braid4"], "--max-degree", "5"],
            ["holonomy", files["pres"], "--max-degree", "4", "--ring", "q"],
            ["holonomy", files["braid4"], "--max-degree", "1000000000"],
            ["h2check", np5, "--degree", "4"],
            ["h2check", files["braid4"], "--ring", "fp:2"],
            ["decomp", files["braid4"]],
            ["decomp", np5],
            ["lcs", np5, "--max-degree", "6"],
            ["lcs", files["braid4"]],
            ["verify-iso", np5, np5] + iso,
            ["verify-iso", np5, np5, "--degree", "5"] + iso,
            ["verify-iso", np5, np5, "--degree", "5", "--corrections",
             NP5_CORRECTIONS] + iso]
    for argv in cmds:
        plain = run(capsys, argv)[:2]
        assert run(capsys, argv + ["--override"])[:2] == plain, argv


def test_bad_ring_is_an_input_error(files, capsys):
    code, _, err = run(capsys, ["holonomy", files["pencil3"],
                                "--ring", "fp:6"])
    assert code == 2


def test_a_ring_modulus_that_is_not_digits_is_an_unknown_ring(files, capsys):
    code, out, err = run(capsys, ["holonomy", files["pencil3"],
                                  "--ring", "fp:abc"])
    assert (code, out) == (2, "")
    assert err == ("arrlie: error: unknown ring 'fp:abc' (expected z, q, "
                   "or fp:<p>)\n")


def test_digit_strings_past_the_int_limit_get_the_readers_refusal(files, capsys):
    big = "1" * 5000
    code, out, err = run(capsys, ["holonomy", files["pencil3"],
                                  "--ring", "fp:" + big])
    assert (code, out) == (2, "")
    assert err == "arrlie: error: modulus %s too large, need p < 2**31\n" % big
    code, out, err = run(capsys, ["nq2", files["pencil3"], "--word", "H1^-" + big])
    assert (code, out) == (2, "")
    assert err == ("arrlie: error: bad --word: the exponent of generator 'H1' "
                   "has 5000 digits, too many to read\n")


def test_a_result_past_the_int_limit_is_refused_with_its_digit_count(files, capsys):
    # both exponents are read, but the tail, their product, has 6000 digits
    sevens = "7" * 3000
    for table in ([], ["--table"]):
        code, out, err = run(capsys, ["nq2", files["pencil3"], "--word",
                                      "H2^%s.H1^%s" % (sevens, sevens)] + table)
        assert (code, out) == (2, "")
        assert err == ("arrlie: error: the result holds an integer of 6000 "
                       "digits, too many to print\n")


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


# sha256 of the whole output of `python3 tests/bytecheck.py`: the exit code
# and stdout digest of each of its commands, and the digests of their
# bundles and error lines.  A change that keeps every CLI byte keeps it.
BYTECHECK_SHA256 = "3507094c6355b71e06e3b425c33c356671447bd4fac3a92f8e973954056ffd0d"


def test_the_byte_check_digest_is_pinned():
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bytecheck.py")
    r = subprocess.run([sys.executable, script], capture_output=True,
                       timeout=300, check=True)
    assert hashlib.sha256(r.stdout).hexdigest() == BYTECHECK_SHA256
