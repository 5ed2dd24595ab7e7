"""Command line: schema rejection, check failures, golden bytes."""

import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import json_dumps_canonical
from rackgraph import cli, corpus, cubical, jsonio, lierack, linalg, racks

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def run_cli(argv):
    code, text, _ = cli.render(argv)
    return code, json.loads(text), text


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(jsonio.canonical_json(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# schema violations -> exit 2 with a location


def test_unsupported_schema_version(tmp_path):
    path = write_doc(tmp_path, {"schema": 2, "kind": "rack", "op": [[0]]})
    code, report, _ = run_cli(["validate", path])
    assert code == 2
    assert report["error"]["path"] == "/schema"


def test_unknown_kind(tmp_path):
    path = write_doc(tmp_path, {"schema": 1, "kind": "mystery", "op": [[0]]})
    code, report, _ = run_cli(["validate", path])
    assert code == 2
    assert report["error"]["path"] == "/kind"


def test_ragged_rack_table(tmp_path):
    path = write_doc(tmp_path, {"schema": 1, "kind": "rack", "op": [[0, 1], [1]]})
    code, report, _ = run_cli(["validate", path])
    assert code == 2
    assert report["error"]["path"] == "/op/1"


def test_out_of_range_entry(tmp_path):
    path = write_doc(tmp_path, {"schema": 1, "kind": "rack", "op": [[0, 2], [1, 0]]})
    code, report, _ = run_cli(["validate", path])
    assert code == 2
    assert report["error"]["path"] == "/op/0/1"


def _set_pointer(doc, pointer: str, value) -> None:
    *parents, last = (int(part) if part.isdigit() else part for part in pointer.split("/")[1:])
    for part in parents:
        doc = doc[part]
    doc[last] = value


@pytest.mark.parametrize(
    "name, bad, path, message",
    [
        ("dihedral_3", {"/op/2/0": 1, "/op/1/1": 3, "/op/1/2": -1}, "/op/1/1", "value 3 out of range [0, 3)"),
        ("conj_c3", {"/group/mul/2/0": "x", "/group/mul/2/2": 7}, "/group/mul/2/0", "expected an integer"),
        ("conj_c3", {"/action/1/2": 3, "/action/2/0": -1}, "/action/1/2", "value 3 out of range [0, 3)"),
        ("conj_c3", {"/pi/2": 5}, "/pi/2", "out of range"),
        ("graph_s3_transpositions", {"/arrows/1/1": 6, "/arrows/2/0": -1}, "/arrows/1/1", "value 6 out of range [0, 6)"),
        ("graph_s3_transpositions", {"/left_act/1/4": True, "/left_act/1/9": 18}, "/left_act/1/4", "expected an integer"),
        ("sl2_adjoint", {"/c/1/2/0": "1/0", "/c/1/2/2": True}, "/c/1/2/0", "bad rational '1/0'"),
        ("sl2_adjoint", {"/c/2/1/1": True}, "/c/2/1/1", "expected an integer or 'p/q' string"),
        ("sl2_adjoint", {"/rho/0/2/1": "a/b", "/rho/1/0/0": True}, "/rho/0/2/1", "bad rational 'a/b'"),
        ("sl2_adjoint", {"/rho/2/1/2": True}, "/rho/2/1/2", "expected an integer or 'p/q' string"),
        ("sl2_adjoint", {"/f/1/2": "1/x"}, "/f/1/2", "bad rational '1/x'"),
        ("sl2_adjoint", {"/f/2/0": True, "/f/2/1": "1/0"}, "/f/2/0", "expected an integer or 'p/q' string"),
        ("nilpotent_matrix", {"/basis/0/1/0": "0.5"}, "/basis/0/1/0", "expected a number"),
        ("nilpotent_matrix", {"/basis/0/0/1": float("inf"), "/basis/0/1/1": "x"}, "/basis/0/0/1", "expected a finite number"),
    ],
)
def test_first_bad_entry_names_its_path(name, bad, path, message):
    doc = json.loads((ROOT / "corpus" / f"{name}.json").read_text(encoding="utf-8"))
    for pointer, value in bad.items():
        _set_pointer(doc, pointer, value)
    with pytest.raises(jsonio.SchemaError) as caught:
        jsonio.load_document(doc)
    assert (caught.value.path, caught.value.message) == (path, message)


def test_missing_file():
    code, report, _ = run_cli(["validate", "no/such/file.json"])
    assert code == 2
    assert "no such file" in report["error"]["message"]


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read"),
        (b'\xff{"schema": 1}', "not valid UTF-8"),
        (b"[" * 100000, "not valid JSON"),
        (b'{"schema": 1, "kind": "rack", "op": [[1' + b"0" * 5000 + b"]]}", "not valid JSON"),
    ],
    ids=["directory", "not_utf8", "nested_too_deeply", "integer_too_long"],
)
def test_unreadable_input_is_a_schema_error(tmp_path, content, message):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, report, _ = run_cli(["validate", str(path)])
    assert code == 2
    assert report["error"]["path"] == ""
    assert report["error"]["message"].startswith(message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["homology", "corpus/dihedral_3.json", "--max-degree", "0"], "degree bound must be positive"),
        (["validate", "corpus/so3_matrix.json", "--tol", "nan"], "tolerance must be finite and positive"),
        (["validate", "corpus/so3_matrix.json", "--tol", "inf"], "tolerance must be finite and positive"),
        (["validate", "corpus/so3_matrix.json", "--tol", "-1"], "tolerance must be finite and positive"),
        (["integrate", "corpus/so3_matrix.json", "--seed", "-1"], "seed must be non-negative"),
    ],
    ids=["max-degree-0", "tol-nan", "tol-inf", "tol-negative", "seed-negative"],
)
def test_bad_bound_refused(argv, message):
    code, report, _ = run_cli(argv)
    assert code == 2
    assert report["error"] == {"path": "", "message": message}


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["homology"], ["hopf"], ["presentation"], ["convert", "--to", "graph"]],
)
def test_empty_rack_rejected(tmp_path, capsys, argv):
    path = write_doc(tmp_path, {"schema": 1, "kind": "rack", "op": []})
    code = cli.main([argv[0], path, *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"]["path"] == "/op"
    assert err == ""


@pytest.mark.parametrize(
    "spelling,message",
    [
        ("f4", "field characteristic must be prime, got 4"),
        ("x", "unknown field spec 'x'"),
        # a prime past the int64 row reduction, and a 19-digit number that
        # must be refused before its primality is tested by trial division
        (
            "f4294967311",
            "field characteristic must be below 2^31 = 2147483648, got 4294967311",
        ),
        (
            "f1000000000000000003",
            "field characteristic must be below 2^31 = 2147483648, got 1000000000000000003",
        ),
    ],
)
def test_bad_field_spelling(spelling, message):
    code, report, _ = run_cli(["hopf", "corpus/toy_c2.json", "--field", spelling])
    assert code == 2
    assert report["error"] == {"path": "", "message": message}


@pytest.mark.parametrize(
    "flags,message",
    [
        (
            ["--max-degree", "8"],
            "memory bound exceeded: basis size 10077696 (6^9) > cap 1000000",
        ),
        (
            ["--complex", "eq", "--max-degree", "6"],
            "memory bound exceeded: basis size 1679616 (6 x 6^7, full complex) > cap 1000000",
        ),
    ],
)
def test_oversize_complex_refused(flags, message):
    code, report, _ = run_cli(["homology", "corpus/dihedral_6.json", *flags])
    assert code == 2
    assert report["error"] == {"path": "", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        # the size check formatted 6^6001, past the integer digit limit
        ["homology", "corpus/dihedral_6.json", "--max-degree", "6000"],
        # one cell per degree never trips the size cap
        ["homology", "corpus/toy_c2.json", "--max-degree", "1000"],
        # a report of 20000 copies of the stable level
        ["hopf", "corpus/conj_q8.json", "--field", "q", "--max-degree", "20000"],
    ],
)
def test_degree_bound_over_limit_refused(argv):
    code, report, _ = run_cli(argv)
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": f"degree bound {argv[-1]} exceeds the limit {cli.MAX_DEGREE}",
    }


@pytest.mark.parametrize("command", ["homology", "hopf"])
def test_degree_bound_at_limit_accepted(command):
    code, report, _ = run_cli(
        [command, "corpus/toy_c2.json", "--max-degree", str(cli.MAX_DEGREE)]
    )
    assert code == 0
    assert report["ok"]


def test_sample_count_over_limit_refused():
    # refused before any sampling, as a report: no traceback reaches stderr
    samples = str(cli.MAX_SAMPLES + 1)
    proc = subprocess.run(
        [sys.executable, "-m", "rackgraph.cli", "integrate", "corpus/so3_matrix.json",
         "--samples", samples],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == {
        "path": "",
        "message": f"sample count {samples} exceeds the limit {cli.MAX_SAMPLES}",
    }


def test_integrate_over_sample_cost_refused(tmp_path):
    # a valid 20 x 20 input: every sample costs 20^2 + 20^2, so 4000 samples
    # are over the budget although the count is far below MAX_SAMPLES
    lie = lierack.MatrixLMLie.make(
        [np.diag(np.arange(20.0))], np.zeros((1, 20, 20)), np.zeros((20, 1))
    )
    path = write_doc(tmp_path, jsonio.dump_matrix_lm_lie(lie))
    code, report, _ = run_cli(["integrate", path, "--samples", "4000"])
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": "sample cost samples * (m^2 + dim_x^2) = 4000 * (20^2 + 20^2) = 3200000"
        f" exceeds the limit {cli.MAX_SAMPLE_COST}",
    }
    # so(3) on R^3 stays inside it at the largest sample count
    assert cli.MAX_SAMPLES * (3**2 + 3**2) <= cli.MAX_SAMPLE_COST


def test_hopf_over_size_budget_refused(tmp_path):
    # the transpositions of S6 as a bare rack: its inner group is S6, so the
    # arrow bialgebra would hold 720^2 * 15 table entries; refused before it
    # is built, in seconds where building it runs for minutes
    group, perms = racks.group_from_permutations([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
    assert group.order == 720
    a = racks.conjugacy_class_rack(group, [perms.index((1, 0, 2, 3, 4, 5))])
    path = write_doc(tmp_path, jsonio.dump_rack(a.derived_rack()))
    proc = subprocess.run(
        [sys.executable, "-m", "rackgraph.cli", "hopf", path, "--field", "f2"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == {
        "path": "",
        "message": "hopf size |G|^2 |X| = 720^2 * 15 = 7776000"
        f" exceeds the limit {cli.MAX_HOPF_SIZE}",
    }


def _refuse(*args):
    raise AssertionError("structure checked before the size budget")


def test_hopf_size_budget_before_the_checks(tmp_path, monkeypatch):
    # S5 on itself by conjugation: 120^3 = 1.7e6 table entries; validate_group
    # alone would spend 120^3 steps before the budget refused them
    group, _ = racks.group_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    path = write_doc(tmp_path, jsonio.dump_augmented(racks.conjugation_rack(group)))
    monkeypatch.setattr(cli, "validate_group", _refuse)
    code, report, _ = run_cli(["hopf", path])
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": "hopf size |G|^2 |X| = 120^2 * 120 = 1728000"
        f" exceeds the limit {cli.MAX_HOPF_SIZE}",
    }


def test_hopf_size_budget_of_a_graph_before_the_checks(monkeypatch):
    monkeypatch.setattr(cli, "MAX_HOPF_SIZE", 100)
    monkeypatch.setattr(cli, "validate_group_like", _refuse)
    code, report, _ = run_cli(["hopf", "corpus/graph_s3_transpositions.json"])
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": "hopf size |G| |arrows| = 6 * 18 = 108 exceeds the limit 100",
    }


def test_homology_size_budget_before_the_checks(tmp_path, monkeypatch):
    # S5 on itself by conjugation: the bq top chain group at degree 4 holds
    # 120^4 cells, refused before validate_group spends 120^3 steps
    group, _ = racks.group_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    path = write_doc(tmp_path, jsonio.dump_augmented(racks.conjugation_rack(group)))
    monkeypatch.setattr(cli, "validate_group", _refuse)
    code, report, _ = run_cli(["homology", path, "--max-degree", "3"])
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": "memory bound exceeded: basis size 207360000 (120^4) > cap 1000000",
    }


def test_homology_size_budget_of_a_graph_before_the_checks(monkeypatch):
    # |X| of a graph is the number of arrows out of the identity: 3 of 18
    monkeypatch.setattr(cubical, "SIZE_CAP", 100)
    monkeypatch.setattr(cli, "validate_group_like", _refuse)
    code, report, _ = run_cli(
        ["homology", "corpus/graph_s3_transpositions.json", "--complex", "eq", "--max-degree", "2"]
    )
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": "memory bound exceeded: basis size 162 (6 x 3^3, full complex) > cap 100",
    }


def test_degree_bound_too_shallow_for_hopf():
    code, report, _ = run_cli(
        ["hopf", "corpus/toy_c2.json", "--field", "f2", "--max-degree", "1"]
    )
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": "depth too small to observe stabilization",
    }


def test_hopf_degree_bound_past_the_repeats_adds_no_linear_algebra(monkeypatch):
    # every chain of conj_q8 over Q repeats within a few levels, so a bound
    # of 64 only lengthens each printed list by copies of its last value
    calls = []
    from_vectors = linalg.Subspace.from_vectors

    def counted(*args):
        calls.append(args)
        return from_vectors(*args)

    monkeypatch.setattr(linalg.Subspace, "from_vectors", staticmethod(counted))
    argv = ["hopf", "corpus/conj_q8.json", "--field", "q"]
    runs = []
    for bound in ([], ["--max-degree", "64"]):
        calls.clear()
        code, report, _ = run_cli(argv + bound)
        assert code == 0 and report["ok"]
        runs.append((report, len(calls)))
    (unbounded, count), (bounded, count_64) = runs
    assert count > 0
    assert count_64 == count
    assert len(bounded["filtration_a"]) == 65
    for key in ("filtration_h", "filtration_a", "coinvariant_dims"):
        short, long = unbounded[key], bounded[key]
        assert long == short + short[-1:] * (len(long) - len(short)), key


def test_wrong_kind_for_dgla():
    code, report, _ = run_cli(["dgla", "corpus/dihedral_3.json"])
    assert code == 2
    assert report["error"]["path"] == "/kind"


def test_dgla_over_word_budget_refused():
    code, report, _ = run_cli(["dgla", "corpus/free_two.json", "--max-degree", "12"])
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": "degree bound needs 862118 bracket words, over the budget 300000",
    }


@pytest.mark.parametrize("bound", [14, 2000])
def test_dgla_empty_module_over_degree_budget_refused(tmp_path, bound):
    # no module generators means no bracket words, yet every degree still
    # costs the checks a loop over degree triples; the bound is held to what
    # the word budget allows one generator
    doc = {"schema": 1, "kind": "lm_lie", "c": [[[0]]], "rho": [[]], "f": []}
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(["dgla", path, "--max-degree", str(bound)])
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": f"degree bound {bound} would need 1033412 bracket words on one "
        "generator, over the budget 300000",
    }
    code, report, _ = run_cli(["dgla", path, "--max-degree", "13"])
    assert code == 0
    assert report["dims"] == [1] + [0] * 13


# ---------------------------------------------------------------------------
# check failures -> exit 1 with a witness


def test_corrupted_rack_reported(tmp_path):
    doc = json.loads(Path("corpus/dihedral_3.json").read_text())
    doc["op"][0][0] = 1  # in range, breaks the axioms
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(["validate", path])
    assert code == 1
    assert report["ok"] is False
    assert report["violations"]


@pytest.mark.parametrize(
    "argv", [["homology"], ["hopf"], ["presentation"], ["convert", "--to", "graph"]]
)
def test_rack_with_non_bijective_translation_reported(tmp_path, argv):
    doc = json.loads(Path("corpus/dihedral_3.json").read_text())
    doc["op"][0][0] = 1  # column 0 becomes (1, 2, 1)
    path = write_doc(tmp_path, doc)
    _, validated, _ = run_cli(["validate", path])
    assert validated["violations"][0] == "right translation by 0 is not a bijection"
    code, report, _ = run_cli([argv[0], path, *argv[1:]])
    assert code == 1
    assert report == {
        "schema": 1,
        "command": argv[0],
        "ok": False,
        "violations": validated["violations"],
    }


@pytest.mark.parametrize(
    "argv", [["homology"], ["hopf"], ["presentation"], ["convert", "--to", "graph"]]
)
def test_rack_not_self_distributive_reported(tmp_path, capsys, argv):
    # every right translation is a bijection; (0^0)^0 = 0 but (0^0)^(0^0) = 1
    doc = {"schema": 1, "kind": "rack", "op": [[1, 0, 0], [0, 2, 1], [2, 1, 2]]}
    path = write_doc(tmp_path, doc)
    assert cli.main(["validate", path]) == 1
    validated = json.loads(capsys.readouterr().out)
    assert "self-distributivity fails at (0,0,0)" in validated["violations"]
    assert cli.main([argv[0], path, *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "schema": 1,
        "command": argv[0],
        "ok": False,
        "violations": validated["violations"],
    }


def _transposition_quandle(n):
    """The transpositions of S_n as a bare rack, x ^ y = y x y."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def swap(k, t):
        return t[1] if k == t[0] else t[0] if k == t[1] else k

    return [[pairs.index(tuple(sorted((swap(x[0], y), swap(x[1], y))))) for y in pairs]
            for x in pairs]


@pytest.mark.parametrize(
    "argv", [["homology"], ["hopf"], ["presentation"], ["convert", "--to", "graph"]]
)
def test_inner_group_over_order_bound_refused(tmp_path, argv):
    # the 28 transpositions of S_8 generate it, of order 40320; its
    # multiplication table alone would hold 40320^2 entries
    path = write_doc(tmp_path, {"schema": 1, "kind": "rack", "op": _transposition_quandle(8)})
    code, report, _ = run_cli([argv[0], path, *argv[1:]])
    if argv[0] == "presentation":  # reads the rack alone
        assert code == 0 and report["abelianization"] == {"rank": 1, "torsion": []}
        return
    assert code == 2
    assert report["error"] == {"path": "", "message": "group order exceeds bound 20000"}


def test_presentation_of_a_bare_rack_builds_no_inner_group(monkeypatch):
    def refuse(r):
        raise AssertionError("inner group built")

    monkeypatch.setattr(cli, "inner_group", refuse)
    code, _, text = run_cli(["presentation", "corpus/dihedral_3.json"])
    assert code == 0
    assert text == Path("golden/presentation_dihedral_3.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv", [["homology"], ["hopf"], ["presentation"], ["convert", "--to", "rack"]]
)
def test_graph_not_group_like_reported(tmp_path, argv):
    doc = json.loads(Path("corpus/graph_s3_transpositions.json").read_text())
    doc["left_act"] = [[0] * len(row) for row in doc["left_act"]]
    path = write_doc(tmp_path, doc)
    _, validated, _ = run_cli(["validate", path])
    assert validated["violations"]
    code, report, _ = run_cli([argv[0], path, *argv[1:]])
    assert code == 1
    assert report == {
        "schema": 1,
        "command": argv[0],
        "ok": False,
        "violations": validated["violations"],
    }


def _corrupt_vertex_table(doc):
    # keeps the identity and every inverse, so both the group's and the
    # graph's associativity lines show inside the first 20
    doc["vertex_group"]["mul"][3][3] = 3


def _corrupt_left_act(doc):
    doc["left_act"][2][5] = 15


def _corrupt_right_act(doc):
    doc["right_act"][4][7] = 6


def _corrupt_arrow_target(doc):
    doc["arrows"][4][1] = 2


@pytest.mark.parametrize(
    "corrupt, violations",
    [
        (_corrupt_vertex_table, """
associativity fails at (1,2,3)
associativity fails at (1,3,3)
associativity fails at (2,3,3)
associativity fails at (2,5,3)
associativity fails at (3,1,2)
associativity fails at (3,2,5)
associativity fails at (3,3,1)
associativity fails at (3,3,2)
associativity fails at (3,3,4)
associativity fails at (3,3,5)
associativity fails at (3,4,4)
associativity fails at (3,5,1)
associativity fails at (4,3,3)
associativity fails at (4,4,3)
associativity fails at (5,1,3)
associativity fails at (5,3,3)
vertex associativity fails at (1,2,3)
vertex associativity fails at (1,3,3)
vertex associativity fails at (2,3,3)
vertex associativity fails at (2,5,3)
"""),
        (_corrupt_left_act, """
s(v.a) != v.s(a) at (2,5)
t(v.a) != v.t(a) at (2,5)
(uv).a != u.(v.a) at (1,2,5)
(uv).a != u.(v.a) at (1,3,5)
(u.a).v != u.(a.v) at (2,1,1)
(uv).a != u.(v.a) at (2,1,2)
(u.a).v != u.(a.v) at (2,1,5)
(uv).a != u.(v.a) at (2,2,5)
(u.a).v != u.(a.v) at (2,2,5)
(u.a).v != u.(a.v) at (2,2,9)
(uv).a != u.(v.a) at (2,2,14)
(u.a).v != u.(a.v) at (2,3,5)
(uv).a != u.(v.a) at (2,3,8)
(u.a).v != u.(a.v) at (2,3,15)
(u.a).v != u.(a.v) at (2,4,5)
(u.a).v != u.(a.v) at (2,4,7)
(uv).a != u.(v.a) at (2,4,17)
(u.a).v != u.(a.v) at (2,5,5)
(uv).a != u.(v.a) at (2,5,11)
(u.a).v != u.(a.v) at (2,5,14)
"""),
        (_corrupt_right_act, """
s(a.v) != s(a).v at (4,7)
(u.a).v != u.(a.v) at (1,4,7)
(u.a).v != u.(a.v) at (1,4,10)
(a.u).v != a.(uv) at (1,4,14)
(a.u).v != a.(uv) at (1,5,7)
(a.u).v != a.(uv) at (2,1,7)
(a.u).v != a.(uv) at (2,4,1)
(u.a).v != u.(a.v) at (2,4,1)
(u.a).v != u.(a.v) at (2,4,7)
(a.u).v != a.(uv) at (3,3,7)
(a.u).v != a.(uv) at (3,4,5)
(u.a).v != u.(a.v) at (3,4,7)
(u.a).v != u.(a.v) at (3,4,16)
(a.u).v != a.(uv) at (4,1,7)
(a.u).v != a.(uv) at (4,2,7)
(a.u).v != a.(uv) at (4,3,7)
(u.a).v != u.(a.v) at (4,4,4)
(a.u).v != a.(uv) at (4,4,7)
(u.a).v != u.(a.v) at (4,4,7)
(a.u).v != a.(uv) at (4,4,15)
"""),
        (_corrupt_arrow_target, """
t(v.a) != v.t(a) at (1,1)
t(a.v) != t(a).v at (1,2)
t(v.a) != v.t(a) at (1,4)
t(a.v) != t(a).v at (1,4)
t(v.a) != v.t(a) at (2,4)
t(a.v) != t(a).v at (2,4)
t(a.v) != t(a).v at (2,10)
t(v.a) != v.t(a) at (2,13)
t(v.a) != v.t(a) at (3,4)
t(a.v) != t(a).v at (3,4)
t(v.a) != v.t(a) at (3,7)
t(a.v) != t(a).v at (3,17)
t(v.a) != v.t(a) at (4,4)
t(a.v) != t(a).v at (4,4)
t(a.v) != t(a).v at (4,6)
t(v.a) != v.t(a) at (4,16)
t(v.a) != v.t(a) at (5,4)
t(a.v) != t(a).v at (5,4)
t(v.a) != v.t(a) at (5,10)
t(a.v) != t(a).v at (5,12)
"""),
    ],
    ids=["vertex_table", "left_act", "right_act", "arrow_target"],
)
def test_corrupted_graph_validate_report_pinned(tmp_path, corrupt, violations):
    doc = json.loads(Path("corpus/graph_s3_transpositions.json").read_text())
    corrupt(doc)
    code, _, text = run_cli(["validate", write_doc(tmp_path, doc)])
    assert code == 1
    assert text == jsonio.canonical_json({
        "schema": 1,
        "command": "validate",
        "kind": "graph",
        "ok": False,
        "checked": 2856,
        "violations": violations.strip().split("\n"),
    })


@pytest.mark.parametrize(
    "argv", [["homology"], ["hopf"], ["presentation"], ["convert", "--to", "graph"]]
)
def test_augmented_rack_action_not_an_action_reported(tmp_path, argv):
    doc = json.loads(Path("corpus/class_s3_transpositions.json").read_text())
    action = doc["action"]
    action[0][1], action[1][1] = action[1][1], action[0][1]
    path = write_doc(tmp_path, doc)
    _, validated, _ = run_cli(["validate", path])
    assert validated["violations"]
    code, report, _ = run_cli([argv[0], path, *argv[1:]])
    assert code == 1
    assert report == {
        "schema": 1,
        "command": argv[0],
        "ok": False,
        "violations": validated["violations"],
    }


def test_augmented_rack_group_not_associative_reported(tmp_path):
    # every element has an inverse and the one-point action passes validate,
    # but (1*1)*2 = 2 while 1*(1*2) = 1
    doc = {
        "schema": 1,
        "kind": "augmented_rack",
        "group": {"mul": [[0, 1, 2], [1, 0, 0], [2, 0, 0]], "identity": 0},
        "action": [[0, 0, 0]],
        "pi": [0],
    }
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(["hopf", path])
    assert code == 1
    assert "associativity fails at (1,1,2)" in report["violations"]


def test_non_group_table_reported(tmp_path):
    doc = json.loads(Path("corpus/toy_c2.json").read_text())
    doc["group"]["mul"] = [[0, 1], [1, 1]]  # well shaped, no inverse for 1
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(["validate", path])
    assert code == 1
    assert any("not a group" in v for v in report["violations"])


def test_corrupted_action_reported(tmp_path):
    doc = json.loads(Path("corpus/conj_c3.json").read_text())
    assert doc["action"][1][1] == 1  # conjugation in an abelian group is trivial
    doc["action"][1][1] = 2
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(["validate", path])
    assert code == 1
    assert report["violations"]


# ---------------------------------------------------------------------------
# working commands


def test_homology_worked_example():
    code, report, _ = run_cli(["homology", "corpus/dihedral_3.json", "--complex", "bq"])
    assert code == 0
    assert report["degrees"][0]["betti"] == 1
    assert report["degrees"][1]["betti"] == 1


@pytest.mark.parametrize(
    "flags,degrees",
    [
        # the rational route's largest input: d_4 of eq, 6250 columns of rank 1040
        (["--complex", "eq", "--max-degree", "3"], [(1, []), (1, []), (1, [5]), (1, [5, 5])]),
        (["--complex", "bq", "--max-degree", "4"],
         [(1, []), (1, []), (1, []), (1, [5]), (1, [5, 5])]),
    ],
)
def test_homology_dihedral_5_at_the_largest_degrees_pinned(flags, degrees):
    code, report, _ = run_cli(["homology", "corpus/dihedral_5.json", *flags])
    assert code == 0
    assert report["ok"] is True
    assert [(d["betti"], d["torsion"]) for d in report["degrees"]] == degrees


@st.composite
def conjugacy_class_racks(draw):
    """A union of one or two conjugacy classes of a subgroup of S4 made
    from one or two random permutations."""
    perms = draw(st.lists(st.permutations(range(4)), min_size=1, max_size=2))
    group, _ = racks.group_from_permutations([tuple(p) for p in perms])
    seeds = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=2))
    return racks.conjugacy_class_rack(group, seeds)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(conjugacy_class_racks())
def test_random_conjugacy_class_racks(tmp_path, a):
    path = write_doc(tmp_path, jsonio.dump_augmented(a))
    code, _, graph_text = run_cli(["convert", path, "--to", "graph"])
    assert code == 0
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(graph_text, encoding="utf-8")
    code, _, rack_text = run_cli(["convert", str(graph_path), "--to", "rack"])
    assert (code, rack_text) == (0, Path(path).read_text(encoding="utf-8"))
    for n in (1, 2, 3):
        cubical.assert_boundary_squares_to_zero(cubical.bq_chain_complex(a, max_degree=n))
        cubical.assert_boundary_squares_to_zero(cubical.eq_chain_complex(a, max_degree=min(n, 2)))
    # ok: the rational Betti numbers of the integer-row `rref` equal the SNF ones
    code, report, _ = run_cli(["homology", path, "--complex", "bq", "--max-degree", "2"])
    assert (code, report["ok"]) == (0, True)


def test_dgla_plain_failure_pinned():
    # with ordinary signs d.d fails on sl2; the indices of the failing basis
    # elements pin the basis order through the CLI
    code, report, _ = run_cli(
        ["dgla", "corpus/sl2_adjoint.json", "--max-degree", "3", "--convention", "plain"]
    )
    assert code == 1
    assert report["dims"] == [3, 3, 3, 8]
    assert report["truncation_check"] == {
        "checked": 894,
        "ok": False,
        "violations": [
            "d.d nonzero in degree 2 at basis element 0",
            "d.d nonzero in degree 2 at basis element 1",
            "d.d nonzero in degree 2 at basis element 2",
            "d.d nonzero in degree 3 at basis element 0",
            "d.d nonzero in degree 3 at basis element 2",
            "d.d nonzero in degree 3 at basis element 3",
            "d.d nonzero in degree 3 at basis element 6",
            "d.d nonzero in degree 3 at basis element 7",
        ],
    }


def test_validate_matrix_sample():
    code, report, _ = run_cli(["validate", "corpus/so3_matrix.json"])
    assert code == 0
    assert report["ok"] is True
    assert "residuals" in report


def test_integrate_so3():
    code, report, _ = run_cli(["integrate", "corpus/so3_matrix.json", "--samples", "20"])
    assert code == 0
    assert report["rack_checks"]["ok"] is True


def test_integrate_leaves_numpy_random_unimported():
    # the samples come from the random module, which numpy imports anyway
    script = (
        "import sys\n"
        "from rackgraph import cli\n"
        "code, _, _ = cli.render(['integrate', 'corpus/so3_matrix.json'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_integrate_rejects_rack_input():
    code, report, _ = run_cli(["integrate", "corpus/dihedral_3.json"])
    assert code == 2


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


# one corpus entry set to a huge value: the structure stays valid, the products overflow
INERT_RHO = ("inert_pair", ("rho", 0, 0, 0), 1e300)  # rho @ rho - rho @ rho is inf - inf
INERT_F = ("inert_pair", ("f", 0, 0), 1e154)  # every pi(x) overflows, the action is trivial
NILPOTENT_RHO = ("nilpotent_matrix", ("rho", 0, 0, 0), 1e154)  # exp(rho f(y)) overflows


@pytest.mark.parametrize(
    "edit, command, block, violations",
    [
        (INERT_RHO, "validate", None, ["module axiom residual is not finite"]),
        (INERT_RHO, "integrate", "validation", ["module axiom residual is not finite"]),
        (INERT_F, "integrate", "rack_checks", ["equivariance residual is not finite at sample 0"]),
        (
            NILPOTENT_RHO,
            "integrate",
            "rack_checks",
            [
                "self-distributivity residual is not finite at sample 1",
                "equivariance residual is not finite at sample 1",
            ],
        ),
    ],
)
def test_overflow_is_a_violation_in_valid_json(tmp_path, edit, command, block, violations):
    name, (*keys, last), value = edit
    target = doc = json.loads(Path(f"corpus/{name}.json").read_text(encoding="utf-8"))
    for key in keys:
        target = target[key]
    target[last] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would reach stderr
        code, text, _ = cli.render([command, write_doc(tmp_path, doc)])
    report = json.loads(text, parse_constant=_no_constant)
    assert code == 1
    assert report["ok"] is False
    checks = report[block] if block else report
    assert checks["violations"] == violations
    assert None in checks["residuals"].values()


def test_presentation_trivial_rack():
    code, report, _ = run_cli(["presentation", "corpus/trivial_2.json"])
    assert code == 0
    assert report["abelianization"] == {"rank": 2, "torsion": []}


def test_hopf_on_graph_input():
    code, report, _ = run_cli(["hopf", "corpus/graph_s3_transpositions.json", "--field", "f3"])
    assert code == 0
    assert report["ok"] is True
    assert report["connected"] is True


@pytest.mark.parametrize("name", ["conj_c3", "class_s3_transpositions", "toy_c2"])
def test_convert_roundtrip_bytes(tmp_path, name):
    source = Path(f"corpus/{name}.json")
    mid = tmp_path / "graph.json"
    code = cli.main(["convert", str(source), "--to", "graph", "--out", str(mid)])
    assert code == 0
    back = tmp_path / "back.json"
    code = cli.main(["convert", str(mid), "--to", "rack", "--out", str(back)])
    assert code == 0
    assert back.read_bytes() == source.read_bytes()


# ---------------------------------------------------------------------------
# golden files


@pytest.mark.parametrize("name,argv", corpus.golden_commands())
def test_golden_file_matches(name, argv):
    code, _, text = run_cli(argv)
    assert code == 0
    frozen = Path(f"golden/{name}.json").read_text(encoding="utf-8")
    assert text == frozen


def test_golden_runs_are_deterministic():
    name, argv = corpus.golden_commands()[7]  # the hopf command
    first = cli.render(argv)[1]
    second = cli.render(argv)[1]
    assert first == second


@pytest.mark.parametrize("arg", ["--help", "corpus"])
def test_regen_golden_refuses_arguments(tmp_path, arg):
    # run a copy, so that a run that ignored its argument writes under tmp_path
    script = tmp_path / "scripts" / "regen_golden.py"
    script.parent.mkdir()
    script.write_bytes((ROOT / "scripts" / "regen_golden.py").read_bytes())
    proc = subprocess.run(
        [sys.executable, str(script), arg],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ") and proc.stderr.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["scripts"]


def test_sweep_refuses_arguments():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep.py"), "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage: python3 scripts/sweep.py  (takes no arguments)\n"


def test_out_refuses_divergent_overwrite(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["presentation", "corpus/trivial_2.json", "--out", str(target)])
    assert code == 0
    target.write_text("something else", encoding="utf-8")
    code = cli.main(["presentation", "corpus/trivial_2.json", "--out", str(target)])
    assert code == 2
    assert target.read_text(encoding="utf-8") == "something else"
    code = cli.main(
        ["presentation", "corpus/trivial_2.json", "--out", str(target), "--golden-update"]
    )
    assert code == 0
    assert json.loads(target.read_text(encoding="utf-8"))["ok"] is True


@pytest.mark.parametrize("target", ["", "missing/report.json"], ids=["directory", "missing_parent"])
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, target):
    code = cli.main(["presentation", "corpus/trivial_2.json", "--out", str(tmp_path / target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rackgraph.cli", "validate", "corpus/conj_c2.json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_flags_of_one_command_do_not_reach_the_next():
    _, _, m = cli.render(["hopf", "corpus/toy_c2.json", "--field", "f2", "--max-degree", "2"])
    assert (m.field, m.max_degree) == ("f2", 2)
    code, text, m = cli.render(["hopf", "corpus/toy_c2.json"])
    assert (m.field, m.max_degree) == ("q", None)
    assert code == 0
    assert json.loads(text)["field"] == "q"


# (command, flags after the input, the Manifest fields they set); each case
# also runs with every value joined as --flag=value and with the input last.
# --seed -1 parses; test_bad_bound_refused pins its exit 2 and report.
ARGV_CASES = [
    ("validate", [], {}),
    ("validate", ["--tol", "1e-6", "--out", "r.json", "--golden-update"],
     {"tol": 1e-6, "out": "r.json", "golden_update": True}),
    ("convert", ["--to", "rack"], {"to": "rack"}),
    ("convert", ["--to", "graph", "--out", "r.json", "--golden-update"],
     {"to": "graph", "out": "r.json", "golden_update": True}),
    ("homology", [], {}),
    ("homology", ["--max-degree", "2", "--complex", "eq", "--out", "r.json", "--golden-update"],
     {"max_degree": 2, "complex_kind": "eq", "out": "r.json", "golden_update": True}),
    ("hopf", [], {}),
    ("hopf", ["--field", "f3", "--max-degree", "4", "--out", "r.json", "--golden-update"],
     {"field": "f3", "max_degree": 4, "out": "r.json", "golden_update": True}),
    ("dgla", [], {}),
    ("dgla", ["--max-degree", "2", "--convention", "plain", "--out", "r.json", "--golden-update"],
     {"max_degree": 2, "convention": "plain", "out": "r.json", "golden_update": True}),
    ("integrate", [], {}),
    ("integrate",
     ["--tol", "0.5", "--seed", "5", "--samples", "7", "--out", "r.json", "--golden-update"],
     {"tol": 0.5, "seed": 5, "samples": 7, "out": "r.json", "golden_update": True}),
    ("presentation", [], {}),
    ("presentation", ["--out", "r.json", "--golden-update"], {"out": "r.json", "golden_update": True}),
    ("hopf", ["--field", "f2", "--max-degree", "1", "--field", "f5"], {"field": "f5", "max_degree": 1}),
    ("integrate", ["--seed", "-1"], {"seed": -1}),
]


def _joined(flags):
    out = []
    for tok in flags:
        if out and out[-1].startswith("--") and not tok.startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


@pytest.mark.parametrize("form", ["spaced", "joined", "input_last"])
@pytest.mark.parametrize("command, flags, fields", ARGV_CASES)
def test_argv_to_manifest(command, flags, fields, form):
    if form == "joined":
        argv = [command, "in.json", *_joined(flags)]
    elif form == "input_last":
        argv = [command, *flags, "in.json"]
    else:
        argv = [command, "in.json", *flags]
    assert cli.manifest_from_args(argv) == cli.Manifest(command, "in.json", **fields)


MALFORMED_ARGV = {
    "no_command": [],
    "unknown_command": ["frobnicate", "corpus/toy_c2.json"],
    "unknown_flag": ["hopf", "corpus/toy_c2.json", "--bogus", "1"],
    "flag_of_another_command": ["hopf", "corpus/toy_c2.json", "--complex", "bq"],
    "missing_value": ["hopf", "corpus/toy_c2.json", "--field"],
    "flag_as_value": ["hopf", "corpus/toy_c2.json", "--field", "--max-degree", "2"],
    "failed_int": ["hopf", "corpus/toy_c2.json", "--max-degree", "two"],
    "failed_float": ["validate", "corpus/toy_c2.json", "--tol=small"],
    "outside_choices": ["homology", "corpus/toy_c2.json", "--complex", "cq"],
    "value_on_switch": ["presentation", "corpus/toy_c2.json", "--golden-update=yes"],
    "zero_inputs": ["presentation"],
    "two_inputs": ["presentation", "corpus/toy_c2.json", "corpus/trivial_2.json"],
    "convert_without_to": ["convert", "corpus/toy_c2.json"],
    # flag names are exact; argparse took a unique prefix
    "prefix_of_a_flag": ["homology", "corpus/toy_c2.json", "--max", "3"],
}


def test_malformed_argv_exits_2_and_the_next_command_runs(capsys):
    for name, argv in MALFORMED_ARGV.items():
        with pytest.raises(SystemExit) as exc:
            cli.render(argv)
        assert exc.value.code == 2, name
        out, err = capsys.readouterr()
        assert out == "", name
        assert err.startswith("usage: "), name
        code, report, _ = run_cli(["presentation", "corpus/trivial_2.json"])
        assert code == 0, name
        assert report["ok"] is True, name


def test_help_names_every_command():
    proc = subprocess.run(
        [sys.executable, "-m", "rackgraph.cli", "--help"], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    for command in ("validate", "convert", "homology", "hopf", "dgla", "integrate", "presentation"):
        assert command in proc.stdout


def test_commands_load_no_argparse_gettext_or_locale():
    # the command line is read from a table, so no command pays for argparse
    # and the gettext and locale modules that it loads
    script = (
        "import sys\n"
        "import rackgraph.cli\n"
        "rackgraph.cli.render(['presentation', 'corpus/trivial_2.json'])\n"
        "rackgraph.cli.render(['dgla', 'corpus/one_generator.json', '--max-degree', '2'])\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_corpus_files_are_canonical():
    # the checked-in inputs are exactly what the writers produce
    for name, doc in corpus.corpus_documents().items():
        frozen = Path(f"corpus/{name}.json").read_text(encoding="utf-8")
        assert frozen == jsonio.canonical_json(doc), name


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e300, -1e300]),
    st.fractions(),
    st.text(max_size=4),
    st.sampled_from(["", "caf\u00e9 \u2603 \U0001f600", "\x00\t\n\x1f\x7f\"\\"]),
)
INT_KEYS = st.integers(-3, 3)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=4),
        # an int key and its string are one key
        st.dictionaries(
            st.one_of(INT_KEYS, INT_KEYS.map(str), st.text(max_size=3)), inner, max_size=4
        ),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_canonical_json_matches_json_dumps(doc):
    assert jsonio.canonical_json(doc) == json_dumps_canonical(doc)


# ---------------------------------------------------------------------------
# the input contract under mutated documents

CORPUS_DOCS = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "corpus").glob("*.json"))
]

# every command, with the smallest degree bound where it takes one
FUZZ_COMMANDS = (
    ["validate"],
    ["convert", "--to", "graph"],
    ["convert", "--to", "rack"],
    ["homology", "--max-degree", "1"],
    ["hopf", "--max-degree", "1"],
    ["dgla", "--max-degree", "1"],
    ["integrate"],
    ["presentation"],
)

# one strategy per JSON type, so that a node can be given another type
TYPED_VALUES = {
    int: st.one_of(st.integers(-2, 8), st.sampled_from([2**63, -(10**9)])),
    float: st.floats(-4, 4),
    str: st.text(max_size=3),
    type(None): st.none(),
    bool: st.booleans(),
    list: st.lists(st.integers(0, 3), max_size=3),
    dict: st.dictionaries(st.sampled_from(["schema", "kind", "op"]), st.integers(0, 2), max_size=2),
}


def _node_paths(doc, path=()):
    """The key paths of every node below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _node_paths(value, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    """A corpus document with one leaf replaced, one key or entry dropped,
    or one node replaced by a value of another type."""
    doc = copy.deepcopy(draw(st.sampled_from(CORPUS_DOCS)))
    how = draw(st.sampled_from(["leaf", "drop", "type"]))
    paths = [
        p for p in _node_paths(doc)
        if how != "leaf" or not isinstance(_node(doc, p), (dict, list))
    ]
    path = draw(st.sampled_from(paths))
    parent, key = _node(doc, path[:-1]), path[-1]
    if how == "drop":
        del parent[key]
    elif how == "leaf":
        parent[key] = draw(st.one_of(*TYPED_VALUES.values()))
    else:
        old = type(parent[key])
        parent[key] = draw(st.one_of(*(v for t, v in TYPED_VALUES.items() if t is not old)))
    return doc


# the working directory and the input file are shared by every example
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=mutated_documents())
def test_mutated_documents_keep_the_input_contract(tmp_path, doc):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in FUZZ_COMMANDS:
        code, text, _ = cli.render([argv[0], str(path), *argv[1:]])
        report = json.loads(text)
        assert code in (0, 1, 2), argv
        assert isinstance(report, dict), argv
        if code == 2:
            assert isinstance(report["error"]["path"], str), argv
