"""Command line: schema rejection, check failures, golden bytes."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from rackgraph import cli, corpus, jsonio

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


def test_missing_file():
    code, report, _ = run_cli(["validate", "no/such/file.json"])
    assert code == 2
    assert "no such file" in report["error"]["message"]


def test_nonpositive_degree_bound():
    code, report, _ = run_cli(["homology", "corpus/dihedral_3.json", "--max-degree", "0"])
    assert code == 2
    assert "positive" in report["error"]["message"]


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


def test_degree_bound_too_shallow_for_hopf():
    code, report, _ = run_cli(
        ["hopf", "corpus/toy_c2.json", "--field", "f2", "--max-degree", "1"]
    )
    assert code == 2
    assert report["error"] == {
        "path": "",
        "message": "depth too small to observe stabilization",
    }


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
    code, report, _ = run_cli([argv[0], path, *argv[1:]])
    assert code == 1
    assert report == {
        "schema": 1,
        "command": argv[0],
        "ok": False,
        "violations": ["right translation by 0 is not a bijection"],
    }


@pytest.mark.parametrize(
    "argv", [["homology"], ["hopf"], ["presentation"], ["convert", "--to", "graph"]]
)
def test_inner_group_over_order_bound_refused(tmp_path, argv):
    # translations (0 1) and an 8-cycle generate S_8, of order 40320; its
    # multiplication table alone would hold 40320^2 entries
    op = [[(1 - x if x < 2 else x) if y == 0 else (x + 1) % 8 for y in range(8)]
          for x in range(8)]
    path = write_doc(tmp_path, {"schema": 1, "kind": "rack", "op": op})
    code, report, _ = run_cli([argv[0], path, *argv[1:]])
    assert code == 2
    assert report["error"] == {"path": "", "message": "group order exceeds bound 20000"}


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


def test_validate_matrix_sample():
    code, report, _ = run_cli(["validate", "corpus/so3_matrix.json"])
    assert code == 0
    assert report["ok"] is True
    assert "residuals" in report


def test_integrate_so3():
    code, report, _ = run_cli(["integrate", "corpus/so3_matrix.json", "--samples", "20"])
    assert code == 0
    assert report["rack_checks"]["ok"] is True


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
                "self-distributivity residual is not finite at sample 0",
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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rackgraph.cli", "validate", "corpus/conj_c2.json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_corpus_files_are_canonical():
    # the checked-in inputs are exactly what the writers produce
    for name, doc in corpus.corpus_documents().items():
        frozen = Path(f"corpus/{name}.json").read_text(encoding="utf-8")
        assert frozen == jsonio.canonical_json(doc), name
