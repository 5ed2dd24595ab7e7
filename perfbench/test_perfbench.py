"""Tests of the benchmark itself, on the smallest inputs (--quick).

    python3 -m pytest perfbench -q

Run from the root of the checkout; runs write under .perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

ROOT = os.path.dirname(workloads.HERE)
SPAN_KEYS = {"pass", "id", "name", "parent", "start_ns", "end_ns", "sizes"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_mode_runs_every_workload_correctly():
    res = result("--workload", "all", "--seed", "11", "--quick")
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] > 0
    want = {f"{w}.{m}" for w in workloads.WORKLOADS for m, _ in run.END_TO_END}
    assert set(res["metrics"]) == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_corrupted_reference_entry_is_a_failure(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(workloads.HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = copy / "reference.json"
    reference = json.loads(ref_path.read_text(encoding="utf-8"))
    key = workloads.QUICK["homology"][0].key
    reference[key]["report"]["degrees"][1]["betti"] += 1
    ref_path.write_text(json.dumps(reference), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--seconds", "1", "--workload", "homology",
         "--seed", "12", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is False
    assert res["failed"] / res["attempted"] > 0


def _spans(name, seed):
    path = os.path.join(ROOT, ".perfbench", "traces", f"{name}-seed{seed}.jsonl")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_span_names_and_keys_are_stable():
    res = result("--workload", "homology", "--seed", "13", "--quick", "--trace", "1")
    assert res["correct"] is True
    assert set(res["metrics"]) == {m for m, _ in run.PER_LAYER}
    spans = _spans("homology", 13)
    assert all(set(s) == SPAN_KEYS for s in spans)
    by_pass = {}
    for s in spans:
        by_pass.setdefault(s["pass"], []).append(s)
    assert len(by_pass) >= run.LABELLINGS
    for pass_spans in by_pass.values():
        assert [s["id"] for s in pass_spans] == list(range(len(pass_spans)))
        assert pass_spans[0]["name"] == "bench.pass" and pass_spans[0]["parent"] == -1
        for s in pass_spans[1:]:
            parent = pass_spans[s["parent"]]
            assert 0 <= s["parent"] < s["id"]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
    assert {s["name"] for s in spans} == {
        "bench.pass", "cli", "jsonio.load_path", "racks.inner_group", "cubical.build",
        "cubical.d2_check", "cubical.snf_route", "cubical.boundary_matrix", "linalg.snf",
        "cubical.rational_route", "linalg.rref_q", "jsonio.canonical_json",
    }
    sizes = {s["name"]: set(s["sizes"]) for s in spans if s["sizes"]}
    assert sizes == {
        "cubical.build": {"cells", "boundary_nnz"},
        "linalg.snf": {"cells"},
        "linalg.rref_q": {"rows_in", "rank_out"},
    }


@pytest.mark.parametrize("workload", ["hopf", "small"])
def test_per_layer_counts_repeat_exactly(workload):
    first = result("--workload", workload, "--seed", "14", "--quick", "--trace", "1")
    second = result("--workload", workload, "--seed", "14", "--quick", "--trace", "1")
    counts = [m for m, unit in run.PER_LAYER if unit == "count"]
    assert [first["metrics"][m] for m in counts] == [second["metrics"][m] for m in counts]
    assert any(first["metrics"][m]["value"] > 0 for m in counts)


def test_nesting_check_catches_a_span_outside_its_parent():
    rec = tracer.Recorder()
    with rec.root():
        rec.wrap(lambda: None, "inner", None)()
    assert rec.nesting_errors() == []
    rec.spans[1][2] = rec.spans[0][2] + 1
    assert rec.nesting_errors() == ["span 1 (inner): outside its parent 0 (bench.pass)"]
    rec.spans[1][3] = 1
    assert rec.nesting_errors() == ["span 1 (inner): parent 1"]


def test_inputs_depend_only_on_seed_and_labelling(tmp_path):
    cmds = workloads.commands("small", ROOT, quick=True)

    def texts(seed, index):
        d = tmp_path / f"{seed}-{index}"
        paths = workloads.write_inputs(ROOT, cmds, seed, index, str(d))
        return {k: open(p, encoding="utf-8").read() for k, p in paths.items()}

    assert texts(5, 0) == texts(5, 0)
    assert texts(5, 0) != texts(5, 1)
    assert texts(5, 0) != texts(6, 0)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "small", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
