"""rackgraph benchmark: CLI workloads on seeded, relabelled inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload homology --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run writes LABELLINGS random relabellings of the workload's inputs, each
made from (seed, labelling number).  It then runs rounds until the next round
would overrun --seconds, and always at least one: a round runs the workload's
command list once on each labelling, each pass through rackgraph.cli.render
in a fresh interpreter (worker.py).  So every run measures the same inputs,
however many rounds fit.  `import rackgraph.cli`, and then the fixed work of
probe.py, are timed SETUP_SAMPLES times, each in a fresh interpreter of its
own: before the first pass that starts after each of SETUP_SAMPLES evenly
spaced moments of the run, and the rest after the last round.  Every answer
is checked after each pass's timed loop.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, measured with tracing off:
setup_s, pass_s and peak_rss_mb (median peak resident memory of a pass).
Before scaling, setup_s is the fastest of the SETUP_SAMPLES imports, and
pass_s the time of one pass over the command list, taken as the mean over the
labellings of the sum over the commands of that command's fastest time on
that labelling: other tenants of a shared host only ever add time, and for a
command at a time the fastest of a few runs is a far steadier estimate of the
program's own cost than any one pass.  Both times are then scaled to a host
of fixed speed: multiplied by PROBE_REF_S over the fastest probe of the run.
Other tenants also slow the whole host by up to about 1.7x for minutes at a
time, longer than a run, and the probe, which no change to rackgraph can
speed up, slows with it.  The lines above the JSON give the unscaled values
and the sample sets of whole passes, imports and probes: median, quartiles,
tail percentile and count.
--trace 1 runs a traced pass next to each untraced one, on the same inputs,
and reports the per-layer metrics: self time per span, as the mean over the
labellings of the fastest traced pass of each (they add up to trace.pass_s),
counts summed over the first round's traced passes (they depend on the seed
alone), and the tracing overhead.  These times are not scaled; host.probe_s,
the fastest probe of the run, gives the host's speed while they were taken.  A traced pass whose spans do not nest is
incorrect.  Spans are written as JSON lines under .perfbench/traces/.

Exits 2 without a result when the checkout has no rackgraph sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 10  # timed imports per run, after one untimed import that writes bytecode
LABELLINGS = 2  # relabellings of the inputs per run; a round runs each once
PROBE_REF_S = 0.045  # probe.py's fastest time on a quiet 2-vCPU Xeon VM; times are scaled to that host
RUN_LIMIT_S = 170.0  # a run must end within 180 s; a pass still going at this point is killed

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("linalg.snf.self_s", "s"), ("linalg.snf.calls", "count"), ("linalg.snf.cells", "count"),
    ("linalg.rref_q.self_s", "s"), ("linalg.rref_fp.self_s", "s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.rows_in", "count"),
    ("linalg.rref.rank_out", "count"), ("linalg.rref.yield", "ratio"),
    ("linalg.reduce.self_s", "s"), ("linalg.reduce.calls", "count"),
    ("linalg.subspace.self_s", "s"),
    ("cubical.build.self_s", "s"), ("cubical.d2_check.self_s", "s"),
    ("cubical.boundary_matrix.self_s", "s"), ("cubical.snf_route.self_s", "s"),
    ("cubical.rational_route.self_s", "s"), ("cubical.cells", "count"),
    ("cubical.boundary_nnz", "count"),
    ("hopf.build.self_s", "s"), ("hopf.verify_hopf.self_s", "s"), ("hopf.filtration.self_s", "s"),
    ("hopf.lemma.self_s", "s"), ("hopf.coinvariant.self_s", "s"), ("hopf.graded.self_s", "s"),
    ("liealg.validate.self_s", "s"), ("liealg.e_functor.self_s", "s"), ("liealg.verify.self_s", "s"),
    ("lierack.validate.self_s", "s"), ("lierack.verify_numeric.self_s", "s"),
    ("racks.validate.self_s", "s"), ("racks.inner_group.self_s", "s"),
    ("racks.presentation.self_s", "s"),
    ("graphs.convert.self_s", "s"), ("graphs.validate.self_s", "s"),
    ("jsonio.load_path.self_s", "s"), ("jsonio.canonical_json.self_s", "s"),
    ("cli.self_s", "s"), ("bench.self_s", "s"),
    ("import_s", "s"), ("host.probe_s", "s"), ("trace.pass_s", "s"), ("trace.overhead", "ratio"),
)

# count metrics that are not "<span>.calls" or "<span>.<size>" of a single span name
_SUMMED_COUNTS = {
    "linalg.rref.calls": ("linalg.rref_q.calls", "linalg.rref_fp.calls"),
    "linalg.rref.rows_in": ("linalg.rref_q.rows_in", "linalg.rref_fp.rows_in"),
    "linalg.rref.rank_out": ("linalg.rref_q.rank_out", "linalg.rref_fp.rank_out"),
    "cubical.cells": ("cubical.build.cells",),
    "cubical.boundary_nnz": ("cubical.build.boundary_nnz",),
}


class Run:
    """One workload run: its work directory, start time and worker jobs."""

    def __init__(self, root: str, name: str, args):
        self.root, self.name, self.args = root, name, args
        self.cmds = workloads.commands(name, root, args.quick)
        self.started = time.perf_counter()
        base = os.path.join(root, ".perfbench")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
        self.jobs = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, job: dict) -> dict:
        """Run worker.py on one job; its result, or {"crash": reason}."""
        self.jobs += 1
        job_path = os.path.join(self.work, f"job{self.jobs}.json")
        job["result"] = os.path.join(self.work, f"result{self.jobs}.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(self.root, "src"), job_path]
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            return {"crash": "timed out"}
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return {"crash": f"worker exit {proc.returncode}: {tail}"}
        with open(job["result"], encoding="utf-8") as fh:
            return json.load(fh)

    def import_time(self) -> float | None:
        return self.worker({"import_only": True}).get("import_s")

    def probe_time(self) -> float | None:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py")], cwd=self.root,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            return None
        return float(proc.stdout) if proc.returncode == 0 else None

    def host_samples(self, imports: list, probes: list) -> None:
        imports.append(self.import_time())
        probes.append(self.probe_time())

    def run_pass(self, labelling: int, trace: bool, paths: dict) -> dict:
        number = self.jobs + 1
        scratch = os.path.join(self.work, f"scratch{number}")
        os.makedirs(scratch, exist_ok=True)
        job = {
            "trace": trace,
            "commands": [
                {"argv": workloads.concrete_argv(c, paths, self.args.seed), "check": c.check,
                 "golden": c.argv[1] if c.check == "golden" else None, "key": c.key}
                for c in self.cmds
            ],
            "corpus_dir": os.path.join(self.root, "corpus"),
            "golden_dir": os.path.join(self.root, "golden"),
            "scratch": scratch,
            "spans": os.path.join(self.work, f"spans{number}.jsonl"),
            "pass_id": f"{self.name}:{self.args.seed}:{labelling}:{number}",
        }
        out = self.worker(job)
        if "crash" in out:
            out.update(attempted=len(self.cmds), failed=len(self.cmds), errors=[out["crash"]])
        out["spans"] = job["spans"]
        return out


def _median(values):
    """The median, or None (JSON null) when a crash left no samples."""
    return statistics.median(values) if values else None


def describe(values) -> str:
    """Median, quartiles, the highest percentile with at least ten samples
    beyond it, and the sample count."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {_median(values):.4f}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f"  p25 {q1:.4f}  p75 {q3:.4f}"
    if n > 10:
        pct = int(100 * (n - 10) / n)
        text += f"  p{pct} {sorted(values)[max(0, -(-pct * n // 100) - 1)]:.4f}"
    else:
        text += "  (under 11 samples: no tail percentile)"
    return text + f"  n {n}"


def run_workload(root: str, name: str, args) -> dict:
    run = Run(root, name, args)
    try:
        run.import_time()  # writes bytecode; users of an installed package have it
        imports, probes = [], []
        paths = [
            workloads.write_inputs(root, run.cmds, args.seed, k, os.path.join(run.work, f"labelling{k}"))
            for k in range(LABELLINGS)
        ]
        plain = [[] for _ in range(LABELLINGS)]
        traced = [[] for _ in range(LABELLINGS)]
        rounds = 0
        while True:
            began = run.elapsed()
            for k in range(LABELLINGS):
                # spread over the whole run, as the passes are
                if len(imports) < SETUP_SAMPLES and run.elapsed() >= len(imports) * args.seconds / SETUP_SAMPLES:
                    run.host_samples(imports, probes)
                if args.trace and rounds % 2:  # alternate which side of a pair runs first
                    traced[k].append(run.run_pass(k, True, paths[k]))
                plain[k].append(run.run_pass(k, False, paths[k]))
                if args.trace and not rounds % 2:
                    traced[k].append(run.run_pass(k, True, paths[k]))
            rounds += 1
            last = run.elapsed() - began
            crashed = any("crash" in p for per in plain + traced for p in per)
            if crashed or run.elapsed() + last > args.seconds:
                break
        while len(imports) < SETUP_SAMPLES:
            run.host_samples(imports, probes)
        if args.trace:
            _keep_spans(root, run, [p for per in traced for p in per])
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    return summarize(name, [x for x in imports if x is not None], [x for x in probes if x is not None],
                     plain, traced, args.trace)


def _keep_spans(root: str, run: Run, passes) -> None:
    """Concatenate the JSON-lines span files of the traced passes."""
    out_dir = os.path.join(root, ".perfbench", "traces")
    os.makedirs(out_dir, exist_ok=True)
    target = os.path.join(out_dir, f"{run.name}-seed{run.args.seed}.jsonl")
    with open(target, "w", encoding="utf-8") as out:
        for p in passes:
            if os.path.exists(p["spans"]):
                with open(p["spans"], encoding="utf-8") as fh:
                    shutil.copyfileobj(fh, out)


def _fastest(per_labelling, key):
    """The fastest good pass of each labelling, or None if one has none."""
    best = [min((p for p in per if "crash" not in p), key=key, default=None) for per in per_labelling]
    return None if None in best else best


def _command_floor(plain) -> float:
    """Mean over the labellings of the sum of each command's fastest time."""
    sums = []
    for per in plain:
        times = [p["command_s"] for p in per if "crash" not in p]
        sums.append(sum(min(column) for column in zip(*times)))
    return statistics.fmean(sums)


def summarize(name: str, imports, probes, plain, traced, trace: bool) -> dict:
    passes = [p for per in plain + traced for p in per]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p.get("errors", [])]
    good = [p for per in plain for p in per if "crash" not in p]
    samples = {
        "import_s": imports,
        "probe_s": probes,
        "pass_s": [p["pass_s"] for p in good],
        "peak_rss_mb": [p["peak_rss_mb"] for p in good],
    }
    fastest = _fastest(plain, lambda p: p["pass_s"])
    ok = bool(imports and probes and fastest)
    raw = {
        "setup_s": min(imports) if ok else None,
        "pass_s": _command_floor(plain) if ok else None,
        "probe_s": min(probes) if ok else None,
    }
    scale = PROBE_REF_S / raw["probe_s"] if ok else None
    metrics = {
        "setup_s": raw["setup_s"] * scale if ok else None,
        "pass_s": raw["pass_s"] * scale if ok else None,
        "peak_rss_mb": _median(samples["peak_rss_mb"]),
    }
    correct = failed == 0 and ok
    layer = None
    if trace:
        traced_fastest = _fastest(traced, lambda p: p["root_ns"])
        for p in passes:
            errors += [f"spans do not nest: {e}" for e in p.get("nesting_errors", [])]
        correct = correct and traced_fastest is not None and not any(
            p.get("nesting_errors") for p in passes
        )
        if traced_fastest and fastest:
            layer = per_layer(traced_fastest, [per[0] for per in traced], fastest, raw)
    return {
        "name": name,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "samples": samples,
        "metrics": metrics,
        "raw": raw,
        "layers": layer,
    }


def per_layer(fastest, first_round, untraced, raw) -> dict:
    """Self times as the mean over the labellings of the fastest traced pass
    of each, so that they add up to trace.pass_s; counts summed over the
    traced passes of the first round, whose inputs depend on the seed alone."""
    k = len(fastest)
    counts = {}
    for p in first_round:
        for key, value in p["counts"].items():
            counts[key] = counts.get(key, 0) + value
    out = {}
    for metric, unit in PER_LAYER:
        if metric.endswith(".self_s"):
            span = "bench.pass" if metric == "bench.self_s" else metric[: -len(".self_s")]
            out[metric] = sum(p["self_ns"].get(span, 0) for p in fastest) / k / 1e9
        elif unit == "count":
            out[metric] = sum(counts.get(c, 0) for c in _SUMMED_COUNTS.get(metric, (metric,)))
    rows_in = out["linalg.rref.rows_in"]
    out["linalg.rref.yield"] = out["linalg.rref.rank_out"] / rows_in if rows_in else 0.0
    out["import_s"] = raw["setup_s"]
    out["host.probe_s"] = raw["probe_s"]
    out["trace.pass_s"] = sum(p["root_ns"] for p in fastest) / k / 1e9
    out["trace.overhead"] = (statistics.fmean(p["pass_s"] for p in fastest)
                             / statistics.fmean(p["pass_s"] for p in untraced))
    return out


def print_summary(res: dict) -> None:
    passes = len(res["samples"]["pass_s"])
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"workload {res['name']}: {passes} untraced passes, attempted {res['attempted']}, "
          f"failed {res['failed']}, fail_frac {frac:.4f}, correct {res['correct']}")
    for metric, values in res["samples"].items():
        print(f"  {metric:12s} {describe(values)}")
    print("  unscaled: " + "  ".join(f"{m} {v} s" for m, v in res["raw"].items()))
    print("  " + "  ".join(f"{m} {res['metrics'][m]} {unit}" for m, unit in END_TO_END))
    for err in res["errors"][:10]:
        print(f"  FAILED {err}")
    if res["layers"]:
        units = dict(PER_LAYER)
        for metric, value in res["layers"].items():
            shown = "none" if value is None else f"{value:.6g}"
            print(f"  {metric:32s} {shown} {units[metric]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smallest inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)

    root = os.getcwd()
    for need in ("src/rackgraph/cli.py", "corpus", "golden"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the root of a rackgraph checkout",
                  file=sys.stderr)
            return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(root, name, args) for name in names]
    for res in results:
        print_summary(res)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['name']}."
        values = (res["layers"] or {}) if args.trace else res["metrics"]
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
