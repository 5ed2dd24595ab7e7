"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py SRC_DIR JOB_JSON

Times `import rackgraph.cli`, then calls rackgraph.cli.render on each command
of the job in turn, timing the whole loop.  Golden commands get their command
lines from rackgraph.corpus.golden_commands before the loop.  With "trace" set, the public
functions are wrapped first (see tracer.py) and the spans are written to the
job's "spans" path after the loop.  The results are checked only after the
timed loop, and the pass's figures are written as JSON to the job's "result"
path.  With "import_only" set, only the import is timed.
"""

import sys
import time

_t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rackgraph.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_commands(commands, recorder):
    """The timed loop; returns (seconds, [seconds per command],
    [(exit code, text, error)])."""
    render = rackgraph.cli.render
    clock = time.perf_counter
    results, times = [], []
    start = clock()
    with recorder.root() if recorder else contextlib.nullcontext():
        for cmd in commands:
            began = clock()
            try:
                code, text, _ = render(cmd["argv"])
                results.append((code, text, None))
            except Exception:  # a crash is a failed command, not a failed pass
                results.append((None, None, traceback.format_exc(limit=3)))
            times.append(clock() - began)
    return clock() - start, times, results


def verify(job, results) -> list[str]:
    """One message per failed command."""
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    valid = {}
    errors = []
    for cmd, (code, text, error) in zip(job["commands"], results):
        if error is not None:
            errors.append(f"{cmd['key']}: exception {error.splitlines()[-1]}")
            continue
        path = cmd["argv"][1]
        if path not in valid:
            valid[path] = checks.input_ok(path)
        if not valid[path]:
            errors.append(f"{cmd['key']}: generated input does not validate")
            continue
        try:
            reason = checks.check(cmd, code, text, reference.get(cmd["key"]), job["golden_dir"], job["scratch"])
        except Exception:
            reason = "check raised " + traceback.format_exc(limit=1).splitlines()[-1]
        if reason is not None:
            errors.append(f"{cmd['key']}: {reason}")
    return errors


def main() -> int:
    with open(sys.argv[2], encoding="utf-8") as fh:
        job = json.load(fh)
    out = {"import_s": IMPORT_S}
    if not job.get("import_only"):
        if any(cmd["golden"] for cmd in job["commands"]):
            from rackgraph.corpus import golden_commands

            lines = dict(golden_commands(job["corpus_dir"]))
            for cmd in job["commands"]:
                if cmd["golden"]:
                    cmd["argv"] = lines[cmd["golden"]]
        recorder = tracer.install() if job["trace"] else None
        out["pass_s"], out["command_s"], results = run_commands(job["commands"], recorder)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder:
            recorder.enabled = False
            root = recorder.spans[0]
            out["root_ns"] = root[2] - root[1]
            out["self_ns"] = recorder.self_ns()
            out["counts"] = recorder.counts()
            out["nesting_errors"] = recorder.nesting_errors()[:10]
            recorder.write_jsonl(job["spans"], job["pass_id"])
        errors = verify(job, results)
        out["attempted"] = len(results)
        out["failed"] = len(errors)
        out["errors"] = errors
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
