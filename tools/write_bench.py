"""Write BENCH_<k>.json: the benchmark's numbers for the checked-out source.

    python3 tools/write_bench.py [--out BENCH_1.json]

Run from anywhere; it works on the checkout that holds it.  For each
workload of perfbench/run.py it makes one 10 s untraced run (--trace 0) for
each of the seeds 1, 2 and 3 and one 10 s traced run (--trace 1) on seed 1,
then times the tier-1 suite and one `full_report` on the homology sphere with
alphas (23, 29, 31, 37), alpha = 765,049.  The file holds:

* the revision (``git rev-parse HEAD``), whether src/ differs from it, and
  run.py's ``src_sha256`` of the measured source;
* the Python version, ``nproc`` and ``sys.flags.dont_write_bytecode``;
* per workload, the median over the seeds of each end-to-end metric, with
  ``records_per_s_jobs2`` as a [min, max] range, and every per-seed value;
* the traced run's per-layer metrics and counters;
* every note of run.py that says "input pool exhausted", verbatim;
* the tier-1 wall time and pytest's summary line;
* the wall time and tracemalloc peak of the `full_report` call;
* ``failures``: each run that exited non-zero, printed no result or printed
  ``correct: false``, with the revision, the command, the workload, the seed,
  the --trace value, the exit code and the last 20 lines of its stderr.  A
  workload with a failed run gets no summary, and the tool exits 1.

Standard library only; nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("batch-mixed", "formula-graph", "period-ihs", "verify-random")
END_TO_END = ("records_per_s", "record_p50_ms", "record_tail_ms", "records_per_s_jobs2", "peak_rss_mb", "setup_s")
SEEDS = (1, 2, 3)
SECONDS = 10
SPHERE = [23, 29, 31, 37]
FULL_REPORT = """
import json, sys, time, tracemalloc
from seifert_semigroup import cli
record = {"alphas": json.loads(sys.argv[1])}
t0 = time.perf_counter()
cli.full_report(record)
wall = time.perf_counter() - t0
tracemalloc.start()
cli.full_report(record)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({"wall_s": wall, "tracemalloc_peak_mb": peak / 2**20}))
"""


def _env() -> dict:
    src = os.path.join(ROOT, "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def _git(*args) -> str:
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    return done.stdout.strip()


def run_bench(workload: str, seed: int, trace: int, failures: list) -> dict | None:
    """One run.py run: its final JSON object, its host line and its notes.  A run that exits non-zero,
    prints no result or prints ``correct: false`` is appended to ``failures`` instead, and gives None."""
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode or result is None or not result["correct"]:
        failures.append({
            "revision": _git("rev-parse", "HEAD"),
            "command": shlex.join(command),
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "exit_code": done.returncode,
            "stderr_tail": done.stderr.splitlines()[-20:],
        })
        return None
    host = dict(field.split("=", 1) for field in lines[0].split()[1:]) if lines[0].startswith("host ") else {}
    result["host"] = host
    result["notes"] = [line.strip() for line in lines if "input pool exhausted" in line]
    return result


def end_to_end(runs: list[dict]) -> dict:
    values = {name: [run["metrics"][name]["value"] for run in runs] for name in END_TO_END}
    summary = {
        name: [min(vs), max(vs)] if name == "records_per_s_jobs2" else statistics.median(vs)
        for name, vs in values.items()
    }
    return {"median": summary, "per_seed": values}


def tier1() -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, env=_env(),
    )
    wall = time.perf_counter() - t0
    summary = next((line for line in reversed(done.stdout.splitlines()) if line.strip()), "")
    return {"wall_s": round(wall, 2), "summary": summary, "exit_code": done.returncode}


def full_report_cost() -> dict:
    done = subprocess.run(
        [sys.executable, "-c", FULL_REPORT, json.dumps(SPHERE)], capture_output=True, text=True, env=_env()
    )
    if done.returncode:
        raise RuntimeError(f"full_report on {SPHERE} failed: {done.stderr[-2000:]}")
    return {"alphas": SPHERE, **json.loads(done.stdout)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_1.json"))
    args = ap.parse_args(argv)
    workloads, host, failures = {}, {}, []
    for workload in WORKLOADS:
        runs = [run_bench(workload, seed, 0, failures) for seed in SEEDS]
        traced = run_bench(workload, SEEDS[0], 1, failures)
        if traced is None or None in runs:
            continue  # its failed runs are in ``failures``
        host = runs[0]["host"]
        workloads[workload] = {
            "failed": sum(run["failed"] for run in runs + [traced]),
            "end_to_end": end_to_end(runs),
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "pool_notes": [f"seed {seed}: {note}" for seed, run in zip(SEEDS, runs) for note in run["notes"]],
        }
    bench = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0|1",
        "seeds": list(SEEDS),
        "traced_seed": SEEDS[0],
        "revision": _git("rev-parse", "HEAD"),
        "src_differs_from_revision": bool(_git("status", "--porcelain", "--", "src")),
        "src_sha256": host.get("src_sha256"),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "normalisation": "times and rates are normalised to the reference host speed of perfbench/hostspeed.py",
        "workloads": workloads,
        "tier1": tier1(),
        "full_report": full_report_cost(),
        "failures": failures,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    if failures:
        print(f"{len(failures)} run(s) failed: see \"failures\" in {args.out}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
