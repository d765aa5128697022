"""Benchmark of the seifert_semigroup package, run from outside it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
The seed makes the inputs; every record runs in a fresh interpreter started
for the run, one record at a time (closed loop, one client).  Every output
is checked against the benchmark's own reference (perfbench/reference.py)
outside the timed region.  Times and rates are normalised to a reference
host speed measured beside and during the records (perfbench/hostspeed.py);
the wall-clock figures are printed beside them.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones: a
second fresh interpreter runs the same records with spans on the layer
functions, and the difference of the two runs is the tracing overhead.
The last line of stdout is one JSON object; the exit code is 1 when an
output is wrong and 2 when the checkout holds no package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "seifert_semigroup")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9  # setup-only interpreters per run
WORKER_TIMEOUT = 150

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
from reference import examine  # noqa: E402
from tracing import COUNTERS, SPANS, self_times, span_names  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


# ---------------------------------------------------------------------------
# Processes


def _worker(kind, inputs, out, *extra):
    """Start a worker; return (process, start time)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, ROOT, kind, inputs, out, *extra],
        stdout=subprocess.PIPE, text=True,
    )
    return proc, t0


def _finish(proc, t0):
    """Wait for READY and exit; return (seconds to READY, seconds to exit,
    the rest of the READY line).

    A worker that prints nothing, or does not exit, within WORKER_TIMEOUT
    seconds is killed and the run fails.
    """
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=WORKER_TIMEOUT):
                raise RuntimeError(f"worker printed nothing in {WORKER_TIMEOUT} s")
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=WORKER_TIMEOUT)
        rc = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    fields = line.split()
    if fields[:1] != ["READY"] or rc != 0:
        raise RuntimeError(f"worker failed (exit {rc})")
    return ready, time.perf_counter() - t0, fields[1:]


def run_worker(kind, inputs, out, *extra):
    ready, _, _ = _finish(*_worker(kind, inputs, out, *extra))
    with open(out + ".summary", encoding="utf-8") as fh:
        return ready, json.load(fh)


def read_outputs(path):
    """index -> (seconds, output text), in run order."""
    return {index: (seconds, payload) for index, (seconds, _, payload) in read_timed(path).items()}


def read_timed(path):
    """index -> (seconds, normalised seconds, output text), in run order."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            index, seconds, norm, payload = line.rstrip("\n").split("\t", 3)
            rows[int(index)] = (float(seconds), float(norm), payload)
    return rows


# ---------------------------------------------------------------------------
# Measurements


def host_info() -> dict:
    """Interpreter, CPUs, revision, a digest of the package source, and the
    host-speed loop time, which makes a slow host visible."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or "none"
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git": rev,
        "src_sha256": digest.hexdigest()[:12],
        "unit_loop_ms": round(hostspeed.unit_seconds(320) * 1000, 4),
    }


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def check(wl, items, rows, problems, props):
    """Check each output once against the reference; collect input properties."""
    for index, (_, payload) in rows.items():
        item = items[index]
        found, prop = examine(wl.kind, item["record"], json.loads(payload))
        if prop:
            props.append(prop)
        for p in found:
            problems.append((index, f"record {index} {json.dumps(item['record'])[:80]}: {p}"))


def same_outputs(label, rows, reference_rows, problems):
    """Outputs of a repeat pass must equal the checked outputs byte for byte."""
    for index, (_, payload) in rows.items():
        if payload != reference_rows[index][1]:
            problems.append((index, f"{label}: record {index} differs from the --jobs 1 output"))


def jobs2(wl, items, work, rows1, problems):
    """Records/s over the first ``wl.min_blocks`` blocks (after the lead
    block, which runs once) with two processes, as measured and normalised
    to the reference host speed.  A fixed number of blocks keeps the start
    of the two processes the same share of the pass."""
    first = 1 if wl.lead else 0
    chosen = [i for i, item in enumerate(items) if first <= item["block"] < first + wl.min_blocks]
    out = os.path.join(work, "jobs2.out")
    _, summary = run_worker(wl.kind, os.path.join(work, "inputs.jsonl"), out,
                            "--skip", str(first), "--blocks", str(wl.min_blocks), "--jobs", "2")
    rows = read_outputs(out)
    same_outputs("--jobs 2", rows, rows1, problems)
    if len(rows) != len(chosen):
        problems.append(("jobs2", f"--jobs 2 gave {len(rows)} outputs for {len(chosen)} records"))
    return len(chosen) / summary["wall_s"], len(chosen) / summary["normalised_s"]


def latency_metrics(wl, items, times):
    """records/s, p50 and tail in seconds, and the samples beyond the tail,
    from index -> record seconds."""
    per_block = {}
    for index, t in times.items():
        per_block.setdefault(items[index]["block"], []).append(t)
    # the lead block runs once; each block's rate counts it as if it ran with that block
    lead_ts = per_block.pop(0) if wl.lead else []
    block_rates = [(len(ts) + len(lead_ts)) / (sum(ts) + sum(lead_ts)) for ts in per_block.values()]
    lat = sorted(times.values())
    tail, beyond = percentile(lat, wl.tail_pct)
    return statistics.median(block_rates), statistics.median(lat), tail, beyond


def untraced(wl, items, args, work, problems, props, notes):
    inputs = os.path.join(work, "inputs.jsonl")
    setup, setup_norm = [], []
    for k in range(SETUP_SAMPLES):
        ready, _, (sampling, *samples) = _finish(
            *_worker(wl.kind, inputs, os.path.join(work, f"setup-{k}.out"), "--setup-only"))
        ready -= float(sampling)
        setup.append(ready)
        setup_norm.append(hostspeed.normalise(ready, [float(s) for s in samples]))
    out1 = os.path.join(work, "jobs1.out")
    _, summary = run_worker(wl.kind, inputs, out1, "--seconds", str(args.seconds),
                            "--min-blocks", str(wl.min_blocks + bool(wl.lead)))
    timed = read_timed(out1)
    rows1 = {index: (t, payload) for index, (t, _, payload) in timed.items()}
    check(wl, items, rows1, problems, props)
    raw = {index: t for index, (t, _, _) in timed.items()}
    norm = {index: n for index, (_, n, _) in timed.items()}
    rate, p50, tail, beyond = latency_metrics(wl, items, norm)
    raw_rate, raw_p50, raw_tail, _ = latency_metrics(wl, items, raw)
    raw_rate2, rate2 = jobs2(wl, items, work, rows1, problems)
    per_slot, per_kind = {}, {}
    for index, t in norm.items():
        item = items[index]
        lead = wl.lead and item["block"] == 0
        per_slot.setdefault(f"lead{item['slot']}" if lead else item["slot"], []).append(t)
        per_kind.setdefault(next(k for k in ("seifert", "alphas", "bh") if k in item["record"]), []).append(t)
    notes.append(f"{summary['blocks'] - bool(wl.lead)} blocks" + (" after the lead block" if wl.lead else "")
                 + f", {len(raw)} records in {summary['loop_s']:.2f} s"
                 + ("; input pool exhausted" if summary["exhausted"] else ""))
    notes.append(f"record_tail_ms is p{wl.tail_pct} with {beyond} of {len(raw)} samples beyond it"
                 + ("" if beyond >= 10 else " (fewer than ten)"))
    notes.append(f"host speed: the records ran at {sum(raw.values()) / sum(norm.values()):.3f} times "
                 "reference time (hostspeed.py)")
    notes.append(f"wall clock, not normalised: records_per_s {raw_rate:.4f}, record_p50_ms {raw_p50 * 1000:.4f}, "
                 f"record_tail_ms {raw_tail * 1000:.4f}, records_per_s_jobs2 {raw_rate2:.4f}, "
                 f"setup_s {statistics.median(setup):.4f}")
    notes.append("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_norm))
    notes.append("median ms by slot " + " ".join(
        f"{slot}:{statistics.median(ts) * 1000:.1f}" for slot, ts in per_slot.items()))
    if wl.kind == "batch":
        notes.append("records/s by input kind " + " ".join(
            f"{kind}:{len(ts) / sum(ts):.2f} ({len(ts)})" for kind, ts in per_kind.items()))
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "records_per_s": (rate, "1/s"),
        "record_p50_ms": (p50 * 1000, "ms"),
        "record_tail_ms": (tail * 1000, "ms"),
        "records_per_s_jobs2": (rate2, "1/s"),
        "peak_rss_mb": (summary["maxrss_kb"] / 1024, "MB"),
    }
    return len(raw), metrics


def traced(wl, items, args, work, problems, props, notes):
    inputs = os.path.join(work, "inputs.jsonl")
    plain = os.path.join(work, "plain.out")
    _, summary = run_worker(wl.kind, inputs, plain, "--seconds", str(args.seconds / 2),
                            "--min-blocks", str(wl.min_blocks + bool(wl.lead)))
    spans_path = os.path.join(work, "spans.json")
    out = os.path.join(work, "traced.out")
    run_worker(wl.kind, inputs, out, "--blocks", str(summary["blocks"]), "--trace", spans_path)
    timed_plain, timed = read_timed(plain), read_timed(out)
    rows_plain = {index: (t, payload) for index, (t, _, payload) in timed_plain.items()}
    rows = {index: (t, payload) for index, (t, _, payload) in timed.items()}
    check(wl, items, rows_plain, problems, props)
    same_outputs("traced run", rows, rows_plain, problems)
    with open(spans_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    per = self_times(trace["spans"])
    records = len(rows)
    # normalised, since the two passes ran at different times
    total = sum(n for _, n, _ in timed.values())
    untraced_total = sum(n for _, n, _ in timed_plain.values())
    metrics = {}
    for name in span_names():
        self_s, calls = per.get(name, [0.0, 0])
        metrics[f"{name}.self_ms"] = (self_s * 1000 / records, "ms/record")
        metrics[f"{name}.calls"] = (calls / records, "calls/record")
    for name, unit in COUNTERS.items():
        metrics[name] = (trace["counts"][name] / records, unit)
    record_time = per["record"][0] + sum(v[0] for k, v in per.items() if k != "record")
    for module in SPANS:
        share = sum(v[0] for k, v in per.items() if k.startswith(module + "."))
        metrics[f"share.{module}"] = (100 * share / record_time, "%")
    metrics["share.outside"] = (100 * per["record"][0] / record_time, "%")
    metrics["trace.overhead_ms"] = ((total - untraced_total) * 1000 / records, "ms/record")
    metrics["trace.overhead_pct"] = (100 * (total / untraced_total - 1), "%")
    notes.append(f"{summary['blocks']} blocks, {records} records traced, {len(trace['spans'])} spans; "
                 f"traced {total:.2f} s vs untraced {untraced_total:.2f} s")
    return records, metrics


def describe(props) -> str:
    if not props:
        return "no records"
    count = len(props)

    def share(key):
        return f"{100 * sum(p[key] for p in props) / count:.0f}%"

    return (f"n {min(p['n'] for p in props)}..{max(p['n'] for p in props)}, "
            f"alpha {min(p['alpha'] for p in props)}..{max(p['alpha'] for p in props)}, "
            f"trivial {share('trivial')}, rational {share('rational')}, "
            f"numerically Gorenstein {share('gorenstein')}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"no package at {PACKAGE_DIR}: run from the root of a source checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=scratch)
    problems, props, notes = [], [], []
    try:
        blocks = generate(wl, args.seed)
        items = [item for block in blocks for item in block]
        with open(os.path.join(work, "inputs.jsonl"), "w", encoding="utf-8") as fh:
            for item in items:
                fh.write(json.dumps(item) + "\n")
        host = host_info()
        measure = traced if args.trace else untraced
        attempted, metrics = measure(wl, items, args, work, problems, props, notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = min(attempted, len({key for key, _ in problems}))
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"workload {wl.name} seed {args.seed}: {describe(props)}")
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(f"  failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    for _, message in problems[:20]:
        print("  FAIL " + message)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
