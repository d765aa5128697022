"""Run benchmark records against the package in a fresh interpreter.

    python3 perfbench/worker.py ROOT KIND INPUTS OUT [--seconds S --min-blocks M]
        [--skip K] [--blocks N] [--jobs 2] [--trace SPANS] [--setup-only]

Imports the package from ROOT/src, loads INPUTS (one JSON line per record),
prints READY, then runs the records one at a time in a closed loop, with
host speed sampled around and during each record (hostspeed.py).  Each
output line of OUT is "index<TAB>seconds<TAB>normalised<TAB>output": the
record's wall time less the time spent sampling, and that time normalised
to the reference host speed.  With --seconds the loop runs at least M
blocks, then stops after the block during which the time ran out, or
earlier when the next block would end past 1.25x the time; otherwise it
runs the N blocks after the first K.  A summary JSON (blocks, loop seconds,
peak RSS at the end of block M) goes to OUT.summary.

--jobs 2 runs those blocks with two forked processes instead and writes the
pass's wall and normalised seconds to OUT.summary.  --setup-only prints
"READY <seconds spent sampling> <sample> <sample>", host-speed samples taken
at the start and the end of set-up, and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import random
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import hostspeed


def _runner(kind, cli, verification, seifert):
    """(prepare, call, encode) for one workload kind; only ``call`` is timed."""
    if kind == "batch":
        return (lambda item: json.dumps(item["record"]),
                lambda line: cli._batch_one(line)[0],
                lambda text: text)

    if kind == "frobenius":
        def call(line):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["frobenius", line, "--method", "both"])
            return {"rc": rc, "stdout": buf.getvalue()}

        return (lambda item: json.dumps(item["record"]), call, json.dumps)

    if kind == "verify":
        def prepare(item):
            s = item["record"]["seifert"]
            sf = seifert.SeifertData(s["b0"], tuple(tuple(leg) for leg in s["legs"]))
            return sf, random.Random(item["rseed"])

        def call(args):
            results = verification.verify_seifert(*args)
            return [[r.name, r.passed, r.detail] for r in results]

        return (prepare, call, json.dumps)
    raise ValueError(f"unknown kind {kind!r}")


def _import_package(root):
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from seifert_semigroup import cli, seifert, verification

    return src, cli, seifert, verification


_pool_runner = None


def _pool_call(item):
    prepare, call, encode = _pool_runner
    try:
        result = call(prepare(item))
    except Exception as ex:  # noqa: BLE001 - reported as a failed record
        result = {"exception": repr(ex)}
    return encode(result)


def _run_two(args, blocks, cli, runner) -> dict:
    """Run the blocks with two forked processes: `cli batch --jobs 2` for the
    batch kind, else a two-process pool of the same calls as the one-process
    loop.  Each forked process samples host speed for its whole life.
    Returns the wall and normalised seconds of the pass."""
    global _pool_runner
    selected = [pair for block in blocks for pair in block]
    samples = args.out + ".samples"
    os.mkdir(samples)
    batch_in, batch_out = args.out + ".in", args.out + ".batch"
    if args.kind == "batch":
        with open(batch_in, "w", encoding="utf-8") as fh:
            for _, item in selected:
                fh.write(json.dumps(item["record"]) + "\n")
    _pool_runner = runner
    # the CLI's pool forks its processes (the default start method on Linux up
    # to Python 3.13); with another start method no samples arrive and the
    # run fails in normalise_parallel
    os.register_at_fork(after_in_child=lambda: hostspeed.sample_for_life(samples))
    t0 = time.perf_counter()
    if args.kind == "batch":
        rc = cli.main(["batch", "--in", batch_in, "--out", batch_out, "--jobs", "2"])
    else:
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            payloads = list(pool.map(_pool_call, [item for _, item in selected], chunksize=1))
    wall = time.perf_counter() - t0
    if args.kind == "batch":
        with open(batch_out, encoding="utf-8") as fh:
            payloads = fh.read().splitlines()
        if rc != 0:
            payloads = [f"batch --jobs 2 exited {rc}"] * len(selected)
    with open(args.out, "w", encoding="utf-8") as out:
        for (index, _), payload in zip(selected, payloads):
            out.write(f"{index}\t0.0\t0.0\t{payload}\n")
    return {"wall_s": wall, "normalised_s": hostspeed.normalise_parallel(wall, samples, 2)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("kind")
    ap.add_argument("inputs")
    ap.add_argument("out")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--min-blocks", type=int, default=1)
    ap.add_argument("--blocks", type=int, default=None)
    ap.add_argument("--skip", type=int, default=0)
    ap.add_argument("--jobs", type=int, choices=(1, 2), default=1)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    clock = time.perf_counter
    if args.setup_only:
        # host speed at the start and end of set-up, which the parent uses to
        # normalise the time to READY; the sampling time is reported so that
        # the parent can take it out
        t0 = clock()
        first = hostspeed.unit_seconds()
        sampling = clock() - t0

    src, cli, seifert, verification = _import_package(args.root)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"package imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with open(args.inputs, encoding="utf-8") as fh:
        items = [json.loads(line) for line in fh]
    if args.setup_only:
        t0 = clock()
        last = hostspeed.unit_seconds()
        print(f"READY {sampling + clock() - t0!r} {first!r} {last!r}", flush=True)
        return 0
    print("READY", flush=True)

    blocks: list[list[tuple[int, dict]]] = []
    for index, item in enumerate(items):
        if item["block"] == len(blocks):
            blocks.append([])
        blocks[-1].append((index, item))
    blocks = blocks[args.skip:]
    if args.blocks is not None:
        blocks = blocks[: args.blocks]
    runner = _runner(args.kind, cli, verification, seifert)
    if args.jobs == 2:
        summary = _run_two(args, blocks, cli, runner)
        with open(args.out + ".summary", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        return 0

    prepare, call, encode = runner

    def record(index, arg):
        if tracer:
            tracer.begin_record(index)
        t0 = clock()
        try:
            result = call(arg)
        except Exception as ex:  # noqa: BLE001 - reported as a failed record
            result = {"exception": repr(ex)}
        if tracer:
            tracer.end_record(t0, clock())
        return result

    done_blocks = 0
    with open(args.out, "w", encoding="utf-8") as out, hostspeed.Sampler() as sampler:
        start = clock()
        for block in blocks:
            for index, item in block:
                result, seconds, norm = sampler.timed(record, index, prepare(item))
                out.write(f"{index}\t{seconds!r}\t{norm!r}\t{encode(result)}\n")
            done_blocks += 1
            if done_blocks == min(args.min_blocks, len(blocks)):
                # the lru_caches grow with every record, so peak memory is taken
                # over a fixed number of blocks, not over as many as the host's
                # speed allows
                maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = clock() - start
            if args.seconds is not None and done_blocks >= args.min_blocks and (
                elapsed >= args.seconds or elapsed * (done_blocks + 1) / done_blocks > 1.25 * args.seconds
            ):
                break
    loop_s = clock() - start
    if tracer:
        tracer.dump(args.trace)
    summary = {
        "blocks": done_blocks,
        "exhausted": done_blocks == len(blocks),
        "loop_s": loop_s,
        "maxrss_kb": maxrss_kb,
    }
    with open(args.out + ".summary", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
