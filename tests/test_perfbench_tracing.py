"""The benchmark traces package functions by name; every name must resolve.

``perfbench/tracing.py`` wraps the functions it lists in ``SPANS``, the
constructor named by ``TABLE_SPAN`` and the counted ``seifert.quasilinear``.
A rename or deletion in the package would otherwise only show when
``perfbench/run.py --trace 1`` fails.  The file is loaded by path and
nothing in it is changed.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from seifert_semigroup import SeifertData

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(package: str, name: str):
    module_name, attr = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"{package}.{module_name}"), attr, None)


def test_every_traced_name_is_a_package_function():
    tracing = load_tracing()
    names = [*tracing.span_names(), tracing.TABLE_SPAN, "seifert.quasilinear"]
    assert [name for name in names if not callable(resolve(tracing.PACKAGE, name))] == []


def test_the_table_span_reads_the_table_size():
    """The table span adds ``alpha`` of each table to seifert.table_entries."""
    tracing = load_tracing()
    table = resolve(tracing.PACKAGE, tracing.TABLE_SPAN)(SeifertData(1, ((2, 1), (3, 1), (7, 1))))
    assert table.alpha == 42


UNIT_ADDITIONS = """
import json, sys
from seifert_semigroup import cli, laufer, lattice, verification  # every traced module is loaded
from tracing import Tracer

tracer = Tracer()
tracer.install()
steps = 0
for line in open(sys.argv[1], encoding="utf-8"):
    record = json.loads(line)
    if record["id"] == "bad":
        continue
    g = cli.record_seifert(record).graph
    for c in (g.zk, g.zk + g.e0_star):
        r = lattice.class_rep(c)
        steps += len(laufer.to_antinef(g, r, trace=True)[1])
print(steps, tracer.counts["laufer.unit_additions"])
"""


def test_unit_additions_count_the_single_steps_of_a_traced_run():
    """On the golden corpus, from r_[Z_K] and r_[Z_K + E_0^*]: the counter reads
    ``.coeffs`` of the start and the endpoint of every ``to_antinef`` call, and
    must equal the number of single steps.  Run in a subprocess, as installing
    the tracer rebinds package functions."""
    corpus = ROOT / "tests" / "golden" / "corpus.jsonl"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    done = subprocess.run(
        [sys.executable, "-c", UNIT_ADDITIONS, str(corpus)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    steps, counted = map(int, done.stdout.split())
    assert steps > 0
    assert counted == steps


LINK_PASSES = """
from seifert_semigroup import cli
from tracing import Tracer

tracer = Tracer()
tracer.install()
cli.full_report({"alphas": [7, 11, 13]})
names = [span[2] for span in tracer.spans]
print(*(names.count(f"semigroup.{f}") for f in ("apery_selmer", "min_module", "frobenius_module_raw")))
"""


def test_the_link_passes_are_traced_once_per_report():
    """``Link.ap``, ``module_min`` and ``module_frobenius_raw`` run through the
    traced functions, so each pass is one span of its own and not time of
    ``cli.full_report``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    done = subprocess.run(
        [sys.executable, "-c", LINK_PASSES], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1", "1"]
