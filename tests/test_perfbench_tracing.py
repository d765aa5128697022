"""The benchmark traces package functions by name; every name must resolve.

``perfbench/tracing.py`` wraps the functions it lists in ``SPANS``, the
constructor named by ``TABLE_SPAN`` and the counted ``seifert.quasilinear``.
A rename or deletion in the package would otherwise only show when
``perfbench/run.py --trace 1`` fails.  The file is loaded by path and
nothing in it is changed.
"""

import importlib
import importlib.util
from pathlib import Path

from seifert_semigroup import SeifertData

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
