"""Spans around the package's layer functions, installed from outside.

Each traced function is replaced by a wrapper in every package module that
holds a reference to it, so calls between modules are seen too.  A span is
(id, parent id, name, start, end, record index); spans stay in memory and
are written out once, at the end of the run.  Self time is computed later
from the spans: a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Functions that get a span, by module.
SPANS = {
    "lattice": ("build_graph", "canonical_cycle", "dual_basis", "group_order"),
    "seifert": ("invariants", "geometric_genus", "is_numerically_gorenstein"),
    "semigroup": (
        "apery_selmer", "minimal_generators", "symmetry_report", "min_module",
        "frobenius_module_raw", "frobenius_bruteforce", "frobenius_by_formula",
        "gap_count_direct", "gorenstein_symmetry_check",
    ),
    "laufer": ("scalars", "to_antinef", "x_series", "dual_check", "frobenius_module"),
    "augment": ("verify_prop_comp",),
    "verification": ("verify_seifert",),
    "brieskorn": ("classify", "bh_seifert", "bh_generators"),
    "cli": ("full_report", "_batch_one"),
}
# Span on the constructor of the N table.
TABLE_SPAN = "seifert.QuasilinearTable"
# Counters, no spans, with their units.
COUNTERS = {
    "seifert.quasilinear.calls": "calls/record",
    "seifert.table_entries": "entries/record",
    "laufer.unit_additions": "adds/record",
}
PACKAGE = "seifert_semigroup"


def span_names() -> list[str]:
    return [f"{m}.{f}" for m, fs in SPANS.items() for f in fs] + [TABLE_SPAN]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [0]
        self._next_id = 1
        self._record = -1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, stack[-1], name, t0, t1, self._record))

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, funcs in SPANS.items():
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            for func in funcs:
                original = getattr(mod, func)
                wrapped = self._wrap(f"{mod_name}.{func}", original)
                if func == "to_antinef":
                    wrapped = self._count_unit_additions(wrapped)
                _rebind(modules, original, wrapped)
        seifert = sys.modules[f"{PACKAGE}.seifert"]
        table = seifert.QuasilinearTable
        timed_init = self._wrap(TABLE_SPAN, table.__init__)
        counts = self.counts

        def init(obj, *args, **kwargs):
            timed_init(obj, *args, **kwargs)
            counts["seifert.table_entries"] += obj.alpha

        table.__init__ = init
        quasilinear = seifert.quasilinear

        def counted(*args):
            counts["seifert.quasilinear.calls"] += 1
            return quasilinear(*args)

        _rebind(modules, quasilinear, counted)

    def _count_unit_additions(self, to_antinef):
        """Sum of (endpoint - start) over every computation sequence."""
        counts = self.counts

        @functools.wraps(to_antinef)
        def wrapper(g, start, **kwargs):
            result = to_antinef(g, start, **kwargs)
            counts["laufer.unit_additions"] += int(sum(result[0].coeffs) - sum(start.coeffs))
            return result

        return wrapper

    def begin_record(self, index: int) -> None:
        self._record = index
        self._stack.append(self._next_id)
        self._next_id += 1

    def end_record(self, t0: float, t1: float) -> None:
        sid = self._stack.pop()
        self.spans.append((sid, 0, "record", t0, t1, self._record))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _rebind(modules, original, replacement) -> None:
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"{original!r} is bound in no package module")


def self_times(spans) -> dict[str, list[float]]:
    """name -> [self seconds, calls]; self = duration minus children's durations."""
    child = {}
    for sid, parent, name, t0, t1, _ in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out: dict[str, list[float]] = {}
    for sid, parent, name, t0, t1, _ in spans:
        acc = out.setdefault(name, [0.0, 0])
        acc[0] += (t1 - t0) - child.get(sid, 0.0)
        acc[1] += 1
    return out
