"""tools/write_bench.py keeps a record of a benchmark run that fails, instead of stopping without a file."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "write_bench.py"

STUB = """
import sys
for k in range(25):
    print(f"stub stderr line {k}", file=sys.stderr)
print("host src_sha256=stub")
sys.exit(3)
"""


def _load_tool():
    spec = importlib.util.spec_from_file_location("write_bench", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_failed_run_is_recorded_and_exits_1(monkeypatch, tmp_path, capsys):
    """With run.py replaced by a stub that exits 3, every run is a failure: each is listed with its
    revision, command, workload, seed, --trace value, exit code and last 20 stderr lines, no workload
    is summarised, the file is still written and the tool exits 1."""
    tool = _load_tool()
    stub = tmp_path / "run.py"
    stub.write_text(STUB)
    monkeypatch.setattr(tool, "RUN", str(stub))
    monkeypatch.setattr(tool, "tier1", lambda: {})  # not under test: it would run the suite again
    monkeypatch.setattr(tool, "full_report_cost", lambda: {})
    out = tmp_path / "BENCH.json"
    assert tool.main(["--out", str(out)]) == 1
    bench = json.loads(out.read_text())
    assert bench["workloads"] == {}
    runs = [*((seed, 0) for seed in tool.SEEDS), (tool.SEEDS[0], 1)]  # per workload: untraced, then traced
    expected = [(workload, seed, trace) for workload in tool.WORKLOADS for seed, trace in runs]
    assert [(f["workload"], f["seed"], f["trace"]) for f in bench["failures"]] == expected
    first = bench["failures"][0]
    assert first["revision"] == bench["revision"] and first["exit_code"] == 3
    assert first["stderr_tail"] == [f"stub stderr line {k}" for k in range(5, 25)]
    assert str(stub) in first["command"] and "--workload batch-mixed --seed 1" in first["command"]
    assert capsys.readouterr().err == f'16 run(s) failed: see "failures" in {out}\n'
