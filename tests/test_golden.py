"""Byte-for-byte CLI output on a small fixed corpus.

``golden/corpus.jsonl`` holds general, non-symmetric, trivial, rational and
numerically Gorenstein records, homology spheres, Brieskorn-Hamm records of
both shapes and one invalid record.  Beside it are the expected ``batch``
output and the stdout of ``semigroup``, ``info``, ``frobenius`` and ``laufer``
on each valid record, one line per record; ``laufer`` prints r_[Z_K], s_[Z_K]
and the scalars, so it pins Z_K and E_0^* too.  ``laufer_trace.jsonl`` holds
``laufer --trace`` for the classes [Z_K] and [Z_K + E_0^*] of each valid
record, which pins the vertex order and chi of every single step.  Rewrite
them only for an intended change of output.
"""

import json
from pathlib import Path

import pytest

from seifert_semigroup.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = GOLDEN / "corpus.jsonl"


def valid_records() -> list[str]:
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if json.loads(line)["id"] != "bad"]


def records(*ids: str) -> list[str]:
    by_id = {json.loads(line)["id"]: line for line in valid_records()}
    return [by_id[i] for i in ids]


def stdout_of(command: str, lines: list[str], capsys) -> bytes:
    chunks = []
    for line in lines:
        assert main([command, line]) == 0
        chunks.append(capsys.readouterr().out)
    return "".join(chunks).encode("utf-8")


def test_batch_golden(tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(["batch", "--in", str(CORPUS), "--out", str(out)]) == 1  # the invalid record
    assert out.read_bytes() == (GOLDEN / "batch.jsonl").read_bytes()


@pytest.mark.parametrize("where", ["stdout", "suffix"])
def test_batch_csv_golden(where, tmp_path, capsys):
    """CSV through ``--format csv`` on stdout, or through ``--out *.csv`` with ``--format auto``."""
    out = tmp_path / "out.csv"
    argv = ["--format", "csv"] if where == "stdout" else ["--out", str(out)]
    assert main(["batch", "--in", str(CORPUS), *argv]) == 1
    written = capsys.readouterr().out.encode("utf-8") if where == "stdout" else out.read_bytes()
    assert written == (GOLDEN / "batch.csv").read_bytes()


@pytest.mark.parametrize("command", ["semigroup", "info", "frobenius", "laufer"])
def test_command_golden(command, capsys):
    assert stdout_of(command, valid_records(), capsys) == (GOLDEN / f"{command}.jsonl").read_bytes()


def test_bh_golden(capsys):
    assert stdout_of("bh", records("bh_case_i", "bh_case_ii"), capsys) == (GOLDEN / "bh.jsonl").read_bytes()
    assert main(["bh", *records("general")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the bh command needs a {'bh': [...]} record\n"


def test_verify_golden(capsys):
    lines = records("general", "rational", "gorenstein")
    assert stdout_of("verify", lines, capsys) == (GOLDEN / "verify.txt").read_bytes()


def test_laufer_trace_golden(capsys):
    chunks = []
    for line in valid_records():
        for cls in ("zk", "zk+e0"):
            assert main(["laufer", line, "--class", cls, "--trace"]) == 0
            chunks.append(capsys.readouterr().out)
    assert "".join(chunks).encode("utf-8") == (GOLDEN / "laufer_trace.jsonl").read_bytes()
