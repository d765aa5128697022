import ast
import dataclasses
import importlib
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seifert_semigroup import (
    SeifertData,
    VerificationError,
    cli,
    frobenius_bruteforce,
    ihs_from_alphas,
    lattice,
    laufer,
    seifert,
    verification,
)
from seifert_semigroup.cli import build_parser, main
from seifert_semigroup.seifert import floor_frac

from conftest import count_calls, count_tables

SEC5 = '{"seifert":{"b0":1,"legs":[[5,1],[5,1],[7,1],[10,1]]}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info(capsys):
    code, out = run_cli(capsys, "info", SEC5)
    assert code == 0
    data = json.loads(out)
    assert data["invariants"]["e"] == "-5/14"
    assert data["invariants"]["gamma"] == "19/5"
    assert data["invariants"]["orderH"] == 625
    assert data["zk"] == ["24/5", "39/25", "39/25", "7/5", "32/25"]


def test_info_rational_flags(capsys):
    code, out = run_cli(capsys, "info", '{"alphas":[2,3,5]}')
    data = json.loads(out)
    assert code == 0
    assert data["invariants"]["rational"] is True
    assert data["invariants"]["gamma"] == "-1"


def test_rationals_round_trip(capsys):
    code, out = run_cli(capsys, "info", SEC5)
    data = json.loads(out)
    for text in [data["invariants"]["e"], data["invariants"]["gamma"], *data["zk"]]:
        frac = Fraction(text)
        assert str(frac) == text


def test_frobenius_both(capsys):
    code, out = run_cli(capsys, "frobenius", SEC5)
    assert code == 0
    data = json.loads(out)
    assert data["semigroup"]["frobenius"] == 3
    assert data["module"]["frobenius"] == 2
    code, out = run_cli(capsys, "frobenius", '{"alphas":[2,3,7]}')
    assert json.loads(out)["semigroup"]["frobenius"] == 43


def test_frobenius_rational_module_is_null(capsys):
    code, out = run_cli(capsys, "frobenius", '{"alphas":[2,3,5]}')
    assert code == 0
    data = json.loads(out)
    assert data["module"]["rational"] is True
    assert data["module"]["frobenius"] is None
    assert data["semigroup"]["frobenius"] == 29


def test_frobenius_trivial_sentinel(capsys):
    record = '{"seifert":{"b0":4,"legs":[[2,1],[3,2],[5,4]]}}'
    code, out = run_cli(capsys, "frobenius", record)
    data = json.loads(out)
    assert data["semigroup"] == {"trivial": True, "frobenius": -1}


def test_semigroup_command(capsys):
    code, out = run_cli(capsys, "semigroup", '{"alphas":[2,3,7]}', "--up-to", "50")
    assert code == 0
    data = json.loads(out)
    assert data["semigroup"]["generators"] == [6, 14, 21]
    assert data["semigroup"]["gaps"] == 22
    assert data["symmetry"]["symmetric"] is True
    assert data["poincare"]["pg"] == 1
    assert data["members"][:5] == [0, 6, 12, 14, 18]


def test_laufer_command_with_trace(capsys):
    record = '{"seifert":{"b0":1,"legs":[[5,1],[5,1],[7,1],[10,1],[70,1]]}}'
    code, out = run_cli(capsys, "laufer", record, "--trace")
    assert code == 0
    data = json.loads(out)
    assert data["r"] == ["5/6", "1/6", "1/6", "5/6", "7/12", "1/12"]
    assert data["sH"] == ["23/6", "7/6", "7/6", "5/6", "7/12", "1/12"]
    assert data["scalars"]["delta"] == 3
    assert len(data["trace"]) == 5
    assert data["trace"][0].startswith("step 1: +E_")
    code, out = run_cli(capsys, "laufer", record, "--class", "zk+e0")
    assert json.loads(out)["class"] == "zk+e0"


def test_bh_command(capsys):
    code, out = run_cli(capsys, "bh", '{"bh":[6,10,14]}')
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "case_ii"
    assert data["generators"] == [15, 21, 35]
    assert data["seifert"]["b0"] == 4
    code, out = run_cli(capsys, "bh", '{"bh":[4,4,4]}')
    assert json.loads(out)["case"] == "not_qhs"


def test_laufer_reads_the_scalars_sequences(monkeypatch, capsys):
    """Without --trace, `laufer --class zk` and `zk+e0` run only the two
    sequences inside the scalars; --trace runs its own once more."""
    calls = []
    exact = laufer.to_antinef

    def counting(*args, **kwargs):
        calls.append(kwargs.get("trace", False))
        return exact(*args, **kwargs)

    monkeypatch.setattr(laufer, "to_antinef", counting)
    for argv, expected in (([], [False, False]), (["--class", "zk+e0"], [False, False]),
                           (["--trace"], [False, False, True]), (["--class", "zero"], [False, False, False])):
        calls.clear()
        assert main(["laufer", SEC5, *argv]) == 0
        assert sorted(calls) == expected, argv
    capsys.readouterr()


def test_frobenius_both_solves_twice_on_a_gorenstein_record(monkeypatch, capsys):
    """Z_K and E_0^* are each solved once and kept on the graph: the scalars
    and the Gorenstein cross-check of the formula share E_0^*."""
    solves = []
    exact = lattice._solve

    def counting(g, rhs):
        solves.append(tuple(rhs))
        return exact(g, rhs)

    monkeypatch.setattr(lattice, "_solve", counting)
    gor7 = '{"seifert":{"b0":2,"legs":[[2,1],[2,1],[3,1],[3,1],[7,1],[7,1],[84,1]]}}'
    code, out = run_cli(capsys, "frobenius", gor7, "--method", "both")
    assert code == 0 and json.loads(out)["semigroup"]["frobenius"] == 85
    assert len(solves) == 2


def test_frobenius_both_decides_rationality_once(monkeypatch, capsys):
    """Each module route is its own rationality test: the formula route by the
    sign of gamma - s, the brute route by its scan, so p_g is never computed."""
    calls = count_calls(monkeypatch, seifert.geometric_genus)
    code, out = run_cli(capsys, "frobenius", SEC5, "--method", "both")
    assert code == 0 and json.loads(out)["module"] == {"rational": False, "frobenius": 2}
    assert len(calls) == 0


def test_verify_reads_one_set_of_invariants_and_one_graph(monkeypatch):
    """Every route of verify_seifert reads the invariants and the plumbing
    graph kept on the record; other calls are for augmented data, which are
    other objects."""
    sf = SeifertData(1, ((5, 1), (5, 1), (7, 1), (10, 1)))
    inv_calls = count_calls(monkeypatch, seifert.invariants)
    graph_calls = count_calls(monkeypatch, lattice.build_graph)
    results = verification.verify_seifert(sf, random.Random(0))
    routes = {"semigroup_frobenius_agreement", "module_frobenius_agreement", "augmented_module_stabilises"}
    assert routes <= {r.name for r in results} and all(r.passed for r in results)
    assert sum(args[0] is sf for args in inv_calls) == 1
    assert sum(args[0] is sf for args in graph_calls) == 1


def test_verify_scans_the_semigroup_window_once(monkeypatch):
    """The brute Frobenius number, the gap count and the augmentation check
    come off one scan of N over [0, floor(gamma + alpha/o)], and it stops
    there: alpha + gamma = 4311 is past the augmentation check, and 73 (SEC5,
    whose scan stops at 6) is within it."""
    calls = count_calls(monkeypatch, seifert.quasilinear_values)
    for sf in (ihs_from_alphas((11, 13, 17)), SeifertData(1, ((5, 1), (5, 1), (7, 1), (10, 1)))):
        inv = sf.inv
        top = floor_frac(inv.gamma + Fraction(inv.alpha, inv.orbit_order))
        results = verification.verify_seifert(sf, random.Random(0))
        assert (inv.alpha + inv.gamma > 3000) == ("augmented_module_stabilises" not in {r.name for r in results})
        assert all(r.passed for r in results)
        covering = [ells for arg, ells in calls if arg is sf and min(ells) <= 1 and max(ells) >= top]
        assert [max(ells) for ells in covering] == [top]


@pytest.mark.parametrize("alphas", [(2, 3, 7), (5, 7, 11)])
@pytest.mark.parametrize("fault", ["raise-f-class", "lower-middle-class"])
def test_verify_catches_a_planted_table_fault(alphas, fault, monkeypatch, capsys):
    """A period table off by one in one residue class breaks the Gorenstein
    identities, the table's reader in verify; a sphere's Ap is the theorem's,
    not the table's, so the checks of the printed Ap still pass."""
    sf = ihs_from_alphas(alphas)
    alpha = sf.inv.alpha
    r, shift = (frobenius_bruteforce(sf) % alpha, 1) if fault == "raise-f-class" else (alpha // 2, -1)
    exact = seifert.QuasilinearTable.__init__

    def planted(self, sf):
        exact(self, sf)
        self.base[r] += shift

    monkeypatch.setattr(seifert.QuasilinearTable, "__init__", planted)
    code, out = run_cli(capsys, "verify", json.dumps({"alphas": list(alphas)}))
    fails = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")}
    assert code == 2
    assert "gorenstein_symmetry" in fails
    assert not fails & {"selmer_agreement", "gap_count_agreement", "apery_certificate"}


@pytest.mark.parametrize("alphas", [(2, 3, 7), (5, 7, 11)])
@pytest.mark.parametrize("fault", ["raise-f-class", "lower-middle-class", "drop-a-generator"])
def test_verify_catches_a_planted_theorem_fault(alphas, fault, monkeypatch, capsys):
    """A homology sphere's closed-form Ap raised a level in the class of f fails its certificate against
    the brute scan of N and moves Selmer's numbers; lowered a level in a middle class, or with the theorem
    generators short of the last one, it disagrees with its own sieve."""
    from seifert_semigroup import semigroup

    sf = ihs_from_alphas(alphas)
    alpha = sf.inv.alpha
    r, shift = (frobenius_bruteforce(sf) % alpha, alpha) if fault == "raise-f-class" else (alpha // 2, -alpha)
    exact_apery, exact_generators = semigroup.ihs_apery, semigroup.ihs_generators
    if fault == "drop-a-generator":
        monkeypatch.setattr(semigroup, "ihs_generators", lambda alphas: exact_generators(alphas)[:-1])
    else:
        monkeypatch.setattr(semigroup, "ihs_apery",
                            lambda alphas: tuple(a + shift * (i == r) for i, a in enumerate(exact_apery(alphas))))
    code, out = run_cli(capsys, "verify", json.dumps({"alphas": list(alphas)}))
    fails = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")}
    if fault == "raise-f-class":
        assert code == 2 and {"apery_certificate", "selmer_agreement", "gap_count_agreement"} <= fails
    else:
        assert code == 2 and "ihs_theorem" in fails


def _rational(*args):
    return -1


def _brute_calls_the_module_rational(sf, kind="semigroup"):
    return _rational() if kind == "module" else frobenius_bruteforce(sf, kind)


@pytest.mark.parametrize(
    "module, route, replacement, message",
    [
        ("seifert_semigroup.cli", "frobenius_by_formula", lambda *args: 99, "formula 99 != brute 3"),
        ("seifert_semigroup.laufer", "frobenius_module", lambda *args: 99, "module formula 99 != brute 2"),
        # each module route decides rationality on its own, and `both` compares the verdicts
        ("seifert_semigroup.laufer", "frobenius_module", _rational, "module formula -1 != brute 2"),
        ("seifert_semigroup.cli", "frobenius_bruteforce", _brute_calls_the_module_rational,
         "module formula 2 != brute -1"),
    ],
    ids=["semigroup", "module", "formula-rational", "brute-rational"],
)
def test_frobenius_both_disagreement_exits_2(module, route, replacement, message, monkeypatch, capsys):
    monkeypatch.setattr(f"{module}.{route}", replacement)
    code = main(["frobenius", SEC5, "--method", "both"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"verification failure: {message}\n"


def test_verify_reports_a_rationality_disagreement(monkeypatch, capsys):
    """A formula route that calls SEC5 rational fails the module checks as
    FAIL lines; the module routes are compared on rational records too."""
    monkeypatch.setattr(laufer, "frobenius_module", _rational)
    code, out = run_cli(capsys, "verify", SEC5)
    assert code == 2
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails[0] == "FAIL module_frobenius_agreement  (module formula -1 != brute 2)"
    assert fails[1].startswith("FAIL augmented_module_stabilises  (module Frobenius -1 != semigroup Frobenius ")
    assert len(fails) == 2
    monkeypatch.undo()
    code, out = run_cli(capsys, "verify", '{"alphas":[2,3,5]}')
    assert code == 0 and "ok   module_frobenius_agreement" in out.splitlines()


RECORDS = [SEC5, '{"alphas":[2,3,5]}', '{"seifert":{"b0":4,"legs":[[2,1],[3,2],[5,4]]}}', '{"bh":[6,10,14]}']


@pytest.mark.parametrize("record", RECORDS, ids=["sec5", "rational", "trivial", "bh"])
def test_formula_and_brute_routes_are_independent(record, monkeypatch, capsys):
    """The lattice commands never evaluate N, and the brute route never runs
    a Laufer computation."""
    n_calls = [count_calls(monkeypatch, fn)
               for fn in (seifert.quasilinear_values, seifert.QuasilinearTable, seifert.quasilinear)]
    laufer_calls = [count_calls(monkeypatch, fn) for _, fn in inspect.getmembers(laufer, inspect.isfunction)
                    if fn.__module__ == laufer.__name__]
    for argv in (["frobenius", record, "--method", "formula"], ["info", record],
                 ["laufer", record], ["laufer", record, "--class", "zero", "--trace"]):
        assert main(argv) == 0, argv
    assert [len(calls) for calls in n_calls] == [0, 0, 0]
    assert sum(map(len, laufer_calls)) > 0
    for calls in laufer_calls:
        calls.clear()
    assert main(["frobenius", record, "--method", "brute"]) == 0
    assert sum(map(len, laufer_calls)) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", [["info"], ["frobenius", "--method", "formula"]], ids=["info", "formula"])
def test_lattice_commands_answer_at_alpha_1e12(command):
    """alpha = 1009*1013*1019*1021 is about 1.06e12: the lattice routes take
    milliseconds on the 59-vertex graph, and nothing scans N."""
    record = '{"alphas":[1009,1013,1019,1021]}'
    result = subprocess.run(
        [sys.executable, "-m", "seifert_semigroup", command[0], record, *command[1:]],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    if command[0] == "info":
        assert data["invariants"]["alpha"] == 1009 * 1013 * 1019 * 1021
        assert data["invariants"]["rational"] is False
    else:
        assert data["module"]["rational"] is False


def test_brute_route_exits_early_at_alpha_1e12():
    """Both brute scans stop at their first hit from the top, so they answer
    where a whole window of about alpha entries would not fit in memory."""
    record = '{"alphas":[1009,1013,1019,1021]}'
    result = subprocess.run(
        [sys.executable, "-m", "seifert_semigroup", "frobenius", record, "--method", "brute"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert data["semigroup"]["frobenius"] == 3186039708591
    assert data["module"]["frobenius"] == 2122630203908


R2 = '{"seifert":{"b0":2,"legs":[[2,1],[3,1],[1000000007,1]]}}'  # alpha = 6000000042 < o = 7000000043


@pytest.mark.parametrize("method", ["brute", "both"])
def test_brute_route_stops_at_gamma_plus_alpha_over_o(method):
    """The semigroup scan starts at floor(gamma + alpha/o) = 1, not at floor(alpha + gamma), about 6e9."""
    result = subprocess.run(
        [sys.executable, "-m", "seifert_semigroup", "frobenius", R2, "--method", method],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert data["semigroup"] == {"trivial": False, "frobenius": 1}
    assert data["module"] == {"rational": True, "frobenius": None}


@pytest.mark.parametrize("alphas", [(2, 3, 7), (2, 3, 5)])
def test_verify_catches_a_window_bound_lowered_by_one(alphas, monkeypatch, capsys):
    """On a homology sphere f = floor(gamma + alpha/o) = alpha + gamma: a window one short hides f from the
    brute scans, which the Laufer route's formula value then contradicts."""
    exact = seifert.invariants
    lowered = lambda sf: dataclasses.replace(exact(sf), window=exact(sf).window - 1)  # noqa: E731
    assert frobenius_bruteforce(ihs_from_alphas(alphas)) == exact(ihs_from_alphas(alphas)).window
    monkeypatch.setattr(seifert, "invariants", lowered)
    code, out = run_cli(capsys, "verify", json.dumps({"alphas": list(alphas)}))
    fails = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")}
    assert code == 2
    assert {"semigroup_frobenius_agreement", "selmer_agreement", "gap_count_agreement"} <= fails


def test_bad_record_is_input_error(capsys):
    code = main(["info", '{"seifert":{"b0":1,"legs":[[5,1],[5,2]]}}'])
    assert code == 1
    code = main(["info", '{"alphas":[2,3,7],"bh":[2,3,7]}'])
    assert code == 1
    code = main(["frobenius", '{"bh":[4,4,4]}'])
    assert code == 1


@pytest.mark.parametrize("shift", [1, -1], ids=["above", "below"])
def test_verify_fails_a_planted_threshold_fault(shift, monkeypatch, capsys):
    """Planted one above n*, the check passes one below the planted value too;
    planted one below n*, it fails there.  Either way verify fails the
    augmentation check (SEC5, n* = 6)."""
    augment_module = importlib.import_module("seifert_semigroup.augment")
    exact = augment_module.threshold
    monkeypatch.setattr(augment_module, "threshold", lambda link: exact(link) + shift)
    code, out = run_cli(capsys, "verify", SEC5)
    fails = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 2 and fails == ["augmented_module_stabilises"]


def test_verify_record(capsys):
    code, out = run_cli(capsys, "verify", SEC5)
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "module, route, checks",
    [
        (verification, "frobenius_by_formula", ["semigroup_frobenius_agreement"]),
        # the augmentation check reads the module Frobenius number of the augmented graph
        (laufer, "frobenius_module", ["module_frobenius_agreement", "augmented_module_stabilises"]),
        (verification, "symmetry_report", ["symmetry_principality"]),
    ],
    ids=["formula", "module", "symmetry"],
)
def test_verify_goes_on_after_a_route_raises(module, route, checks, monkeypatch, capsys):
    """A VerificationError inside a route fails the check it feeds; the
    remaining checks still run and the exit code is 2."""
    def broken(*args, **kwargs):
        raise VerificationError("skewed route")

    monkeypatch.setattr(module, route, broken)
    code, out = run_cli(capsys, "verify", SEC5)
    assert code == 2
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    assert fails == [f"FAIL {c}  (skewed route)" for c in checks]
    first = lines.index(f"FAIL {checks[0]}  (skewed route)")
    assert any(line.startswith("ok  ") for line in lines[first + 1:-1])  # later checks still run
    assert lines[-1] == f"{len(lines) - 1 - len(checks)}/{len(lines) - 1} checks passed"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--random", "1", "--max-alpha", "1"], "--max-alpha"),
        (["--random", "1", "--max-legs", "2"], "--max-legs"),
        (["--random", "-1"], "--random"),
    ],
)
def test_verify_option_errors_name_the_option(argv, option, capsys):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be at least ") and captured.err.count("\n") == 1


def test_verify_refuses_a_record_with_random(capsys):
    """A record next to --random would be ignored, malformed or not: one error line."""
    assert main(["verify", '{"alphas":[2,3,7.5]}', "--random", "1", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verify takes a record or --random K, not both\n"


def test_verify_refuses_an_unreachable_max_alpha():
    """Draws up to 1e8 almost never meet the alpha cap: one error line naming
    the option and the cap after a fixed number of draws, not a hang."""
    result = subprocess.run(
        [sys.executable, "-m", "seifert_semigroup", "verify", "--random", "1", "--max-alpha", "100000000"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "--max-alpha" in lines[0] and "alpha_cap" in lines[0]


def test_batch_jsonl_and_csv(tmp_path, capsys):
    records = [
        {"id": "a", "seifert": {"b0": 1, "legs": [[5, 1], [5, 1], [7, 1], [10, 1]]}},
        {"id": "b", "alphas": [2, 3, 7]},
        {"id": "c", "bh": [6, 10, 7]},
    ]
    infile = tmp_path / "in.jsonl"
    infile.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    out1 = tmp_path / "out1.jsonl"
    out2 = tmp_path / "out2.jsonl"
    assert main(["batch", "--in", str(infile), "--out", str(out1)]) == 0
    assert main(["batch", "--in", str(infile), "--out", str(out2), "--jobs", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = [json.loads(line) for line in out1.read_text().splitlines()]
    assert [r["id"] for r in lines] == ["a", "b", "c"]
    assert lines[0]["semigroup"]["frobenius"] == 3
    assert lines[1]["module"]["min"] == -42
    assert lines[2]["bh"]["generators"] == [21, 30, 35]

    csv_out = tmp_path / "out.csv"
    assert main(["batch", "--in", str(infile), "--out", str(csv_out)]) == 0
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("id,error,e,alpha,gamma")


def test_batch_bad_record_exit_code(tmp_path):
    infile = tmp_path / "in.jsonl"
    infile.write_text('{"id":"bad","seifert":{"b0":1,"legs":[[2,1],[2,1]]}}\n')
    outfile = tmp_path / "out.jsonl"
    assert main(["batch", "--in", str(infile), "--out", str(outfile)]) == 1
    result = json.loads(outfile.read_text())
    assert result["id"] == "bad" and "error" in result


def test_batch_error_record_is_never_empty(monkeypatch):
    """An exception with no text, such as MemoryError(), is named by its type."""
    def out_of_memory(record):
        raise MemoryError()

    monkeypatch.setattr(cli, "full_report", out_of_memory)
    assert cli._batch_one('{"id":"r3","alphas":[2,3,7]}') == ('{"id": "r3", "error": "MemoryError"}', 1)


def test_batch_exits_2_on_a_verification_failure(monkeypatch, tmp_path):
    """A record that fails verification makes `batch` exit 2, also next to a bad-input record."""
    def skewed(record):
        raise VerificationError("planted")

    monkeypatch.setattr(cli, "full_report", skewed)
    infile, outfile = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    infile.write_text('{"id":"v","alphas":[2,3,7]}\n')
    assert main(["batch", "--in", str(infile), "--out", str(outfile)]) == 2
    assert json.loads(outfile.read_text()) == {"id": "v", "error": "planted"}
    infile.write_text('{"id":"bad"\n{"id":"v","alphas":[2,3,7]}\n')
    assert [cli._batch_one(line)[1] for line in infile.read_text().splitlines()] == [1, 2]
    assert main(["batch", "--in", str(infile), "--out", str(outfile)]) == 2


def test_main_reports_a_memory_error_in_one_line(monkeypatch, capsys):
    """A command that runs out of memory ends in one ``error:`` line naming the type, and exit 1."""
    def out_of_memory(sf):
        raise MemoryError()

    monkeypatch.setattr(cli, "Link", out_of_memory)
    assert main(["semigroup", '{"alphas":[2,3,7]}']) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MemoryError\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_batch_rejects_jobs_below_one(jobs, tmp_path, capsys):
    infile = tmp_path / "in.jsonl"
    infile.write_text('{"alphas":[2,3,7]}\n')
    assert main(["batch", "--in", str(infile), "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_batch_builds_no_period_table(monkeypatch):
    """Each record reads its one Apery set off the gap window or, on a homology sphere, off the theorem:
    the golden corpus, a sphere and two m = 1 Brieskorn-Hamm spheres construct no full-period table."""
    built = count_tables(monkeypatch)
    lines = (Path(__file__).parent / "golden" / "corpus.jsonl").read_text().splitlines()
    lines += ['{"alphas":[7,11,13]}', '{"bh":[2,3,7]}', '{"bh":[2,3,5]}']
    outcomes = [cli._batch_one(line) for line in lines]
    assert [json.loads(text).get("id") for text, code in outcomes if code] == ["bad"]
    assert built == []


def test_batch_forks_no_more_workers_than_records(monkeypatch, tmp_path):
    """The pool forks every worker on its first submit, so `batch` asks for at most one per record and
    runs one record in process.  A stub pool maps in process: no process starts."""
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    infile = tmp_path / "in.jsonl"
    infile.write_text('{"id":"a","alphas":[2,3,7]}\n' + SEC5 + '\n{"id":"c","bh":[6,10,14]}\n')
    outputs = {}
    for jobs in ("1", "1000", "2"):
        outputs[jobs] = tmp_path / f"jobs{jobs}.jsonl"
        assert main(["batch", "--in", str(infile), "--out", str(outputs[jobs]), "--jobs", jobs]) == 0
    assert asked == [3, 2]
    assert outputs["1000"].read_bytes() == outputs["2"].read_bytes() == outputs["1"].read_bytes()
    infile.write_text('{"alphas":[2,3,7]}\n')
    assert main(["batch", "--in", str(infile), "--out", str(tmp_path / "one.jsonl"), "--jobs", "8"]) == 0
    assert asked == [3, 2]


def test_cli_import_leaves_out_what_only_batch_runs():
    """csv and the process pool (with its multiprocessing chain) are imported by
    `batch` alone, so a one-shot command does not pay for them."""
    probe = (
        "import sys, seifert_semigroup.cli\n"
        "print(*(m for m in ('multiprocessing', 'concurrent.futures', 'csv') if m in sys.modules))\n"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


SEIFERT_LEGS = '[[2,1],[3,1],[7,1]]'


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"seifert":{"b0":1.7,"legs":%s}}' % SEIFERT_LEGS, "b0 must be an integer, got 1.7"),
        ('{"seifert":{"b0":true,"legs":%s}}' % SEIFERT_LEGS, "b0 must be an integer, got true"),
        ('{"seifert":{"b0":"1","legs":%s}}' % SEIFERT_LEGS, 'b0 must be an integer, got "1"'),
        ('{"alphas":[2,3,7.9]}', "each entry of 'alphas' must be an integer, got 7.9"),
        ('{"alphas":"237"}', "'alphas' must be a list of integers"),
        ('{"bh":"237"}', "'bh' must be a list of integers"),
        ('{"seifert":{"b0":1,"legs":5}}', "'legs' must be a list of [a, w] pairs, got 5"),
        ('{"seifert":[1]}', "'seifert' must be an object"),
        ('{"seifert":{"b0":1,"legs":[[5,1,9],[2,1],[3,1]]}}', "'legs' must be a list of [a, w] pairs"),
        ('{"seifert":{"legs":%s}}' % SEIFERT_LEGS, "'seifert' must be an object with 'b0' and 'legs'"),
        ('{"seifert":{"b0":1}}', "'seifert' must be an object with 'b0' and 'legs'"),
    ],
    ids=["b0-float", "b0-bool", "b0-string", "alphas-float", "alphas-string", "bh-string",
         "legs-int", "seifert-list", "leg-triple", "seifert-no-b0", "seifert-no-legs"],
)
def test_malformed_record_is_one_line_input_error(record, message, capsys, tmp_path):
    assert main(["info", record]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1

    infile = tmp_path / "in.jsonl"
    infile.write_text('{"id":"m",' + record[1:] + "\n")
    outfile = tmp_path / "out.jsonl"
    assert main(["batch", "--in", str(infile), "--out", str(outfile)]) == 1
    assert message in json.loads(outfile.read_text())["error"]


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def test_checks_survive_optimize_flag():
    """Under -O (asserts stripped) verify prints the same lines, and solving on
    an indefinite graph still raises ArithmeticError."""
    argv = ["-m", "seifert_semigroup", "verify", "--random", "20", "--seed", "1"]
    plain, optimized = _python(*argv), _python("-O", *argv)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    indefinite = (
        "from seifert_semigroup import StarGraph, canonical_cycle\n"
        "g = StarGraph(euler=(-1, -2, -2, -2), legs=((1,), (2,), (3,)))  # e = 1/2\n"
        "try:\n"
        "    canonical_cycle(g)\n"
        "except ArithmeticError:\n"
        "    print('refused')\n"
    )
    result = _python("-O", "-c", indefinite)
    assert result.returncode == 0 and result.stdout == "refused\n", result.stderr


def test_one_parser_serves_successive_calls(capsys):
    """The parser is built once per process: each call, after a usage error
    too, prints and exits as the same command does in a fresh interpreter."""
    commands = [
        ["frobenius", SEC5, "--method", "formula"],
        ["verify", SEC5],
        ["frobenius", SEC5, "--method", "bogus"],
        ["frobenius", SEC5],
    ]
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = _python("-m", "seifert_semigroup", *argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    parser = build_parser()
    assert build_parser() is parser
    assert parser.parse_args(["frobenius", SEC5]).method == "both"
    assert not hasattr(parser.parse_args(["verify"]), "method")


USAGE_ERRORS = {
    "bad-choice": (["frobenius", SEC5, "--method", "bogus"], "argument --method: invalid choice: 'bogus'"),
    "bad-int": (["semigroup", SEC5, "--up-to", "x"], "argument --up-to: invalid int value: 'x'"),
    "unknown-command": (["nosuch"], "argument command: invalid choice: 'nosuch'"),
    "no-command": ([], "the following arguments are required: command"),
    "batch-no-in": (["batch"], "the following arguments are required: --in"),
    "info-no-record": (["info"], "the following arguments are required: record"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_is_one_line_input_error(argv, message, capsys):
    """Exit 2 is kept for verification failures: argparse's usage errors exit 1 with one line."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["", "info", "frobenius", "semigroup", "laufer", "bh", "verify", "batch"])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as stop:
        main([*command.split(), "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: seifert-semigroup")


def test_json_commands_are_bodies_of_one_runner():
    """The five JSON commands only fill ``out``: reading, parsing and printing are the runner's."""
    from seifert_semigroup import cli

    frame = {"_read_record", "parse_record", "json.dump", "json.dumps", "print", "sys.stdout.write"}
    names = ("cmd_info", "cmd_frobenius", "cmd_semigroup", "cmd_laufer", "cmd_bh")
    bodies = {
        node.name: {ast.unparse(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)}
        for node in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert len(bodies) == 5
    assert {name: sorted(calls & frame) for name, calls in bodies.items() if calls & frame} == {}


STAR70 = '{"seifert":{"b0":1,"legs":[[5,1],[5,1],[7,1],[10,1],[70,1]]}}'


OVERRUN = "error: computation sequence exceeded the step budget SEIFERT_STEP_BUDGET = 3\n"


@pytest.mark.parametrize(
    "budget, argv, message",
    [
        ("3", ["info", STAR70], OVERRUN),
        ("3", ["frobenius", STAR70, "--method", "formula"], OVERRUN),
        ("3", ["verify", '{"alphas":[2,3,7]}'], OVERRUN),
        ("abc", ["info", STAR70], "error: SEIFERT_STEP_BUDGET must be a positive integer, got 'abc'\n"),
        ("0", ["info", STAR70], "error: SEIFERT_STEP_BUDGET must be a positive integer, got '0'\n"),
        ("-5", ["info", STAR70], "error: SEIFERT_STEP_BUDGET must be a positive integer, got '-5'\n"),
    ],
    ids=["info", "formula", "verify", "not-a-number", "zero", "negative"],
)
def test_step_budget_is_a_one_line_refusal(budget, argv, message):
    """An overrun or a SEIFERT_STEP_BUDGET that is no positive integer is an
    input error naming the variable and its value: one line, exit 1, no traceback."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), "SEIFERT_STEP_BUDGET": budget}
    result = subprocess.run(
        [sys.executable, "-m", "seifert_semigroup", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert (result.returncode, result.stdout, result.stderr) == (1, "", message)


# A fault planted in one route of `verify` on {"alphas":[2,3,7]}, and the identity its FAIL line names.
PLANTED_FAULTS = {
    "gorenstein_symmetry": (
        "exact = seifert.QuasilinearTable.__call__\n"
        "seifert.QuasilinearTable.__call__ = lambda self, ell: exact(self, ell) + 1\n",
        "N(ell) + N(gamma - ell) = -2 fails in residue class 0",
    ),
    "ladder_duality": (
        "exact = laufer.quasilinear_values\n"
        "laufer.quasilinear_values = lambda sf, ells: (n + 1 for n in exact(sf, ells))\n",
        "N(0) + N*(1) = -1 != -2",
    ),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("check", PLANTED_FAULTS)
def test_planted_fault_is_one_fail_line_naming_the_identity(check, flags):
    """A route that raises is one FAIL line carrying its reason; the other
    checks still run, and verify exits 2, with or without -O."""
    plant, identity = PLANTED_FAULTS[check]
    script = (
        "import sys\n"
        "from seifert_semigroup import cli, laufer, seifert\n"
        f"{plant}"
        "sys.exit(cli.main(['verify', '{\"alphas\":[2,3,7]}']))\n"
    )
    result = _python(*flags, "-c", script)
    assert result.returncode == 2, result.stderr
    fail, tally = [line for line in result.stdout.splitlines() if not line.startswith("ok ")]
    assert fail.startswith(f"FAIL {check}  (") and identity in fail
    assert tally == "16/17 checks passed"


def test_no_bare_asserts_in_the_package():
    """Cross-checks raise VerificationError, so they still run under python -O."""
    package = Path(__file__).parents[1] / "src" / "seifert_semigroup"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _package_trees():
    """(file name, parsed module, child -> parent map) for every module of the package."""
    package = Path(__file__).parents[1] / "src" / "seifert_semigroup"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield path.name, tree, {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _enclosing_function(node, parents) -> str | None:
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name
    return None


def test_no_floats_in_the_package():
    """Exact arithmetic: no call to float, and the only float literals are the two
    probabilities that pick seeded random draws in verification.py."""
    calls, literals = [], []
    for name, tree, parents in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                calls.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Constant) and type(node.value) is float:
                literals.append((name, _enclosing_function(node, parents), node.value))
    assert calls == []
    assert sorted(literals) == [("verification.py", "random_seifert", 0.15), ("verification.py", "verify_seifert", 0.5)]


def test_the_step_budget_has_one_source():
    """The package reads one environment variable, SEIFERT_STEP_BUDGET, in
    laufer._step_budget only, and no function takes a step_budget parameter."""
    reads, parameters = [], []
    for name, tree, parents in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and getattr(node, "id", getattr(node, "attr", "")) in (
                "environ", "environb", "getenv", "getenvb"
            ):
                # the key of os.environ.get(key), os.environ[key] or os.getenv(key), else None
                parent, key = parents[node], None
                if isinstance(parent, ast.Attribute) and parent.attr == "get":
                    parent = parents[parent]
                if isinstance(parent, ast.Call) and parent.args:
                    key = parent.args[0]
                elif isinstance(parent, ast.Subscript):
                    key = parent.slice
                key = key.value if isinstance(key, ast.Constant) else None
                reads.append((name, _enclosing_function(node, parents), key))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                if "step_budget" in params:
                    parameters.append(f"{name}:{getattr(node, 'name', 'lambda')}")
    assert reads == [("laufer.py", "_step_budget", "SEIFERT_STEP_BUDGET")]
    assert parameters == []


def test_only_check_result_has_a_passed_field():
    """A cross-check returns its value or raises: CheckResult, which verify
    builds, is the package's one pass/fail record."""
    package = Path(__file__).parents[1] / "src" / "seifert_semigroup"
    found = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, (ast.AnnAssign, ast.Assign))
        for target in ([stmt.target] if isinstance(stmt, ast.AnnAssign) else stmt.targets)
        if isinstance(target, ast.Name) and target.id == "passed"
    ]
    assert found == ["verification.py:CheckResult"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("field, shift", [("s", "1"), ("s_check", "1/2")])
def test_inconsistent_scalars_are_a_verification_failure(flags, field, shift):
    """Skewed Laufer scalars make the formula routes' cross-checks fail: one
    `verification failure` line and exit 2, with or without -O."""
    script = (
        "import dataclasses, sys\n"
        "from fractions import Fraction\n"
        "from seifert_semigroup import cli, laufer\n"
        "exact = laufer.scalars\n"
        "def skewed(g):\n"
        "    sc = exact(g)\n"
        f"    return dataclasses.replace(sc, {field}=sc.{field} + Fraction('{shift}'))\n"
        "laufer.scalars = skewed\n"
        f"sys.exit(cli.main(['frobenius', {SEC5!r}, '--method', 'formula']))\n"
    )
    result = _python(*flags, "-c", script)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("verification failure: ") and result.stderr.count("\n") == 1
