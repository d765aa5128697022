"""Command-line interface.

Single-record commands take the input record as a JSON string, ``@path`` to
read it from a file, or ``-`` for stdin.  A record carries exactly one of:

    {"seifert": {"b0": 1, "legs": [[5, 1], [5, 1], [7, 1], [10, 1]]}}
    {"alphas": [2, 3, 7]}
    {"bh": [6, 10, 14]}

plus an optional "id".  Rationals are rendered as "p/q" strings (reduced,
positive denominator, integers without "/1").  The five JSON commands are
bodies that fill the result object of a parsed record; :func:`_run` reads,
parses and prints.  Exit codes: 0 on success, 1 on hard input errors (usage
errors included), 2 on verification failures.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import random
import sys
from fractions import Fraction

from . import laufer, verification
from .brieskorn import NOT_QHS, BHClassification, bh_generators, bh_seifert, check_generators, classify
from .errors import VerificationError
from .lattice import RationalCycle, canonical_cycle, class_rep, zero_cycle
from .seifert import (
    SeifertData,
    SeifertInvariants,
    ceil_frac,
    ihs_from_alphas,
    is_numerically_gorenstein,
)
from .semigroup import (
    Link,
    frobenius_bruteforce,
    frobenius_by_formula,
    frobenius_module_raw,
    min_module,
    minimal_generators,
    poincare,
    symmetry_report,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


def fmt(x) -> str | int | float | bool | None:
    """Render exact rationals as reduced "p/q" strings; pass other scalars through."""
    if isinstance(x, Fraction):
        return str(x)
    return x


def fmt_cycle(l: RationalCycle) -> list[str]:
    return [str(c) for c in l.coeffs]


def _start(record: dict) -> dict:
    """A result object, opened with the record's id when it has one."""
    return {"id": record["id"]} if "id" in record else {}


def parse_record(obj) -> dict:
    """A decoded record, checked to be an object with exactly one input variant."""
    if not isinstance(obj, dict):
        raise ValueError("input record must be a JSON object")
    variants = [k for k in ("seifert", "alphas", "bh") if k in obj]
    if len(variants) != 1:
        raise ValueError("record must contain exactly one of 'seifert', 'alphas', 'bh'")
    return obj


def _int(x, name: str) -> int:
    if type(x) is not int:  # bool is a subclass of int
        raise ValueError(f"{name} must be an integer, got {json.dumps(x)}")
    return x


def _int_list(x, name: str) -> list[int]:
    if not isinstance(x, list):
        raise ValueError(f"'{name}' must be a list of integers, got {json.dumps(x)}")
    return [_int(v, f"each entry of '{name}'") for v in x]


def record_bh(record: dict) -> BHClassification:
    return classify(_int_list(record["bh"], "bh"))


def record_seifert(record: dict) -> SeifertData:
    """The Seifert data of a record, synthesising it for alphas/bh inputs; nothing is coerced."""
    if "seifert" in record:
        payload = record["seifert"]
        if not isinstance(payload, dict) or not {"b0", "legs"} <= payload.keys():
            raise ValueError("'seifert' must be an object with 'b0' and 'legs'")
        legs = payload["legs"]
        if not isinstance(legs, list) or not all(isinstance(leg, list) and len(leg) == 2 for leg in legs):
            raise ValueError(f"'legs' must be a list of [a, w] pairs, got {json.dumps(legs)}")
        return SeifertData(
            _int(payload["b0"], "b0"),
            tuple((_int(a, "a leg entry"), _int(w, "a leg entry")) for a, w in legs),
        )
    if "alphas" in record:
        return ihs_from_alphas(_int_list(record["alphas"], "alphas"))
    return bh_seifert(record_bh(record))


def invariants_block(inv: SeifertInvariants, gorenstein: bool, rational: bool) -> dict:
    return {
        "e": fmt(inv.e),
        "alpha": inv.alpha,
        "gamma": fmt(inv.gamma),
        "orderH": inv.order_h,
        "orbitOrder": inv.orbit_order,
        "numericallyGorenstein": gorenstein,
        "rational": rational,
    }


def semigroup_block(link: Link) -> dict:
    """The semigroup keys shared by `batch` and `semigroup`."""
    return {
        "frobenius": link.ap.frobenius,
        "trivial": link.sf.trivial,
        "generators": minimal_generators(link),
        "apery": link.ap.apery,  # json writes a tuple as a list
        "gaps": link.ap.gaps,
    }


def full_report(record: dict) -> dict:
    """The canonical per-record result object (used by `batch`)."""
    cls = record_bh(record) if "bh" in record else None
    link = Link(record_seifert(record) if cls is None else bh_seifert(cls))
    out = _start(record)
    raw = frobenius_module_raw(link)  # first, so the module pass runs here and not in symmetry_report
    out["invariants"] = invariants_block(link.inv, link.gorenstein, raw < 0)
    semi = semigroup_block(link)
    semi["symmetric"] = link.sf.trivial or symmetry_report(link).symmetric
    out["semigroup"] = semi
    out["module"] = {"frobenius": raw, "min": min_module(link)}
    if cls is not None:
        gens, minimal = bh_generators(cls), semi["generators"]
        if link.inv.order_h == 1:  # m = 1 in case (i): both lists are the theorem's, so sieve the theorem's Ap
            minimal = verification.ihs_theorem(link)
        check_generators(link, gens, minimal)
        out["bh"] = {
            "case": cls.case,
            "m": cls.m,
            "c": cls.c,
            "p": list(cls.p),
            "generators": gens,
            "seifert": {"b0": link.sf.b0, "legs": [list(leg) for leg in link.sf.legs]},
        }
    return out


# ---------------------------------------------------------------------------
# Subcommands: the JSON ones fill ``out`` for a parsed ``record``


def cmd_info(record: dict, out: dict, args) -> None:
    sf = record_seifert(record)
    rational = laufer.frobenius_module(sf.graph) < 0
    out["invariants"] = invariants_block(sf.inv, is_numerically_gorenstein(sf), rational)
    out["zk"] = fmt_cycle(canonical_cycle(sf.graph))


def _by_method(method: str, formula, brute, what: str = "") -> int:
    """The value of the ``formula`` or ``brute`` route, or of both when they agree."""
    if method != "both":
        return formula() if method == "formula" else brute()
    return verification.agree(formula(), brute(), what)


def cmd_frobenius(record: dict, out: dict, args) -> None:
    sf = record_seifert(record)
    out["method"] = args.method
    semi = out["semigroup"] = {"trivial": sf.trivial, "frobenius": -1}
    if not sf.trivial:
        semi["frobenius"] = _by_method(
            args.method, lambda: frobenius_by_formula(sf), lambda: frobenius_bruteforce(sf)
        )
    # each module route decides rationality by its sign, so "both" compares that too
    raw = _by_method(
        args.method, lambda: laufer.frobenius_module(sf.graph), lambda: frobenius_bruteforce(sf, "module"), "module "
    )
    out["module"] = {"rational": raw < 0, "frobenius": None if raw < 0 else raw}


def cmd_semigroup(record: dict, out: dict, args) -> None:
    link = Link(record_seifert(record))
    up_to = args.up_to if args.up_to is not None else max(0, ceil_frac(link.inv.gamma))
    out["invariants"] = invariants_block(link.inv, link.gorenstein, frobenius_module_raw(link) < 0)
    out["members"] = list(filter(link.in_semigroup, range(up_to + 1)))
    out["semigroup"] = semigroup_block(link)
    if not link.sf.trivial:
        rep = symmetry_report(link)
        out["symmetry"] = {
            "symmetric": rep.symmetric,
            "witnesses": [list(w) for w in rep.witnesses],
            "modulePrincipal": rep.module_principal,
        }
    poin = poincare(link.sf, up_to)
    out["poincare"] = {"p0": poin.p0, "p0Plus": poin.p0_plus, "pg": poin.pg}  # json writes tuples as lists


def cmd_laufer(record: dict, out: dict, args) -> None:
    g = record_seifert(record).graph
    zk = canonical_cycle(g)
    if args.class_rep == "zk":
        r = class_rep(zk)
    elif args.class_rep == "zk+e0":
        r = class_rep(zk + g.e0_star)
    else:
        r = class_rep(zero_cycle(g.n))
    sc = g.scalars
    if args.trace or args.class_rep == "zero":
        result, steps = laufer.to_antinef(g, r, trace=args.trace)
    else:  # the scalars already ran the sequences of [Z_K] and [Z_K + E_0^*]
        result = sc.s_cycle if args.class_rep == "zk" else sc.s_check_cycle
    out["class"] = args.class_rep
    out["r"] = fmt_cycle(r)
    out["sH"] = fmt_cycle(result)
    out["scalars"] = {
        "delta": sc.delta,
        "Delta": sc.big_delta,
        "s": fmt(sc.s),
        "sCheck": fmt(sc.s_check),
    }
    if args.trace:
        out["trace"] = [
            f"step {k}: +E_{v}, chi={chi_val}"
            for k, (v, chi_val) in enumerate(steps, start=1)
        ]


def cmd_bh(record: dict, out: dict, args) -> None:
    if "bh" not in record:
        raise ValueError("the bh command needs a {'bh': [...]} record")
    cls = record_bh(record)
    out["exponents"] = list(cls.exponents)
    out["case"] = cls.case
    if cls.case != NOT_QHS:
        sf = bh_seifert(cls)
        out["m"] = cls.m
        out["c"] = cls.c
        out["p"] = list(cls.p)
        out["seifert"] = {"b0": sf.b0, "legs": [list(leg) for leg in sf.legs]}
        out["generators"] = bh_generators(cls)


def cmd_verify(args) -> int:
    if args.random is not None:
        if args.record is not None:
            raise ValueError("verify takes a record or --random K, not both")
        for option, value, least in (
            ("--random", args.random, 0),
            ("--max-alpha", args.max_alpha, 2),
            ("--max-legs", args.max_legs, 3),
        ):
            if value < least:
                raise ValueError(f"{option} must be at least {least}, got {value}")
        results = verification.verify_random(
            args.random, seed=args.seed, max_alpha=args.max_alpha, max_legs=args.max_legs
        )
    else:
        if args.record is None:
            raise ValueError("verify needs a record or --random K")
        sf = record_seifert(parse_record(json.loads(_read_record(args.record))))
        results = verification.verify_seifert(sf, random.Random(args.seed))
    failed = 0
    for res in results:
        status = "ok  " if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"{status} {res.name}{detail}")
        if not res.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# Each CSV column after "id" and "error", and its (section, key) in a full report.
_CSV_SOURCE = {
    "e": ("invariants", "e"), "alpha": ("invariants", "alpha"), "gamma": ("invariants", "gamma"),
    "orderH": ("invariants", "orderH"), "orbitOrder": ("invariants", "orbitOrder"),
    "numericallyGorenstein": ("invariants", "numericallyGorenstein"), "rational": ("invariants", "rational"),
    "semigroupFrobenius": ("semigroup", "frobenius"), "trivial": ("semigroup", "trivial"),
    "gaps": ("semigroup", "gaps"), "symmetric": ("semigroup", "symmetric"),
    "moduleFrobenius": ("module", "frobenius"), "moduleMin": ("module", "min"),
}


def _batch_one(line: str) -> tuple[str, int]:
    """Process one JSONL record; returns (result line, exit code): 2 on a VerificationError, 1 on any other."""
    obj = None
    try:
        obj = json.loads(line)
        return json.dumps(full_report(parse_record(obj))), EXIT_OK
    except Exception as ex:  # noqa: BLE001 - per-record error reporting
        ident = obj.get("id", "") if isinstance(obj, dict) else ""
        code = EXIT_VERIFY if isinstance(ex, VerificationError) else EXIT_INPUT
        return json.dumps({"id": ident, "error": str(ex) or type(ex).__name__}), code


def cmd_batch(args) -> int:
    import csv  # batch alone needs csv and the process pool, so one-shot commands skip their imports
    from concurrent.futures import ProcessPoolExecutor

    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    with open(args.infile, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    workers = min(args.jobs, len(lines))  # the pool forks every worker on its first submit
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_batch_one, lines, chunksize=8))
    else:
        outcomes = [_batch_one(line) for line in lines]
    code = max((c for _, c in outcomes), default=EXIT_OK)

    if args.format == "csv" or (args.out and args.out.endswith(".csv") and args.format == "auto"):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "error", *_CSV_SOURCE])
        for text, c in outcomes:
            result = json.loads(text)
            cells = [""] * len(_CSV_SOURCE) if c else [result[s][k] for s, k in _CSV_SOURCE.values()]
            writer.writerow([result.get("id", ""), result.get("error", ""), *cells])
        payload = buf.getvalue()
    else:
        payload = "".join(text + "\n" for text, _ in outcomes)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


# ---------------------------------------------------------------------------
# Wiring


def _read_record(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _run(body, args) -> int:
    """The frame of a JSON command: read and parse the record, open the result
    with its id, let ``body`` fill it, print it as one line."""
    record = parse_record(json.loads(_read_record(args.record)))
    out = _start(record)
    body(record, out, args)
    print(json.dumps(out))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an input error: one ``error:`` line from :func:`main`, exit 1."""
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state on it."""
    parser = _Parser(
        prog="seifert-semigroup",
        description="Numerical semigroups of negative-definite Seifert rational homology spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def json_command(name, body, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("record", help="JSON record, @file, or - for stdin")
        p.set_defaults(func=lambda args: _run(body, args))
        return p

    json_command("info", cmd_info, "invariants and the canonical cycle")
    p = json_command("frobenius", cmd_frobenius, "Frobenius numbers of the semigroup and module")
    p.add_argument("--method", choices=["formula", "brute", "both"], default="both")
    p = json_command("semigroup", cmd_semigroup, "membership, generators, Apery set, symmetry, Poincare data")
    p.add_argument("--up-to", type=int, default=None, dest="up_to")
    p = json_command("laufer", cmd_laufer, "computation-sequence scalars and optional trace")
    p.add_argument("--class", choices=["zk", "zk+e0", "zero"], default="zk", dest="class_rep")
    p.add_argument("--trace", action="store_true")
    json_command("bh", cmd_bh, "Brieskorn-Hamm classification, Seifert data and generators")

    p = sub.add_parser("verify", help="run the invariant/oracle suite; nonzero exit on failure")
    p.add_argument("record", nargs="?", default=None, help="JSON record, @file, or - for stdin")
    p.add_argument("--random", type=int, default=None, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-alpha", type=int, default=30, dest="max_alpha")
    p.add_argument("--max-legs", type=int, default=5, dest="max_legs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="process a JSONL file of records")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["auto", "jsonl", "csv"], default="auto")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except VerificationError as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, KeyError, OSError, MemoryError) as ex:
        print(f"error: {str(ex) or type(ex).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
