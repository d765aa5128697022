"""Self-verification suites: invariants, oracles and theorem agreement.

Each check compares an independent computation route against the production
one (brute-force scans against lattice formulas, the determinant of the
intersection matrix against the invariant product, restricted-ladder duality
against the quasi-linear function, ...).  The `verify` CLI command runs these
on a given input or on a seeded stream of random Seifert data and reports
one line per check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import laufer, semigroup
from .augment import verify_prop_comp
from .errors import RationalLinkError, VerificationError
from .lattice import (
    canonical_cycle,
    class_rep,
    dual_basis,
    group_order,
    pairing_with_vertex,
    vertex_pairings,
    zero_cycle,
)
from .seifert import SeifertData, ceil_div, floor_frac, quasilinear
from .semigroup import (
    Link,
    frobenius_bruteforce,
    frobenius_by_formula,
    gap_window,
    symmetry_report,
)


# Draws before random_seifert and random_coprime_alphas give up; max_alpha = 1000 needs a few hundred.
MAX_DRAWS = 10_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def agree(formula, brute, what: str = ""):
    """``formula``, the value of a lattice route, if it equals ``brute``, that of a scan; else VerificationError."""
    if formula != brute:
        raise VerificationError(f"{what}formula {formula} != brute {brute}")
    return formula


def rational_or(route, *args):
    """``route(*args)``, or "rational" where that module Frobenius route raises RationalLinkError."""
    try:
        return route(*args)
    except RationalLinkError:
        return "rational"


def random_seifert(
    rng: random.Random,
    max_legs: int = 5,
    max_alpha: int = 30,
    alpha_cap: int = 60_000,
    window_cap: int = 120_000,
) -> SeifertData:
    """Seeded random valid Seifert data with bounded scan windows.

    b0 is the least value making e negative, occasionally bumped to cover
    trivial/rational cases; inputs whose alpha or alpha + gamma exceed the
    caps are rejected so downstream scans stay desk-scale.  After
    ``MAX_DRAWS`` rejected draws it raises ValueError, as ``max_alpha`` is
    then too large for the caps.
    """
    for _ in range(MAX_DRAWS):
        d = rng.randint(3, max_legs)
        legs = []
        for _ in range(d):
            a = rng.randint(2, max_alpha)
            w = rng.randrange(1, a)
            while math.gcd(w, a) != 1:
                w = rng.randrange(1, a)
            legs.append((a, w))
        total = sum(Fraction(w, a) for a, w in legs)
        b0 = floor_frac(total) + 1 + (1 if rng.random() < 0.15 else 0)
        sf = SeifertData(b0, tuple(legs))
        inv = sf.inv
        if inv.alpha > alpha_cap or inv.alpha + inv.gamma > window_cap:
            continue
        return sf
    raise ValueError(
        f"no Seifert data within alpha_cap = {alpha_cap} and window_cap = {window_cap} "
        f"in {MAX_DRAWS} draws with max_alpha = {max_alpha}; lower --max-alpha"
    )


def random_coprime_alphas(rng: random.Random, d: int, max_alpha: int = 25, product_cap: int = 20_000):
    """Seeded random pairwise-coprime tuple of d alphas in [2, max_alpha] with product at most
    ``product_cap``; ValueError after ``MAX_DRAWS`` alphas (or, for d = 0, tuples) are drawn."""
    draws = 0
    for _ in range(MAX_DRAWS):
        alphas = []
        while len(alphas) < d and draws < MAX_DRAWS:
            draws += 1
            a = rng.randint(2, max_alpha)
            if all(math.gcd(a, b) == 1 for b in alphas):
                alphas.append(a)
        if len(alphas) == d and math.prod(alphas) <= product_cap:
            return tuple(alphas)
    raise ValueError(
        f"no d = {d} pairwise coprime alphas in [2, max_alpha = {max_alpha}] with product "
        f"at most product_cap = {product_cap} in {MAX_DRAWS} draws"
    )


def verify_seifert(sf: SeifertData, rng: random.Random | None = None) -> list[CheckResult]:
    """Run the per-input invariant and oracle-agreement suite.

    A check is a condition computed here or a route: a call that returns, or
    raises :class:`VerificationError` with the reason, which fails that check alone.
    """
    rng = rng or random.Random(0)
    inv, g = sf.inv, sf.graph
    zk = canonical_cycle(g)
    results: list[CheckResult] = []

    def check(name, condition, detail=""):
        results.append(CheckResult(name, bool(condition), "" if condition else detail))

    def route(name, fn, *args, quiet=False):
        """fn(*args) as check ``name``: a VerificationError fails it with its text; a return
        passes it, with no line if ``quiet``."""
        try:
            fn(*args)
        except VerificationError as ex:
            check(name, False, str(ex))
        else:
            if not quiet:
                check(name, True)

    order = group_order(g)
    check("smith_order", order == inv.order_h, f"|det I| = {order} != alpha_1..alpha_d*|e| = {inv.order_h}")
    check("gamma_is_central_zk_coefficient", zk[0] == inv.gamma + 1, f"m0(Z_K) = {zk[0]}")
    duals = dual_basis(g)
    # one table of pairings: row v holds L_v*(E_v^*, E_w) over w, L_v the denominator of E_v^*
    table = [(d.den, vertex_pairings(g, d.num)) for d in duals]
    ok = all(
        row[w] == (-scale if v == w else 0)
        for v, (scale, row) in enumerate(table)
        for w in range(g.n)
    )
    check("dual_pairings", ok, "E_v^* pairings are not -delta")
    check("duals_antinef", all(p <= 0 for _, row in table for p in row), "a dual cycle is not anti-nef")
    check(
        "adjunction_residual",
        all(pairing_with_vertex(g, zk, v) == g.euler[v] + 2 for v in range(g.n)),
        "adjunction equations not satisfied exactly",
    )

    alpha, o = inv.alpha, inv.orbit_order
    sample = sorted(rng.sample(range(0, 3 * alpha + 1), min(60, 3 * alpha + 1)))
    check(
        "quasi_periodicity",
        all(quasilinear(sf, ell + alpha) == quasilinear(sf, ell) + o for ell in sample),
        "N(ell + alpha) != N(ell) + o",
    )
    lo_bound = -(alpha - 1) * (-inv.e) - sf.d
    diffs = ((ell % alpha, quasilinear(sf, ell) - ceil_div(ell, alpha) * o) for ell in sample)
    check("quasilinear_bounds", all(lo_bound <= diff <= -1 if r else diff == 0 for r, diff in diffs),
          "N(ell) - ceil(ell/alpha)*o out of range")
    start = floor_frac(inv.alpha + inv.gamma)
    probe = rng.sample(range(start + 1, start + 2 * alpha + 1), min(40, 2 * alpha))
    check("nonnegative_beyond_window", all(quasilinear(sf, ell) >= 0 for ell in probe),
          "N < 0 beyond alpha + gamma")

    # tie-break invariance of the computation sequence on a few random starts
    ok = True
    for _ in range(3):
        if rng.random() < 0.5:
            start_cycle = class_rep(zk)
        else:
            start_cycle = class_rep(sum((rng.randint(0, 2) * d for d in duals), zero_cycle(g.n)))
        endpoints = {
            laufer.to_antinef(g, start_cycle, strategy="min")[0],
            laufer.to_antinef(g, start_cycle, strategy="max")[0],
            laufer.to_antinef(g, start_cycle, strategy="random", rng=rng, trace=True)[0],
        }
        ok &= len(endpoints) == 1
    check("tie_break_invariance", ok, "computation sequence endpoint depends on vertex choices")

    # theorem vs brute force: one period table against one brute scan of N over [0, alpha + gamma]
    link = Link(sf)
    ap = link.ap
    if not sf.trivial:
        gaps = gap_window(sf)
        f_brute = gaps.rfind(1)
        route("semigroup_frobenius_agreement", lambda: agree(frobenius_by_formula(sf), f_brute))
        check("selmer_agreement", ap.frobenius == f_brute, f"Selmer {ap.frobenius} != {f_brute}")
        check("gap_count_agreement", ap.gaps == gaps.count(1), f"gap formula {ap.gaps} != direct count")
        route("symmetry_principality", symmetry_report, link, quiet=True)  # symmetry vs principality
        if link.gorenstein:
            check("gorenstein_min_plus_frobenius",
                  link.module_min + f_brute == inv.gamma,
                  "min(M) + f_S != gamma")
            route("gorenstein_symmetry", semigroup.gorenstein_symmetry_check, link)
    else:
        check("trivial_semigroup", ap.frobenius == -1 and ap.gaps == 0 and quasilinear(sf, 1) >= 0,
              "b0 >= d must give the full semigroup")
        gaps = bytes(start + 1)  # gap_window(sf): S = Z>=0 has no gap
    # both module routes decide rationality, so they are compared on every record
    route("module_frobenius_agreement", lambda: agree(
        rational_or(laufer.frobenius_module, g), rational_or(frobenius_bruteforce, sf, "module"), "module "))

    # ladder duality, when the ladder is short enough to walk
    if g.scalars.big_delta <= 400:
        route("ladder_duality", laufer.dual_check, sf)

    # module/semigroup comparison through the augmentation, which reuses the table and the scan
    if inv.alpha + inv.gamma <= 3000:
        route("augmented_module_stabilises", verify_prop_comp, link, gaps)

    return results


def verify_random(
    count: int,
    seed: int,
    max_alpha: int = 30,
    max_legs: int = 5,
) -> list[CheckResult]:
    """Aggregate the per-input suite over ``count`` seeded random inputs."""
    rng = random.Random(seed)
    tallies: dict[str, list[int]] = {}
    failures: dict[str, str] = {}
    for index in range(count):
        sf = random_seifert(rng, max_legs=max_legs, max_alpha=max_alpha)
        for res in verify_seifert(sf, rng):
            tally = tallies.setdefault(res.name, [0, 0])
            tally[1] += 1
            if res.passed:
                tally[0] += 1
            elif res.name not in failures:
                failures[res.name] = f"input #{index} {sf}: {res.detail}"
    return [
        CheckResult(
            name,
            passed == total,
            f"{passed}/{total}" + ("" if passed == total else f"; first failure: {failures[name]}"),
        )
        for name, (passed, total) in sorted(tallies.items())
    ]
