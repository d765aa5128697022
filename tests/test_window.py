"""The gap window of N against the full-period table it replaced.

``Link`` reads N only on [-floor(alpha/o), w), w = min(alpha, floor(gamma +
alpha/o) + 1), by the bound |e|*ell - (d - sum_i 1/alpha_i) <= N(ell) <=
|e|*ell.  Here the window's Apery set, module, generators and symmetry
report are compared with the derivations off ``Link.n`` and the since
deleted ``Link.least`` that the package used before, kept verbatim; the
bound is tested as a lemma; and ``verify``'s Apery certificate is shown to
catch a moved tail entry that Selmer's formulas, read off the window's head,
do not see.
"""

import dataclasses
import json
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from itertools import cycle, islice, repeat
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seifert_semigroup import SeifertData, VerificationError, cli, semigroup, seifert
from seifert_semigroup.brieskorn import bh_seifert, classify
from seifert_semigroup.semigroup import (
    Link,
    ModuleData,
    _generators_from_apery,
    frobenius_bruteforce,
    minimal_generators,
    selmer,
    symmetry_report,
)
from seifert_semigroup.verification import random_seifert

from conftest import count_calls, seeded_rng

BH_6_10_14 = bh_seifert(classify([6, 10, 14]))  # alpha = 105, o = 2: w is clipped to alpha


def _least(link, level):
    """Link.least, gone from the package: the least ell = r (mod alpha) with N(ell) >= level, for
    r = 0, ..., alpha - 1 (lazy), off the period table ``link.n``."""
    alpha, o = link.inv.alpha, link.inv.orbit_order
    steps = link.n.base if level == 0 else map((-level).__add__, link.n.base)
    steps = steps if o == 1 else map(operator.floordiv, steps, repeat(o))
    return map(operator.sub, range(alpha), map(alpha.__mul__, steps))


def _period_module(link):
    """Link.module before the window: the m_r off least(-1), and the rotated principality check."""
    alpha, apery = link.inv.alpha, tuple(_least(link, 0))
    minima = list(_least(link, -1))
    lo = min(minima)
    rotated = map(lo.__add__, islice(cycle(apery), -lo % alpha, None))
    return ModuleData(min=lo, frobenius_raw=max(minima) - alpha, principal=all(map(operator.eq, minima, rotated)))


def _period_symmetry(link):
    """symmetry_report's verdicts off the period table's Ap and the rotated principality check."""
    ap = selmer(tuple(_least(link, 0)))
    member = lambda ell: ell >= ap.apery[ell % len(ap.apery)]  # noqa: E731
    witnesses = tuple((ell, ap.frobenius - ell) for ell in range(ap.frobenius // 2 + 1)
                      if member(ell) == member(ap.frobenius - ell))
    return (not witnesses, witnesses, _period_module(link).principal)


@st.composite
def seifert_records(draw):
    """3-6 legs with alpha_i <= 12 and b0 from its least value up to 2 above: every orbit order from 1
    up past alpha, trivial and rational records among them."""
    legs = []
    for _ in range(draw(st.integers(3, 6))):
        a = draw(st.integers(2, 12))
        legs.append((a, draw(st.sampled_from([w for w in range(1, a) if math.gcd(w, a) == 1]))))
    total = sum(Fraction(w, a) for a, w in legs)
    return SeifertData(math.floor(total) + 1 + draw(st.integers(0, 2)), tuple(legs))


@settings(max_examples=200, deadline=None)
@given(seifert_records())
@example(SeifertData(1, ((2, 1), (3, 1), (8, 1))))  # o = 1, not a homology sphere
@example(SeifertData(2, ((4, 1), (4, 3), (5, 4), (6, 1))))  # o = 2, w clipped to alpha
@example(SeifertData(3, ((6, 1), (6, 5), (8, 7), (12, 1), (12, 11))))  # o = 3, w clipped to alpha
@example(SeifertData(2, ((2, 1), (3, 1), (7, 1))))  # o = 43 > alpha = 42
@example(SeifertData(2, ((7, 1), (11, 1), (13, 1))))  # o = 1691 > alpha = 1001: w = 2
@example(SeifertData(3, ((2, 1), (2, 1), (7, 1))))  # trivial
@example(SeifertData(2, ((2, 1), (2, 1), (7, 1))))  # rational
@example(SeifertData(2, ((2, 1), (2, 1), (7, 6))))  # numerically Gorenstein, o = 2
@example(SeifertData(2, ((2, 1), (2, 1), (3, 1), (3, 1), (7, 1), (7, 1), (84, 1))))  # numerically Gorenstein
@example(BH_6_10_14)
# non-principal with w clipped to alpha: a comparison of M with min(M) + S that stopped at min(M) + w would pass
@example(SeifertData(3, ((2, 1), (4, 1), (4, 1), (4, 1), (4, 1), (4, 3), (8, 1), (8, 1))))
@example(SeifertData(3, ((4, 1), (4, 3), (4, 3), (6, 1), (8, 3), (8, 5))))
def test_the_window_equals_the_period_table(sf):
    link = Link(sf)
    assert link.ap == selmer(tuple(_least(link, 0)))
    assert link.module == _period_module(link)
    assert minimal_generators(link) == _generators_from_apery(link.ap.apery)
    if not sf.trivial:
        rep = symmetry_report(link)
        assert (rep.symmetric, rep.witnesses, rep.module_principal) == _period_symmetry(link)


def test_the_bh_record_compares_its_module_past_the_clipped_window():
    """w = alpha = 105 is below floor(gamma + alpha/o) + 1 = 192, so principality reads N past the period."""
    link = Link(BH_6_10_14)
    assert (link.inv.alpha, link.inv.orbit_order, link.w, link.top, link.bottom) == (105, 2, 105, 192, -52)
    assert link.module == _period_module(link)
    assert minimal_generators(link) == [15, 21, 35]


@settings(max_examples=100, deadline=None)
@given(seifert_records(), st.integers(-60, 0), st.integers(1, 60))
@example(SeifertData(2, ((7, 1), (11, 1), (13, 1))), -2, 3)  # stop - start = 5 < min alpha_i
@example(SeifertData(1, ((4, 1), (4, 1), (4, 1), (10, 1), (40, 1))), -7, 5)  # -7 = 1, 3, 33 mod 4, 10, 40
@example(SeifertData(2, ((7, 1), (11, 1), (13, 1))), -3, 4)  # stop - start = 7 = alpha_1
@example(SeifertData(2, ((2, 1), (3, 1), (100003, 1))), -6, 8)  # one leg with alpha_i far above stop - start
def test_the_tiled_kernel_is_n_over_a_range_about_zero(sf, start, stop):
    assert seifert.quasilinear_tiles(sf, start, stop) == [seifert.quasilinear(sf, ell) for ell in range(start, stop)]


def test_the_window_is_tiled_in_the_space_of_its_range():
    """Each leg's difference block spans at most the window: R2's leg of period 10^9 + 7 costs 2 steps.
    Run in a child under a 100 MiB address-space limit, where a block over the whole period cannot fit."""
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))\n"
        "from seifert_semigroup import SeifertData\n"
        "from seifert_semigroup.semigroup import Link\n"
        "t = time.perf_counter()\n"
        "link = Link(SeifertData(2, ((2, 1), (3, 1), (1000000007, 1))))\n"
        "print(link.bottom, link.w, link.window, time.perf_counter() - t < 1)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "2", "[0,", "-1]", "True"]


def test_the_window_bound_is_a_lemma():
    """|e|*ell - (d - sum_i 1/alpha_i) <= N(ell) <= |e|*ell; so S has no gap at or past floor(gamma + alpha/o) + 1
    (w itself when it is not clipped), M no non-member past floor(gamma) and no member below -floor(alpha/o)."""
    rng = seeded_rng(51)
    for _ in range(120):
        sf = random_seifert(rng, max_legs=6, max_alpha=14, alpha_cap=5000, window_cap=10_000)
        inv, link = sf.inv, Link(sf)
        slack = sf.d - sum(Fraction(1, a) for a, _ in sf.legs)
        for ell in range(-2 * inv.alpha, 2 * inv.alpha + 1, max(1, inv.alpha // 50)):
            assert -inv.e * ell - slack <= seifert.quasilinear(sf, ell) <= -inv.e * ell, (sf, ell)
        bottom = -(inv.alpha // inv.orbit_order)
        assert link.top == math.floor(inv.gamma + Fraction(inv.alpha, inv.orbit_order)) + 1
        if not sf.trivial:
            assert frobenius_bruteforce(sf) < link.top, sf
        assert frobenius_bruteforce(sf, "module") <= math.floor(inv.gamma), sf
        assert seifert.quasilinear(sf, bottom - 1) <= -2, sf
        assert Link(sf).ap.apery[link.w:] == tuple(range(link.w, inv.alpha)), sf


def _tail_moved(monkeypatch):
    """apery_selmer with its first tail entry Ap[w] = w moved up a period; its Selmer numbers, read off the head, stand."""
    exact = semigroup.apery_selmer

    def planted(link):
        ap = exact(link)
        apery = list(ap.apery)
        apery[link.w] += link.inv.alpha
        return dataclasses.replace(ap, apery=tuple(apery))

    monkeypatch.setattr(semigroup, "apery_selmer", planted)


def test_verify_certifies_the_printed_apery_tail(sf_asym5, monkeypatch, capsys):
    record = json.dumps({"seifert": {"b0": sf_asym5.b0, "legs": [list(leg) for leg in sf_asym5.legs]}})
    assert cli.main(["verify", record]) == 0
    _tail_moved(monkeypatch)
    assert Link(sf_asym5).w == 26 < sf_asym5.inv.alpha
    assert cli.main(["verify", record]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert "FAIL apery_certificate  (Ap[26] = 66 is not the least element of S in its class mod 40)" in fails
    assert not any("selmer_agreement" in line or "gap_count_agreement" in line for line in fails)


def test_verify_catches_a_planted_window_kernel_fault(sf_asym5, monkeypatch, capsys):
    """N(1) lowered by o in the window (not in the brute route) moves Ap[1] up a period, and verify exits 2."""
    exact = seifert.quasilinear_tiles

    def planted(sf, start, stop):
        values = exact(sf, start, stop)
        values[1 - start] -= sf.inv.orbit_order
        return values

    monkeypatch.setattr(semigroup, "quasilinear_tiles", planted)
    record = json.dumps({"seifert": {"b0": sf_asym5.b0, "legs": [list(leg) for leg in sf_asym5.legs]}})
    assert cli.main(["verify", record]) == 2
    out = capsys.readouterr().out
    assert "FAIL apery_certificate" in out and "FAIL gap_count_agreement" in out


def test_verify_catches_a_planted_brute_kernel_fault(sf_asym5, monkeypatch, capsys):
    """A +1 in quasilinear_values, the brute route's kernel, is seen against the window, and verify exits 2."""
    exact = seifert.quasilinear_values
    planted = lambda sf, ells: (n + 1 for n in exact(sf, ells))  # noqa: E731
    for module in (seifert, semigroup):
        monkeypatch.setattr(module, "quasilinear_values", planted)
    record = json.dumps({"seifert": {"b0": sf_asym5.b0, "legs": [list(leg) for leg in sf_asym5.legs]}})
    assert cli.main(["verify", record]) == 2
    assert "FAIL gap_count_agreement" in capsys.readouterr().out


def test_the_window_never_evaluates_n_by_the_formula(sf_asym5, monkeypatch):
    calls = count_calls(monkeypatch, seifert.quasilinear_values)
    link = Link(sf_asym5)
    link.ap, link.module, minimal_generators(link), symmetry_report(link)
    assert calls == []


def test_the_apery_certificate_refuses_each_kind_of_wrong_entry(sf_asym5):
    """Against the brute gap flags: a class moved up or down a period, a negative entry, an entry in
    another class and one far past every gap each fail, naming the class; the exact Ap passes."""
    from seifert_semigroup.verification import apery_certificate

    apery, gaps = Link(sf_asym5).ap.apery, semigroup.gap_window(sf_asym5)
    apery_certificate(apery, gaps)
    r = next(r for r, x in enumerate(apery) if x >= 40)  # Ap[r] - 40 is a gap
    for moved in (apery[r] + 40, apery[r] - 40, -40 + r, apery[r] + 1, 10**18 + r):
        wrong = apery[:r] + (moved,) + apery[r + 1:]
        with pytest.raises(VerificationError, match=rf"^Ap\[{r}\] = {moved} is not the least element"):
            apery_certificate(wrong, gaps)
