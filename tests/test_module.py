"""The module M = {N >= -1} of a Link, read once per record.

For orbit order one (every integral homology sphere) ``Link.module`` takes
M = S - alpha without a pass over the m_r; otherwise it makes one pass.  The
homology-sphere branch is checked against direct scans of N written here,
the other against the three separate passes it replaced, kept verbatim.
"""

import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import cycle, islice, repeat
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seifert_semigroup import SeifertData, cli, ihs_from_alphas, seifert, semigroup, symmetry_report

from conftest import count_calls, count_tables

from test_link import big_n, ceil


@st.composite
def coprime_alphas(draw):
    """3-4 pairwise coprime alphas with product at most 5,000."""
    alphas = []
    for _ in range(draw(st.integers(3, 4))):
        room = 5000 // math.prod(alphas)
        choices = [a for a in range(2, min(room, 60) + 1) if all(math.gcd(a, b) == 1 for b in alphas)]
        assume(choices)
        alphas.append(draw(st.sampled_from(choices)))
    return alphas


@settings(max_examples=60, deadline=None)
@given(coprime_alphas())
@example([2, 3, 5])
@example([7, 11, 13])
def test_homology_sphere_module_is_the_shifted_semigroup(alphas):
    """min(M) = -alpha, raw f_M = f - alpha and M principal, against direct scans of N."""
    sf = ihs_from_alphas(alphas)
    n = partial(big_n, sf)
    alpha = math.prod(alphas)
    top = ceil(Fraction(sf.d) / -sf.e)  # N >= 0 above
    bottom = -ceil(Fraction(2) / -sf.e)  # N <= -2 below
    f = max((ell for ell in range(top + 1) if n(ell) < 0), default=-1)
    module_min = next(ell for ell in range(bottom, top + 1) if n(ell) >= -1)
    module_raw = max(ell for ell in range(bottom, top + 1) if n(ell) <= -2)
    hi = top + abs(module_min) + 1  # above hi, both sides hold every level
    principal = all((n(ell) >= -1) == (n(ell - module_min) >= 0) for ell in range(module_min, hi + 1))

    link = semigroup.Link(sf)
    assert link.inv.orbit_order == 1
    assert (module_min, module_raw, principal) == (-alpha, f - alpha, True)
    assert link.module == semigroup.ModuleData(min=module_min, frobenius_raw=module_raw, principal=principal)


def _parent_least(link, level):
    """Link.least before it skipped its identity maps."""
    alpha = link.inv.alpha
    steps = map(operator.floordiv, map((-level).__add__, link.n.base), repeat(link.inv.orbit_order))
    return map(operator.sub, range(alpha), map(alpha.__mul__, steps))


def _three_passes(link):
    """min_module, frobenius_module_raw and symmetry_report's principality, one pass each."""
    minm = min(_parent_least(link, -1))
    raw = max(_parent_least(link, -1)) - link.inv.alpha
    alpha, apery = link.inv.alpha, link.ap.apery
    start = -minm % alpha
    rotated = map(minm.__add__, islice(cycle(apery), start, start + alpha))
    module_principal = all(map(operator.eq, _parent_least(link, -1), rotated))
    return semigroup.ModuleData(min=minm, frobenius_raw=raw, principal=module_principal)


@st.composite
def orbit_order_above_one(draw):
    legs = []
    for _ in range(draw(st.integers(3, 5))):
        a = draw(st.integers(2, 12))
        legs.append((a, draw(st.sampled_from([w for w in range(1, a) if math.gcd(w, a) == 1]))))
    total = sum(Fraction(w, a) for a, w in legs)
    sf = SeifertData(math.floor(total) + 1 + draw(st.integers(0, 2)), tuple(legs))
    assume(sf.inv.orbit_order > 1)
    return sf


@settings(max_examples=150, deadline=None)
@given(orbit_order_above_one())
@example(SeifertData(1, ((4, 1), (4, 1), (4, 1), (10, 1), (40, 1))))
@example(SeifertData(2, ((2, 1), (2, 1), (3, 1), (3, 1), (7, 1), (7, 1), (84, 1))))
def test_one_module_pass_equals_the_three_it_replaced(sf):
    link = semigroup.Link(sf)
    assert link.module == _three_passes(link)
    if not sf.trivial:
        assert symmetry_report(link).module_principal == link.module.principal


def test_a_homology_sphere_report_makes_no_module_pass(monkeypatch):
    """M = S - alpha off the theorem's Ap: no table of N is built, neither the window nor a period."""
    built = count_tables(monkeypatch)
    tiles = count_calls(monkeypatch, seifert.quasilinear_tiles)
    cli.full_report({"alphas": [7, 11, 13]})
    assert (built, tiles) == ([], [])


def test_other_reports_make_one_module_pass(sf_asym5, monkeypatch):
    """The one pass is over the gap window [-8, 26), shorter than alpha = 40: no period table is built,
    the tiled kernel runs once, and the module it gives is the three passes' over the period table."""
    assert sf_asym5.inv.orbit_order > 1
    built = count_tables(monkeypatch)
    tiles = count_calls(monkeypatch, seifert.quasilinear_tiles)
    links = []
    monkeypatch.setattr(cli, "Link", lambda sf: links.append(semigroup.Link(sf)) or links[-1])
    cli.full_report({"seifert": {"b0": sf_asym5.b0, "legs": [list(leg) for leg in sf_asym5.legs]}})
    assert built == []
    assert [args[1:] for args in tiles] == [(-8, 26)]
    (link,) = links
    assert link.module == _three_passes(link)


DISAGREEMENT = """
import dataclasses
from seifert_semigroup import VerificationError, ihs_from_alphas, semigroup, symmetry_report

link = semigroup.Link(ihs_from_alphas((2, 3, 5)))
consistent = link.gorenstein and link.module.principal
link.module = dataclasses.replace(link.module, principal=False)
try:
    symmetry_report(link)
except VerificationError as err:
    print(consistent, err)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_non_principal_verdict_on_a_gorenstein_sphere_is_a_verification_failure(flags):
    """The symmetric semigroup of a Gorenstein link has a principal module, so a
    cached verdict saying otherwise fails the cross-check, with or without -O."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, *flags, "-c", DISAGREEMENT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True Gorenstein symmetry/principality must agree\n"

