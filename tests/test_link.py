"""Every Link quantity against a direct scan of N written here.

The oracle evaluates N from its definition and scans windows fixed by the
elementary bounds |e|*ell - d <= N(ell) <= |e|*ell, so it shares nothing
with the period table: below -2/|e| every level has N <= -2, above d/|e|
every level has N >= 0.
"""

import math
from fractions import Fraction
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seifert_semigroup import (
    Link,
    SeifertData,
    apery_selmer,
    gorenstein_symmetry_check,
    ihs_from_alphas,
    is_rational_link,
    min_module,
    minimal_generators,
    symmetry_report,
)
from seifert_semigroup.semigroup import frobenius_module_raw


def big_n(sf, ell):
    return sf.b0 * ell - sum(-(-ell * w // a) for a, w in sf.legs)


def ceil(x: Fraction) -> int:
    return -(-x.numerator // x.denominator)


@st.composite
def seifert_data(draw):
    legs = []
    for _ in range(draw(st.integers(3, 4))):
        a = draw(st.integers(2, 7))
        legs.append((a, draw(st.sampled_from([w for w in range(1, a) if math.gcd(w, a) == 1]))))
    total = sum(Fraction(w, a) for a, w in legs)
    return SeifertData(math.floor(total) + 1 + draw(st.integers(0, 1)), tuple(legs))


@settings(max_examples=150, deadline=None)
@given(seifert_data())
@example(ihs_from_alphas((2, 3, 5)))
@example(ihs_from_alphas((2, 3, 7)))
@example(SeifertData(1, ((4, 1), (4, 1), (4, 1), (10, 1), (40, 1))))
@example(SeifertData(2, ((2, 1), (2, 1), (3, 1), (3, 1), (7, 1), (7, 1), (84, 1))))
@example(SeifertData(4, ((2, 1), (3, 2), (5, 4))))
def test_link_matches_direct_scans(sf):
    n = partial(big_n, sf)
    alpha = math.lcm(*(a for a, _ in sf.legs))
    top = ceil(Fraction(sf.d) / -sf.e)
    bottom = -ceil(Fraction(2) / -sf.e)

    apery = tuple(next(ell for ell in range(r, top + alpha + 1, alpha) if n(ell) >= 0) for r in range(alpha))
    gaps = [ell for ell in range(top + 1) if n(ell) < 0]
    f = max(gaps, default=-1)
    module_min = next(ell for ell in range(bottom, top + 1) if n(ell) >= -1)
    module_raw = max(ell for ell in range(bottom, top + 1) if n(ell) <= -2)
    m = next(ell for ell in range(1, top + 2) if n(ell) >= 0)
    members = [s for s in range(1, max(f, 0) + m + 1) if n(s) >= 0]
    member_set = set(members)
    generators = [s for s in members if not any(s - t in member_set for t in members if t < s)]

    link = Link(sf)
    assert link.inv.alpha == alpha
    assert apery_selmer(link).apery == apery
    assert link.ap.frobenius == f
    assert link.ap.gaps == len(gaps)
    assert min_module(link) == module_min
    assert frobenius_module_raw(link) == module_raw
    assert (frobenius_module_raw(link) < 0) == (module_raw < 0) == is_rational_link(sf)
    assert minimal_generators(link) == generators
    window = range(bottom - alpha, top + alpha + 1)
    assert [ell for ell in window if link.in_semigroup(ell)] == [ell for ell in window if n(ell) >= 0]
    assert [ell for ell in window if link.n(ell) >= -1] == [ell for ell in window if n(ell) >= -1]

    if sf.trivial:
        return
    witnesses = tuple((ell, f - ell) for ell in range(f // 2 + 1) if (n(ell) >= 0) == (n(f - ell) >= 0))
    hi = top + abs(module_min) + 1  # above hi, both sides hold every level
    principal = all((n(ell) >= -1) == (n(ell - module_min) >= 0) for ell in range(module_min, hi + 1))
    rep = symmetry_report(link)
    assert rep.witnesses == witnesses
    assert rep.symmetric == (not witnesses)
    assert rep.module_principal == principal
    if link.gorenstein:
        gamma = int(link.inv.gamma)
        assert all((n(ell) == -1) == (n(ell) < 0 and n(gamma - ell) < 0) for ell in window)
        gorenstein_symmetry_check(link)
