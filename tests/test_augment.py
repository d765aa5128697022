import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from seifert_semigroup import (
    SeifertData,
    VerificationError,
    augment,
    build_graph,
    c_n,
    canonical_cycle,
    class_rep,
    cycle,
    dual_cycle,
    frobenius_bruteforce,
    invariants,
    is_antinef,
    pairing,
    to_antinef,
    unit_cycle,
    verify_prop_comp,
    zk_identity_check,
)
from seifert_semigroup.augment import _prop_comp_once, quasilinear_shift_holds, threshold
from seifert_semigroup.seifert import quasilinear_values
from seifert_semigroup.semigroup import Link, gap_window
from seifert_semigroup.verification import random_seifert

from conftest import count_calls, gap_flags, seeded_rng


def test_augment_builds_golden_pair(sf_base4, sf_star70):
    pair = augment(sf_base4, 70)
    assert pair.augmented == sf_star70
    assert build_graph(pair.augmented) == build_graph(sf_star70)
    assert pair.augmented.e == F(-12, 35)
    assert pair.plus_vertex == 5


def test_augment_rejects_small_n(sf_base4):
    # 1/|e| = 14/5, so n = 2 makes the Euler number nonnegative
    with pytest.raises(ValueError):
        augment(sf_base4, 2)
    with pytest.raises(ValueError):
        augment(sf_base4, 0)


def test_quasilinear_shift(sf_base4, sf_gor7):
    pair = augment(sf_base4, 70)
    inv = invariants(sf_base4)
    assert quasilinear_shift_holds(pair, -2 * inv.alpha, 3 * inv.alpha)
    base2 = SeifertData(2, ((2, 1), (2, 1), (3, 1), (3, 1), (7, 1), (7, 1)))
    pair2 = augment(base2, 84)
    assert pair2.augmented == sf_gor7
    assert quasilinear_shift_holds(pair2, -100, 300)


def test_zk_identity_golden(sf_base4):
    pair = augment(sf_base4, 70)
    zk_identity_check(pair)
    assert c_n(sf_base4, 70) == F(13, 12)
    # the closed form reproduces the canonical cycle of the six-vertex star
    zk70 = canonical_cycle(build_graph(pair.augmented))
    assert zk70 == cycle([F(47, 6), F(13, 6), F(13, 6), F(11, 6), F(19, 12), F(13, 12)])


def test_zk_identity_random():
    rng = seeded_rng(40)
    for _ in range(12):
        sf = random_seifert(rng, max_alpha=12, alpha_cap=3000, window_cap=8000)
        inv = invariants(sf)
        n = max(2, int(1 / (-inv.e)) + 1 + rng.randint(0, 5))
        if sf.e + F(1, n) >= 0:
            n += 1
        pair = augment(sf, n)
        zk_identity_check(pair)


def test_projection_operators(sf_base4):
    pair = augment(sf_base4, 70)
    g = pair.base.graph
    gn = pair.augmented.graph
    assert pair.project(pair.e_plus()) == -1 * dual_cycle(g, 0)
    for v in range(g.n):
        assert pair.project(pair.include(unit_cycle(g.n, v))) == unit_cycle(g.n, v)
        # j preserves the pairing on old vertices
        for u in range(g.n):
            assert pairing(
                gn, pair.include(unit_cycle(g.n, u)), pair.include(unit_cycle(g.n, v))
            ) == pairing(g, unit_cycle(g.n, u), unit_cycle(g.n, v))


def test_projection_formula_random(sf_base4):
    rng = seeded_rng(41)
    pair = augment(sf_base4, 70)
    g, gn = pair.base.graph, pair.augmented.graph
    for _ in range(25):
        lp = cycle([F(rng.randint(-6, 6), rng.choice([1, 2, 5])) for _ in range(gn.n)])
        l = cycle([rng.randint(-4, 4) for _ in range(g.n)])
        assert pairing(g, pair.project(lp), l) == pairing(gn, lp, pair.include(l))


def test_projected_minimal_representative_is_minimal(sf_base4):
    """The projection of s_[Z_K(n)] is the minimal anti-nef cycle of its class."""
    rng = seeded_rng(42)
    bases = [sf_base4] + [
        random_seifert(rng, max_alpha=8, alpha_cap=500, window_cap=2000) for _ in range(5)
    ]
    for sf in bases:
        inv = invariants(sf)
        n = max(2, int(1 / (-inv.e)) + 2)
        pair = augment(sf, n)
        gn = pair.augmented.graph
        g = pair.base.graph
        s_n, _ = to_antinef(gn, class_rep(canonical_cycle(gn)))
        proj = pair.project(s_n)
        assert is_antinef(g, proj)
        minimal, _ = to_antinef(g, class_rep(proj))
        assert proj == minimal


def test_prop_comp_golden(sf_base4):
    verify_prop_comp(Link(sf_base4), gap_flags(sf_base4, 300))
    # the explicit claim: n = 70 is already big enough
    assert verify_prop_comp(Link(sf_base4), gap_flags(sf_base4, 300), n=70) == 70


def test_prop_comp_84_interpretation(sf_gor7):
    """The seven-leg graph is the 84-augmentation of its six-leg base, but 84
    sits one below the threshold n* = 85: membership differs exactly at level
    85.  The check at n* clears it."""
    base = SeifertData(2, ((2, 1), (2, 1), (3, 1), (3, 1), (7, 1), (7, 1)))
    pair = augment(base, 84)
    assert pair.augmented == sf_gor7
    gaps = gap_flags(base, 300)
    assert gaps.rfind(1) == frobenius_bruteforce(base)
    assert "ell = 85" in _prop_comp_once(pair, gaps, gaps.rfind(1))
    assert verify_prop_comp(Link(base), gaps) == 85


def test_prop_comp_threshold_lies_above_the_old_start_value():
    """The old adaptive start n = 20 is not enough here; the threshold is n* = 37."""
    sf = SeifertData(1, ((18, 5), (6, 1), (2, 1)))
    with pytest.raises(VerificationError, match="membership differs at ell = 21"):
        verify_prop_comp(Link(sf), gap_flags(sf, 33), n=20)
    assert verify_prop_comp(Link(sf), gap_flags(sf, 33)) == 37


@pytest.mark.parametrize(
    "sf, n_star, message",
    [
        (SeifertData(1, ((18, 5), (6, 1), (2, 1))), 37, "module Frobenius 37 != semigroup Frobenius 19"),
        (SeifertData(2, ((2, 1), (2, 1), (3, 1), (3, 1), (7, 1), (7, 1))), 85, "ell = 85"),
        (SeifertData(1, ((5, 1), (5, 1), (7, 1), (10, 1))), 6, "ell = 6"),
    ],
    ids=["18-6-2", "gor7-base", "base4"],
)
def test_threshold_pinned(sf, n_star, message):
    """n* on three records; one below it the check fails with the message of the explicit run."""
    gaps = gap_window(sf)
    assert threshold(Link(sf)) == n_star
    assert verify_prop_comp(Link(sf), gaps) == n_star
    with pytest.raises(VerificationError, match=message):
        verify_prop_comp(Link(sf), gaps, n=n_star - 1)


@st.composite
def small_records(draw):
    """Seeded random_seifert draws with alpha at most 60; every third made trivial (b0 = d)."""
    sf = random_seifert(random.Random(draw(st.integers(0, 2**32 - 1))), max_legs=4, max_alpha=6)
    return SeifertData(sf.d, sf.legs) if draw(st.integers(0, 2)) == 0 else sf


@settings(max_examples=60, deadline=None)
@given(small_records())
def test_threshold_is_the_least_passing_n(sf):
    """n* is the least admissible n whose augmented module meets Z>=0 in S.
    The window reaches past alpha^2, where a trivial base shows a missing
    multiple of alpha below n* (no Frobenius comparison covers it)."""
    inv = invariants(sf)
    gaps = gap_flags(sf, int(inv.alpha + inv.gamma) + inv.alpha * (inv.alpha + 2))
    n = max(2, int(1 / (-inv.e)) + 1)
    while not _passes_at(Link(sf), gaps, n):
        n += 1
    assert threshold(Link(sf)) == n


def _passes_at(link, gaps, n):
    try:
        verify_prop_comp(link, gaps, n=n)
    except VerificationError:
        return False
    return True


def test_prop_comp_does_not_scan_the_base(monkeypatch, sf_base4):
    gaps = gap_flags(sf_base4, 300)
    calls = count_calls(monkeypatch, quasilinear_values)
    verify_prop_comp(Link(sf_base4), gaps)
    assert [args for args in calls if args[0] == sf_base4] == []


def test_prop_comp_bound_must_reach_the_window(sf_base4):
    inv = invariants(sf_base4)  # alpha + gamma = 73
    with pytest.raises(ValueError):
        verify_prop_comp(Link(sf_base4), gap_flags(sf_base4, int(inv.alpha + inv.gamma) - 1))
    verify_prop_comp(Link(sf_base4), gap_flags(sf_base4, int(inv.alpha + inv.gamma)))


def test_prop_comp_trivial_base():
    sf = SeifertData(4, ((2, 1), (3, 2), (5, 4)))  # b0 >= d: semigroup is N
    verify_prop_comp(Link(sf), gap_flags(sf, 120), n=40)


def test_prop_comp_random():
    rng = seeded_rng(43)
    for _ in range(8):
        sf = random_seifert(rng, max_alpha=10, alpha_cap=800, window_cap=2500)
        inv = invariants(sf)
        bound = int(inv.alpha + inv.gamma) + 5
        verify_prop_comp(Link(sf), gap_flags(sf, bound))
