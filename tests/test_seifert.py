import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from seifert_semigroup import (
    SeifertData,
    VerificationError,
    build_graph,
    canonical_cycle,
    chi,
    class_rep,
    ihs_from_alphas,
    invariants,
    is_antinef,
    is_numerically_gorenstein,
    is_rational_link,
    quasilinear,
    tau_sequence,
    x_series,
    zero_cycle,
)
from seifert_semigroup import seifert
from seifert_semigroup.seifert import (
    QuasilinearTable,
    floor_frac,
    from_congruence,
    geometric_genus,
    quasilinear_values,
)
from seifert_semigroup.semigroup import frobenius_bruteforce
from seifert_semigroup.verification import random_seifert

from conftest import count_calls, seeded_rng


def test_invariants_golden(sf_base4, sf_asym5, sf_gor7):
    inv = invariants(sf_base4)
    assert inv.e == F(-5, 14)
    assert inv.gamma == F(19, 5)
    assert inv.alpha == 70
    assert inv.order_h == 625
    assert inv.orbit_order == 25
    inv1 = invariants(sf_asym5)
    assert 1 / (-inv1.e) == 8
    assert inv1.gamma == 17
    inv2 = invariants(sf_gor7)
    assert 1 / (-inv2.e) == 28
    assert inv2.gamma == 85


def test_gamma_is_central_canonical_coefficient(sf_star70, sf_base4, sf_asym5, sf_gor7, sf_237):
    for sf in (sf_star70, sf_base4, sf_asym5, sf_gor7, sf_237):
        assert canonical_cycle(build_graph(sf))[0] == invariants(sf).gamma + 1


def test_quasilinear_golden(sf_asym5, sf_237):
    assert quasilinear(sf_asym5, 0) == 0
    for ell in (4, 7, 10, 11, 14, 17):
        assert quasilinear(sf_asym5, ell) == -1
    # N(alpha) = orbit order
    for sf in (sf_asym5, sf_237):
        inv = invariants(sf)
        assert quasilinear(sf, inv.alpha) == inv.orbit_order > 0


def test_quasilinear_negative_below_zero(sf_base4):
    inv = invariants(sf_base4)
    for ell in range(-20, 0):
        assert quasilinear(sf_base4, ell) <= (-inv.e) * ell


def _sf_pool():
    rng = seeded_rng(10)
    return [random_seifert(rng, max_alpha=15, alpha_cap=3000, window_cap=10_000) for _ in range(8)]


@pytest.mark.parametrize("sf", _sf_pool())
def test_quasi_periodicity(sf):
    inv = invariants(sf)
    for ell in range(0, 3 * inv.alpha + 1, max(1, inv.alpha // 17)):
        assert quasilinear(sf, ell + inv.alpha) == quasilinear(sf, ell) + inv.orbit_order


@pytest.mark.parametrize("sf", _sf_pool())
def test_quasilinear_window_bounds(sf):
    """-(alpha-1)|e| - d <= N(ell) - ceil(ell/alpha)*o <= -1 off the multiples of alpha.

    At multiples the difference is 0 (N(t*alpha) = t*o exactly), which is the
    content of the orbit-order identity, so those levels are pinned separately.
    """
    inv = invariants(sf)
    alpha, o = inv.alpha, inv.orbit_order
    lo = -(alpha - 1) * (-inv.e) - sf.d
    for ell in range(1, 3 * alpha + 1):
        if ell % alpha == 0:
            assert quasilinear(sf, ell) == (ell // alpha) * o
        else:
            diff = quasilinear(sf, ell) - (-((-ell) // alpha)) * o
            assert lo <= diff <= -1


@pytest.mark.parametrize("sf", _sf_pool())
def test_nonnegative_beyond_alpha_plus_gamma(sf):
    inv = invariants(sf)
    top = inv.alpha + inv.gamma
    start = top.numerator // top.denominator + 1
    for ell in range(start, start + 2 * inv.alpha):
        assert quasilinear(sf, ell) >= 0


def test_gorenstein_symmetry_of_n(sf_gor7, sf_237):
    for sf in (sf_gor7, sf_237):
        assert is_numerically_gorenstein(sf)
        inv = invariants(sf)
        gamma = int(inv.gamma)
        for ell in range(-2 * inv.alpha, 2 * inv.alpha + 1):
            assert quasilinear(sf, ell) + quasilinear(sf, gamma - ell) == -2
        # non-ADE numerically Gorenstein: N(gamma) = -2
        assert quasilinear(sf, gamma) == -2


def test_not_numerically_gorenstein(sf_star70):
    assert not is_numerically_gorenstein(sf_star70)


def test_gorenstein_forces_omega_prime_congruence():
    rng = seeded_rng(11)
    found = 0
    for _ in range(200):
        sf = random_seifert(rng, max_alpha=10, alpha_cap=10**6, window_cap=10**9)
        if is_numerically_gorenstein(sf):
            found += 1
            inv = invariants(sf)
            assert inv.gamma.denominator == 1
            gamma = int(inv.gamma)
            for alpha, omega in sf.legs:
                assert gamma % alpha == pow(omega, -1, alpha) % alpha
    assert found >= 3  # the sample must actually exercise the implication


def test_ihs_from_alphas_golden():
    sf = ihs_from_alphas((2, 3, 7))
    assert sf.b0 == 1 and sf.legs == ((2, 1), (3, 1), (7, 1))
    assert 42 * (1 - F(1, 2) - F(1, 3) - F(1, 7)) == 1
    sf5 = ihs_from_alphas((2, 3, 5))
    assert sf5.b0 == 2 and sf5.legs == ((2, 1), (3, 2), (5, 4))
    assert 30 * (2 - F(1, 2) - F(2, 3) - F(4, 5)) == 1


def test_ihs_from_alphas_properties():
    rng = seeded_rng(12)
    for _ in range(20):
        alphas = []
        while len(alphas) < rng.randint(3, 4):
            import math

            a = rng.randint(2, 20)
            if all(math.gcd(a, b) == 1 for b in alphas):
                alphas.append(a)
        sf = ihs_from_alphas(alphas)
        inv = invariants(sf)
        assert inv.order_h == 1
        assert (-sf.e) * inv.alpha == 1
        if sf.b0 >= 2:
            g = build_graph(sf)
            assert is_antinef(g, canonical_cycle(g))
    with pytest.raises(ValueError):
        ihs_from_alphas((2, 4, 5))


def test_from_congruence():
    slots = ((2, 15, 1), (3, 10, 1), (5, 6, 1))  # the homology sphere (2, 3, 5)
    assert from_congruence(slots, 1) == ihs_from_alphas((2, 3, 5))
    # the leg residues sum to 59/30, so orbit order 2 needs 61/30 to be an integer
    with pytest.raises(VerificationError, match="orbit order 2"):
        from_congruence(slots, 2)
    # slots with alpha_i = 1 give no leg
    legs = ((3, 2), (3, 2), (5, 4), (5, 4))
    assert from_congruence(((1, 1, 4), (3, 1, 2), (5, 1, 2)), 1) == SeifertData(3, legs)
    with pytest.raises(ValueError, match="fewer than 3 legs"):
        from_congruence(((1, 1, 4), (3, 1, 1), (5, 1, 1)), 1)


def test_tau_sequence(sf_237):
    taus = tau_sequence(sf_237, 3)
    assert taus[0] == 0
    assert taus[1] == 1  # 1 + N(0)
    assert taus[2] == 0  # 1 + N(1) = 1 - 2
    with pytest.raises(ValueError):
        tau_sequence(sf_237, -1)


def test_tau_equals_chi_along_ladder(sf_237, sf_base4):
    for sf in (sf_237, sf_base4):
        g = build_graph(sf)
        series = x_series(g, class_rep(zero_cycle(g.n)), 20)
        taus = tau_sequence(sf, 20)
        for ell, x in enumerate(series.cycles):
            assert chi(g, x) == taus[ell]


def test_rationality(sf_e8, sf_237, sf_star70):
    assert is_rational_link(sf_e8)
    assert invariants(sf_e8).gamma == -1
    assert geometric_genus(sf_e8) == 0
    assert not is_rational_link(sf_237)
    assert geometric_genus(sf_237) == 1  # only N(1) = -2 contributes
    assert not is_rational_link(sf_star70)


@settings(max_examples=60)
@given(st.integers(-500, 500), st.integers(-500, 500))
def test_quasilinear_superadditivity(x, y):
    """N(a) + N(b) <= N(a+b) <= N(a) + N(b) + d: ceilings are subadditive.

    The left inequality is the closure of the semigroup and of the module
    action in one stroke.
    """
    sf = SeifertData(1, ((5, 1), (5, 1), (7, 1), (10, 1)))
    lo = quasilinear(sf, x) + quasilinear(sf, y)
    assert lo <= quasilinear(sf, x + y) <= lo + sf.d


@st.composite
def seifert_data(draw):
    """3-5 normalized legs with alpha_i <= 30; b0 the least (or next) value with e < 0."""
    legs = []
    for a in draw(st.lists(st.integers(2, 30), min_size=3, max_size=5)):
        w = draw(st.integers(1, a - 1).filter(lambda w, a=a: math.gcd(a, w) == 1))
        legs.append((a, w))
    b0 = floor_frac(sum(F(w, a) for a, w in legs)) + 1 + draw(st.integers(0, 1))
    return SeifertData(b0, tuple(legs))


@settings(max_examples=200)
@given(seifert_data(), st.integers(-300, 300), st.integers(-40, 40), st.sampled_from([1, -1, 3, -3]))
def test_window_kernel_matches_scalar_definition(sf, start, length, step):
    """quasilinear_values is N at every point of the range: steps +-1 and +-3,
    negative starts, and empty ranges (length <= 0 runs against the step)."""
    ells = range(start, start + length * step, step)
    assert list(quasilinear_values(sf, ells)) == [quasilinear(sf, ell) for ell in ells]


@st.composite
def table_data(draw):
    """3-5 normalized legs with alpha_i <= 12, maybe a repeated leg and a leg
    with alpha_i = alpha; b0 from its least value up to d + 1 above it, so
    trivial records (b0 >= d) are drawn too."""
    legs = []
    for a in draw(st.lists(st.integers(2, 12), min_size=3, max_size=5)):
        legs.append((a, draw(st.integers(1, a - 1).filter(lambda w, a=a: math.gcd(a, w) == 1))))
    if draw(st.booleans()):
        legs.append(legs[0])
    if draw(st.booleans()):
        alpha = math.lcm(*(a for a, _ in legs))
        legs.append((alpha, draw(st.integers(1, alpha - 1).filter(lambda w: math.gcd(alpha, w) == 1))))
    b0 = floor_frac(sum(F(w, a) for a, w in legs)) + 1 + draw(st.integers(0, len(legs) + 1))
    return SeifertData(b0, tuple(legs))


@settings(max_examples=120, deadline=None)
@given(table_data())
@example(SeifertData(2, ((2, 1), (3, 1), (5, 4))))  # orbit order 11
@example(SeifertData(4, ((2, 1), (3, 2), (5, 4))))  # trivial: b0 >= d
@example(SeifertData(2, ((3, 1), (3, 1), (3, 2), (4, 1))))  # repeated leg
@example(SeifertData(2, ((2, 1), (3, 1), (6, 1), (6, 5))))  # legs with alpha_i = alpha
def test_tiled_table_matches_window_kernel(sf):
    """The table tiled from per-leg difference blocks is N over one period."""
    table = QuasilinearTable(sf)
    assert table.base == list(quasilinear_values(sf, range(sf.inv.alpha)))
    assert table(sf.inv.alpha) == sf.inv.orbit_order


def test_table_and_brute_scan_share_no_kernel(sf_asym5, monkeypatch):
    """The period table never calls the window kernel; the brute scan does."""
    calls = count_calls(monkeypatch, seifert.quasilinear_values)
    QuasilinearTable(sf_asym5)
    assert calls == []
    frobenius_bruteforce(sf_asym5)
    assert len(calls) >= 1
