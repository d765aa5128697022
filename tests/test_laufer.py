import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from seifert_semigroup import (
    Link,
    SeifertData,
    VerificationError,
    build_graph,
    canonical_cycle,
    chi,
    class_rep,
    cycle,
    dual_check,
    dual_cycle,
    frobenius_bruteforce,
    frobenius_module,
    geometric_genus,
    ihs_from_alphas,
    invariants,
    is_antinef,
    quasilinear,
    scalars,
    to_antinef,
    unit_cycle,
    x_series,
    zero_cycle,
)
from seifert_semigroup.laufer import XSeries, _Sequence, ladder
from seifert_semigroup.lattice import (
    RationalCycle,
    intersection_matrix,
    orbifold_euler_number,
    pairing_with_vertex,
)
from seifert_semigroup.seifert import ceil_frac
from seifert_semigroup.verification import random_seifert

from conftest import seeded_rng, star_graphs


def test_to_antinef_fixes_zero(golden_graphs):
    for g in golden_graphs.values():
        result, steps = to_antinef(g, zero_cycle(g.n), trace=True)
        assert result == zero_cycle(g.n)
        assert steps == ()


def test_golden_sequence_star70(sf_star70):
    g = build_graph(sf_star70)
    r = class_rep(canonical_cycle(g))
    s, steps = to_antinef(g, r, trace=True)
    e = [unit_cycle(g.n, v) for v in range(g.n)]
    assert s == r + 3 * e[0] + e[1] + e[2]
    assert s == cycle([F(23, 6), F(7, 6), F(7, 6), F(5, 6), F(7, 12), F(1, 12)])
    # chi never increases along the trace
    values = [chi(g, r)] + [c for _, c in steps]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_golden_sequence_base4(sf_base4):
    g = build_graph(sf_base4)
    zk = canonical_cycle(g)
    r = class_rep(zk + dual_cycle(g, 0))
    s, _ = to_antinef(g, r)
    e = [unit_cycle(g.n, v) for v in range(g.n)]
    assert s == r + 3 * e[0] + e[1] + e[2]
    assert s[0] == F(18, 5)


def test_scalars_golden(sf_star70, sf_asym5, sf_gor7):
    g_star = build_graph(sf_star70)
    sc = scalars(g_star)
    assert invariants(sf_star70).gamma - sc.s == 3
    assert sc.delta == 3 and sc.big_delta == 7
    sc1 = scalars(build_graph(sf_asym5))
    assert sc1.s_check == 4
    assert sc1.s_check_cycle == cycle([4, 1, 1, 1, F(2, 5), F(3, 5)])
    sc2 = scalars(build_graph(sf_gor7))
    assert sc2.s_check == 28  # = 1/|e|
    assert sc2.s == 0  # numerically Gorenstein: r_[Z_K] = 0 = s_[Z_K]
    for sc_any in (sc, sc1, sc2):
        assert sc_any.big_delta >= sc_any.delta


def test_frobenius_module_golden(sf_star70, sf_237, sf_gor7, sf_e8):
    assert frobenius_module(build_graph(sf_star70)) == 3
    # numerically Gorenstein non-ADE: the module Frobenius number is gamma
    assert frobenius_module(build_graph(sf_237)) == 1 == invariants(sf_237).gamma
    assert frobenius_module(build_graph(sf_gor7)) == 85
    assert frobenius_module(build_graph(sf_e8)) == -1


@st.composite
def seifert_data(draw):
    """3-6 legs with alpha_i <= 14; b0 is the least value making e negative,
    or one or two above it, which draws trivial and rational links too."""
    legs = []
    for _ in range(draw(st.integers(3, 6))):
        a = draw(st.integers(2, 14))
        legs.append((a, draw(st.sampled_from([w for w in range(1, a) if math.gcd(w, a) == 1]))))
    total = sum(F(w, a) for a, w in legs)
    return SeifertData(math.floor(total) + 1 + draw(st.integers(0, 2)), tuple(legs))


@settings(max_examples=150, deadline=None)
@given(seifert_data())
@example(ihs_from_alphas((2, 3, 5)))
@example(ihs_from_alphas((2, 3, 7)))
@example(SeifertData(1, ((5, 1), (5, 1), (7, 1), (10, 1))))
@example(SeifertData(4, ((2, 1), (3, 2), (5, 4))))
def test_lattice_module_value_decides_rationality(sf):
    """gamma - s is the largest integer outside the module, read off the
    period table and by the brute scan, and it is negative exactly when p_g = 0."""
    value = frobenius_module(sf.graph)
    assert value == Link(sf).module.frobenius_raw
    assert value == frobenius_bruteforce(sf, "module")
    assert (value < 0) == (geometric_genus(sf) == 0)


def test_tie_break_invariance_many():
    rng = seeded_rng(20)
    cases = 0
    while cases < 50:
        sf = random_seifert(rng, max_legs=4, max_alpha=9, alpha_cap=600, window_cap=4000)
        g = build_graph(sf)
        zk = canonical_cycle(g)
        mix = zero_cycle(g.n)
        for v in range(g.n):
            mix = mix + rng.randint(0, 2) * dual_cycle(g, v)
        start = class_rep(rng.choice([zk, zk + dual_cycle(g, 0), mix]))
        batched, _ = to_antinef(g, start)
        lo, tr_lo = to_antinef(g, start, strategy="min", trace=True)
        hi, tr_hi = to_antinef(g, start, strategy="max", trace=True)
        rnd, tr_rnd = to_antinef(g, start, strategy="random", rng=rng, trace=True)
        assert batched == lo == hi == rnd
        for steps in (tr_lo, tr_hi, tr_rnd):
            values = [chi(g, start)] + [c for _, c in steps]
            assert all(b <= a for a, b in zip(values, values[1:]))
        cases += 1


def _box_candidates(g, box_top):
    return itertools.product(*(range(t + 1) for t in box_top))


def _small_test_graphs(sf_star70, sf_base4, sf_asym5, sf_237):
    return [build_graph(sf) for sf in (sf_237, sf_base4, sf_star70, sf_asym5)]


def test_minimality_of_s_h_by_box_enumeration(sf_star70, sf_base4, sf_asym5, sf_237):
    """On every <= 6-vertex test graph, every anti-nef cycle of the class inside
    the box [0, ceil(Z_K) + 2E] dominates s_h componentwise."""
    for g in _small_test_graphs(sf_star70, sf_base4, sf_asym5, sf_237):
        assert g.n <= 6
        zk = canonical_cycle(g)
        box_top = [-((-zk[v].numerator) // zk[v].denominator) + 2 for v in range(g.n)]
        rows = intersection_matrix(g)
        for rep_cycle in (zk, zk + dual_cycle(g, 0)):
            r = class_rep(rep_cycle)
            s_h, _ = to_antinef(g, r)
            offset = s_h - r
            # the minimal representative must sit strictly inside the box
            assert all(offset[v] < box_top[v] for v in range(g.n))
            base_pairings = [pairing_with_vertex(g, r, v) for v in range(g.n)]
            found_any = False
            for l in _box_candidates(g, box_top):
                pair_ok = all(
                    base_pairings[v] + sum(rows[v][u] * l[u] for u in range(g.n)) <= 0
                    for v in range(g.n)
                )
                if pair_ok:
                    found_any = True
                    candidate = r + cycle(l)
                    assert candidate >= s_h
            assert found_any  # s_h itself lies in the box


def test_minimality_of_x_ladder_by_box_enumeration(sf_base4, sf_237):
    """Restricted-anti-nef candidates with the prescribed central coefficient
    dominate x^l and have chi >= chi(x^l)."""
    for sf in (sf_237, sf_base4):
        g = build_graph(sf)
        zk = canonical_cycle(g)
        box_top = [-((-zk[v].numerator) // zk[v].denominator) + 2 for v in range(g.n)]
        rows = intersection_matrix(g)
        for rep_cycle in (zk, zero_cycle(g.n)):
            r = class_rep(rep_cycle)
            upto = min(3, box_top[0] - 1)
            series = x_series(g, r, upto)
            base_pairings = [pairing_with_vertex(g, r, v) for v in range(g.n)]
            for l in _box_candidates(g, box_top):
                ell = l[0]
                if ell > upto:
                    continue
                pair_ok = all(
                    base_pairings[v] + sum(rows[v][u] * l[u] for u in range(g.n)) <= 0
                    for v in range(1, g.n)
                )
                if pair_ok:
                    candidate = r + cycle(l)
                    assert candidate >= series.cycles[ell]
                    assert chi(g, candidate) >= chi(g, series.cycles[ell])


def test_x_series_structure(sf_star70, sf_base4, sf_237):
    rng = seeded_rng(21)
    for sf in (sf_star70, sf_base4, sf_237):
        g = build_graph(sf)
        zk = canonical_cycle(g)
        e0 = unit_cycle(g.n, 0)
        for rep_cycle in (zk, zero_cycle(g.n), zk + dual_cycle(g, 0)):
            r = class_rep(rep_cycle)
            series = x_series(g, r, 8)
            assert series.cycles[0] >= r
            for x, x_next in zip(series.cycles, series.cycles[1:]):
                assert x_next >= x + e0
                assert is_antinef(g, x, vertices=range(1, g.n))
                # chi increment identity along the ladder
                assert chi(g, x_next) - chi(g, x) == 1 - pairing_with_vertex(g, x, 0)


def test_trivial_class_ladder_is_quasilinear(sf_237, sf_base4, sf_e8):
    for sf in (sf_237, sf_base4, sf_e8):
        g = build_graph(sf)
        series = x_series(g, class_rep(zero_cycle(g.n)), 20)
        for ell in range(21):
            assert series.n_values[ell] == quasilinear(sf, ell)
            for leg, (alpha, omega) in zip(g.legs, sf.legs):
                assert series.cycles[ell][leg[0]] == -((-ell * omega) // alpha)
        for ell in range(20):
            assert chi(g, series.cycles[ell + 1]) - chi(g, series.cycles[ell]) == 1 + quasilinear(sf, ell)


def test_dual_check_on_goldens(sf_star70, sf_asym5, sf_gor7, sf_237):
    for sf in (sf_star70, sf_asym5, sf_gor7, sf_237):
        dual_check(sf)
        assert sf.graph.scalars.big_delta >= sf.graph.scalars.delta


def test_dual_check_sign_pattern(sf_star70):
    g = build_graph(sf_star70)
    sc = scalars(g)
    series = x_series(g, class_rep(canonical_cycle(g)), sc.delta)
    for ell in range(sc.delta):
        assert pairing_with_vertex(g, series.cycles[ell], 0) > 0
    assert pairing_with_vertex(g, series.cycles[sc.delta], 0) <= 0
    assert series.cycles[sc.delta] == sc.s_cycle


def test_step_budget_guard(sf_gor7, monkeypatch):
    g = build_graph(sf_gor7)
    r = class_rep(canonical_cycle(g) + dual_cycle(g, 0))
    monkeypatch.setenv("SEIFERT_STEP_BUDGET", "3")
    with pytest.raises(ValueError):
        to_antinef(g, r)


def test_ladder_step_budget_applies_per_rung(sf_gor7, monkeypatch):
    g = build_graph(sf_gor7)
    monkeypatch.setenv("SEIFERT_STEP_BUDGET", "3")
    for rep_cycle in (zero_cycle(g.n), canonical_cycle(g), canonical_cycle(g) + dual_cycle(g, 0)):
        with pytest.raises(ValueError, match=r"^computation sequence exceeded the step budget "
                           r"SEIFERT_STEP_BUDGET = 3$"):
            x_series(g, class_rep(rep_cycle), 5)


def test_unknown_strategy_rejected_before_the_loop(golden_graphs):
    g = golden_graphs["star70"]
    with pytest.raises(ValueError, match="unknown strategy"):
        to_antinef(g, zero_cycle(g.n), strategy="bogus")


def test_random_strategy_needs_rng_before_the_loop(golden_graphs):
    g = golden_graphs["star70"]
    with pytest.raises(ValueError, match="needs an rng"):
        to_antinef(g, zero_cycle(g.n), strategy="random")


def rescan_to_antinef(g, start, vertices=None, trace=False, strategy="min", rng=None):
    """Oracle: the computation sequence that rescans the Fraction pairing of
    every allowed vertex each round (the kernel before the integer worklist).
    Returns the endpoint and the (vertex, chi) steps, or None untraced."""
    allowed = tuple(range(g.n)) if vertices is None else tuple(sorted(set(vertices)))
    coeffs = list(start.coeffs)
    p = [pairing_with_vertex(g, start, v) for v in range(g.n)]
    steps = []
    chi_running = chi(g, start) if trace else None
    while True:
        positive = [v for v in allowed if p[v] > 0]
        if not positive:
            break
        if strategy == "min":
            v = positive[0]
        elif strategy == "max":
            v = positive[-1]
        else:
            v = rng.choice(positive)
        k = 1 if trace else ceil_frac(p[v] / (-g.euler[v]))
        coeffs[v] += k
        if trace:
            chi_running = chi_running + 1 - p[v]
            steps.append((v, chi_running))
        p[v] += k * g.euler[v]
        for u in g.adjacency[v]:
            p[u] += k
    return cycle(coeffs), (tuple(steps) if trace else None)


@st.composite
def laufer_starts(draw):
    """A negative-definite star graph, a start cycle and an allowed vertex set:
    r_h of a drawn class with all vertices, x^l + E_0 on the non-central ones,
    or an arbitrary rational cycle with either set."""
    g = draw(star_graphs())
    assume(orbifold_euler_number(g) < 0)
    kind = draw(st.sampled_from(["r_h", "ladder", "rational"]))
    if kind == "r_h":
        mix = canonical_cycle(g) * draw(st.integers(0, 1))
        for v in draw(st.lists(st.integers(0, g.n - 1), max_size=3)):
            mix = mix + dual_cycle(g, v)
        return g, class_rep(mix), None
    if kind == "ladder":
        rep = class_rep(draw(st.sampled_from([zero_cycle(g.n), canonical_cycle(g)])))
        x = x_series(g, rep, draw(st.integers(0, 3))).cycles[-1]
        return g, x + unit_cycle(g.n, 0), range(1, g.n)
    coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=7), min_size=g.n, max_size=g.n))
    return g, cycle(coeffs), draw(st.sampled_from([None, range(1, g.n)]))


@settings(deadline=None, max_examples=300)
@given(laufer_starts(), st.integers(0, 2**32 - 1))
def test_worklist_kernel_matches_rescan_oracle(case, seed):
    g, start, vertices = case
    end, _ = to_antinef(g, start, vertices=vertices)
    assert end == rescan_to_antinef(g, start, vertices)[0]
    # single-stepped sequences take sum(end - start) steps; keep them short
    traced = sum(end - start) <= 400
    for strategy in ("min", "max", "random"):
        for trace in (False, True) if traced else (False,):
            got, tr = to_antinef(
                g, start, vertices=vertices, trace=trace, strategy=strategy, rng=random.Random(seed)
            )
            want, want_steps = rescan_to_antinef(
                g, start, vertices, trace=trace, strategy=strategy, rng=random.Random(seed)
            )
            assert got == want == end
            if trace:
                assert tr == want_steps


def rung_by_rung_x_series(g, rep: RationalCycle, up_to: int) -> XSeries:
    """Oracle: the ladder with one fresh restricted sequence per rung (the
    x_series before the ladder walker), copied verbatim."""
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    restricted = range(1, g.n)
    e0 = unit_cycle(g.n, 0)
    current, _ = to_antinef(g, rep, vertices=restricted)
    cycles = [current]
    for _ in range(up_to):
        current, _ = to_antinef(g, current + e0, vertices=restricted)
        cycles.append(current)
    r0 = rep[0]
    for ell, x in enumerate(cycles):
        if x[0] != r0 + ell:
            raise VerificationError(f"central coefficient of x^{ell} is {x[0]}, not {r0 + ell}")
    n_values = tuple(-pairing_with_vertex(g, x, 0) for x in cycles)
    return XSeries(cycles=tuple(cycles), n_values=n_values)


@st.composite
def ladder_cases(draw):
    """A negative-definite star graph, a class (trivial, [Z_K], [Z_K + E_0^*] or
    a drawn mix of duals) and a ladder length."""
    g = draw(star_graphs())
    assume(orbifold_euler_number(g) < 0)
    mix = canonical_cycle(g) * draw(st.integers(0, 1))
    for v in draw(st.lists(st.integers(0, g.n - 1), max_size=3)):
        mix = mix + dual_cycle(g, v)
    return g, class_rep(mix), draw(st.integers(0, 12))


@settings(deadline=None, max_examples=200)
@given(ladder_cases())
def test_ladder_walker_matches_rung_by_rung_oracle(case):
    g, rep, up_to = case
    want = rung_by_rung_x_series(g, rep, up_to)
    got = x_series(g, rep, up_to)
    assert got.cycles == want.cycles
    assert got.n_values == want.n_values
    for x, rung in zip(want.cycles, ladder(g, rep)):
        assert rung.cycle == x
        assert rung.chi == chi(g, x)
        assert rung.antinef == is_antinef(g, x)


@settings(deadline=None, max_examples=200)
@given(laufer_starts())
def test_sequence_state_carries_chi_through_bulk_steps(case):
    """chi2 follows chi(l + kE_v) = chi(l) + k(e_v + 2 - k e_v)/2 - k(l, E_v) also
    for k > 1, which untraced full sequences take at the centre."""
    g, start, vertices = case
    seq = _Sequence(g, start, range(g.n) if vertices is None else vertices)
    seq.run(10**6)
    end = start + cycle(seq.x)
    assert seq.chi() == chi(g, end)
    assert all(seq.pairing(v) == pairing_with_vertex(g, end, v) for v in range(g.n))
