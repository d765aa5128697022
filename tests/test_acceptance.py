"""Acceptance suite: the exit criteria of the build, one test per criterion.

Every assertion is exact (integers and reduced fractions); there are no
tolerances anywhere.  Each test prints a single PASS line so a `-s` run
reads as a checklist.
"""

import itertools
import random
import time
from fractions import Fraction as F

from seifert_semigroup import (
    Link,
    SeifertData,
    augment,
    bh_generators,
    bh_seifert,
    build_graph,
    canonical_cycle,
    chi,
    class_rep,
    classify,
    cycle,
    dual_check,
    dual_cycle,
    frobenius_bruteforce,
    frobenius_by_formula,
    frobenius_module,
    ihs_from_alphas,
    ihs_generators,
    invariants,
    min_module,
    monoid_sieve,
    pairing,
    quasilinear,
    scalars,
    strongly_flat_check,
    symmetry_report,
    to_antinef,
    unit_cycle,
    verify_prop_comp,
    x_series,
    zero_cycle,
    zk_identity_check,
)
from seifert_semigroup.augment import quasilinear_shift_holds
from seifert_semigroup.lattice import intersection_matrix, pairing_with_vertex
from seifert_semigroup.semigroup import apery_selmer, gap_count_direct, minimal_generators_of_monoid
from seifert_semigroup.verification import random_coprime_alphas, random_seifert

from conftest import gap_flags

SEED = 20260809

SF_STAR70 = SeifertData(1, ((5, 1), (5, 1), (7, 1), (10, 1), (70, 1)))
SF_BASE4 = SeifertData(1, ((5, 1), (5, 1), (7, 1), (10, 1)))
SF_ASYM5 = SeifertData(1, ((4, 1), (4, 1), (4, 1), (10, 1), (40, 1)))
SF_GOR7 = SeifertData(2, ((2, 1), (2, 1), (3, 1), (3, 1), (7, 1), (7, 1), (84, 1)))


def test_criterion_1_golden_six_vertex_star():
    g = build_graph(SF_STAR70)
    zk = canonical_cycle(g)
    assert zk == cycle([F(47, 6), F(13, 6), F(13, 6), F(11, 6), F(19, 12), F(13, 12)])
    r = class_rep(zk)
    assert r == cycle([F(5, 6), F(1, 6), F(1, 6), F(5, 6), F(7, 12), F(1, 12)])
    s, _ = to_antinef(g, r)
    e = [unit_cycle(g.n, v) for v in range(g.n)]
    assert s == r + 3 * e[0] + e[1] + e[2]
    assert frobenius_module(g) == 3
    print("PASS criterion 1: six-vertex star Z_K, r, s and module Frobenius number exact")


def test_criterion_2_golden_four_leg_base():
    inv = invariants(SF_BASE4)
    assert inv.e == F(-5, 14)
    assert inv.gamma == F(19, 5)
    g = build_graph(SF_BASE4)
    assert dual_cycle(g, 0) == cycle([F(14, 5), F(14, 25), F(14, 25), F(2, 5), F(7, 25)])
    r = class_rep(canonical_cycle(g) + dual_cycle(g, 0))
    assert r == cycle([F(3, 5), F(3, 25), F(3, 25), F(4, 5), F(14, 25)])
    assert scalars(g).s_check == F(18, 5)
    assert frobenius_by_formula(SF_BASE4) == 3
    print("PASS criterion 2: four-leg base invariants, duals and Frobenius formula exact")


def test_criterion_3_golden_asym5():
    inv = invariants(SF_ASYM5)
    assert 1 / (-inv.e) == 8
    assert inv.gamma == 17
    assert scalars(build_graph(SF_ASYM5)).s_check == 4
    assert frobenius_by_formula(SF_ASYM5) == 21
    for ell in (4, 7, 10, 11, 14, 17):
        assert quasilinear(SF_ASYM5, ell) == -1
    rep = symmetry_report(Link(SF_ASYM5))
    assert not rep.symmetric
    assert rep.witnesses == ((4, 17), (7, 14), (10, 11))
    print("PASS criterion 3: non-symmetric five-leg example exact (witnesses 4+17, 7+14, 10+11)")


def test_criterion_4_golden_gor7():
    g = build_graph(SF_GOR7)
    assert canonical_cycle(g) == cycle([86, 43, 43, 29, 29, 13, 13, 2])
    inv = invariants(SF_GOR7)
    assert 1 / (-inv.e) == 28
    assert inv.gamma == 85
    assert scalars(g).s_check == 28
    assert frobenius_by_formula(SF_GOR7) == 85
    alpha = inv.alpha
    for ell in range(-2 * alpha, 2 * alpha + 1):
        assert quasilinear(SF_GOR7, ell) + quasilinear(SF_GOR7, 85 - ell) == -2
    rep = symmetry_report(Link(SF_GOR7))
    assert not rep.symmetric
    assert (6, 79) in rep.witnesses
    print("PASS criterion 4: Gorenstein seven-leg example exact (non-symmetric, witness 6+79)")


def test_criterion_5_integral_homology_sphere_suite():
    started = time.time()
    rng = random.Random(SEED + 5)
    for case in range(100):
        alphas = random_coprime_alphas(rng, rng.choice([3, 4]))
        sf = ihs_from_alphas(alphas)
        inv = invariants(sf)
        gens = ihs_generators(alphas)
        f = frobenius_bruteforce(sf)
        assert f == inv.gamma + inv.alpha
        rep = strongly_flat_check(gens)
        assert rep.is_strongly_flat and rep.attained and rep.bound == f
        hi = f + 2 * inv.alpha
        table = monoid_sieve(gens, hi)
        link = Link(sf)
        assert all(bool(table[ell]) == link.in_semigroup(ell) for ell in range(hi + 1))
        sym = symmetry_report(Link(sf))
        assert sym.symmetric and sym.module_principal  # M = -alpha + S
        assert min_module(Link(sf)) == -inv.alpha
    elapsed = time.time() - started
    assert elapsed < 60
    print(f"PASS criterion 5: 100 homology-sphere tuples, all identities exact ({elapsed:.1f}s)")


def test_criterion_6_oracle_agreement_suite():
    started = time.time()
    rng = random.Random(SEED + 6)
    nontrivial = modules = 0
    for case in range(200):
        sf = random_seifert(rng, max_legs=5, max_alpha=30)
        if sf.b0 < sf.d:
            nontrivial += 1
            f_brute = frobenius_bruteforce(sf)
            assert frobenius_by_formula(sf) == f_brute
            ap = apery_selmer(Link(sf))
            assert ap.frobenius == f_brute
            assert ap.gaps == gap_count_direct(sf)
        from seifert_semigroup import is_rational_link

        if not is_rational_link(sf):
            modules += 1
            assert frobenius_module(build_graph(sf)) == frobenius_bruteforce(sf, "module")
    elapsed = time.time() - started
    assert elapsed < 120
    assert nontrivial >= 100 and modules >= 50  # the sample must exercise both theorems
    print(
        f"PASS criterion 6: 200 random inputs, theorem = brute force everywhere "
        f"({nontrivial} semigroups, {modules} modules, {elapsed:.1f}s)"
    )


def test_criterion_7_laufer_property_suite():
    started = time.time()
    rng = random.Random(SEED + 7)

    # tie-break invariance with chi monotonicity on every trace
    for case in range(50):
        sf = random_seifert(rng, max_legs=4, max_alpha=9, alpha_cap=600, window_cap=4000)
        g = build_graph(sf)
        zk = canonical_cycle(g)
        mix = zero_cycle(g.n)
        for v in range(g.n):
            mix = mix + rng.randint(0, 2) * dual_cycle(g, v)
        start = class_rep(rng.choice([zk, zk + dual_cycle(g, 0), mix]))
        endpoints = set()
        for strategy in ("min", "max", "random"):
            result, steps = to_antinef(g, start, strategy=strategy, rng=rng, trace=True)
            endpoints.add(result)
            values = [chi(g, start)] + [c for _, c in steps]
            assert all(b <= a for a, b in zip(values, values[1:]))
        assert len(endpoints) == 1

    # box-enumeration minimality on the <= 6-vertex test graphs
    small = [ihs_from_alphas((2, 3, 7)), SF_BASE4, SF_STAR70, SF_ASYM5]
    for sf in small:
        g = build_graph(sf)
        assert g.n <= 6
        zk = canonical_cycle(g)
        box_top = [-((-zk[v].numerator) // zk[v].denominator) + 2 for v in range(g.n)]
        rows = intersection_matrix(g)
        for rep_cycle in (zk, zk + dual_cycle(g, 0)):
            r = class_rep(rep_cycle)
            s_h, _ = to_antinef(g, r)
            assert all((s_h - r)[v] < box_top[v] for v in range(g.n))
            series = x_series(g, r, min(3, box_top[0] - 1))
            base_pairings = [pairing_with_vertex(g, r, v) for v in range(g.n)]
            for l in itertools.product(*(range(t + 1) for t in box_top)):
                pairings = [
                    base_pairings[v] + sum(rows[v][u] * l[u] for u in range(g.n))
                    for v in range(g.n)
                ]
                if all(p <= 0 for p in pairings[1:]):
                    candidate = r + cycle(l)
                    if pairings[0] <= 0:
                        assert candidate >= s_h
                    if l[0] < len(series.cycles):
                        assert candidate >= series.cycles[l[0]]
                        assert chi(g, candidate) >= chi(g, series.cycles[l[0]])

    # ladder duality on every test graph
    records = small + [SF_GOR7]
    while len(records) < 10:
        sf = random_seifert(rng, max_legs=4, max_alpha=9, alpha_cap=600, window_cap=4000)
        if canonical_cycle(sf.graph)[0] <= 60:
            records.append(sf)
    for sf in records:
        dual_check(sf)
    elapsed = time.time() - started
    print(f"PASS criterion 7: tie-breaks, box minimality and ladder duality exact ({elapsed:.1f}s)")


def test_criterion_8_augmentation_suite():
    started = time.time()
    rng = random.Random(SEED + 8)
    pair = augment(SF_BASE4, 70)
    inv = invariants(SF_BASE4)
    assert quasilinear_shift_holds(pair, -2 * inv.alpha, 3 * inv.alpha)
    zk_identity_check(pair)
    g, gn = pair.base.graph, pair.augmented.graph
    for _ in range(25):
        lp = cycle([F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(gn.n)])
        l = cycle([rng.randint(-4, 4) for _ in range(g.n)])
        assert pairing(g, pair.project(lp), l) == pairing(gn, lp, pair.include(l))
    verify_prop_comp(Link(SF_BASE4), gap_flags(SF_BASE4, 300), n=70)  # the explicit claim for n = 70
    verify_prop_comp(Link(SF_BASE4), gap_flags(SF_BASE4, 300))  # at n*, failing at n* - 1
    for _ in range(6):
        sf = random_seifert(rng, max_alpha=10, alpha_cap=800, window_cap=2500)
        pair = augment(sf, max(2, int(1 / (-sf.e)) + 2 + rng.randint(0, 3)))
        assert quasilinear_shift_holds(pair, -50, 2 * invariants(sf).alpha)
        zk_identity_check(pair)
        bound = int(invariants(sf).alpha + invariants(sf).gamma) + 5
        verify_prop_comp(Link(sf), gap_flags(sf, bound))
    elapsed = time.time() - started
    print(f"PASS criterion 8: augmentation identities and module stabilisation exact ({elapsed:.1f}s)")


def test_criterion_9_brieskorn_suite():
    assert bh_generators(classify((2, 3, 7))) == [6, 14, 21]
    for exponents in ((2, 3, 7), (6, 10, 7), (6, 10, 14)):
        cls = classify(exponents)
        gens = bh_generators(cls)
        sf = bh_seifert(cls)
        inv = invariants(sf)
        f = frobenius_bruteforce(sf) if sf.b0 < sf.d else -1
        hi = max(f, 0) + 2 * inv.alpha
        table = monoid_sieve(gens, hi)
        link = Link(sf)
        assert all(bool(table[ell]) == link.in_semigroup(ell) for ell in range(hi + 1))
        assert minimal_generators_of_monoid(gens) == gens
    print("PASS criterion 9: Brieskorn-Hamm generators validated and minimal")
