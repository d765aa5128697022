import functools
import itertools
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from seifert_semigroup import (
    Link,
    TrivialSemigroupError,
    VerificationError,
    apery_selmer,
    build_graph,
    dual_cycle,
    end_projection_generators,
    frobenius_bruteforce,
    frobenius_by_formula,
    geometric_genus,
    gorenstein_symmetry_check,
    ihs_generators,
    invariants,
    min_module,
    minimal_generators,
    monoid_sieve,
    poincare,
    quasilinear,
    scalars,
    strongly_flat_check,
    symmetry_report,
)
from seifert_semigroup import seifert, semigroup
from seifert_semigroup.seifert import SeifertData, ihs_from_alphas
from seifert_semigroup.semigroup import (
    frobenius_module_raw,
    frobenius_of_generators,
    gap_count_direct,
    minimal_generators_of_monoid,
    monoid_apery,
    selmer,
)
from seifert_semigroup.verification import random_seifert

from conftest import count_calls, count_tables, seeded_rng


def test_frobenius_golden(sf_base4, sf_asym5, sf_gor7, sf_237, sf_e8):
    assert frobenius_bruteforce(sf_base4) == 3
    assert frobenius_by_formula(sf_base4) == 3
    assert frobenius_bruteforce(sf_asym5) == 21
    assert frobenius_by_formula(sf_asym5) == 17 + 8 - 4
    assert frobenius_bruteforce(sf_gor7) == 85
    assert frobenius_by_formula(sf_gor7) == 85
    assert frobenius_bruteforce(sf_237) == 43
    assert frobenius_by_formula(sf_237) == 43  # gamma + alpha = 1 + 42
    assert frobenius_bruteforce(sf_e8) == 29  # gamma + alpha = -1 + 30


def test_trivial_semigroup_paths():
    sf = SeifertData(4, ((2, 1), (3, 2), (5, 4)))  # b0 >= d
    assert sf.b0 >= sf.d
    assert quasilinear(sf, 1) >= 0
    with pytest.raises(TrivialSemigroupError):
        frobenius_bruteforce(sf)
    with pytest.raises(TrivialSemigroupError):
        frobenius_by_formula(sf)
    ap = apery_selmer(Link(sf))
    assert ap.frobenius == -1
    assert ap.gaps == 0
    assert ap.apery == tuple(range(invariants(sf).alpha))
    assert minimal_generators(Link(sf)) == [1]


def test_trivial_iff_first_level():
    """The semigroup is all of N exactly when b0 >= d, i.e. N(1) >= 0."""
    rng = seeded_rng(34)
    for _ in range(20):
        sf = random_seifert(rng, max_alpha=12, alpha_cap=10**6, window_cap=10**9)
        assert quasilinear(sf, 1) == sf.b0 - sf.d
        link = Link(sf)
        all_of_n = all(link.in_semigroup(ell) for ell in range(1, 3 * invariants(sf).alpha))
        assert all_of_n == (sf.b0 >= sf.d)


def test_module_frobenius_brute(sf_star70, sf_base4, sf_e8):
    assert frobenius_bruteforce(sf_star70, "module") == 3
    assert frobenius_bruteforce(sf_base4, "module") == 2
    assert frobenius_bruteforce(sf_e8, "module") == -1
    assert frobenius_module_raw(Link(sf_e8)) == -1  # every nonnegative level is in the module


def test_module_scan_decides_rationality(sf_e8, monkeypatch):
    """No ell in (0, gamma] with N(ell) <= -2 is exactly p_g = 0, so the
    module scan returns a negative value without computing p_g."""
    calls = count_calls(monkeypatch, seifert.geometric_genus)
    assert frobenius_bruteforce(sf_e8, "module") < 0
    assert calls == []


def test_module_scan_is_negative_exactly_on_rational_links():
    rng = seeded_rng(12)
    rational = 0
    for _ in range(60):
        sf = random_seifert(rng, max_alpha=12, alpha_cap=3000, window_cap=8000)
        if frobenius_bruteforce(sf, "module") < 0:
            rational += 1
            assert geometric_genus(sf) == 0, sf
        else:
            assert geometric_genus(sf) > 0, sf
    assert 0 < rational < 60


def test_semigroup_scan_without_a_gap_is_a_verification_failure(sf_237, monkeypatch):
    """N(-1 - alpha) = -b0 - o <= -2 ends every scan on a hit; a scan finding no gap is a broken N."""
    monkeypatch.setattr(semigroup, "quasilinear_values", lambda sf, ells: itertools.repeat(0, len(ells)))
    with pytest.raises(VerificationError, match="N\\(-1 - alpha\\) = -b0 - o < 0"):
        frobenius_bruteforce(sf_237)


def test_min_module(sf_237, sf_gor7, sf_e8):
    assert min_module(Link(sf_237)) == -42
    assert quasilinear(sf_237, -1) >= -1  # -1 is in the module
    assert quasilinear(sf_237, -84) < -1  # -84 is not
    assert min_module(Link(sf_gor7)) == 0
    assert min_module(Link(sf_e8)) == -30
    # numerically Gorenstein: min(M) + f_S = gamma
    assert min_module(Link(sf_gor7)) + 85 == 85
    assert min_module(Link(sf_237)) + 43 == 1


def test_apery_properties(sf_base4, sf_asym5, sf_237):
    for sf in (sf_base4, sf_asym5, sf_237):
        inv = invariants(sf)
        ap = apery_selmer(Link(sf))
        link = Link(sf)
        assert len(ap.apery) == inv.alpha
        assert sorted(w % inv.alpha for w in ap.apery) == list(range(inv.alpha))
        for w in ap.apery:
            assert link.in_semigroup(w)
            assert not link.in_semigroup(w - inv.alpha)
        assert ap.frobenius == frobenius_bruteforce(sf)
        assert ap.gaps == gap_count_direct(sf)


def test_apery_gaps_golden(sf_237):
    ap = apery_selmer(Link(sf_237))
    assert ap.frobenius == 43
    assert ap.gaps == 22  # confirmed by direct enumeration; = (f+1)/2 by symmetry


def test_minimal_generators_golden(sf_237):
    assert minimal_generators(Link(sf_237)) == [6, 14, 21]
    assert minimal_generators(Link(ihs_from_alphas((2, 3, 5)))) == [6, 10, 15]


def test_minimal_generators_regenerate_membership():
    rng = seeded_rng(30)
    for _ in range(15):
        sf = random_seifert(rng, max_alpha=12, alpha_cap=2000, window_cap=6000)
        if sf.b0 >= sf.d:
            continue
        gens = minimal_generators(Link(sf))
        f = frobenius_bruteforce(sf)
        inv = invariants(sf)
        hi = f + 2 * inv.alpha
        table = monoid_sieve(gens, hi)
        link = Link(sf)
        assert all(bool(table[ell]) == link.in_semigroup(ell) for ell in range(hi + 1))
        # minimality: removing any generator loses an element
        for g in gens:
            rest = [x for x in gens if x != g]
            if not rest:
                continue
            smaller = monoid_sieve(rest, hi)
            assert smaller != table


def test_closure_properties(sf_base4, sf_asym5):
    rng = seeded_rng(31)
    for sf in (sf_base4, sf_asym5):
        inv = invariants(sf)
        link = Link(sf)
        members = [ell for ell in range(3 * inv.alpha + 1) if link.in_semigroup(ell)]
        module_members = [ell for ell in range(min_module(Link(sf)), 2 * inv.alpha + 1) if link.n(ell) >= -1]
        for _ in range(200):
            a, b = rng.choice(members), rng.choice(members)
            assert link.in_semigroup(a + b)
            m = rng.choice(module_members)
            assert link.n(m + a) >= -1


@pytest.mark.parametrize("bad", [[2.5, 3], [2.0, 3], [True, 3], [3, F(5)]], ids=["2.5", "2.0", "True", "Fraction"])
@pytest.mark.parametrize(
    "fn", [monoid_apery, frobenius_of_generators, minimal_generators_of_monoid, strongly_flat_check],
    ids=lambda fn: fn.__name__,
)
def test_generator_functions_refuse_non_integers(fn, bad):
    """A generator must be of type int: 2.5, 2.0, True and Fraction(5) are refused, not truncated."""
    with pytest.raises(ValueError, match="generators must be integers"):
        fn(bad)


def test_strongly_flat():
    rep = strongly_flat_check([21, 14, 6])
    assert rep.is_strongly_flat and rep.bound == 43 and rep.attained
    rep2 = strongly_flat_check([2, 3])
    assert rep2.is_strongly_flat and rep2.bound == 1 and rep2.attained
    assert rep2.frobenius == 2 * 3 - 2 - 3
    rep3 = strongly_flat_check([4, 6, 9])
    assert not rep3.is_strongly_flat
    assert rep3.complement_gcds == (3, 1, 2)
    with pytest.raises(ValueError):
        strongly_flat_check([4, 6])


def test_ihs_generators_attain_bound():
    rng = seeded_rng(32)
    for _ in range(10):
        alphas = []
        while len(alphas) < 3:
            a = rng.randint(2, 15)
            if all(math.gcd(a, b) == 1 for b in alphas):
                alphas.append(a)
        gens = ihs_generators(alphas)
        rep = strongly_flat_check(gens)
        assert rep.is_strongly_flat and rep.attained
        sf = ihs_from_alphas(alphas)
        inv = invariants(sf)
        assert rep.frobenius == inv.gamma + inv.alpha


def test_end_projection_examples():
    assert end_projection_generators([2, 3, 7], 1) == [2, 5, 7]
    assert end_projection_generators([2, 3, 7], 2) == [1, 2, 3]
    assert end_projection_generators([3, 7, 2], 2) == [3, 7, 11]
    with pytest.raises(ValueError):
        end_projection_generators([2, 4, 7], 0)


def test_end_projection_matches_dual_coefficients(sf_237):
    """The projection generators are the end-coefficients of the end duals."""
    g = build_graph(sf_237)
    alphas = [a for a, _ in sf_237.legs]
    for end in range(3):
        end_vertex = g.legs[end][-1]
        coeffs = [dual_cycle(g, g.legs[i][-1])[end_vertex] for i in range(3)]
        assert all(c.denominator == 1 for c in coeffs)  # trivial class group
        assert end_projection_generators(alphas, end) == sorted(int(c) for c in coeffs)


def test_poincare(sf_237, sf_e8, sf_star70, sf_base4):
    p = poincare(sf_237, 50)
    assert p.pg == 1
    assert p.p0_plus == (0, 1)  # only N(1) = -2 contributes
    assert len(p.p0_plus) - 1 == 1 == invariants(sf_237).gamma  # degree = gamma (Gorenstein)
    p8 = poincare(sf_e8, 40)
    assert p8.pg == 0 and p8.p0_plus == ()
    for sf in (sf_star70, sf_base4):
        inv = invariants(sf)
        sc = scalars(build_graph(sf))
        pp = poincare(sf, int(inv.alpha + 5))
        # degree of the polynomial part equals gamma - s = module Frobenius number
        assert len(pp.p0_plus) - 1 == inv.gamma - sc.s
        for ell, n in enumerate(pp.p0_neg):
            assert pp.p0[ell] - (pp.p0_plus[ell] if ell < len(pp.p0_plus) else 0) == n
    with pytest.raises(ValueError):
        poincare(sf_237, 0)


def test_poincare_gorenstein_palindrome(sf_237, sf_gor7):
    for sf in (sf_237, sf_gor7):
        inv = invariants(sf)
        gamma = int(inv.gamma)
        p = poincare(sf, gamma + 5)
        assert len(p.p0_plus) - 1 == gamma
        for ell in range(gamma + 1):
            assert p.p0_plus[ell] == p.p0[gamma - ell]


def test_symmetry_report_golden(sf_asym5, sf_gor7):
    rep1 = symmetry_report(Link(sf_asym5))
    assert not rep1.symmetric
    assert rep1.witnesses == ((4, 17), (7, 14), (10, 11))
    assert not rep1.module_principal
    rep2 = symmetry_report(Link(sf_gor7))
    assert not rep2.symmetric
    assert (6, 79) in rep2.witnesses
    assert not rep2.module_principal  # agrees with non-symmetry (Gorenstein)


def test_symmetry_ihs(sf_237, sf_e8):
    for sf in (sf_237, sf_e8):
        rep = symmetry_report(Link(sf))
        assert rep.symmetric
        assert rep.module_principal  # M = -alpha + S
        inv = invariants(sf)
        assert min_module(Link(sf)) == -inv.alpha


def test_gorenstein_symmetry_check(sf_237, sf_gor7, sf_star70, sf_e8):
    gorenstein_symmetry_check(Link(sf_237))
    gorenstein_symmetry_check(Link(sf_gor7))
    gorenstein_symmetry_check(Link(sf_e8))
    with pytest.raises(ValueError):
        gorenstein_symmetry_check(Link(sf_star70))


def test_level_set_between_semigroup_and_module(sf_asym5):
    """{N = -1} is the difference between the module and the semigroup."""
    link = Link(sf_asym5)
    for ell in range(-20, 80):
        in_diff = link.n(ell) >= -1 and not link.in_semigroup(ell)
        assert in_diff == (quasilinear(sf_asym5, ell) == -1)


def test_monoid_membership_equals_end_dual_projections(sf_237):
    """Semigroup elements are exactly the central coefficients of nonnegative
    combinations of the end-vertex duals (trivial class group case)."""
    g = build_graph(sf_237)
    duals = [dual_cycle(g, leg[-1]) for leg in g.legs]
    coeffs = [int(dv[0]) for dv in duals]
    f = frobenius_bruteforce(sf_237)
    hi = f + 2 * invariants(sf_237).alpha
    reachable = set()
    for combo in itertools.product(*(range(hi // c + 1) for c in coeffs)):
        value = sum(k * c for k, c in zip(combo, coeffs))
        if value <= hi:
            assert all(
                (sum((k * dv[v] for k, dv in zip(combo, duals)), F(0))).denominator == 1
                for v in range(g.n)
            )
            reachable.add(value)
    link = Link(sf_237)
    for ell in range(hi + 1):
        assert (ell in reachable) == link.in_semigroup(ell)


def test_frobenius_of_generators_matches_sylvester():
    rng = seeded_rng(33)
    for _ in range(20):
        a = rng.randint(2, 30)
        b = rng.randint(2, 30)
        if math.gcd(a, b) != 1:
            continue
        assert frobenius_of_generators([a, b]) == a * b - a - b
    # 20 = 6 + 14 and 27 = 6 + 21 are redundant
    assert minimal_generators_of_monoid([6, 14, 21, 20, 27]) == [6, 14, 21]


def test_generators_far_below_their_lcm_bound():
    """Generators 15..29 have f = 14 and an lcm bound of 14 digits.

    Run under a 1 GiB address-space limit, so a sieve up to the bound fails
    at once with MemoryError instead of paging the host.
    """
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from seifert_semigroup import semigroup\n"
        "gens = list(range(15, 30))\n"
        "print(semigroup.frobenius_of_generators(gens), semigroup.minimal_generators_of_monoid(gens) == gens,"
        " semigroup.strongly_flat_check(gens).frobenius)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["14", "True", "14"]


def test_generator_side_agrees_with_the_link():
    """The generators of a Link, read back through monoid_apery, give its f, gap count and generators."""
    rng = seeded_rng(44)
    checked = 0
    while checked < 40:
        sf = random_seifert(rng)
        if sf.trivial:
            continue
        checked += 1
        link = Link(sf)
        gens = minimal_generators(link)
        assert frobenius_of_generators(gens) == link.ap.frobenius, sf
        assert selmer(monoid_apery(gens)).gaps == link.ap.gaps, sf
        assert minimal_generators_of_monoid(gens) == gens, sf


def test_monoid_apery_matches_the_sieve():
    rng = seeded_rng(45)
    checked = 0
    while checked < 200:
        gens = [rng.randint(1, 30) for _ in range(rng.randint(1, 5))]
        if math.gcd(*gens) != 1:
            continue
        checked += 1
        m, apery = min(gens), monoid_apery(gens)
        hi = max(apery) + m
        assert [ell >= apery[ell % m] for ell in range(hi + 1)] == list(map(bool, monoid_sieve(gens, hi))), gens
    for bad in ([], [0, 3], [-2, 3], [4, 6]):
        with pytest.raises(ValueError):
            monoid_apery(bad)


# ---------------------------------------------------------------------------
# Apery-set quantities against the earlier per-class scans, kept as oracles


def _scan_minimal_generators_from_membership(member, frobenius):
    """Generators by testing membership across all of (0, f + m]."""
    f = max(frobenius, 0)
    m = next(s for s in range(1, f + 2) if member(s))
    gens = []
    for s in range(1, f + m + 1):
        if member(s) and not any(s - g > 0 and member(s - g) for g in gens):
            gens.append(s)
    return gens


def _module_least(link, r):
    """m_r, the least module element congruent to r (mod alpha), for 0 <= r < alpha."""
    return seifert.ceil_div(-1 - link.n.base[r], link.inv.orbit_order) * link.inv.alpha + r


def _apery_least(link, r):
    """Ap[r], the least element of S congruent to r (mod alpha), for 0 <= r < alpha."""
    return seifert.ceil_div(-link.n.base[r], link.inv.orbit_order) * link.inv.alpha + r


def _scan_symmetry_report(link):
    """Witnesses by testing membership across [0, f/2]; principality class by class."""
    f = link.ap.frobenius
    member = link.in_semigroup
    witnesses = tuple((ell, f - ell) for ell in range(f // 2 + 1) if member(ell) == member(f - ell))
    alpha, apery = link.inv.alpha, link.ap.apery
    minm = min(_module_least(link, r) for r in range(alpha))
    module_principal = all(
        _module_least(link, r) == minm + apery[(r - minm) % alpha] for r in range(alpha)
    )
    return semigroup.SymmetryReport(symmetric=not witnesses, witnesses=witnesses, module_principal=module_principal)


def _scan_level_set_identity(link):
    gamma, alpha, apery = int(link.inv.gamma), link.inv.alpha, link.ap.apery
    return all(
        _module_least(link, r) == min(apery[r], gamma + alpha - apery[(gamma - r) % alpha]) for r in range(alpha)
    )


def _apery_oracle_corpus():
    rng = seeded_rng(40)
    for _ in range(300):
        yield random_seifert(rng, max_alpha=12, alpha_cap=2000, window_cap=6000)
    for alphas in ((2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5), (2, 3, 5, 7), (3, 5, 7, 11)):
        yield ihs_from_alphas(alphas)  # alpha = alpha_1 * (alpha/alpha_1) is never a minimal generator
    # every three-leg record with alpha_i <= 6 at the least b0: alpha is a generator of many of them
    legs = [(a, w) for a in range(2, 7) for w in range(1, a) if math.gcd(a, w) == 1]
    for triple in itertools.combinations_with_replacement(legs, 3):
        yield SeifertData(math.floor(sum(F(w, a) for a, w in triple)) + 1, triple)


def test_apery_quantities_match_the_per_class_scans():
    alpha_generator = {True: 0, False: 0}
    seen = 0
    for sf in _apery_oracle_corpus():
        link = semigroup.Link(sf)
        gens = minimal_generators(link)
        assert gens == _scan_minimal_generators_from_membership(link.in_semigroup, link.ap.frobenius), sf
        minima = [_module_least(link, r) for r in range(link.inv.alpha)]
        assert min_module(link) == min(minima)
        assert frobenius_module_raw(link) == max(minima) - link.inv.alpha
        if sf.trivial:
            continue
        seen += 1
        alpha_generator[link.inv.alpha in gens] += 1
        assert symmetry_report(link) == _scan_symmetry_report(link), sf
        if link.gorenstein:
            gorenstein_symmetry_check(link)
            assert _scan_level_set_identity(link), sf
    assert seen >= 300 and min(alpha_generator.values()) > 0


def test_symmetry_report_reads_the_gap_count(monkeypatch):
    """A symmetric semigroup needs no membership test: 2*gaps == f + 1 decides it."""
    calls = []
    in_semigroup = semigroup.Link.in_semigroup
    monkeypatch.setattr(semigroup.Link, "in_semigroup", lambda self, ell: calls.append(ell) or in_semigroup(self, ell))
    rep = symmetry_report(Link(ihs_from_alphas((7, 11, 13))))
    assert rep.symmetric and rep.witnesses == () and rep.module_principal
    assert calls == []


def test_symmetry_without_a_witness_is_a_verification_failure(sf_asym5, monkeypatch):
    """A gap count off (f + 1)/2 with a symmetric membership test is a broken Link."""
    monkeypatch.setattr(semigroup.Link, "in_semigroup", lambda self, ell: ell > self.ap.frobenius - ell)
    with pytest.raises(VerificationError, match="no symmetry witness"):
        symmetry_report(Link(sf_asym5))


def test_link_keeps_only_the_table_and_the_apery_set(sf_asym5, monkeypatch):
    """After a full report no Link attribute but ap.apery holds alpha entries: the gap window is
    shorter than a period on asym5 (34 of 40) and on the large-o record (2 of 1001), tiled in one run of
    the kernel, a homology sphere builds none, and no report builds the period table."""
    from seifert_semigroup import cli

    def sized(obj, path, depth=0):
        if isinstance(obj, (list, tuple, dict, set, str, bytes, bytearray)):
            yield path, len(obj)
        if depth < 3 and hasattr(obj, "__dict__"):
            for name, value in vars(obj).items():
                yield from sized(value, f"{path}.{name}", depth + 1)

    def seifert_record(sf):
        return {"seifert": {"b0": sf.b0, "legs": [list(leg) for leg in sf.legs]}}

    large_o = SeifertData(2, ((7, 1), (11, 1), (13, 1)))  # o = 1691 > alpha = 1001
    built, tiles = count_tables(monkeypatch), count_calls(monkeypatch, seifert.quasilinear_tiles)
    for record, window in (({"alphas": [7, 11, 13]}, None), (seifert_record(sf_asym5), 34), (seifert_record(large_o), 2)):
        links = []
        monkeypatch.setattr(cli, "Link", lambda sf: links.append(semigroup.Link(sf)) or links[-1])
        cli.full_report(record)
        (link,) = links
        assert sorted(path for path, size in sized(link, "link") if size >= link.inv.alpha) == ["link.ap.apery"]
        assert "n" not in vars(link) and built == []
        assert len(vars(link).get("window", ())) == (window or 0)
    assert large_o.inv.orbit_order == 1691 and link.w == 2 and link.ap.apery[2:] == tuple(range(2, 1001))
    assert [args[1:] for args in tiles] == [(-8, 26), (0, 2)]


def test_a_link_builds_its_table_on_first_use():
    """R3 of the scale matrix, alpha ~ 1.0e18: the constructor allocates nothing alpha-sized."""
    link = Link(SeifertData(3, ((1000003, 1), (1000033, 1), (1000037, 1))))
    assert "n" not in vars(link)
    link = Link(ihs_from_alphas((7, 11, 13)))
    assert link.n(1001) == 1 and "n" in vars(link)


def test_homology_spheres_read_off_the_theorem_equal_the_table_and_the_sieve():
    """The closed-form Ap equals the period table's, and the theorem's generators the sieve of it, on
    seeded spheres given by alphas, by their Seifert data with the legs reversed and as m = 1 bh records."""
    from seifert_semigroup.brieskorn import bh_generators, bh_seifert, classify
    from seifert_semigroup.semigroup import _generators_from_apery
    from seifert_semigroup.verification import random_coprime_alphas

    rng = seeded_rng(46)
    for d in (3, 4, 5):
        for _ in range(6):
            alphas = random_coprime_alphas(rng, d, max_alpha=30, product_cap=30_000)
            sf, cls = ihs_from_alphas(alphas), classify(alphas)
            assert cls.m == 1 and bh_generators(cls) == ihs_generators(alphas)
            for data in (sf, SeifertData(sf.b0, sf.legs[::-1]), bh_seifert(cls)):
                link = Link(data)
                assert link.inv.order_h == 1
                table = tuple(_apery_least(link, r) for r in range(link.inv.alpha))
                assert link.ap.apery == table, alphas
                assert minimal_generators(link) == _generators_from_apery(table), alphas


def _tile_sum(alphas):
    """The theorem's Ap as d alpha-long tiles, one block of alpha_i values per leg cycled over the period,
    summed elementwise by d - 1 chained maps: the build that ihs_apery's leg-by-leg sum replaced."""
    alpha = math.prod(alphas)
    units = (pow(alpha // a, -1, a) for a in alphas)
    tiles = (itertools.islice(itertools.cycle([x % a * (alpha // a) for x in range(0, u * a, u)]), alpha)
             for a, u in zip(alphas, units))
    return tuple(functools.reduce(functools.partial(map, operator.add), tiles))


def _monoid_gap_flags(gens):
    """1 at each gap of the monoid of ``gens`` in [0, f], read off its Dijkstra Apery set (monoid_apery)."""
    apery = monoid_apery(gens)
    m = len(apery)
    return bytes(ell < apery[ell % m] for ell in range(max(apery) - m + 1))


def test_ihs_apery_is_certified_by_dijkstra_and_equals_the_tile_sum():
    """The leg-by-leg Ap of a sphere passes apery_certificate against the gap flags of the monoid of its
    generators q_i, read off monoid_apery, which shares nothing with the theorem or with N; and it equals the
    tile sum.  Seeded alphas for d = 3..5, fixed ones for d = 6 (all holding 2), each also in a permuted
    order; and alpha = 216,752 against the tile sum alone."""
    from seifert_semigroup.verification import apery_certificate, random_coprime_alphas

    rng = seeded_rng(47)
    cases = [random_coprime_alphas(rng, d, max_alpha=m, product_cap=50_000) for d, m in ((3, 40), (4, 25), (5, 19))
             for _ in range(4)]
    cases += [(2, 3, 5, 7, 11, 13), (2, 3, 5, 7, 11, 19), (2, 3, 5, 7, 13, 17)]
    for alphas in cases:
        flags = _monoid_gap_flags(ihs_generators(alphas))
        for order in (alphas, tuple(rng.sample(alphas, len(alphas)))):
            apery = semigroup.ihs_apery(order)
            apery_certificate(apery, flags)
            assert apery == _tile_sum(order), order
    assert semigroup.ihs_apery((16, 19, 23, 31)) == _tile_sum((16, 19, 23, 31))


def test_minimal_generators_make_no_membership_calls(sf_asym5, monkeypatch):
    """The Apery sieve reads the Apery set in C-level passes, never Link.in_semigroup: on the sphere
    (7, 11, 13), which takes the theorem's list, on asym5 and on a large-o record, whose candidates,
    those up to max(f, 0) + m, are two where alpha = 1001."""
    from seifert_semigroup.semigroup import _generators_from_apery

    large_o = SeifertData(2, ((7, 1), (11, 1), (13, 1)))
    expected = {sf: _generators_from_apery(Link(sf).ap.apery) for sf in (sf_asym5, large_o)}
    calls, sieved = [], []
    in_semigroup, sieve = semigroup.Link.in_semigroup, semigroup._sieve
    monkeypatch.setattr(semigroup.Link, "in_semigroup", lambda self, ell: calls.append(ell) or in_semigroup(self, ell))
    monkeypatch.setattr(semigroup, "_sieve", lambda apery, candidates: sieved.append(candidates) or sieve(apery, candidates))
    assert minimal_generators(Link(ihs_from_alphas((7, 11, 13)))) == [77, 91, 143]
    for sf, gens in expected.items():
        assert minimal_generators(Link(sf)) == gens
    assert calls == []
    assert expected[large_o] == sieved[-1] == [2, 3] and large_o.inv.alpha == 1001
    assert len(sieved) == 2 and len(sieved[0]) < sf_asym5.inv.alpha


def _minimal_generators_from_membership(member, candidates):
    """Minimal generating set of a numerical semigroup given by membership.

    ``candidates`` ascend and include every minimal generator; (0, f + m]
    does, with m the multiplicity, since anything larger splits off m.  A
    member is a generator iff no smaller generator leaves a member as difference.
    """
    gens: list[int] = []
    for s in candidates:
        if member(s) and not any(member(s - g) for g in gens):
            gens.append(s)
    return gens


def test_monoid_sieve_matches_the_membership_loop():
    rng = seeded_rng(41)
    checked = 0
    while checked < 320:
        gens = [rng.randint(1, 14) for _ in range(rng.randint(1, 4))]
        if math.gcd(*gens) != 1:
            continue
        checked += 1
        top = max(frobenius_of_generators(gens), 0) + min(gens)
        expected = _minimal_generators_from_membership(monoid_sieve(gens, top).__getitem__, range(1, top + 1))
        assert minimal_generators_of_monoid(gens) == expected, gens
