import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from seifert_semigroup import (
    Link,
    SeifertData,
    VerificationError,
    bh_generators,
    bh_seifert,
    classify,
    frobenius_bruteforce,
    ihs_generators,
    invariants,
    monoid_sieve,
    strongly_flat_check,
)
from seifert_semigroup.brieskorn import CASE_I, CASE_II, NOT_QHS, check_generators
from seifert_semigroup.cli import full_report
from seifert_semigroup.seifert import quasilinear_tiles
from seifert_semigroup.semigroup import minimal_generators, minimal_generators_of_monoid

from conftest import count_calls, count_tables


def test_classify_examples():
    cls = classify((2, 3, 7))
    assert cls.case == CASE_I and cls.m == 1
    cls = classify((6, 10, 7))
    assert cls.case == CASE_I and cls.m == 2 and sorted(cls.p) == [3, 5, 7]
    cls = classify((6, 10, 14))
    assert cls.case == CASE_II and cls.c == 1 and sorted(cls.p) == [3, 5, 7]
    assert classify((4, 4, 4)).case == NOT_QHS
    assert classify((2, 2, 2)).case == CASE_II  # degenerate: all cores are 1


def test_classify_validation():
    with pytest.raises(ValueError):
        classify((2, 3))
    with pytest.raises(ValueError):
        classify((1, 3, 5))


def test_classify_case_ii_higher_two_power():
    cls = classify((12, 10, 14, 11))  # (2^2*3, 2*5, 2*7, 11)
    assert cls.case == CASE_II and cls.c == 2
    assert sorted(cls.p) == [3, 5, 7, 11]
    assert sorted(cls.alphas) == [5, 6, 7, 11]
    assert sorted(cls.multiplicities) == [2, 2, 2, 4]


def test_generators_examples():
    assert bh_generators(classify((2, 3, 7))) == [6, 14, 21]
    assert bh_generators(classify((6, 10, 7))) == [21, 30, 35]
    assert bh_generators(classify((6, 10, 14))) == [15, 21, 35]
    with pytest.raises(ValueError):
        bh_generators(classify((4, 4, 4)))


def test_bh_seifert_case_i():
    sf = bh_seifert(classify((2, 3, 7)))
    assert sf.b0 == 1 and sf.legs == ((2, 1), (3, 1), (7, 1))
    assert (-sf.e) * invariants(sf).alpha == 1
    sf2 = bh_seifert(classify((6, 10, 7)))
    assert invariants(sf2).orbit_order == 1
    # order of the class group follows the leg product formula
    inv2 = invariants(sf2)
    assert inv2.order_h == math.prod(a for a, _ in sf2.legs) * (-sf2.e)


def test_bh_seifert_case_ii_orbit_order_two():
    sf = bh_seifert(classify((6, 10, 14)))
    assert invariants(sf).orbit_order == 2
    assert sorted(set(sf.legs)) == [(3, 1), (5, 4), (7, 6)]
    assert len(sf.legs) == 6


@pytest.mark.parametrize("exponents", [(2, 3, 7), (6, 10, 7), (6, 10, 14), (12, 10, 14, 11)])
def test_generator_membership_equivalence(exponents):
    """The monoid of the classified generators equals {N >= 0} on [0, f + 2*alpha]."""
    cls = classify(exponents)
    gens = bh_generators(cls)
    sf = bh_seifert(cls)
    inv = invariants(sf)
    f = frobenius_bruteforce(sf) if sf.b0 < sf.d else -1
    hi = max(f, 0) + 2 * inv.alpha
    table = monoid_sieve(gens, hi)
    link = Link(sf)
    assert all(bool(table[ell]) == link.in_semigroup(ell) for ell in range(hi + 1))


@pytest.mark.parametrize("exponents", [(2, 3, 7), (6, 10, 7), (6, 10, 14)])
def test_generator_sets_are_minimal(exponents):
    gens = bh_generators(classify(exponents))
    assert minimal_generators_of_monoid(gens) == gens


def test_classification_keeps_the_slot_exponents_and_orbit_order():
    cls = classify((7, 6, 10))
    assert (cls.case, cls.slot_exponents, cls.p, cls.orbit_order) == (CASE_I, (6, 10, 7), (3, 5, 7), 1)
    cls = classify((14, 11, 6, 20))
    assert (cls.case, cls.slot_exponents, cls.p, cls.orbit_order) == (CASE_II, (20, 14, 6, 11), (5, 7, 3, 11), 2)


@pytest.mark.parametrize("function", [bh_seifert, bh_generators])
def test_not_qhs_is_refused_by_the_library(function):
    with pytest.raises(ValueError, match=r"^exponents \(4, 4, 4\) give positive genus \(not a QHS\)$"):
        function(classify((4, 4, 4)))


def test_case_i_with_m_one_is_strongly_flat():
    cls = classify((3, 5, 11))
    assert cls.case == CASE_I and cls.m == 1
    gens = bh_generators(cls)
    assert gens == ihs_generators([3, 5, 11])
    assert strongly_flat_check(gens).is_strongly_flat


# The unit-tuple search that bh_seifert ran before the closed form, kept
# verbatim as an oracle: it tries every normalized (omega_i, b0) with orbit
# order two and keeps the first whose semigroup reproduces the generators.


def _leg_list(cls, omegas):
    legs = []
    for alpha, s, w in zip(cls.alphas, cls.multiplicities, omegas):
        if alpha == 1:
            continue
        legs.extend([(alpha, w)] * s)
    return tuple(legs)


def search_bh_seifert(cls):
    if cls.case == NOT_QHS:
        raise ValueError("not a rational homology sphere")
    big_lcm = math.lcm(*cls.exponents)
    alpha = math.prod(cls.alphas)  # pairwise coprime slots, = lcm of the legs

    if cls.case == CASE_I:
        omegas = [
            pow(big_lcm // a_i, -1, alpha_i) * (alpha_i - 1) % alpha_i if alpha_i > 1 else 0
            for a_i, alpha_i in zip(cls.slot_exponents, cls.alphas)
        ]
        legs = _leg_list(cls, omegas)
        if len(legs) < 3:
            raise ValueError("degenerate input: fewer than 3 legs after dropping trivial slots")
        target = 1
    else:
        best = None
        gens = bh_generators(cls)
        unit_ranges = [
            [w for w in range(1, a) if math.gcd(w, a) == 1] if a > 1 else [0]
            for a in cls.alphas
        ]
        for omegas in itertools.product(*unit_ranges):
            legs = _leg_list(cls, omegas)
            if len(legs) < 3:
                raise ValueError("degenerate input: fewer than 3 legs after dropping trivial slots")
            num = 2 + sum(w * (alpha // a) for a, w in legs)
            if num % alpha:
                continue
            cand = Link(SeifertData(num // alpha, legs))
            if _matches_generators(cand, gens):
                best = cand.sf
                break
        if best is None:
            raise ArithmeticError(
                f"no normalized Seifert data with orbit order 2 matches the generators {gens} "
                f"for exponents {cls.exponents}"
            )
        return best

    num = target + sum(w * (alpha // a) for a, w in legs)
    assert num % alpha == 0, "orbit-order constraint must have an integer solution"
    sf = SeifertData(num // alpha, legs)
    assert invariants(sf).orbit_order == target
    return sf


def _matches_generators(link, gens):
    """Membership of the monoid of ``gens`` equals that of S on [0, f + 2*alpha]."""
    hi = max(link.ap.frobenius, 0) + 2 * link.inv.alpha
    table = monoid_sieve(gens, hi)
    return all(bool(table[ell]) == link.in_semigroup(ell) for ell in range(hi + 1))


def case_ii_sweep(count, seed):
    """Seeded shuffled case-(ii) exponent tuples (2^c*p_1, 2*p_2, 2*p_3, p_4, ...):
    c = 1..3, odd pairwise coprime cores from {1, 3, 5, 7, 11, 13}, and up to
    one extra odd exponent from {9, 17}; tuples with fewer than 3 legs are skipped."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        cores = [rng.choice((1, 3, 5, 7, 11, 13)) for _ in range(3)] + rng.choice(([], [9], [17]))
        if any(math.gcd(x, y) != 1 for x, y in itertools.combinations(cores, 2)):
            continue
        c = rng.randint(1, 3)
        exponents = [2**c * cores[0], 2 * cores[1], 2 * cores[2]] + cores[3:]
        rng.shuffle(exponents)
        cls = classify(exponents)
        assert cls.case == CASE_II
        if sum(s for a, s in zip(cls.alphas, cls.multiplicities) if a > 1) >= 3:
            seen.add(tuple(exponents))
    return sorted(seen)


def test_closed_form_equals_the_search_on_case_ii():
    sweep = case_ii_sweep(300, seed=6)
    for exponents in sweep:
        cls = classify(exponents)
        assert bh_seifert(cls) == search_bh_seifert(cls), exponents


@pytest.mark.parametrize("exponents", [(2, 3, 7), (6, 10, 7), (3, 5, 11), (6, 10, 14), (12, 10, 14, 11)])
def test_closed_form_equals_the_oracle(exponents):
    cls = classify(exponents)
    assert bh_seifert(cls) == search_bh_seifert(cls)


def test_degenerate_case_ii_is_an_input_error():
    for bh in (bh_seifert, search_bh_seifert):
        with pytest.raises(ValueError, match="fewer than 3 legs"):
            bh(classify((2, 2, 2)))


def test_check_generators_rejects_a_wrong_list():
    cls = classify((6, 10, 14))
    link = Link(bh_seifert(cls))
    minimal = minimal_generators(link)
    check_generators(link, bh_generators(cls), minimal)
    with pytest.raises(VerificationError, match="disagree"):
        check_generators(link, [15, 21, 37], minimal)


def test_check_generators_accepts_a_non_minimal_list():
    """(2, 6, 10) lists 15 = 3*5 next to the minimal generators 3 and 5; a
    list without a minimal generator is still rejected."""
    cls = classify((2, 6, 10))
    link = Link(bh_seifert(cls))
    assert bh_generators(cls) == [3, 5, 15]
    minimal = minimal_generators(link)
    check_generators(link, [3, 5, 15], minimal)
    with pytest.raises(VerificationError, match="disagree at 5"):
        check_generators(link, [3, 15], minimal)


def test_full_report_builds_one_table(monkeypatch):
    """The one table of N the report builds is the gap window, [-52, 105) with w clipped to alpha = 105:
    no full-period QuasilinearTable, and the tiled kernel runs once."""
    built = count_tables(monkeypatch)
    tiles = count_calls(monkeypatch, quasilinear_tiles)
    report = full_report({"bh": [6, 10, 14]})
    assert report["bh"]["generators"] == [15, 21, 35]
    assert built == []
    assert [args[1:] for args in tiles] == [(-52, 105)]


def test_full_report_classifies_and_sieves_a_bh_record_once(monkeypatch):
    """The classification and the minimal generators in hand are reused by
    the Seifert data and by the generator check."""
    classified = count_calls(monkeypatch, classify)
    sieved = count_calls(monkeypatch, minimal_generators)
    report = full_report({"bh": [6, 10, 14]})
    assert report["bh"]["generators"] == report["semigroup"]["generators"] == [15, 21, 35]
    assert (len(classified), len(sieved)) == (1, 1)


def test_full_report_sieves_a_homology_sphere_bh_record(monkeypatch):
    """For m = 1 in case (i), bh_generators and the printed list are both the theorem's, so the report
    checks them against the sieve of the theorem's Ap (ihs_theorem): a theorem list short of a generator fails."""
    from seifert_semigroup import semigroup

    assert full_report({"bh": [2, 3, 7]})["semigroup"]["generators"] == [6, 14, 21]
    exact = semigroup.ihs_generators
    monkeypatch.setattr(semigroup, "ihs_generators", lambda alphas: exact(alphas)[:-1])
    with pytest.raises(VerificationError, match=r"theorem generators \[6, 14\] != sieved generators"):
        full_report({"bh": [2, 3, 7]})


def test_large_case_ii_answers():
    """Five exponents with prod phi(alpha_i) ~ 6.6e7 unit tuples: the closed
    form answers without a search or a table of N."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "seifert_semigroup", "bh", '{"bh":[62,74,82,43,47]}'],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert '"case": "case_ii"' in result.stdout
