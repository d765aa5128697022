"""``verify``'s random draws against the loops they replaced.

``verify --random`` draws its records and every check's sample from one rng,
so a check that draws differently moves every later record: the records of
``verify_random(20, seed=1)`` are pinned in ``golden/verify_random_draws.jsonl``.
The tie-break start built by one tree solve is compared with the sum of scaled
duals it replaced, and ``random_coprime_alphas`` with its loop before dead-end
tuples were dropped; both old forms are kept here verbatim as oracles.
"""

import json
import math
import random
from collections import Counter
from pathlib import Path

from conftest import seeded_rng

from seifert_semigroup import laufer, verification
from seifert_semigroup.lattice import class_rep, dual_basis, dual_cycle, dual_sum, vertex_pairings, zero_cycle
from seifert_semigroup.verification import MAX_DRAWS, random_coprime_alphas, random_seifert, verify_seifert

GOLDEN = Path(__file__).parent / "golden"


def test_verify_random_draws_the_golden_records(monkeypatch):
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(random_seifert(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(verification, "random_seifert", recording)
    results = verification.verify_random(20, seed=1)
    assert all(res.passed for res in results)
    golden = [json.loads(line) for line in (GOLDEN / "verify_random_draws.jsonl").read_text().splitlines()]
    assert [{"b0": sf.b0, "legs": [list(leg) for leg in sf.legs]} for sf in drawn] == golden


def _old_start(g, duals, rng):
    """The random tie-break start as verify_seifert built it before dual_sum: n scalings and additions."""
    return class_rep(sum((rng.randint(0, 2) * d for d in duals), zero_cycle(g.n)))


def test_the_tree_solve_start_equals_the_sum_of_scaled_duals():
    """On seeded graphs the start class_rep(dual_sum(g, ks)) equals the old sum over the dual basis with the
    same draws, and leaves the rng where the old one did; dual_sum pairs to -ks, and E_v^* is its unit case."""
    rng = seeded_rng(60)
    for _ in range(30):
        g = random_seifert(rng, max_alpha=20).graph
        duals = dual_basis(g)
        seed = rng.randrange(2**31)
        old_rng, new_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert class_rep(dual_sum(g, [new_rng.randint(0, 2) for _ in range(g.n)])) == _old_start(g, duals, old_rng)
            assert new_rng.getstate() == old_rng.getstate()
        ks = [rng.randint(-3, 3) for _ in range(g.n)]
        total = dual_sum(g, ks)
        assert total == sum((k * d for k, d in zip(ks, duals)), zero_cycle(g.n))
        assert vertex_pairings(g, total.num) == [-k * total.den for k in ks]
        v = rng.randrange(g.n)
        assert dual_cycle(g, v) == dual_sum(g, [int(u == v) for u in range(g.n)])


def test_verify_runs_min_and_max_once_per_distinct_start(sf_asym5, monkeypatch):
    """One verify_seifert makes three traced random runs, one max run per distinct start and one min run
    per distinct start but [Z_K], whose min endpoint is the Laufer scalars' s_[Z_K]; over seeds 0-7 some
    record draws a start twice and some draws [Z_K], so both savings are exercised."""
    real, calls = laufer.to_antinef, []
    zk_rep = class_rep(sf_asym5.graph.zk)

    def counting(g, start, **kwargs):
        calls.append((g, start, kwargs.get("strategy", "min"), kwargs.get("trace", False)))
        return real(g, start, **kwargs)

    sf_asym5.graph.scalars  # the Laufer scalars make two min runs of their own; they are kept on the graph
    monkeypatch.setattr(laufer, "to_antinef", counting)
    repeats = from_scalars = 0
    for seed in range(8):
        calls.clear()
        results = verify_seifert(sf_asym5, random.Random(seed))
        assert all(res.passed for res in results)
        mine = [(start, way, traced) for g, start, way, traced in calls if g is sf_asym5.graph]
        randoms = [start for start, way, traced in mine if way == "random" and traced]
        starts = set(randoms)
        assert len(randoms) == 3
        assert Counter((start, way) for start, way, _ in mine if way != "random") == Counter(
            (start, way) for start in starts for way in (("max",) if start == zk_rep else ("min", "max")))
        repeats += len(starts) < 3
        from_scalars += zk_rep in starts
    assert repeats and from_scalars


def _old_random_coprime_alphas(rng, d, max_alpha=25, product_cap=20_000):
    """random_coprime_alphas before dead-end tuples were dropped, kept verbatim as an oracle."""
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
    raise ValueError("no tuple")


def test_random_coprime_alphas_drops_a_dead_end_tuple():
    """d = 6 in [2, 13] under 50,000 allows only (2, 3, 5, 7, 11, 13); a tuple holding 6, 10 or 12 can never
    grow to six members.  The old loop spent every draw on such a tuple on four of seeds 0-4."""
    old_failures = 0
    for seed in range(5):
        assert sorted(random_coprime_alphas(random.Random(seed), 6, max_alpha=13, product_cap=50_000)) == [
            2, 3, 5, 7, 11, 13]
        try:
            _old_random_coprime_alphas(random.Random(seed), 6, max_alpha=13, product_cap=50_000)
        except ValueError:
            old_failures += 1
    assert old_failures == 4


def test_random_coprime_alphas_draws_as_the_old_loop():
    """The dead-end test draws nothing, so on 300 seeds for each d in 3..5 the tuple and the rng state after
    it equal the old loop's."""
    for d in (3, 4, 5):
        for seed in range(300):
            old_rng, new_rng = random.Random(seed), random.Random(seed)
            assert random_coprime_alphas(new_rng, d) == _old_random_coprime_alphas(old_rng, d), (d, seed)
            assert new_rng.getstate() == old_rng.getstate(), (d, seed)
