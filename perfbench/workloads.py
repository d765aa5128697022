"""Seeded workloads of the benchmark.

A workload is a fixed list of slots.  One block holds one record per slot, in
slot order, and a run measures whole blocks, so every run sees the same mix
whatever its seed or the speed of the host; the seed only picks the records
inside each slot.  Records are pairwise distinct within a run, so the
package's unbounded caches never serve a repeat.

The generators here are the benchmark's own: they do not call the package, so
the inputs cannot drift when the package changes.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from reference import graph_size, ihs_data


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # entry point the worker calls: "batch", "frobenius" or "verify"
    slots: tuple  # (generator, keyword arguments), one record each per block
    pool_blocks: int  # blocks generated per run; a run that uses them all stops early
    min_blocks: int  # an untraced run measures at least this many blocks
    tail_pct: int  # the highest with at least ten samples beyond it after min_blocks blocks
    why: str
    lead: tuple = ()  # slots run once, as block 0, before the repeated blocks


def _coprime_unit(rng: random.Random, a: int) -> int:
    w = rng.randrange(1, a)
    while math.gcd(w, a) != 1:
        w = rng.randrange(1, a)
    return w


def general(rng, alpha, n, trivial=False, legs=(3, 5), gamma=None):
    """General Seifert data with alpha = lcm(a_i) and graph size n in the given ranges.

    b0 is the least value making e negative; ``trivial`` sets b0 = d instead,
    which makes the semigroup all of Z_{>=0}.  An optional ``gamma`` range
    bounds gamma = (d - 2 - sum 1/a_i)/|e|, which sets the length of the
    Laufer ladders that `verify` walks.
    """
    while True:
        d = rng.randint(*legs)
        pairs = []
        for _ in range(d):
            a = rng.randint(2, 30)
            pairs.append((a, _coprime_unit(rng, a)))
        lcm = math.lcm(*(a for a, _ in pairs))
        if not alpha[0] <= lcm <= alpha[1] or not n[0] <= graph_size(pairs) <= n[1]:
            continue
        total = sum(Fraction(w, a) for a, w in pairs)
        b0 = d if trivial else math.floor(total) + 1
        if not trivial and b0 >= d:
            continue
        if gamma and not gamma[0] <= (d - 2 - sum(Fraction(1, a) for a, _ in pairs)) / (b0 - total) <= gamma[1]:
            continue
        return {"seifert": {"b0": b0, "legs": [list(p) for p in pairs]}}


def _pairwise_coprime(nums) -> bool:
    return all(math.gcd(x, y) == 1 for i, x in enumerate(nums) for y in nums[i + 1 :])


def alphas(rng, alpha, d=(3, 4), amin=2, amax=25, n_max=16):
    """Integral homology sphere shorthand: pairwise coprime alphas, product in range.

    All but the last alpha are drawn from [amin, amax]; the last one is drawn
    from the values >= amin that put the product in range.  A larger amin
    narrows gamma/alpha = d - 2 - sum 1/alpha_i, which sets the length of the
    scans as much as alpha does.  The plumbing graph has at most ``n_max``
    vertices, so the lattice solve stays small.
    """
    while True:
        nums = [rng.randint(amin, amax) for _ in range(rng.randint(*d) - 1)]
        part = math.prod(nums)
        lo, hi = max(amin, -(-alpha[0] // part)), alpha[1] // part
        if lo > hi:
            continue
        nums.append(rng.randint(lo, hi))
        if _pairwise_coprime(nums) and graph_size(ihs_data(nums)[1]) <= n_max:
            return {"alphas": nums}


def bh_case_i(rng, pmax=9):
    """Brieskorn-Hamm exponents (m*p1, m*p2, p3[, p4]) with coprime cores."""
    while True:
        p = [rng.randint(2, pmax) for _ in range(rng.randint(3, 4))]
        m = rng.randint(1, 3)
        if _pairwise_coprime(p) and all(math.gcd(m, x) == 1 for x in p[2:]):
            return {"bh": [m * p[0], m * p[1]] + p[2:]}


# a_i dividing 12 keeps alpha <= 12(k+1)(k+2), so the brute scans stay small
# beside the solve, and records of one rung cost about the same.
_SMALL_LEGS = [(a, w) for a in (2, 3, 4, 6, 12) for w in range(1, a) if math.gcd(a, w) == 1]


def ladder(rng, n):
    """Graph-size ladder: b0 = 4, legs (k+1,k), (k+2,k+1) and three small legs.

    k is chosen so the graph has n vertices; small legs that leave n - 1
    are redrawn, so records of one rung share the cost of the solve.  Only non-rational
    links are kept, so the module Frobenius number exists and both of its
    routes run.
    """
    while True:
        small = [rng.choice(_SMALL_LEGS) for _ in range(3)]
        k = (n - 2 - (graph_size(small) - 1)) // 2
        if k < 2:
            continue
        legs = [(k + 1, k), (k + 2, k + 1)] + small
        if graph_size(legs) != n:
            continue
        if Fraction(-4) + sum(Fraction(w, a) for a, w in legs) >= 0:
            continue
        if not _has_module_gap(4, legs):
            continue
        return {"seifert": {"b0": 4, "legs": [list(p) for p in legs]}}


def _has_module_gap(b0, legs) -> bool:
    """Some ell in [0, gamma] has N(ell) <= -2, i.e. the link is not rational."""
    e = Fraction(-b0) + sum(Fraction(w, a) for a, w in legs)
    gamma = (len(legs) - 2 - sum(Fraction(1, a) for a, _ in legs)) / (-e)
    return any(
        b0 * ell - sum(-((-ell * w) // a) for a, w in legs) <= -2
        for ell in range(max(0, math.floor(gamma)) + 1)
    )


def _key(record: dict):
    if "bh" in record:
        return ("bh", tuple(sorted(record["bh"])))
    if "alphas" in record:
        b0, legs = ihs_data(record["alphas"])
    else:
        b0, legs = record["seifert"]["b0"], tuple(tuple(p) for p in record["seifert"]["legs"])
    return (b0, tuple(sorted(legs)))


# The batch corpus follows the package's own random-input generators with the
# arguments the test suite uses: `verification.random_seifert` with its
# defaults, and `verification.random_coprime_alphas` with d in {3, 4} (as in
# acceptance criterion 5).  They are re-implemented here, not called.


def seifert_corpus(rng, max_legs=5, max_alpha=30, alpha_cap=60_000, window_cap=120_000):
    """One draw of `random_seifert` with its default arguments.

    b0 is the least value making e negative, bumped by one with probability
    0.15; records with alpha or alpha + gamma above the caps are redrawn.
    """
    while True:
        d = rng.randint(3, max_legs)
        pairs = []
        for _ in range(d):
            a = rng.randint(2, max_alpha)
            pairs.append((a, _coprime_unit(rng, a)))
        total = sum(Fraction(w, a) for a, w in pairs)
        b0 = math.floor(total) + 1 + (1 if rng.random() < 0.15 else 0)
        alpha = math.lcm(*(a for a, _ in pairs))
        gamma = (d - 2 - sum(Fraction(1, a) for a, _ in pairs)) / (b0 - total)
        if alpha <= alpha_cap and alpha + gamma <= window_cap:
            return {"seifert": {"b0": b0, "legs": [list(p) for p in pairs]}}


def sphere_corpus(rng, max_alpha=25, product_cap=20_000):
    """One draw of `random_coprime_alphas(rng, d)` with d drawn from {3, 4}."""
    d = rng.choice([3, 4])
    while True:
        nums = []
        while len(nums) < d:
            a = rng.randint(2, max_alpha)
            if all(math.gcd(a, b) == 1 for b in nums):
                nums.append(a)
        if math.prod(nums) <= product_cap:
            return {"alphas": nums}


def cost_proxy(record) -> float:
    """alpha*d + n^3, with alpha*d quartered for a trivial record and doubled
    for a homology sphere.

    The N scans grow with alpha times the number of legs, the dense solve
    with n^3, and a trivial record (b0 >= d) skips most scans.  The weights
    are least-squares fits of log `_batch_one` time on 300 general records
    and 150 spheres (residual 10 % and 6 %); a proxy only sorts records into
    strata, so a poor fit costs steadiness, not faithfulness to the corpus.
    """
    if "alphas" in record:
        b0, legs = ihs_data(record["alphas"])
        return 2 * math.prod(record["alphas"]) * len(legs) + graph_size(legs) ** 3
    b0, legs = record["seifert"]["b0"], record["seifert"]["legs"]
    scans = math.lcm(*(a for a, _ in legs)) * len(legs)
    return (scans / 4 if b0 >= len(legs) else scans) + graph_size(legs) ** 3


@functools.cache
def _edges(source, bins: int) -> tuple:
    """Quantiles of the cost proxy that cut ``source`` into ``bins`` equally likely strata.

    Taken over 4096 draws with a fixed seed, so the strata do not depend on
    the run's seed.
    """
    rng = random.Random(f"strata/{source.__name__}")
    values = sorted(cost_proxy(source(rng)) for _ in range(4096))
    return tuple(values[len(values) * i // bins] for i in range(1, bins))


def stratum(rng, source, bins, index):
    """A draw of ``source`` conditioned on its proxy lying in stratum ``index``.

    One record from each of the ``bins`` strata is a stratified sample of
    ``source``: every stratum is equally likely, so the block keeps the
    corpus distribution while its cost varies far less between seeds.
    """
    edges = _edges(source, bins)
    while True:
        record = source(rng)
        if bisect.bisect_right(edges, cost_proxy(record)) == index:
            return record


def _batch_slots():
    """64 strata of the general corpus, 12 of the spheres and four Brieskorn-Hamm
    records, heaviest first, so `batch --jobs 2` ends on light chunks."""
    strata = [(seifert_corpus, 64, i) for i in range(64)] + [(sphere_corpus, 12, i) for i in range(12)]
    strata.sort(key=lambda s: -(s[2] + 0.5) / s[1])
    return tuple((stratum, {"source": src, "bins": bins, "index": i}) for src, bins, i in strata) + (
    ) + ((bh_case_i, {}),) * 4


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="batch-mixed",
            kind="batch",
            slots=_batch_slots(),
            pool_blocks=4,
            min_blocks=2,
            tail_pct=93,
            why="stratified sample of the package's random Seifert and homology-sphere corpus plus "
            "Brieskorn-Hamm records; N-scans and the dense solve split the time",
        ),
        Workload(
            name="formula-graph",
            kind="frobenius",
            # largest first, so a two-process pool is not left waiting on the last record;
            # three n = 27 slots, with seven slots on each side, hold the median, and
            # three n = 37 slots, with two above, the tail percentile, so each falls
            # in the middle of one rung's records whatever the number of blocks
            slots=tuple(
                (ladder, {"n": n}) for n in (45, 41, 37, 37, 37, 33, 30, 27, 27, 27, 24, 23, 22, 21, 19, 17, 15)
            ),
            pool_blocks=8,  # some rungs have only a few non-rational small-leg choices
            min_blocks=3,
            tail_pct=80,
            why="graph-size ladder n=15..45 through frobenius --method both; "
            "the dense lattice solve does nearly all the work",
        ),
        Workload(
            name="period-ihs",
            kind="batch",
            # one record at alpha ~ 2.2e5 takes about 5.6 s, so it runs once per
            # run; each block's rate counts it with that block (see run.py)
            lead=((alphas, {"alpha": (213000, 217000), "d": (4, 4), "amin": 13, "amax": 40, "n_max": 20}),),
            slots=tuple(
                (alphas, {"alpha": (lo, hi), "d": (d, d), "amin": amin, "amax": amax, "n_max": n_max})
                # heaviest first, so `batch --jobs 2` ends on light chunks
                for lo, hi, d, amin, amax, n_max, count in (
                    (44000, 48000, 4, 8, 40, 20, 1),
                    (9000, 11000, 3, 12, 60, 20, 5),  # holds p66
                    (4600, 5400, 3, 10, 60, 20, 3),  # holds the median
                    (2050, 2800, 3, 7, 30, 16, 2),
                    (700, 1300, 3, 5, 25, 16, 4),
                )
                for _ in range(count)
            ),
            pool_blocks=6,
            min_blocks=2,
            tail_pct=66,
            why="homology spheres with alpha 1e3..2.2e5 through the batch path; "
            "N tables and scans do nearly all the work and memory grows with alpha",
        ),
        Workload(
            name="verify-random",
            kind="verify",
            # gamma in [8, 16] keeps every ladder walkable (Delta <= 400), so
            # each record runs the same checks; the cost of verify grows with n
            # and gamma, so both are held narrow and records of a slot cost alike
            slots=(
                (general, {"alpha": (10, 300), "n": (6, 8), "gamma": (8, 16)}),
                (general, {"alpha": (200, 400), "n": (10, 10), "legs": (4, 4), "gamma": (8, 16)}),
                (general, {"alpha": (800, 1200), "n": (11, 11), "legs": (4, 4), "trivial": True}),
            )
            # three cheaper slots, four median slots and three dearer ones: p50 falls
            # in the middle of the median group and p80 in the middle of the p80 pair
            + ((general, {"alpha": (800, 1200), "n": (12, 12), "legs": (4, 4), "gamma": (8, 16)}),) * 4
            + ((general, {"alpha": (3000, 4000), "n": (20, 20), "legs": (4, 4), "gamma": (8, 16)}),) * 2  # p80
            + ((general, {"alpha": (14000, 18000), "n": (16, 16), "legs": (4, 4), "gamma": (8, 16)}),),
            pool_blocks=16,
            min_blocks=5,
            tail_pct=80,
            why="verify_seifert self-check suite; the only path into augment, "
            "Laufer ladders, the all-n dual basis and Smith normal form",
        ),
    )
}


def generate(workload: Workload, seed: int) -> list[list[dict]]:
    """The lead block, if any, then ``pool_blocks`` blocks of input lines;
    the same for the same seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    seen = set()
    blocks = []
    layout = ([workload.lead] if workload.lead else []) + [workload.slots] * workload.pool_blocks
    for b, slots in enumerate(layout):
        block = []
        for s, (gen, kwargs) in enumerate(slots):
            for _ in range(10_000):
                record = gen(rng, **kwargs)
                if _key(record) not in seen:
                    break
            else:
                raise RuntimeError(f"{workload.name}: slot {s} has too few distinct records")
            seen.add(_key(record))
            if workload.kind == "batch":
                record = {"id": f"{b}.{s}", **record}
            block.append({"block": b, "slot": s, "record": record, "rseed": rng.randrange(2**31)})
        blocks.append(block)
    return blocks
