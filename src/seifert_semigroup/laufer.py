"""Generalized Laufer computation sequences.

A computation sequence starts from a rational cycle and repeatedly adds a
base element E_v whose pairing with the running cycle is positive, until no
such vertex remains among the allowed ones.  On a negative-definite graph
the process terminates, the endpoint does not depend on the order of the
vertex choices, and it is the unique minimal cycle of the start's class that
is anti-nef on the allowed vertex set and dominates the start.

Two flavours are used:

* the full sequence, which lands in the Lipman cone and computes the minimal
  anti-nef representative s_h of a class h when started from r_h;
* the sequence restricted to the non-central vertices, which produces the
  ladder x^0, x^1, ... of minimal cycles with prescribed central coefficient.
  The ladder is one continued sequence: rung l+1 adds E_0 to the integer
  state of rung l and runs the same restricted loop on, so no rung restarts
  from a rational cycle (:func:`ladder`).

From these one reads off the scalars delta, Delta, s and s-check, the dual
weight sequence, and gamma - s, the module's Frobenius number when positive;
its sign decides whether the link is rational, so this route never scans N.

By default vertices are added in bulk: adding k*E_v with k = ceil of the
pairing over -euler(v) is the same as k consecutive valid single additions,
and the endpoint is unique, so the number of rounds stays small even when
the endpoint's coefficients are large.  Traced runs add one base element at
a time and record chi after every step; chi never increases along such a
sequence.

The loop runs on integers.  Every cycle reached is the start plus an integer
vector x, so the pairing with E_v is p_v = b_v + q_v, where b_v = (start, E_v)
is fixed and q_v = (x, E_v) is an integer.  With L the denominator of the
start, L*b_v = t_v is the pairing of its numerators, computed once, p_v > 0 is
q_v >= floor(-t_v/L) + 1, a threshold fixed per vertex, and the bulk step
ceil(p_v / -euler(v)) is the integer ceiling of (t_v + L*q_v)/(L*(-euler(v))).
Adding E_v changes only q_v and the q_u of its neighbours, so the vertices of
positive pairing are kept as a sorted worklist, updated per step in
O(deg v) instead of rescanned.  Since the worklist is exactly the sorted list
of positive allowed vertices that a rescan would build, "min", "max" and
"random" pick the same vertex (and draw the same random numbers) as a
rescanning loop would, so traces and their chi values do not depend on this
bookkeeping.

chi is carried along as the integer 2L*(chi(start + x) - chi(start)), through
chi(l + k*E_v) = chi(l) + k*(e_v + 2 - k*e_v)/2 - k*(l, E_v).  Only traced
steps and ladder rungs turn it into a fraction.
"""

from __future__ import annotations

import itertools
import os
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import VerificationError
from .lattice import (
    RationalCycle,
    StarGraph,
    canonical_cycle,
    chi,
    class_rep,
    vertex_pairings,
    zero_cycle,
)
from .seifert import SeifertData, quasilinear_values, require_int

DEFAULT_STEP_BUDGET = 10**7


def _step_budget() -> int:
    """SEIFERT_STEP_BUDGET, which must be a positive integer, else the default."""
    text = os.environ.get("SEIFERT_STEP_BUDGET")
    if text is None:
        return DEFAULT_STEP_BUDGET
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"SEIFERT_STEP_BUDGET must be a positive integer, got {text!r}")
    return int(text)


@dataclass(frozen=True)
class XSeries:
    """The ladder x^0, ..., x^L of a class, with n_values[l] = -(x^l, E_0)."""

    cycles: tuple[RationalCycle, ...]
    n_values: tuple[Fraction, ...]


class _Sequence:
    """Integer state of a computation sequence from ``start`` on the allowed vertices.

    Holds L, t, the thresholds, q, x and the sorted worklist described in the
    module docstring, plus chi2 = 2L*(chi(start + x) - chi(start)), kept up to
    date through chi(l + kE_v) = chi(l) + k(e_v + 2 - k*e_v)/2 - k*(l, E_v).
    """

    def __init__(self, g: StarGraph, start: RationalCycle, allowed: Iterable[int]):
        self.g, self.euler, self.adjacency = g, g.euler, g.adjacency
        self.start = start
        self.scale = start.den
        self.t = vertex_pairings(g, start.num)
        self.thr = [-tv // self.scale + 1 for tv in self.t]
        self.step = [self.scale * -e for e in self.euler]
        self.is_allowed = [False] * g.n
        for v in allowed:
            self.is_allowed[v] = True
        self.q = [0] * g.n
        self.x = [0] * g.n
        self.positive = [v for v in range(g.n) if self.is_allowed[v] and self.thr[v] <= 0]
        self.chi2 = 0

    @cached_property
    def chi_start(self) -> Fraction:
        return chi(self.g, self.start)

    def chi(self) -> Fraction:
        """chi(start + x) = chi(start) + chi2/(2L), put over one denominator."""
        c, scale2 = self.chi_start, 2 * self.scale
        return Fraction(c.numerator * scale2 + self.chi2 * c.denominator, c.denominator * scale2)

    def pairing(self, v: int) -> Fraction:
        """(start + x, E_v)."""
        return Fraction(self.t[v] + self.scale * self.q[v], self.scale)

    def add(self, v: int, k: int) -> None:
        """Add k*E_v, keeping q, chi2 and the worklist of positive allowed vertices."""
        q, thr, is_allowed, e = self.q, self.thr, self.is_allowed, self.euler[v]
        self.chi2 += k * (self.scale * (e + 2 - k * e) - 2 * (self.t[v] + self.scale * q[v]))
        self.x[v] += k
        if is_allowed[v] and q[v] + k * e < thr[v] <= q[v]:
            del self.positive[bisect_left(self.positive, v)]
        q[v] += k * e
        for u in self.adjacency[v]:
            if is_allowed[u] and q[u] < thr[u] <= q[u] + k:
                insort(self.positive, u)
            q[u] += k

    def run(self, budget: int, strategy: str = "min", rng: random.Random | None = None,
            trace: bool = False) -> list[tuple[int, Fraction]]:
        """Add base elements of positive pairing until none is left among the
        allowed vertices.  Returns the (vertex, chi) steps when ``trace`` is set,
        which adds one E_v per step; otherwise steps are bulk and not listed."""
        positive, t, q, step, scale = self.positive, self.t, self.q, self.step, self.scale
        steps: list[tuple[int, Fraction]] = []
        added = 0
        while positive:
            if strategy == "min":
                v = positive[0]
            elif strategy == "max":
                v = positive[-1]
            else:
                v = rng.choice(positive)
            # adding k*E_v is k valid single steps as long as the pairing stays
            # positive, i.e. for k = ceil(p_v / -euler_v) = ceil(L * p_v / step_v)
            k = 1 if trace else -((-t[v] - scale * q[v]) // step[v])
            added += k
            if added > budget:
                raise ValueError(
                    f"computation sequence exceeded the step budget SEIFERT_STEP_BUDGET = {budget}"
                )
            self.add(v, k)
            if trace:
                steps.append((v, self.chi()))
        return steps


def _shift(start: RationalCycle, x: Iterable[int]) -> RationalCycle:
    """start + x for an integer vector x."""
    den = start.den
    return RationalCycle(tuple(a + den * dx for a, dx in zip(start.num, x)), den)


def to_antinef(
    g: StarGraph,
    start: RationalCycle,
    *,
    vertices: Iterable[int] | None = None,
    trace: bool = False,
    strategy: str = "min",
    rng: random.Random | None = None,
) -> tuple[RationalCycle, tuple[tuple[int, Fraction], ...] | None]:
    """Run the computation sequence from ``start`` until anti-nef on ``vertices``.

    Returns the endpoint (the minimal cycle of the class that dominates
    ``start`` and pairs non-positively with every allowed vertex) and, when
    ``trace`` is set, the steps of the single-stepped sequence as (vertex
    added, chi after the addition); chi is non-increasing along them.
    ``strategy`` picks among the vertices with positive pairing: "min"
    (default), "max", or "random" (needs ``rng``); the endpoint is the same
    for every strategy.
    """
    if strategy not in ("min", "max", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "random" and rng is None:
        raise ValueError("strategy 'random' needs an rng")
    seq = _Sequence(g, start, range(g.n) if vertices is None else vertices)
    steps = seq.run(_step_budget(), strategy, rng, trace)
    return _shift(start, seq.x), tuple(steps) if trace else None


class Rung(NamedTuple):
    """The rung x^l = r_h + x of a ladder, with what the walker reads off it."""

    start: RationalCycle  # r_h
    x: tuple[int, ...]
    n_value: Fraction  # -(x^l, E_0)
    chi: Fraction  # chi(x^l)
    antinef: bool  # (x^l, E_0) <= 0: x^l is anti-nef on every vertex

    @property
    def cycle(self) -> RationalCycle:
        return _shift(self.start, self.x)


def ladder(g: StarGraph, rep: RationalCycle) -> Iterator[Rung]:
    """The rungs x^0, x^1, ... of the class of ``rep`` = r_h, walked as one continued sequence.

    x^0 is the endpoint of the restricted sequence from r_h; x^{l+1} adds E_0
    to the state of x^l and continues the same restricted sequence.  The step
    budget applies to each rung.
    """
    seq = _Sequence(g, rep, range(1, g.n))
    budget = _step_budget()
    for ell in itertools.count():
        if ell:
            seq.add(0, 1)
        seq.run(budget)
        if seq.x[0] != ell:
            raise VerificationError(
                f"central coefficient of x^{ell} is {rep[0] + seq.x[0]}, not {rep[0] + ell}"
            )
        yield Rung(rep, tuple(seq.x), -seq.pairing(0), seq.chi(), seq.q[0] < seq.thr[0])


def x_series(g: StarGraph, rep: RationalCycle, up_to: int) -> XSeries:
    """The cycles x^0, ..., x^{up_to} of the class, read off :func:`ladder`.

    x^l is the minimal cycle of the class with central coefficient
    m_0(r_h) + l that is anti-nef on the non-central vertices.
    """
    if require_int(up_to, "up_to") < 0:
        raise ValueError("up_to must be >= 0")
    rungs = list(itertools.islice(ladder(g, rep), up_to + 1))
    return XSeries(cycles=tuple(r.cycle for r in rungs), n_values=tuple(r.n_value for r in rungs))


@dataclass(frozen=True)
class LauferScalars:
    """Scalars of the two distinguished classes of a graph.

    delta     -- central coefficient of s_[Z_K] - r_[Z_K] (an integer);
    big_delta -- central coefficient of Z_K - r_[Z_K] (an integer, >= delta);
    s         -- central coefficient of s_[Z_K];
    s_check   -- central coefficient of s_[Z_K + E_0^*].
    """

    delta: int
    big_delta: int
    s: Fraction
    s_check: Fraction
    s_cycle: RationalCycle
    s_check_cycle: RationalCycle


def scalars(g: StarGraph) -> LauferScalars:
    zk = canonical_cycle(g)
    r = class_rep(zk)
    s_cycle, _ = to_antinef(g, r)
    if not zk >= s_cycle:
        raise VerificationError("Z_K does not dominate s_[Z_K]")
    r2 = class_rep(zk + g.e0_star)
    s_check_cycle, _ = to_antinef(g, r2)
    return LauferScalars(
        delta=int(s_cycle[0] - r[0]),  # s_[Z_K] is r_[Z_K] plus an integer vector
        big_delta=zk.num[0] // zk.den,  # m_0(Z_K - r_[Z_K]), the floor of m_0(Z_K)
        s=s_cycle[0],
        s_check=s_check_cycle[0],
        s_cycle=s_cycle,
        s_check_cycle=s_check_cycle,
    )


def frobenius_module(g: StarGraph) -> int:
    """gamma - s, the largest integer outside the module of the link, by the lattice formula.

    Compared with Delta - delta - 1 and the central coefficient of
    Z_K - s_[Z_K] minus one.  By the definitions of delta and Delta all three
    are gamma - s, so the comparison only catches a :class:`LauferScalars`
    whose ``s`` disagrees with its ``s_cycle``; the independent check of this
    route is the brute scan that ``frobenius --method both`` and ``verify``
    compare it with.  Negative exactly on rational links, and never 0, as
    N(0) = 0 puts 0 in the module: its sign decides rationality.
    """
    sc = g.scalars
    zk = canonical_cycle(g)
    gamma = zk[0] - 1
    candidates = {gamma - sc.s, Fraction(sc.big_delta - sc.delta - 1), (zk - sc.s_cycle)[0] - 1}
    if len(candidates) != 1:
        raise VerificationError(f"module Frobenius expressions disagree: {sorted(candidates)}")
    value = candidates.pop()
    if value.denominator != 1 or value == 0:
        raise VerificationError(f"module Frobenius number {value} is not a nonzero integer")
    return int(value)


def dual_check(sf: SeifertData) -> None:
    """Verify the duality between the ladders of the trivial class and of [Z_K].

    Checks, over 0 <= l <= Delta: chi(x*(l)) = chi(x(Delta - l)); over
    0 <= l <= Delta - 1: N(l) + N*(Delta - 1 - l) = -2 with
    N*(l) = -(x*(l), E_0).  Also confirms that the first anti-nef rung of the
    x*-ladder is delta = m_0(s_[Z_K] - r_[Z_K]), that x*(delta) = s_[Z_K],
    and the sign pattern of (x*(l), E_0) across the ladder.  chi, N* and
    anti-nefness are read off the ladder walker; only x*(delta) is built as
    a cycle.  The ladders run on ``sf.graph``.  Every failure found is
    reported in one :class:`VerificationError`.
    """
    g = sf.graph
    sc = g.scalars
    delta, big_delta = sc.delta, sc.big_delta
    failures = []

    def rungs(c):
        return list(itertools.islice(ladder(g, class_rep(c)), big_delta + 1))

    zero, star = rungs(zero_cycle(g.n)), rungs(canonical_cycle(g))
    antinef_indices = [ell for ell, rung in enumerate(star) if rung.antinef]
    if not antinef_indices or antinef_indices[0] != delta:
        failures.append(f"first anti-nef rung {antinef_indices[:1]} != delta={delta}")
    if star[delta].cycle != sc.s_cycle:
        failures.append("x*(delta) != s_[Z_K]")
    for ell in range(delta):
        if not star[ell].n_value < 0:
            failures.append(f"(x*({ell}), E_0) not positive before delta")
            break
    if not star[delta].n_value >= 0:
        failures.append("(x*(delta), E_0) not <= 0")
    for ell in range(big_delta + 1):
        if star[ell].chi != zero[big_delta - ell].chi:
            failures.append(f"chi(x*({ell})) != chi(x({big_delta - ell}))")
            break
    for ell, n_ell in enumerate(quasilinear_values(sf, range(big_delta))):
        n_star = star[big_delta - 1 - ell].n_value
        if n_ell + n_star != -2:
            failures.append(f"N({ell}) + N*({big_delta - 1 - ell}) = {n_ell + n_star} != -2")
            break
    if failures:
        raise VerificationError("; ".join(failures))
