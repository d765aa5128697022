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
  ladder x^0, x^1, ... of minimal cycles with prescribed central coefficient
  (each rung obtained from the previous one by adding E_0 and re-running the
  restricted sequence).

From these one reads off the scalars delta, Delta, s and s-check, the dual
weight sequence, and the Frobenius number of the module of the link.

By default vertices are added in bulk: adding k*E_v with k = ceil of the
pairing over -euler(v) is the same as k consecutive valid single additions,
and the endpoint is unique, so the number of rounds stays small even when
the endpoint's coefficients are large.  Traced runs add one base element at
a time and record chi after every step; chi never increases along such a
sequence.

The loop runs on integers.  Every cycle reached is the start plus an integer
vector x, so the pairing with E_v is p_v = b_v + q_v, where b_v = (start, E_v)
is fixed and q_v = (x, E_v) is an integer.  With L the common denominator of
the start, L*b_v = t_v is an integer computed once, p_v > 0 is
q_v >= floor(-t_v/L) + 1, a threshold fixed per vertex, and the bulk step
ceil(p_v / -euler(v)) is the integer ceiling of (t_v + L*q_v)/(L*(-euler(v))).
Adding E_v changes only q_v and the q_u of its neighbours, so the vertices of
positive pairing are kept as a sorted worklist, updated per step in
O(deg v) instead of rescanned.  Since the worklist is exactly the sorted list
of positive allowed vertices that a rescan would build, "min", "max" and
"random" pick the same vertex (and draw the same random numbers) as a
rescanning loop would, so traces and their chi values do not depend on this
bookkeeping.  Only traced runs touch fractions inside the loop, for chi.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import RationalLinkError, VerificationError
from .lattice import (
    ClassRep,
    RationalCycle,
    StarGraph,
    canonical_cycle,
    chi,
    class_rep,
    dual_cycle,
    is_antinef,
    pairing_with_vertex,
    r_of_class,
    unit_cycle,
    zero_cycle,
)
from .seifert import from_graph, is_rational_link, quasilinear

DEFAULT_STEP_BUDGET = 10**7


def _step_budget(override: int | None) -> int:
    if override is not None:
        return override
    return int(os.environ.get("SEIFERT_STEP_BUDGET", DEFAULT_STEP_BUDGET))


@dataclass(frozen=True)
class LauferTrace:
    """Record of a single-stepped computation sequence.

    ``steps`` lists (vertex added, chi after the addition); chi is
    non-increasing along the list.
    """

    start: RationalCycle
    steps: tuple[tuple[int, Fraction], ...]
    result: RationalCycle


@dataclass(frozen=True)
class XSeries:
    """The ladder x^0, ..., x^L of a class, with n_values[l] = -(x^l, E_0)."""

    rep: ClassRep
    cycles: tuple[RationalCycle, ...]
    n_values: tuple[Fraction, ...]


def to_antinef(
    g: StarGraph,
    start: RationalCycle,
    *,
    vertices: Iterable[int] | None = None,
    trace: bool = False,
    strategy: str = "min",
    rng: random.Random | None = None,
    step_budget: int | None = None,
) -> tuple[RationalCycle, LauferTrace | None]:
    """Run the computation sequence from ``start`` until anti-nef on ``vertices``.

    Returns the endpoint (the minimal cycle of the class that dominates
    ``start`` and pairs non-positively with every allowed vertex) and, when
    ``trace`` is set, the single-stepped trace.  ``strategy`` picks among the
    vertices with positive pairing: "min" (default), "max", or "random"
    (needs ``rng``); the endpoint is the same for every strategy.
    """
    if strategy not in ("min", "max", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "random" and rng is None:
        raise ValueError("strategy 'random' needs an rng")
    allowed = range(g.n) if vertices is None else sorted(set(vertices))
    is_allowed = [False] * g.n
    for v in allowed:
        is_allowed[v] = True
    euler = g.euler
    # with L the common denominator of ``start``, L * p_v = t_v + L * q_v, where
    # t_v = (L * start, E_v) is an integer and q_v = (x, E_v) for the integer
    # vector x added so far; so p_v > 0 iff q_v >= thr_v = floor(-t_v / L) + 1
    scale = math.lcm(*(c.denominator for c in start.coeffs))
    a = [c.numerator * (scale // c.denominator) for c in start.coeffs]
    t = [e * a[v] + sum(a[u] for u in adj) for v, (e, adj) in enumerate(zip(euler, g.adjacency))]
    thr = [-tv // scale + 1 for tv in t]
    step = [scale * -e for e in euler]
    nbrs = [tuple(u for u in adj if is_allowed[u]) for adj in g.adjacency]
    budget = _step_budget(step_budget)
    q = [0] * g.n
    x = [0] * g.n
    positive = [v for v in allowed if thr[v] <= 0]  # sorted, as ``allowed`` is
    steps: list[tuple[int, Fraction]] = []
    chi_running = chi(g, start) if trace else None
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
            raise RuntimeError(
                f"computation sequence exceeded the step budget ({budget}); "
                "this indicates a bug or a non-negative-definite graph"
            )
        x[v] += k
        if trace:
            chi_running = chi_running + 1 - (Fraction(t[v], scale) + q[v])
            steps.append((v, chi_running))
        q[v] += k * euler[v]
        if q[v] < thr[v]:
            del positive[bisect_left(positive, v)]
        for u in nbrs[v]:
            if q[u] < thr[u] <= q[u] + k:
                insort(positive, u)
            q[u] += k
    result = RationalCycle(tuple(c + dx if dx else c for c, dx in zip(start.coeffs, x)))
    if trace:
        return result, LauferTrace(start=start, steps=tuple(steps), result=result)
    return result, None


def x_series(g: StarGraph, rep: ClassRep, up_to: int, *, step_budget: int | None = None) -> XSeries:
    """The cycles x^0, ..., x^{up_to} of the class, via restricted sequences.

    x^0 is the endpoint of the restricted sequence from r_h; each x^{l+1} is
    the endpoint of the restricted sequence from x^l + E_0.  x^l is the
    minimal cycle of the class with central coefficient m_0(r_h) + l that is
    anti-nef on the non-central vertices.
    """
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    restricted = range(1, g.n)
    e0 = unit_cycle(g.n, 0)
    current, _ = to_antinef(g, r_of_class(rep), vertices=restricted, step_budget=step_budget)
    cycles = [current]
    for _ in range(up_to):
        current, _ = to_antinef(g, current + e0, vertices=restricted, step_budget=step_budget)
        cycles.append(current)
    r0 = rep.fractional[0]
    for ell, x in enumerate(cycles):
        if x[0] != r0 + ell:
            raise VerificationError(f"central coefficient of x^{ell} is {x[0]}, not {r0 + ell}")
    n_values = tuple(-pairing_with_vertex(g, x, 0) for x in cycles)
    return XSeries(rep=rep, cycles=tuple(cycles), n_values=n_values)


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
    r = r_of_class(class_rep(zk))
    s_cycle, _ = to_antinef(g, r)
    delta = s_cycle[0] - r[0]
    big_delta = zk[0] - r[0]
    if delta.denominator != 1 or big_delta.denominator != 1:
        raise VerificationError(f"delta = {delta} and Delta = {big_delta} must be integers")
    if not zk >= s_cycle:
        raise VerificationError("Z_K does not dominate s_[Z_K]")
    r2 = r_of_class(class_rep(zk + dual_cycle(g, 0)))
    s_check_cycle, _ = to_antinef(g, r2)
    return LauferScalars(
        delta=int(delta),
        big_delta=int(big_delta),
        s=s_cycle[0],
        s_check=s_check_cycle[0],
        s_cycle=s_cycle,
        s_check_cycle=s_check_cycle,
    )


def frobenius_module(g: StarGraph) -> int:
    """Frobenius number of the module of the link, by the lattice formula.

    Computed as gamma - s, cross-checked against Delta - delta - 1 and
    against the central coefficient of Z_K - s_[Z_K] minus one.  Raises
    :class:`RationalLinkError` on rational links, where the module contains
    every nonnegative integer.
    """
    if is_rational_link(from_graph(g)):
        raise RationalLinkError(
            "rational link: the module contains all of Z_{>=0}, no positive Frobenius number"
        )
    sc = g.scalars
    zk = canonical_cycle(g)
    gamma = zk[0] - 1
    candidates = {gamma - sc.s, Fraction(sc.big_delta - sc.delta - 1), (zk - sc.s_cycle)[0] - 1}
    if len(candidates) != 1:
        raise VerificationError(f"module Frobenius expressions disagree: {sorted(candidates)}")
    value = candidates.pop()
    if value.denominator != 1 or value < 1:
        raise VerificationError(f"module Frobenius number {value} is not a positive integer")
    return int(value)


@dataclass(frozen=True)
class DualityReport:
    passed: bool
    delta: int
    big_delta: int
    failures: tuple[str, ...]


def dual_check(g: StarGraph, *, step_budget: int | None = None) -> DualityReport:
    """Verify the duality between the ladders of the trivial class and of [Z_K].

    Checks, over 0 <= l <= Delta: chi(x*(l)) = chi(x(Delta - l)); over
    0 <= l <= Delta - 1: N(l) + N*(Delta - 1 - l) = -2 with
    N*(l) = -(x*(l), E_0).  Also confirms that the first anti-nef rung of the
    x*-ladder is delta = m_0(s_[Z_K] - r_[Z_K]), that x*(delta) = s_[Z_K],
    and the sign pattern of (x*(l), E_0) across the ladder.
    """
    sf = from_graph(g)
    sc = g.scalars
    delta, big_delta = sc.delta, sc.big_delta
    failures = []
    zk = canonical_cycle(g)
    series0 = x_series(g, class_rep(zero_cycle(g.n)), big_delta, step_budget=step_budget)
    series_k = x_series(g, class_rep(zk), big_delta, step_budget=step_budget)
    antinef_indices = [ell for ell, x in enumerate(series_k.cycles) if is_antinef(g, x)]
    if not antinef_indices or antinef_indices[0] != delta:
        failures.append(f"first anti-nef rung {antinef_indices[:1]} != delta={delta}")
    if series_k.cycles[delta] != sc.s_cycle:
        failures.append("x*(delta) != s_[Z_K]")
    for ell in range(delta):
        if not series_k.n_values[ell] < 0:
            failures.append(f"(x*({ell}), E_0) not positive before delta")
            break
    if not series_k.n_values[delta] >= 0:
        failures.append("(x*(delta), E_0) not <= 0")
    for ell in range(big_delta + 1):
        if chi(g, series_k.cycles[ell]) != chi(g, series0.cycles[big_delta - ell]):
            failures.append(f"chi(x*({ell})) != chi(x({big_delta - ell}))")
            break
    for ell in range(big_delta):
        n_ell = quasilinear(sf, ell)
        n_star = series_k.n_values[big_delta - 1 - ell]
        if n_ell + n_star != -2:
            failures.append(f"N({ell}) + N*({big_delta - 1 - ell}) = {n_ell + n_star} != -2")
            break
    return DualityReport(
        passed=not failures, delta=delta, big_delta=big_delta, failures=tuple(failures)
    )
