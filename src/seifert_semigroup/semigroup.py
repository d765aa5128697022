"""The numerical semigroup of a Seifert link and the module over it.

Membership is governed by the quasi-linear function N: the semigroup is
{ell : N(ell) >= 0}, the module is {ell : N(ell) >= -1}.  Both Frobenius
numbers admit honest brute-force scans over windows that are theorems (the
semigroup scan is exact on (0, alpha + gamma], the module scan on
(0, gamma]), and both admit closed lattice formulas; the two routes are kept
separate so each can certify the other.

Every other semigroup and module quantity is read off one :class:`Link` per
record: one table of N over a period gives the least element of each residue
class at each level, the Apery set at level 0 and the module minima at -1.
The module is S - alpha for orbit order one and one pass over the minima
otherwise.  The generators are sieved out of the Apery elements, one C-level
pass per generator, and symmetry follows from Selmer's gap count.  Also here:
the Apery set of a monoid given by generators, read the same way, strongly
flat recognition, end-vertex projections of integral homology sphere
semigroups and the Poincare series split into polynomial and negative parts.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, cycle, islice, repeat
from typing import Iterator, Sequence

from .errors import RationalLinkError, TrivialSemigroupError, VerificationError
from .seifert import (
    QuasilinearTable,
    SeifertData,
    ceil_div,
    ceil_frac,
    check_alphas,
    floor_frac,
    is_numerically_gorenstein,
    quasilinear_values,
    require_int,
)


@dataclass(frozen=True)
class AperyData:
    apery: tuple[int, ...]
    frobenius: int
    gaps: int


@dataclass(frozen=True)
class ModuleData:
    min: int
    frobenius_raw: int
    principal: bool


class Link:
    """One record's semigroup and module, read off a single period table of N.

    N(q*alpha + r) = N(r) + q*o holds exactly, so the least ell = r (mod alpha)
    with N(ell) >= level is r - alpha*((N(r) - level) // o) (:meth:`least`):
    the Apery element Ap[r] at level 0, the module minimum m_r at level -1.
    Selmer's formulas give the Frobenius number max(Ap) - alpha and the gap
    count (sum(Ap) - alpha*(alpha - 1)/2)/alpha; for the trivial semigroup Ap
    is {0, ..., alpha - 1}, the Frobenius number -1 and there are no gaps.
    The Link keeps the table and Ap and no other alpha-sized container.  For
    o = 1, N(ell + alpha) = N(ell) + 1 makes the module M = {N >= -1} equal to
    S - alpha, which ``module`` reads off Ap; otherwise it makes one pass over
    the m_r.  ``ap``, ``module_min`` and ``module_frobenius_raw`` cache
    :func:`apery_selmer`, :func:`min_module` and :func:`frobenius_module_raw`.
    """

    def __init__(self, sf: SeifertData):
        self.sf = sf
        self.n = QuasilinearTable(sf)
        self.inv = sf.inv

    def least(self, level: int) -> Iterator[int]:
        """The least ell = r (mod alpha) with N(ell) >= level, for r = 0, ..., alpha - 1 (lazy)."""
        alpha, o = self.inv.alpha, self.inv.orbit_order
        steps = self.n.base if level == 0 else map((-level).__add__, self.n.base)
        steps = steps if o == 1 else map(operator.floordiv, steps, repeat(o))
        return map(operator.sub, range(alpha), map(alpha.__mul__, steps))

    @cached_property
    def ap(self) -> AperyData:
        return apery_selmer(self)

    def in_semigroup(self, ell: int) -> bool:
        return require_int(ell, "ell") >= self.ap.apery[ell % self.inv.alpha]

    @cached_property
    def module(self) -> ModuleData:
        """min(M), max(Z \\ M) and whether M = min(M) + S: m_r = min(M) + Ap[(r - min(M)) mod alpha] for all r."""
        alpha, ap = self.inv.alpha, self.ap
        if self.inv.orbit_order == 1:
            return ModuleData(min=-alpha, frobenius_raw=ap.frobenius - alpha, principal=True)
        minima = list(self.least(-1))
        lo = min(minima)
        rotated = map(lo.__add__, islice(cycle(ap.apery), -lo % alpha, None))
        return ModuleData(min=lo, frobenius_raw=max(minima) - alpha, principal=all(map(operator.eq, minima, rotated)))

    @cached_property
    def module_min(self) -> int:
        return min_module(self)

    @cached_property
    def module_frobenius_raw(self) -> int:
        return frobenius_module_raw(self)

    @property
    def rational(self) -> bool:
        """Every nonnegative integer lies in the module (equivalently p_g = 0)."""
        return self.module_frobenius_raw < 0

    @cached_property
    def gorenstein(self) -> bool:
        return is_numerically_gorenstein(self.sf)


def frobenius_bruteforce(sf: SeifertData, kind: str = "semigroup") -> int:
    """Largest non-member, by direct descending scan of N.

    The scan windows are exact: N(ell) >= 0 for ell > alpha + gamma, and
    N(ell) >= -1 for ell > gamma, so the first hit from the top is the
    Frobenius number.  The module scan is also the brute-force rationality
    test: p_g sums max(0, -1 - N(ell)) over [0, gamma] and N(0) = 0, so a
    scan without a hit means p_g = 0 and raises :class:`RationalLinkError`.
    """
    inv = sf.inv
    if kind == "semigroup":
        if sf.trivial:
            raise TrivialSemigroupError("b0 >= d: the semigroup is all of Z_{>=0}")
        ells = range(floor_frac(inv.alpha + inv.gamma), 0, -1)
        hit = next(compress(ells, map((0).__gt__, quasilinear_values(sf, ells))), None)
        if hit is None:
            raise VerificationError(f"no gap in (0, alpha + gamma] though N(1) = b0 - d = {sf.b0 - sf.d} < 0")
        return hit
    if kind == "module":
        ells = range(floor_frac(inv.gamma), 0, -1)
        hit = next(compress(ells, map((-2).__ge__, quasilinear_values(sf, ells))), None)
        if hit is None:
            raise RationalLinkError("rational link: the module contains all of Z_{>=0}")
        return hit
    raise ValueError(f"unknown kind {kind!r}")


def frobenius_module_raw(link: Link) -> int:
    """max{ell : ell not in the module}, defined for every link.

    Negative for rational links; equals the module Frobenius number otherwise.
    """
    return link.module.frobenius_raw


def frobenius_by_formula(sf: SeifertData) -> int:
    """Frobenius number of the semigroup: gamma + 1/|e| - s-check.

    Needs b0 < d (otherwise the semigroup is trivial).  The Laufer scalars
    and E_0^* are read off ``sf.graph``.  The special shapes are
    cross-checked: for orbit order one the formula collapses to
    gamma + alpha - s, and in the numerically Gorenstein case the value is
    gamma + m_0(E_0^* - s_[E_0^*]) >= gamma; a failed check raises
    :class:`VerificationError`.
    """
    if sf.trivial:
        raise TrivialSemigroupError("b0 >= d: the semigroup is all of Z_{>=0}")
    inv, g = sf.inv, sf.graph
    sc = g.scalars
    f = inv.gamma + 1 / (-inv.e) - sc.s_check
    if f.denominator != 1:
        raise VerificationError(f"formula value {f} is not an integer")
    if inv.orbit_order == 1 and f != inv.gamma + inv.alpha - sc.s:
        raise VerificationError(f"formula value {f} != gamma + alpha - s = {inv.gamma + inv.alpha - sc.s}")
    if is_numerically_gorenstein(sf):
        gorenstein = inv.gamma + (g.e0_star - sc.s_check_cycle)[0]
        if f != gorenstein or f < inv.gamma:
            raise VerificationError(
                f"formula value {f} != gamma + m_0(E_0^* - s_[E_0^*]) = {gorenstein}, or < gamma"
            )
    return int(f)


def min_module(link: Link) -> int:
    """Smallest element of the module: the least of the per-class minima m_r."""
    return link.module.min


def selmer(apery: tuple[int, ...]) -> AperyData:
    """Selmer's formulas on Ap(S, m), m = len(apery): f = max(Ap) - m, gaps = (sum(Ap) - m(m - 1)/2)/m."""
    m = len(apery)
    return AperyData(apery=apery, frobenius=max(apery) - m, gaps=(sum(apery) - m * (m - 1) // 2) // m)


def apery_selmer(link: Link) -> AperyData:
    """Apery set with respect to alpha, Selmer Frobenius number, gap count."""
    return selmer(tuple(link.least(0)))


def gap_window(sf: SeifertData) -> bytes:
    """One byte per ell in [0, alpha + gamma] by a direct scan of N, 1 at a gap and 0 at a member.

    No gap lies above alpha + gamma: ``rfind(1)`` is the Frobenius number and ``count(1)`` the gap count.
    """
    inv = sf.inv
    return bytes(map((0).__gt__, quasilinear_values(sf, range(floor_frac(inv.alpha + inv.gamma) + 1))))


def gap_count_direct(sf: SeifertData) -> int:
    """Number of gaps by direct enumeration of non-members in (0, alpha + gamma]."""
    return gap_window(sf).count(1)


# ---------------------------------------------------------------------------
# Generators


def _generators_from_apery(apery: Sequence[int]) -> list[int]:
    """Minimal generators of S from Ap(S, n), n = len(apery), by the sieve of :func:`minimal_generators`."""
    n = len(apery)
    gens, rest = [], [*islice(apery, 1, None), n]  # islice: no transient copy of Ap
    while rest:
        g = min(rest)
        gens.append(g)
        classes = map(apery.__getitem__, map(operator.mod, map(operator.sub, rest, repeat(g)), repeat(n)))
        rest = list(compress(rest, map(operator.lt, map(operator.sub, rest, repeat(g)), classes)))
    return gens


def minimal_generators(link: Link) -> list[int]:
    """Minimal generators of the semigroup of a Seifert link, sieved out of the Apery set.

    Every minimal generator but alpha is a nonzero Apery element.  Of those
    candidates and alpha, the least remaining g is a generator, and one pass
    of C-level ``map``s, recomputing c - g lazily, drops every remaining c
    with c - g in S, i.e. c - g >= Ap[(c - g) mod alpha] (g drops itself, and
    m drops all above f + m).  This is right: no pass drops a minimal
    generator, as its difference with a smaller one is not in S; and a
    non-minimal c is g + s with g < c a minimal generator and s in S, so the
    pass of g, which comes before c's turn, drops c.
    """
    return _generators_from_apery(link.ap.apery)


def monoid_sieve(gens: Sequence[int], hi: int) -> bytearray:
    """Membership table on [0, hi] of the monoid generated by ``gens``."""
    table = bytearray(hi + 1)
    table[0] = 1
    for g in sorted(set(gens)):
        if g <= 0:
            raise ValueError("generators must be positive")
        for i in range(g, hi + 1):
            if table[i - g]:
                table[i] = 1
    return table


def monoid_apery(gens: Sequence[int]) -> tuple[int, ...]:
    """Ap(S, m) of the monoid S generated by ``gens``, m = min(gens) (gcd must be 1).

    Ap[r] is the least element of S in the class r mod m: the shortest path
    from class 0 to class r when each generator g is an edge r -> r + g of
    weight g (Nijenhuis, Amer. Math. Monthly 86, 1979).  A path's weight
    lies in the class it ends in, so Dijkstra's heap holds weights alone.
    Every generator must be of type int (:func:`~seifert_semigroup.seifert.require_int`).
    """
    gens = sorted({require_int(g, "generators", "integers") for g in gens})
    if not gens or gens[0] <= 0:
        raise ValueError("generators must be positive")
    if math.gcd(*gens) != 1:
        raise ValueError("gcd of the generators must be 1")
    m, steps = gens[0], gens[1:]
    apery, heap = [-1] * m, [0]
    while heap:
        w = heapq.heappop(heap)
        if apery[w % m] < 0:
            apery[w % m] = w
            for g in steps:
                if apery[(w + g) % m] < 0:
                    heapq.heappush(heap, w + g)
    return tuple(apery)


def frobenius_of_generators(gens: Sequence[int]) -> int:
    """Frobenius number of the monoid generated by ``gens`` (gcd must be 1): Selmer's max(Ap) - m.

    The lcm bound (d-1)*lcm - sum dominates the Frobenius number of any
    coprime system of d distinct generators; a value above it is a fault.
    """
    f = selmer(monoid_apery(gens)).frobenius
    distinct = set(gens)  # integers: monoid_apery checked them
    bound = (len(distinct) - 1) * math.lcm(*distinct) - sum(distinct)
    if f > bound:
        raise VerificationError(f"the monoid of {sorted(distinct)} has a gap {f} above its Frobenius bound {bound}")
    return f


def minimal_generators_of_monoid(gens: Sequence[int]) -> list[int]:
    """Minimal generators of the monoid of ``gens``: the sieve of :func:`minimal_generators` on its Apery set."""
    return _generators_from_apery(monoid_apery(gens))


def ihs_generators(alphas: Sequence[int]) -> list[int]:
    """Generators alpha/alpha_i of the semigroup of the homology sphere with given alphas."""
    alphas = check_alphas(alphas)
    total = math.prod(alphas)
    return sorted(total // a for a in alphas)


@dataclass(frozen=True)
class StronglyFlatReport:
    is_strongly_flat: bool
    bound: int
    attained: bool
    frobenius: int
    complement_gcds: tuple[int, ...]


def strongly_flat_check(gens: Sequence[int]) -> StronglyFlatReport:
    """Strong flatness of a generating system, and the lcm upper bound.

    With alpha_i the gcd of the generators other than a_i, the system is
    strongly flat when a_i equals the product of the other alpha_j for every
    i.  The bound is (d-1)*lcm(a) - sum(a); ``attained`` reports whether the
    actual Frobenius number reaches it.
    """
    a = list(gens)
    if len(a) < 2:
        raise ValueError("need at least two positive generators")
    frob = frobenius_of_generators(a)  # refuses non-integer and non-positive generators, and gcd > 1
    comp = tuple(math.gcd(*(a[:i] + a[i + 1 :])) for i in range(len(a)))
    prod_all = math.prod(comp)
    flat = all(a[i] * comp[i] == prod_all for i in range(len(a)))
    bound = (len(a) - 1) * math.lcm(*a) - sum(a)
    return StronglyFlatReport(
        is_strongly_flat=flat,
        bound=bound,
        attained=(frob == bound),
        frobenius=frob,
        complement_gcds=comp,
    )


def end_projection_generators(alphas: Sequence[int], end_index: int) -> list[int]:
    """Generators of the projection of the homology-sphere monoid to an end leg.

    With the chosen leg labelled last, the projection is generated by the
    products of the alphas complementary to each remaining leg, together with
    ceil(prod(others) / alpha_end).
    """
    alphas = check_alphas(alphas)
    if not (0 <= require_int(end_index, "end_index") < len(alphas)):
        raise ValueError("end_index out of range")
    others = [a for i, a in enumerate(alphas) if i != end_index]
    prod_others = math.prod(others)
    gens = [prod_others // a for a in others]
    gens.append(ceil_div(prod_others, alphas[end_index]))
    return sorted(gens)


# ---------------------------------------------------------------------------
# Poincare series


@dataclass(frozen=True)
class PoincareData:
    """Coefficients of P_0, its polynomial part P_0^+ and P_0^neg = P_0 - P_0^+.

    p0[ell] = max(0, 1 + N(ell)); p0_plus[ell] = max(0, -1 - N(ell)), listed
    up to its degree (empty for rational links); p0_neg[ell] = 1 + N(ell).
    The geometric genus is the coefficient sum of the polynomial part.
    """

    p0: tuple[int, ...]
    p0_plus: tuple[int, ...]
    p0_neg: tuple[int, ...]
    pg: int


def poincare(sf: SeifertData, up_to: int) -> PoincareData:
    if require_int(up_to, "up_to") < max(0, ceil_frac(sf.inv.gamma)):
        raise ValueError("up_to must reach ceil(max(0, gamma))")
    values = list(quasilinear_values(sf, range(up_to + 1)))
    p0 = tuple(max(0, 1 + n) for n in values)
    plus_full = [max(0, -1 - n) for n in values]
    degree = max((ell for ell, c in enumerate(plus_full) if c > 0), default=-1)
    p0_plus = tuple(plus_full[: degree + 1])
    return PoincareData(
        p0=p0,
        p0_plus=p0_plus,
        p0_neg=tuple(1 + n for n in values),
        pg=sum(p0_plus),
    )


# ---------------------------------------------------------------------------
# Symmetry diagnostics


@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    witnesses: tuple[tuple[int, int], ...]
    module_principal: bool


def symmetry_report(link: Link) -> SymmetryReport:
    """Whether ell in S <=> f - ell not in S, and whether the module is
    generated by its minimum.

    S is symmetric iff it has (f + 1)/2 gaps, so only a non-symmetric S is
    scanned on [0, f/2] for witnesses, the pairs (ell, f - ell) violating the
    equivalence.  N is superadditive, so min(M) + S lies in M, and
    ``Link.module`` says whether they are equal.  For numerically Gorenstein
    data the two verdicts agree, or :class:`VerificationError` is raised.
    """
    if link.sf.trivial:
        raise TrivialSemigroupError("trivial semigroup has no finite Frobenius number")
    f, gaps, member = link.ap.frobenius, link.ap.gaps, link.in_semigroup
    symmetric = 2 * gaps == f + 1
    scan = () if symmetric else range(f // 2 + 1)
    witnesses = tuple((ell, f - ell) for ell in scan if member(ell) == member(f - ell))
    if not symmetric and not witnesses:
        raise VerificationError(f"{gaps} gaps with Frobenius number {f}, but no symmetry witness")
    module_principal = link.module.principal
    if link.gorenstein and symmetric != module_principal:
        raise VerificationError("Gorenstein symmetry/principality must agree")
    return SymmetryReport(symmetric=symmetric, witnesses=witnesses, module_principal=module_principal)


def gorenstein_symmetry_check(link: Link) -> None:
    """Numerical traces of the Gorenstein symmetry for Z_K integral.

    Checks N(ell) + N(gamma - ell) = -2; for orbit order one additionally
    N(ell) + N(alpha + gamma - ell) = -1; and the level-set identity
    {N = -1} = Z \\ ((gamma - S) u S), which in class r says
    m_r = min(Ap[r], gamma + alpha - Ap[(gamma - r) mod alpha]).  Moving ell
    by alpha moves both sides of each identity by the same multiple of o, so
    checking the residues 0 <= r < alpha covers all of Z.  The m_r come from a
    pass of their own, so on the ``verify`` path this checks the shortcut
    M = S - alpha that ``Link.module`` takes for o = 1.  Each failing identity
    is named, with its least failing class, in one :class:`VerificationError`.
    """
    if not link.gorenstein:
        raise ValueError("input is not numerically Gorenstein")
    inv = link.inv
    if inv.gamma.denominator != 1:
        raise VerificationError(f"gamma = {inv.gamma} must be an integer for numerically Gorenstein data")
    gamma, alpha, n, apery = int(inv.gamma), inv.alpha, link.n, link.ap.apery
    rs = range(alpha)
    checks = [("N(ell) + N(gamma - ell) = -2", (n(r) + n(gamma - r) == -2 for r in rs))]
    if inv.orbit_order == 1:
        checks.append(("N(ell) + N(alpha + gamma - ell) = -1", (n(r) + n(alpha + gamma - r) == -1 for r in rs)))
    level_set = (min(apery[r], gamma + alpha - apery[(gamma - r) % alpha]) for r in rs)
    checks.append(("level-set identity", map(operator.eq, link.least(-1), level_set)))
    failures = []
    for name, holds in checks:
        bad = next((r for r, ok in enumerate(holds) if not ok), None)
        if bad is not None:
            failures.append(f"{name} fails in residue class {bad}")
    if failures:
        raise VerificationError("; ".join(failures))
