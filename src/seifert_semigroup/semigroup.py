"""The numerical semigroup of a Seifert link and the module over it.

Membership is governed by the quasi-linear function N: the semigroup is
{ell : N(ell) >= 0}, the module is {ell : N(ell) >= -1}.  By the definition,
|e|*ell - (d - sum 1/alpha_i) <= N(ell) <= |e|*ell: every ell past
``inv.window`` = floor(gamma + alpha/o) is in S, every ell past gamma in M,
and no element of M lies below -alpha/o.  Both Frobenius numbers admit
honest scans down from those two tops to -1 - alpha, where N <= -2, so the
module value is negative exactly on rational links; both admit closed
lattice formulas, kept separate so that each route certifies the other.

Every other semigroup and module quantity is read off one :class:`Link` per
record: N on the gap window [bottom, w) = [-floor(alpha/o), min(alpha,
``inv.window`` + 1)), built on first use, gives the Apery set and the
module.  So a record costs O(d*(w - bottom)) plus its alpha-long Apery set.
The module is S - alpha for orbit order one and one pass over the window
otherwise.  The generators are sieved out of the Apery elements up to f + m,
one C-level pass per generator, and symmetry follows from Selmer's gap
count.  An integral homology sphere's S is strongly flat: its Apery set,
summed one leg at a time by the CRT, and its generators are the theorem's
closed forms, and it builds no window.  So each record has one Apery set,
which ``batch`` prints and ``verify`` certifies against a brute scan of N.
The full-period table of N is read only by ``verify``'s Gorenstein
identities and the augmentation threshold.  Also here: the Apery set of a
monoid given by generators, read the same way, strongly flat recognition,
end-vertex projections of integral homology sphere semigroups and the
Poincare series split into polynomial and negative parts.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, cycle, islice, repeat
from typing import Iterator, Sequence

from .errors import TrivialSemigroupError, VerificationError
from .seifert import (
    QuasilinearTable,
    SeifertData,
    ceil_div,
    ceil_frac,
    check_alphas,
    floor_frac,
    is_numerically_gorenstein,
    quasilinear_tiles,
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
    """One record's semigroup and module, read off the gap window of N.

    By the bound on N in the module docstring, every ell >= ``top`` =
    ``inv.window`` + 1 is in S, and no element of M is below -alpha/o.
    ``window`` holds N on [``bottom``, ``w``), bottom = -floor(alpha/o) (0 for
    o = 1, whose module is S - alpha) and w = min(alpha, top): about d*alpha/o
    entries, one period when o is small.  As N(q*alpha + r) = N(r) + q*o and
    N(r) < o on [0, alpha), Ap[r] = r - alpha*(N(r) // o) is the window's head
    for r < w and r above.  A homology sphere's Ap is the theorem's, and it
    builds no window.  ``ap`` caches :func:`apery_selmer`, the record's one
    Apery set; :func:`min_module` and :func:`frobenius_module_raw` read
    ``module``.  The period table ``n`` is built only when read, by
    :func:`gorenstein_symmetry_check` and the augmentation threshold.
    """

    def __init__(self, sf: SeifertData):
        self.sf = sf
        self.inv = inv = sf.inv
        self.bottom = 0 if inv.orbit_order == 1 else -(inv.alpha // inv.orbit_order)
        self.top = inv.window + 1
        self.w = min(inv.alpha, self.top)

    @cached_property
    def window(self) -> list[int]:
        """N(ell) for bottom <= ell < w."""
        return quasilinear_tiles(self.sf, self.bottom, self.w)

    def levels(self, start: int, stop: int) -> Iterator[int]:
        """N(ell) for start <= ell < stop (lazy), bottom <= start < w and stop <= top: the window,
        continued past a w clipped to alpha by N(ell + alpha) = N(ell) + o."""
        lo, window, o = self.bottom, self.window, self.inv.orbit_order
        periods = (map(operator.add, islice(window, -lo, None), repeat(q * o)) for q in count(1))
        return islice(chain(islice(window, start - lo, None), chain.from_iterable(periods)), stop - start)

    @cached_property
    def n(self) -> QuasilinearTable:
        return QuasilinearTable(self.sf)

    @cached_property
    def ap(self) -> AperyData:
        return apery_selmer(self)

    def in_semigroup(self, ell: int) -> bool:
        return require_int(ell, "ell") >= self.ap.apery[ell % self.inv.alpha]

    @cached_property
    def module(self) -> ModuleData:
        """min(M), the first member in [bottom, 0]; max(Z \\ M), the last non-member in [bottom - 1, floor(gamma)];
        and whether M = min(M) + S, compared on [min(M), min(M) + top), past which both hold every ell."""
        alpha, ap = self.inv.alpha, self.ap
        if self.inv.orbit_order == 1:
            return ModuleData(min=-alpha, frobenius_raw=ap.frobenius - alpha, principal=True)
        lo, top, gamma = self.bottom, self.top, floor_frac(self.inv.gamma)
        low = next(compress(range(lo, 1), map((-1).__le__, self.levels(lo, 1))))
        raw = max(compress(range(lo, gamma + 1), map((-2).__ge__, self.levels(lo, gamma + 1))), default=lo - 1)
        in_m = map((-1).__le__, self.levels(low, low + top))
        in_s = map((0).__le__, self.levels(0, top))
        return ModuleData(min=low, frobenius_raw=raw, principal=all(map(operator.eq, in_m, in_s)))

    @cached_property
    def gorenstein(self) -> bool:
        return is_numerically_gorenstein(self.sf)


def frobenius_bruteforce(sf: SeifertData, kind: str = "semigroup") -> int:
    """Largest non-member, by one descending scan of N, signed for the module.

    The first ell from the top with N(ell) below the level (0 for S, -1 for M)
    is the Frobenius number: no gap of S lies above ``inv.window`` =
    floor(gamma + alpha/o), and N(ell) >= -1 above gamma.  The scan runs down
    to -1 - alpha, where N = -b0 - o <= -2, so it always hits; the module
    value is negative exactly when [0, gamma] holds no N <= -2, i.e. p_g = 0
    and the link is rational.  A scan without a hit is a broken N kernel.
    """
    inv = sf.inv
    if kind == "semigroup":
        if sf.trivial:
            raise TrivialSemigroupError("b0 >= d: the semigroup is all of Z_{>=0}")
        top, level = inv.window, 0
    elif kind == "module":
        top, level = floor_frac(inv.gamma), -1
    else:
        raise ValueError(f"unknown kind {kind!r}")
    ells = range(top, -inv.alpha - 2, -1)
    hit = next(compress(ells, map(level.__gt__, quasilinear_values(sf, ells))), None)
    if hit is None:
        raise VerificationError(f"no {kind} gap in [-1 - alpha, {top}], though N(-1 - alpha) = -b0 - o < {level}")
    return hit


def frobenius_module_raw(link: Link) -> int:
    """The module's signed Frobenius number, the largest integer outside it: negative exactly on rational links."""
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
    """Apery set w.r.t. alpha (:func:`ihs_apery` on a homology sphere), Selmer Frobenius number, gap count.

    Off the window, Ap is its head r - alpha*(N(r) // o), r < w, then r for w <= r < alpha; as
    Ap[r] >= r, max(Ap) = max(max(head), alpha - 1) and sum(Ap) - alpha*(alpha - 1)/2 = sum(head) - w*(w - 1)/2.
    """
    if link.inv.order_h == 1:
        return selmer(ihs_apery([a for a, _ in link.sf.legs]))
    alpha, o, w = link.inv.alpha, link.inv.orbit_order, link.w
    steps = islice(link.window, -link.bottom, None)
    steps = steps if o == 1 else map(operator.floordiv, steps, repeat(o))
    apery = tuple(chain(map(operator.sub, range(w), map(alpha.__mul__, steps)), range(w, alpha)))
    return AperyData(
        apery=apery,
        frobenius=max(max(islice(apery, w)), alpha - 1) - alpha,
        gaps=(sum(islice(apery, w)) - w * (w - 1) // 2) // alpha,
    )


def gap_window(sf: SeifertData) -> bytes:
    """One byte per ell in [0, ``inv.window``] by a direct scan of N, 1 at a gap and 0 at a member.

    No gap lies above floor(gamma + alpha/o): ``rfind(1)`` is the Frobenius number and ``count(1)`` the gap count.
    """
    return bytes(map((0).__gt__, quasilinear_values(sf, range(sf.inv.window + 1))))


def gap_count_direct(sf: SeifertData) -> int:
    """Number of gaps by direct enumeration of non-members in (0, ``inv.window``]."""
    return gap_window(sf).count(1)


# ---------------------------------------------------------------------------
# Generators


def _sieve(apery: Sequence[int], candidates: list[int]) -> list[int]:
    """The minimal generators among ``candidates``, a list of nonzero elements of S holding every minimal
    generator, by the sieve of :func:`minimal_generators`; S is given by Ap(S, n), n = len(apery)."""
    n, gens, rest = len(apery), [], candidates
    while rest:
        g = min(rest)
        gens.append(g)
        classes = map(apery.__getitem__, map(operator.mod, map(operator.sub, rest, repeat(g)), repeat(n)))
        rest = list(compress(rest, map(operator.lt, map(operator.sub, rest, repeat(g)), classes)))
    return gens


def _generators_from_apery(apery: Sequence[int]) -> list[int]:
    """Minimal generators of S from Ap(S, n), n = len(apery): the sieve of n and the nonzero Apery elements."""
    return _sieve(apery, [*islice(apery, 1, None), len(apery)])  # islice: no transient copy of Ap


def minimal_generators(link: Link) -> list[int]:
    """Minimal generators of the semigroup of a Seifert link: :func:`ihs_generators` on a homology sphere,
    else sieved out of the Apery set.

    Every minimal generator but alpha is a nonzero Apery element, and none
    exceeds max(f, 0) + m, m the least nonzero element of S (Rosales and
    Garcia-Sanchez, Numerical Semigroups, 2009).  As Ap[r] = r past the
    window's head, m and the candidates up to that bound are the head's and
    a range's.  Of the candidates, the least remaining g is a generator, and
    one pass of C-level ``map``s drops every remaining c with c - g in S,
    i.e. c - g >= Ap[(c - g) mod alpha] (g drops itself).  No pass drops a
    minimal generator, as its difference with a smaller one is not in S; and
    a non-minimal c is g + s with g < c a minimal generator and s in S, so
    the pass of g, which comes before c's turn, drops c.
    """
    if link.inv.order_h == 1:
        return ihs_generators([a for a, _ in link.sf.legs])
    apery, w = link.ap.apery, link.w
    bound = max(link.ap.frobenius, 0) + min(chain(islice(apery, 1, w), (w,)))
    return _sieve(apery, [*filter(bound.__ge__, islice(apery, 1, w)), *range(w, min(bound, len(apery)) + 1)])


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


def ihs_apery(alphas: Sequence[int]) -> tuple[int, ...]:
    """Ap(S, alpha) of the homology sphere with given alphas, by the strongly flat theorem: every integer
    is sum_i x_i*q_i + y*alpha, q_i = alpha/alpha_i and 0 <= x_i < alpha_i, in one way, and in S iff y >= 0.

    So Ap[r] = sum_i ((r*u_i) mod alpha_i)*q_i, u_i = q_i^-1 mod alpha_i.  By the CRT the sum over legs 1..k has
    period alpha_1*...*alpha_k, so leg k takes one add pass: the sum so far, repeated alpha_k times, plus its block
    of alpha_k values, cycled.  That is about alpha*(1 + 1/alpha_d + ...) additions and no other alpha-long list.
    """
    alphas = check_alphas(alphas)
    alpha = math.prod(alphas)
    ap = (0,)
    for a in alphas:
        q, u = alpha // a, pow(alpha // a, -1, a)
        ap = tuple(map(operator.add, chain.from_iterable(repeat(ap, a)), cycle([r * u % a * q for r in range(a)])))
    return ap


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
    checking the residues 0 <= r < alpha covers all of Z.  The m_r =
    r - alpha*((N(r) + 1) // o) come off the period table, so on the
    ``verify`` path this checks the shortcut M = S - alpha that ``Link.module``
    takes for o = 1.  Each failing identity is named, with its least failing
    class, in one :class:`VerificationError`.
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
    minima = (r - alpha * ((n_r + 1) // inv.orbit_order) for r, n_r in enumerate(n.base))  # m_r, N(m_r) >= -1
    checks.append(("level-set identity", map(operator.eq, minima, level_set)))
    failures = []
    for name, holds in checks:
        bad = next((r for r, ok in enumerate(holds) if not ok), None)
        if bad is not None:
            failures.append(f"{name} fails in residue class {bad}")
    if failures:
        raise VerificationError("; ".join(failures))
