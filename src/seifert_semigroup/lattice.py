"""Star-shaped plumbing graphs and exact intersection-lattice arithmetic.

A star-shaped plumbing tree consists of a central vertex carrying the Euler
decoration -b0 together with d legs; leg i is the chain of decorations
-b_{i1}, ..., -b_{i,nu_i} obtained from the negative (Hirzebruch) continued
fraction expansion of alpha_i/omega_i.  The vertices span the lattice L with
the symmetric intersection form I (diagonal = decorations, 1 on edges).

Systems I x = rhs with integer rhs are solved fraction-free by eliminating
each leg from its leaf toward the centre (Neumann, "A calculus for
plumbing", 1981): no fill-in on a tree, so a solve costs O(n).  It needs
only integers kept on the graph: the leg tail determinants (det(-I) on a
leg from one vertex out to the leaf) and D = det(-I) = |e| * prod alpha_i =
|H|.  I is negative definite exactly when D > 0, that is e < 0.

Every cycle here lies in L' = I^{-1} L, so its denominators divide D
(Eisenbud-Neumann, 1985).  A :class:`RationalCycle` is integer numerators
over one positive denominator, and on that form, in integer arithmetic,
live the dual cycles E_v^* ((E_v^*, E_w) = -delta_{vw}), the canonical
cycle Z_K (solving the adjunction equations), the Riemann-Roch function
chi, class representatives in the half-open unit cube and the anti-nef
(Lipman cone) predicate.  No floating point is used anywhere.

Vertex indexing is deterministic: the central vertex is 0, then the legs in
input order, each leg from the centre outward.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .laufer import LauferScalars
    from .seifert import SeifertData

Rat = int | Fraction


def hirzebruch_cf(alpha: int, omega: int) -> tuple[int, ...]:
    """Negative continued fraction expansion alpha/omega = [b_1, ..., b_k].

    Requires 0 < omega < alpha and gcd(alpha, omega) = 1; every quotient
    b_j is >= 2 and the expansion is unique.
    """
    if not (0 < omega < alpha):
        raise ValueError(f"need 0 < omega < alpha, got ({alpha}, {omega})")
    a, w = alpha, omega
    chain = []
    while w > 0:
        b = -(-a // w)
        chain.append(b)
        a, w = w, b * w - a
    if a != 1:
        raise ValueError(f"gcd(alpha, omega) != 1 for ({alpha}, {omega})")
    return tuple(chain)


@dataclass(frozen=True)
class StarGraph:
    """Star-shaped plumbing tree with negative Euler decorations.

    ``euler[v]`` is the decoration of vertex v (all negative); ``legs`` holds
    the vertex ids of each leg, ordered from the centre outward.  The centre
    is always vertex 0.  A graph with e >= 0 can be built, but solving on it
    raises ArithmeticError.  What the graph alone determines (adjacency, the
    leg tail determinants, D = det(-I), Z_K, E_0^*, the Laufer scalars) is
    computed on first use and kept on the graph.
    """

    euler: tuple[int, ...]
    legs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.euler[0] >= 0:
            raise ValueError("centre decoration must be negative")
        seen = set()
        for leg in self.legs:
            if not leg:
                raise ValueError("empty leg")
            for v in leg:
                if not (1 <= v < len(self.euler)) or v in seen:
                    raise ValueError("bad leg vertex ids")
                seen.add(v)
            if any(self.euler[v] > -2 for v in leg):
                raise ValueError("leg decorations must be <= -2")
        if len(seen) != len(self.euler) - 1:
            raise ValueError("leg vertices must cover all non-central vertices")

    @property
    def n(self) -> int:
        return len(self.euler)

    @property
    def d(self) -> int:
        return len(self.legs)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for leg in self.legs:
            prev = 0
            for v in leg:
                adj[prev].append(v)
                adj[v].append(prev)
                prev = v
        return tuple(tuple(a) for a in adj)

    @cached_property
    def tails(self) -> tuple[tuple[int, ...], ...]:
        """Per leg of k vertices, (T_1, ..., T_k, T_{k+1} = 1): T_j is det(-I) on
        the leg from its j-th vertex out to the leaf, T_j = b_j*T_{j+1} - T_{j+2}
        with T_{k+2} = 0, so T_1 = alpha_i and T_2 = omega_i."""
        out = []
        for leg in self.legs:
            t = [0, 1]
            for v in reversed(leg):
                t.append(-self.euler[v] * t[-1] - t[-2])
            out.append(tuple(reversed(t[1:])))
        return tuple(out)

    @cached_property
    def det(self) -> int:
        """D = det(-I) = b0*P - sum_i T_2^i*P/T_1^i with P = prod_i T_1^i, so
        D = -e*P = |H|; the intersection form is negative definite iff D > 0."""
        p = math.prod(t[0] for t in self.tails)
        return -self.euler[0] * p - sum(t[1] * (p // t[0]) for t in self.tails)

    @cached_property
    def zk(self) -> RationalCycle:
        return _solve(self, [e + 2 for e in self.euler])

    @cached_property
    def e0_star(self) -> RationalCycle:
        """E_0^*, the dual cycle of the centre (see :func:`dual_cycle`)."""
        return dual_cycle(self, 0)

    @cached_property
    def scalars(self) -> LauferScalars:
        """The Laufer scalars of the graph (see :func:`laufer.scalars`)."""
        from . import laufer  # laufer builds on this module

        return laufer.scalars(self)


def build_graph(sf: SeifertData) -> StarGraph:
    """Plumbing graph of the Seifert data, legs expanded by continued fractions."""
    euler = [-sf.b0]
    legs = []
    next_id = 1
    for alpha, omega in sf.legs:
        chain = hirzebruch_cf(alpha, omega)
        ids = tuple(range(next_id, next_id + len(chain)))
        next_id += len(chain)
        euler.extend(-b for b in chain)
        legs.append(ids)
    return StarGraph(euler=tuple(euler), legs=tuple(legs))


def intersection_matrix(g: StarGraph) -> tuple[tuple[int, ...], ...]:
    """The intersection form I: decorations on the diagonal, 1 on edges."""
    m = [[0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        m[v][v] = g.euler[v]
        for u in g.adjacency[v]:
            m[v][u] = 1
    return tuple(tuple(row) for row in m)


def orbifold_euler_number(g: StarGraph) -> Fraction:
    """e = -b0 + sum_i omega_i/alpha_i = -D/prod_i alpha_i, read off the leg tails."""
    return Fraction(-g.det, math.prod(t[0] for t in g.tails))


# ---------------------------------------------------------------------------
# Rational cycles


@dataclass(frozen=True)
class RationalCycle:
    """Exact rational coefficient vector over the vertices of a graph.

    Integer numerators ``num`` over one denominator ``den`` > 0 in lowest terms
    (gcd(den, *num) = 1), so ``den`` is the lcm of the entries' denominators.
    ``l[v]``, iteration and ``coeffs`` give Fractions.  Arithmetic runs on the
    integers; ``a >= b`` and ``a <= b`` are the componentwise partial order.
    """

    num: tuple[int, ...]
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError(f"denominator must be positive, got {self.den}")
        g = math.gcd(self.den, *self.num)
        if g != 1:
            object.__setattr__(self, "num", tuple(a // g for a in self.num))
            object.__setattr__(self, "den", self.den // g)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    def __getitem__(self, v: int) -> Fraction:
        return Fraction(self.num[v], self.den)

    def __len__(self) -> int:
        return len(self.num)

    def __iter__(self):
        return iter(self.coeffs)

    def _over(self, other: RationalCycle) -> tuple[int, list[tuple[int, int]]]:
        """The common denominator of both cycles, and their numerators over it by vertex."""
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        return den, [(a * ka, b * kb) for a, b in zip(self.num, other.num, strict=True)]

    def __add__(self, other: RationalCycle) -> RationalCycle:
        den, pairs = self._over(other)
        return RationalCycle(tuple(a + b for a, b in pairs), den)

    def __sub__(self, other: RationalCycle) -> RationalCycle:
        den, pairs = self._over(other)
        return RationalCycle(tuple(a - b for a, b in pairs), den)

    def __neg__(self) -> RationalCycle:
        return RationalCycle(tuple(-a for a in self.num), self.den)

    def __mul__(self, scalar: Rat) -> RationalCycle:
        p = scalar.numerator
        return RationalCycle(tuple(a * p for a in self.num), self.den * scalar.denominator)

    __rmul__ = __mul__

    def __ge__(self, other: RationalCycle) -> bool:
        return all(a >= b for a, b in self._over(other)[1])

    def __le__(self, other: RationalCycle) -> bool:
        return all(a <= b for a, b in self._over(other)[1])

    def is_integral(self) -> bool:
        return self.den == 1

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.coeffs) + ")"


def cycle(values: Iterable[Rat]) -> RationalCycle:
    """Build a cycle from exact rational entries."""
    coeffs = [Fraction(v) for v in values]
    den = math.lcm(*(c.denominator for c in coeffs))
    return RationalCycle(tuple(c.numerator * (den // c.denominator) for c in coeffs), den)


def zero_cycle(n: int) -> RationalCycle:
    return RationalCycle((0,) * n, 1)


def unit_cycle(n: int, v: int) -> RationalCycle:
    """The base element E_v."""
    return RationalCycle(tuple(1 if u == v else 0 for u in range(n)), 1)


# ---------------------------------------------------------------------------
# Pairing, duals, canonical cycle, chi


def pairing_with_vertex(g: StarGraph, l: RationalCycle, v: int) -> Fraction:
    """(l, E_v) = euler(v) * l_v + sum of l over the neighbours of v."""
    a = l.num
    return Fraction(g.euler[v] * a[v] + sum(a[u] for u in g.adjacency[v]), l.den)


def vertex_pairings(g: StarGraph, a: Sequence[int]) -> list[int]:
    """(a, E_v) for every vertex v, for an integer vector a."""
    return [e * a[v] + sum(a[u] for u in adj) for v, (e, adj) in enumerate(zip(g.euler, g.adjacency))]


def pairing(g: StarGraph, a: RationalCycle, b: RationalCycle) -> Fraction:
    """The symmetric bilinear form (a, b) = a^T I b, exactly."""
    if len(a) != g.n or len(b) != g.n:
        raise ValueError("cycle length does not match graph")
    return Fraction(sum(map(operator.mul, vertex_pairings(g, a.num), b.num)), a.den * b.den)


def _solve(g: StarGraph, rhs: Sequence[int]) -> RationalCycle:
    """The x with I x = rhs, for an integer vector rhs, as X = D*x over D = det(-I).

    Going inward along a leg, A_j = A_{j+1} - T_{j+1}*rhs_j (A_{k+1} = 0) gives
    x_j = (A_j + T_{j+1}*x_u)/T_j, u the next vertex toward the centre.  The
    centre equation times P = prod_i T_1^i then reads
    X_0 = sum_i A_1^i*P/T_1^i - rhs_0*P, and the legs are filled in outward by
    X_j = (D*A_j + T_{j+1}*X_u) / T_j, an exact division as D*x is integral.
    """
    det = g.det
    if det <= 0:
        raise ArithmeticError(f"intersection form is not negative definite (det(-I) = {det} <= 0)")
    p = math.prod(t[0] for t in g.tails)
    a = [0] * g.n
    centre = -rhs[0] * p
    for leg, t in zip(g.legs, g.tails):
        outer = 0
        for j in range(len(leg) - 1, -1, -1):
            outer = a[leg[j]] = outer - t[j + 1] * rhs[leg[j]]
        centre += outer * (p // t[0])
    x = [centre] * g.n
    for leg, t in zip(g.legs, g.tails):
        inner = centre
        for j, v in enumerate(leg):
            inner = x[v] = (det * a[v] + t[j + 1] * inner) // t[j]
    return RationalCycle(tuple(x), det)


def dual_cycle(g: StarGraph, v: int) -> RationalCycle:
    """E_v^*, the anti-dual of the base element E_v: (E_v^*, E_w) = -delta_{vw}."""
    return _solve(g, [-1 if u == v else 0 for u in range(g.n)])


def dual_basis(g: StarGraph) -> tuple[RationalCycle, ...]:
    """All dual cycles E_v^*."""
    return tuple(dual_cycle(g, v) for v in range(g.n))


def canonical_cycle(g: StarGraph) -> RationalCycle:
    """Z_K = -K, the unique solution of the adjunction equations.

    Characterised by (Z_K, E_v) = euler(v) + 2 for every vertex v; kept on
    the graph after the first call.
    """
    return g.zk


def chi(g: StarGraph, l: RationalCycle) -> Fraction:
    """Riemann-Roch function chi(l) = (Z_K - l, l)/2, paired on the numerators."""
    rest = canonical_cycle(g) - l
    return Fraction(sum(map(operator.mul, vertex_pairings(g, rest.num), l.num)), 2 * rest.den * l.den)


def class_rep(l: RationalCycle) -> RationalCycle:
    """The representative r_h of the class h of ``l`` in L'/L, in the half-open
    unit cube: the componentwise fractional parts of any cycle of the class."""
    return RationalCycle(tuple(a % l.den for a in l.num), l.den)


def is_antinef(g: StarGraph, l: RationalCycle, vertices: Iterable[int] | None = None) -> bool:
    """True iff (l, E_v) <= 0 for every v in ``vertices`` (default: all).

    With ``vertices`` = all vertices this is membership in the Lipman cone.
    """
    pairings = vertex_pairings(g, l.num)  # den(l) * (l, E_v), of the same sign
    return all(pairings[v] <= 0 for v in (range(g.n) if vertices is None else vertices))


# ---------------------------------------------------------------------------
# Determinant and definiteness checks


def group_order(g: StarGraph) -> int:
    """|H| = |L'/L| = |det I|, by fraction-free elimination on the dense matrix I.

    Bareiss ("Sylvester's identity and multistep integer-preserving Gaussian
    elimination", 1968): each 2x2 update divides exactly by the previous
    pivot, so every entry stays a minor of I and the last pivot is +-det I.
    A zero pivot is swapped with a row below; with none left, I is singular.
    Unlike ``g.det``, this route reads neither the leg tails nor e.
    """
    m = [list(row) for row in intersection_matrix(g)]
    prev = 1
    for k in range(g.n):
        p = next((i for i in range(k, g.n) if m[i][k]), None)
        if p is None:
            raise ArithmeticError("degenerate intersection form")
        m[k], m[p] = m[p], m[k]
        top = m[k]
        for row in m[k + 1:]:
            row[k + 1:] = [(a * top[k] - row[k] * b) // prev for a, b in zip(row[k + 1:], top[k + 1:])]
        prev = top[k]
    return abs(prev)


def is_negative_definite(g: StarGraph) -> bool:
    """D = det(-I) > 0; the leg tails are negative definite, so this is e < 0."""
    return g.det > 0
