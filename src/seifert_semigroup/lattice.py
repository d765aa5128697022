"""Star-shaped plumbing graphs and exact intersection-lattice arithmetic.

A star-shaped plumbing tree consists of a central vertex carrying the Euler
decoration -b0 together with d legs; leg i is the chain of decorations
-b_{i1}, ..., -b_{i,nu_i} obtained from the negative (Hirzebruch) continued
fraction expansion of alpha_i/omega_i.  The vertices span the lattice L with
the symmetric intersection form I (diagonal = decorations, 1 on edges).

Systems I x = rhs are solved by eliminating each leg from its leaf toward the
centre: on a tree this creates no fill-in, so a solve costs O(n) (Neumann, "A
calculus for plumbing", 1981).  A leg vertex's pivot is minus the continued
fraction of the leg from it out to the leaf, so < -1, and the centre's pivot
is the orbifold Euler number e; I is negative definite exactly when e < 0.

Everything here is computed over exact rationals: the dual cycles E_v^*
(characterised by (E_v^*, E_w) = -delta_{vw}), the canonical cycle Z_K
(solving the adjunction equations), the Riemann-Roch function chi, class
representatives in the half-open unit cube, and the anti-nef (Lipman cone)
predicate.  No floating point is used anywhere.

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


def cf_value(chain: Sequence[int]) -> Fraction:
    """Value of the negative continued fraction [b_1, ..., b_k]."""
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - 1 / value
    return value


@dataclass(frozen=True)
class StarGraph:
    """Star-shaped plumbing tree with negative Euler decorations.

    ``euler[v]`` is the decoration of vertex v (all negative); ``legs`` holds
    the vertex ids of each leg, ordered from the centre outward.  The centre
    is always vertex 0.  A graph with e >= 0 can be built, but solving on it
    raises ArithmeticError.  What the graph alone determines (adjacency,
    elimination pivots, Z_K, E_0^*, the Laufer scalars) is computed on first
    use and kept on the graph.
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

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

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
    def pivots(self) -> tuple[Fraction, ...]:
        """Elimination pivots by vertex: a leg vertex's is its decoration minus
        the reciprocal of the next pivot toward the leaf; the centre's is e."""
        p = [orbifold_euler_number(self)] * self.n
        for leg in self.legs:
            pivot = None
            for v in reversed(leg):
                pivot = p[v] = Fraction(self.euler[v]) if pivot is None else self.euler[v] - 1 / pivot
        return tuple(p)

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
        for u in g.neighbors(v):
            m[v][u] = 1
    return tuple(tuple(row) for row in m)


def orbifold_euler_number(g: StarGraph) -> Fraction:
    """e = -b0 + sum_i omega_i/alpha_i, read off from the leg chains."""
    e = Fraction(g.euler[0])
    for leg in g.legs:
        frac = cf_value([-g.euler[v] for v in leg])
        e += 1 / frac
    return e


# ---------------------------------------------------------------------------
# Rational cycles


@dataclass(frozen=True)
class RationalCycle:
    """Exact rational coefficient vector over the vertices of a graph.

    Supports componentwise arithmetic; ``a >= b`` and ``a <= b`` are the
    componentwise partial order used for minimality statements.
    """

    coeffs: tuple[Fraction, ...]

    def __getitem__(self, v: int) -> Fraction:
        return self.coeffs[v]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __add__(self, other: RationalCycle) -> RationalCycle:
        return RationalCycle(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: RationalCycle) -> RationalCycle:
        return RationalCycle(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> RationalCycle:
        return RationalCycle(tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: Rat) -> RationalCycle:
        return RationalCycle(tuple(a * scalar for a in self.coeffs))

    __rmul__ = __mul__

    def __ge__(self, other: RationalCycle) -> bool:
        return all(a >= b for a, b in zip(self.coeffs, other.coeffs, strict=True))

    def __le__(self, other: RationalCycle) -> bool:
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs, strict=True))

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coeffs)

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.coeffs) + ")"


def cycle(values: Iterable[Rat]) -> RationalCycle:
    """Build a cycle, coercing entries to exact rationals."""
    return RationalCycle(tuple(Fraction(v) for v in values))


def zero_cycle(n: int) -> RationalCycle:
    return RationalCycle((Fraction(0),) * n)


def unit_cycle(n: int, v: int) -> RationalCycle:
    """The base element E_v."""
    return RationalCycle(tuple(Fraction(1 if u == v else 0) for u in range(n)))


# ---------------------------------------------------------------------------
# Pairing, duals, canonical cycle, chi


def pairing_with_vertex(g: StarGraph, l: RationalCycle, v: int) -> Fraction:
    """(l, E_v) = euler(v) * l_v + sum of l over the neighbours of v."""
    s = g.euler[v] * l[v]
    for u in g.neighbors(v):
        s += l[u]
    return s


def numerators(l: RationalCycle, scale: int) -> list[int]:
    """scale*l as integers; ``scale`` must be a common multiple of the denominators."""
    return [c.numerator * (scale // c.denominator) for c in l.coeffs]


def scaled(l: RationalCycle) -> tuple[int, list[int]]:
    """(L, L*l) with L the common denominator of the coefficients of l."""
    scale = math.lcm(*(c.denominator for c in l.coeffs))
    return scale, numerators(l, scale)


def vertex_pairings(g: StarGraph, a: Sequence[int]) -> list[int]:
    """(a, E_v) for every vertex v, for an integer vector a."""
    return [e * a[v] + sum(a[u] for u in adj) for v, (e, adj) in enumerate(zip(g.euler, g.adjacency))]


def pairing(g: StarGraph, a: RationalCycle, b: RationalCycle) -> Fraction:
    """The symmetric bilinear form (a, b) = a^T I b, exactly."""
    if len(a) != g.n or len(b) != g.n:
        raise ValueError("cycle length does not match graph")
    return sum((pairing_with_vertex(g, a, v) * b[v] for v in range(g.n)), Fraction(0))


def _solve(g: StarGraph, rhs: Sequence[Rat]) -> RationalCycle:
    """The x with I x = rhs.  Each leg is eliminated from its leaf inward as
    x_v = a_v - x_u/p_v (u the next vertex toward the centre, p_v the pivot of
    v), which leaves x_0 alone in the centre equation; the legs are then
    filled in outward."""
    pivots = g.pivots
    if pivots[0] >= 0:
        raise ArithmeticError(f"intersection form is not negative definite (e = {pivots[0]} >= 0)")
    a = [Fraction(0)] * g.n
    centre = Fraction(rhs[0])
    for leg in g.legs:
        outer = 0
        for v in reversed(leg):
            outer = a[v] = (rhs[v] - outer) / pivots[v]
        centre -= outer
    x = [centre / pivots[0]] * g.n
    for leg in g.legs:
        inner = x[0]
        for v in leg:
            inner = x[v] = a[v] - inner / pivots[v]
    return RationalCycle(tuple(x))


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
    """Riemann-Roch function chi(l) = (Z_K - l, l)/2.

    Computed on integer numerators: with D the common denominator of Z_K
    and l, chi(l) = (D*Z_K - D*l, D*l) / (2*D^2).
    """
    if len(l) != g.n:
        raise ValueError("cycle length does not match graph")
    zk = canonical_cycle(g)
    scale = math.lcm(*(c.denominator for c in zk.coeffs), *(c.denominator for c in l.coeffs))
    a = numerators(l, scale)
    b = list(map(operator.sub, numerators(zk, scale), a))
    return Fraction(sum(map(operator.mul, vertex_pairings(g, b), a)), 2 * scale * scale)


@dataclass(frozen=True)
class ClassRep:
    """The representative of a class of L'/L inside the half-open unit cube.

    Two cycles define the same class exactly when their componentwise
    fractional parts agree.
    """

    fractional: tuple[Fraction, ...]


def class_rep(l: RationalCycle) -> ClassRep:
    return ClassRep(tuple(a - (a.numerator // a.denominator) for a in l.coeffs))


def r_of_class(c: ClassRep) -> RationalCycle:
    return RationalCycle(c.fractional)


def is_antinef(g: StarGraph, l: RationalCycle, vertices: Iterable[int] | None = None) -> bool:
    """True iff (l, E_v) <= 0 for every v in ``vertices`` (default: all).

    With ``vertices`` = all vertices this is membership in the Lipman cone.
    """
    vs = range(g.n) if vertices is None else vertices
    return all(pairing_with_vertex(g, l, v) <= 0 for v in vs)


# ---------------------------------------------------------------------------
# Integer normal forms and definiteness checks


def smith_invariants(mat: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns nonnegative invariant factors d_1 | d_2 | ... (zeros last).
    """
    m = [list(map(int, row)) for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    diag = []
    t = 0
    while t < min(rows, cols):
        # locate a nonzero pivot in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0:
                    if pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            dirty = False
            for i in range(t + 1, rows):
                q = m[i][t] // m[t][t]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                if m[i][t]:
                    dirty = True
            for j in range(t + 1, cols):
                q = m[t][j] // m[t][t]
                if q:
                    for row in m:
                        row[j] -= q * row[t]
                if m[t][j]:
                    dirty = True
            if not dirty:
                # enforce divisibility of the remaining block by the pivot
                offender = next(
                    ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols) if m[i][j] % m[t][t]),
                    None,
                )
                if offender is None:
                    break
                m[t] = [a + b for a, b in zip(m[t], m[offender[0]])]
            pivot = min(
                ((i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j] != 0),
                key=lambda ij: abs(m[ij[0]][ij[1]]),
            )
        diag.append(abs(m[t][t]))
        t += 1
    diag.extend([0] * (min(rows, cols) - len(diag)))
    return diag


def group_order(g: StarGraph) -> int:
    """|H| = |L'/L| = |det I|, computed from the Smith normal form of I."""
    diag = smith_invariants(intersection_matrix(g))
    order = 1
    for x in diag:
        if x == 0:
            raise ArithmeticError("degenerate intersection form")
        order *= x
    return order


def is_negative_definite(g: StarGraph) -> bool:
    """Sylvester's criterion on the elimination pivots; leg pivots are < -1, so it is e < 0."""
    return g.pivots[0] < 0
