"""Normalized Seifert invariants and the quasi-linear function N.

A negative-definite Seifert rational homology sphere is described by its
normalized invariants (-b0; (alpha_1, omega_1), ..., (alpha_d, omega_d))
with 0 < omega_i < alpha_i, gcd(alpha_i, omega_i) = 1 and d >= 3 legs.  The
orbifold Euler number e = -b0 + sum_i omega_i/alpha_i must be negative.

The central object is the quasi-linear function

    N(ell) = b0*ell - sum_i ceil(ell*omega_i / alpha_i),

whose nonnegativity locus is the numerical semigroup of the link and whose
(-1)-level set separates the semigroup from the module it acts on.  Derived
scalars: alpha = lcm(alpha_i), |H| = alpha_1...alpha_d*|e|, the orbit order
o = alpha*|e|, and the exponent gamma = (d - 2 - sum_i 1/alpha_i)/|e|.

All ceilings are exact integer ceil-divisions; no floating point.

A :class:`SeifertData` owns what it determines: its orbifold Euler number,
its derived invariants (``sf.inv``) and its plumbing graph (``sf.graph``)
are computed on first use and kept on the record, so every layer reads the
same ones instead of rebuilding or passing them around.

N is evaluated in three ways: :func:`quasilinear` at one point,
:func:`quasilinear_values` over a window by the defining formula, with no
quasi-periodicity shortcut, for the brute-force scans, and
:func:`quasilinear_tiles` over a range about 0, tiled from per-leg
difference blocks: over the gap window in a
:class:`~seifert_semigroup.semigroup.Link`, and over one period, which only
``verify``'s checks read, in :class:`QuasilinearTable`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Sequence

from .errors import VerificationError
from .lattice import StarGraph, build_graph


def require_int(value, name: str, noun: str = "an integer") -> int:
    """``value`` itself if its type is int, else ValueError naming ``name`` and ``value``.

    The package's one integer rule: 2.5, 2.0, True and Fraction(5) are refused,
    never coerced.  ``noun`` is "integers" where ``name`` names a list.
    """
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return value


def ceil_div(a: int, b: int) -> int:
    """Exact ceil(a/b) for b > 0."""
    return -((-a) // b)


def ceil_frac(x: Fraction) -> int:
    return ceil_div(x.numerator, x.denominator)


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


@dataclass(frozen=True)
class SeifertData:
    """Normalized Seifert invariants (-b0; (alpha_i, omega_i)_i), d >= 3.

    b0 and every leg entry must be of type int (:func:`require_int`), and
    ``legs`` is kept as a tuple of pairs.  e, the derived invariants and the
    plumbing graph are kept on the record after first use (as
    :class:`StarGraph` keeps what the graph determines).
    """

    b0: int
    legs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        require_int(self.b0, "b0")
        legs = tuple((require_int(a, "a leg entry"), require_int(w, "a leg entry")) for a, w in self.legs)
        object.__setattr__(self, "legs", legs)
        if len(self.legs) < 3:
            raise ValueError("need at least 3 legs")
        for a, w in self.legs:
            if a < 2 or not (0 < w < a) or math.gcd(a, w) != 1:
                raise ValueError(f"leg ({a}, {w}) is not normalized")
        if self.e >= 0:
            raise ValueError("orbifold Euler number must be negative (got e >= 0)")

    @property
    def d(self) -> int:
        return len(self.legs)

    @cached_property
    def e(self) -> Fraction:
        return -self.b0 + sum(Fraction(w, a) for a, w in self.legs)

    @cached_property
    def inv(self) -> SeifertInvariants:
        """The derived scalar invariants (see :func:`invariants`)."""
        return invariants(self)

    @cached_property
    def graph(self) -> StarGraph:
        """The star-shaped plumbing graph (see :func:`lattice.build_graph`)."""
        return build_graph(self)

    @property
    def trivial(self) -> bool:
        """b0 >= d, i.e. N(1) >= 0: the semigroup is all of Z_{>=0}."""
        return self.b0 >= self.d


@dataclass(frozen=True)
class SeifertInvariants:
    """e, alpha, |H|, o and gamma, and ``window`` = floor(gamma + alpha/o) <= floor(alpha + gamma): N >= 0 above it."""

    e: Fraction
    alpha: int
    order_h: int
    orbit_order: int
    gamma: Fraction
    window: int


def invariants(sf: SeifertData) -> SeifertInvariants:
    """Derived scalar invariants of the Seifert data."""
    e = sf.e
    alpha = reduce(math.lcm, (a for a, _ in sf.legs))
    order_h = -e * math.prod(a for a, _ in sf.legs)
    orbit_order = -e * alpha
    if order_h.denominator != 1 or orbit_order.denominator != 1:
        raise VerificationError(f"|H| = {order_h} and the orbit order {orbit_order} must be integers")
    gamma = (sf.d - 2 - sum(Fraction(1, a) for a, _ in sf.legs)) / (-e)
    return SeifertInvariants(
        e=e,
        alpha=alpha,
        order_h=int(order_h),
        orbit_order=int(orbit_order),
        gamma=gamma,
        window=floor_frac(gamma + 1 / -e),  # 1/|e| = alpha/o, and N(ell) >= |e|*ell - (d - sum_i 1/alpha_i)
    )


def quasilinear(sf: SeifertData, ell: int) -> int:
    """N(ell) = b0*ell - sum_i ceil(ell*omega_i/alpha_i), exact for every integer ell."""
    return sf.b0 * require_int(ell, "ell") - sum(ceil_div(ell * w, a) for a, w in sf.legs)


def quasilinear_values(sf: SeifertData, ells: range):
    """N(ell) for every ell in ``ells``, in order, by the defining formula.

    b0*ell and -ell*omega_i run through scaled ranges, and each
    -ceil(ell*omega_i/alpha_i) is a floor division of the latter by alpha_i,
    so every per-point operation runs in C.  Returns a lazy iterator.
    """
    start, stop, step = ells.start, ells.stop, ells.step
    values = range(sf.b0 * start, sf.b0 * stop, sf.b0 * step)
    for a, w in sf.legs:
        floors = map(operator.floordiv, range(-w * start, -w * stop, -w * step), itertools.repeat(a))
        values = map(operator.add, values, floors)
    return values


def quasilinear_tiles(sf: SeifertData, start: int, stop: int) -> list[int]:
    """N(ell) for start <= ell < stop, start <= 0 < stop, tiled from per-leg difference blocks.

    N(r+1) - N(r) = b0 + sum_i (floor(-(r+1)w_i/a_i) - floor(-r*w_i/a_i)),
    whose i-th term has period a_i: one block per leg, from ``start`` over
    min(a_i, stop - start) steps, cycled; a range costs O(d*(stop - start)).
    The prefix sums are anchored at N(0) = 0, so N(start) is minus the sum of
    the steps below 0.  It shares nothing with :func:`quasilinear_values`.
    """
    steps = itertools.repeat(sf.b0, stop - start - 1)
    for a, w in sf.legs:
        end = start + min(a, stop - start)  # one period of the block, or every step of a shorter range
        floors = list(map(operator.floordiv, range(-w * start, -w * (end + 1), -w), itertools.repeat(a)))
        block = list(map(operator.sub, floors[1:], floors))
        steps = map(operator.add, steps, itertools.cycle(block))
    below = list(itertools.islice(steps, -start))  # the steps from start up to 0
    return list(itertools.accumulate(itertools.chain(below, steps), initial=-sum(below)))


class QuasilinearTable:
    """O(1) evaluation of N via N(q*alpha + r) = N(r) + q*o, from one period of :func:`quasilinear_tiles`.

    The identity is exact on all of Z, as alpha is a multiple of every alpha_i.
    """

    def __init__(self, sf: SeifertData):
        self.alpha = sf.inv.alpha
        self.orbit_order = sf.inv.orbit_order
        self.base = quasilinear_tiles(sf, 0, self.alpha)

    def __call__(self, ell: int) -> int:
        q, r = divmod(ell, self.alpha)
        return self.base[r] + q * self.orbit_order


def tau_sequence(sf: SeifertData, up_to: int) -> list[int]:
    """tau(0) = 0 and tau(ell+1) = tau(ell) + 1 + N(ell); values up to index up_to."""
    if require_int(up_to, "up_to") < 0:
        raise ValueError("up_to must be >= 0")
    return list(itertools.accumulate(map((1).__add__, quasilinear_values(sf, range(up_to))), initial=0))


def shared_factor_pair(nums) -> tuple[int, int] | None:
    """The first pair of entries (in index order) with a common factor, or None."""
    return next(((a, b) for a, b in itertools.combinations(nums, 2) if math.gcd(a, b) != 1), None)


def from_congruence(slots, orbit_order: int) -> SeifertData:
    """Normalized Seifert data with omega_i * q_i = -1 (mod alpha_i) and orbit order o.

    ``slots`` lists triples (alpha_i, q_i, s_i): s_i legs (alpha_i, omega_i)
    with omega_i = -q_i^(-1) mod alpha_i, where the cofactor q_i must be a
    unit mod alpha_i; slots with alpha_i = 1 give no leg.  With
    alpha = lcm(alpha_i), o = alpha*(b0 - sum over legs omega_i/alpha_i)
    pins b0 = (o + sum over legs omega_i*alpha/alpha_i)/alpha.
    """
    legs = tuple(leg for a, q, s in slots if a > 1 for leg in [(a, -pow(q, -1, a) % a)] * s)
    if len(legs) < 3:
        raise ValueError("degenerate input: fewer than 3 legs after dropping trivial slots")
    alpha = math.lcm(*(a for a, _ in legs))
    num = orbit_order + sum(w * (alpha // a) for a, w in legs)
    if num % alpha:
        raise VerificationError(f"no integer b0 gives orbit order {orbit_order} for the legs {legs}")
    sf = SeifertData(num // alpha, legs)
    if -sf.e * alpha != orbit_order:
        raise VerificationError(f"orbit order {-sf.e * alpha} != {orbit_order} for {sf}")
    return sf


def check_alphas(alphas: Sequence[int]) -> tuple[int, ...]:
    """``alphas`` as a tuple, if they are those of an integral homology sphere:
    d >= 3 pairwise coprime integers alpha_i >= 2; else ValueError."""
    alphas = tuple(require_int(a, "alphas", "integers") for a in alphas)
    if len(alphas) < 3:
        raise ValueError("need at least 3 alphas")
    if any(a < 2 for a in alphas):
        raise ValueError("alphas must be >= 2")
    pair = shared_factor_pair(alphas)
    if pair:
        raise ValueError(f"alphas must be pairwise coprime, got {pair[0]}, {pair[1]}")
    return alphas


def ihs_from_alphas(alphas: Sequence[int]) -> SeifertData:
    """The unique Seifert data of the integral homology sphere with given alphas.

    Requires d >= 3 pairwise coprime alpha_i >= 2 (:func:`check_alphas`).  Then
    omega_i and b0 are pinned by alpha*(b0 - sum_i omega_i/alpha_i) = 1:
    reducing modulo alpha_i gives omega_i * (alpha/alpha_i) = -1 (mod alpha_i),
    and b0 follows.
    """
    alphas = check_alphas(alphas)
    alpha = math.prod(alphas)
    return from_congruence(((a, alpha // a, 1) for a in alphas), 1)


def is_numerically_gorenstein(sf: SeifertData) -> bool:
    """True iff the canonical cycle of the plumbing graph is integral."""
    return sf.graph.zk.is_integral()


def geometric_genus(sf: SeifertData) -> int:
    """p_g = sum over ell >= 0 of max(0, -1 - N(ell)); finite since N -> infinity.

    Only levels 0 <= ell <= gamma can contribute, as N(ell) >= -1 above gamma.
    """
    deficits = map(operator.invert, quasilinear_values(sf, range(floor_frac(sf.inv.gamma) + 1)))  # -1 - N
    return sum(map(max, itertools.repeat(0), deficits))


def is_rational_link(sf: SeifertData) -> bool:
    """Rationality of the link: the geometric genus vanishes.

    ``frobenius_bruteforce(sf, "module")`` decides the same on its own scan.
    """
    return geometric_genus(sf) == 0
