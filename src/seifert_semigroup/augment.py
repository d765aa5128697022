"""One-leg augmentations of a Seifert link and the comparison machinery.

Adding a single leg (n, 1) to Seifert data with orbifold Euler number e
keeps the graph negative definite as long as e + 1/n < 0.  The lattice of
the base embeds into the augmented lattice (j), and the dual projection
(j*) sends the new dual basis elements back, killing the new vertex.  The
key exact identities:

* N(ell) = N_(n)(ell) + ceil(ell/n) between the two quasi-linear functions;
* Z_K(n) = j(Z_K) + c_n * (E_+ + j(E_0^*)) with c_n = (n + gamma - 1)/(n - 1/|e|);
* the projection formula (j*(l'), l) = (l', j(l));
* j*(E_+) = -E_0^* and j*(j(E_v)) = E_v.

For n >= n* (:func:`threshold`) the augmented module meets Z>=0 in exactly
the semigroup of the base link.  :func:`verify_prop_comp` tests n*, and that
n* - 1 fails, against gap flags the caller scanned off the base, and checks
the module Frobenius number of the augmented graph against their last gap.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, repeat

from . import laufer
from .errors import RationalLinkError, VerificationError
from .lattice import RationalCycle, canonical_cycle, dual_basis, unit_cycle, vertex_pairings, zero_cycle
from .seifert import SeifertData, floor_frac, quasilinear_values, require_int
from .semigroup import Link


@dataclass(frozen=True)
class AugmentedPair:
    """Base Seifert data together with its (n, 1)-augmented companion.

    The augmented graph (``augmented.graph``) reuses the base vertex ids and
    appends the new leg vertex last, so the inclusion j is coefficient
    extension by zero.  Each graph is kept on its own Seifert data.
    """

    base: SeifertData
    n: int
    augmented: SeifertData

    @property
    def plus_vertex(self) -> int:
        return self.base.graph.n

    def e_plus(self) -> RationalCycle:
        return unit_cycle(self.augmented.graph.n, self.plus_vertex)

    def include(self, l: RationalCycle) -> RationalCycle:
        """j: extend a base cycle by a zero coefficient on the new vertex."""
        return RationalCycle(l.num + (0,), l.den)

    def project(self, lp: RationalCycle) -> RationalCycle:
        """j*: decompose in the augmented dual basis, drop E_+, map duals back."""
        g = self.base.graph
        weights = vertex_pairings(self.augmented.graph, lp.num)  # lp.den * (lp, E_v); map drops E_+
        return sum(map(operator.mul, weights, dual_basis(g)), zero_cycle(g.n)) * Fraction(-1, lp.den)


def augment(sf: SeifertData, n: int) -> AugmentedPair:
    """Attach the extra leg (n, 1); requires n > 1/|e| so e + 1/n stays negative."""
    if require_int(n, "n") < 2:
        raise ValueError("n must be an integer >= 2")
    if sf.e + Fraction(1, n) >= 0:
        raise ValueError(f"n = {n} too small: augmented Euler number would be >= 0")
    return AugmentedPair(base=sf, n=n, augmented=SeifertData(sf.b0, sf.legs + ((n, 1),)))


def c_n(sf: SeifertData, n: int) -> Fraction:
    """The coefficient c_n = (n + gamma - 1) / (n - 1/|e|) of the canonical-cycle identity."""
    inv = sf.inv
    return (n + inv.gamma - 1) / (n - 1 / (-inv.e))


def zk_identity_check(pair: AugmentedPair) -> None:
    """Exact check of Z_K(n) = j(Z_K) + c_n*(E_+ + j(E_0^*)) and its corollaries;
    every failure found is reported in one :class:`VerificationError`."""
    sf, n = pair.base, pair.n
    inv = sf.inv
    c = c_n(sf, n)
    failures = []
    g = sf.graph
    gn = pair.augmented.graph
    lhs = canonical_cycle(gn)
    rhs = pair.include(canonical_cycle(g)) + c * (pair.e_plus() + pair.include(g.e0_star))
    if lhs != rhs:
        failures.append("canonical-cycle identity fails")
    gamma_n = pair.augmented.inv.gamma
    if gamma_n != inv.gamma + c / (-inv.e):
        failures.append("gamma of the augmented data does not match gamma + c/|e|")
    if not sf.trivial and not c >= 1:
        failures.append(f"c = {c} < 1 despite b0 < d")
    if n > inv.gamma - 1 + 2 / (-inv.e) and not c < 2:
        failures.append(f"c = {c} >= 2 for large n")
    if failures:
        raise VerificationError("; ".join(failures))


def quasilinear_shift_holds(pair: AugmentedPair, lo: int, hi: int) -> bool:
    """The exact shift N(ell) = N_(n)(ell) + ceil(ell/n) on [lo, hi]."""
    ells = range(lo, hi + 1)
    neg_ceils = map(operator.floordiv, range(-lo, -hi - 1, -1), repeat(pair.n))  # -ceil(ell/n)
    shifted = map(operator.sub, quasilinear_values(pair.augmented, ells), neg_ceils)
    return all(map(operator.eq, quasilinear_values(pair.base, ells), shifted))


def threshold(link: Link) -> int:
    """n*, the least admissible n at which M_(n) meets Z>=0 in exactly S.

    By N(ell) = N_(n)(ell) + ceil(ell/n) no gap of S lies in M_(n), and ell in
    S does iff n >= ell/(N(ell) + 1).  For ell = w + q*alpha, w = Ap[r], that
    ratio is monotone in q and tends to alpha/o = 1/|e|, below the least
    admissible n, floor(1/|e|) + 1 (or 2).  So n* is the largest of those two
    and of ceil(Ap[r]/(N(Ap[r]) + 1)) over r != 0, N(Ap[r]) = N(r) mod o.
    """
    o = link.inv.orbit_order
    levels_plus_one = map((1).__add__, map(operator.mod, islice(link.n.base, 1, None), repeat(o)))
    neg_ratios = map(operator.floordiv, map(operator.neg, islice(link.ap.apery, 1, None)), levels_plus_one)
    return max(-min(neg_ratios, default=0), floor_frac(1 / (-link.inv.e)) + 1, 2)


def verify_prop_comp(link: Link, gaps: bytes, n: int | None = None) -> int:
    """Check that M_(n) meets the window of ``gaps`` (1 at each gap of S, from ell = 0) in S; return n.

    ``gaps`` are the bytes of :func:`~seifert_semigroup.semigroup.gap_window`,
    or longer.  With ``n`` given, only that n is tested.  Otherwise n*
    (:func:`threshold`) must pass and, for a non-trivial base, n* - 1 must
    fail when admissible: then an Ap[r] sets n* and is missing from
    M_(n* - 1), in the window or above f_S.  For a non-trivial base the
    augmented module Frobenius number (lattice formula) must equal f_S, the
    last gap in ``gaps``, which must reach floor(alpha + gamma), past which
    S has no gap, or this raises ``ValueError``.  A failed check raises
    :class:`VerificationError`.
    """
    sf, inv = link.sf, link.inv
    window = floor_frac(inv.alpha + inv.gamma)
    if not sf.trivial and len(gaps) <= window:
        raise ValueError(f"gap flags stop at {len(gaps) - 1}, below floor(alpha + gamma) = {window}")
    f_base = None if sf.trivial else gaps.rfind(1)
    n_used = threshold(link) if n is None else n
    failure = _prop_comp_once(augment(sf, n_used), gaps, f_base)
    below = n_used - 1
    if not failure and n is None and f_base is not None and below >= 2 and sf.e + Fraction(1, below) < 0:
        if not _prop_comp_once(augment(sf, below), gaps, f_base):
            failure = f"n = {below} below the threshold {n_used} passes too"
    if failure:
        raise VerificationError(failure)
    return n_used


def _prop_comp_once(pair: AugmentedPair, base_gaps: bytes, f_base: int | None) -> str:
    """Module gaps against ``base_gaps`` (1 at a gap of the base); then, for a non-trivial base,
    f_M = ``f_base``.  The first failure, or "" when both hold."""
    ells = range(len(base_gaps))
    module_gaps = map((-1).__gt__, quasilinear_values(pair.augmented, ells))
    ell = next(compress(ells, map(operator.ne, base_gaps, module_gaps)), None)
    if ell is not None:
        return f"membership differs at ell = {ell} (n = {pair.n})"
    if f_base is not None:
        try:
            f_module = laufer.frobenius_module(pair.augmented.graph)
        except RationalLinkError:
            return f"augmented graph is rational at n = {pair.n}"
        if f_module != f_base:
            return f"module Frobenius {f_module} != semigroup Frobenius {f_base}"
    return ""
