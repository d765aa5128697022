"""Brieskorn-Hamm complete intersection links that are rational homology spheres.

An exponent tuple (a_1, ..., a_n), n >= 3, a_i >= 2, gives a rational
homology sphere exactly when, after a permutation, it has one of two shapes:

* case (i): (m*p_1, m*p_2, p_3, ..., p_n) with the p_i pairwise coprime and
  gcd(m, p_i) = 1 for i >= 3.  The Seifert multiplicities are alpha_i = p_i,
  with leg counts s_1 = s_2 = 1 and s_i = m for i >= 3, and the generic
  orbit has order one.
* case (ii): (2^c*p_1, 2*p_2, 2*p_3, p_4, ..., p_n) with the p_i odd and
  pairwise coprime, c >= 1.  Then alpha_1 = 2^(c-1)*p_1, alpha_i = p_i for
  i >= 2, leg counts are (2, 2, 2, 4, 4, ...), and the orbit order is two.

Anything else has positive base genus and is out of scope.

For both shapes the semigroup of the link is generated by explicit products
of complementary multiplicities (:func:`bh_generators`), and the Seifert data
has a closed form (Neumann 1977; Neumann & Raymond 1978): with the cofactor
q_i = lcm(a)/a_i of each slot, omega_i * q_i = -1 (mod alpha_i), and b0 gives
the orbit order, one in case (i) and two in case (ii).  Both cases are one
call of :func:`seifert.from_congruence`; nothing is searched and no table of
N is built.  :func:`check_generators` compares the generator list with the
minimal generators of the record's semigroup, where its period table is
built and its generators sieved anyway.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import VerificationError
from .semigroup import Link
from .seifert import SeifertData, from_congruence, require_int, shared_factor_pair

CASE_I = "case_i"
CASE_II = "case_ii"
NOT_QHS = "not_qhs"


@dataclass(frozen=True)
class BHClassification:
    """Outcome of the rational-homology-sphere recognition.

    For a match, ``slot_exponents`` lists the exponents a_i in slot order,
    ``p`` their coprime cores, ``alphas`` the Seifert multiplicities per slot,
    and ``multiplicities`` how many legs each slot contributes; ``m`` (case i)
    or ``c`` (case ii) is the extra parameter, and ``orbit_order`` is 1 in
    case (i) and 2 in case (ii).
    """

    case: str
    exponents: tuple[int, ...]
    slot_exponents: tuple[int, ...] | None = None
    p: tuple[int, ...] | None = None
    alphas: tuple[int, ...] | None = None
    multiplicities: tuple[int, ...] | None = None
    orbit_order: int | None = None
    m: int | None = None
    c: int | None = None


def classify(exponents: Sequence[int]) -> BHClassification:
    """Decide which of the two rational-homology-sphere shapes fits, if any."""
    a = tuple(require_int(x, "exponents", "integers") for x in exponents)
    if len(a) < 3:
        raise ValueError("need at least 3 exponents")
    if any(x < 2 for x in a):
        raise ValueError("exponents must be >= 2")
    n = len(a)

    for i, j in itertools.combinations(range(n), 2):
        m = math.gcd(a[i], a[j])
        rest = [a[k] for k in range(n) if k not in (i, j)]
        p = [a[i] // m, a[j] // m] + rest
        if shared_factor_pair(p):
            continue
        if any(math.gcd(m, pk) != 1 for pk in rest):
            continue
        return BHClassification(
            case=CASE_I,
            exponents=a,
            slot_exponents=(a[i], a[j], *rest),
            p=tuple(p),
            alphas=tuple(p),
            multiplicities=(1, 1) + (m,) * (n - 2),
            orbit_order=1,
            m=m,
        )

    twos = [(x & -x).bit_length() - 1 for x in a]
    for i1 in range(n):
        c = twos[i1]
        if c < 1:
            continue
        others = [k for k in range(n) if k != i1]
        singles = [k for k in others if twos[k] == 1]
        if len(singles) != 2 or any(twos[k] != 0 for k in others if k not in singles):
            continue
        i2, i3 = singles
        rest = [k for k in others if k not in singles]
        p = [a[i1] >> c, a[i2] // 2, a[i3] // 2] + [a[k] for k in rest]
        if shared_factor_pair(p):
            continue
        alphas = (2 ** (c - 1) * p[0],) + tuple(p[1:])
        return BHClassification(
            case=CASE_II,
            exponents=a,
            slot_exponents=tuple(a[k] for k in (i1, i2, i3, *rest)),
            p=tuple(p),
            alphas=alphas,
            multiplicities=(2, 2, 2) + (4,) * (n - 3),
            orbit_order=2,
            c=c,
        )

    return BHClassification(case=NOT_QHS, exponents=a)


def _require_qhs(cls: BHClassification) -> None:
    if cls.case == NOT_QHS:
        raise ValueError(f"exponents {cls.exponents} give positive genus (not a QHS)")


def bh_generators(cls: BHClassification) -> list[int]:
    """Minimal generators of the semigroup of the link, from the classification:
    (s_i/o)*(alpha/alpha_i) per slot, with s_i its leg count, o the orbit order
    and alpha the product of the alpha_i."""
    _require_qhs(cls)
    total = math.prod(cls.alphas)
    return sorted({s // cls.orbit_order * (total // a) for a, s in zip(cls.alphas, cls.multiplicities)})


def bh_seifert(cls: BHClassification) -> SeifertData:
    """Seifert data of the link, in closed form.

    Each slot gives s_i legs (alpha_i, omega_i) with omega_i*q_i = -1
    (mod alpha_i), where q_i = lcm(a)/a_i for the slot's exponent a_i; b0
    makes the orbit order one in case (i) and two in case (ii).
    """
    _require_qhs(cls)
    big_lcm = math.lcm(*cls.exponents)
    cofactors = (big_lcm // a for a in cls.slot_exponents)
    return from_congruence(zip(cls.alphas, cofactors, cls.multiplicities), cls.orbit_order)


def check_generators(link: Link, gens: list[int], minimal: list[int]) -> None:
    """Check that ``gens`` generate the semigroup S of ``link``, whose minimal generators are ``minimal``.

    They do iff each lies in S and every minimal generator of S, being no sum
    of two nonzero elements of S, is listed; a mismatch raises VerificationError.
    """
    bad = next((g for g in gens if not link.in_semigroup(g)), None)
    if bad is None:
        bad = next((g for g in minimal if g not in gens), None)
    if bad is not None:
        raise VerificationError(f"the generators {gens} and the semigroup of {link.sf} disagree at {bad}")
