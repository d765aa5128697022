"""Independent reference used to check every output of the benchmark.

Nothing here imports the package under test.  All semigroup and module
quantities are derived from the quasi-linear function

    N(l) = b0*l - sum_i ceil(l*w_i/a_i)

evaluated directly on one period [0, alpha) and extended by the exact shift
N(l + alpha) = N(l) + o, which holds because alpha is a common multiple of
the a_i.  The canonical cycle comes from a leaf-to-centre elimination on the
plumbing tree, a different algorithm from the package's dense solve.
"""

from __future__ import annotations

import heapq
import json
import math
from fractions import Fraction


def cf_chain(a: int, w: int) -> list[int]:
    """Negative continued fraction a/w = [c_1, ..., c_k], every c_j >= 2."""
    chain = []
    while w > 0:
        c = -(-a // w)
        chain.append(c)
        a, w = w, c * w - a
    return chain


def graph_size(legs) -> int:
    """Vertex count of the star-shaped plumbing graph of the legs."""
    return 1 + sum(len(cf_chain(a, w)) for a, w in legs)


def ihs_data(alphas) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(b0, legs) of the integral homology sphere: alpha*|e| = 1 pins w_i and b0."""
    alpha = math.prod(alphas)
    legs = []
    for a in alphas:
        q = alpha // a
        w = next(w for w in range(1, a) if (w * q + 1) % a == 0)
        legs.append((a, w))
    num = 1 + sum(w * (alpha // a) for a, w in legs)
    if num % alpha:
        raise ArithmeticError(f"no integral b0 for alphas {alphas}")
    return num // alpha, tuple(legs)


def canonical_cycle(b0: int, legs) -> list[Fraction]:
    """Z_K with (Z_K, E_v) = euler(v) + 2, by elimination from the leaves inward.

    Each leg vertex is written as x_j = A_j + B_j * x_{j-1} from the leaf
    toward the centre; the centre equation then has one unknown.
    """
    chains = [cf_chain(a, w) for a, w in legs]
    per_leg = []
    centre_a, centre_b = Fraction(0), Fraction(0)
    for chain in chains:
        coef = [None] * len(chain)
        a_next, b_next = Fraction(0), Fraction(0)
        for j in range(len(chain) - 1, -1, -1):
            rhs = 2 - chain[j]
            pivot = b_next - chain[j]
            a_next, b_next = (rhs - a_next) / pivot, Fraction(-1) / pivot
            coef[j] = (a_next, b_next)
        per_leg.append(coef)
        centre_a += coef[0][0]
        centre_b += coef[0][1]
    x0 = (2 - b0 - centre_a) / (-b0 + centre_b)
    cycle = [x0]
    for chain, coef in zip(chains, per_leg):
        prev = x0
        for j in range(len(chain)):
            prev = coef[j][0] + coef[j][1] * prev
            cycle.append(prev)
    _check_adjunction(b0, chains, cycle)
    return cycle


def _check_adjunction(b0, chains, cycle) -> None:
    """Exact residual check of the elimination: (Z_K, E_v) = euler(v) + 2."""
    offsets = []
    pos = 1
    for chain in chains:
        offsets.append(pos)
        pos += len(chain)
    centre = -b0 * cycle[0] + sum(cycle[o] for o in offsets)
    if centre != 2 - b0:
        raise ArithmeticError("tree elimination residual at the centre")
    for chain, o in zip(chains, offsets):
        for j, c in enumerate(chain):
            left = cycle[0] if j == 0 else cycle[o + j - 1]
            right = cycle[o + j + 1] if j + 1 < len(chain) else 0
            if -c * cycle[o + j] + left + right != 2 - c:
                raise ArithmeticError("tree elimination residual on a leg")


class Reference:
    """Exact semigroup and module data of (b0, legs), read off N."""

    def __init__(self, b0: int, legs):
        self.b0 = b0
        self.legs = tuple((int(a), int(w)) for a, w in legs)
        self.d = len(self.legs)
        self.e = Fraction(-b0) + sum(Fraction(w, a) for a, w in self.legs)
        if self.e >= 0:
            raise ValueError("orbifold Euler number must be negative")
        self.alpha = math.lcm(*(a for a, _ in self.legs))
        self.o = int(-self.e * self.alpha)
        self.order_h = int(-self.e * math.prod(a for a, _ in self.legs))
        self.gamma = (self.d - 2 - sum(Fraction(1, a) for a, _ in self.legs)) / (-self.e)
        self.trivial = b0 >= self.d
        self.table = [self.n_direct(r) for r in range(self.alpha)]

    def n_direct(self, ell: int) -> int:
        return self.b0 * ell - sum(-((-ell * w) // a) for a, w in self.legs)

    def n(self, ell: int) -> int:
        q, r = divmod(ell, self.alpha)
        return self.table[r] + q * self.o

    def apery(self) -> list[int]:
        """Least member of S in each class mod alpha."""
        o, alpha = self.o, self.alpha
        return [max(0, -(t // o)) * alpha + r for r, t in enumerate(self.table)]

    def gaps(self) -> int:
        o = self.o
        return sum(max(0, -(t // o)) for t in self.table)

    def frobenius(self) -> int:
        return max(self.apery()) - self.alpha

    def module_min(self) -> int:
        """Least ell with N(ell) >= -1; per class the least q with t + q*o >= -1."""
        o, alpha = self.o, self.alpha
        return min(-((1 + t) // o) * alpha + r for r, t in enumerate(self.table))

    def module_frobenius_raw(self) -> int:
        """Largest ell with N(ell) <= -2; per class the largest q with t + q*o <= -2."""
        o, alpha = self.o, self.alpha
        return max(((-2 - t) // o) * alpha + r for r, t in enumerate(self.table))

    def geometric_genus(self) -> int:
        """sum over ell >= 0 of max(0, -1 - N(ell)), summed per class in closed form."""
        o, total = self.o, 0
        for t in self.table:
            top = (-2 - t) // o
            if top >= 0:
                count = top + 1
                total += count * (-1 - t) - o * top * count // 2
        return total

    def numerically_gorenstein(self) -> bool:
        zk = canonical_cycle(self.b0, self.legs)
        if zk[0] != self.gamma + 1:
            raise ArithmeticError("central coefficient of Z_K is not gamma + 1")
        return all(x.denominator == 1 for x in zk)

    def generator_problems(self, gens: list[int]) -> list[str]:
        """Check that ``gens`` is the minimal generating set of S.

        With m the multiplicity, the least element of <gens> in each class mod
        m (a shortest-path computation) must equal that of S, and no
        generator may lie in the monoid of the smaller ones.
        """
        if not gens or gens != sorted(set(gens)) or gens[0] <= 0:
            return [f"generators {gens[:8]} not a sorted set of positive integers"]
        if any(self.n(g) < 0 for g in gens):
            return ["a generator is not in the semigroup"]
        m = gens[0]
        if any(self.n(ell) >= 0 for ell in range(1, m)):
            return [f"smallest generator {m} is not the multiplicity"]
        target = [None] * m
        found, ell = 0, 0
        while found < m:
            if target[ell % m] is None and self.n(ell) >= 0:
                target[ell % m] = ell
                found += 1
            ell += 1
        problems = []
        if _least_per_class(gens, m) != target:
            problems.append("the generators do not generate the semigroup")
        for i, g in enumerate(gens[1:], start=1):
            least = _least_per_class(gens[:i], m)[g % m]
            if least is not None and least <= g:
                problems.append(f"generator {g} is not minimal")
        return problems


def _least_per_class(gens: list[int], m: int) -> list[int | None]:
    """Least element of the monoid <gens> in each class mod m (Dijkstra)."""
    dist: list[int | None] = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        value, c = heapq.heappop(heap)
        if value != dist[c]:
            continue
        for g in gens:
            nv = value + g
            nc = nv % m
            if dist[nc] is None or nv < dist[nc]:
                dist[nc] = nv
                heapq.heappush(heap, (nv, nc))
    return dist


def record_data(record: dict, output=None) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(b0, legs) of an input record; bh records use the data the program reports."""
    if "seifert" in record:
        s = record["seifert"]
        return s["b0"], tuple(tuple(leg) for leg in s["legs"])
    if "alphas" in record:
        return ihs_data(record["alphas"])
    s = output["bh"]["seifert"]
    return s["b0"], tuple(tuple(leg) for leg in s["legs"])


def examine(kind: str, record: dict, output) -> tuple[list[str], dict | None]:
    """(problems, properties) of one record's output; no problems means correct.

    ``kind`` is the worker's entry point: "batch" output is a result object,
    "frobenius" an exit code plus stdout, "verify" a list of checks.
    Properties describe the input (graph size, alpha, trivial, rational,
    numerically Gorenstein) and are None when the output is an error.
    """
    if isinstance(output, dict) and ("error" in output or "exception" in output):
        return [f"program error: {output.get('error') or output.get('exception')}"], None
    b0, legs = record_data(record, output)
    ref = Reference(b0, legs)
    rational = ref.geometric_genus() == 0
    gorenstein = ref.numerically_gorenstein()
    props = {"n": graph_size(legs), "alpha": ref.alpha, "trivial": ref.trivial,
             "rational": rational, "gorenstein": gorenstein}
    if kind == "batch":
        problems = _report_problems(record, output, ref, rational, gorenstein)
    elif kind == "frobenius":
        problems = _frobenius_problems(output, ref, rational)
    else:
        problems = _verify_problems(output)
    return problems, props


def _report_problems(record, out, ref, rational, gorenstein) -> list[str]:
    """Problems in one `batch` result object."""
    if "id" in record and out.get("id") != record["id"]:
        return ["id not echoed"]
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: got {str(got)[:60]}, expected {str(want)[:60]}")

    inv = out["invariants"]
    expect("e", inv["e"], str(ref.e))
    expect("alpha", inv["alpha"], ref.alpha)
    expect("gamma", inv["gamma"], str(ref.gamma))
    expect("orderH", inv["orderH"], ref.order_h)
    expect("orbitOrder", inv["orbitOrder"], ref.o)
    expect("numericallyGorenstein", inv["numericallyGorenstein"], gorenstein)
    expect("rational", inv["rational"], rational)

    semi = out["semigroup"]
    gaps, frob = ref.gaps(), ref.frobenius()
    expect("trivial", semi["trivial"], ref.trivial)
    expect("apery", semi["apery"], ref.apery())
    expect("gaps", semi["gaps"], gaps)
    expect("frobenius", semi["frobenius"], frob)
    expect("symmetric", semi["symmetric"], ref.trivial or 2 * gaps == frob + 1)
    if ref.trivial:
        expect("generators", semi["generators"], [1])
    else:
        problems += ref.generator_problems(semi["generators"])

    expect("module frobenius", out["module"]["frobenius"], ref.module_frobenius_raw())
    expect("module min", out["module"]["min"], ref.module_min())

    if "bh" in record:
        bh = out["bh"]
        expect("bh generators", bh["generators"], semi["generators"])
        if bh["case"] == "case_i":
            m, p = bh["m"], bh["p"]
            expect("bh exponents", sorted(record["bh"]), sorted([m * p[0], m * p[1]] + p[2:]))
            expect("bh orbit order", ref.o, 1)
        elif bh["case"] == "case_ii":
            c, p = bh["c"], bh["p"]
            expect("bh exponents", sorted(record["bh"]), sorted([2**c * p[0], 2 * p[1], 2 * p[2]] + p[3:]))
            expect("bh orbit order", ref.o, 2)
        else:
            problems.append(f"bh case {bh['case']!r}")
    return problems


def _frobenius_problems(out, ref, rational) -> list[str]:
    """Problems in one `frobenius --method both` result; exit 2 means the routes disagreed."""
    if out["rc"] != 0:
        return [f"exit code {out['rc']}: formula and brute routes disagree or input rejected"]
    got = json.loads(out["stdout"])
    want = {
        "method": "both",
        "semigroup": {"trivial": ref.trivial, "frobenius": -1 if ref.trivial else ref.frobenius()},
        "module": {"rational": rational, "frobenius": None if rational else ref.module_frobenius_raw()},
    }
    return [] if got == want else [f"got {got}, expected {want}"]


def _verify_problems(out) -> list[str]:
    """Problems in one `verify_seifert` result list: every check must pass."""
    if len(out) < 5:
        return [f"only {len(out)} checks ran"]
    return [f"FAIL {name}: {detail}" for name, passed, detail in out if not passed]
