import inspect
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from seifert_semigroup import (
    RationalCycle,
    SeifertData,
    StarGraph,
    build_graph,
    canonical_cycle,
    chi,
    class_rep,
    cycle,
    dual_cycle,
    group_order,
    invariants,
    is_antinef,
    is_negative_definite,
    pairing,
    unit_cycle,
    zero_cycle,
)
from seifert_semigroup.cli import build_parser, full_report
from seifert_semigroup.lattice import (
    hirzebruch_cf,
    intersection_matrix,
    orbifold_euler_number,
    pairing_with_vertex,
)
from seifert_semigroup.verification import random_seifert

from conftest import seeded_rng, star_graphs


def cf_value(chain):
    """Oracle: the value of the negative continued fraction [b_1, ..., b_k]."""
    value = F(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - 1 / value
    return value


def test_continued_fraction_examples():
    assert hirzebruch_cf(7, 2) == (4, 2)
    assert hirzebruch_cf(5, 3) == (2, 3)
    assert hirzebruch_cf(5, 1) == (5,)
    assert cf_value((4, 2)) == F(7, 2)
    assert cf_value((2, 3)) == F(5, 3)


@given(st.integers(2, 200), st.data())
def test_continued_fraction_roundtrip(alpha, data):
    units = [w for w in range(1, alpha) if math.gcd(w, alpha) == 1]
    omega = data.draw(st.sampled_from(units))
    chain = hirzebruch_cf(alpha, omega)
    assert all(b >= 2 for b in chain)
    assert cf_value(chain) == F(alpha, omega)


def test_build_graph_golden(sf_star70):
    g = build_graph(sf_star70)
    assert g.n == 6
    assert g.euler == (-1, -5, -5, -7, -10, -70)
    assert g.legs == ((1,), (2,), (3,), (4,), (5,))


def test_build_graph_chains():
    g = build_graph(SeifertData(2, ((7, 2), (5, 3), (2, 1))))
    assert g.euler == (-2, -4, -2, -2, -3, -2)
    assert g.legs == ((1, 2), (3, 4), (5,))


def test_pairing_basics(golden_graphs):
    for g in golden_graphs.values():
        for v in range(g.n):
            ev = unit_cycle(g.n, v)
            assert pairing(g, ev, ev) == g.euler[v]
            for u in range(g.n):
                expected = g.euler[v] if u == v else (1 if u in g.neighbors(v) else 0)
                assert pairing(g, unit_cycle(g.n, u), ev) == expected


def test_central_dual_self_pairing(golden_graphs, sf_star70, sf_base4, sf_asym5, sf_gor7, sf_237):
    for g, sf in zip(
        [golden_graphs[k] for k in ("star70", "base4", "asym5", "gor7", "s237")],
        [sf_star70, sf_base4, sf_asym5, sf_gor7, sf_237],
    ):
        e0 = dual_cycle(g, 0)
        assert pairing(g, e0, e0) == 1 / invariants(sf).e  # -(E0*, E0*) = 1/|e|


def test_dual_cycle_golden(sf_base4, sf_asym5):
    g = build_graph(sf_base4)
    assert dual_cycle(g, 0) == cycle([F(14, 5), F(14, 25), F(14, 25), F(2, 5), F(7, 25)])
    g1 = build_graph(sf_asym5)
    assert dual_cycle(g1, 0) == cycle([8, 2, 2, 2, F(4, 5), F(1, 5)])


def test_end_vertex_dual_central_coefficient(sf_base4, sf_gor7):
    for sf in (sf_base4, sf_gor7):
        g = build_graph(sf)
        inv = invariants(sf)
        for leg, (alpha, _) in zip(g.legs, sf.legs):
            assert dual_cycle(g, leg[-1])[0] == 1 / (-inv.e * alpha)


def test_dual_pairings_are_kronecker(golden_graphs):
    for g in golden_graphs.values():
        for v in range(g.n):
            ev = dual_cycle(g, v)
            assert all(x > 0 for x in ev.coeffs)
            for w in range(g.n):
                assert pairing_with_vertex(g, ev, w) == (-1 if v == w else 0)


def test_canonical_cycle_golden(sf_star70, sf_asym5, sf_e8):
    assert canonical_cycle(build_graph(sf_star70)) == cycle(
        [F(47, 6), F(13, 6), F(13, 6), F(11, 6), F(19, 12), F(13, 12)]
    )
    assert canonical_cycle(build_graph(sf_asym5)) == cycle([18, 5, 5, 5, F(13, 5), F(7, 5)])
    g8 = build_graph(sf_e8)
    assert canonical_cycle(g8) == zero_cycle(g8.n)


def test_adjunction_residual_zero(golden_graphs):
    for g in golden_graphs.values():
        zk = canonical_cycle(g)
        for v in range(g.n):
            assert pairing_with_vertex(g, zk, v) == g.euler[v] + 2


def test_chi_basics(golden_graphs):
    for g in golden_graphs.values():
        assert chi(g, zero_cycle(g.n)) == 0
        assert chi(g, canonical_cycle(g)) == 0


def test_chi_bilinear_identity(golden_graphs):
    rng = seeded_rng(1)
    for g in golden_graphs.values():
        for _ in range(20):
            a = cycle([rng.randint(-3, 3) for _ in range(g.n)])
            b = cycle([rng.randint(-3, 3) for _ in range(g.n)])
            assert chi(g, a + b) == chi(g, a) + chi(g, b) - pairing(g, a, b)


fraction_vectors = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.fractions(-30, 30, max_denominator=40), min_size=n, max_size=n)
)


@settings(max_examples=300)
@given(fraction_vectors, st.data())
def test_rational_cycle_normal_form_matches_fraction_arithmetic(xs, data):
    """Numerators over one denominator, in lowest terms, against componentwise
    Fraction arithmetic on the drawn entries."""
    n = len(xs)
    other = st.lists(st.fractions(-30, 30, max_denominator=40), min_size=n, max_size=n)
    ys = data.draw(st.one_of(st.just(list(xs)), other))
    k = data.draw(st.integers(-5, 5))
    q = data.draw(st.fractions(-7, 7, max_denominator=9))
    a, b = cycle(xs), cycle(ys)
    assert a.den == math.lcm(*(x.denominator for x in xs))
    assert math.gcd(a.den, *a.num) == 1
    assert a.coeffs == tuple(xs) and [a[v] for v in range(n)] == xs and list(a) == xs
    assert str(a) == "(" + ", ".join(map(str, xs)) + ")"
    scale = data.draw(st.integers(1, 12))
    assert RationalCycle(tuple(scale * c for c in a.num), scale * a.den) == a
    assert (a == b) == (xs == ys)
    if a == b:
        assert hash(a) == hash(b)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(xs, ys))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(xs, ys))
    assert (-a).coeffs == tuple(-x for x in xs)
    for s in (k, q):
        assert (a * s).coeffs == (s * a).coeffs == tuple(x * s for x in xs)
    assert (a >= b) == all(x >= y for x, y in zip(xs, ys))
    assert (a <= b) == all(x <= y for x, y in zip(xs, ys))
    assert a.is_integral() == all(x.denominator == 1 for x in xs)
    assert class_rep(a).coeffs == tuple(x - math.floor(x) for x in xs)
    for c in (a + b, a - b, a * q, class_rep(a)):
        assert c.den > 0 and math.gcd(c.den, *c.num) == 1


def test_class_rep_golden(sf_star70, sf_base4):
    g = build_graph(sf_star70)
    r = class_rep(canonical_cycle(g))
    assert r == cycle([F(5, 6), F(1, 6), F(1, 6), F(5, 6), F(7, 12), F(1, 12)])
    g5 = build_graph(sf_base4)
    r5 = class_rep(canonical_cycle(g5) + dual_cycle(g5, 0))
    assert r5 == cycle([F(3, 5), F(3, 25), F(3, 25), F(4, 5), F(14, 25)])


def test_class_rep_roundtrip(golden_graphs):
    rng = seeded_rng(2)
    for g in golden_graphs.values():
        assert class_rep(cycle([rng.randint(-5, 5) for _ in range(g.n)])) == zero_cycle(g.n)
        l = canonical_cycle(g) + cycle([rng.randint(-3, 3) for _ in range(g.n)])
        assert (l - class_rep(l)).is_integral()


def test_antinef_predicate(golden_graphs):
    for g in golden_graphs.values():
        assert is_antinef(g, zero_cycle(g.n))
        for v in range(g.n):
            assert is_antinef(g, dual_cycle(g, v))
            assert not is_antinef(g, -1 * unit_cycle(g.n, v))
        # restricted form ignores the excluded central vertex
        assert not is_antinef(g, -1 * unit_cycle(g.n, 0))
        assert is_antinef(g, -1 * unit_cycle(g.n, 0), vertices=range(1, g.n))


@given(star_graphs())
def test_group_order_is_the_tree_determinant(g):
    """The dense elimination and the leg-tail recursion give the same |det I|,
    on indefinite graphs too; a singular form has no order."""
    if g.det == 0:
        with pytest.raises(ArithmeticError):
            group_order(g)
    else:
        assert group_order(g) == abs(g.det)


def test_group_order_refuses_a_singular_form():
    """The affine D~4 star: centre and four legs of -2, det I = 0."""
    g = StarGraph((-2,) * 5, ((1,), (2,), (3,), (4,)))
    assert g.det == 0
    with pytest.raises(ArithmeticError, match="degenerate intersection form"):
        group_order(g)


def test_group_order_matches_seifert_formula():
    rng = seeded_rng(3)
    for _ in range(25):
        sf = random_seifert(rng, max_alpha=12, alpha_cap=10**6, window_cap=10**9)
        g = build_graph(sf)
        assert group_order(g) == invariants(sf).order_h
        assert g.det == invariants(sf).order_h


def sylvester_negative_definite(g):
    """Oracle: Sylvester's criterion on -I by symmetric elimination in vertex order."""
    n = g.n
    m = [[F(-x) for x in row] for row in intersection_matrix(g)]
    for t in range(n):
        if m[t][t] <= 0:
            return False
        for r in range(t + 1, n):
            f = m[r][t] / m[t][t]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[t])]
    return True


def dense_solve(g, columns):
    """Oracle: I x = rhs for each rhs in ``columns``, by exact Gauss-Jordan
    elimination on the dense matrix."""
    n = g.n
    aug = [[F(x) for x in row] + [F(rhs[i]) for rhs in columns] for i, row in enumerate(intersection_matrix(g))]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [cycle(aug[i][n + k] for i in range(n)) for k in range(len(columns))]


@settings(deadline=None)
@given(star_graphs())
def test_tree_solve_matches_dense_oracle(g):
    assume(orbifold_euler_number(g) < 0)
    columns = [[e + 2 for e in g.euler]] + [[-1 if u == v else 0 for u in range(g.n)] for v in range(g.n)]
    zk, *duals = dense_solve(g, columns)
    assert canonical_cycle(g) == zk
    assert [dual_cycle(g, v) for v in range(g.n)] == duals
    assert all(g.det % c.den == 0 for c in [zk, *duals])


def fraction_chi(g, l):
    """Oracle: chi(l) = (Z_K - l, l)/2 by the Fraction pairing."""
    return pairing(g, canonical_cycle(g) - l, l) / 2


@settings(deadline=None, max_examples=100)
@given(star_graphs(), st.data())
def test_integer_chi_matches_fraction_formula(g, data):
    assume(orbifold_euler_number(g) < 0)
    coeffs = data.draw(st.lists(st.fractions(-20, 20, max_denominator=30), min_size=g.n, max_size=g.n))
    for l in (cycle(coeffs), canonical_cycle(g) - cycle(coeffs), dual_cycle(g, 0)):
        assert chi(g, l) == fraction_chi(g, l)


@given(star_graphs())
def test_tree_solve_refuses_indefinite_graphs(g):
    assume(orbifold_euler_number(g) >= 0)
    with pytest.raises(ArithmeticError):
        canonical_cycle(g)
    with pytest.raises(ArithmeticError):
        dual_cycle(g, 0)


def test_negative_definiteness_tracks_euler_number_sign():
    rng = seeded_rng(4)
    for _ in range(30):
        d = rng.randint(3, 5)
        euler = [-rng.randint(1, 3)] + [-rng.randint(2, 9) for _ in range(d)]
        g = StarGraph(euler=tuple(euler), legs=tuple((i + 1,) for i in range(d)))
        assert is_negative_definite(g) == sylvester_negative_definite(g) == (orbifold_euler_number(g) < 0)


def test_no_module_level_caches():
    """Graph data lives on the graph object; the only package cache is the CLI
    parser, whose builder takes no arguments and so holds no record data."""
    corpus = Path(__file__).parent / "golden" / "corpus.jsonl"
    for line in corpus.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["id"] != "bad":
            full_report(record)
    cached = [
        f"{name}.{attr}"
        for name, module in sys.modules.items()
        if name.split(".")[0] == "seifert_semigroup"
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info")
    ]
    assert cached == ["seifert_semigroup.cli.build_parser"]
    assert not inspect.signature(build_parser).parameters


def test_invalid_graphs_rejected():
    with pytest.raises(ValueError):
        StarGraph(euler=(1, -2, -2, -2), legs=((1,), (2,), (3,)))
    with pytest.raises(ValueError):
        StarGraph(euler=(-1, -1, -2, -2), legs=((1,), (2,), (3,)))
    with pytest.raises(ValueError):
        SeifertData(1, ((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        SeifertData(1, ((2, 1), (4, 2), (3, 1)))
    with pytest.raises(ValueError):
        SeifertData(1, ((2, 1), (2, 1), (2, 1)))  # e = 1/2 >= 0
