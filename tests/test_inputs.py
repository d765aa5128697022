"""Library inputs: the integer rule, the homology-sphere alphas, bounded random
draws, and the README quick tour run as written."""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

from seifert_semigroup import (
    Link,
    SeifertData,
    augment,
    classify,
    end_projection_generators,
    ihs_from_alphas,
    ihs_generators,
    poincare,
    quasilinear,
    tau_sequence,
    x_series,
    zero_cycle,
)
from seifert_semigroup.semigroup import monoid_apery

ROOT = Path(__file__).parents[1]
BASE4_LEGS = ((5, 1), (5, 1), (7, 1), (10, 1))
G237 = ihs_from_alphas([2, 3, 7]).graph

# Every entry point of the integer rule: (call on the bad value, parameter named in the error).
INTEGER_ENTRY_POINTS = {
    "SeifertData-b0": (lambda v: SeifertData(v, BASE4_LEGS), "b0"),
    "SeifertData-alpha": (lambda v: SeifertData(1, ((v, 1),) + BASE4_LEGS[1:]), "a leg entry"),
    "SeifertData-omega": (lambda v: SeifertData(1, ((5, v),) + BASE4_LEGS[1:]), "a leg entry"),
    "ihs_from_alphas": (lambda v: ihs_from_alphas([v, 3, 7]), "alphas"),
    "ihs_generators": (lambda v: ihs_generators([v, 3, 7]), "alphas"),
    "end_projection_generators-alphas": (lambda v: end_projection_generators([v, 3, 7], 2), "alphas"),
    "end_projection_generators-end_index": (lambda v: end_projection_generators([2, 3, 7], v), "end_index"),
    "classify": (lambda v: classify([v, 3, 7]), "exponents"),
    "augment": (lambda v: augment(SeifertData(1, BASE4_LEGS), v), "n"),
    "monoid_apery": (lambda v: monoid_apery([v, 3]), "generators"),
    "poincare": (lambda v: poincare(SeifertData(1, BASE4_LEGS), v), "up_to"),
    "tau_sequence": (lambda v: tau_sequence(SeifertData(1, BASE4_LEGS), v), "up_to"),
    "x_series": (lambda v: x_series(G237, zero_cycle(G237.n), v), "up_to"),
    "quasilinear": (lambda v: quasilinear(ihs_from_alphas([2, 3, 7]), v), "ell"),
    "Link.in_semigroup": (lambda v: Link(ihs_from_alphas([2, 3, 7])).in_semigroup(v), "ell"),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, Fraction(5)], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_non_int_inputs_are_refused(entry, value):
    """A value whose type is not int is refused with ValueError naming the
    parameter and the value, never truncated."""
    call, name = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be")) as info:
        call(value)
    assert str(info.value).endswith(f"got {value!r}")


def test_legs_become_a_tuple_of_pairs():
    assert SeifertData(1, [[5, 1], [5, 1], [7, 1], [10, 1]]).legs == BASE4_LEGS


@pytest.mark.parametrize(
    "call",
    [ihs_from_alphas, ihs_generators, lambda alphas: end_projection_generators(alphas, 0)],
    ids=["ihs_from_alphas", "ihs_generators", "end_projection_generators"],
)
@pytest.mark.parametrize(
    "alphas, message",
    [
        ([2, 3], "need at least 3 alphas"),
        ([-2, 3, 7], "alphas must be >= 2"),
        ([1, 1, 5], "alphas must be >= 2"),
        ([2, 3, 4, 7], "alphas must be pairwise coprime, got 2, 4"),
    ],
    ids=["two", "negative", "ones", "shared-factor"],
)
def test_homology_sphere_alphas_are_checked_alike(call, alphas, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(alphas)


def test_random_coprime_alphas_gives_up():
    """Draws that can never succeed end in ValueError naming d, max_alpha and
    product_cap; run in a subprocess, with a timeout, in case they loop."""
    script = (
        "import random\n"
        "from seifert_semigroup.verification import random_coprime_alphas\n"
        "for d, kwargs in ((5, {'max_alpha': 5}), (3, {'product_cap': 20})):\n"
        "    try:\n"
        "        random_coprime_alphas(random.Random(1), d, **kwargs)\n"
        "    except ValueError as ex:\n"
        "        print(ex)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    assert "d = 5" in lines[0] and "max_alpha = 5" in lines[0] and "product_cap = 20000" in lines[0]
    assert "d = 3" in lines[1] and "max_alpha = 25" in lines[1] and "product_cap = 20 " in lines[1]


def _leading_literal(comment: str):
    """(True, value) if ``comment`` begins with a Python literal, else (False, None).

    The literal ends at the first space, comma, colon or semicolon outside brackets.
    """
    depth, end = 0, len(comment)
    for i, c in enumerate(comment):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif depth == 0 and c in " ,:;":
            end = i
            break
    try:
        return True, ast.literal_eval(comment[:end])
    except (ValueError, SyntaxError):
        return False, None


def test_readme_quick_tour_runs_as_written():
    """Every statement of the README's python block runs, and each expression
    whose trailing comment begins with a literal evaluates to it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace, checked = {}, 0
    for stmt in ast.parse(block).body:
        is_literal, want = _leading_literal(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and is_literal:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == want, ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked >= 10
