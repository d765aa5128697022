import random
import sys

import pytest
from hypothesis import strategies as st

from seifert_semigroup import SeifertData, StarGraph, build_graph, ihs_from_alphas
from seifert_semigroup.seifert import QuasilinearTable, quasilinear_values


@pytest.fixture
def sf_star70():
    """Six-vertex star: centre -1 with legs -5, -5, -7, -10, -70."""
    return SeifertData(1, ((5, 1), (5, 1), (7, 1), (10, 1), (70, 1)))


@pytest.fixture
def sf_base4():
    """Four-leg base whose (70)-augmentation is the six-vertex star."""
    return SeifertData(1, ((5, 1), (5, 1), (7, 1), (10, 1)))


@pytest.fixture
def sf_asym5():
    return SeifertData(1, ((4, 1), (4, 1), (4, 1), (10, 1), (40, 1)))


@pytest.fixture
def sf_gor7():
    return SeifertData(2, ((2, 1), (2, 1), (3, 1), (3, 1), (7, 1), (7, 1), (84, 1)))


@pytest.fixture
def sf_237():
    return ihs_from_alphas((2, 3, 7))


@pytest.fixture
def sf_e8():
    return ihs_from_alphas((2, 3, 5))


@pytest.fixture
def golden_graphs(sf_star70, sf_base4, sf_asym5, sf_gor7, sf_237):
    return {
        "star70": build_graph(sf_star70),
        "base4": build_graph(sf_base4),
        "asym5": build_graph(sf_asym5),
        "gor7": build_graph(sf_gor7),
        "s237": build_graph(sf_237),
    }


def seeded_rng(tag: int) -> random.Random:
    return random.Random(20260809 + tag)


def gap_flags(sf, hi: int) -> bytes:
    """One byte per ell in [0, hi], 1 at a gap of the semigroup of ``sf``, by a direct scan of N."""
    return bytes(map((0).__gt__, quasilinear_values(sf, range(hi + 1))))


def count_calls(monkeypatch, fn) -> list[tuple]:
    """Record the positional arguments of every call to the package function ``fn``.

    The counting wrapper replaces ``fn`` in every package module that binds
    it, so calls through another module's import of ``fn`` are seen too.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "seifert_semigroup" or name.startswith("seifert_semigroup."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def count_tables(monkeypatch) -> list:
    """Record the Seifert data of every full-period ``QuasilinearTable`` constructed, however it is reached."""
    built = []
    init = QuasilinearTable.__init__

    def counting_init(self, sf):
        built.append(sf)
        init(self, sf)

    monkeypatch.setattr(QuasilinearTable, "__init__", counting_init)
    return built


@st.composite
def star_graphs(draw):
    """3-6 legs of 1-4 vertices, leg decorations -2..-9, centre -1..-6."""
    chains = draw(st.lists(st.lists(st.integers(-9, -2), min_size=1, max_size=4), min_size=3, max_size=6))
    euler, legs = [draw(st.integers(-6, -1))], []
    for chain in chains:
        legs.append(tuple(range(len(euler), len(euler) + len(chain))))
        euler.extend(chain)
    return StarGraph(euler=tuple(euler), legs=tuple(legs))
