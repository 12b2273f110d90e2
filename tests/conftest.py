import functools

import pytest

from zdgdim import build_blowup, from_cover_relations, zero_divisor_graph
from zdgdim.verify import FIG3, SUITES, corpus

# Acceptance corpus: 50 seeded random blow-up specs plus the named ones.
CORPUS_SEED = 1234
CORPUS_SIZE = 50


@pytest.fixture(scope="session")
def fig3_spec():
    return FIG3


@pytest.fixture(scope="session")
def fig3_lattice(fig3_spec):
    return build_blowup(fig3_spec)


def make_fig2_lattice():
    """The 18-element lattice with a size-5 and a size-2 annihilator class
    whose zero-divisor graph is K_{2,5}."""
    labels = (["0"] + [f"x1_{i}" for i in range(1, 6)]
              + ["x2_1", "x2_2"] + [f"d{i}" for i in range(1, 10)] + ["1"])
    covers = [
        ("0", "x1_1"),
        ("x1_1", "x1_2"), ("x1_1", "x1_3"), ("x1_1", "x1_4"),
        ("x1_2", "x1_5"), ("x1_3", "x1_5"), ("x1_4", "x1_5"),
        ("0", "x2_1"), ("x2_1", "x2_2"),
        ("x1_1", "d1"), ("x2_1", "d1"),
        ("d1", "d2"), ("d1", "d3"), ("d1", "d4"),
        ("x1_2", "d2"), ("x1_3", "d3"), ("x1_4", "d4"),
        ("d2", "d5"), ("d3", "d5"), ("d4", "d5"), ("x1_5", "d5"),
        ("x2_2", "d6"), ("d1", "d6"),
        ("d6", "d7"), ("d6", "d8"), ("d6", "d9"),
        ("d2", "d7"), ("d3", "d8"), ("d4", "d9"),
        ("d7", "1"), ("d8", "1"), ("d9", "1"), ("d5", "1"),
    ]
    return from_cover_relations(labels, covers, "0", "1")


@pytest.fixture(scope="session")
def fig2_lattice():
    return make_fig2_lattice()


@pytest.fixture(scope="session")
def corpus_graphs():
    """(name, spec, lattice, zero-divisor graph) for every corpus member."""
    return [(name, spec, LB, zero_divisor_graph(LB))
            for name, spec, LB in corpus(CORPUS_SEED, CORPUS_SIZE)]


@pytest.fixture(scope="session")
def suite_result():
    """Run a verify suite on the acceptance corpus, once per session."""
    return functools.cache(lambda name: SUITES[name](CORPUS_SEED, CORPUS_SIZE))
