"""The index-mask checks of the `distance-lemma` and `quotient` suites
against networkx and against the label-level loops they replaced, which
stay here as oracles."""

import random

import networkx as nx
import pytest

from zdgdim import (Disconnected, NotApplicable, NotAZeroDivisor,
                    SimpleGraph, boolean_lattice, distance_balls,
                    distance_by_pseudocomplement, m_lattice,
                    product_of_chains, zero_divisor_graph)
from zdgdim.metric import _distance_masks
from zdgdim.poset import _bits
from zdgdim.verify import (_distance_lemma_mismatches,
                           _join_identity_failures, corpus)

from conftest import make_fig2_lattice

CHAIN_PRODUCTS = ((2, 2, 2), (3, 2, 2), (3, 3, 3), (2, 3, 2, 2))


def label_trichotomy(LB, x: str, y: str) -> int:
    """The lemma on labels, one pseudocomplement lookup at a time:
    1 iff y <= x*, else 3 iff y* <= x**, else 2."""
    if x == y:
        return 0
    xs, ys = LB.pseudocomplement(x), LB.pseudocomplement(y)
    if LB.leq(y, xs):
        return 1
    return 3 if LB.leq(ys, LB.pseudocomplement(xs)) else 2


def pair_loop_mismatches(LB, G: SimpleGraph) -> int:
    """The distance-lemma count pair by pair: each j > i in i's BFS sphere
    of radius d whose label-level distance is not d."""
    bad = 0
    for i, ball in enumerate(distance_balls(G)):
        later = -1 << i + 1
        for d in range(1, len(ball)):
            for j in _bits(ball[d] & ~ball[d - 1] & later):
                if label_trichotomy(LB, G.labels[i], G.labels[j]) != d:
                    bad += 1
    return bad


def label_set_join_failures(LB) -> int:
    """The join-identity count over ordered pairs of labels, with each
    annihilator a Python set of labels."""
    ann = {lab: set(LB.annihilator(lab)) for lab in LB.labels}
    return sum(ann[LB.join(x, y)] != ann[x] & ann[y]
               for x in LB.labels for y in LB.labels)


def lemma_distances(LB, G: SimpleGraph) -> list[list[int]]:
    """Row v: the lemma's distance from v to every vertex of G = G(LB),
    read off v's masks of `_distance_masks` on G's indices."""
    bit = [0] * len(LB)
    for v, lab in enumerate(G.labels):
        bit[LB.index(lab)] = 1 << v
    masks = _distance_masks(LB, bit)
    rows = []
    for v, lab in enumerate(G.labels):
        near, far = masks[LB.index(lab)]
        rows.append([0 if w == v else 1 if near >> w & 1 else
                     3 if far >> w & 1 else 2 for w in range(G.n)])
    return rows


@pytest.fixture(scope="module")
def verify_lattices():
    """(name, lattice, zero-divisor graph) for every member of
    corpus(0, 300), the corpus of the benchmark's verify workload."""
    return [(name, LB, zero_divisor_graph(LB))
            for name, _, LB in corpus(0, 300)]


def test_distance_masks_match_networkx_on_the_verify_corpus(verify_lattices):
    for name, LB, G in verify_lattices:
        nxg = nx.Graph()
        nxg.add_nodes_from(G.labels)
        nxg.add_edges_from(G.edge_list())
        dist = dict(nx.all_pairs_shortest_path_length(nxg))
        want = [[dist[a][b] for b in G.labels] for a in G.labels]
        assert lemma_distances(LB, G) == want, name


def test_distance_lemma_count_matches_the_pair_loop(verify_lattices):
    # on the corpus both counts are 0; on the same vertices with one edge
    # dropped and one added, distances move and the counts must agree
    rng = random.Random(3)
    moved = 0
    for name, LB, G in verify_lattices:
        assert (_distance_lemma_mismatches(LB, G)
                == pair_loop_mismatches(LB, G) == 0), name
        edges = G.edge_list()
        edges.pop(rng.randrange(len(edges)))
        a, b = rng.sample(G.labels, 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.append((a, b))
        H = SimpleGraph.from_edges(G.labels, edges)
        try:
            distance_balls(H)
        except Disconnected:
            continue
        got = _distance_lemma_mismatches(LB, H)
        assert got == pair_loop_mismatches(LB, H), name
        moved += got > 0
    assert moved > 250
    for LB in [make_fig2_lattice(), boolean_lattice(5)] + [
            product_of_chains(sizes) for sizes in CHAIN_PRODUCTS]:
        G = zero_divisor_graph(LB)
        assert (_distance_lemma_mismatches(LB, G)
                == pair_loop_mismatches(LB, G)), LB.labels


def test_distance_by_pseudocomplement_matches_the_label_rule():
    lattices = [make_fig2_lattice(), boolean_lattice(4)]
    lattices += [product_of_chains(sizes) for sizes in CHAIN_PRODUCTS]
    lattices += [LB for _, _, LB in corpus(0, 10)]
    for LB in lattices:
        zd = LB.zero_divisors()
        for x in zd:
            for y in zd:
                assert (distance_by_pseudocomplement(LB, x, y)
                        == label_trichotomy(LB, x, y)), (x, y)
    with pytest.raises(NotAZeroDivisor):
        distance_by_pseudocomplement(boolean_lattice(3), "(1,1,1)", "(1,0,0)")
    # the atoms of M_3 have no pseudocomplement: each has two maximal
    # elements in its annihilator
    with pytest.raises(NotApplicable):
        distance_by_pseudocomplement(m_lattice(3), "a1", "a2")
    assert distance_by_pseudocomplement(m_lattice(3), "a1", "a1") == 0


def test_join_identity_on_index_tables_matches_the_label_set_loop(
        verify_lattices):
    lattices = [LB for _, LB, _ in verify_lattices]
    lattices += [m_lattice(n) for n in (3, 4, 5, 6)]
    lattices += [product_of_chains(sizes) for sizes in CHAIN_PRODUCTS]
    for LB in lattices:
        assert (_join_identity_failures(LB)
                == label_set_join_failures(LB)), LB.labels
    # in M_n two atoms join to the top, whose annihilator is {0}, while
    # the other n - 2 atoms annihilate both: n(n - 1) ordered pairs fail
    assert [_join_identity_failures(m_lattice(n)) for n in (2, 3, 4)] == \
        [0, 6, 12]
