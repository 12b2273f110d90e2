"""The index-mask checks of the `distance-lemma`, `quotient` and
`decomposition` suites against networkx and against the label-level loops
they replaced, and the graph suites read off the specs against their
lattice-route copies; the replaced code stays here as the oracles."""

import random

import networkx as nx
import pytest

from zdgdim import (Disconnected, NotApplicable, NotAZeroDivisor,
                    SimpleGraph, ZdgError, boolean_lattice,
                    connected_components, diameter, distance_balls,
                    distance_by_pseudocomplement, gstar, gstar_star,
                    independence_number, m_lattice, minimum_vertex_cover,
                    product_of_chains, sdim_bruteforce, sdim_formula,
                    sdim_via_gsr, strong_resolving_graph,
                    zero_divisor_graph)
from zdgdim.metric import _distance_masks
from zdgdim.poset import _bits
from zdgdim.verify import (SUITES, VerifySuiteResult,
                           _distance_lemma_mismatches, _is_clique,
                           _join_identity_failures, brute_cap, corpus)

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


# -- the graph suites off the specs, against their lattice-route copies ----------

def lattice_route_diameter(seed, count) -> VerifySuiteResult:
    out = VerifySuiteResult("diameter")
    posets = [(name, LB, "= 3") for name, _, LB in corpus(seed, count)]
    posets += [(f"M_{n}", m_lattice(n), "<= 3") for n in (3, 4, 5, 6)]
    posets += [(f"chains-{sizes}", product_of_chains(sizes), "<= 3")
               for sizes in CHAIN_PRODUCTS]
    for name, P, bound in posets:
        G = zero_divisor_graph(P)
        try:
            d = diameter(G)
            ok = d == 3 if bound == "= 3" else d <= 3
            out.check(f"{name}: diameter {bound}", ok, bound, d)
        except ZdgError as exc:
            out.check(f"{name}: connected", False, "connected", exc)
    return out


def lattice_route_gallai(seed, count) -> VerifySuiteResult:
    out = VerifySuiteResult("gallai")
    for name, _, LB in corpus(seed, count):
        G = zero_divisor_graph(LB)
        for tag, g in (("G", G), ("G_SR", strong_resolving_graph(G)),
                       ("G**", gstar_star(LB))):
            beta = g.n - independence_number(g)
            cover = minimum_vertex_cover(g)
            mask = sum(1 << g.index(lab) for lab in cover)
            covered = all(not row & ~mask for v, row in enumerate(g.adj)
                          if not mask >> v & 1)
            out.check(f"{name}/{tag}: cover is a cover", covered)
            out.expect_equal(f"{name}/{tag}: cover size", beta, len(cover))
    return out


def lattice_route_formula_agreement(seed, count) -> VerifySuiteResult:
    out = VerifySuiteResult("formula-agreement")
    cap = brute_cap()
    for name, spec, LB in corpus(seed, count):
        G = zero_divisor_graph(LB)
        want = sdim_formula(spec)
        out.expect_equal(f"{name}: formula = gsr", want, sdim_via_gsr(G))
        if G.n <= min(14, cap):
            out.expect_equal(f"{name}: formula = brute", want,
                             sdim_bruteforce(G, cap=cap))
    return out


@pytest.mark.parametrize("seed, count", [(0, 300), (7, 25)])
@pytest.mark.parametrize("suite, copy", [
    ("diameter", lattice_route_diameter), ("gallai", lattice_route_gallai),
    ("formula-agreement", lattice_route_formula_agreement)],
    ids=["diameter", "gallai", "formula-agreement"])
def test_graph_suites_match_their_lattice_route_copies(suite, copy, seed,
                                                       count):
    assert SUITES[suite](seed, count) == copy(seed, count)


def test_atom_class_clique_test_on_rows_matches_subgraph_completeness(
        verify_lattices):
    # on every G** of the corpus: each annihilator class, each component
    # and random vertex sets, by closed rows and by an induced subgraph
    rng = random.Random(5)
    outcomes = set()
    for name, LB, _ in verify_lattices:
        gss = gstar_star(LB)
        part = LB.quotient_classes()
        sets = [{LB.labels[i] for i in members} & set(gss.labels)
                for members in part.classes]
        sets += connected_components(gss)
        sets += [rng.sample(gss.labels, rng.randint(0, 4)) for _ in range(5)]
        for cls in sets:
            mask = sum(1 << gss.index(lab) for lab in cls)
            want = gss.subgraph(cls).is_complete()
            assert _is_clique(gss, mask) == want, (name, cls)
            outcomes.add((len(cls) > 1, want))
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_gsr_equality_builds_g_and_gstarstar_once_per_lattice(monkeypatch):
    # each corpus lattice keeps its G and G**: the suite, gstar and
    # gstar_star share one of each, and its result is unchanged
    want = SUITES["gsr-equality"](0, 40)
    made = []
    from_patterns = SimpleGraph.from_patterns.__func__

    def counted(cls, vertices, crossing=False):
        made.append(crossing)
        return from_patterns(cls, vertices, crossing)
    monkeypatch.setattr(SimpleGraph, "from_patterns", classmethod(counted))
    assert SUITES["gsr-equality"](0, 40) == want
    assert made == [False, True] * 43
    for _, spec, LB in corpus(1, 5):
        G, gss = zero_divisor_graph(LB), gstar_star(LB)
        assert zero_divisor_graph(LB) is G and gstar_star(LB) is gss
        assert gstar(LB).labels == tuple(lab for lab, row in
                                         zip(gss.labels, gss.adj) if row)
