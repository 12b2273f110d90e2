import pytest

from zdgdim import (LabelCollision, SimpleGraph,boolean_lattice,
                    boolean_ring_annihilator_graph, boolean_ring_zdg,
                    comparability_graph, complete_graph, complete_graph_on,
                    connected_components, disjoint_union, graph_join,
                    incomparability_graph, labeled_equal, m_lattice,
                    product_of_chains, remove_isolated, zero_divisor_graph)
from zdgdim.graphs import graph_from_json


def test_simple_graph_basics():
    g = SimpleGraph.from_edges(["b", "a", "c"], [("a", "b"), ("b", "c")])
    assert g.labels == ("a", "b", "c")       # canonical sorted order
    assert g.has_edge("a", "b") and not g.has_edge("a", "c")
    assert g.neighbors("b") == ["a", "c"]
    assert g.degree("b") == 2 and g.edge_count() == 2
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(["a"], [("a", "a")])
    with pytest.raises(LabelCollision):
        SimpleGraph.from_edges(["a", "a"], [])


def test_zero_divisor_graph_of_m_n_is_complete():
    for n in (2, 3, 5):
        G = zero_divisor_graph(m_lattice(n))
        assert labeled_equal(G, complete_graph_on(G.labels))
        assert G.n == n


def test_zero_divisor_graph_of_the_cube():
    G = zero_divisor_graph(boolean_lattice(3))
    # frozen by enumeration: triangle on the atoms plus the complement matching
    expected = SimpleGraph.from_edges(
        ["(1,0,0)", "(0,1,0)", "(0,0,1)", "(1,1,0)", "(1,0,1)", "(0,1,1)"],
        [("(1,0,0)", "(0,1,0)"), ("(1,0,0)", "(0,0,1)"),
         ("(0,1,0)", "(0,0,1)"), ("(1,0,0)", "(0,1,1)"),
         ("(0,1,0)", "(1,0,1)"), ("(0,0,1)", "(1,1,0)")])
    assert labeled_equal(G, expected)
    for atom in ("(1,0,0)", "(0,1,0)", "(0,0,1)"):
        assert G.degree(atom) == 3


def test_zero_divisor_graph_matches_pairwise_lower_cones(corpus_graphs,
                                                       fig2_lattice):
    # reference: Z* and the edges straight from the definition, one lower
    # cone per pair; the duals put the bottom at the last index
    lattices = [LB for _, _, LB, _ in corpus_graphs]
    lattices += [fig2_lattice, m_lattice(3), product_of_chains([3, 3, 2])]
    lattices += [L.dual() for L in lattices]
    for L in lattices:
        zero = L.labels[L.bottom]
        nonzero = [a for a in L.labels if a != zero]
        edges = [(a, b) for i, a in enumerate(nonzero) for b in nonzero[i + 1:]
                 if L.lower_cone([a, b]) == [zero]]
        verts = {a for edge in edges for a in edge}
        assert labeled_equal(zero_divisor_graph(L),
                             SimpleGraph.from_edges(verts, edges))


def test_figure4_left_panel(fig3_lattice):
    G = zero_divisor_graph(fig3_lattice)
    assert G.n == 12
    # all of chain C1 is adjacent to all of the complementary chain C23
    assert G.has_edge("(1,0,0)", "(0,1,1)")
    assert G.has_edge("(3,0,0)", "(0,1,1)")
    assert not G.has_edge("(1,0,0)", "(1,1,0)")


def test_comparability_and_incomparability():
    L = boolean_lattice(3)
    com = comparability_graph(L)
    inc = incomparability_graph(L)
    assert set(com.labels) == set(L.zero_divisors())
    assert inc.has_edge("(1,0,0)", "(0,1,0)")
    assert not inc.has_edge("(1,0,0)", "(1,1,0)")
    # frozen by pair enumeration: 9 incomparable pairs among the 6 vertices
    assert inc.edge_count() == 9
    assert com.edge_count() + inc.edge_count() == 15
    # edge-disjoint complementary union is complete
    union = set(map(frozenset, com.edge_list())) | \
        set(map(frozenset, inc.edge_list()))
    assert len(union) == 15
    # a chain's interior: comparability complete, incomparability edgeless
    from zdgdim import product_of_chains
    C = product_of_chains([5])
    assert comparability_graph(C).is_complete()
    assert incomparability_graph(C).edge_count() == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boolean_ring_graphs_match_lattice_graphs(n):
    assert labeled_equal(boolean_ring_zdg(n),
                         zero_divisor_graph(boolean_lattice(n)))
    # observed equality includes the degenerate n = 2 case, where both
    # AG and Incomp consist of the single edge between the two atoms
    assert labeled_equal(boolean_ring_annihilator_graph(n),
                         incomparability_graph(boolean_lattice(n)))


def test_gamma_edges_inside_ag_edges():
    for n in (2, 3, 4):
        gamma = set(map(frozenset, boolean_ring_zdg(n).edge_list()))
        ag = set(map(frozenset,
                     boolean_ring_annihilator_graph(n).edge_list()))
        assert gamma <= ag


def test_union_join_and_friends():
    k1 = complete_graph(1, prefix="a")
    k2 = complete_graph(2, prefix="b")
    k3 = complete_graph(3, prefix="c")
    u = disjoint_union([k1, k2, k3])
    assert u.n == 6 and u.edge_count() == 1 + 3
    assert len(connected_components(u)) == 3
    from zdgdim import independence_number
    assert independence_number(u) == 3    # one vertex per clique
    with pytest.raises(LabelCollision):
        disjoint_union([k2, k2])
    p3 = graph_join(SimpleGraph.from_edges(["x", "y"], []),
                    complete_graph(1, prefix="m"))
    assert p3.edge_count() == 2 and p3.degree("m1") == 2
    h = SimpleGraph.from_edges(["u", "v"], [("u", "v")])
    iso = disjoint_union([h, SimpleGraph.from_edges(["w"], [])])
    assert labeled_equal(remove_isolated(iso), h)


def test_relabeled():
    g = SimpleGraph.from_edges(["a", "b"], [("a", "b")])
    h = g.relabeled({"a": "x"})
    assert set(h.labels) == {"x", "b"} and h.has_edge("x", "b")


def test_dot_and_json_exports():
    g = SimpleGraph.from_edges(["b", "a"], [("a", "b")])
    dot = g.to_dot()
    assert dot.splitlines()[0] == "graph G {"
    assert '"a" -- "b";' in dot
    data = g.to_json_dict()
    assert data == {"labels": ["a", "b"], "edges": [[0, 1]]}
    assert labeled_equal(graph_from_json(data), g)
    with pytest.raises(ValueError):
        graph_from_json({"labels": ["a"]})
