import itertools
import random

import pytest

from zdgdim import (LabelCollision, SimpleGraph,boolean_lattice,
                    boolean_ring_annihilator_graph, boolean_ring_zdg,
                    comparability_graph, complete_graph, complete_graph_on,
                    connected_components, disjoint_union, graph_join,
                    incomparability_graph, labeled_equal, m_lattice,
                    product_of_chains, remove_isolated, twin_reduce,
                    zero_divisor_graph)
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


def test_from_rule_matches_from_edges():
    # from_edges is the reference: the same canonical label order and rows,
    # with the rule seeing the values and called once per unordered pair
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(0, 20)
        labels = list(range(n))          # str order differs: "10" < "2"
        rng.shuffle(labels)
        density = rng.random()
        edges = {frozenset(pair)
                 for pair in itertools.combinations(range(n), 2)
                 if rng.random() < density}
        calls = []

        def adjacent(a, b):
            calls.append(frozenset((a[1], b[1])))
            return frozenset((a[1], b[1])) in edges
        vertices = [(x, ("v", x)) for x in labels]
        g = SimpleGraph.from_rule(vertices, adjacent)
        ref = SimpleGraph.from_edges(labels, [tuple(e) for e in edges])
        assert (g.labels, g.adj) == (ref.labels, ref.adj)
        assert len(calls) == n * (n - 1) // 2 == len(set(calls))
        if n:
            with pytest.raises(LabelCollision):
                SimpleGraph.from_rule(vertices + [(str(labels[0]), None)],
                                      adjacent)


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


@pytest.mark.parametrize("edge", [[0, -1], [True, 2], [0, 3], [0, 1.0],
                                  [0, 1, 2]])
def test_graph_json_indices_must_be_in_range(edge):
    # -1 would name the last label and True the label at index 1
    with pytest.raises(ValueError, match="malformed graph JSON"):
        graph_from_json({"labels": ["a", "b", "c"], "edges": [edge]})


def test_graph_json_names_a_missing_field():
    with pytest.raises(ValueError,
                       match="^malformed graph JSON: no field 'edges'$"):
        graph_from_json({"labels": ["a", "b"]})


def test_graph_json_labels_must_be_a_list():
    # a string would otherwise be split into one label per character
    with pytest.raises(ValueError, match=r"^malformed graph JSON: field "
                       r"'labels' must be a list \(got 'ab'\)$"):
        graph_from_json({"labels": "ab", "edges": [[0, 1]]})


def test_graph_json_edge_must_be_a_pair():
    with pytest.raises(ValueError, match=r"^malformed graph JSON: an edge "
                       r"is a pair of indices \(got \[0\]\)$"):
        graph_from_json({"labels": ["a", "b"], "edges": [[0]]})


def _reference(labels, edges):
    """(labels, rows) by the label-string definition: the labels sorted,
    each edge a frozenset of two labels looked up by name."""
    labs = sorted(map(str, labels))
    if len(set(labs)) != len(labs):
        raise LabelCollision("duplicate vertex labels")
    rows = dict.fromkeys(labs, 0)
    for edge in {frozenset(map(str, e)) for e in edges}:
        a, b = edge
        rows[a] |= 1 << labs.index(b)
        rows[b] |= 1 << labs.index(a)
    return tuple(labs), tuple(rows[lab] for lab in labs)


def _edges(g):
    return {frozenset(e) for e in g.edge_list()}


def _random_graph(rng, pool):
    labels = rng.sample(pool, rng.randint(0, 15))
    density = rng.random()
    edges = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
             if rng.random() < density]
    g = SimpleGraph.from_edges(labels, edges)
    assert (g.labels, g.adj) == _reference(labels, edges)
    return g


def _same(got, ref):
    """got() agrees with ref(): the same labels and rows, or both raise
    LabelCollision."""
    try:
        want = ref()
    except LabelCollision:
        with pytest.raises(LabelCollision):
            got()
        return
    g = got()
    assert (g.labels, g.adj) == want


def test_row_constructor_matches_the_label_edge_reference():
    # integer labels compare differently as strings ("10" < "2"), so the
    # re-indexing moves rows; the random maps and the second graph of each
    # union or join collide with the first graph's labels now and then
    rng = random.Random(9)
    pool = list(range(40))
    for trial in range(200):
        g = _random_graph(rng, pool)
        h = _random_graph(rng, pool)
        E = _edges(g)
        keep = set(rng.sample(g.labels, rng.randint(0, g.n)))
        _same(lambda: g.subgraph(keep),
              lambda: _reference(keep, [e for e in E if e <= keep]))
        busy = {v for e in E for v in e}
        _same(lambda: remove_isolated(g), lambda: _reference(busy, E))
        mapping = {lab: str(rng.choice(pool)) for lab in g.labels
                   if rng.random() < 0.5}
        _same(lambda: g.relabeled(mapping),
              lambda: _reference([mapping.get(v, v) for v in g.labels],
                                 [[mapping.get(v, v) for v in e] for e in E]))
        _same(lambda: disjoint_union([g, h]),
              lambda: _reference(g.labels + h.labels, E | _edges(h)))
        _same(lambda: graph_join(g, h),
              lambda: _reference(g.labels + h.labels,
                                 E | _edges(h) | {frozenset((a, b))
                                                  for a in g.labels
                                                  for b in h.labels}))
        reduced, dropped = twin_reduce(g)
        kept = set(reduced.labels)
        _same(lambda: reduced,
              lambda: _reference(kept, [e for e in E if e <= kept]))
        assert (reduced is g) == (dropped == 0) == (len(kept) == g.n)
        # labeled equality against the label-set and edge-set definition
        others = [h, SimpleGraph.from_edges(reversed(g.labels),
                                            [tuple(e) for e in E])]
        if g.n >= 2:
            a, b = rng.sample(g.labels, 2)
            others.append(SimpleGraph.from_edges(
                g.labels, [tuple(e) for e in E ^ {frozenset((a, b))}]))
        for other in others:
            assert labeled_equal(g, other) == (
                set(g.labels) == set(other.labels)
                and E == _edges(other)), trial


def test_simple_graph_requires_sorted_distinct_labels():
    # explicit errors, so the invariant holds under python -O as well
    with pytest.raises(LabelCollision, match="out of order"):
        SimpleGraph(["b", "a"], [0, 0])
    with pytest.raises(LabelCollision, match="duplicate"):
        SimpleGraph(["a", "a"], [0, 0])
    with pytest.raises(LabelCollision):
        SimpleGraph.from_rows(["b", None, "b"], [0, 0, 0])
    # the bit at the dropped index 1 is ignored
    g = SimpleGraph.from_rows(["c", None, "a"], [0b110, 0b001, 0b001])
    assert (g.labels, g.adj) == (("a", "c"), (0b10, 0b01))
