import itertools
import random
from collections import Counter

import pytest

from zdgdim import (LabelCollision, SimpleGraph, boolean_lattice,
                    complete_graph_on, connected_components, graph_join,
                    independence_number, m_lattice, product_of_chains,
                    remove_isolated, twin_reduce, zero_divisor_graph)
from zdgdim.adapters import reduced_ring
from zdgdim.verify import corpus

from conftest import (ann_rows_zdg, boolean_ring_annihilator_graph,
                      bounded_poset, degree, dual, has_edge,
                      incomparability_graph, neighbors,
                      random_bounded_relation, rule_graph)


def test_simple_graph_basics():
    g = SimpleGraph.from_edges(["b", "a", "c"], [("a", "b"), ("b", "c")])
    assert g.labels == ("a", "b", "c")       # canonical sorted order
    assert has_edge(g, "a", "b") and not has_edge(g, "a", "c")
    assert neighbors(g, "b") == ["a", "c"]
    assert degree(g, "b") == 2 and g.edge_count() == 2
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(["a"], [("a", "a")])
    with pytest.raises(LabelCollision):
        SimpleGraph.from_edges(["a", "a"], [])


def test_from_patterns_matches_the_rule_graph():
    # rule_graph is the reference: the same canonical label order and rows.
    # Labels are ints, whose str order differs ("10" < "2"); with at most
    # five coordinates, empty and repeated patterns are common
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(60):
        n = rng.randint(0, 20)
        labels = list(range(n))
        rng.shuffle(labels)
        width = rng.randint(0, 5)
        vertices = [(x, rng.getrandbits(width)) for x in labels]
        pats = [pat for _, pat in vertices]
        seen["empty"] += 0 in pats
        seen["repeated"] += len(set(pats)) < n
        assert SimpleGraph.from_patterns(vertices).labeled_equal(
            rule_graph(vertices, lambda a, b: not a & b))
        crossing = rule_graph(vertices, lambda a, b: a == b or bool(
            a & b and a & ~b and b & ~a))
        assert SimpleGraph.from_patterns(vertices, crossing=True) \
            .labeled_equal(crossing)
        if n:
            with pytest.raises(LabelCollision):
                SimpleGraph.from_patterns(vertices + [(str(labels[0]), 0)])
        else:
            assert SimpleGraph.from_patterns(vertices).n == 0
    assert seen["empty"] > 20 and seen["repeated"] > 20


def test_zero_divisor_graph_matches_the_annihilator_rows():
    rng = random.Random(5)
    posets = [LB for _, _, LB in corpus(0, 300)]
    posets += [dual(P) for P in posets]
    posets += [m_lattice(n) for n in range(1, 7)]
    posets += [product_of_chains(list(sizes)) for k in range(1, 5)
               for sizes in itertools.product([1, 2, 3], repeat=k)]
    others = [bounded_poset(*random_bounded_relation(rng))
              for _ in range(300)]
    assert sum(not P.is_lattice() for P in others) > 50
    for P in posets + others:
        assert zero_divisor_graph(P).labeled_equal(ann_rows_zdg(P)), P.labels


def test_zero_divisor_graph_of_m_n_is_complete():
    for n in (2, 3, 5):
        G = zero_divisor_graph(m_lattice(n))
        assert G.labeled_equal(complete_graph_on(G.labels))
        assert G.n == n


def test_zero_divisor_graph_of_the_cube():
    G = zero_divisor_graph(boolean_lattice(3))
    # frozen by enumeration: triangle on the atoms plus the complement matching
    expected = SimpleGraph.from_edges(
        ["(1,0,0)", "(0,1,0)", "(0,0,1)", "(1,1,0)", "(1,0,1)", "(0,1,1)"],
        [("(1,0,0)", "(0,1,0)"), ("(1,0,0)", "(0,0,1)"),
         ("(0,1,0)", "(0,0,1)"), ("(1,0,0)", "(0,1,1)"),
         ("(0,1,0)", "(1,0,1)"), ("(0,0,1)", "(1,1,0)")])
    assert G.labeled_equal(expected)
    for atom in ("(1,0,0)", "(0,1,0)", "(0,0,1)"):
        assert degree(G, atom) == 3


def test_zero_divisor_graph_matches_pairwise_lower_cones(corpus_graphs,
                                                       fig2_lattice):
    # reference: Z* and the edges straight from the definition, one lower
    # cone per pair; the duals put the bottom at the last index
    lattices = [LB for _, _, LB, _ in corpus_graphs]
    lattices += [fig2_lattice, m_lattice(3), product_of_chains([3, 3, 2])]
    lattices += [dual(L) for L in lattices]
    for L in lattices:
        zero = 1 << L.bottom
        nonzero = [i for i in range(len(L)) if i != L.bottom]
        edges = [(L.labels[i], L.labels[j])
                 for k, i in enumerate(nonzero) for j in nonzero[k + 1:]
                 if L.down[i] & L.down[j] == zero]
        verts = {a for edge in edges for a in edge}
        assert zero_divisor_graph(L).labeled_equal(
            SimpleGraph.from_edges(verts, edges))


def test_figure4_left_panel(fig3_lattice):
    G = zero_divisor_graph(fig3_lattice)
    assert G.n == 12
    # all of chain C1 is adjacent to all of the complementary chain C23
    assert has_edge(G, "(1,0,0)", "(0,1,1)")
    assert has_edge(G, "(3,0,0)", "(0,1,1)")
    assert not has_edge(G, "(1,0,0)", "(1,1,0)")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boolean_ring_graphs_match_lattice_graphs(n):
    # the reduced-ring adapter at q = 2 is the zero-divisor graph of the
    # Boolean ring prod Z_2; AG and Incomp are the tests' definitions
    assert reduced_ring([2] * n).graph.labeled_equal(
        zero_divisor_graph(boolean_lattice(n)))
    # observed equality includes the degenerate n = 2 case, where both
    # AG and Incomp consist of the single edge between the two atoms
    assert boolean_ring_annihilator_graph(n).labeled_equal(
        incomparability_graph(boolean_lattice(n)))


def test_union_join_and_friends():
    # K_1 + K_2 + K_3
    u = SimpleGraph.from_edges(
        ["a1", "b1", "b2", "c1", "c2", "c3"],
        [("b1", "b2"), ("c1", "c2"), ("c1", "c3"), ("c2", "c3")])
    assert len(connected_components(u)) == 3
    assert independence_number(u) == 3    # one vertex per clique
    k2 = complete_graph_on(["b1", "b2"])
    with pytest.raises(LabelCollision):
        graph_join(k2, k2)
    p3 = graph_join(SimpleGraph.from_edges(["x", "y"], []),
                    complete_graph_on(["m1"]))
    assert p3.edge_count() == 2 and degree(p3, "m1") == 2
    h = SimpleGraph.from_edges(["u", "v"], [("u", "v")])
    iso = SimpleGraph.from_edges(["u", "v", "w"], [("u", "v")])
    assert remove_isolated(iso).labeled_equal(h)


def test_relabeled():
    g = SimpleGraph.from_edges(["a", "b"], [("a", "b")])
    h = g.relabeled({"a": "x"})
    assert set(h.labels) == {"x", "b"} and has_edge(h, "x", "b")


def test_dot_and_json_exports():
    g = SimpleGraph.from_edges(["b", "a"], [("a", "b")])
    dot = g.to_dot()
    assert dot.splitlines()[0] == "graph G {"
    assert '"a" -- "b";' in dot
    data = g.to_json_dict()
    assert data == {"labels": ["a", "b"], "edges": [[0, 1]]}


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
    # join collide with the first graph's labels now and then
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
            assert g.labeled_equal(other) == (
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
