import random
from itertools import combinations, product

import networkx as nx
import pytest

from zdgdim import (BlowupSpec, Disconnected, HypothesisUnmet, NotApplicable,
                    NotAZeroDivisor, SimpleGraph, TooLarge,
                    beta_gsr_formula, boolean_lattice,
                    build_blowup, complete_graph_on, diameter, distance_balls,
                    distance_by_pseudocomplement, gstar, gstar_star,
                    independence_number, is_strong_resolving, m_lattice,
                    max_independent_set, minimum_vertex_cover,
                    product_of_chains, sdim_bruteforce, sdim_formula,
                    random_blowup_spec,
                    sdim_via_gsr, strong_resolving_graph, twin_reduce,
                    zero_divisor_graph)
from zdgdim.adapters import (DEFAULT_ELEMENT_BUDGET, LocalProductSpec,
                             comaximal_gamma2prime)
from zdgdim.verify import corpus

from conftest import (cover_number, metric_dimension_bruteforce,
                      mutually_maximally_distant, plain_gsr, rule_graph)


def to_nx(g: SimpleGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.labels)
    out.add_edges_from(g.edge_list())
    return out


def nx_balls(g: SimpleGraph) -> tuple[tuple[int, ...], ...]:
    """`distance_balls(g)` of a connected g, built from networkx distances:
    element d of row a is the mask of the vertices within distance d."""
    dist = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    return tuple(
        tuple(sum(1 << g.index(b) for b, db in dist[a].items() if db <= d)
              for d in range(max(dist[a].values()) + 1))
        for a in g.labels)


def distance(g: SimpleGraph, a: str, b: str) -> int:
    """The index of the first ball of a that holds b."""
    j = g.index(b)
    return next(d for d, ball in enumerate(distance_balls(g)[g.index(a)])
                if ball >> j & 1)


def nx_alpha_beta(g: SimpleGraph) -> tuple[int, int]:
    """Independent oracle: beta via exact max clique of the complement."""
    comp = nx.complement(to_nx(g))
    _, beta = nx.max_weight_clique(comp, weight=None)
    return g.n - beta, beta


@pytest.fixture(scope="module")
def cube_graph():
    return zero_divisor_graph(boolean_lattice(3))


def test_distances_match_networkx(cube_graph, fig3_lattice):
    for g in (cube_graph, zero_divisor_graph(fig3_lattice)):
        balls = distance_balls(g)
        # the balls are computed once per graph and shared
        assert distance_balls(g) is balls
        assert balls == nx_balls(g)


def test_cube_distances_frozen(cube_graph):
    g = cube_graph
    d = lambda a, b: distance(g, a, b)
    assert d("(1,1,0)", "(1,0,1)") == 3
    assert d("(1,0,0)", "(1,1,0)") == 2
    assert d("(1,0,0)", "(0,1,1)") == 1
    assert diameter(g) == 3


def test_complete_graph_distances():
    k = complete_graph_on(["a", "b", "c", "d"])
    assert distance_balls(k) == tuple((1 << i, 0b1111) for i in range(4))
    assert diameter(k) == 1


def test_disconnected_raises():
    g = SimpleGraph.from_edges(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(Disconnected):
        distance_balls(g)


def test_distance_trichotomy_examples(fig3_lattice):
    LB = fig3_lattice
    assert distance_by_pseudocomplement(LB, "(1,0,0)", "(0,1,1)") == 1
    L = boolean_lattice(3)
    assert distance_by_pseudocomplement(L, "(1,0,0)", "(1,1,0)") == 2
    assert distance_by_pseudocomplement(L, "(1,1,0)", "(1,0,1)") == 3
    with pytest.raises(NotAZeroDivisor):
        distance_by_pseudocomplement(L, "(1,1,1)", "(1,0,0)")


def test_resolving_and_metric_dimension(cube_graph):
    # the tests' brute force, on which the dim <= sdim checks rest; frozen
    # by exhaustive check: two vertices of the cube suffice, one cannot
    assert metric_dimension_bruteforce(cube_graph) == 2
    for n in (2, 3, 4, 5):
        k = complete_graph_on([f"v{i}" for i in range(n)])
        assert metric_dimension_bruteforce(k) == n - 1


def test_strong_resolving_examples(cube_graph):
    g = cube_graph
    assert is_strong_resolving(g, list(g.labels))
    assert not is_strong_resolving(g, ["(1,1,0)"])
    assert is_strong_resolving(g, ["(0,1,1)", "(1,0,1)"])


def test_brute_force_cap():
    g = zero_divisor_graph(boolean_lattice(5))
    with pytest.raises(TooLarge):
        sdim_bruteforce(g, cap=16)


def test_mutually_maximally_distant_cube(cube_graph):
    g = cube_graph
    # (1,0,1) is maximally distant from (0,1,0) but not conversely
    a, b = "(1,0,1)", "(0,1,0)"
    d = distance(g, a, b)
    assert all(distance(g, w, b) <= d for w in g.neighbors(a))
    assert not all(distance(g, a, w) <= d for w in g.neighbors(b))
    assert not mutually_maximally_distant(g, "(1,0,1)", "(0,1,0)")
    assert mutually_maximally_distant(g, "(1,1,0)", "(0,1,1)")
    assert not mutually_maximally_distant(g, "(1,1,0)", "(1,1,0)")


def test_gsr_of_complete_graph():
    for n in (2, 4, 6):
        k = complete_graph_on([f"v{i}" for i in range(n)])
        assert strong_resolving_graph(k).labeled_equal(k)
        assert sdim_via_gsr(k) == n - 1


def test_gstar_star_figure3(fig3_lattice):
    from zdgdim import connected_components
    comps = connected_components(gstar_star(fig3_lattice))
    # the complete components are exactly the three atom classes; the
    # `examples` verify suite holds their sizes and completeness
    assert frozenset(["(1,0,0)", "(2,0,0)", "(3,0,0)"]) in comps
    assert frozenset(["(0,0,1)", "(0,0,2)"]) in comps
    assert frozenset(["(0,1,0)"]) in comps


def test_gstar_star_boolean_isolated_vertices():
    L = boolean_lattice(3)
    gss = gstar_star(L)
    isolated = {lab for i, lab in enumerate(gss.labels) if not gss.adj[i]}
    assert isolated == set(L.atoms())


def test_gstar_star_isolated_vertices_with_unblown_atoms():
    # chains everywhere except on the atoms: the isolated vertices of G**
    # are exactly the atoms
    spec = BlowupSpec(3, {0b011: 2, 0b101: 3, 0b110: 2})
    LB = build_blowup(spec)
    gss = gstar_star(LB)
    isolated = {lab for i, lab in enumerate(gss.labels) if not gss.adj[i]}
    assert isolated == set(LB.atoms())


def test_gstar_equals_gsr(fig3_lattice):
    for LB in (fig3_lattice, boolean_lattice(3), boolean_lattice(4)):
        want = strong_resolving_graph(zero_divisor_graph(LB))
        assert gstar(LB).labeled_equal(want)


def test_gstar_of_complete_zdg():
    # the 2-atom blow-up with singleton chains has a complete (K_2) graph
    LB = build_blowup(BlowupSpec(2, {}))
    g = gstar(LB)
    assert g.n == 2 and g.edge_count() == 1


def class_rule_gstar_star(LB):
    """G** by its class rule, pair by pair: equal classes, or classes whose
    Boolean images meet while neither holds the other."""
    part = LB.quotient_classes()
    image = part.boolean_image

    def adjacent(ci: int, cj: int) -> bool:
        mi, mj = image[ci], image[cj]
        return ci == cj or (mi & mj != 0 and mi & ~mj != 0 and mj & ~mi != 0)
    return rule_graph(((lab, part.class_of[LB.index(lab)])
                       for lab in LB.zero_divisors()), adjacent)


def test_gstar_star_matches_the_class_rule():
    lattices = [LB for _, _, LB in corpus(0, 300)]
    lattices += [boolean_lattice(n) for n in range(1, 10)]
    lattices += [product_of_chains(list(sizes)) for k in range(1, 4)
                 for sizes in product([2, 3, 4], repeat=k)]
    lattices.append(build_blowup(BlowupSpec(3, {0b001: 400, 0b110: 400})))
    for LB in lattices:
        assert gstar_star(LB).labeled_equal(class_rule_gstar_star(LB)), \
            LB.labels


def test_gstar_star_not_applicable():
    with pytest.raises(NotApplicable):
        gstar_star(m_lattice(3))


def test_independent_set_solver_against_networkx(corpus_graphs):
    for name, spec, LB, G in corpus_graphs[:12]:
        for g in (G, strong_resolving_graph(G)):
            alpha, beta = nx_alpha_beta(g)
            assert independence_number(g) == beta, name
            mis = max_independent_set(g)
            assert len(mis) == beta
            assert all(not g.has_edge(a, b) for i, a in enumerate(mis)
                       for b in mis[i + 1:])
            cover = minimum_vertex_cover(g)
            assert len(cover) == alpha
            inside = set(cover)
            assert all(a in inside or b in inside for a, b in g.edge_list())


def test_max_independent_set_is_lexicographically_least():
    # a 4-cycle has two maximum independent sets; a < b wins
    c4 = SimpleGraph.from_edges(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert max_independent_set(c4) == ["a", "c"]
    u = SimpleGraph.from_edges(
        ["p", "q", "r", "x", "y"],
        [("x", "y"), ("p", "q"), ("p", "r"), ("q", "r")])
    assert minimum_vertex_cover(u) == ["q", "r", "y"]
    assert independence_number(u) == 2


def test_sdim_formula_and_beta_formula(fig3_spec):
    for n in (3, 4, 5):
        assert sdim_formula(BlowupSpec(n, {})) == 2 ** n - 2 * n
    assert beta_gsr_formula(fig3_spec) == 2 * 3 - 1 - 2
    with pytest.raises(HypothesisUnmet):
        sdim_formula(BlowupSpec(2, {}))
    with pytest.raises(HypothesisUnmet):
        beta_gsr_formula(BlowupSpec(2, {}))


def test_full_report_figure3(fig3_lattice, fig3_spec):
    # the G_SR cover is a strong resolving set of size sdim, 8; the
    # `examples` verify suite holds the three sdim values
    G = zero_divisor_graph(fig3_lattice)
    assert fig3_spec.n == 3 and fig3_spec.singleton_atom_count() == 1
    W = minimum_vertex_cover(strong_resolving_graph(G))
    assert len(W) == 8 and is_strong_resolving(G, W)


def test_full_report_small_n():
    # n = 2 is outside the formula, but both computed routes still apply
    spec = BlowupSpec(2, {})
    with pytest.raises(HypothesisUnmet):
        sdim_formula(spec)
    small = zero_divisor_graph(build_blowup(spec))
    assert sdim_via_gsr(small) == sdim_bruteforce(small) == 1


def test_twin_reduce_keeps_the_two_smallest_members_of_each_class():
    # false twins a, c, e, g (leaves on z) and true twins b, d, f, h (a
    # clique on z), interleaved in label order
    leaves, clique = "aceg", "bdfh"
    g = SimpleGraph.from_edges(
        leaves + clique + "z",
        [(v, "z") for v in leaves + clique]
        + [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]])
    reduced, dropped = twin_reduce(g)
    assert reduced.labels == ("a", "b", "c", "d", "z")
    assert reduced.labeled_equal(g.subgraph(reduced.labels))
    # sum over classes of (size - 2)
    assert dropped == 2 + 2
    assert sdim_via_gsr(g) == cover_number(plain_gsr(g))


def test_twin_reduce_returns_a_twin_free_graph_itself(cube_graph):
    balls = distance_balls(cube_graph)
    reduced, dropped = twin_reduce(cube_graph)
    assert reduced is cube_graph and dropped == 0
    assert distance_balls(reduced) is balls


def _capped(spec: BlowupSpec) -> tuple[BlowupSpec, int]:
    """spec with every chain cut to 2 elements, and the elements cut."""
    return (BlowupSpec(spec.n, {m: min(s, 2)
                                for m, s in spec.chain_sizes.items()}),
            sum(max(s - 2, 0) for s in spec.chain_sizes.values()))


def test_twin_reduction_matches_the_plain_route_on_the_corpus():
    # the plain route, the cover number of the unreduced G_SR, is the
    # oracle; a blow-up's sdim is also that of its chains capped at 2 plus
    # the elements cut
    for name, spec, LB in corpus(0, 300):
        G = zero_divisor_graph(LB)
        gsr = strong_resolving_graph(G)
        # the G_SR rows against the per-pair definition
        assert gsr.edge_list() == [
            (a, b) for a, b in combinations(G.labels, 2)
            if mutually_maximally_distant(G, a, b)], name
        plain = cover_number(gsr)
        assert sdim_via_gsr(G) == plain, name
        capped, cut = _capped(spec)
        assert sdim_via_gsr(zero_divisor_graph(build_blowup(capped))) + cut \
            == plain, name
    g = comaximal_gamma2prime(LocalProductSpec([(2, 2), (3, 1), (5, 1),
                                                (7, 1)]))
    assert (g.n, twin_reduce(g)[0].n) == (322, 28)
    assert sdim_via_gsr(g) == cover_number(plain_gsr(g))


def test_formula_matches_capped_chains_past_the_element_budget():
    # chains of 10^5 to 10^7 elements are never built: the computed value
    # comes from the same blow-up with every chain capped at 2
    rng = random.Random(8)
    for trial in range(20):
        spec = random_blowup_spec(rng)
        masks = sorted(spec.chain_sizes) or [1]
        huge = dict(spec.chain_sizes)
        for m in rng.sample(masks, rng.randint(1, len(masks))):
            huge[m] = rng.randint(10 ** 5, 10 ** 7)
        spec = BlowupSpec(spec.n, huge)
        assert spec.total_vertices() > DEFAULT_ELEMENT_BUDGET
        capped, cut = _capped(spec)
        G = zero_divisor_graph(build_blowup(capped))
        assert sdim_formula(spec) == sdim_via_gsr(G) + cut, trial
