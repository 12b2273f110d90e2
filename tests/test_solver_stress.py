"""Randomized stress tests for the exact independent-set solver and the
brute-force searchers, cross-checked against networkx."""

import random
from itertools import combinations, permutations, product

import networkx as nx
import pytest

from zdgdim import (BlowupSpec, Disconnected, SimpleGraph, boolean_lattice,
                    build_blowup, connected_components, diameter,
                    distance_balls, independence_number, is_strong_resolving,
                    m_lattice, max_independent_set, minimum_vertex_cover,
                    product_of_chains, random_blowup_spec, sdim_bruteforce,
                    sdim_via_gsr, strong_resolving_graph, twin_reduce,
                    zero_divisor_graph)
from zdgdim.metric import (_alpha, _coordinate_swaps, _mmd_rows,
                           _pair_cover_masks, _restricted)
from zdgdim.poset import _bits
from zdgdim.verify import corpus

from conftest import (cover_number, metric_dimension_bruteforce,
                      mutually_maximally_distant)


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    labels = [f"v{i:02d}" for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return SimpleGraph.from_edges(labels, edges)


def random_graph_with_twins(rng: random.Random, n: int,
                            p: float) -> SimpleGraph:
    """Random graph in which each vertex is, with probability 0.6, made a
    false or a true twin of an earlier vertex when it is added."""
    labels = [f"v{i:02d}" for i in range(n)]
    nbrs: list[set[int]] = []
    for v in range(n):
        if v and rng.random() < 0.6:
            u = rng.randrange(v)
            row = set(nbrs[u]) | ({u} if rng.random() < 0.5 else set())
        else:
            row = {w for w in range(v) if rng.random() < p}
        nbrs.append(row)
        for w in row:
            nbrs[w].add(v)
    return SimpleGraph.from_edges(
        labels, [(labels[v], labels[w]) for v in range(n) for w in nbrs[v]
                 if w > v])


def to_nx(g: SimpleGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.labels)
    out.add_edges_from(g.edge_list())
    return out


def nx_alpha(g: SimpleGraph) -> int:
    return nx.max_weight_clique(nx.complement(to_nx(g)), weight=None)[1]


def test_alpha_beta_against_networkx_on_random_graphs():
    # a random induced subgraph stands for the sub-searches on candidate
    # subsets that max_independent_set runs
    rng = random.Random(99)
    for trial in range(300):
        n = trial % 23
        g = random_graph(rng, n, rng.uniform(0.05, 0.95))
        beta = nx_alpha(g)
        assert independence_number(g) == beta, trial
        mis = max_independent_set(g)
        assert len(mis) == beta
        assert all(not g.has_edge(a, b) for a, b in combinations(mis, 2))
        sub = g.subgraph(lab for lab in g.labels if rng.random() < 0.6)
        assert independence_number(sub) == nx_alpha(sub), trial


def test_max_independent_set_is_lex_least_by_enumeration():
    rng = random.Random(5)
    for trial in range(200):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        beta = independence_number(g)
        best = None
        for sub in combinations(range(n), beta):
            if all(not g.adj[a] >> b & 1 for a, b in combinations(sub, 2)):
                best = [g.labels[i] for i in sub]
                break
        assert max_independent_set(g) == best, trial


def test_sdim_bruteforce_matches_gsr_on_random_connected_graphs():
    rng = random.Random(7)
    done = 0
    while done < 15:
        n = rng.randint(3, 9)
        g = random_graph(rng, n, 0.5)
        try:
            distance_balls(g)
        except Disconnected:
            continue
        done += 1
        brute = sdim_bruteforce(g)
        assert brute == sdim_via_gsr(g), (done, g.edge_list())
        witness = minimum_vertex_cover(strong_resolving_graph(g))
        assert len(witness) == brute
        assert is_strong_resolving(g, witness)


def test_metric_dimension_at_most_strong_on_random_graphs():
    rng = random.Random(13)
    done = 0
    while done < 15:
        n = rng.randint(3, 9)
        g = random_graph(rng, n, 0.6)
        try:
            distance_balls(g)
        except Disconnected:
            continue
        done += 1
        assert metric_dimension_bruteforce(g) <= sdim_bruteforce(g)


def test_degenerate_inputs():
    from zdgdim.adapters import (comaximal_ideal_graph_zn,
                                 component_union_graph)
    # prime N: no proper nonzero ideals outside the radical
    g = comaximal_ideal_graph_zn(7)
    assert g.n == 0
    assert sdim_via_gsr(g) == 0
    # one-dimensional space over GF(2): a single vector
    g = component_union_graph(1, 2)
    assert g.n == 1
    assert sdim_via_gsr(g) == 0
    assert sdim_bruteforce(g) == 0


def test_twin_reduction_matches_the_plain_route_on_random_graphs():
    # the plain route, the cover number of the unreduced G_SR, is the
    # oracle; every size from 0 to 12 vertices comes up equally often.
    # Components, distance balls, the diameter, the G_SR edges by the
    # textbook neighbour rule and the strong resolving masks of every pair
    # by the textbook distance rule are checked against networkx on each
    # graph
    rng = random.Random(2016)
    reduced = 0
    for trial in range(2015):
        g = random_graph_with_twins(rng, trial % 13,
                                    rng.choice([0.2, 0.4, 0.6, 0.8]))
        h = to_nx(g)
        assert connected_components(g) == sorted(
            map(frozenset, nx.connected_components(h)), key=min), trial
        try:
            gsr = strong_resolving_graph(g)
        except Disconnected:
            assert not nx.is_connected(h)
            with pytest.raises(Disconnected):
                sdim_via_gsr(g)
            continue
        dist = dict(nx.all_pairs_shortest_path_length(h))
        assert distance_balls(g) == tuple(
            tuple(sum(1 << g.index(b) for b in g.labels if dist[a][b] <= d)
                  for d in range(max(dist[a].values()) + 1))
            for a in g.labels), trial
        assert diameter(g) == max(
            (d for row in dist.values() for d in row.values()), default=0)
        # u, v are mutually maximally distant when no neighbour of either
        # lies farther from the other
        assert gsr.edge_list() == [
            (a, b) for a, b in combinations(g.labels, 2)
            if all(dist[w][b] <= dist[a][b] for w in h[a])
            and all(dist[a][w] <= dist[a][b] for w in h[b])], trial
        # w strongly resolves u, v when one of them lies on a shortest path
        # from the other to w; callers only ask whether every mask meets a
        # set, so the masks are compared as a multiset
        assert sorted(_pair_cover_masks(g)) == sorted(
            sum(1 << g.index(w) for w in g.labels
                if dist[u][w] == dist[u][v] + dist[v][w]
                or dist[v][w] == dist[v][u] + dist[u][w])
            for u, v in combinations(g.labels, 2)), trial
        plain = cover_number(gsr)
        assert sdim_via_gsr(g) == plain, (trial, g.edge_list())
        reduced += twin_reduce(g)[1] > 0
    assert reduced > 250


# -- orbital branching ----------------------------------------------------------

def swapped(label: str, i: int, j: int) -> str:
    parts = label[1:-1].split(",")
    parts[i], parts[j] = parts[j], parts[i]
    return "(" + ",".join(parts) + ")"


def swap_automorphisms(g: SimpleGraph) -> list[tuple[int, int]]:
    """Every coordinate pair whose swap maps the labels and the edge set of
    g onto themselves, by the definition, on label strings."""
    k = g.labels[0].count(",") + 1
    edges = set(map(frozenset, g.edge_list()))
    return [(i, j) for i, j in combinations(range(k), 2)
            if {swapped(lab, i, j) for lab in g.labels} == set(g.labels)
            and {frozenset(swapped(lab, i, j) for lab in e)
                 for e in edges} == edges]


def check_orbital_alpha(g: SimpleGraph, gens, rng: random.Random) -> None:
    """alpha with the generators equals plain alpha and networkx, on g and
    on a random union of orbits, which every generator maps to itself."""
    full = (1 << g.n) - 1
    beta = nx_alpha(g)
    assert _alpha(g.adj, full, gens) == _alpha(g.adj, full) == beta
    cand = 0
    for v in range(g.n):
        if not cand >> v & 1 and rng.random() < 0.5:
            orbit, todo = 1 << v, [v]
            for u in todo:
                for p in gens:
                    if not orbit >> p[u] & 1:
                        orbit |= 1 << p[u]
                        todo.append(p[u])
            cand |= orbit
    assert _alpha(g.adj, cand, gens) == _alpha(g.adj, cand) == nx_alpha(
        g.subgraph(g.labels[v] for v in range(g.n) if cand >> v & 1))


def gsr_with_generators(G: SimpleGraph):
    """G_SR of the twin-reduced G and the generators sdim_via_gsr uses,
    each checked against the edge set of G_SR by the definition."""
    reduced = twin_reduce(G)[0]
    gsr = strong_resolving_graph(reduced)
    gens = _restricted(_coordinate_swaps(reduced)[1],
                       [reduced.index(lab) for lab in gsr.labels])
    edges = {frozenset(e) for e in combinations(range(gsr.n), 2)
             if gsr.adj[min(e)] >> max(e) & 1}
    for p in gens:
        assert sorted(p) == list(range(gsr.n))
        assert {frozenset(p[v] for v in e) for e in edges} == edges
    return gsr, gens


def test_orbital_alpha_matches_plain_alpha_on_blowups_and_chain_products():
    rng = random.Random(1234)
    lattices = [build_blowup(random_blowup_spec(rng)) for _ in range(200)]
    lattices += [product_of_chains(sizes) for sizes in
                 ([3, 3, 3], [2, 2, 2, 2, 2], [2, 3, 2], [3, 3, 2, 2])]
    # 2^5 and two of its blow-ups: chains of 2 on every two-atom mask, which
    # every atom permutation keeps, and on the masks holding atom 0 only
    pairs = [m for m in range(32) if m.bit_count() == 2]
    lattices += [build_blowup(BlowupSpec(5, sizes)) for sizes in
                 ({}, dict.fromkeys(pairs, 2),
                  {m: 2 for m in pairs if m & 1})]
    with_gens = 0
    for LB in lattices:
        G = zero_divisor_graph(LB)
        gsr, gens = gsr_with_generators(G)
        with_gens += bool(gens)
        check_orbital_alpha(gsr, gens, rng)
        assert sdim_via_gsr(G) == twin_reduce(G)[1] + cover_number(gsr)
        # the zero-divisor graph itself, with its own swaps
        check_orbital_alpha(G, _coordinate_swaps(G)[1], rng)
    assert with_gens > 100


def test_coordinate_swaps_are_exactly_the_automorphisms_on_tuple_graphs():
    # random graphs on all of {0,1,2}^2, {0,1}^3 or {0,1}^4 as tuple
    # labels, so every swap maps the labels onto themselves; half are
    # closed under permuting coordinates, the rest have random edges, most
    # of whose swaps are not automorphisms
    rng = random.Random(4321)
    bogus = 0
    for trial in range(120):
        k, values = rng.choice([(2, 3), (3, 2), (4, 2)])
        labels = ["(" + ",".join(map(str, t)) + ")"
                  for t in product(range(values), repeat=k)]
        edges = {frozenset(e) for e in combinations(labels, 2)
                 if rng.random() < rng.choice([0.2, 0.5])}
        if trial % 2:
            edges = {frozenset("(" + ",".join(lab[1:-1].split(",")[c]
                                              for c in perm) + ")"
                               for lab in e)
                     for e in edges for perm in permutations(range(k))}
        g = SimpleGraph.from_edges(labels, [tuple(e) for e in edges])
        gens = _coordinate_swaps(g)[1]
        want = swap_automorphisms(g)
        assert len(gens) == len(want), trial
        assert all(g.labels[p[v]] == swapped(g.labels[v], i, j)
                   for p, (i, j) in zip(gens, want) for v in range(g.n))
        bogus += len(want) < k * (k - 1) // 2
        check_orbital_alpha(g, gens, rng)
        try:
            plain = cover_number(strong_resolving_graph(g))
        except Disconnected:
            continue
        assert sdim_via_gsr(g) == plain, trial
    assert bogus > 30


def test_random_graphs_with_plain_labels_get_no_generators():
    rng = random.Random(1234)
    for trial in range(100):
        g = random_graph(rng, trial % 15, rng.uniform(0.1, 0.9))
        assert _coordinate_swaps(g) == ([], [])
        check_orbital_alpha(g, [], rng)


def test_tuple_labels_with_any_coordinates_get_checked_generators():
    # the coordinates need not be numbers: the swap of (a,b) and (b,a)
    # fixes (a,a) and keeps both edges, so it is the one generator
    labels = ["(a,b)", "(b,a)", "(a,a)"]
    g = SimpleGraph.from_edges(labels, [("(a,b)", "(a,a)"),
                                        ("(b,a)", "(a,a)")])
    gens = _coordinate_swaps(g)[1]
    assert [[g.labels[w] for w in p] for p in gens] == [
        ["(a,a)", "(b,a)", "(a,b)"]]
    check_orbital_alpha(g, gens, random.Random(0))


def test_a_swap_that_maps_the_labels_but_not_the_edges_is_no_generator():
    # swapping the coordinates maps (0,1) <-> (1,0) and fixes (1,1), but
    # the one edge (0,1)-(1,1) would go to the non-edge (1,0)-(1,1)
    g = SimpleGraph.from_edges(["(0,1)", "(1,0)", "(1,1)"],
                               [("(0,1)", "(1,1)")])
    assert _coordinate_swaps(g) == ([], [])
    assert independence_number(g) == 2


def test_a_vertex_set_that_a_checked_swap_leaves_raises():
    # the swaps of 2^3 are checked on G itself; H lacks the image (1,0,0)
    # of (0,1,0), so mapping them onto H leaves a hole
    G = zero_divisor_graph(build_blowup(BlowupSpec(3, {})))
    H = G.subgraph(lab for lab in G.labels if lab != "(1,0,0)")
    with pytest.raises(AssertionError, match="does not map the vertex set"):
        _restricted(_coordinate_swaps(G)[1],
                    [G.index(lab) for lab in H.labels])


def pinned_orbit_graph() -> SimpleGraph:
    """Twelve vertices of {0,1,2}^3 and five edge orbits under permuting
    the coordinates, found by a seeded search and cut down."""
    seeds = [((0, 0, 1), (0, 1, 0)), ((0, 0, 1), (0, 0, 2)),
             ((0, 0, 2), (1, 1, 2)), ((0, 1, 1), (1, 0, 1)),
             ((0, 1, 1), (1, 1, 2))]
    edges = {frozenset("(%d,%d,%d)" % tuple(t[c] for c in p) for t in e)
             for e in seeds for p in permutations(range(3))}
    return SimpleGraph.from_edges({lab for e in edges for lab in e},
                                  [tuple(e) for e in edges])


def test_the_include_branch_keeps_only_the_generators_that_fix_its_vertex():
    # on the pinned graph, an include branch that kept the swaps moving its
    # vertex would drop whole orbits from candidate sets they do not map
    # onto themselves, and alpha would come out one too small
    g = pinned_orbit_graph()
    assert (g.n, g.edge_count()) == (12, 18)
    gens = _coordinate_swaps(g)[1]
    assert len(gens) == 3
    full = (1 << g.n) - 1
    assert _alpha(g.adj, full, gens) == _alpha(g.adj, full) == nx_alpha(g)


# -- G_SR rows from far sets carried along the checked swaps ---------------------

def pair_loop_mmd_rows(g: SimpleGraph) -> list[int]:
    """The G_SR rows by a scan of every vertex pair: u < v, found in u's
    sphere of radius d, are kept when every neighbour of u lies in v's ball
    of radius d and every neighbour of v in u's."""
    balls = distance_balls(g)
    adj = g.adj
    rows = [0] * g.n
    for u, ball in enumerate(balls):
        later = -1 << u + 1
        for d in range(1, len(ball)):
            for v in _bits(ball[d] & ~ball[d - 1] & later):
                if (adj[u] & ~balls[v][d] == 0
                        and adj[v] & ~ball[d] == 0):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
    return rows


def check_mmd_rows(g: SimpleGraph, rng: random.Random) -> int:
    """The rows from far sets carried along g's checked swaps against the
    rows with no generators, the pair loop and the pair-by-pair definition
    (on all pairs up to 60 vertices, on 500 sampled pairs above).  The
    orbit path runs on a copy with no kept searches, where it searches the
    least vertex of each orbit itself, and on g, where it reads the far
    sets `distance_balls(g)` keeps.  Returns the number of generators."""
    gens = _coordinate_swaps(g)[0]
    bare = SimpleGraph(g.labels, g.adj)
    try:
        want = pair_loop_mmd_rows(g)
    except Disconnected:
        with pytest.raises(Disconnected):
            _mmd_rows(bare, gens)
        with pytest.raises(Disconnected):
            _mmd_rows(g)
        return len(gens)
    assert _mmd_rows(bare, gens) == _mmd_rows(g) == want
    assert _mmd_rows(g, gens) == want
    pairs = list(combinations(range(g.n), 2))
    if g.n > 60:
        pairs = rng.sample(pairs, min(500, len(pairs)))
    for u, v in pairs:
        assert want[u] >> v & 1 == mutually_maximally_distant(
            g, g.labels[u], g.labels[v]), (g.labels[u], g.labels[v])
    return len(gens)


def test_mmd_rows_on_the_corpus_with_and_without_twins():
    rng = random.Random(17)
    with_gens = 0
    for _, _, LB in corpus(0, 300):
        G = zero_divisor_graph(LB)
        with_gens += bool(check_mmd_rows(twin_reduce(G)[0], rng))
        check_mmd_rows(G, rng)
    assert with_gens > 100


@pytest.mark.parametrize("n", range(1, 10))
def test_mmd_rows_on_boolean_lattices(n):
    g = zero_divisor_graph(boolean_lattice(n))
    assert check_mmd_rows(g, random.Random(n)) == max(n - 1, 0)


def test_mmd_rows_on_chain_products():
    rng = random.Random(3)
    for k in range(1, 4):
        for sizes in product([1, 2, 3], repeat=k):
            check_mmd_rows(zero_divisor_graph(product_of_chains(sizes)), rng)


def test_mmd_rows_on_symmetric_blowups():
    # the benchmark's chain blow-up shapes, all but the second with a
    # checked swap, and two blow-ups of 2^5 that every atom permutation
    # keeps, or those fixing atom 0
    pairs = [m for m in range(32) if m.bit_count() == 2]
    specs = [BlowupSpec(3, {0b001: 100, 0b110: 100}),
             BlowupSpec(3, {0b001: 90, 0b011: 100, 0b110: 100}),
             BlowupSpec(4, {0b0001: 40, 0b0011: 40, 0b1110: 40}),
             BlowupSpec(4, {0b0011: 70, 0b0101: 70, 0b1100: 70,
                            0b1010: 70}),
             BlowupSpec(4, {0b0001: 50, 0b0110: 60, 0b1110: 80,
                            0b1001: 70}),
             BlowupSpec(5, dict.fromkeys(pairs, 2)),
             BlowupSpec(5, {m: 2 for m in pairs if m & 1})]
    rng = random.Random(4)
    with_gens = 0
    for spec in specs:
        G = zero_divisor_graph(build_blowup(spec))
        with_gens += bool(check_mmd_rows(G, rng))
        check_mmd_rows(twin_reduce(G)[0], rng)
    assert with_gens == len(specs) - 1


def test_mmd_rows_on_the_pinned_orbit_graph_and_random_tuple_graphs():
    # random graphs on all of {0,1,2}^2, {0,1}^3 or {0,1}^4, half closed
    # under permuting coordinates: a swap that maps the labels but not the
    # edges would carry far sets that are not the images of far sets
    rng = random.Random(1111)
    assert check_mmd_rows(pinned_orbit_graph(), rng) == 2
    connected = 0
    for trial in range(200):
        k, values = rng.choice([(2, 3), (3, 2), (4, 2)])
        labels = ["(" + ",".join(map(str, t)) + ")"
                  for t in product(range(values), repeat=k)]
        edges = {frozenset(e) for e in combinations(labels, 2)
                 if rng.random() < rng.choice([0.3, 0.5])}
        if trial % 2:
            edges = {frozenset(swapped(swapped(a, 0, c), 0, d) for a in e)
                     for e in edges for c in range(k) for d in range(k)}
        g = SimpleGraph.from_edges(labels, [tuple(e) for e in edges])
        check_mmd_rows(g, rng)
        connected += len(connected_components(g)) == 1
    assert connected > 100


def test_mmd_rows_on_graphs_of_zero_one_and_two_vertices():
    rng = random.Random(0)
    # `gsr --boolean 1` and `gsr --mn 2`
    assert zero_divisor_graph(boolean_lattice(1)).n == 0
    assert check_mmd_rows(zero_divisor_graph(boolean_lattice(1)), rng) == 0
    assert _mmd_rows(zero_divisor_graph(m_lattice(2))) == [0b10, 0b01]
    for labels, edges, gens in ((["(0,0)"], [], 1),
                                (["(0,1)", "(1,0)"], [("(0,1)", "(1,0)")], 1),
                                (["a", "b"], [("a", "b")], 0)):
        g = SimpleGraph.from_edges(labels, edges)
        assert check_mmd_rows(g, rng) == gens
        assert _mmd_rows(g, _coordinate_swaps(g)[0]) == (
            [0] if g.n == 1 else [0b10, 0b01])


def test_a_disconnected_graph_raises_on_both_paths():
    # two edges that the one coordinate swap exchanges
    g = SimpleGraph.from_edges(["(0,1)", "(0,2)", "(1,0)", "(2,0)"],
                               [("(0,1)", "(0,2)"), ("(1,0)", "(2,0)")])
    gens = _coordinate_swaps(g)[0]
    assert len(gens) == 1
    with pytest.raises(Disconnected):
        _mmd_rows(g, gens)
    with pytest.raises(Disconnected):
        _mmd_rows(g)
    with pytest.raises(Disconnected):
        sdim_via_gsr(g)


def test_the_checked_swaps_span_every_swap():
    # 8 of the 36 swaps of 2^9 are checked, those of coordinate 0; every
    # other is the product (0 i)(0 j)(0 i) and moves the same labels
    g = zero_divisor_graph(boolean_lattice(9))
    checked, swaps = _coordinate_swaps(g)
    assert (len(checked), len(swaps)) == (8, 36)
    assert all(any(p is q for q in swaps) for p in checked)
    for p, (i, j) in zip(swaps, combinations(range(9), 2)):
        assert [g.labels[w] for w in p] == [swapped(lab, i, j)
                                            for lab in g.labels]
