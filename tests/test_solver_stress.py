"""Randomized stress tests for the exact independent-set solver and the
brute-force searchers, cross-checked against networkx."""

import os
import random
import subprocess
import sys
from itertools import combinations, permutations, product

import networkx as nx
import pytest

from zdgdim import (BlowupSpec, Disconnected, SimpleGraph, boolean_lattice,
                    build_blowup, connected_components, diameter,
                    distance_balls, gstar_star, independence_number,
                    is_strong_resolving, m_lattice, max_independent_set,
                    minimum_vertex_cover, product_of_chains,
                    random_blowup_spec, sdim_bruteforce,
                    sdim_via_gsr, strong_resolving_graph, twin_reduce,
                    zero_divisor_graph)
from zdgdim import metric
from zdgdim.blowup import tuple_coordinates
from zdgdim.metric import (_alpha, _check_invariant, _clique_cover,
                           _coordinate_swaps, _delta_steps, _hits_within,
                           _is_automorphism, _minimal_masks, _mmd_rows,
                           _orbit, _pair_cover_masks, _swap, _swap_perm)
from zdgdim.poset import _bits
from zdgdim.verify import corpus

from conftest import (all_masks_bruteforce, counter_twin_reduce, cover_number,
                      first_fit_cover, has_edge, index_bit_generators,
                      metric_dimension_bruteforce,
                      mutually_maximally_distant, pair_loop_mmd_rows,
                      plain_gsr, solve_per_vertex_mis, perm_of_steps,
                      subset_loop_bruteforce, top_down_bfs)


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
        assert all(not has_edge(g, a, b) for a, b in combinations(mis, 2))
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


def is_connected(g: SimpleGraph) -> bool:
    try:
        distance_balls(g)
    except Disconnected:
        return False
    return True


def shuffled_graph(rng: random.Random, n: int, edges) -> SimpleGraph:
    """The graph on vertices 0..n-1 with these edges, each vertex given a
    label at a random place in the label order."""
    place = rng.sample(range(n), n)
    labels = [f"v{i:02d}" for i in range(n)]
    return SimpleGraph.from_edges(
        labels, [(labels[place[a]], labels[place[b]]) for a, b in edges])


def simplicial_rich_and_free_graphs(rng: random.Random) -> list[SimpleGraph]:
    """Graphs rich in simplicial vertices, whose neighbours form a clique:
    disjoint cliques, trees and split graphs (a clique, and an independent
    set each of whose vertices has neighbours in it), in random vertex
    orders; then graphs with none: the cycles C5..C9 and the Petersen
    graph."""
    graphs = []
    for _ in range(40):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        graphs.append(shuffled_graph(rng, sum(sizes), [
            (s + a, s + b) for s, k in zip(starts, sizes)
            for a, b in combinations(range(k), 2)]))
        n = rng.randint(1, 14)
        graphs.append(shuffled_graph(
            rng, n, [(v, rng.randrange(v)) for v in range(1, n)]))
        k, m = rng.randint(1, 6), rng.randint(1, 7)
        graphs.append(shuffled_graph(rng, k + m, [
            *combinations(range(k), 2),
            *((k + i, c) for i in range(m)
              for c in rng.sample(range(k), rng.randint(1, k)))]))
    graphs += [shuffled_graph(rng, n, [(i, (i + 1) % n) for i in range(n)])
               for n in range(5, 10)]
    graphs.append(shuffled_graph(rng, 10, [
        *((i, (i + 1) % 5) for i in range(5)),
        *((5 + i, 5 + (i + 2) % 5) for i in range(5)),
        *((i, 5 + i) for i in range(5))]))
    return graphs


@pytest.fixture(scope="module")
def verify_graphs():
    """(name, G, G_SR, G**) for every member of corpus(0, 300), the corpus
    of the benchmark's verify workload."""
    out = []
    for name, _, LB in corpus(0, 300):
        G = zero_divisor_graph(LB)
        out.append((name, G, strong_resolving_graph(G), gstar_star(LB)))
    return out


def test_lex_least_witness_matches_the_per_vertex_oracle(verify_graphs):
    # the one search, lowest candidate first and pruned by a clique cover,
    # must pick the witness that one exact solve per vertex picks
    for name, *graphs in verify_graphs:
        for g in graphs:
            assert max_independent_set(g) == solve_per_vertex_mis(g), name
    G7 = zero_divisor_graph(boolean_lattice(7))
    blown = zero_divisor_graph(build_blowup(
        BlowupSpec(6, {m: 2 for m in range(1, 63)})))
    for g in (G7, strong_resolving_graph(G7), blown):
        assert max_independent_set(g) == solve_per_vertex_mis(g), g
    rng = random.Random(23)
    graphs = simplicial_rich_and_free_graphs(rng)
    graphs += [random_graph(rng, trial % 16, rng.uniform(0.05, 0.95))
               for trial in range(300)]
    for trial, g in enumerate(graphs):
        assert max_independent_set(g) == solve_per_vertex_mis(g), (
            trial, g.edge_list())


def frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_exact_searches_run_deeper_than_the_recursion_limit():
    # both searches keep one entry per included vertex on a list, so an
    # independent set far larger than the recursion limit is found; so
    # does the brute force's search, which needs all n vertices to meet n
    # singleton masks
    limit = frame_depth() + 40
    n = limit + 60
    g = SimpleGraph([f"v{i:03d}" for i in range(n)], [0] * n)
    matching = SimpleGraph.from_edges(
        [f"v{i:03d}" for i in range(2 * n)],
        [(f"v{i:03d}", f"v{i + 1:03d}") for i in range(0, 2 * n, 2)])
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        assert independence_number(g) == n
        assert max_independent_set(g) == list(g.labels)
        assert _alpha(matching.adj, (1 << 2 * n) - 1) == n
        assert max_independent_set(matching) == list(matching.labels[::2])
        singletons = [1 << i for i in range(n)]
        assert _hits_within(singletons, n)
        assert not _hits_within(singletons, n - 1)
    finally:
        sys.setrecursionlimit(saved)


def test_pruned_brute_force_matches_the_all_masks_oracle(verify_graphs):
    small = [G for _, G, _, _ in verify_graphs if G.n <= 14]
    assert len(small) > 100
    rng = random.Random(31)
    graphs = simplicial_rich_and_free_graphs(rng)
    graphs += [random_graph(rng, trial % 13, rng.uniform(0.2, 0.9))
               for trial in range(200)]
    connected = [g for g in graphs if is_connected(g)]
    assert len(connected) > 150
    for trial, g in enumerate(small + connected):
        want = all_masks_bruteforce(g)
        assert sdim_bruteforce(g) == want == subset_loop_bruteforce(g), (
            trial, g.edge_list())


def test_minimal_masks_are_the_edges_of_gsr(verify_graphs):
    # a set meets every pair mask iff it covers G_SR (Oellermann and
    # Peters-Fransen), and two clutters with the same transversals are
    # equal (Edmonds and Fulkerson): the inclusion-minimal masks, read off
    # distances, are the 2-sets {u, v} of G_SR's edges
    graphs = [G for _, G, _, _ in verify_graphs]
    rng = random.Random(37)
    graphs += simplicial_rich_and_free_graphs(rng)
    graphs += [random_graph(rng, trial % 15, rng.uniform(0.1, 0.9))
               for trial in range(300)]
    checked = 0
    for trial, g in enumerate(graphs):
        if not is_connected(g):
            continue
        checked += 1
        want = sorted(1 << g.index(a) | 1 << g.index(b)
                      for a, b in strong_resolving_graph(g).edge_list())
        assert _minimal_masks(_pair_cover_masks(g)) == want, (
            trial, g.edge_list())
    assert checked > 600


def test_degenerate_inputs():
    from zdgdim.adapters import comaximal_ideal, component_union
    # prime N: no proper nonzero ideals outside the radical
    g = comaximal_ideal(7).graph
    assert g.n == 0
    assert sdim_via_gsr(g) == 0
    # one-dimensional space over GF(2): a single vector
    g = component_union(1, 2).graph
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
    perms = [perm_of_steps(steps, g.n) for steps, _ in gens]
    cand = 0
    for v in range(g.n):
        if not cand >> v & 1 and rng.random() < 0.5:
            orbit, todo = 1 << v, [v]
            for u in todo:
                for p in perms:
                    if not orbit >> p[u] & 1:
                        orbit |= 1 << p[u]
                        todo.append(p[u])
            cand |= orbit
    assert _alpha(g.adj, cand, gens) == _alpha(g.adj, cand) == nx_alpha(
        g.subgraph(g.labels[v] for v in range(g.n) if cand >> v & 1))


def gsr_with_generators(G: SimpleGraph):
    """G_SR of the twin-reduced G, on all of its vertices and in its
    indices, as sdim_via_gsr solves it, from the rows of the pair loop, and
    the generators sdim_via_gsr uses, each checked against that edge set."""
    reduced = twin_reduce(G)[0]
    gsr = SimpleGraph(reduced.labels, pair_loop_mmd_rows(reduced))
    gens = _coordinate_swaps(reduced)[1]
    edges = {frozenset(e) for e in combinations(range(gsr.n), 2)
             if gsr.adj[min(e)] >> max(e) & 1}
    for p in (perm_of_steps(steps, gsr.n) for steps, _ in gens):
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
        assert all(g.labels[w] == swapped(g.labels[v], i, j)
                   for (steps, _), (i, j) in zip(gens, want)
                   for v, w in enumerate(perm_of_steps(steps, g.n)))
        bogus += len(want) < k * (k - 1) // 2
        check_orbital_alpha(g, gens, rng)
        try:
            gsr = plain_gsr(g)
        except Disconnected:
            continue
        assert strong_resolving_graph(g).labeled_equal(gsr), trial
        assert sdim_via_gsr(g) == cover_number(gsr), trial
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
    assert [[g.labels[w] for w in perm_of_steps(p, g.n)]
            for p, _ in gens] == [
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
    # the swaps of 2^3 are checked on G itself; the vertex set lacks the
    # image (1,0,0) of (0,1,0), so mapping it into itself fails
    G = zero_divisor_graph(build_blowup(BlowupSpec(3, {})))
    checked = _coordinate_swaps(G)[0]
    full = (1 << G.n) - 1
    _check_invariant(checked, full)
    with pytest.raises(AssertionError, match="does not map the vertex set"):
        _check_invariant(checked, full & ~(1 << G.index("(1,0,0)")))


def test_sdim_via_gsr_refuses_a_swap_that_leaves_the_gsr_vertices(
        monkeypatch):
    # on the path a-b-c-d, a swap of a and b passed off as checked carries
    # far(a) = {d} to b, and G_SR's vertices come out as {a, d}, which the
    # swap does not map onto itself; without the check the solve still
    # returns sdim = 1
    g = SimpleGraph.from_edges("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    bogus = ((1, 0b1),)
    monkeypatch.setattr(metric, "_coordinate_swaps",
                        lambda g: ([bogus], [(bogus, 0b11)]))
    with pytest.raises(AssertionError, match="does not map the vertex set"):
        sdim_via_gsr(g)


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

def check_mmd_rows(g: SimpleGraph, rng: random.Random) -> int:
    """The rows from far sets carried along g's checked swaps against the
    rows with no generators, the pair loop and the pair-by-pair definition
    (on all pairs up to 60 vertices, on 500 sampled pairs above), and
    `strong_resolving_graph(g)` against the graph of the pair loop's rows.
    Returns the number of generators."""
    gens = _coordinate_swaps(g)[0]
    try:
        want = pair_loop_mmd_rows(g)
    except Disconnected:
        with pytest.raises(Disconnected):
            _mmd_rows(g, gens)
        with pytest.raises(Disconnected):
            _mmd_rows(g)
        with pytest.raises(Disconnected):
            strong_resolving_graph(g)
        return len(gens)
    assert _mmd_rows(g, gens) == _mmd_rows(g) == want
    assert strong_resolving_graph(g).labeled_equal(plain_gsr(g))
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


def test_mmd_rows_on_both_sides_of_the_counting_rule(monkeypatch):
    # rows per orbit representative on 2^9 (510 vertices, 8 orbits) and on
    # a blow-up of 2^8 whose swaps fix atom 0 and have up to 17 deltas (367
    # vertices, 21 orbits); the transpose on a chain product whose
    # twin-reduced graph has 121 vertices in 90 orbits
    transposed = []
    transpose = metric._transpose
    monkeypatch.setattr(metric, "_transpose", lambda rows, width: (
        transposed.append(width) or transpose(rows, width)))
    pc = {m: 2 for m in range(1, 255)
          if m & 1 and m.bit_count() % 2 or m.bit_count() in (2, 5)}
    rng = random.Random(9)
    for G, by_transpose in (
            (zero_divisor_graph(boolean_lattice(9)), False),
            (zero_divisor_graph(build_blowup(BlowupSpec(8, pc))), False),
            (twin_reduce(zero_divisor_graph(
                product_of_chains([2, 2, 3, 3, 4, 4])))[0], True)):
        gens = _coordinate_swaps(G)[0]
        transposed.clear()
        _mmd_rows(G, gens)
        assert bool(transposed) == by_transpose, G.n
        assert check_mmd_rows(G, rng) == len(gens) > 0


def test_the_checked_swaps_span_every_swap():
    # 8 of the 36 swaps of 2^9 are checked, those of coordinate 0; every
    # other is the product (0 i)(0 j)(0 i) and moves the same labels
    g = zero_divisor_graph(boolean_lattice(9))
    checked, swaps = _coordinate_swaps(g)
    assert (len(checked), len(swaps)) == (8, 36)
    assert all(any(p is q for q, _ in swaps) for p in checked)
    for (p, _), (i, j) in zip(swaps, combinations(range(9), 2)):
        assert [g.labels[w] for w in perm_of_steps(p, g.n)] == [
            swapped(lab, i, j) for lab in g.labels]


def test_tuple_keyed_vertex_maps_match_swapped_label_strings():
    # levels of 10 and more write coordinates of several digits, such as
    # (10,0,10); the map of a swap sends each vertex to the one whose label
    # string is the swapped label, and is None when some swapped label is
    # no vertex
    specs = [BlowupSpec(3, {0b101: 12, 0b011: 12, 0b110: 12}),
             BlowupSpec(3, {0b101: 12, 0b010: 11, 0b011: 10}),
             BlowupSpec(4, {0b0101: 10, 0b1010: 10, 0b0011: 13,
                            0b1100: 13, 0b0001: 11}),
             BlowupSpec(4, {m: 10 + m.bit_count() for m in range(1, 15)})]
    maps = nones = 0
    for spec in specs:
        g = zero_divisor_graph(build_blowup(spec))
        assert any(lab.count("1") > 1 and "10" in lab for lab in g.labels)
        parts = [tuple(tuple_coordinates(lab)) for lab in g.labels]
        index = {p: v for v, p in enumerate(parts)}
        where = {lab: v for v, lab in enumerate(g.labels)}
        for i, j in combinations(range(spec.n), 2):
            want = [where.get(swapped(lab, i, j)) for lab in g.labels]
            got = _swap_perm(index, parts, i, j)
            assert got == (None if None in want else want), (spec, i, j)
            maps += got is not None
            nones += got is None
    assert maps >= 9 and nones >= 9


# -- delta swaps --------------------------------------------------------------

def random_involution(rng: random.Random, n: int) -> list[int]:
    """An involution of range(n) that exchanges a random number of random
    pairs."""
    order = list(range(n))
    rng.shuffle(order)
    perm = list(range(n))
    for k in range(0, rng.randint(0, n // 2) * 2, 2):
        v, w = order[k], order[k + 1]
        perm[v], perm[w] = w, v
    return perm


def test_delta_swaps_move_every_bit_as_the_involution_does():
    # the pairs (v, w) of random involutions on up to 200 vertices; the
    # last pair of a mask is as likely as any other to be exchanged
    rng = random.Random(2626)
    for trial in range(300):
        n = rng.randint(0, 200)
        perm = random_involution(rng, n)
        steps = _delta_steps(perm)
        assert perm_of_steps(steps, n) == perm, trial
        for _ in range(5):
            x = rng.getrandbits(n) if n else 0
            assert _swap(steps, x) == sum(1 << perm[v] for v in _bits(x)), (
                trial, x)


def test_the_check_over_exchanged_pairs_agrees_with_every_vertex():
    # random graphs under random involutions g: half of the graphs are
    # closed under g, and half of those then lose or gain one edge at a
    # moved vertex, which only that vertex's pair may see when the edge's
    # other end is a fixed point
    rng = random.Random(2727)
    seen = {True: 0, False: 0}
    for trial in range(600):
        n = rng.randint(0, 16)
        perm = random_involution(rng, n)
        p = rng.choice([0.2, 0.5])
        edges = {frozenset(e) for e in combinations(range(n), 2)
                 if rng.random() < p}
        moved = [v for v in range(n) if perm[v] != v]
        if trial % 2:
            edges |= {frozenset(perm[v] for v in e) for e in edges}
            if moved and trial % 4 == 1:
                v = rng.choice(moved)
                u = rng.choice([u for u in range(n) if u != v])
                edges ^= {frozenset((u, v))}
        adj = [0] * n
        for u, v in map(tuple, edges):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        steps = _delta_steps(perm)
        every = all(_swap(steps, adj[v]) == adj[perm[v]] for v in range(n))
        assert every == ({frozenset(perm[v] for v in e) for e in edges}
                         == edges), trial
        assert _is_automorphism(adj, perm, steps) == every, trial
        seen[every] += bool(moved)
    assert min(seen.values()) > 100


def test_delta_steps_refuse_a_non_involution_also_under_python_O():
    # the automorphism check tests only v < perm[v], which is sound for an
    # involution alone; the refusal must not be an assert that -O strips
    with pytest.raises(AssertionError, match="not an involution"):
        _delta_steps([1, 2, 0])
    src = os.path.dirname(os.path.dirname(metric.__file__))
    code = ("import sys\n"
            "from zdgdim.metric import _delta_steps\n"
            "try:\n"
            "    _delta_steps([1, 2, 0])\n"
            "except AssertionError as e:\n"
            "    print(sys.flags.optimize, e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.startswith("1 ") and "not an involution" in out


# -- the bitboard paths against the loops they replaced --------------------------

def random_subsets(rng: random.Random, n: int, count: int) -> list[int]:
    """All n vertices, then count random subsets of them."""
    return [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(count)]


def test_clique_cover_is_the_first_fit_cover_on_random_graphs():
    rng = random.Random(41)
    for trial in range(1000):
        g = random_graph(rng, rng.randint(0, 40), rng.random())
        for cand in random_subsets(rng, g.n, 2):
            assert _clique_cover(g.adj, cand) == first_fit_cover(
                g.adj, cand), (trial, g.edge_list(), cand)


def test_clique_cover_is_the_first_fit_cover_on_the_corpus(verify_graphs):
    rng = random.Random(42)
    for name, *graphs in verify_graphs:
        for g in graphs:
            for cand in random_subsets(rng, g.n, 3):
                assert _clique_cover(g.adj, cand) == first_fit_cover(
                    g.adj, cand), (name, cand)


def test_every_search_node_on_gsr_of_2_7_gets_the_first_fit_cover(
        monkeypatch):
    # G_SR of 2^7 as sdim_via_gsr solves it, with its orbits and without
    G = zero_divisor_graph(boolean_lattice(7))
    checked, swaps = _coordinate_swaps(G)
    rows = _mmd_rows(G, checked)
    cand = 0
    for row in rows:
        cand |= row
    cover = metric._clique_cover
    nodes = []

    def compared(adj, cand):
        cliques = cover(adj, cand)
        assert cliques == first_fit_cover(adj, cand), cand
        nodes.append(cand)
        return cliques
    monkeypatch.setattr(metric, "_clique_cover", compared)
    # sdim of 2^7 is 2^7 - 2 - 2 * 7 + 2
    assert cand.bit_count() - _alpha(rows, cand, swaps) == 114
    orbital = len(nodes)
    assert cand.bit_count() - _alpha(rows, cand) == 114
    assert 0 < orbital < len(nodes) - orbital


def closure_by_perms(v: int, perms) -> int:
    """The orbit of v, one vertex at a time: every image of a reached
    vertex under a generator is reached."""
    orbit, todo = 1 << v, [v]
    for u in todo:
        for p in perms:
            if not orbit >> p[u] & 1:
                orbit |= 1 << p[u]
                todo.append(p[u])
    return orbit


def test_orbits_are_the_closures_under_the_generators():
    # under (1 2) and then (0 1), one round grown in place takes 0 to
    # {0, 1}; (1 2) must be applied again to reach 2
    steps = index_bit_generators([_delta_steps([0, 2, 1]),
                                  _delta_steps([1, 0, 2])], 3)
    assert _orbit(0, steps) == 0b111
    assert _orbit(0, steps[:1]) == 0b001
    assert _orbit(1, []) == 0b10
    rng = random.Random(43)
    pairs = [m for m in range(32) if m.bit_count() == 2]
    lattices = [boolean_lattice(6), product_of_chains([2, 3, 2, 3]),
                build_blowup(BlowupSpec(5, {m: 2 for m in pairs if m & 1}))]
    lattices += [build_blowup(random_blowup_spec(rng)) for _ in range(30)]
    for LB in lattices:
        G = zero_divisor_graph(LB)
        checked, swaps = _coordinate_swaps(G)
        for gens in (index_bit_generators(checked, G.n), swaps):
            shuffled = rng.sample(gens, len(gens))
            perms = [perm_of_steps(steps, G.n) for steps, _ in shuffled]
            for v in range(G.n):
                assert _orbit(v, shuffled) == closure_by_perms(v, perms)


def bfs_graphs(rng: random.Random) -> list[SimpleGraph]:
    """K_1, paths, complete and edgeless graphs, random graphs of every
    density, and disconnected ones: two random graphs side by side, with
    isolated vertices among them."""
    graphs = [SimpleGraph(["a"], [0])]
    for n in range(2, 12):
        labels = [f"v{i:02d}" for i in range(n)]
        graphs.append(SimpleGraph.from_edges(
            labels, list(zip(labels, labels[1:]))))
        graphs.append(SimpleGraph.from_edges(
            labels, list(combinations(labels, 2))))
        graphs.append(SimpleGraph(labels, [0] * n))
    for trial in range(400):
        g = random_graph(rng, rng.randint(1, 30), rng.random())
        if trial % 2:
            h = random_graph(rng, rng.randint(1, 12), rng.random())
            g = SimpleGraph.from_rows(
                [f"a{lab}" for lab in g.labels]
                + [f"b{lab}" for lab in h.labels],
                list(g.adj) + [row << g.n for row in h.adj])
        graphs.append(g)
    return graphs


def test_bfs_matches_the_top_down_search_on_small_graphs(verify_graphs):
    graphs = bfs_graphs(random.Random(44))
    graphs += [g for _, *gs in verify_graphs for g in gs]
    for g in graphs:
        for s in range(g.n):
            assert g.bfs(s) == top_down_bfs(g, s), (g.edge_list(), s)


def test_bfs_matches_the_top_down_search_on_boolean_lattices():
    rng = random.Random(45)
    for n in range(7, 11):
        g = zero_divisor_graph(boolean_lattice(n))
        gsr = strong_resolving_graph(g)
        for h in (g, gsr):
            for s in rng.sample(range(h.n), 12):
                assert h.bfs(s) == top_down_bfs(h, s), (n, s)


# -- twin classes by two stable sorts, against the counter loop ------------------

def check_twin_reduce(g: SimpleGraph, context) -> int:
    """`twin_reduce(g)` against `counter_twin_reduce(g)`: the same kept
    vertices in the same order, the same rows and the same dropped count,
    and g itself when nothing is dropped.  Returns the dropped count."""
    reduced, dropped = twin_reduce(g)
    want, want_dropped = counter_twin_reduce(g)
    assert dropped == want_dropped, context
    assert reduced.labels == want.labels, context
    assert tuple(reduced.adj) == tuple(want.adj), context
    if not dropped:
        assert reduced is g, context
    return dropped


def random_pattern_graph(rng: random.Random, crossing: bool) -> SimpleGraph:
    """`from_patterns` on up to 40 vertices with few distinct patterns, so
    that classes of equal patterns, twins of either kind, are common."""
    k = rng.randint(1, 4)
    pats = [rng.randrange(1 << k) for _ in range(rng.randint(1, 5))]
    return SimpleGraph.from_patterns(
        ((f"v{i:02d}", rng.choice(pats)) for i in range(rng.randint(0, 40))),
        crossing=crossing)


def test_twin_reduce_is_the_counter_loop_on_random_graphs():
    rng = random.Random(46)
    dropped = 0
    for trial in range(1500):
        g = random_pattern_graph(rng, trial % 2 == 1)
        dropped += check_twin_reduce(g, (trial, g.edge_list())) > 0
        g = random_graph_with_twins(rng, rng.randint(0, 30), rng.random())
        dropped += check_twin_reduce(g, (trial, g.edge_list())) > 0
    assert dropped > 1000


def test_twin_reduce_is_the_counter_loop_on_the_corpus(verify_graphs):
    dropped = 0
    for name, *graphs in verify_graphs:
        for g in graphs:
            dropped += check_twin_reduce(g, name) > 0
    assert dropped > 100


def test_twin_reduce_is_the_counter_loop_on_blowups_and_boolean_lattices():
    # the five blow-ups of the benchmark's chain-blowups workload, the
    # 400/400 blow-up, and G(2^n), which is twin-free
    specs = [BlowupSpec(3, {0b001: 100, 0b110: 100}),
             BlowupSpec(3, {0b001: 90, 0b011: 100, 0b110: 100}),
             BlowupSpec(4, {0b0001: 40, 0b0011: 40, 0b1110: 40}),
             BlowupSpec(4, {0b0011: 70, 0b0101: 70, 0b1100: 70,
                            0b1010: 70}),
             BlowupSpec(4, {0b0001: 50, 0b0110: 60, 0b1110: 80,
                            0b1001: 70}),
             BlowupSpec(3, {0b001: 400, 0b110: 400})]
    for spec in specs:
        g = zero_divisor_graph(build_blowup(spec))
        assert check_twin_reduce(g, spec) == sum(
            max(size - 2, 0) for size in spec.chain_sizes.values())
    for n in range(1, 11):
        g = zero_divisor_graph(boolean_lattice(n))
        assert check_twin_reduce(g, n) == 0


def test_twin_reduce_on_graphs_of_zero_and_one_vertex():
    for g in (SimpleGraph([], []), SimpleGraph(["a"], [0])):
        assert check_twin_reduce(g, g.n) == 0


# -- the include branch's stabiliser by moved-vertex masks ----------------------

def random_involution(rng: random.Random, n: int) -> list[int]:
    """A vertex map of n vertices that exchanges some random pairs."""
    perm, free = list(range(n)), rng.sample(range(n), n)
    while len(free) > 1 and rng.random() < 0.7:
        a, b = free.pop(), free.pop()
        perm[a], perm[b] = b, a
    return perm


def check_moved_sets(gens, n: int) -> None:
    """Each (steps, moved) pair of gens against the swap's vertex map."""
    for steps, moved in gens:
        perm = perm_of_steps(steps, n)
        assert moved == sum(1 << v for v, w in enumerate(perm) if v != w), (
            steps, n)


def step_union(steps) -> int:
    """The vertices of every pair the steps exchange."""
    union = 0
    for d, mask in steps:
        union |= mask | mask << d
    return union


def test_generators_carry_the_exact_moved_sets():
    # every swap of tuple graphs, the composed ones too, against its
    # vertex map and the index-bit oracle: 2^5 to 2^9, the size-2
    # blow-ups of 2^4 to 2^8 and chain products; a composed swap's union
    # of steps is not its moved set.  Then involutions and their
    # conjugates a + b + a, whose steps can move a vertex and move it
    # back, on 1 to 17 vertices, so on counts that are and are not powers
    # of two: the oracle, the union of a's steps for a, and a's image of
    # b's moved set for a + b + a, against the vertex maps
    pairs = [m for m in range(32) if m.bit_count() == 2]
    lattices = [boolean_lattice(n) for n in range(5, 10)]
    lattices += [build_blowup(BlowupSpec(n, dict.fromkeys(
        range(1, (1 << n) - 1), 2))) for n in range(4, 9)]
    lattices += [product_of_chains(sizes) for sizes in
                 ([2, 3, 2, 3], [3, 3, 3], [2, 2, 2, 3], [3, 3, 3, 2],
                  [2, 2, 2, 2, 2])]
    lattices.append(build_blowup(BlowupSpec(5, {m: 2 for m in pairs
                                                if m & 1})))
    composed = union_misses = 0
    for LB in lattices:
        G = zero_divisor_graph(LB)
        checked, swaps = _coordinate_swaps(G)
        composed += len(swaps) - len(checked)
        check_moved_sets(swaps, G.n)
        assert swaps == index_bit_generators([s for s, _ in swaps], G.n)
        union_misses += sum(step_union(s) != moved for s, moved in swaps)
    assert composed >= union_misses > 0
    rng = random.Random(47)
    union_misses = 0
    for n in range(1, 18):
        for _ in range(20):
            a, b = (_delta_steps(random_involution(rng, n)) for _ in "ab")
            aba = a + b + a
            check_moved_sets(index_bit_generators([a, b, aba], n), n)
            check_moved_sets([(a, step_union(a)), (b, step_union(b)),
                              (aba, _swap(a, step_union(b)))], n)
            union_misses += step_union(aba) != _swap(a, step_union(b))
    assert union_misses > 100
    assert index_bit_generators([], 5) == []


@pytest.mark.parametrize("spec", [BlowupSpec(7), BlowupSpec(
    6, {m: 2 for m in range(1, 63)})], ids=["2^7", "size-2-blowup-2^6"])
def test_every_search_node_keeps_the_generators_that_fix_its_vertex(
        monkeypatch, spec):
    # at every include branch of sdim_via_gsr's α search, the moved-mask
    # filter keeps the generators that a swap of the vertex keeps
    keep = metric._stabiliser
    nodes = []

    def compared(gens, low):
        kept = keep(gens, low)
        assert kept == [g for g in gens if _swap(g[0], low) == low], low
        nodes.append(len(gens) - len(kept))
        return kept
    monkeypatch.setattr(metric, "_stabiliser", compared)
    # sdim = |Z*| - 2n + 2 for both
    assert sdim_via_gsr(zero_divisor_graph(build_blowup(spec))) == 114
    assert len(nodes) > 10 and 0 < max(nodes)
