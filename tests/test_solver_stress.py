"""Randomized stress tests for the exact independent-set solver and the
brute-force searchers, cross-checked against networkx."""

import random
from itertools import combinations

import networkx as nx
import pytest

from zdgdim import (Disconnected, SimpleGraph, connected_components,
                    diameter, distance_balls,
                    independence_number, is_strong_resolving,
                    max_independent_set, metric_dimension_bruteforce,
                    minimum_strong_resolving_set, sdim_bruteforce,
                    sdim_via_gsr, strong_resolving_graph, twin_reduce,
                    vertex_cover_number)
from zdgdim.metric import _pair_cover_masks


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
        assert vertex_cover_number(g) == n - beta
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
        witness = minimum_strong_resolving_set(g)
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
    # textbook neighbour rule and the resolving masks of every pair by the
    # textbook distance rules are checked against networkx on each graph
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
        # from the other to w, and resolves them when its distances to them
        # differ; callers only ask whether every mask meets a set, so the
        # masks are compared as a multiset
        for strong in (False, True):
            assert sorted(_pair_cover_masks(g, strong)) == sorted(
                sum(1 << g.index(w) for w in g.labels
                    if (dist[u][w] == dist[u][v] + dist[v][w]
                        or dist[v][w] == dist[v][u] + dist[u][w]
                        if strong else dist[u][w] != dist[v][w]))
                for u, v in combinations(g.labels, 2)), (trial, strong)
        plain = vertex_cover_number(gsr)
        assert sdim_via_gsr(g) == plain, (trial, g.edge_list())
        reduced += twin_reduce(g)[1] > 0
    assert reduced > 250
