"""The one-pass all-source sweep (`metric._sweep`) against one search per
source, the G_SR rows on both sides of the orbit count, the swap shortcut
of `strong_resolving_graph`."""

import random

import pytest

from zdgdim import (BlowupSpec, Disconnected, SimpleGraph, boolean_lattice,
                    build_blowup, distance_balls, gstar_star,
                    product_of_chains, strong_resolving_graph, twin_reduce,
                    zero_divisor_graph)
from zdgdim import metric
from zdgdim.metric import _coordinate_swaps, _mmd_rows, _sweep
from zdgdim.poset import _bits
from zdgdim.verify import corpus

from conftest import pair_loop_mmd_rows, plain_gsr, top_down_bfs

# the benchmark's chain blow-up shapes, and the 400/400 blow-up of the CI
# guards
BLOWUPS = [BlowupSpec(3, {0b001: 100, 0b110: 100}),
           BlowupSpec(3, {0b001: 90, 0b011: 100, 0b110: 100}),
           BlowupSpec(4, {0b0001: 40, 0b0011: 40, 0b1110: 40}),
           BlowupSpec(4, {0b0011: 70, 0b0101: 70, 0b1100: 70, 0b1010: 70}),
           BlowupSpec(4, {0b0001: 50, 0b0110: 60, 0b1110: 80, 0b1001: 70}),
           BlowupSpec(3, {0b001: 400, 0b110: 400})]
CHAINS = [(4, 4, 4, 4, 4), (6, 6, 6, 6), (2, 3, 4, 5), (2, 2, 3, 3, 4)]


def random_graph(rng: random.Random, n: int) -> SimpleGraph:
    """A random graph on n vertices: each vertex, when added, is a false or
    a true twin of an earlier one, isolated, or joined to each earlier
    one with a drawn probability; one graph in four is two such graphs
    side by side, so that it is disconnected."""
    p = rng.choice([0.1, 0.3, 0.5, 0.8])
    rows = [0] * n
    for v in range(n):
        kind = rng.random()
        if v and kind < 0.4:
            u = rng.randrange(v)
            row = rows[u] | (1 << u if kind < 0.2 else 0)
        elif kind < 0.5:
            row = 0
        else:
            row = sum(1 << w for w in range(v) if rng.random() < p)
        rows[v] = row
        for w in _bits(row):
            rows[w] |= 1 << v
    labels = [f"v{i:02d}" for i in range(n)]
    g = SimpleGraph(labels, rows)
    if n and rng.random() < 0.25:
        h = random_graph(rng, rng.randint(1, 4))
        g = SimpleGraph([f"a{lab}" for lab in labels]
                        + [f"b{lab}" for lab in h.labels],
                        rows + [row << n for row in h.adj])
    return g


def random_graphs(count: int, seed: int) -> list[SimpleGraph]:
    rng = random.Random(seed)
    return [random_graph(rng, trial % 15) for trial in range(count)]


def fresh(g: SimpleGraph) -> SimpleGraph:
    """A copy of g with nothing computed on it yet."""
    return SimpleGraph(g.labels, g.adj)


def check_sweep(g: SimpleGraph, top_down: bool = False) -> bool:
    """The sweep's balls, and its far columns, against `g.bfs(s)` for every
    source s (and `top_down_bfs` when asked); on a disconnected g, both
    routes raise Disconnected.  Returns whether g is connected."""
    searches = [g.bfs(s) for s in range(g.n)]
    if top_down:
        assert searches == [top_down_bfs(g, s) for s in range(g.n)]
    if any(ball[-1] != (1 << g.n) - 1 for ball, _ in searches):
        with pytest.raises(Disconnected, match="graph is not connected"):
            _sweep(fresh(g))
        with pytest.raises(Disconnected, match="graph is not connected"):
            metric._search(g, next(s for s, (ball, _) in enumerate(searches)
                                    if ball[-1] != (1 << g.n) - 1))
        return False
    h = fresh(g)
    balls, cols = _sweep(h)
    assert balls == tuple(ball for ball, _ in searches), g.edge_list()
    want = [0] * g.n
    for s, (_, far) in enumerate(searches):
        for v in _bits(far):
            want[v] |= 1 << s
    assert cols == want, g.edge_list()
    assert distance_balls(h) is balls
    return True


def large_graphs() -> list[SimpleGraph]:
    return ([zero_divisor_graph(build_blowup(spec)) for spec in BLOWUPS]
            + [zero_divisor_graph(product_of_chains(c)) for c in CHAINS]
            + [zero_divisor_graph(boolean_lattice(n)) for n in range(1, 11)])


@pytest.fixture(scope="module")
def corpus_graphs():
    """G, G** and G_SR of every member of corpus(0, 300)."""
    out = []
    for _, _, LB in corpus(0, 300):
        G = zero_divisor_graph(LB)
        out += [G, gstar_star(LB), strong_resolving_graph(G)]
    return out


def test_sweep_matches_every_source_search_on_random_graphs():
    # 0 to 14 vertices, with twins, isolated vertices and disconnected
    # graphs, which raise on both routes
    connected = 0
    for g in random_graphs(1500, 340):
        connected += check_sweep(g, top_down=True)
    assert 300 < connected < 1300


def test_sweep_matches_every_source_search_on_the_corpus(corpus_graphs):
    # every G is connected; G** of a blow-up with a one-element chain has
    # an isolated vertex, and G_SR is often a union of cliques and more
    connected = sum(check_sweep(g, top_down=g.n <= 40)
                    for g in corpus_graphs)
    assert 303 <= connected < len(corpus_graphs)


def test_sweep_matches_every_source_search_on_large_graphs():
    graphs = large_graphs()
    assert [g.n for g in graphs[:6]] == [204, 293, 131, 290, 270, 804]
    assert [g.n for g in graphs[6:10]] == [780, 670, 95, 131]
    for g in graphs:
        assert check_sweep(g)


def test_sweep_on_graphs_of_zero_one_and_two_vertices():
    assert _sweep(SimpleGraph([], [])) == ((), [])
    assert _sweep(SimpleGraph(["a"], [0])) == (((1,),), [0])
    assert _sweep(SimpleGraph(["a", "b"], [2, 1])) == (
        ((1, 3), (2, 3)), [2, 1])
    with pytest.raises(Disconnected, match="graph is not connected"):
        _sweep(SimpleGraph(["a", "b"], [0, 0]))


def count_searches(monkeypatch) -> list[int]:
    """Record the source of every `SimpleGraph.bfs` call from here on."""
    sources: list[int] = []
    bfs = SimpleGraph.bfs
    monkeypatch.setattr(SimpleGraph, "bfs", lambda g, s: (
        sources.append(s) or bfs(g, s)))
    return sources


def test_mmd_rows_search_per_orbit_only_where_the_orbits_are_few(
        monkeypatch):
    # 2^9 (510 vertices, 8 orbits) and a blow-up of 2^8 whose swaps fix
    # atom 0 (367 vertices, 21 orbits) take one search per orbit; a
    # twin-reduced chain product (121 vertices in 90 orbits) and every
    # graph without generators take none
    pc = {m: 2 for m in range(1, 255)
          if m & 1 and m.bit_count() % 2 or m.bit_count() in (2, 5)}
    few = [zero_divisor_graph(boolean_lattice(9)),
           zero_divisor_graph(build_blowup(BlowupSpec(8, pc)))]
    many = [twin_reduce(zero_divisor_graph(
        product_of_chains([2, 2, 3, 3, 4, 4])))[0]]
    many += [zero_divisor_graph(build_blowup(spec)) for spec in BLOWUPS[:3]]
    want = {id(g): pair_loop_mmd_rows(g) for g in few + many}
    sources = count_searches(monkeypatch)
    for G, orbits in zip(few, (8, 21)):
        gens = _coordinate_swaps(G)[0]
        sources.clear()
        assert _mmd_rows(G, gens) == want[id(G)]
        assert len(sources) == orbits, G.n
        sources.clear()
        assert _mmd_rows(fresh(G)) == want[id(G)]
        assert not sources
    for G in many:
        gens = _coordinate_swaps(G)[0]
        sources.clear()
        assert _mmd_rows(fresh(G), gens) == _mmd_rows(fresh(G)) == want[id(G)]
        assert not sources, G.n


def test_strong_resolving_graph_is_the_plain_one_on_every_input(
        corpus_graphs):
    graphs = random_graphs(600, 341) + corpus_graphs + large_graphs()
    connected = 0
    for g in graphs:
        try:
            want = plain_gsr(g)
        except Disconnected:
            with pytest.raises(Disconnected):
                strong_resolving_graph(fresh(g))
            continue
        connected += 1
        assert strong_resolving_graph(fresh(g)).labeled_equal(want)
    assert connected > 600


def test_strong_resolving_graph_asks_for_swaps_only_when_they_can_pay(
        monkeypatch):
    # on the corpus, 16 times the distinct sorted coordinate tuples always
    # exceeds the vertex count, so the swaps are never asked for; G(2^9)
    # has 510 vertices and 8 sorted tuples, and the size-2 blow-up of 2^8
    # 508 vertices and 14, so both ask, and rows per orbit follow
    def refuse(g):
        raise AssertionError("the swaps were asked for")
    graphs = []
    for _, _, LB in corpus(0, 300):
        G = zero_divisor_graph(LB)
        graphs += [G, twin_reduce(G)[0]]
    want = [plain_gsr(g) for g in graphs]
    monkeypatch.setattr(metric, "_coordinate_swaps", refuse)
    for g, gsr in zip(graphs, want):
        assert strong_resolving_graph(fresh(g)).labeled_equal(gsr)
    monkeypatch.undo()
    asked = []
    swaps = metric._coordinate_swaps
    monkeypatch.setattr(metric, "_coordinate_swaps", lambda g: (
        asked.append(g.n) or swaps(g)))
    sources = count_searches(monkeypatch)
    for G, sorted_tuples, orbits in (
            (zero_divisor_graph(boolean_lattice(9)), 8, 8),
            (zero_divisor_graph(build_blowup(
                BlowupSpec(8, dict.fromkeys(range(1, 255), 2)))), 14, 14)):
        assert len({tuple(sorted(lab[1:-1].split(",")))
                    for lab in G.labels}) == sorted_tuples
        assert not metric._many_orbits(G)
        want = plain_gsr(G)
        asked.clear()
        sources.clear()
        assert strong_resolving_graph(G).labeled_equal(want)
        assert asked == [G.n]
        assert len(sources) == orbits
