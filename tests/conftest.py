import functools
from itertools import combinations
from operator import itemgetter

import pytest

from zdgdim import (LabelCollision, SimpleGraph, build_blowup,
                    distance_balls, from_cover_relations, independence_number,
                    tuple_label, zero_divisor_graph)
from zdgdim.poset import _bits
from zdgdim.verify import FIG3, SUITES, corpus

# Acceptance corpus: 50 seeded random blow-up specs plus the named ones.
CORPUS_SEED = 1234
CORPUS_SIZE = 50


@pytest.fixture(scope="session")
def fig3_spec():
    return FIG3


@pytest.fixture(scope="session")
def fig3_lattice(fig3_spec):
    return build_blowup(fig3_spec)


def make_fig2_lattice():
    """The 18-element lattice with a size-5 and a size-2 annihilator class
    whose zero-divisor graph is K_{2,5}."""
    labels = (["0"] + [f"x1_{i}" for i in range(1, 6)]
              + ["x2_1", "x2_2"] + [f"d{i}" for i in range(1, 10)] + ["1"])
    covers = [
        ("0", "x1_1"),
        ("x1_1", "x1_2"), ("x1_1", "x1_3"), ("x1_1", "x1_4"),
        ("x1_2", "x1_5"), ("x1_3", "x1_5"), ("x1_4", "x1_5"),
        ("0", "x2_1"), ("x2_1", "x2_2"),
        ("x1_1", "d1"), ("x2_1", "d1"),
        ("d1", "d2"), ("d1", "d3"), ("d1", "d4"),
        ("x1_2", "d2"), ("x1_3", "d3"), ("x1_4", "d4"),
        ("d2", "d5"), ("d3", "d5"), ("d4", "d5"), ("x1_5", "d5"),
        ("x2_2", "d6"), ("d1", "d6"),
        ("d6", "d7"), ("d6", "d8"), ("d6", "d9"),
        ("d2", "d7"), ("d3", "d8"), ("d4", "d9"),
        ("d7", "1"), ("d8", "1"), ("d9", "1"), ("d5", "1"),
    ]
    return from_cover_relations(labels, covers, "0", "1")


@pytest.fixture(scope="session")
def fig2_lattice():
    return make_fig2_lattice()


@pytest.fixture(scope="session")
def corpus_graphs():
    """(name, spec, lattice, zero-divisor graph) for every corpus member."""
    return [(name, spec, LB, zero_divisor_graph(LB))
            for name, spec, LB in corpus(CORPUS_SEED, CORPUS_SIZE)]


@pytest.fixture(scope="session")
def suite_result():
    """Run a verify suite on the acceptance corpus, once per session."""
    return functools.cache(lambda name: SUITES[name](CORPUS_SEED, CORPUS_SIZE))


# -- definitions the tests check the package against --------------------------

def cover_number(g: SimpleGraph) -> int:
    """The vertex cover number, |V| - beta."""
    return g.n - independence_number(g)


def mutually_maximally_distant(g: SimpleGraph, u: str, v: str) -> bool:
    """The definition, pair by pair: no neighbour of either vertex lies
    farther from the other than the two lie apart."""
    if u == v:
        return False
    balls = distance_balls(g)

    def dist(a: int, b: int) -> int:
        return next(d for d, ball in enumerate(balls[a]) if ball >> b & 1)
    i, j = g.index(u), g.index(v)
    d = dist(i, j)
    return (all(dist(w, j) <= d for w in _bits(g.adj[i]))
            and all(dist(w, i) <= d for w in _bits(g.adj[j])))


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


def plain_gsr(g: SimpleGraph) -> SimpleGraph:
    """G_SR from the rows of `pair_loop_mmd_rows`, which read no
    coordinate swap."""
    rows = pair_loop_mmd_rows(g)
    return SimpleGraph.from_rows(
        [lab if row else None for lab, row in zip(g.labels, rows)], rows)


def metric_dimension_bruteforce(g: SimpleGraph) -> int:
    """The metric dimension by its definition: the size of the smallest
    vertex set S whose distance vectors (d(v, s) for s in S) tell every
    two vertices apart, found by trying every set in ascending size."""
    # dist[u][v]: the index of the first of u's balls that holds v
    dist = [[next(d for d, ball in enumerate(balls) if ball >> v & 1)
             for v in range(g.n)] for balls in distance_balls(g)]
    for size in range(g.n + 1):
        for S in combinations(range(g.n), size):
            if len({tuple(row[s] for s in S) for row in dist}) == g.n:
                return size
    raise AssertionError("the full vertex set always resolves")


def rule_graph(vertices, adjacent) -> SimpleGraph:
    """The graph on (label, value) pairs, labels taken through str(), with
    a ~ b iff adjacent(value_a, value_b): the symmetric rule is called once
    per unordered pair."""
    verts = sorted(((str(lab), val) for lab, val in vertices),
                   key=itemgetter(0))
    labs = [lab for lab, _ in verts]
    if len(set(labs)) != len(labs):
        raise LabelCollision("duplicate vertex labels")
    adj = [0] * len(verts)
    for i, (_, a) in enumerate(verts):
        for j in range(i + 1, len(verts)):
            if adjacent(a, verts[j][1]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return SimpleGraph(labs, adj)


def ann_rows_zdg(P) -> SimpleGraph:
    """G(P) from its annihilator rows: the neighbours of x are the nonzero
    elements of ann(x), each of which is itself in Z*."""
    zd = set(P.zero_divisors())
    zero = 1 << P.bottom
    return SimpleGraph.from_rows(
        [lab if lab in zd else None for lab in P.labels],
        [m & ~zero for m in P._ann_masks()])


def random_bounded_relation(rng):
    """Labels and pairs of a random acyclic relation on shuffled labels,
    with repeated pairs and transitive (non-Hasse) pairs, bounded by a
    bottom and a top that are linked to every element."""
    n = rng.randint(0, 12)
    rank = list(range(n))
    rng.shuffle(rank)      # a pair (a, b) is added only if a ranks lower
    pairs = [(a, b) for a in range(n) for b in range(n)
             if rank[a] < rank[b] and rng.random() < 0.3]
    pairs += rng.choices(pairs, k=len(pairs) // 3)
    pairs += [("bot", x) for x in range(n)]
    pairs += [(x, "top") for x in range(n)]
    pairs.append(("bot", "top"))
    rng.shuffle(pairs)
    labels = ["bot", *range(n), "top"]
    rng.shuffle(labels)
    return labels, pairs


def bounded_poset(labels, pairs):
    return from_cover_relations(labels, [(str(a), str(b)) for a, b in pairs],
                                "bot", "top")


def boolean_ring_annihilator_graph(n: int) -> SimpleGraph:
    """AG of the Boolean ring prod_1^n Z_2 by its definition: the nonzero
    non-units x, y, as bitmasks, adjacent when ann(xy) differs from
    ann(x) | ann(y), each annihilator a set of ring elements."""
    ring = range(1 << n)
    ann = [frozenset(z for z in ring if z & x == 0) for x in ring]
    return rule_graph(
        ((tuple_label([x >> i & 1 for i in range(n)]), x)
         for x in range(1, (1 << n) - 1)),
        lambda x, y: ann[x & y] != ann[x] | ann[y])


def incomparability_graph(L) -> SimpleGraph:
    """Incomp(L) by its definition: the elements other than the bounds,
    adjacent when neither lies below the other."""
    return rule_graph(
        ((lab, lab) for i, lab in enumerate(L.labels)
         if i not in (L.bottom, L.top)),
        lambda a, b: not L.leq(a, b) and not L.leq(b, a))
