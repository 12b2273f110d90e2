import functools
from collections import Counter
from itertools import combinations, product
from operator import itemgetter

import pytest

from zdgdim import (Disconnected, FinitePoset, LabelCollision, SimpleGraph,
                    build_blowup, distance_balls, from_cover_relations,
                    independence_number, tuple_label, zero_divisor_graph)
from zdgdim.metric import _alpha, _minimal_masks, _pair_cover_masks, _swap
from zdgdim.poset import _bits
from zdgdim.verify import (FIG3, SUITES, VerifySuiteResult, corpus,
                           corpus_specs)

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


def distinct_specs(seed: int, count: int) -> int:
    """The distinct normalized specs among the draws of
    `corpus_specs(seed, count)`: the specs a corpus suite of verify
    checks, every other draw replaying one of them."""
    return len({repr(spec.normalized())
                for _, spec in corpus_specs(seed, count)})


def per_draw_cases(name, seed, count, check, build):
    """`verify._corpus_cases` by a plain loop with no memo: check runs on
    every draw of `corpus_specs(seed, count)`, on what build makes of it
    afresh, and its cases take the draw's name.  The oracle of the
    replayed cases."""
    out = VerifySuiteResult(name)
    for draw, spec in corpus_specs(seed, count):
        part = VerifySuiteResult(name)
        check(part, spec, build(spec))
        out.case_names += [draw + case for case in part.case_names]
        out.failures += [dict(f, case=draw + f["case"])
                         for f in part.failures]
    return out


@pytest.fixture(scope="session")
def suite_result():
    """Run a verify suite on the acceptance corpus, once per session."""
    return functools.cache(lambda name: SUITES[name](CORPUS_SEED, CORPUS_SIZE))


# -- poset and graph queries that only the tests make --------------------------

def meet(P, a: str, b: str):
    """The meet of a and b in P, None when it does not exist: the element
    whose down-set is down(a) & down(b)."""
    k = P._down_index.get(P.down[P.index(a)] & P.down[P.index(b)])
    return None if k is None else P.labels[k]


def dual(P):
    """P with its order reversed and its bounds swapped: the relation
    lists above each element the elements whose relation lists it."""
    above = [[] for _ in P.labels]
    for j, row in enumerate(P.below):
        for i in row:
            above[i].append(j)
    return FinitePoset(P.labels, above, bottom=P.top, top=P.bottom)


def has_edge(g, a: str, b: str) -> bool:
    return g.adj[g.index(a)] >> g.index(b) & 1 == 1


def neighbors(g, a: str) -> list[str]:
    return [g.labels[j] for j in _bits(g.adj[g.index(a)])]


def degree(g, a: str) -> int:
    return g.adj[g.index(a)].bit_count()


# -- definitions the tests check the package against --------------------------

def cover_number(g: SimpleGraph) -> int:
    """The vertex cover number, |V| - beta."""
    return g.n - independence_number(g)


def bfs_balls(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Every vertex's balls by one `SimpleGraph.bfs` per source, the route
    that `metric._sweep` replaced; raises Disconnected when a search does
    not reach every vertex, as the package does."""
    balls = [g.bfs(s)[0] for s in range(g.n)]
    if any(ball[-1] != (1 << g.n) - 1 for ball in balls):
        raise Disconnected("graph is not connected")
    return balls


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


def perm_of_steps(steps, n: int) -> list[int]:
    """The vertex map of a swap given as `(δ, mask)` steps, on n vertices:
    the image of v is the one bit of `_swap(steps, 1 << v)`."""
    return [_swap(steps, 1 << v).bit_length() - 1 for v in range(n)]


def index_bit_generators(gens, n: int) -> list[tuple]:
    """Each swap of gens, on the vertices 0..n-1, paired with the exact
    set of vertices it moves, by index bits: g(v) != v iff some index bit b
    differs between v and g(v), iff v lies in g(X_b) ^ X_b for the
    index-bit class X_b = {v < n : bit b of v}, one swap of a mask per
    index bit.  X_b is the block 2^b..2^(b+1) - 1 of every period
    2^(b+1).  The oracle of the moved sets `_coordinate_swaps` hands
    over."""
    classes = []
    half = 1
    while half < n:
        period = half << 1
        reps = -(-n // period)
        repunit = ((1 << period * reps) - 1) // ((1 << period) - 1)
        block = ((1 << half) - 1) << half
        classes.append((block * repunit) & ((1 << n) - 1))
        half = period
    pairs = []
    for steps in gens:
        moved = 0
        for x in classes:
            moved |= _swap(steps, x) ^ x
        pairs.append((steps, moved))
    return pairs


def pair_loop_mmd_rows(g: SimpleGraph) -> list[int]:
    """The G_SR rows by a scan of every vertex pair: u < v, found in u's
    sphere of radius d, are kept when every neighbour of u lies in v's ball
    of radius d and every neighbour of v in u's.  The balls come from one
    search per source (`bfs_balls`), not from `metric._sweep`."""
    balls = bfs_balls(g)
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


def all_masks_bruteforce(g: SimpleGraph) -> int:
    """sdim by subset enumeration in ascending size, each subset tested
    against the strong resolving mask of every vertex pair."""
    masks = _pair_cover_masks(g)
    for size in range(g.n + 1):
        for sub in combinations(range(g.n), size):
            w = 0
            for i in sub:
                w |= 1 << i
            if all(m & w for m in masks):
                return size
    raise AssertionError("the full vertex set always resolves")


def subset_loop_bruteforce(g: SimpleGraph) -> int:
    """sdim by subset enumeration in ascending size, each subset tested
    against the inclusion-minimal pair masks only: the brute force that
    `metric._hits_within` replaced."""
    masks = _minimal_masks(_pair_cover_masks(g))
    bits = [1 << i for i in range(g.n)]
    for size in range(g.n + 1):
        for sub in combinations(bits, size):
            w = sum(sub)
            if all(m & w for m in masks):
                return size
    raise AssertionError("the full vertex set always resolves")


def solve_per_vertex_mis(g: SimpleGraph) -> list[str]:
    """The lexicographically least maximum independent set, one exact
    solve per vertex: v is taken when taking it leaves room for a maximum
    set among the candidates that stay."""
    adj = g.adj
    full = (1 << g.n) - 1
    target = _alpha(adj, full)
    chosen: list[int] = []
    cand = full
    for v in range(g.n):
        if not cand >> v & 1:
            continue
        rest = cand & ~(adj[v] | 1 << v)
        if len(chosen) + 1 + _alpha(adj, rest) == target:
            chosen.append(v)
            cand = rest
        else:
            cand &= ~(1 << v)
    return [g.labels[v] for v in chosen]


def first_fit_cover(adj, cand: int) -> list[int]:
    """The greedy clique cover of cand by first fit: the candidates, in
    ascending order of their degree inside cand (ties by index), each join
    the first clique whose members are all their neighbours, or start a
    new one."""
    cliques: list[int] = []
    for v in sorted(_bits(cand), key=lambda u: (adj[u] & cand).bit_count()):
        for k, members in enumerate(cliques):
            if members & ~adj[v] == 0:
                cliques[k] = members | 1 << v
                break
        else:
            cliques.append(1 << v)
    return cliques


def top_down_bfs(g: SimpleGraph, s: int) -> tuple[tuple[int, ...], int]:
    """`SimpleGraph.bfs(s)` by top-down steps alone: each level ORs the
    rows of its sphere, the next sphere is that union less the ball, and
    the previous sphere's vertices outside the union are far."""
    ball = [1 << s]
    sphere, last, far = ball[0], 0, 0
    while sphere:
        reach = 0
        for v in _bits(sphere):
            reach |= g.adj[v]
        far |= last & ~reach
        last, sphere = sphere, reach & ~ball[-1]
        if sphere:
            ball.append(ball[-1] | sphere)
    return tuple(ball), (far | last) & ~ball[0]


def counter_twin_reduce(g: SimpleGraph) -> tuple[SimpleGraph, int]:
    """`twin_reduce` by one counter of open and closed rows, in index
    order: a vertex is dropped when it is the third or a later vertex seen
    with its open row or with its closed row."""
    members: Counter[int] = Counter()
    labels: list[str | None] = list(g.labels)
    for v, row in enumerate(g.adj):
        closed = row | 1 << v
        members[row] += 1
        members[closed] += 1
        if members[row] > 2 or members[closed] > 2:
            labels[v] = None
    dropped = labels.count(None)
    if not dropped:
        return g, 0
    return SimpleGraph.from_rows(labels, g.adj), dropped


def pattern_of(flags) -> int:
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def reduced_ring_vertices_per_tuple(field_orders):
    """The reduced ring's (label, support) pairs, one tuple at a time:
    nonzero tuples with a zero coordinate, in `itertools.product` order."""
    return [(tuple_label(v), pattern_of(a != 0 for a in v))
            for v in product(*[range(q) for q in field_orders])
            if any(v) and not all(v)]


def comaximal_vertices_per_tuple(pairs):
    """The comaximal graph's (label, non-unit coordinates) pairs, one
    residue at a time, in `itertools.product` order: those whose non-unit
    coordinates are neither none nor all."""
    ps = [p for p, _ in pairs]
    full = (1 << len(ps)) - 1
    out = []
    for x in product(*[range(p ** e) for p, e in pairs]):
        mask = pattern_of(xi % p == 0 for xi, p in zip(x, ps))
        if 0 < mask < full:
            out.append((tuple_label(x), mask))
    return out


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
