"""Distances, strong resolving machinery, and the three-way sdim computation.

The strong metric dimension of a connected graph equals the vertex cover
number of its strong resolving graph, whose edges are the mutually maximally
distant pairs.  For blow-up lattices two shortcuts are available: the
class-based graph G** (and G* without isolated vertices) reproduces the
strong resolving graph, and a closed formula gives sdim = |Z*| - 2n + 2 for
n >= 3 atoms.  Everything here also works on arbitrary connected graphs,
which the join-shaped application graphs require.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .blowup import BlowupSpec
from .errors import (Disconnected, HypothesisUnmet, NotApplicable,
                     NotAZeroDivisor, TooLarge)
from .graphs import SimpleGraph, remove_isolated, zero_divisor_graph
from .poset import FinitePoset, _bits

DEFAULT_BRUTE_CAP = 16


# -- distances ---------------------------------------------------------------

def all_pairs_distances(G: SimpleGraph) -> tuple[tuple[int, ...], ...]:
    """Exact unweighted distances via one bitmask BFS per vertex.

    The table is computed once per graph and kept on it; every distance
    and mutually-maximally-distant question in this module reads it.  Rows
    are tuples, so no caller can change the shared table.
    """
    if G._dist is not None:
        return G._dist
    n = G.n
    full = (1 << n) - 1
    dist = [[0] * n for _ in range(n)]
    for s in range(n):
        row = dist[s]
        seen = 1 << s
        frontier = seen
        d = 0
        while frontier:
            d += 1
            nxt = 0
            for v in _bits(frontier):
                nxt |= G.adj[v]
            frontier = nxt & ~seen
            for v in _bits(frontier):
                row[v] = d
            seen |= frontier
        if seen != full:
            raise Disconnected("graph is not connected")
    G._dist = tuple(map(tuple, dist))
    return G._dist


def diameter(G: SimpleGraph) -> int:
    dist = all_pairs_distances(G)
    return max((d for row in dist for d in row), default=0)


def distance_by_pseudocomplement(LB: FinitePoset, x: str, y: str) -> int:
    """Distance in G(L^B) read off the pseudocomplement trichotomy:
    1 iff y <= x*, else 3 iff y* <= x**, else 2."""
    zstar = set(LB.zero_divisors())
    if x not in zstar or y not in zstar:
        raise NotAZeroDivisor(f"{x!r} and {y!r} must be nonzero zero divisors")
    if x == y:
        return 0
    xs = LB.pseudocomplement(x)
    ys = LB.pseudocomplement(y)
    if xs is None or ys is None:
        raise NotApplicable("lattice is not pseudocomplemented")
    if LB.leq(y, xs):
        return 1
    xss = LB.pseudocomplement(xs)
    if LB.leq(ys, xss):
        return 3
    return 2


# -- resolving sets by definition ---------------------------------------------

def is_resolving(G: SimpleGraph, S: Sequence[str]) -> bool:
    """S resolves G when distance vectors to S separate all vertex pairs.

    Vertices of S are separated for free by their zero coordinate, so
    checking all vertices is equivalent to checking the pairs outside S.
    """
    dist = all_pairs_distances(G)
    idx = [G.index(s) for s in S]
    vecs = {tuple(dist[v][w] for w in idx) for v in range(G.n)}
    return len(vecs) == G.n


def _strongly_resolves(dist, w: int, u: int, v: int) -> bool:
    return (dist[u][w] == dist[u][v] + dist[v][w]
            or dist[v][w] == dist[v][u] + dist[u][w])


def is_strong_resolving(G: SimpleGraph, W: Sequence[str]) -> bool:
    """W strong-resolves G when every vertex pair lies on a shortest path
    to (or from) some member of W."""
    dist = all_pairs_distances(G)
    idx = [G.index(w) for w in W]
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if not any(_strongly_resolves(dist, w, u, v) for w in idx):
                return False
    return True


def _pair_cover_masks(G: SimpleGraph, strong: bool) -> list[int]:
    """For each vertex pair, the bitmask of vertices resolving it."""
    dist = all_pairs_distances(G)
    masks = []
    for u in range(G.n):
        for v in range(u + 1, G.n):
            m = 0
            for w in range(G.n):
                if strong:
                    ok = _strongly_resolves(dist, w, u, v)
                else:
                    ok = dist[u][w] != dist[v][w]
                if ok:
                    m |= 1 << w
            masks.append(m)
    return masks


def _min_cover_size(G: SimpleGraph, strong: bool, cap: int,
                    want_witness: bool):
    if G.n > cap:
        raise TooLarge(f"brute force capped at {cap} vertices, graph has {G.n}")
    masks = _pair_cover_masks(G, strong)
    if not masks:
        return (0, ()) if want_witness else 0
    for size in range(1, G.n + 1):
        for sub in combinations(range(G.n), size):
            w = 0
            for i in sub:
                w |= 1 << i
            if all(m & w for m in masks):
                if want_witness:
                    return size, tuple(G.labels[i] for i in sub)
                return size
    raise AssertionError("the full vertex set always resolves")


def metric_dimension_bruteforce(G: SimpleGraph,
                                cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Smallest resolving set size, by subset enumeration in ascending size."""
    return _min_cover_size(G, strong=False, cap=cap, want_witness=False)


def sdim_bruteforce(G: SimpleGraph, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Smallest strong resolving set size, by subset enumeration."""
    return _min_cover_size(G, strong=True, cap=cap, want_witness=False)


def minimum_strong_resolving_set(G: SimpleGraph,
                                 cap: int = DEFAULT_BRUTE_CAP) -> tuple[str, ...]:
    """A minimum strong resolving set (first in subset order, so the
    lexicographically least one for the sorted vertex labels)."""
    return _min_cover_size(G, strong=True, cap=cap, want_witness=True)[1]


# -- boundary and the strong resolving graph ----------------------------------

def _maximally_distant(G: SimpleGraph, dist, u: int, v: int) -> bool:
    """v is maximally distant from u: no neighbour of u lies farther from v."""
    duv = dist[u][v]
    return all(dist[v][w] <= duv for w in _bits(G.adj[u]))


def _mmd_pairs(G: SimpleGraph) -> list[tuple[int, int]]:
    dist = all_pairs_distances(G)
    pairs = []
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if (_maximally_distant(G, dist, u, v)
                    and _maximally_distant(G, dist, v, u)):
                pairs.append((u, v))
    return pairs


def mutually_maximally_distant(G: SimpleGraph, u: str, v: str) -> bool:
    if u == v:
        return False
    dist = all_pairs_distances(G)
    i, j = G.index(u), G.index(v)
    return (_maximally_distant(G, dist, i, j)
            and _maximally_distant(G, dist, j, i))


def boundary(G: SimpleGraph) -> list[str]:
    """Vertices participating in some mutually-maximally-distant pair: the
    vertices of G_SR, in sorted label order."""
    return list(strong_resolving_graph(G).labels)


def strong_resolving_graph(G: SimpleGraph) -> SimpleGraph:
    """G_SR: boundary vertices, mutually-maximally-distant pairs as edges."""
    pairs = _mmd_pairs(G)
    verts = sorted({i for p in pairs for i in p})
    edges = [(G.labels[u], G.labels[v]) for u, v in pairs]
    return SimpleGraph.from_edges([G.labels[i] for i in verts], edges)


# -- class-based shortcut graphs ----------------------------------------------

def gstar_star(LB: FinitePoset) -> SimpleGraph:
    """G**: vertices Z*(L^B); x ~ y iff the classes coincide, or the classes
    meet above [0] while being incomparable in the Boolean quotient."""
    part = LB.quotient_classes()
    if part.boolean_image is None:
        raise NotApplicable("annihilator quotient is not Boolean")
    verts = [LB.index(lab) for lab in LB.zero_divisors()]
    edges = []
    for a in range(len(verts)):
        i = verts[a]
        ci = part.class_of[i]
        mi = part.boolean_image[ci]
        for b in range(a + 1, len(verts)):
            j = verts[b]
            cj = part.class_of[j]
            mj = part.boolean_image[cj]
            if ci == cj or (mi & mj != 0 and mi & ~mj != 0 and mj & ~mi != 0):
                edges.append((LB.labels[i], LB.labels[j]))
    return SimpleGraph.from_edges([LB.labels[i] for i in verts], edges)


def gstar(LB: FinitePoset) -> SimpleGraph:
    """G*: the zero-divisor graph itself when complete, else G** with its
    isolated vertices removed."""
    G = zero_divisor_graph(LB)
    if G.is_complete():
        return G
    return remove_isolated(gstar_star(LB))


# -- exact independent set / vertex cover -------------------------------------

def _greedy_clique_cover(adj: Sequence[int], cand: int) -> int:
    """Number of cliques in a greedy cover of cand; upper bound for alpha."""
    cliques: list[int] = []
    for v in _bits(cand):
        av = adj[v]
        for k, members in enumerate(cliques):
            if members & ~av == 0:
                cliques[k] = members | 1 << v
                break
        else:
            cliques.append(1 << v)
    return len(cliques)


def _alpha(adj: Sequence[int], cand: int) -> int:
    """Exact max independent set size on the vertices of cand."""
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        while cand:
            if size + _greedy_clique_cover(adj, cand) <= best:
                return
            # pull out isolated candidates for free
            v = -1
            deg_v = -1
            for u in _bits(cand):
                d = (adj[u] & cand).bit_count()
                if d == 0:
                    cand &= ~(1 << u)
                    size += 1
                elif d > deg_v:
                    deg_v = d
                    v = u
            if v < 0:
                break
            # branch on the highest-degree candidate: include, then exclude
            expand(cand & ~(adj[v] | 1 << v), size + 1)
            cand &= ~(1 << v)
        best = max(best, size)

    expand(cand, 0)
    return best


def independence_number(G: SimpleGraph) -> int:
    return _alpha(G.adj, (1 << G.n) - 1)


def vertex_cover_number(G: SimpleGraph) -> int:
    """alpha(G) = |V| - beta(G), via the exact independent-set solver."""
    return G.n - independence_number(G)


def max_independent_set(G: SimpleGraph) -> list[str]:
    """The lexicographically least maximum independent set (label order)."""
    adj = G.adj
    full = (1 << G.n) - 1
    target = _alpha(adj, full)
    chosen: list[int] = []
    cand = full
    for v in range(G.n):
        if not cand >> v & 1:
            continue
        rest = cand & ~(adj[v] | 1 << v)
        if len(chosen) + 1 + _alpha(adj, rest) == target:
            chosen.append(v)
            cand = rest
        else:
            cand &= ~(1 << v)
    picked = 0
    for v in chosen:
        if adj[v] & picked:
            raise AssertionError("solver produced a dependent set")
        picked |= 1 << v
    if not all(adj[v] & picked for v in range(G.n) if not picked >> v & 1):
        raise AssertionError("solver produced a non-maximal set")
    if len(chosen) != target:
        raise AssertionError("solver produced a set of the wrong size")
    return [G.labels[v] for v in chosen]


def minimum_vertex_cover(G: SimpleGraph) -> list[str]:
    """Complement of the reported maximum independent set."""
    inside = set(max_independent_set(G))
    return [lab for lab in G.labels if lab not in inside]


# -- sdim, three ways ----------------------------------------------------------

def sdim_via_gsr(G: SimpleGraph) -> int:
    """sdim(G) = vertex cover number of the strong resolving graph."""
    return vertex_cover_number(strong_resolving_graph(G))


def sdim_formula(spec: BlowupSpec) -> int:
    """|Z*(L^B)| - 2n + 2; defined for n >= 3 atoms."""
    if spec.n < 3:
        raise HypothesisUnmet("n<3: formula inapplicable")
    return spec.total_vertices() - 2 * spec.n + 2


def beta_gsr_formula(spec: BlowupSpec) -> int:
    """Independence number of the strong resolving graph: 2n - m - 2."""
    if spec.n < 3:
        raise HypothesisUnmet(f"beta formula needs n >= 3, got n = {spec.n}")
    return 2 * spec.n - spec.singleton_atom_count() - 2
