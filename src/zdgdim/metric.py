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

from collections import Counter
from itertools import combinations
from typing import Sequence

from .blowup import BlowupSpec, coordinates_label, tuple_coordinates
from .errors import (Disconnected, HypothesisUnmet, NotApplicable,
                     NotAZeroDivisor, TooLarge)
from .graphs import SimpleGraph, remove_isolated, zero_divisor_graph
from .poset import FinitePoset, _bits

DEFAULT_BRUTE_CAP = 16


# -- distances ---------------------------------------------------------------

def distance_balls(G: SimpleGraph) -> tuple[tuple[int, ...], ...]:
    """`G.balls(s)` for every vertex s: element d of row s is the bitmask of
    the vertices within distance d of s.

    The balls are computed once per graph and kept on it; every distance
    and mutually-maximally-distant question in this module reads them.
    """
    if G._balls is None:
        balls = tuple(G.balls(s) for s in range(G.n))
        if balls and balls[0][-1] != (1 << G.n) - 1:
            raise Disconnected("graph is not connected")
        G._balls = balls
    return G._balls


def diameter(G: SimpleGraph) -> int:
    """The largest eccentricity."""
    return max((len(ball) - 1 for ball in distance_balls(G)), default=0)


def distance_by_pseudocomplement(LB: FinitePoset, x: str, y: str) -> int:
    """Distance in G(L^B) read off the pseudocomplement trichotomy:
    1 iff y <= x*, else 3 iff y* <= x**, else 2."""
    if not (LB.is_zero_divisor(x) and LB.is_zero_divisor(y)):
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
    """S resolves G when distance vectors to S separate all vertex pairs."""
    return _covers_all_pairs(G, S, strong=False)


def is_strong_resolving(G: SimpleGraph, W: Sequence[str]) -> bool:
    """W strong-resolves G when every vertex pair lies on a shortest path
    to (or from) some member of W."""
    return _covers_all_pairs(G, W, strong=True)


def _pair_cover_masks(G: SimpleGraph, strong: bool) -> list[int]:
    """For each vertex pair, the bitmask of vertices resolving it, read off
    the spheres S_k(x) = ball[k] & ~ball[k-1].

    With v in u's sphere of radius d, w strongly resolves the pair iff it
    lies in some S_k(v) & S_{d+k}(u) or S_k(u) & S_{d+k}(v): one of the pair
    is on a shortest path from the other to w.  w resolves the pair iff it
    lies in no S_k(u) & S_k(v).
    """
    spheres = [[b & ~a for a, b in zip((0,) + ball, ball)]
               for ball in distance_balls(G)]

    def meet(xs: list[int], ys: list[int]) -> int:
        m = 0
        for x, y in zip(xs, ys):
            m |= x & y
        return m
    full = (1 << G.n) - 1
    masks = []
    for u, su in enumerate(spheres):
        later = -1 << u + 1
        for d in range(1, len(su)):
            for v in _bits(su[d] & later):
                sv = spheres[v]
                if strong:
                    masks.append(meet(sv, su[d:]) | meet(su, sv[d:]))
                else:
                    masks.append(full & ~meet(su, sv))
    return masks


def _covers_all_pairs(G: SimpleGraph, S: Sequence[str], strong: bool) -> bool:
    w = sum({1 << G.index(lab) for lab in S})
    return all(m & w for m in _pair_cover_masks(G, strong))


def _min_cover(G: SimpleGraph, strong: bool, cap: int) -> tuple[str, ...]:
    """The first vertex set in subset order that resolves (or strongly
    resolves) every pair: smallest size first, then lexicographic."""
    if G.n > cap:
        raise TooLarge(f"brute force capped at {cap} vertices, graph has {G.n}")
    masks = _pair_cover_masks(G, strong)
    for size in range(G.n + 1):
        for sub in combinations(range(G.n), size):
            w = 0
            for i in sub:
                w |= 1 << i
            if all(m & w for m in masks):
                return tuple(G.labels[i] for i in sub)
    raise AssertionError("the full vertex set always resolves")


def metric_dimension_bruteforce(G: SimpleGraph,
                                cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Smallest resolving set size, by subset enumeration in ascending size."""
    return len(_min_cover(G, strong=False, cap=cap))


def sdim_bruteforce(G: SimpleGraph, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Smallest strong resolving set size, by subset enumeration."""
    return len(_min_cover(G, strong=True, cap=cap))


def minimum_strong_resolving_set(G: SimpleGraph,
                                 cap: int = DEFAULT_BRUTE_CAP) -> tuple[str, ...]:
    """A minimum strong resolving set (first in subset order, so the
    lexicographically least one for the sorted vertex labels)."""
    return _min_cover(G, strong=True, cap=cap)


# -- boundary and the strong resolving graph ----------------------------------

def _mmd_rows(G: SimpleGraph) -> list[int]:
    """Row u: the vertices mutually maximally distant from u.  A pair
    u < v, found in u's sphere of radius d, is kept when every neighbour of
    u lies in v's ball of radius d and every neighbour of v in u's."""
    balls = distance_balls(G)
    adj = G.adj
    rows = [0] * G.n
    for u, ball in enumerate(balls):
        later = -1 << u + 1
        for d in range(1, len(ball)):
            for v in _bits(ball[d] & ~ball[d - 1] & later):
                if (adj[u] & ~balls[v][d] == 0
                        and adj[v] & ~ball[d] == 0):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
    return rows


def mutually_maximally_distant(G: SimpleGraph, u: str, v: str) -> bool:
    """The definition, pair by pair: no neighbour of either vertex lies
    farther from the other than the two lie apart."""
    if u == v:
        return False
    balls = distance_balls(G)

    def dist(a: int, b: int) -> int:
        return next(d for d, ball in enumerate(balls[a]) if ball >> b & 1)
    i, j = G.index(u), G.index(v)
    d = dist(i, j)
    return (all(dist(w, j) <= d for w in _bits(G.adj[i]))
            and all(dist(w, i) <= d for w in _bits(G.adj[j])))


def boundary(G: SimpleGraph) -> list[str]:
    """Vertices participating in some mutually-maximally-distant pair: the
    vertices of G_SR, in sorted label order."""
    return list(strong_resolving_graph(G).labels)


def strong_resolving_graph(G: SimpleGraph) -> SimpleGraph:
    """G_SR: boundary vertices, mutually-maximally-distant pairs as edges."""
    rows = _mmd_rows(G)
    return SimpleGraph.from_rows(
        [lab if row else None for lab, row in zip(G.labels, rows)], rows)


# -- class-based shortcut graphs ----------------------------------------------

def gstar_star(LB: FinitePoset) -> SimpleGraph:
    """G**: vertices Z*(L^B); x ~ y iff the classes coincide, or the classes
    meet above [0] while being incomparable in the Boolean quotient."""
    part = LB.quotient_classes()
    if part.boolean_image is None:
        raise NotApplicable("annihilator quotient is not Boolean")
    classes = ((lab, part.class_of[LB.index(lab)])
               for lab in LB.zero_divisors())

    def adjacent(ci: int, cj: int) -> bool:
        mi, mj = part.boolean_image[ci], part.boolean_image[cj]
        return ci == cj or (mi & mj != 0 and mi & ~mj != 0 and mj & ~mi != 0)
    return SimpleGraph.from_rule(classes, adjacent)


def gstar(LB: FinitePoset) -> SimpleGraph:
    """G*: the zero-divisor graph itself when complete, else G** with its
    isolated vertices removed."""
    G = zero_divisor_graph(LB)
    if G.is_complete():
        return G
    return remove_isolated(gstar_star(LB))


# -- exact independent set / vertex cover -------------------------------------

def _alpha(adj: Sequence[int], cand: int,
           gens: Sequence[Sequence[int]] = ()) -> int:
    """Exact max independent set size on the vertices of cand.

    Each search node covers cand by cliques greedily: the candidates, in
    ascending order of their degree inside cand (ties by index), each join
    the first clique whose members are all their neighbours, or start a
    new one.  The cover gives both the bound and the branching order, as
    in colour-ordered branch and bound (Tomita & Seki's MCQ): the cliques
    are searched from last to first, and with only cliques 0..k left an
    independent set gains at most k + 1 vertices, one per clique.

    gens are automorphisms of the graph, each a list mapping every vertex
    to its image, under which cand is invariant.  They make the search
    orbital branching (Ostrowski, Linderoth, Rossi & Smriglio, 2011): at
    each node the group they generate fixes every vertex included so far
    and maps the node's candidates onto themselves, so an independent set
    through any vertex of v's orbit is the image of one through v.  After
    the include branch of v, the exclude branch drops v's whole orbit,
    and the include branch keeps only the generators that fix v.  With
    no gens every orbit is a single vertex and the search is the plain one.
    """
    best = 0

    def orbit(v: int, gens) -> int:
        seen = 1 << v
        if not gens:
            return seen
        todo = [v]
        for u in todo:
            for g in gens:
                w = g[u]
                if not seen >> w & 1:
                    seen |= 1 << w
                    todo.append(w)
        return seen

    def expand(cand: int, size: int, gens):
        nonlocal best
        cliques: list[int] = []
        for v in sorted(_bits(cand), key=lambda u: (adj[u] & cand).bit_count()):
            for k, members in enumerate(cliques):
                if members & ~adj[v] == 0:
                    cliques[k] = members | 1 << v
                    break
            else:
                cliques.append(1 << v)
        for k in range(len(cliques) - 1, -1, -1):
            for v in _bits(cliques[k]):
                if not cand >> v & 1:
                    continue    # dropped with an earlier vertex's orbit
                if size + k + 1 <= best:
                    return
                # include v, then go on without v's orbit
                expand(cand & ~(adj[v] | 1 << v), size + 1,
                       [g for g in gens if g[v] == v])
                cand &= ~orbit(v, gens)
        best = max(best, size)

    expand(cand, 0, gens)
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

def twin_reduce(G: SimpleGraph) -> tuple[SimpleGraph, int]:
    """G cut down to the two smallest-index members of every twin class,
    and the number of vertices dropped.

    Twins share their open neighbourhood (false twins) or their closed
    one (true twins).  An open key adj[v] never equals another vertex's
    closed key adj[u] | 1 << u, so one counter holds both kinds of class.
    A twin-free G comes back as itself, with its balls.
    """
    members: Counter[int] = Counter()
    labels: list[str | None] = list(G.labels)
    for v, row in enumerate(G.adj):
        closed = row | 1 << v
        members[row] += 1
        members[closed] += 1
        if members[row] > 2 or members[closed] > 2:
            labels[v] = None
    dropped = labels.count(None)
    if not dropped:
        return G, 0
    return SimpleGraph.from_rows(labels, G.adj), dropped


def _tuple_parts(labels: Sequence[str]) -> list[list[str]] | None:
    """The `tuple_coordinates` of every label, when all labels are tuple
    labels of one length; else None."""
    parts = [tuple_coordinates(lab) for lab in labels]
    if None in parts or len({len(p) for p in parts}) > 1:
        return None
    return parts


def _swap_perm(index: dict[str, int], parts: Sequence[list[str]],
               i: int, j: int) -> list[int] | None:
    """The vertex map that swaps coordinates i and j in every label, or
    None when some swapped label is not a vertex.  The swap is one-to-one
    on labels, so a map into the vertices is a permutation of them."""
    perm = []
    for p in parts:
        q = p.copy()
        q[i], q[j] = q[j], q[i]
        w = index.get(coordinates_label(q))
        if w is None:
            return None
        perm.append(w)
    return perm


def _is_automorphism(nbrs: Sequence[list[int]], adj: Sequence[int],
                     perm: Sequence[int]) -> bool:
    """Every row, mapped through the permutation perm, is the row of its
    image; nbrs[v] lists the bits of adj[v].  O(|E|)."""
    bit = [1 << w for w in perm]
    return all(sum(map(bit.__getitem__, nbrs[v])) == adj[w]
               for v, w in enumerate(perm))


def _coordinate_swaps(G: SimpleGraph) -> list[tuple[int, int]]:
    """The coordinate pairs (i, j) whose swap in every tuple label is an
    automorphism of G; none unless the labels are tuples of one length.

    Pairs are taken in order.  A swap is checked against G's rows only
    when i and j are not yet joined by checked swaps; when they are, the
    swap is a product of those and needs no check.  So a spanning set of
    the swaps is checked, 8 of the 36 on 2^9, and every swap is listed.
    """
    parts = _tuple_parts(G.labels)
    if not parts:
        return []
    comp = list(range(len(parts[0])))   # coordinates joined by checked swaps
    nbrs = None
    swaps = []
    for i, j in combinations(range(len(comp)), 2):
        if comp[i] != comp[j]:
            perm = _swap_perm(G._index, parts, i, j)
            if perm is None:
                continue
            if nbrs is None:
                nbrs = [list(_bits(row)) for row in G.adj]
            if not _is_automorphism(nbrs, G.adj, perm):
                continue
            old = comp[j]
            comp = [comp[i] if c == old else c for c in comp]
        swaps.append((i, j))
    return swaps


def _swap_generators(G: SimpleGraph, H: SimpleGraph) -> list[list[int]]:
    """The coordinate swaps that `_coordinate_swaps` verifies on G, as
    permutations of H's vertices.  H's labels are G's labels of a vertex
    set that every automorphism of G maps onto itself, such as G_SR's; a
    swapped label outside H raises."""
    gens = []
    swaps = _coordinate_swaps(G)
    if swaps:
        parts = _tuple_parts(H.labels)
        for i, j in swaps:
            perm = _swap_perm(H._index, parts, i, j)
            if perm is None:
                raise AssertionError(f"the swap of coordinates {i} and {j} "
                                     "does not map the vertex set onto itself")
            gens.append(perm)
    return gens


def sdim_via_gsr(G: SimpleGraph) -> int:
    """sdim(G) = vertex cover number of the strong resolving graph.

    The cover is solved on `twin_reduce(G)`, and the dropped vertices are
    added back.  A twin class is a clique of G_SR whose members have the
    same neighbours outside it, so each dropped member adds exactly one
    to the cover.  Two members are kept, not one: deleting a twin while
    its partner stays keeps every distance and every mutually maximally
    distant pair among the rest, the two survivors stay such a pair, and
    a disconnected G stays disconnected.

    The solver branches on orbits (see `_alpha`) of the coordinate swaps
    that `_coordinate_swaps` verifies on the reduced graph's rows; no
    theorem about the input is trusted.  An automorphism keeps distances
    and mutually maximally distant pairs, so it maps G_SR onto itself.
    Labels that are not tuples of one length, or with no swap that is an
    automorphism, leave the plain search.
    """
    reduced, dropped = twin_reduce(G)
    gsr = strong_resolving_graph(reduced)
    gens = _swap_generators(reduced, gsr)
    return gsr.n - _alpha(gsr.adj, (1 << gsr.n) - 1, gens) + dropped


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
