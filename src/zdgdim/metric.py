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
from operator import itemgetter
from typing import Sequence

from .blowup import BlowupSpec, coordinates_label, tuple_coordinates
from .errors import (Disconnected, HypothesisUnmet, NotApplicable,
                     NotAZeroDivisor, TooLarge)
from .graphs import SimpleGraph, remove_isolated, zero_divisor_graph
from .poset import FinitePoset, _bits, _transpose

DEFAULT_BRUTE_CAP = 16


# -- distances ---------------------------------------------------------------

def _search(G: SimpleGraph, s: int) -> tuple[tuple[int, ...], int]:
    """`G.bfs(s)`, refusing a G that s does not span."""
    ball, far = G.bfs(s)
    if ball[-1] != (1 << G.n) - 1:
        raise Disconnected("graph is not connected")
    return ball, far


def distance_balls(G: SimpleGraph) -> tuple[tuple[int, ...], ...]:
    """The balls of `G.bfs(s)` for every vertex s: element d of row s is
    the bitmask of the vertices within distance d of s.

    The balls are computed once per graph and kept on it; every distance
    question in this module reads them.
    """
    if G._balls is None:
        G._balls = tuple(_search(G, s)[0] for s in range(G.n))
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


# -- strong resolving sets by definition --------------------------------------

def is_strong_resolving(G: SimpleGraph, W: Sequence[str]) -> bool:
    """W strong-resolves G when every vertex pair lies on a shortest path
    to (or from) some member of W."""
    w = sum({1 << G.index(lab) for lab in W})
    return all(m & w for m in _pair_cover_masks(G))


def _pair_cover_masks(G: SimpleGraph) -> list[int]:
    """For each vertex pair, the bitmask of vertices strongly resolving it,
    read off the spheres S_k(x) = ball[k] & ~ball[k-1].

    With v in u's sphere of radius d, w strongly resolves the pair iff it
    lies in some S_k(v) & S_{d+k}(u) or S_k(u) & S_{d+k}(v): one of the pair
    is on a shortest path from the other to w.
    """
    spheres = [[b & ~a for a, b in zip((0,) + ball, ball)]
               for ball in distance_balls(G)]

    def meet(xs: list[int], ys: list[int]) -> int:
        m = 0
        for x, y in zip(xs, ys):
            m |= x & y
        return m
    masks = []
    for u, su in enumerate(spheres):
        later = -1 << u + 1
        for d in range(1, len(su)):
            for v in _bits(su[d] & later):
                sv = spheres[v]
                masks.append(meet(sv, su[d:]) | meet(su, sv[d:]))
    return masks


def sdim_bruteforce(G: SimpleGraph, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Smallest strong resolving set size, by subset enumeration in
    ascending size."""
    if G.n > cap:
        raise TooLarge(f"brute force capped at {cap} vertices, graph has {G.n}")
    masks = _pair_cover_masks(G)
    for size in range(G.n + 1):
        for sub in combinations(range(G.n), size):
            w = 0
            for i in sub:
                w |= 1 << i
            if all(m & w for m in masks):
                return size
    raise AssertionError("the full vertex set always resolves")


# -- the strong resolving graph -----------------------------------------------

def _mmd_rows(G: SimpleGraph,
              gens: Sequence[Sequence[int]] = ()) -> list[int]:
    """Row u: the vertices mutually maximally distant from u.

    u and v are such a pair iff each lies in the other's far set (see
    `SimpleGraph.bfs`), so the rows are far AND its transpose
    (`poset._transpose`).  While the far sets are carried, each is kept as
    a string of n characters, '1' at each member's index.

    gens are automorphisms of G, each a list mapping every vertex to its
    image.  An automorphism g keeps distances, so far(g(u)) = g(far(u)):
    far is searched for the least vertex of each orbit and carried to the
    rest of the orbit along the generators, each step one rewrite of a
    string by `itemgetter`.  With no gens every orbit is one vertex, and
    every vertex is searched.
    """
    n = G.n
    moves = []
    for g in gens:
        inverse = [0] * n
        for v, w in enumerate(g):
            inverse[w] = v
        moves.append(itemgetter(*inverse))
    far: list[str | None] = [None] * n
    for r in range(n):
        if far[r] is not None:
            continue
        far[r] = format(_search(G, r)[1], f"0{n}b")[::-1]
        orbit = [r]
        for u in orbit:
            for g, move in zip(gens, moves):
                w = g[u]
                if far[w] is None:
                    far[w] = "".join(move(far[u]))
                    orbit.append(w)
    rows = [int(row[::-1], 2) for row in far]
    return list(map(int.__and__, rows, _transpose(rows, n)))


def strong_resolving_graph(G: SimpleGraph) -> SimpleGraph:
    """G_SR: the vertices of mutually maximally distant pairs, and those
    pairs as edges.

    The rows are far AND its transpose, with the far sets carried along
    the coordinate swaps that `_coordinate_swaps` checks on G's rows (see
    `_mmd_rows`); `sdim_via_gsr` reads the same rows."""
    rows = _mmd_rows(G, _coordinate_swaps(G)[0])
    return SimpleGraph.from_rows(
        [lab if row else None for lab, row in zip(G.labels, rows)], rows)


# -- class-based shortcut graphs ----------------------------------------------

def gstar_star(LB: FinitePoset) -> SimpleGraph:
    """G**: vertices Z*(L^B); x ~ y iff the classes coincide, or the classes
    meet above [0] while being incomparable in the Boolean quotient."""
    part = LB.quotient_classes()
    if part.boolean_image is None:
        raise NotApplicable("annihilator quotient is not Boolean")
    # the classes are the atom sets, so equal images mean equal classes
    return SimpleGraph.from_patterns(
        ((lab, part.boolean_image[part.class_of[LB.index(lab)]])
         for lab in LB.zero_divisors()), crossing=True)


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


def _coordinate_swaps(
        G: SimpleGraph) -> tuple[list[list[int]], list[list[int]]]:
    """The swaps of two coordinates in every tuple label that are
    automorphisms of G, as permutations of G's indices: a spanning set of
    them, each checked against G's rows, and all of them in the order of
    their coordinate pairs.  Both lists are empty unless the labels are
    tuples of one length.

    The swaps that are automorphisms are the transpositions inside the
    classes of an equivalence on the coordinates: with (m i) and (m j),
    (i j) = (m i)(m j)(m i) is one too.  Pairs (i, j) are taken in order,
    so the least coordinate m of a class meets each other member j first,
    and (m j) is the swap checked on the rows.  A later pair in m's class
    is that product, composed by index.  So 8 of the 36 swaps on 2^9 are
    checked, and none is rebuilt from labels.
    """
    parts = _tuple_parts(G.labels)
    if not parts:
        return [], []
    # least[c]: the least coordinate known to share c's class
    least = list(range(len(parts[0])))
    nbrs = None
    checked = []
    swaps: dict[tuple[int, int], list[int]] = {}
    for i, j in combinations(range(len(least)), 2):
        m = least[i]
        if m < i:
            if least[j] == m:
                a, b = swaps[m, i], swaps[m, j]
                swaps[i, j] = list(map(a.__getitem__, map(b.__getitem__, a)))
        elif least[j] == j:
            perm = _swap_perm(G._index, parts, i, j)
            if perm is None:
                continue
            if nbrs is None:
                nbrs = [list(_bits(row)) for row in G.adj]
            if _is_automorphism(nbrs, G.adj, perm):
                least[j] = i
                checked.append(perm)
                swaps[i, j] = perm
    return checked, list(swaps.values())


def _check_invariant(perms: Sequence[Sequence[int]], cand: int) -> None:
    """Raise unless each permutation maps the vertex set cand into, and so
    onto, itself."""
    for p in perms:
        if any(not cand >> p[v] & 1 for v in _bits(cand)):
            raise AssertionError("a coordinate swap does not map the vertex "
                                 "set onto itself")


def sdim_via_gsr(G: SimpleGraph) -> int:
    """sdim(G) = vertex cover number of the strong resolving graph.

    The cover is solved on `twin_reduce(G)`, and the dropped vertices are
    added back.  A twin class is a clique of G_SR whose members have the
    same neighbours outside it, so each dropped member adds exactly one
    to the cover.  Two members are kept, not one: deleting a twin while
    its partner stays keeps every distance and every mutually maximally
    distant pair among the rest, the two survivors stay such a pair, and
    a disconnected G stays disconnected.

    The coordinate swaps that `_coordinate_swaps` verifies on the reduced
    graph's rows are its automorphisms; no theorem about the input is
    trusted.  The checked spanning set carries the far sets of G_SR's rows
    along each orbit (see `_mmd_rows`).  An automorphism keeps distances
    and mutually maximally distant pairs, so it maps G_SR onto itself.
    The independent set is solved on those rows directly, in the reduced
    graph's indices: the candidates are the vertices with a nonzero row,
    which the checked swaps must map onto themselves, and every swap is a
    generator for the solver's orbital branching (see `_alpha`).  Labels
    that are not tuples of one length, or with no swap that is an
    automorphism, leave the plain computation.
    """
    reduced, dropped = twin_reduce(G)
    checked, swaps = _coordinate_swaps(reduced)
    rows = _mmd_rows(reduced, checked)
    # the rows are symmetric, so their union is the vertices of G_SR
    cand = 0
    for row in rows:
        cand |= row
    _check_invariant(checked, cand)
    return cand.bit_count() - _alpha(rows, cand, swaps) + dropped


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
