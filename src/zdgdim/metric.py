"""Distances, strong resolving machinery, and the three-way sdim computation.

The strong metric dimension of a connected graph equals the vertex cover
number of its strong resolving graph, whose edges are the mutually maximally
distant pairs.  For blow-up lattices two shortcuts are available: the
class-based graph G** (and G* without isolated vertices) reproduces the
strong resolving graph, and a closed formula gives sdim = |Z*| - 2n + 2 for
n >= 3 atoms.  Everything here also works on arbitrary connected graphs,
which the join-shaped application graphs require.

Every question about all sources reads one structure per graph, built once
by `_sweep`: the balls of every vertex and the far columns, radius by
radius for all sources together.  The diameter, the strong resolving
masks behind `is_strong_resolving` and `sdim_bruteforce`, and the G_SR rows
of a graph with many orbits all read it; only the few-orbit rows of
`_mmd_rows` search from single sources, one per orbit.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, combinations, compress, repeat
from operator import and_, eq, itemgetter, lshift, ne, or_, xor
from typing import Any, Iterable, Sequence

from .blowup import BlowupSpec, tuple_coordinates
from .errors import (Disconnected, HypothesisUnmet, NotApplicable,
                     NotAZeroDivisor, TooLarge)
from .graphs import SimpleGraph, remove_isolated, zero_divisor_graph
from .poset import FinitePoset, _bits

DEFAULT_BRUTE_CAP = 16

# an involution of the vertex indices as delta swaps (see `_delta_steps`)
Steps = tuple[tuple[int, int], ...]
# a swap's steps and the exact set of vertices it moves
Generator = tuple[Steps, int]


# -- distances ---------------------------------------------------------------

def _search(G: SimpleGraph, s: int) -> tuple[tuple[int, ...], int]:
    """`G.bfs(s)`, refusing a G that s does not span."""
    ball, far = G.bfs(s)
    if ball[-1] != (1 << G.n) - 1:
        raise Disconnected("graph is not connected")
    return ball, far


def _sweep(G: SimpleGraph) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The balls of every vertex and the column far'(v) = {s : v in far(s)}
    of every vertex, all sources in one level-synchronous pass (the
    multi-source search of Then et al., VLDB 2014), computed once per
    graph and kept on it.  Element d of v's balls is the bitmask of the
    vertices within distance d of v, as `G.bfs(v)` gives them, and far(s)
    is the far set of `G.bfs(s)`.

    Radius k + 1 comes from radius k: ball_{k+1}(v) is ball_k(v) OR the
    balls ball_k(u) of v's neighbours u.  The same neighbour balls, ANDed,
    give M_k(v), the s within k of every neighbour of v, and the far
    columns: far'(v) is the union over k >= 1 of M_k(v) less
    ball_{k-1}(v).  An s in that difference is at distance k or k + 1
    from v, so no neighbour of v is farther from s than v; and v in
    far(s) at distance k puts s in it.  Every s within k - 1 of v lies in
    M_k(v), so the difference is an XOR.  Both reads depend on v's open
    row alone, so they are made once per distinct row (twins share
    theirs), and each radius is a few C-level maps over the vertices.  A
    vertex whose ball is the whole vertex set is done, and its balls are
    cut where they stop growing.  Once every ball is whole, so is every
    M_k, and the last radius reads no neighbour: the pass ends after at
    most diameter + 1 radii.  It raises `Disconnected` when a radius adds
    nothing to any ball short of that.  A graph of one vertex has the
    single ball (1,), as `G.bfs` gives it.

    The pass (`_far_pass`) keeps the ball list of each radius; the balls
    of each vertex are cut out of them on the first call of this
    function, which `distance_balls` makes.  `_mmd_rows` reads the far
    columns alone and builds no ball tuple.
    """
    dist = _far_pass(G)
    if dist[0] is None:
        full = (1 << G.n) - 1
        dist[0] = tuple(row[:row.index(full) + 1] for row in zip(*dist[2]))
        dist[2] = None
    return dist[0], dist[1]


def _far_pass(G: SimpleGraph) -> list:
    """The pass of `_sweep`, run once per graph and kept on it as [balls,
    far, levels]: balls None and levels the ball list of each radius until
    `_sweep` cuts the balls out of them, then the balls and None."""
    if G._distances is not None:
        return G._distances
    adj = G.adj
    n = len(adj)
    if n < 2:
        G._distances = [tuple((1 << v,) for v in range(n)), [0] * n, None]
        return G._distances
    if not all(adj):
        raise Disconnected("graph is not connected")
    # one index per distinct row, and for each a read of the neighbours'
    # balls as one tuple (a lone neighbour is read twice: OR and AND keep it)
    ids: dict[int, int] = {}
    row_id = [ids.setdefault(row, len(ids)) for row in adj]
    reads = [itemgetter(*nb) if len(nb) > 1 else itemgetter(nb[0], nb[0])
             for nb in map(list, map(_bits, ids))]
    full = (1 << n) - 1
    prev = [1 << v for v in range(n)]
    ball = list(map(or_, adj, prev))
    levels = [prev, ball]
    far = [0] * n
    while ball.count(full) < n:
        got = [read(ball) for read in reads]
        meets = [reduce(and_, t) for t in got]
        far = list(map(or_, far, map(xor, map(meets.__getitem__, row_id),
                                     prev)))
        joins = [reduce(or_, t) for t in got]
        prev, ball = ball, list(map(or_, ball, map(
            joins.__getitem__, row_id)))
        if ball == prev:
            raise Disconnected("graph is not connected")
        levels.append(ball)
    far = list(map(or_, far, map(xor, repeat(full), prev)))
    G._distances = [None, far, levels]
    return G._distances


def distance_balls(G: SimpleGraph) -> tuple[tuple[int, ...], ...]:
    """The balls of `G.bfs(s)` for every vertex s: element d of row s is
    the bitmask of the vertices within distance d of s.

    The balls come from `_sweep`, one pass for all sources, computed once
    per graph and kept on it; every distance question in this module that
    asks about every vertex reads them.
    """
    return _sweep(G)[0]


def diameter(G: SimpleGraph) -> int:
    """The largest eccentricity."""
    return max((len(ball) - 1 for ball in distance_balls(G)), default=0)


def _distance_masks(LB: FinitePoset,
                    bit: Sequence[int]) -> list[tuple[int, int] | None]:
    """The pseudocomplement distance lemma for every element of LB, as
    bitmasks whose bit for element y is bit[y].

    Entry x of a zero divisor with an x* and an x** is (near, far): near
    holds the zero divisors y <= x*, at distance 1 from x in G(L^B), and
    far those with y* <= x**, less near and x itself, at distance 3.
    Every other zero divisor is at distance 2.  Every other entry is None.
    near depends on x* alone and far on x** alone, so each is built once
    per distinct value; the bits summed are distinct, so sums are unions.
    """
    pc = LB._pseudocomplement_indices()
    zd = LB._zero_divisor_flags()
    down = LB.down
    # the zero divisors by their pseudocomplement
    by_pc: dict[int, int] = {}
    for y, p in enumerate(pc):
        if zd[y] and p >= 0:
            by_pc[p] = by_pc.get(p, 0) | bit[y]
    near_of: dict[int, int] = {}
    far_of: dict[int, int] = {}
    masks: list[tuple[int, int] | None] = []
    for x, xs in enumerate(pc):
        xss = pc[xs] if xs >= 0 else -1
        if not zd[x] or xss < 0:
            masks.append(None)
            continue
        near = near_of.get(xs)
        if near is None:
            near = near_of[xs] = sum(bit[y] for y in _bits(down[xs]) if zd[y])
        far = far_of.get(xss)
        if far is None:
            far = far_of[xss] = sum(by_pc.get(p, 0) for p in _bits(down[xss]))
        masks.append((near, far & ~(near | bit[x])))
    return masks


def distance_by_pseudocomplement(LB: FinitePoset, x: str, y: str) -> int:
    """Distance in G(L^B) read off the pseudocomplement trichotomy:
    1 iff y <= x*, else 3 iff y* <= x**, else 2.  A bit test on x's masks
    of `_distance_masks`."""
    if not (LB.is_zero_divisor(x) and LB.is_zero_divisor(y)):
        raise NotAZeroDivisor(f"{x!r} and {y!r} must be nonzero zero divisors")
    if x == y:
        return 0
    i, j = LB.index(x), LB.index(y)
    lemma = _distance_masks(LB, [1 << k for k in range(len(LB))])[i]
    if lemma is None or LB._pseudocomplement_indices()[j] < 0:
        raise NotApplicable("lattice is not pseudocomplemented")
    near, far = lemma
    return 1 if near >> j & 1 else 3 if far >> j & 1 else 2


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


def _minimal_masks(masks: Sequence[int]) -> list[int]:
    """The distinct inclusion-minimal members of masks, fewest vertices
    first (ties by value).  A mask is kept unless a kept one, which has
    no more vertices, lies inside it."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


def _hits_within(masks: Sequence[int], size: int) -> bool:
    """Whether some set of at most size vertices meets every one of masks.

    A depth-first search that branches on the members of the first mask
    the set does not yet meet: every set that meets all masks holds one of
    them, so the search is exhaustive.  The branch of a member bans the
    members tried before it, since a set holding one of those lies in an
    earlier branch; a mask whose members are all banned ends its branch.
    The open nodes, (set, banned, vertices left), are kept on a list, not
    on the Python stack, so a size far above the recursion limit is
    searched."""
    stack = [(0, 0, size)]
    while stack:
        w, banned, left = stack.pop()
        for m in masks:
            if not m & w:
                break
        else:
            return True
        if not left:
            continue
        cand = m & ~banned
        while cand:
            low = cand & -cand
            stack.append((w | low, banned, left - 1))
            banned |= low
            cand ^= low
    return False


def sdim_bruteforce(G: SimpleGraph, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Smallest strong resolving set size: the least size k, tried in
    ascending order, for which `_hits_within` finds a set of k vertices
    that meets every pair mask of `_pair_cover_masks`.

    The masks come from distance spheres, never from G_SR, so this route
    stays independent of `sdim_via_gsr`.  Only the inclusion-minimal masks
    are searched (`_minimal_masks`), fewest vertices first, so the first
    mask a set misses is a small one: a set meets every mask iff it meets
    every minimal one, since each mask holds a minimal one."""
    if G.n > cap:
        raise TooLarge(f"brute force capped at {cap} vertices, graph has {G.n}")
    masks = _minimal_masks(_pair_cover_masks(G))
    for size in range(G.n + 1):
        if _hits_within(masks, size):
            return size
    raise AssertionError("the full vertex set always resolves")


# -- the strong resolving graph -----------------------------------------------

def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """The columns of a 0/1 matrix whose rows are masks below 1 << width:
    bit i of column j is bit j of rows[i].  The rows, last first, are
    joined as binary strings, so column j is the stride-width slice that
    starts at its character in the last row, read as a binary number."""
    text = "".join(format(r, f"0{width}b") for r in reversed(rows))
    return [int(text[k::width] or "0", 2) for k in range(width - 1, -1, -1)]


def _orbits(n: int, gens: Sequence[Steps]) -> list[tuple[int, list]]:
    """The orbits of the vertices 0..n-1 under the group the swaps gens
    generate, each as its least vertex r and the (reached, g) of each
    round that closed it: one frontier bitmask at a time, a generator's
    image of the frontier, less the orbit so far, is reached, and each
    vertex w it holds is the image under g of u = g(w) in the frontier."""
    orbits: list[tuple[int, list]] = []
    seen = 0
    for r in range(n):
        if seen >> r & 1:
            continue
        rounds = []
        orbit = frontier = 1 << r
        while frontier:
            new = 0
            for g in gens:
                reached = _swap(g, frontier) & ~(orbit | new)
                if reached:
                    rounds.append((reached, g))
                new |= reached
            orbit |= new
            frontier = new
        orbits.append((r, rounds))
        seen |= orbit
    return orbits


def _mmd_rows(G: SimpleGraph, gens: Sequence[Steps] = ()) -> list[int]:
    """Row u: the vertices mutually maximally distant from u.

    u and v are such a pair iff each lies in the other's far set (see
    `SimpleGraph.bfs`), so row u is far(u) AND the column far'(u) = {v : u
    in far(v)}.

    gens are automorphisms of G, each an involution given as delta steps
    (see `_swap`).  The orbits they generate are closed first (`_orbits`),
    by bitmask steps on the generators with no search.  With no gens every
    orbit is one vertex.

    With reps orbits on n vertices and 16 * reps > n, and so always with
    no gens, the columns come from the pass of `_sweep` (`_far_pass`),
    all sources at once and no ball tuple built, and the far sets are
    their transpose (`_transpose`, quadratic in characters but run in
    C): no per-source search and no carry.
    Otherwise an automorphism g keeps distances and mutually maximally
    distant pairs, so far(g(u)) = g(far(u)) and row(g(u)) = g(row(u)):
    far is searched (`SimpleGraph.bfs`) for the least vertex r of each
    orbit and carried to the rest of it, once per vertex, row r is far(r)
    AND the column {u : r in far(u)}, read by one scan of the far sets,
    and each other row is carried by the carry of its far set.  The 16 is
    measured: on blow-ups and chain products of 300 to 3,100 vertices the
    two break even at n / reps between 10 and 30, higher where the swaps
    have more deltas.  Above, the rows per representative win by up to
    35x (2^13: 29 ms against 1.0 s for the transpose, and n^2 characters
    less memory); below, the transpose wins by up to 8x (a chain product
    of 505 vertices in 378 orbits).
    """
    orbits = _orbits(G.n, gens) if gens else []
    if not gens or 16 * len(orbits) > G.n:
        cols = _far_pass(G)[1]
        return list(map(int.__and__, cols, _transpose(cols, G.n)))
    far = [0] * G.n
    carries: list[tuple[int, Steps, int]] = []
    for r, rounds in orbits:
        far[r] = _search(G, r)[1]
        for reached, g in rounds:
            for w in _bits(reached):
                u = _swap(g, 1 << w).bit_length() - 1
                far[w] = _swap(g, far[u])
                carries.append((w, g, u))
    rows = [0] * G.n
    for r, _ in orbits:
        bit = 1 << r
        column = "".join(["1" if f & bit else "0" for f in reversed(far)])
        rows[r] = far[r] & int(column, 2)
    for w, g, u in carries:
        rows[w] = _swap(g, rows[u])
    return rows


def _many_orbits(G: SimpleGraph) -> bool:
    """Whether 16 times the number of orbits of any group that the
    coordinate swaps of G's labels generate exceeds G's vertex count, by a
    lower bound on that number: the distinct sorted coordinate tuples
    among the labels, a label that is not a tuple counting as itself.  The
    count stops once it is large enough.

    A swap of two coordinates keeps a tuple's sorted coordinates, so every
    orbit lies inside one class of equal sorted tuples, and there are at
    least as many orbits as classes.  Labels that are not tuples of one
    length have no swaps (`_coordinate_swaps`), so each vertex is its own
    orbit, and the count, which is at most the vertex count, is a bound
    too."""
    classes = set()
    for lab in G.labels:
        parts = tuple_coordinates(lab)
        classes.add(lab if parts is None else tuple(sorted(parts)))
        if 16 * len(classes) > G.n:
            return True
    return False


def strong_resolving_graph(G: SimpleGraph) -> SimpleGraph:
    """G_SR: the vertices of mutually maximally distant pairs, and those
    pairs as edges.

    The rows are those of `_mmd_rows`, under the coordinate swaps that
    `_coordinate_swaps` checks on G's rows.  The swaps are asked for only
    when they can pay: when `_many_orbits(G)` finds that any group of
    coordinate swaps has so many orbits that `_mmd_rows` takes its
    many-orbit route, which reads no swap, `_coordinate_swaps` is skipped;
    the rows are the same either way.  `sdim_via_gsr` reads the same
    rows."""
    gens = [] if _many_orbits(G) else _coordinate_swaps(G)[0]
    rows = _mmd_rows(G, gens)
    return SimpleGraph.from_rows(
        [lab if row else None for lab, row in zip(G.labels, rows)], rows)


# -- class-based shortcut graphs ----------------------------------------------

def gstar_star(LB: FinitePoset) -> SimpleGraph:
    """G**: vertices Z*(L^B); x ~ y iff the classes coincide, or the classes
    meet above [0] while being incomparable in the Boolean quotient.  Built
    once per lattice and kept on it."""
    if LB._gss is None:
        part = LB.quotient_classes()
        if part.boolean_image is None:
            raise NotApplicable("annihilator quotient is not Boolean")
        # the classes are the atom sets, so equal images mean equal classes
        LB._gss = SimpleGraph.from_patterns(
            ((lab, part.boolean_image[part.class_of[LB.index(lab)]])
             for lab in LB.zero_divisors()), crossing=True)
    return LB._gss


def gstar(LB: FinitePoset) -> SimpleGraph:
    """G*: the zero-divisor graph itself when complete, else G** with its
    isolated vertices removed."""
    G = zero_divisor_graph(LB)
    if G.is_complete():
        return G
    return remove_isolated(gstar_star(LB))


# -- exact independent set / vertex cover -------------------------------------

def _clique_cover(adj: Sequence[int], cand: int) -> list[int]:
    """A clique cover of cand, as bitmasks: the first-fit cover of the
    candidates in ascending order of their degree inside cand, ties by
    index, where each joins the first clique whose members are all its
    neighbours or starts a new one.

    First-fit in a fixed order builds the cliques that filling one clique
    at a time in that order builds: clique k takes, in order, every
    candidate left by cliques 0..k-1 that is a neighbour of each member
    taken so far.  So the candidates are grouped into one bitmask per
    degree, and each clique is grown by scanning those classes in
    ascending degree, taking the lowest candidate of class & q and setting
    q &= adj[v] (the bitboard colouring of San Segundo, Rodríguez-Losada &
    Jiménez, 2011).  The cover costs O(|cand| + cliques × degrees) big-int
    steps, where first-fit costs O(|cand| × cliques).
    """
    by_degree: dict[int, int] = {}
    for v in _bits(cand):
        d = (adj[v] & cand).bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    classes = [by_degree[d] for d in sorted(by_degree)]
    cliques = []
    while cand:
        q = cand
        members = 0
        for c in classes:
            c &= q
            while c:
                low = c & -c
                members |= low
                q &= adj[low.bit_length() - 1]
                c &= q
            if not q:
                break
        cand ^= members
        cliques.append(members)
    return cliques


def _stabiliser(gens: Sequence[Generator], low: int) -> list[Generator]:
    """The (steps, moved) generators of gens that fix the vertex bit low:
    those whose moved mask misses it."""
    return [g for g in gens if not g[1] & low]


def _orbit(v: int, gens: Sequence[Generator]) -> int:
    """The orbit of vertex v under the group the swaps of the (steps,
    moved) pairs gens generate: the closure of {v}, grown in place.  Each
    generator maps the set as the earlier ones left it, so one round
    reaches what several rounds of images of one set would; the rounds
    stop when one adds nothing.  A generator that moves nothing of the set
    so far maps it onto itself and is skipped."""
    seen, grown = 0, 1 << v
    while grown != seen:
        seen = grown
        for steps, moved in gens:
            if moved & grown:
                grown |= _swap(steps, grown)
    return seen


def _alpha(adj: Sequence[int], cand: int,
           gens: Sequence[Generator] = ()) -> int:
    """Exact max independent set size on the vertices of cand.

    Each search node covers cand by cliques greedily (`_clique_cover`):
    one clique at a time, each grown from the candidates left in ascending
    order of their degree inside cand (ties by index), scanned one degree
    class bitmask at a time.  The cover gives both the bound and the
    branching order, as in colour-ordered branch and bound (Tomita & Seki's
    MCQ): the cliques are searched from last to first, and with only
    cliques 0..k left an independent set gains at most k + 1 vertices, one
    per clique.

    gens are automorphisms of the graph under which cand is invariant,
    each an involution given as delta steps (see `_swap`) paired with the
    exact set of vertices it moves, as `_coordinate_swaps` hands them
    over.  They make the search orbital branching (Ostrowski, Linderoth,
    Rossi & Smriglio, 2011): at each node the group they generate fixes
    every vertex included so far and maps the node's candidates onto
    themselves, so an independent set through any vertex of v's orbit is
    the image of one through v.  After the include branch of v, the
    exclude branch drops v's whole orbit (`_orbit`), the closure of {v}
    under the generators, and the include branch keeps only the generators
    that fix v (`_stabiliser`).  With each generator's moved set that test
    is one bit test, not a swap of a whole mask, and `_orbit` skips the
    generators that move nothing of the set it has grown.  With no gens every orbit
    is a single vertex and the search is the plain one.

    The open nodes, one per included vertex, are kept on a list, not on
    the Python stack, so an α far above the recursion limit is solved.
    Each is [cand, size, gens, cliques, k, rest]: rest holds the members
    of clique k not yet branched on.
    """
    best = 0

    def node(cand: int, size: int, gens) -> list:
        cliques = _clique_cover(adj, cand)
        k = len(cliques) - 1
        return [cand, size, gens, cliques, k, cliques[k] if cliques else 0]

    stack = [node(cand, 0, gens)]
    while stack:
        top = stack[-1]
        cand, size, gens, cliques, k, rest = top
        # the next vertex of the branching order not dropped with an
        # earlier vertex's orbit
        rest &= cand
        while not rest and k > 0:
            k -= 1
            rest = cliques[k] & cand
        if not rest:
            best = max(best, size)
            stack.pop()
            continue
        if size + k + 1 <= best:
            stack.pop()
            continue
        low = rest & -rest
        v = low.bit_length() - 1
        # include v; the node goes on without v's orbit once that is done
        top[0], top[4], top[5] = cand & ~_orbit(v, gens), k, rest ^ low
        stack.append(node(cand & ~(adj[v] | low), size + 1,
                          _stabiliser(gens, low)))
    return best


def independence_number(G: SimpleGraph) -> int:
    """The size of a maximum independent set, solved once per graph and
    kept on it."""
    if G._independence is None:
        G._independence = _alpha(G.adj, (1 << G.n) - 1)
    return G._independence


def _cover_reaches(adj: Sequence[int], cand: int, need: int) -> bool:
    """Whether a clique cover of cand has at least need cliques, so that
    an independent set in cand may have need vertices.  The cover is built
    one clique at a time (the bitboard cover of San Segundo, Rodríguez-
    Losada & Jiménez, 2011): its lowest candidate, then the lowest that is
    a neighbour of every member so far, with q &= adj[u].  The count stops
    at need."""
    count = 0
    while cand and count < need:
        q = cand
        while q:
            low = q & -q
            cand ^= low
            q &= adj[low.bit_length() - 1]
        count += 1
    return count >= need


def max_independent_set(G: SimpleGraph) -> list[str]:
    """The lexicographically least maximum independent set (label order).

    One depth-first search for a set of α = `independence_number(G)`
    vertices.  Each node includes its lowest candidate first and excludes
    it when that fails, so the first set of α vertices reached is the
    lex-least.  A node is pruned when a clique cover of its candidates
    (`_cover_reaches`) has fewer cliques than the vertices still needed:
    an independent set takes at most one vertex per clique.  The excluded
    vertex is dropped in a loop and only included ones open a node, kept
    on a list, so the depth is at most α and the Python stack is not used.
    """
    adj = G.adj
    target = independence_number(G)
    chosen: list[int] = []
    # cands[k]: the candidates left beside the first k chosen vertices
    cands = [(1 << G.n) - 1]
    while cands and len(chosen) < target:
        cand = cands[-1]
        if _cover_reaches(adj, cand, target - len(chosen)):
            low = cand & -cand
            v = low.bit_length() - 1
            chosen.append(v)
            # the node goes on without v if no set of target vertices
            # through v is found
            cands[-1] = cand ^ low
            cands.append(cand & ~(adj[v] | low))
        else:
            cands.pop()
            if chosen:
                chosen.pop()
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
    one (true twins).  The indices are sorted twice, by open row adj[v]
    and by closed row adj[v] | 1 << v.  Each sort is stable, so it keeps
    every class in index order, and a vertex past the first two of its
    class is one whose key equals the key two sorted places earlier.  An
    open key never equals another vertex's closed key (u in adj[v] would
    put v in adj[v]), so no vertex is dropped by both sorts, and the
    dropped vertices are those beyond the first two of either kind of
    class.  Every loop over the vertices runs in C (`sorted`, `map`,
    `compress`).  A twin-free G comes back as itself, with its balls.

    On a graph of `SimpleGraph.from_patterns` the vertices of one pattern
    are twins (the pattern-class lemma of `twin_reduce_patterns`), so
    every twin class is a union of pattern classes, and
    `twin_reduce_patterns` gives this same pair from two vertices per
    pattern class, without building the rest.
    """
    adj = G.adj
    n = len(adj)
    closed = list(map(or_, adj, map(lshift, repeat(1), range(n))))
    drop: list[int] = []
    for keys in (adj, closed):
        order = sorted(range(n), key=keys.__getitem__)
        ks = list(map(keys.__getitem__, order))
        drop += compress(order[2:], map(eq, ks, ks[2:]))
    if not drop:
        return G, 0
    labels: list[str | None] = list(G.labels)
    for v in drop:
        labels[v] = None
    return SimpleGraph.from_rows(labels, adj), len(drop)


def twin_reduce_patterns(pairs: Iterable[tuple[Any, int]],
                         crossing: bool = False) -> tuple[SimpleGraph, int]:
    """`twin_reduce(SimpleGraph.from_patterns(pairs, crossing))`, equal
    graph and equal dropped count, with only the two label-smallest
    vertices of each pattern built.

    The pattern-class lemma: vertices that share a pattern are twins.
    Adjacency reads the two patterns alone, and two vertices of pattern p
    are adjacent, or not, as p and p are: under the disjointness rule a
    nonzero p makes them false twins and the zero pattern, which every
    vertex is adjacent to, true twins; under the crossing rule equal
    patterns are adjacent, so they are true twins.

    The equality: keep K, the two label-smallest vertices of every pattern
    class, and let H be the graph on K, the subgraph of G that K induces.
    Two vertices u, v of K are twins in G iff they are in H: a dropped w
    has two kept members of its class, so one of them, w', is neither u
    nor v unless u and v are those two, and w' is adjacent to u and v as
    w is; and when u and v are those two, w meets both alike.  So the
    twin classes of H are those of G cut to K, each a union of pattern
    classes cut to K, of the same kind; index order is label order, so
    the two smallest members of a class of G lie in K and are the two
    smallest of its cut.  `twin_reduce` keeps them both ways, H and G
    induce the same graph on them, and the |pairs| - |K| vertices left out
    of H add to the dropped count.

    The indices are sorted by label, then stably by pattern, and a vertex
    whose pattern equals the one two sorted places earlier is left out,
    as in `twin_reduce`: every loop over the vertices runs in C.  Pairs
    with no repeated pattern, or with a repeated label, which
    `SimpleGraph.from_patterns` refuses with LabelCollision even where
    both copies would be left out, take the plain route.
    """
    pairs = list(pairs)
    n = len(pairs)
    pats = list(map(itemgetter(1), pairs))
    if len(set(pats)) < n:
        labs = list(map(str, map(itemgetter(0), pairs)))
        order = sorted(range(n), key=labs.__getitem__)
        ordered = list(map(labs.__getitem__, order))
        if not any(map(eq, ordered, ordered[1:])):
            order.sort(key=pats.__getitem__)
            ks = list(map(pats.__getitem__, order))
            kept = list(map(pairs.__getitem__, compress(
                order, chain((True, True), map(ne, ks, ks[2:])))))
            reduced, dropped = twin_reduce(
                SimpleGraph.from_patterns(kept, crossing))
            return reduced, dropped + n - len(kept)
    return twin_reduce(SimpleGraph.from_patterns(pairs, crossing))


def _swap_perm(index: dict[tuple[str, ...], int],
               parts: Sequence[tuple[str, ...]], i: int,
               j: int) -> list[int] | None:
    """The vertex map that swaps coordinates i < j of every vertex, or None
    when some swapped tuple is not a vertex.  parts[v] is v's coordinate
    tuple and index inverts parts, so no label is formatted; a vertex whose
    coordinates i and j are equal maps to itself.  The swap is one-to-one
    on tuples, so a map into the vertices is a permutation of them."""
    perm = []
    for v, p in enumerate(parts):
        w = v if p[i] == p[j] else index.get(
            p[:i] + p[j:j + 1] + p[i + 1:j] + p[i:i + 1] + p[j + 1:])
        if w is None:
            return None
        perm.append(w)
    return perm


def _delta_steps(perm: Sequence[int]) -> Steps:
    """The involution perm of the vertex indices as delta swaps: one
    (δ, mask) step per distance δ, whose mask holds the lower vertex v of
    every pair (v, v + δ) that perm exchanges.  Raises for a perm that is
    not an involution, whose pairs would overlap."""
    masks: dict[int, int] = {}
    for v, w in enumerate(perm):
        if perm[w] != v:
            raise AssertionError(f"the vertex map sends {v} to {w} but "
                                 f"{w} to {perm[w]}: not an involution")
        if v < w:
            masks[w - v] = masks.get(w - v, 0) | 1 << v
    return tuple(sorted(masks.items()))


def _swap(steps: Steps, x: int) -> int:
    """The bitmask x with every bit moved to its image under the swap given
    as steps: each step exchanges the bits v and v + δ for every v in its
    mask (the delta swap of Knuth, TAOCP 4A §7.1.3)."""
    for d, mask in steps:
        t = (x >> d ^ x) & mask
        x ^= t | t << d
    return x


def _is_automorphism(adj: Sequence[int], perm: Sequence[int],
                     steps: Steps) -> bool:
    """Whether the involution perm, given also as its delta steps, maps
    the graph of the rows adj onto itself: g(adj[v]) = adj[g(v)] for the
    exchanged pairs v < g(v) alone.  That suffices for an involution g:
    applying g gives g(adj[w]) = adj[v] for w = g(v), so every moved vertex
    passes, and a fixed point f then passes too, since g keeps an edge
    from f to a moved v (v's check) and an edge between two fixed
    points."""
    return all(_swap(steps, adj[v]) == adj[w]
               for v, w in enumerate(perm) if v < w)


def _coordinate_swaps(
        G: SimpleGraph) -> tuple[list[Steps], list[Generator]]:
    """The swaps of two coordinates in every tuple label that are
    automorphisms of G, as delta steps on G's indices (see `_swap`): a
    spanning set of them, each checked against G's rows, and all of them in
    the order of their coordinate pairs, each with the exact set of
    vertices it moves, as `_alpha` takes them.  Both lists are empty
    unless the labels are tuples of one length.

    The swaps that are automorphisms are the transpositions inside the
    classes of an equivalence on the coordinates: with (m i) and (m j),
    (i j) = (m i)(m j)(m i) is one too.  Pairs (i, j) are taken in order,
    so the least coordinate m of a class meets each other member j first,
    and (m j) is the swap checked on the rows.  A later pair in m's class
    is that product: the steps of (m i), (m j) and (m i) in turn.  So 8 of
    the 36 swaps on 2^9 are checked, and none is rebuilt from labels.

    A swap's vertex map comes from the coordinate tuples (`_swap_perm`)
    and is checked on the rows over its exchanged pairs alone
    (`_is_automorphism`).  A checked swap's steps exchange disjoint pairs,
    so the vertices it moves are the union of its steps' pairs, each step
    mask | mask << δ.  The union of a composed swap's steps is no such set:
    a + b + a can move a vertex and move it back.  It moves v iff b moves
    a(v), so its moved set is a(moved(b)), one `_swap`.
    """
    coords = [tuple_coordinates(lab) for lab in G.labels]
    if not coords or None in coords or len({len(c) for c in coords}) > 1:
        return [], []
    parts = list(map(tuple, coords))
    index = {p: v for v, p in enumerate(parts)}
    # least[c]: the least coordinate known to share c's class
    least = list(range(len(parts[0])))
    checked = []
    swaps: dict[tuple[int, int], Generator] = {}
    for i, j in combinations(range(len(least)), 2):
        m = least[i]
        if m < i:
            if least[j] == m:
                a = swaps[m, i][0]
                b, moved = swaps[m, j]
                swaps[i, j] = a + b + a, _swap(a, moved)
        elif least[j] == j:
            perm = _swap_perm(index, parts, i, j)
            if perm is None:
                continue
            steps = _delta_steps(perm)
            if _is_automorphism(G.adj, perm, steps):
                least[j] = i
                checked.append(steps)
                moved = 0
                for d, mask in steps:
                    moved |= mask | mask << d
                swaps[i, j] = steps, moved
    return checked, list(swaps.values())


def _check_invariant(swaps: Sequence[Steps], cand: int) -> None:
    """Raise unless each swap maps the vertex set cand onto itself."""
    if any(_swap(steps, cand) != cand for steps in swaps):
        raise AssertionError("a coordinate swap does not map the vertex set "
                             "onto itself")


def sdim_via_gsr(G: SimpleGraph) -> int:
    """sdim(G) = vertex cover number of the strong resolving graph.

    The cover is solved on `twin_reduce(G)`, and the dropped vertices are
    added back.  A twin class is a clique of G_SR whose members have the
    same neighbours outside it, so each dropped member adds exactly one
    to the cover.  Two members are kept, not one: deleting a twin while
    its partner stays keeps every distance and every mutually maximally
    distant pair among the rest, the two survivors stay such a pair, and
    a disconnected G stays disconnected.

    On a graph of `SimpleGraph.from_patterns` every pattern class lies
    inside one twin class (the pattern-class lemma of
    `twin_reduce_patterns`), so `sdim_via_gsr_patterns(pairs)` equals
    `sdim_via_gsr(SimpleGraph.from_patterns(pairs))`: it solves the same
    reduced graph, built from two vertices per pattern class, with the
    same dropped count, through the same solve (`_reduced_cover`).

    The coordinate swaps that `_coordinate_swaps` verifies on the reduced
    graph's rows are its automorphisms; no theorem about the input is
    trusted.  Each swap is one tuple of delta steps, and every use below
    moves bitmasks by it with `_swap`.  An automorphism keeps distances
    and mutually maximally distant pairs, so it maps G_SR onto itself.
    The checked spanning set closes the orbits: on a graph of few orbits
    far is searched once per orbit and the far sets and rows are carried
    to the rest of it, and on one of many the rows come from the all-source
    sweep (see `_mmd_rows`).
    The independent set is solved on those rows directly, in the reduced
    graph's indices: the candidates are the vertices with a nonzero row,
    which the checked swaps must map onto themselves, and every swap is a
    generator for the solver's orbital branching (see `_alpha`).  Labels
    that are not tuples of one length, or with no swap that is an
    automorphism, leave the plain computation.
    """
    return _reduced_cover(*twin_reduce(G))


def sdim_via_gsr_patterns(pairs: Iterable[tuple[Any, int]]) -> int:
    """`sdim_via_gsr(SimpleGraph.from_patterns(pairs))`, solved on
    `twin_reduce_patterns(pairs)`, which builds two vertices of each
    pattern class: the route of `sdim`'s gsr method on a blow-up spec or
    a lattice."""
    return _reduced_cover(*twin_reduce_patterns(pairs))


def _reduced_cover(reduced: SimpleGraph, dropped: int) -> int:
    """The vertex cover number of G_SR of the twin-reduced graph, plus
    the dropped count: the solve of `sdim_via_gsr`."""
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
