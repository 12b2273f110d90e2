"""Simple labeled graphs, the zero-divisor graph of a poset, and joins.

Vertices are kept in sorted label order, which the constructor checks, so
DOT and JSON exports are byte-stable; adjacency is one bitmask row per
vertex.  `SimpleGraph.from_patterns` builds every graph whose vertices
are adjacent when their coordinate patterns are disjoint (G(P), the
application graphs, K_t, and the graph of a `--boolean` or `--blowup`
input or of a `verify` graph suite's blow-up, read off its spec's
`blowup.zero_divisor_pairs` by `blowup.blowup_graphs` with no lattice
built) and, by a second rule, G** (of a lattice, or of those same
pairs); `from_rows` every graph derived from rows.  No command reads an
edge list, but `from_edges` stays: the tests build their graphs with it,
and the benchmark's tracer (`bench/tracer.py`) wraps it by name.  Graph
equality is labeled equality, never isomorphism: under the sorted order,
equal rows.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import LabelCollision, UnknownElement
from .poset import FinitePoset, _bits


class SimpleGraph:
    """Immutable simple undirected graph with canonical vertex order."""

    # _distances holds every vertex's far column and balls (kept as the
    # ball lists of each radius until a caller reads the balls), which
    # metric._sweep computes on first use and every later caller shares;
    # _independence holds the independence number, which
    # metric.independence_number solves on first use and
    # metric.max_independent_set reads
    __slots__ = ("labels", "adj", "_index", "_distances", "_independence")

    def __init__(self, labels: Sequence[str], adj: Sequence[int]):
        self.labels = tuple(labels)
        for a, b in zip(self.labels, self.labels[1:]):
            if a >= b:
                raise LabelCollision(f"duplicate vertex label {a!r}" if a == b
                                     else f"labels {a!r}, {b!r} out of order")
        self.adj = tuple(adj)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._distances = None
        self._independence = None

    @classmethod
    def from_rows(cls, labels: Sequence[str | None],
                  rows: Sequence[int]) -> "SimpleGraph":
        """Graph on the old indices i with labels[i] not None, re-indexed
        in sorted label order; rows[i] is i's neighbour bitmask over the old
        indices, whose bits at dropped indices are ignored.  A duplicate
        label raises LabelCollision."""
        order = sorted((i for i, lab in enumerate(labels) if lab is not None),
                       key=labels.__getitem__)
        # runs of old indices that stay consecutive, at new positions s..e-1
        starts = [k for k, i in enumerate(order)
                  if not k or order[k - 1] != i - 1]
        moves = [(order[s], (1 << e - s) - 1, s)
                 for s, e in zip(starts, starts[1:] + [len(order)])]
        # move each row run by run or bit by bit, whichever is fewer steps.
        # Runs win where few are kept: G_SR of 2^9 takes 1.2 ms against 66
        # bit by bit.  Bits win where many runs cut sparse rows, as in some
        # re-indexings by `subgraph`, `remove_isolated` and G_SR's assembly.
        adj = []
        if len(moves) * len(order) <= sum(rows[i].bit_count() for i in order):
            for i in order:
                row, new = rows[i], 0
                for a, m, s in moves:
                    new |= (row >> a & m) << s
                adj.append(new)
        else:
            bit = [0] * len(labels)
            for k, i in enumerate(order):
                bit[i] = 1 << k
            for i in order:
                new = 0
                for j in _bits(rows[i]):
                    new |= bit[j]
                adj.append(new)
        return cls([labels[i] for i in order], adj)

    @classmethod
    def from_edges(cls, labels: Iterable[str],
                   edges: Iterable[tuple[str, str]]) -> "SimpleGraph":
        labs = [str(x) for x in labels]
        index = {lab: i for i, lab in enumerate(labs)}
        adj = [0] * len(labs)
        for a, b in edges:
            try:
                i, j = index[str(a)], index[str(b)]
            except KeyError as exc:
                raise UnknownElement(f"edge endpoint {exc} is not a vertex") from None
            if i == j:
                raise ValueError(f"loop at {a!r} is not allowed")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls.from_rows(labs, adj)

    @classmethod
    def from_patterns(cls, vertices: Iterable[tuple[Any, int]],
                      crossing: bool = False) -> "SimpleGraph":
        """Graph on (label, pattern) pairs, labels taken through str() and
        each pattern a bitmask of coordinates: a ~ b iff a != b and their
        patterns are disjoint, or with crossing, equal or crossing (they
        meet and neither holds the other).  A duplicate label raises
        LabelCollision.  Each distinct pattern's row is read off one mask
        per coordinate, the vertices whose pattern holds it."""
        verts = sorted(((str(lab), pat) for lab, pat in vertices),
                       key=itemgetter(0))
        group: dict[int, int] = {}
        for i, (_, pat) in enumerate(verts):
            group[pat] = group.get(pat, 0) | 1 << i
        hold: dict[int, int] = {}
        for pat, m in group.items():
            for c in _bits(pat):
                hold[c] = hold.get(c, 0) | m
        full, row = (1 << len(verts)) - 1, {}
        for pat, m in group.items():
            meet = 0
            for c in _bits(pat):
                meet |= hold[c]
            row[pat] = full & ~meet
            if crossing:
                outside = lacks = 0
                for c, h in hold.items():
                    if pat >> c & 1:
                        lacks |= full & ~h
                    else:
                        outside |= h
                row[pat] = m | meet & outside & lacks
        return cls([lab for lab, _ in verts],
                   [row[pat] & ~(1 << i) for i, (_, pat) in enumerate(verts)])

    # -- basics -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"SimpleGraph({self.n} vertices, {self.edge_count()} edges)"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"no vertex {label!r}") from None

    def bfs(self, s: int) -> tuple[tuple[int, ...], int]:
        """Breadth-first search from vertex s: the balls, element d the
        bitmask of the vertices within distance d of s and the last s's
        component, and the far set of s.

        The far set holds the vertices v other than s, in s's component,
        with no neighbour farther from s than v: v is maximally distant
        from s.  A vertex of sphere d has a farther neighbour iff it is a
        neighbour of sphere d + 1, so the far set is every sphere less the
        neighbours of the next one.

        Each level takes one of two steps (the direction-optimising search
        of Beamer, Asanović & Patterson, 2012), whichever visits fewer
        vertices.  The top-down step ORs the rows of the sphere: the next
        sphere is that union less the ball, and the previous sphere's
        vertices outside it are far.  The bottom-up step tests the unseen
        vertices for a neighbour in the sphere, which gives the next
        sphere, and the previous sphere's vertices for one, which keeps
        those with none in far.  The counts are read with `bit_count` as
        the search goes; sphere 1 is s's row, read with no step.

        Questions about every source read `metric._sweep`, all sources in
        one pass, instead.  This search serves single sources: the orbit
        representatives of `metric._mmd_rows` on a graph of few orbits,
        and `connected_components`.
        """
        adj = self.adj
        bit = 1 << s
        sphere = adj[s]
        if not sphere:
            return (bit,), 0
        ball = [bit, bit | sphere]
        last, far = bit, 0
        unseen = (1 << len(adj)) - 1 ^ ball[1]
        size = sphere.bit_count()
        left = len(adj) - 1 - size
        while True:
            if left + last.bit_count() < size:
                nxt = 0
                for u in _bits(unseen):
                    if adj[u] & sphere:
                        nxt |= 1 << u
                for u in _bits(last):
                    if not adj[u] & sphere:
                        far |= 1 << u
            else:
                reach = 0
                for v in _bits(sphere):
                    reach |= adj[v]
                far |= last & ~reach
                nxt = reach & unseen
            if not nxt:
                return tuple(ball), far | sphere
            unseen ^= nxt
            size = nxt.bit_count()
            left -= size
            last, sphere = sphere, nxt
            ball.append(ball[-1] | nxt)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def _later_neighbours(self) -> Iterator[tuple[int, Iterator[int]]]:
        """Each vertex index i with its neighbours j > i, ascending."""
        for i, row in enumerate(self.adj):
            yield i, _bits(row >> i + 1 << i + 1)

    def edges_by_vertex(self) -> Iterator[tuple[str, list[str]]]:
        """Each vertex a with its neighbours b > a, in index order, which
        is label order: the edges (a, b) sorted, with no sort."""
        labels = self.labels
        for i, js in self._later_neighbours():
            yield labels[i], [labels[j] for j in js]

    def edge_list(self) -> list[tuple[str, str]]:
        labels = self.labels
        return [(labels[i], labels[j]) for i, js in self._later_neighbours()
                for j in js]

    def labeled_equal(self, other: "SimpleGraph") -> bool:
        # both graphs hold their vertices in sorted label order
        return self.labels == other.labels and self.adj == other.adj

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2

    def subgraph(self, keep: Iterable[str]) -> "SimpleGraph":
        keep_set = set(keep)
        return SimpleGraph.from_rows(
            [lab if lab in keep_set else None for lab in self.labels],
            self.adj)

    def relabeled(self, mapping: Mapping[str, str]) -> "SimpleGraph":
        """New graph with labels pushed through mapping (identity elsewhere)."""
        return SimpleGraph.from_rows(
            [str(mapping.get(lab, lab)) for lab in self.labels], self.adj)

    # -- export -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels),
                "edges": [[i, j] for i, js in self._later_neighbours()
                          for j in js]}


def write_dot(fh: TextIO, name: str, labels: Iterable[str],
              edges: Iterable[tuple[str, Sequence[str]]]) -> None:
    """Write an undirected DOT graph to fh: the vertices, then for each
    (a, bs) the edges from a to every b in bs, all in the order given.
    One vertex's edge lines are written at a time, so that no export holds
    its text whole: G_SR of 2^13 has 31 million edges."""
    fh.write(f"graph {name} {{\n")
    fh.writelines(f'  "{lab}";\n' for lab in labels)
    for a, bs in edges:
        head = f'  "{a}" -- "'
        fh.write("".join([f'{head}{b}";\n' for b in bs]))
    fh.write("}\n")


def write_json(fh: TextIO, g: SimpleGraph) -> None:
    """Write json.dump(g.to_json_dict(), fh, indent=2, sort_keys=True) and
    a newline, one vertex's edges at a time, as write_dot does: the edge
    list of G_SR of 2^11 would take over 200 MB whole."""
    # imported here, so that `import zdgdim` does not load json
    import json
    fh.write('{\n  "edges": [')
    sep = "\n"
    for i, js in g._later_neighbours():
        head = f"    [\n      {i},\n      "
        items = [f"{head}{j}\n    ]" for j in js]
        if items:
            fh.write(sep + ",\n".join(items))
            sep = ",\n"
    fh.write("]" if sep == "\n" else "\n  ]")
    fh.write(',\n  "labels": [')
    if g.labels:
        fh.write("\n" + ",\n".join(f"    {json.dumps(lab)}"
                                    for lab in g.labels) + "\n  ]")
    else:
        fh.write("]")
    fh.write("\n}\n")


# -- graphs from posets ------------------------------------------------------

def zero_divisor_patterns(P: FinitePoset) -> list[tuple[str, int]]:
    """Z*(P) as (label, pattern) pairs, in element order, each pattern the
    bitmask of the atoms below the element.  x and y meet only in 0 iff
    no atom lies below both (the lemma of `_ann_masks`), so G(P) is
    `SimpleGraph.from_patterns` on these pairs."""
    atoms = P._atoms_mask()
    return [(lab, d & atoms) for lab, d in compress(
        zip(P.labels, P.down), P._zero_divisor_flags())]


def zero_divisor_graph(P: FinitePoset) -> SimpleGraph:
    """G(P): vertices Z*(P), edges between elements meeting only in 0,
    read off `zero_divisor_patterns`.  Built once per poset and kept on
    it."""
    if P._zdg is None:
        P._zdg = SimpleGraph.from_patterns(zero_divisor_patterns(P))
    return P._zdg


# -- combinators -------------------------------------------------------------

def graph_join(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus all edges between the two sides."""
    left = (1 << g.n) - 1
    right = ((1 << h.n) - 1) << g.n
    return SimpleGraph.from_rows(
        g.labels + h.labels,
        [row | right for row in g.adj] + [row << g.n | left for row in h.adj])


def complete_graph_on(labels: Sequence[str]) -> SimpleGraph:
    return SimpleGraph.from_patterns((lab, 0) for lab in labels)


def remove_isolated(g: SimpleGraph) -> SimpleGraph:
    return SimpleGraph.from_rows(
        [lab if row else None for lab, row in zip(g.labels, g.adj)], g.adj)


def connected_components(g: SimpleGraph) -> list[frozenset[str]]:
    """Vertex sets of the components, ordered by least label (index order
    is label order)."""
    comps = []
    unseen = (1 << g.n) - 1
    while unseen:
        comp = g.bfs((unseen & -unseen).bit_length() - 1)[0][-1]
        comps.append(frozenset(g.labels[i] for i in _bits(comp)))
        unseen &= ~comp
    return comps
