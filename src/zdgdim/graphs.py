"""Simple labeled graphs and the lattice / Boolean-ring graph constructions.

Vertices are kept in sorted label order so DOT and JSON exports are
byte-stable; adjacency is one bitmask row per vertex.  Graph equality
throughout the package is labeled equality (same label set, same edge set),
never isomorphism.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .blowup import tuple_label
from .errors import LabelCollision, NotBounded, UnknownElement
from .poset import FinitePoset, _bits


class SimpleGraph:
    """Immutable simple undirected graph with canonical vertex order."""

    # _dist holds the distance table that metric.all_pairs_distances
    # computes on first use and every later caller shares
    __slots__ = ("labels", "adj", "_index", "_dist")

    def __init__(self, labels: Sequence[str], adj: Sequence[int]):
        self.labels = tuple(labels)
        self.adj = tuple(adj)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._dist = None

    @classmethod
    def from_edges(cls, labels: Iterable[str],
                   edges: Iterable[tuple[str, str]]) -> "SimpleGraph":
        labs = sorted(str(x) for x in labels)
        if len(set(labs)) != len(labs):
            raise LabelCollision("duplicate vertex labels")
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
        return cls(labs, adj)

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

    def has_edge(self, a: str, b: str) -> bool:
        return self.adj[self.index(a)] >> self.index(b) & 1 == 1

    def neighbors(self, a: str) -> list[str]:
        return [self.labels[j] for j in _bits(self.adj[self.index(a)])]

    def degree(self, a: str) -> int:
        return self.adj[self.index(a)].bit_count()

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edge_list(self) -> list[tuple[str, str]]:
        out = []
        for i in range(self.n):
            for j in _bits(self.adj[i]):
                if j > i:
                    out.append((self.labels[i], self.labels[j]))
        return out

    def labeled_equal(self, other: "SimpleGraph") -> bool:
        if set(self.labels) != set(other.labels):
            return False
        return (set(map(frozenset, self.edge_list()))
                == set(map(frozenset, other.edge_list())))

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2

    def complement(self) -> "SimpleGraph":
        full = (1 << self.n) - 1
        adj = [full & ~(self.adj[i] | 1 << i) for i in range(self.n)]
        return SimpleGraph(self.labels, adj)

    def subgraph(self, keep: Iterable[str]) -> "SimpleGraph":
        keep_set = set(keep)
        return SimpleGraph.from_edges(
            [lab for lab in self.labels if lab in keep_set],
            [(a, b) for a, b in self.edge_list()
             if a in keep_set and b in keep_set])

    def relabeled(self, mapping: Mapping[str, str]) -> "SimpleGraph":
        """New graph with labels pushed through mapping (identity elsewhere)."""
        new = [str(mapping.get(lab, lab)) for lab in self.labels]
        return SimpleGraph.from_edges(
            new, [(mapping.get(a, a), mapping.get(b, b))
                  for a, b in self.edge_list()])

    # -- export -----------------------------------------------------------

    def to_dot(self, name: str = "G") -> str:
        return dot_text(name, self.labels, self.edge_list())

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels),
                "edges": [[i, j] for i in range(self.n)
                          for j in _bits(self.adj[i]) if j > i]}


def dot_text(name: str, labels: Iterable[str],
             edges: Iterable[tuple[str, str]]) -> str:
    """Undirected DOT graph: the vertices in the given order, then the
    edges sorted."""
    lines = [f"graph {name} {{"]
    lines += [f'  "{lab}";' for lab in labels]
    lines += [f'  "{a}" -- "{b}";' for a, b in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_from_json(data: dict) -> SimpleGraph:
    try:
        labels = [str(x) for x in data["labels"]]
        edges = [(labels[i], labels[j]) for i, j in data["edges"]]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    return SimpleGraph.from_edges(labels, edges)


def labeled_equal(g: SimpleGraph, h: SimpleGraph) -> bool:
    return g.labeled_equal(h)


# -- graphs from posets ------------------------------------------------------

def zero_divisor_graph(P: FinitePoset) -> SimpleGraph:
    """G(P): vertices Z*(P), edges between elements meeting only in 0."""
    # the neighbours of x are the nonzero elements of ann(x), each of which
    # is itself in Z*
    zero = 1 << P._require_bottom()
    ann = P._ann_masks()
    labels = sorted(P.zero_divisors())
    at = {P.index(lab): k for k, lab in enumerate(labels)}
    adj = [0] * len(labels)
    for i, k in at.items():
        for j in _bits(ann[i] & ~zero):
            adj[k] |= 1 << at[j]
    return SimpleGraph(labels, adj)


def comparability_graph(L: FinitePoset) -> SimpleGraph:
    """Com(L) on L minus bounds; edges between comparable elements."""
    if L.bottom is None or L.top is None:
        raise NotBounded("comparability graph needs a bounded poset")
    verts = [i for i in range(len(L)) if i not in (L.bottom, L.top)]
    edges = []
    for x in range(len(verts)):
        i = verts[x]
        for y in range(x + 1, len(verts)):
            j = verts[y]
            if L.down[j] >> i & 1 or L.down[i] >> j & 1:
                edges.append((L.labels[i], L.labels[j]))
    return SimpleGraph.from_edges([L.labels[i] for i in verts], edges)


def incomparability_graph(L: FinitePoset) -> SimpleGraph:
    return comparability_graph(L).complement()


# -- graphs from the Boolean ring prod Z_2 -----------------------------------

def _ring_ann_mask(x: int, size: int) -> int:
    """Annihilator of x in prod Z_2 as a bitmask over all 2^n ring elements."""
    m = 0
    for z in range(size):
        if z & x == 0:
            m |= 1 << z
    return m


def boolean_ring_zdg(n: int) -> SimpleGraph:
    """Zero-divisor graph of prod_1^n Z_2: masks 1..2^n-2, edges xy = 0."""
    if n < 2:
        raise ValueError("boolean_ring_zdg needs n >= 2")
    verts = list(range(1, (1 << n) - 1))
    labels = {x: tuple_label([x >> i & 1 for i in range(n)]) for x in verts}
    edges = [(labels[x], labels[y]) for xi, x in enumerate(verts)
             for y in verts[xi + 1:] if x & y == 0]
    return SimpleGraph.from_edges(labels.values(), edges)


def boolean_ring_annihilator_graph(n: int) -> SimpleGraph:
    """AG(prod Z_2): edges where ann(xy) differs from ann(x) union ann(y)."""
    if n < 2:
        raise ValueError("boolean_ring_annihilator_graph needs n >= 2")
    size = 1 << n
    verts = list(range(1, size - 1))
    labels = {x: tuple_label([x >> i & 1 for i in range(n)]) for x in verts}
    ann = {x: _ring_ann_mask(x, size) for x in range(size)}
    edges = []
    for xi, x in enumerate(verts):
        for y in verts[xi + 1:]:
            if ann[x & y] != ann[x] | ann[y]:
                edges.append((labels[x], labels[y]))
    return SimpleGraph.from_edges(labels.values(), edges)


# -- combinators -------------------------------------------------------------

def _check_disjoint(parts: Sequence[SimpleGraph]):
    seen: set[str] = set()
    for g in parts:
        overlap = seen.intersection(g.labels)
        if overlap:
            raise LabelCollision(f"shared vertex labels: {sorted(overlap)[:4]}")
        seen.update(g.labels)


def disjoint_union(parts: Sequence[SimpleGraph]) -> SimpleGraph:
    _check_disjoint(parts)
    labels: list[str] = []
    edges: list[tuple[str, str]] = []
    for g in parts:
        labels.extend(g.labels)
        edges.extend(g.edge_list())
    return SimpleGraph.from_edges(labels, edges)


def graph_join(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus all edges between the two sides."""
    _check_disjoint([g, h])
    edges = g.edge_list() + h.edge_list()
    edges += [(a, b) for a in g.labels for b in h.labels]
    return SimpleGraph.from_edges(list(g.labels) + list(h.labels), edges)


def complete_graph(t: int, prefix: str = "v") -> SimpleGraph:
    labels = [f"{prefix}{i}" for i in range(1, t + 1)]
    return complete_graph_on(labels)


def complete_graph_on(labels: Sequence[str]) -> SimpleGraph:
    labs = list(labels)
    edges = [(labs[i], labs[j]) for i in range(len(labs))
             for j in range(i + 1, len(labs))]
    return SimpleGraph.from_edges(labs, edges)


def remove_isolated(g: SimpleGraph) -> SimpleGraph:
    keep = [lab for i, lab in enumerate(g.labels) if g.adj[i]]
    return g.subgraph(keep)


def connected_components(g: SimpleGraph) -> list[frozenset[str]]:
    """Vertex sets of the components, ordered by least label."""
    unseen = set(range(g.n))
    comps = []
    while unseen:
        start = min(unseen)
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        members = frozenset(g.labels[i] for i in _bits(seen))
        comps.append(members)
        unseen -= set(_bits(seen))
    return sorted(comps, key=lambda c: min(c))
