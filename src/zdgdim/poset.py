"""Finite bounded posets and lattices with annihilator machinery.

Elements are indexed 0..n-1 in construction order and addressed by label.
A poset keeps the relation it is built from, below[i] listing elements
below i, and stores the order, the relation's reflexive-transitive closure,
as one down-set and one up-set bitmask per element.  Down-set
intersections, annihilators and meet/join lookups are then single integer
operations: the meet of x and y exists iff down(x) & down(y) is itself a
principal down-set, and then it equals that principal element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Optional, Sequence

from .errors import CycleDetected, NotALattice, NotBounded, UnknownElement


# `_bits` scans a string for masks wider than 1024 bits.  Measured over
# random masks of 256 to 4096 bits, the scan is 1.2-1.4 times as fast as
# the loop on masks of 1024 to 2048 bits with a tenth to a half of their
# bits set, 2.6-2.9 times at 4096 bits, and 0.5-1 times below 768 bits;
# on a mask with one bit set it loses 2-6 microseconds at any width.  End
# to end on a 2-vCPU VM, with the loop alone against with the scan, the
# DOT export of G_SR of 2^13 (8190 rows, 31 million edges) took 23 s
# against 8 s, and `sdim --boolean 14 --method gsr` 2.35 s against 2.18 s.
# A bound, not a width, so that a narrow mask pays one comparison.
_SCAN_FROM = 1 << 1024


def _bits(mask: int):
    """Yield the set bit positions of mask, ascending.

    Below `_SCAN_FROM` each position costs one `mask & -mask` and one
    `mask ^= low`, which grow with the width of mask; from there on, one
    `str.find` in the reversed binary text, which grows with the distance
    to the next set bit.
    """
    if mask < _SCAN_FROM:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
    else:
        text = bin(mask)[:1:-1]
        i = text.find("1")
        while i >= 0:
            yield i
            i = text.find("1", i + 1)


@dataclass(frozen=True)
class ClassPartition:
    """Partition of a bounded poset by equal annihilators.

    classes are tuples of element indices (each sorted, ordered by least
    member); class_of maps element index -> class id.  boolean_image is
    present only when the quotient order is Boolean: it maps each class to
    the subset mask of the atoms lying below its members, with the i-th
    atom (in element order) at bit i.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    boolean_image: Optional[tuple[int, ...]]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


class FinitePoset:
    """Immutable finite poset, optionally bounded.

    below[i] lists elements below i, a relation whose reflexive-transitive
    closure is the order; down[i] is the bitmask of {j : j <= i}, up[i] of
    {j : i <= j}.  All label-returning operations sort by element index.
    The constructor takes its input as given, raising only CycleDetected;
    from_cover_relations is the checked entry for outside data.
    """

    __slots__ = ("labels", "below", "down", "up", "bottom", "top",
                 "_index", "_down_index", "_up_index", "_ann", "_zd", "_pc")

    def __init__(self, labels: Sequence[str],
                 below: Sequence[Sequence[int]],
                 bottom: Optional[int] = None, top: Optional[int] = None):
        self.labels = tuple(str(x) for x in labels)
        n = len(self.labels)
        self.below = tuple(map(tuple, below))
        above: list[list[int]] = [[] for _ in range(n)]
        for j, row in enumerate(self.below):
            for i in row:
                above[i].append(j)
        # Kahn's algorithm from the maximal elements: each element comes
        # after every element above it
        pending = list(map(len, above))
        order = [i for i in range(n) if not pending[i]]
        for j in order:
            for i in self.below[j]:
                pending[i] -= 1
                if not pending[i]:
                    order.append(i)
        if len(order) != n:
            raise CycleDetected("cover relation contains a cycle")
        self.down = tuple(_down_sets(self.below, reversed(order)))
        self.up = tuple(_down_sets(above, order))
        self.bottom = bottom
        self.top = top
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        # down masks determine their elements (x = max of its own down-set),
        # so these dicts give O(1) meets and joins.
        self._down_index = {self.down[i]: i for i in range(n)}
        self._up_index = {self.up[i]: i for i in range(n)}
        self._ann = None
        self._zd = None
        self._pc = None

    # -- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return (self.labels == other.labels and self.down == other.down
                and self.bottom == other.bottom and self.top == other.top)

    def __hash__(self):
        return hash((self.labels, self.down))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self)} elements)"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"no element {label!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return self.down[self.index(b)] >> self.index(a) & 1 == 1

    def _labels_of(self, mask: int) -> list[str]:
        return [self.labels[i] for i in _bits(mask)]

    def _lower_covers(self) -> list[tuple[int, ...]]:
        """The elements that each element covers, ascending: the pairs
        (a, b) of the relation with nothing between a and b, once each."""
        up, down = self.up, self.down
        return [tuple(sorted({a for a in row
                              if up[a] & down[b] == (1 << a) | (1 << b)}))
                for b, row in enumerate(self.below)]

    def covers(self) -> list[tuple[str, str]]:
        """Cover pairs (a, b) with b covering a, in index order."""
        return [(self.labels[a], self.labels[b])
                for b, lower in enumerate(self._lower_covers())
                for a in lower]

    # -- joins and the lattice test ---------------------------------------

    def join(self, a: str, b: str) -> Optional[str]:
        k = self._up_index.get(self.up[self.index(a)] & self.up[self.index(b)])
        return None if k is None else self.labels[k]

    def is_lattice(self) -> bool:
        """Some element lies above every element, and every two lower
        covers of one element have a meet.

        Then all meets exist.  Otherwise take a pair x, y with no meet and
        a common upper bound z (the top is one) with the smallest down-set.
        x and y are incomparable and below z, so z covers some x1 >= x and
        y1 >= y; x1 = y1 would be a smaller bound, so the test gives
        w = x1 ^ y1.  Below x1, smaller than z, u = x ^ w exists, and below
        y1 so does v = u ^ y.  Every common lower bound of x and y lies
        below w, u and v, so v = x ^ y.  With all meets and a top, the join
        of x and y is the meet of their upper bounds (Davey & Priestley,
        ch. 2).

        Two lower covers of z are incomparable, with z a minimal upper
        bound: an upper bound below z would equal both.  A pair under two
        such z has no join, so in a lattice the pairs, summed over z,
        number at most C(n, 2).  A larger sum refuses K_{400,400} between
        bounds, the top last, before its 32 million pairs ask for a meet.
        """
        n = len(self.labels)
        if (1 << n) - 1 not in self._down_index:
            return False
        lower = self._lower_covers()
        if sum(len(c) * (len(c) - 1) // 2 for c in lower) > n * (n - 1) // 2:
            return False
        has, down = self._down_index.__contains__, self.down
        return all(has(down[a] & down[b])
                   for c in lower for a, b in combinations(c, 2))

    # -- annihilators and friends ----------------------------------------

    def _require_bottom(self) -> int:
        if self.bottom is None:
            raise NotBounded("operation needs a declared least element")
        return self.bottom

    def _ann_masks(self) -> tuple[int, ...]:
        """ann(x) = the complement of the union of up(a) over the atoms
        a <= x.  In a finite poset every nonzero common lower bound of x
        and y lies above an atom, so x and y meet only in 0 iff no atom
        lies below both.  One union per distinct set of atoms below."""
        if self._ann is None:
            self._require_bottom()
            atoms = self._atoms_mask()
            full = (1 << len(self.labels)) - 1
            by_atoms: dict[int, int] = {}
            ann = []
            for d in self.down:
                key = d & atoms
                m = by_atoms.get(key)
                if m is None:
                    m = full
                    for a in _bits(key):
                        m &= ~self.up[a]
                    by_atoms[key] = m
                ann.append(m)
            self._ann = tuple(ann)
        return self._ann

    def annihilator(self, a: str) -> list[str]:
        """Elements b with {a, b}^lower = {bottom}."""
        return self._labels_of(self._ann_masks()[self.index(a)])

    def _zero_divisor_flags(self) -> tuple[bool, ...]:
        """Z*(P) by element index: the nonzero x with some atom t not
        below x, which gives {x, t}^lower = {0}.  If every atom is below x,
        every nonzero y lies above an atom it then shares with x, so
        ann(x) = {0}."""
        if self._zd is None:
            atoms = self._atoms_mask()
            self._zd = tuple(0 < d & atoms != atoms for d in self.down)
        return self._zd

    def zero_divisors(self) -> list[str]:
        return list(compress(self.labels, self._zero_divisor_flags()))

    def is_zero_divisor(self, a: str) -> bool:
        """a is in Z*(P); False for a label that is not in P."""
        i = self._index.get(a)
        return i is not None and self._zero_divisor_flags()[i]

    def atoms(self) -> list[str]:
        return self._labels_of(self._atoms_mask())

    def _atoms_mask(self) -> int:
        bot = self._require_bottom()
        m = 0
        for i in range(len(self.labels)):
            if i != bot and self.down[i] == (1 << bot) | (1 << i):
                m |= 1 << i
        return m

    def _pseudocomplement_indices(self) -> tuple[int, ...]:
        """The pseudocomplement of each element by index, -1 where none.

        The pseudocomplement of x is the maximum of ann(x).  ann(x) is a
        down-set, so it has a maximum exactly when it is some element's
        down-set, and that element is the maximum."""
        if self._pc is None:
            self._pc = tuple(self._down_index.get(a, -1)
                             for a in self._ann_masks())
        return self._pc

    def pseudocomplement(self, a: str) -> Optional[str]:
        i = self.index(a)
        k = self._pseudocomplement_indices()[i]
        return None if k < 0 else self.labels[k]

    def is_pseudocomplemented(self) -> bool:
        self._require_bottom()
        return all(k >= 0 for k in self._pseudocomplement_indices())

    # -- structural predicates -------------------------------------------

    def is_zero_distributive(self) -> bool:
        """a ∧ b = 0 and a ∧ c = 0 imply a ∧ (b ∨ c) = 0, over all triples.

        A finite lattice has this property iff it is pseudocomplemented
        (Varlet 1968), which is what is tested.  With a pseudocomplement,
        b and c lie below a*, and so does b ∨ c.  Without one, some ann(a)
        has two maximal elements b and c, and b ∨ c, above both, is not in
        ann(a).
        """
        if not self.is_lattice():
            raise NotALattice("0-distributivity is tested on lattices")
        return self.is_pseudocomplemented()

    # -- the annihilator quotient ------------------------------------------

    def quotient_classes(self) -> ClassPartition:
        """Partition by equal annihilators, with its Boolean image when the
        quotient is Boolean.

        ann(b) is contained in ann(a) exactly when every atom below a lies
        below b.  One way is `_ann_masks`'s lemma; the other holds because
        an atom t below a but not below b is in ann(b) and not in ann(a).
        So the classes are the sets of atoms below, ordered by inclusion,
        and with k atoms the quotient is Boolean, 2^k, iff all 2^k sets
        occur.  boolean_image then gives each class's atom set with the
        i-th atom (in element order) at bit i.
        """
        atoms = self._atoms_mask()
        by_atoms: dict[int, list[int]] = {}
        for i, d in enumerate(self.down):
            by_atoms.setdefault(d & atoms, []).append(i)
        # first seen in index order, so ordered by least member
        classes = tuple(map(tuple, by_atoms.values()))
        class_of = [0] * len(self.labels)
        for cid, members in enumerate(classes):
            for i in members:
                class_of[i] = cid
        place = list(_bits(atoms))
        image = None
        # no atom holds only for the one-element lattice: its quotient is 2^0
        if len(classes) == 1 << len(place):
            image = tuple(sum(1 << t for t, a in enumerate(place)
                              if key >> a & 1) for key in by_atoms)
        return ClassPartition(classes=classes, class_of=tuple(class_of),
                              boolean_image=image)


# -- constructors ----------------------------------------------------------

def _down_sets(below: Sequence[Sequence[int]],
               order: Iterable[int]) -> list[int]:
    """Down-set masks of the reflexive-transitive closure of a relation,
    where below[j] lists indices below j and order visits each index after
    everything below it."""
    down = [0] * len(below)
    for j in order:
        m = 1 << j
        for i in below[j]:
            m |= down[i]
        down[j] = m
    return down


def from_cover_relations(labels: Sequence[str],
                         covers: Iterable[tuple[str, str]],
                         bottom: str, top: str) -> FinitePoset:
    """Build a bounded poset from cover pairs (lower, upper).

    The order is the reflexive-transitive closure of the pairs, which may
    repeat or hold transitive pairs.  Raises CycleDetected for cyclic pairs
    and NotBounded when the declared bottom or top is not least or
    greatest.
    """
    labels = [str(x) for x in labels]
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("element labels must be unique")
    for name in (bottom, top):
        if name not in index:
            raise UnknownElement(f"no element {name!r}")
    n = len(labels)
    below = [[] for _ in range(n)]   # below[i] = elements below i
    for lo, hi in covers:
        i, j = index.get(lo), index.get(hi)
        if i is None or j is None:
            raise UnknownElement(f"cover pair ({lo!r}, {hi!r}) uses unknown labels")
        if i == j:
            raise CycleDetected(f"cover ({lo!r}, {hi!r}) is a self-loop")
        below[j].append(i)
    P = FinitePoset(labels, below, bottom=index[bottom], top=index[top])
    if P.up[P.bottom] != (1 << n) - 1:
        raise NotBounded(f"{bottom!r} is not a least element")
    if P.down[P.top] != (1 << n) - 1:
        raise NotBounded(f"{top!r} is not a greatest element")
    return P


def m_lattice(n: int) -> FinitePoset:
    """M_n: bottom, top and n pairwise incomparable atoms."""
    if n < 1:
        raise ValueError("M_n needs at least one atom")
    labels = ["0"] + [f"a{i}" for i in range(1, n + 1)] + ["1"]
    covers = [("0", f"a{i}") for i in range(1, n + 1)]
    covers += [(f"a{i}", "1") for i in range(1, n + 1)]
    return from_cover_relations(labels, covers, "0", "1")


def poset_to_json(P: FinitePoset) -> dict:
    """JSON form: labels, cover pairs as index pairs, bottom/top indices."""
    cov = sorted((P.index(a), P.index(b)) for a, b in P.covers())
    return {"labels": list(P.labels), "covers": [list(c) for c in cov],
            "bottom": P.bottom, "top": P.top}


def _malformed(why: str) -> ValueError:
    return ValueError(f"malformed poset JSON: {why}")


def _json_label(labels: Sequence[str], i) -> str:
    """labels[i] for an index read from JSON, which must be an int (not a
    bool) in range(len(labels)): Python would read -1 as the last label."""
    if type(i) is not int or not 0 <= i < len(labels):
        raise _malformed(f"index {i!r} is not an int in range({len(labels)})")
    return labels[i]


def poset_from_json(data: dict) -> FinitePoset:
    """The poset of `poset_to_json`'s form.  Raises `_malformed` for the
    first defect: data is not an object, a field is missing, "labels" or
    "covers" is not a list, a cover is not a pair, or an index is out of
    range."""
    if not isinstance(data, dict):
        raise _malformed(f"a poset is a JSON object (got {data!r})")
    for key in ("labels", "covers", "bottom", "top"):
        if key not in data:
            raise _malformed(f"no field {key!r}")
        if key in ("labels", "covers") and not isinstance(data[key], list):
            raise _malformed(
                f"field {key!r} must be a list (got {data[key]!r})")
    for pair in data["covers"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise _malformed(f"a cover is a pair of indices (got {pair!r})")
    labels = [str(x) for x in data["labels"]]
    covers = [tuple(_json_label(labels, i) for i in pair)
              for pair in data["covers"]]
    return from_cover_relations(labels, covers,
                                _json_label(labels, data["bottom"]),
                                _json_label(labels, data["top"]))
