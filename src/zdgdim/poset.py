"""Finite bounded posets and lattices with annihilator machinery.

Elements are indexed 0..n-1 in construction order and addressed by label.
The order relation is stored as one down-set bitmask per element, so cone
intersections, annihilators and meet/join lookups are single integer
operations: the meet of x and y exists iff down(x) & down(y) is itself a
principal down-set, and then it equals that principal element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from .errors import CycleDetected, NotALattice, NotBounded, UnknownElement


def _bits(mask: int):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ClassPartition:
    """Partition of a bounded poset by equal annihilators.

    classes are tuples of element indices (each sorted, ordered by least
    member); class_of maps element index -> class id.  boolean_image is
    present only when the quotient order is Boolean: it maps each class to
    the subset mask of atom-classes lying below it, with the i-th atom (in
    element order) at bit i.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    boolean_image: Optional[tuple[int, ...]]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


class FinitePoset:
    """Immutable finite poset, optionally bounded.

    down[i] is the bitmask of {j : j <= i}; up[i] the bitmask of {j : i <= j}.
    All label-returning operations sort by element index.
    """

    __slots__ = ("labels", "down", "up", "bottom", "top",
                 "_index", "_down_index", "_up_index", "_ann", "_zd")

    def __init__(self, labels: Sequence[str], down: Sequence[int],
                 bottom: Optional[int] = None, top: Optional[int] = None,
                 validate: bool = True):
        self.labels = tuple(str(x) for x in labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("element labels must be unique")
        if len(down) != n:
            raise ValueError("down mask count does not match label count")
        self.down = tuple(down)
        up = [0] * n
        for i in range(n):
            for j in _bits(self.down[i]):
                up[j] |= 1 << i
        self.up = tuple(up)
        if validate:
            self._check_order_axioms()
        full = (1 << n) - 1
        if bottom is not None and self.up[bottom] != full:
            raise NotBounded(f"{self.labels[bottom]!r} is not a least element")
        if top is not None and self.down[top] != full:
            raise NotBounded(f"{self.labels[top]!r} is not a greatest element")
        self.bottom = bottom
        self.top = top
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        # down masks determine their elements (x = max of its own down-set),
        # so these dicts give O(1) meets and joins.
        self._down_index = {self.down[i]: i for i in range(n)}
        self._up_index = {self.up[i]: i for i in range(n)}
        self._ann = None
        self._zd = None

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

    def _check_order_axioms(self):
        n = len(self.labels)
        for i in range(n):
            if not self.down[i] >> i & 1:
                raise ValueError("order is not reflexive")
            for j in _bits(self.down[i]):
                if j != i and self.down[j] >> i & 1:
                    raise ValueError("order is not antisymmetric")
                if self.down[j] & ~self.down[i]:
                    raise ValueError("order is not transitive")

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"no element {label!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return self.down[self.index(b)] >> self.index(a) & 1 == 1

    def _labels_of(self, mask: int) -> list[str]:
        return [self.labels[i] for i in _bits(mask)]

    def covers(self) -> list[tuple[str, str]]:
        """Cover pairs (a, b) with b covering a, in index order."""
        out = []
        n = len(self.labels)
        for b in range(n):
            for a in _bits(self.down[b]):
                if a != b and self.up[a] & self.down[b] == (1 << a) | (1 << b):
                    out.append((self.labels[a], self.labels[b]))
        return out

    # -- cones, meets, joins ---------------------------------------------

    def _cone_mask(self, elements: Iterable[str], *, lower: bool) -> int:
        mask = (1 << len(self.labels)) - 1
        rel = self.down if lower else self.up
        for a in elements:
            mask &= rel[self.index(a)]
        return mask

    def lower_cone(self, elements: Iterable[str]) -> list[str]:
        return self._labels_of(self._cone_mask(elements, lower=True))

    def upper_cone(self, elements: Iterable[str]) -> list[str]:
        return self._labels_of(self._cone_mask(elements, lower=False))

    def _meet_idx(self, i: int, j: int) -> int:
        """Index of the meet of elements i, j; -1 when it does not exist."""
        return self._down_index.get(self.down[i] & self.down[j], -1)

    def _join_idx(self, i: int, j: int) -> int:
        return self._up_index.get(self.up[i] & self.up[j], -1)

    def meet(self, a: str, b: str) -> Optional[str]:
        k = self._meet_idx(self.index(a), self.index(b))
        return None if k < 0 else self.labels[k]

    def join(self, a: str, b: str) -> Optional[str]:
        k = self._join_idx(self.index(a), self.index(b))
        return None if k < 0 else self.labels[k]

    def is_lattice(self) -> bool:
        n = len(self.labels)
        return all(self._meet_idx(i, j) >= 0 and self._join_idx(i, j) >= 0
                   for i in range(n) for j in range(i + 1, n))

    # -- annihilators and friends ----------------------------------------

    def _require_bottom(self) -> int:
        if self.bottom is None:
            raise NotBounded("operation needs a declared least element")
        return self.bottom

    def _ann_masks(self) -> tuple[int, ...]:
        if self._ann is None:
            zero = 1 << self._require_bottom()
            n = len(self.labels)
            ann = []
            for i in range(n):
                di = self.down[i]
                m = 0
                for j in range(n):
                    if di & self.down[j] == zero:
                        m |= 1 << j
                ann.append(m)
            self._ann = tuple(ann)
        return self._ann

    def annihilator(self, a: str) -> list[str]:
        """Elements b with {a, b}^lower = {bottom}."""
        return self._labels_of(self._ann_masks()[self.index(a)])

    def _zero_divisor_flags(self) -> tuple[bool, ...]:
        """Z*(P) by element index: not bottom, annihilator beyond {0}."""
        if self._zd is None:
            zero = 1 << self._require_bottom()
            flags = [m != zero for m in self._ann_masks()]
            flags[self.bottom] = False
            self._zd = tuple(flags)
        return self._zd

    def zero_divisors(self) -> list[str]:
        return list(compress(self.labels, self._zero_divisor_flags()))

    def is_zero_divisor(self, a: str) -> bool:
        """a is in Z*(P); False for a label that is not in P."""
        i = self._index.get(a)
        return i is not None and self._zero_divisor_flags()[i]

    def dense_elements(self) -> list[str]:
        """Elements outside Z(P), i.e. with annihilator exactly {0}."""
        zero = 1 << self._require_bottom()
        ann = self._ann_masks()
        return [self.labels[i] for i in range(len(self.labels))
                if ann[i] == zero]

    def atoms(self) -> list[str]:
        return self._labels_of(self._atoms_mask())

    def _atoms_mask(self) -> int:
        bot = self._require_bottom()
        m = 0
        for i in range(len(self.labels)):
            if i != bot and self.down[i] == (1 << bot) | (1 << i):
                m |= 1 << i
        return m

    def _pseudocomplement_idx(self, i: int) -> int:
        ann = self._ann_masks()[i]
        # the pseudocomplement is the maximum of the annihilator, which in a
        # finite poset exists iff the annihilator has a single maximal element
        maximal = [j for j in _bits(ann) if self.up[j] & ann == 1 << j]
        return maximal[0] if len(maximal) == 1 else -1

    def pseudocomplement(self, a: str) -> Optional[str]:
        k = self._pseudocomplement_idx(self.index(a))
        return None if k < 0 else self.labels[k]

    def is_pseudocomplemented(self) -> bool:
        self._require_bottom()
        return all(self._pseudocomplement_idx(i) >= 0
                   for i in range(len(self.labels)))

    # -- structural predicates -------------------------------------------

    def is_zero_distributive(self) -> bool:
        """a ∧ b = 0 and a ∧ c = 0 imply a ∧ (b ∨ c) = 0, over all triples.

        Equivalent formulation used here: every annihilator is join-closed.
        """
        if not self.is_lattice():
            raise NotALattice("0-distributivity is tested on lattices")
        ann = self._ann_masks()
        for i in range(len(self.labels)):
            members = list(_bits(ann[i]))
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    j = self._join_idx(members[x], members[y])
                    if not ann[i] >> j & 1:
                        return False
        return True

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.labels, self.up, bottom=self.top,
                           top=self.bottom, validate=False)

    def is_boolean(self) -> bool:
        """Bounded + distributive + complemented.

        Tested as: a bounded lattice with 2^k elements for its k atoms, in
        which no two elements lie above the same set of atoms.  The map
        x -> (atoms below x) is then a bijection onto the subsets of the
        atoms, and it reflects order because x ∧ y lies above exactly the
        atoms common to x and y, so the lattice is the Boolean lattice 2^k.
        """
        if self.bottom is None or self.top is None or not self.is_lattice():
            return False
        atoms = self._atoms_mask()
        if len(self.labels) != 1 << atoms.bit_count():
            return False
        return len({d & atoms for d in self.down}) == len(self.labels)

    # -- the annihilator quotient ------------------------------------------

    def quotient_classes(self) -> ClassPartition:
        """Partition by equal annihilators, with Boolean image when it exists.

        When the poset is pseudocomplemented the partition by equal
        pseudocomplements must coincide; this is cross-checked on every call.
        """
        ann = self._ann_masks()
        n = len(self.labels)
        by_ann: dict[int, list[int]] = {}
        for i in range(n):
            by_ann.setdefault(ann[i], []).append(i)
        classes = tuple(sorted((tuple(v) for v in by_ann.values()),
                               key=lambda c: c[0]))
        class_of = [0] * n
        for cid, members in enumerate(classes):
            for i in members:
                class_of[i] = cid

        pcs = [self._pseudocomplement_idx(i) for i in range(n)]
        if all(k >= 0 for k in pcs):
            for members in classes:
                if len({pcs[i] for i in members}) != 1:
                    raise AssertionError("annihilator classes disagree with "
                                         "pseudocomplement classes")
            if len({pcs[c[0]] for c in classes}) != len(classes):
                raise AssertionError("pseudocomplement classes disagree with "
                                     "annihilator classes")

        boolean_image = self._boolean_image(ann, classes, class_of)
        return ClassPartition(classes=classes, class_of=tuple(class_of),
                              boolean_image=boolean_image)

    def _boolean_image(self, ann, classes, class_of):
        atoms = list(_bits(self._atoms_mask()))
        k = len(atoms)
        # k = 0 holds only for the one-element lattice: its quotient is 2^0
        if len(classes) != 1 << k:
            return None
        atom_class = [class_of[a] for a in atoms]
        # class order: [a] <= [b] iff ann(b) is contained in ann(a)
        reps = [c[0] for c in classes]

        def cls_leq(c, d):
            return ann[reps[d]] & ~ann[reps[c]] == 0

        masks = []
        for cid in range(len(classes)):
            m = 0
            for t in range(k):
                if cls_leq(atom_class[t], cid):
                    m |= 1 << t
            masks.append(m)
        if len(set(masks)) != len(classes):
            return None
        for c in range(len(classes)):
            for d in range(len(classes)):
                if cls_leq(c, d) != (masks[c] & ~masks[d] == 0):
                    return None
        return tuple(masks)


# -- constructors ----------------------------------------------------------

def from_cover_relations(labels: Sequence[str],
                         covers: Iterable[tuple[str, str]],
                         bottom: str, top: str) -> FinitePoset:
    """Build a bounded poset from Hasse-diagram cover pairs (lower, upper).

    The order is the reflexive-transitive closure of the covers.  Raises
    CycleDetected for cyclic covers and NotBounded when the declared bottom
    or top is not least or greatest.
    """
    labels = [str(x) for x in labels]
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("element labels must be unique")
    for name in (bottom, top):
        if name not in index:
            raise UnknownElement(f"no element {name!r}")
    n = len(labels)
    below = [[] for _ in range(n)]   # below[i] = elements covered by i
    outdeg = [0] * n
    for lo, hi in covers:
        i, j = index.get(lo), index.get(hi)
        if i is None or j is None:
            raise UnknownElement(f"cover pair ({lo!r}, {hi!r}) uses unknown labels")
        if i == j:
            raise CycleDetected(f"cover ({lo!r}, {hi!r}) is a self-loop")
        below[j].append(i)
        outdeg[i] += 1

    # Kahn's algorithm: a topological order with covered elements first
    pending = outdeg[:]
    order = [i for i in range(n) if pending[i] == 0]
    head = 0
    while head < len(order):
        j = order[head]
        head += 1
        for i in below[j]:
            pending[i] -= 1
            if pending[i] == 0:
                order.append(i)
    if len(order) != n:
        raise CycleDetected("cover relation contains a cycle")

    # down sets accumulate along reversed topological order
    down = [0] * n
    for j in reversed(order):
        m = 1 << j
        for i in below[j]:
            m |= down[i]
        down[j] = m
    return FinitePoset(labels, down, bottom=index[bottom], top=index[top])


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


def _json_label(labels: Sequence[str], i) -> str:
    """labels[i] for an index read from JSON, which must be an int (not a
    bool) in range(len(labels)): Python would read -1 as the last label."""
    if type(i) is not int or not 0 <= i < len(labels):
        raise IndexError(
            f"index {i!r} is not an int in range({len(labels)})")
    return labels[i]


def poset_from_json(data: dict) -> FinitePoset:
    try:
        labels = [str(x) for x in data["labels"]]
        covers = [(_json_label(labels, i), _json_label(labels, j))
                  for i, j in data["covers"]]
        bottom = _json_label(labels, data["bottom"])
        top = _json_label(labels, data["top"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed poset JSON: {exc}") from exc
    return from_cover_relations(labels, covers, bottom, top)
