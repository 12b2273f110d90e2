"""Finite bounded posets and lattices with annihilator machinery.

Elements are indexed 0..n-1 in construction order and addressed by label.
The order relation is stored as one down-set bitmask per element, so down-set
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
    All label-returning operations sort by element index.  The constructor
    takes its labels, down masks and bounds as given; from_cover_relations
    is the checked entry for outside data.
    """

    __slots__ = ("labels", "down", "up", "bottom", "top",
                 "_index", "_down_index", "_up_index", "_ann", "_zd", "_pc")

    def __init__(self, labels: Sequence[str], down: Sequence[int],
                 bottom: Optional[int] = None, top: Optional[int] = None):
        self.labels = tuple(str(x) for x in labels)
        n = len(self.labels)
        self.down = tuple(down)
        up = [0] * n
        for i in range(n):
            for j in _bits(self.down[i]):
                up[j] |= 1 << i
        self.up = tuple(up)
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

    def covers(self) -> list[tuple[str, str]]:
        """Cover pairs (a, b) with b covering a, in index order."""
        return [(self.labels[a], self.labels[b])
                for b in range(len(self.labels)) for a in _bits(self.down[b])
                if a != b and self.up[a] & self.down[b] == (1 << a) | (1 << b)]

    # -- meets and joins --------------------------------------------------

    def meet(self, a: str, b: str) -> Optional[str]:
        """The meet of a and b; None when it does not exist."""
        k = self._down_index.get(
            self.down[self.index(a)] & self.down[self.index(b)])
        return None if k is None else self.labels[k]

    def join(self, a: str, b: str) -> Optional[str]:
        k = self._up_index.get(self.up[self.index(a)] & self.up[self.index(b)])
        return None if k is None else self.labels[k]

    def is_lattice(self) -> bool:
        """Some element lies above every element, and every two elements
        have a meet.

        In a finite poset with a greatest element, pairwise meets give the
        meet of any nonempty set, and the join of x and y is the meet of
        their common upper bounds, a set that holds the greatest element
        (Davey & Priestley, ch. 2).  A comparable pair has its lesser
        element as meet; it passes the test anyway, and one `map` over
        every later element is cheaper than picking the incomparable ones
        out first.
        """
        index = self._down_index
        if (1 << len(self.labels)) - 1 not in index:
            return False
        has = index.__contains__
        down = self.down
        return all(all(map(has, map(d.__and__, down[i + 1:])))
                   for i, d in enumerate(down))

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
        """The pseudocomplement of each element by index, -1 where none."""
        if self._pc is None:
            pcs = []
            for ann in self._ann_masks():
                # the pseudocomplement is the maximum of the annihilator,
                # which in a finite poset exists iff the annihilator has a
                # single maximal element
                maximal = [j for j in _bits(ann) if self.up[j] & ann == 1 << j]
                pcs.append(maximal[0] if len(maximal) == 1 else -1)
            self._pc = tuple(pcs)
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

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.labels, self.up, bottom=self.top,
                           top=self.bottom)

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

        pcs = self._pseudocomplement_indices()
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

def _down_sets(below: Sequence[Sequence[int]],
               order: Iterable[int]) -> list[int]:
    """Down-set masks of the reflexive-transitive closure of a cover
    relation, where below[j] lists the indices that j covers and order
    visits each index after everything below it."""
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

    # Kahn's algorithm from the maximal elements: each element comes after
    # every element that covers it
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

    down = _down_sets(below, reversed(order))
    b, t = index[bottom], index[top]
    if not all(d >> b & 1 for d in down):
        raise NotBounded(f"{bottom!r} is not a least element")
    if down[t] != (1 << n) - 1:
        raise NotBounded(f"{top!r} is not a greatest element")
    return FinitePoset(labels, down, bottom=b, top=t)


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
