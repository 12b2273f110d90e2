"""Boolean lattices, products of chains, and generalized chain blow-ups.

A blow-up replaces every nonzero proper element of the Boolean lattice 2^n
(identified with a nonempty proper subset mask of the n atoms) by a finite
chain.  An element is a (mask, level) pair with level t in 1..size(mask);
the order is strict mask containment, refined by level inside a mask.
Labels follow the tuple scheme: coordinate i carries t when atom i is in
the mask and 0 otherwise, e.g. (2,0,2) for level 2 on the chain of {1,3}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Mapping, Sequence

from .errors import (InvalidSpec, NotApplicable, NotBounded,
                     NotZeroDistributive)
from .poset import FinitePoset


def tuple_label(values: Sequence[int]) -> str:
    return coordinates_label(map(str, values))


def coordinates_label(coords: Iterable[str]) -> str:
    """The tuple label with the given coordinates, each as written."""
    return "(" + ",".join(coords) + ")"


def tuple_coordinates(label: str) -> list[str] | None:
    """The coordinates, as written, of a label that `coordinates_label`
    writes, or None when label is not a tuple label."""
    if label[:1] != "(" or label[-1:] != ")":
        return None
    return label[1:-1].split(",")


def blowup_label(mask: int, level: int, n: int) -> str:
    """The tuple label of the given level on the chain of mask, for a mask
    below 2^n: coordinate i is the level when atom i is in mask, else 0.
    Level 1 writes mask's bits, lowest first; a higher level writes itself
    over every 1 (which is how `build_blowup` labels a chain)."""
    label = "(" + ",".join(format(mask, f"0{n}b")[::-1]) + ")"
    return label if level == 1 else label.replace("1", str(level))


def mask_to_binstr(mask: int, n: int) -> str:
    """Binary string with atom 1 at the least significant (rightmost) bit."""
    return format(mask, f"0{n}b")


def binstr_to_mask(s: str, n: int) -> int:
    if len(s) != n or any(c not in "01" for c in s):
        raise InvalidSpec(f"mask string {s!r} is not a {n}-bit binary string")
    return int(s, 2)


@dataclass(frozen=True)
class BlowupSpec:
    """Chain sizes for the blow-up of 2^n; absent masks default to size 1."""

    n: int
    chain_sizes: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise InvalidSpec(f"n must be a positive integer, got {self.n!r}")
        for mask, size in self.chain_sizes.items():
            # 0 < mask < 2^n - 1, without building 2^n for a huge n
            if (not isinstance(mask, int) or mask <= 0
                    or mask.bit_length() > self.n or mask.bit_count() == self.n):
                raise InvalidSpec(
                    f"mask {mask!r} is not a nonempty proper subset of "
                    f"{self.n} atoms")
            if type(size) is not int:
                raise InvalidSpec(f"chain size for mask {mask} must be an "
                                  f"integer (got {size!r})")
            if size < 1:
                raise InvalidSpec(f"chain size for mask {mask} must be >= 1")
        object.__setattr__(self, "chain_sizes", dict(self.chain_sizes))

    def size_of(self, mask: int) -> int:
        return self.chain_sizes.get(mask, 1)

    def masks(self) -> list[int]:
        """All nonempty proper masks, ascending."""
        return list(range(1, (1 << self.n) - 1))

    def total_vertices(self) -> int:
        """|Z*(L^B)| = sum of all chain sizes."""
        return (1 << self.n) - 2 + sum(s - 1 for s in self.chain_sizes.values())

    def singleton_atom_count(self) -> int:
        """m: number of atoms whose chain has size 1."""
        return sum(1 for i in range(self.n) if self.size_of(1 << i) == 1)

    def normalized(self) -> "BlowupSpec":
        return BlowupSpec(self.n, {m: s for m, s in self.chain_sizes.items()
                                   if s > 1})

    def to_json_dict(self) -> dict:
        chains = {mask_to_binstr(m, self.n): s
                  for m, s in sorted(self.chain_sizes.items()) if s > 1}
        return {"n": self.n, "chains": chains}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlowupSpec":
        if not isinstance(data, dict):
            raise InvalidSpec("malformed blow-up spec: a spec is a JSON object "
                              f"(got {data!r})")
        if "n" not in data:
            raise InvalidSpec("malformed blow-up spec: no field 'n'")
        n = data["n"]
        raw = data.get("chains", {})
        # JSON true and false are Python ints
        if type(n) is not int:
            raise InvalidSpec("blow-up spec field 'n' must be an integer")
        if not isinstance(raw, dict):
            raise InvalidSpec("malformed blow-up spec: field 'chains' must be "
                              f"an object (got {raw!r})")
        sizes = {}
        for key, size in raw.items():
            sizes[binstr_to_mask(str(key), n)] = size
        return cls(n, sizes)


def boolean_lattice(n: int) -> FinitePoset:
    """2^n on subset masks; labels are 0/1 tuples with atom i at coordinate i."""
    return build_blowup(BlowupSpec(n, {}))


def product_of_chains(sizes: Sequence[int]) -> FinitePoset:
    """Direct product of chains with the given element counts.

    Elements are level tuples in lexicographic order, compared coordinatewise:
    t covers t - e_k, which lies prod(sizes[k+1:]) indices earlier.
    """
    if not sizes or any(c < 1 for c in sizes):
        raise InvalidSpec("chain sizes must be positive")
    elems = [()]
    for c in sizes:
        elems = [t + (lv,) for t in elems for lv in range(c)]
    strides = [prod(sizes[k + 1:]) for k in range(len(sizes))]
    below = [[i - s for lv, s in zip(t, strides) if lv]
             for i, t in enumerate(elems)]
    return FinitePoset([tuple_label(t) for t in elems], below,
                       bottom=0, top=len(elems) - 1)


def blowup_elements(spec: BlowupSpec) -> list[tuple[str, int]]:
    """Every element of the blow-up as a (label, mask) pair, in element
    order: masks ascending, levels ascending inside each chain, so the
    bottom (mask 0) comes first and the top (the full mask) last.

    The mask of an element is the set of atoms below it: level t of the
    chain of M lies above level 1 of each atom in M and above no other
    atom.  This is the one place that labels a chain: `blowup_label` of
    its mask at level 1, and that label with every 1 written as t at
    level t.
    """
    n = spec.n
    pairs = []
    for mask in range(1 << n):
        label = blowup_label(mask, 1, n)
        pairs.append((label, mask))
        for level in range(2, spec.size_of(mask) + 1):
            pairs.append((label.replace("1", str(level)), mask))
    return pairs


def zero_divisor_pairs(spec: BlowupSpec) -> list[tuple[str, int]]:
    """Z*(L^B) as (label, mask) pairs, every element but the bottom and the
    top.  Two zero divisors meet only in 0 iff no atom lies below both, so
    G(L^B) is `SimpleGraph.from_patterns` on these pairs and G** the same
    with crossing=True, with no lattice built."""
    return blowup_elements(spec)[1:-1]


def build_blowup(spec: BlowupSpec) -> FinitePoset:
    """The blow-up lattice of 2^n with the spec's chain sizes.

    Every mask carries a chain, of one element for the bottom (mask 0) and
    the top (the full mask); elements are in `blowup_elements` order, so
    the all-sizes-one blow-up is boolean_lattice(n) exactly.  Level t > 1
    covers level t - 1, and level 1 of mask m covers the top of the chain
    of every mask one atom below m.
    """
    n = spec.n
    pairs = blowup_elements(spec)
    below: list[Sequence[int]] = []
    chain_top = [0] * (1 << n)       # index of the top of each mask's chain
    prev = -1
    for k, (_, mask) in enumerate(pairs):
        if mask == prev:
            below.append((k - 1,))
        else:
            below.append([chain_top[mask ^ (1 << i)]
                          for i in range(n) if mask >> i & 1])
            prev = mask
        chain_top[mask] = k
    return FinitePoset([label for label, _ in pairs], below,
                       bottom=0, top=len(below) - 1)


def canonical_blowup_of(P: FinitePoset) -> tuple[BlowupSpec, dict[str, str]]:
    """Recover the blow-up presentation of a finite 0-distributive lattice.

    Returns the spec whose chain sizes are the annihilator-class cardinalities
    over nonempty proper masks, plus a relabeling that sends every zero
    divisor of P to the matching blow-up label.  Dense classes contribute no
    graph vertices and are dropped.  Levels inside a class follow a fixed
    linear extension (by down-set size, then element index), which cannot
    change the zero-divisor graph.
    """
    if P.bottom is None or P.top is None:
        raise NotBounded("canonical blow-up needs a bounded lattice")
    if not P.is_zero_distributive():
        raise NotZeroDistributive("the lattice is not 0-distributive")
    if P.bottom == P.top:
        raise NotApplicable("the one-element lattice has no atoms")
    part = P.quotient_classes()
    if part.boolean_image is None:
        raise AssertionError("annihilator quotient of a bounded "
                             "0-distributive lattice is Boolean")
    k = len(P.atoms())
    full = (1 << k) - 1
    sizes: dict[int, int] = {}
    relabel: dict[str, str] = {}
    for cid, members in enumerate(part.classes):
        mask = part.boolean_image[cid]
        if not 0 < mask < full:
            continue
        sizes[mask] = len(members)
        ordered = sorted(members, key=lambda i: (P.down[i].bit_count(), i))
        for level, i in enumerate(ordered, start=1):
            relabel[P.labels[i]] = blowup_label(mask, level, k)
    return BlowupSpec(k, sizes).normalized(), relabel


def random_blowup_spec(rng: random.Random) -> BlowupSpec:
    """Seeded corpus generator: n in {3,4}; each mask gets size 1..3 with
    probability 1/2, else the default size 1."""
    n = rng.choice([3, 4])
    sizes = {}
    for mask in range(1, (1 << n) - 1):
        if rng.random() < 0.5:
            sizes[mask] = rng.randint(1, 3)
    return BlowupSpec(n, sizes)
