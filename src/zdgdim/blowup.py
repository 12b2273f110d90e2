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
from functools import partial
from itertools import product
from math import prod
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (InvalidSpec, NotApplicable, NotBounded,
                     NotZeroDistributive)
from .graphs import SimpleGraph
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


class BlowupSpec:
    """Chain sizes for the blow-up of 2^n; absent masks default to size 1.

    Immutable, with its own copy of chain_sizes, and equal to another spec
    with the same n and chain_sizes; unhashable, as that copy is a dict."""

    def __init__(self, n: int, chain_sizes: Mapping[int, int] | None = None):
        if type(n) is not int or n < 1:
            raise InvalidSpec(f"n must be a positive integer, got {n!r}")
        chain_sizes = {} if chain_sizes is None else chain_sizes
        for mask, size in chain_sizes.items():
            # 0 < mask < 2^n - 1, without building 2^n for a huge n
            if (not isinstance(mask, int) or mask <= 0
                    or mask.bit_length() > n or mask.bit_count() == n):
                raise InvalidSpec(
                    f"mask {mask!r} is not a nonempty proper subset of "
                    f"{n} atoms")
            if type(size) is not int:
                raise InvalidSpec(f"chain size for mask {mask} must be an "
                                  f"integer (got {size!r})")
            if size < 1:
                raise InvalidSpec(f"chain size for mask {mask} must be >= 1")
        # past __setattr__, which refuses every assignment
        self.__dict__.update(n=n, chain_sizes=dict(chain_sizes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.chain_sizes) == (other.n, other.chain_sizes)

    def __repr__(self) -> str:
        return f"BlowupSpec(n={self.n!r}, chain_sizes={self.chain_sizes!r})"

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
    atom.  This is the one place that labels a chain.  The 2^n level-1
    labels, the strings `blowup_label` writes, are made in mask order by
    C loops: `product("01", repeat=n)` runs through the masks' binary
    digits highest bit first, and each is written reversed, lowest bit
    first.  Level t >= 2 of a chain is its level-1 label with every 1
    written as t, spliced in after it; the runs of masks between two
    chains are zipped in whole.
    """
    n = spec.n
    base = list(map("({})".format,
                    map(",".join, map(reversed, product("01", repeat=n)))))
    pairs: list[tuple[str, int]] = []
    start = 0
    for mask in sorted(m for m, s in spec.chain_sizes.items() if s > 1):
        pairs += zip(base[start:mask + 1], range(start, mask + 1))
        label = base[mask]
        pairs += ((label.replace("1", str(level)), mask)
                  for level in range(2, spec.chain_sizes[mask] + 1))
        start = mask + 1
    pairs += zip(base[start:], range(start, 1 << n))
    return pairs


def zero_divisor_pairs(spec: BlowupSpec) -> list[tuple[str, int]]:
    """Z*(L^B) as (label, mask) pairs, every element but the bottom and the
    top.  Two zero divisors meet only in 0 iff no atom lies below both, so
    G(L^B) is `SimpleGraph.from_patterns` on these pairs and G** the same
    with crossing=True, with no lattice built (`blowup_graphs`)."""
    return blowup_elements(spec)[1:-1]


def blowup_graphs(spec: BlowupSpec) -> tuple[Callable[[], SimpleGraph],
                                             Callable[[], SimpleGraph]]:
    """G(L^B) and G** of the spec's blow-up, each built when its thunk is
    called, from one list of `zero_divisor_pairs` made on the first call.
    No lattice is built: this is the graph route of every blow-up input
    of the CLI and of `verify`'s graph suites."""
    # a list, not functools.cache, whose wrapper added 10-20 us to each
    # `sdim` of a small blow-up
    made: list[list[tuple[str, int]]] = []

    def graph(crossing: bool = False) -> SimpleGraph:
        if not made:
            made.append(zero_divisor_pairs(spec))
        return SimpleGraph.from_patterns(made[0], crossing=crossing)
    return graph, partial(graph, crossing=True)


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
    change the zero-divisor graph.  `blowup_label` writes each class's
    level-1 label once; level t >= 2 is that label with every 1 written as
    t, the string `blowup_label` writes for it.
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
        base = relabel[P.labels[ordered[0]]] = blowup_label(mask, 1, k)
        for level, i in enumerate(ordered[1:], start=2):
            relabel[P.labels[i]] = base.replace("1", str(level))
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
