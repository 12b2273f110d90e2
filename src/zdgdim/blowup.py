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
from typing import Mapping, Sequence

from .errors import InvalidSpec, NotBounded, NotZeroDistributive
from .poset import FinitePoset


def tuple_label(values: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def blowup_label(mask: int, level: int, n: int) -> str:
    return tuple_label([level if mask >> i & 1 else 0 for i in range(n)])


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
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidSpec(f"n must be a positive integer, got {self.n!r}")
        full = (1 << self.n) - 1
        for mask, size in self.chain_sizes.items():
            if not isinstance(mask, int) or not 0 < mask < full:
                raise InvalidSpec(
                    f"mask {mask!r} is not a nonempty proper subset of "
                    f"{self.n} atoms")
            if not isinstance(size, int) or size < 1:
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
        try:
            n = data["n"]
            raw = data.get("chains", {})
        except TypeError as exc:
            raise InvalidSpec(f"malformed blow-up spec: {exc}") from exc
        if not isinstance(n, int):
            raise InvalidSpec("blow-up spec field 'n' must be an integer")
        sizes = {}
        for key, size in raw.items():
            sizes[binstr_to_mask(str(key), n)] = size
        return cls(n, sizes)


def boolean_lattice(n: int) -> FinitePoset:
    """2^n on subset masks; labels are 0/1 tuples with atom i at coordinate i."""
    return build_blowup(BlowupSpec(n, {}))


def product_of_chains(sizes: Sequence[int]) -> FinitePoset:
    """Direct product of chains with the given element counts.

    Elements are level tuples in lexicographic order, compared coordinatewise.
    """
    if not sizes or any(c < 1 for c in sizes):
        raise InvalidSpec("chain sizes must be positive")
    elems = [()]
    for c in sizes:
        elems = [t + (lv,) for t in elems for lv in range(c)]
    n = len(elems)
    down = [0] * n
    for i, t in enumerate(elems):
        for j, u in enumerate(elems):
            if all(x <= y for x, y in zip(u, t)):
                down[i] |= 1 << j
    return FinitePoset([tuple_label(t) for t in elems], down,
                       bottom=0, top=n - 1, validate=False)


def build_blowup(spec: BlowupSpec) -> FinitePoset:
    """The blow-up lattice of 2^n with the spec's chain sizes.

    Element order: bottom, then masks ascending with levels ascending inside
    each chain, then top.  Bottom and top are labeled with the all-zeros and
    all-ones tuples, so the all-sizes-one blow-up is boolean_lattice(n)
    exactly.
    """
    n = spec.n
    chain: list[tuple[int, int]] = [(0, 0)]
    for mask in spec.masks():
        for level in range(1, spec.size_of(mask) + 1):
            chain.append((mask, level))
    full = (1 << n) - 1
    chain.append((full, 1))
    labels = [blowup_label(m, t, n) if 0 < m < full
              else tuple_label([1 if m else 0] * n)
              for m, t in chain]
    size = len(chain)
    down = [0] * size
    for i, (mi, ti) in enumerate(chain):
        for j, (mj, tj) in enumerate(chain):
            # (mj, tj) <= (mi, ti): equal mask and lower level, or strictly
            # contained mask; bottom/top masks 0 and full are covered by the
            # same rule
            if (mj == mi and tj <= ti) or (mj != mi and mj & ~mi == 0):
                down[i] |= 1 << j
    return FinitePoset(labels, down, bottom=0, top=size - 1, validate=False)


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
