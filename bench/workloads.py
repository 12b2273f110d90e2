"""The benchmark's workloads: seeded lists of zdgdim CLI commands with checks.

Each workload function takes a random.Random seeded from the benchmark's
--seed and returns the command list one repetition runs.  `tiny=True`
gives the same commands at a size that finishes in well under a second,
for the benchmark's own tests.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[int, str], "str | None"]


def boolean_ladder(rng: random.Random, tiny: bool = False) -> list[Command]:
    """`sdim --boolean N --check` for N = 7, 8, 9 in seeded order."""
    ladder = [3, 4, 5] if tiny else [7, 8, 9]
    rng.shuffle(ladder)
    return [Command(("sdim", "--boolean", str(n), "--check"),
                    functools.partial(oracle.check_sdim, n=n,
                                      zstar=(1 << n) - 2))
            for n in ladder]


# (atoms n, {mask: chain size}) with |Z*| = 2^n - 2 + sum(size - 1), from
# 131 to 293.  The seed permutes the atoms, which moves the chains to other
# masks without changing the lattice's shape.  Drawing the chain lengths
# from the seed changed a command's work by 10-20% between seeds, and drawing
# the masks by up to 70x (chains on three atoms of 2^4 against three other
# masks), far beyond the bound on wall_s.
BLOWUPS = ((3, {0b001: 100, 0b110: 100}),
           (3, {0b001: 90, 0b011: 100, 0b110: 100}),
           (4, {0b0001: 40, 0b0011: 40, 0b1110: 40}),
           (4, {0b0011: 70, 0b0101: 70, 0b1100: 70, 0b1010: 70}),
           (4, {0b0001: 50, 0b0110: 60, 0b1110: 80, 0b1001: 70}))
TINY_BLOWUPS = ((3, {0b001: 3, 0b110: 2}),
                (4, {0b0001: 2, 0b0110: 3, 0b1110: 2}))
# adapter inputs with their sdim values: the comaximal theorem value for
# `--local`, the definition-level value for `--vspace` (whose published
# closed form disagrees, so it runs without --check)
ADAPTERS = ((("--local", "2^2,3,5,7", "--check"), 316),
            (("--vspace", "n=4,q=3"), 75))
TINY_ADAPTERS = ((("--local", "2,3,5", "--check"), 17),
                 (("--vspace", "n=3,q=2"), 3))


def _permute(mask: int, perm: list[int]) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def chain_blowups(rng: random.Random, tiny: bool = False) -> list[Command]:
    """`sdim --blowup ... --check` on n=3 and n=4 blow-ups with seeded atom
    order, then two adapters with their blow-up cross-checks."""
    out = []
    for n, chains in TINY_BLOWUPS if tiny else BLOWUPS:
        perm = list(range(n))
        rng.shuffle(perm)
        spec = {"n": n, "chains": {format(_permute(m, perm), f"0{n}b"): size
                                   for m, size in sorted(chains.items())}}
        zstar = (1 << n) - 2 + sum(size - 1 for size in chains.values())
        out.append(Command(("sdim", "--blowup", json.dumps(spec), "--check"),
                           functools.partial(oracle.check_sdim, n=n,
                                             zstar=zstar)))
    for flags, gsr in TINY_ADAPTERS if tiny else ADAPTERS:
        out.append(Command(("adapter",) + flags,
                           functools.partial(oracle.check_adapter, gsr=gsr)))
    return out


# The corpus is fixed and the seed only orders the suites.  A corpus drawn
# from --seed changes size with the seed: the traced span count, a proxy for
# the work, varied with a 3% coefficient of variation over eight seeds, which
# alone would use most of the spread allowed for wall_s.
VERIFY_SEED = 0
VERIFY_COUNT = 300


def verify_corpus(rng: random.Random, tiny: bool = False) -> list[Command]:
    """`verify --json --suite X` for each of the nine suites, in seeded
    order, on one random corpus."""
    count = 2 if tiny else VERIFY_COUNT
    suites = list(oracle.SUITES)
    rng.shuffle(suites)
    return [Command(("verify", "--json", "--suite", suite,
                     "--seed", str(VERIFY_SEED), "--count", str(count)),
                    functools.partial(oracle.check_verify, suite=suite))
            for suite in suites]


WORKLOADS = {
    "boolean-ladder": boolean_ladder,
    "chain-blowups": chain_blowups,
    "verify-corpus": verify_corpus,
}
