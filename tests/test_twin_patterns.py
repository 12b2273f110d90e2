"""The pattern-class cut (`metric.twin_reduce_patterns`) against the twin
reduction of the whole pattern graph, and `sdim`'s gsr route, which solves
on the cut, against `sdim_via_gsr` on the whole graph."""

import json
import random

import pytest

from zdgdim import (BlowupSpec, LabelCollision, SimpleGraph, m_lattice,
                    product_of_chains, sdim_via_gsr, twin_reduce)
from zdgdim import cli
from zdgdim.blowup import zero_divisor_pairs
from zdgdim.graphs import zero_divisor_patterns
from zdgdim.metric import twin_reduce_patterns
from zdgdim.verify import corpus

# the benchmark's chain blow-up shapes
BLOWUPS = [BlowupSpec(3, {0b001: 100, 0b110: 100}),
           BlowupSpec(3, {0b001: 90, 0b011: 100, 0b110: 100}),
           BlowupSpec(4, {0b0001: 40, 0b0011: 40, 0b1110: 40}),
           BlowupSpec(4, {0b0011: 70, 0b0101: 70, 0b1100: 70, 0b1010: 70}),
           BlowupSpec(4, {0b0001: 50, 0b0110: 60, 0b1110: 80, 0b1001: 70})]
CHAINS = [(4, 4, 4, 4, 4), (6, 6, 6, 6), (2, 3, 4, 5), (2, 2, 3, 3, 4),
          (3, 3), (12, 2, 2), (1,), (2,)]


def check_cut(pairs) -> int:
    """`twin_reduce_patterns(pairs)` against `twin_reduce` of the whole
    graph, under both rules: labeled-equal graphs and equal dropped
    counts.  Returns the dropped count under the disjointness rule."""
    for crossing in (False, True):
        want, want_dropped = twin_reduce(
            SimpleGraph.from_patterns(pairs, crossing=crossing))
        got, dropped = twin_reduce_patterns(iter(pairs), crossing=crossing)
        assert got.labeled_equal(want), (pairs, crossing)
        assert dropped == want_dropped, (pairs, crossing)
    return twin_reduce_patterns(pairs)[1]


def random_spec(rng: random.Random) -> BlowupSpec:
    """n in 2..4, and each mask a chain of 1 to 25 levels with probability
    1/2: chains of 10 levels or more put a level past 9 before level 2 in
    label order."""
    n = rng.randint(2, 4)
    return BlowupSpec(n, {mask: rng.randint(1, 25)
                          for mask in range(1, (1 << n) - 1)
                          if rng.random() < 0.5})


def random_pairs(rng: random.Random) -> list:
    """0 to 30 vertices on a few patterns of 0 to 4 coordinates, the zero
    pattern among them; the labels distinct ints or strings in drawn
    order, so label order is neither list order nor numeric order."""
    k = rng.randint(0, 4)
    pats = rng.sample(range(1 << k), rng.randint(1, min(4, 1 << k)))
    if rng.random() < 0.5:
        pats.append(0)
    count = rng.randint(0, 30)
    labels = rng.sample(range(200), count)
    if rng.random() < 0.5:
        labels = [f"x{lab}" for lab in labels]
    return [(lab, rng.choice(pats)) for lab in labels]


def test_cut_matches_the_whole_graph_on_the_corpus():
    assert sum(check_cut(zero_divisor_pairs(spec)) > 0
               for _, spec, _ in corpus(0, 300)) > 200


def test_cut_matches_the_whole_graph_on_the_benchmark_blowups():
    drops = [check_cut(zero_divisor_pairs(spec)) for spec in BLOWUPS]
    assert drops == [196, 284, 114, 272, 252]


def test_cut_matches_the_whole_graph_on_random_long_chains():
    rng = random.Random(35)
    long_chains = 0
    for _ in range(200):
        spec = random_spec(rng)
        check_cut(zero_divisor_pairs(spec))
        long_chains += max(spec.chain_sizes.values(), default=0) >= 10
    assert long_chains > 100


def test_cut_matches_the_whole_graph_on_lattices():
    for sizes in CHAINS:
        check_cut(zero_divisor_patterns(product_of_chains(sizes)))
    # G(M_n) is K_n: its n atoms have distinct patterns, so none is cut,
    # and twin_reduce drops all but two of its true twins
    for n in range(1, 7):
        assert check_cut(zero_divisor_patterns(m_lattice(n))) == max(n - 2, 0)


def test_cut_matches_the_whole_graph_on_random_pattern_lists():
    rng = random.Random(36)
    zero_twins = 0
    for _ in range(1500):
        pairs = random_pairs(rng)
        check_cut(pairs)
        zero_twins += sum(pat == 0 for _, pat in pairs) >= 3
    assert zero_twins > 200


def test_cut_keeps_the_two_label_smallest_members():
    # label order, not list order: (10,0,0) sorts before (2,0,0)
    pairs = [(f"({t},0,0)", 1) for t in range(1, 12)] + [("(0,1,0)", 2)]
    reduced, dropped = twin_reduce_patterns(pairs)
    assert reduced.labels == ("(0,1,0)", "(1,0,0)", "(10,0,0)")
    assert dropped == 9


@pytest.mark.parametrize("pairs", [
    [("a", 1), ("b", 1), ("c", 1), ("c", 1)],
    [("a", 1), ("b", 1), ("z", 1), ("c", 2), ("d", 2), ("z", 2)],
    [("a", 0), ("b", 0), ("b", 0), ("c", 3)],
    [("a", 1), ("a", 2)],
], ids=["in-one-class", "across-classes", "zero-pattern", "no-repeat"])
def test_a_duplicate_label_raises_even_in_the_cut(pairs):
    with pytest.raises(LabelCollision, match="duplicate vertex label"):
        SimpleGraph.from_patterns(pairs)
    for crossing in (False, True):
        with pytest.raises(LabelCollision, match="duplicate vertex label"):
            twin_reduce_patterns(pairs, crossing=crossing)


def spec_argv(spec: BlowupSpec) -> list[str]:
    return ["--blowup", json.dumps(spec.to_json_dict())]


CLI_INPUTS = ([["--boolean", str(n)] for n in range(3, 10)]
              + [spec_argv(spec) for spec in BLOWUPS]
              + [spec_argv(BlowupSpec(3, {1: 400, 6: 400}))]
              + [["--chains", "4,4,4,4,4"]])


CLI_IDS = ([f"boolean-{n}" for n in range(3, 10)]
           + [f"blowup-{k}" for k in range(len(BLOWUPS))]
           + ["blowup-400-400", "chains-4^5"])


@pytest.mark.parametrize("inp", CLI_INPUTS, ids=CLI_IDS)
def test_sdim_gsr_rows_print_sdim_via_gsr_of_the_graph(capsys, inp):
    # the command solves on the pattern cut; its gsr row must show what
    # sdim_via_gsr gives on the whole graph of the same input
    args = cli.build_parser().parse_args(["sdim", *inp])
    want = str(sdim_via_gsr(cli.resolve_input(args).graph))
    for method in ("gsr", "all"):
        assert cli.main(["sdim", *inp, "--method", method]) == 0
        rows = [line.split(" | ") for line in
                capsys.readouterr().out.splitlines()[2:]]
        assert [v.strip() for m, v, _ in rows if m.strip() == "gsr"] == [want]
        assert cli.main(["sdim", *inp, "--method", method, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["value"] for r in payload["rows"]
                if r["method"] == "gsr"] == [want]
