"""Corpus-wide invariants: every seeded blow-up spec must satisfy the
structural laws that the closed sdim formula rests on.  The laws that
`zdgdim verify` checks run through its suites; the rest are checked here."""

from itertools import product

import pytest

from zdgdim import (boolean_lattice, build_blowup, canonical_blowup_of,
                    independence_number, product_of_chains, sdim_bruteforce,
                    sdim_via_gsr, strong_resolving_graph, zero_divisor_graph)

from conftest import metric_dimension_bruteforce, mutually_maximally_distant


# case counts on the acceptance corpus; a suite that silently checks nothing
# fails here
SUITE_CASES = {"diameter": 61, "gallai": 477, "distance-lemma": 53,
               "quotient": 265, "gsr-equality": 160, "decomposition": 478,
               "formula-agreement": 80}


@pytest.mark.parametrize("suite", SUITE_CASES)
def test_corpus_suite(suite_result, suite):
    result = suite_result(suite)
    assert result.failures == []
    assert result.cases == SUITE_CASES[suite]


def test_blowups_are_pseudocomplemented_lattices(corpus_graphs):
    for name, spec, LB, G in corpus_graphs:
        assert LB.is_lattice(), name
        assert LB.is_pseudocomplemented(), name
        assert LB.dual().is_pseudocomplemented(), name
        assert LB.is_zero_distributive(), name


def test_pseudocomplement_classes_match_annihilator_classes(corpus_graphs):
    for name, spec, LB, G in corpus_graphs[:10]:
        star = {lab: LB.pseudocomplement(lab) for lab in LB.labels}
        ann = {lab: frozenset(LB.annihilator(lab)) for lab in LB.labels}
        for x in LB.labels:
            for y in LB.labels:
                assert (ann[x] == ann[y]) == (star[x] == star[y]), name


def test_mmd_pairs_meet_above_zero_and_incomparable(corpus_graphs):
    for name, spec, LB, G in corpus_graphs[:10]:
        part = LB.quotient_classes()
        bottom = LB.labels[LB.bottom]
        gsr = strong_resolving_graph(G)
        members = set(gsr.labels)
        for i, x in enumerate(G.labels):
            for y in G.labels[i + 1:]:
                mmd = mutually_maximally_distant(G, x, y)
                if x in members and y in members:
                    assert mmd == gsr.has_edge(x, y), (name, x, y)
                else:
                    assert not mmd, (name, x, y)
                if part.class_of[LB.index(x)] == part.class_of[LB.index(y)]:
                    continue
                if mmd:
                    assert LB.meet(x, y) != bottom, name
                    assert not LB.leq(x, y) and not LB.leq(y, x), name


def test_dim_at_most_sdim_on_small_graphs(corpus_graphs):
    seen = 0
    for name, spec, LB, G in corpus_graphs:
        if G.n <= 12:
            assert metric_dimension_bruteforce(G) <= sdim_bruteforce(G), name
            seen += 1
    assert seen >= 3


def test_canonical_blowup_recovers_chain_products_dim4():
    for sizes in product((2, 3), repeat=4):
        P = product_of_chains(list(sizes))
        spec, relab = canonical_blowup_of(P)
        assert spec.n == 4
        G1 = zero_divisor_graph(P).relabeled(relab)
        G2 = zero_divisor_graph(build_blowup(spec))
        assert G1.labeled_equal(G2), sizes


def test_pure_boolean_beta():
    for n in (3, 4, 5):
        G = zero_divisor_graph(boolean_lattice(n))
        gsr = strong_resolving_graph(G)
        assert independence_number(gsr) == n - 2
        assert gsr.n == (2 ** n - 2) - n
        assert sdim_via_gsr(G) == 2 ** n - 2 * n
