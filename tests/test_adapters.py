import time
from itertools import product
from math import gcd, prod

import pytest

from zdgdim import (HypothesisUnmet, NotPrimePower, TooLarge, build_blowup,
                    product_of_chains, sdim_bruteforce, sdim_via_gsr,
                    zero_divisor_graph)
from zdgdim.adapters import (LocalProductSpec, ReducedRingSpec,
                             comaximal_blowup_prediction,
                             comaximal_gamma2prime,
                             comaximal_ideal_graph_zn,
                             comaximal_ideal_sdim_formula,
                             comaximal_sdim_formula, component_union_graph,
                             component_union_predicted_graph,
                             component_union_prediction,
                             component_union_sdim_formula,
                             ideal_lattice_dual_zn, prime_power_base,
                             reduced_ring_sdim_formula, reduced_ring_zdg,
                             _vector_label)
from zdgdim.blowup import tuple_label

from conftest import rule_graph


def _primes_up_to(n):
    return [p for p in range(2, n + 1)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def test_prime_power_base():
    assert prime_power_base(2) == (2, 1)
    assert prime_power_base(8) == (2, 3)
    assert prime_power_base(27) == (3, 3)
    assert prime_power_base(5) == (5, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            prime_power_base(bad)
    # by definition on 1..5000
    powers = {p ** e: (p, e) for p in _primes_up_to(5000)
              for e in range(1, 13) if p ** e <= 5000}
    for q in range(1, 5001):
        if q in powers:
            assert prime_power_base(q) == powers[q]
        else:
            with pytest.raises(NotPrimePower):
                prime_power_base(q)
    # stops at the first prime factor instead of factoring the rest
    with pytest.raises(NotPrimePower):
        prime_power_base(2 * (10 ** 18 + 3))


def test_spec_validation():
    with pytest.raises(NotPrimePower):
        ReducedRingSpec([3, 6])
    with pytest.raises(NotPrimePower):
        LocalProductSpec([(4, 1)])
    with pytest.raises(NotPrimePower):
        LocalProductSpec([(2, 0)])


@pytest.mark.parametrize("make", [
    lambda q: ReducedRingSpec([q]), lambda q: LocalProductSpec([(q, 1)]),
], ids=["fields", "local"])
def test_specs_check_the_budget_before_the_primality_test(make):
    # trial division takes about 0.2 s to accept the prime 10^12 + 39 and
    # minutes on 10^18 + 3; the spec refuses both first
    for prime in (10 ** 12 + 39, 10 ** 18 + 3):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"{prime} .*over the element "
                                           "budget"):
            make(prime)
        assert time.perf_counter() - start < 0.05


def test_budget():
    with pytest.raises(TooLarge):
        reduced_ring_zdg(ReducedRingSpec([2] * 20))
    with pytest.raises(TooLarge):
        component_union_graph(20, 3)
    with pytest.raises(TooLarge):
        comaximal_ideal_graph_zn(10 ** 12)
    with pytest.raises(TooLarge):
        ideal_lattice_dual_zn(10 ** 12)


def test_closed_forms_refuse_inputs_outside_their_hypotheses():
    # each corollary needs n >= 3 maximal ideals, fields or coordinates;
    # CG(Z_N) also has a form for a squarefree N with two primes
    for call in (lambda: reduced_ring_sdim_formula(ReducedRingSpec([3, 2])),
                 lambda: comaximal_sdim_formula(LocalProductSpec([(2, 1),
                                                                  (3, 1)])),
                 lambda: component_union_sdim_formula(2, 3)):
        with pytest.raises(HypothesisUnmet, match="n<3"):
            call()
    for N in (12, 7):
        with pytest.raises(HypothesisUnmet, match=f"N = {N}$"):
            comaximal_ideal_sdim_formula(N)


# -- reduced rings -----------------------------------------------------------

def test_reduced_ring_zdg_basics():
    g = reduced_ring_zdg(ReducedRingSpec([2, 2]))
    assert g.n == 2 and g.edge_count() == 1
    g = reduced_ring_zdg(ReducedRingSpec([3, 2, 2]))
    assert g.has_edge("(1,0,0)", "(0,1,1)")
    assert not g.has_edge("(1,0,0)", "(2,1,0)")


def test_reduced_ring_equals_chain_product():
    for orders in ((3, 3, 3), (3, 2, 2), (4, 3), (2, 2, 2)):
        g = reduced_ring_zdg(ReducedRingSpec(orders))
        chain = zero_divisor_graph(product_of_chains(list(orders)))
        assert g.labeled_equal(chain)


# -- comaximal graph ----------------------------------------------------------

def test_comaximal_z2_cubed_matches_the_cube():
    spec = LocalProductSpec([(2, 1), (2, 1), (2, 1)])
    g = comaximal_gamma2prime(spec)
    assert g.n == 6
    assert sdim_via_gsr(g) == 2
    assert sdim_bruteforce(g) == 2
    # units are never vertices
    assert "(1,1,1)" not in g.labels and "(0,0,0)" not in g.labels


@pytest.mark.parametrize("pairs", [
    ((2, 1), (3, 1), (5, 1)),
    ((2, 2), (3, 1), (5, 1)),
    ((2, 1), (2, 1), (2, 1)),
    ((3, 1), (2, 2)),
])
def test_comaximal_matches_blowup_prediction(pairs):
    spec = LocalProductSpec(pairs)
    g = comaximal_gamma2prime(spec)
    bspec, mapping = comaximal_blowup_prediction(spec)
    assert set(mapping) == set(g.labels)
    predicted = zero_divisor_graph(build_blowup(bspec))
    assert g.relabeled(mapping).labeled_equal(predicted)


# -- comaximal ideal graph ------------------------------------------------------

def test_ideal_lattice_dual():
    P = ideal_lattice_dual_zn(60)
    assert P.labels[P.bottom] == "1" and P.labels[P.top] == "60"
    assert P.atoms() == ["2", "3", "5"]
    assert P.is_lattice() and P.is_zero_distributive()
    assert P.meet("4", "6") == "2"       # gcd
    assert P.join("4", "6") == "12"      # lcm


def test_cg_vertices_and_equality():
    g = comaximal_ideal_graph_zn(60)
    assert sorted(g.labels, key=int) == \
        ["2", "3", "4", "5", "6", "10", "12", "15", "20"]
    assert g.has_edge("4", "15") and not g.has_edge("4", "6")


def test_cg_closed_form_matches_the_built_graph():
    # the closed form counts the vertices from the factorisation of N; the
    # built graph is the oracle
    primes = _primes_up_to(3000)
    for N in range(2, 3001):
        exps = []
        for p in primes:
            e = 0
            while N % p ** (e + 1) == 0:
                e += 1
            if e:
                exps.append(e)
            if p > N:
                break
        g = comaximal_ideal_graph_zn(N)
        assert g.n == prod(e + 1 for e in exps) - 1 - prod(exps), N
        n = len(exps)
        if n >= 3 or exps == [1, 1]:
            want = g.n - 2 * n + 2 if n >= 3 else 1
            assert comaximal_ideal_sdim_formula(N) == want == sdim_via_gsr(g)
        else:
            with pytest.raises(HypothesisUnmet):
                comaximal_ideal_sdim_formula(N)
    for N in (1, 0, -6):
        with pytest.raises(ValueError):
            comaximal_ideal_sdim_formula(N)


def test_cg_dual_equality_non_squarefree_corpus():
    for N in (12, 36, 90, 210):
        assert comaximal_ideal_graph_zn(N).labeled_equal(
            zero_divisor_graph(ideal_lattice_dual_zn(N)))


# -- component union graph -------------------------------------------------------

def test_component_union_graph_basics():
    g = component_union_graph(3, 2)
    assert g.n == 7
    # full-support vectors are adjacent to every other vertex
    assert g.degree("111:1") == 6
    assert g.has_edge("110:1", "011:1")
    assert not g.has_edge("100:1", "110:1")


def test_component_union_join_equality():
    g = component_union_graph(4, 2)
    assert g.labeled_equal(component_union_predicted_graph(4, 2))


def test_component_union_prediction_shape():
    spec, kt, mapping = component_union_prediction(3, 3)
    assert kt == ["111:1", "111:2", "111:3", "111:4",
                  "111:5", "111:6", "111:7", "111:8"]
    assert spec.total_vertices() == 18
    assert mapping["011:2"] == "(0,0,2)"   # support {1,2} -> mask {3}


def test_component_union_sdim_published_form_disagrees():
    # the published closed form |V| - n + 2 does not survive definition-level
    # computation; the computed value is frozen here from brute force and
    # the vertex-cover reduction, which agree with each other.  The
    # `adapters` verify suite holds UG(3,2) and UG(3,3)
    g42 = component_union_graph(4, 2)
    assert component_union_sdim_formula(4, 2) == 13
    assert sdim_via_gsr(g42) == 10
    assert sdim_bruteforce(g42, cap=16) == 10


def test_component_union_sdim_grid():
    # the computed value |V| - n - 1 = q^n - n - 2 on every (n, q) with
    # n >= 2 and q^n <= 1000, and on q = 2 up to n = 7.  Twin reduction
    # makes the grid cheap: UG(4,5) solves on 30 of its 624 vertices.
    # (2,2) is the one exception; the published form is left as it is
    grid = [(n, 2) for n in range(2, 8)]
    for q in range(3, 32):
        try:
            prime_power_base(q)
        except NotPrimePower:
            continue
        grid += [(n, q) for n in range(2, 10) if q ** n <= 1000]
    assert len(grid) == 33
    for n, q in grid:
        want = 2 if (n, q) == (2, 2) else q ** n - n - 2
        assert sdim_via_gsr(component_union_graph(n, q)) == want, (n, q)


# -- each application graph against its adjacency rule, pair by pair ----------

def test_reduced_ring_matches_its_pair_rule():
    for qs in ([2, 2, 2], [4, 2], [8, 3], [9, 2, 2], [4, 8], [9, 4, 2]):
        want = rule_graph(
            ((tuple_label(v), v) for v in product(*map(range, qs))
             if any(v) and not all(v)),
            lambda x, y: all(a == 0 or b == 0 for a, b in zip(x, y)))
        assert reduced_ring_zdg(ReducedRingSpec(qs)).labeled_equal(want), qs


def test_comaximal_matches_its_pair_rule():
    for pairs in (((2, 1), (2, 1), (2, 1)), ((2, 2), (3, 1), (5, 1)),
                  ((3, 2), (2, 3)), ((2, 3), (3, 1), (5, 1)),
                  ((2, 2), (3, 2), (2, 1))):
        spec = LocalProductSpec(pairs)
        ps = [p for p, _ in pairs]
        want = rule_graph(
            ((tuple_label(x), x) for x in product(*map(range, spec.moduli()))
             if 0 < sum(xi % p == 0 for xi, p in zip(x, ps)) < len(ps)),
            lambda x, y: all(a % p != 0 or b % p != 0
                             for a, b, p in zip(x, y, ps)))
        assert comaximal_gamma2prime(spec).labeled_equal(want), pairs


def test_comaximal_ideal_graph_matches_its_pair_rule():
    primes = _primes_up_to(3000)
    for N in range(2, 3001):
        rad = prod(p for p in primes if N % p == 0)
        want = rule_graph(((d, d) for d in range(2, N)
                           if N % d == 0 and d % rad != 0),
                          lambda d, e: gcd(d, e) == 1)
        assert comaximal_ideal_graph_zn(N).labeled_equal(want), N


def test_component_union_graph_matches_its_pair_rule():
    for n, q in product(range(1, 5), (2, 3, 4)):
        full = (1 << n) - 1
        want = rule_graph(
            ((_vector_label(mask, t, n), mask) for mask in range(1, full + 1)
             for t in range(1, (q - 1) ** mask.bit_count() + 1)),
            lambda mu, mv: mu | mv == full)
        assert component_union_graph(n, q).labeled_equal(want), (n, q)
