import time
from math import prod

import pytest

from zdgdim import (HypothesisUnmet, NotPrimePower, TooLarge, build_blowup,
                    labeled_equal, product_of_chains, sdim_bruteforce,
                    sdim_via_gsr, zero_divisor_graph)
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
                             reduced_ring_sdim_formula, reduced_ring_zdg)


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
    assert g.n == 9                      # frozen: 12 - 2 units - 1 zero
    assert g.has_edge("(1,0,0)", "(0,1,1)")
    assert not g.has_edge("(1,0,0)", "(2,1,0)")


@pytest.mark.parametrize("orders,zstar,want", [
    ((3, 3, 3), 18, 14),
    ((3, 2, 2), 9, 5),
])
def test_reduced_ring_sdim(orders, zstar, want):
    spec = ReducedRingSpec(orders)
    g = reduced_ring_zdg(spec)
    assert g.n == zstar
    assert reduced_ring_sdim_formula(spec) == want
    assert sdim_via_gsr(g) == want
    if g.n <= 9:
        assert sdim_bruteforce(g) == want


def test_reduced_ring_equals_chain_product():
    for orders in ((3, 3, 3), (3, 2, 2), (4, 3), (2, 2, 2)):
        g = reduced_ring_zdg(ReducedRingSpec(orders))
        chain = zero_divisor_graph(product_of_chains(list(orders)))
        assert labeled_equal(g, chain)


# -- comaximal graph ----------------------------------------------------------

def test_comaximal_z30():
    spec = LocalProductSpec([(2, 1), (3, 1), (5, 1)])
    g = comaximal_gamma2prime(spec)
    assert g.n == 21
    assert comaximal_sdim_formula(spec) == 17
    assert sdim_via_gsr(g) == 17


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
    assert labeled_equal(g.relabeled(mapping), predicted)


def test_comaximal_z60_vertex_count():
    # Z_4 x Z_3 x Z_5: 60 elements, 16 units, |J| = 2
    spec = LocalProductSpec([(2, 2), (3, 1), (5, 1)])
    g = comaximal_gamma2prime(spec)
    assert g.n == 42
    assert comaximal_sdim_formula(spec) == 38


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
    assert labeled_equal(g, zero_divisor_graph(ideal_lattice_dual_zn(60)))


@pytest.mark.parametrize("N,want", [(210, 8), (15, 1), (60, 5)])
def test_cg_sdim(N, want):
    g = comaximal_ideal_graph_zn(N)
    assert comaximal_ideal_sdim_formula(N) == want
    assert sdim_via_gsr(g) == want
    if g.n <= 9:
        assert sdim_bruteforce(g) == want


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
        assert labeled_equal(comaximal_ideal_graph_zn(N),
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
    for n, q in ((3, 2), (3, 3), (4, 2)):
        g = component_union_graph(n, q)
        assert labeled_equal(g, component_union_predicted_graph(n, q))


def test_component_union_prediction_shape():
    spec, kt, mapping = component_union_prediction(3, 3)
    assert kt == ["111:1", "111:2", "111:3", "111:4",
                  "111:5", "111:6", "111:7", "111:8"]
    assert spec.total_vertices() == 18
    assert mapping["011:2"] == "(0,0,2)"   # support {1,2} -> mask {3}


def test_component_union_sdim_published_form_disagrees():
    # the published closed form |V| - n + 2 does not survive definition-level
    # computation; the computed values are frozen here from brute force and
    # the vertex-cover reduction, which agree with each other
    g32 = component_union_graph(3, 2)
    assert component_union_sdim_formula(3, 2) == 6
    assert sdim_via_gsr(g32) == 3
    assert sdim_bruteforce(g32) == 3
    g33 = component_union_graph(3, 3)
    assert component_union_sdim_formula(3, 3) == 25
    assert sdim_via_gsr(g33) == 22
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
