import time
from collections import Counter
from itertools import product
from math import gcd, prod

import pytest

from zdgdim import (BlowupSpec, HypothesisUnmet, NotPrimePower, TooLarge,
                    build_blowup, complete_graph_on, graph_join,
                    product_of_chains, sdim_bruteforce, sdim_via_gsr,
                    zero_divisor_graph)
from zdgdim.adapters import (comaximal, comaximal_ideal,
                             comaximal_ideal_sdim_formula, component_union,
                             component_union_sdim_formula,
                             ideal_lattice_dual_zn, prime_power_base,
                             reduced_ring, _comaximal_construction,
                             _comaximal_vertices,
                             _component_union_construction,
                             _component_union_vertices,
                             _reduced_ring_vertices, _vector_label)
from zdgdim.blowup import blowup_label, tuple_label

from conftest import (comaximal_vertices_per_tuple, degree, has_edge, meet,
                      reduced_ring_vertices_per_tuple, rule_graph)


def _primes_up_to(n):
    return [p for p in range(2, n + 1)
            if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _blowup_names(pairs, n):
    """The theorem's naming, written out apart from the prediction check:
    the t-th label with nonempty pattern M is level t of the chain of M,
    and a label with the empty pattern is its own name."""
    level = Counter()
    names = {}
    for label, pat in pairs:
        level[pat] += 1
        names[label] = blowup_label(pat, level[pat], n) if pat else label
    return names


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


@pytest.mark.parametrize("make, error, message", [
    (lambda: reduced_ring([3, 6]), NotPrimePower, "6 is not a prime power"),
    (lambda: comaximal([(4, 1)]), NotPrimePower, "4 is not prime"),
    (lambda: comaximal([(2, 0)]), NotPrimePower, "exponent 0 must be >= 1"),
    (lambda: comaximal_ideal(1), ValueError,
     "comaximal ideal graph needs N >= 2"),
    (lambda: component_union(0, 2), ValueError, "dimension must be >= 1"),
    (lambda: component_union(3, 6), NotPrimePower, "6 is not a prime power"),
    # each constructor's checks run in order: the exponents before the
    # primality test, n before q, q >= 2 before the budget (GF(-3)^12
    # would count 531441 elements) and the budget before the prime powers
    (lambda: comaximal([(4, 0)]), NotPrimePower, "exponent 0 must be >= 1"),
    (lambda: component_union(0, 1), ValueError, "dimension must be >= 1"),
    (lambda: component_union(12, -3), NotPrimePower,
     "-3 is not a prime power"),
    (lambda: component_union(11, 6), TooLarge,
     "GF(6)^11 has 362797056 elements, over the element budget of 100000"),
    (lambda: reduced_ring([6] * 7), TooLarge,
     " x ".join(["GF(6)"] * 7) + " has 279936 elements, over the element "
     "budget of 100000"),
    (lambda: comaximal_ideal(0), ValueError,
     "comaximal ideal graph needs N >= 2"),
], ids=["fields", "local-prime", "local-exponent", "zn", "vspace-n",
        "vspace-q", "local-exponent-first", "vspace-n-first",
        "vspace-q-first", "vspace-budget-first", "fields-budget-first",
        "zn-below-2"])
def test_constructor_validation(make, error, message):
    with pytest.raises(error) as raised:
        make()
    assert (raised.type, str(raised.value)) == (error, message)


@pytest.mark.parametrize("make", [
    lambda q: reduced_ring([q]), lambda q: comaximal([(q, 1)]),
], ids=["fields", "local"])
def test_constructors_check_the_budget_before_the_primality_test(make):
    # trial division takes about 0.2 s to accept the prime 10^12 + 39 and
    # minutes on 10^18 + 3; the constructor refuses both first
    for prime in (10 ** 12 + 39, 10 ** 18 + 3):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"{prime} .*over the element "
                                           "budget"):
            make(prime)
        assert time.perf_counter() - start < 0.05


def test_budget():
    with pytest.raises(TooLarge):
        reduced_ring([2] * 20)
    with pytest.raises(TooLarge):
        component_union(20, 3)
    with pytest.raises(TooLarge):
        comaximal_ideal(10 ** 12)
    with pytest.raises(TooLarge):
        ideal_lattice_dual_zn(10 ** 12)


def test_closed_forms_refuse_inputs_outside_their_hypotheses():
    # each corollary needs n >= 3 maximal ideals, fields or coordinates;
    # CG(Z_N) also has a form for a squarefree N with two primes
    for app in (reduced_ring([3, 2]), comaximal([(2, 1), (3, 1)]),
                component_union(2, 3)):
        with pytest.raises(HypothesisUnmet, match="n<3"):
            app.formula()
    for N in (12, 7):
        with pytest.raises(HypothesisUnmet, match=f"N = {N}$"):
            comaximal_ideal(N).formula()


# -- reduced rings -----------------------------------------------------------

def test_reduced_ring_zdg_basics():
    g = reduced_ring([2, 2]).graph
    assert g.n == 2 and g.edge_count() == 1
    g = reduced_ring([3, 2, 2]).graph
    assert has_edge(g, "(1,0,0)", "(0,1,1)")
    assert not has_edge(g, "(1,0,0)", "(2,1,0)")


def test_reduced_ring_equals_chain_product():
    for orders in ((3, 3, 3), (3, 2, 2), (4, 3), (2, 2, 2)):
        g = reduced_ring(orders).graph
        chain = zero_divisor_graph(product_of_chains(list(orders)))
        assert g.labeled_equal(chain)


# -- comaximal graph ----------------------------------------------------------

def test_comaximal_z2_cubed_matches_the_cube():
    g = comaximal([(2, 1), (2, 1), (2, 1)]).graph
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
    app = comaximal(pairs)
    mapping = _blowup_names(_comaximal_vertices(pairs), len(pairs))
    assert set(mapping) == set(app.graph.labels)
    # the built ring graph, re-indexed under the predicted labels, is the
    # blow-up's graph; the prediction check renames the patterns instead
    assert app.graph.relabeled(mapping).labeled_equal(
        _comaximal_construction(pairs))
    assert app.matches_prediction()


# -- comaximal ideal graph ------------------------------------------------------

def test_ideal_lattice_dual():
    P = ideal_lattice_dual_zn(60)
    assert P.labels[P.bottom] == "1" and P.labels[P.top] == "60"
    assert P.atoms() == ["2", "3", "5"]
    assert P.is_lattice() and P.is_zero_distributive()
    assert meet(P, "4", "6") == "2"       # gcd
    assert P.join("4", "6") == "12"      # lcm


def test_cg_vertices_and_equality():
    g = comaximal_ideal(60).graph
    assert sorted(g.labels, key=int) == \
        ["2", "3", "4", "5", "6", "10", "12", "15", "20"]
    assert has_edge(g, "4", "15") and not has_edge(g, "4", "6")


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
        g = comaximal_ideal(N).graph
        assert g.n == prod(e + 1 for e in exps) - 1 - prod(exps), N
        n = len(exps)
        if n >= 3 or exps == [1, 1]:
            want = g.n - 2 * n + 2 if n >= 3 else 1
            assert comaximal_ideal_sdim_formula(N) == want == sdim_via_gsr(g)
        else:
            with pytest.raises(HypothesisUnmet):
                comaximal_ideal_sdim_formula(N)
    for N in (1, 0, -6):
        with pytest.raises(ValueError, match="N >= 2"):
            comaximal_ideal(N)


def test_cg_dual_equality_non_squarefree_corpus():
    for N in (12, 36, 90, 210):
        assert comaximal_ideal(N).graph.labeled_equal(
            zero_divisor_graph(ideal_lattice_dual_zn(N)))


# -- component union graph -------------------------------------------------------

def test_component_union_graph_basics():
    g = component_union(3, 2).graph
    assert g.n == 7
    # full-support vectors are adjacent to every other vertex
    assert degree(g, "111:1") == 6
    assert has_edge(g, "110:1", "011:1")
    assert not has_edge(g, "100:1", "110:1")


def test_component_union_join_equality():
    app = component_union(4, 2)
    inverse = {pred: lab for lab, pred in _blowup_names(
        _component_union_vertices(4, 2), 4).items()}
    # for q = 2 every chain has (q-1)^(n-|M|) = 1 element: the blow-up is 2^4
    core = zero_divisor_graph(build_blowup(BlowupSpec(4)))
    assert app.graph.labeled_equal(graph_join(core.relabeled(inverse),
                                              complete_graph_on(["1111:1"])))
    assert app.matches_prediction()


def test_component_union_prediction_shape():
    predicted = _blowup_names(_component_union_vertices(3, 3), 3)
    # the vectors of full support keep their labels: the joined K_t
    assert [lab for lab, pred in predicted.items() if lab == pred] == [
        "111:1", "111:2", "111:3", "111:4", "111:5", "111:6", "111:7", "111:8"]
    # chains of (q-1)^(n-|M|) elements, 4 on one atom and 2 on two
    spec = BlowupSpec(3, {1: 4, 2: 4, 4: 4, 3: 2, 5: 2, 6: 2})
    assert spec.total_vertices() == 18
    assert _component_union_construction(3, 3).labeled_equal(graph_join(
        zero_divisor_graph(build_blowup(spec)),
        complete_graph_on(list(predicted)[-8:])))
    assert predicted["011:2"] == "(0,0,2)"   # support {1,2} -> mask {3}
    assert component_union(3, 3).matches_prediction()


def test_component_union_sdim_published_form_disagrees():
    # the published closed form |V| - n + 2 does not survive definition-level
    # computation; the computed value is frozen here from brute force and
    # the vertex-cover reduction, which agree with each other.  The
    # `adapters` verify suite holds UG(3,2) and UG(3,3)
    g42 = component_union(4, 2).graph
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
        assert sdim_via_gsr(component_union(n, q).graph) == want, (n, q)


# -- tuple vertices by product maps, against the per-tuple enumerators --------

def test_comaximal_vertices_are_the_per_tuple_enumeration_in_order():
    for pairs in (((2, 2), (3, 1), (5, 1), (7, 1)), ((2, 1), (2, 1), (2, 1)),
                  ((3, 2), (5, 2)), ((2, 3), (3, 2)), ((2, 2), (2, 1), (3, 1)),
                  ((3, 1), (2, 2)), ((5, 1),), ()):
        assert _comaximal_vertices(pairs) == comaximal_vertices_per_tuple(
            pairs), pairs


def test_reduced_ring_vertices_are_the_per_tuple_enumeration_in_order():
    for qs in ((5, 4, 3, 2), (3, 3, 3), (2, 2, 2), (4, 8), (9, 4, 2),
               (2, 11), (7,), ()):
        assert _reduced_ring_vertices(qs) == reduced_ring_vertices_per_tuple(
            qs), qs


def test_predicted_labels_past_level_nine_are_those_of_blowup_label():
    # the chain of mask 001 in Z_16 x Z_3 x Z_5 holds the 8 * 2 * 4 even
    # residues with unit second and third coordinates; the check writes
    # each level from its chain's base label, and matches only if every
    # name is the construction's
    pairs = ((2, 4), (3, 1), (5, 1))
    names = _blowup_names(_comaximal_vertices(pairs), len(pairs))
    assert "(64,0,0)" in names.values() and "(65,0,0)" not in names.values()
    assert comaximal(pairs).matches_prediction()


# -- each application graph against its adjacency rule, pair by pair ----------

def test_reduced_ring_matches_its_pair_rule():
    for qs in ([2, 2, 2], [4, 2], [8, 3], [9, 2, 2], [4, 8], [9, 4, 2]):
        want = rule_graph(
            ((tuple_label(v), v) for v in product(*map(range, qs))
             if any(v) and not all(v)),
            lambda x, y: all(a == 0 or b == 0 for a, b in zip(x, y)))
        assert reduced_ring(qs).graph.labeled_equal(want), qs


def test_comaximal_matches_its_pair_rule():
    for pairs in (((2, 1), (2, 1), (2, 1)), ((2, 2), (3, 1), (5, 1)),
                  ((3, 2), (2, 3)), ((2, 3), (3, 1), (5, 1)),
                  ((2, 2), (3, 2), (2, 1))):
        ps = [p for p, _ in pairs]
        moduli = [p ** e for p, e in pairs]
        want = rule_graph(
            ((tuple_label(x), x) for x in product(*map(range, moduli))
             if 0 < sum(xi % p == 0 for xi, p in zip(x, ps)) < len(ps)),
            lambda x, y: all(a % p != 0 or b % p != 0
                             for a, b, p in zip(x, y, ps)))
        assert comaximal(pairs).graph.labeled_equal(want), pairs


def test_comaximal_ideal_graph_matches_its_pair_rule():
    primes = _primes_up_to(3000)
    for N in range(2, 3001):
        rad = prod(p for p in primes if N % p == 0)
        want = rule_graph(((d, d) for d in range(2, N)
                           if N % d == 0 and d % rad != 0),
                          lambda d, e: gcd(d, e) == 1)
        assert comaximal_ideal(N).graph.labeled_equal(want), N


def test_component_union_graph_matches_its_pair_rule():
    for n, q in product(range(1, 5), (2, 3, 4)):
        full = (1 << n) - 1
        want = rule_graph(
            ((_vector_label(mask, t, n), mask) for mask in range(1, full + 1)
             for t in range(1, (q - 1) ** mask.bit_count() + 1)),
            lambda mu, mv: mu | mv == full)
        assert component_union(n, q).graph.labeled_equal(want), (n, q)
