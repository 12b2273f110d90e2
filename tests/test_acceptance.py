"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -s -v tests/test_acceptance.py` to see every line.  All
values are exact; there are no tolerances anywhere.  Criterion 12b checks
the component union graph's sdim against computation: gsr and brute force
agree on |V| - n - 1 = q^n - n - 2 (n >= 3), while the published closed form
|V| - n + 2 is 3 higher; the test asserts the computed value and pins that
excess, so the discrepancy stays visible without failing the suite.
"""

from itertools import product

from zdgdim import (BlowupSpec, boolean_lattice,
                    boolean_ring_annihilator_graph, boolean_ring_zdg,
                    build_blowup, canonical_blowup_of, complete_graph_on,
                    connected_components, diameter, gstar_star,
                    incomparability_graph, independence_number,
                    is_strong_resolving, labeled_equal, m_lattice,
                    metric_dimension_bruteforce, product_of_chains,
                    sdim_bruteforce, sdim_formula, sdim_via_gsr,
                    strong_resolving_graph, zero_divisor_graph)
from zdgdim.adapters import (LocalProductSpec, ReducedRingSpec,
                             comaximal_blowup_prediction,
                             comaximal_gamma2prime, comaximal_ideal_graph_zn,
                             component_union_graph,
                             component_union_predicted_graph,
                             component_union_sdim_formula,
                             ideal_lattice_dual_zn, reduced_ring_sdim_formula,
                             reduced_ring_zdg)

from conftest import CORPUS_SIZE, make_fig2_lattice


def suite_problems(result):
    """One problem line per failed case of a verify suite's result."""
    return [f"{f['case']}: expected {f['expected']}, got {f['got']}"
            for f in result.failures]


def report(cid, description, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {cid}] {status}: {description}")
    assert not problems, f"criterion {cid}: " + "; ".join(problems[:5])


def test_criterion_01_mn_graphs():
    problems = []
    for n in (3, 4, 5, 6):
        G = zero_divisor_graph(m_lattice(n))
        kn = complete_graph_on(G.labels)
        if not labeled_equal(G, kn):
            problems.append(f"G(M_{n}) != K_{n}")
        if not labeled_equal(strong_resolving_graph(G), kn):
            problems.append(f"(K_{n})_SR != K_{n}")
        if sdim_via_gsr(G) != n - 1:
            problems.append(f"gsr sdim of K_{n} != {n - 1}")
        if sdim_bruteforce(G) != n - 1:
            problems.append(f"brute sdim of K_{n} != {n - 1}")
    report(1, "G(M_n) = K_n with sdim n-1 for n in 3..6", problems)


def test_criterion_02_cube():
    problems = []
    G = zero_divisor_graph(boolean_lattice(3))
    from zdgdim import boundary
    want = ["(0,1,1)", "(1,0,1)", "(1,1,0)"]
    if boundary(G) != want:
        problems.append(f"boundary = {boundary(G)}")
    if not labeled_equal(strong_resolving_graph(G), complete_graph_on(want)):
        problems.append("G_SR != K_3")
    if sdim_formula(BlowupSpec(3, {})) != 2:
        problems.append("formula != 2")
    if sdim_via_gsr(G) != 2:
        problems.append("gsr != 2")
    if sdim_bruteforce(G) != 2:
        problems.append("brute != 2")
    if not is_strong_resolving(G, ["(1,1,0)", "(0,1,1)"]):
        problems.append("W does not strong-resolve")
    report(2, "2^3 boundary, G_SR = K_3, sdim 2 three ways, witness W",
           problems)


def test_criterion_03_figure3(fig3_spec, fig3_lattice):
    problems = []
    G = zero_divisor_graph(fig3_lattice)
    if G.n != 12:
        problems.append(f"|Z*| = {G.n}")
    W = ["(1,0,0)", "(2,0,0)", "(0,0,1)", "(1,0,1)", "(2,0,2)", "(3,0,3)",
         "(1,1,0)", "(2,2,0)"]
    if not is_strong_resolving(G, W):
        problems.append("8-element W does not strong-resolve")
    for tag, got in (("formula", sdim_formula(fig3_spec)),
                     ("gsr", sdim_via_gsr(G)),
                     ("brute", sdim_bruteforce(G))):
        if got != 8:
            problems.append(f"{tag} = {got}")
    gss = gstar_star(fig3_lattice)
    comp_sizes = sorted(len(c) for c in connected_components(gss))
    if comp_sizes != [1, 2, 3, 6]:
        problems.append(f"G** components {comp_sizes}")
    for c in connected_components(gss):
        if len(c) in (1, 2, 3) and not gss.subgraph(c).is_complete():
            problems.append(f"component {sorted(c)} is not complete")
    report(3, "figure-3 blow-up: |Z*|=12, W works, sdim 8 three ways, "
              "G** = H + K_1 + K_2 + K_3", problems)


def test_criterion_04_formula_agreement(suite_result):
    problems = suite_problems(suite_result("formula-agreement"))
    report(4, f"formula = gsr on {CORPUS_SIZE} seeded specs, = brute when "
              "|Z*| <= 14", problems)


def test_criterion_05_beta_and_vertex_count(suite_result):
    problems = suite_problems(suite_result("gsr-equality"))
    for n in (3, 4, 5):
        gsr = strong_resolving_graph(zero_divisor_graph(boolean_lattice(n)))
        if independence_number(gsr) != n - 2:
            problems.append(f"pure 2^{n}: beta != n-2")
    report(5, "beta(G_SR) = 2n-m-2, |V(G_SR)| = |Z*|-m, pure case n-2",
           problems)


def test_criterion_06_gstar_equals_gsr(suite_result):
    problems = suite_problems(suite_result("gsr-equality"))
    report(6, "G* = G_SR on the corpus; G** = G_SR when all atom classes "
              "have size >= 2", problems)


def test_criterion_07_distance_trichotomy(suite_result):
    problems = (suite_problems(suite_result("distance-lemma"))
                + suite_problems(suite_result("diameter")))
    if diameter(zero_divisor_graph(make_fig2_lattice())) > 3:
        problems.append("figure-2 lattice: diameter > 3")
    report(7, "pseudocomplement trichotomy = BFS distance; diameter <= 3",
           problems)


def test_criterion_08_canonical_blowup(fig2_lattice):
    problems = []
    lattices = [product_of_chains(list(s)) for s in product((2, 3), repeat=3)]
    lattices += [product_of_chains(list(s)) for s in product((2, 3), repeat=4)]
    lattices.append(fig2_lattice)
    for P in lattices:
        spec, relab = canonical_blowup_of(P)
        G1 = zero_divisor_graph(P).relabeled(relab)
        G2 = zero_divisor_graph(build_blowup(spec))
        if not labeled_equal(G1, G2):
            problems.append(f"{len(P)}-element lattice: graphs differ")
    fig2_graph = zero_divisor_graph(fig2_lattice)
    if fig2_graph.n != 7 or fig2_graph.edge_count() != 10:
        problems.append("figure-2 graph is not K_{2,5}")
    sides = sorted(len(c) for c in
                   connected_components(fig2_graph.complement()))
    if sides != [2, 5]:
        problems.append("figure-2 graph is not complete bipartite 2+5")
    report(8, "G(L') = G(L^B) for chain products in {2,3}^3, {2,3}^4 and "
              "the figure-2 lattice (K_{2,5})", problems)


def test_criterion_09_reduced_rings():
    problems = []
    for orders, want in (((3, 3, 3), 14), ((3, 2, 2), 5)):
        spec = ReducedRingSpec(orders)
        g = reduced_ring_zdg(spec)
        if reduced_ring_sdim_formula(spec) != want:
            problems.append(f"{orders}: corollary formula != {want}")
        if sdim_via_gsr(g) != want:
            problems.append(f"{orders}: gsr != {want}")
        if g.n <= 9 and sdim_bruteforce(g) != want:
            problems.append(f"{orders}: brute != {want}")
    report(9, "reduced rings (3,3,3) -> 14 and (3,2,2) -> 5", problems)


def test_criterion_10_comaximal_z30():
    problems = []
    spec = LocalProductSpec([(2, 1), (3, 1), (5, 1)])
    g = comaximal_gamma2prime(spec)
    if g.n != 21:
        problems.append(f"|V| = {g.n}")
    got = sdim_via_gsr(g)
    if got != 17 or got != g.n - 2 * 3 + 2:
        problems.append(f"sdim = {got}")
    bspec, mapping = comaximal_blowup_prediction(spec)
    if not labeled_equal(g.relabeled(mapping),
                         zero_divisor_graph(build_blowup(bspec))):
        problems.append("Gamma_2' != predicted blow-up graph")
    report(10, "Z30 comaximal graph: 21 vertices, sdim 17, blow-up equality",
           problems)


def test_criterion_11_comaximal_ideal_graphs():
    problems = []
    for N, want in ((210, 8), (15, 1), (60, 5)):
        g = comaximal_ideal_graph_zn(N)
        if sdim_via_gsr(g) != want:
            problems.append(f"CG(Z_{N}): gsr != {want}")
    g60 = comaximal_ideal_graph_zn(60)
    if not labeled_equal(g60, zero_divisor_graph(ideal_lattice_dual_zn(60))):
        problems.append("CG(Z_60) != dual ideal-lattice graph")
    if sdim_bruteforce(g60) != 5:
        problems.append("CG(Z_60): brute != 5")
    report(11, "CG: 210 -> 8, 15 -> 1, 60 -> 5 with dual-lattice equality",
           problems)


def test_criterion_12_component_union_join_equality():
    problems = []
    for n, q in ((3, 2), (3, 3)):
        g = component_union_graph(n, q)
        if not labeled_equal(g, component_union_predicted_graph(n, q)):
            problems.append(f"UG({n},{q}) != join(blow-up graph, K_t)")
    report("12a", "UG = join(blow-up graph, K_{(q-1)^n})", problems)


def test_criterion_12_component_union_sdim_published_values():
    problems = []
    for n, q, routes in ((3, 2, (("gsr", sdim_via_gsr),
                                 ("brute", sdim_bruteforce))),
                         (3, 3, (("gsr", sdim_via_gsr),))):
        computed = q ** n - n - 2          # |V| - n - 1 with |V| = q^n - 1
        published = q ** n - n + 1         # |V| - n + 2
        g = component_union_graph(n, q)
        values = {tag: route(g) for tag, route in routes}
        for tag, got in values.items():
            if got != computed:
                problems.append(f"UG({n},{q}) {tag} = {got} != |V|-n-1 = "
                                f"{computed}")
        form = component_union_sdim_formula(n, q)
        if form != published:
            problems.append(f"UG({n},{q}) published form = {form} != "
                            f"|V|-n+2 = {published}")
        excess = form - values["gsr"]
        if excess != 3:
            problems.append(f"UG({n},{q}): published form exceeds gsr by "
                            f"{excess}, not 3")
    report("12b", "UG sdim is the computed |V|-n-1; the published form "
                  "|V|-n+2 exceeds it by 3", problems)


def test_criterion_13_structural_identities(suite_result):
    problems = suite_problems(suite_result("gallai"))
    for n in (3, 4):
        L = boolean_lattice(n)
        if not labeled_equal(boolean_ring_zdg(n), zero_divisor_graph(L)):
            problems.append(f"n={n}: Gamma(R_L) != G(L)")
        if not labeled_equal(boolean_ring_annihilator_graph(n),
                             incomparability_graph(L)):
            problems.append(f"n={n}: AG(R_L) != Incomp(L)")
    small = [zero_divisor_graph(boolean_lattice(3)),
             zero_divisor_graph(m_lattice(5)),
             comaximal_ideal_graph_zn(60),
             reduced_ring_zdg(ReducedRingSpec((3, 2, 2))),
             component_union_graph(3, 2)]
    for g in (g for g in small if g.n <= 12):
        if metric_dimension_bruteforce(g) > sdim_bruteforce(g):
            problems.append("dim > sdim on a small graph")
    report(13, "Gallai; ring/lattice graph identities; dim <= sdim",
           problems)
