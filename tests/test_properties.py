"""Corpus-wide invariants: every seeded blow-up spec must satisfy the
structural laws that the closed sdim formula rests on."""

from itertools import product

from zdgdim import (all_pairs_distances, beta_gsr_formula, boolean_lattice,
                    boundary, build_blowup, canonical_blowup_of,
                    connected_components,
                    diameter, distance_by_pseudocomplement, gstar, gstar_star,
                    independence_number, labeled_equal, m_lattice,
                    metric_dimension_bruteforce, mutually_maximally_distant,
                    product_of_chains, sdim_bruteforce, sdim_formula,
                    sdim_via_gsr, strong_resolving_graph, vertex_cover_number,
                    zero_divisor_graph)


def test_blowups_are_pseudocomplemented_lattices(corpus_graphs):
    for name, spec, LB, G in corpus_graphs:
        assert LB.is_lattice(), name
        assert LB.is_pseudocomplemented(), name
        assert LB.dual().is_pseudocomplemented(), name
        assert LB.is_zero_distributive(), name


def test_quotient_has_2n_classes_with_spec_sizes(corpus_graphs):
    for name, spec, LB, G in corpus_graphs:
        part = LB.quotient_classes()
        assert len(part.classes) == 1 << spec.n, name
        assert part.boolean_image is not None, name
        full = (1 << spec.n) - 1
        sizes = {part.boolean_image[c]: len(m)
                 for c, m in enumerate(part.classes)}
        assert sizes[0] == 1 and sizes[full] == 1, name
        for mask in spec.masks():
            assert sizes[mask] == spec.size_of(mask), name


def test_annihilator_of_join_is_intersection(corpus_graphs):
    for name, spec, LB, G in corpus_graphs[:10]:
        ann = {lab: frozenset(LB.annihilator(lab)) for lab in LB.labels}
        for x in LB.labels:
            for y in LB.labels:
                assert ann[LB.join(x, y)] == ann[x] & ann[y], name


def test_pseudocomplement_classes_match_annihilator_classes(corpus_graphs):
    for name, spec, LB, G in corpus_graphs[:10]:
        star = {lab: LB.pseudocomplement(lab) for lab in LB.labels}
        ann = {lab: frozenset(LB.annihilator(lab)) for lab in LB.labels}
        for x in LB.labels:
            for y in LB.labels:
                assert (ann[x] == ann[y]) == (star[x] == star[y]), name


def test_connected_with_diameter_at_most_three(corpus_graphs):
    # blow-ups of 2^n with n >= 3 hit the bound exactly: two distinct
    # coatom-mask vertices are always at distance 3
    for name, spec, LB, G in corpus_graphs:
        assert diameter(G) == 3, name
    for P in (m_lattice(3), m_lattice(6), product_of_chains([3, 2, 2]),
              product_of_chains([2, 3, 2, 2])):
        assert diameter(zero_divisor_graph(P)) <= 3


def test_distance_trichotomy_on_corpus(corpus_graphs):
    for name, spec, LB, G in corpus_graphs:
        dist = all_pairs_distances(G)
        for i in range(G.n):
            for j in range(i + 1, G.n):
                got = distance_by_pseudocomplement(LB, G.labels[i],
                                                   G.labels[j])
                assert got == dist[i][j], (name, G.labels[i], G.labels[j])


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


def test_gsr_vertex_count_and_beta_formula(corpus_graphs):
    for name, spec, LB, G in corpus_graphs:
        gsr = strong_resolving_graph(G)
        assert boundary(G) == list(gsr.labels), name
        m = spec.singleton_atom_count()
        assert gsr.n == spec.total_vertices() - m, name
        assert independence_number(gsr) == beta_gsr_formula(spec), name


def test_gstar_equals_gsr_everywhere(corpus_graphs):
    for name, spec, LB, G in corpus_graphs:
        gsr = strong_resolving_graph(G)
        assert labeled_equal(gstar(LB), gsr), name
        if spec.singleton_atom_count() == 0:
            assert labeled_equal(gstar_star(LB), gsr), name


def test_gstar_star_decomposition(corpus_graphs):
    for name, spec, LB, G in corpus_graphs:
        gss = gstar_star(LB)
        part = LB.quotient_classes()
        atom_classes = []
        for atom in LB.atoms():
            cid = part.class_of[LB.index(atom)]
            atom_classes.append(frozenset(
                LB.labels[i] for i in part.classes[cid]))
        comps = connected_components(gss)
        for cls in atom_classes:
            assert cls in comps, name
            assert gss.subgraph(cls).is_complete(), name
        rest = [c for c in comps if c not in atom_classes]
        assert len(rest) == 1, name
        # isolated vertices are exactly the atoms in singleton classes
        singles = {min(c) for c in atom_classes if len(c) == 1}
        isolated = {lab for i, lab in enumerate(gss.labels)
                    if not gss.adj[i]}
        assert isolated == singles, name


def test_three_way_agreement(corpus_graphs):
    for name, spec, LB, G in corpus_graphs:
        want = sdim_formula(spec)
        assert sdim_via_gsr(G) == want, name
        if G.n <= 14:
            assert sdim_bruteforce(G) == want, name


def test_gallai_on_every_computed_graph(corpus_graphs):
    for name, spec, LB, G in corpus_graphs[:10]:
        for g in (G, strong_resolving_graph(G), gstar_star(LB)):
            assert independence_number(g) + vertex_cover_number(g) == g.n


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
        assert labeled_equal(G1, G2), sizes


def test_pure_boolean_beta():
    for n in (3, 4, 5):
        G = zero_divisor_graph(boolean_lattice(n))
        gsr = strong_resolving_graph(G)
        assert independence_number(gsr) == n - 2
        assert gsr.n == (2 ** n - 2) - n
        assert sdim_via_gsr(G) == 2 ** n - 2 * n
