import random
from itertools import product

import pytest

from zdgdim import (BlowupSpec, InvalidSpec, NotApplicable,
                    NotZeroDistributive, boolean_lattice, build_blowup, cli,
                    canonical_blowup_of, gstar_star, m_lattice,
                    product_of_chains, random_blowup_spec, tuple_label,
                    zero_divisor_graph)
from zdgdim.blowup import (blowup_elements, blowup_label, coordinates_label,
                           tuple_coordinates, zero_divisor_pairs)
from zdgdim.verify import corpus, corpus_specs

from conftest import dual, meet


def test_spec_validation():
    BlowupSpec(3, {1: 2, 6: 3})
    with pytest.raises(InvalidSpec):
        BlowupSpec(0, {})
    with pytest.raises(InvalidSpec):
        BlowupSpec(3, {7: 2})          # full mask is never blown
    with pytest.raises(InvalidSpec):
        BlowupSpec(3, {0: 2})
    with pytest.raises(InvalidSpec):
        BlowupSpec(3, {1: 0})
    # bool is a subclass of int
    with pytest.raises(InvalidSpec):
        BlowupSpec(True, {})
    with pytest.raises(InvalidSpec):
        BlowupSpec(3, {1: True})


def test_spec_counts(fig3_spec):
    assert fig3_spec.total_vertices() == 12
    assert fig3_spec.singleton_atom_count() == 1
    assert BlowupSpec(4, {}).total_vertices() == 14
    assert BlowupSpec(3, {}).singleton_atom_count() == 3


def test_spec_json_round_trip(fig3_spec):
    data = fig3_spec.to_json_dict()
    assert data == {"n": 3, "chains": {"001": 3, "011": 2, "100": 2,
                                       "101": 3}}
    assert BlowupSpec.from_json_dict(data) == fig3_spec.normalized()
    with pytest.raises(InvalidSpec):
        BlowupSpec.from_json_dict({"n": 3, "chains": {"11": 2}})


def test_boolean_lattice_basics():
    L = boolean_lattice(3)
    assert len(L) == 8
    assert L.atoms() == ["(1,0,0)", "(0,1,0)", "(0,0,1)"]
    assert meet(L, "(1,1,0)", "(0,1,1)") == "(0,1,0)"
    assert L.join("(1,0,0)", "(0,0,1)") == "(1,0,1)"
    assert len(L.zero_divisors()) == 6
    assert boolean_lattice(1).labels == ("(0)", "(1)")


def test_tuple_coordinates_reads_back_what_tuple_label_writes():
    for values in [(0,), (2, 0, 2), (10, 1), tuple(range(12))]:
        coords = tuple_coordinates(tuple_label(values))
        assert coords == [str(v) for v in values]
        assert coordinates_label(coords) == tuple_label(values)
    for label in ["", "v00", "[0,1]", "(0,1", "0,1)"]:
        assert tuple_coordinates(label) is None, label


def test_blowup_labels_match_the_coordinate_list_formula():
    # the label written from mask's bits, with the level over every 1,
    # against the list of coordinates (level where the atom is in mask);
    # levels of two and three digits and masks with many 1s catch a
    # rewrite of the first 1 only
    for n in range(1, 11):
        for mask in range(1 << n):
            for level in [*range(1, 13), 100]:
                want = tuple_label([level if mask >> i & 1 else 0
                                    for i in range(n)])
                assert blowup_label(mask, level, n) == want, (mask, level)


def test_build_blowup_labels_each_level_as_blowup_label_does():
    spec = BlowupSpec(3, {0b101: 12, 0b011: 3})
    labels = build_blowup(spec).labels
    assert labels == tuple(blowup_label(m, t, 3) for m in range(8)
                           for t in range(1, spec.size_of(m) + 1))
    assert "(10,0,10)" in labels and "(3,3,0)" in labels


def test_identity_blowup_is_the_boolean_lattice():
    # element m is the subset mask m, ordered by inclusion
    for n in (1, 2, 3, 4):
        L = build_blowup(BlowupSpec(n, {}))
        assert L.labels == tuple(tuple_label([m >> i & 1 for i in range(n)])
                                 for m in range(1 << n))
        assert L.down == tuple(sum(1 << s for s in range(m + 1) if s & ~m == 0)
                               for m in range(1 << n))
        assert boolean_lattice(n) == L


def test_figure3_blowup_structure(fig3_spec, fig3_lattice):
    LB = fig3_lattice
    assert len(LB) == 14
    assert len(LB.zero_divisors()) == 12
    assert LB.is_lattice()
    assert LB.is_pseudocomplemented()
    assert dual(LB).is_pseudocomplemented()
    # meet of the chain bottoms of {1,2} and {1,3} is the top of chain 1
    assert meet(LB, "(1,1,0)", "(1,0,1)") == "(3,0,0)"
    assert meet(LB, "(1,1,0)", "(0,0,1)") == "(0,0,0)"
    assert LB.join("(1,0,0)", "(0,1,0)") == "(1,1,0)"
    # pseudocomplement of an atom is the top of the complementary chain
    assert LB.pseudocomplement("(1,0,0)") == "(0,1,1)"
    assert LB.pseudocomplement("(0,1,1)") == "(3,0,0)"


def test_blowup_meets_depend_only_on_masks(fig3_lattice):
    # literal mask-only meets and joins hold for incomparable masks; for
    # nested masks the meet is the lower element itself, so only the
    # annihilator class of the result is mask-determined
    LB = fig3_lattice
    part = LB.quotient_classes()
    img = part.boolean_image
    zstar = LB.zero_divisors()
    for x in zstar:
        for y in zstar:
            cx = part.class_of[LB.index(x)]
            cy = part.class_of[LB.index(y)]
            if cx == cy:
                continue
            x0 = LB.labels[part.classes[cx][0]]
            y0 = LB.labels[part.classes[cy][0]]
            mx, my = img[cx], img[cy]
            if mx & ~my and my & ~mx:
                assert meet(LB, x, y) == meet(LB, x0, y0)
                assert LB.join(x, y) == LB.join(x0, y0)
            cls = part.class_of
            assert cls[LB.index(meet(LB, x, y))] == cls[LB.index(meet(LB, x0, y0))]
            assert cls[LB.index(LB.join(x, y))] == cls[LB.index(LB.join(x0, y0))]


def test_blowup_complement_identities(fig3_lattice):
    LB = fig3_lattice
    top, bottom = LB.labels[LB.top], LB.labels[LB.bottom]
    for x in LB.labels:
        star = LB.pseudocomplement(x)
        assert meet(LB, x, star) == bottom
        assert LB.join(x, star) == top


def test_canonical_blowup_of_products_of_chains():
    for sizes in product((2, 3), repeat=3):
        P = product_of_chains(list(sizes))
        spec, relab = canonical_blowup_of(P)
        assert spec.n == 3
        expected_total = 1
        for c in sizes:
            expected_total *= c
        dense = 1
        for c in sizes:
            dense *= c - 1
        assert spec.total_vertices() == expected_total - dense - 1
        G1 = zero_divisor_graph(P).relabeled(relab)
        G2 = zero_divisor_graph(build_blowup(spec))
        assert G1.labeled_equal(G2)


def test_canonical_blowup_round_trip(corpus_graphs):
    for _, spec, LB, _ in corpus_graphs:
        back, relab = canonical_blowup_of(LB)
        assert back == spec.normalized()
        # the relabeling must fix every zero divisor label
        assert set(relab) == set(LB.zero_divisors())
        assert all(relab[lab] == lab for lab in relab)


def test_canonical_blowup_of_boolean_lattice():
    spec, relab = canonical_blowup_of(boolean_lattice(3))
    assert spec == BlowupSpec(3, {})
    assert all(k == v for k, v in relab.items())


def test_canonical_blowup_figure2(fig2_lattice):
    spec, relab = canonical_blowup_of(fig2_lattice)
    assert spec.n == 2
    assert dict(spec.chain_sizes) == {1: 5, 2: 2}
    G1 = zero_divisor_graph(fig2_lattice).relabeled(relab)
    G2 = zero_divisor_graph(build_blowup(spec))
    assert G1.labeled_equal(G2)
    # K_{2,5}: every size-5-class vertex meets every size-2-class vertex
    assert G2.n == 7 and G2.edge_count() == 10


def test_canonical_blowup_rejects_m3():
    with pytest.raises(NotZeroDistributive):
        canonical_blowup_of(m_lattice(3))


@pytest.mark.parametrize("sizes", [[1], [1, 1]])
def test_canonical_blowup_refuses_the_one_element_lattice(sizes):
    # bounded and 0-distributive, but with no atoms it is no blow-up of a
    # 2^n with n >= 1
    with pytest.raises(NotApplicable, match="no atoms"):
        canonical_blowup_of(product_of_chains(sizes))


def test_random_spec_generator_is_deterministic():
    a = [random_blowup_spec(random.Random(7)) for _ in range(3)]
    b = [random_blowup_spec(random.Random(7)) for _ in range(3)]
    assert a == b
    rng = random.Random(11)
    for _ in range(20):
        spec = random_blowup_spec(rng)
        assert spec.n in (3, 4)
        assert all(1 <= s <= 3 for s in spec.chain_sizes.values())


def _random_specs(rng, count):
    """count seeded specs per n = 1..6, each mask's chain of 1 to 12."""
    return [BlowupSpec(n, {m: rng.randint(1, 12)
                           for m in range(1, (1 << n) - 1)
                           if rng.random() < 0.4})
            for n in range(1, 7) for _ in range(count)]


def _listed_elements(spec):
    """(label, mask) of every element by the coordinate-list formula."""
    n = spec.n
    return [(tuple_label([t if m >> i & 1 else 0 for i in range(n)]), m)
            for m in range(1 << n) for t in range(1, spec.size_of(m) + 1)]


def test_blowup_elements_carry_the_atoms_below_them(fig3_spec):
    # each label's nonzero coordinates are its mask's atoms, and its level
    # counts up from 1 along the mask's chain: on random specs, every 2^n
    # up to n = 12, chains of 10 and more, whose levels are written with
    # two digits, sizes of 1 given explicitly, and the verify corpus
    specs = [fig3_spec, BlowupSpec(3, {5: 12, 3: 100})]
    specs += _random_specs(random.Random(28), 5)
    specs += [BlowupSpec(n, {}) for n in range(1, 13)]
    specs += [BlowupSpec(4, {1: 1, 2: 11, 5: 1, 14: 10}),
              BlowupSpec(5, {m: 10 + m % 7 for m in range(1, 31, 3)})]
    specs += [spec for _, spec in corpus_specs(0, 300)]
    for spec in specs:
        pairs = _listed_elements(spec)
        assert blowup_elements(spec) == pairs
        assert zero_divisor_pairs(spec) == [(lab, m) for lab, m in pairs
                                           if 0 < m < (1 << spec.n) - 1]


def per_element_relabel(P) -> dict[str, str]:
    """The relabeling of `canonical_blowup_of`, one `blowup_label` call
    per element."""
    part = P.quotient_classes()
    k = len(P.atoms())
    relabel = {}
    for cid, members in enumerate(part.classes):
        mask = part.boolean_image[cid]
        if 0 < mask < (1 << k) - 1:
            ordered = sorted(members, key=lambda i: (P.down[i].bit_count(), i))
            for level, i in enumerate(ordered, start=1):
                relabel[P.labels[i]] = blowup_label(mask, level, k)
    return relabel


def test_canonical_relabel_matches_the_per_element_labels():
    # the corpus lattices, and chain products and a blow-up whose classes
    # reach levels of 10 and more
    lattices = [LB for _, _, LB in corpus(0, 300)]
    lattices += [product_of_chains(sizes) for sizes in
                 ([11, 3, 12], [10, 10], [2, 13, 2, 2])]
    lattices.append(build_blowup(BlowupSpec(3, {1: 12, 5: 15, 6: 10})))
    for P in lattices:
        relabel = canonical_blowup_of(P)[1]
        assert relabel == per_element_relabel(P)
    assert "(12,0,0)" in relabel.values()


def test_build_blowup_orders_masks_by_inclusion_then_levels(fig3_spec):
    # x <= y iff mask(x) is a proper subset of mask(y), or the masks are
    # equal and level(x) <= level(y); a level is read off its label
    for spec in [fig3_spec] + _random_specs(random.Random(6), 2):
        LB = build_blowup(spec)
        mask = [m for _, m in _listed_elements(spec)]
        level = [max(map(int, tuple_coordinates(lab))) for lab in LB.labels]
        assert LB.labels == tuple(lab for lab, _ in _listed_elements(spec))
        assert LB.down == tuple(
            sum(1 << x for x in range(len(LB))
                if mask[x] & ~mask[y] == 0
                and (mask[x] != mask[y] or level[x] <= level[y]))
            for y in range(len(LB)))


def test_spec_route_graphs_match_the_lattice_route():
    # the CLI's graph and G** of a blow-up input, read off its spec's
    # pairs, against the graphs of the built lattice
    specs = [spec for _, spec, _ in corpus(0, 300)]
    specs += _random_specs(random.Random(7), 4)
    specs += [BlowupSpec(n, {}) for n in range(1, 11)]
    for spec in specs:
        res = cli._spec_input("spec", spec)
        LB = build_blowup(spec)
        assert res.graph.labeled_equal(zero_divisor_graph(LB)), spec
        assert res.gstar_star().labeled_equal(gstar_star(LB)), spec
