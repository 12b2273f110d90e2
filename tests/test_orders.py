"""Every lattice builder against the rule that defines its order.

The builders take their down-sets from the closure of a cover relation.
Here each order is stated directly, as a rule on pairs of elements, and
its down-sets are compared with the builder's; the closure itself is
checked against the order axioms and a plain transitive closure.  The
annihilators and the annihilator quotient, which the package reads off the
atoms, the up-sets, which it takes from one string transpose of the
down-sets, and the lattice test, which looks for a top and for meets only,
are checked against their definitions, pair by pair or bit by bit.
"""

import random
from collections import Counter
from itertools import combinations, product

import pytest

from zdgdim import (BlowupSpec, FinitePoset, boolean_lattice, build_blowup,
                    m_lattice, product_of_chains)
from zdgdim.adapters import ideal_lattice_dual_zn
from zdgdim.poset import _bits
from zdgdim.verify import corpus

from conftest import bounded_poset, random_bounded_relation


def rule_down(elems, leq):
    """down[i] = the mask of {j : elems[j] <= elems[i]} under leq."""
    return tuple(sum(1 << j for j, u in enumerate(elems) if leq(u, t))
                 for t in elems)


def check_order_axioms(P):
    n = len(P)
    for i in range(n):
        assert P.down[i] >> i & 1, "order is not reflexive"
        for j in _bits(P.down[i]):
            assert j == i or not P.down[j] >> i & 1, \
                "order is not antisymmetric"
            assert not P.down[j] & ~P.down[i], "order is not transitive"
        assert P.up[i] == sum(1 << k for k in range(n) if P.down[k] >> i & 1)


def blowup_elements(spec):
    """(mask, level) pairs in the builder's element order."""
    full = (1 << spec.n) - 1
    return ([(0, 0)]
            + [(m, t) for m in range(1, full)
               for t in range(1, spec.size_of(m) + 1)]
            + [(full, 1)])


def blowup_leq(a, b):
    # equal mask and lower level, or a strictly contained mask; the masks 0
    # and full of the bottom and top fall under the same rule
    (ma, ta), (mb, tb) = a, b
    return (ma == mb and ta <= tb) or (ma != mb and ma & ~mb == 0)


def assert_blowup_order(spec, P):
    assert P.down == rule_down(blowup_elements(spec), blowup_leq)
    assert (P.bottom, P.top) == (0, len(P) - 1)


def test_blowups_match_their_order_rule_on_the_corpus():
    for _, spec, LB in corpus(0, 300):
        assert_blowup_order(spec, LB)


@pytest.mark.parametrize("n", range(1, 10))
def test_boolean_lattices_match_their_order_rule(n):
    assert_blowup_order(BlowupSpec(n, {}), boolean_lattice(n))


def test_the_400_400_blowup_matches_its_order_rule():
    spec = BlowupSpec(3, {1: 400, 6: 400})
    assert_blowup_order(spec, build_blowup(spec))


def test_chain_products_match_the_coordinatewise_order():
    for k in range(1, 5):
        for sizes in product([1, 2, 3], repeat=k):
            elems = list(product(*(range(c) for c in sizes)))
            P = product_of_chains(list(sizes))
            assert P.down == rule_down(
                elems, lambda u, t: all(x <= y for x, y in zip(u, t))), sizes
            assert (P.bottom, P.top) == (0, len(elems) - 1)


@pytest.mark.parametrize("N", [2, 4, 12, 60, 210, 720, 2310, 30030])
def test_dual_ideal_lattice_matches_divisibility(N):
    divs = [d for d in range(1, N + 1) if N % d == 0]
    P = ideal_lattice_dual_zn(N)
    assert P.labels == tuple(str(d) for d in divs)
    assert P.down == rule_down(divs, lambda e, d: d % e == 0)
    assert (P.bottom, P.top) == (0, len(divs) - 1)


def test_cover_closure_is_the_transitive_closure_of_any_acyclic_relation():
    rng = random.Random(2024)
    for _ in range(300):
        labels, pairs = random_bounded_relation(rng)
        P = bounded_poset(labels, pairs)
        check_order_axioms(P)
        # the least reflexive and transitive relation holding every pair
        idx = {str(lab): i for i, lab in enumerate(labels)}
        reach = [1 << i for i in range(len(labels))]
        for a, b in pairs:
            reach[idx[str(b)]] |= 1 << idx[str(a)]
        for k in range(len(labels)):
            for i in range(len(labels)):
                if reach[i] >> k & 1:
                    reach[i] |= reach[k]
        assert P.down == tuple(reach)
        assert (P.bottom, P.top) == (idx["bot"], idx["top"])


def pair_loop_ann(P):
    """ann(x) by definition: every y whose down-set meets x's only in the
    bottom, one element pair at a time."""
    zero = 1 << P.bottom
    return tuple(sum(1 << j for j, dj in enumerate(P.down) if di & dj == zero)
                 for di in P.down)


def test_annihilators_match_the_pair_loop_on_lattices():
    lattices = [LB for _, _, LB in corpus(0, 300)]
    lattices += [boolean_lattice(n) for n in range(1, 8)]
    lattices += [m_lattice(n) for n in range(1, 7)]
    lattices += [product_of_chains(list(sizes)) for k in range(1, 5)
                 for sizes in product([1, 2, 3], repeat=k)]
    lattices += [ideal_lattice_dual_zn(N) for N in (2, 12, 60, 210, 720)]
    lattices += [L.dual() for L in lattices[::4]]
    for P in lattices:
        assert P._ann_masks() == pair_loop_ann(P), P.labels


def test_annihilators_match_the_pair_loop_on_posets_that_are_not_lattices():
    rng = random.Random(77)
    others = 0
    for _ in range(300):
        P = bounded_poset(*random_bounded_relation(rng))
        others += not P.is_lattice()
        assert P._ann_masks() == pair_loop_ann(P), P.labels
    assert others > 50


def join_closed_annihilators(P):
    """0-distributivity by its definition, one triple at a time: for every
    a and every two members b, c of ann(a), read pair by pair, b v c is in
    ann(a).  The join is the element whose up-set is up(b) & up(c)."""
    ann = pair_loop_ann(P)
    join = {up: i for i, up in enumerate(P.up)}
    return all(ann[a] >> join[P.up[b] & P.up[c]] & 1
               for a in range(len(P))
               for b, c in combinations(_bits(ann[a]), 2))


def zero_distributivity_lattices(rng):
    """The lattices that the 0-distributivity test runs on."""
    lattices = [LB for _, _, LB in corpus(0, 300)]
    lattices += [product_of_chains(list(sizes)) for k in range(1, 4)
                 for sizes in product([1, 2, 3], repeat=k)]
    # M_3 ... M_6 and the random bounded lattices are mostly not
    # 0-distributive; duals of blow-ups may be either
    lattices += [m_lattice(n) for n in range(1, 7)]
    lattices += [ideal_lattice_dual_zn(N) for N in (2, 12, 60, 210, 720)]
    lattices += [L.dual() for L in lattices[::4]]
    for _ in range(400):
        P = bounded_poset(*random_bounded_relation(rng))
        if P.is_lattice():
            lattices.append(P)
    return lattices


def test_zero_distributivity_matches_the_triple_loop():
    verdicts = Counter()
    for P in zero_distributivity_lattices(random.Random(5)):
        want = join_closed_annihilators(P)
        assert P.is_zero_distributive() == want, P.labels
        verdicts[want] += 1
    assert verdicts[False] > 100 and verdicts[True] > 300


def maximal_element_pseudocomplements(P):
    """The pseudocomplement of each element by index, -1 where none, by a
    scan of ann(x) for its maximal elements: the maximum exists iff
    exactly one is maximal."""
    pcs = []
    for ann in pair_loop_ann(P):
        maximal = [j for j in _bits(ann) if P.up[j] & ann == 1 << j]
        pcs.append(maximal[0] if len(maximal) == 1 else -1)
    return tuple(pcs)


@pytest.fixture(scope="module")
def quotient_posets():
    """The 0-distributivity lattices, M_1 ... M_6 and their duals, and
    random bounded posets that are not lattices."""
    posets = zero_distributivity_lattices(random.Random(5))
    posets += [m_lattice(n) for n in range(1, 7)]
    posets += [m_lattice(n).dual() for n in range(1, 7)]
    rng = random.Random(6)
    for _ in range(300):
        P = bounded_poset(*random_bounded_relation(rng))
        if not P.is_lattice():
            posets.append(P)
    return posets


def test_pseudocomplements_match_the_maximal_element_scan(quotient_posets):
    # M_3 ... M_6 and their duals have elements with no pseudocomplement
    others = missing = 0
    for P in quotient_posets:
        want = maximal_element_pseudocomplements(P)
        assert P._pseudocomplement_indices() == want, P.labels
        missing += -1 in want
        others += not P.is_lattice()
    assert others > 50 and missing > 100
    assert all(-1 in maximal_element_pseudocomplements(m_lattice(n).dual())
               for n in range(3, 7))


def pair_loop_quotient(P):
    """(classes, class_of, boolean_image) by definition: the classes of
    equal pair-loop annihilators, ordered by least member, and the image
    only where the class order, [a] <= [b] iff ann(b) is contained in
    ann(a), is the inclusion order of the atom-class masks, pair by
    pair."""
    ann = pair_loop_ann(P)
    by_ann = {}
    for i, m in enumerate(ann):
        by_ann.setdefault(m, []).append(i)
    classes = tuple(sorted((tuple(v) for v in by_ann.values()),
                           key=lambda c: c[0]))
    class_of = [0] * len(P)
    for cid, members in enumerate(classes):
        for i in members:
            class_of[i] = cid
    atoms = [i for i, d in enumerate(P.down) if d.bit_count() == 2]
    if len(classes) != 1 << len(atoms):
        return classes, tuple(class_of), None
    reps = [c[0] for c in classes]

    def cls_leq(c, d):
        return ann[reps[d]] & ~ann[reps[c]] == 0

    masks = [sum(1 << t for t, a in enumerate(atoms)
                 if cls_leq(class_of[a], cid))
             for cid in range(len(classes))]
    if len(set(masks)) != len(classes):
        return classes, tuple(class_of), None
    for c in range(len(classes)):
        for d in range(len(classes)):
            if cls_leq(c, d) != (masks[c] & ~masks[d] == 0):
                return classes, tuple(class_of), None
    return classes, tuple(class_of), tuple(masks)


def test_quotient_classes_match_the_pair_loop_quotient(quotient_posets):
    images = Counter()
    for P in quotient_posets:
        part = P.quotient_classes()
        want = pair_loop_quotient(P)
        assert (part.classes, part.class_of, part.boolean_image) == want, \
            (P.labels, P.down)
        images[want[2] is None] += 1
    # Boolean quotients (blow-ups, chain products) and others (M_n for
    # n > 2, most random posets)
    assert images[False] > 300 and images[True] > 100


def test_pseudocomplement_classes_are_the_annihilator_classes(
        quotient_posets):
    checked = 0
    for P in quotient_posets:
        pcs = maximal_element_pseudocomplements(P)
        if -1 in pcs:
            continue
        by_pc = {}
        for i, k in enumerate(pcs):
            by_pc.setdefault(k, []).append(i)
        assert sorted(map(tuple, by_pc.values())) == \
            sorted(P.quotient_classes().classes), P.labels
        checked += 1
    assert checked > 300


def bit_loop_up(P):
    """up[j] = the mask of {i : j <= i}, one set bit of each down-set at a
    time."""
    up = [0] * len(P)
    for i, d in enumerate(P.down):
        for j in _bits(d):
            up[j] |= 1 << i
    return tuple(up)


def random_poset(rng):
    """A random poset on 1 to 12 elements, in shuffled index order: the
    transitive closure of a random relation that goes up a random linear
    order, with a least element added half the time and a greatest one
    half the time.  No bounds are declared."""
    n = rng.randint(1, 10)
    density = rng.choice([0.1, 0.25, 0.5])
    down = [1 << b for b in range(n)]
    for b in range(n):
        for a in range(b):
            if rng.random() < density:
                down[b] |= down[a]
    if rng.random() < 0.5:
        down = [1] + [d << 1 | 1 for d in down]
    if rng.random() < 0.5:
        down.append((1 << len(down) + 1) - 1)
    place = list(range(len(down)))
    rng.shuffle(place)
    moved = [0] * len(down)
    for b, d in enumerate(down):
        moved[place[b]] = sum(1 << place[a] for a in _bits(d))
    return FinitePoset([f"e{i}" for i in range(len(down))], moved)


def test_up_sets_match_the_bit_loop_transpose(quotient_posets):
    # random_poset declares no bounds; the empty poset has no rows
    rng = random.Random(8)
    posets = quotient_posets + [random_poset(rng) for _ in range(300)]
    posets.append(FinitePoset([], []))
    for P in posets:
        assert P.up == bit_loop_up(P), (P.labels, P.down)


def meets_exist(P):
    """Every two elements have a meet: their common lower bounds
    down(x) & down(y) are the down-set of one element."""
    downs = set(P.down)
    return all(P.down[i] & P.down[j] in downs
               for i, j in combinations(range(len(P)), 2))


def meet_join_lattice(P):
    """The lattice test by its definition, one pair at a time: every two
    elements have a meet, and a join, read off the up-sets likewise."""
    ups = set(P.up)
    return meets_exist(P) and all(P.up[i] & P.up[j] in ups
                                  for i, j in combinations(range(len(P)), 2))


def test_the_lattice_test_matches_the_meet_and_join_pair_loop():
    rng = random.Random(31)
    posets = [LB for _, _, LB in corpus(0, 300)]
    posets += [boolean_lattice(n) for n in range(1, 8)]
    posets += [m_lattice(n) for n in range(1, 7)]
    posets += [product_of_chains(list(sizes)) for k in range(1, 4)
               for sizes in product([1, 2, 3], repeat=k)]
    posets += [ideal_lattice_dual_zn(N) for N in (2, 12, 60, 210, 720)]
    posets += [bounded_poset(*random_bounded_relation(rng))
               for _ in range(300)]
    posets += [random_poset(rng) for _ in range(600)]
    posets += [P.dual() for P in posets[::4]]
    # 0 below two maximal elements a and b: every meet exists, no top
    posets.append(FinitePoset(["0", "a", "b"], [0b001, 0b011, 0b101],
                              bottom=0))
    kinds = Counter()
    for P in posets:
        want = meet_join_lattice(P)
        assert P.is_lattice() == want, (P.labels, P.down)
        kinds[want, meets_exist(P)] += 1
    # lattices, posets that lack a meet, and posets with every meet but no
    # greatest element
    assert kinds[True, True] > 900
    assert kinds[False, False] > 300 and kinds[False, True] > 100
