import random

import pytest

from zdgdim import poset
from zdgdim import (CycleDetected, NotBounded, UnknownElement,
                    from_cover_relations, m_lattice, product_of_chains)
from zdgdim.poset import FinitePoset, poset_from_json, poset_to_json

from conftest import dual, meet


CUBE_LABELS = ["000", "100", "010", "001", "110", "101", "011", "111"]
CUBE_COVERS = [
    ("000", "100"), ("000", "010"), ("000", "001"),
    ("100", "110"), ("100", "101"), ("010", "110"), ("010", "011"),
    ("001", "101"), ("001", "011"),
    ("110", "111"), ("101", "111"), ("011", "111"),
]


def cube():
    return from_cover_relations(CUBE_LABELS, CUBE_COVERS, "000", "111")


def test_cover_ingestion_builds_the_cube():
    P = cube()
    assert len(P) == 8
    assert P.atoms() == ["100", "010", "001"]
    assert len(P.zero_divisors()) == 6
    assert P.leq("100", "110") and not P.leq("110", "100")
    assert not P.leq("100", "011")


def test_two_chain():
    P = from_cover_relations(["0", "1"], [("0", "1")], "0", "1")
    assert len(P) == 2
    assert P.leq("0", "1")
    assert meet(P, "0", "1") == "0" and P.join("0", "1") == "1"


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        from_cover_relations(["a", "b"], [("a", "b"), ("b", "a")], "a", "b")
    with pytest.raises(CycleDetected):
        from_cover_relations(["a"], [("a", "a")], "a", "a")


def test_not_bounded():
    # two maximal elements; the declared top is not greatest
    with pytest.raises(NotBounded):
        from_cover_relations(["0", "a", "b"], [("0", "a"), ("0", "b")],
                             "0", "a")


def test_unknown_element():
    P = cube()
    with pytest.raises(UnknownElement):
        meet(P, "100", "nope")
    with pytest.raises(UnknownElement):
        from_cover_relations(["a", "b"], [("a", "c")], "a", "b")


def test_meet_join_and_cones():
    P = cube()
    assert meet(P, "110", "011") == "010"
    assert P.join("100", "010") == "110"
    assert P.is_lattice()


def test_meet_absent_in_antichain_poset():
    # 0 < {a, b} < {c, d} < 1: a and b share two minimal upper bounds
    P = from_cover_relations(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("a", "d"),
         ("b", "d"), ("c", "1"), ("d", "1")],
        "0", "1")
    assert P.join("a", "b") is None
    assert meet(P, "c", "d") is None
    assert not P.is_lattice()


def test_annihilators_in_the_cube():
    P = cube()
    assert P.annihilator("110") == ["000", "001"]
    assert P.annihilator("111") == ["000"]
    assert sorted(P.zero_divisors()) == sorted(
        ["100", "010", "001", "110", "101", "011"])
    assert [lab for lab in P.labels if P.is_zero_divisor(lab)] == \
        P.zero_divisors()
    assert not P.is_zero_divisor("not an element")


def test_pseudocomplements():
    P = cube()
    assert P.pseudocomplement("000") == "111"
    assert P.pseudocomplement("110") == "001"
    assert P.is_pseudocomplemented()
    # M_3: the annihilator of one atom has two maximal elements
    M = m_lattice(3)
    assert M.annihilator("a1") == ["0", "a2", "a3"]
    assert M.pseudocomplement("a1") is None
    assert not M.is_pseudocomplemented()


def test_zero_distributivity():
    # frozen by triple enumeration: a ^ (b v c) = a ^ 1 = a != 0 in M_3
    assert not m_lattice(3).is_zero_distributive()
    assert product_of_chains([3, 2, 2]).is_zero_distributive()
    assert cube().is_zero_distributive()


def test_dual_involution_and_m_n():
    for P in (cube(), m_lattice(4), product_of_chains([3, 2])):
        D = dual(P)
        assert dual(D) == P
        assert D.bottom == P.top and D.top == P.bottom
    M = m_lattice(3)
    assert M.atoms() == ["a1", "a2", "a3"]
    assert dual(M).atoms() == ["a1", "a2", "a3"]


def test_quotient_classes_cube_all_singletons():
    part = cube().quotient_classes()
    assert part.sizes() == (1,) * 8
    assert part.boolean_image is not None
    assert sorted(part.boolean_image) == list(range(8))


def test_quotient_classes_are_kept_on_the_poset(fig3_lattice):
    # the quotient suite and canonical_blowup_of, and the decomposition
    # suite and gstar_star, each ask for the same lattice's partition
    part = fig3_lattice.quotient_classes()
    assert fig3_lattice.quotient_classes() is part
    assert cube().quotient_classes() is not part


def test_the_atoms_mask_is_kept_on_the_poset():
    # the mask is computed once: a poset whose down-sets are then emptied
    # still answers with its atoms, and one with no bottom still refuses
    P = cube()
    assert P.atoms() == ["100", "010", "001"]
    P.down = ()
    assert P.atoms() == ["100", "010", "001"]
    Q = FinitePoset(["a", "b"], [[], [0]])
    for _ in range(2):
        with pytest.raises(NotBounded):
            Q.atoms()


def test_quotient_classes_m3_not_boolean():
    part = m_lattice(3).quotient_classes()
    assert len(part.classes) == 5
    assert part.boolean_image is None


def test_quotient_classes_figure2(fig2_lattice):
    part = fig2_lattice.quotient_classes()
    assert sorted(part.sizes()) == [1, 2, 5, 10]
    by_label = {}
    for cid, members in enumerate(part.classes):
        for i in members:
            by_label[fig2_lattice.labels[i]] = cid
    assert by_label["x1_1"] == by_label["x1_5"]
    assert by_label["x2_1"] == by_label["x2_2"]
    assert by_label["1"] == by_label["d1"] == by_label["d9"]
    assert len(part.classes[by_label["x1_1"]]) == 5
    assert len(part.classes[by_label["x2_1"]]) == 2


def test_quotient_classes_figure3(fig3_lattice):
    part = fig3_lattice.quotient_classes()
    assert part.sizes() == (1, 3, 1, 2, 2, 3, 1, 1)
    assert part.boolean_image is not None


def test_annihilator_requires_bottom():
    P = cube()
    Q = type(P)(P.labels, P.below)         # same order, no declared bounds
    with pytest.raises(NotBounded):
        Q.annihilator("110")


def test_zero_distributivity_needs_a_lattice():
    from zdgdim import NotALattice
    P = from_cover_relations(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("a", "d"),
         ("b", "d"), ("c", "1"), ("d", "1")],
        "0", "1")
    with pytest.raises(NotALattice):
        P.is_zero_distributive()


def test_canonical_blowup_requires_bounds():
    from zdgdim import NotBounded, canonical_blowup_of
    P = cube()
    Q = type(P)(P.labels, P.below)
    with pytest.raises(NotBounded):
        canonical_blowup_of(Q)


def test_poset_json_round_trip():
    P = cube()
    Q = poset_from_json(poset_to_json(P))
    assert Q == P
    with pytest.raises(ValueError):
        poset_from_json({"labels": ["a"]})


def _set_positions(mask):
    return [i for i, ch in enumerate(bin(mask)[:1:-1]) if ch == "1"]


@pytest.mark.parametrize("scan_from", [0, None, 1 << 30000],
                         ids=["scan", "bound", "loop"])
def test_bits_loop_and_scan_yield_the_same_positions(monkeypatch,
                                                     scan_from):
    # None keeps the measured bound; 0 and 2^30000 force the string scan
    # and the low-bit loop on every mask
    if scan_from is not None:
        monkeypatch.setattr(poset, "_SCAN_FROM", scan_from)
    rng = random.Random(28)
    t = poset._SCAN_FROM.bit_length() if scan_from is None else 1025
    widths = [0, 1, 2, 63, 64, 65, t - 1, t, t + 1, 20000]
    widths += [rng.randint(0, 20000) for _ in range(40)]
    for w in widths:
        # a bit is set with probability 2^-k: all, half, 1/128; or only
        # the top bit
        for k in (0, 1, 7, None):
            mask = 0
            if k is not None:
                mask = (1 << w) - 1
                for _ in range(k):
                    mask &= rng.getrandbits(w)
            if w:
                mask |= 1 << (w - 1)     # the width is exactly w
            assert mask.bit_length() == w
            assert list(poset._bits(mask)) == _set_positions(mask), (w, k)


def test_bits_switches_to_the_scan_at_the_bound(monkeypatch):
    # the loop below the bound, the scan from it on: a bin that refuses
    # shows which path a mask takes
    t = poset._SCAN_FROM.bit_length()
    below = poset._SCAN_FROM - 1
    at = poset._SCAN_FROM | (1 << t // 2) | 1
    assert (below.bit_length(), at.bit_length()) == (t - 1, t)

    def refuse(mask):
        raise AssertionError("scanned")
    monkeypatch.setattr(poset, "bin", refuse, raising=False)
    assert list(poset._bits(below)) == list(range(t - 1))
    with pytest.raises(AssertionError, match="scanned"):
        list(poset._bits(at))
    monkeypatch.undo()
    assert list(poset._bits(at)) == [0, t // 2, t - 1]
