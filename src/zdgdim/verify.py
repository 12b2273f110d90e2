"""Verification suites: the corpus checks behind `zdgdim verify`.

Each suite takes a seed and a count and returns a VerifySuiteResult.  The
seven corpus suites run on `corpus_specs(seed, count)`: the figure-3
blow-up, 2^3, 2^4 and `count` seeded random blow-up specs.  Each builds
only what its checks read.  `diameter`, `gallai` and `formula-agreement`
read only G (and `gallai` G**), which `blowup_graphs` reads off the spec
with no lattice built, the route of the CLI's blow-up inputs.
`distance-lemma`, `quotient`, `gsr-equality` and `decomposition` test the
lattice, so they run on `corpus(seed, count)`, which builds each one, and
take G from `zero_divisor_graph` of it.  `adapters` and `examples` hold
the paper's worked examples, each value once.  The tests run the same
functions, so every check is written once.  The environment variable
SDIM_BRUTE_CAP overrides the brute-force vertex cap.
"""

from __future__ import annotations

import os
import random
from itertools import chain
from typing import Iterator

from . import adapters
from .blowup import (BlowupSpec, blowup_graphs, boolean_lattice,
                     build_blowup, canonical_blowup_of, product_of_chains,
                     random_blowup_spec)
from .errors import NotApplicable, ZdgError
from .graphs import (SimpleGraph, complete_graph_on, connected_components,
                     zero_divisor_graph)
from .metric import (DEFAULT_BRUTE_CAP, _distance_masks, beta_gsr_formula,
                     diameter, distance_balls, gstar,
                     gstar_star, independence_number, is_strong_resolving,
                     minimum_vertex_cover, sdim_bruteforce, sdim_formula,
                     sdim_via_gsr, strong_resolving_graph)
from .poset import FinitePoset, _bits, m_lattice

# the 14-element blow-up of the paper's figure 3: |Z*| = 12, sdim 8
FIG3 = BlowupSpec(3, {0b001: 3, 0b010: 1, 0b100: 2,
                      0b011: 2, 0b101: 3, 0b110: 1})


def brute_cap() -> int:
    """The brute-force vertex cap: SDIM_BRUTE_CAP if set, else the default."""
    raw = os.environ.get("SDIM_BRUTE_CAP")
    try:
        cap = int(raw) if raw else DEFAULT_BRUTE_CAP
    except ValueError:
        raise ValueError(
            f"SDIM_BRUTE_CAP wants an integer (got {raw!r})") from None
    if cap < 0:
        raise ValueError(
            f"SDIM_BRUTE_CAP wants a nonnegative integer (got {raw!r})")
    return cap


class VerifySuiteResult:
    """One suite's name, case names, failures and run time; equal to
    another result with the same four fields."""

    def __init__(self, name: str, case_names: list[str] | None = None,
                 failures: list[dict] | None = None, seconds: float = 0.0):
        self.name = name
        self.case_names = [] if case_names is None else case_names
        self.failures = [] if failures is None else failures
        self.seconds = seconds

    def _fields(self) -> tuple:
        return self.name, self.case_names, self.failures, self.seconds

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"VerifySuiteResult(name={self.name!r}, "
                f"case_names={self.case_names!r}, "
                f"failures={self.failures!r}, seconds={self.seconds!r})")

    @property
    def cases(self) -> int:
        return len(self.case_names)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, case: str, ok: bool, expected="ok", got="failed"):
        self.case_names.append(case)
        if not ok:
            self.failures.append(
                {"case": case, "expected": str(expected), "got": str(got)})

    def expect_equal(self, case: str, expected, got):
        self.check(case, expected == got, expected, got)


def corpus_specs(seed: int,
                 count: int) -> Iterator[tuple[str, BlowupSpec]]:
    """(name, spec) for figure 3, 2^3, 2^4 and `count` random specs drawn
    from random.Random(seed), each drawn as the caller reaches it."""
    rng = random.Random(seed)
    named = [("figure-3", FIG3), ("boolean-3", BlowupSpec(3, {})),
             ("boolean-4", BlowupSpec(4, {}))]
    randoms = ((f"random-{i}", random_blowup_spec(rng)) for i in range(count))
    return chain(named, randoms)


def corpus(seed: int,
           count: int) -> Iterator[tuple[str, BlowupSpec, FinitePoset]]:
    """(name, spec, lattice) for each (name, spec) of `corpus_specs`.
    Lattices are built one at a time as the caller reaches them, so a suite
    holds one lattice at once."""
    for name, spec in corpus_specs(seed, count):
        yield name, spec, build_blowup(spec)


def _suite_diameter(seed, count) -> VerifySuiteResult:
    out = VerifySuiteResult("diameter")
    # a blow-up of 2^n with n >= 3 meets the bound: two distinct coatom-mask
    # vertices are at distance 3
    graphs = chain(
        ((name, blowup_graphs(spec)[0](), "= 3")
         for name, spec in corpus_specs(seed, count)),
        ((f"M_{n}", zero_divisor_graph(m_lattice(n)), "<= 3")
         for n in (3, 4, 5, 6)),
        ((f"chains-{sizes}", zero_divisor_graph(product_of_chains(sizes)),
          "<= 3")
         for sizes in ((2, 2, 2), (3, 2, 2), (3, 3, 3), (2, 3, 2, 2))))
    for name, G, bound in graphs:
        try:
            d = diameter(G)
            ok = d == 3 if bound == "= 3" else d <= 3
            out.check(f"{name}: diameter {bound}", ok, bound, d)
        except ZdgError as exc:
            out.check(f"{name}: connected", False, "connected", exc)
    return out


def _suite_gallai(seed, count) -> VerifySuiteResult:
    """Gallai's identity behind sdim = β(G_SR): on G, G_SR and G** of each
    corpus blow-up, the complement of the lex-least maximum independent
    set is a vertex cover of |V| - α vertices.  The cover is checked on
    rows: every vertex outside it has its whole row inside it."""
    out = VerifySuiteResult("gallai")
    for name, spec in corpus_specs(seed, count):
        graph, gss = blowup_graphs(spec)
        G = graph()
        for tag, g in (("G", G), ("G_SR", strong_resolving_graph(G)),
                       ("G**", gss())):
            alpha = independence_number(g)
            # the cover number is |V| - alpha; minimum_vertex_cover reads
            # alpha off g as its target, so g's independence number is
            # solved once
            beta = g.n - alpha
            cover = minimum_vertex_cover(g)
            mask = sum(1 << g.index(lab) for lab in cover)
            covered = all(not row & ~mask for v, row in enumerate(g.adj)
                          if not mask >> v & 1)
            out.check(f"{name}/{tag}: cover is a cover", covered)
            out.expect_equal(f"{name}/{tag}: cover size", beta, len(cover))
    return out


def _distance_lemma_mismatches(LB: FinitePoset, G: SimpleGraph) -> int:
    """The vertex pairs i < j of G = G(LB) whose BFS distance is not the
    pseudocomplement lemma's, each counted once.  The lemma's masks
    (`_distance_masks`) are built on G's indices, and each vertex's are set
    against its BFS spheres ball[d] & ~ball[d-1]: near against distance 1,
    the other vertices but far against 2, and far against 3."""
    bit = [0] * len(LB)
    for v, lab in enumerate(G.labels):
        bit[LB.index(lab)] = 1 << v
    masks = _distance_masks(LB, bit)
    full = (1 << G.n) - 1
    bad = 0
    for v, (lab, ball) in enumerate(zip(G.labels, distance_balls(G))):
        lemma = masks[LB.index(lab)]
        if lemma is None:
            raise NotApplicable("lattice is not pseudocomplemented")
        near, far = lemma
        agree = 0
        for a, b, want in zip(ball, ball[1:],
                              (near, full & ~(near | far | 1 << v), far)):
            agree |= b & ~a & want
        bad += ((full & ~agree) >> v + 1).bit_count()
    return bad


def _suite_distance_lemma(seed, count) -> VerifySuiteResult:
    """The pseudocomplement distance trichotomy against BFS on G(L^B) of
    each corpus lattice, one element's masks at a time."""
    out = VerifySuiteResult("distance-lemma")
    for name, _, LB in corpus(seed, count):
        bad = _distance_lemma_mismatches(LB, zero_divisor_graph(LB))
        out.expect_equal(f"{name}: trichotomy matches BFS", 0, bad)
    return out


def _join_identity_failures(LB: FinitePoset) -> int:
    """The ordered pairs (x, y) of LB's elements with ann(x v y) other
    than ann(x) & ann(y), read off the index tables: the annihilator rows
    of `_ann_masks`, and the join as the element whose up-set is
    up(x) & up(y).  The join is symmetric and x v x = x, so each pair
    x < y counts twice and no pair x = x counts."""
    ann, up, join = LB._ann_masks(), LB.up, LB._up_index
    bad = 0
    for x, (ux, ax) in enumerate(zip(up, ann)):
        bad += sum(ann[join[ux & uy]] != ax & ay
                   for uy, ay in zip(up[x + 1:], ann[x + 1:]))
    return 2 * bad


def _suite_quotient(seed, count) -> VerifySuiteResult:
    """The annihilator quotient of each corpus lattice: 2^n classes with
    the spec's sizes, a Boolean image, the spec back from
    `canonical_blowup_of`, and ann(x v y) = ann(x) & ann(y) for every
    ordered pair."""
    out = VerifySuiteResult("quotient")
    for name, spec, LB in corpus(seed, count):
        part = LB.quotient_classes()
        out.expect_equal(f"{name}: 2^n classes", 1 << spec.n,
                         len(part.classes))
        out.check(f"{name}: Boolean image", part.boolean_image is not None)
        got_sizes = {part.boolean_image[cid]: len(members)
                     for cid, members in enumerate(part.classes)}
        # the bottom and top classes hold one element each
        want = {0: 1, (1 << spec.n) - 1: 1}
        want.update((m, spec.size_of(m)) for m in spec.masks())
        out.expect_equal(f"{name}: class sizes", want, got_sizes)
        rt, _ = canonical_blowup_of(LB)
        out.expect_equal(f"{name}: spec round trip", spec.normalized(), rt)
        out.expect_equal(f"{name}: ann(x v y) = ann(x) & ann(y)", 0,
                         _join_identity_failures(LB))
    return out


def _suite_gsr_equality(seed, count) -> VerifySuiteResult:
    """G* (and G** when no atom's chain has one element) against G_SR of
    each corpus lattice, and G_SR's size and independence number against
    their formulas.  The lattice keeps its G and G**, so `gstar` and
    `gstar_star` share the G built here and build G** once."""
    out = VerifySuiteResult("gsr-equality")
    for name, spec, LB in corpus(seed, count):
        G = zero_divisor_graph(LB)
        gsr = strong_resolving_graph(G)
        out.check(f"{name}: G* = G_SR", gstar(LB).labeled_equal(gsr))
        m = spec.singleton_atom_count()
        out.expect_equal(f"{name}: |V(G_SR)| = |Z*| - m",
                         spec.total_vertices() - m, gsr.n)
        out.expect_equal(f"{name}: beta(G_SR) = 2n-m-2",
                         beta_gsr_formula(spec), independence_number(gsr))
        if m == 0:
            out.check(f"{name}: G** = G_SR",
                      gstar_star(LB).labeled_equal(gsr))
    return out


def _is_clique(g: SimpleGraph, mask: int) -> bool:
    """Whether the vertices of mask are pairwise adjacent in g: every
    member's closed row, its row and itself, holds mask."""
    return all(not mask & ~(g.adj[v] | 1 << v) for v in _bits(mask))


def _suite_decomposition(seed, count) -> VerifySuiteResult:
    """G** of each corpus lattice: every atom class is a component and a
    clique, tested by bit tests on the class's rows, and the rest is one
    component; the isolated vertices are the singleton atom classes."""
    out = VerifySuiteResult("decomposition")
    for name, _, LB in corpus(seed, count):
        gss = gstar_star(LB)
        part = LB.quotient_classes()
        atom_classes = []
        for atom in LB.atoms():
            cid = part.class_of[LB.index(atom)]
            atom_classes.append(
                frozenset(LB.labels[i] for i in part.classes[cid]))
        comps = connected_components(gss)
        for cls in atom_classes:
            out.check(f"{name}: atom class {min(cls)} is a component",
                      cls in comps)
            mask = sum(1 << gss.index(lab) for lab in cls)
            out.check(f"{name}: atom class {min(cls)} is complete",
                      _is_clique(gss, mask))
        rest = [c for c in comps if c not in atom_classes]
        out.expect_equal(f"{name}: one H component", 1, len(rest))
        singles = {min(cls) for cls in atom_classes if len(cls) == 1}
        isolated = {lab for i, lab in enumerate(gss.labels) if not gss.adj[i]}
        out.expect_equal(f"{name}: isolated G** vertices", singles, isolated)
    return out


def _suite_formula_agreement(seed, count) -> VerifySuiteResult:
    out = VerifySuiteResult("formula-agreement")
    cap = brute_cap()
    for name, spec in corpus_specs(seed, count):
        G = blowup_graphs(spec)[0]()
        want = sdim_formula(spec)
        out.expect_equal(f"{name}: formula = gsr", want, sdim_via_gsr(G))
        if G.n <= min(14, cap):
            out.expect_equal(f"{name}: formula = brute", want,
                             sdim_bruteforce(G, cap=cap))
    return out


def _suite_adapters(seed, count) -> VerifySuiteResult:
    out = VerifySuiteResult("adapters")
    # (tag, application, |V|, its sdim); the component-union sdim is left
    # out: its published closed form is the claim under test
    table = [(f"reduced {orders}", adapters.reduced_ring(orders), nv, want)
             for orders, nv, want in (((3, 3, 3), 18, 14), ((3, 2, 2), 9, 5))]
    table += [(f"comaximal {pairs}", adapters.comaximal(pairs), nv, want)
              for pairs, nv, want in ((((2, 1), (3, 1), (5, 1)), 21, 17),
                                      (((2, 2), (3, 1), (5, 1)), 42, 38),
                                      (((2, 1), (2, 1), (2, 1)), 6, 2))]
    table += [(f"CG(Z_{N})", adapters.comaximal_ideal(N), nv, want)
              for N, nv, want in ((210, 14, 8), (15, 2, 1), (60, 9, 5))]
    table += [(f"UG({n},{q})", adapters.component_union(n, q), nv, None)
              for n, q, nv in ((3, 2, 7), (3, 3, 26))]
    for tag, app, nv, want in table:
        g = app.graph
        got = sdim_via_gsr(g)
        out.check(f"{tag}: equals {app.prediction}", app.matches_prediction())
        out.expect_equal(f"{tag}: |V|", nv, g.n)
        # the published component-union form disagrees with definition-level
        # computation on every instance checked; report, do not hide
        out.expect_equal(f"{tag}: published form = gsr", app.formula(), got)
        if want is not None:
            out.expect_equal(f"{tag}: gsr", want, got)
        if g.n <= 9:
            out.expect_equal(f"{tag}: gsr = brute", sdim_bruteforce(g), got)
    return out


def _suite_examples(seed, count) -> VerifySuiteResult:
    out = VerifySuiteResult("examples")
    for n in (3, 4, 5, 6):
        P = m_lattice(n)
        G = zero_divisor_graph(P)
        kn = complete_graph_on(G.labels)
        out.check(f"M_{n}: G is K_{n}", G.labeled_equal(kn))
        out.check(f"M_{n}: G_SR is K_{n}",
                  strong_resolving_graph(G).labeled_equal(kn))
        out.expect_equal(f"M_{n}: gsr sdim", n - 1, sdim_via_gsr(G))
        out.expect_equal(f"M_{n}: brute sdim", n - 1, sdim_bruteforce(G))

    L = boolean_lattice(3)
    G = zero_divisor_graph(L)
    gsr = strong_resolving_graph(G)
    out.expect_equal("2^3: boundary",
                     ["(0,1,1)", "(1,0,1)", "(1,1,0)"], list(gsr.labels))
    out.check("2^3: G_SR is K_3", gsr.labeled_equal(
        complete_graph_on(["(0,1,1)", "(1,0,1)", "(1,1,0)"])))
    out.expect_equal("2^3: formula", 2, sdim_formula(BlowupSpec(3, {})))
    out.expect_equal("2^3: gsr", 2, sdim_via_gsr(G))
    out.expect_equal("2^3: brute", 2, sdim_bruteforce(G))
    out.check("2^3: W strong-resolves",
              is_strong_resolving(G, ["(1,1,0)", "(0,1,1)"]))

    LB3 = build_blowup(FIG3)
    G3 = zero_divisor_graph(LB3)
    out.expect_equal("figure-3: |Z*|", 12, G3.n)
    W = ["(1,0,0)", "(2,0,0)", "(0,0,1)", "(1,0,1)", "(2,0,2)", "(3,0,3)",
         "(1,1,0)", "(2,2,0)"]
    out.check("figure-3: W strong-resolves", is_strong_resolving(G3, W))
    out.expect_equal("figure-3: formula", 8, sdim_formula(FIG3))
    out.expect_equal("figure-3: gsr", 8, sdim_via_gsr(G3))
    out.expect_equal("figure-3: brute", 8, sdim_bruteforce(G3))
    gss = gstar_star(LB3)
    comps = sorted(connected_components(gss), key=len)
    out.expect_equal("figure-3: G** component sizes", [1, 2, 3, 6],
                     [len(c) for c in comps])
    out.check("figure-3: G** small components are complete",
              all(gss.subgraph(c).is_complete() for c in comps[:-1]))

    # these repeat two `adapters` cases; the benchmark's oracle pins both
    # failures in this suite as well
    for n, q in ((3, 2), (3, 3)):
        app = adapters.component_union(n, q)
        out.expect_equal(f"UG({n},{q}): published form", app.formula(),
                         sdim_via_gsr(app.graph))
    return out


# `zdgdim verify` looks suites up here at call time, so a caller may replace
# an entry (the benchmark's tracer wraps each one in place)
SUITES = {
    "diameter": _suite_diameter,
    "gallai": _suite_gallai,
    "distance-lemma": _suite_distance_lemma,
    "quotient": _suite_quotient,
    "gsr-equality": _suite_gsr_equality,
    "decomposition": _suite_decomposition,
    "formula-agreement": _suite_formula_agreement,
    "adapters": _suite_adapters,
    "examples": _suite_examples,
}
