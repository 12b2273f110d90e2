"""Command-line harness: build, export, sdim tables and verification suites.

Subcommands: build, zdg, gsr, gstarstar, sdim, adapter, verify.  Inputs are
mutually exclusive flags naming a lattice (--boolean, --blowup, --poset,
--chains) or an algebraic adapter (--fields, --local, --zn, --vspace).
The environment variable SDIM_BRUTE_CAP overrides the brute-force vertex cap.
Identical inputs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

from . import adapters
from .blowup import (BlowupSpec, boolean_lattice, build_blowup,
                     canonical_blowup_of, product_of_chains,
                     random_blowup_spec)
from .errors import HypothesisUnmet, UnknownSuite, ZdgError
from .graphs import (SimpleGraph, complete_graph_on, connected_components,
                     zero_divisor_graph)
from .metric import (DEFAULT_BRUTE_CAP, all_pairs_distances, beta_gsr_formula,
                     boundary, diameter, distance_by_pseudocomplement, gstar,
                     gstar_star, independence_number, is_strong_resolving,
                     minimum_vertex_cover, sdim_bruteforce, sdim_formula,
                     sdim_via_gsr, strong_resolving_graph,
                     vertex_cover_number)
from .poset import FinitePoset, m_lattice, poset_from_json, poset_to_json

SUITE_NAMES = ("diameter", "gallai", "distance-lemma", "quotient",
               "gsr-equality", "decomposition", "formula-agreement",
               "adapters", "examples")


def _brute_cap() -> int:
    raw = os.environ.get("SDIM_BRUTE_CAP")
    return int(raw) if raw else DEFAULT_BRUTE_CAP


# -- input resolution ---------------------------------------------------------

@dataclass
class ResolvedInput:
    name: str
    graph: SimpleGraph
    poset: FinitePoset | None = None
    spec: BlowupSpec | None = None
    formula_value: int | None = None
    formula_note: str = ""


def _load_json_arg(text: str):
    """Accept inline JSON or a path to a JSON file."""
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh)
    return json.loads(text)


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _parse_local(text: str) -> adapters.LocalProductSpec:
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if "^" in part:
            p, e = part.split("^")
            pairs.append((int(p), int(e)))
        else:
            pairs.append((int(part), 1))
    return adapters.LocalProductSpec(pairs)


def _parse_vspace(text: str) -> tuple[int, int]:
    fields = dict(kv.split("=") for kv in text.split(","))
    if set(fields) != {"n", "q"}:
        raise ValueError(f"--vspace wants n=..,q=.. (got {text!r})")
    return int(fields["n"]), int(fields["q"])


def add_input_flags(parser: argparse.ArgumentParser):
    g = parser.add_mutually_exclusive_group(required=True)
    g.add_argument("--boolean", type=int, metavar="N",
                   help="the Boolean lattice 2^N")
    g.add_argument("--blowup", metavar="JSON",
                   help='blow-up spec, e.g. \'{"n":3,"chains":{"001":3}}\'')
    g.add_argument("--poset", metavar="JSON",
                   help="bounded poset as cover-relation JSON (inline or path)")
    g.add_argument("--chains", metavar="C1,C2,..",
                   help="product of chains with these sizes")
    g.add_argument("--mn", type=int, metavar="N",
                   help="the lattice M_N (N incomparable atoms)")
    g.add_argument("--fields", metavar="Q1,Q2,..",
                   help="zero-divisor graph of a product of finite fields")
    g.add_argument("--local", metavar="P^E,..",
                   help="comaximal graph of a product of rings Z_{p^e}")
    g.add_argument("--zn", type=int, metavar="N",
                   help="comaximal ideal graph of Z_N")
    g.add_argument("--vspace", metavar="n=3,q=2",
                   help="component union graph of GF(q)^n")


def resolve_input(args) -> ResolvedInput:
    if args.boolean is not None:
        spec = BlowupSpec(args.boolean, {})
        P = boolean_lattice(args.boolean)
        return _lattice_input(f"boolean 2^{args.boolean}", P, spec)
    if args.blowup is not None:
        spec = BlowupSpec.from_json_dict(_load_json_arg(args.blowup))
        return _lattice_input(f"blow-up of 2^{spec.n}", build_blowup(spec), spec)
    if args.poset is not None:
        P = poset_from_json(_load_json_arg(args.poset))
        return _lattice_input("poset", P, _try_canonical_spec(P))
    if args.chains is not None:
        sizes = _parse_int_list(args.chains)
        P = product_of_chains(sizes)
        return _lattice_input(f"product of chains {sizes}", P,
                              _try_canonical_spec(P))
    if args.mn is not None:
        P = m_lattice(args.mn)
        return ResolvedInput(name=f"M_{args.mn}", graph=zero_divisor_graph(P),
                             poset=P, formula_note="no closed form for M_n")
    if args.fields is not None:
        spec = adapters.ReducedRingSpec(_parse_int_list(args.fields))
        g = adapters.reduced_ring_zdg(spec)
        value, note = _guard_formula(
            lambda: adapters.reduced_ring_sdim_formula(spec),
            need=len(spec.field_orders) >= 3)
        return ResolvedInput(name=f"reduced ring fields {args.fields}",
                             graph=g, formula_value=value, formula_note=note)
    if args.local is not None:
        spec = _parse_local(args.local)
        g = adapters.comaximal_gamma2prime(spec)
        value, note = _guard_formula(
            lambda: adapters.comaximal_sdim_formula(spec),
            need=len(spec.prime_powers) >= 3)
        return ResolvedInput(name=f"comaximal graph of {args.local}",
                             graph=g, formula_value=value, formula_note=note)
    if args.zn is not None:
        g = adapters.comaximal_ideal_graph_zn(args.zn)
        try:
            value, note = adapters.comaximal_ideal_sdim_formula(args.zn), ""
        except ValueError as exc:
            value, note = None, str(exc)
        return ResolvedInput(name=f"comaximal ideal graph of Z_{args.zn}",
                             graph=g, formula_value=value, formula_note=note)
    n, q = _parse_vspace(args.vspace)
    g = adapters.component_union_graph(n, q)
    return ResolvedInput(
        name=f"component union graph n={n} q={q}", graph=g,
        formula_value=adapters.component_union_sdim_formula(n, q),
        formula_note="published closed form; see verify --suite adapters")


def _guard_formula(fn, need: bool):
    if not need:
        return None, "n<3: formula inapplicable"
    return fn(), ""


def _try_canonical_spec(P: FinitePoset) -> BlowupSpec | None:
    try:
        spec, _ = canonical_blowup_of(P)
        return spec
    except ZdgError:
        return None


def _lattice_input(name: str, P: FinitePoset,
                   spec: BlowupSpec | None) -> ResolvedInput:
    value, note = None, ""
    if spec is None:
        note = "not a bounded 0-distributive lattice: formula inapplicable"
    else:
        try:
            value = sdim_formula(spec)
        except HypothesisUnmet:
            note = "n<3: formula inapplicable"
    return ResolvedInput(name=name, graph=zero_divisor_graph(P), poset=P,
                         spec=spec, formula_value=value, formula_note=note)


# -- output helpers -----------------------------------------------------------

def _emit(obj, path: str | None):
    if not path:
        return
    if path.endswith((".dot", ".gv")):
        if isinstance(obj, FinitePoset):
            lines = ["graph hasse {"]
            for lab in obj.labels:
                lines.append(f'  "{lab}";')
            for a, b in sorted(obj.covers()):
                lines.append(f'  "{a}" -- "{b}";')
            lines.append("}")
            text = "\n".join(lines) + "\n"
        else:
            text = obj.to_dot()
        with open(path, "w") as fh:
            fh.write(text)
    else:
        data = poset_to_json(obj) if isinstance(obj, FinitePoset) \
            else obj.to_json_dict()
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _class_size_note(P: FinitePoset) -> str:
    try:
        part = P.quotient_classes()
    except ZdgError:
        return ""
    if part.boolean_image is None:
        return ""
    k = max(part.boolean_image).bit_length()
    full = (1 << k) - 1
    pairs = [(part.boolean_image[c], len(members))
             for c, members in enumerate(part.classes)
             if 0 < part.boolean_image[c] < full]
    pairs.sort(key=lambda mc: (mc[0].bit_count(), mc[0]))
    return ", classes sizes " + ",".join(str(c) for _, c in pairs)


# -- subcommands --------------------------------------------------------------

def cmd_build(args) -> int:
    res = resolve_input(args)
    if res.poset is not None:
        P = res.poset
        parts = [f"{len(P)} elements", f"{len(P.atoms())} atoms"]
        parts.append(f"|Z*|={len(P.zero_divisors())}")
        print(f"{res.name}: " + ", ".join(parts) + _class_size_note(P))
        _emit(P, args.out)
    else:
        g = res.graph
        print(f"{res.name}: {g.n} vertices, {g.edge_count()} edges")
        _emit(g, args.out)
    return 0


def _graph_command(args, transform, what: str) -> int:
    res = resolve_input(args)
    g = transform(res)
    print(f"{what} of {res.name}: {g.n} vertices, {g.edge_count()} edges")
    _emit(g, args.out)
    return 0


def cmd_zdg(args) -> int:
    return _graph_command(args, lambda r: r.graph, "zero-divisor graph")


def cmd_gsr(args) -> int:
    return _graph_command(
        args, lambda r: strong_resolving_graph(r.graph), "strong resolving graph")


def cmd_gstarstar(args) -> int:
    def transform(r: ResolvedInput) -> SimpleGraph:
        if r.poset is None:
            raise ZdgError("G** needs a lattice input")
        return gstar_star(r.poset)
    return _graph_command(args, transform, "G**")


def cmd_sdim(args) -> int:
    res = resolve_input(args)
    methods = ["formula", "gsr", "brute"] if args.method == "all" \
        else [args.method]
    cap = _brute_cap()
    rows = []
    values = []
    for method in methods:
        if method == "formula":
            if res.formula_value is None:
                rows.append(("formula", res.formula_note or "unavailable", "-"))
            else:
                rows.append(("formula", str(res.formula_value), "-"))
                values.append(res.formula_value)
        elif method == "gsr":
            value = sdim_via_gsr(res.graph)
            rows.append(("gsr", str(value), f"cover size {value}"))
            values.append(value)
        else:
            if res.graph.n > cap:
                if args.method == "brute":
                    print(f"error: |V|={res.graph.n} exceeds brute cap {cap} "
                          "(set SDIM_BRUTE_CAP to raise)", file=sys.stderr)
                    return 1
                rows.append(("brute", f"skipped (|V|={res.graph.n} > cap {cap})",
                             "-"))
            else:
                value = sdim_bruteforce(res.graph, cap=cap)
                rows.append(("brute", str(value), f"set size {value}"))
                values.append(value)
    if args.json:
        payload = {"input": res.name,
                   "rows": [{"method": m, "value": v, "witness": w}
                            for m, v, w in rows]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"sdim of {res.name} (|V|={res.graph.n})")
        width = max(5, max(len(r[1]) for r in rows))
        print(f"{'method':<8} | {'value':<{width}} | witness")
        for m, v, w in rows:
            print(f"{m:<8} | {v:<{width}} | {w}")
    if args.check and len(set(values)) > 1:
        print("method disagreement detected", file=sys.stderr)
        return 2
    return 0


def cmd_adapter(args) -> int:
    res = resolve_input(args)
    g = res.graph
    print(f"{res.name}: {g.n} vertices, {g.edge_count()} edges")
    gsr_value = sdim_via_gsr(g)
    print(f"sdim via gsr: {gsr_value}")
    if res.formula_value is not None:
        tag = "agrees" if res.formula_value == gsr_value else "DISAGREES"
        print(f"closed form: {res.formula_value} ({tag})")
    ok = _adapter_cross_check(args, g)
    _emit(g, args.out)
    if args.check and (not ok or (res.formula_value is not None
                                  and res.formula_value != gsr_value)):
        return 2
    return 0


def _adapter_cross_check(args, g: SimpleGraph) -> bool:
    """Labeled equality against the predicted blow-up construction."""
    if args.fields is not None:
        sizes = _parse_int_list(args.fields)
        expected = zero_divisor_graph(product_of_chains(sizes))
        ok = g.labeled_equal(expected)
        print(f"matches product-of-chains zero-divisor graph: {ok}")
        return ok
    if args.local is not None:
        spec = _parse_local(args.local)
        bspec, mapping = adapters.comaximal_blowup_prediction(spec)
        expected = zero_divisor_graph(build_blowup(bspec))
        ok = g.relabeled(mapping).labeled_equal(expected)
        print(f"matches blow-up zero-divisor graph: {ok}")
        return ok
    if args.zn is not None:
        expected = zero_divisor_graph(adapters.ideal_lattice_dual_zn(args.zn))
        ok = g.labeled_equal(expected)
        print(f"matches dual ideal-lattice zero-divisor graph: {ok}")
        return ok
    if args.vspace is not None:
        n, q = _parse_vspace(args.vspace)
        ok = g.labeled_equal(adapters.component_union_predicted_graph(n, q))
        print(f"matches join of blow-up graph with K_t: {ok}")
        return ok
    return True


# -- verification suites -------------------------------------------------------

@dataclass
class VerifySuiteResult:
    name: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, case: str, ok: bool, expected="ok", got="failed"):
        self.cases += 1
        if not ok:
            self.failures.append(
                {"case": case, "expected": str(expected), "got": str(got)})

    def expect_equal(self, case: str, expected, got):
        self.check(case, expected == got, expected, got)


def _corpus_specs(rng: random.Random, count: int) -> list[tuple[str, BlowupSpec]]:
    named = [
        ("figure-3", BlowupSpec(3, {0b001: 3, 0b010: 1, 0b100: 2,
                                    0b011: 2, 0b101: 3, 0b110: 1})),
        ("boolean-3", BlowupSpec(3, {})),
        ("boolean-4", BlowupSpec(4, {})),
    ]
    return named + [(f"random-{i}", random_blowup_spec(rng))
                    for i in range(count)]


def _suite_diameter(rng, count) -> VerifySuiteResult:
    out = VerifySuiteResult("diameter")
    posets = [(name, build_blowup(spec))
              for name, spec in _corpus_specs(rng, count)]
    posets += [(f"M_{n}", m_lattice(n)) for n in (3, 4, 5, 6)]
    posets += [(f"chains-{sizes}", product_of_chains(sizes))
               for sizes in ((2, 2, 2), (3, 2, 2), (3, 3, 3), (2, 3, 2, 2))]
    for name, P in posets:
        G = zero_divisor_graph(P)
        try:
            d = diameter(G)
            out.check(f"{name}: diameter <= 3", d <= 3, "<= 3", d)
        except ZdgError as exc:
            out.check(f"{name}: connected", False, "connected", exc)
    return out


def _suite_gallai(rng, count) -> VerifySuiteResult:
    out = VerifySuiteResult("gallai")
    for name, spec in _corpus_specs(rng, count):
        LB = build_blowup(spec)
        G = zero_divisor_graph(LB)
        for tag, g in (("G", G), ("G_SR", strong_resolving_graph(G)),
                       ("G**", gstar_star(LB))):
            beta = independence_number(g)
            alpha = vertex_cover_number(g)
            out.expect_equal(f"{name}/{tag}: alpha+beta=|V|", g.n, alpha + beta)
            cover = set(minimum_vertex_cover(g))
            covered = all(a in cover or b in cover for a, b in g.edge_list())
            out.check(f"{name}/{tag}: cover is a cover", covered)
            out.expect_equal(f"{name}/{tag}: cover size", alpha, len(cover))
    return out


def _suite_distance_lemma(rng, count) -> VerifySuiteResult:
    out = VerifySuiteResult("distance-lemma")
    for name, spec in _corpus_specs(rng, count):
        LB = build_blowup(spec)
        G = zero_divisor_graph(LB)
        dist = all_pairs_distances(G)
        bad = 0
        for i in range(G.n):
            for j in range(i + 1, G.n):
                got = distance_by_pseudocomplement(
                    LB, G.labels[i], G.labels[j])
                if got != dist[i][j]:
                    bad += 1
        out.expect_equal(f"{name}: trichotomy matches BFS", 0, bad)
    return out


def _suite_quotient(rng, count) -> VerifySuiteResult:
    out = VerifySuiteResult("quotient")
    for name, spec in _corpus_specs(rng, count):
        LB = build_blowup(spec)
        part = LB.quotient_classes()
        out.expect_equal(f"{name}: 2^n classes", 1 << spec.n,
                         len(part.classes))
        out.check(f"{name}: Boolean image", part.boolean_image is not None)
        got_sizes = {}
        full = (1 << spec.n) - 1
        for cid, members in enumerate(part.classes):
            mask = part.boolean_image[cid]
            if 0 < mask < full:
                got_sizes[mask] = len(members)
        want = {m: spec.size_of(m) for m in spec.masks()}
        out.expect_equal(f"{name}: class sizes", want, got_sizes)
        rt, _ = canonical_blowup_of(LB)
        out.expect_equal(f"{name}: spec round trip", spec.normalized(), rt)
        bad = 0
        ann = {lab: set(LB.annihilator(lab)) for lab in LB.labels}
        for x in LB.labels:
            for y in LB.labels:
                j = LB.join(x, y)
                if ann[j] != ann[x] & ann[y]:
                    bad += 1
        out.expect_equal(f"{name}: ann(x v y) = ann(x) & ann(y)", 0, bad)
    return out


def _suite_gsr_equality(rng, count) -> VerifySuiteResult:
    out = VerifySuiteResult("gsr-equality")
    for name, spec in _corpus_specs(rng, count):
        LB = build_blowup(spec)
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


def _suite_decomposition(rng, count) -> VerifySuiteResult:
    out = VerifySuiteResult("decomposition")
    for name, spec in _corpus_specs(rng, count):
        LB = build_blowup(spec)
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
            sub = gss.subgraph(cls)
            out.check(f"{name}: atom class {min(cls)} is complete",
                      sub.is_complete())
        rest = [c for c in comps if c not in atom_classes]
        out.expect_equal(f"{name}: one H component", 1, len(rest))
        singles = {min(cls) for cls in atom_classes if len(cls) == 1}
        isolated = {lab for i, lab in enumerate(gss.labels) if not gss.adj[i]}
        out.expect_equal(f"{name}: isolated G** vertices", singles, isolated)
    return out


def _suite_formula_agreement(rng, count) -> VerifySuiteResult:
    out = VerifySuiteResult("formula-agreement")
    cap = _brute_cap()
    for name, spec in _corpus_specs(rng, count):
        LB = build_blowup(spec)
        G = zero_divisor_graph(LB)
        want = sdim_formula(spec)
        out.expect_equal(f"{name}: formula = gsr", want, sdim_via_gsr(G))
        if G.n <= min(14, cap):
            out.expect_equal(f"{name}: formula = brute", want,
                             sdim_bruteforce(G, cap=cap))
    return out


def _suite_adapters(rng, count) -> VerifySuiteResult:
    out = VerifySuiteResult("adapters")
    for orders, want in (((3, 3, 3), 14), ((3, 2, 2), 5)):
        spec = adapters.ReducedRingSpec(orders)
        g = adapters.reduced_ring_zdg(spec)
        out.check(f"reduced {orders}: equals chain-product graph",
                  g.labeled_equal(zero_divisor_graph(
                      product_of_chains(list(orders)))))
        out.expect_equal(f"reduced {orders}: corollary value", want,
                         adapters.reduced_ring_sdim_formula(spec))
        out.expect_equal(f"reduced {orders}: gsr", want, sdim_via_gsr(g))
        if g.n <= 9:
            out.expect_equal(f"reduced {orders}: brute", want,
                             sdim_bruteforce(g))
    g22 = adapters.reduced_ring_zdg(adapters.ReducedRingSpec((2, 2)))
    out.check("reduced (2,2): K_2",
              g22.n == 2 and g22.edge_count() == 1)

    for pairs, want in ((((2, 1), (3, 1), (5, 1)), 17),
                        (((2, 2), (3, 1), (5, 1)), 38),
                        (((2, 1), (2, 1), (2, 1)), 2)):
        spec = adapters.LocalProductSpec(pairs)
        g = adapters.comaximal_gamma2prime(spec)
        bspec, mapping = adapters.comaximal_blowup_prediction(spec)
        out.check(f"comaximal {pairs}: equals blow-up graph",
                  g.relabeled(mapping).labeled_equal(
                      zero_divisor_graph(build_blowup(bspec))))
        out.expect_equal(f"comaximal {pairs}: theorem value", want,
                         adapters.comaximal_sdim_formula(spec))
        out.expect_equal(f"comaximal {pairs}: gsr", want, sdim_via_gsr(g))

    for N, want in ((210, 8), (15, 1), (60, 5)):
        g = adapters.comaximal_ideal_graph_zn(N)
        out.check(f"CG(Z_{N}): equals dual ideal-lattice graph",
                  g.labeled_equal(zero_divisor_graph(
                      adapters.ideal_lattice_dual_zn(N))))
        out.expect_equal(f"CG(Z_{N}): corollary value", want,
                         adapters.comaximal_ideal_sdim_formula(N))
        out.expect_equal(f"CG(Z_{N}): gsr", want, sdim_via_gsr(g))
        if g.n <= 9:
            out.expect_equal(f"CG(Z_{N}): brute", want, sdim_bruteforce(g))

    for n, q in ((3, 2), (3, 3)):
        g = adapters.component_union_graph(n, q)
        out.check(f"UG({n},{q}): equals join(blow-up, K_t)",
                  g.labeled_equal(
                      adapters.component_union_predicted_graph(n, q)))
        got = sdim_via_gsr(g)
        # the published closed form disagrees with definition-level
        # computation on every instance checked; report, do not hide
        out.expect_equal(f"UG({n},{q}): published form = gsr",
                         adapters.component_union_sdim_formula(n, q), got)
        if g.n <= 9:
            out.expect_equal(f"UG({n},{q}): gsr = brute", sdim_bruteforce(g),
                             got)
    return out


def _suite_examples(rng, count) -> VerifySuiteResult:
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
    out.expect_equal("2^3: boundary",
                     ["(0,1,1)", "(1,0,1)", "(1,1,0)"], sorted(boundary(G)))
    out.check("2^3: G_SR is K_3", strong_resolving_graph(G).labeled_equal(
        complete_graph_on(["(0,1,1)", "(1,0,1)", "(1,1,0)"])))
    out.expect_equal("2^3: formula", 2, sdim_formula(BlowupSpec(3, {})))
    out.expect_equal("2^3: gsr", 2, sdim_via_gsr(G))
    out.expect_equal("2^3: brute", 2, sdim_bruteforce(G))
    out.check("2^3: W strong-resolves",
              is_strong_resolving(G, ["(1,1,0)", "(0,1,1)"]))

    fig3 = BlowupSpec(3, {0b001: 3, 0b010: 1, 0b100: 2,
                          0b011: 2, 0b101: 3, 0b110: 1})
    LB = build_blowup(fig3)
    G3 = zero_divisor_graph(LB)
    out.expect_equal("figure-3: |Z*|", 12, G3.n)
    W = ["(1,0,0)", "(2,0,0)", "(0,0,1)", "(1,0,1)", "(2,0,2)", "(3,0,3)",
         "(1,1,0)", "(2,2,0)"]
    out.check("figure-3: W strong-resolves", is_strong_resolving(G3, W))
    out.expect_equal("figure-3: formula", 8, sdim_formula(fig3))
    out.expect_equal("figure-3: gsr", 8, sdim_via_gsr(G3))
    out.expect_equal("figure-3: brute", 8, sdim_bruteforce(G3))

    out.expect_equal("reduced (3,3,3): gsr", 14, sdim_via_gsr(
        adapters.reduced_ring_zdg(adapters.ReducedRingSpec((3, 3, 3)))))
    out.expect_equal("comaximal Z30: gsr", 17, sdim_via_gsr(
        adapters.comaximal_gamma2prime(
            adapters.LocalProductSpec(((2, 1), (3, 1), (5, 1))))))
    out.expect_equal("CG(Z210): gsr", 8, sdim_via_gsr(
        adapters.comaximal_ideal_graph_zn(210)))
    for n, q in ((3, 2), (3, 3)):
        out.expect_equal(
            f"UG({n},{q}): published form",
            adapters.component_union_sdim_formula(n, q),
            sdim_via_gsr(adapters.component_union_graph(n, q)))
    return out


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


def cmd_verify(args) -> int:
    if args.suite and args.suite not in SUITES:
        raise UnknownSuite(f"unknown suite {args.suite!r}; "
                           f"choose from {', '.join(SUITE_NAMES)}")
    names = [args.suite] if args.suite else list(SUITE_NAMES)
    results = []
    for name in names:
        rng = random.Random(args.seed)
        start = time.perf_counter()
        res = SUITES[name](rng, args.count)
        res.seconds = time.perf_counter() - start
        results.append(res)
    # timing goes to stderr so stdout stays byte-identical across runs
    for r in results:
        print(f"suite {r.name}: {r.seconds:.2f}s", file=sys.stderr)
    if args.json:
        print(json.dumps(
            [{"suite": r.name, "cases": r.cases, "failures": r.failures}
             for r in results],
            indent=2, sort_keys=True))
    else:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"suite {r.name}: {status} "
                  f"({r.cases} cases, {len(r.failures)} failures)")
            for f in r.failures:
                print(f"  FAIL {f['case']}: expected {f['expected']}, "
                      f"got {f['got']}")
    return 0 if all(r.passed for r in results) else 1


# -- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdgdim",
        description="Zero-divisor graphs of lattice blow-ups and their "
                    "strong metric dimension.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in (
            ("build", cmd_build, "construct an input and print a summary"),
            ("zdg", cmd_zdg, "zero-divisor graph of the input"),
            ("gsr", cmd_gsr, "strong resolving graph of the input's graph"),
            ("gstarstar", cmd_gstarstar, "class-based graph G** of a lattice"),
            ("adapter", cmd_adapter, "build an adapter graph and cross-check "
                                     "it against its blow-up prediction")):
        p = sub.add_parser(name, help=doc)
        add_input_flags(p)
        p.add_argument("--out", help="write DOT (.dot/.gv) or JSON (.json)")
        if name == "adapter":
            p.add_argument("--check", action="store_true",
                           help="exit nonzero when a cross-check fails")
        p.set_defaults(fn=fn)

    p = sub.add_parser("sdim", help="strong metric dimension, three ways")
    add_input_flags(p)
    p.add_argument("--method", choices=("formula", "gsr", "brute", "all"),
                   default="all")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when computed methods disagree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sdim)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", help=f"one of: {', '.join(SUITE_NAMES)} "
                                   "(default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25,
                   help="random blow-up specs per suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ZdgError, ValueError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
