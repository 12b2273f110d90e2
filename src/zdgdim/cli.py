"""Command-line harness: build, export, sdim tables and verification.

Subcommands: build, zdg, gsr, gstarstar, sdim, adapter, verify.  Inputs are
mutually exclusive flags naming a lattice (--boolean, --blowup, --poset,
--chains, --mn) or an algebraic adapter (--fields, --local, --zn, --vspace).
An adapter flag is parsed here and handed to one `adapters` constructor,
which owns its graph, closed form, prediction check and budget.  A
blow-up flag (--boolean, --blowup) gets its graphs from the spec's
(label, mask) pairs; only `build` builds its lattice.  A lattice input's
zero-divisor graph is built only when a command reads it: `build` reads
the lattice, and `sdim --method formula` only |V|, which the spec or the
lattice gives.  `sdim`'s gsr method, on a blow-up or a lattice input,
builds no whole graph either: the vertices that share a pattern are
twins, so it builds two of each pattern class and solves on them
(`metric.sdim_via_gsr_patterns`).  `zdg`, `gsr`, `gstarstar`, `--out`,
the brute force and every application input build the whole graph.  An
input with more elements than `adapters.DEFAULT_ELEMENT_BUDGET` is
refused before it is built.  The
verification suites live in `zdgdim.verify`.  The environment variable
SDIM_BRUTE_CAP overrides the brute-force vertex cap.  Identical inputs and
seeds produce byte-identical output; graph exports are written one
vertex's edges at a time.

`main` builds its argparse parser on its first call and keeps it for the
life of the process, so that callers running many commands in one process
(the tests, the benchmark, a library user) pay for it once; importing the
module builds none, and loads no `json`: the commands that read or write
JSON import it when they run.  `main` calls the subcommand's `cmd_<name>`
function, looked up by name at call time, so a `cmd_*` replaced after the
first call is the one that runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from functools import cache, cached_property, partial
from typing import Callable

from . import adapters
from .adapters import check_element_budget, check_power_budget
from .blowup import (BlowupSpec, blowup_graphs, build_blowup,
                     canonical_blowup_of, product_of_chains,
                     zero_divisor_pairs)
from .errors import HypothesisUnmet, NotApplicable, UnknownSuite, ZdgError
from .graphs import (SimpleGraph, write_dot, write_json, zero_divisor_graph,
                     zero_divisor_patterns)
from .metric import (gstar_star, sdim_bruteforce, sdim_formula, sdim_via_gsr,
                     sdim_via_gsr_patterns, strong_resolving_graph)
from .poset import FinitePoset, m_lattice, poset_from_json, poset_to_json
from .verify import SUITES, brute_cap

# -- input resolution ---------------------------------------------------------

class ResolvedInput:
    """An input as the commands read it; equal to another with the same
    eight fields."""

    _NAMES = ("name", "vertex_count", "make_graph", "formula", "poset",
              "gstar_star", "patterns", "application")

    def __init__(self, name: str, vertex_count: int,
                 make_graph: Callable[[], SimpleGraph],
                 formula: Callable[[], int],
                 poset: Callable[[], FinitePoset] | None = None,
                 gstar_star: Callable[[], SimpleGraph] | None = None,
                 patterns: Callable[[], list[tuple[str, int]]] | None = None,
                 application: adapters.Application | None = None):
        self.name = name
        # |V| of the graph, known without building it
        self.vertex_count = vertex_count
        # builds the graph on the first read of `graph`; `build` and
        # `sdim --method formula` make none
        self.make_graph = make_graph
        # the closed form, which may raise HypothesisUnmet; a thunk, so
        # that only the commands that print it pay for it
        self.formula = formula
        # the lattice and its G**, thunks too, None for an application: a
        # blow-up spec gives both graphs without its lattice, which only
        # `build` reads
        self.poset = poset
        self.gstar_star = gstar_star
        # the (label, pattern) pairs that the graph is built from, a thunk,
        # None for an application: `sdim`'s gsr method solves on two
        # vertices of each pattern class (`metric.sdim_via_gsr_patterns`)
        self.patterns = patterns
        self.application = application

    def _fields(self) -> tuple:
        return tuple(getattr(self, k) for k in self._NAMES)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "ResolvedInput(" + ", ".join(
            f"{k}={v!r}" for k, v in zip(self._NAMES, self._fields())) + ")"

    @cached_property
    def graph(self) -> SimpleGraph:
        return self.make_graph()


# Python converts no decimal string of more than 4300 digits to an int
# (sys.set_int_max_str_digits); a number that long is past every budget
MAX_DIGITS = 4300


def _parse_int(text: str, flag: str) -> int:
    """int(text), refusing a number too long to convert in the name of the
    flag that carried it.  A text no longer than the limit holds no more
    digits than that, so only a longer one has its digits counted."""
    if len(text) > MAX_DIGITS:
        digits = sum(ch.isdigit() for ch in text)
        if digits > MAX_DIGITS:
            raise ValueError(f"{flag} has a number of {digits} digits, over "
                             f"the limit of {MAX_DIGITS}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag} wants integers (got {text!r})") from None


def _load_json_arg(text: str, flag: str):
    """Accept inline JSON or a path to a JSON file."""
    import json
    parse_int = partial(_parse_int, flag=flag)
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh, parse_int=parse_int)
    return json.loads(text, parse_int=parse_int)


def _parse_int_list(text: str, flag: str) -> list[int]:
    values = [_parse_int(x, flag) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError(f"{flag} wants a list of integers (got {text!r})")
    return values


def _parse_local(text: str) -> list[tuple[int, int]]:
    pairs = []
    for part in text.split(","):
        fields = part.split("^")
        if len(fields) > 2 or not all(f.strip() for f in fields):
            raise ValueError(f"--local wants P^E,.. (got {text!r})")
        p, e = fields if len(fields) == 2 else (fields[0], "1")
        pairs.append((_parse_int(p, "--local"), _parse_int(e, "--local")))
    return pairs


def _parse_vspace(text: str) -> tuple[int, int]:
    pairs = [kv.split("=") for kv in text.split(",")]
    fields = dict(kv for kv in pairs if len(kv) == 2)
    if len(fields) != len(pairs) or set(fields) != {"n", "q"}:
        raise ValueError(f"--vspace wants n=..,q=.. (got {text!r})")
    return (_parse_int(fields["n"], "--vspace"),
            _parse_int(fields["q"], "--vspace"))


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
        name = f"boolean 2^{args.boolean}"
        check_power_budget(name, [(2, args.boolean)])
        return _spec_input(name, BlowupSpec(args.boolean, {}))
    if args.blowup is not None:
        spec = BlowupSpec.from_json_dict(
            _load_json_arg(args.blowup, "--blowup"))
        name = f"blow-up of 2^{spec.n}"
        if spec.n >= 64:
            # 2^n alone is over the budget; building it takes seconds for n
            # near 10^9
            check_power_budget(name, [(2, spec.n)])
        check_element_budget(name, spec.total_vertices() + 2)
        return _spec_input(name, spec)
    if args.poset is not None:
        data = _load_json_arg(args.poset, "--poset")
        if isinstance(data, dict) and isinstance(data.get("labels"), list):
            check_element_budget("poset", len(data["labels"]))
        P = poset_from_json(data)
        return _lattice_input("poset", P)
    if args.chains is not None:
        sizes = _parse_int_list(args.chains, "--chains")
        name = f"product of chains {sizes}"
        check_element_budget(name, math.prod(sizes))
        P = product_of_chains(sizes)
        return _lattice_input(name, P)
    if args.mn is not None:
        check_element_budget(f"M_{args.mn}", args.mn + 2)

        def no_closed_form() -> int:
            raise HypothesisUnmet("no closed form for M_n")
        return _lattice_input(f"M_{args.mn}", m_lattice(args.mn),
                              no_closed_form)
    if args.fields is not None:
        name = f"reduced ring fields {args.fields}"
        app = adapters.reduced_ring(_parse_int_list(args.fields, "--fields"))
    elif args.local is not None:
        name = f"comaximal graph of {args.local}"
        app = adapters.comaximal(_parse_local(args.local))
    elif args.zn is not None:
        name = f"comaximal ideal graph of Z_{args.zn}"
        app = adapters.comaximal_ideal(args.zn)
    else:
        n, q = _parse_vspace(args.vspace)
        name = f"component union graph n={n} q={q}"
        app = adapters.component_union(n, q)
    return ResolvedInput(name=name, vertex_count=app.graph.n,
                         make_graph=lambda: app.graph, formula=app.formula,
                         application=app)


def _closed_form(formula: Callable[[], int]) -> tuple[int | None, str]:
    """The closed form's value, or None and the hypothesis it lacks."""
    try:
        return formula(), ""
    except HypothesisUnmet as exc:
        return None, str(exc)


def _spec_input(name: str, spec: BlowupSpec) -> ResolvedInput:
    """A blow-up, its graphs read off the spec's (label, mask) pairs."""
    graph, gss = blowup_graphs(spec)
    return ResolvedInput(
        name=name, vertex_count=spec.total_vertices(), make_graph=graph,
        formula=partial(sdim_formula, spec),
        poset=partial(build_blowup, spec), gstar_star=gss,
        patterns=partial(zero_divisor_pairs, spec))


def _lattice_input(name: str, P: FinitePoset,
                   formula: Callable[[], int] | None = None) -> ResolvedInput:
    """A built lattice; its formula, unless given, is that of the blow-up
    that P is."""
    def blowup_formula() -> int:
        try:
            blowup = canonical_blowup_of(P)[0]
        except NotApplicable as exc:
            raise HypothesisUnmet(f"{exc}: formula inapplicable") from None
        except ZdgError:
            raise HypothesisUnmet("not a bounded 0-distributive lattice: "
                                  "formula inapplicable") from None
        return sdim_formula(blowup)
    return ResolvedInput(name=name, vertex_count=len(P.zero_divisors()),
                         make_graph=partial(zero_divisor_graph, P),
                         formula=formula or blowup_formula,
                         poset=lambda: P, gstar_star=partial(gstar_star, P),
                         patterns=partial(zero_divisor_patterns, P))


# -- output helpers -----------------------------------------------------------

def _emit(obj, path: str | None):
    if not path:
        return
    if path.endswith((".dot", ".gv")):
        with open(path, "w") as fh:
            if isinstance(obj, FinitePoset):
                write_dot(fh, "hasse", obj.labels,
                          ((a, (b,)) for a, b in sorted(obj.covers())))
            else:
                write_dot(fh, "G", obj.labels, obj.edges_by_vertex())
    elif isinstance(obj, FinitePoset):
        import json
        with open(path, "w") as fh:
            json.dump(poset_to_json(obj), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(path, "w") as fh:
            write_json(fh, obj)


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
    if not pairs:
        return ""
    pairs.sort(key=lambda mc: (mc[0].bit_count(), mc[0]))
    return ", classes sizes " + ",".join(str(c) for _, c in pairs)


# -- subcommands --------------------------------------------------------------

def cmd_build(args) -> int:
    res = resolve_input(args)
    if res.poset is not None:
        P = res.poset()
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
        if r.gstar_star is None:
            raise ZdgError("G** needs a lattice input")
        return r.gstar_star()
    return _graph_command(args, transform, "G**")


def cmd_sdim(args) -> int:
    res = resolve_input(args)
    methods = ["formula", "gsr", "brute"] if args.method == "all" \
        else [args.method]
    cap = brute_cap()
    rows = []
    values = []
    for method in methods:
        if method == "formula":
            value, note = _closed_form(res.formula)
            if value is None:
                rows.append(("formula", note, "-"))
            else:
                rows.append(("formula", str(value), "-"))
                values.append(value)
        elif method == "gsr":
            value = (sdim_via_gsr(res.graph) if res.patterns is None
                     else sdim_via_gsr_patterns(res.patterns()))
            rows.append(("gsr", str(value), f"cover size {value}"))
            values.append(value)
        else:
            if res.vertex_count > cap:
                if args.method == "brute":
                    print(f"error: |V|={res.vertex_count} exceeds brute cap "
                          f"{cap} (set SDIM_BRUTE_CAP to raise)",
                          file=sys.stderr)
                    return 1
                rows.append(("brute",
                             f"skipped (|V|={res.vertex_count} > cap {cap})",
                             "-"))
            else:
                value = sdim_bruteforce(res.graph, cap=cap)
                rows.append(("brute", str(value), f"set size {value}"))
                values.append(value)
    if args.json:
        import json
        payload = {"input": res.name,
                   "rows": [{"method": m, "value": v, "witness": w}
                            for m, v, w in rows]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"sdim of {res.name} (|V|={res.vertex_count})")
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
    formula_value, _ = _closed_form(res.formula)
    g = res.graph
    print(f"{res.name}: {g.n} vertices, {g.edge_count()} edges")
    gsr_value = sdim_via_gsr(g)
    print(f"sdim via gsr: {gsr_value}")
    if formula_value is not None:
        tag = "agrees" if formula_value == gsr_value else "DISAGREES"
        print(f"closed form: {formula_value} ({tag})")
    ok = True
    if res.application is not None:
        ok = res.application.matches_prediction()
        print(f"matches {res.application.prediction}: {ok}")
    _emit(g, args.out)
    if args.check and (not ok or (formula_value is not None
                                  and formula_value != gsr_value)):
        return 2
    return 0


def cmd_verify(args) -> int:
    if args.suite is not None and args.suite not in SUITES:
        raise UnknownSuite(f"--suite names an unknown suite {args.suite!r}; "
                           f"choose from {', '.join(SUITES)}")
    if args.count < 0:
        raise ValueError("--count wants a nonnegative integer "
                         f"(got {args.count})")
    names = list(SUITES) if args.suite is None else [args.suite]
    results = []
    for name in names:
        start = time.perf_counter()
        # looked up at call time: a caller may have replaced the entry
        res = SUITES[name](args.seed, args.count)
        res.seconds = time.perf_counter() - start
        results.append(res)
    # timing goes to stderr so stdout stays byte-identical across runs
    for r in results:
        print(f"suite {r.name}: {r.seconds:.2f}s", file=sys.stderr)
    if args.json:
        import json
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

    for name, doc in (
            ("build", "construct an input and print a summary"),
            ("zdg", "zero-divisor graph of the input"),
            ("gsr", "strong resolving graph of the input's graph"),
            ("gstarstar", "class-based graph G** of a lattice"),
            ("adapter", "build an adapter graph and cross-check it against "
                        "its blow-up prediction")):
        p = sub.add_parser(name, help=doc)
        add_input_flags(p)
        p.add_argument("--out", help="write DOT (.dot/.gv) or JSON (.json)")
        if name == "adapter":
            p.add_argument("--check", action="store_true",
                           help="exit nonzero when a cross-check fails")

    p = sub.add_parser("sdim", help="strong metric dimension, three ways")
    add_input_flags(p)
    p.add_argument("--method", choices=("formula", "gsr", "brute", "all"),
                   default="all")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when computed methods disagree")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", help=f"one of: {', '.join(SUITES)} "
                                   "(default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25,
                   help="random blow-up specs per suite")
    p.add_argument("--json", action="store_true")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser that `main` keeps for the life of the process: building
    one costs more than many commands do."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up by name at call time, so that a caller may replace a
        # cmd_* function after the parser is built
        return globals()[f"cmd_{args.command}"](args)
    # json.JSONDecodeError is a ValueError
    except (ZdgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
