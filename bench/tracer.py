"""Span tracing of the zdgdim layers, installed from outside the package.

`install` replaces every public function of the layer modules (and a few
named methods) with a wrapper that records a span: name, start, end and the
span that was open when it was called.  A function is replaced in every
`zdgdim.*` namespace that binds it, because `cli` and the package itself
re-export functions with `from .metric import ...`.  The verify suites are
private functions, so they are wrapped through the public `cli.SUITES`
table that `cmd_verify` reads at call time.  Private helpers such as
`_bits` or `_alpha` are never wrapped: their cost is their caller's self
time.

Spans live in flat arrays and are rolled up after each repetition into self
time per metric group (a function's own time minus its traced callees) and
into counters of the work done.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from bisect import bisect_right

from oracle import SUITES

LAYERS = ("blowup", "poset", "graphs", "metric", "adapters", "cli")

# methods traced besides the module-level functions; accessors such as
# FinitePoset.index or leq are left out because a span would cost more than
# the call itself
METHODS = {
    "graphs": {"SimpleGraph": ("from_edges", "relabeled", "labeled_equal",
                               "subgraph")},
    "poset": {"FinitePoset": ("zero_divisors", "annihilator", "atoms",
                              "pseudocomplement", "quotient_classes",
                              "is_zero_distributive")},
}

# metric group of a traced function; anything unlisted falls into its
# layer's default group, so the groups partition all traced self time
GROUP_OF = {
    "FinitePoset.zero_divisors": "poset.ann_s",
    "FinitePoset.annihilator": "poset.ann_s",
    "FinitePoset.quotient_classes": "poset.structure_s",
    "FinitePoset.is_zero_distributive": "poset.structure_s",
    "FinitePoset.pseudocomplement": "poset.structure_s",
    "FinitePoset.atoms": "poset.structure_s",
    "zero_divisor_graph": "graphs.zdg_s",
    "SimpleGraph.from_edges": "graphs.from_edges_s",
    "SimpleGraph.relabeled": "graphs.from_edges_s",
    "SimpleGraph.labeled_equal": "graphs.from_edges_s",
    "SimpleGraph.subgraph": "graphs.from_edges_s",
    "all_pairs_distances": "metric.apsp_s",
    "strong_resolving_graph": "metric.gsr_s",
    "boundary": "metric.gsr_s",
    "mutually_maximally_distant": "metric.gsr_s",
    "minimum_vertex_cover": "metric.solver_s",
    "max_independent_set": "metric.solver_s",
    "vertex_cover_number": "metric.solver_s",
    "independence_number": "metric.solver_s",
    "sdim_bruteforce": "metric.brute_s",
    "metric_dimension_bruteforce": "metric.brute_s",
    "minimum_strong_resolving_set": "metric.brute_s",
    "is_strong_resolving": "metric.check_s",
    "is_resolving": "metric.check_s",
    "distance_by_pseudocomplement": "metric.check_s",
    "diameter": "metric.check_s",
    "gstar": "metric.check_s",
    "gstar_star": "metric.check_s",
    "comaximal_blowup_prediction": "adapters.predict_s",
    "component_union_prediction": "adapters.predict_s",
    "component_union_predicted_graph": "adapters.predict_s",
    "reduced_ring_sdim_formula": "adapters.predict_s",
    "comaximal_sdim_formula": "adapters.predict_s",
    "comaximal_ideal_sdim_formula": "adapters.predict_s",
    "component_union_sdim_formula": "adapters.predict_s",
}
DEFAULT_GROUP = {
    "blowup": "blowup.build_s",
    "poset": "poset.other_s",
    "graphs": "graphs.other_s",
    "metric": "metric.other_s",
    "adapters": "adapters.enumerate_s",
    "cli": "cli.self_s",
}
TIME_GROUPS = sorted(set(GROUP_OF.values()) | set(DEFAULT_GROUP.values()))
SUITE_METRICS = [f"cli.suite.{s}_s" for s in SUITES]
COUNTERS = ("blowup.elements", "graphs.edges", "metric.apsp_calls",
            "metric.bfs_sources", "metric.gsr_vertices", "metric.mmd_pairs",
            "metric.solver_calls", "metric.brute_calls")
SOLVER = ("minimum_vertex_cover", "max_independent_set",
          "vertex_cover_number", "independence_number")
BRUTE = ("sdim_bruteforce", "metric_dimension_bruteforce",
         "minimum_strong_resolving_set")


def _count_elements(counts, args, result):
    counts["blowup.elements"] += len(result)


def _count_zdg(counts, args, result):
    counts["graphs.edges"] += result.edge_count()


def _count_apsp(counts, args, result):
    counts["metric.bfs_sources"] += len(result)


def _count_gsr(counts, args, result):
    counts["metric.gsr_vertices"] += result.n
    counts["metric.mmd_pairs"] += result.edge_count()


COUNT_HOOKS = {
    "build_blowup": _count_elements,
    "boolean_lattice": _count_elements,
    "product_of_chains": _count_elements,
    "zero_divisor_graph": _count_zdg,
    "all_pairs_distances": _count_apsp,
    "strong_resolving_graph": _count_gsr,
}


class Tracer:
    """Span recorder; one instance is installed at a time."""

    def __init__(self):
        self.names: list[str] = []        # span name table
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (the name table stays)."""
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, count=None):
        nid = self._intern(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names, starts, ends = (tracer.span_name, tracer.span_start,
                                   tracer.span_end)
            stack = tracer.stack
            idx = len(names)
            names.append(nid)
            tracer.span_parent.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    # -- roll-up -------------------------------------------------------------

    def rollup(self, probes=()) -> dict:
        """Self time per metric group, inclusive time per verify suite,
        span counts and the work counters, for the spans recorded since the
        last reset.  `probes` are (start, end) intervals spent outside the
        program (host-speed probes); each is taken off the self time of the
        innermost span that contains it."""
        names, parent = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(names)
        probe_in = [0.0] * n     # probe time directly inside each span
        for t0, t1 in probes:
            j = bisect_right(starts, t0) - 1
            while j >= 0 and ends[j] < t1:
                j = parent[j]
            if j >= 0:
                probe_in[j] += t1 - t0
        # spans are numbered in call order, so children follow their parent
        # and one backward pass folds each subtree's probe time into its root
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                probe_in[p] += probe_in[i]
        incl = [ends[i] - starts[i] - probe_in[i] for i in range(n)]
        self_time = incl[:]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_time[p] -= incl[i]
        group_of = [_group(name) for name in self.names]
        suite_of = [name[len("cli.suite."):] if name.startswith("cli.suite.")
                    else None for name in self.names]
        base = [name.rsplit(".", 1)[-1] for name in self.names]
        times = dict.fromkeys(TIME_GROUPS, 0.0)
        suites = dict.fromkeys(SUITES, 0.0)
        calls = {"metric.apsp_calls": 0, "metric.solver_calls": 0,
                 "metric.brute_calls": 0}
        roots = 0.0
        for i in range(n):
            nid = names[i]
            times[group_of[nid]] += self_time[i]
            suite = suite_of[nid]
            if suite is not None:
                suites[suite] += incl[i]
            fn = base[nid]
            if fn == "all_pairs_distances":
                calls["metric.apsp_calls"] += 1
            elif fn in SOLVER:
                p = parent[i]
                if p < 0 or base[names[p]] not in SOLVER:
                    calls["metric.solver_calls"] += 1
            elif fn in BRUTE:
                calls["metric.brute_calls"] += 1
            if parent[i] < 0:
                roots += incl[i]
        counts = dict(self.counts)
        counts.update(calls)
        return {"times": times, "suites": suites, "counts": counts,
                "spans": n, "roots": roots}


def _group(span_name: str) -> str:
    layer, _, fn = span_name.partition(".")
    if layer == "cli":
        return "cli.self_s"
    return GROUP_OF.get(fn, DEFAULT_GROUP[layer])


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


def install(tracer: Tracer):
    """Wrap the layers' public functions in place; returns an undo callable
    that restores every original binding."""
    modules = {layer: sys.modules[f"zdgdim.{layer}"] for layer in LAYERS}
    namespaces = [m for name, m in sys.modules.items()
                  if name == "zdgdim" or name.startswith("zdgdim.")]
    undo = []
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            wrapped = tracer.wrap(f"{layer}.{attr}", fn,
                                  COUNT_HOOKS.get(attr))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        undo.append((ns, key, value))
                        setattr(ns, key, wrapped)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(name, raw.__func__))
                else:
                    wrapped = tracer.wrap(name, raw)
                undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
    suites = modules["cli"].SUITES
    originals = dict(suites)
    for suite, fn in originals.items():
        suites[suite] = tracer.wrap(f"cli.suite.{suite}", fn)

    def restore():
        for ns, key, value in reversed(undo):
            setattr(ns, key, value)
        suites.update(originals)

    return restore
