"""Application graphs built directly from algebraic definitions.

Each construction enumerates concrete algebraic objects (field tuples, ring
residues, ideals of Z_N, vectors) and exposes a companion prediction that
realizes the same graph through a chain blow-up, so tests can cross-check
labeled equality by explicit bijection.  Each graph is built from its
coordinate patterns, two vertices adjacent when theirs are disjoint: the
nonzero coordinates of a field tuple, the non-unit coordinates of a
residue, the primes dividing d, the zero coordinates of a vector.  Only
these patterns matter, so no finite-field arithmetic is implemented.

`reduced_ring`, `comaximal`, `comaximal_ideal` and `component_union` give
each application's graph, closed form and prediction check as one
`Application`.  Every input is refused past its element budget before it
is enumerated, and before any primality test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, NamedTuple, Sequence

from .blowup import (BlowupSpec, blowup_label, build_blowup, mask_to_binstr,
                     product_of_chains, tuple_label)
from .errors import HypothesisUnmet, NotPrimePower, TooLarge
from .graphs import SimpleGraph, complete_graph_on, graph_join, zero_divisor_graph
from .poset import FinitePoset, _down_sets

DEFAULT_ELEMENT_BUDGET = 100_000


def check_element_budget(name: str, count: int):
    """Refuse an input of more than DEFAULT_ELEMENT_BUDGET elements before
    it is enumerated or built: every construction here is at least linear,
    and most are quadratic, in its element count."""
    if count > DEFAULT_ELEMENT_BUDGET:
        # Python refuses to print an int of more than 4300 digits
        _refuse(name, count if count.bit_length() <= 64
                else f"at least 2^{count.bit_length() - 1}")


def check_power_budget(name: str, powers: Sequence[tuple[int, int]]):
    """check_element_budget(name, prod q^n) over (q, n) pairs, without
    building a q^n past 64 bits: for n near 10^9 that takes seconds.  Such
    a product with a q below 1 is left unchecked."""
    if all(n * (abs(q).bit_length() - 1) < 64 for q, n in powers):
        return check_element_budget(name, prod(q ** n for q, n in powers))
    if any(q < 1 for q, _ in powers):
        return
    # floor(log2 of the product), or one less within 10^-20 above an
    # integer; the rounding error is far smaller, as log2 q < 10^5 for a
    # printable q
    log2 = sum(n * (q.bit_length() - 1) for q, n in powers)
    if any(q & (q - 1) for q, _ in powers):
        # imported here: decimal adds about 8% to the package's import time
        from decimal import Decimal, localcontext
        with localcontext() as ctx:
            ctx.prec = max(len(str(n)) for _, n in powers) + 45
            ln = sum(n * Decimal(q).ln() for q, n in powers)
            log2 = int(ln / Decimal(2).ln() - Decimal("1e-20"))
    _refuse(name, f"at least 2^{log2}")


def _refuse(name: str, shown):
    raise TooLarge(f"{name} has {shown} elements, over the element budget "
                   f"of {DEFAULT_ELEMENT_BUDGET}")


def _prime_powers(N: int):
    """Yield (p, e) for each prime p exactly dividing N as p^e, by trial
    division in increasing p.  Lazy: a caller may stop after the first."""
    p = 2
    while p * p <= N:
        if N % p == 0:
            e = 0
            while N % p == 0:
                N //= p
                e += 1
            yield p, e
        p += 1
    if N > 1:
        yield N, 1


def _pattern(flags) -> int:
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def prime_power_base(q: int):
    """(p, e) with q = p^e, or raise NotPrimePower."""
    if q >= 2:
        p, e = next(_prime_powers(q))
        if p ** e == q:
            return p, e
    raise NotPrimePower(f"{q} is not a prime power")


def _euler_phi_prime_power(p: int, e: int) -> int:
    return p ** e - p ** (e - 1)


@dataclass(frozen=True)
class ReducedRingSpec:
    """A finite reduced ring as a product of finite fields of these orders."""

    field_orders: tuple[int, ...]

    def __init__(self, field_orders: Sequence[int]):
        qs = tuple(field_orders)
        object.__setattr__(self, "field_orders", qs)
        # the budget first: the primality test is slow on a large prime
        check_element_budget(" x ".join(f"GF({q})" for q in qs), prod(qs))
        for q in qs:
            prime_power_base(q)


@dataclass(frozen=True)
class LocalProductSpec:
    """R = prod Z_{p_i^{e_i}} given as (prime, exponent) pairs."""

    prime_powers: tuple[tuple[int, int], ...]

    def __init__(self, prime_powers: Sequence[tuple[int, int]]):
        pairs = tuple((int(p), int(e)) for p, e in prime_powers)
        object.__setattr__(self, "prime_powers", pairs)
        # every exponent and the budget first: the primality test is slow on
        # a large prime.  A modulus over 64 bits is named Z_(p^e)
        for _, e in pairs:
            if e < 1:
                raise NotPrimePower(f"exponent {e} must be >= 1")
        check_power_budget(" x ".join(
            f"Z_{p ** e}" if e * (abs(p).bit_length() - 1) < 64
            and (p ** e).bit_length() <= 64 else f"Z_({p}^{e})"
            for p, e in pairs), pairs)
        for p, _ in pairs:
            if prime_power_base(p)[1] != 1:
                raise NotPrimePower(f"{p} is not prime")

    def moduli(self) -> tuple[int, ...]:
        return tuple(p ** e for p, e in self.prime_powers)


# -- zero-divisor graph of a reduced ring -------------------------------------

def reduced_ring_zdg(spec: ReducedRingSpec) -> SimpleGraph:
    """Gamma(prod F_i): nonzero tuples with a zero coordinate, adjacent when
    the coordinatewise product vanishes, i.e. the supports are disjoint.

    Labels are the coordinate tuples, which makes this graph literally equal
    to the zero-divisor graph of the product of chains with sizes |F_i|.
    """
    qs = spec.field_orders
    return SimpleGraph.from_patterns(
        (tuple_label(v), _pattern(a != 0 for a in v))
        for v in product(*[range(q) for q in qs]) if any(v) and not all(v))


def reduced_ring_sdim_formula(spec: ReducedRingSpec) -> int:
    """|Z(R)*| - 2n - 2m + 2 with n fields above order 2 and m copies of
    order 2; equivalently |Z*| - 2k + 2 for k fields in total (k >= 3)."""
    qs = spec.field_orders
    if len(qs) < 3:
        raise HypothesisUnmet("n<3: formula inapplicable")
    count = 1
    units = 1
    for q in qs:
        count *= q
        units *= q - 1
    zstar = count - units - 1
    return zstar - 2 * len(qs) + 2


# -- comaximal graph of a product of local rings --------------------------------

def comaximal_gamma2prime(spec: LocalProductSpec) -> SimpleGraph:
    """Non-units outside the Jacobson radical of prod Z_{p_i^{e_i}}; x ~ y
    iff x and y generate the whole ring, i.e. every coordinate has a unit
    on at least one side."""
    mods = spec.moduli()
    ps = [p for p, _ in spec.prime_powers]
    pats = ((tuple_label(x), _pattern(xi % p == 0 for xi, p in zip(x, ps)))
            for x in product(*[range(m) for m in mods]))
    return SimpleGraph.from_patterns(
        (lab, pat) for lab, pat in pats if 0 < pat < (1 << len(mods)) - 1)


def comaximal_blowup_prediction(
        spec: LocalProductSpec) -> tuple[BlowupSpec, dict[str, str]]:
    """Blow-up spec matching Gamma_2'(R) plus the vertex bijection.

    Vertices with non-unit coordinate set M form the chain class of mask M;
    its size is prod_{i in M} p_i^{e_i - 1} * prod_{i not in M} phi(p_i^{e_i}).
    """
    mods = spec.moduli()
    ps = [p for p, _ in spec.prime_powers]
    k = len(mods)
    sizes: dict[int, int] = {}
    for mask in range(1, (1 << k) - 1):
        s = 1
        for i, (p, e) in enumerate(spec.prime_powers):
            s *= p ** (e - 1) if mask >> i & 1 else _euler_phi_prime_power(p, e)
        sizes[mask] = s
    mapping: dict[str, str] = {}
    level = {mask: 0 for mask in sizes}
    for x in sorted(product(*[range(m) for m in mods])):
        mask = 0
        for i, (xi, p) in enumerate(zip(x, ps)):
            if xi % p == 0:
                mask |= 1 << i
        if not 0 < mask < (1 << k) - 1:
            continue
        level[mask] += 1
        mapping[tuple_label(x)] = blowup_label(mask, level[mask], k)
    return BlowupSpec(k, sizes).normalized(), mapping


def comaximal_sdim_formula(spec: LocalProductSpec) -> int:
    """|V(Gamma_2'(R))| - 2n + 2 for n = |Max(R)| >= 3."""
    n = len(spec.prime_powers)
    if n < 3:
        raise HypothesisUnmet("n<3: formula inapplicable")
    count = units = jacobson = 1
    for p, e in spec.prime_powers:
        count *= p ** e
        units *= _euler_phi_prime_power(p, e)
        jacobson *= p ** (e - 1)
    vertices = count - units - jacobson
    return vertices - 2 * n + 2


# -- comaximal ideal graph of Z_N ----------------------------------------------

def _divisors(N: int) -> list[int]:
    return [d for d in range(1, N + 1) if N % d == 0]


def ideal_lattice_dual_zn(N: int) -> FinitePoset:
    """Dual of the ideal lattice of Z_N: divisors of N under divisibility,
    with 1 (the whole ring) at the bottom and N (the zero ideal) on top."""
    if N < 2:
        raise ValueError("ideal lattice needs N >= 2")
    check_element_budget(f"Z_{N}", N)
    divs = _divisors(N)
    index = {d: i for i, d in enumerate(divs)}
    primes = [p for p, _ in _prime_powers(N)]
    # d covers d/p for each prime p dividing d
    below = [[index[d // p] for p in primes if d % p == 0] for d in divs]
    return FinitePoset([str(d) for d in divs],
                       _down_sets(below, range(len(divs))),
                       bottom=0, top=len(divs) - 1)


def comaximal_ideal_graph_zn(N: int) -> SimpleGraph:
    """CG(Z_N): proper nonzero ideals dZ_N outside the Jacobson radical,
    adjacent when the ideals sum to the whole ring, i.e. gcd(d, e) = 1."""
    if N < 2:
        raise ValueError("comaximal ideal graph needs N >= 2")
    check_element_budget(f"Z_{N}", N)
    primes = [p for p, _ in _prime_powers(N)]
    pats = ((d, _pattern(d % p == 0 for p in primes)) for d in _divisors(N))
    return SimpleGraph.from_patterns(
        (d, pat) for d, pat in pats if 0 < pat < (1 << len(primes)) - 1)


def comaximal_ideal_sdim_formula(N: int) -> int:
    """sdim of CG(Z_N): with n distinct primes, |V| - 2n + 2 for n >= 3 and
    1 for a squarefree N with two primes.  |V| = prod (e_i + 1) - 1 -
    prod e_i for N = prod p_i^e_i (divisors but 1 not divisible by rad N)."""
    if N < 2:
        raise ValueError("comaximal ideal graph needs N >= 2")
    exps = [e for _, e in _prime_powers(N)]
    n = len(exps)
    if n >= 3:
        return prod(e + 1 for e in exps) - 1 - prod(exps) - 2 * n + 2
    if exps == [1, 1]:
        return 1
    raise HypothesisUnmet(f"no closed sdim form for N = {N}")


# -- component union graph of a vector space ------------------------------------

def _vector_label(mask: int, t: int, n: int) -> str:
    return f"{mask_to_binstr(mask, n)}:{t}"


def component_union_graph(n: int, q: int) -> SimpleGraph:
    """UG(V) for an n-dimensional space over a field of order q: nonzero
    vectors, adjacent when their supports cover the whole basis.

    A vector is encoded as (support mask, index in 1..(q-1)^popcount); which
    nonzero field values occur never affects adjacency.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    check_power_budget(f"GF({q})^{n}", [(q, n)])
    prime_power_base(q)
    full = (1 << n) - 1
    return SimpleGraph.from_patterns(
        (_vector_label(mask, t, n), full & ~mask)
        for mask in range(1, full + 1)
        for t in range(1, (q - 1) ** mask.bit_count() + 1))


def component_union_prediction(
        n: int, q: int) -> tuple[BlowupSpec, list[str], dict[str, str]]:
    """Blow-up spec, the K_t labels, and the bijection onto the blow-up graph.

    A vector with support S corresponds to the chain class of the complement
    mask, so the chain at mask M has size (q-1)^(n-|M|); the (q-1)^n vectors
    of full support form the joined complete part and keep their own labels.
    """
    prime_power_base(q)
    full = (1 << n) - 1
    sizes = {mask: (q - 1) ** (n - mask.bit_count())
             for mask in range(1, full)}
    mapping = {}
    for mask in range(1, full):
        for t in range(1, (q - 1) ** mask.bit_count() + 1):
            mapping[_vector_label(mask, t, n)] = \
                blowup_label(full & ~mask, t, n)
    kt_labels = [_vector_label(full, t, n)
                 for t in range(1, (q - 1) ** n + 1)]
    return BlowupSpec(n, sizes).normalized(), kt_labels, mapping


def component_union_predicted_graph(n: int, q: int) -> SimpleGraph:
    """join(G(L^B), K_t) with vertices renamed back to vector labels."""
    spec, kt_labels, mapping = component_union_prediction(n, q)
    core = zero_divisor_graph(build_blowup(spec))
    inverse = {v: k for k, v in mapping.items()}
    return graph_join(core.relabeled(inverse), complete_graph_on(kt_labels))


def component_union_sdim_formula(n: int, q: int) -> int:
    """The published closed form |V(UG)| - n + 2 for n >= 3.

    Definition-level computation disagrees with this value on every instance
    checked (see the verification suites); it is surfaced unchanged so the
    discrepancy stays visible.  The computed value is |V(UG)| - n - 1 for
    n >= 3, three lower: UG = join(G(L^B), K_t) has diameter 2 and G(L^B)
    has no true twins, so G_SR is the complement of G(L^B) beside a separate
    clique on the t full-support vectors, and alpha(G_SR) = 1 + n.
    """
    if n < 3:
        raise HypothesisUnmet("n<3: formula inapplicable")
    return q ** n - 1 - n + 2


# -- the four applications ----------------------------------------------------

class Application(NamedTuple):
    """An application graph, its closed form (a thunk, which may raise
    HypothesisUnmet) and its labeled-equality check against the blow-up
    construction named by `prediction`.  A NamedTuple, not a dataclass:
    a dataclass would add about 1 ms to the import of the package."""

    graph: SimpleGraph
    formula: Callable[[], int]
    prediction: str
    matches_prediction: Callable[[], bool]


def reduced_ring(field_orders: Sequence[int]) -> Application:
    spec = ReducedRingSpec(field_orders)
    g = reduced_ring_zdg(spec)
    return Application(
        g, lambda: reduced_ring_sdim_formula(spec),
        "product-of-chains zero-divisor graph",
        lambda: g.labeled_equal(zero_divisor_graph(
            product_of_chains(spec.field_orders))))


def comaximal(prime_powers: Sequence[tuple[int, int]]) -> Application:
    spec = LocalProductSpec(prime_powers)
    g = comaximal_gamma2prime(spec)

    def matches() -> bool:
        # the ring graph takes the blow-up labels: the other way round,
        # from_rows re-indexes a scrambled order, which is slower
        bspec, mapping = comaximal_blowup_prediction(spec)
        return g.relabeled(mapping).labeled_equal(
            zero_divisor_graph(build_blowup(bspec)))
    return Application(g, lambda: comaximal_sdim_formula(spec),
                       "blow-up zero-divisor graph", matches)


def comaximal_ideal(N: int) -> Application:
    g = comaximal_ideal_graph_zn(N)
    return Application(
        g, lambda: comaximal_ideal_sdim_formula(N),
        "dual ideal-lattice zero-divisor graph",
        lambda: g.labeled_equal(zero_divisor_graph(ideal_lattice_dual_zn(N))))


def component_union(n: int, q: int) -> Application:
    g = component_union_graph(n, q)
    return Application(
        g, lambda: component_union_sdim_formula(n, q),
        "join of blow-up graph with K_t",
        lambda: g.labeled_equal(component_union_predicted_graph(n, q)))
