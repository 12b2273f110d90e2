"""Application graphs built directly from algebraic definitions.

Each application enumerates concrete algebraic objects (field tuples, ring
residues, ideals of Z_N, vectors) as (label, coordinate pattern) pairs: the
nonzero coordinates of a field tuple, the non-unit coordinates of a residue,
the primes dividing d, the zero coordinates of a vector.  Two vertices are
adjacent when their patterns are disjoint, so no finite-field arithmetic is
implemented.

`reduced_ring`, `comaximal`, `comaximal_ideal` and `component_union` give
each application's graph, closed form and prediction check as one
`Application`.  Each checks its input once, at its top, and refuses it past
its element budget before any primality test or enumeration.  Only the
check of `_application` names blow-up levels, and it compares by labeled
equality with the predicted construction, built from the lattice for
`--fields` and `--zn` and read off the blow-up spec's (label, mask) pairs
for `--local` and `--vspace`: no graph is re-indexed and no blow-up
lattice is built.
"""

from __future__ import annotations

from itertools import compress, product
from math import prod
from operator import and_
from typing import Callable, NamedTuple, Sequence

from .blowup import (BlowupSpec, blowup_graphs, blowup_label, mask_to_binstr,
                     product_of_chains)
from .errors import HypothesisUnmet, LabelCollision, NotPrimePower, TooLarge
from .graphs import SimpleGraph, complete_graph_on, graph_join, zero_divisor_graph
from .poset import FinitePoset

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


# -- tuple vertices ---------------------------------------------------------

def _tuple_vertices(coordinates: Sequence[Sequence[bool]]):
    """The (label, pattern) pairs of the tuples of a product, in
    `itertools.product` order.  coordinates[i][a] says whether value a of
    coordinate i, for a in range(its length), puts bit i in the pattern;
    the label is the tuple label, and a tuple is kept when its pattern is
    neither empty nor full.

    Each coordinate's value strings and pattern bits are built once; the
    labels are `",".join` of a product of strings, the patterns the sums
    of a product of bits, and `compress` keeps the vertices, so every
    per-tuple step runs in C."""
    strings = [[str(a) for a in range(len(flags))] for flags in coordinates]
    bits = [[flag << i for flag in flags]
            for i, flags in enumerate(coordinates)]
    full = (1 << len(coordinates)) - 1
    pats = list(map(sum, product(*bits)))
    keep = list(map(and_, map(bool, pats), map(full.__ne__, pats)))
    labels = map("({})".format, map(",".join, product(*strings)))
    return list(zip(compress(labels, keep), compress(pats, keep)))


# -- zero-divisor graph of a reduced ring -------------------------------------

def _reduced_ring_vertices(field_orders: Sequence[int]):
    """Nonzero tuples with a zero coordinate; the pattern is the support."""
    return _tuple_vertices([[a != 0 for a in range(q)] for q in field_orders])


def reduced_ring_sdim_formula(field_orders: Sequence[int]) -> int:
    """|Z(R)*| - 2n - 2m + 2 with n fields above order 2 and m copies of
    order 2; equivalently |Z*| - 2k + 2 for k fields in total (k >= 3)."""
    if len(field_orders) < 3:
        raise HypothesisUnmet("n<3: formula inapplicable")
    count = 1
    units = 1
    for q in field_orders:
        count *= q
        units *= q - 1
    zstar = count - units - 1
    return zstar - 2 * len(field_orders) + 2


# -- comaximal graph of a product of local rings --------------------------------

def _comaximal_vertices(pairs: Sequence[tuple[int, int]]):
    """Residues with non-unit coordinate set M, 0 < M < all, as pattern."""
    return _tuple_vertices([[a % p == 0 for a in range(p ** e)]
                            for p, e in pairs])


def _comaximal_construction(pairs: Sequence[tuple[int, int]]) -> SimpleGraph:
    """G(L^B) for the blow-up whose chain of mask M holds the residues with
    non-unit coordinate set M, so its size is prod_{i in M} p_i^{e_i - 1} *
    prod_{i not in M} phi(p_i^{e_i}); read off the spec by
    `blowup_graphs`, with no lattice built."""
    k = len(pairs)
    return blowup_graphs(BlowupSpec(k, {
        mask: prod(p ** (e - 1) if mask >> i & 1
                   else _euler_phi_prime_power(p, e)
                   for i, (p, e) in enumerate(pairs))
        for mask in range(1, (1 << k) - 1)}))[0]()


def comaximal_sdim_formula(prime_powers: Sequence[tuple[int, int]]) -> int:
    """|V(Gamma_2'(R))| - 2n + 2 for n = |Max(R)| >= 3."""
    n = len(prime_powers)
    if n < 3:
        raise HypothesisUnmet("n<3: formula inapplicable")
    count = units = jacobson = 1
    for p, e in prime_powers:
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
    return FinitePoset([str(d) for d in divs], below,
                       bottom=0, top=len(divs) - 1)


def _comaximal_ideal_vertices(N: int):
    """Labels as in the dual ideal lattice, with the primes dividing d."""
    primes = [p for p, _ in _prime_powers(N)]
    for d in _divisors(N):
        pat = _pattern(d % p == 0 for p in primes)
        if 0 < pat < (1 << len(primes)) - 1:
            yield str(d), pat


def comaximal_ideal_sdim_formula(N: int) -> int:
    """sdim of CG(Z_N): with n distinct primes, |V| - 2n + 2 for n >= 3 and
    1 for a squarefree N with two primes.  |V| = prod (e_i + 1) - 1 -
    prod e_i for N = prod p_i^e_i (divisors but 1 not divisible by rad N)."""
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


def _component_union_vertices(n: int, q: int):
    """Vectors as (support mask, index t in 1..(q-1)^popcount), as their
    values never affect adjacency, with the zero mask as the pattern: the
    vectors of full support have the empty pattern."""
    full = (1 << n) - 1
    for mask in range(1, full + 1):
        for t in range(1, (q - 1) ** mask.bit_count() + 1):
            yield _vector_label(mask, t, n), full & ~mask


def _component_union_construction(n: int, q: int) -> SimpleGraph:
    """join(G(L^B), K_t): the chain of mask M holds the (q-1)^(n-|M|)
    vectors with zero mask M, and K_t those of full support, whose labels
    sort after the blow-up's, so the join keeps both sides' orders.
    G(L^B) is read off the spec by `blowup_graphs`, with no lattice
    built."""
    full = (1 << n) - 1
    spec = BlowupSpec(n, {mask: (q - 1) ** (n - mask.bit_count())
                          for mask in range(1, full)})
    kt = [_vector_label(full, t, n) for t in range(1, (q - 1) ** n + 1)]
    return graph_join(blowup_graphs(spec)[0](), complete_graph_on(kt))


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
    HypothesisUnmet) and its check that, under the labels `_application`
    predicts, it is the construction named by `prediction`.  A NamedTuple:
    a dataclass would add about 1 ms to the import of the package."""

    graph: SimpleGraph
    formula: Callable[[], int]
    prediction: str
    matches_prediction: Callable[[], bool]


def _application(pairs, coordinates: int | None, formula: Callable[[], int],
                 prediction: str,
                 construction: Callable[[], SimpleGraph]) -> Application:
    """The application on one list of its (label, pattern) pairs.  Its check
    compares the construction with the graph on the predicted labels: with
    coordinates None the labels themselves, else by one rule.  The t-th
    vertex, in enumeration order, with a nonempty pattern M is named level
    t of the chain of M in a blow-up of 2^coordinates; a vertex with the
    empty pattern (of full support, in K_t) keeps its label.  Two vertices
    given one label make the check False.  `blowup_label` writes level 1
    of each chain once; level t >= 2 is that base label with t written over
    every 1, the string `blowup_label` writes for it."""
    pairs = list(pairs)
    graph = SimpleGraph.from_patterns(pairs)

    def matches() -> bool:
        if coordinates is None:
            return graph.labeled_equal(construction())
        named, level, base = [], {}, {}
        for label, pat in pairs:
            if pat:
                t = level[pat] = level.get(pat, 0) + 1
                if t == 1:
                    label = base[pat] = blowup_label(pat, 1, coordinates)
                else:
                    label = base[pat].replace("1", str(t))
            named.append((label, pat))
        try:
            renamed = SimpleGraph.from_patterns(named)
        except LabelCollision:
            return False
        return renamed.labeled_equal(construction())
    return Application(graph, formula, prediction, matches)


def reduced_ring(field_orders: Sequence[int]) -> Application:
    """Gamma(prod F_i) of the reduced ring, a product of finite fields of
    these orders: nonzero tuples with a zero coordinate, adjacent when the
    coordinatewise product vanishes, i.e. the supports are disjoint.  The
    labels are the coordinate tuples, which makes this graph literally equal
    to the zero-divisor graph of the product of chains with sizes |F_i|."""
    qs = tuple(field_orders)
    # the budget first: the primality test is slow on a large prime
    check_element_budget(" x ".join(f"GF({q})" for q in qs), prod(qs))
    for q in qs:
        prime_power_base(q)
    return _application(
        _reduced_ring_vertices(qs), None,
        lambda: reduced_ring_sdim_formula(qs),
        "product-of-chains zero-divisor graph",
        lambda: zero_divisor_graph(product_of_chains(qs)))


def comaximal(prime_powers: Sequence[tuple[int, int]]) -> Application:
    """Gamma_2'(R) for R = prod Z_{p_i^{e_i}} given as (prime, exponent)
    pairs: the non-units outside the Jacobson radical, x ~ y iff x and y
    generate the whole ring, i.e. every coordinate has a unit on at least
    one side."""
    pairs = tuple(prime_powers)
    # every exponent and the budget first: the primality test is slow on a
    # large prime.  A modulus over 64 bits is named Z_(p^e)
    for _, e in pairs:
        if e < 1:
            raise NotPrimePower(f"exponent {e} must be >= 1")
    check_power_budget(" x ".join(
        f"Z_{p ** e}" if e * (abs(p).bit_length() - 1) < 64
        and (p ** e).bit_length() <= 64 else f"Z_({p}^{e})"
        for p, e in pairs), pairs)
    for p, _ in pairs:
        if p < 2 or next(_prime_powers(p))[0] != p:
            raise NotPrimePower(f"{p} is not prime")
    return _application(
        _comaximal_vertices(pairs), len(pairs),
        lambda: comaximal_sdim_formula(pairs),
        "blow-up zero-divisor graph", lambda: _comaximal_construction(pairs))


def comaximal_ideal(N: int) -> Application:
    """CG(Z_N): proper nonzero ideals dZ_N outside the Jacobson radical,
    adjacent when the ideals sum to the whole ring, i.e. gcd(d, e) = 1."""
    if N < 2:
        raise ValueError("comaximal ideal graph needs N >= 2")
    check_element_budget(f"Z_{N}", N)
    return _application(
        _comaximal_ideal_vertices(N), None,
        lambda: comaximal_ideal_sdim_formula(N),
        "dual ideal-lattice zero-divisor graph",
        lambda: zero_divisor_graph(ideal_lattice_dual_zn(N)))


def component_union(n: int, q: int) -> Application:
    """UG(V) for an n-dimensional space over a field of order q: nonzero
    vectors, adjacent when their supports cover the whole basis."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    check_power_budget(f"GF({q})^{n}", [(q, n)])
    prime_power_base(q)
    return _application(
        _component_union_vertices(n, q), n,
        lambda: component_union_sdim_formula(n, q),
        "join of blow-up graph with K_t",
        lambda: _component_union_construction(n, q))
