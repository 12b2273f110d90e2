"""Zero-divisor graphs of finite lattices and their strong metric dimension.

Build Boolean lattices and their chain blow-ups, construct zero-divisor and
related graphs, and compute the strong metric dimension three independent
ways: by closed formula, by the strong-resolving-graph vertex-cover
reduction, and by definition-level brute force.
"""

from .blowup import (BlowupSpec, blowup_label, boolean_lattice, build_blowup,
                     canonical_blowup_of, product_of_chains,
                     random_blowup_spec, tuple_label)
from .errors import (CycleDetected, Disconnected, HypothesisUnmet,
                     InvalidSpec, LabelCollision, NotALattice, NotApplicable,
                     NotAZeroDivisor, NotBounded, NotPrimePower,
                     NotZeroDistributive, TooLarge, UnknownElement,
                     UnknownSuite, ZdgError)
from .graphs import (SimpleGraph, boolean_ring_annihilator_graph,
                     boolean_ring_zdg, comparability_graph, complete_graph,
                     complete_graph_on, connected_components, disjoint_union,
                     graph_from_json, graph_join, incomparability_graph,
                     labeled_equal, remove_isolated, zero_divisor_graph)
from .metric import (DEFAULT_BRUTE_CAP, beta_gsr_formula, boundary, diameter,
                     distance_balls, distance_by_pseudocomplement, gstar,
                     gstar_star, independence_number, is_resolving,
                     is_strong_resolving, max_independent_set,
                     metric_dimension_bruteforce, minimum_strong_resolving_set,
                     minimum_vertex_cover, mutually_maximally_distant,
                     sdim_bruteforce, sdim_formula, sdim_via_gsr,
                     strong_resolving_graph, twin_reduce,
                     vertex_cover_number)
from .poset import (ClassPartition, FinitePoset, from_cover_relations,
                    m_lattice, poset_from_json, poset_to_json)

__version__ = "0.1.0"
