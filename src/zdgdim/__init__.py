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
from .graphs import (SimpleGraph, complete_graph_on, connected_components,
                     graph_join, remove_isolated, zero_divisor_graph)
from .metric import (DEFAULT_BRUTE_CAP, beta_gsr_formula, diameter,
                     distance_balls, distance_by_pseudocomplement, gstar,
                     gstar_star, independence_number, is_strong_resolving,
                     max_independent_set, minimum_vertex_cover,
                     sdim_bruteforce, sdim_formula, sdim_via_gsr,
                     strong_resolving_graph, twin_reduce)
from .poset import (ClassPartition, FinitePoset, from_cover_relations,
                    m_lattice, poset_from_json, poset_to_json)

__version__ = "0.1.0"
