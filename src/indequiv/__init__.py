"""indequiv: exact independence polynomials of graphs, factorization of
odd-cycle polynomials, and complete independence equivalence classes."""

from .canon import (
    CanonicalRefusalError,
    canonical_graph,
    canonical_key,
    is_isomorphic,
)
from .census import SubgraphCensus, subgraph_census
from .classes import (
    ClassMember,
    ClassReport,
    StructuralChecks,
    alpha_formula,
    component_count_bound,
    describe_graph,
    enumerate_unicyclic,
    exhaustive_class_search,
    structural_checks,
    structured_class_search,
)
from .factors import (
    cyclotomic_poly,
    euler_phi,
    f_poly_by_division,
    f_poly_by_transform,
    factorize_cycle_poly,
    min_poly_2cos,
    root_residual,
    root_values,
)
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .graphs import (
    Graph,
    GraphSpecError,
    cycle,
    d_graph,
    degree_histogram,
    delete_closed_neighborhood,
    delete_edge_closure,
    delete_vertex,
    is_unicyclic,
    named_graph,
    path,
    union,
)
from .gspec import parse_spec
from .indpoly import (
    PolyCache,
    independence_number,
    indpoly,
    indpoly_bruteforce,
    indpoly_edge_rule_check,
)
from .intpoly import (
    ExactDivisionError,
    IntPoly,
    cycle_coeff,
    cycle_poly,
    eval_float,
    is_unicyclic_poly,
    path_coeff,
    path_poly,
    poly_exact_div,
    primitive_part,
)
from .ledger import LedgerEntry, run_ledger

__version__ = "0.1.0"
