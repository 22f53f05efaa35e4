"""Exact independence polynomials of small graphs, with coefficient-sequence
and real-rootedness checkers."""

from .engine import (
    brute_force_independence_polynomial,
    coefficient,
    frontier_independence_polynomial,
    independence_polynomial,
)
from .graphs import (
    CapacityError,
    FamilySpec,
    Graph,
    GraphError,
    GraphParseError,
    alpha,
    build_family,
    components,
    delete_closed_neighborhood,
    delete_vertex,
    emit_edge_list,
    emit_graph6,
    induced_subgraph,
    is_claw_free,
    is_well_covered,
    parse_edge_list,
    parse_graph6,
    prufer_decode,
    tree_canonical_code,
)
from .polynomials import (
    IntPoly,
    PropertyReport,
    coeffs_as_strings,
    count_distinct_real_roots,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    newton_check,
    property_report,
    real_rooted,
    shift_basis,
    square_free_part,
)
from .products import (
    disjoint_union,
    join,
    join_poly,
    lex_poly,
    lexicographic,
    multipartite_poly,
    rooted_factors,
    rooted_product,
    rooted_product_poly,
    union_poly,
)

__version__ = "0.1.0"
