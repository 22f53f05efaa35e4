"""Exact independence polynomials of small graphs, with coefficient-sequence
and real-rootedness checkers.

The public names below are loaded on first use (PEP 562), each from its own
module, so `python -m indpoly` imports only the modules its subcommand runs.
"""

import importlib

# module -> the public names it defines
_PUBLIC = {
    "engine": (
        "brute_force_independence_polynomial",
        "independence_polynomial",
    ),
    "graphs": (
        "CapacityError",
        "Graph",
        "GraphError",
        "GraphParseError",
        "alpha",
        "build_family",
        "components",
        "delete_closed_neighborhood",
        "delete_vertex",
        "induced_subgraph",
        "is_claw_free",
        "is_well_covered",
        "parse_edge_list",
        "parse_graph6",
        "tree_canonical_code",
    ),
    "polynomials": (
        "IntPoly",
        "PropertyReport",
        "coeffs_as_strings",
        "count_distinct_real_roots",
        "is_log_concave",
        "is_symmetric",
        "is_unimodal",
        "newton_check",
        "property_report",
        "real_rooted",
        "shift_basis",
        "square_free_part",
    ),
    "products": (
        "disjoint_union",
        "join",
        "join_poly",
        "lex_poly",
        "lexicographic",
        "multipartite_poly",
        "rooted_factors",
        "rooted_product",
        "rooted_product_poly",
        "union_poly",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
