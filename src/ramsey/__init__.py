"""Exact small Ramsey numbers r(F, G) by exhaustive symmetry-broken
two-coloring search, plus the sweep that checks the paper's edge-count
upper bounds against the exact values."""

from ramsey.graphs import (
    Graph,
    GraphError,
    canonical_form,
    components,
    disjoint_union,
    embeds,
    from_edges,
    graph6_decode,
    graph6_encode,
    is_connected,
    isomorphic,
    lex_edges,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "canonical_form",
    "components",
    "disjoint_union",
    "embeds",
    "from_edges",
    "graph6_decode",
    "graph6_encode",
    "is_connected",
    "isomorphic",
    "lex_edges",
    "__version__",
]
