"""Exhaustive generation of pairwise non-isomorphic graphs with a given
edge count — the quantifier domain of the bound sweeps.

Classes with q edges are grown from the (q-1)-edge classes: add an edge
between existing vertices, hang an edge on a new vertex, or drop in a new
disjoint edge.  Every isolate-free q-edge graph arises this way (remove any
edge and discard the exposed isolates), so canonical dedup makes the list
complete.

Two candidate edges that an automorphism of the parent maps onto each
other grow the same class, so each parent's candidates are grouped into
orbits under the parent's automorphism generators (non-edges as orbits
of vertex pairs, pendant edges as orbits of vertices) and only one per
orbit goes through canonical_form.  The generators come from the search
that labelled the parent one level down: canonical_form hands back the
automorphisms it met, carried onto the form, and each class keeps them
until the next level has used them; the last level keeps none.  So each
canonical_form call is one search, and no parent is searched again.  The
generators need not generate the whole automorphism group: any set of
automorphisms merges only candidates that grow one class, so the list
stays complete.

Of the children that remain, only those whose new edge (i, j) has the
greatest value of a cheap edge invariant, (max(deg i, deg j),
min(deg i, deg j), |N(i) & N(j)|) in the child, go through canonical_form
(a test that comes before the canonical labelling, as in McKay's
"Isomorph-free exhaustive generation", J. Algorithms 1998).  This keeps
the list complete.  Let G be any class and e* an edge of G whose
invariant is greatest.  G - e*, less its exposed isolates, is a parent P
at level q-1, and some candidate of P grows G with e* as the new edge.
The orbit root that stands for that candidate grows G through an
isomorphism that maps the new edge onto e*.  The invariant is preserved
under isomorphism, so that child passes the test.  Ties pass too, and
the dict of canonical keys still removes repeats.

A vertex cap bounds every level, since removing an edge and its exposed
isolates never adds a vertex; nothing is cached between calls.  q = 8
(497 classes from 901 canonical forms and as many searches; 3,393 forms
without the invariant test and 8,252 without the orbits either) takes
about 80 ms on a 2-CPU Intel Xeon with Python 3.11, and q = 10 (4,613
classes from 8,545) about 0.9-1.0 s.

With isolated vertices allowed, g with k = 0, 1, ... isolated vertices
up to the cap is a class of its own for each class g, and its canonical
form is built with no search: k zero rows, then g's form shifted up by k
(see enumerate_graphs).  q = 8 gives 4,049 graphs from 901 forms, 0.12 s.
"""

from __future__ import annotations

from typing import Optional

from ramsey.graphs import (
    Graph,
    MAX_VERTICES,
    _bits,
    _unchecked_graph,
    canonical_form,
    from_edges,
    graph6_encode,
    is_connected,
)


class EnumFilter:
    """What to enumerate: all q-edge graphs, one per isomorphism class.

    max_vertices is the vertex cap, 2..MAX_VERTICES; given None, it is
    min(2q, MAX_VERTICES), as an isolate-free graph with q edges has at most
    2q vertices.  It also caps the padding when isolates are allowed.
    """

    __slots__ = ("q", "require_isolate_free", "require_connected", "max_vertices")

    def __init__(self, q: int, require_isolate_free: bool = True,
                 require_connected: bool = False, max_vertices: Optional[int] = None):
        if q < 1:
            raise ValueError(f"edge count must be >= 1, got {q}")
        if max_vertices is None:
            max_vertices = min(2 * q, MAX_VERTICES)
        if not 2 <= max_vertices <= MAX_VERTICES:
            raise ValueError(f"max_vertices {max_vertices} outside 2..{MAX_VERTICES}")
        self.q = q
        self.require_isolate_free = require_isolate_free
        self.require_connected = require_connected
        self.max_vertices = max_vertices


def _edge_invariant(adj, i: int, j: int) -> tuple[int, int, int]:
    """(max degree, min degree, common neighbours) of the edge (i, j) in the
    graph with adjacency rows adj: a value every isomorphism preserves."""
    di, dj = adj[i].bit_count(), adj[j].bit_count()
    return (max(di, dj), min(di, dj), (adj[i] & adj[j]).bit_count())


def _children(h: Graph, h_autos: list[list[int]], cap: int):
    """The children of class h, one edge more and at most cap vertices, that
    pass the orbit and edge-invariant tests; h_autos are automorphisms of
    h."""
    n = h.n
    m = n + 1
    # a new edge (i, j) raises the invariants of the edges at i or j and
    # leaves the rest as they are in h, so none of them exceeds h's greatest
    h_top = max([_edge_invariant(h.adj, a, b) for a, b in h.edges()])
    # candidate edges (i, j), i < j <= n, where j = n hangs the edge on a
    # new vertex; an automorphism of h (fixing n) maps a candidate onto one
    # that grows the same class, so only one per orbit is kept: the first
    # in this order, whose orbit is then walked and marked, keyed i * m + j
    cands = [(i, j) for i in range(n) for j in range(i + 1, min(m, cap))
             if not h.adj[i] >> j & 1]
    gens = [gamma + [n] for gamma in h_autos]
    seen: set[int] = set()
    grown = []
    for i, j in cands:
        if i * m + j in seen:
            continue
        grown.append((i, j))
        seen.add(i * m + j)
        walk = [(i, j)]
        for a, b in walk:
            for gamma in gens:
                x, y = gamma[a], gamma[b]
                if x > y:
                    x, y = y, x
                if x * m + y not in seen:
                    seen.add(x * m + y)
                    walk.append((x, y))
    if n + 2 <= cap:
        grown.append((n, n + 1))
    for i, j in grown:
        adj = list(h.adj) + [0] * (j + 1 - n)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        # some child of each class has a new edge of greatest invariant
        top = _edge_invariant(adj, i, j)
        if h_top > top or any(_edge_invariant(adj, a, b) > top
                              for a, c in ((i, j), (j, i)) for b in _bits(adj[a] ^ (1 << c))):
            continue
        yield _unchecked_graph(len(adj), adj)


def _isolate_free_classes(q: int, cap: int = MAX_VERTICES,
                          autos: list[list[list[int]]] | None = None) -> list[Graph]:
    """Canonical representatives of all isolate-free graphs with exactly q
    edges and at most cap vertices, sorted by (n, graph6).  Given a list as
    autos, appends to it, class by class, the automorphisms that
    canonical_form met while labelling that class."""
    if q == 1:
        children = [from_edges(2, [(0, 1)])]
    else:
        parent_autos: list[list[list[int]]] = []
        parents = _isolate_free_classes(q - 1, cap, parent_autos)
        children = (c for h, h_autos in zip(parents, parent_autos)
                    for c in _children(h, h_autos, cap))
    seen: dict[str, tuple[Graph, list[list[int]] | None]] = {}
    for child in children:
        gens = None if autos is None else []
        cf = canonical_form(child, autos=gens)
        seen.setdefault(graph6_encode(cf), (cf, gens))
    # graph6 starts with the byte n + 63, so its order is (n, graph6)
    keys = sorted(seen)
    if autos is not None:
        autos += [seen[key][1] for key in keys]
    return [seen[key][0] for key in keys]


def enumerate_graphs(f: EnumFilter) -> list[Graph]:
    """One canonical representative per isomorphism class matching the
    filter, sorted by (n, canonical graph6 string)."""
    cap = f.max_vertices
    base = _isolate_free_classes(f.q, cap)
    if f.require_connected:
        base = [g for g in base if is_connected(g)]
    if f.require_isolate_free or f.require_connected:
        # a graph padded with isolated vertices is never connected
        return base
    # g with k isolated vertices, one class per k up to the cap; its form is
    # g's shifted up by k: refinement gives isolated vertices the least
    # colour and keeps the other cells in their order, so they are placed
    # first, and their all-zero columns leave the least string to g's
    out = [_unchecked_graph(g.n + k, [0] * k + [row << k for row in g.adj])
           for g in base for k in range(cap - g.n + 1)]
    out.sort(key=lambda g: (g.n, graph6_encode(g)))
    return out


def isolate_free_graphs(q: int) -> list[Graph]:
    """Shorthand for the sweeps' domain."""
    return enumerate_graphs(EnumFilter(q=q))
