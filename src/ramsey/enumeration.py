"""Exhaustive generation of pairwise non-isomorphic graphs with a given
edge count — the quantifier domain of the bound sweeps.

Classes with q edges come from the (q-1)-edge classes in two ways.  A
class with a K2 component is P u K2 for exactly one class P one level
down, since K2 components cancel under isomorphism, and its canonical
form is built from P's with no search (K2 lead, below).  Every other
class is grown from a parent by a new edge between existing vertices or
hung on a new vertex, and labelled by canonical_form.  Every isolate-free
q-edge graph arises one of these ways (remove any edge and discard the
exposed isolates), so canonical dedup makes the list complete.

K2 lead.  In an isolate-free graph a vertex of a K2 component has the
round-1 refinement key (1, (1,)), the least key any vertex can have, so
the K2 vertices form the first cell, and every later round keeps the
other cells in their order, shifted by one.  They have no edges to the
rest, so the least string splits into two blocks: the form of H u mK2
is mK2's form, the edges (i, 2m-1-i), followed by H's form shifted up by
2m.  So the form of P u K2 is the block for one pair more than P leads
with, then P's rows after its own block shifted up by 2.

Two candidate edges that an automorphism of the parent maps onto each
other grow the same class, so each parent's candidates are grouped into
orbits under the parent's automorphism generators (non-edges as orbits
of vertex pairs, pendant edges as orbits of vertices) and only one per
orbit goes through canonical_form.  A labelled class keeps the
automorphisms that canonical_form met while labelling it, carried onto
the form; a built class gets its block's (swap the ends of the outer
pair, swap each pair with the next) and P's, moved onto the rest.  Each
level returns its classes with their generators, and the next level
walks its orbits with them.  So each canonical_form call is one search,
and no parent is searched again.  The generators need not generate the
whole automorphism group: any set of automorphisms merges only
candidates that grow one class, so the list stays complete.  The built
classes need theirs: with none, q = 8 makes 801 canonical forms, not 582.

Grown children that keep a K2 component of the parent are dropped, with
the disjoint edge, before the orbits are walked: their classes are
built.  Of the children that remain, only those whose new edge (i, j) has
the greatest value of a cheap edge invariant, (max(deg i, deg j),
min(deg i, deg j), |N(i) & N(j)|) in the child, go through canonical_form
(a test that comes before the canonical labelling, as in McKay's
"Isomorph-free exhaustive generation", J. Algorithms 1998).  This keeps
the list complete.  Let G be any class with no K2 component and e* an
edge of G whose invariant is greatest.  G - e*, less its exposed
isolates, is a parent P at level q-1, and some candidate of P grows G
with e* as the new edge.  e* is not a K2 component of G, so that
candidate is not the disjoint edge, and it touches every K2 component of
P, or G would keep one; so it is not dropped, nor is any candidate in
its orbit, as automorphisms map K2 components onto K2 components.  The
orbit root that stands for that candidate grows G through an isomorphism
that maps the new edge onto e*.  The invariant is preserved under
isomorphism, so that child passes the test.  Ties pass too, and the dict
of canonical keys still removes repeats.

A vertex cap bounds every level, since removing an edge and its exposed
isolates never adds a vertex; nothing is cached between calls.  q = 8
gives 497 classes; of the 787 classes at levels 1..8, 291 are built and
the rest come from 582 canonical forms, one search each (901 when every
class was labelled, 3,393 without the invariant test and 8,252 without
the orbits either).  q = 10 gives 4,613 classes from 5,837 forms (8,545
when every class was labelled).  On a 2-CPU Intel Xeon with Python 3.11,
q = 8 takes about two thirds of the time it took with every class
labelled, 87-106 ms against 148-159 ms, and q = 10 1.0-1.1 s against
1.4-1.6 s.

With isolated vertices allowed, g with k = 0, 1, ... isolated vertices
up to the cap is a class of its own for each class g, and its canonical
form is built with no search: k zero rows, then g's form shifted up by k
(see enumerate_graphs).  q = 8 gives 4,049 graphs from 582 forms.
"""

from __future__ import annotations

from typing import Optional

from ramsey.graphs import (
    Graph,
    MAX_VERTICES,
    _bits,
    _unchecked_graph,
    canonical_form,
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


def _k2_lead(h: Graph) -> int:
    """The number s of vertices in the K2 components of h, a canonical form
    of an isolate-free graph with n >= 1: they are vertices 0..s-1, vertex
    i paired with s-1-i, so vertex 0 shows whether there are any."""
    top = h.adj[0].bit_length() - 1
    return top + 1 if h.adj[0] == 1 << top and h.adj[top] == 1 else 0


def _children(h: Graph, h_autos: list[list[int]], cap: int):
    """The children of class h, one edge more, at most cap vertices and no
    K2 component, that pass the orbit and edge-invariant tests; h_autos
    are automorphisms of h."""
    n = h.n
    m = n + 1
    # candidate edges (i, j), i < j <= n, where j = n hangs the edge on a
    # new vertex.  A child that keeps a K2 component of h is P u K2 for a
    # class P at h's level and is built from P, so a candidate touches
    # each of h's K2 components, vertices 0..s-1: with one, (0, 1), i < 2;
    # with two, (0, 3) and (1, 2), j < 4; with more, none does.  The
    # disjoint edge (n, n + 1) is no candidate: h u K2 is built from h.
    s = _k2_lead(h)
    i_end, j_end = {0: (n, m), 2: (2, m), 4: (3, 4)}.get(s, (0, 0))
    cands = [(i, j) for i in range(i_end) for j in range(i + 1, min(j_end, cap))
             if not h.adj[i] >> j & 1]
    # an automorphism of h (fixing n) maps a candidate onto one that grows
    # the same class and touches the same K2 components, so only one per
    # orbit is kept: the first in this order, whose orbit is then walked
    # and marked, keyed i * m + j
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
    # a new edge (i, j) raises the invariants of the edges at i or j and
    # leaves the rest as they are in h, so none of them exceeds h's greatest
    h_top = max([_edge_invariant(h.adj, a, b) for a, b in h.edges()])
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


def _plus_k2(h: Graph, h_autos: list[list[int]]) -> tuple[Graph, list[list[int]]]:
    """The canonical form of h u K2, for h a canonical form of an
    isolate-free graph, built with no search, and automorphisms of it: the
    t = s + 2 K2 vertices first, vertex i paired with t-1-i, then h's rows
    from s on shifted up by 2.  The automorphisms swap the ends of the
    outer pair, swap each pair with the next, and move the rest as each of
    h_autos moves h's vertices from s on."""
    n = h.n
    s = _k2_lead(h) if n else 0
    t = s + 2
    rows = [1 << (t - 1 - i) for i in range(t)] + [row << 2 for row in h.adj[s:]]
    ident = list(range(n + 2))
    outer = ident[:]
    outer[0], outer[t - 1] = t - 1, 0
    gens = [outer]
    for p in range(t // 2 - 1):
        # pair p is (p, t-1-p), pair p+1 is (p+1, t-2-p)
        gamma = ident[:]
        gamma[p], gamma[p + 1], gamma[t - 2 - p], gamma[t - 1 - p] = p + 1, p, t - 1 - p, t - 2 - p
        gens.append(gamma)
    gens += [ident[:t] + [gamma[v] + 2 for v in range(s, n)] for gamma in h_autos]
    return _unchecked_graph(n + 2, rows), gens


def _isolate_free_classes(q: int, cap: int = MAX_VERTICES) -> list[tuple[Graph, list[list[int]]]]:
    """Canonical representatives of all isolate-free graphs with exactly q
    edges and at most cap vertices, each with automorphisms of it, sorted
    by (n, graph6).  A class with a K2 component is P u K2 for the one class
    P at level q-1 that is that class less one K2, and is built from P's
    form with the automorphisms _plus_k2 gives; the others are the
    canonical forms of the (q-1)-edge classes' children, with the
    automorphisms canonical_form met while labelling them."""
    parents = [(_unchecked_graph(0, []), [])] if q == 1 else _isolate_free_classes(q - 1, cap)
    seen = dict(_plus_k2(h, h_autos) for h, h_autos in parents if h.n + 2 <= cap)
    for h, h_autos in parents:
        # the empty graph, K2's parent at q = 1, has no children
        for child in _children(h, h_autos, cap) if h.n else ():
            gens: list[list[int]] = []
            seen.setdefault(canonical_form(child, autos=gens), gens)
    # graph6 starts with the byte n + 63, so its order is (n, graph6)
    return sorted(seen.items(), key=lambda item: graph6_encode(item[0]))


def enumerate_graphs(f: EnumFilter) -> list[Graph]:
    """One canonical representative per isomorphism class matching the
    filter, sorted by (n, canonical graph6 string)."""
    cap = f.max_vertices
    base = [g for g, _ in _isolate_free_classes(f.q, cap)]
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
    out.sort(key=graph6_encode)
    return out


def isolate_free_graphs(q: int) -> list[Graph]:
    """Shorthand for the sweeps' domain."""
    return enumerate_graphs(EnumFilter(q=q))
