"""Brute-force oracles the fast implementations are checked against."""

import itertools

from ramsey.graphs import Graph, canonical_form, from_edges, graph6_encode, lex_edges


def brute_embeds(h: Graph, g: Graph) -> bool:
    """Try every injective vertex map."""
    if h.n > g.n:
        return False
    hedges = h.edges()
    for image in itertools.permutations(range(g.n), h.n):
        if all(g.has_edge(image[a], image[b]) for a, b in hedges):
            return True
    return False


def brute_has_matching(g: Graph, m: int, avail: int | None = None) -> bool:
    """Try every matching, grown edge by edge in lexicographic order, of the
    subgraph induced by avail (default: all of g) for one with m edges."""
    if avail is None:
        avail = (1 << g.n) - 1
    edges = [(i, j) for i, j in g.edges() if (avail >> i) & 1 and (avail >> j) & 1]

    def grow(start: int, used: frozenset, size: int) -> bool:
        if size >= m:
            return True
        for k in range(start, len(edges)):
            i, j = edges[k]
            if i not in used and j not in used and grow(k + 1, used | {i, j}, size + 1):
                return True
        return False

    return grow(0, frozenset(), 0)


def brute_good_coloring_exists(n: int, F: Graph, G: Graph) -> bool:
    """Scan all 2^C(n,2) total colorings, no pruning, no symmetry."""
    edges = lex_edges(n)
    for bits in range(1 << len(edges)):
        red = [e for k, e in enumerate(edges) if (bits >> k) & 1]
        blue = [e for k, e in enumerate(edges) if not (bits >> k) & 1]
        R = from_edges(n, red)
        B = from_edges(n, blue)
        if not brute_embeds(F, R) and not brute_embeds(G, B):
            return True
    return False


def brute_graph_classes(q: int) -> set[str]:
    """Canonical graph6 keys of every isolate-free graph with q edges,
    found by trying all q-subsets of E(K_{2q})."""
    full = lex_edges(2 * q)
    seen = set()
    for sub in itertools.combinations(full, q):
        verts = sorted({v for e in sub for v in e})
        index = {v: i for i, v in enumerate(verts)}
        g = from_edges(len(verts), [(index[a], index[b]) for a, b in sub])
        seen.add(graph6_encode(canonical_form(g)))
    return seen
