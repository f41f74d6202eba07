"""Brute-force oracles the fast implementations are checked against."""

import itertools

from ramsey.arrowing import _lex_violated
from ramsey.graphs import (
    Graph,
    _bits,
    canonical_form,
    from_edges,
    graph6_decode,
    graph6_encode,
    lex_edges,
)


def brute_embeds(h: Graph, g: Graph) -> bool:
    """Try every injective vertex map."""
    if h.n > g.n:
        return False
    hedges = h.edges()
    adj = g.adj
    for image in itertools.permutations(range(g.n), h.n):
        # a plain loop, not all() over a generator: 4-5 times faster on
        # the 9! maps of a 9-vertex pattern
        for a, b in hedges:
            if not adj[image[a]] >> image[b] & 1:
                break
        else:
            return True
    return False


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Equal order and size, and some injective vertex map of a into b
    keeps every edge: then it is a bijection onto b's edges."""
    return a.n == b.n and a.q == b.q and brute_embeds(a, b)


def brute_refine_colors(g: Graph) -> list[int]:
    """Iterated degree refinement, round after round until a round changes
    no colour: the plain loop graphs._refine_colors is checked against."""
    n, adj = g.n, g.adj
    nbrs = [list(_bits(row)) for row in adj]
    colors = [len(nb) for nb in nbrs]
    for _ in range(n):
        keys = [(colors[v], tuple(sorted([colors[u] for u in nbrs[v]]))) for v in range(n)]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colors:
            break
        colors = new
    return colors


def brute_canonical_form(g: Graph) -> Graph:
    """Try every relabeling that lists the brute_refine_colors cells in
    colour order; keep the one whose upper triangle, read column by column,
    is least."""
    colors = brute_refine_colors(g)
    cells = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
    best = None
    for parts in itertools.product(*(itertools.permutations(cell) for cell in cells)):
        perm = [v for part in parts for v in part]
        bits = [g.has_edge(perm[i], perm[j]) for j in range(g.n) for i in range(j)]
        if best is None or bits < best[0]:
            best = (bits, perm)
    perm = best[1]
    return from_edges(g.n, [(i, j) for j in range(g.n) for i in range(j)
                            if g.has_edge(perm[i], perm[j])])


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


def brute_lex_leader_search(n: int, red_check, blue_check):
    """The whole-tree DFS that arrowing._split and _search replay between
    them: every edge of K_n in lexicographic order, red before blue, vertex
    0's edges red then blue, and _lex_violated tested on a red edge and on
    a block's first edge.  Each surviving edge goes through its colour's
    anchored check.  Returns (red rows of the first good coloring or None,
    nodes)."""
    edges = lex_edges(n)
    red = [0] * n
    blue = [0] * n
    col = [-1] * len(edges)
    nodes = 0

    def dfs(k: int) -> bool:
        nonlocal nodes
        if k == len(edges):
            return True
        u, v = edges[k]
        # vertex 0's edges are non-increasing (red then blue)
        for color in (1, 0) if k == 0 or k >= n - 1 or col[k - 1] == 1 else (0,):
            nodes += 1
            rows, check = (red, red_check) if color else (blue, blue_check)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            lex = (color or v == u + 1) and _lex_violated(red, u, v)
            if not (lex or check(rows, n, u, v)):
                col[k] = color
                if dfs(k + 1):
                    return True
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        return False

    found = dfs(0)
    return (red if found else None), nodes


def brute_graphs(n: int) -> list[Graph]:
    """Every graph on n vertices up to isomorphism: each graph on one vertex
    fewer, joined to a new vertex by every subset, repeats removed by
    canonical graph6 key."""
    level = {graph6_encode(from_edges(0, []))}
    for m in range(1, n + 1):
        grown = set()
        for key in level:
            g = graph6_decode(key)
            for nbrs in range(1 << (m - 1)):
                h = from_edges(m, g.edges() + [(v, m - 1) for v in range(m - 1) if nbrs >> v & 1])
                grown.add(graph6_encode(canonical_form(h)))
        level = grown
    return [graph6_decode(key) for key in sorted(level)]


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


def brute_orbit_labels(g: Graph) -> list[int]:
    """label[v]: the least vertex u that some automorphism of g maps onto v,
    found by backtracking over vertex maps that start u -> v and keep
    adjacency to the vertices mapped so far."""
    n = g.n
    degs = g.degrees()

    def extend(order: list[int], img: list[int]) -> bool:
        # img[k] is the image of order[k]
        k = len(img)
        if k == n:
            return True
        x = order[k]
        for y in range(n):
            if y in img or degs[y] != degs[x]:
                continue
            if all(g.has_edge(x, order[i]) == g.has_edge(y, img[i]) for i in range(k)):
                if extend(order, img + [y]):
                    return True
        return False

    return [next(u for u in range(v + 1)
                 if extend([u] + [w for w in range(n) if w != u], [v]))
            for v in range(n)]
