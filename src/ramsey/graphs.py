"""Small simple undirected graphs over bitmask adjacency rows.

A graph on n <= 32 vertices stores one int bitmask per vertex, so adjacency
tests, neighbourhood intersections and degree counts are single-word
operations.  Everything here is pure and allocation-light; Graph values are
immutable and safe to share between search workers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

MAX_VERTICES = 32


class GraphError(ValueError):
    """Invalid graph construction or malformed graph input."""


def _bits(mask: int):
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, n <= 32.

    adj[v] is the neighbour bitmask of v.  The edge order used throughout
    the package is the lexicographic order of pairs (i, j) with i < j.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        adj = tuple(adj)
        if not 0 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise GraphError(f"adjacency has {len(adj)} rows, expected {n}")
        full = (1 << n) - 1
        for i, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"row {i} references a vertex >= {n}")
            if (row >> i) & 1:
                raise GraphError(f"self-loop at vertex {i}")
        for i, row in enumerate(adj):
            for j in _bits(row):
                if not (adj[j] >> i) & 1:
                    raise GraphError(f"asymmetric adjacency between {i} and {j}")
        self.n = n
        self.adj = adj

    @property
    def q(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j), i < j, in lexicographic order."""
        return [(i, j) for i in range(self.n) for j in _bits(self.adj[i] >> (i + 1) << (i + 1))]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()})"

    def __getstate__(self):
        return (self.n, self.adj)

    def __setstate__(self, state):
        self.n, self.adj = state


def lex_edges(n: int) -> list[tuple[int, int]]:
    """All edges of K_n as (i, j), i < j, lexicographic."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an explicit edge list.

    Rejects loops, duplicate edges (in either orientation) and endpoints
    outside 0..n-1.
    """
    adj = [0] * n
    seen = set()
    for e in edges:
        i, j = e
        if i == j:
            raise GraphError(f"loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge {e} out of range for n={n}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, adj)


def is_connected(g: Graph) -> bool:
    """The empty graph and K_1 count as connected."""
    return len(_component_masks(g)) <= 1


def _component_masks(g: Graph) -> list[int]:
    """Vertex bitmask of each connected component, in order of its smallest
    vertex."""
    masks = []
    remaining = (1 << g.n) - 1
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
            comp |= nxt
        masks.append(comp)
        remaining &= ~comp
    return masks


def components(g: Graph) -> list[Graph]:
    """Connected components as separate graphs, re-indexed, in order of
    their smallest original vertex."""
    out = []
    for comp in _component_masks(g):
        verts = list(_bits(comp))
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for v in verts:
            for w in _bits(g.adj[v]):
                adj[index[v]] |= 1 << index[w]
        out.append(Graph(len(verts), adj))
    return out


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are shifted up by a.n."""
    n = a.n + b.n
    if n > MAX_VERTICES:
        raise GraphError(f"union has {n} vertices, cap is {MAX_VERTICES}")
    adj = list(a.adj) + [row << a.n for row in b.adj]
    return Graph(n, adj)


def complement(g: Graph) -> Graph:
    """The graph on g's vertices whose edges are the pairs g leaves out."""
    full = (1 << g.n) - 1
    return Graph(g.n, [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)])


# ---------------------------------------------------------------------------
# canonical labeling
# ---------------------------------------------------------------------------

def _refine_colors(g: Graph) -> list[int]:
    """Iterated degree refinement: vertices get dense colours such that any
    isomorphism preserves colours.  Stops once the partition is stable."""
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


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def canonical_form(g: Graph) -> Graph:
    """A fixed representative of g's isomorphism class.

    Vertices are first partitioned by iterated degree refinement; the result
    is the relabeling, among those that list each refinement cell in order of
    its colour, whose upper-triangle bit string (column-major, the graph6 bit
    order) is lexicographically least.  _canonical_search finds it, and
    meets automorphisms of g on the way: one per leaf whose string equals
    the best, and the transposition of each pair of twins it prunes.
    automorphism_generators(g) returns those.
    """
    n = g.n
    if n <= 1:
        return Graph(n, g.adj)
    best_perm = _canonical_search(g)[0]
    pos = [0] * n
    for p, v in enumerate(best_perm):
        pos[v] = p
    return Graph(n, [sum([1 << pos[w] for w in _bits(g.adj[v])]) for v in best_perm])


def automorphism_generators(g: Graph) -> list[list[int]]:
    """Automorphisms of g, each as a list gamma mapping v to gamma[v], that
    canonical_form's search meets on its way: the leaf automorphisms it
    records, then the transposition of each pair of twins it prunes.

    They need not generate the whole automorphism group, but each one is
    an automorphism, so the orbits they generate lie inside g's orbits.
    """
    n = g.n
    if n <= 1:
        return []
    _, autos, twins = _canonical_search(g)
    for u, v in sorted(twins):
        gamma = list(range(n))
        gamma[u], gamma[v] = v, u
        autos.append(gamma)
    return autos


def _canonical_search(g: Graph) -> tuple[list[int], list[list[int]], set[tuple[int, int]]]:
    """(best_perm, autos, twins) for g on n >= 2 vertices: best_perm lists
    the vertices in canonical_form's order, autos holds the leaf
    automorphisms found and twins the pairs (u, v) pruned as twins.

    A depth-first search places one vertex per position and prunes with the
    partial bit string, in the manner of McKay's "Practical graph
    isomorphism" (1981):
    - least column: at position p only the candidates whose column (their
      adjacency to the vertices placed so far) is least are tried, since any
      other gives a greater string; that column is compared with the best
      string's once per node;
    - leaf automorphisms: a leaf whose string equals the best gives the
      automorphism best_perm[i] -> placed[i], which is recorded; the search
      then jumps back to the first position where the two labelings differ,
      as the subtree it left is that automorphism's image of the best's;
    - orbit pruning: a candidate that the recorded automorphisms fixing the
      placed vertices map from a candidate already tried is skipped, and so
      is a twin (same neighbours apart from each other) of one, since
      swapping the two is an automorphism.
    None of these changes which string is least, only how fast it is found.
    """
    n, adj = g.n, g.adj
    colors = _refine_colors(g)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    cell_at = [by_color[c] for c in sorted(colors)]
    nbrs = [list(_bits(row)) for row in adj]

    placed = [0] * n
    cols = [0] * n
    # key[v] has bit n-1-i set iff v is adjacent to placed[i], so at
    # position p it is v's column shifted left by n-p
    key = [0] * n
    best_cols: list[int] | None = None
    best_perm: list[int] | None = None
    autos: list[list[int]] = []
    twins: set[tuple[int, int]] = set()

    def dfs(p: int, eq: bool, used: int) -> int:
        """Search below the prefix placed[:p]; eq says its columns equal the
        best's.  Returns the depth to resume at, n for no jump."""
        nonlocal best_cols, best_perm
        if p == n:
            if not eq:
                best_cols = cols[:]
                best_perm = placed[:]
                return n
            gamma = [0] * n
            for i in range(n):
                gamma[best_perm[i]] = placed[i]
            autos.append(gamma)
            d = 0
            while placed[d] == best_perm[d]:
                d += 1
            return d
        cell = [v for v in cell_at[p] if not used >> v & 1]
        least = min([key[v] for v in cell])
        if eq:
            bc = best_cols[p]
            if least > bc:
                return n
            eq = least == bc
        cols[p] = least
        bit = 1 << (n - 1 - p)
        tried: list[int] = []
        orbit: list[int] | None = None  # union-find over the stabiliser's orbits
        seen = 0  # autos already merged into orbit
        for v in cell:
            if key[v] != least:
                continue
            bv = 1 << v
            twin = [u for u in tried if (adj[u] & ~bv) == (adj[v] & ~(1 << u))]
            if twin:
                twins.add((twin[0], v))
                continue
            if tried and seen < len(autos):
                if orbit is None:
                    orbit = list(range(n))
                prefix = placed[:p]
                for gamma in autos[seen:]:
                    if all([gamma[x] == x for x in prefix]):
                        for x in range(n):
                            a, b = _find(orbit, x), _find(orbit, gamma[x])
                            if a != b:
                                orbit[a] = b
                seen = len(autos)
            if orbit is not None:
                r = _find(orbit, v)
                if any(_find(orbit, u) == r for u in tried):
                    continue
            tried.append(v)
            placed[p] = v
            for w in nbrs[v]:
                key[w] |= bit
            back = dfs(p + 1, eq, used | bv)
            for w in nbrs[v]:
                key[w] ^= bit
            if back < p:
                return back
            eq = True  # the prefix now equals the best's, installed or not
        return n

    dfs(0, False, 0)
    assert best_perm is not None
    return best_perm, autos, twins


# ---------------------------------------------------------------------------
# subgraph containment (non-induced monomorphism)
#
# embeds(h, g) is the one containment test in the package.  After its size
# guards it dispatches on h's shape:
# - mK2 (_as_matching): g has m disjoint edges, decided by the matching
#   kernel _has_matching, which the search's check_matching shares;
# - K_{2,k}, k >= 2 (as_biclique): some pair of g's vertices has k common
#   neighbours, one AND per pair;
# - anything else: degree sequences first (pigeonhole: h's i-th largest
#   degree must not exceed g's, or no injection can respect degrees), then
#   the plan kernel.  A star needs no branch of its own, since the
#   pigeonhole decides it and the kernel takes its first candidate.
#
# The plan kernel: a plan fixes the order in which the pattern's vertices
# are placed, and extend_embedding backtracks over host bitmask rows along
# it.  Each plan step lists the positions of the vertex's neighbours placed
# before it, so a candidate image is one AND of their images' rows, and the
# vertex's degree, which a candidate must reach.  embed_plan(h) walks
# components largest first, each breadth-first from its highest-degree
# vertex, so every later vertex of a component has a placed neighbour.
# embed_plan(h, (a, b)) puts a and b first and their component before the
# rest; a caller that maps a and b onto a host edge (u, v) asks whether h
# occurs through that edge, which is what the search's generic anchored
# check needs.
# ---------------------------------------------------------------------------

Plan = list[tuple[list[int], int]]


def embed_plan(h: Graph, anchor: tuple[int, int] | None = None) -> Plan:
    """Placement plan for h: per placed vertex, in order, the positions of
    its earlier-placed neighbours and its degree.  With an anchor edge
    (a, b), steps 0 and 1 are a and b."""
    # lists, not tuples: CPython parks each resized tuple(generator) result
    # on a per-size free list when it dies, which raised peak memory
    deg = [row.bit_count() for row in h.adj]
    lead = 1 << anchor[0] if anchor is not None else 0
    comps = sorted(_component_masks(h),
                   key=lambda m: (not m & lead, -sum(deg[v] for v in _bits(m))))
    order: list[int] = []
    placed = 0
    for comp in comps:
        start = list(anchor) if comp & lead else [max(_bits(comp), key=deg.__getitem__)]
        head = len(order)
        order += start
        placed |= sum(1 << v for v in start)
        while head < len(order):
            for w in sorted(_bits(h.adj[order[head]] & ~placed), key=lambda w: -deg[w]):
                order.append(w)
                placed |= 1 << w
            head += 1
    pos = {v: i for i, v in enumerate(order)}
    return [([pos[w] for w in _bits(h.adj[v]) if pos[w] < i], deg[v])
            for i, v in enumerate(order)]


def extend_embedding(adj: Sequence[int], free: int, plan: Plan, img: list[int], t: int) -> bool:
    """True iff plan's steps t, t+1, ... can be mapped onto distinct
    vertices of the free mask, given the images img[:t] of the earlier
    steps: each image adjacent to the images of the step's placed
    neighbours and of at least the step's degree.  Writes img[t:]."""
    if t == len(plan):
        return True
    nbrs, need = plan[t]
    cand = free
    for p in nbrs:
        cand &= adj[img[p]]
    while cand:
        bit = cand & -cand
        cand ^= bit
        x = bit.bit_length() - 1
        if adj[x].bit_count() >= need:
            img[t] = x
            if extend_embedding(adj, free ^ bit, plan, img, t + 1):
                return True
    return False


def _as_matching(g: Graph) -> int | None:
    """m if g is mK_2."""
    if g.q >= 1 and g.n == 2 * g.q and all(d == 1 for d in g.degrees()):
        return g.q
    return None


def _has_matching(adj: Sequence[int], avail: int, need: int) -> bool:
    """Decision: avail's induced subgraph has a matching of >= need edges.

    Branches only on the neighbours of one vertex v of least positive
    degree.  That loses nothing: if a maximum matching M misses v, then v's
    neighbour w is matched in M (else M + vw is larger), and swapping w's
    edge for vw gives a maximum matching that covers v.
    """
    if need <= 0:
        return True
    if avail.bit_count() < 2 * need:
        return False
    # one scan: drop vertices with no available neighbour (they never
    # match), keep the one with the fewest, stop early at a leaf
    best_nb = 0
    best_deg = 32  # above any degree, since n <= MAX_VERTICES = 32
    rest = avail
    while rest:
        bit = rest & -rest
        rest ^= bit
        nb = adj[bit.bit_length() - 1] & avail
        if not nb:
            avail ^= bit
            continue
        d = nb.bit_count()
        if d < best_deg:
            vbit = bit
            best_nb = nb
            best_deg = d
            if d == 1:
                break
    while best_nb:
        wbit = best_nb & -best_nb
        best_nb ^= wbit
        if _has_matching(adj, avail ^ vbit ^ wbit, need - 1):
            return True
    return False


def embeds(h: Graph, g: Graph) -> bool:
    """True iff some injective vertex map carries every edge of h onto an
    edge of g (subgraph containment, not induced).

    A matching goes to the matching kernel and K_{2,k} to a common
    neighbour count; every other h to the degree pigeonhole and the plan
    kernel.  The containment section comment above gives the details.
    """
    if h.n > g.n or h.q > g.q:
        return False
    m = _as_matching(h)
    if m is not None:
        return _has_matching(g.adj, (1 << g.n) - 1, m)
    ab = as_biclique(h)
    if ab is not None and ab[0] == 2:
        # K_{2,k} is two vertices with k common neighbours
        k = ab[1]
        for u, row in enumerate(g.adj):
            for other in g.adj[u + 1:]:
                if (row & other).bit_count() >= k:
                    return True
        return False
    h_degs = sorted([row.bit_count() for row in h.adj], reverse=True)
    g_degs = sorted([row.bit_count() for row in g.adj], reverse=True)
    if any(d > gd for d, gd in zip(h_degs, g_degs)):
        return False
    return extend_embedding(g.adj, (1 << g.n) - 1, embed_plan(h), [0] * h.n, 0)


def as_biclique(g: Graph) -> tuple[int, int] | None:
    """(a, b) with a <= b if g is the complete bipartite graph K_{a,b}."""
    if g.n < 2 or not g.adj[0]:
        return None
    # vertex 0's side is everything outside its neighbourhood; in K_{a,b}
    # each side's rows are exactly the other side
    other = g.adj[0]
    side = ((1 << g.n) - 1) & ~other
    if any(g.adj[v] != other for v in _bits(side)) or any(g.adj[v] != side for v in _bits(other)):
        return None
    a, b = sorted((side.bit_count(), other.bit_count()))
    return a, b


def isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test for small graphs."""
    if a.n != b.n or a.q != b.q:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    # an edge-preserving injection between graphs of equal order and size
    # is an isomorphism
    return embeds(a, b)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def graph6_encode(g: Graph) -> str:
    """Standard graph6: header byte n+63, then the upper triangle column by
    column, packed into 6-bit groups, each +63."""
    n = g.n
    out = [chr(n + 63)]
    buf = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            buf = (buf << 1) | ((g.adj[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(buf + 63))
                buf = 0
                nbits = 0
    if nbits:
        buf <<= 6 - nbits
        out.append(chr(buf + 63))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string for n <= 32.

    Raises GraphError on wrong length, bytes outside the printable range
    63..126, nonzero padding bits, or trailing garbage.
    """
    s = text.rstrip("\n")
    if not s:
        raise GraphError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise GraphError(f"byte {ord(ch)} outside graph6 range 63..126")
    n = ord(s[0]) - 63
    if n > MAX_VERTICES:
        raise GraphError(f"graph6 order {n} exceeds cap {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) != 1 + need:
        raise GraphError(f"graph6 string has {len(s)} bytes, expected {1 + need} for n={n}")
    adj = [0] * n
    k = 0
    for idx in range(need):
        group = ord(s[1 + idx]) - 63
        for b in range(5, -1, -1):
            bit = (group >> b) & 1
            if k >= nbits:
                if bit:
                    raise GraphError("nonzero padding bits in graph6 string")
                continue
            if bit:
                i, j = _edge_of_column_index(k)
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, adj)


def _edge_of_column_index(k: int) -> tuple[int, int]:
    # column-major upper triangle: bits (0,1), (0,2), (1,2), (0,3), ...
    j = 1
    while j * (j - 1) // 2 + j <= k:
        j += 1
    i = k - j * (j - 1) // 2
    return i, j
