"""Small simple undirected graphs over bitmask adjacency rows.

A graph on n <= 32 vertices stores one int bitmask per vertex, so adjacency
tests, neighbourhood intersections and degree counts are single-word
operations.  Everything here is pure and allocation-light; Graph values are
immutable.
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


def _unchecked_graph(n: int, adj: Sequence[int]) -> Graph:
    """Graph(n, adj) without __init__'s range and symmetry checks, for rows
    derived from an already valid graph."""
    g = Graph.__new__(Graph)
    g.n = n
    g.adj = tuple(adj)
    return g


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
    return _unchecked_graph(g.n, [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)])


# ---------------------------------------------------------------------------
# canonical labeling
# ---------------------------------------------------------------------------

def _refine_colors(nbrs: list[list[int]]) -> list[int]:
    """Iterated degree refinement of the graph whose vertex v has the
    neighbour list nbrs[v], the lists the canonical search builds once for
    itself: vertices get dense colours such that any isomorphism preserves
    colours.  It returns after the first round that splits no cell, since
    that round's ranks are the ones the next round would give."""
    colors = [len(nb) for nb in nbrs]
    cells = len(set(colors))
    while True:
        get = colors.__getitem__
        keys = [(c, tuple(sorted(map(get, nb)))) for c, nb in zip(colors, nbrs)]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        colors = [rank[k] for k in keys]
        if len(rank) == cells:
            return colors
        cells = len(rank)


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def canonical_form(g: Graph, autos: list[list[int]] | None = None) -> Graph:
    """A fixed representative of g's isomorphism class.

    Vertices are first partitioned by iterated degree refinement; the result
    is the relabeling, among those that list each refinement cell in order of
    its colour, whose upper-triangle bit string (column-major, the graph6 bit
    order) is lexicographically least.  _canonical_search finds it.

    Given a list as autos, canonical_form appends to it the automorphisms
    that search met, each as a list gamma mapping i to gamma[i] on the
    returned form's vertices: the leaf automorphisms, then the transposition
    of each pair of twins it pruned.  They need not generate the whole
    automorphism group, but each one is an automorphism of the form, so the
    orbits they generate lie inside the form's orbits.
    """
    n = g.n
    if n <= 1:
        return _unchecked_graph(n, g.adj)
    best_perm, best_cols, found, twins = _canonical_search(g)
    # bit n-1-i of best_cols[p] is the form's edge (i, p), i < p
    rows = [0] * n
    for p, col in enumerate(best_cols):
        for b in _bits(col):
            i = n - 1 - b
            rows[i] |= 1 << p
            rows[p] |= 1 << i
    if autos is not None:
        pos = [0] * n
        for p, v in enumerate(best_perm):
            pos[v] = p
        # g's automorphism v -> gamma[v] is i -> pos[gamma[best_perm[i]]]
        # on the form, whose vertex i is g's best_perm[i]
        for gamma in found:
            autos.append([pos[gamma[v]] for v in best_perm])
        for u, v in sorted(twins):
            swap = list(range(n))
            swap[pos[u]], swap[pos[v]] = pos[v], pos[u]
            autos.append(swap)
    return _unchecked_graph(n, rows)


def _canonical_search(g: Graph) -> tuple[list[int], list[int], list[list[int]], set[tuple[int, int]]]:
    """(best_perm, best_cols, autos, twins) for g on n >= 2 vertices:
    best_perm lists the vertices in canonical_form's order, best_cols[p]
    has bit n-1-i set iff best_perm[i] and best_perm[p] are adjacent,
    i < p, autos holds the leaf automorphisms of g found and twins the
    pairs (u, v) of g's vertices pruned as twins.  canonical_form carries
    both onto the form it returns, so one search gives the form and its
    generators.

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
    Fast paths that give the same search:
    - a position whose refinement cell has one vertex, or whose least column
      only one vertex has, places it at once, with no tried list, twin scan
      or orbit work;
    - one pass over a larger cell finds its least column and candidates;
    - the twin scan and the orbit union-find run only for the second and
      later candidates, as the first has nothing to be compared with, and
      the test that an automorphism fixes the prefix reads placed in place;
    - the neighbour lists are built once, for the refinement and the search.
    """
    n, adj = g.n, g.adj
    nbrs = [list(_bits(row)) for row in adj]
    colors = _refine_colors(nbrs)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    cell_at = [by_color[c] for c in sorted(colors)]

    placed = [0] * n
    cols = [0] * n
    # key[v] has bit n-1-i set iff v is adjacent to placed[i], so at
    # position p it is v's column shifted left by n-p
    key = [0] * n
    best_cols: list[int] = []
    best_perm: list[int] = []
    autos: list[list[int]] = []
    twins: set[tuple[int, int]] = set()

    def dfs(p: int, eq: bool, used: int) -> int:
        """Search below the prefix placed[:p]; eq says its columns equal the
        best's, and used marks the placed vertices.  Returns the depth to
        resume at, n for no jump."""
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
        cell = cell_at[p]
        if len(cell) == 1:
            cands = cell
            least = key[cell[0]]
        else:
            least, cands = -1, []
            for v in cell:
                if used >> v & 1:
                    continue
                k = key[v]
                if k == least:
                    cands.append(v)
                elif k < least or least < 0:
                    least = k
                    cands = [v]
        if eq:
            bc = best_cols[p]
            if least > bc:
                return n
            eq = least == bc
        cols[p] = least
        bit = 1 << (n - 1 - p)
        if len(cands) == 1:
            v = cands[0]
            placed[p] = v
            for w in nbrs[v]:
                key[w] |= bit
            back = dfs(p + 1, eq, used | 1 << v)
            for w in nbrs[v]:
                key[w] ^= bit
            return back if back < p else n
        tried: list[int] = []
        orbit: list[int] | None = None  # union-find over the stabiliser's orbits
        seen = 0  # autos already merged into orbit
        for v in cands:
            if tried:
                row, bv = adj[v], 1 << v
                twin = -1
                for u in tried:
                    if adj[u] & ~bv == row & ~(1 << u):
                        twin = u
                        break
                if twin >= 0:
                    twins.add((twin, v))
                    continue
                if seen < len(autos):
                    if orbit is None:
                        orbit = list(range(n))
                    for gamma in autos[seen:]:
                        for i in range(p):
                            if gamma[placed[i]] != placed[i]:
                                break
                        else:
                            for x in range(n):
                                if gamma[x] != x:
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
            back = dfs(p + 1, eq, used | 1 << v)
            for w in nbrs[v]:
                key[w] ^= bit
            if back < p:
                return back
            eq = True  # the prefix now equals the best's, installed or not
        return n

    dfs(0, False, 0)
    return best_perm, best_cols, autos, twins


# ---------------------------------------------------------------------------
# subgraph containment (non-induced monomorphism)
#
# embeds(h, g) is the one containment test in the package.  After its size
# guards it dispatches on h's shape:
# - mK2 (_as_matching): g has m disjoint edges, decided by the matching
#   kernel _has_matching, which the search's check_matching and every
#   plan's leaf share;
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
# vertex's degree, which a candidate must reach.  The last step, the leaf
# (None, m), asks the matching kernel for m disjoint edges among the
# vertices left free, and passes at once when m is 0.
# embed_plan(h) leaves h's K_2 components to the leaf and walks the others
# largest first, each breadth-first from its highest-degree vertex, so
# every later vertex of a component has a placed neighbour.
# embed_plan(h, (a, b)) puts a and b first and their component, K_2 or
# not, before the rest; a caller that maps a and b onto a host edge (u, v)
# asks whether h occurs through that edge, which is what the search's
# generic anchored check needs.
# ---------------------------------------------------------------------------

Plan = list[tuple[list[int] | None, int]]


def embed_plan(h: Graph, anchor: tuple[int, int] | None = None) -> Plan:
    """Placement plan for h: per placed vertex, in order, the positions of
    its earlier-placed neighbours and its degree, then the leaf (None, m),
    m the K_2 components left to it: all but the anchor edge (a, b)'s,
    whose ends are steps 0 and 1."""
    # lists, not tuples: CPython parks each resized tuple(generator) result
    # on a per-size free list when it dies, which raised peak memory
    deg = [row.bit_count() for row in h.adj]
    lead = 1 << anchor[0] if anchor is not None else 0
    masks = _component_masks(h)
    comps = sorted([c for c in masks if c & lead or c.bit_count() != 2],
                   key=lambda c: (not c & lead, -sum(deg[v] for v in _bits(c))))
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
            for i, v in enumerate(order)] + [(None, len(masks) - len(comps))]


def extend_embedding(adj: Sequence[int], free: int, plan: Plan, img: list[int], t: int) -> bool:
    """True iff plan's steps t, t+1, ... can be mapped onto distinct
    vertices of the free mask, given the images img[:t] of the earlier
    steps: each image adjacent to the images of the step's placed
    neighbours and of at least the step's degree, and the vertices still
    free at the leaf (None, m) hold m disjoint edges.  Writes img[t:]."""
    nbrs, need = plan[t]
    if nbrs is None:  # the leaf, and need is its number of K_2s
        return not need or _has_matching(adj, free, need)
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
    """m if g is mK_2: every vertex has degree 1, so its n/2 edges are
    disjoint and cover it."""
    if g.n and all(row.bit_count() == 1 for row in g.adj):
        return g.n // 2
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
    bits = "".join(format(ord(ch) - 63, "06b") for ch in s[1:])
    if "1" in bits[nbits:]:
        raise GraphError("nonzero padding bits in graph6 string")
    # column j is the bits of (0, j), (1, j), ..., (j - 1, j); reversed, it
    # is row j's mask of neighbours below j
    adj = [0] * n
    for j in range(1, n):
        start = j * (j - 1) // 2
        adj[j] = below = int(bits[start:start + j][::-1], 2)
        for i in _bits(below):
            adj[i] |= 1 << j
    return Graph(n, adj)
