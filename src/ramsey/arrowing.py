"""Arrowing search: decide whether every red/blue 2-coloring of E(K_n)
contains a red F or a blue G, and compute exact Ramsey numbers.

The search colors the edges of K_n in lexicographic order, depth-first,
red before blue.  After each assignment only copies of the forbidden
pattern that use the newest edge can have appeared, so an anchored
containment check at that edge keeps the search tree sound and complete.
A coloring that survives all assignments ("good coloring") witnesses
n < r(F, G); if the symmetry-reduced tree is exhausted, K_n arrows (F, G).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from ramsey.graphs import (
    MAX_VERTICES,
    Graph,
    GraphError,
    _bits,
    embeds,
    from_edges,
    isomorphic,
    lex_edges,
)

RED = "red"
BLUE = "blue"

_CHECK_MASK = 0xFFF  # budget clock checked every 4096 nodes


class BudgetExceededError(RuntimeError):
    """Search ran out of its node or time budget before finishing.

    Distinct from "no good coloring exists": the outcome is unknown.
    """

    def __init__(self, message: str, nodes: int = 0, seconds: float = 0.0):
        super().__init__(message)
        self.nodes = nodes
        self.seconds = seconds


class SearchCapError(RuntimeError):
    """ramsey_number hit its n_max cap without the arrowing turning true."""


@dataclass(frozen=True)
class Budget:
    """Limits for one search; None means unlimited."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None


@dataclass(frozen=True)
class EdgeColoring:
    """Red/blue (possibly partial) assignment over the edges of K_n.

    colors[k] corresponds to the k-th edge of K_n in lexicographic order
    and is "red", "blue" or None (unset).
    """

    n: int
    colors: tuple

    def __post_init__(self):
        m = self.n * (self.n - 1) // 2
        if len(self.colors) != m:
            raise ValueError(f"expected {m} edge colors for n={self.n}, got {len(self.colors)}")
        for c in self.colors:
            if c not in (RED, BLUE, None):
                raise ValueError(f"bad edge color {c!r}")

    @classmethod
    def from_red(cls, n: int, red_edges) -> "EdgeColoring":
        """Total coloring with the given edges red and everything else blue."""
        # checked before lex_edges(n) allocates C(n, 2) pairs
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        red = {(min(i, j), max(i, j)) for i, j in red_edges}
        for i, j in red:
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(f"red edge ({i},{j}) out of range for n={n}")
        colors = tuple(RED if e in red else BLUE for e in lex_edges(n))
        return cls(n, colors)

    @property
    def is_total(self) -> bool:
        return None not in self.colors

    def red_edges(self) -> list[tuple[int, int]]:
        return [e for e, c in zip(lex_edges(self.n), self.colors) if c == RED]

    def blue_edges(self) -> list[tuple[int, int]]:
        return [e for e, c in zip(lex_edges(self.n), self.colors) if c == BLUE]

    def red_graph(self) -> Graph:
        return from_edges(self.n, self.red_edges())

    def blue_graph(self) -> Graph:
        return from_edges(self.n, self.blue_edges())


@dataclass(frozen=True)
class ArrowingOutcome:
    """Result of an arrowing decision.

    witness is present exactly when arrows is False, and always passes
    verify_coloring.
    """

    arrows: bool
    witness: Optional[EdgeColoring]
    nodes: int
    seconds: float


def verify_coloring(c: EdgeColoring, F: Graph, G: Graph) -> bool:
    """Engine-independent check that c is a good coloring: no F in the red
    graph and no G in the blue graph."""
    if not c.is_total:
        raise ValueError("verify_coloring requires a total coloring")
    return not embeds(F, c.red_graph()) and not embeds(G, c.blue_graph())


# ---------------------------------------------------------------------------
# witness text format:  line 1 "n=<N>", line 2 "red=<i-j,i-j,...>"
# ---------------------------------------------------------------------------

def coloring_to_text(c: EdgeColoring) -> str:
    if not c.is_total:
        raise ValueError("witness files hold total colorings only")
    red = ",".join(f"{i}-{j}" for i, j in c.red_edges())
    return f"n={c.n}\nred={red}\n"


def coloring_from_text(text: str) -> EdgeColoring:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("n=") or not lines[1].startswith("red="):
        raise ValueError("witness file must have lines 'n=<N>' and 'red=<pairs>'")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad vertex count {lines[0][2:]!r}") from None
    body = lines[1][4:]
    red = []
    if body:
        for part in body.split(","):
            try:
                i, j = part.split("-")
                red.append((int(i), int(j)))
            except ValueError:
                raise ValueError(f"bad red edge {part!r}") from None
    return EdgeColoring.from_red(n, red)


# ---------------------------------------------------------------------------
# anchored containment checks
# ---------------------------------------------------------------------------

def _as_matching(g: Graph) -> Optional[int]:
    """m if g is mK_2."""
    if g.q >= 1 and g.n == 2 * g.q and all(d == 1 for d in g.degrees()):
        return g.q
    return None


def _as_star(g: Graph) -> Optional[int]:
    """s if g is the star K_{1,s} (s >= 1; K_2 counts as K_{1,1})."""
    if g.n >= 2 and g.q == g.n - 1:
        degs = sorted(g.degrees())
        if degs[-1] == g.n - 1 and all(d == 1 for d in degs[:-1]):
            return g.n - 1
    return None


def _as_biclique_2k(g: Graph) -> Optional[int]:
    """k if g is K_{2,k} for some k >= 1 (C_4 is K_{2,2})."""
    k = g.n - 2
    if k < 1 or g.q != 2 * k:
        return None
    ref = from_edges(k + 2, [(c, leaf) for c in (0, 1) for leaf in range(2, k + 2)])
    return k if isomorphic(g, ref) else None


class _AnchoredMatcher:
    """Backtracking test for 'pattern occurs using a given host edge'.

    Orders are precomputed per anchored pattern edge: the anchor pair first,
    then the rest of its component breadth-first, then the remaining
    components each from a high-degree vertex.  Mapped-neighbour candidate
    masks keep the extension cheap on bitmask hosts.
    """

    def __init__(self, pat: Graph):
        self.pat = pat
        self.n = pat.n
        self.deg = [row.bit_count() for row in pat.adj]
        self.plans = []  # (order, earlier_nbrs per vertex) per directed anchor edge
        comp_masks = _component_masks_local(pat)
        for a in range(pat.n):
            for b in _bits(pat.adj[a]):
                order = self._order_from(a, b, comp_masks)
                earlier = []
                seen: list[int] = []
                for v in order:
                    earlier.append([w for w in seen if (pat.adj[v] >> w) & 1])
                    seen.append(v)
                self.plans.append((order, earlier))

    def _order_from(self, a: int, b: int, comp_masks) -> list[int]:
        pat = self.pat
        anchor_mask = next(m for m in comp_masks if (m >> a) & 1)
        order = [a, b]
        seen = {a, b}
        queue = [a, b]
        while queue:
            v = queue.pop(0)
            for w in _bits(pat.adj[v]):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    queue.append(w)
        for m in comp_masks:
            if m == anchor_mask:
                continue
            verts = list(_bits(m))
            start = max(verts, key=lambda v: self.deg[v])
            sub = [start]
            sub_seen = {start}
            qq = [start]
            while qq:
                v = qq.pop(0)
                for w in _bits(pat.adj[v]):
                    if w not in sub_seen:
                        sub_seen.add(w)
                        sub.append(w)
                        qq.append(w)
            order.extend(sub)
        return order

    def contains(self, adj: list[int], n_host: int, u: int, v: int) -> bool:
        all_mask = (1 << n_host) - 1
        phi = [-1] * self.n
        deg = self.deg

        def place(order, earlier, t, used):
            if t == len(order):
                return True
            pv = order[t]
            nbrs = earlier[t]
            if nbrs:
                cand = all_mask & ~used
                for w in nbrs:
                    cand &= adj[phi[w]]
            else:
                cand = all_mask & ~used
            need = deg[pv]
            while cand:
                bit = cand & -cand
                cand ^= bit
                x = bit.bit_length() - 1
                if adj[x].bit_count() < need:
                    continue
                phi[pv] = x
                if place(order, earlier, t + 1, used | bit):
                    return True
            phi[pv] = -1
            return False

        for order, earlier in self.plans:
            a, b = order[0], order[1]
            if adj[u].bit_count() >= deg[a] and adj[v].bit_count() >= deg[b]:
                phi[a] = u
                phi[b] = v
                if place(order, earlier, 2, (1 << u) | (1 << v)):
                    return True
                phi[a] = -1
                phi[b] = -1
        return False


def _component_masks_local(g: Graph) -> list[int]:
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


def _has_matching(adj: list[int], avail: int, need: int) -> bool:
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


def _make_check(pat: Graph):
    """Build check(adj, n, u, v) -> True iff pat occurs in the colored graph
    after edge (u, v) was just added to it.  Exact, used for pruning and,
    cumulatively, for leaf validity.

    Precondition: the color class without (u, v) has no copy of pat, which
    holds when every edge of the class was checked as it was added.  The
    checks only look for copies that use (u, v), so on a class that
    already held pat they may answer False.
    """
    m = _as_matching(pat)
    if m is not None:
        # a new mK_2 uses (u, v), so it is (u, v) plus an (m-1)-matching
        # of the class minus u and v
        def check_matching(adj, n, u, v, _need=m - 1):
            return _has_matching(adj, ((1 << n) - 1) & ~((1 << u) | (1 << v)), _need)
        return check_matching
    s = _as_star(pat)
    if s is not None:
        def check_star(adj, n, u, v, _s=s):
            return adj[u].bit_count() >= _s or adj[v].bit_count() >= _s
        return check_star
    k = _as_biclique_2k(pat)
    if k is not None:
        def check_biclique(adj, n, u, v, _k=k):
            # a new K_{2,k} through (u,v) pairs one endpoint with a second
            # "center" adjacent to the other endpoint
            au = adj[u]
            av = adj[v]
            rest = av & ~(1 << u)
            while rest:
                bit = rest & -rest
                rest ^= bit
                if (au & adj[bit.bit_length() - 1]).bit_count() >= _k:
                    return True
            rest = au & ~(1 << v)
            while rest:
                bit = rest & -rest
                rest ^= bit
                if (av & adj[bit.bit_length() - 1]).bit_count() >= _k:
                    return True
            return False
        return check_biclique
    matcher = _AnchoredMatcher(pat)

    def check_generic(adj, n, u, v, _m=matcher):
        return _m.contains(adj, n, u, v)
    return check_generic


# ---------------------------------------------------------------------------
# the search proper
# ---------------------------------------------------------------------------

def _search(n: int, F: Graph, G: Graph, budget: Optional[Budget],
            prefix: Optional[list[int]] = None):
    """DFS for a good coloring of K_n.

    prefix, when given, fixes the colors (1=red, 0=blue) of the first
    len(prefix) lexicographic edges; the vertex-0 symmetry break is only
    applied to edges the DFS assigns itself.  The prefix edges are not
    checked here, and the anchored checks of later edges assume neither
    color class of the prefix holds its pattern, so prefixes must come
    from _vertex0_prefixes, which checks each edge as it adds it.

    Returns (colors or None, nodes).  colors is a list of 1/0 per edge.
    """
    edges = lex_edges(n)
    m = len(edges)
    red = [0] * n
    blue = [0] * n
    col = [-1] * m

    # a pattern with no edges occurs in its color class iff it fits at all;
    # no coloring can avoid it
    if F.q == 0 and F.n <= n:
        return None, 0
    if G.q == 0 and G.n <= n:
        return None, 0
    if F.q > 0 and F.n > n and G.q > 0 and G.n > n:
        return [1] * m, 0  # nothing fits; any coloring is good

    red_check = _make_check(F)
    blue_check = _make_check(G)

    start_k = 0
    if prefix:
        for k, c in enumerate(prefix):
            u, vv = edges[k]
            col[k] = c
            if c:
                red[u] |= 1 << vv
                red[vv] |= 1 << u
            else:
                blue[u] |= 1 << vv
                blue[vv] |= 1 << u
        start_k = len(prefix)

    nodes = 0
    t0 = time.monotonic()
    max_nodes = budget.max_nodes if budget else None
    max_seconds = budget.max_seconds if budget else None

    def bail():
        raise BudgetExceededError(
            f"arrowing search for n={n} exceeded its budget",
            nodes=nodes, seconds=time.monotonic() - t0)

    def dfs(k: int) -> bool:
        nonlocal nodes
        if k == m:
            return True
        u, v = edges[k]
        ubit, vbit = 1 << u, 1 << v
        # symmetry break: vertex 0's edges are non-increasing (red then blue)
        reds = (RED, BLUE) if (k == 0 or k >= n - 1 or col[k - 1] == 1) else (BLUE,)
        for color in reds:
            nodes += 1
            if not nodes & _CHECK_MASK:
                if max_nodes is not None and nodes > max_nodes:
                    bail()
                if max_seconds is not None and time.monotonic() - t0 > max_seconds:
                    bail()
            if color is RED:
                red[u] |= vbit
                red[v] |= ubit
                if not red_check(red, n, u, v):
                    col[k] = 1
                    if dfs(k + 1):
                        return True
                red[u] &= ~vbit
                red[v] &= ~ubit
            else:
                blue[u] |= vbit
                blue[v] |= ubit
                if not blue_check(blue, n, u, v):
                    col[k] = 0
                    if dfs(k + 1):
                        return True
                blue[u] &= ~vbit
                blue[v] &= ~ubit
        col[k] = -1
        return False

    if max_nodes is not None and max_nodes <= 0:
        bail()
    found = dfs(start_k)
    return (col[:] if found else None), nodes


def _coloring_from_bits(n: int, col: list[int]) -> EdgeColoring:
    return EdgeColoring(n, tuple(RED if c == 1 else BLUE for c in col))


def _vertex0_prefixes(n: int, F: Graph, G: Graph) -> list[list[int]]:
    """Valid colorings of vertex 0's edges under the symmetry break, in the
    order the sequential DFS visits them (all-red first)."""
    edges = lex_edges(n)
    red_check = _make_check(F)
    blue_check = _make_check(G)
    out = []
    for t in range(n - 1, -1, -1):
        red = [0] * n
        blue = [0] * n
        ok = True
        for k in range(n - 1):
            u, v = edges[k]
            if k < t:
                red[u] |= 1 << v
                red[v] |= 1 << u
                if red_check(red, n, u, v):
                    ok = False
                    break
            else:
                blue[u] |= 1 << v
                blue[v] |= 1 << u
                if blue_check(blue, n, u, v):
                    ok = False
                    break
        if ok:
            out.append([1] * t + [0] * (n - 1 - t))
    return out


def _search_task(args):
    n, f_state, g_state, prefix, max_nodes, max_seconds = args
    F = Graph(*f_state)
    G = Graph(*g_state)
    budget = Budget(max_nodes=max_nodes, max_seconds=max_seconds)
    try:
        col, nodes = _search(n, F, G, budget, prefix=prefix)
        return ("ok", col, nodes)
    except BudgetExceededError as e:
        return ("budget", None, e.nodes)


def find_good_coloring(n: int, F: Graph, G: Graph,
                       budget: Optional[Budget] = None,
                       jobs: int = 1) -> Optional[EdgeColoring]:
    """A total coloring of K_n with no red F and no blue G, or None when the
    exhausted search space proves none exists.

    Raises BudgetExceededError when the budget runs out first; that outcome
    is never silently coerced to "none exists".  Identical inputs return the
    identical coloring regardless of jobs.
    """
    outcome = _run_search(n, F, G, budget, jobs)
    return outcome[0]


def _run_search(n, F, G, budget, jobs):
    if n > 32:
        raise GraphError(f"order {n} exceeds cap 32")
    if jobs <= 1 or n < 4:
        t0 = time.monotonic()
        col, nodes = _search(n, F, G, budget)
        witness = _coloring_from_bits(n, col) if col is not None else None
        return witness, nodes, time.monotonic() - t0

    t0 = time.monotonic()
    prefixes = _vertex0_prefixes(n, F, G)
    total_nodes = 0
    if not prefixes:
        return None, 0, time.monotonic() - t0
    max_nodes = budget.max_nodes if budget else None
    max_seconds = budget.max_seconds if budget else None
    tasks = [(n, (F.n, F.adj), (G.n, G.adj), p, max_nodes, max_seconds) for p in prefixes]
    witness = None
    budget_hit = False
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_search_task, t) for t in tasks]
        # consume in task order: the first subtree with a good coloring is
        # the one sequential DFS would reach first
        for fut in futures:
            status, col, nodes = fut.result()
            total_nodes += nodes
            if status == "budget":
                budget_hit = True
                break
            if col is not None:
                witness = _coloring_from_bits(n, col)
                break
        for fut in futures:
            fut.cancel()
    if witness is None and budget_hit:
        raise BudgetExceededError(
            f"arrowing search for n={n} exceeded its budget",
            nodes=total_nodes, seconds=time.monotonic() - t0)
    return witness, total_nodes, time.monotonic() - t0


def arrows(n: int, F: Graph, G: Graph, budget: Optional[Budget] = None,
           jobs: int = 1) -> ArrowingOutcome:
    """Decide K_n -> (F, G): every 2-coloring has a red F or a blue G."""
    witness, nodes, secs = _run_search(n, F, G, budget, jobs)
    return ArrowingOutcome(witness is None, witness, nodes, secs)


def ramsey_number(F: Graph, G: Graph, n_max: int = 32,
                  budget: Optional[Budget] = None, jobs: int = 1,
                  lower_bound: Optional[int] = None) -> int:
    """Least n with arrows(n, F, G), found by scanning upward.

    lower_bound, when supplied, must come from a verified witness (the scan
    starts there).  Raises SearchCapError if n_max is reached first.
    """
    r, _ = ramsey_number_with_witness(F, G, n_max=n_max, budget=budget,
                                      jobs=jobs, lower_bound=lower_bound)
    return r


_ramsey_cache: dict[tuple[int, tuple, int, tuple], int] = {}


def ramsey_number_with_witness(F: Graph, G: Graph, n_max: int = 32,
                               budget: Optional[Budget] = None, jobs: int = 1,
                               lower_bound: Optional[int] = None):
    """(r, witness at r-1).  The witness is None only when r-1 admits no
    coloring at all (r <= 1)."""
    if n_max > 32:
        raise GraphError("n_max exceeds cap 32")
    key = (F.n, F.adj, G.n, G.adj)
    cached = _ramsey_cache.get(key)
    if cached is not None and cached <= n_max:
        r = cached
        witness = find_good_coloring(r - 1, F, G, budget=budget, jobs=jobs) if r > 1 else None
        return r, witness
    start = 1
    if F.q > 0 and G.q > 0:
        start = max(F.n, G.n)
    if lower_bound is not None:
        start = max(start, lower_bound)
    witness = None
    for n in range(start, n_max + 1):
        got = find_good_coloring(n, F, G, budget=budget, jobs=jobs)
        if got is None:
            _ramsey_cache[key] = n
            if witness is None and n > 1:
                witness = find_good_coloring(n - 1, F, G, budget=budget, jobs=jobs)
            return n, witness
        witness = got
    raise SearchCapError(f"r(F,G) > {n_max}; raise n_max")


def star_witness(q: int) -> EdgeColoring:
    """The K_{2q} coloring whose red graph is the spanning star at vertex 0.

    Its red graph has no 4-cycle and its blue graph misses vertex 0, so blue
    matchings stop at q-1 edges: a good coloring for (C_4, qK_2) proving
    r(C_4, qK_2) >= 2q+1.
    """
    if q < 2:
        raise ValueError(f"star witness needs q >= 2, got {q}")
    n = 2 * q
    return EdgeColoring.from_red(n, [(0, i) for i in range(1, n)])
