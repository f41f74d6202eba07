"""Arrowing search: decide whether every red/blue 2-coloring of E(K_n)
contains a red F or a blue G, and compute exact Ramsey numbers.

The search colors the edges of K_n in lexicographic order, depth-first,
red before blue.  After each assignment only copies of the forbidden
pattern that use the newest edge can have appeared, so an anchored
containment check at that edge keeps the search tree sound and complete.
A coloring that survives all assignments ("good coloring") witnesses
n < r(F, G); if the symmetry-reduced tree is exhausted, K_n arrows (F, G).
A witness is the red graph of a good coloring; blue is its complement.

Two symmetry breaks cut isomorphic colorings from the tree.  Read the red
adjacency matrix row by row over its upper triangle (the lexicographic
edge order), red above blue, column 0 first.  Every coloring has a
lex-greatest relabelling, and it passes both:

- vertex 0's edges are red, then blue: its row 0 is 1^d 0^(n-1-d), d the
  largest red degree;
- lex-leader rows (Codish, Miller, Prosser & Stuckey, "Constraints for
  symmetry breaking in graph representation", Constraints 2019): for
  i < u, red row i >= red row u in lex order on the columns other than i
  and u.  Were row u greater, first at column c, swapping i and u would
  raise the matrix at row min(i, c) and leave the rows before it alone.

The lex-leader test runs after edge (u, v) turns red and compares row u
with each row i < u on columns 0..v; row i is complete by then.  It also
runs when a block's first edge (u, u+1) turns blue, since row u's columns
below u were set in earlier blocks and not yet tested.  Any other blue
edge only lowers row u past columns already tested, so it is not tested.
Block 0 (u = 0) has no earlier row, so it is never lex-pruned.  With
--jobs the DFS stops at the end of block 0, and each block coloring that
survives is the prefix of one worker's subtree.  Both breaks keep the
lex-greatest relabelling of every good coloring, so the reduced tree
holds a good coloring iff one exists.  The DFS meets colorings in falling
lex order, so the first it finds is the lex-greatest good coloring, with
or without the breaks.
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
    _as_matching,
    _bits,
    _has_matching,
    as_biclique,
    complement,
    embed_plan,
    embeds,
    extend_embedding,
    from_edges,
    lex_edges,
)

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
class ArrowingOutcome:
    """Result of an arrowing decision.

    witness is present exactly when arrows is False: the red graph of a
    good coloring of K_n, every other pair blue.  It always passes
    verify_coloring.
    """

    arrows: bool
    witness: Optional[Graph]
    nodes: int
    seconds: float


def verify_coloring(red: Graph, F: Graph, G: Graph) -> bool:
    """Check that the coloring with red graph red is good: no F in red and
    no G in its complement, the blue graph.

    It runs graphs.embeds, not the search's anchored checks.  The only code
    it shares with them is the matching kernel, which check_matching also
    calls; brute_has_matching and brute_embeds in the tests and perfbench's
    networkx cross-check guard that kernel.
    """
    return not embeds(F, red) and not embeds(G, complement(red))


# ---------------------------------------------------------------------------
# witness text format:  line 1 "n=<N>", line 2 "red=<i-j,i-j,...>"
# ---------------------------------------------------------------------------

def coloring_to_text(red: Graph) -> str:
    pairs = ",".join(f"{i}-{j}" for i, j in red.edges())
    return f"n={red.n}\nred={pairs}\n"


def coloring_from_text(text: str) -> Graph:
    """The red graph a witness file gives; every pair it does not list is
    blue.  A pair listed twice, in either orientation, is one red edge."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("n=") or not lines[1].startswith("red="):
        raise ValueError("witness file must have lines 'n=<N>' and 'red=<pairs>'")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad vertex count {lines[0][2:]!r}") from None
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    body = lines[1][4:]
    for part in body.split(",") if body else ():
        try:
            i, j = map(int, part.split("-"))
        except ValueError:
            raise ValueError(f"bad red edge {part!r}") from None
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError(f"red edge ({i},{j}) out of range for n={n}")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# anchored containment checks
# ---------------------------------------------------------------------------

def _make_check(pat: Graph):
    """Build check(adj, n, u, v) -> True iff pat occurs in the colored graph
    after edge (u, v) was just added to it.  Exact, used for pruning and,
    cumulatively, for leaf validity.  The matching kernel, as_biclique and
    the plan kernel live in graphs.py, whose containment section comment
    describes them; the closures here anchor them at (u, v), and the star
    and K_{2,k} closures count degrees and common neighbours inline.

    Precondition: the color class without (u, v) has no copy of pat, which
    holds when every edge of the class was checked as it was added.  The
    checks only look for copies that use (u, v), so on a class that
    already held pat they may answer False.

    The generic check keeps one anchored plan per orbit of directed pattern
    edges under pat's automorphisms.  If sigma is an automorphism, a copy
    that maps sigma(e) onto (u, v) is sigma followed by a copy that maps e
    onto (u, v), so the plan for e finds every copy the plan for sigma(e)
    would.  A kept plan for e finds such a sigma when it embeds pat into
    itself with e's ends on sigma(e)'s: an injective self-map that carries
    edges to edges is an automorphism.
    """
    m = _as_matching(pat)
    if m is not None:
        # a new mK_2 uses (u, v), so it is (u, v) plus an (m-1)-matching
        # of the class minus u and v
        def check_matching(adj, n, u, v, _need=m - 1):
            return _has_matching(adj, ((1 << n) - 1) & ~((1 << u) | (1 << v)), _need)
        return check_matching
    ab = as_biclique(pat)
    if ab is not None and ab[0] == 1:
        # a new star K_{1,s} is centred at u or v
        def check_star(adj, n, u, v, _s=ab[1]):
            return adj[u].bit_count() >= _s or adj[v].bit_count() >= _s
        return check_star
    if ab is not None and ab[0] == 2:
        def check_biclique(adj, n, u, v, _k=ab[1]):
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
    # a new copy maps some pattern edge (a, b) onto (u, v), one way round or
    # the other: one anchored plan per directed edge orbit, run by the
    # kernel the containment section of graphs.py describes
    plans = []
    rest = [0] * (pat.n - 2)
    for a in range(pat.n):
        for b in _bits(pat.adj[a]):
            free = ((1 << pat.n) - 1) & ~((1 << a) | (1 << b))
            if not any(extend_embedding(pat.adj, free, plan, [a, b] + rest, 2) for plan in plans):
                plans.append(embed_plan(pat, (a, b)))

    def check_generic(adj, n, u, v, _plans=plans):
        du = adj[u].bit_count()
        dv = adj[v].bit_count()
        free = ((1 << n) - 1) & ~((1 << u) | (1 << v))
        for plan in _plans:
            # steps 0 and 1 are the anchor's ends, mapped onto u and v
            if (du >= plan[0][1] and dv >= plan[1][1]
                    and extend_embedding(adj, free, plan, [u, v] + [0] * (len(plan) - 2), 2)):
                return True
        return False
    return check_generic


# ---------------------------------------------------------------------------
# the search proper
# ---------------------------------------------------------------------------

def _lex_violated(red: list[int], u: int, v: int) -> bool:
    """True iff red row u, just given its edge (u, v), exceeds some earlier
    row i < u in lex order on columns 0..v, columns i and u left out.

    Column 0 is the most significant, so the lowest column where rows i
    and u differ decides.  Row i is complete and row u is set on columns
    0..v, so every completion keeps the violation.
    """
    ru = red[u]
    seen = ((2 << v) - 1) & ~(1 << u)
    for i in range(u):
        d = (red[i] ^ ru) & seen & ~(1 << i)
        if ru & d & -d:
            return True
    return False


def _search(n: int, F: Graph, G: Graph, budget: Optional[Budget],
            prefix: Optional[list[int]] = None, split: Optional[list] = None):
    """DFS for a good coloring of K_n.

    Both symmetry breaks of the module docstring apply: vertex 0's edges
    go red then blue, and a red edge (u, v), or a blue first edge
    (u, u+1) of block u, is pruned when row u then exceeds an earlier row
    (_lex_violated; never for u = 0).  The blue case is sound because
    row u is set on columns 0..u+1 once (u, u+1) has a colour: columns
    below u by the earlier blocks, column u+1 by this edge.

    split, when given, stops the DFS at the end of vertex 0's block: each
    coloring of the block's n-1 edges that survives is appended to split as
    (nodes counted since the previous one, its colors), in the order the
    full DFS meets them.  The nodes counted after the last one are the
    returned total minus the appended ones.

    prefix, when given, fixes the colors (1=red, 0=blue) of the first
    len(prefix) lexicographic edges; the symmetry breaks are only applied
    to edges the DFS assigns itself.  The prefix edges are not checked
    here, and the anchored checks of later edges assume neither color
    class of the prefix holds its pattern, so prefixes must come from a
    split, which checks each edge as it adds it.

    Patterns with no edges, and pairs of which neither fits in K_n, are
    decided by _run_search before it gets here.

    Returns (red rows of the good coloring or None, nodes).
    """
    edges = lex_edges(n)
    m = n - 1 if split is not None else len(edges)
    red = [0] * n
    blue = [0] * n
    col = [-1] * m
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
    split_nodes = 0
    t0 = time.monotonic()
    max_nodes = budget.max_nodes if budget else None
    max_seconds = budget.max_seconds if budget else None

    def bail():
        raise BudgetExceededError(
            f"arrowing search for n={n} exceeded its budget",
            nodes=nodes, seconds=time.monotonic() - t0)

    def dfs(k: int) -> bool:
        nonlocal nodes, split_nodes
        if k == m:
            if split is None:
                return True
            split.append((nodes - split_nodes, col[:]))
            split_nodes = nodes
            return False
        u, v = edges[k]
        ubit, vbit = 1 << u, 1 << v
        # symmetry break: vertex 0's edges are non-increasing (red then blue)
        colors = (1, 0) if (k == 0 or k >= n - 1 or col[k - 1] == 1) else (0,)
        for color in colors:
            nodes += 1
            if not nodes & _CHECK_MASK:
                if max_nodes is not None and nodes > max_nodes:
                    bail()
                if max_seconds is not None and time.monotonic() - t0 > max_seconds:
                    bail()
            if color:
                red[u] |= vbit
                red[v] |= ubit
                if not (_lex_violated(red, u, v) or red_check(red, n, u, v)):
                    col[k] = 1
                    if dfs(k + 1):
                        return True
                red[u] &= ~vbit
                red[v] &= ~ubit
            else:
                blue[u] |= vbit
                blue[v] |= ubit
                # a block's first edge completes row u on columns 0..u+1
                if not ((v == u + 1 and _lex_violated(red, u, v)) or blue_check(blue, n, u, v)):
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
    return (red if found else None), nodes


def _search_task(n, F, G, budget, prefix):
    """Pool task: (red rows or None, nodes, whether the budget ran out)."""
    try:
        return (*_search(n, F, G, budget, prefix=prefix), False)
    except BudgetExceededError as e:
        return None, e.nodes, True


def _run_search(n, F, G, budget, jobs):
    """(witness or None, nodes, seconds) for K_n against (F, G); the
    witness is a good coloring's red graph."""
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"order {n} outside 0..{MAX_VERTICES}")
    t0 = time.monotonic()
    # a pattern with no edges occurs in its color class iff it fits at all;
    # no coloring can avoid it
    if (F.q == 0 and F.n <= n) or (G.q == 0 and G.n <= n):
        return None, 0, time.monotonic() - t0
    if F.q > 0 and F.n > n and G.q > 0 and G.n > n:
        # nothing fits; any coloring is good
        return from_edges(n, lex_edges(n)), 0, time.monotonic() - t0
    if jobs <= 1 or n < 4:
        red, nodes = _search(n, F, G, budget)
        witness = Graph(n, red) if red is not None else None
        return witness, nodes, time.monotonic() - t0

    prefixes = []
    tail_nodes = _search(n, F, G, budget, split=prefixes)[1] - sum(lead for lead, _ in prefixes)
    if not prefixes:
        return None, tail_nodes, time.monotonic() - t0
    total_nodes = 0
    witness = None
    budget_hit = False
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_search_task, n, F, G, budget, p) for _, p in prefixes]
        # consume in task order: the first subtree with a good coloring is
        # the one sequential DFS would reach first
        for (lead_nodes, _), fut in zip(prefixes, futures):
            red, nodes, budget_hit = fut.result()
            total_nodes += lead_nodes + nodes
            if budget_hit:
                break
            if red is not None:
                witness = Graph(n, red)
                break
        else:
            total_nodes += tail_nodes
        for fut in futures:
            fut.cancel()
    if budget_hit:
        raise BudgetExceededError(
            f"arrowing search for n={n} exceeded its budget",
            nodes=total_nodes, seconds=time.monotonic() - t0)
    return witness, total_nodes, time.monotonic() - t0


def arrows(n: int, F: Graph, G: Graph, budget: Optional[Budget] = None,
           jobs: int = 1) -> ArrowingOutcome:
    """Decide K_n -> (F, G): every 2-coloring has a red F or a blue G.

    When it does not, the witness is the first good coloring the sequential
    DFS reaches, so identical inputs give the identical witness and node
    count for any jobs.  Raises BudgetExceededError when the budget runs out
    first; that outcome is never silently coerced to either answer.
    """
    witness, nodes, secs = _run_search(n, F, G, budget, jobs)
    return ArrowingOutcome(witness is None, witness, nodes, secs)


def ramsey_number(F: Graph, G: Graph, n_max: int = 32,
                  budget: Optional[Budget] = None, jobs: int = 1) -> int:
    """Least n with arrows(n, F, G), found by scanning upward.

    The scan starts at the larger pattern's order: below it that pattern
    does not fit, so coloring every edge in its color is good.  Raises
    ValueError if n_max is below that start, and SearchCapError if n_max
    is reached first.
    """
    r, _ = ramsey_number_with_witness(F, G, n_max=n_max, budget=budget, jobs=jobs)
    return r


def ramsey_number_with_witness(F: Graph, G: Graph, n_max: int = 32,
                               budget: Optional[Budget] = None, jobs: int = 1):
    """(r, witness at r-1).  The witness is None only when r-1 admits no
    coloring at all (r <= 1)."""
    if n_max > MAX_VERTICES:
        raise GraphError(f"n_max exceeds cap {MAX_VERTICES}")
    start = 1
    if F.q > 0 and G.q > 0:
        start = max(F.n, G.n)
    if n_max < start:
        raise ValueError(f"n_max={n_max} is below {start}, where the scan starts")
    witness = None
    for n in range(start, n_max + 1):
        got = _run_search(n, F, G, budget, jobs)[0]
        if got is None:
            if witness is None and n > 1:
                witness = _run_search(n - 1, F, G, budget, jobs)[0]
            return n, witness
        witness = got
    raise SearchCapError(f"r(F,G) > {n_max}; raise n_max")
