"""Arrowing search: decide whether every red/blue 2-coloring of E(K_n)
contains a red F or a blue G, and compute exact Ramsey numbers.

The search colors the edges of K_n in lexicographic order, depth-first,
red before blue.  After each assignment only copies of the forbidden
pattern that use the newest edge can have appeared, so an anchored
containment check at that edge keeps the search tree sound and complete.
The two checks do not depend on n, so each scan builds them once (one
arrows call, or one ramsey_number scan over every order n); the generic
one runs graphs.embed_plan's plans, which leave the pattern's K_2
components, bar one holding the anchor, to the matching kernel
(_make_check).  A coloring that survives all assignments ("good
coloring") witnesses n < r(F, G); if the symmetry-reduced tree is
exhausted, K_n arrows (F, G).
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
Block 0 (u = 0) has no earlier row, so it is never lex-pruned.  Both
breaks keep the lex-greatest relabelling of every good coloring, so the
reduced tree holds a good coloring iff one exists.  The DFS meets
colorings in falling lex order, so the first it finds is the lex-greatest
good coloring, with or without the breaks.

So block 0 is fixed by one number, vertex 0's red degree d, and the DFS
meets the blocks in falling d.  Every search splits there: _split yields
each d whose red and blue stars miss F and G, and one loop consumes them
and the subtree of blocks 1 and up below each, so the witness and node
count are the whole-tree DFS's (kept in the tests as the oracle) for any
jobs.  With jobs=1 the subtrees run lazily in this process.  With more,
each order n forks jobs - 1 helpers once it has split (os.fork, so jobs
above 1 needs a platform that has it); the subtrees are dealt out in
turn, this process keeps every jobs-th one from the first, and the loop
reads the others from their helpers' pipes.  The helpers are killed once
the order's answer is known.  A budget is a number of seconds: one
deadline per order n, shared by the split and every subtree.

A Ramsey number with a matching mK_2 on either side is decided by
structure, with no search, helper or budget (matching_arrows).  On n >= 2m
vertices every mK_2-free graph lies inside some K_s joined to odd cliques
K_{c_1} u ... u K_{c_t} with s + sum (c_i - 1)/2 = m - 1 (Gallai-Edmonds,
Lovasz & Plummer, Matching Theory, 1986, ch. 3), so K_n has a good
coloring iff F misses the complement K_{c_1,...,c_t} + sK_1 of one of
them.  Its witness is the first such complement in a fixed walk, not the
DFS's lex-greatest good coloring, and it is the same for any jobs.
arrows() always searches, so it stays the oracle for that walk.
"""

from __future__ import annotations

import marshal
import os
import time
from typing import NamedTuple, Optional

from ramsey.graphs import (
    MAX_VERTICES,
    Graph,
    GraphError,
    _as_matching,
    _bits,
    _has_matching,
    _unchecked_graph,
    as_biclique,
    complement,
    embed_plan,
    embeds,
    extend_embedding,
)

_CHECK_MASK = 0xFFF  # budget clock checked every 4096 nodes
# SIGKILL's number, fixed by POSIX; importing signal for it would add
# about 1.5 ms to every run's start
_SIGKILL = 9


class BudgetExceededError(RuntimeError):
    """Search ran out of its time budget before finishing.

    Distinct from "no good coloring exists": the outcome is unknown.
    """

    def __init__(self, message: str, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


class SearchCapError(RuntimeError):
    """ramsey_number hit its n_max cap without the arrowing turning true."""


class ArrowingOutcome(NamedTuple):
    """Result of an arrowing decision.

    witness is present exactly when arrows is False: the red graph of a
    good coloring of K_n, every other pair blue.  It always passes
    verify_coloring.
    """

    arrows: bool
    witness: Optional[Graph]
    nodes: int


def verify_coloring(red: Graph, F: Graph, G: Graph) -> bool:
    """Check that the coloring with red graph red is good: no F in red and
    no G in its complement, the blue graph.

    It runs graphs.embeds, not the search's anchored checks.  The only code
    it shares with them is the matching kernel, which the generic check's
    plan leaves also call; brute_has_matching and brute_embeds in the tests
    and perfbench's networkx cross-check guard that kernel.
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
    # every pair was range-checked and set both ways above
    return _unchecked_graph(n, adj)


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

    The generic check keeps one anchored plan (graphs.embed_plan) per
    orbit of pat's directed edges under pat's automorphisms.  A plan's
    leaf asks the matching kernel for the m K_2 components that do not
    hold its anchor, so a failing check never tries their orders and
    orientations one by one.  The K_2s' edges are one orbit, whose plan
    asks for m - 1 and runs last.  Unless pat is mK_2, a copy leaves m
    disjoint edges beside u and v, the most any leaf asks for, so a class
    with fewer fails before any plan runs.  mK_2's one plan places only
    its anchor, and its leaf is that test itself, so it has no prefilter.

    If sigma is an automorphism of pat, a copy that maps sigma(e) onto
    (u, v) is sigma followed by a copy that maps e onto (u, v), with the
    same image, so the plan for e finds every copy the plan for sigma(e)
    would.  A kept plan for e finds such a sigma when it embeds pat into
    itself with e's ends on sigma(e)'s, its leaf's K_2s included: an
    injective self-map that carries edges to edges is an automorphism.
    """
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
    # a new copy maps some edge (a, b) of pat onto (u, v), one way round or
    # the other: one anchored plan per directed edge orbit of pat, run by
    # the kernel the containment section of graphs.py describes
    plans = []
    pad = [0] * (pat.n - 2)
    for a in range(pat.n):
        for b in _bits(pat.adj[a]):
            free = ((1 << pat.n) - 1) & ~((1 << a) | (1 << b))
            if not any(extend_embedding(pat.adj, free, plan, [a, b] + pad, 2) for plan in plans):
                plans.append(embed_plan(pat, (a, b)))
    # the plan anchored on a K_2 asks for one K_2 fewer and runs last; a
    # plan that places only its anchor needs no prefilter before its leaf
    plans.sort(key=lambda plan: -plan[-1][1])
    least = max([plan[-1][1] for plan in plans if len(plan) > 3], default=0)

    def check_generic(adj, n, u, v, _plans=plans, _least=least, _pad=pad):
        free = ((1 << n) - 1) & ~((1 << u) | (1 << v))
        if _least and not _has_matching(adj, free, _least):
            return False
        du = adj[u].bit_count()
        dv = adj[v].bit_count()
        # steps 0 and 1 are the anchor's ends, mapped onto u and v; every
        # plan writes each later step's image before it reads it
        img = [u, v, *_pad]
        for plan in _plans:
            if du >= plan[0][1] and dv >= plan[1][1] and extend_embedding(adj, free, plan, img, 2):
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


def _search(n: int, red_check, blue_check, deadline: Optional[float], d: int):
    """DFS for a good coloring of K_n whose vertex 0 has red edges
    (0, 1)..(0, d) and blue edges to the rest, red_check and blue_check
    being the anchored checks (_make_check) of F and G.  It colors blocks
    1 and up, edge (u, v) after edge (u, v-1), red before blue.

    Block 0 is not checked here, and the anchored checks of later edges
    assume neither of its color classes holds its pattern, so d must come
    from _split, which checks each edge as it adds it.  A red edge (u, v),
    or a blue first edge (u, u+1) of block u, is pruned when row u then
    exceeds an earlier row (_lex_violated).  The blue case is sound because
    row u is set on columns 0..u+1 once (u, u+1) has a colour: columns
    below u by the earlier blocks, column u+1 by this edge.

    deadline is a time.monotonic() instant, or None for no limit; past it
    the search raises BudgetExceededError, carrying its nodes, at once if
    it starts late.

    Patterns with no edges, and pairs of which neither fits in K_n, are
    decided by _run_search before it gets here.

    Returns (red rows of the good coloring or None, nodes).
    """
    red = [0] * n
    blue = [0] * n
    for v in range(1, n):
        rows = red if v <= d else blue
        rows[0] |= 1 << v
        rows[v] = 1

    nodes = 0
    # (rows, check, lex-test?) for red, then blue: a blue edge is lex-tested
    # only as its block's first, which completes row u on columns 0..u+1
    first_steps = (red, red_check, True), (blue, blue_check, True)
    later_steps = first_steps[0], (blue, blue_check, False)

    def bail():
        raise BudgetExceededError(
            f"arrowing search for n={n} exceeded its budget", nodes=nodes)

    def dfs(u: int, v: int) -> bool:
        nonlocal nodes
        if v == n:  # block u is done; block u+1 starts at (u+1, u+2)
            u += 1
            v = u + 1
            if v >= n:
                return True
        ubit, vbit = 1 << u, 1 << v
        for rows, check, lex in (first_steps if v == u + 1 else later_steps):
            nodes += 1
            if (not nodes & _CHECK_MASK and deadline is not None
                    and time.monotonic() > deadline):
                bail()
            rows[u] |= vbit
            rows[v] |= ubit
            if not ((lex and _lex_violated(red, u, v)) or check(rows, n, u, v)):
                if dfs(u, v + 1):
                    return True
            rows[u] &= ~vbit
            rows[v] &= ~ubit
        return False

    # a subtree can start after the shared deadline has passed
    if deadline is not None and time.monotonic() > deadline:
        bail()
    found = dfs(0, n)
    return (red if found else None), nodes


def _split(n, red_check, blue_check, deadline):
    """Vertex 0's block, colored lazily as the whole-tree DFS colors it:
    yields (nodes since the previous pair, d) for each surviving d, then
    (nodes after the last one, None).

    The vertex-0 rule lets through one shape of block: red edges
    (0, 1)..(0, d), blue edges to the rest.  The red star grows edge by
    edge until red_check fires or it spans the block.  Then, with d
    falling from there to 0, the blue star on (0, d+1)..(0, n-1) grows
    edge by edge, and d survives if blue_check never fires.  That is the
    DFS's order of nodes and checks, so a consumer that stops at a witness
    has made the whole-tree DFS's checks and nodes, no more.  The block
    has no lex-leader test (u = 0) and under 4096 nodes, so the deadline
    is read once, at the start.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError(f"arrowing search for n={n} exceeded its budget")
    red = [0] * n
    nodes = d = 0
    while d < n - 1:
        nodes += 1
        v = d + 1
        red[0] |= 1 << v
        red[v] = 1
        if red_check(red, n, 0, v):
            break
        d = v
    last = 0
    for d in range(d, -1, -1):
        blue = [0] * n
        for v in range(d + 1, n):
            nodes += 1
            blue[0] |= 1 << v
            blue[v] = 1
            if blue_check(blue, n, 0, v):
                break
        else:
            yield nodes - last, d
            last = nodes
    yield nodes - last, None


def _check_jobs(jobs: int) -> None:
    """Refuse a jobs count no search can run: below 1, or above 1 where
    os.fork, which starts the helpers, is missing."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError(f"jobs={jobs} needs os.fork, which this platform lacks")


def _fork_helper(n, red_check, blue_check, deadline, ds):
    """Fork a helper that searches each d of ds in order and writes one
    marshalled (red rows or None, nodes, overrun message or None) per
    subtree to a pipe, stopping after the first witness or overrun.
    Returns (pid, the pipe's read end as a file).

    The helper is a copy of this process, so it has the checks, n and
    the deadline without any pickling.  It leaves only through os._exit,
    which neither unwinds the caller's frames nor flushes the caller's
    buffered files, whatever ends the search.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as out:
                for d in ds:
                    try:
                        record = *_search(n, red_check, blue_check, deadline, d), None
                    except BudgetExceededError as e:
                        record = None, e.nodes, str(e)
                    marshal.dump(record, out)
                    out.flush()
                    if record[0] is not None or record[2] is not None:
                        break
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _run_search(n, F, G, checks, budget, jobs):
    """(witness or None, nodes) for K_n against (F, G); the witness is a
    good coloring's red graph.

    One loop consumes _split's values of d and the subtree below each, in
    falling d, as the whole-tree DFS meets them.  checks is the pair of
    anchored checks (_make_check) of F and G, which the caller builds once
    for its whole scan, since they do not depend on n.  With jobs=1 the
    split stays lazy and each subtree is searched in this process when
    the loop reaches it.  With more, the split is run out first and the
    i-th d goes to share i % jobs: this process searches share 0 when the
    loop reaches it, and one forked helper (_fork_helper) per other share
    searches its own at once.  Being fixed, the shares make the same
    _search calls here on every run.  The helpers are killed and reaped
    before this returns or raises, so none outlives its order.  budget,
    in seconds or None, is one deadline from this call's start for the
    split and every subtree.  An overrun, from the split, a subtree here
    or a helper's, is raised again with every node counted so far.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"order {n} outside 0..{MAX_VERTICES}")
    deadline = None if budget is None else time.monotonic() + budget
    # a pattern with no edges occurs in its color class iff it fits at all;
    # no coloring can avoid it
    if (F.q == 0 and F.n <= n) or (G.q == 0 and G.n <= n):
        return None, 0
    if F.q > 0 and F.n > n and G.q > 0 and G.n > n:
        # nothing fits; any coloring is good
        return complement(Graph(n, [0] * n)), 0
    red_check, blue_check = checks
    split = _split(n, red_check, blue_check, deadline)
    helpers = []  # (pid, pipe) of shares 1, 2, ...
    nodes = 0
    try:
        if jobs > 1:
            split = list(split)
            ds = [d for _, d in split[:-1]]
            for w in range(1, min(jobs, len(ds))):
                helpers.append(_fork_helper(n, red_check, blue_check, deadline, ds[w::jobs]))
        for i, (lead, d) in enumerate(split):
            nodes += lead
            if d is None:
                break  # the split's nodes after its last d
            if i % jobs == 0:
                red, sub = _search(n, red_check, blue_check, deadline, d)
            else:
                pid, pipe = helpers[i % jobs - 1]
                try:
                    red, sub, overrun = marshal.load(pipe)
                except EOFError:
                    raise RuntimeError(
                        f"search helper {pid} for n={n} ended before its subtree d={d}") from None
                if overrun is not None:
                    raise BudgetExceededError(overrun, nodes=sub)
            nodes += sub
            if red is not None:
                return Graph(n, red), nodes
    except BudgetExceededError as e:
        e.nodes += nodes
        raise
    finally:
        for pid, pipe in helpers:
            os.kill(pid, _SIGKILL)
            pipe.close()
        for pid, _ in helpers:
            os.waitpid(pid, 0)
    return None, nodes


def arrows(n: int, F: Graph, G: Graph, budget: Optional[float] = None,
           jobs: int = 1) -> ArrowingOutcome:
    """Decide K_n -> (F, G): every 2-coloring has a red F or a blue G.

    When it does not, the witness is the first good coloring the whole-tree
    DFS reaches, so identical inputs give the identical witness and node
    count for any jobs.  budget is in seconds.  Raises BudgetExceededError
    when it runs out first; that outcome is never silently coerced to
    either answer.
    """
    _check_jobs(jobs)
    checks = _make_check(F), _make_check(G)
    witness, nodes = _run_search(n, F, G, checks, budget, jobs)
    return ArrowingOutcome(witness is None, witness, nodes)


# ---------------------------------------------------------------------------
# matchings by structure
# ---------------------------------------------------------------------------

def _partitions(e: int, most: int, parts: int):
    """Partitions of e into at most parts parts of size at most most,
    each as a falling tuple, in falling lex order."""
    if e == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(e, most), 0, -1):
        for rest in _partitions(e - first, first, parts - 1):
            yield (first, *rest)


def _matching_free_reds(n: int, m: int):
    """The red graphs whose blue complement is an edge-maximal mK_2-free
    graph on n vertices, in walk order.

    Below 2m vertices that is K_n itself, so the one red graph is empty.
    Otherwise blue is K_s joined to t = n - 2m + 2 + s odd cliques of
    sizes 2a_i + 1, the a_i a partition of m - 1 - s padded with zeros;
    red is the complete multipartite graph on those parts plus s isolated
    vertices.  s runs up from 0 and the partitions fall in lex order, so
    the first red graph at n = 2m is the spanning star K_{1,2m-1}.  Parts
    take the low vertices in rising size and the isolated ones come last.
    """
    if n < 2 * m:
        yield Graph(n, [0] * n)
        return
    for s in range(m):
        t = n - 2 * m + 2 + s
        for a in _partitions(m - 1 - s, m - 1 - s, t):
            sizes = [1] * (t - len(a)) + [2 * x + 1 for x in reversed(a)]
            full = (1 << (n - s)) - 1
            adj = []
            for size in sizes:
                part = ((1 << size) - 1) << len(adj)
                adj += [full & ~part] * size
            yield Graph(n, adj + [0] * s)


def matching_arrows(n: int, F: Graph, m: int) -> Optional[Graph]:
    """The red graph of a good coloring of K_n against (F, mK_2), or None
    when K_n arrows (F, mK_2).

    A coloring is good iff its blue graph is mK_2-free and red misses F,
    and enlarging blue to an edge-maximal mK_2-free graph only shrinks
    red.  So it is enough to try the complement of each edge-maximal one,
    as _matching_free_reds walks them; the first that F misses is the
    witness.  There is no search, so no budget applies.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"order {n} outside 0..{MAX_VERTICES}")
    if m < 1:
        raise ValueError(f"a matching needs m >= 1 edges, got {m}")
    for red in _matching_free_reds(n, m):
        if not embeds(F, red):
            return red
    return None


def _scan(start: int, n_max: int, good):
    """(least n in start..n_max at which good(n) is None, good(n - 1)).

    good(n) is a good coloring's red graph of K_n, or None when K_n
    arrows.  Raises SearchCapError when every order up to n_max has one.
    """
    witness = None
    for n in range(start, n_max + 1):
        got = good(n)
        if got is None:
            if witness is None and n > 1:
                witness = good(n - 1)
            return n, witness
        witness = got
    raise SearchCapError(f"r(F,G) > {n_max}; raise n_max")


def ramsey_number(F: Graph, G: Graph, n_max: int = MAX_VERTICES,
                  budget: Optional[float] = None, jobs: int = 1) -> int:
    """Least n with arrows(n, F, G), found by scanning upward.

    The scan starts at the larger pattern's order: below it that pattern
    does not fit, so coloring every edge in its color is good.  Raises
    ValueError if n_max is below that start, and SearchCapError if n_max
    is reached first.
    """
    r, _ = ramsey_number_with_witness(F, G, n_max=n_max, budget=budget, jobs=jobs)
    return r


def ramsey_number_with_witness(F: Graph, G: Graph, n_max: int = MAX_VERTICES,
                               budget: Optional[float] = None, jobs: int = 1):
    """(r, witness at r-1).  The witness is None only when r-1 admits no
    coloring at all (r <= 1).

    When G is a matching, each order n is decided by matching_arrows, by
    structure: no search, no helper and no budget, and the witness is the
    first coloring of its walk, the same for any jobs.  When only F is a
    matching, the scan decides (G, F) that way and returns the complement
    of its witness, since r(F, G) = r(G, F).

    Otherwise each order n is searched, with the anchored checks of F and
    G built once for the whole scan.  With jobs > 1 each searched order
    forks jobs - 1 helpers and kills them once it is decided (_run_search),
    so jobs above 1 needs os.fork; without it, jobs > 1 raises ValueError
    before anything is decided.  The budget, in seconds, applies to each
    order n on its own: one deadline per order, not one for the scan.
    """
    _check_jobs(jobs)
    if n_max > MAX_VERTICES:
        raise GraphError(f"n_max exceeds cap {MAX_VERTICES}")
    start = 1
    if F.q > 0 and G.q > 0:
        start = max(F.n, G.n)
    if n_max < start:
        raise ValueError(f"n_max={n_max} is below {start}, where the scan starts")
    m = _as_matching(G)
    if m is not None:
        return _scan(start, n_max, lambda n: matching_arrows(n, F, m))
    m = _as_matching(F)
    if m is not None:
        # the same colorings with red and blue swapped
        r, witness = _scan(start, n_max, lambda n: matching_arrows(n, G, m))
        return r, None if witness is None else complement(witness)
    checks = _make_check(F), _make_check(G)
    return _scan(start, n_max, lambda n: _run_search(n, F, G, checks, budget, jobs)[0])
