"""Named graph families and the little text grammar the CLI uses for them.

Grammar (family letters case-sensitive; every number is decimal, in 1..32):

    NAME := TERM (("u" | "+") TERM)*
    TERM := [m] BASE                      -- optional multiplier repeats the base
    BASE := "P"n | "C"n | "B"n | "K"n | "K"a","b | "K1,3+e"
          | "paw" | "T3" | "g6:"<graph6>

Blanks may stand around a term or a separator and after a multiplier.  "u"
and "+" both mean disjoint union, but a "u" before ":" is no separator.
"K1,3+e" is the paw; its "+e" is read with the K term, so it never collides
with union "+".  A g6 literal runs over the graph6 bytes "?".."~", so a "+",
a blank or the end ends it; "u" is one of those bytes, so a "u" after a g6
literal must be set off by a blank.

One error rule: a bad name raises NameParseError at the 0-based position of
the fault.  A GraphError from a builder (path, cycle, complete, biclique,
book) or from graph6_decode, as for C2 or B31, becomes a NameParseError at
the position of its base.  describe goes from a Graph back to a name.
"""

from __future__ import annotations

import functools
import re

from ramsey.graphs import (
    Graph,
    GraphError,
    MAX_VERTICES,
    as_biclique,
    canonical_form,
    components,
    disjoint_union,
    from_edges,
    graph6_decode,
    graph6_encode,
)


class NameParseError(ValueError):
    """Graph-name syntax error; .position is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def biclique(a: int, b: int) -> Graph:
    """K_{a,b}; K_{1,b} is the star."""
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def book(pages: int) -> Graph:
    """B_k: k triangles sharing the common edge (0, 1)."""
    edges = [(0, 1)]
    for t in range(pages):
        edges += [(0, 2 + t), (1, 2 + t)]
    return from_edges(pages + 2, edges)


PAW = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
# the tree on 5 vertices with exactly one vertex of degree 3
T3 = from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TERM = re.compile(r"""
    (?: (?P<mult>\d+) \s* )?
    (?P<base>
        g6: (?P<g6>[?-~]*)
      | (?P<named>paw|T3)
      | K (?P<a>\d+) , (?P<b>\d+) (?P<plus_e>\+e)?
      | (?P<letter>[PCBK]) (?P<n>\d+)
    )""", re.VERBOSE)
_SEP = re.compile(r"\s* (?P<sep> \+ | u(?!:) )? \s*", re.VERBOSE)

_NAMED = {"paw": PAW, "T3": T3}
# a family letter with one number: what the number counts, and the builder
_FAMILY = {
    "P": ("path length", path),
    "C": ("cycle length", cycle),
    "B": ("book size", book),
    "K": ("complete-graph order", complete),
}


def _number(m: re.Match, group: str, what: str) -> int:
    """m's number in group, refused outside 1..MAX_VERTICES before a builder runs."""
    try:
        value = int(m[group])
    except ValueError:  # more digits than int reads, so far past the cap
        value = 0
    if not 1 <= value <= MAX_VERTICES:
        raise NameParseError(f"{what} must be in 1..{MAX_VERTICES}", m.start(group))
    return value


def _base(m: re.Match) -> Graph:
    if m["g6"] is not None:
        return graph6_decode(m["g6"])
    if m["named"]:
        return _NAMED[m["named"]]
    if m["letter"]:
        what, build = _FAMILY[m["letter"]]
        return build(_number(m, "n", what))
    a, b = _number(m, "a", "part size"), _number(m, "b", "part size")
    if m["plus_e"] and (a, b) != (1, 3):
        raise GraphError(f"'+e' is only defined for K1,3, not K{a},{b}")
    return PAW if m["plus_e"] else biclique(a, b)


def graph_from_name(text: str) -> Graph:
    """The graph a name like "C4", "K2,3", "3K2", "2K2 u P3" or "g6:Bw"
    denotes."""
    i = len(text) - len(text.lstrip())
    if i == len(text):
        raise NameParseError("empty graph name", 0)
    parts: list[Graph] = []
    while True:
        m = _TERM.match(text, i)
        if m is None:
            raise NameParseError(f"expected a graph, found {text[i:]!r}", i)
        mult = _number(m, "mult", "multiplier") if m["mult"] else 1
        try:
            parts += [_base(m)] * mult
        except GraphError as e:
            raise NameParseError(str(e), m.start("base")) from None
        sep = _SEP.match(text, m.end())
        i = sep.end()
        if not sep["sep"]:
            break
    if i < len(text):
        raise NameParseError(f"expected 'u' or '+' between terms, found {text[i]!r}", i)
    total = sum(p.n for p in parts)
    if total > MAX_VERTICES:
        raise NameParseError(f"name denotes {total} vertices, cap is {MAX_VERTICES}", 0)
    return functools.reduce(disjoint_union, parts)


# ---------------------------------------------------------------------------
# naming
# ---------------------------------------------------------------------------

def _name_component(c: Graph, g6: str) -> str:
    """Family name of c, which must be connected (K1 included), else "g6:" +
    g6, its canonical graph6.  Counts decide: K_n by q = n(n-1)/2, P_n by
    q = n - 1 and max degree <= 2, C_n by n >= 4, q = n and max degree 2, the
    paw by n = q = 4, T3 by n = 5, q = 4 and max degree 3, B_{n-2} by degrees
    2^(n-2) (n-1)^2; K_{a,b} is as_biclique's (the house has K2,3's degrees)."""
    n, q = c.n, c.q
    degs = sorted(c.degrees())
    if q == n * (n - 1) // 2:
        return f"K{n}"  # includes K1, K2, K3
    if q == n - 1 and degs[-1] <= 2:
        return f"P{n}"
    if n >= 4 and q == n and degs[-1] == 2:
        return f"C{n}"
    if n == q == 4:
        return "paw"  # C4 is the only other connected graph with n = q = 4
    if n == 5 and q == 4 and degs[-1] == 3:
        return "T3"  # the only 5-vertex tree with max degree 3
    ab = as_biclique(c)
    if ab:
        return f"K{ab[0]},{ab[1]}"
    if degs == [2] * (n - 2) + [n - 1] * 2:
        return f"B{n - 2}"  # the top two vertices carry all 2n - 3 edges
    return "g6:" + g6


def describe(g: Graph) -> str:
    """Human name for g built from its components, e.g. "2K2 u P3".

    The result parses back through the grammar to an isomorphic graph.
    """
    if g.n == 0:
        return "g6:" + graph6_encode(g)
    comps = components(g)
    keyed = sorted([(c.q, c.n, graph6_encode(canonical_form(c)), c) for c in comps],
                   key=lambda t: t[:3])
    groups: list[tuple[str, int]] = []
    for _, _, g6, c in keyed:
        name = _name_component(c, g6)
        if groups and groups[-1][0] == name:
            groups[-1] = (name, groups[-1][1] + 1)
        else:
            groups.append((name, 1))
    return " u ".join((f"{c}" if c > 1 else "") + name for name, c in groups)
