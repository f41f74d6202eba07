"""Named graph families and the little text grammar the CLI uses for them.

Grammar (whitespace-insensitive, family letters case-sensitive):

    NAME := TERM (("u" | "+") TERM)*
    TERM := [m] BASE                      -- optional multiplier repeats the term
    BASE := "P"n | "C"n | "K"n | "K"a","b | "B"k
          | "paw" | "K1,3+e" | "T3" | "g6:"<graph6>

"u" and "+" both mean disjoint union.  "K1,3+e" is lexed as a single token
(the paw), so the trailing "+e" never collides with union "+".  A g6 literal
runs to the next whitespace, "+" or end of input ("u" is a valid graph6
byte, so after a g6 literal the word "u" must be set off by whitespace).

graph_from_name reads a name straight into its Graph: each BASE is built as
it is read, by path, cycle, complete, biclique or book, or as the constant
PAW or T3, and a g6 literal is decoded once.  The terms are then joined by
disjoint union.  describe goes the other way, from a Graph to a name.
"""

from __future__ import annotations

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
    is_connected,
    isomorphic,
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

_G6_OK = frozenset(chr(c) for c in range(63, 127))


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def startswith(self, s: str) -> bool:
        return self.text.startswith(s, self.i)

    def take_int(self, what: str) -> int:
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
        if self.i == start:
            raise NameParseError(f"expected {what}", start)
        value = int(self.text[start:self.i])
        # every number in a name is at most the vertex cap; check before a
        # builder lists the edges of, say, K100000
        if not 1 <= value <= MAX_VERTICES:
            raise NameParseError(f"{what} must be in 1..{MAX_VERTICES}", start)
        return value


def graph_from_name(text: str) -> Graph:
    """The graph a name like "C4", "K2,3", "3K2", "2K2 u P3" or "g6:Bw"
    denotes."""
    sc = _Scanner(text)
    parts: list[Graph] = []
    sc.skip_ws()
    if not sc.peek():
        raise NameParseError("empty graph name", 0)
    while True:
        parts.extend(_parse_term(sc))
        sc.skip_ws()
        if not sc.peek():
            break
        if sc.peek() == "+":
            sc.i += 1
        elif sc.peek() == "u" and not sc.startswith("u:"):
            sc.i += 1
        else:
            raise NameParseError(f"expected 'u' or '+' between terms, found {sc.peek()!r}", sc.i)
        sc.skip_ws()
    total = sum(p.n for p in parts)
    if total > MAX_VERTICES:
        raise NameParseError(f"name denotes {total} vertices, cap is {MAX_VERTICES}", 0)
    g = parts[0]
    for part in parts[1:]:
        g = disjoint_union(g, part)
    return g


def _parse_term(sc: _Scanner) -> list[Graph]:
    sc.skip_ws()
    mult = sc.take_int("multiplier") if sc.peek().isdigit() else 1
    return [_parse_base(sc)] * mult


def _parse_base(sc: _Scanner) -> Graph:
    sc.skip_ws()
    start = sc.i
    if sc.startswith("g6:"):
        sc.i += 3
        lit_start = sc.i
        while sc.peek() and sc.peek() in _G6_OK and sc.peek() != "+" and not sc.peek().isspace():
            sc.i += 1
        literal = sc.text[lit_start:sc.i]
        if not literal:
            raise NameParseError("empty graph6 literal", lit_start)
        try:
            return graph6_decode(literal)
        except GraphError as e:
            raise NameParseError(f"bad graph6 literal: {e}", lit_start) from None
    if sc.startswith("paw"):
        sc.i += 3
        return PAW
    if sc.startswith("T3"):
        sc.i += 2
        return T3
    ch = sc.peek()
    if ch == "P":
        sc.i += 1
        return path(sc.take_int("path length"))
    if ch == "C":
        sc.i += 1
        n = sc.take_int("cycle length")
        if n < 3:
            raise NameParseError(f"cycle C{n} needs n >= 3", start)
        return cycle(n)
    if ch == "B":
        sc.i += 1
        return book(sc.take_int("book size"))
    if ch == "K":
        sc.i += 1
        a = sc.take_int("complete-graph order")
        if sc.peek() == ",":
            sc.i += 1
            b = sc.take_int("second part size")
            if sc.startswith("+e"):
                if (a, b) != (1, 3):
                    raise NameParseError("'+e' is only defined for K1,3", sc.i)
                sc.i += 2
                return PAW
            return biclique(a, b)
        return complete(a)
    raise NameParseError(f"unknown family {ch!r}" if ch else "unexpected end of name", start)


# ---------------------------------------------------------------------------
# naming
# ---------------------------------------------------------------------------

def _name_component(c: Graph, g6: str) -> str:
    """Family name of a connected (or single-vertex) graph, falling back to
    g6, its canonical graph6."""
    n, q = c.n, c.q
    degs = sorted(c.degrees())
    if q == n * (n - 1) // 2:
        return f"K{n}"  # includes K1, K2, K3
    if q == n - 1 and degs[-1] <= 2 and is_connected(c):
        return f"P{n}"
    if n >= 4 and q == n and all(d == 2 for d in degs) and is_connected(c):
        return f"C{n}"
    if n == 4 and q == 4 and isomorphic(c, PAW):
        return "paw"
    if n == 5 and q == 4 and isomorphic(c, T3):
        return "T3"
    ab = as_biclique(c)
    if ab:
        return f"K{ab[0]},{ab[1]}"
    if n >= 4 and q == 2 * (n - 2) + 1 and isomorphic(c, book(n - 2)):
        return f"B{n - 2}"
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
