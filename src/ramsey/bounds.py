"""Edge-count upper bounds on r(F, G) and the sweep harness that checks
them against exact values over enumerated graph classes.

Each sweep computes the exact Ramsey number for every graph in the
theorem's domain (both directions: arrowing at the bound and a good
coloring below it), so equality cases are classified, not just bounded.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional

from ramsey.arrowing import BudgetExceededError, _pool, ramsey_number
from ramsey.enumeration import EnumFilter, enumerate_graphs, isolate_free_graphs
from ramsey.families import biclique, cycle, describe, path
from ramsey.graphs import (MAX_VERTICES, Graph, canonical_form, disjoint_union, graph6_encode,
                           is_connected)


class BoundReport(NamedTuple):
    """One row of a sweep: a graph, its exact Ramsey number against the
    theorem's fixed pattern, and the bound."""

    theorem: str
    g6: str
    name: str
    p: int
    q: int
    k: int
    exact: int
    bound: int
    slack: int
    equality: bool
    runtime: float

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "graph": {"g6": self.g6, "name": self.name},
            "p": self.p,
            "q": self.q,
            "k": self.k,
            "exact": self.exact,
            "bound": self.bound,
            "slack": self.slack,
            "equality": self.equality,
            "runtime": round(self.runtime, 3),
        }

    @classmethod
    def from_json(cls, row: dict) -> "BoundReport":
        """Inverse of to_json (runtime as rounded there)."""
        return cls(
            theorem=row["theorem"], g6=row["graph"]["g6"], name=row["graph"]["name"],
            p=row["p"], q=row["q"], k=row["k"], exact=row["exact"], bound=row["bound"],
            slack=row["slack"], equality=row["equality"], runtime=row["runtime"])


class SweepResult:
    """The rows of one sweep, and the graphs it could not settle."""

    def __init__(self, theorem: str):
        self.theorem = theorem
        self.reports: list[BoundReport] = []
        self.incomplete: list[tuple[str, str]] = []  # (g6, reason)

    @property
    def violations(self) -> list[BoundReport]:
        return [r for r in self.reports if r.slack < 0]

    @property
    def equality_set(self) -> list[str]:
        return [r.name for r in self.reports if r.equality]

    @property
    def max_slack(self) -> int:
        return max((r.slack for r in self.reports), default=0)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.incomplete

    def summary_json(self) -> dict:
        return {
            "summary": {
                "theorem": self.theorem,
                "graphs": len(self.reports),
                "violations": [r.name for r in self.violations],
                "incomplete": [g6 for g6, _ in self.incomplete],
                "max_slack": self.max_slack,
                "equality": self.equality_set,
            }
        }


class SweepViolationError(AssertionError):
    """A swept graph beat the theorem's bound (slack < 0)."""


def _is_path_star_or_triangle(g: Graph) -> bool:
    if not is_connected(g):
        return False
    if g.q == g.n == 3:
        return True  # triangle
    if g.q == g.n - 1:
        degs = sorted(g.degrees())
        return degs[-1] <= 2 or degs[-1] == g.n - 1  # path or star
    return False


class Theorem(NamedTuple):
    """The bound r(K_{2,k}, G) <= bound(p, q, k) for every isolate-free G
    in the domain with p vertices and q >= q_min edges, and k in k_range
    (C_4 = K_{2,2}).  q_max and k are the defaults of a desk-scale sweep."""

    q_min: int
    q_max: int
    k: int
    k_range: tuple[int, int]  # inclusive
    bound: Callable[[int, int, int], int]
    domain: Callable[[Graph], bool]


def _every_graph(g: Graph) -> bool:
    return True


# K_{2,k} has k + 2 <= MAX_VERTICES vertices
_K_MAX = MAX_VERTICES - 2

THEOREMS = {
    # q_min, default q_max, default k, k range, bound(p, q, k), domain
    "t1": Theorem(2, 4, 2, (2, 2), lambda p, q, k: 2 * q + 1, _every_graph),
    "t2": Theorem(2, 4, 2, (2, 2), lambda p, q, k: 2 * p + q - 2, lambda g: g.n >= 3),
    "l31": Theorem(2, 4, 2, (2, _K_MAX), lambda p, q, k: k * q + 1, _is_path_star_or_triangle),
    "l32": Theorem(2, 2, 3, (2, _K_MAX), lambda p, q, k: k * q + 1, _every_graph),
    "t3": Theorem(1, 2, 3, (3, _K_MAX), lambda p, q, k: k * q + 2, _every_graph),
}


def sweep_params(theorem: str, q_max: Optional[int] = None,
                 k: Optional[int] = None) -> tuple[str, Theorem, int, int, Graph]:
    """(theorem, its row, q_max, k, K_{2,k}) of a sweep, defaults filled in.

    Raises ValueError when the arguments leave no sweep to run.
    """
    theorem = theorem.lower()
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}, pick one of {tuple(THEOREMS)}")
    row = THEOREMS[theorem]
    q_max = row.q_max if q_max is None else q_max
    k = row.k if k is None else k
    lo, hi = row.k_range
    if not lo <= k <= hi:
        raise ValueError(f"{theorem} needs k in {lo}..{hi}, got {k}")
    if q_max < row.q_min:
        raise ValueError(f"{theorem} sweeps q from {row.q_min}, so q_max={q_max} leaves no graph")
    return theorem, row, q_max, k, biclique(2, k)


def sweep(theorem: str, q_max: Optional[int] = None, k: Optional[int] = None,
          budget: Optional[float] = None, jobs: int = 1,
          on_report: Optional[Callable[[BoundReport], None]] = None,
          skip: Optional[set] = None) -> SweepResult:
    """Check one bound over every enumerated graph in its hypothesis.

    Reports stream through on_report as they finish; skip (canonical graph6
    keys) resumes a partial run.  A slack < 0 raises SweepViolationError
    naming the counterexample; per-graph budget exhaustion is recorded in
    .incomplete instead of aborting the sweep.

    Each graph's Ramsey number is one scan over n, up to bound + 2 or
    MAX_VERTICES, whichever is less, and the budget, in seconds, is one
    deadline for each order n of it.  With jobs > 1 one process pool
    serves every scan of the sweep.  A matching G is decided by
    structure, with no search, pool or budget (arrowing.matching_arrows).
    """
    theorem, row, q_max, k, F = sweep_params(theorem, q_max, k)
    result = SweepResult(theorem)
    with _pool(jobs) as pool:
        for q in range(row.q_min, q_max + 1):
            for g in isolate_free_graphs(q):
                if not row.domain(g):
                    continue
                g6 = graph6_encode(g)
                if skip and g6 in skip:
                    continue
                p = g.n
                bound = row.bound(p, q, k)
                t0 = time.perf_counter()
                try:
                    exact = ramsey_number(F, g, n_max=min(bound + 2, MAX_VERTICES),
                                          budget=budget, pool=pool)
                except BudgetExceededError:
                    result.incomplete.append((g6, "budget exceeded"))
                    continue
                report = BoundReport(
                    theorem=theorem, g6=g6, name=describe(g), p=p, q=q, k=k, exact=exact,
                    bound=bound, slack=bound - exact, equality=bound == exact,
                    runtime=time.perf_counter() - t0)
                result.reports.append(report)
                if on_report:
                    on_report(report)
                if report.slack < 0:
                    raise SweepViolationError(
                        f"{theorem} fails on {report.name} ({g6}): "
                        f"exact {exact} > bound {bound}")
    return result


class InequalityCheck(NamedTuple):
    label: str
    lhs: int
    rhs: int
    holds: bool


def check_cited_inequalities(q_max: int = 4, budget: Optional[float] = None,
                             jobs: int = 1) -> list[InequalityCheck]:
    """Evaluate the borrowed inequalities with exact computed values.

    - chain r(C_4, P_n) <= r(C_4, C_n) <= n+2 for 4 <= n <= q_max+1
      (n = 3 is outside the chain's range: the triangle has r = 7 > 5);
    - union subadditivity r(C_4, G1 u G2) <= r(C_4, G1) + r(C_4, G2) - 1
      over all isolate-free pairs with q1 + q2 <= q_max;
    - the tree bound r(C_4, T) <= max(4, q+2, r(C_4, K_{1,q})) for every
      tree with q <= q_max edges.
    """
    if q_max > 5:
        raise ValueError("cited-inequality checks are desk-scale: q_max <= 5")
    C4 = biclique(2, 2)
    out: list[InequalityCheck] = []
    # one process pool for every value the checks ask for
    with _pool(jobs) as pool:
        # the checks ask for most values several times; key on the class
        known: dict[str, int] = {}

        def r_of(g: Graph) -> int:
            key = graph6_encode(canonical_form(g))
            if key not in known:
                known[key] = ramsey_number(C4, g, n_max=2 * max(g.q, 2) + 3,
                                           budget=budget, pool=pool)
            return known[key]

        for n in range(4, q_max + 2):
            rp, rc = r_of(path(n)), r_of(cycle(n))
            out.append(InequalityCheck(f"r(C4,P{n}) <= r(C4,C{n})", rp, rc, rp <= rc))
            out.append(InequalityCheck(f"r(C4,C{n}) <= {n + 2}", rc, n + 2, rc <= n + 2))

        singles: list[tuple[Graph, int]] = []
        for q in range(1, q_max):
            for g in isolate_free_graphs(q):
                singles.append((g, q))
        for i, (g1, q1) in enumerate(singles):
            for g2, q2 in singles[i:]:
                if q1 + q2 > q_max:
                    continue
                union = canonical_form(disjoint_union(g1, g2))
                lhs = r_of(union)
                rhs = r_of(g1) + r_of(g2) - 1
                out.append(InequalityCheck(
                    f"r(C4,{describe(union)}) <= r(C4,{describe(g1)}) + r(C4,{describe(g2)}) - 1",
                    lhs, rhs, lhs <= rhs))

        for q in range(1, q_max + 1):
            r_star = r_of(biclique(1, q))
            for tree in enumerate_graphs(EnumFilter(q=q, require_connected=True)):
                if tree.n != q + 1:
                    continue
                bound = max(4, q + 2, r_star)
                lhs = r_of(tree)
                out.append(InequalityCheck(
                    f"r(C4,{describe(tree)}) <= max(4, {q + 2}, r(C4,K1,{q}))",
                    lhs, bound, lhs <= bound))
    return out
