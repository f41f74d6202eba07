"""Edge-count upper bounds on r(F, G) and the sweep harness that checks
them against exact values over enumerated graph classes.

Each sweep computes the exact Ramsey number for every graph in the
theorem's domain (both directions: arrowing at the bound and a good
coloring below it), so equality cases are classified, not just bounded.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional

from ramsey.arrowing import BudgetExceededError, ramsey_number
from ramsey.enumeration import EnumFilter, enumerate_graphs, isolate_free_graphs
from ramsey.families import biclique, cycle, describe, path
from ramsey.graphs import Graph, canonical_form, disjoint_union, graph6_encode, is_connected

THEOREMS = ("t1", "t2", "l31", "l32", "t3")

# desk-scale sweep envelopes; larger ranges need explicit q_max/k
DEFAULT_Q_MAX = {"t1": 4, "t2": 4, "l31": 4, "l32": 2, "t3": 2}
DEFAULT_K = {"t1": 2, "t2": 2, "l31": 2, "l32": 3, "t3": 3}


def bound_t1(q: int) -> int:
    """2q + 1, valid for isolate-free G with q >= 2 edges (F = C_4)."""
    if q < 2:
        raise ValueError(f"bound needs q >= 2, got {q}")
    return 2 * q + 1


def bound_t2(p: int, q: int) -> int:
    """2p + q - 2, valid for isolate-free G with q >= 2, p >= 3 (F = C_4)."""
    if p < 3 or q < 2:
        raise ValueError(f"bound needs p >= 3 and q >= 2, got p={p}, q={q}")
    return 2 * p + q - 2


def bound_l32(k: int, q: int) -> int:
    """kq + 1, valid for isolate-free G with q >= 2 edges (F = K_{2,k}, k >= 2)."""
    if k < 2 or q < 2:
        raise ValueError(f"bound needs k >= 2 and q >= 2, got k={k}, q={q}")
    return k * q + 1


def bound_t3(k: int, q: int) -> int:
    """kq + 2, valid for every isolate-free G (F = K_{2,k}, k >= 3)."""
    if k < 3 or q < 1:
        raise ValueError(f"bound needs k >= 3 and q >= 1, got k={k}, q={q}")
    return k * q + 2


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


def sweep_params(theorem: str, q_max: Optional[int] = None,
                 k: Optional[int] = None) -> tuple[str, int, int, int, Graph]:
    """(theorem, q_min, q_max, k, K_{2,k}) of a sweep, defaults filled in.

    Raises ValueError when the arguments leave no sweep to run.
    """
    theorem = theorem.lower()
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}, pick one of {THEOREMS}")
    if q_max is None:
        q_max = DEFAULT_Q_MAX[theorem]
    if k is None:
        k = DEFAULT_K[theorem]
    if theorem in ("t1", "t2") and k != 2:
        raise ValueError(f"{theorem} is the k=2 case; pass k=2 or omit it")
    if theorem == "t3" and k < 3:
        raise ValueError("t3 needs k >= 3")
    if k < 2:
        raise ValueError("k must be >= 2")
    q_min = 1 if theorem == "t3" else 2
    if q_max < q_min:
        raise ValueError(f"{theorem} sweeps q from {q_min}, so q_max={q_max} leaves no graph")
    return theorem, q_min, q_max, k, biclique(2, k)


def sweep(theorem: str, q_max: Optional[int] = None, k: Optional[int] = None,
          budget: Optional[float] = None, jobs: int = 1,
          on_report: Optional[Callable[[BoundReport], None]] = None,
          skip: Optional[set] = None) -> SweepResult:
    """Check one bound over every enumerated graph in its hypothesis.

    Reports stream through on_report as they finish; skip (canonical graph6
    keys) resumes a partial run.  A slack < 0 raises SweepViolationError
    naming the counterexample; per-graph budget exhaustion is recorded in
    .incomplete instead of aborting the sweep.

    Each graph's Ramsey number is one scan over n: with jobs > 1 it opens
    one process pool for that scan, and the budget, in seconds, is one
    deadline for each order n of it.  A matching G is decided by structure,
    with no search, pool or budget (arrowing.matching_arrows).
    """
    theorem, q_min, q_max, k, F = sweep_params(theorem, q_max, k)
    result = SweepResult(theorem)
    for q in range(q_min, q_max + 1):
        for g in isolate_free_graphs(q):
            p = g.n
            if theorem == "t2" and p < 3:
                continue
            if theorem == "l31" and not _is_path_star_or_triangle(g):
                continue
            g6 = graph6_encode(g)
            if skip and g6 in skip:
                continue
            if theorem == "t1":
                bound = bound_t1(q)
            elif theorem == "t2":
                bound = bound_t2(p, q)
            elif theorem == "t3":
                bound = bound_t3(k, q)
            else:
                bound = bound_l32(k, q)
            t0 = time.perf_counter()
            try:
                exact = ramsey_number(F, g, n_max=max(bound + 2, g.n, F.n),
                                      budget=budget, jobs=jobs)
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
    # the checks ask for most values several times; key on the class
    known: dict[str, int] = {}

    def r_of(g: Graph) -> int:
        key = graph6_encode(canonical_form(g))
        if key not in known:
            known[key] = ramsey_number(C4, g, n_max=2 * max(g.q, 2) + 3,
                                       budget=budget, jobs=jobs)
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
