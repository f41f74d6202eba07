"""The paper's theorem table and its sweep.

THEOREMS holds one row per edge-count upper bound on r(K_{2,k}, G): t1,
t2, l31, l32 and t3.  sweep checks one row against exact values over the
enumerated graphs of its domain.  It computes the exact Ramsey number for
every graph (both directions: arrowing at the bound and a good coloring
below it), so equality cases are classified, not just bounded.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional

from ramsey.arrowing import BudgetExceededError, SearchCapError, _pool, ramsey_number
from ramsey.enumeration import isolate_free_graphs
from ramsey.families import biclique, describe
from ramsey.graphs import MAX_VERTICES, Graph, graph6_encode, is_connected


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
    naming the counterexample.  A graph that runs out of budget, or whose
    exact value passes MAX_VERTICES, is recorded in .incomplete with its
    reason instead of aborting the sweep.

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
                n_max = min(bound + 2, MAX_VERTICES)
                t0 = time.perf_counter()
                try:
                    exact = ramsey_number(F, g, n_max=n_max, budget=budget, pool=pool)
                except BudgetExceededError:
                    result.incomplete.append((g6, "ran out of budget"))
                    continue
                except SearchCapError:
                    if n_max < MAX_VERTICES:  # exact > bound + 2
                        raise SweepViolationError(
                            f"{theorem} fails on {describe(g)} ({g6}): "
                            f"exact > {n_max} > bound {bound}") from None
                    result.incomplete.append((g6, f"have r above the {MAX_VERTICES}-vertex cap"))
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
