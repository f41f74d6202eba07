"""The paper's theorem table and its sweep.

THEOREMS holds one row per edge-count upper bound on r(K_{2,k}, G): t1,
t2, l31, l32 and t3.  sweep checks one row against exact values over the
enumerated graphs of its domain.  It computes the exact Ramsey number for
every graph (both directions: arrowing at the bound and a good coloring
below it), so equality cases are classified, not just bounded.
"""

from __future__ import annotations

import json
import math
import time
from typing import Callable, NamedTuple, Optional

from ramsey.arrowing import BudgetExceededError, SearchCapError, _check_jobs, ramsey_number
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
    def of(cls, theorem: str, g: Graph, k: int, exact: int, runtime: float) -> "BoundReport":
        """The row a sweep of theorem at k writes for g, whose exact value
        r(K_{2,k}, g) took runtime seconds."""
        bound = THEOREMS[theorem].bound(g.n, g.q, k)
        return cls(theorem=theorem, g6=graph6_encode(g), name=describe(g), p=g.n, q=g.q, k=k,
                   exact=exact, bound=bound, slack=bound - exact, equality=bound == exact,
                   runtime=runtime)


class SweepResult:
    """The rows of one sweep, and the graphs it could not settle."""

    def __init__(self, theorem: str):
        self.theorem = theorem
        self.reports: list[BoundReport] = []
        self.incomplete: list[tuple[str, str]] = []  # (g6, reason)

    @property
    def equality_set(self) -> list[str]:
        return [r.name for r in self.reports if r.equality]

    @property
    def max_slack(self) -> int:
        return max((r.slack for r in self.reports), default=0)

    @property
    def ok(self) -> bool:
        return not self.incomplete

    def summary_json(self) -> dict:
        return {
            "summary": {
                "theorem": self.theorem,
                "graphs": len(self.reports),
                "violations": [],  # a violation raises SweepViolationError
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
    "t2": Theorem(2, 4, 2, (2, 2), lambda p, q, k: 2 * p + q - 2, _every_graph),
    "l31": Theorem(2, 4, 2, (2, _K_MAX), lambda p, q, k: k * q + 1, _is_path_star_or_triangle),
    "l32": Theorem(2, 2, 3, (2, _K_MAX), lambda p, q, k: k * q + 1, _every_graph),
    "t3": Theorem(1, 2, 3, (3, _K_MAX), lambda p, q, k: k * q + 2, _every_graph),
}


def sweep_params(theorem: str, q_max: Optional[int] = None, k: Optional[int] = None,
                 jobs: int = 1) -> tuple[str, Theorem, int, int, Graph]:
    """(theorem, its row, q_max, k, K_{2,k}) of a sweep, defaults filled in.

    Raises ValueError when the arguments leave no sweep to run, jobs
    included (jobs above 1 needs os.fork).
    """
    _check_jobs(jobs)
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


def _resumed_report(theorem: str, g: Optional[Graph], k: int, row: dict) -> BoundReport:
    """The report of row if it is the row a sweep writes for g, given the
    row's exact and runtime; else ValueError says why, naming the first
    field that differs.  g is None when the row is not one of the sweep's."""
    exact, runtime = row.get("exact"), row.get("runtime")
    if g is None:
        raise ValueError("not a graph of this sweep")
    if type(exact) is not int:  # bool is an int subclass
        raise ValueError(f"exact is {json.dumps(exact)}, not an integer")
    if not (type(runtime) is float and 0 <= runtime < math.inf):
        raise ValueError(f"runtime is {json.dumps(runtime)}, not a number of seconds")
    report = BoundReport.of(theorem, g, k, exact, runtime)
    want = report.to_json()
    if row.keys() != want.keys():
        raise ValueError(f"fields are {sorted(row)}, the sweep writes {sorted(want)}")
    for field in want:
        # as JSON text, so true is not 1 and 0 is not false
        have, should = (json.dumps(r[field], sort_keys=True) for r in (row, want))
        if have != should:
            raise ValueError(f"{field} is {have}, the sweep writes {should}")
    return report


def sweep(theorem: str, q_max: Optional[int] = None, k: Optional[int] = None,
          budget: Optional[float] = None, jobs: int = 1,
          on_report: Optional[Callable[[BoundReport], None]] = None,
          resumed: Optional[dict] = None) -> SweepResult:
    """Check one bound over every enumerated graph in its hypothesis.

    Searched rows stream through on_report.  A row with slack < 0,
    searched or resumed, raises SweepViolationError naming the graph.  A
    graph that runs out of budget, or whose exact value passes
    MAX_VERTICES, joins .incomplete with its reason, and the sweep goes on.

    resumed maps graph6 keys to the JSON rows an earlier run wrote.  Before
    any search, each key must be one of this sweep's graphs, and its row
    must equal, as JSON, the row BoundReport.of rebuilds from that graph, k
    and the row's exact and runtime; else ValueError names the first field
    that differs.  Accepted rows meet the slack check first, then join
    .reports in enumeration order, with no search and no on_report call.

    Each graph's Ramsey number is one scan over n, up to bound + 2 or
    MAX_VERTICES, whichever is less, and the budget, in seconds, is one
    deadline for each order n of it.  With jobs > 1 each searched order
    forks jobs - 1 helpers, which die once that order is decided
    (arrowing._run_search); a platform without os.fork refuses jobs > 1
    with ValueError before the first row.  A matching G is decided by
    structure, with no search, helper or budget (arrowing.matching_arrows).
    """
    theorem, row, q_max, k, F = sweep_params(theorem, q_max, k, jobs)
    graphs = {graph6_encode(g): g for q in range(row.q_min, q_max + 1)
              for g in isolate_free_graphs(q) if row.domain(g)}
    done = {}
    for g6, line in (resumed or {}).items():
        try:
            done[g6] = _resumed_report(theorem, graphs.get(g6), k, line)
        except ValueError as e:
            raise ValueError(f"resumed row {g6!r}: {e}") from None
    result = SweepResult(theorem)
    # resumed rows first, so a resumed counterexample stops the sweep before any search
    for g6 in sorted(graphs, key=lambda g6: g6 not in done):
        g, report = graphs[g6], done.get(g6)
        if report is None:
            bound = row.bound(g.n, g.q, k)
            n_max = min(bound + 2, MAX_VERTICES)
            t0 = time.perf_counter()
            try:
                exact = ramsey_number(F, g, n_max=n_max, budget=budget, jobs=jobs)
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
            report = BoundReport.of(theorem, g, k, exact, time.perf_counter() - t0)
            if on_report:
                on_report(report)
        result.reports.append(report)
        if report.slack < 0:
            raise SweepViolationError(
                f"{theorem} fails on {report.name} ({g6}): "
                f"exact {report.exact} > bound {report.bound}")
    order = {g6: i for i, g6 in enumerate(graphs)}
    result.reports.sort(key=lambda r: order[r.g6])
    return result
