import os

import pytest

from ramsey import arrowing
from ramsey.arrowing import ramsey_number
from ramsey.bounds import THEOREMS, BoundReport, SweepViolationError, sweep, sweep_params
from ramsey.families import biclique, cycle, path
from ramsey.graphs import (canonical_form, disjoint_union, graph6_decode, graph6_encode,
                           is_connected)


def test_t1_holds_with_the_papers_equality_cases():
    # r(C4, G) <= 2q + 1, with equality exactly at qK2 and K3 (q <= 4)
    result = sweep("t1", q_max=4)
    assert result.ok
    assert set(result.equality_set) == {"2K2", "3K2", "4K2", "K3"}


def test_t2_equality_at_triangle():
    # r(C4, G) <= 2p + q - 2, with equality exactly at K3 (q <= 4)
    result = sweep("t2", q_max=4)
    assert result.ok
    assert set(result.equality_set) == {"K3"}


def rows(result):
    return [(r.name, r.exact, r.bound) for r in result.reports]


def test_l31_on_paths_stars_and_the_triangle():
    # r(C4, G) <= 2q + 1 on P_n, K_{1,n} and K3, with equality at K3 (q <= 4)
    result = sweep("l31")
    assert result.ok
    assert rows(result) == [("P3", 4, 5), ("K3", 7, 7), ("K1,3", 6, 7), ("P4", 5, 7),
                            ("K1,4", 7, 9), ("P5", 6, 9)]
    assert result.equality_set == ["K3"]


def test_l31_at_k3():
    # r(K2,3, G) <= 3q + 1 on the same domain, never with equality (q <= 3)
    result = sweep("l31", k=3, q_max=3)
    assert result.ok
    assert rows(result) == [("P3", 5, 7), ("K3", 9, 10), ("K1,3", 7, 10), ("P4", 6, 10)]
    assert result.equality_set == []


def test_l32_default_sweep():
    # r(K2,3, G) <= 3q + 1 over every isolate-free G with q = 2
    result = sweep("l32")
    assert result.ok
    assert rows(result) == [("P3", 5, 7), ("2K2", 6, 7)]
    assert result.equality_set == []


def test_t3_default_sweep():
    # r(K2,3, G) <= 3q + 2, with equality at K2 (q <= 2)
    result = sweep("t3")
    assert result.ok
    assert rows(result) == [("K2", 5, 5), ("P3", 5, 8), ("2K2", 6, 8)]
    assert result.equality_set == ["K2"]


def test_sweep_whose_bound_passes_the_vertex_cap():
    # kq + 1 + 2 = 33 is past MAX_VERTICES = 32, but r(K2,15, G) is far below it
    result = sweep("l32", k=15, q_max=2)
    assert result.ok
    assert rows(result) == [("P3", 17, 31), ("2K2", 18, 31)]


def _p3_row(theorem, k, exact):
    """{graph6: row} of P3 as a sweep writes it, to resume from without
    searching P3."""
    return {"BW": BoundReport.of(theorem, graph6_decode("BW"), k, exact, 0.0).to_json()}


def test_sweep_records_a_value_past_the_vertex_cap():
    # r(K2,30, 2K2) = k + 3 = 33 passes MAX_VERTICES; the row is kept as
    # incomplete, with its own reason, and the sweep goes on.  P3's row is
    # resumed with r(K2,k, P3) = k + 2, which search gives for k = 2..8
    result = sweep("l32", k=30, q_max=2, resumed=_p3_row("l32", 30, 32))
    assert [r.to_json() for r in result.reports] == list(_p3_row("l32", 30, 32).values())
    assert result.incomplete == [("CK", "have r above the 32-vertex cap")]
    assert not result.ok


def test_sweep_reports_a_scan_past_the_bound_as_a_violation(monkeypatch):
    # with 2K2's bound set to 2, its scan stops at 4 < r(C4, 2K2) = 5,
    # which already breaks the bound; P3 (p = 3) keeps 2q + 1, so its
    # resumed row holds
    t1 = THEOREMS["t1"]
    monkeypatch.setitem(THEOREMS, "t1", t1._replace(
        bound=lambda p, q, k: 2 if p == 4 else t1.bound(p, q, k)))
    with pytest.raises(SweepViolationError, match=r"t1 fails on 2K2 \(CK\): exact > 4 > bound 2"):
        sweep("t1", q_max=2, resumed=_p3_row("t1", 2, 4))


@pytest.mark.parametrize("g6,name", [("BW", "P3"), ("CK", "2K2")])
def test_sweep_stops_at_a_resumed_violation_before_any_search(monkeypatch, g6, name):
    # exact 99 against the bound 2q + 1 = 5 leaves slack -94; the row is
    # refused before any search, also when it is 2K2's and P3 has no row
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(arrowing, "_run_search", no_search)
    monkeypatch.setattr(arrowing, "matching_arrows", no_search)
    row = BoundReport.of("t1", graph6_decode(g6), 2, 99, 0.0)
    assert row.slack == -94
    message = rf"t1 fails on {name} \({g6}\): exact 99 > bound 5"
    with pytest.raises(SweepViolationError, match=message):
        sweep("t1", q_max=2, resumed={g6: row.to_json()})


@pytest.mark.parametrize("theorem,k", [("t1", 3), ("t2", 1), ("l31", 1), ("l32", 31),
                                       ("t3", 2), ("t3", 31)])
def test_sweep_rejects_k_outside_the_theorems_range(theorem, k):
    with pytest.raises(ValueError, match=f"{theorem} needs k in"):
        sweep_params(theorem, k=k)


def test_sweep_rejects_an_unknown_theorem():
    with pytest.raises(ValueError, match="unknown theorem 't9'"):
        sweep("t9")


def test_cited_relations_over_the_t1_rows():
    # three inequalities from other authors, on exact values r(C4, G):
    # - the chain r(C4, Pn) <= r(C4, Cn) <= n + 2 for n = 4, 5 (n = 3 is
    #   outside its range: the triangle has r = 7 > 5);
    # - union subadditivity r(C4, G1 u G2) <= r(C4, G1) + r(C4, G2) - 1
    #   over the isolate-free pairs with q1 + q2 <= 4;
    # - the tree bound r(C4, T) <= max(4, q + 2, r(C4, K1,q)) for q <= 4.
    # The values are the t1 rows to q = 4, keyed by canonical graph6, plus
    # K2 and C5: t1 starts at q = 2, and C5 has 5 edges
    C4, K2, C5 = biclique(2, 2), biclique(1, 1), cycle(5)
    reports = sweep("t1", q_max=4).reports
    exact = {row.g6: row.exact for row in reports}
    for g in (K2, C5):
        exact[graph6_encode(canonical_form(g))] = ramsey_number(C4, g)

    def r(g):
        return exact[graph6_encode(canonical_form(g))]

    graphs = [K2] + [graph6_decode(row.g6) for row in reports]

    pairs = []
    for n in (4, 5):
        pairs += [(r(path(n)), r(cycle(n))), (r(cycle(n)), n + 2)]
    singles = [g for g in graphs if g.q <= 3]
    for i, g1 in enumerate(singles):
        for g2 in singles[i:]:
            if g1.q + g2.q <= 4:
                pairs.append((r(disjoint_union(g1, g2)), r(g1) + r(g2) - 1))
    for q in range(1, 5):
        for tree in graphs:
            if tree.q == q and tree.n == q + 1 and is_connected(tree):
                pairs.append((r(tree), max(4, q + 2, r(biclique(1, q)))))

    # chain, then unions, then trees; the first is r(C4, P4) <= r(C4, C4)
    assert pairs == [
        (5, 6), (6, 6), (6, 7), (7, 7),
        (5, 7), (6, 7), (7, 8), (7, 10), (7, 9), (7, 8), (8, 9), (9, 10),
        (7, 7), (8, 8), (9, 9),
        (4, 4), (4, 4), (6, 6), (5, 6), (7, 7), (6, 7), (6, 7)]
    assert all(lhs <= rhs for lhs, rhs in pairs)


def test_sweep_rows_do_not_depend_on_jobs():
    # each searched order forks helpers that search part of its subtrees
    rows = [(r.g6, r.exact) for r in sweep("t1", q_max=3, jobs=2).reports]
    assert rows == [(r.g6, r.exact) for r in sweep("t1", q_max=3).reports]
    assert len(rows) == 7


def test_sweep_refuses_jobs_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="os.fork"):
        sweep("t1", q_max=3, jobs=2)


def test_sweep_resumed_from_every_row_searches_nothing(monkeypatch):
    # a complete run's rows re-checked offline: each is rebuilt from its
    # graph and exact value, so no search runs and the summary is the same
    full = sweep("t1", q_max=4)
    rows = {r.g6: r.to_json() for r in full.reports}

    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(arrowing, "_run_search", no_search)
    monkeypatch.setattr(arrowing, "matching_arrows", no_search)
    resumed = sweep("t1", q_max=4, resumed=rows, on_report=no_search)
    assert resumed.summary_json() == full.summary_json()
    assert [r.to_json() for r in resumed.reports] == list(rows.values())
