from concurrent.futures import ProcessPoolExecutor

import pytest

from ramsey import arrowing
from ramsey.bounds import check_cited_inequalities, sweep, sweep_params


def test_t1_holds_with_the_papers_equality_cases():
    # r(C4, G) <= 2q + 1, with equality exactly at qK2 and K3 (q <= 4)
    result = sweep("t1", q_max=4)
    assert not result.violations
    assert not result.incomplete
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


@pytest.mark.parametrize("theorem,k", [("t1", 3), ("t2", 1), ("l31", 1), ("l32", 31),
                                       ("t3", 2), ("t3", 31)])
def test_sweep_rejects_k_outside_the_theorems_range(theorem, k):
    with pytest.raises(ValueError, match=f"{theorem} needs k in"):
        sweep_params(theorem, k=k)


def test_cited_inequalities_hold():
    checks = check_cited_inequalities(q_max=4)
    assert len(checks) == 22
    assert [c.label for c in checks if not c.holds] == []
    # chain, then unions, then trees; the first is r(C4, P4) <= r(C4, C4)
    assert [(c.lhs, c.rhs) for c in checks] == [
        (5, 6), (6, 6), (6, 7), (7, 7),
        (5, 7), (6, 7), (7, 8), (7, 10), (7, 9), (7, 8), (8, 9), (9, 10),
        (7, 7), (8, 8), (9, 9),
        (4, 4), (4, 4), (6, 6), (5, 6), (7, 7), (6, 7), (6, 7)]


@pytest.fixture
def opened(monkeypatch):
    """The keyword arguments of every process pool opened, through the
    module attribute the benchmark's tracer also replaces."""
    opened = []

    def counting_pool(*args, **kwargs):
        opened.append(kwargs)
        return ProcessPoolExecutor(*args, **kwargs)
    monkeypatch.setattr(arrowing, "ProcessPoolExecutor", counting_pool)
    return opened


def test_one_pool_per_sweep(opened):
    # the scans of every searched class share it, with the rows of jobs=1
    rows = [(r.g6, r.exact) for r in sweep("t1", q_max=3, jobs=2).reports]
    assert opened == [{"max_workers": 2}]
    assert rows == [(r.g6, r.exact) for r in sweep("t1", q_max=3).reports]
    assert len(rows) == 7


def test_one_pool_for_the_cited_inequalities(opened):
    checks = check_cited_inequalities(q_max=3, jobs=2)
    assert opened == [{"max_workers": 2}]
    assert checks == check_cited_inequalities(q_max=3)
