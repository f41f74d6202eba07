from concurrent.futures import ProcessPoolExecutor

import pytest

from ramsey import arrowing
from ramsey.bounds import check_cited_inequalities, sweep


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
