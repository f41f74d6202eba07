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
