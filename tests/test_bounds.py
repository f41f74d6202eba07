from ramsey.bounds import sweep


def test_t1_holds_with_the_papers_equality_cases():
    # r(C4, G) <= 2q + 1, with equality exactly at qK2 and K3 (q <= 4)
    result = sweep("t1", q_max=4)
    assert not result.violations
    assert not result.incomplete
    assert set(result.equality_set) == {"2K2", "3K2", "4K2", "K3"}


def test_t2_equality_at_triangle():
    # r(C4, G) <= 2p + q - 2, with equality at K3
    result = sweep("t2", q_max=3)
    assert result.ok
    assert "K3" in result.equality_set
