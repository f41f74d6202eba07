import itertools
import random

import pytest

from ramsey.arrowing import (
    BLUE,
    RED,
    Budget,
    BudgetExceededError,
    EdgeColoring,
    SearchCapError,
    arrows,
    coloring_from_text,
    coloring_to_text,
    find_good_coloring,
    ramsey_number,
    ramsey_number_with_witness,
    star_witness,
    verify_coloring,
    _has_matching,
    _make_check,
)
from ramsey.families import graph_from_name
from ramsey.graphs import from_edges, lex_edges

from brute import brute_good_coloring_exists, brute_has_matching

C4 = graph_from_name("C4")
K2 = graph_from_name("K2")
K3 = graph_from_name("K3")
P3 = graph_from_name("P3")
P4 = graph_from_name("P4")
M2 = graph_from_name("2K2")
K13 = graph_from_name("K1,3")
K23 = graph_from_name("K2,3")


class TestEdgeColoring:
    def test_from_red_total(self):
        c = EdgeColoring.from_red(3, [(0, 1)])
        assert c.is_total
        assert c.red_edges() == [(0, 1)]
        assert c.blue_edges() == [(0, 2), (1, 2)]

    def test_red_blue_graphs_partition(self):
        c = EdgeColoring.from_red(5, [(0, 1), (2, 3), (1, 4)])
        R, B = c.red_graph(), c.blue_graph()
        assert R.q + B.q == 10
        for i, j in lex_edges(5):
            assert R.has_edge(i, j) != B.has_edge(i, j)

    def test_partial_coloring(self):
        c = EdgeColoring(3, (RED, None, BLUE))
        assert not c.is_total

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            EdgeColoring(4, (RED, BLUE))


class TestVerifyColoring:
    def test_red_star_blue_rest_on_k5(self):
        # blue side is a K4 on the leaves, which contains 2K2
        c = EdgeColoring.from_red(5, [(0, i) for i in range(1, 5)])
        assert verify_coloring(c, C4, M2) is False

    def test_all_blue_k3(self):
        c = EdgeColoring.from_red(3, [])
        assert verify_coloring(c, C4, K3) is False

    def test_all_red_k3(self):
        c = EdgeColoring.from_red(3, lex_edges(3))
        assert verify_coloring(c, C4, K3) is True

    def test_rejects_partial(self):
        with pytest.raises(ValueError):
            verify_coloring(EdgeColoring(3, (RED, None, BLUE)), C4, K3)


class TestStarWitness:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_valid_for_matchings(self, q):
        w = star_witness(q)
        assert w.n == 2 * q
        m = graph_from_name(f"{q}K2")
        assert verify_coloring(w, C4, m)

    def test_red_graph_is_spanning_star(self):
        w = star_witness(3)
        assert sorted(w.red_graph().degrees()) == [1] * 5 + [5]

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            star_witness(1)


class TestFindGoodColoring:
    def test_found_below_threshold(self):
        c = find_good_coloring(6, C4, K3)
        assert c is not None
        assert verify_coloring(c, C4, K3)

    def test_absent_at_threshold(self):
        assert find_good_coloring(7, C4, K3) is None

    def test_absent_small(self):
        assert find_good_coloring(4, C4, P3) is None

    def test_budget_is_a_distinct_outcome(self):
        with pytest.raises(BudgetExceededError):
            find_good_coloring(9, C4, graph_from_name("4K2"),
                               budget=Budget(max_nodes=50))

    def test_deterministic_witness(self):
        a = find_good_coloring(6, C4, K3)
        b = find_good_coloring(6, C4, K3)
        assert a == b

    def test_jobs_do_not_change_result(self):
        seq = find_good_coloring(7, C4, graph_from_name("3K2"))
        par = find_good_coloring(7, C4, graph_from_name("3K2"), jobs=2)
        assert seq == par
        assert arrows(7, C4, K3, jobs=2).arrows


class TestArrows:
    def test_too_small_to_fit(self):
        out = arrows(2, C4, K3)
        assert out.arrows is False
        assert out.witness is not None

    def test_paper_anchor_4k2(self):
        m4 = graph_from_name("4K2")
        assert arrows(9, C4, m4).arrows is True
        out8 = arrows(8, C4, m4)
        assert out8.arrows is False
        assert verify_coloring(out8.witness, C4, m4)

    def test_witness_always_verifies(self):
        for n in range(2, 7):
            out = arrows(n, C4, P4)
            if out.witness is not None:
                assert verify_coloring(out.witness, C4, P4)

    def test_monotone_in_n(self):
        prev = False
        for n in range(2, 8):
            cur = arrows(n, C4, P3).arrows
            assert not (prev and not cur)
            prev = cur

    def test_search_tree_pinned(self):
        # the node count and the witness move if a check prunes differently
        m4 = graph_from_name("4K2")
        assert arrows(9, C4, m4).nodes == 113494
        text = "n=8\nred=0-1,0-2,0-3,0-4,0-5,0-6,0-7,1-2,3-4,5-6\n"
        assert coloring_to_text(arrows(8, C4, m4).witness) == text
        assert coloring_to_text(arrows(8, C4, m4, jobs=2).witness) == text

    def test_color_duality(self):
        for n in range(2, 7):
            assert arrows(n, C4, K3).arrows == arrows(n, K3, C4).arrows
            assert arrows(n, P4, K13).arrows == arrows(n, K13, P4).arrows


class TestMatchingCheck:
    """The matching kernel and its anchored check against brute_has_matching."""

    def test_has_matching_vs_oracle(self):
        rng = random.Random(1552)
        for _ in range(800):
            n = rng.randint(0, 10)
            density = rng.random()
            g = from_edges(n, [e for e in lex_edges(n) if rng.random() < density])
            avail = rng.getrandbits(n) if n else 0
            need = rng.randint(0, 5)
            got = _has_matching(list(g.adj), avail, need)
            assert got == brute_has_matching(g, need, avail), (g, bin(avail), need)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_anchored_check_fires_first(self, m):
        # the check sees only copies through the new edge, so grow the class
        # one edge at a time and stop where it first fires
        check = _make_check(graph_from_name(f"{m}K2"))
        rng = random.Random(m)
        for _ in range(40):
            n = rng.randint(2, 9)
            order = lex_edges(n)
            rng.shuffle(order)
            first = next((t for t in range(len(order))
                          if brute_has_matching(from_edges(n, order[:t + 1]), m)), None)
            adj = [0] * n
            fired = None
            for t, (u, v) in enumerate(order):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                if check(adj, n, u, v):
                    fired = t
                    break
            assert fired == first, (n, order)


class TestOracleEquivalence:
    """Pruned, symmetry-broken search vs the unpruned 2^C(n,2) scan."""

    PAIRS = [(C4, K3), (K3, C4), (C4, M2), (P3, P4), (K13, P3),
             (M2, M2), (K2, K3), (P4, P4)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_orders(self, n):
        for F, G in self.PAIRS:
            got = find_good_coloring(n, F, G) is not None
            assert got == brute_good_coloring_exists(n, F, G), (F, G, n)

    def test_n5_spot(self):
        for F, G in [(C4, M2), (K3, P3), (C4, K3)]:
            got = find_good_coloring(5, F, G) is not None
            assert got == brute_good_coloring_exists(5, F, G), (F, G)


class TestRamseyNumber:
    @pytest.mark.parametrize("blue,expected", [
        ("C4", 6),
        ("2K2", 5),
        ("P3", 4),
        ("K3", 7),
    ])
    def test_c4_values(self, blue, expected):
        assert ramsey_number(C4, graph_from_name(blue)) == expected

    def test_k2k_vs_k2(self):
        assert ramsey_number(K23, K2) == 5
        assert ramsey_number(graph_from_name("K2,4"), K2) == 6

    def test_isomorphism_invariance(self):
        scrambled = from_edges(4, [(2, 0), (0, 3), (3, 1), (1, 2)])  # a C4
        assert ramsey_number(scrambled, K3) == 7

    def test_witness_at_r_minus_1(self):
        r, w = ramsey_number_with_witness(C4, K13)
        assert r == 6
        assert w is not None and w.n == 5
        assert verify_coloring(w, C4, K13)

    def test_cap_error(self):
        with pytest.raises(SearchCapError):
            ramsey_number(C4, K3, n_max=5)

    def test_lower_bound_hint(self):
        assert ramsey_number(C4, M2, lower_bound=5) == 5


class TestWitnessFiles:
    def test_round_trip(self):
        c = EdgeColoring.from_red(5, [(0, 1), (2, 4)])
        text = coloring_to_text(c)
        assert text == "n=5\nred=0-1,2-4\n"
        assert coloring_from_text(text) == c

    def test_empty_red(self):
        c = EdgeColoring.from_red(3, [])
        assert coloring_from_text(coloring_to_text(c)) == c

    @pytest.mark.parametrize("bad", [
        "", "n=5", "n=x\nred=", "n=3\nred=0-0", "n=3\nred=5-1", "n=3\nblue=0-1",
        "n=33\nred=", "n=100000\nred=",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            coloring_from_text(bad)


class TestDegenerates:
    def test_single_vertex_patterns(self):
        k1 = from_edges(1, [])
        # an edgeless pattern occurs in every coloring once it fits
        assert arrows(1, k1, K3).arrows is True
        assert arrows(2, K3, k1).arrows is True

    def test_trivial_order_one(self):
        out = arrows(1, C4, K3)
        assert out.arrows is False
        assert out.witness.n == 1
