import errno
import itertools
import os
import pickle
import random
import time
from pathlib import Path

import pytest

from ramsey.arrowing import (
    BudgetExceededError,
    SearchCapError,
    arrows,
    coloring_from_text,
    coloring_to_text,
    matching_arrows,
    ramsey_number,
    ramsey_number_with_witness,
    verify_coloring,
    _has_matching,
    _make_check,
    _run_search,
    _split,
)
from ramsey import arrowing
from ramsey.families import graph_from_name
from ramsey.enumeration import isolate_free_graphs
from ramsey.graphs import (
    Graph, GraphError, complement, embeds, from_edges, graph6_encode, is_connected, lex_edges,
)

from brute import (
    brute_embeds,
    brute_good_coloring_exists,
    brute_has_matching,
    brute_lex_leader_search,
)

C4 = graph_from_name("C4")
K2 = graph_from_name("K2")
K3 = graph_from_name("K3")
P3 = graph_from_name("P3")
P4 = graph_from_name("P4")
M2 = graph_from_name("2K2")
K13 = graph_from_name("K1,3")
K23 = graph_from_name("K2,3")
BULL = from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
# every tree with 1..5 edges: connected, with one vertex more than edges
TREES = [g for q in range(1, 6) for g in isolate_free_graphs(q)
         if g.n == q + 1 and is_connected(g)]


def counting_check(pat, calls):
    """_make_check(pat), adding 1 to calls[0] on every call."""
    check = _make_check(pat)

    def counted(*args):
        calls[0] += 1
        return check(*args)
    return counted


class TestColoring:
    def test_from_text_total(self):
        red = coloring_from_text("n=3\nred=0-1\n")
        assert red.edges() == [(0, 1)]
        assert complement(red).edges() == [(0, 2), (1, 2)]
        # a pair listed twice, either way round, is one red edge
        assert coloring_from_text("n=3\nred=0-1,1-0,0-1\n") == red

    def test_red_blue_graphs_partition(self):
        R = coloring_from_text("n=5\nred=0-1,2-3,1-4\n")
        B = complement(R)
        assert R.q + B.q == 10
        for i, j in lex_edges(5):
            assert R.has_edge(i, j) != B.has_edge(i, j)


class TestVerifyColoring:
    def test_red_star_blue_rest_on_k5(self):
        # blue side is a K4 on the leaves, which contains 2K2
        red = from_edges(5, [(0, i) for i in range(1, 5)])
        assert verify_coloring(red, C4, M2) is False

    def test_all_blue_k3(self):
        assert verify_coloring(from_edges(3, []), C4, K3) is False

    def test_all_red_k3(self):
        assert verify_coloring(from_edges(3, lex_edges(3)), C4, K3) is True


class TestStarWitness:
    """The paper's lower-bound construction r(C4, qK2) >= 2q+1: on K_2q the
    red spanning star has no 4-cycle, and blue misses its centre, so blue
    matchings stop at q-1 edges."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_valid_for_matchings(self, q):
        w = from_edges(2 * q, [(0, i) for i in range(1, 2 * q)])
        m = graph_from_name(f"{q}K2")
        assert verify_coloring(w, C4, m)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_first_coloring_of_the_walk(self, q):
        # s = 0 with parts 1 and 2q-1: red K_{1,2q-1}, blue K_1 join K_{2q-1}
        w = from_edges(2 * q, [(0, i) for i in range(1, 2 * q)])
        assert matching_arrows(2 * q, C4, q) == w
        assert ramsey_number_with_witness(C4, graph_from_name(f"{q}K2")) == (2 * q + 1, w)


class TestFindGoodColoring:
    """Good colorings, as the witness arrows returns."""

    def test_found_below_threshold(self):
        c = arrows(6, C4, K3).witness
        assert c is not None
        assert verify_coloring(c, C4, K3)

    def test_absent_at_threshold(self):
        assert arrows(7, C4, K3).witness is None

    def test_absent_small(self):
        assert arrows(4, C4, P3).witness is None

    def test_budget_is_a_distinct_outcome(self):
        with pytest.raises(BudgetExceededError):
            arrows(9, C4, graph_from_name("4K2"), budget=1e-9)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_deadline_across_subtrees_and_helpers(self, jobs):
        # the split and every subtree share the search's deadline, so
        # neither a subtree nor a forked helper gets the whole time budget
        # again
        budget = 0.5
        t0 = time.monotonic()
        with pytest.raises(BudgetExceededError) as exc:
            arrows(11, C4, graph_from_name("5K2"), budget=budget, jobs=jobs)
        assert time.monotonic() - t0 < 1.3 * budget
        assert exc.value.nodes > 0

    def test_budget_error_keeps_nodes_through_pickle(self):
        # a caller that runs searches in its own worker processes gets an
        # overrun back with its nodes
        e = pickle.loads(pickle.dumps(BudgetExceededError("over", nodes=1234)))
        assert type(e) is BudgetExceededError
        assert e.nodes == 1234
        assert str(e) == "over"

    def test_deterministic_witness(self):
        a = arrows(6, C4, K3).witness
        b = arrows(6, C4, K3).witness
        assert a == b

    def test_jobs_do_not_change_result(self):
        seq = arrows(7, C4, graph_from_name("3K2")).witness
        par = arrows(7, C4, graph_from_name("3K2"), jobs=2).witness
        assert seq == par
        assert arrows(7, C4, K3, jobs=2).arrows


class TestHelperLifetime:
    """The helpers a search forks: jobs - 1 per searched order n, each
    killed and reaped before the order's answer is returned or its overrun
    raised, so none is left to run on into the next order or scan."""

    @pytest.fixture
    def forks(self, monkeypatch):
        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_helper_outlives_a_scan(self, forks):
        witness = Path(__file__).resolve().parent.parent / "perfbench" / "c4_2k3.witness"
        for jobs in (2, 3):
            r, red = ramsey_number_with_witness(C4, graph_from_name("2K3"), jobs=jobs)
            assert r == 8
            assert coloring_to_text(red) == witness.read_text()
            self.assert_no_child_left()
        assert forks

    def test_no_helper_outlives_an_overrun(self, forks):
        with pytest.raises(BudgetExceededError) as exc:
            arrows(11, C4, graph_from_name("5K2"), budget=0.2, jobs=2)
        assert exc.value.nodes > 0
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_a_helper_that_dies_is_an_error(self, monkeypatch):
        # a helper killed from outside leaves its pipe empty; the search
        # says so and still reaps it
        me = os.getpid()
        search = arrowing._search

        def dying_search(*args):
            if os.getpid() != me:
                os._exit(3)
            return search(*args)
        monkeypatch.setattr(arrowing, "_search", dying_search)
        with pytest.raises(RuntimeError, match="ended before its subtree"):
            arrows(8, C4, graph_from_name("2K3"), jobs=2)
        self.assert_no_child_left()

    def test_a_helper_overrun_is_raised_with_every_node(self, monkeypatch):
        # K8 arrows, so this process reads the helper's first subtree; its
        # overrun is raised here with its own nodes added to the count
        me = os.getpid()
        search = arrowing._search

        def helper_overruns(*args):
            if os.getpid() != me:
                raise BudgetExceededError("helper over", nodes=7)
            return search(*args)
        monkeypatch.setattr(arrowing, "_search", helper_overruns)
        with pytest.raises(BudgetExceededError, match="^helper over$") as exc:
            arrows(8, C4, graph_from_name("2K3"), jobs=2)
        # 8 split nodes up to the second d, 292 in the first d's subtree
        # and the helper's 7
        assert exc.value.nodes == 8 + 292 + 7
        self.assert_no_child_left()

    def test_a_failed_fork_closes_its_pipe_and_reaps_the_helpers(self, forks, monkeypatch):
        # the second of two forks fails: both ends of its pipe are closed,
        # and the helper already forked is killed and reaped
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("needs /proc/self/fd to count open descriptors")
        fork = os.fork

        def second_fails():
            if forks:
                raise OSError(errno.EAGAIN, "no process for the second helper")
            return fork()
        monkeypatch.setattr(os, "fork", second_fails)
        before = len(list(fds.iterdir()))
        with pytest.raises(OSError, match="second helper"):
            arrows(8, C4, graph_from_name("2K3"), jobs=3)
        assert len(list(fds.iterdir())) == before
        assert len(forks) == 1
        self.assert_no_child_left()

    def test_jobs_minus_one_helpers_per_order(self, forks):
        for jobs in (2, 3):
            forks.clear()
            assert arrows(8, C4, graph_from_name("2K3"), jobs=jobs).arrows
            assert len(forks) == jobs - 1

    def test_matching_opens_none(self, forks):
        # decided by structure, on either side
        assert ramsey_number_with_witness(C4, graph_from_name("3K2"), jobs=2)[0] == 7
        assert ramsey_number_with_witness(graph_from_name("3K2"), C4, jobs=2)[0] == 7
        assert forks == []

    def test_sequential_opens_none(self, forks):
        assert ramsey_number_with_witness(C4, graph_from_name("2K3"))[0] == 8
        assert arrows(8, C4, graph_from_name("2K3")).arrows
        assert forks == []

    def test_jobs_run_the_same_subtrees(self, monkeypatch):
        # this process searches every jobs-th d, from the first, of those
        # that jobs=1 searches, in the same order; the helpers search the
        # rest, and their calls are not seen here
        searched = []
        search = arrowing._search

        def recording_search(*args):
            searched.append(args[-1])
            return search(*args)
        monkeypatch.setattr(arrowing, "_search", recording_search)
        M3 = graph_from_name("2K3")
        assert arrows(8, C4, M3).nodes == 9583
        every = searched[:]
        assert len(every) > 3
        for jobs in (2, 3):
            searched.clear()
            assert arrows(8, C4, M3, jobs=jobs).nodes == 9583
            assert searched == every[0::jobs]

    def test_jobs_need_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        M3 = graph_from_name("2K3")
        for call in (lambda: arrows(8, C4, M3, jobs=2),
                     lambda: ramsey_number_with_witness(C4, M3, jobs=2),
                     lambda: ramsey_number_with_witness(C4, graph_from_name("3K2"), jobs=2)):
            with pytest.raises(ValueError, match="os.fork"):
                call()
        assert arrows(8, C4, M3).nodes == 9583

    def test_jobs_below_one_refused(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            arrows(8, C4, graph_from_name("2K3"), jobs=0)


class TestArrows:
    def test_too_small_to_fit(self):
        # neither pattern fits in K_n, so the witness is the all-red K_n
        # with no search; K3 fits in K_3, where the search runs
        for blue in (K3, graph_from_name("K4")):
            for n in range(blue.n):
                out = arrows(n, C4, blue)
                assert out.arrows is False
                assert out.witness == from_edges(n, lex_edges(n))
                assert verify_coloring(out.witness, C4, blue)
                assert out.nodes == 0

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
        # the node count and the witness move if a check or the lex-leader
        # rule prunes differently
        m4 = graph_from_name("4K2")
        assert arrows(9, C4, m4).nodes == 13538
        assert arrows(9, C4, m4, jobs=2).nodes == 13538
        text = "n=8\nred=0-1,0-2,0-3,0-4,0-5,0-6,0-7,1-2,3-4,5-6\n"
        assert coloring_to_text(arrows(8, C4, m4).witness) == text
        assert coloring_to_text(arrows(8, C4, m4, jobs=2).witness) == text

    def test_search_tree_pinned_generic(self):
        # the same for a pattern that only the generic check handles; the
        # n=7 witness is the one in perfbench/c4_2k3.witness
        m3 = graph_from_name("2K3")
        assert arrows(8, C4, m3).nodes == 9583
        assert arrows(8, C4, m3, jobs=2).nodes == 9583
        text = "n=7\nred=0-1,0-2,0-3,0-4,1-2,1-5,1-6,3-4,5-6\n"
        assert coloring_to_text(arrows(7, C4, m3).witness) == text
        assert coloring_to_text(arrows(7, C4, m3, jobs=2).witness) == text

    @pytest.mark.parametrize("n,blue", [(9, "4K2"), (8, "2K3")])
    def test_vertex0_prefixes_check_once_per_node(self, n, blue):
        calls = [0]
        *survivors, (tail, end) = _split(n, counting_check(C4, calls),
                                         counting_check(graph_from_name(blue), calls), None)
        assert end is None
        assert calls[0] <= sum(lead for lead, _ in survivors) + tail
        # a star holds neither C4 nor the blue pattern, so every d survives,
        # in falling order, each after its n-1-d blue nodes
        assert survivors == [(n - 1, n - 1)] + [(n - 1 - d, d) for d in range(n - 2, -1, -1)]
        assert tail == 0

    def test_split_survivors_are_the_star_colorings(self):
        # d survives iff F misses the red star (0,1)..(0,d) and G the blue
        # star on vertex 0's other n-1-d edges, and d falls
        def star(n, leaves):
            return from_edges(n, [(0, v) for v in leaves])
        pats = [g for q in range(1, 5) for g in isolate_free_graphs(q)]
        triples = 0
        for n in range(2, 9):
            for F in pats:
                for G in pats:
                    triples += 1
                    *survivors, (_, end) = _split(n, _make_check(F), _make_check(G), None)
                    assert end is None
                    want = [d for d in range(n - 1, -1, -1)
                            if not embeds(F, star(n, range(1, d + 1)))
                            and not embeds(G, star(n, range(d + 1, n)))]
                    assert [d for _, d in survivors] == want, (n, F.adj, G.adj)
        assert triples == 2527

    def test_split_replays_the_sequential_search(self):
        # the split and its subtrees, searched in falling d in this
        # process, give the whole-tree DFS's witness, node total and
        # anchored checks, in its order and no more, over every pair of the
        # 19 isolate-free patterns with q <= 4
        pats = [g for q in range(1, 5) for g in isolate_free_graphs(q)]
        pairs = 0

        def logged(pat, tag, log):
            check = _make_check(pat)

            def call(adj, n, u, v):
                log.append((tag, u, v))
                return check(adj, n, u, v)
            return call

        for n in range(4, 8):
            for F in pats:
                for G in pats:
                    if F.n > n and G.n > n:
                        continue  # decided before any search
                    pairs += 1
                    want_log, got_log = [], []
                    red, nodes = brute_lex_leader_search(
                        n, logged(F, "red", want_log), logged(G, "blue", want_log))
                    want = (None if red is None else Graph(n, red), nodes)
                    checks = logged(F, "red", got_log), logged(G, "blue", got_log)
                    got = _run_search(n, F, G, checks, None, 1)
                    assert got == want, (n, F.adj, G.adj)
                    assert got_log == want_log, (n, F.adj, G.adj)
        assert pairs == 1282

    @pytest.mark.parametrize("red,blue,n", [
        ("C4", "K3", 6), ("C4", "K3", 7), ("C4", "4K2", 8), ("C4", "3K2", 7),
        ("C4", "2K3", 7), ("K3", "C4", 6), ("P4", "P3 u K2", 5), ("C4", "K1,3", 6),
        ("K1", "K3", 4), ("2K3", "2K3", 5),
    ])
    def test_jobs_do_not_change_nodes(self, red, blue, n):
        # the parallel path counts the vertex-0 nodes the sequential DFS
        # visits before, between and after the values of d it hands out
        F, G = graph_from_name(red), graph_from_name(blue)
        seq = arrows(n, F, G)
        par = arrows(n, F, G, jobs=2)
        assert par.nodes == seq.nodes
        assert par.witness == seq.witness
        if seq.witness is not None:
            assert verify_coloring(seq.witness, F, G)

    def test_color_duality(self):
        for n in range(2, 7):
            assert arrows(n, C4, K3).arrows == arrows(n, K3, C4).arrows
            assert arrows(n, P4, K13).arrows == arrows(n, K13, P4).arrows


class TestMatchingCheck:
    """The matching kernel, and the anchored check of mK2 that asks it, against
    brute_has_matching."""

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


class TestGenericCheck:
    """The anchored plan kernel behind check_generic against brute_embeds."""

    @pytest.mark.parametrize("name,kind", [
        ("C4", "biclique"), ("K2,3", "biclique"), ("3K2", "generic"),
        ("K1,3", "star"), ("P3", "star"), ("K2", "star"), ("paw", "generic"),
    ])
    def test_dispatch(self, name, kind):
        # the benchmark tracer names check kinds after these functions
        assert _make_check(graph_from_name(name)).__name__ == "check_" + kind

    @pytest.mark.parametrize("name,n_max", [
        ("P4", 7), ("paw", 7), ("K3", 7), ("P3 u K2", 7), ("2K3", 6),
        ("K3 u K2", 6), ("bull", 6), ("C5", 6),
        # near-matching forests: their K2 components go to the matching
        # kernel, and 2K2 u K1's one plan is anchored on a K2
        ("2K2 u P3", 8), ("3K2 u P3", 9), ("2K2 u K3", 8), ("K2 u 2P3", 8),
        ("2K2 u K1,3", 8), ("2K2 u K1", 7),
    ])
    def test_anchored_check_fires_first(self, name, n_max):
        # one plan per orbit of directed edges of the pattern less its K2
        # components, plus one when it has any: one for K3, 2K3 and C5, two
        # for K3 u K2, three for P4 and P3 u K2, five for paw and the bull
        pat = BULL if name == "bull" else graph_from_name(name)
        check = _make_check(pat)
        assert check.__name__ == "check_generic"
        rng = random.Random(name)
        for _ in range(20):
            # from one order below where the pattern fits
            n = rng.randint(max(2, pat.n - 1), n_max)
            order = lex_edges(n)
            rng.shuffle(order)
            adj = [0] * n
            fired = len(order)
            for t, (u, v) in enumerate(order):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                if check(adj, n, u, v):
                    fired = t
                    break
            # containment only grows with the prefix, so the check fired
            # first iff the pattern is absent before it and present with it
            assert not brute_embeds(pat, from_edges(n, order[:fired])), (n, order)
            if fired < len(order):
                assert brute_embeds(pat, from_edges(n, order[:fired + 1])), (n, order)


class TestOracleEquivalence:
    """Pruned, symmetry-broken search vs the unpruned 2^C(n,2) scan."""

    PAIRS = [(C4, K3), (K3, C4), (C4, M2), (P3, P4), (K13, P3),
             (M2, M2), (K2, K3), (P4, P4)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_orders(self, n):
        for F, G in self.PAIRS:
            got = arrows(n, F, G).witness is not None
            assert got == brute_good_coloring_exists(n, F, G), (F, G, n)

    def test_n5_spot(self):
        for F, G in [(C4, M2), (K3, P3), (C4, K3)]:
            got = arrows(5, F, G).witness is not None
            assert got == brute_good_coloring_exists(5, F, G), (F, G)


class TestEveryGraphOracle:
    """The search against every n-vertex red graph up to isomorphism: K_n
    arrows (F, G) iff each such R holds F or has G in its complement."""

    def test_graph_counts(self, graphs_by_order):
        # OEIS A000088
        assert [len(graphs_by_order[n]) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lex_greatest_labelling_survives(self, graphs_by_order, n):
        # the soundness claim of the symmetry breaks: the lex-greatest
        # relabelling of any red graph passes both, edge by edge, at every
        # red edge and at every block's first edge, red or blue
        edges = lex_edges(n)
        for g in graphs_by_order[n]:
            best = max(itertools.permutations(range(n)),
                       key=lambda p: [g.has_edge(p[i], p[j]) for i, j in edges])
            red = [0] * n
            for u, v in edges:
                is_red = g.has_edge(best[u], best[v])
                if is_red:
                    red[u] |= 1 << v
                    red[v] |= 1 << u
                if is_red or v == u + 1:
                    assert not arrowing._lex_violated(red, u, v), (g.adj, u, v)
            d = red[0].bit_count()
            assert red[0] == (2 << d) - 2

    @pytest.mark.parametrize("n", range(3, 8))
    def test_every_small_pattern_pair(self, graphs_by_order, n):
        pats = [g for q in range(1, 5) for g in isolate_free_graphs(q)]
        assert len(pats) == 19
        hosts = graphs_by_order[n]
        blues = [complement(h) for h in hosts]
        # bit j: the pattern is in host j, or in its complement
        in_red = [sum(1 << j for j, h in enumerate(hosts) if embeds(p, h)) for p in pats]
        in_blue = [sum(1 << j for j, b in enumerate(blues) if embeds(p, b)) for p in pats]
        every = (1 << len(hosts)) - 1
        for F, red_hit in zip(pats, in_red):
            for G, blue_hit in zip(pats, in_blue):
                out = arrows(n, F, G)
                assert out.arrows == (red_hit | blue_hit == every), (n, F.adj, G.adj)
                if out.witness is not None:
                    assert verify_coloring(out.witness, F, G)


class TestRamseyNumber:
    @pytest.mark.parametrize("blue,expected", [
        ("C4", 6),
        ("2K2", 5),
        ("P3", 4),
        ("K3", 7),
    ])
    def test_c4_values(self, blue, expected):
        assert ramsey_number(C4, graph_from_name(blue)) == expected

    @pytest.mark.parametrize("red,blue,expected", [
        ("K2,3", "K2,3", 10),  # Radziszowski, dynamic survey DS1
        ("C4", "K1,5", 8),  # Parsons
        ("C4", "K1,6", 9),
        *[("K3", f"{m}K2", 2 * m + 1) for m in range(1, 6)],
        # Chvátal (1977): r(K3, T) = 2q + 1 for a tree T with q edges
        *[("K3", "g6:" + graph6_encode(t), 2 * t.q + 1) for t in TREES],
    ])
    def test_published_values(self, red, blue, expected):
        F, G = graph_from_name(red), graph_from_name(blue)
        r, w = ramsey_number_with_witness(F, G)
        assert r == expected
        assert verify_coloring(w, F, G)

    def test_thirteen_trees(self):
        # 1, 1, 2, 3 and 6 trees with 1..5 edges (OEIS A000055)
        assert [t.q for t in TREES] == [1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 5]

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

    def test_n_max_past_the_vertex_cap(self):
        with pytest.raises(GraphError):
            ramsey_number(C4, K3, n_max=33)

    def test_checks_built_once_per_scan(self, monkeypatch):
        # the anchored checks do not depend on n, so the scan over n = 6..8
        # builds one per colour, not one per colour and order
        built = []
        make_check = arrowing._make_check

        def recording(pat):
            built.append(pat)
            return make_check(pat)
        monkeypatch.setattr(arrowing, "_make_check", recording)
        M3 = graph_from_name("2K3")
        assert ramsey_number_with_witness(C4, M3, jobs=1)[0] == 8
        assert built == [C4, M3]


# the patterns the structural walk is checked on against the search
WALK_PATTERNS = ["C4", "K3", "K1,3", "P4", "K2,3", "C5", "K4", "P3", "2K2",
                 "K1,3 u K2", "paw", "P5"]


class TestMatchingByStructure:
    """matching_arrows, the walk over the complements of edge-maximal
    mK2-free graphs, against the search and the every-graph oracle."""

    # (K4, 4K2) and (C5, 4K2) are left out: the search needs seconds there
    @pytest.mark.parametrize("name,m", [
        (name, m) for name in WALK_PATTERNS for m in range(1, 5)
        if (name, m) not in (("K4", 4), ("C5", 4))])
    def test_agrees_with_search(self, name, m):
        F, G = graph_from_name(name), graph_from_name(f"{m}K2")
        r, w = ramsey_number_with_witness(F, G)
        assert arrows(r, F, G).arrows
        assert matching_arrows(r, F, m) is None
        assert not arrows(r - 1, F, G).arrows
        assert w == matching_arrows(r - 1, F, m)
        for n in range(r):
            assert verify_coloring(matching_arrows(n, F, m), F, G), n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_pattern(self, graphs_by_order, n):
        # K_n arrows (F, mK2) iff every red graph holds F or leaves a blue
        # mK2; F runs over every graph on up to 5 vertices, isolates too
        hosts = graphs_by_order[n]
        every = (1 << len(hosts)) - 1
        for m in (1, 2, 3):
            G = graph_from_name(f"{m}K2")
            blue_hit = sum(1 << j for j, h in enumerate(hosts) if embeds(G, complement(h)))
            for k in range(1, 6):
                for F in graphs_by_order[k]:
                    red_hit = sum(1 << j for j, h in enumerate(hosts) if embeds(F, h))
                    w = matching_arrows(n, F, m)
                    assert (w is None) == (red_hit | blue_hit == every), (n, F.adj, m)
                    assert w is None or verify_coloring(w, F, G)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_c4_vs_matchings(self, m):
        # the paper's equality case r(C4, qK2) = 2q + 1, far past the search
        r, w = ramsey_number_with_witness(C4, graph_from_name(f"{m}K2"))
        assert r == 2 * m + 1
        assert verify_coloring(w, C4, graph_from_name(f"{m}K2"))

    def test_colour_swap(self):
        M3 = graph_from_name("3K2")
        r, w = ramsey_number_with_witness(M3, C4)
        assert r == 7 == ramsey_number(M3, C4)
        assert verify_coloring(w, M3, C4)
        assert w == complement(ramsey_number_with_witness(C4, M3)[1])

    def test_below_2m(self):
        # mK2 does not fit in K_n: all blue is good iff F has an edge
        assert matching_arrows(5, K3, 3) == from_edges(5, [])
        assert matching_arrows(5, from_edges(2, []), 3) is None
        assert matching_arrows(1, from_edges(2, []), 3) == from_edges(1, [])
        assert matching_arrows(0, K3, 1) == from_edges(0, [])

    def test_no_budget_is_spent(self):
        r = ramsey_number(C4, graph_from_name("6K2"), budget=1e-9)
        assert r == 13

    def test_cap_error(self):
        with pytest.raises(SearchCapError):
            ramsey_number(C4, graph_from_name("4K2"), n_max=8)
        with pytest.raises(SearchCapError):
            ramsey_number(graph_from_name("4K2"), C4, n_max=8)

    @pytest.mark.parametrize("n,m", [(-1, 2), (33, 2), (6, 0), (6, -1)])
    def test_bad_input_rejected(self, n, m):
        with pytest.raises(ValueError):
            matching_arrows(n, C4, m)


class TestWitnessFiles:
    def test_round_trip(self):
        red = from_edges(5, [(0, 1), (2, 4)])
        text = coloring_to_text(red)
        assert text == "n=5\nred=0-1,2-4\n"
        assert coloring_from_text(text) == red

    def test_empty_red(self):
        red = from_edges(3, [])
        assert coloring_from_text(coloring_to_text(red)) == red

    @pytest.mark.parametrize("bad", [
        "", "n=5", "n=x\nred=", "n=3\nred=0-0", "n=3\nred=5-1", "n=3\nblue=0-1",
        "n=33\nred=", "n=100000\nred=", "n=3\nred=0-x",
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
