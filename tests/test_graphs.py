import itertools
import random

import pytest

from ramsey import graphs
from ramsey.graphs import (
    Graph,
    _bits,
    _find,
    _refine_colors,
    as_biclique,
    GraphError,
    canonical_form,
    components,
    disjoint_union,
    embeds,
    from_edges,
    graph6_decode,
    graph6_encode,
    lex_edges,
)

from ramsey.families import graph_from_name

from brute import (
    brute_canonical_form,
    brute_embeds,
    brute_graphs,
    brute_isomorphic,
    brute_orbit_labels,
    brute_refine_colors,
)

K3 = from_edges(3, [(0, 1), (0, 2), (1, 2)])
K4 = from_edges(4, list(itertools.combinations(range(4), 2)))
P3 = from_edges(3, [(0, 1), (1, 2)])
P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
C4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
PAW = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
M2 = from_edges(4, [(0, 1), (2, 3)])
STAR3 = from_edges(4, [(0, i) for i in range(1, 4)])
STAR4 = from_edges(5, [(0, i) for i in range(1, 5)])


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def relabeled(g, perm):
    return from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


class TestConstruction:
    def test_k3(self):
        assert K3.q == 3
        assert K3.degrees() == (2, 2, 2)

    def test_empty_two_vertices(self):
        g = from_edges(2, [])
        assert g.q == 0
        assert g.n == 2

    def test_matching(self):
        assert M2.q == 2
        assert M2.degrees() == (1, 1, 1, 1)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            from_edges(3, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            from_edges(3, [(0, 3)])

    def test_vertex_cap(self):
        with pytest.raises(GraphError):
            Graph(33, [0] * 33)

    @pytest.mark.parametrize("n,adj,message", [
        (2, [2, 0], "asymmetric"),
        (2, [0], "adjacency has 1 rows"),
        (2, [4, 0], "row 0 references a vertex >= 2"),
        (1, [1], "self-loop at vertex 0"),
    ])
    def test_bad_adjacency_rejected(self, n, adj, message):
        with pytest.raises(GraphError, match=message):
            Graph(n, adj)

    def test_edges_lexicographic(self):
        assert C4.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


class TestDisjointUnion:
    def test_two_edges(self):
        u = disjoint_union(from_edges(2, [(0, 1)]), from_edges(2, [(0, 1)]))
        assert brute_isomorphic(u, M2)

    def test_k2_with_triangle(self):
        u = disjoint_union(from_edges(2, [(0, 1)]), K3)
        assert (u.n, u.q) == (5, 4)

    def test_identity_with_empty(self):
        assert disjoint_union(K3, from_edges(0, [])) == K3

    def test_cap_enforced(self):
        big = from_edges(20, [])
        with pytest.raises(GraphError):
            disjoint_union(big, from_edges(13, []))


# highly symmetric graphs, where the canonical search lives on its
# automorphism pruning; the strings are the ones the unpruned search chose
SYMMETRIC_FORMS = [
    ("8K2", "O?????@?_G@?C?G?G?C??"),
    ("7K2", "M????CCA?_C?O?_??"),
    ("4K3", "K?CX@D?OK?O@"),
    ("3K4", "K@KyADB_C?oB"),
    ("2K4 + 4K2", "O?CaC?????_B?F?G?CG@B"),
    ("4C4", "O?????B?oW@_K?K?W?E??"),
    ("5P3", "N????????@_WB?K?W??"),
]


class TestCanonicalForm:
    def test_all_relabelings_of_paw_agree(self):
        forms = {canonical_form(relabeled(PAW, perm))
                 for perm in itertools.permutations(range(4))}
        assert len(forms) == 1

    def test_p3_labelings(self):
        a = from_edges(3, [(0, 1), (1, 2)])
        b = from_edges(3, [(1, 0), (0, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_different_graphs_differ(self):
        assert canonical_form(K3) != canonical_form(P3)

    def test_invariance_random(self):
        rng = random.Random(23)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 8))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(g, perm)) == canonical_form(g)

    def test_output_isomorphic_to_input(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 7))
            assert brute_isomorphic(canonical_form(g), g)

    def test_agrees_with_brute_force(self):
        rng = random.Random(41)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 6), rng.choice([0.2, 0.4, 0.6, 0.8]))
            assert canonical_form(g) == brute_canonical_form(g), g

    @pytest.mark.parametrize("name,g6", SYMMETRIC_FORMS)
    def test_symmetric_forms_pinned(self, name, g6):
        g = graph_from_name(name)
        assert graph6_encode(canonical_form(g)) == g6
        rng = random.Random(name)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert graph6_encode(canonical_form(relabeled(g, perm))) == g6


def _automorphism_cases():
    """Every graph on at most 6 vertices, then seeded random graphs on 8-11
    vertices: plain ones of several densities, and ones built as two
    copies of a random graph plus pendant leaves, which have twins and
    non-trivial orbits."""
    cases = [g for n in range(1, 7) for g in brute_graphs(n)]
    rng = random.Random(97)
    for _ in range(40):
        cases.append(random_graph(rng, rng.randint(8, 11), rng.choice([0.15, 0.3, 0.5, 0.8])))
    for _ in range(40):
        h = random_graph(rng, rng.randint(3, 5))
        g = disjoint_union(h, h)
        leaves = rng.randint(0, 11 - g.n)
        g = from_edges(g.n + leaves, g.edges() + [(0, g.n + i) for i in range(leaves)])
        perm = list(range(g.n))
        rng.shuffle(perm)
        cases.append(relabeled(g, perm))
    return cases


def test_refine_colors_matches_plain_loop(graphs_by_order):
    # the early return and the shared neighbour lists must give the colours
    # of the loop that refines until a round changes nothing
    cases = [g for gs in graphs_by_order.values() for g in gs] + _automorphism_cases()
    cases += [graph_from_name(name) for name, _ in SYMMETRIC_FORMS]
    for g in cases:
        assert _refine_colors([list(_bits(row)) for row in g.adj]) == brute_refine_colors(g), g


def _generators(g):
    """The canonical form of g and the automorphisms canonical_form returns
    with it."""
    autos = []
    return canonical_form(g, autos=autos), autos


class TestAutomorphismGenerators:
    @pytest.fixture(scope="class")
    def cases(self):
        return _automorphism_cases()

    def test_generators_are_automorphisms(self, cases):
        for g in cases:
            form, gens = _generators(g)
            edges = set(form.edges())
            for gamma in gens:
                assert sorted(gamma) == list(range(g.n)), g
                assert {tuple(sorted((gamma[a], gamma[b]))) for a, b in edges} == edges, g

    def test_orbits_inside_brute_force_orbits(self, cases):
        for g in cases:
            form, gens = _generators(g)
            label = brute_orbit_labels(form)
            orbit = list(range(g.n))
            for gamma in gens:
                for x in range(g.n):
                    a, b = _find(orbit, x), _find(orbit, gamma[x])
                    if a != b:
                        orbit[a] = b
            for x in range(g.n):
                assert label[_find(orbit, x)] == label[x], (g, x)

    def test_twins_give_transpositions(self):
        # the leaves of a star are pairwise twins, and the search prunes
        # every leaf after the first as a twin of one already tried
        _, gens = _generators(STAR4)
        assert gens
        assert all(sum(gamma[x] != x for x in range(5)) == 2 for gamma in gens)

    def test_asymmetric_graph_has_none(self):
        # the smallest asymmetric graphs have 6 vertices; this one is a
        # path 0-1-2-3-4 with 5 joined to 2 and 3
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])
        assert brute_orbit_labels(g) == list(range(6))
        assert _generators(g)[1] == []


class TestEmbeds:
    def test_p3_in_k3(self):
        assert embeds(P3, K3)

    def test_c4_not_in_k3(self):
        assert not embeds(C4, K3)

    def test_matching_in_c4(self):
        assert embeds(M2, C4)

    def test_reflexive(self):
        for g in (K3, C4, PAW, M2):
            assert embeds(g, g)

    def test_size_guards(self):
        assert not embeds(K4, K3)
        assert not embeds(K3, P4)  # more edges than the path has

    def test_not_induced(self):
        # a blue K4 contains a blue C4
        assert embeds(C4, K4)

    def test_agrees_with_brute_force(self):
        rng = random.Random(97)
        pool = [random_graph(rng, rng.randint(0, 6)) for _ in range(12)]
        pool += [K3, C4, P4, M2, PAW]
        # the degree pigeonhole alone rejects 3K2 in K5 u K1 (six vertices
        # of degree >= 1 needed) and K1,3 in C4 u K1 (a degree-3 vertex)
        k1 = from_edges(1, [])
        k5 = from_edges(5, list(itertools.combinations(range(5), 2)))
        pool += [from_edges(6, [(0, 1), (2, 3), (4, 5)]), disjoint_union(k5, k1),
                 STAR3, disjoint_union(C4, k1)]
        for h in pool:
            for g in pool:
                assert embeds(h, g) == brute_embeds(h, g), (h, g)

    # the shapes embeds dispatches on, and near-matchings, whose plans
    # leave their K2 components to the matching kernel at the leaf
    SHAPES = ["K2", "2K2", "3K2", "K2,2", "K2,3", "K2,4", "2K2 u K1",
              "K2 u P3", "K2 u K3", "K2 u P4", "K2 u K1,3"]

    def test_shapes_agree_with_brute_force(self):
        pats = [graph_from_name(name) for name in self.SHAPES]
        for n in range(7):
            for g in brute_graphs(n):
                for h in pats:
                    assert embeds(h, g) == brute_embeds(h, g), (h, g)

    @pytest.mark.parametrize("name,kernels", [
        ("3K2", {"_has_matching"}), ("K2,3", set()),
        ("2K2 u K1", {"extend_embedding", "_has_matching"}), ("P3", {"extend_embedding"}),
    ])
    def test_shape_dispatch(self, monkeypatch, name, kernels):
        called = set()
        for fn in ("_has_matching", "extend_embedding"):
            def recorded(*args, _fn=getattr(graphs, fn), _name=fn):
                called.add(_name)
                return _fn(*args)
            monkeypatch.setattr(graphs, fn, recorded)
        assert embeds(graph_from_name(name), graph_from_name("K6"))
        assert called == kernels

    @pytest.mark.parametrize("name", ["C4", "K2,3", "matching"])
    def test_shapes_agree_with_networkx(self, name):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher
        rng = random.Random(name)
        verdicts = set()
        # GraphMatcher takes seconds to rule out a matching in a host of
        # middling density, so the hosts are sparse or dense
        for _ in range(16):
            n = rng.randint(10, 12)
            g = random_graph(rng, n, rng.choice([0.1, 0.45]))
            h = graph_from_name(f"{n // 2}K2" if name == "matching" else name)
            host = nx.Graph(g.edges())
            host.add_nodes_from(range(g.n))
            want = GraphMatcher(host, nx.Graph(h.edges())).subgraph_is_monomorphic()
            assert embeds(h, g) == want, (h, g)
            verdicts.add(want)
        assert verdicts == {True, False}


class TestEmbedPlan:
    """The plan's leaf takes the K2 components its steps do not place."""

    @staticmethod
    def k2_edge(h):
        return next((a, b) for a, b in h.edges()
                    if h.adj[a] == 1 << b and h.adj[b] == 1 << a)

    @pytest.mark.parametrize("name,steps,leaf", [
        ("K3", 3, 0), ("2K2 u P3", 3, 2), ("3K2 u P3", 3, 3), ("K2 u 2P3", 6, 1),
        ("2K2 u K1", 1, 2), ("2K3", 6, 0),
    ])
    def test_unanchored_leaf_counts_the_k2s(self, name, steps, leaf):
        plan = graphs.embed_plan(graph_from_name(name))
        assert len(plan) - 1 == steps
        assert plan[-1] == (None, leaf)

    @pytest.mark.parametrize("name", ["2K2 u P3", "3K2 u P3", "K2 u K3", "2K2 u K1"])
    def test_anchor_on_a_k2_places_it_first(self, name):
        h = graph_from_name(name)
        a, b = self.k2_edge(h)
        m = graphs.embed_plan(h)[-1][1]
        plan = graphs.embed_plan(h, (a, b))
        assert plan[:2] == [([], 1), ([0], 1)]
        assert plan[-1] == (None, m - 1)
        assert len(plan) - 1 == h.n - 2 * (m - 1)

    def test_anchor_off_the_k2s_keeps_the_count(self):
        h = graph_from_name("2K2 u P3")
        a = next(v for v in range(h.n) if h.adj[v].bit_count() == 2)
        plan = graphs.embed_plan(h, (a, next(_bits(h.adj[a]))))
        assert plan[:2] == [([], 2), ([0], 1)]
        assert plan[-1] == (None, 2)


class TestAsBiclique:
    def test_agrees_with_isomorphism(self):
        # every graph on up to 5 vertices against every K_{a,b} of its order
        for n in range(6):
            pairs = lex_edges(n)
            ref = {(a, n - a): from_edges(n, [(i, a + j) for i in range(a) for j in range(n - a)])
                   for a in range(1, n // 2 + 1)}
            for bits in range(1 << len(pairs)):
                g = from_edges(n, [e for k, e in enumerate(pairs) if (bits >> k) & 1])
                want = next((ab for ab, kab in ref.items() if brute_isomorphic(g, kab)), None)
                assert as_biclique(g) == want, g


class TestGraph6:
    def test_known_strings(self):
        # cross-checked against networkx's codec (see test_matches_networkx)
        assert brute_isomorphic(graph6_decode("Bw"), K3)
        assert brute_isomorphic(graph6_decode("C~"), K4)

    def test_encode_k3(self):
        assert graph6_encode(K3) == "Bw"

    def test_round_trip_small(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 32))
            assert graph6_decode(graph6_encode(g)) == g

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(8)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 12))
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges())
            assert nx.to_graph6_bytes(ref, header=False).decode().strip() == graph6_encode(g)
            back = nx.from_graph6_bytes(graph6_encode(g).encode())
            assert sorted(back.edges()) == sorted(g.edges())

    @pytest.mark.parametrize("bad", ["", "B", "Bww", "C", "B\x1f", "~~"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(GraphError):
            graph6_decode(bad)

    def test_nonzero_padding_rejected(self):
        # K3's final group has three padding bits; force one on
        s = "B" + chr(ord("w") + 1)
        with pytest.raises(GraphError):
            graph6_decode(s)


class TestComponents:
    def test_split(self):
        comps = components(disjoint_union(K3, M2))
        assert sorted((c.n, c.q) for c in comps) == [(2, 1), (2, 1), (3, 3)]

    def test_connected_single(self):
        assert len(components(C4)) == 1
