import pytest

from ramsey import families
from ramsey.enumeration import isolate_free_graphs
from ramsey.families import NameParseError, describe, graph_from_name
from ramsey.graphs import GraphError, canonical_form, components, from_edges, isomorphic

# hand-built fixtures for every name in the exact-value table
HAND_BUILT = {
    "P3": from_edges(3, [(0, 1), (1, 2)]),
    "K3": from_edges(3, [(0, 1), (0, 2), (1, 2)]),
    "C4": from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "3K2": from_edges(6, [(0, 1), (2, 3), (4, 5)]),
    "K1,3": from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "K2 u P3": from_edges(5, [(0, 1), (2, 3), (3, 4)]),
    "2P3": from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    "2K2": from_edges(4, [(0, 1), (2, 3)]),
    "K1,4": from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "K2 u C3": from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)]),
    "K2 u K1,3": from_edges(6, [(0, 1), (2, 3), (2, 4), (2, 5)]),
    "2K2 u P3": from_edges(7, [(0, 1), (2, 3), (4, 5), (5, 6)]),
    "K1,3+e": from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),
    "T3": from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
    "4K2": from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_named_graphs_match_fixtures(name):
    assert isomorphic(graph_from_name(name), HAND_BUILT[name])


class TestRealize:
    def test_c4(self):
        g = graph_from_name("C4")
        assert (g.n, g.q) == (4, 4)
        assert all(d == 2 for d in g.degrees())

    def test_k23(self):
        g = graph_from_name("K2,3")
        assert (g.n, g.q) == (5, 6)
        assert sorted(g.degrees()) == [2, 2, 2, 3, 3]

    def test_t3_has_one_degree3_vertex(self):
        g = graph_from_name("T3")
        assert sorted(g.degrees()) == [1, 1, 1, 2, 3]

    def test_book(self):
        # B_k: k triangles sharing one edge
        g = graph_from_name("B3")
        assert (g.n, g.q) == (5, 7)
        assert isomorphic(graph_from_name("B1"), HAND_BUILT["K3"])

    def test_cycle_too_short(self):
        with pytest.raises((NameParseError, GraphError)):
            graph_from_name("C2")

    def test_overflow(self):
        with pytest.raises((NameParseError, GraphError)):
            graph_from_name("K40")
        with pytest.raises((NameParseError, GraphError)):
            graph_from_name("17K2")


class TestGrammar:
    @pytest.mark.parametrize("name,q,maxdeg", [
        ("3K2", 3, 1),
        ("K2 u C3", 4, 2),
        ("2K2 u P3", 4, 2),
        ("P4 u K3", 6, 2),
        ("P4 + K3", 6, 2),
    ])
    def test_unions(self, name, q, maxdeg):
        g = graph_from_name(name)
        assert g.q == q
        assert max(g.degrees()) == maxdeg

    def test_whitespace_insensitive(self):
        a = graph_from_name("2K2uP3")
        b = graph_from_name("  2K2   u  P3 ")
        assert isomorphic(a, b)

    def test_paw_spellings(self):
        assert isomorphic(graph_from_name("paw"), graph_from_name("K1,3+e"))

    def test_plus_is_union(self):
        assert isomorphic(graph_from_name("K2+K2"), graph_from_name("2K2"))

    def test_g6_literal(self):
        assert isomorphic(graph_from_name("g6:Bw"), HAND_BUILT["K3"])

    def test_g6_literal_in_union(self):
        g = graph_from_name("g6:Bw u K2")
        assert isomorphic(g, graph_from_name("K3 u K2"))

    @pytest.mark.parametrize("bad", ["", "Q4", "K", "C2", "P0", "K2 x K3", "g6:", "K2,2+e", "0K2",
                                     "K33", "P100000", "33K2"])
    def test_syntax_errors_carry_position(self, bad):
        with pytest.raises(NameParseError) as exc:
            graph_from_name(bad)
        assert exc.value.position >= 0

    def test_family_letters_case_sensitive(self):
        with pytest.raises(NameParseError):
            graph_from_name("k3")


class TestFormat:
    @pytest.mark.parametrize("name", ["C4", "K2,3", "3K2", "2K2 u P3", "paw", "T3", "B2", "g6:Bw"])
    def test_round_trip(self, name):
        g = graph_from_name(name)
        again = graph_from_name(describe(g))
        assert isomorphic(g, again)


class TestDescribe:
    @pytest.mark.parametrize("name", [
        "C4", "K3", "K2,3", "3K2", "2K2 u P3", "K2 u C3", "paw", "T3",
        "K1,4", "B2", "P5", "K2 u K1,3", "C5 u K2",
    ])
    def test_names_parse_back(self, name):
        g = graph_from_name(name)
        d = describe(g)
        assert isomorphic(graph_from_name(d), g)

    def test_every_class_parses_back(self):
        # every isolate-free class with q <= 6; 41 of the 113 names use a
        # g6 literal for at least one component
        named = [(g, describe(g)) for q in range(1, 7) for g in isolate_free_graphs(q)]
        assert len(named) == 113
        assert sum("g6:" in name for _, name in named) == 41
        for g, name in named:
            assert canonical_form(graph_from_name(name)) == g, name

    def test_one_canonical_form_per_component(self, monkeypatch):
        # the sort key's graph6 doubles as a g6 component's name, so the 211
        # components of the 113 classes cost 211 canonical forms, not 252
        classes = [g for q in range(1, 7) for g in isolate_free_graphs(q)]
        calls = []

        def counted(g):
            calls.append(g)
            return canonical_form(g)

        monkeypatch.setattr(families, "canonical_form", counted)
        for g in classes:
            describe(g)
        assert len(classes) == 113
        assert sum(len(components(g)) for g in classes) == len(calls) == 211

    def test_groups_equal_components(self):
        assert describe(graph_from_name("K2 u K2 u K2")) == "3K2"
        assert describe(graph_from_name("P3 u K2 u P3")) == "K2 u 2P3"

    def test_prefers_plain_names(self):
        assert describe(graph_from_name("K2,2")) == "C4"
        assert describe(graph_from_name("C3")) == "K3"
        assert describe(graph_from_name("K1,2")) == "P3"

    def test_unknown_graph_falls_back_to_g6(self):
        bull = from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
        d = describe(bull)
        assert d.startswith("g6:")
        assert isomorphic(graph_from_name(d), bull)


def test_family_edge_counts():
    assert graph_from_name("5K2").q == 5
    assert graph_from_name("P7").q == 6
    assert graph_from_name("C6").q == 6
    assert graph_from_name("K3,4").q == 12
    for spec, expected_max in [("4K2", 1), ("K1,5", 5)]:
        assert max(graph_from_name(spec).degrees()) == expected_max
