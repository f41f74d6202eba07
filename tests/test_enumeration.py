import hashlib
import random

import pytest

from ramsey import enumeration, graphs
from ramsey.enumeration import (
    EnumFilter,
    _edge_invariant,
    _isolate_free_classes,
    _k2_lead,
    _plus_k2,
    enumerate_graphs,
    isolate_free_graphs,
)
from ramsey.families import describe, graph_from_name
from ramsey.graphs import (
    _unchecked_graph,
    canonical_form,
    from_edges,
    graph6_decode,
    graph6_encode,
    is_connected,
)

from brute import brute_graph_classes, brute_graphs

# graphs with q edges and no isolated vertices, OEIS A000664; q <= 4 is also
# checked against the brute-force oracles below
EXPECTED_COUNTS = {1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 68, 7: 177, 8: 497, 9: 1476,
                   10: 4613}


@pytest.mark.parametrize("q,count", sorted(EXPECTED_COUNTS.items()))
def test_class_counts(q, count):
    assert len(isolate_free_graphs(q)) == count


def test_q7_representatives_pinned():
    # sha256 of the sorted canonical graph6 strings, joined by newlines:
    # the representatives themselves, not just their number, stay fixed
    keys = sorted(graph6_encode(g) for g in isolate_free_graphs(7))
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert digest == "2e6acdfa10819ec05c96d74e0cae2e4999476eed0fdc353d9339a354fbe1335d"


def test_q8_representatives_pinned():
    keys = sorted(graph6_encode(g) for g in isolate_free_graphs(8))
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert digest == "24d0b65e46677c35489bb38e5c7d864a738615d26dc3e8e80cb54f27896d777c"


def test_q9_representatives_pinned():
    keys = sorted(graph6_encode(g) for g in isolate_free_graphs(9))
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert digest == "706d6f22ffddfe893c92adec35a94b016612a9052159fceeb93c1f4e83faf13f"


def _has_k2_component(g):
    deg = g.degrees()
    return any(deg[i] == deg[j] == 1 for i, j in g.edges())


def test_built_forms_are_canonical():
    # every class with a K2 component is built from its parent's form with
    # no search, so it must be canonical_form's answer, from any labelling
    rng = random.Random(30)
    built = 0
    for q in range(1, 9):
        for cap in range(2, 2 * q + 1):
            for g in _isolate_free_classes(q, cap):
                assert (_k2_lead(g) > 0) == _has_k2_component(g)
                if not _k2_lead(g):
                    continue
                built += 1
                assert canonical_form(g) == g
                perm = rng.sample(range(g.n), g.n)
                h = from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])
                assert canonical_form(h) == g, graph6_encode(g)
    assert built > 1000


def test_k2_block_is_the_form_of_mk2():
    g = _unchecked_graph(0, [])
    for m in range(1, 17):
        g, _ = _plus_k2(g, [])
        assert g == canonical_form(from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)]))
        assert g.edges() == sorted((i, 2 * m - 1 - i) for i in range(m))
        assert _k2_lead(g) == 2 * m


@pytest.mark.parametrize("q", range(1, 8))
def test_carried_generators_are_automorphisms(q):
    # the generators each class carries to the next level, from _plus_k2 or
    # from the search that labelled it, must be automorphisms of its form
    for cap in range(2, 2 * q + 1):
        autos = []
        gs = _isolate_free_classes(q, cap, autos)
        assert len(autos) == len(gs)
        for g, gens in zip(gs, autos):
            edges = set(g.edges())
            for gamma in gens:
                assert sorted(gamma) == list(range(g.n))
                assert {tuple(sorted((gamma[i], gamma[j]))) for i, j in edges} == edges


def test_no_k2_component_is_labelled(monkeypatch):
    # a class with a K2 component is built from its parent, so no graph
    # with one reaches canonical_form
    labelled = []

    def recorded(g, *args, **kwargs):
        labelled.append(g)
        return canonical_form(g, *args, **kwargs)

    monkeypatch.setattr(enumeration, "canonical_form", recorded)
    for q in range(1, 9):
        isolate_free_graphs(q)
    assert labelled
    assert not [graph6_encode(g) for g in labelled if _has_k2_component(g)]


def test_one_search_per_labelling(monkeypatch):
    # a labelled class's generators come from the search that labelled it,
    # and a built class's from its parent's, so no parent is searched a
    # second time for its automorphisms
    counts = {"canonical_form": 0, "_canonical_search": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(enumeration, "canonical_form",
                        counted("canonical_form", enumeration.canonical_form))
    monkeypatch.setattr(graphs, "_canonical_search",
                        counted("_canonical_search", graphs._canonical_search))
    assert len(isolate_free_graphs(7)) == 177
    assert counts["_canonical_search"] == counts["canonical_form"] > 0


def test_q8_labellings_capped(monkeypatch):
    # 582 canonical_form calls at q=8, the count the orbit and edge-invariant
    # tests reached once the classes with a K2 component were built from
    # their parents (901 when every class was labelled); a faster search
    # must not label more children
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return canonical_form(*args, **kwargs)

    monkeypatch.setattr(enumeration, "canonical_form", counted)
    assert len(isolate_free_graphs(8)) == 497
    assert calls <= 582


def test_q2_classes():
    names = {describe(g) for g in isolate_free_graphs(2)}
    assert names == {"2K2", "P3"}


def test_q3_classes():
    names = {describe(g) for g in isolate_free_graphs(3)}
    assert names == {"3K2", "K2 u P3", "P4", "K1,3", "K3"}


def test_q1_connected():
    gs = enumerate_graphs(EnumFilter(q=1, require_connected=True))
    assert [describe(g) for g in gs] == ["K2"]


@pytest.fixture(scope="module")
def brute_classes():
    """brute_graph_classes(q) for q <= 4, computed once for the module."""
    return {q: brute_graph_classes(q) for q in range(1, 5)}


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_completeness_against_brute_force(q, brute_classes):
    got = {graph6_encode(g) for g in isolate_free_graphs(q)}
    assert got == brute_classes[q]


@pytest.fixture(scope="module")
def small_graphs():
    """Every graph on 1..6 vertices, built by vertex extension (brute_graphs),
    so this oracle never uses the enumeration's edge invariant."""
    return [g for n in range(1, 7) for g in brute_graphs(n)]


@pytest.mark.parametrize("q", range(1, 16))
def test_capped_classes_against_vertex_extension(q, small_graphs):
    # with isolated vertices allowed, the padded classes are checked too
    for isolate_free in (True, False):
        f = EnumFilter(q=q, require_isolate_free=isolate_free, max_vertices=6)
        got = [graph6_encode(g) for g in enumerate_graphs(f)]
        want = sorted((g for g in small_graphs
                       if g.q == q and (not isolate_free or min(g.degrees()) >= 1)),
                      key=lambda g: (g.n, graph6_encode(g)))
        assert got == [graph6_encode(g) for g in want], isolate_free


def test_edge_invariant_survives_relabelling():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(8, 11)
        g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < rng.choice([0.2, 0.4, 0.6])])
        values = sorted(_edge_invariant(g.adj, i, j) for i, j in g.edges())
        for _ in range(5):
            perm = rng.sample(range(n), n)
            h = from_edges(n, [(perm[i], perm[j]) for i, j in g.edges()])
            assert sorted(_edge_invariant(h.adj, i, j) for i, j in h.edges()) == values


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_every_output_has_q_edges_and_no_isolates(q):
    for g in isolate_free_graphs(q):
        assert g.q == q
        assert min(g.degrees()) >= 1


def test_paper_table_graphs_are_enumerated():
    by_q = {
        2: ["P3", "2K2"],
        3: ["K3", "3K2", "K1,3", "K2 u P3"],
        4: ["C4", "2P3", "K1,4", "K2 u C3", "K2 u K1,3", "K1,3+e", "T3", "4K2",
            "2K2 u P3"],
    }
    for q, names in by_q.items():
        keys = {graph6_encode(g) for g in isolate_free_graphs(q)}
        for name in names:
            g = canonical_form(graph_from_name(name))
            assert g.q == q, name
            assert graph6_encode(g) in keys, name


def test_deterministic_order():
    a = [graph6_encode(g) for g in isolate_free_graphs(4)]
    b = [graph6_encode(g) for g in isolate_free_graphs(4)]
    assert a == b == sorted(a, key=lambda s: (ord(s[0]), s))


def test_connected_filter():
    gs = enumerate_graphs(EnumFilter(q=3, require_connected=True))
    assert all(is_connected(g) for g in gs)
    assert len(gs) == 3  # K3, K1,3, P4


def test_allow_isolated_pads_classes():
    gs = enumerate_graphs(EnumFilter(q=1, require_isolate_free=False, max_vertices=4))
    assert [describe(g) for g in gs] == ["K2", "K1 u K2", "2K1 u K2"]


@pytest.mark.parametrize("q", [1, 3])
def test_connected_with_isolated_allowed_is_not_padded(q):
    # a padded graph is never connected, so allowing isolates adds nothing
    loose = enumerate_graphs(EnumFilter(q=q, require_isolate_free=False,
                                        require_connected=True, max_vertices=2 * q + 1))
    assert all(is_connected(g) for g in loose)
    assert loose == enumerate_graphs(EnumFilter(q=q, require_connected=True,
                                                max_vertices=2 * q + 1))


def test_max_vertices_cap(brute_classes):
    gs = enumerate_graphs(EnumFilter(q=3, max_vertices=4))
    # 3K2 (6 vertices) and K2 u P3 (5) are cut off
    assert {describe(g) for g in gs} == {"K3", "K1,3", "P4"}
    for q, every in brute_classes.items():
        for cap in range(2, 2 * q + 1):
            got = [graph6_encode(g) for g in enumerate_graphs(EnumFilter(q=q, max_vertices=cap))]
            assert len(got) == len(set(got))
            assert set(got) == {s for s in every if graph6_decode(s).n <= cap}, (q, cap)


def test_small_cap_on_many_edges():
    # the cap bounds every level, so these finish at once: K5 is the only
    # 10-edge graph on 5 vertices, and no 17-edge graph fits on 2
    assert [describe(g) for g in enumerate_graphs(EnumFilter(q=10, max_vertices=5))] == ["K5"]
    assert enumerate_graphs(EnumFilter(q=17, max_vertices=2)) == []


def test_rejects_bad_filters():
    with pytest.raises(ValueError):
        EnumFilter(q=0)
    with pytest.raises(ValueError):
        EnumFilter(q=2, max_vertices=40)
