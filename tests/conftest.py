import pytest

from ramsey.families import graph_from_name

from brute import brute_graphs


@pytest.fixture
def g():
    """Build a graph from its family name."""
    return graph_from_name


@pytest.fixture(scope="session")
def graphs_by_order():
    """Every graph on n = 1..7 vertices up to isomorphism, by order, built
    once for the oracle tests of the search and of the refinement."""
    return {n: brute_graphs(n) for n in range(1, 8)}
