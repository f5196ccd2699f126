from __future__ import annotations

import pytest

from conftest import preserves_adjacency, row_set

from cubesym.bitgraph import (
    augmented_hypercube,
    folded_hypercube,
    graph_from_edges,
    hamming_graph,
    hypercube,
    hypercube_power,
    locally_twisted_hypercube,
)
from cubesym.autgroup import is_automorphism, pointwise_stabilizer
from cubesym.errors import SearchBudgetExceeded
from cubesym.oracle import enumerate_automorphisms_naive
from cubesym.search import search_automorphisms


def test_small_known_groups():
    c4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert search_automorphisms(c4).order() == 8
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert search_automorphisms(p3).order() == 2
    k1 = graph_from_edges(1, [])
    assert search_automorphisms(k1).order() == 1
    assert search_automorphisms(locally_twisted_hypercube(3)).order() == 16
    assert search_automorphisms(hypercube(4)).order() == 384


def test_generators_are_automorphisms_and_order_matches_enumeration(corpus):
    for name, g in corpus.items():
        grp = search_automorphisms(g)
        for gen in grp.generators:
            assert preserves_adjacency(g, gen), name
        assert grp.order_known == len(grp.elements()), name


# A 3-regular graph on 14 vertices: its search reaches leaves whose refinement
# traces match the first leaf's but whose maps from it are no automorphisms.
NON_AUTOMORPHIC_LEAVES = [
    (0, 5), (0, 10), (0, 11), (1, 5), (1, 11), (1, 13), (2, 3), (2, 6), (2, 7), (3, 5),
    (3, 7), (4, 8), (4, 10), (4, 12), (6, 8), (6, 10), (7, 13), (8, 9), (9, 12), (9, 13),
    (11, 12),
]


def test_leaves_whose_map_is_no_automorphism_are_dropped(monkeypatch):
    from cubesym import search

    g = graph_from_edges(14, NON_AUTOMORPHIC_LEAVES)
    verdicts = []

    def recording(graph, row):
        verdicts.append(is_automorphism(graph, row))
        return verdicts[-1]

    monkeypatch.setattr(search, "is_automorphism", recording)
    grp = search_automorphisms(g)
    assert False in verdicts
    for gen in grp.generators:
        assert preserves_adjacency(g, gen)
    assert row_set(grp.elements()) == row_set(enumerate_automorphisms_naive(g))


def test_matches_naive_enumeration(corpus):
    for name, g in corpus.items():
        if g.n_vertices > 16:
            continue
        searched = row_set(search_automorphisms(g).elements())
        naive = row_set(enumerate_automorphisms_naive(g))
        assert searched == naive, name


def test_disconnected_and_irregular():
    g = graph_from_edges(5, [(0, 1), (2, 3)])  # edge + edge + isolated vertex
    grp = search_automorphisms(g)
    # swaps inside each edge, swapping the two edges: 2*2*2 = 8
    assert grp.order() == 8
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert search_automorphisms(star).order() == 6


def _circulant(n: int, jumps):
    return graph_from_edges(n, {tuple(sorted((v, (v + j) % n))) for v in range(n) for j in jumps})


@pytest.mark.parametrize("make", [
    lambda: hamming_graph(3, 3),
    lambda: hypercube_power(3, 2),
    lambda: folded_hypercube(3),
    lambda: augmented_hypercube(3),
    lambda: _circulant(8, [1, 2]),
    lambda: _circulant(9, [1, 3]),
    lambda: _circulant(10, [2, 5]),
    lambda: graph_from_edges(5, [(0, 1), (2, 3)]),
])
def test_base_stabilizers_match_filtering(make):
    """The found generators that fix a prefix of the search base generate
    its whole pointwise stabilizer, with the order the base gives."""
    grp = search_automorphisms(make())
    elements = row_set(grp.elements())
    for k in range(1, len(grp.base) + 1):
        prefix = grp.base[:k]
        stab = pointwise_stabilizer(grp, prefix)
        assert stab.base == grp.base[k:]
        want = {p for p in elements if all(p[v] == v for v in prefix)}
        assert row_set(stab.elements()) == want and stab.order() == len(want)


def test_budget_errors():
    with pytest.raises(SearchBudgetExceeded):
        search_automorphisms(hypercube(4), vertex_cap=8)
    with pytest.raises(SearchBudgetExceeded):
        search_automorphisms(folded_hypercube(4), node_budget=2)


def test_larger_groups():
    assert search_automorphisms(hamming_graph(3, 2)).order() == 72
    assert search_automorphisms(hypercube_power(4, 2)).order() == 1920
    assert search_automorphisms(augmented_hypercube(5)).order() == 256

