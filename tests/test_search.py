from __future__ import annotations

import pytest

from conftest import row_set

from cubesym.bitgraph import (
    augmented_hypercube,
    folded_hypercube,
    graph_from_edges,
    hamming_graph,
    hypercube,
    hypercube_power,
    locally_twisted_hypercube,
)
from cubesym.autgroup import pointwise_stabilizer
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
    from cubesym.autgroup import is_automorphism

    for name, g in corpus.items():
        grp = search_automorphisms(g)
        for gen in grp.generators:
            assert is_automorphism(g, gen), name
        assert grp.order_known == len(grp.elements()), name


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

