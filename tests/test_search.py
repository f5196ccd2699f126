from __future__ import annotations

from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import preserves_adjacency, reference_closure, row_set

from cubesym.bitgraph import (
    augmented_hypercube,
    enhanced_hypercube,
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


@given(st.integers(1, 9), st.data())
@settings(max_examples=120, deadline=None)
def test_chain_table_is_the_closure_of_the_generators(nv, data):
    """On random graphs of at most 9 vertices, the element table that the
    search's stabilizer chain builds holds the rows of the reference closure
    of its generators, each once, the identity first, and as many as the
    order that the transversals give.  The empty and complete graphs on 9
    vertices are left out: the reference closure of S_9 takes seconds."""
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    grp = search_automorphisms(graph_from_edges(nv, edges))
    assume(grp.order() <= factorial(8))
    table = grp.elements()
    assert row_set(table) == row_set(reference_closure(nv, grp.generators))
    assert len(table) == grp.order() and table[0].tolist() == list(range(nv))


def test_empty_graph_has_one_empty_row():
    grp = search_automorphisms(graph_from_edges(0, []))
    assert grp.base == () and grp.order() == 1
    assert grp.elements().shape == (1, 0)


@pytest.mark.oracle_suite
@pytest.mark.parametrize("make", [
    lambda: hypercube_power(3, 2),
    lambda: hypercube_power(3, 3),
    lambda: hamming_graph(3, 3),
    lambda: enhanced_hypercube(3, 2),
], ids=["Q_3^2", "Q_3^3", "H(3,3)", "Q_{3,2}"])
def test_chain_tables_match_naive_enumeration(make):
    """Past the corpus of `test_matches_naive_enumeration`: the chain table
    of four more searched groups, up to the 40,320 elements of Q_3^3 = K_8,
    is the set of automorphisms that the oracle's backtracking finds."""
    g = make()
    table = search_automorphisms(g).elements()
    assert row_set(table) == row_set(enumerate_automorphisms_naive(g))
    assert table[0].tolist() == list(range(g.n_vertices))


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

