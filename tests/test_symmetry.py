from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import row_set, z2_cayley

from cubesym import symmetry
from cubesym.autgroup import (
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    orbit_roots,
    setwise_stabilizer,
    structured_group,
)
from cubesym.bitgraph import (
    augmented_hypercube,
    complement,
    enhanced_hypercube,
    folded_hypercube,
    graph_from_edges,
    hamming_graph,
    hypercube,
    hypercube_power,
    induced_subgraph,
    locally_twisted_hypercube,
)
from cubesym.constructions import hypercube_dist_class
from cubesym.errors import NotTwoDistinguishable, SearchBudgetExceeded
from cubesym.oracle import oracle_transitivity
from cubesym.params import (
    automorphism_group,
    compute_parameter,
    dist_class_candidates,
    verify_witness,
)
from cubesym.search import search_automorphisms
from cubesym.symmetry import (
    Coloring,
    _distinguishing_d3,
    _extension_counts,
    _greedy_two_class,
    _least_support,
    _only_identity_keeps,
    _rgs_block,
    _rgs_blocks,
    _rgs_partitions,
    _setwise_trivial,
    cost_2dist,
    determining_lower_bound_exhaustive,
    determining_number,
    distinguishing_number,
    is_asymmetric,
    is_determining_set,
    is_distinguishing,
    transitivity_report,
    two_class_is_distinguishing,
    two_coloring,
)


def test_is_determining_set_examples():
    q42 = hypercube_power(4, 2)
    grp = automorphism_group(q42)
    assert is_determining_set(grp, range(16))
    chain = [0b0000, 0b1000, 0b1100, 0b1110]
    assert is_determining_set(grp, chain)
    aq6 = structured_group(augmented_hypercube(6))
    assert is_determining_set(aq6, [0, 0b111001])


def test_determining_number_values(corpus, corpus_groups):
    expected = {"Q_3": 3, "Q_4": 3, "Q_4^2": 4, "FQ_3": 6, "FQ_4": 4,
                "AQ_3": 4, "AQ_4": 3, "LTQ_3": 2, "LTQ_4": 1, "H(2,3)": 3,
                "H(4,2)": 3, "Q_{4,1}": 4, "Q_{4,2}": 6, "Q_{4,3}": 3}
    for name, want in expected.items():
        value, witness = determining_number(corpus[name], corpus_groups[name])
        assert value == want, name
        assert is_determining_set(corpus_groups[name], witness.payload)
        assert len(witness.payload) == want


def test_witness_is_lex_least(corpus, corpus_groups):
    from itertools import combinations

    for name in ("Q_3", "AQ_4", "LTQ_4", "H(2,3)"):
        g, grp = corpus[name], corpus_groups[name]
        value, witness = determining_number(g, grp)
        for cand in combinations(range(g.n_vertices), value):
            if is_determining_set(grp, cand):
                assert tuple(witness.payload) == cand, name
                break


def test_superset_monotonicity(corpus_groups):
    grp = corpus_groups["Q_4"]
    base = [0b0000, 0b1010, 0b1100]
    assert is_determining_set(grp, base)
    for extra in range(16):
        assert is_determining_set(grp, base + [extra])


def test_is_distinguishing():
    q3 = hypercube(3)
    grp = structured_group(q3)
    all_distinct = Coloring(tuple(range(1, 9)), 8)
    assert is_distinguishing(grp, all_distinct)
    one_color = Coloring((1,) * 8, 1)
    assert not is_distinguishing(grp, one_color)
    q42 = hypercube_power(4, 2)
    g42 = automorphism_group(q42)
    cls = [0b0000, 0b1000, 0b1100, 0b1110, 0b0111]
    assert not is_distinguishing(g42, two_coloring(16, cls))  # P_4^2 keeps a swap
    for n in (5, 6):
        g = hypercube_power(n, 2)
        grp = automorphism_group(g)
        S = [((1 << i) - 1) << (n - i) for i in range(n)] + [(1 << (n - 1)) - 1]
        assert is_distinguishing(grp, two_coloring(1 << n, S))


def test_is_distinguishing_above_the_element_cap():
    # |Aut(Q_8)| = 2^8 * 8! is above the element cap: a coloring with two
    # colors is settled by the model's setwise test, one with more only by
    # a determining class with an asymmetric induced subgraph
    g = hypercube(8)
    grp = structured_group(g)
    cls = set(hypercube_dist_class(8))
    assert is_distinguishing(grp, Coloring(tuple(1 if v in cls else 2 for v in range(256)), 2))
    three = tuple(1 if v in cls else 2 + v % 2 for v in range(256))
    assert is_distinguishing(grp, Coloring(three, 3))
    # swapping the first two positions fixes the words with x1 = x2, and
    # also flipping both fixes the others, so no class settles it
    halves = [1 if (v >> 7) == (v >> 6 & 1) else 2 for v in range(256)]
    assert not is_distinguishing(grp, Coloring(tuple(halves), 2))
    halves_split = tuple(c + (c == 2 and v >> 5 & 1) for v, c in enumerate(halves))
    with pytest.raises(SearchBudgetExceeded):
        is_distinguishing(grp, Coloring(halves_split, 3))
    assert grp._elements is None
    record = {"params": {"kind": "hypercube", "n": 8}, "value": 2,
              "witness": {"kind": "distinguishing_coloring", "payload": halves}}
    assert verify_witness(g, record, grp) is False
    record["value"], record["witness"]["payload"] = 3, list(halves_split)
    with pytest.raises(SearchBudgetExceeded):  # not checked, so neither True nor False
        verify_witness(g, record, grp)
    record["witness"]["payload"] = list(three)
    assert verify_witness(g, record, grp) is True


def test_distinguishing_number_values(corpus, corpus_groups):
    expected = {"Q_3": 3, "Q_4": 2, "Q_4^2": 2, "FQ_3": 5, "FQ_4": 2,
                "AQ_3": 3, "AQ_4": 2, "LTQ_3": 2, "LTQ_4": 2, "H(2,3)": 3,
                "H(4,2)": 2, "Q_{4,1}": 2, "Q_{4,2}": 3, "Q_{4,3}": 2}
    for name, want in expected.items():
        g, grp = corpus[name], corpus_groups[name]
        value, witness = distinguishing_number(g, grp, dist_class_candidates(g))
        assert value == want, name
        coloring = Coloring(tuple(witness.payload), max(witness.payload))
        assert coloring.used_colors() == want
        assert is_distinguishing(grp, coloring), name


def test_dist_trivial_group_is_one():
    g = graph_from_edges(1, [])
    grp = search_automorphisms(g)
    assert distinguishing_number(g, grp)[0] == 1


def test_cost_values(corpus, corpus_groups):
    expected = {"Q_4": 5, "AQ_4": 3, "LTQ_4": 1, "LTQ_3": 3, "Q_{4,3}": 4}
    for name, want in expected.items():
        g, grp = corpus[name], corpus_groups[name]
        det = determining_number(g, grp)[0]
        value, witness = cost_2dist(g, grp)
        assert value == want, name
        assert is_distinguishing(grp, two_coloring(g.n_vertices, witness.payload))
        assert value >= det  # any trivially setwise-stabilized class determines


def test_cost_requires_two_distinguishable(corpus, corpus_groups):
    with pytest.raises(NotTwoDistinguishable):
        cost_2dist(corpus["Q_3"], corpus_groups["Q_3"])
    with pytest.raises(NotTwoDistinguishable):
        cost_2dist(corpus["FQ_3"], corpus_groups["FQ_3"])


def test_is_asymmetric():
    assert is_asymmetric(graph_from_edges(1, []))
    assert not is_asymmetric(graph_from_edges(3, [(0, 1), (1, 2)]))
    # smallest asymmetric tree: path of 4 with a pendant at the second vertex
    t = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
    assert is_asymmetric(t)


def test_fq6_class_has_asymmetric_induced_subgraph():
    from cubesym.constructions import fq_dist_class

    g = folded_hypercube(6)
    cls = fq_dist_class(6)
    assert is_asymmetric(induced_subgraph(g, cls))
    grp = structured_group(g)
    assert two_class_is_distinguishing(g, grp, cls)


def test_lemma_route_matches_exact_check(corpus, corpus_groups):
    # determining + asymmetric induced subgraph implies a distinguishing class
    for name in ("FQ_4", "AQ_4", "Q_4"):
        g, grp = corpus[name], corpus_groups[name]
        for cls in dist_class_candidates(g):
            if two_class_is_distinguishing(g, grp, cls):
                assert is_distinguishing(grp, two_coloring(g.n_vertices, cls))


def test_transitivity_reports(corpus, corpus_groups):
    rep = transitivity_report(corpus["Q_3"], corpus_groups["Q_3"])
    assert rep.vertex_transitive and rep.edge_transitive
    assert rep.arc_transitive and rep.distance_transitive
    rep = transitivity_report(corpus["AQ_4"], corpus_groups["AQ_4"])
    assert rep.vertex_transitive and not rep.edge_transitive and not rep.arc_transitive
    rep = transitivity_report(corpus["FQ_3"], corpus_groups["FQ_3"])
    assert rep.vertex_transitive and rep.edge_transitive
    assert rep.arc_transitive and rep.distance_transitive
    rep = transitivity_report(corpus["LTQ_4"], corpus_groups["LTQ_4"])
    assert not rep.vertex_transitive
    # the n = 3 locally twisted cube is vertex-transitive (dihedral action)
    rep = transitivity_report(corpus["LTQ_3"], corpus_groups["LTQ_3"])
    assert rep.vertex_transitive and not rep.edge_transitive


def test_transitivity_of_an_edge_transitive_graph_plus_an_isolated_vertex():
    """The arcs of K_2 + K_1 and K_3 + K_1 form one orbit, but arc- and
    distance-transitivity include vertex-transitivity; 2K_2 has all four."""
    for g in (graph_from_edges(3, [(0, 1)]), graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])):
        rep = transitivity_report(g, search_automorphisms(g))
        assert rep.to_dict() == {"vertex_transitive": False, "edge_transitive": True,
                                 "arc_transitive": False, "distance_transitive": False}
    two_k2 = graph_from_edges(4, [(0, 1), (2, 3)])
    assert all(transitivity_report(two_k2, search_automorphisms(two_k2)).to_dict().values())


@pytest.mark.parametrize("name, make", [
    ("Q_4", lambda: hypercube(4)),
    ("FQ_3", lambda: folded_hypercube(3)),
    ("FQ_4", lambda: folded_hypercube(4)),
    ("AQ_4", lambda: augmented_hypercube(4)),
    ("LTQ_3", lambda: locally_twisted_hypercube(3)),
    ("LTQ_4", lambda: locally_twisted_hypercube(4)),
    ("H(2,3)", lambda: hamming_graph(3, 2)),
    ("H(3,3)", lambda: hamming_graph(3, 3)),
    ("Q_{4,2}", lambda: enhanced_hypercube(4, 2)),
    ("Q_4^2", lambda: hypercube_power(4, 2)),
])
def test_transitivity_matches_oracle_on_families(name, make):
    g = make()
    assert transitivity_report(g, automorphism_group(g)).to_dict() == oracle_transitivity(g)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_transitivity_matches_oracle_on_random_graphs(data):
    """Random graphs of at most 8 vertices, disconnected ones included."""
    n = data.draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = graph_from_edges(n, edges)
    assert transitivity_report(g, search_automorphisms(g)).to_dict() == oracle_transitivity(g)


def _circulant(n, shifts):
    return graph_from_edges(n, {tuple(sorted((v, (v + s) % n)))
                                for v in range(n) for s in shifts if s % n})


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_transitivity_matches_oracle_on_cayley_graphs(data):
    """Random circulants C_n(S), n <= 16, and Cayley graphs of Z_2^k, k <=
    4: vertex-transitive graphs whose Stab(0) has one, two or more orbits
    on the neighbours of 0, so that the pairing step runs on some of them.
    Groups above 2,000 elements are skipped, as the oracle lists every
    element."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 16))
        g = _circulant(n, data.draw(st.sets(st.integers(1, max(1, n // 2)), max_size=4)))
    else:
        k = data.draw(st.integers(1, 4))
        g = z2_cayley(k, data.draw(st.sets(st.integers(1, (1 << k) - 1), max_size=5)))
    grp = search_automorphisms(g)
    assume(grp.order() <= 2000)
    assert transitivity_report(g, grp).to_dict() == oracle_transitivity(g)


def _plain_least(grp, sizes, accept):
    """The first set in `combinations` order, size by size, that is
    determining and that `accept` takes: the lex-least such set."""
    for size in sizes:
        for cand in combinations(range(grp.n_vertices), size):
            if is_determining_set(grp, cand) and accept(cand):
                return cand
    return None


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_least_determining_matches_the_plain_lex_search(data):
    """On random circulants C_n(S), n <= 14, and Cayley graphs of Z_2^k,
    k <= 4, which are vertex-transitive, the anchored search alone gives
    the lex-least determining set (det) and the lex-least class with a
    trivial setwise stabilizer (the class scan) that a walk over every set
    in lex order gives.  Groups above 2,000 elements are skipped."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 14))
        g = _circulant(n, data.draw(st.sets(st.integers(1, max(1, n // 2)), max_size=4)))
    else:
        k = data.draw(st.integers(1, 4))
        g = z2_cayley(k, data.draw(st.sets(st.integers(1, (1 << k) - 1), max_size=5)))
    grp = search_automorphisms(g)
    assume(grp.order() <= 2000)
    nv = g.n_vertices
    assert not any(orbit_roots(nv, grp.generators))
    every = range(1, nv + 1)
    assert symmetry._least_determining(grp, every) == _plain_least(grp, every, lambda s: True)
    halves = range(1, nv // 2 + 1)

    def setwise(cls):
        return _setwise_trivial(grp, cls)

    assert (symmetry._least_determining(grp, halves, setwise)
            == _plain_least(grp, halves, setwise))


@pytest.mark.parametrize("parameter, make, value", [
    ("det", lambda: hypercube(8), 4),
    ("cost", lambda: folded_hypercube(5), 6),
])
def test_the_search_asks_the_stabilizer_of_vertex_0_once(parameter, make, value, monkeypatch):
    """The anchored search reads Stab(0)'s orbits once per call, not once
    per size: det(Q_8) = 4 and the class scan behind cost(FQ_5) = 6, which
    searches two sizes past the determining bound of one vertex, each ask
    for one stabilizer."""
    asked = []
    real = symmetry.pointwise_stabilizer

    def counted(grp, subset):
        asked.append(list(subset))
        return real(grp, subset)

    monkeypatch.setattr(symmetry, "pointwise_stabilizer", counted)
    assert compute_parameter(make(), parameter)["value"] == value
    assert asked == [[0]]


def _holt_graph():
    """Holt's graph on Z_9 x Z_3: (x, y) ~ (4x +- 1, y + 1), (7x +- 7, y - 1)."""
    at = lambda x, y: x % 9 * 3 + y % 3
    return graph_from_edges(27, {tuple(sorted((at(x, y), at(*w))))
                                 for x in range(9) for y in range(3)
                                 for w in ((4 * x + 1, y + 1), (4 * x - 1, y + 1),
                                           (7 * x + 7, y - 1), (7 * x - 7, y - 1))})


def _pairing_calls(monkeypatch) -> list:
    """Patch the pairing step's element search to record its calls."""
    calls = []
    real = symmetry._element_taking

    def taking(gens, x, a):
        calls.append((x, a))
        return real(gens, x, a)

    monkeypatch.setattr(symmetry, "_element_taking", taking)
    return calls


def test_transitivity_of_the_holt_graph(monkeypatch):
    """Holt's graph (1981), 27 vertices of degree 4 with 54 automorphisms,
    is vertex- and edge-transitive but not arc-transitive: Stab(0) has two
    orbits of two neighbours each, and an element taking one of them to 0
    takes 0 into the other, so the two arc orbits are each other's
    reverses."""
    calls = _pairing_calls(monkeypatch)
    g = _holt_graph()
    grp = search_automorphisms(g)
    assert (g.edge_count(), grp.order()) == (54, 54)
    assert transitivity_report(g, grp).to_dict() == {
        "vertex_transitive": True, "edge_transitive": True,
        "arc_transitive": False, "distance_transitive": False}
    assert len(calls) == 1


@pytest.mark.parametrize("n, k", [(5, 4), (7, 5)])
def test_enhanced_cubes_take_the_pairing_step(n, k, monkeypatch):
    """Q_{5,4} and Q_{7,5}: Stab(0) has two orbits of equal size on the
    neighbours of 0, so the pairing step decides, and they are not
    edge-transitive; Q_{5,4} agrees with the oracle."""
    calls = _pairing_calls(monkeypatch)
    g = enhanced_hypercube(n, k)
    rep = transitivity_report(g, automorphism_group(g)).to_dict()
    assert rep == {"vertex_transitive": True, "edge_transitive": False,
                   "arc_transitive": False, "distance_transitive": False}
    assert calls == [(calls[0][0], 0)]
    if n == 5:
        assert rep == oracle_transitivity(g)


@pytest.mark.parametrize("first", [True, False], ids=["triangle-first", "triangle-last"])
def test_transitivity_above_the_element_cap_builds_no_table(first):
    """K_3 + 12K_1, with the triangle on the first or the last three
    vertices: its group S_3 x S_12 is above the element cap, and Stab(a)'s
    orbits on the triangle come from Schreier generators, so no table is
    built."""
    tri = [0, 1, 2] if first else [12, 13, 14]
    g = graph_from_edges(15, [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])])
    grp = search_automorphisms(g)
    assert grp.order() > DEFAULT_ELEMENT_CAP
    assert transitivity_report(g, grp).to_dict() == {
        "vertex_transitive": False, "edge_transitive": True,
        "arc_transitive": False, "distance_transitive": False}
    assert grp._elements is None


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_schreier_roots_match_the_stabilizer_on_random_graphs(data):
    """The Stab(a)-orbits on N(a) from Schreier generators, which the
    edge-transitivity test of a group that is not vertex-transitive reads,
    are those of the stabilizer read off the element table, on random
    graphs of 2-8 vertices at each vertex with a neighbour."""
    n = data.draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = graph_from_edges(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    grp = search_automorphisms(g)
    table = grp.elements()
    for a in range(n):
        nbrs = np.array(g.neighbors(a))
        if not len(nbrs):
            continue
        got = symmetry._schreier_roots(grp.generators, a, nbrs)
        want = np.asarray(orbit_roots(n, table[table[:, a] == a]))[nbrs]
        assert ((got[:, None] == got) == (want[:, None] == want)).all()


def test_complement_identities(corpus, corpus_groups):
    for name in ("Q_3", "Q_4", "FQ_3", "AQ_3", "AQ_4", "LTQ_3", "LTQ_4", "H(2,3)"):
        g = corpus[name]
        grp = corpus_groups[name]
        cg = complement(g)
        cgrp = search_automorphisms(cg)
        assert row_set(cgrp.elements()) == row_set(grp.elements()), name
        assert determining_number(g, grp)[0] == determining_number(cg, cgrp)[0], name
        d1, _ = distinguishing_number(g, grp, dist_class_candidates(g))
        d2, _ = distinguishing_number(cg, cgrp)
        assert d1 == d2, name


def test_exhaustive_lower_bound():
    g = folded_hypercube(4)
    grp = structured_group(g)
    assert determining_lower_bound_exhaustive(g, grp, 4)
    assert not determining_lower_bound_exhaustive(g, grp, 5)


def test_solver_agrees_across_group_models():
    # values are the same whether the group comes structurally or by search
    for make in (lambda: hypercube(4), lambda: folded_hypercube(4),
                 lambda: augmented_hypercube(4), lambda: locally_twisted_hypercube(4)):
        g = make()
        sg = structured_group(g)
        se = search_automorphisms(g)
        assert determining_number(g, sg)[0] == determining_number(g, se)[0]
        cands = dist_class_candidates(g)
        assert distinguishing_number(g, sg, cands)[0] == \
            distinguishing_number(g, se, cands)[0]


def test_complement_identities_32_vertices():
    for make in (lambda: folded_hypercube(5), lambda: locally_twisted_hypercube(5)):
        g = make()
        grp = automorphism_group(g)
        cg = complement(g)
        cgrp = search_automorphisms(cg)
        assert determining_number(g, grp)[0] == determining_number(cg, cgrp)[0]
        d1, _ = distinguishing_number(g, grp, dist_class_candidates(g))
        d2, _ = distinguishing_number(cg, cgrp, dist_class_candidates(g))
        assert d1 == d2


COUNT_GROUPS = {
    "Q_4": lambda: hypercube(4),
    "FQ_4": lambda: folded_hypercube(4),
    "H(2,3)": lambda: hamming_graph(3, 2),
    "Q_{4,2}": lambda: enhanced_hypercube(4, 2),
    "Q_4^2": lambda: hypercube_power(4, 2),
    "AQ_4": lambda: augmented_hypercube(4),
    "LTQ_4": lambda: locally_twisted_hypercube(4),
}


@lru_cache(maxsize=None)
def _count_group(name):
    return automorphism_group(COUNT_GROUPS[name]())


def _keeping_rows(grp, colors) -> int:
    """The plain reference: the rows of the element table that keep every
    vertex's color, compared on every vertex."""
    return int((colors[grp.elements()] == colors).all(axis=1).sum())


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_only_identity_keeps_matches_full_rows(data):
    """`_only_identity_keeps`, which compares only the vertices outside the
    most common color and stops at the second keeping row, says whether the
    identity alone keeps the coloring, and the setwise test of a class
    agrees with the rows that keep it (on the model of AQ_4 and LTQ_4): for
    1-5 colors, constant colorings (the empty and the full class) included,
    bool, int8, int32 and intp arrays, and the default chunks of rows as
    well as chunks that start at one or three rows and double up to 5 or
    16."""
    grp = _count_group(data.draw(st.sampled_from(sorted(COUNT_GROUPS))))
    nv, d = grp.n_vertices, data.draw(st.integers(1, 5))
    # a few recolored vertices leave colorings that many elements keep
    colors = np.full(nv, data.draw(st.integers(1, d)), dtype=np.intp)
    for v, c in data.draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(1, d)),
                                   max_size=nv)):
        colors[v] = c
    dtype = data.draw(st.sampled_from([bool, np.int8, np.int32, np.intp]))
    colors = colors == 1 if dtype is bool else colors.astype(dtype)
    first, most = data.draw(st.sampled_from(
        [(symmetry._SIEVE_ROWS, symmetry._BLOCK_ROWS), (1, 5), (3, 16)]))
    with mock.patch.object(symmetry, "_SIEVE_ROWS", first), \
            mock.patch.object(symmetry, "_BLOCK_ROWS", most):
        assert _only_identity_keeps(grp, colors) == (_keeping_rows(grp, colors) == 1)
        member = colors == colors[0]  # the boolean classes of the two-color callers
        trivial = _keeping_rows(grp, member) == 1
        assert _setwise_trivial(grp, np.flatnonzero(member)) == trivial
        assert _setwise_trivial(grp, np.flatnonzero(~member)) == trivial


def test_dist_of_augmented_cube_loads_no_element_table():
    # the constructed class fails the sound test, so the model's setwise
    # search settles it; AQ_14's table would take 8.6 GB
    g = augmented_hypercube(8)
    grp = automorphism_group(g)
    value, witness = distinguishing_number(g, grp, dist_class_candidates(g))
    assert value == 2 and _setwise_trivial(grp, [v for v, c in enumerate(witness.payload)
                                                  if c == 2])
    assert grp._elements is None


def test_transitivity_of_an_enhanced_cube_loads_no_factor_table():
    """Q_{10,2} = Q_1 x FQ_9: Stab(0) is read off the product's generators,
    so neither factor loads its table (FQ_9's Stab(0) has 10! elements,
    above the element cap)."""
    g = enhanced_hypercube(10, 2)
    grp = automorphism_group(g)
    assert grp.model.gb.order() == (1 << 9) * 3628800
    assert transitivity_report(g, grp).to_dict() == {
        "vertex_transitive": True, "edge_transitive": False,
        "arc_transitive": False, "distance_transitive": False}
    assert grp.model.ga._elements is None and grp.model.gb._elements is None
    assert grp._elements is None


@pytest.mark.parametrize("make", [augmented_hypercube, locally_twisted_hypercube],
                         ids=["AQ", "LTQ"])
def test_two_colorings_are_settled_by_the_setwise_test(make):
    """A coloring with two colors is settled by its class's setwise
    stabilizer: on AQ_5 and LTQ_5 random classes get the verdict of the
    element table, and `verify` of a cost record loads no table."""
    import random

    g = make(5)
    grp, reference = automorphism_group(g), automorphism_group(g)
    table = reference.elements()
    rnd = random.Random(5)
    for size in [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 28, 31] * 4:
        colors = np.ones(32, dtype=np.int32)
        colors[rnd.sample(range(32), size)] = 2
        keeping = int((colors[table] == colors[None, :]).all(axis=1).sum())
        assert is_distinguishing(grp, Coloring(tuple(colors.tolist()), 2)) == (keeping == 1)
    assert grp._elements is None
    g = make(8)
    grp = automorphism_group(g)
    value, witness = cost_2dist(g, grp)
    record = {"params": {"kind": g.family.kind, "n": 8}, "value": value,
              "witness": witness.to_dict()}
    assert verify_witness(g, record, grp) is True
    assert grp._elements is None


@pytest.mark.parametrize("name", sorted(COUNT_GROUPS))
def test_least_support_order(name):
    """The rows by the vertices they move, identity first, in a stable sort."""
    grp = _count_group(name)
    table = grp.elements()
    moved = (table != np.arange(grp.n_vertices)).sum(axis=1)
    order = _least_support(grp)
    assert sorted(order.tolist()) == list(range(len(table)))
    assert moved[order[0]] == 0 and (np.diff(moved[order]) >= 0).all()
    ties = np.diff(moved[order]) == 0
    assert (np.diff(order)[ties] > 0).all()


SIEVE_GROUPS = {
    "FQ_4": lambda: automorphism_group(folded_hypercube(4)),
    "FQ_5": lambda: automorphism_group(folded_hypercube(5)),
    "Q_{4,2}": lambda: automorphism_group(enhanced_hypercube(4, 2)),
    "Q_{5,3}": lambda: automorphism_group(enhanced_hypercube(5, 3)),
    "FQ_3 searched": lambda: search_automorphisms(folded_hypercube(3)),
}


@lru_cache(maxsize=None)
def _sieve_group(name):
    return SIEVE_GROUPS[name]()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_setwise_sieve_matches_setwise_stabilizer(data):
    """`_setwise_trivial`, with its early-stopping count in `_least_support`
    order, gives the verdict of the setwise stabilizer on the element table,
    for random classes and for unions of the orbits of a random set under
    one element (which that element keeps), with the default chunks of rows
    and with chunks that start at one or three rows and double up to 5 or 16."""
    grp = _sieve_group(data.draw(st.sampled_from(sorted(SIEVE_GROUPS))))
    nv, table = grp.n_vertices, grp.elements()
    if data.draw(st.booleans()):
        cls = set(data.draw(st.lists(st.integers(0, nv - 1), max_size=nv)))
    else:
        row = table[data.draw(st.integers(0, len(table) - 1))]
        cls = set(data.draw(st.lists(st.integers(0, nv - 1), max_size=4)))
        while not {int(row[v]) for v in cls} <= cls:
            cls |= {int(row[v]) for v in cls}
    cls = sorted(cls)
    first, most = data.draw(st.sampled_from(
        [(symmetry._SIEVE_ROWS, symmetry._BLOCK_ROWS), (1, 5), (3, 16)]))
    with mock.patch.object(symmetry, "_SIEVE_ROWS", first), \
            mock.patch.object(symmetry, "_BLOCK_ROWS", most):
        assert _setwise_trivial(grp, cls) == (setwise_stabilizer(grp, cls).order() == 1), cls


@pytest.mark.parametrize("make", [augmented_hypercube, locally_twisted_hypercube],
                         ids=["AQ_5", "LTQ_5"])
def test_setwise_sieve_builds_no_table_on_setwise_models(make):
    grp = automorphism_group(make(5))
    for cls in ([0], [0, 1, 2], list(range(7)), [0, 3, 5, 6, 9, 17, 30]):
        _setwise_trivial(grp, cls)
    assert grp._elements is None and grp._by_support is None


@pytest.mark.parametrize("n", range(1, 8))
def test_rgs_blocks_follow_rgs_order(n):
    """The blocks of `_rgs_blocks`, each its prefix over its suffixes, hold
    the restricted-growth strings that use all d colors, in order, at most
    `max_rows` a block, down to suffixes of length 0 (one row a block)."""
    for d in range(1, n + 2):
        want = [list(colors) for colors in _rgs_partitions(n, d, d)]
        for max_rows in (1, 3, 5, 9, 64, 4096):
            blocks = [(prefix, _rgs_block(prefix, suffixes))
                      for prefix, suffixes in _rgs_blocks(n, d, max_rows)]
            assert all(0 < block.shape[1] <= max_rows for _, block in blocks)
            assert all((block[:len(prefix)] == prefix[:, None]).all() for prefix, block in blocks)
            assert [row for _, block in blocks for row in block.T.tolist()] == want, (d, max_rows)


def _plain_d3(grp):
    """The reference walk: every restricted-growth coloring that uses all d
    colors, counted with `_keeping_rows`."""
    nv = grp.n_vertices
    for d in range(3, nv + 1):
        for colors in _rgs_partitions(nv, d):
            if max(colors) == d - 1 and _keeping_rows(grp, np.array(colors)) == 1:
                return d, tuple(c + 1 for c in colors)
    raise AssertionError("an all-distinct coloring distinguishes")


D3_GROUPS = {
    "Q_2": lambda: hypercube(2),
    "Q_3": lambda: hypercube(3),
    "Q_4": lambda: hypercube(4),
    "Q_{3,2}": lambda: enhanced_hypercube(3, 2),
    "Q_{4,2}": lambda: enhanced_hypercube(4, 2),
    "Q_{4,3}": lambda: enhanced_hypercube(4, 3),
    "Q_3^2": lambda: hypercube_power(3, 2),
    "Q_4^2": lambda: hypercube_power(4, 2),
    "FQ_3": lambda: folded_hypercube(3),
    "H(2,3)": lambda: hamming_graph(3, 2),
    "H(2,4)": lambda: hamming_graph(4, 2),
    "AQ_3": lambda: augmented_hypercube(3),
}


@pytest.mark.parametrize("name", sorted(D3_GROUPS))
def test_batched_d3_matches_plain_walk(name):
    """The least d >= 3 and the first coloring, as the plain walk finds
    them; on the groups of dist 2 the walk is run all the same."""
    grp = automorphism_group(D3_GROUPS[name]())
    value, witness = _distinguishing_d3(grp, "structured")
    assert (value, witness.payload) == _plain_d3(grp)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_d3_matches_plain_walk_on_random_graphs(data):
    """Random graphs of 3-8 vertices with a non-trivial searched group: the
    least d >= 3 and the first coloring are the plain walk's, with the
    sieve on its default `_SIEVE_ROWS` rows and on 2 (one non-identity
    row), and with blocks of the default `_BLOCK_ROWS` and of 3, 9 or 27
    colorings.  At the default a graph of at most 8 vertices has a prefix
    of one vertex, which settles no pair; the smaller blocks have longer
    prefixes, whose pairs skip rows and drop blocks."""
    n = data.draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p, keep in zip(pairs, data.draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    grp = search_automorphisms(graph_from_edges(n, edges))
    # the plain walk reads the whole table for every coloring; S_8 and
    # S_7 x S_1 would have it read 40,320 or 5,040 rows thousands of times
    assume(not grp.is_trivial() and grp.order() <= 1152)
    want = _plain_d3(grp)
    sieve_rows = data.draw(st.sampled_from([symmetry._SIEVE_ROWS, 2]))
    block_rows = data.draw(st.sampled_from([symmetry._BLOCK_ROWS, 3, 9, 27]))
    with mock.patch.object(symmetry, "_SIEVE_ROWS", sieve_rows), \
            mock.patch.object(symmetry, "_BLOCK_ROWS", block_rows):
        value, witness = _distinguishing_d3(grp, "searched")
    assert (value, witness.payload) == want


@pytest.mark.parametrize("name", ["Q_2", "Q_3", "Q_{3,2}", "Q_{4,2}", "Q_3^2", "FQ_3", "H(2,3)",
                                  "AQ_3"])
def test_d3_without_room_for_bitsets(name, monkeypatch):
    """The sieve's size changes no answer: with `_SIEVE_ROWS` patched to 1,
    which leaves no sieve row, so that `_only_identity_keeps` tests every
    coloring, and to 6, the value and witness are those of the default
    sieve."""
    g = D3_GROUPS[name]()
    want = distinguishing_number(g, automorphism_group(g))
    assert want[0] >= 3
    grp = automorphism_group(g)
    for sieve_rows in (1, 6):
        monkeypatch.setattr(symmetry, "_SIEVE_ROWS", sieve_rows)
        assert _distinguishing_d3(grp, want[1].verified_by) == want


@pytest.mark.parametrize("make", [
    pytest.param(lambda: hamming_graph(7, 1), id="K_7"),
    pytest.param(lambda: hamming_graph(8, 1), id="K_8", marks=pytest.mark.oracle_suite),
    pytest.param(lambda: hypercube_power(3, 3), id="Q_3^3", marks=pytest.mark.oracle_suite),
])
def test_d3_sieve_past_its_rows_matches_plain_walk(make):
    """On a table of more than `_BLOCK_ROWS` rows, whose first
    `_SIEVE_ROWS` least-support rows are the only ones the sieve reads, the
    value and witness are the plain walk's (K_7 has 5,040 rows; K_8 and
    Q_3^3 = K_8, searched, 40,320)."""
    grp = automorphism_group(make())
    assert len(grp.elements()) > symmetry._BLOCK_ROWS
    value, witness = _distinguishing_d3(grp, "searched")
    assert (value, witness.payload) == _plain_d3(grp)


def _plain_greedy(grp):
    """The reference greedy class: for every vertex the class might take,
    at every step, the table rows that map the class into itself, which
    are those that keep it as a 2-coloring."""
    nv, table = grp.n_vertices, grp.elements()
    member = np.zeros(nv, dtype=bool)
    chosen = []
    while len(chosen) <= nv // 2 + 1:
        best_v, best_count = None, None
        for v in np.flatnonzero(~member).tolist():
            member[v] = True
            cnt = int(member[table[:, member]].all(axis=1).sum())
            member[v] = False
            if best_count is None or cnt < best_count:
                best_count, best_v = cnt, v
        member[best_v] = True
        chosen.append(best_v)
        if best_count == 1:
            return tuple(sorted(chosen))
    return None


EXTENSION_GROUPS = {
    "H(3,3)": lambda: hamming_graph(3, 3),
    "Q_4": lambda: hypercube(4),
    "Q_{4,2}": lambda: enhanced_hypercube(4, 2),
}


@lru_cache(maxsize=None)
def _extension_group(name):
    return automorphism_group(EXTENSION_GROUPS[name]())


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_extension_counts_match_preserving_count(data):
    """The one-pass count for every vertex outside a random class S equals
    `_keeping_rows` of S with that vertex added."""
    grp = _extension_group(data.draw(st.sampled_from(sorted(EXTENSION_GROUPS))))
    nv = grp.n_vertices
    chosen = data.draw(st.lists(st.integers(0, nv - 1), unique=True, max_size=nv // 2))
    member = np.zeros(nv, dtype=bool)
    member[chosen] = True
    counts = _extension_counts(grp.elements(), member, chosen)
    for v in range(nv):
        if member[v]:
            assert counts[v] == len(grp.elements()) + 1
        else:
            member[v] = True
            assert counts[v] == _keeping_rows(grp, member), (chosen, v)
            member[v] = False


@pytest.mark.parametrize("name, make", [
    ("H(4,3)", lambda: hamming_graph(3, 4)),
    ("H(3,4)", lambda: hamming_graph(4, 3)),
    ("Q_5", lambda: hypercube(5)),
    ("Q_6", lambda: hypercube(6)),
    ("Q_5^2", lambda: hypercube_power(5, 2)),
])
def test_greedy_class_matches_plain_greedy(name, make):
    grp = automorphism_group(make())
    assert _greedy_two_class(grp) == _plain_greedy(grp)


@pytest.mark.parametrize("block_rows", [None, 100], ids=["default rows", "100 rows"])
@pytest.mark.parametrize("make, cls", [
    pytest.param(lambda: hamming_graph(3, 4), (0, 4, 13, 29), id="H(4,3)"),
    pytest.param(lambda: hamming_graph(4, 3), (0, 5, 8, 18, 33), id="H(3,4)"),
    pytest.param(lambda: hypercube_power(6, 2), (0, 2, 6, 7, 8, 17), id="Q_6^2"),
    pytest.param(lambda: folded_hypercube(5), (0, 2, 3, 4, 9, 18), id="FQ_5"),
    pytest.param(lambda: enhanced_hypercube(5, 3), (0, 1, 2, 9, 12, 13, 27), id="Q_{5,3}"),
    pytest.param(lambda: enhanced_hypercube(4, 2), None, id="Q_{4,2}"),
])
def test_greedy_class_values(make, cls, block_rows, monkeypatch):
    """The greedy class of each group, with the fixed points counted on the
    default chunks of rows and on chunks of 100 rows."""
    if block_rows is not None:
        monkeypatch.setattr(symmetry, "_BLOCK_ROWS", block_rows)
    assert _greedy_two_class(automorphism_group(make())) == cls


@pytest.mark.parametrize("name, make, value, calls", [
    ("H(4,3)", lambda: hamming_graph(3, 4), 2, 0),
    ("Q_{4,2}", lambda: enhanced_hypercube(4, 2), 3, 2),
])
def test_dist_only_identity_keeps_calls(name, make, value, calls, monkeypatch):
    """`_only_identity_keeps` serves dist only as the test of the colorings
    that the d >= 3 scan's sieve leaves: dist of H(4,3) (greedy class)
    calls it never, dist of Q_{4,2} (dist 3) twice."""
    made = []
    real = symmetry._only_identity_keeps

    def counted(grp, colors):
        made.append(1)
        return real(grp, colors)

    monkeypatch.setattr(symmetry, "_only_identity_keeps", counted)
    report = compute_parameter(make(), "dist")
    assert (report["value"], len(made)) == (value, calls)


def _count_d3_work(monkeypatch) -> dict[str, int]:
    """Patch the d >= 3 scan to count the colorings that enter its sieve
    (those of each block it builds, which use all d colors; a block that
    its prefix settles is not built) and those it hands to
    `_only_identity_keeps`."""
    work = {"sieved": 0, "tested": 0}
    scanning = []
    real_d3, real_block = symmetry._distinguishing_d3, symmetry._rgs_block
    real_keeps = symmetry._only_identity_keeps

    def d3(grp, tag):
        scanning.append(True)
        return real_d3(grp, tag)

    def block(prefix, suffixes):
        built = real_block(prefix, suffixes)
        work["sieved"] += built.shape[1]
        return built

    def keeps(grp, colors):
        work["tested"] += bool(scanning)
        return real_keeps(grp, colors)

    monkeypatch.setattr(symmetry, "_distinguishing_d3", d3)
    monkeypatch.setattr(symmetry, "_rgs_block", block)
    monkeypatch.setattr(symmetry, "_only_identity_keeps", keeps)
    return work


def test_dist_of_k9_settles_each_coloring_in_its_first_chunk(monkeypatch):
    """dist of K_9 = H(1,9) is 9, with the all-distinct witness.  Every
    coloring with 3-8 colors repeats a color, so a transposition among the
    first `_SIEVE_ROWS` least-support rows keeps it, and the sieve drops
    it.  A block whose prefix repeats a color is dropped unbuilt, by the
    transposition of two prefix points, so of the 20,890 colorings with
    3-8 colors (S(9, 3..8)) only the 8,441 after the all-distinct prefix
    of each d (of 2-5 points) enter the sieve.  d = 9 is not scanned: the
    group is S_9, whose one coloring left, the all-distinct one, only the
    identity keeps, so no coloring reaches `_only_identity_keeps`.  K_10
    and larger are above the element cap and still exit 2."""
    work = _count_d3_work(monkeypatch)
    report = compute_parameter(hamming_graph(9, 1), "dist")
    assert (report["value"], report["witness"]["payload"]) == (9, list(range(1, 10)))
    assert work == {"sieved": 8441, "tested": 0}
    with pytest.raises(SearchBudgetExceeded):
        compute_parameter(hamming_graph(10, 1), "dist")


def test_dist_asks_the_greedy_only_when_the_root_bound_leaves_a_class(monkeypatch):
    """On K_9 the Hamming model's determining bound after one vertex needs
    half the vertices, so no class exists and dist goes straight to the
    d >= 3 scan without the greedy class; H(3,4), with more than 16
    vertices and a column floor left open (35 types of 5 rows), still takes
    the greedy class."""
    real = symmetry._greedy_two_class
    greedy = []

    def refused(grp):
        raise AssertionError("dist of K_9 asked for the greedy class")

    monkeypatch.setattr(symmetry, "_greedy_two_class", refused)
    report = compute_parameter(hamming_graph(9, 1), "dist")
    assert (report["value"], report["witness"]["payload"]) == (9, list(range(1, 10)))

    def counted(grp):
        greedy.append(real(grp))
        return greedy[-1]

    monkeypatch.setattr(symmetry, "_greedy_two_class", counted)
    report = compute_parameter(hamming_graph(4, 3), "dist")
    assert report["value"] == 2 and len(greedy) == 1 and greedy[0] is not None
    assert [c for c, v in enumerate(report["witness"]["payload"]) if v == 2] == list(greedy[0])


def test_a_greedy_class_that_fails_its_recheck_raises(monkeypatch, capsys):
    """A greedy class whose setwise stabilizer is not trivial fails dist's
    re-check, which raises rather than passing to the class scan: with a
    stand-in greedy that returns (0,) on Q_4, dist raises AssertionError
    and `param dist hypercube -n 4` exits 3."""
    from cubesym.cli import main

    monkeypatch.setattr(symmetry, "_greedy_two_class", lambda grp: (0,))
    with pytest.raises(AssertionError, match="greedy class"):
        compute_parameter(hypercube(4), "dist")
    assert main(["param", "dist", "hypercube", "-n", "4", "--no-cache"]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


@pytest.mark.parametrize("n, m, witness", [
    (4, 3, [0, 1, 12, 32]),
    (6, 3, None), (7, 3, None), (4, 4, None), (5, 4, None), (3, 5, None),
])
def test_dist_of_hamming_graphs_from_the_class_scan_builds_no_table(n, m, witness, monkeypatch):
    """dist of H(n, m) above 16 vertices answers 2 from the class scan
    without the element table: H(4,3), H(6,3) and H(7,3) at their exact
    column floors, where the table is never asked for and H(4,3)'s class
    is cost's lex-least one, and H(4,4), H(5,4) and H(3,5), whose floors
    are left open, where the greedy's table is above the element cap and
    the scan runs past the prune."""
    asked = []
    real = PermGroup.elements

    def counted(self):
        asked.append(self.order_known)
        return real(self)

    monkeypatch.setattr(PermGroup, "elements", counted)
    g = hamming_graph(m, n)
    grp = automorphism_group(g)
    report = compute_parameter(g, "dist", grp)
    cls = [v for v, c in enumerate(report["witness"]["payload"]) if c == 2]
    assert report["value"] == 2 and grp.model.setwise_trivial(cls)
    assert grp._elements is None
    if symmetry.floor_is_exact(grp.model, grp.n_vertices):
        assert asked == []
    else:  # the greedy asked, and the table is above the cap
        assert asked and min(asked) > DEFAULT_ELEMENT_CAP
    if witness is not None:
        assert cls == witness == compute_parameter(g, "cost", grp)["witness"]["payload"]


def test_dist_fallback_class_passes_the_table_test(monkeypatch):
    """With the greedy made to raise as above the element cap, dist of
    H(3,4) (floor left open) and H(2,5) answers 2 from the class scan, and
    the table test `_only_identity_keeps` accepts that class."""
    def too_large(grp):
        raise SearchBudgetExceeded("greedy patched to raise")

    monkeypatch.setattr(symmetry, "_greedy_two_class", too_large)
    for g in (hamming_graph(4, 3), hamming_graph(5, 2)):
        grp = automorphism_group(g)
        assert not symmetry.floor_is_exact(grp.model, grp.n_vertices)
        report = compute_parameter(g, "dist", grp)
        member = np.array(report["witness"]["payload"]) == 2
        assert report["value"] == 2
        assert symmetry._only_identity_keeps(grp, member)


@pytest.mark.parametrize("cap, answers", [(542, True), (541, False)])
def test_dist_fallback_scan_stops_at_the_element_cap(cap, answers, monkeypatch):
    """The class scan that dist of H(4,4) asks where the greedy's table is
    above the element cap adds 542 vertices to its nodes, and it may add
    as many as the cap allows table rows: at that cap it answers 2, one
    below it dist raises the budget error that the greedy would."""
    monkeypatch.setattr(symmetry, "DEFAULT_ELEMENT_CAP", cap)
    g = hamming_graph(4, 4)
    if answers:
        assert compute_parameter(g, "dist")["value"] == 2
    else:
        with pytest.raises(SearchBudgetExceeded, match="too large to settle"):
            compute_parameter(g, "dist")


def test_dist_without_a_class_above_16_vertices_says_dist_is_at_least_3():
    """K_17 = H(1,17) has no class, which its column floor shows, and the
    d >= 3 scan needs at most 16 vertices: dist raises a budget error that
    says dist >= 3, with no element table built."""
    g = hamming_graph(17, 1)
    grp = automorphism_group(g)
    assert symmetry._column_floor(grp.model, grp.n_vertices) is None
    with pytest.raises(SearchBudgetExceeded, match="dist >= 3"):
        compute_parameter(g, "dist", grp)
    assert grp._elements is None


@pytest.mark.parametrize("m", [3, 9, 10, 16])
def test_cost_of_complete_graphs_builds_no_element_table(m):
    """K_m = H(1,m) for m >= 3 is not 2-distinguishable.  The Hamming
    model's determining bound cuts every class of at most m/2 vertices at
    its first vertex, so the class scan answers without the element table:
    K_9's 362,880 rows are never built, and K_10 to K_16, whose groups are
    above the element cap, get the same answer rather than a budget error."""
    g = hamming_graph(m, 1)
    grp = automorphism_group(g)
    with pytest.raises(NotTwoDistinguishable):
        compute_parameter(g, "cost", grp)
    assert grp._elements is None


@pytest.mark.parametrize("name, make, value, calls", [
    ("cost FQ_4", lambda: compute_parameter(folded_hypercube(4), "cost"), 8, 1),
    ("dist Q_{4,2}", lambda: compute_parameter(enhanced_hypercube(4, 2), "dist"), 3, 0),
    ("cost Q_5", lambda: compute_parameter(hypercube(5), "cost"), 5, 1),
    ("cost H(4,4)", lambda: compute_parameter(hamming_graph(4, 4), "cost"), 5, 33),
])
def test_class_scan_setwise_calls(name, make, value, calls, monkeypatch):
    """The class scan's `_setwise_trivial` calls.  On at most 16 vertices
    it reads its class from the kept-set table and asks only to re-check
    it: once for cost of FQ_4, and never for dist of Q_{4,2}, which has no
    class.  On more vertices the search starts at the column view's floor,
    5 for Q_5 and H(4,4), and tests each of its leaves.  Q_5's floor is
    exact, and the prefix prune leaves one leaf, the first anchored one,
    which is the lex-least class.  H(4,4)'s floor has 35 types, past the
    prune, and its search tests 33 anchored leaves.  The cost scans
    never enter `_distinguishing_d3`, which only dist reaches."""
    made, scanned = [], []
    real, real_d3 = symmetry._setwise_trivial, symmetry._distinguishing_d3

    def counted(grp, cls):
        made.append(1)
        return real(grp, cls)

    def d3(grp, tag):
        scanned.append(1)
        return real_d3(grp, tag)

    monkeypatch.setattr(symmetry, "_setwise_trivial", counted)
    monkeypatch.setattr(symmetry, "_distinguishing_d3", d3)
    assert (make()["value"], len(made)) == (value, calls)
    assert bool(scanned) == name.startswith("dist")


@pytest.mark.parametrize("name, make, sieved, tested", [
    ("dist Q_{4,2}", lambda: compute_parameter(enhanced_hypercube(4, 2), "dist"), 17694, 2),
    ("cost FQ_4", lambda: compute_parameter(folded_hypercube(4), "cost"), 0, 0),
])
def test_two_stage_count_work(name, make, sieved, tested, monkeypatch):
    """The colorings that enter the d >= 3 scan's sieve and those that it
    leaves to `_only_identity_keeps`: 17,694 and 2 for `dist enhanced -n 4
    -k 2`, and none for `cost folded -n 4`, whose class scan reads the
    kept-set table."""
    work = _count_d3_work(monkeypatch)
    make()
    assert work == {"sieved": sieved, "tested": tested}


def test_class_scan_reads_the_kept_set_table(monkeypatch):
    """The class scans of `cost folded -n 4` and `dist enhanced -n 4 -k 2`
    read the kept-set table and never run the depth-first search, which
    det still runs; cost never enters `_distinguishing_d3`."""
    searches = []
    real = symmetry._determining_leaves

    def counted(*args):
        searches.append(1)
        return real(*args)

    def no_d3(grp, tag):
        raise AssertionError("the class scan entered the d >= 3 scan")

    monkeypatch.setattr(symmetry, "_determining_leaves", counted)
    with monkeypatch.context() as patched:
        patched.setattr(symmetry, "_distinguishing_d3", no_d3)
        grp = automorphism_group(folded_hypercube(4))
        assert symmetry.cost_2dist(grp.graph, grp)[0] == 8
        assert compute_parameter(folded_hypercube(4), "cost")["value"] == 8
    assert compute_parameter(enhanced_hypercube(4, 2), "dist")["value"] == 3
    assert searches == []
    assert compute_parameter(folded_hypercube(4), "det")["value"] == 4
    assert searches


@pytest.mark.parametrize("make, value, cls, past_first_rows", [
    pytest.param(lambda: enhanced_hypercube(5, 2), 5, [0, 1, 2, 5, 24], 71, id="Q_{5,2}"),
    pytest.param(lambda: enhanced_hypercube(5, 3), 7, [0, 1, 2, 9, 11, 12, 21], 433,
                 id="Q_{5,3}"),
    pytest.param(lambda: folded_hypercube(5), 6, [0, 1, 2, 4, 9, 19], 1234, id="FQ_5"),
    pytest.param(lambda: enhanced_hypercube(6, 4), 6, [0, 1, 10, 11, 20, 53], 9,
                 id="Q_{6,4}", marks=pytest.mark.oracle_suite),
    pytest.param(lambda: folded_hypercube(6), 6, [0, 1, 2, 5, 24, 42], 9794,
                 id="FQ_6", marks=pytest.mark.oracle_suite),
])
def test_cost_values_and_table_setwise_tests(make, value, cls, past_first_rows, monkeypatch):
    """The cost and least class of the enhanced and folded cubes of 32 and
    64 vertices, whose class scans test each class by `_setwise_trivial` on
    the element table.  None asks `setwise_stabilizer`, and the classes whose
    count reads a chunk of rows after the first (the `_SIEVE_ROWS` rows that
    move the fewest vertices) are counted: those that one of these rows or
    none keeps."""
    read_past, stabilizers = [], []
    real_trivial, real_order = symmetry._setwise_trivial, symmetry._least_support

    class Order(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, slice) and key.start:
                read_past[-1] = True
            return super().__getitem__(key)

    def trivial(grp, subset):
        read_past.append(False)
        return real_trivial(grp, subset)

    monkeypatch.setattr(symmetry, "_setwise_trivial", trivial)
    monkeypatch.setattr(symmetry, "_least_support", lambda grp: real_order(grp).view(Order))
    monkeypatch.setattr(symmetry, "setwise_stabilizer",
                        lambda grp, subset: stabilizers.append(subset))
    report = compute_parameter(make(), "cost")
    assert (report["value"], report["witness"]["payload"]) == (value, cls)
    assert (sum(read_past), len(stabilizers)) == (past_first_rows, 0)


def test_class_scan_tests_no_pair_where_the_translations_span(monkeypatch):
    """The translation by u ^ v swaps u and v, so where the translations
    among the generators span Z_2^n no 2-set is a class: the class scan of
    AQ_5..AQ_12 tests none, and finds the class the parent's scan of every
    size found, (0, 1, 2^(n-1) + 2)."""
    sizes = []
    real = symmetry._setwise_trivial

    def trivial(grp, cls):
        sizes.append(len(cls))
        return real(grp, cls)

    monkeypatch.setattr(symmetry, "_setwise_trivial", trivial)
    for n in range(5, 13):
        g = augmented_hypercube(n)
        value, witness = cost_2dist(g, automorphism_group(g))
        assert (value, witness.payload) == (3, (0, 1, (1 << (n - 1)) + 2))
    assert sizes and 2 not in sizes


RECORDS = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "records"


@pytest.mark.parametrize("argv", [
    ["verify", str(RECORDS / "dist-power-n-6-k-2.json"), "--no-cache"],
    ["verify", str(RECORDS / "dist-hamming-n-4-m-3.json"), "--no-cache"],
    ["param", "cost", "hypercube", "-n", "5", "--no-cache"],
])
def test_setwise_answers_build_no_table(argv, monkeypatch, capsys):
    """The verify of the Q_6^2 and H(4,3) dist records and the cost of Q_5
    settle setwise triviality on the model, so the group they build keeps
    no element table."""
    from cubesym import cli, params

    groups = []

    def kept(g):
        groups.append(automorphism_group(g))
        return groups[-1]

    monkeypatch.setattr(cli, "automorphism_group", kept)
    monkeypatch.setattr(params, "automorphism_group", kept)
    assert cli.main(argv) == 0
    assert '"verified": false' not in capsys.readouterr().out
    assert groups and all(grp._elements is None for grp in groups)


def test_is_asymmetric_stops_at_the_first_automorphism():
    """The 171-vertex subgraph of Q_9 induced by the multiples of 3 has an
    automorphism; a full search of its group ran for minutes."""
    import time

    g = induced_subgraph(hypercube(9), [v for v in range(512) if v % 3 == 0])
    start = time.perf_counter()
    assert not is_asymmetric(g)
    assert time.perf_counter() - start < 1.0


def test_is_asymmetric_matches_the_full_search_on_corpus(corpus):
    for name, g in corpus.items():
        assert is_asymmetric(g) == (search_automorphisms(g).order() == 1), name


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_is_asymmetric_matches_the_full_search_on_random_graphs(data):
    n = data.draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p, keep in zip(pairs, data.draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    g = graph_from_edges(n, edges)
    assert is_asymmetric(g) == (search_automorphisms(g).order() == 1)
