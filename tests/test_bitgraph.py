from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesym import search
from cubesym.bitgraph import (
    BitVertex,
    FamilySpec,
    Graph,
    _neighbor_masks,
    augmented_hypercube,
    build_family,
    cartesian_product,
    complement,
    distances_from,
    enhanced_hypercube,
    folded_hypercube,
    graph_from_edges,
    graph_distance,
    hamming_distance,
    hamming_graph,
    hamming_words,
    hypercube,
    hypercube_power,
    induced_subgraph,
    is_connected,
    locally_twisted_hypercube,
    same_edges,
    word_str,
)
from cubesym.cli import main
from cubesym.errors import (
    DimensionMismatch,
    DuplicateVertex,
    ParameterOutOfRange,
    SearchBudgetExceeded,
    SizeGuard,
    Unreachable,
    VertexOutOfRange,
)


def test_bitvertex_basics():
    v = BitVertex(0b1010, 4)
    assert str(v) == "1010"
    assert v.digits() == (1, 0, 1, 0)
    assert v.digit(1) == 1 and v.digit(4) == 0
    w = BitVertex(5, 2, alphabet=3)
    assert str(w) == "12"


def test_hamming_distance_examples():
    assert hamming_distance(BitVertex(0, 4), BitVertex(0, 4)) == 0
    assert hamming_distance(BitVertex(0b0101, 4), BitVertex(0b1010, 4)) == 4
    assert hamming_distance(BitVertex(0b10101010, 8), BitVertex(0b11101010, 8)) == 1
    with pytest.raises(DimensionMismatch):
        hamming_distance(BitVertex(0, 3), BitVertex(0, 4))
    assert hamming_words(int("0112", 3), int("1021", 3), 4, 3) == 4


def test_family_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        FamilySpec("enhanced", 4, k=4)
    with pytest.raises(ParameterOutOfRange):
        FamilySpec("enhanced", 4, k=0)
    with pytest.raises(ParameterOutOfRange):
        FamilySpec("hamming", 2, m=1)
    with pytest.raises(ParameterOutOfRange):
        FamilySpec("power", 4, k=0)
    with pytest.raises(ParameterOutOfRange):
        FamilySpec("nonsense", 3)


def test_build_family_examples():
    fq2 = folded_hypercube(2)
    assert fq2.n_vertices == 4 and fq2.is_regular() and fq2.degree(0) == 3  # K_4
    ltq2 = locally_twisted_hypercube(2)
    assert same_edges(ltq2, hypercube(2))  # 4-cycle
    aq3 = augmented_hypercube(3)
    assert aq3.n_vertices == 8 and aq3.degree(0) == 5 and aq3.edge_count() == 20
    q42 = hypercube_power(4, 2)
    assert q42.n_vertices == 16 and q42.degree(0) == 10 and q42.edge_count() == 80
    e32 = enhanced_hypercube(3, 2)
    assert e32.n_vertices == 8 and e32.is_regular() and e32.degree(0) == 4


@pytest.mark.parametrize("spec", [
    FamilySpec("hypercube", 5),
    FamilySpec("power", 5, k=2),
    FamilySpec("power", 5, k=3),
    FamilySpec("hamming", 2, m=3),
    FamilySpec("hamming", 3, m=3),
    FamilySpec("folded", 5),
    FamilySpec("enhanced", 5, k=2),
    FamilySpec("enhanced", 5, k=4),
    FamilySpec("augmented", 5),
    FamilySpec("locally_twisted", 5),
])
def test_regularity_and_counts(spec):
    g = build_family(spec)
    assert g.n_vertices == spec.vertex_count
    assert g.is_regular()
    assert g.degree(0) == spec.expected_degree()
    g.check_valid()


def test_vertex_cap():
    with pytest.raises(SizeGuard):
        build_family(FamilySpec("hypercube", 21))
    build_family(FamilySpec("hypercube", 10), cap=1024)
    with pytest.raises(SizeGuard):
        build_family(FamilySpec("hypercube", 10), cap=1023)


def test_graph_distance():
    q3 = hypercube(3)
    assert graph_distance(q3, 0b000, 0b111) == 3
    assert graph_distance(hypercube_power(4, 2), 0b0000, 0b1111) == 2
    assert graph_distance(folded_hypercube(4), 0b0000, 0b1111) == 1
    two = graph_from_edges(2, [])
    with pytest.raises(Unreachable):
        graph_distance(two, 0, 1)
    with pytest.raises(VertexOutOfRange):
        graph_distance(q3, 0, 99)


def test_vertex_queries_reject_vertices_out_of_range():
    q3 = hypercube(3)
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    for query in (lambda: q3.has_edge(0, 11),  # key 11 is the edge (1, 3)
                  lambda: q3.has_edge(-1, 0),
                  lambda: path.has_edge(0, 5),
                  lambda: q3.degree(-1),  # would index vertex 7
                  lambda: q3.degree(8),
                  lambda: q3.neighbors(8),
                  lambda: q3.neighbors(-1),
                  lambda: distances_from(q3, 8)):
        with pytest.raises(VertexOutOfRange):
            query()
    assert q3.has_edge(1, 3) and q3.degree(7) == 3 and q3.neighbors(7) == [3, 5, 6]


def _python_bfs(g: Graph, u: int) -> list[int]:
    adj = [set() for _ in range(g.n_vertices)]
    for a, b in g.edges():
        adj[a].add(b)
        adj[b].add(a)
    dist = [-1] * g.n_vertices
    dist[u] = 0
    queue = [u]
    for x in queue:
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


@given(st.integers(0, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_bfs_distances_match_a_python_bfs(n, data):
    vertex = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=30)) if n else []
    g = graph_from_edges(n, pairs)
    reach = [_python_bfs(g, u) for u in range(n)]
    for u in range(n):
        dist = distances_from(g, u)
        assert dist.tolist() == reach[u]
        for v in range(n):
            if reach[u][v] < 0:
                with pytest.raises(Unreachable):
                    graph_distance(g, u, v)
            else:
                assert graph_distance(g, u, v) == reach[u][v]
    assert is_connected(g) == (n == 0 or min(reach[0]) >= 0)


def test_power_distance_identity():
    for n in (4, 5):
        g = hypercube_power(n, 2)
        for u in range(g.n_vertices):
            for v in range(u + 1, g.n_vertices):
                h = hamming_words(u, v, n)
                assert graph_distance(g, u, v) == (h + 1) // 2


def test_induced_subgraph():
    q3 = hypercube(3)
    sub = induced_subgraph(q3, [0b000, 0b100, 0b110])
    assert sub.n_vertices == 3
    assert sub.has_edge(0, 1) and sub.has_edge(1, 2) and not sub.has_edge(0, 2)
    assert sub.labels == (0b000, 0b100, 0b110)
    with pytest.raises(VertexOutOfRange):
        induced_subgraph(q3, [0, 99])
    with pytest.raises(DuplicateVertex):
        induced_subgraph(q3, [0, 0])


def test_induced_q42_prefix_chain_is_path_square():
    g = hypercube_power(4, 2)
    chain = [0b0000, 0b1000, 0b1100, 0b1110]
    sub = induced_subgraph(g, chain)
    for i in range(4):
        for j in range(i + 1, 4):
            assert sub.has_edge(i, j) == (j - i <= 2)


def test_complement():
    k4 = folded_hypercube(2)
    empty = complement(k4)
    assert empty.edge_count() == 0
    aq3 = augmented_hypercube(3)
    c = complement(aq3)
    # two disjoint 4-cycles, one on {000, 101, 110, 011}
    assert c.is_regular() and c.degree(0) == 2 and not is_connected(c)
    comp0 = {0}
    frontier = {0}
    while frontier:
        nxt = {w for v in frontier for w in c.neighbors(v)} - comp0
        comp0 |= nxt
        frontier = nxt
    assert comp0 == {0b000, 0b101, 0b110, 0b011}
    assert graph_distance(c, 0, 0b011) == 2  # opposite corner of the 4-cycle
    q3 = hypercube(3)
    assert same_edges(complement(complement(q3)), q3)


def test_cartesian_product_examples():
    k2 = hamming_graph(2, 1)
    assert same_edges(cartesian_product(k2, k2), hypercube(2))
    prod = cartesian_product(hypercube(2), folded_hypercube(2))
    assert same_edges(prod, enhanced_hypercube(4, 3))
    k3 = hamming_graph(3, 1)
    assert same_edges(cartesian_product(k3, k3), hamming_graph(3, 2))


def test_product_commutative_associative_up_to_reindexing():
    a, b, c = hypercube(1), hypercube(2), folded_hypercube(2)
    ab = cartesian_product(a, b)
    ba = cartesian_product(b, a)
    # (x, y) -> (y, x) re-indexing
    nb, na = b.n_vertices, a.n_vertices
    for x in range(na):
        for y in range(nb):
            for x2 in range(na):
                for y2 in range(nb):
                    assert ab.has_edge(x * nb + y, x2 * nb + y2) == \
                        ba.has_edge(y * na + x, y2 * na + x2)
    left = cartesian_product(cartesian_product(a, b), c)
    right = cartesian_product(a, cartesian_product(b, c))
    assert same_edges(left, right)  # ids coincide under concatenation


def test_enhanced_k1_equals_folded():
    for n in (2, 3, 4, 5):
        assert same_edges(enhanced_hypercube(n, 1), folded_hypercube(n))


def test_ltq_rebuild_deterministic():
    g1 = locally_twisted_hypercube(5)
    g2 = locally_twisted_hypercube(5)
    assert same_edges(g1, g2)


def test_ltq_matches_manual_recursion():
    # rebuild LTQ_4 by hand from two labelled copies of LTQ_3
    g3 = locally_twisted_hypercube(3)
    edges = []
    for u, v in g3.edges():
        edges.append((u, v))
        edges.append((u | 8, v | 8))
    for v in range(8):
        w = v ^ ((v & 1) << 2)
        edges.append((v, w | 8))
    assert same_edges(graph_from_edges(16, edges), locally_twisted_hypercube(4))


@given(st.integers(2, 6), st.data())
@settings(max_examples=25, deadline=None)
def test_word_str_roundtrip(n, data):
    m = data.draw(st.sampled_from([2, 3]))
    w = data.draw(st.integers(0, m**n - 1))
    s = word_str(w, n, m)
    assert len(s) == n
    assert int(s, m) == w


# ---------------------------------------------------------------------------
# the edge array against the per-vertex loops
#
# The families were once built as one int bitset per vertex, a vertex at a
# time; those loops are the pairwise reference for the numpy rules.


def _reference_rows(spec: FamilySpec) -> list[int]:
    nv, n = spec.vertex_count, spec.n
    if spec.kind == "locally_twisted":
        rows = [0b0110, 0b1001, 0b1001, 0b0110]  # Q_2 on words 00, 01, 10, 11
        for dim in range(3, n + 1):
            half = 1 << (dim - 1)
            new_rows = [0] * (half * 2)
            for v in range(half):
                new_rows[v] = rows[v]
                new_rows[v | half] = rows[v] << half
            for v in range(half):
                u = (v ^ ((v & 1) << (dim - 2))) | half  # 0 x2..xn ~ 1 (x2+xn) x3..xn
                new_rows[v] |= 1 << u
                new_rows[u] |= 1 << v
            rows = new_rows
        return rows
    masks = _neighbor_masks(spec)
    if masks is not None:
        return [sum(1 << (v ^ d) for d in set(masks[0])) for v in range(nv)]
    m, rows = spec.m, []
    for v in range(nv):
        r, p = 0, 1
        for _ in range(n):
            base = v - (v // p % m) * p
            r |= sum(1 << (base + d * p) for d in range(m) if base + d * p != v)
            p *= m
        rows.append(r)
    return rows


def _reference_keys(rows: list[int]) -> list[int]:
    nv = len(rows)
    return [u * nv + v for u in range(nv) for v in range(u + 1, nv) if rows[u] >> v & 1]


def _bits(row: int) -> list[int]:
    return [w for w in range(row.bit_length()) if row >> w & 1]


@st.composite
def family_specs(draw):
    kind = draw(st.sampled_from(["hypercube", "power", "folded", "enhanced", "augmented",
                                 "locally_twisted", "hamming"]))
    if kind == "hamming":
        m = draw(st.integers(2, 5))
        n = draw(st.integers(1, {2: 9, 3: 6, 4: 5, 5: 4}[m]))
        return FamilySpec(kind, n, m=m)
    n = draw(st.integers(2 if kind in ("enhanced", "locally_twisted") else 1, 9))
    if kind == "power":
        return FamilySpec(kind, n, k=draw(st.integers(1, n + 1)))
    if kind == "enhanced":
        return FamilySpec(kind, n, k=draw(st.integers(1, n - 1)))
    return FamilySpec(kind, n)


@given(family_specs())
@settings(max_examples=120, deadline=None)
def test_rule_built_edges_match_the_per_vertex_loops(spec):
    g = build_family(spec)
    rows = _reference_rows(spec)
    assert g.edge_keys.dtype == np.int64
    assert g.edge_keys.tolist() == _reference_keys(rows)
    g.check_valid()
    assert [g.neighbors(v) for v in range(len(rows))] == [_bits(r) for r in rows]
    for v in {0, len(rows) - 1}:
        assert [g.has_edge(v, w) for w in range(len(rows))] == \
            [bool(rows[v] >> w & 1) for w in range(len(rows))]


def _xor_family_specs(max_n: int) -> list[FamilySpec]:
    """Every spec of the five Cayley families of Z_2^n with n <= max_n."""
    specs = []
    for n in range(1, max_n + 1):
        specs += [FamilySpec("hypercube", n), FamilySpec("folded", n),
                  FamilySpec("augmented", n)]
        specs += [FamilySpec("power", n, k=k) for k in range(1, n + 2)]
        specs += [FamilySpec("enhanced", n, k=k) for k in range(1, n)]
    return specs


def _rule_built_keys(spec: FamilySpec) -> np.ndarray:
    """The edge keys as the families built them from their rule, with no
    lazy path: for the Cayley families every vertex XOR every mask, sorted
    per row, the larger ends kept; for LTQ_n the two-copy recursion (base
    LTQ_2 = Q_2), each word 0 x2..xn of LTQ_dim's first copy joined to
    1 (x2+xn) x3..xn of its second."""
    if spec.kind == "locally_twisted":
        u = np.array([0, 0, 1, 2], dtype=np.int64)  # Q_2 on words 00, 01, 10, 11
        v = np.array([1, 2, 3, 3], dtype=np.int64)
        for dim in range(3, spec.n + 1):
            half = 1 << (dim - 1)
            w = np.arange(half, dtype=np.int64)
            partner = (w ^ ((w & 1) << (dim - 2))) | half
            u, v = np.concatenate([u, u | half, w]), np.concatenate([v, v | half, partner])
        return np.sort(u * (1 << spec.n) + v)
    v = np.arange(spec.vertex_count, dtype=np.int64)[:, None]
    nbrs = np.sort(v ^ np.array(_neighbor_masks(spec)[0], dtype=np.int64), axis=1)
    return (v * spec.vertex_count + nbrs)[nbrs > v]


@pytest.mark.parametrize("dense", [False, pytest.param(True, marks=pytest.mark.oracle_suite)],
                         ids=["sparse", "dense"])
def test_lazy_edge_keys_match_the_rule_built_keys(dense):
    """Every Cayley family of Z_2^n on at most 2^12 vertices, and LTQ_4 to
    LTQ_12, holds its connection sets and no edge array; its degrees, edge
    count, `xor_connection` (None for LTQ_n), and `neighbors` and
    `has_edge` at words 0, 1 and V-1 equal those of the graph given
    by the rule-built keys, and so do the keys it builds on first use.  The
    dense ones, with more than 2^21 vertex-mask pairs (Q_11^k for k >= 6,
    Q_12^k for k >= 4), take most of the time and run in the oracle
    suite."""
    specs = _xor_family_specs(12) + [FamilySpec("locally_twisted", n) for n in range(4, 13)]
    for spec in specs:
        if (spec.vertex_count * len(_neighbor_masks(spec)[0]) > 1 << 21) != dense:
            continue
        g = build_family(spec)
        keys = _rule_built_keys(spec)
        given = Graph(g.n_vertices, keys)
        assert g.edge_count() == len(keys), spec
        assert np.array_equal(g.degrees, given.degrees), spec
        xor = given.xor_connection
        assert (g.xor_connection is None) == (xor is None) and \
            (xor is None or np.array_equal(g.xor_connection, xor)), spec
        for x in (0, 1, g.n_vertices - 1):
            assert g.neighbors(x) == given.neighbors(x), spec
            ys = set(given.neighbors(x)) | set(range(min(g.n_vertices, 64)))
            assert all(g.has_edge(x, y) == given.has_edge(x, y) for y in ys), spec
        assert "edge_keys" not in vars(g), spec
        assert g.edge_keys.dtype == np.int64 and np.array_equal(g.edge_keys, keys), spec


@given(st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_xor_bfs_matches_the_edge_bfs_on_random_cayley_graphs(k, data):
    """A graph held by a random connection set D of Z_2^k, k <= 6, has the
    BFS distances, neighbours, edges and induced subgraphs of the graph
    given by its edges; the BFS takes the same distances a frontier vertex
    at a time."""
    from unittest import mock

    from cubesym import bitgraph

    nv = 1 << k
    masks = sorted(data.draw(st.sets(st.integers(1, nv - 1))))
    g = Graph(nv, None, connection=np.array(masks, dtype=np.int64))
    given = graph_from_edges(nv, np.column_stack(g.ends))
    assert g.edge_keys.tolist() == sorted(
        u * nv + (u ^ d) for u in range(nv) for d in masks if u < u ^ d)
    for u in data.draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=4)):
        want = distances_from(given, u).tolist()
        assert distances_from(g, u).tolist() == want
        with mock.patch.object(bitgraph, "_CHECK_BYTES", 1):
            assert distances_from(g, u).tolist() == want
        assert g.neighbors(u) == given.neighbors(u)
    assert is_connected(g) == is_connected(given)
    vs = data.draw(st.permutations(range(nv)))[:data.draw(st.integers(0, nv))]
    sub = induced_subgraph(g, vs)
    assert sub.labels == tuple(vs)
    assert sub.edge_keys.tolist() == induced_subgraph(given, vs).edge_keys.tolist()


@given(st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_masks_match_the_edges_on_random_twisted_graphs(k, data):
    """A graph held by random connection sets D_0, D_1 of Z_2^k, k <= 6,
    that share their odd masks (and are sometimes equal) has the degrees,
    edge count, neighbours, adjacency, edge keys, BFS distances (a frontier
    vertex at a time too) and induced subgraphs of the graph given by the
    edges {x, x ^ d}, d in D_{x_0}."""
    from unittest import mock

    from cubesym import bitgraph

    nv = 1 << k
    odd = data.draw(st.sets(st.sampled_from(range(1, nv, 2))))
    evens = st.sets(st.sampled_from(range(2, nv, 2))) if nv > 2 else st.just(set())
    even0 = data.draw(evens)
    even1 = even0 if data.draw(st.booleans()) else data.draw(evens)
    d0, d1 = sorted(odd | even0), sorted(odd | even1)
    g = Graph(nv, None, connection=np.array(d0, dtype=np.int64),
              connection_odd=np.array(d1, dtype=np.int64))
    assert (g.connection_odd is None) == (d0 == d1) == (g.xor_connection is not None)
    given = graph_from_edges(nv, [(x, x ^ d) for x in range(nv) for d in (d1 if x & 1 else d0)])
    assert g.edge_count() == given.edge_count()
    assert g.degrees.tolist() == given.degrees.tolist()
    for u in data.draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=4)):
        assert g.neighbors(u) == given.neighbors(u)
        assert [g.has_edge(u, v) for v in range(nv)] == [given.has_edge(u, v) for v in range(nv)]
        want = distances_from(given, u).tolist()
        assert distances_from(g, u).tolist() == want
        with mock.patch.object(bitgraph, "_CHECK_BYTES", 1):
            assert distances_from(g, u).tolist() == want
    vs = data.draw(st.permutations(range(nv)))[:data.draw(st.integers(0, nv))]
    sub = induced_subgraph(g, vs)
    assert sub.labels == tuple(vs)
    assert sub.edge_keys.tolist() == induced_subgraph(given, vs).edge_keys.tolist()
    assert "edge_keys" not in vars(g)
    assert g.edge_keys.tolist() == given.edge_keys.tolist()


def test_connection_sets_that_split_an_odd_mask_are_refused():
    """An odd mask flips bit 0, so x ~ x ^ d for d in D_{x_0} is symmetric
    only if it lies in both sets or in neither: the graph refuses D_0 =
    {1, 2}, D_1 = {2}, and keeps one set where the two are equal."""
    with pytest.raises(ParameterOutOfRange, match="not symmetric"):
        Graph(4, None, connection=np.array([1, 2]), connection_odd=np.array([2]))
    g = Graph(4, None, connection=np.array([1, 2]), connection_odd=np.array([1, 2]))
    assert g.connection_odd is None and g.masks[0] is g.masks[1]
    assert np.flatnonzero(g.xor_connection).tolist() == [1, 2]


def test_det_dist_and_transitivity_build_no_edge_array(capsys, monkeypatch):
    """det, dist and transitivity of the Cayley families, and det, dist,
    cost and aut-order of LTQ_n, read their connection sets, never an edge
    array; graph6 output builds one."""
    from cubesym import bitgraph

    def built(nbrs):
        pytest.fail("an edge array was built")

    monkeypatch.setattr(bitgraph, "_rule_keys", built)
    for family in (["hypercube", "-n", "10"], ["folded", "-n", "9"], ["augmented", "-n", "10"],
                   ["power", "-n", "8", "-k", "3"], ["enhanced", "-n", "8", "-k", "4"]):
        for parameter in ("det", "dist", "transitivity"):
            assert main(["param", parameter, *family, "--no-cache"]) == 0
            capsys.readouterr()
    for parameter in ("det", "dist", "cost", "aut-order"):
        assert main(["param", parameter, "locally-twisted", "-n", "9", "--no-cache"]) == 0
        capsys.readouterr()
    with pytest.raises(pytest.fail.Exception):
        main(["gen", "hypercube", "-n", "4", "--format", "graph6"])


@given(st.integers(0, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_explicit_graphs_match_bitset_references(n, data):
    """Given edges (with loops and repeats), an induced subgraph and the
    complement against the same operations on bitset rows."""
    vertex = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=40)) if n else []
    g = graph_from_edges(n, pairs)
    rows = [0] * n
    for u, v in pairs:
        if u != v:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    assert g.edge_keys.tolist() == _reference_keys(rows)
    assert [g.neighbors(v) for v in range(n)] == [_bits(r) for r in rows]
    assert [g.degree(v) for v in range(n)] == [r.bit_count() for r in rows]
    assert all(g.has_edge(u, v) == bool(rows[u] >> v & 1) for u in range(n) for v in range(n))
    vs = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    sub = induced_subgraph(g, vs)
    assert sub.labels == tuple(vs)
    assert sub.edge_keys.tolist() == _reference_keys(
        [sum(1 << j for j, w in enumerate(vs) if rows[v] >> w & 1) for v in vs])
    full = (1 << n) - 1
    assert complement(g).edge_keys.tolist() == _reference_keys(
        [(full ^ r) & ~(1 << v) for v, r in enumerate(rows)])


def test_graph_from_edges_rejects_an_end_out_of_range():
    for pairs in ([(0, 3)], [(-1, 1)]):
        with pytest.raises(VertexOutOfRange):
            graph_from_edges(3, pairs)


def test_check_valid_rejects_malformed_edge_arrays():
    for keys in ([1, 1], [5, 1], [4], [3], [9]):  # repeat, descending, loop, u > v, range
        with pytest.raises(ParameterOutOfRange):
            Graph(3, np.array(keys, dtype=np.int64)).check_valid()


def test_edge_keys_from_the_connection_set_are_refused_above_the_byte_bound(monkeypatch):
    """The edge keys of a graph held by D come from a V x |D| int64
    neighbour table, 1,280 bytes for Q_5: above `DEFAULT_ELEMENT_BYTES` it
    is refused before it is allocated, naming the layer and its bytes; at
    the bound it is built."""
    from cubesym import bitgraph

    monkeypatch.setattr(bitgraph, "DEFAULT_ELEMENT_BYTES", 1279)
    g = hypercube(5)
    with pytest.raises(SearchBudgetExceeded, match="edge keys of Q_5 .* 1280 bytes"):
        g.edge_keys
    assert g.degree(0) == 5 and g.edge_count() == 80  # read from D, with no edge keys
    monkeypatch.setattr(bitgraph, "DEFAULT_ELEMENT_BYTES", 1280)
    assert len(g.edge_keys) == 80


def test_gen_graph6_above_the_byte_bound_exits_2(capsys):
    """`gen power -n 20 -k 10 --format graph6` would need a 4.7 TiB
    neighbour table for its edge keys: a budget stop, exit 2, with no
    traceback."""
    assert main(["gen", "power", "-n", "20", "-k", "10", "--format", "graph6"]) == 2
    captured = capsys.readouterr()
    assert "SearchBudgetExceeded" in captured.err and "edge keys of Q_20^10" in captured.err
    assert not captured.out and "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# bitset rows are built only inside the search


@pytest.fixture
def rows_forbidden(monkeypatch):
    def built(g):
        pytest.fail("the search's bitset rows were built")

    monkeypatch.setattr(search, "_adjacency_rows", built)


def _transitivity_q12(capsys):
    assert main(["param", "transitivity", "hypercube", "-n", "12", "--no-cache"]) == 0
    assert set(json.loads(capsys.readouterr().out)["value"].values()) == {True}


def test_gen_graph6_builds_no_rows(capsys, rows_forbidden):
    assert main(["gen", "hypercube", "-n", "10", "--format", "graph6"]) == 0
    assert len(capsys.readouterr().out.strip()) == 4 + 1024 * 1023 // 12
    _transitivity_q12(capsys)


def test_det_and_its_verify_build_no_rows(capsys, tmp_path, monkeypatch, rows_forbidden):
    monkeypatch.setenv("CUBE_SYM_CACHE", str(tmp_path / "cache"))
    assert main(["param", "det", "hypercube", "-n", "12", "--no-cache", "--witness"]) == 0
    record = capsys.readouterr().out
    assert json.loads(record)["value"] == 5
    path = tmp_path / "det.json"
    path.write_text(record)
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    _transitivity_q12(capsys)


def test_the_search_still_builds_its_rows(rows_forbidden):
    """The fixture reaches the search: a graph without a model fails it."""
    with pytest.raises(pytest.fail.Exception):
        search.search_automorphisms(graph_from_edges(3, [(0, 1)]))


_TRUE_FLAGS = dict.fromkeys(
    ["arc_transitive", "distance_transitive", "edge_transitive", "vertex_transitive"], True)


@pytest.mark.oracle_suite
@pytest.mark.parametrize("args, value, payload", [
    (["param", "det", "hypercube", "-n", "16", "--no-cache", "--witness"],
     5, [0, 255, 3855, 13107, 21845]),
    (["param", "transitivity", "hypercube", "-n", "16", "--no-cache"], _TRUE_FLAGS, None),
], ids=["det", "transitivity"])
def test_q16_runs_in_100_mb(args, value, payload):
    """`param det hypercube -n 16` holds the edge array and one chunk of
    the generator check, not V x V bitsets, and `param transitivity
    hypercube -n 16` one BFS over the edge array: each process peaks under
    100 MB (det peaked at 596 MB and transitivity at 540 MB on bitset
    rows).  The process reads its own peak as VmHWM, the high-water mark of
    its address space: on Linux its `ru_maxrss` would also count the peak
    of the pytest process it was forked from, since exec keeps that
    maximum."""
    script = ("import json, resource, sys\n"
              "from cubesym.cli import main\n"
              f"code = main({args!r})\n"
              "try:\n"
              "    status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
              "    peak = int(status.split()[0]) / 1024\n"
              "except (OSError, IndexError):\n"
              "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
              "print(json.dumps({'code': code, 'peak_mb': peak}), file=sys.stderr)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    record = json.loads(proc.stdout)
    assert report["code"] == 0
    assert record["value"] == value
    if payload is not None:
        assert record["witness"]["payload"] == payload
    assert report["peak_mb"] < 100, report
