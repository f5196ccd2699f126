"""The pruned determining-set search against plain references: an unpruned
lex scan, the closed-form determining numbers, the searched group, the
stored witnesses of the benchmark's det queries and the even powers' pinned
ones, and element filtering on enumerated groups, with and without a
model.  The class scan of cost
and dist is checked against a plain scan of every class; on at most 16
vertices, where it reads its class from the kept-set table, against the
search with a setwise test at its leaves, and the table against the
setwise stabilizer and the oracle.  The column view's floor, from which
the scan starts on the row-map models, is checked against their setwise
test, a plain filter of the type sets, the scan from size 1 and the
oracle."""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import row_set

from cubesym import constructions as cons
from cubesym import symmetry
from cubesym.autgroup import (
    HypercubeModel,
    determining_test,
    orbit_roots,
    pointwise_stabilizer_is_trivial,
    setwise_stabilizer,
)
from cubesym.bitgraph import (
    FamilySpec,
    build_family,
    enhanced_hypercube,
    folded_hypercube,
    graph_from_edges,
    hamming_graph,
    hypercube,
)
from cubesym.cli import main
from cubesym.errors import NotTwoDistinguishable
from cubesym.oracle import _fixes_setwise, enumerate_automorphisms_naive, oracle_cost
from cubesym.params import automorphism_group
from cubesym.rowmaps import column_types, row_map_action
from cubesym.search import search_automorphisms
from cubesym.symmetry import (
    _setwise_trivial,
    cost_2dist,
    determining_number,
    distinguishing_number,
    is_determining_set,
)


def _group(kind: str, n: int, k: int | None = None, searched: bool = False):
    g = build_family(FamilySpec(kind, n, k=k))
    return g, search_automorphisms(g) if searched else automorphism_group(g)


def _fixed_point_masks(grp) -> list[int]:
    """The maximal fixed-point bitmasks of the non-identity elements: a set
    is determining iff no mask contains it."""
    full = (1 << grp.n_vertices) - 1
    masks = {sum(1 << v for v, w in enumerate(p) if v == w)
             for p in row_set(grp.elements())} - {full}
    return [m for m in masks if not any(m != o and m & ~o == 0 for o in masks)]


def _plain_lex_scan(grp, nv: int) -> tuple[int, ...]:
    """The least size, then the lex-least set, by trying every subset with
    `is_determining_set`; for a group without a model, with its elements."""
    if grp.is_trivial():
        return ()
    if grp.model is None:
        masks = _fixed_point_masks(grp)

        def is_determining(cand):
            return all(sum(1 << v for v in cand) & ~m for m in masks)
    else:
        def is_determining(cand):
            return is_determining_set(grp, cand)
    for size in range(1, nv + 1):
        for cand in combinations(range(nv), size):
            if is_determining(cand):
                return cand
    raise AssertionError("the whole vertex set is determining")


def _plain_class_scan(grp, node_budget=None) -> tuple[int, ...] | None:
    """The lex-least class with a trivial setwise stabilizer, of the least
    size up to half the vertices, by trying every class with
    `_setwise_trivial`; through vertex 0 when the group is transitive."""
    nv = grp.n_vertices
    transitive = not any(orbit_roots(nv, grp.generators))
    for size in range(1, nv // 2 + 1):
        cands = ((0,) + t for t in combinations(range(1, nv), size - 1)) if transitive \
            else combinations(range(nv), size)
        for cand in cands:
            if _setwise_trivial(grp, cand):
                return cand
    return None


def _cost_or_none(g, grp):
    try:
        value, witness = cost_2dist(g, grp)
    except NotTwoDistinguishable:
        return None
    assert value == len(witness.payload)
    return tuple(witness.payload)


EXTRA_CASES = {
    "Q_5": ("hypercube", 5, None), "Q_6": ("hypercube", 6, None),
    "FQ_5": ("folded", 5, None), "FQ_6": ("folded", 6, None),
    "AQ_5": ("augmented", 5, None), "LTQ_5": ("locally_twisted", 5, None),
    "Q_{5,2}": ("enhanced", 5, 2), "Q_{6,3}": ("enhanced", 6, 3),
    "Q_5^2": ("power", 5, 2),
}
# built by search, so that the table test of a group without a model keeps
# a case
SEARCHED = {"Q_5^2"}


def test_search_matches_plain_scan_on_corpus(corpus, corpus_groups):
    for name, g in corpus.items():
        grp = corpus_groups[name]
        value, witness = determining_number(g, grp)
        want = _plain_lex_scan(grp, g.n_vertices)
        assert (value, tuple(witness.payload)) == (len(want), want), name


@pytest.mark.parametrize("name", sorted(EXTRA_CASES))
def test_search_matches_plain_scan(name):
    kind, n, k = EXTRA_CASES[name]
    g, grp = _group(kind, n, k, searched=name in SEARCHED)
    value, witness = determining_number(g, grp)
    want = _plain_lex_scan(grp, g.n_vertices)
    assert (value, tuple(witness.payload)) == (len(want), want)


def test_search_matches_closed_forms():
    for n in range(2, 13):
        assert determining_number(*_group("hypercube", n))[0] == cons.hypercube_det_number(n), n
    for n in range(4, 12):
        assert determining_number(*_group("folded", n))[0] == cons.folded_det_number(n), n


@pytest.mark.parametrize("kind,n,k,witness", [
    ("hypercube", 7, None, (0, 7, 25, 42)),
    ("hypercube", 8, None, (0, 15, 51, 85)),
    ("folded", 6, None, (0, 7, 25, 42)),
    ("folded", 7, None, (0, 1, 14, 50, 84)),
    ("enhanced", 7, 3, (0, 1, 2, 12, 52)),
    ("augmented", 7, None, (0, 69)),
    ("locally_twisted", 8, None, (0,)),
    # Q_6^2's witness is the searched group's; Q_7^2 (order 5,160,960) and
    # Q_8^2 have no element table to check against
    ("power", 6, 2, (0, 7, 25, 42)),
    ("power", 7, 2, (0, 7, 25, 42)),
    ("power", 8, 2, (0, 1, 14, 50, 84)),
    # Q_3 x FQ_3 and Q_4 x FQ_3, whose FQ_3 factor is the K_{4,4} model
    ("enhanced", 6, 4, (0, 1, 2, 3, 12, 21)),
    ("enhanced", 7, 5, (0, 1, 2, 3, 28, 45)),
])
def test_det_query_witnesses(kind, n, k, witness):
    value, got = determining_number(*_group(kind, n, k))
    assert (value, tuple(got.payload)) == (len(witness), witness)


@pytest.mark.parametrize("n", [4, 5])
def test_halved_cube_det_matches_searched_group(n):
    g = build_family(FamilySpec("power", n, k=2))
    structured = determining_number(g, automorphism_group(g))
    searched = determining_number(g, search_automorphisms(g))
    assert structured[1].verified_by == "structured"
    assert (structured[0], structured[1].payload) == (searched[0], searched[1].payload)


@pytest.mark.oracle_suite
def test_halved_cube_det_matches_searched_group_q6():
    # the searched group's table test needs its 322,560-element table
    g = build_family(FamilySpec("power", 6, k=2))
    structured = determining_number(g, automorphism_group(g))
    searched = determining_number(g, search_automorphisms(g))
    assert (structured[0], structured[1].payload) == (searched[0], searched[1].payload)


def test_class_scan_matches_plain_scan_on_corpus(corpus, corpus_groups):
    for name, g in corpus.items():
        grp = corpus_groups[name]
        assert _cost_or_none(g, grp) == _plain_class_scan(grp), name


COST_CASES = {
    "Q_5": ("hypercube", 5, None, None), "AQ_5": ("augmented", 5, None, None),
    "LTQ_5": ("locally_twisted", 5, None, None), "Q_{5,2}": ("enhanced", 5, 2, None),
    "H(3,3)": ("hamming", 3, None, 3),
    # at most 16 vertices: the scan reads its class from the kept-set table
    "FQ_4": ("folded", 4, None, None), "Q_4": ("hypercube", 4, None, None),
    "Q_{4,2}": ("enhanced", 4, 2, None), "Q_4^2": ("power", 4, 2, None),
    "H(4,2)": ("hamming", 4, None, 2),
}


@pytest.mark.parametrize("name", sorted(COST_CASES))
def test_class_scan_matches_plain_scan(name):
    kind, n, k, m = COST_CASES[name]
    g = build_family(FamilySpec(kind, n, k=k, m=m))
    grp = automorphism_group(g)
    assert _cost_or_none(g, grp) == _plain_class_scan(grp)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_class_scan_matches_plain_scan_on_random_graphs(data):
    """Random graphs of at most 9 vertices, whose groups are mostly not
    transitive, so that the unanchored walk is drawn too."""
    n = data.draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p, keep in zip(pairs, data.draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    g = graph_from_edges(n, edges)
    grp = search_automorphisms(g)
    # S_9 (the empty and the complete graph) would have the plain scan test
    # 93 classes against a 362,880-row element table
    assume(grp.order() <= 40320)
    want = () if grp.is_trivial() else _plain_class_scan(grp)
    assert _cost_or_none(g, grp) == want


def _assert_mask_class_matches_search(grp):
    """The masks that the kept-set table leaves unmarked (vertex v at bit
    V-1-v) at the least size up to half the vertices that has one are all
    leaves of the determining search, and the lex-least of them is the
    class scan's answer and the first leaf that the search accepts by
    `_setwise_trivial`, as the scan does above 16 vertices; with no such
    mask, neither finds a class."""
    nv = grp.n_vertices
    unmarked: dict[int, list[tuple[int, ...]]] = {}
    for m in np.flatnonzero(~symmetry._kept_sets(grp.elements())).tolist():
        cls = tuple(v for v in range(nv) if m >> (nv - 1 - v) & 1)
        unmarked.setdefault(len(cls), []).append(cls)
    least = next((sorted(unmarked[k]) for k in range(1, nv // 2 + 1) if k in unmarked), [])
    if least:
        test = determining_test(grp)
        leaves = symmetry._determining_leaves(test, test.det_start(), (), range(nv), 0,
                                              len(least[0]))
        assert set(least) <= set(leaves)
    searched = symmetry._least_determining(grp, range(1, nv // 2 + 1),
                                           lambda cls: _setwise_trivial(grp, cls))
    assert symmetry._least_class(grp) == searched == (least[0] if least else None)


MASK_GROUPS = {
    "Q_4": ("hypercube", 4, None, None), "Q_4^2": ("power", 4, 2, None),
    "FQ_4": ("folded", 4, None, None), "Q_{4,2}": ("enhanced", 4, 2, None),
    "Q_{4,3}": ("enhanced", 4, 3, None), "H(2,3)": ("hamming", 2, None, 3),
    "H(2,4)": ("hamming", 2, None, 4), "Q_3^2": ("power", 3, 2, None),
    "AQ_3": ("augmented", 3, None, None), "LTQ_3": ("locally_twisted", 3, None, None),
}


@lru_cache(maxsize=None)
def _mask_group(name: str):
    if name == "FQ_3 searched":  # K_{4,4}, a group without a model
        return _group("folded", 3, searched=True)[1]
    kind, n, k, m = MASK_GROUPS[name]
    return automorphism_group(build_family(FamilySpec(kind, n, k=k, m=m)))


def _random_group(data, max_vertices: int):
    """The searched group of a random graph, of order at most 8!."""
    n = data.draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p, keep in zip(pairs, data.draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    grp = search_automorphisms(graph_from_edges(n, edges))
    assume(grp.order() <= 40320)
    return grp


@pytest.mark.parametrize("name", sorted(MASK_GROUPS) + ["FQ_3 searched"])
def test_mask_leaves_match_the_search(name):
    _assert_mask_class_matches_search(_mask_group(name))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_mask_leaves_match_the_search_on_random_graphs(data):
    """Random graphs of at most 10 vertices, with searched groups."""
    _assert_mask_class_matches_search(_random_group(data, 10))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kept_sets_match_setwise_stabilizer(data):
    """`_kept_sets` marks a set (vertex v at bit V-1-v) iff its setwise
    stabilizer is not trivial: on sampled sets of the `MASK_GROUPS` groups
    and the searched FQ_3, and on every set of random graphs of at most 9
    vertices."""
    if data.draw(st.booleans()):
        grp = _random_group(data, 9)
        masks = range(1 << grp.n_vertices)
    else:
        grp = _mask_group(data.draw(st.sampled_from(sorted(MASK_GROUPS) + ["FQ_3 searched"])))
        masks = data.draw(st.lists(st.integers(0, (1 << grp.n_vertices) - 1), min_size=1,
                                   max_size=32))
    nv = grp.n_vertices
    kept = symmetry._kept_sets(grp.elements())
    for m in masks:
        S = [v for v in range(nv) if m >> (nv - 1 - v) & 1]
        assert kept[m] == (setwise_stabilizer(grp, S).order() > 1), S


def _cycle(n: int):
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


@pytest.mark.parametrize("make", [lambda: hamming_graph(2, 1), lambda: hamming_graph(3, 1),
                                  lambda: _cycle(5), lambda: _cycle(7)],
                         ids=["K_2", "K_3", "C_5", "C_7"])
def test_kept_sets_where_one_cycle_holds_every_point(make):
    """A row of prime order whose one cycle holds every point (the swap of
    K_2, the 3-cycles of K_3, the rotations of C_5 and C_7) leaves no cycle
    besides point 0's: it marks only the empty set, and the mirror the full
    one.  Every set against its setwise stabilizer."""
    grp = automorphism_group(make())
    nv = grp.n_vertices
    kept = symmetry._kept_sets(grp.elements())
    for m in range(1 << nv):
        S = [v for v in range(nv) if m >> (nv - 1 - v) & 1]
        assert kept[m] == (setwise_stabilizer(grp, S).order() > 1), S


@pytest.mark.parametrize("g, unions", [(enhanced_hypercube(4, 2), 263808),
                                       (folded_hypercube(4), 94592)], ids=["Q_{4,2}", "FQ_4"])
def test_kept_sets_marks_half_the_unions(g, unions, monkeypatch):
    """`_kept_sets` marks the 2^t unions of the t cycles besides point 0's
    of each row of prime order, and the mirror of the table the other
    half: 263,808 unions on Q_{4,2} and 94,592 on FQ_4, half of the 2^(t+1)
    of all cycles, counted here from the table (527,616 and 189,184)."""
    table = automorphism_group(g).elements()
    marked = []
    real = symmetry._subset_fold

    def counted(values, op):
        out = real(values, op)
        marked.append(out.size)
        return out

    monkeypatch.setattr(symmetry, "_subset_fold", counted)
    symmetry._kept_sets(table)
    every = 0
    for row in table.tolist():
        cycles, seen = [], set()
        for v in range(len(row)):
            if v not in seen:
                cycles.append(0)
                while v not in seen:
                    seen.add(v)
                    cycles[-1] += 1
                    v = row[v]
        longest = max(cycles)
        if all(k in (1, longest) for k in cycles) and all(longest % f for f in range(2, longest)) \
                and longest > 1:
            every += 1 << len(cycles)
    assert sum(marked) == unions == every // 2


@pytest.mark.oracle_suite
@pytest.mark.parametrize("make", [hypercube, folded_hypercube], ids=["Q_4", "FQ_4"])
def test_kept_sets_match_the_oracle(make):
    """On every set of Q_4 and FQ_4, `_kept_sets` against the naive
    automorphisms and the oracle's setwise test (about 4 and 8 s)."""
    g = make(4)
    nv = g.n_vertices
    auts = [p for p in enumerate_automorphisms_naive(g) if p != tuple(range(nv))]
    kept = symmetry._kept_sets(automorphism_group(g).elements())
    for m in range(1 << nv):
        S = frozenset(v for v in range(nv) if m >> (nv - 1 - v) & 1)
        assert kept[m] == any(_fixes_setwise(p, S) for p in auts), sorted(S)


def test_dist_scan_matches_plain_scan_on_corpus(corpus, corpus_groups, monkeypatch):
    small = {name: g for name, g in corpus.items() if g.n_vertices <= 16}
    got = {name: distinguishing_number(g, corpus_groups[name]) for name, g in small.items()}
    monkeypatch.setattr(symmetry, "_least_class", _plain_class_scan)
    for name, g in small.items():
        value, witness = distinguishing_number(g, corpus_groups[name])
        assert (got[name][0], got[name][1].payload) == (value, witness.payload), name


@pytest.mark.oracle_suite
@pytest.mark.parametrize("kind,n,k,witness", [
    ("folded", 5, None, (0, 1, 2, 4, 9, 19)),
    ("power", 5, 2, (0, 1, 2, 5, 10, 22)),
    ("enhanced", 5, 3, (0, 1, 2, 9, 11, 12, 21)),
])
def test_cost_witnesses_of_the_table_scan(kind, n, k, witness):
    # the witnesses that the plain scan of every class through vertex 0
    # found on the element table
    g, grp = _group(kind, n, k)
    value, got = cost_2dist(g, grp)
    assert (value, tuple(got.payload)) == (len(witness), witness)


@pytest.mark.oracle_suite
@pytest.mark.parametrize("kind,n,m", [("hypercube", 7, None), ("hamming", 3, 4)])
def test_model_setwise_cost_equals_the_table_path(kind, n, m, monkeypatch):
    # the class scan with the models' setwise test, and with the setwise
    # stabilizer filtered from the element table (Q_7: 645,120 rows, about
    # 30 s and 360 MB)
    from cubesym import autgroup

    g = build_family(FamilySpec(kind, n, m=m))
    value, witness = cost_2dist(g, automorphism_group(g))
    monkeypatch.delattr(autgroup._RowMapSetwise, "setwise_trivial")
    grp = automorphism_group(g)
    table_value, table_witness = cost_2dist(g, grp)
    assert grp._elements is not None
    assert (value, witness.payload) == (table_value, table_witness.payload)


@pytest.mark.parametrize("kind, n, k", [
    ("hypercube", 5, None), ("power", 6, 2), ("folded", 5, None), ("enhanced", 5, 2),
])
def test_det_need_of_the_empty_set(kind, n, k):
    """The determining bound of the empty set is a number no larger than
    det, on the cube models, FQ_5 and the enhanced cube's product model."""
    g, grp = _group(kind, n, k)
    need = grp.model.det_need(grp.model.det_start())
    assert isinstance(need, int) and need <= determining_number(g, grp)[0]


# The row-map models of the column view's tests.
COLUMN_GROUPS = {
    "Q_5": ("hypercube", 5, None, None), "Q_6": ("hypercube", 6, None, None),
    "Q_5^2": ("power", 5, 2, None), "Q_6^2": ("power", 6, 2, None),
    "H(3,3)": ("hamming", 3, None, 3), "H(4,3)": ("hamming", 4, None, 3),
    "H(3,4)": ("hamming", 3, None, 4),
}


@lru_cache(maxsize=None)
def _column_group(name: str):
    kind, n, k, m = COLUMN_GROUPS[name]
    return automorphism_group(build_family(FamilySpec(kind, n, k=k, m=m)))


@lru_cache(maxsize=None)
def _column_sizes(name: str) -> list[int]:
    """The sizes from det on whose column types number at most 16."""
    grp = _column_group(name)
    det = determining_number(grp.graph, grp)[0]
    return [r for r in range(det, 7) if len(column_types(r, grp.model.m)) <= 16]


@lru_cache(maxsize=None)
def _open_sets(name: str, r: int):
    model = _column_group(name).model
    types = column_types(r, model.m)
    return ([tuple(t) for t in types.tolist()],
            symmetry._open_type_sets(model.m, model.columns, model.even_words, types))


def _type_of(column) -> tuple[int, ...]:
    """A column's row partition, as a restricted-growth string."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(x, len(first)) for x in column)


@pytest.mark.parametrize("r, m", [(4, 2), (5, 2), (3, 3), (4, 3), (4, 4), (6, 6)])
def test_row_map_action_matches_a_loop(r, m):
    """The column types are the S(r,m) + S(r,m-1) restricted-growth strings
    of m-1 or m blocks in lex order, and row k of the action is each type
    read in the order of the k-th permutation and normalised in Python."""
    listed = [tuple(t) for t in column_types(r, m).tolist()]
    assert len(listed) == cons.stirling2(r, m) + cons.stirling2(r, m - 1)
    assert listed == sorted(set(listed)) == [_type_of(t) for t in listed]
    assert all(m - 1 <= len(set(t)) <= m for t in listed)
    action = row_map_action(column_types(r, m), m)
    assert len(action) == factorial(r)
    for row, rho in zip(action.tolist(), permutations(range(r))):
        assert row == [listed.index(_type_of([t[i] for i in rho])) for t in listed]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_open_type_sets_match_setwise_trivial(data):
    """On random determining r-sets S of the `COLUMN_GROUPS` models, with
    at most 16 column types of r rows, the set of S's column types is left
    open by `_open_type_sets` (unmarked, and with XOR 0 on the halved
    cubes) iff the model's `setwise_trivial(S)`.  The words are drawn until
    they are determining, for the sizes from det on."""
    name = data.draw(st.sampled_from(sorted(COLUMN_GROUPS)))
    grp = _column_group(name)
    model = grp.model
    r = data.draw(st.sampled_from(_column_sizes(name)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for _ in range(10_000):  # at least 1.9% of the draws are determining
        S = sorted(rng.choice(grp.n_vertices, size=r, replace=False).tolist())
        if model.pointwise_trivial(S):
            break
    else:
        raise AssertionError(f"no determining {r}-set of {name} drawn")
    types, found = _open_sets(name, r)
    mask = sum(1 << (len(types) - 1 - types.index(_type_of(c))) for c in model._set_columns(S))
    assert mask.bit_count() == model.columns
    assert found[mask] == model.setwise_trivial(S), S


@pytest.mark.parametrize("name", sorted(COLUMN_GROUPS))
def test_open_type_sets_match_a_plain_filter(name):
    """`_open_type_sets` against every set of `columns` types, filtered
    one by one: no row map but the identity maps the set into itself, and
    on the halved cubes its types XOR to 0.  The random sets above cannot
    reach a halved cube's open sets, whose classes need 32 types."""
    model = _column_group(name).model
    for r in _column_sizes(name):
        types = column_types(r, model.m)
        action = row_map_action(types, model.m)[1:]
        values = types @ (1 << np.arange(r))
        want = np.zeros(1 << len(types), dtype=bool)
        for chosen in combinations(range(len(types)), model.columns):
            member = np.zeros(len(types), dtype=bool)
            member[list(chosen)] = True
            kept = member[action[:, list(chosen)]].all(axis=1).any()
            xor = np.bitwise_xor.reduce(values[list(chosen)]) if model.even_words else 0
            want[sum(1 << (len(types) - 1 - t) for t in chosen)] = not kept and xor == 0
        found = symmetry._open_type_sets(model.m, model.columns, model.even_words, types)
        assert (found == want).all(), (name, r)


@pytest.mark.parametrize("name", [
    "Q_5", "Q_6", "Q_5^2", "H(3,3)", "H(4,3)", "H(3,4)",
    pytest.param("Q_6^2", marks=pytest.mark.oracle_suite),
])
def test_column_floor_keeps_value_and_witness(name, monkeypatch):
    """The class scan from the column view's floor gives the value and
    witness of the scan from size 1 (Q_6^2's takes about 4 s from size 1)."""
    grp = _column_group(name)
    value, witness = cost_2dist(grp.graph, grp)
    assert symmetry._column_floor(grp.model, grp.n_vertices) <= value
    monkeypatch.setattr(symmetry, "_column_floor", lambda model, n_vertices: 1)
    plain = cost_2dist(grp.graph, grp)
    assert (value, witness.payload) == (plain[0], plain[1].payload)


def test_column_floor_when_a_row_map_keeps_every_type():
    """On Q_2 (C_4) the swap of the two rows keeps both column types of two
    rows, so it keeps every set of them, and the floor rules out every
    size: C_4 is not 2-distinguishable."""
    assert symmetry._column_floor(automorphism_group(hypercube(2)).model, 4) is None
    with pytest.raises(NotTwoDistinguishable):
        oracle_cost(hypercube(2))


# The row-map models of the prefix prune's Hypothesis test, whose column
# floors are exact.
PRUNE_GROUPS = {
    "Q_5": ("hypercube", 5, None, None), "Q_6": ("hypercube", 6, None, None),
    "Q_7": ("hypercube", 7, None, None), "H(3,3)": ("hamming", 3, None, 3),
    "H(4,3)": ("hamming", 4, None, 3),
}


@lru_cache(maxsize=None)
def _prune_group(name: str):
    kind, n, k, m = PRUNE_GROUPS[name]
    return automorphism_group(build_family(FamilySpec(kind, n, k=k, m=m)))


def _passes_prune(grp, words, size: int) -> list[bool]:
    """Per prefix of `words`, in their order, whether the prefix prune of
    the class scan at `size` leaves its node, as `_determining_leaves`
    asks: the node of j words needs fewer than the size - j + 1 left."""
    prune = symmetry._ScanTest(grp.model, symmetry._prefix_levels(grp.model, size), None)
    state, passed = prune.det_start(), []
    for j, w in enumerate(words, 1):
        state = prune.det_add(state, w)
        passed.append(prune.det_need(state) <= size - j)
    return passed


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_prefix_of_a_class_passes_the_prune(data):
    """Random classes of Q_5-Q_7, H(3,3) and H(4,3) at their exact floors,
    in a random order: every prefix passes the prefix prune.  A class is
    built from a random open type set (each type a column, in a random
    column order, and on the Hamming graphs each column's symbols
    relabelled at random), translated by a random word on the cubes; the
    model's `setwise_trivial` checks that it is a class."""
    name = data.draw(st.sampled_from(sorted(PRUNE_GROUPS)))
    grp = _prune_group(name)
    model = grp.model
    size = symmetry._column_floor(model, grp.n_vertices)
    assert symmetry.floor_is_exact(model, grp.n_vertices)
    types = column_types(size, model.m)
    masks = symmetry._type_masks(model.m, model.columns, model.even_words, size)
    mask = int(masks[data.draw(st.integers(0, len(masks) - 1))])
    chosen = [t for t in range(len(types)) if mask >> (len(types) - 1 - t) & 1]
    chosen = data.draw(st.permutations(chosen))
    rows = data.draw(st.permutations(range(size)))
    if model.m == 2:
        shift = data.draw(st.integers(0, grp.n_vertices - 1))
        words = [sum(int(types[t, i]) << b for b, t in enumerate(chosen)) ^ shift for i in rows]
    else:
        symbols = [data.draw(st.permutations(range(model.m))) for _ in chosen]
        words = [sum(sym[types[t, i]] * model.m ** (model.n - 1 - c)
                     for c, (t, sym) in enumerate(zip(chosen, symbols))) for i in rows]
    assert model.setwise_trivial(words), words
    assert all(_passes_prune(grp, words, size)), words


@pytest.mark.parametrize("name, size", [("Q_5", 4), ("Q_5", 3), ("H(4,3)", 3), ("H(3,4)", 4)])
def test_prefix_prune_cuts_every_node_without_an_open_set(name, size):
    """At a size whose column types leave no open set (below the floor),
    the prune's tables are empty and it cuts every node at its first word,
    so the search yields no leaf: from the empty set and from the root
    word of each vertex."""
    grp = _column_group(name)
    assert symmetry._column_floor(grp.model, grp.n_vertices) > size
    levels = symmetry._prefix_levels(grp.model, size)
    assert levels is not None and all(len(keys) == 0 for _, keys in levels)
    prune = symmetry._ScanTest(grp.model, levels, None)
    assert not any(_passes_prune(grp, [v], size)[0] for v in range(grp.n_vertices))
    leaves = symmetry._determining_leaves(prune, prune.det_start(), (), range(grp.n_vertices),
                                          0, size)
    assert next(leaves, None) is None


@pytest.mark.parametrize("n, witness", [
    (9, [0, 3, 28, 101, 172]),
    (10, [0, 7, 56, 201, 339]),
])
def test_cost_of_q9_and_q10_from_the_exact_floor(n, witness, monkeypatch):
    """cost(Q_9) = cost(Q_10) = 5 = 1 + ceil(lg n), in Boutin's range
    {1 + ceil(lg n), 2 + ceil(lg n)}: the column floor rules out every
    size below 5 and is exact at 5, and the prefix prune leaves the
    anchored search one leaf to test, its first, which is the lex-least
    class."""
    tested = []
    real = symmetry._setwise_trivial

    def counted(grp, cls):
        tested.append(cls)
        return real(grp, cls)

    monkeypatch.setattr(symmetry, "_setwise_trivial", counted)
    grp = automorphism_group(hypercube(n))
    value, found = cost_2dist(grp.graph, grp)
    assert (value, sorted(found.payload)) == (5, witness)
    assert symmetry._column_floor(grp.model, grp.n_vertices) == 5
    assert symmetry.floor_is_exact(grp.model, grp.n_vertices)
    assert tested == [tuple(witness)]


def test_open_type_sets_are_computed_once_per_shape(monkeypatch, tmp_path, capsys):
    """The open type sets depend only on a row-map model's shape, and are
    cached for the process: after `tables summary --n 8`, which computes
    cost of Q_8 from its exact floor, `param cost hypercube -n 8` builds a
    new group but computes no open type set for Q_8's shape (2, 8, False)."""
    monkeypatch.chdir(tmp_path)
    shapes = []
    real = symmetry._open_type_sets

    def counted(m, columns, even_words, types):
        shapes.append((m, columns, even_words))
        return real(m, columns, even_words, types)

    monkeypatch.setattr(symmetry, "_open_type_sets", counted)
    symmetry._type_masks.cache_clear()
    assert main(["tables", "summary", "--n", "8"]) == 0
    assert (2, 8, False) in shapes
    before = len(shapes)
    capsys.readouterr()
    assert main(["param", "cost", "hypercube", "-n", "8", "--no-cache"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 5
    assert (2, 8, False) not in shapes[before:]


def test_short_type_list_stand_in_reaches_its_check_after_a_cached_run(monkeypatch, tmp_path):
    """The short-type-list stand-in of the `python -O` script after a run
    that filled the process-wide cache of open type sets for Q_5's shape.
    Without clearing the cache the stand-in is never read; cleared first,
    the column view's action refuses the short list; cleared after, no set
    computed from that list is left, and Q_5's floor is 5 again."""
    monkeypatch.chdir(tmp_path)
    assert main(["param", "cost", "hypercube", "-n", "5", "--no-cache"]) == 0
    real_types, model = symmetry.column_types, HypercubeModel(5)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(symmetry, "column_types", lambda r, m: real_types(r, m)[:-1])
            assert symmetry._column_floor(model, 32) == 5
            symmetry._type_masks.cache_clear()
            with pytest.raises(AssertionError, match="not in the type list"):
                symmetry._column_floor(model, 32)
    finally:
        symmetry._type_masks.cache_clear()
    assert symmetry._column_floor(model, 32) == 5 and symmetry.floor_is_exact(model, 32)


@pytest.mark.oracle_suite
@pytest.mark.parametrize("kind, n, m", [
    ("hypercube", 3, None), ("hypercube", 4, None), ("hamming", 2, 3), ("hamming", 2, 4),
])
def test_column_floor_against_the_oracle(kind, n, m):
    """The floor is at most the oracle's cost on Q_4 and H(2,4), and rules
    out every size on Q_3 and H(2,3), which are not 2-distinguishable."""
    g = build_family(FamilySpec(kind, n, m=m))
    floor = symmetry._column_floor(automorphism_group(g).model, g.n_vertices)
    try:
        cost = oracle_cost(g).value
    except NotTwoDistinguishable:
        assert floor is None
    else:
        assert floor is not None and floor <= cost


# Structured groups small enough to enumerate; FQ_6's 322,560 elements are
# left out to keep the test's memory small.
FOLD_GROUPS = [("hypercube", n, None) for n in (3, 4, 5, 6)] + \
    [("folded", n, None) for n in (4, 5)] + \
    [("augmented", n, None) for n in (4, 5, 6)] + \
    [("power", n, 2) for n in (4, 5)] + \
    [("enhanced", n, k) for n, k in ((4, 2), (5, 2), (5, 3), (6, 3), (6, 5))]


@lru_cache(maxsize=None)
def _model_and_masks(kind: str, n: int, k: int | None):
    _, grp = _group(kind, n, k)
    return grp.model, grp.n_vertices, _fixed_point_masks(grp)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pointwise_trivial_matches_element_filtering(data):
    model, nv, masks = _model_and_masks(*data.draw(st.sampled_from(FOLD_GROUPS)))
    words = data.draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=7))
    subset = sum(1 << v for v in set(words))
    assert model.pointwise_trivial(words) == all(subset & ~m for m in masks)


# Groups without a model, answered by the table test.
TABLE_GROUPS = {
    "Q_3^2": lambda: _group("power", 3, 2, searched=True)[1],
    "FQ_3": lambda: _group("folded", 3, searched=True)[1],
    "H(3,3)": lambda: search_automorphisms(build_family(FamilySpec("hamming", 3, m=3))),
    "AQ_3": lambda: _group("augmented", 3)[1],
    "FQ_3 setwise {0, 1}": lambda: setwise_stabilizer(_group("folded", 3, searched=True)[1],
                                                      [0, 1]),
}


@lru_cache(maxsize=None)
def _table_group(name: str):
    grp = TABLE_GROUPS[name]()
    assert grp.model is None and not grp.is_trivial()
    return grp


def _only_identity_fixes(table, S) -> bool:
    return int((table[:, S] == S).all(axis=1).sum()) == 1


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_table_test_matches_element_filtering(data):
    """The table test equals a filter of the element table, and its bound
    never exceeds the least number of vertices that make the set determining
    (checked by brute force up to 16 vertices)."""
    grp = _table_group(data.draw(st.sampled_from(sorted(TABLE_GROUPS))))
    nv, table = grp.n_vertices, grp.elements()
    S = sorted(set(data.draw(st.lists(st.integers(0, nv - 1), max_size=6))))
    assert pointwise_stabilizer_is_trivial(grp, S) == _only_identity_fixes(table, S)
    if nv <= 16:
        test = determining_test(grp)
        least = next(r for r in range(nv + 1) for extra in combinations(range(nv), r)
                     if _only_identity_fixes(table, sorted(set(S) | set(extra))))
        assert test.det_need(test.fold(S)) <= least


# Hamming graphs as (n, m): the words of length n over m symbols.
@lru_cache(maxsize=None)
def _hamming(n: int, m: int):
    g = build_family(FamilySpec("hamming", n, m=m))
    return g, automorphism_group(g)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_hamming_model_matches_element_filtering(data):
    """On H(3,3) and H(2,4), the model's pointwise test is the element
    table's filter and the characteristic-matrix criterion."""
    n, m = data.draw(st.sampled_from([(3, 3), (2, 4)]))
    _, grp = _hamming(n, m)
    table = grp.elements()
    S = sorted(set(data.draw(st.lists(st.integers(0, grp.n_vertices - 1), min_size=1,
                                      max_size=6))))
    fixing = int((table[:, S] == S).all(axis=1).sum())
    assert grp.model.pointwise_trivial(S) == (fixing == 1)
    assert grp.model.pointwise_trivial(S) == cons.char_matrix_is_determining(
        cons.characteristic_matrix(S, n, m))


def _least_completions(grp) -> np.ndarray:
    """For every vertex set S as a bitmask, the least number of vertices
    whose addition makes it determining, from the fixed-point sets of the
    group's elements: a set is not determining iff some non-identity
    element fixes a superset of it."""
    nv = grp.n_vertices
    table = grp.elements()
    fixed = (table == np.arange(nv)) @ (1 << np.arange(nv))
    free = np.zeros(1 << nv, dtype=bool)
    free[fixed[fixed != (1 << nv) - 1]] = True
    sets = np.arange(1 << nv)
    for b in range(nv):
        low = sets[sets >> b & 1 == 0]
        free[low] |= free[low | 1 << b]
    least = np.where(free, nv + 1, 0)
    for b in range(nv):
        low = sets[sets >> b & 1 == 0]
        least[low] = np.minimum(least[low], least[low | 1 << b] + 1)
    return least


@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (4, 2)])
def test_hamming_bound_never_exceeds_the_least_completion(n, m):
    """On every vertex set of H(2,3), H(2,4) and H(4,2), the model's bound
    is at most the brute-force number of vertices still needed, from the
    searched group, and the set is determining iff none are."""
    g, grp = _hamming(n, m)
    least = _least_completions(search_automorphisms(g))
    model = grp.model
    states = [model.det_start()]
    for S in range(1, 1 << g.n_vertices):
        top = S.bit_length() - 1
        states.append(model.det_add(states[S ^ 1 << top], top))  # the sorted fold
        assert model.det_need(states[S]) <= least[S], [v for v in range(top + 1) if S >> v & 1]
        assert model.det_done(states[S]) == (least[S] == 0)


def _hamming_grid(lo: int, hi: int) -> list[tuple[int, int]]:
    return [(n, m) for m in range(2, 6) for n in range(1, 17) if lo < m ** n <= hi]


@pytest.mark.parametrize("n,m", _hamming_grid(0, 729))
def test_hamming_det_number_matches_closed_form(n, m):
    value, witness = determining_number(*_hamming(n, m))
    assert value == cons.hamming_det_number(m, n)
    assert witness.verified_by == "structured"


@pytest.mark.oracle_suite
def test_hamming_det_number_matches_closed_form_up_to_65536_vertices():
    # about 40 s, most of it building the graphs of up to 2^16 vertices
    for n, m in _hamming_grid(729, 1 << 16):
        g = build_family(FamilySpec("hamming", n, m=m))
        assert determining_number(g, automorphism_group(g))[0] == \
            cons.hamming_det_number(m, n), (n, m)
