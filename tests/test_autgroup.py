from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import preserves_adjacency, reference_closure, row_set, z2_cayley

from cubesym.autgroup import (
    Affine,
    AugmentedModel,
    FoldedModel,
    HalvedCubeModel,
    HammingModel,
    HypercubeModel,
    LtqModel,
    MultipartiteModel,
    PermGroup,
    _AQ_BASE_PATTERNS,
    _linear_rows,
    aq_base,
    aq_base_rows,
    fq_phi_extend,
    is_automorphism,
    orbit_roots,
    pointwise_stabilizer,
    pointwise_stabilizer_is_trivial,
    setwise_stabilizer,
    structured_group,
    translations_span,
)
from cubesym.bitgraph import (
    FamilySpec,
    Graph,
    augmented_hypercube,
    build_family,
    folded_hypercube,
    graph_from_edges,
    hamming_graph,
    hypercube,
    hypercube_power,
    locally_twisted_hypercube,
    enhanced_hypercube,
)
from cubesym.errors import NoStructuredForm
from cubesym.oracle import oracle_determining_number
from cubesym.params import automorphism_group
from cubesym.rowmaps import moving_row_map
from cubesym.search import search_automorphisms
from cubesym.symmetry import determining_number


def _aff_row(model, c: int, pi) -> np.ndarray:
    """The row of v -> c + pi(v), pi a column permutation of a position model."""
    return c ^ _linear_rows(model.n, [model.unit_images(pi)])[0]


def _ltq_row(c_prime: int) -> np.ndarray:
    """The LTQ_4 row adding the 3-bit word c_prime to the first three bits."""
    return np.arange(16) ^ (c_prime << 1)


def test_apply_examples():
    ident = _aff_row(HypercubeModel(4), 0, (0, 1, 2, 3))
    assert ident[0b0110] == 0b0110
    trans = _aff_row(HypercubeModel(4), 0b1010, (0, 1, 2, 3))
    assert trans[0b0110] == 0b1100
    # base map 2 complements everything after a leading 1
    phi2 = aq_base(4, 2)
    assert phi2[0b1011] == 0b1100
    assert phi2[0b0011] == 0b0011


def test_is_automorphism():
    q3 = hypercube(3)
    assert is_automorphism(q3, list(range(8)))
    aq4 = augmented_hypercube(4)
    for c in range(16):
        assert is_automorphism(aq4, [v ^ c for v in range(16)])
    # an int32 row on more than 31 vertices: its entries must not be shifted
    # as int32 scalars
    assert is_automorphism(hypercube(6), np.arange(64, dtype=np.int32) ^ 0b100101)
    # swapping two adjacent vertices of Q_3 and fixing the rest is not one
    swap = list(range(8))
    swap[0], swap[1] = 1, 0
    assert not is_automorphism(q3, swap)
    assert not is_automorphism(q3, [0] * 8)


@pytest.mark.parametrize("bound", [1, 1 << 22])
def test_batched_check_matches_row_by_row(monkeypatch, bound):
    """A batch of generator rows and broken copies of them (two images
    swapped, an image repeated) gets the verdicts of its rows one at a
    time and of the pairwise reference, whether each chunk of the check
    holds one row or the whole batch."""
    from cubesym import autgroup

    monkeypatch.setattr(autgroup, "_CHECK_BYTES", bound)
    for g in (hypercube(5), hamming_graph(3, 3), augmented_hypercube(5)):
        gens = structured_group(g).generators
        broken = gens.copy()
        broken[0, [0, 1]] = broken[0, [1, 0]]
        broken[1, 0] = broken[1, 1]
        batch = np.concatenate([gens, broken])
        verdicts = is_automorphism(g, batch)
        assert verdicts.tolist() == [preserves_adjacency(g, row) for row in batch]
        assert verdicts.tolist() == [is_automorphism(g, row) for row in batch]
        assert not verdicts[len(gens)] and not verdicts[len(gens) + 1]
    assert is_automorphism(g, np.empty((0, g.n_vertices), dtype=np.int32)).shape == (0,)


ROW_KINDS = ["permutation", "searched", "non-bijection", "wrong length"]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_is_automorphism_matches_pairwise_reference(data):
    """Random graphs of at most 10 vertices; searched group elements make
    the positive verdicts common."""
    n = data.draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p, keep in zip(pairs, data.draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    g = graph_from_edges(n, edges)
    kind = data.draw(st.sampled_from(ROW_KINDS))
    if kind == "permutation":
        row = data.draw(st.permutations(range(n)))
    elif kind == "searched":
        gens = search_automorphisms(g).generators
        row = np.arange(n)
        if len(gens):
            for i in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
                row = gens[i][row]
    elif kind == "non-bijection":
        row = data.draw(st.lists(st.integers(-1, n), min_size=n, max_size=n))
    else:
        m = data.draw(st.integers(0, 11).filter(lambda m: m != n))
        row = data.draw(st.permutations(range(m)))
    if data.draw(st.booleans()):
        row = np.asarray(row, dtype=np.int32)
    assert is_automorphism(g, row) == preserves_adjacency(g, row)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_affine_test_matches_pairwise_reference_on_cayley_graphs(data):
    """Cayley graphs of Z_2^k, k <= 5, whose connection set is closed under
    a drawn linear map, so that its affine rows are often automorphisms, and
    the same graphs with one edge dropped, which are not Cayley from 4
    vertices up and go to the edge sort.  A batch of affine rows, random
    permutations and non-bijections with entries of -1 and V gets the
    pairwise reference's verdicts, one row per chunk or all in one."""
    from unittest import mock

    from cubesym import autgroup

    k = data.draw(st.integers(1, 5))
    nv = 1 << k
    linear = _linear_rows(k, [data.draw(st.lists(st.integers(0, nv - 1), min_size=k,
                                                 max_size=k))])[0]
    connection = set()
    for c in data.draw(st.sets(st.integers(1, nv - 1), max_size=4)):
        while c and c not in connection:
            connection.add(c)
            c = int(linear[c])
    g = z2_cayley(k, connection)
    assert np.flatnonzero(g.xor_connection).tolist() == sorted(connection)
    if g.edge_count() and data.draw(st.booleans()):
        edges = list(g.edges())
        edges.pop(data.draw(st.integers(0, len(edges) - 1)))
        g = graph_from_edges(nv, edges)
        assert g.xor_connection is None or nv == 2
    rows = []
    for kind in data.draw(st.lists(st.sampled_from(["affine", "permutation", "non-bijection"]),
                                   min_size=1, max_size=4)):
        if kind == "affine":
            rows.append(linear ^ data.draw(st.integers(0, nv - 1)))
        elif kind == "permutation":
            rows.append(data.draw(st.permutations(range(nv))))
        else:
            rows.append(data.draw(st.lists(st.integers(-1, nv), min_size=nv, max_size=nv)))
    batch = np.array(rows, dtype=data.draw(st.sampled_from([np.int32, np.int64])))
    with mock.patch.object(autgroup, "_CHECK_BYTES", data.draw(st.sampled_from([1, 1 << 22]))):
        verdicts = is_automorphism(g, batch)
        assert is_automorphism(g, batch[0]) == verdicts[0]
    assert verdicts.tolist() == [preserves_adjacency(g, row) for row in batch]


def _pairwise_verdict(adjacency: np.ndarray, row) -> bool:
    """The plain reference on an adjacency matrix: `row` is a bijection of
    the vertices, and every pair (u, v) keeps its adjacency."""
    p = np.asarray(row)
    nv = len(adjacency)
    return (sorted(p.tolist()) == list(range(nv))
            and bool((adjacency[np.ix_(p, p)] == adjacency).all()))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_affine_check_matches_pairwise_reference(data):
    """The (L, c) check equals the pairwise reference on random Cayley
    graphs of Z_2^k, k <= 6, held by their connection set D or by their
    edges.  D is often closed under a drawn linear map, so that the map is
    often an automorphism, and sometimes lies in the words below 2^(k-1),
    so that it does not span; the maps are that one, random ones (most of
    them singular), translations, and maps with an image of a bit or a
    shift outside the words, each with a random c."""
    k = data.draw(st.integers(1, 6))
    nv = 1 << k
    below = nv // 2 if k > 1 and data.draw(st.booleans()) else nv  # below 2^(k-1): no span
    closing = data.draw(st.lists(st.integers(0, nv - 1), min_size=k, max_size=k))
    linear = _linear_rows(k, [closing])[0]
    connection = set()
    for c in data.draw(st.sets(st.integers(1, below - 1), max_size=5)):
        while 0 < c < below and c not in connection:
            connection.add(c)
            c = int(linear[c])
    connection = sorted(connection)
    units = [closing, [1 << b for b in range(k)]]
    units += data.draw(st.lists(st.lists(st.integers(0, nv - 1), min_size=k, max_size=k),
                                max_size=3))
    units += data.draw(st.lists(st.lists(st.integers(-1, nv), min_size=k, max_size=k),
                                max_size=1))
    shifts = data.draw(st.lists(st.integers(-1, nv), min_size=len(units), max_size=len(units)))
    maps = Affine.of(k, units, shifts)
    by_edges = z2_cayley(k, connection)
    held = Graph(nv, None, connection=np.array(connection, dtype=np.int64))
    adjacency = np.zeros((nv, nv), dtype=bool)
    u, v = by_edges.ends
    adjacency[u, v] = adjacency[v, u] = True
    want = [_pairwise_verdict(adjacency, row) for row in maps.rows()]
    assert is_automorphism(held, maps).tolist() == want
    assert is_automorphism(by_edges, maps).tolist() == want
    assert is_automorphism(held, maps.rows()).tolist() == want


def test_product_affine_form_matches_its_factor_rows():
    """The enhanced cube's (L, c), from its factors' on the high and low
    bits, builds the rows that its factors' rows give."""
    for n, k in [(7, 3), (6, 1), (8, 4), (9, 2)]:
        model = structured_group(enhanced_hypercube(n, k)).model
        assert np.array_equal(model.affine().rows(), model.generators()), (n, k)


def _forbid_image_rows(patch):
    """Make building an image row fail, except for the eight zero-fixing
    rows that AQ_n's determining test reads, a table of its own."""
    from cubesym import autgroup

    def built(*args):
        pytest.fail("an image row was built")

    real = autgroup._linear_rows
    patch.setattr(autgroup, "_linear_rows", built)
    patch.setattr(autgroup.Affine, "rows", built)
    patch.setattr(autgroup.AugmentedModel, "_base", property(lambda self: real(self.n, self._units)))


@pytest.fixture
def image_rows_forbidden(monkeypatch):
    _forbid_image_rows(monkeypatch)


CAYLEY_FAMILIES = [["hypercube", "-n", "7"], ["folded", "-n", "7"], ["augmented", "-n", "7"],
                   ["power", "-n", "7", "-k", "2"], ["enhanced", "-n", "7", "-k", "3"]]


@pytest.mark.parametrize("family", CAYLEY_FAMILIES, ids=lambda f: " ".join(f))
def test_det_verify_and_aut_order_build_no_image_row(capsys, tmp_path, family):
    """On the five Cayley families, `verify` of a det record and
    `aut-order` check the generators on D and answer with no generator
    row; only AQ_n's determining test reads its eight zero-fixing rows."""
    import json

    from cubesym.cli import main

    assert main(["param", "det", *family, "--no-cache", "--witness"]) == 0
    path = tmp_path / "det.json"
    path.write_text(capsys.readouterr().out)
    with pytest.MonkeyPatch.context() as patch:
        _forbid_image_rows(patch)
        assert main(["verify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True
        assert main(["param", "aut-order", *family, "--no-cache"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] > 1


def test_structured_group_of_q16_builds_no_image_row(image_rows_forbidden):
    grp = structured_group(hypercube(16))
    assert grp._generators is None and grp.order() == 2 ** 16 * factorial(16)


# (graph, how many of its structured generators reach the edge sort)
EDGE_SORTED_GENERATORS = [
    ("Q_4", lambda: hypercube(4), 0), ("Q_7", lambda: hypercube(7), 0),
    ("FQ_4", lambda: folded_hypercube(4), 0), ("FQ_7", lambda: folded_hypercube(7), 0),
    ("AQ_4", lambda: augmented_hypercube(4), 0), ("AQ_7", lambda: augmented_hypercube(7), 0),
    ("Q_{5,2}", lambda: enhanced_hypercube(5, 2), 0),
    ("Q_{7,3}", lambda: enhanced_hypercube(7, 3), 0),
    ("Q_{6,1}", lambda: enhanced_hypercube(6, 1), 0),
    ("Q_5^3", lambda: hypercube_power(5, 3), 0), ("Q_6^2", lambda: hypercube_power(6, 2), 0),
    ("Q_6^4", lambda: hypercube_power(6, 4), 0),
    ("H(2,4)", lambda: hamming_graph(4, 2), 0), ("H(3,4)", lambda: hamming_graph(4, 3), 0),
    ("LTQ_5", lambda: locally_twisted_hypercube(5), 4),
    ("H(3,3)", lambda: hamming_graph(3, 3), 8),
    ("K_{8x2}", lambda: hypercube_power(4, 3), 15),
    # the swap of its two parts, slot by slot, is the translation by 1
    ("K_{4,4}", lambda: folded_hypercube(3), 6),
    ("Q_{4,2}", lambda: enhanced_hypercube(4, 2), 6),
]


@pytest.mark.parametrize("name,make,sorted_rows", EDGE_SORTED_GENERATORS)
def test_which_generators_reach_the_edge_sort(monkeypatch, name, make, sorted_rows):
    """The structured generators of the Cayley graphs of Z_2^n are affine
    and never reach the edge sort; those of LTQ_n (not Cayley under XOR)
    and H(n,3) (3^n vertices) all do, and so do the transpositions of
    K_{b x a}, alone or as the FQ_3 factor of Q_{4,2}."""
    from cubesym import autgroup

    sent = []
    real = autgroup._edge_sort

    def recording(g, rows):
        sent.append(len(rows))
        return real(g, rows)

    monkeypatch.setattr(autgroup, "_edge_sort", recording)
    structured_group(make())
    assert sum(sent) == sorted_rows


STRUCTURED_ORDERS = [
    ("Q_3", lambda: hypercube(3), 48),
    ("Q_4", lambda: hypercube(4), 384),
    ("Q_5", lambda: hypercube(5), 3840),
    ("FQ_4", lambda: folded_hypercube(4), 1920),
    ("FQ_5", lambda: folded_hypercube(5), 23040),
    ("AQ_4", lambda: augmented_hypercube(4), 128),
    ("AQ_5", lambda: augmented_hypercube(5), 256),
    ("LTQ_4", lambda: locally_twisted_hypercube(4), 8),
    ("LTQ_5", lambda: locally_twisted_hypercube(5), 16),
    ("Q_{4,2}", lambda: enhanced_hypercube(4, 2), 2304),
    ("Q_{5,2}", lambda: enhanced_hypercube(5, 2), 3840),
    ("Q_{5,3}", lambda: enhanced_hypercube(5, 3), 9216),
    ("Q_4^2", lambda: hypercube_power(4, 2), 1920),
    ("Q_5^2", lambda: hypercube_power(5, 2), 23040),
]


@pytest.mark.parametrize("name,make,order", STRUCTURED_ORDERS)
def test_structured_equals_searched(name, make, order):
    g = make()
    sg = structured_group(g)
    assert sg.order() == order
    se = search_automorphisms(g)
    assert se.order() == order
    assert row_set(sg.elements()) == row_set(se.elements())


def test_structured_generators_are_automorphisms():
    for make in (lambda: hypercube(4), lambda: folded_hypercube(4),
                 lambda: augmented_hypercube(4), lambda: locally_twisted_hypercube(4),
                 lambda: enhanced_hypercube(5, 3)):
        g = make()
        grp = structured_group(g)
        for gen in grp.generators:
            assert is_automorphism(g, gen)


def test_no_structured_form():
    # AQ_n and LTQ_n for n <= 3, and graphs without a family tag, have none
    for g in (augmented_hypercube(3), locally_twisted_hypercube(3),
              graph_from_edges(3, [(0, 1)])):
        with pytest.raises(NoStructuredForm):
            structured_group(g)
    # K_3 box K_3: S_3 wr S_2
    assert structured_group(hamming_graph(3, 2)).order() == 72
    # odd power k <= n-2 reuses the hypercube form
    grp = structured_group(hypercube_power(5, 3))
    assert grp.order() == 3840


MULTIPARTITE = {
    "K_2 = FQ_1": (lambda: folded_hypercube(1), [[0], [1]]),
    "K_4 = FQ_2": (lambda: folded_hypercube(2), [[0], [1], [2], [3]]),
    "K_{4,4} = FQ_3": (lambda: folded_hypercube(3), [[0, 3, 5, 6], [1, 2, 4, 7]]),
    "K_{2,2} = Q_2^1": (lambda: hypercube_power(2, 1), [[0, 3], [1, 2]]),
    "K_{2,2,2,2} = Q_3^2": (lambda: hypercube_power(3, 2), [[0, 7], [1, 6], [2, 5], [3, 4]]),
    "K_8 = Q_3^3": (lambda: hypercube_power(3, 3), [[v] for v in range(8)]),
}


@pytest.mark.parametrize("name", sorted(MULTIPARTITE))
def test_multipartite_model_equals_searched(name):
    """The complete multipartite family graphs get the K_{b x a} model on
    their parts, of order a!^b b!, whose table is the searched group's,
    element for element."""
    make, parts = MULTIPARTITE[name]
    g = make()
    grp = structured_group(g)
    assert isinstance(grp.model, MultipartiteModel)
    assert grp.model.parts.tolist() == parts
    b, a = len(parts), len(parts[0])
    assert grp.order() == factorial(a) ** b * factorial(b)
    table = grp.elements()
    assert (table[0] == np.arange(g.n_vertices)).all()
    assert row_set(table) == row_set(search_automorphisms(g).elements())


def test_multipartite_model_of_the_large_powers():
    """Q_n^{n-1} = K_{2^{n-1} x 2} and Q_n^n = K_{2^n} answer their order,
    and the enhanced cubes' FQ_3 factor is the K_{4,4} model."""
    assert structured_group(hypercube_power(5, 4)).order() == 2 ** 16 * factorial(16)
    assert structured_group(hypercube_power(4, 3)).order() == 10_321_920
    assert structured_group(hypercube_power(4, 6)).order() == factorial(16)
    factor = structured_group(enhanced_hypercube(5, 3)).model.gb
    assert isinstance(factor.model, MultipartiteModel) and factor.order() == 1152


def _fixers(table: np.ndarray) -> list[int]:
    """Per vertex, the bitmask of the table rows that fix it."""
    fixed = np.packbits(table.T == np.arange(table.shape[1])[:, None], axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in fixed]


@lru_cache(maxsize=None)
def _multipartite_table(name: str):
    grp = structured_group(MULTIPARTITE[name][0]())
    table = grp.elements()
    return grp, table, _fixers(table)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multipartite_need_and_stabilizer_match_the_table(data):
    """On random vertex sets S of the six K_{b x a} groups, `det_need` is
    the least number of vertices whose addition makes S determining, read
    off the element table, and `det_done` and `pointwise_stabilizer_is_trivial`
    say whether S is determining."""
    grp, table, fixers = _multipartite_table(data.draw(st.sampled_from(sorted(MULTIPARTITE))))
    nv = grp.n_vertices
    S = sorted(data.draw(st.sets(st.integers(0, nv - 1), max_size=nv)))
    model = grp.model
    every = (1 << len(table)) - 1

    def fixing(vertices) -> int:
        mask = every
        for v in vertices:
            mask &= fixers[v]
        return mask

    rest = [v for v in range(nv) if v not in S]
    need = next(r for r in range(len(rest) + 1)
                if any(fixing(S + list(extra)).bit_count() == 1
                       for extra in combinations(rest, r)))
    state = model.fold(S)
    assert model.det_need(state) == need
    assert model.det_done(state) == (need == 0)
    assert pointwise_stabilizer_is_trivial(grp, S) == (fixing(S).bit_count() == 1)


@pytest.mark.parametrize("name", sorted(MULTIPARTITE))
def test_multipartite_det_agrees_with_the_oracle(name):
    """det and its lex-least witness on the K_{b x a} model are the oracle's:
    b(a-1) for a >= 2, and b-1 for a = 1."""
    make, parts = MULTIPARTITE[name]
    g = make()
    value, witness = determining_number(g, structured_group(g))
    oracle = oracle_determining_number(g)
    assert (value, witness.payload) == (oracle.value, tuple(oracle.witness))
    b, a = len(parts), len(parts[0])
    assert value == (b * (a - 1) if a >= 2 else b - 1)


def test_power_group_identities():
    for n in (4, 5):
        base = row_set(search_automorphisms(hypercube(n)).elements())
        for k in range(1, n - 1):
            got = row_set(search_automorphisms(hypercube_power(n, k)).elements())
            if k % 2 == 1:
                assert got == base
            else:
                even = row_set(search_automorphisms(hypercube_power(n, 2)).elements())
                assert got == even and got != base


@pytest.mark.parametrize("n,k", [(6, 4), (7, 2)])
def test_halved_cube_order_matches_search(n, k):
    g = hypercube_power(n, k)
    grp = structured_group(g)
    assert isinstance(grp.model, HalvedCubeModel)
    assert grp.order() == search_automorphisms(g).order() == (1 << n) * factorial(n + 1)


@pytest.mark.oracle_suite
def test_halved_cube_equals_searched_q6_4():
    # 322,560 elements on each side, 82 MB each
    g = hypercube_power(6, 4)
    assert row_set(structured_group(g).model.enumerate()) == \
        row_set(search_automorphisms(g).elements())


def test_halved_aff_reads_the_parity_position():
    # swapping position 0 with the parity position of Q_4^2
    sigma = _aff_row(HalvedCubeModel(4), 0, (4, 1, 2, 3, 0))
    assert sigma[0b1000] == 0b1000  # extended 10001 -> 10001
    assert sigma[0b0100] == 0b1100  # extended 01001 -> 11000
    assert sigma[0b1100] == 0b0100  # extended 11000 -> 01001
    assert _aff_row(HalvedCubeModel(4), 0b0011, tuple(range(5)))[0b0101] == 0b0110


@given(st.lists(st.integers(0, 31), min_size=1, max_size=4, unique=True))
@settings(max_examples=60, deadline=None)
def test_halved_pointwise_stabilizer_matches_filtering(S):
    """Whether only the identity fixes a random set of Q_5^2, by the halved
    cube's determining test, is read off the element table."""
    grp = _q5_square()
    table = grp.elements()
    fixing = int((table[:, S] == S).all(axis=1).sum())
    assert pointwise_stabilizer_is_trivial(grp, S) == (fixing == 1)


@lru_cache(maxsize=None)
def _q5_square():
    return structured_group(hypercube_power(5, 2))


@lru_cache(maxsize=None)
def _folded_table(n: int):
    grp = structured_group(folded_hypercube(n))
    return grp, grp.elements()


@given(st.sampled_from([4, 5]), st.data())
@settings(max_examples=120, deadline=None)
def test_folded_det_done_and_stabilizer_match_filtering(n, data):
    """On random sets of FQ_4 and FQ_5, the folded model's determining test,
    which reads the columns as bitmasks over the words, and so whether the
    set's pointwise stabilizer is trivial, agree with filtering the element
    table."""
    grp, table = _folded_table(n)
    S = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n + 2,
                           unique=True))
    fixing = int((table[:, S] == S).all(axis=1).sum())
    assert grp.model.det_done(grp.model.fold(S)) == (fixing == 1)
    assert pointwise_stabilizer_is_trivial(grp, S) == (fixing == 1)


GROUP_LAW_GROUPS = {
    "Q_4": lambda: structured_group(hypercube(4)),
    "FQ_4": lambda: structured_group(folded_hypercube(4)),
    "AQ_4": lambda: structured_group(augmented_hypercube(4)),
    "LTQ_4": lambda: structured_group(locally_twisted_hypercube(4)),
    "Q_5^2": lambda: structured_group(hypercube_power(5, 2)),
    "Q_{5,3}": lambda: structured_group(enhanced_hypercube(5, 3)),
    "H(2,3)": lambda: search_automorphisms(hamming_graph(3, 2)),
    "H(3,3)": lambda: structured_group(hamming_graph(3, 3)),
}


@lru_cache(maxsize=None)
def _law_table(name: str):
    grp = GROUP_LAW_GROUPS[name]()
    table = grp.elements()
    rows = row_set(table)
    assert len(rows) == grp.order() and tuple(range(grp.n_vertices)) in rows
    return table, rows


@given(st.sampled_from(sorted(GROUP_LAW_GROUPS)), st.data())
@settings(max_examples=80, deadline=None)
def test_element_tables_are_closed_under_composition_and_inverse(name, data):
    """Row a after row b is a[b], since (a o b)(v) = a(b(v)); it and the
    inverse of a are rows of the table."""
    table, rows = _law_table(name)
    a = table[data.draw(st.integers(0, len(table) - 1))]
    b = table[data.draw(st.integers(0, len(table) - 1))]
    assert tuple(a[b].tolist()) in rows
    inv = np.empty_like(a)
    inv[a] = np.arange(len(a))
    assert tuple(inv.tolist()) in rows


def _inverse_row(a: np.ndarray) -> np.ndarray:
    inv = np.empty_like(a)
    inv[a] = np.arange(len(a))
    return inv


def test_composition_convention_and_properties():
    # (sigma o tau)(v) = sigma(tau(v)) is the row sigma[tau], checked across
    # structural kinds against the element table of the group they live in;
    # the composite rows are those the per-vertex composition gave
    q4, fq4 = HypercubeModel(4), FoldedModel(4)
    cases = [
        ("Q_4", _aff_row(q4, 0b0011, (1, 0, 2, 3)), _aff_row(q4, 0b1000, (3, 2, 1, 0)),
         [7, 3, 15, 11, 5, 1, 13, 9, 6, 2, 14, 10, 4, 0, 12, 8]),
        ("FQ_4", _aff_row(fq4, 0b0101, (4, 1, 2, 3, 0)), _aff_row(fq4, 0b1100, (1, 0, 3, 2, 4)),
         [14, 12, 15, 13, 1, 3, 0, 2, 10, 8, 11, 9, 5, 7, 4, 6]),
        ("AQ_4", 0b0110 ^ aq_base(4, 5), 0b1001 ^ aq_base(4, 7),
         [11, 9, 10, 8, 15, 13, 14, 12, 3, 1, 2, 0, 7, 5, 6, 4]),
        ("LTQ_4", _ltq_row(0b011), _ltq_row(0b110),
         [10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5]),
    ]
    for name, s, t, composite in cases:
        _, rows = _law_table(name)
        assert tuple(s.tolist()) in rows and tuple(t.tolist()) in rows
        comp = s[t]
        assert comp.tolist() == composite
        assert tuple(comp.tolist()) in rows
        inv = _inverse_row(s)
        assert (inv[s] == np.arange(16)).all()
        assert tuple(inv.tolist()) in rows
    a, b, c = (_aff_row(q4, 3, (1, 2, 3, 0)), _aff_row(q4, 9, (2, 0, 1, 3)),
               _aff_row(q4, 12, (0, 3, 2, 1)))
    assert a[b][c].tolist() == a[b[c]].tolist()
    assert a[np.arange(16)].tolist() == a.tolist()


@given(st.integers(0, 23), st.integers(0, 15), st.integers(0, 23), st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_hypercube_aff_group_law(pi_idx, c1, pi2_idx, c2):
    """(c1 + pi1) o (c2 + pi2) = (c1 + pi1(c2)) + pi1 pi2, where image column
    i of pi1 pi2 reads source column pi2[pi1[i]]."""
    perms = list(permutations(range(4)))
    q4 = HypercubeModel(4)
    pi1, pi2 = perms[pi_idx], perms[pi2_idx]
    a, b = _aff_row(q4, c1, pi1), _aff_row(q4, c2, pi2)
    comp = a[b]
    pi1_c2 = int(a[c2]) ^ c1
    assert comp.tolist() == _aff_row(q4, c1 ^ pi1_c2, tuple(pi2[i] for i in pi1)).tolist()
    _, rows = _law_table("Q_4")
    assert tuple(comp.tolist()) in rows
    assert (_inverse_row(a)[a] == np.arange(16)).all()


def test_group_closure_on_enumeration():
    grp = structured_group(augmented_hypercube(4))
    elems = row_set(grp.elements())
    assert tuple(range(16)) in elems
    sample = sorted(elems)[:20]
    for p in sample:
        inv = [0] * 16
        for v, w in enumerate(p):
            inv[w] = v
        assert tuple(inv) in elems
        q = sample[7]
        assert tuple(p[q[v]] for v in range(16)) in elems


@pytest.mark.parametrize("model", [AugmentedModel(8), LtqModel(9)], ids=["AQ_8", "LTQ_9"])
def test_closure_matches_model_enumeration_above_255_vertices(model):
    # the model's table is the reference closure of its generators, past uint8 vertices
    assert row_set(reference_closure(1 << model.n, model.generators())) == \
        row_set(model.enumerate())
    assert len(model.enumerate()) == model.order()


def test_a_group_without_model_or_base_has_no_table():
    """Element tables come from a model or from a searched group's stabilizer
    chain; a group with neither, bare or a model group's Stab(0), has none."""
    model = AugmentedModel(4)
    model_group = structured_group(augmented_hypercube(4))
    for grp in (PermGroup(16, model.generators()), pointwise_stabilizer(model_group, [0])):
        with pytest.raises(ValueError, match="neither a model nor a base"):
            grp.elements()


@pytest.mark.parametrize("model,make", [(HypercubeModel(5), lambda: hypercube(5)),
                                        (HalvedCubeModel(5), lambda: hypercube_power(5, 2)),
                                        (FoldedModel(5), lambda: folded_hypercube(5))],
                         ids=["Q_5", "Q_5^2", "FQ_5"])
def test_linear_zero_fixing_rows_match_images(model, make):
    # the rows doubled from the unit images are the searched Stab(0), which
    # the search reads off its generators, as b_1 = 0
    searched = search_automorphisms(make())
    assert searched.base[0] == 0
    stab = pointwise_stabilizer(searched, [0])
    assert row_set(model.zero_fixing_rows()) == row_set(stab.elements())
    assert stab.order() == model.n_zero_fixing()


STAB0_GROUPS = {
    "Q_4": lambda: hypercube(4),
    "Q_5^2": lambda: hypercube_power(5, 2),
    "Q_5^3": lambda: hypercube_power(5, 3),
    **{f"FQ_{n}": (lambda n=n: folded_hypercube(n)) for n in range(1, 6)},
    "AQ_4": lambda: augmented_hypercube(4),
    "AQ_5": lambda: augmented_hypercube(5),
    "LTQ_4": lambda: locally_twisted_hypercube(4),
    "H(3,3)": lambda: hamming_graph(3, 3),
    "H(2,4)": lambda: hamming_graph(4, 2),
    "H(1,4)": lambda: hamming_graph(4, 1),
    "Q_3^2": lambda: hypercube_power(3, 2),
    "Q_3^3": lambda: hypercube_power(3, 3),
    "Q_{4,1}": lambda: enhanced_hypercube(4, 1),
    "Q_{4,2}": lambda: enhanced_hypercube(4, 2),
    "Q_{4,3}": lambda: enhanced_hypercube(4, 3),
    "Q_{5,3}": lambda: enhanced_hypercube(5, 3),
}


@pytest.mark.parametrize("name", sorted(STAB0_GROUPS))
def test_model_generators_fixing_zero_generate_stab0(name):
    """Each model's generators are strong for the base (0,): the checked
    generators that fix 0, which `pointwise_stabilizer(grp, [0])` returns,
    generate the element table's rows that fix 0.  So does the searched
    group of the same graph, whose base starts at 0."""
    g = STAB0_GROUPS[name]()
    grp = structured_group(g)
    table = grp.elements()
    expect = row_set(table[table[:, 0] == 0])
    stab = pointwise_stabilizer(grp, [0])
    assert stab.order_known is None and stab.model is None and stab.base is None
    assert row_set(stab.generators) == {p for p in row_set(grp.generators) if p[0] == 0}
    assert row_set(reference_closure(g.n_vertices, stab.generators)) == expect
    searched = search_automorphisms(g)
    assert searched.base[0] == 0
    assert row_set(pointwise_stabilizer(searched, [0]).elements()) == expect


class _RepeatedMapModel(HypercubeModel):
    def zero_fixing_rows(self):
        rows = super().zero_fixing_rows()
        return np.concatenate([rows[:-1], rows[:1]])  # one map twice, the count kept


def test_translation_table_rejects_repeated_zero_fixing_maps():
    model = _RepeatedMapModel(3)
    with pytest.raises(AssertionError):
        PermGroup(8, model.generators(), model.order(), model=model).elements()


def test_fq_phi_extend():
    ident = fq_phi_extend(4, [0, 1, 2, 3, 4])
    assert ident.dtype == np.int32 and ident.tolist() == list(range(16))
    # swapping position 1 with the all-ones symbol fixes first-bit-0 vertices
    phi = fq_phi_extend(4, [4, 1, 2, 3, 0])
    fq4 = folded_hypercube(4)
    assert is_automorphism(fq4, phi)
    assert all(phi[v] == v for v in range(8))
    assert any(phi[v] != v for v in range(8, 16))
    phi5 = fq_phi_extend(5, [5, 2, 1, 4, 3, 0])
    assert is_automorphism(folded_hypercube(5), phi5)


def test_fq_fixins_involution_shape():
    # the set whose characteristic matrix has a zero row and all seven
    # distinct nonzero columns of width three: it is not determining for
    # FQ_7, and any symbol permutation fixing it that sends a position to
    # the all-ones symbol must be a fixed-point-free pairing, with the
    # column sum vanishing (7 = 3 mod 4)
    n = 7
    cols = [tuple((j >> (2 - t)) & 1 for t in range(3)) for j in range(1, 8)]
    words = [0]
    for t in range(3):
        w = 0
        for j, col in enumerate(cols):
            if col[t]:
                w |= 1 << (n - 1 - j)
        words.append(w)
    x_cols = list(zip(*[tuple((w >> (n - 1 - j)) & 1 for j in range(n))
                        for w in words]))
    assert len(set(x_cols)) == n and all(any(c) for c in x_cols)
    colsum = [0] * len(words)
    for c in x_cols:
        colsum = [a ^ b for a, b in zip(colsum, c)]
    assert not any(colsum)  # n = 3 mod 4 branch
    # FQ_7's group, of order 5,160,960, is above the element cap; the set
    # holds 0, so its pointwise stabilizer is the zero-fixing rows that fix it
    rows = FoldedModel(n).zero_fixing_rows()
    stab = rows[(rows[:, words] == words).all(axis=1)]
    assert len(stab) > 1  # the pairing permutation fixes the whole set
    assert is_automorphism(folded_hypercube(n), stab).all()
    # the n+1 neighbours of 0 are the symbols: position j, then the all-ones
    # word; a map fixing 0 permutes them as it permutes the symbols
    symbols = [1 << (n - 1 - j) for j in range(n)] + [(1 << n) - 1]
    found_pairing = False
    for row in stab.tolist():
        assert row[0] == 0
        sigma = [symbols.index(row[w]) for w in symbols]
        assert [sigma[sigma[i]] for i in range(n + 1)] == list(range(n + 1))
        if sigma[n] != n:
            assert all(sigma[i] != i for i in range(n + 1))  # no symbol fixed
            found_pairing = True
    assert found_pairing


def test_aq_base_examples():
    assert aq_base(4, 1).tolist() == list(range(16))
    assert aq_base(4, 3)[0b0001] == 0b0010
    # middle block reverses and complements per the base-map pattern table
    assert aq_base(5, 5)[0b00101] == 0b10111
    for n in (4, 5, 6):
        g = augmented_hypercube(n)
        for idx in range(1, 9):
            assert is_automorphism(g, aq_base(n, idx)), (n, idx)
        assert len(row_set([aq_base(n, idx) for idx in range(1, 9)])) == 8


def _aq_base_reference(n: int, idx: int) -> np.ndarray:
    """One base map's row built pattern by pattern, with a boolean mask per
    (first bit, last two bits) pair."""
    width = n - 3
    midmask = (1 << width) - 1
    v = np.arange(1 << n, dtype=np.int32)
    first, mid, last2 = v >> (n - 1), (v >> 2) & midmask, v & 0b11
    rev = np.zeros_like(mid)
    for i in range(width):
        rev |= ((mid >> i) & 1) << (width - 1 - i)
    middle = [mid, mid ^ midmask, rev, rev ^ midmask]  # keep, comp, rev, comp-rev
    out = np.empty_like(v)
    for (f, l), (f2, op, l2) in _AQ_BASE_PATTERNS[idx].items():
        sel = (first == f) & (last2 == l)
        out[sel] = (f2 << (n - 1)) | (middle[op][sel] << 2) | l2
    return out


@pytest.mark.parametrize("n", range(4, 13))
def test_aq_base_rows_equal_the_per_pattern_construction(n):
    table = aq_base_rows(n)
    reference = np.array([_aq_base_reference(n, idx) for idx in range(1, 9)])
    assert table.dtype == reference.dtype
    assert np.array_equal(table, reference)
    model = AugmentedModel(n)
    assert np.array_equal(model.zero_fixing_rows(), reference)
    assert np.array_equal(model.generators()[n:], reference[[1, 2, 4]])
    assert all(np.array_equal(aq_base(n, idx), reference[idx - 1]) for idx in range(1, 9))


def test_aq_base_matches_searched_stabilizer():
    for n in (4, 5):
        g = augmented_hypercube(n)
        grp = search_automorphisms(g)
        stab = sorted(p for p in row_set(grp.elements()) if p[0] == 0)
        table = sorted(tuple(aq_base(n, idx).tolist()) for idx in range(1, 9))
        assert stab == table


def test_pointwise_stabilizer_examples():
    aq4 = augmented_hypercube(4)
    g4 = structured_group(aq4)
    st0 = pointwise_stabilizer(g4, [0])
    assert len(reference_closure(16, st0.generators)) == 8
    aq6 = augmented_hypercube(6)
    g6 = structured_group(aq6)
    assert pointwise_stabilizer(g6, [0, 0b111001]).order() == 1
    # S = V gives the trivial group
    q3 = hypercube(3)
    gq3 = structured_group(q3)
    assert pointwise_stabilizer(gq3, range(8)).order() == 1
    assert pointwise_stabilizer(gq3, []).order() == 48


def test_setwise_stabilizer_examples():
    aq4 = augmented_hypercube(4)
    g4 = structured_group(aq4)
    assert setwise_stabilizer(g4, []).order() == 128
    assert setwise_stabilizer(g4, [3, 9]).order() > 1
    assert setwise_stabilizer(g4, [0, 0b1001, 0b0110]).order() == 1


SETWISE_GROUPS = {
    "Q_4": lambda: hypercube(4),
    "Q_5": lambda: hypercube(5),
    "Q_4^2": lambda: hypercube_power(4, 2),
    "Q_5^2": lambda: hypercube_power(5, 2),
    "Q_6^2": lambda: hypercube_power(6, 2),
    "H(3,3)": lambda: hamming_graph(3, 3),
    "H(2,4)": lambda: hamming_graph(2, 4),
    "H(4,3)": lambda: hamming_graph(3, 4),
}


@lru_cache(maxsize=None)
def _setwise_group(name: str):
    grp = structured_group(SETWISE_GROUPS[name]())
    grp.elements()
    return grp


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_setwise_trivial_matches_the_table(data):
    """The models of Q_n, the halved cubes and the Hamming graphs answer
    setwise triviality from the row maps of the set, without the table; the
    answer equals the order of the setwise stabilizer on the table, on sets
    of every size, determining or not."""
    name = data.draw(st.sampled_from(sorted(SETWISE_GROUPS)))
    grp = _setwise_group(name)
    nv = grp.n_vertices
    size = data.draw(st.one_of(st.integers(0, 8), st.integers(0, nv)))
    S = data.draw(st.lists(st.integers(0, nv - 1), min_size=size, max_size=size, unique=True))
    assert grp.model.setwise_trivial(S) == (setwise_stabilizer(grp, S).order() == 1), (name, S)


def _partition(column) -> tuple[int, ...]:
    """A column's row partition as its restricted-growth string."""
    rank: dict[int, int] = {}
    return tuple(rank.setdefault(s, len(rank)) for s in column)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_moving_row_map_matches_every_permutation(data):
    """The row map search finds a row map other than the identity that
    keeps the multiset of the columns' partitions exactly when one of the
    r! maps does, with each column's source, on random tables of up to 6
    distinct rows (the words of a set), 5 columns and 3 symbols whose
    columns have distinct partitions."""
    width = data.draw(st.integers(1, 5))
    r = data.draw(st.integers(1, min(6, 3 ** width)))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * width), min_size=r, max_size=r,
                              unique=True))
    columns = list(zip(*rows))
    assume(len({_partition(c) for c in columns}) == width)

    def partitions(rho):
        return sorted(_partition([c[x] for x in rho]) for c in columns)

    moving = [rho for rho in permutations(range(r))
              if rho != tuple(range(r)) and partitions(rho) == partitions(range(r))]
    found = moving_row_map(columns)
    if not moving:
        assert found is None
        return
    rho, sources = found
    assert rho in moving
    assert [_partition([c[x] for x in rho]) for c in columns] == \
        [_partition(columns[s]) for s in sources]


def test_setwise_trivial_builds_no_table():
    """Q_8's group, of order 10,321,920, is above the element cap, and its
    model settles setwise triviality without the table: zero and the unit
    words are determining but kept by every position permutation, and the
    constructed class is determining with an asymmetric induced subgraph."""
    from cubesym.constructions import hypercube_dist_class
    from cubesym.symmetry import two_class_is_distinguishing

    g = hypercube(8)
    grp = structured_group(g)
    units = [0] + [1 << b for b in range(8)]
    assert pointwise_stabilizer_is_trivial(grp, units)
    assert grp.model.setwise_trivial(units) is False
    assert not pointwise_stabilizer_is_trivial(grp, [0, 3])  # bits 0 and 1 agree
    assert grp.model.setwise_trivial([0, 3]) is False
    cls = hypercube_dist_class(8)
    assert two_class_is_distinguishing(g, grp, cls)
    assert grp.model.setwise_trivial(cls) is True
    assert grp._elements is None


def test_pointwise_subset_of_setwise(corpus_groups):
    import random

    rnd = random.Random(7)
    for name, grp in corpus_groups.items():
        nv = grp.n_vertices
        for _ in range(3):
            S = rnd.sample(range(nv), 3)
            pw = pointwise_stabilizer(grp, S)
            sw = setwise_stabilizer(grp, S)
            assert pw.order() <= sw.order()
            assert row_set(reference_closure(nv, pw.generators)) <= row_set(sw.elements())


def test_stabilizer_matches_filtering(corpus_groups):
    # structural solving, and the table filters of searched groups, agree
    # with direct element filtering
    groups = {name: corpus_groups[name]
              for name in ("Q_4", "FQ_4", "AQ_4", "LTQ_4", "Q_{4,2}", "Q_{4,3}")}
    groups["H(2,3)"] = search_automorphisms(hamming_graph(3, 2))
    groups["Q_3^2"] = search_automorphisms(hypercube_power(3, 2))
    for name, grp in groups.items():
        elems = row_set(grp.elements())
        for S in ([0], [0, 3], [1, 2, 5]):
            expect = {p for p in elems if all(p[v] == v for v in S)}
            got = pointwise_stabilizer(grp, S)
            assert row_set(reference_closure(grp.n_vertices, got.generators)) == expect, (name, S)
            assert pointwise_stabilizer_is_trivial(grp, S) == (len(expect) == 1)
            fs = set(S)
            expect_sw = {p for p in elems if all(p[v] in fs for v in S)}
            assert row_set(setwise_stabilizer(grp, S).elements()) == expect_sw, (name, S)


def test_generators_are_int32_automorphism_rows(corpus, corpus_groups):
    """Every group's generators, and those of its Stab(0), of a setwise
    stabilizer and of its searched group, are a k x V int32 array of rows
    that are automorphisms."""
    for name, grp in corpus_groups.items():
        g = corpus[name]
        for sub in (grp, pointwise_stabilizer(grp, [0]), setwise_stabilizer(grp, [0, 1, 3]),
                    search_automorphisms(g)):
            gens = sub.generators
            assert gens.ndim == 2 and gens.dtype == np.int32, name
            assert gens.shape[1] == g.n_vertices, name
            assert all(is_automorphism(g, row) for row in gens.tolist()), name


def test_determining_predicates():
    assert HypercubeModel(3).pointwise_trivial([0b000, 0b110, 0b101])
    assert not HypercubeModel(4).pointwise_trivial([0b0000])
    assert FoldedModel(4).pointwise_trivial([int(s, 2) for s in
                                             ("0000", "1000", "1100", "1110", "1111")])
    assert not FoldedModel(4).pointwise_trivial([0, 0b1111])


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (3, 3), (2, 4), (4, 3), (3, 2)])
def test_hamming_model_equals_searched(n, m):
    """The words of length n over m symbols: the model's element table is
    the searched group's, row for row."""
    g = build_family(FamilySpec("hamming", n, m=m))
    grp = structured_group(g)
    assert isinstance(grp.model, HammingModel)
    table = grp.model.enumerate()
    assert grp.order() == len(table) == factorial(n) * factorial(m) ** n
    assert row_set(table) == row_set(search_automorphisms(g).elements())


def _plain_orbit_partition(nv, gens):
    """The reference orbits: a union-find over (v, p(v)) for every row p,
    as a set of frozensets."""
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in gens:
        for v in range(nv):
            a, b = find(v), find(p[v])
            if a != b:
                parent[a] = b
    blocks = {}
    for v in range(nv):
        blocks.setdefault(find(v), set()).add(v)
    return {frozenset(b) for b in blocks.values()}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_orbit_roots_match_plain_union_find(data):
    """`orbit_roots` puts two vertices under one root iff the plain
    union-find does, on random permutation sets of 0-60 vertices and 0-4
    rows, identity rows among them; each root is its orbit's least vertex,
    and hooking the rows one chunk of a row at a time gives the same roots."""
    nv = data.draw(st.integers(0, 60))
    gens = []
    for _ in range(data.draw(st.integers(0, 4))):
        # a permutation of a random subset, the identity elsewhere (the
        # identity row when the subset is empty)
        moved = data.draw(st.lists(st.integers(0, nv - 1), unique=True) if nv else st.just([]))
        row = list(range(nv))
        for v, w in zip(moved, data.draw(st.permutations(moved))):
            row[v] = w
        gens.append(row)
    roots = orbit_roots(nv, gens)
    blocks = {}
    for v, root in enumerate(roots):
        blocks.setdefault(root, set()).add(v)
    assert all(root == min(block) for root, block in blocks.items())
    assert {frozenset(b) for b in blocks.values()} == _plain_orbit_partition(nv, gens)
    from unittest import mock

    from cubesym import autgroup

    rows = np.array(gens, dtype=np.int32).reshape(len(gens), nv)
    assert np.array_equal(orbit_roots(nv, rows), roots)
    with mock.patch.object(autgroup, "_CHECK_BYTES", 1):
        assert np.array_equal(orbit_roots(nv, rows), roots)


def _translation_rank(nv: int, rows) -> int:
    """The GF(2) rank of the shifts t of the rows that are translations
    v -> v ^ t, each row compared in full: the plain reference for
    `translations_span`."""
    basis: list[int] = []
    for row in rows:
        t = int(row[0])
        if all(int(row[v]) == v ^ t for v in range(nv)):
            for b in basis:
                t = min(t, t ^ b)
            if t:
                basis.append(t)
    return len(basis)


def _span_agrees(grp: PermGroup) -> bool:
    """`translations_span` answers as the plain rank does, and where it says
    the translations span, `orbit_roots` finds one orbit."""
    nv = grp.n_vertices
    span = translations_span(grp)
    if span and orbit_roots(nv, grp.generators).any():
        return False
    return span == (nv >= 2 and nv & (nv - 1) == 0
                    and _translation_rank(nv, grp.generators) == nv.bit_length() - 1)


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_translation_span_on_random_cayley_graphs(k, data):
    """On the searched group of a random Cayley graph of Z_2^k, alone and
    with random translations and near-translations (a translation with two
    images swapped off 0 and the unit words) added to its generators,
    `translations_span` answers as the plain rank of the translations
    among the rows does, and never where the rows have two orbits."""
    nv = 1 << k
    g = z2_cayley(k, data.draw(st.sets(st.integers(1, nv - 1), max_size=5)))
    grp = search_automorphisms(g)
    assert _span_agrees(grp)
    identity = np.arange(nv, dtype=np.int32)
    extra = []
    for t in data.draw(st.lists(st.integers(0, nv - 1), max_size=k + 1)):
        row = identity ^ t
        others = [v for v in range(nv) if v and v & (v - 1)]
        if len(others) >= 2 and data.draw(st.booleans()):
            a, b = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2,
                                      unique=True))
            row[[a, b]] = row[[b, a]]
        extra.append(row)
    rows = np.concatenate([grp.generators, np.array(extra, dtype=np.int32).reshape(-1, nv)])
    order = data.draw(st.permutations(range(len(rows))))
    assert _span_agrees(PermGroup(nv, rows[list(order)]))


@pytest.mark.parametrize("make", [
    *(lambda n=n: locally_twisted_hypercube(n) for n in range(4, 9)),
    lambda: hamming_graph(2, 3), lambda: hamming_graph(4, 2), lambda: hamming_graph(3, 2),
    lambda: hypercube_power(4, 3),  # K_{8 x 2}
    lambda: folded_hypercube(3),  # K_{4,4}
    lambda: graph_from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                                 if (u < 1) + (u < 4) != (v < 1) + (v < 4)]),  # K_{1,3,4}
    lambda: graph_from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                                 if u // 2 != v // 2 and (u < 4) == (v < 4)]),  # 2 K_{2,2}
], ids=[*(f"LTQ_{n}" for n in range(4, 9)), "H(3,2)", "H(2,4)", "H(2,3)", "Q_4^3", "FQ_3",
        "K_{1,3,4}", "2K_{2,2}"])
def test_translation_span_on_families_it_must_refuse(make):
    """LTQ_n's n-1 translations, the Hamming and multipartite models and
    searched groups with unequal or separate parts: the span test answers
    as the plain rank does, so never where the rows have two orbits."""
    g = make()
    grp = automorphism_group(g)
    assert _span_agrees(grp)
    if g.family is not None and g.family.kind == "locally_twisted":
        assert len(grp.generators) == g.family.n - 1 and not translations_span(grp)
        assert orbit_roots(g.n_vertices, grp.generators).any()


def test_translation_span_on_the_cayley_families():
    """The structured groups of Q_n, FQ_n, AQ_n, Q_n^k and Q_{n,k} hold
    translations that span, wherever a factor is not multipartite."""
    for g in (hypercube(6), folded_hypercube(6), augmented_hypercube(6), hypercube_power(7, 2),
              hypercube_power(7, 3), enhanced_hypercube(7, 3), enhanced_hypercube(7, 1)):
        assert translations_span(automorphism_group(g)), g.family.name()


def test_element_table_above_its_byte_bound_is_refused():
    """AQ_16's group has 524,288 elements, under the row cap, whose table
    would take 128 GiB: `elements` refuses it by its bytes before it
    allocates, and so do the setwise test and `distinguishing_number`,
    on AQ_16 and on LTQ_16 (8 GiB)."""
    from cubesym.errors import SearchBudgetExceeded
    from cubesym.symmetry import distinguishing_number

    for g in (augmented_hypercube(16), locally_twisted_hypercube(16)):
        grp = automorphism_group(g)
        with pytest.raises(SearchBudgetExceeded, match="element table .* bytes"):
            grp.elements()
        with pytest.raises(SearchBudgetExceeded):
            distinguishing_number(g, grp)
        assert grp._elements is None
