from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesym.bitgraph import (
    augmented_hypercube,
    folded_hypercube,
    graph_from_edges,
    hamming_graph,
    hypercube,
    hypercube_power,
    same_edges,
)
from cubesym.cli import main
from cubesym.errors import ParameterOutOfRange
from cubesym.graphio import (
    from_descriptor,
    from_edgelist,
    from_graph6,
    to_descriptor,
    to_edgelist,
    to_graph6,
)


@pytest.mark.parametrize("g", [
    hypercube(1), hypercube(3), hypercube(6),
    folded_hypercube(4), augmented_hypercube(4),
    hamming_graph(3, 2), hypercube_power(5, 2),
    graph_from_edges(5, [(0, 1), (2, 4)]),
    graph_from_edges(1, []),
])
def test_graph6_roundtrip(g):
    s = to_graph6(g)
    assert same_edges(from_graph6(s), g)


def test_graph6_known_values():
    # frozen from an independent encoder (networkx agrees on this string)
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert to_graph6(c5) == "Dhc"
    assert same_edges(from_graph6(">>graph6<<Dhc"), c5)


def test_graph6_large_n_header():
    g = graph_from_edges(63, [(0, 62)])
    s = to_graph6(g)
    assert s.startswith("~")
    assert same_edges(from_graph6(s), g)


def test_edgelist_roundtrip():
    g = folded_hypercube(3)
    text = to_edgelist(g)
    assert len(text.splitlines()) == g.edge_count()
    assert same_edges(from_edgelist(text, n_vertices=g.n_vertices), g)


def test_descriptor_roundtrip():
    g = hamming_graph(3, 2)
    d = to_descriptor(g)
    assert d["family"] == "hamming" and d["params"] == {"n": 2, "m": 3}
    assert d["n_vertices"] == 9 and len(d["edges"]) == 18
    h = from_descriptor(d)
    assert same_edges(h, g) and h.family.kind == "hamming"


@pytest.mark.parametrize("change", ["two edges", "five vertices"])
def test_descriptor_must_hold_its_family(change):
    """A descriptor that names Q_3 must hold Q_3's 8 vertices and 12 edges:
    one with 2 of the edges, or with 5 vertices, raises ParameterOutOfRange
    rather than reaching a structured group that fails its check."""
    d = to_descriptor(hypercube(3))
    if change == "two edges":
        d["edges"] = d["edges"][:2]
    else:
        d["n_vertices"], d["edges"] = 5, [e for e in d["edges"] if max(e) < 5]
    with pytest.raises(ParameterOutOfRange, match="Q_3"):
        from_descriptor(d)


@pytest.mark.parametrize("line", ["3", "0 1 2", "0 x", "0 1.5"])
def test_edgelist_rejects_a_line_that_is_not_two_integers(line):
    """A line of one or three tokens, or with a token that is not an
    integer, raises ParameterOutOfRange naming its line number."""
    with pytest.raises(ParameterOutOfRange, match="line 3"):
        from_edgelist(f"0 1\n# comment\n{line}\n")


def _plain_graph6(g):
    """The reference encoder: the upper triangle column by column, one bit
    at a time from `has_edge`, six bits to a byte."""
    n = g.n_vertices
    out = bytearray([n + 63] if n <= 62 else
                    [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = [int(g.has_edge(u, v)) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        out.append(sum(b << (5 - j) for j, b in enumerate(bits[i:i + 6])) + 63)
    return out.decode("ascii")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_graph6_matches_plain_encoder(data):
    """On random graphs of 0-130 vertices, so both header forms occur, the
    encoder equals the bit-loop reference and decodes back."""
    n = data.draw(st.integers(0, 130))
    density = data.draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    rnd = random.Random(data.draw(st.integers(0, 2 ** 32)))
    g = graph_from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rnd.random() < density])
    s = to_graph6(g)
    assert s == _plain_graph6(g)
    assert same_edges(from_graph6(s), g)


@pytest.mark.parametrize("text", ["", "~", "~~", "~??", "C~~~~~", "C", "B~", "Dh", "Dhc?",
                                  "D h", "Dh\u00e9"])
def test_graph6_rejects_malformed_input(text):
    """An empty or truncated header, a payload of the wrong length, nonzero
    padding bits and characters outside '?'..'~' raise ParameterOutOfRange."""
    with pytest.raises(ParameterOutOfRange):
        from_graph6(text)


@pytest.mark.parametrize("family, digest", [
    ("hypercube", "b1df114d6d85c0dc2f003d3c69f43e40544444853614a53e7700146f420771a8"),
    ("augmented", "3dcb5ee9ca532acb4268bb54ffd8c2bb8e8e25917d8773b9791c95941e2d4579"),
])
def test_gen_graph6_output_is_pinned(family, digest, capsys):
    """`gen ... -n 10 --format graph6` prints the bytes it printed when the
    encoder was a bit loop (sha256 of stdout)."""
    assert main(["gen", family, "-n", "10", "--format", "graph6"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
