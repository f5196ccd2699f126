from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesym.bitgraph import (
    FamilySpec,
    augmented_hypercube,
    build_family,
    folded_hypercube,
    graph_from_edges,
    hamming_graph,
    hypercube,
    hypercube_power,
    same_edges,
)
from cubesym.cli import main
from cubesym.errors import ParameterOutOfRange, SearchBudgetExceeded
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


def _matmul_graph6(g):
    """The encoder as it was before it read the bit positions: the upper
    triangle scattered into a V(V-1)/2-byte array of bits, packed six to a
    byte by a uint8 matmul with their weights."""
    n = g.n_vertices
    u, v = g.ends
    bits = np.zeros(-(-(n * (n - 1) // 2) // 6) * 6, dtype=np.uint8)
    bits[v * (v - 1) // 2 + u] = 1
    payload = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + np.uint8(63)
    header = [n + 63] if n <= 62 else [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    return (bytes(header) + payload.tobytes()).decode("ascii")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_graph6_matches_plain_encoder(data):
    """On random graphs of 0-130 vertices, so both header forms occur, the
    encoder equals the bit-loop reference and the matmul encoder, and
    decodes back."""
    n = data.draw(st.integers(0, 130))
    density = data.draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    rnd = random.Random(data.draw(st.integers(0, 2 ** 32)))
    g = graph_from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rnd.random() < density])
    s = to_graph6(g)
    assert s == _plain_graph6(g) == _matmul_graph6(g)
    assert same_edges(from_graph6(s), g)


def _family_specs_up_to(nv: int) -> list[FamilySpec]:
    """Every family graph with at most nv vertices, but the complete graphs
    H(1,m) for 128 < m < nv."""
    specs = []
    for n in range(1, nv.bit_length()):
        specs += [FamilySpec(kind, n) for kind in ("hypercube", "folded", "augmented")]
        specs += [FamilySpec("power", n, k=k) for k in range(1, n + 2)]
        specs += [FamilySpec("enhanced", n, k=k) for k in range(1, n)]
        if n >= 2:
            specs.append(FamilySpec("locally_twisted", n))
    for m in range(2, nv + 1):
        n = 1 if m <= 128 or m == nv else 2
        while m ** n <= nv:
            specs.append(FamilySpec("hamming", n, m=m))
            n += 1
    return specs


def test_graph6_of_every_family_graph_matches_the_matmul_encoder():
    """Every family graph on at most 2^10 vertices encodes to the matmul
    encoder's bytes; of the complete graphs H(1,m), which take most of the
    time, those with m <= 128 and m = 2^10 (the random graphs of density 1
    are complete too)."""
    specs = _family_specs_up_to(1 << 10)
    assert len(specs) > 100
    for spec in specs:
        g = build_family(spec)
        assert to_graph6(g) == _matmul_graph6(g), spec


def test_graph6_above_its_byte_bound_is_refused(monkeypatch, capsys):
    """Q_5's encoding needs 4 bytes for each of its 83 payload bytes and 32
    for each of its 80 edges, 2,892 bytes: one byte lower it is refused
    before it is allocated, in-process and from `gen` (exit 2, no
    traceback), while its 1,280-byte edge keys are not; at the bound it is
    encoded."""
    from cubesym import bitgraph

    monkeypatch.setattr(bitgraph, "DEFAULT_ELEMENT_BYTES", 2891)
    with pytest.raises(SearchBudgetExceeded, match="graph6 encoding of Q_5 .* 2892 bytes"):
        to_graph6(hypercube(5))
    assert main(["gen", "hypercube", "-n", "5", "--format", "graph6"]) == 2
    captured = capsys.readouterr()
    assert "SearchBudgetExceeded" in captured.err and "graph6 encoding of Q_5" in captured.err
    assert not captured.out and "Traceback" not in captured.err
    assert len(hypercube(5).edge_keys) == 80
    monkeypatch.setattr(bitgraph, "DEFAULT_ELEMENT_BYTES", 2892)
    assert to_graph6(hypercube(5)) == _matmul_graph6(hypercube(5))


def test_gen_hypercube_20_graph6_exits_2(capsys):
    """`gen hypercube -n 20 --format graph6` would print a 91.6 GB line:
    its encoding is refused with exit 2, before its edge keys are built."""
    assert main(["gen", "hypercube", "-n", "20", "--format", "graph6"]) == 2
    captured = capsys.readouterr()
    assert "graph6 encoding of Q_20 would need 366839070720 bytes" in captured.err
    assert not captured.out and "Traceback" not in captured.err


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
