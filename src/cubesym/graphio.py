"""Graph serialization: graph6, plain edge lists, and a JSON descriptor."""

from __future__ import annotations

import numpy as np

from . import bitgraph
from .bitgraph import EXPLICIT, FamilySpec, Graph, build_family, graph_from_edges, same_edges
from .errors import ParameterOutOfRange, SearchBudgetExceeded


def _g6_size_bytes(n: int) -> list[int]:
    if n < 0:
        raise ParameterOutOfRange("negative vertex count")
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    if n <= 68719476735:
        return [126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    raise ParameterOutOfRange("vertex count too large for graph6")


# The weights of the six bits of a graph6 payload byte, most significant first.
_G6_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def to_graph6(g: Graph) -> str:
    """Encode in the standard graph6 format (no header).

    The upper triangle is read column by column, so the edge u < v is bit
    p = v(v-1)/2 + u; the bits, padded with zeros to a multiple of six, are
    packed six to a byte, most significant first, plus 63: byte p // 6 of
    the payload gains the weight of bit p % 6 for each edge.  The encoder
    needs 4 bytes per payload byte (the bytes, their copy, its text and the
    line) and 32 per edge (p, its byte and bit, and the bit's weight);
    above `DEFAULT_ELEMENT_BYTES` it raises SearchBudgetExceeded before
    anything is allocated, after the graph's own check of the edge keys
    it reads (`Graph.check_edge_budget`)."""
    n = g.n_vertices
    header = bytes(_g6_size_bytes(n))
    g.check_edge_budget()
    size = -(-(n * (n - 1) // 2) // 6)
    nbytes = 4 * size + 32 * g.edge_count()
    if nbytes > bitgraph.DEFAULT_ELEMENT_BYTES:
        name = g.family.name() if g.family is not None else "the graph"
        raise SearchBudgetExceeded(f"the graph6 encoding of {name} would need {nbytes} bytes, "
                                   f"above {bitgraph.DEFAULT_ELEMENT_BYTES}")
    u, v = g.ends
    byte, bit = np.divmod(v * (v - 1) // 2 + u, 6)
    payload = np.full(size, 63, dtype=np.uint8)
    np.add.at(payload, byte, _G6_WEIGHTS[bit])
    return (header + payload.tobytes()).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line (optionally prefixed with '>>graph6<<').

    The payload must be exactly ceil(n(n-1)/12) bytes with zero padding
    bits; anything else raises ParameterOutOfRange."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):].strip()
    try:
        data = np.frombuffer(s.encode("ascii"), dtype=np.uint8) - np.uint8(63)
    except UnicodeEncodeError:
        raise ParameterOutOfRange("invalid graph6 character") from None
    if (data > 63).any():
        raise ParameterOutOfRange("invalid graph6 character")
    if not len(data):
        raise ParameterOutOfRange("empty graph6 string")
    if data[0] != 63:
        head, size = 1, data[:1]
    elif len(data) > 1 and data[1] != 63:
        head, size = 4, data[1:4]
    else:
        head, size = 8, data[2:8]
    if len(data) < head:
        raise ParameterOutOfRange("truncated graph6 header")
    n = 0
    for d in size.tolist():
        n = (n << 6) | d
    need = n * (n - 1) // 2
    if len(data) - head != -(-need // 6):
        raise ParameterOutOfRange(f"graph6 payload of {len(data) - head} bytes, "
                                  f"{-(-need // 6)} expected for {n} vertices")
    bits = np.unpackbits(data[head:, None], axis=1)[:, 2:].ravel()
    if bits[need:].any():
        raise ParameterOutOfRange("nonzero graph6 padding bits")
    pos = np.flatnonzero(bits)
    # the column v of bit p = v(v-1)/2 + u, u < v, from the root, corrected
    v = ((1 + np.sqrt(1 + 8 * pos)) // 2).astype(np.int64)
    v -= v * (v - 1) // 2 > pos
    v += (v + 1) * v // 2 <= pos
    u = pos - v * (v - 1) // 2
    return Graph(n, np.sort(u * n + v), FamilySpec(EXPLICIT))


def to_edgelist(g: Graph) -> str:
    """One 'u v' line per edge, decimal vertex ids, sorted."""
    u, v = g.ends
    return "\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist()))


def from_edgelist(text: str, n_vertices: int | None = None) -> Graph:
    """The graph of 'u v' lines; blank lines and '#' comments are skipped,
    and any other line that is not two integers raises ParameterOutOfRange."""
    edges = []
    top = -1
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            u, v = (int(t) for t in line.split())
        except ValueError:
            raise ParameterOutOfRange(f"edge-list line {number} is not two integers: "
                                      f"{line!r}") from None
        edges.append((u, v))
        top = max(top, u, v)
    n = n_vertices if n_vertices is not None else top + 1
    return graph_from_edges(n, edges, FamilySpec(EXPLICIT))


def to_descriptor(g: Graph) -> dict:
    """JSON-ready graph descriptor {family, params, n_vertices, edges}."""
    fam = g.family.to_dict() if g.family is not None else None
    return {
        "family": fam["kind"] if fam else None,
        "params": {k: v for k, v in (fam or {}).items() if k != "kind"},
        "n_vertices": g.n_vertices,
        "edges": np.column_stack(g.ends).tolist(),
    }


def from_descriptor(d: dict) -> Graph:
    """The graph of a descriptor (`to_descriptor`).  One that names a
    family must hold that family's vertex count and edge set, or
    ParameterOutOfRange is raised, since every layer trusts the tag."""
    kind = d.get("family") or EXPLICIT
    params = d.get("params", {})
    spec = FamilySpec(kind, params.get("n", 0), params.get("k"), params.get("m"))
    g = graph_from_edges(d["n_vertices"], d["edges"], spec)
    if kind != EXPLICIT and (g.n_vertices != spec.vertex_count
                             or not same_edges(g, build_family(spec))):
        raise ParameterOutOfRange(f"a descriptor of {spec.name()} with {g.n_vertices} "
                                  f"vertices and {g.edge_count()} edges is not that graph")
    return g
