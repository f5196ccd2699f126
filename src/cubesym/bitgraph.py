"""Graph families on words: hypercubes and their six variants.

Vertices are length-n words over an alphabet of size m (m = 2 except for
Hamming graphs).  Position 1 is the leftmost/most significant digit, so the
word with a single 1 in position i is the integer 2**(n-i).  Vertex ids in a
generated graph are exactly the word values, 0 .. m**n - 1.

Adjacency is stored as one Python int bitset per vertex, which keeps the
per-pair tests and the BFS/refinement loops fast.  `Graph.edge_keys` holds
the edge set once more as a sorted int64 array, built on first use, which
the automorphism test compares images with.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateVertex,
    ParameterOutOfRange,
    SizeGuard,
    Unreachable,
    VertexOutOfRange,
)

DEFAULT_VERTEX_CAP = 1 << 20

HYPERCUBE = "hypercube"
POWER = "power"
HAMMING = "hamming"
FOLDED = "folded"
ENHANCED = "enhanced"
AUGMENTED = "augmented"
LOCALLY_TWISTED = "locally_twisted"
EXPLICIT = "explicit"

FAMILY_KINDS = (
    HYPERCUBE,
    POWER,
    HAMMING,
    FOLDED,
    ENHANCED,
    AUGMENTED,
    LOCALLY_TWISTED,
    EXPLICIT,
)


def vertex_cap() -> int:
    """Current vertex cap (env CUBE_SYM_MAX_VERTICES overrides the default)."""
    raw = os.environ.get("CUBE_SYM_MAX_VERTICES")
    if not raw:
        return DEFAULT_VERTEX_CAP
    try:
        return int(raw)
    except ValueError:
        raise ParameterOutOfRange(
            f"CUBE_SYM_MAX_VERTICES={raw!r} is not an integer") from None


@dataclass(frozen=True)
class BitVertex:
    """A length-n word over {0..alphabet-1}, position 1 leftmost."""

    word: int
    n: int
    alphabet: int = 2

    def __post_init__(self):
        if not 0 <= self.word < self.alphabet**self.n:
            raise ParameterOutOfRange(f"word {self.word} out of range for n={self.n}, m={self.alphabet}")

    def digit(self, position: int) -> int:
        """Digit at paper position `position` (1-based, leftmost)."""
        if not 1 <= position <= self.n:
            raise DimensionMismatch(f"position {position} not in [1, {self.n}]")
        return word_digit(self.word, position, self.n, self.alphabet)

    def digits(self) -> tuple[int, ...]:
        return tuple(word_digit(self.word, j, self.n, self.alphabet) for j in range(1, self.n + 1))

    def __str__(self) -> str:
        return word_str(self.word, self.n, self.alphabet)


def word_digit(word: int, position: int, n: int, m: int = 2) -> int:
    """Digit of `word` at paper position (1-based from the left)."""
    shift = n - position
    if m == 2:
        return (word >> shift) & 1
    return (word // m**shift) % m


def word_str(word: int, n: int, m: int = 2) -> str:
    digits = []
    for _ in range(n):
        digits.append(word % m)
        word //= m
    return "".join(str(d) for d in reversed(digits))


def hamming_words(u: int, v: int, n: int, m: int = 2) -> int:
    """Hamming distance between two word values of the same shape."""
    if m == 2:
        return (u ^ v).bit_count()
    d = 0
    for _ in range(n):
        if u % m != v % m:
            d += 1
        u //= m
        v //= m
    return d


def hamming_distance(u: BitVertex, v: BitVertex) -> int:
    """Number of positions where u and v differ."""
    if u.n != v.n or u.alphabet != v.alphabet:
        raise DimensionMismatch(f"shape mismatch: ({u.n},{u.alphabet}) vs ({v.n},{v.alphabet})")
    return hamming_words(u.word, v.word, u.n, u.alphabet)


@dataclass(frozen=True)
class FamilySpec:
    """Which family to build, with its parameters."""

    kind: str
    n: int = 0
    k: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ParameterOutOfRange(f"unknown family kind {self.kind!r}")
        if self.kind == EXPLICIT:
            return
        if self.n < 1:
            raise ParameterOutOfRange(f"{self.kind} requires n >= 1, got {self.n}")
        if self.kind == POWER and (self.k is None or self.k < 1):
            raise ParameterOutOfRange(f"power requires k >= 1, got {self.k}")
        if self.kind == ENHANCED and (self.k is None or not 1 <= self.k <= self.n - 1):
            raise ParameterOutOfRange(f"enhanced requires 1 <= k <= n-1, got k={self.k}, n={self.n}")
        if self.kind == HAMMING and (self.m is None or self.m < 2):
            raise ParameterOutOfRange(f"hamming requires m >= 2, got m={self.m}")
        if self.kind == LOCALLY_TWISTED and self.n < 2:
            raise ParameterOutOfRange(f"locally twisted requires n >= 2, got n={self.n}")

    @property
    def alphabet(self) -> int:
        return self.m if self.kind == HAMMING else 2

    @property
    def vertex_count(self) -> int:
        return self.alphabet**self.n

    def label(self, v: int) -> str:
        return word_str(v, self.n, self.alphabet)

    def name(self) -> str:
        if self.kind == POWER:
            return f"Q_{self.n}^{self.k}"
        if self.kind == HAMMING:
            return f"H({self.n},{self.m})"
        if self.kind == ENHANCED:
            return f"Q_{{{self.n},{self.k}}}"
        base = {HYPERCUBE: "Q", FOLDED: "FQ", AUGMENTED: "AQ", LOCALLY_TWISTED: "LTQ"}.get(self.kind)
        if base:
            return f"{base}_{self.n}"
        return self.kind

    def expected_degree(self) -> int | None:
        """Regular degree of the family, when it has one."""
        n = self.n
        if self.kind == HYPERCUBE:
            return n
        if self.kind == POWER:
            return sum(comb(n, i) for i in range(1, min(self.k, n) + 1))
        if self.kind == HAMMING:
            return n * (self.m - 1)
        if self.kind == FOLDED:
            return n + 1 if n >= 2 else 1
        if self.kind == ENHANCED:
            return n + 1
        if self.kind == AUGMENTED:
            return 2 * n - 1
        if self.kind == LOCALLY_TWISTED:
            return n
        return None

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "n": self.n}
        if self.k is not None:
            d["k"] = self.k
        if self.m is not None:
            d["m"] = self.m
        return d


@dataclass(frozen=True)
class Graph:
    """Finite simple graph with bitset adjacency rows.

    `labels[i]` keeps the original word of vertex i for graphs carved out of
    a bigger one (induced subgraphs); it is None for directly generated
    families, whose vertex ids are already the words.
    """

    n_vertices: int
    rows: tuple[int, ...]
    family: FamilySpec | None = None
    labels: tuple[int, ...] | None = None

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        for u in range(self.n_vertices):
            row = (self.rows[u] >> (u + 1)) << (u + 1)
            while row:
                low = row & -row
                yield (u, low.bit_length() - 1)
                row ^= low

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """The keys `u * V + v` of the edges u < v, ascending, as int64."""
        nv = self.n_vertices
        return np.fromiter((u * nv + v for u, v in self.edges()), dtype=np.int64)

    def neighbors(self, v: int) -> list[int]:
        out = []
        row = self.rows[v]
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    def is_regular(self) -> bool:
        if self.n_vertices == 0:
            return True
        d = self.degree(0)
        return all(self.degree(v) == d for v in range(self.n_vertices))

    def check_valid(self) -> None:
        """Assert symmetry and an empty diagonal."""
        for u in range(self.n_vertices):
            if (self.rows[u] >> u) & 1:
                raise ParameterOutOfRange(f"self-loop at {u}")
            row = self.rows[u]
            while row:
                low = row & -row
                v = low.bit_length() - 1
                row ^= low
                if not (self.rows[v] >> u) & 1:
                    raise ParameterOutOfRange(f"asymmetric adjacency at ({u},{v})")


def graph_from_edges(n_vertices: int, edges, family: FamilySpec | None = None,
                     labels: tuple[int, ...] | None = None) -> Graph:
    rows = [0] * n_vertices
    for u, v in edges:
        if u == v:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n_vertices, tuple(rows), family, labels)


def _neighbor_masks(spec: FamilySpec) -> list[int] | None:
    """XOR connection set for the binary Cayley-type families, else None."""
    n = spec.n
    if spec.kind == HYPERCUBE:
        return [1 << b for b in range(n)]
    if spec.kind == POWER:
        k = min(spec.k, n)
        return [d for d in range(1, 1 << n) if d.bit_count() <= k]
    if spec.kind == FOLDED:
        masks = [1 << b for b in range(n)]
        full = (1 << n) - 1
        if n >= 2:
            masks.append(full)
        return sorted(set(masks))
    if spec.kind == ENHANCED:
        suffix = (1 << (n - spec.k + 1)) - 1
        masks = [1 << b for b in range(n)]
        if suffix not in masks:
            masks.append(suffix)
        return masks
    if spec.kind == AUGMENTED:
        masks = [1 << b for b in range(n)]
        masks += [(1 << t) - 1 for t in range(2, n + 1)]
        return sorted(set(masks))
    return None


def _build_locally_twisted(n: int) -> list[int]:
    """Edge bitsets of LTQ_n from the two-copy recursion (base LTQ_2 = Q_2)."""
    rows = [0b0110, 0b1001, 0b1001, 0b0110]  # Q_2 on words 00, 01, 10, 11
    for dim in range(3, n + 1):
        half = 1 << (dim - 1)
        new_rows = [0] * (half * 2)
        for v in range(half):
            new_rows[v] = rows[v]
            new_rows[v | half] = rows[v] << half
        for v in range(half):
            # partner of 0 x2..xn is 1 (x2+xn) x3..xn
            w = v ^ ((v & 1) << (dim - 2))
            u = w | half
            new_rows[v] |= 1 << u
            new_rows[u] |= 1 << v
        rows = new_rows
    return rows


def build_family(spec: FamilySpec, cap: int | None = None) -> Graph:
    """Build the graph of a family spec; raises SizeGuard above the cap."""
    if spec.kind == EXPLICIT:
        raise ParameterOutOfRange("explicit graphs are constructed from edges, not built")
    nv = spec.vertex_count
    limit = cap if cap is not None else vertex_cap()
    if nv > limit:
        raise SizeGuard(f"{spec.name()} has {nv} vertices, above the cap {limit}")

    n = spec.n
    masks = _neighbor_masks(spec)
    if masks is not None:
        rows = [0] * nv
        for v in range(nv):
            r = 0
            for d in masks:
                r |= 1 << (v ^ d)
            rows[v] = r
        return Graph(nv, tuple(rows), spec)

    if spec.kind == LOCALLY_TWISTED:
        return Graph(nv, tuple(_build_locally_twisted(n)), spec)

    if spec.kind == HAMMING:
        m = spec.m
        rows = [0] * nv
        for v in range(nv):
            r = 0
            p = 1
            for _ in range(n):
                base = v - (v // p % m) * p
                for d in range(m):
                    u = base + d * p
                    if u != v:
                        r |= 1 << u
                p *= m
            rows[v] = r
        return Graph(nv, tuple(rows), spec)

    raise ParameterOutOfRange(f"unhandled family kind {spec.kind!r}")


def distance_spheres(g: Graph, u: int) -> list[int]:
    """Bitmasks of the vertices at distance 0, 1, 2, ... from u, by BFS;
    the vertices that u cannot reach are in none of them."""
    frontier = seen = 1 << u
    spheres = []
    while frontier:
        spheres.append(frontier)
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= g.rows[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return spheres


def graph_distance(g: Graph, u: int, v: int) -> int:
    """BFS shortest-path length; raises Unreachable for disconnected pairs."""
    if not 0 <= u < g.n_vertices or not 0 <= v < g.n_vertices:
        raise VertexOutOfRange(f"vertex out of range: {u}, {v}")
    for dist, sphere in enumerate(distance_spheres(g, u)):
        if sphere >> v & 1:
            return dist
    raise Unreachable(f"no path from {u} to {v}")


def is_connected(g: Graph) -> bool:
    return g.n_vertices <= 1 or sum(distance_spheres(g, 0)) == (1 << g.n_vertices) - 1


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph on an ordered vertex set, original ids kept in `labels`."""
    vs = list(vertices)
    seen = set()
    for v in vs:
        if not 0 <= v < g.n_vertices:
            raise VertexOutOfRange(f"vertex {v} not in graph")
        if v in seen:
            raise DuplicateVertex(f"vertex {v} repeated")
        seen.add(v)
    index = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for i, v in enumerate(vs):
        row = g.rows[v]
        for w, j in index.items():
            if (row >> w) & 1:
                rows[i] |= 1 << j
    base = tuple(g.labels[v] for v in vs) if g.labels is not None else tuple(vs)
    return Graph(len(vs), tuple(rows), FamilySpec(EXPLICIT), base)


def complement(g: Graph) -> Graph:
    full = (1 << g.n_vertices) - 1
    rows = tuple((full ^ g.rows[v]) & ~(1 << v) for v in range(g.n_vertices))
    return Graph(g.n_vertices, rows, FamilySpec(EXPLICIT), g.labels)


def cartesian_product(g: Graph, h: Graph, cap: int | None = None) -> Graph:
    """Cartesian product; vertex (a, b) gets id a * |H| + b (label concatenation)."""
    nv = g.n_vertices * h.n_vertices
    limit = cap if cap is not None else vertex_cap()
    if nv > limit:
        raise SizeGuard(f"product has {nv} vertices, above the cap {limit}")
    nh = h.n_vertices
    rows = [0] * nv
    for a in range(g.n_vertices):
        arow = g.rows[a]
        for b in range(nh):
            v = a * nh + b
            r = 0
            brow = h.rows[b]
            while brow:
                low = brow & -brow
                r |= 1 << (a * nh + low.bit_length() - 1)
                brow ^= low
            t = arow
            while t:
                low = t & -t
                r |= 1 << ((low.bit_length() - 1) * nh + b)
                t ^= low
            rows[v] = r
    return Graph(nv, tuple(rows), FamilySpec(EXPLICIT))


def same_edges(g: Graph, h: Graph) -> bool:
    return g.n_vertices == h.n_vertices and g.rows == h.rows


# convenience constructors used all over the tests and demos

def hypercube(n: int) -> Graph:
    return build_family(FamilySpec(HYPERCUBE, n))


def hypercube_power(n: int, k: int) -> Graph:
    return build_family(FamilySpec(POWER, n, k=k))


def hamming_graph(m: int, n: int) -> Graph:
    """The Hamming graph of the words of length n over an alphabet of m
    symbols.  The alphabet size comes first, the reverse of the paper's
    H(n, m), which the graph's name and the CLI's `hamming -n N -m M`
    follow: hamming_graph(3, 2) is H(2,3), K_3 box K_3."""
    return build_family(FamilySpec(HAMMING, n, m=m))


def folded_hypercube(n: int) -> Graph:
    return build_family(FamilySpec(FOLDED, n))


def enhanced_hypercube(n: int, k: int) -> Graph:
    return build_family(FamilySpec(ENHANCED, n, k=k))


def augmented_hypercube(n: int) -> Graph:
    return build_family(FamilySpec(AUGMENTED, n))


def locally_twisted_hypercube(n: int) -> Graph:
    return build_family(FamilySpec(LOCALLY_TWISTED, n))
