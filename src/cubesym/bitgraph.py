"""Graph families on words: hypercubes and their six variants.

Vertices are length-n words over an alphabet of size m (m = 2 except for
Hamming graphs).  Position 1 is the leftmost/most significant digit, so the
word with a single 1 in position i is the integer 2**(n-i).  Vertex ids in a
generated graph are exactly the word values, 0 .. m**n - 1.

A graph is its edge array, `Graph.edge_keys`: the keys u * V + v of the
edges u < v, ascending, as int64.  The six families on the 2^n binary words
are held instead by their connection sets (`Graph.masks`), which
`_neighbor_masks`, their one graph rule, gives: x ~ x ^ d for each d of
D_{x_0}, x_0 the last bit of x.  Q_n, FQ_n, AQ_n, Q_n^k and Q_{n,k} are
Cayley graphs of Z_2^n, the case D_0 = D_1; LTQ_n twists it, its D_1
differing from D_0 in the even masks only, so that the rule is symmetric.
Degrees, counts, neighbours, `has_edge`, `xor_connection` and BFS
(`distances_from`, by XOR with D_{x_0}) read the masks.  Such a graph builds
its edge array only when a reader first needs every edge: the graph6,
edge-list and descriptor encoders, the automorphism test's edge sort, the
search's bitset rows, `same_edges` and `check_valid`; `induced_subgraph`
reads each of its vertices x against the words x ^ D_{x_0}.  H(n,m) (one
changed digit) builds its edge array from its rule, and explicit graphs
from their given edges; their BFS makes one pass over the edge ends per
level.  Only the automorphism search packs edges into bitset rows, locally,
since its refinement counts neighbours in a cell by AND and popcount.
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
    SearchBudgetExceeded,
    SizeGuard,
    Unreachable,
    VertexOutOfRange,
)

DEFAULT_VERTEX_CAP = 1 << 20

# The most bytes that one table may take: a group's element table, above
# the 1.13 GB of Q_{8,4}'s, and the neighbour table that builds the edge
# keys of a graph held by its connection sets.
DEFAULT_ELEMENT_BYTES = 1 << 31

# The most bytes that one chunk of a pass over many rows works on: in
# `distances_from` 8 per word of a frontier slice XOR D, and in `autgroup`
# the automorphism test's chunks of image rows and of D, and `orbit_roots`'
# chunks of image rows.
_CHECK_BYTES = 1 << 22

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


@dataclass(frozen=True, eq=False)
class Graph:
    """Finite simple graph given by its edge array or its connection sets.

    `edge_keys` holds the keys u * V + v of the edges u < v, ascending, as
    int64, with no key repeated.  A graph on the V = 2^n words may be given
    by `connection` instead, with no edge array (`_keys` None): ascending
    int64 masks in 1..V-1, D_0, and `connection_odd`, D_1, or None where it
    is D_0.  Then x ~ x ^ d for each d of D_{x_0}, x_0 = x & 1: a Cayley
    graph of Z_2^n (u ~ v iff u ^ v is in D) where D_0 = D_1, and twisted,
    as LTQ_n is, where they differ.  The rule is symmetric iff an odd mask,
    which flips x_0, lies in both sets or in neither; that is checked here,
    and a D_1 equal to D_0 is dropped.  `edge_keys` is then built from the
    masks on first use, within `DEFAULT_ELEMENT_BYTES`.  `labels[i]` keeps
    the original word of vertex i for graphs carved out of a bigger one
    (induced subgraphs); it is None for directly generated families, whose
    vertex ids are already the words.
    """

    n_vertices: int
    _keys: np.ndarray | None
    family: FamilySpec | None = None
    labels: tuple[int, ...] | None = None
    connection: np.ndarray | None = None
    connection_odd: np.ndarray | None = None

    def __post_init__(self):
        d0, d1 = self.connection, self.connection_odd
        if d1 is None:
            return
        if np.array_equal(d0, d1):
            object.__setattr__(self, "connection_odd", None)
        elif not np.array_equal(d0[d0 & 1 == 1], d1[d1 & 1 == 1]):
            raise ParameterOutOfRange("the connection sets are not symmetric: an odd mask "
                                      "lies in one of D_0 and D_1 only")

    @cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(D_0, D_1): the connection sets where the graph holds them, the
        one array twice where they are equal; for a graph given by its
        edges, D twice, as ascending int64 masks, where `xor_connection`
        finds a Cayley graph of Z_2^n; else None."""
        if self.connection is not None:
            odd = self.connection_odd
            return self.connection, self.connection if odd is None else odd
        in_d = self.xor_connection
        if in_d is None:
            return None
        d = np.flatnonzero(in_d).astype(np.int64)
        return d, d

    @cached_property
    def mask_tables(self) -> np.ndarray | None:
        """Where `masks` is set, a 3 x V bool table whose rows mark the
        words of D_0, of D_1 and of both, else None."""
        if self.masks is None:
            return None
        tables = np.zeros((3, self.n_vertices), dtype=bool)
        for row, d in enumerate(self.masks):
            tables[row, d] = True
        tables[2] = tables[0] & tables[1]
        return tables

    def _neighbor_table(self, xs: np.ndarray) -> np.ndarray:
        """The words x ^ d for each x of the int64 words `xs` and d of
        D_{x_0}, one row per x, as wide as the larger set; a row of the
        smaller one is padded with x itself."""
        d0, d1 = self.masks
        if d1 is d0:
            return xs[:, None] ^ d0
        table = np.zeros((len(xs), max(len(d0), len(d1))), dtype=np.int64)
        odd = (xs & 1).astype(bool)
        table[~odd, :len(d0)] = d0
        table[odd, :len(d1)] = d1
        table ^= xs[:, None]
        return table

    def check_edge_budget(self) -> None:
        """Raise SearchBudgetExceeded, naming the edge keys and their bytes,
        if building them from the masks needs a V-row int64 neighbour table
        above `DEFAULT_ELEMENT_BYTES`."""
        if self._keys is not None or "edge_keys" in vars(self):
            return
        nbytes = 8 * self.n_vertices * max(map(len, self.masks))
        if nbytes > DEFAULT_ELEMENT_BYTES:
            name = self.family.name() if self.family is not None else "the graph"
            raise SearchBudgetExceeded(f"the edge keys of {name} would need a neighbour table "
                                       f"of {nbytes} bytes, above {DEFAULT_ELEMENT_BYTES}")

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """The edge array; from the masks after `check_edge_budget`, so
        that their neighbour table is refused before it is allocated."""
        if self._keys is not None:
            return self._keys
        self.check_edge_budget()
        return _rule_keys(self._neighbor_table(np.arange(self.n_vertices, dtype=np.int64)))

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The ends u < v of the edges, in `edge_keys` order."""
        return np.divmod(self.edge_keys, max(self.n_vertices, 1))

    @cached_property
    def degrees(self) -> np.ndarray:
        if self.connection is not None:
            d0, d1 = self.masks
            return np.where(np.arange(self.n_vertices) & 1, len(d1), len(d0))
        return np.bincount(np.concatenate(self.ends), minlength=self.n_vertices)

    @cached_property
    def xor_connection(self) -> np.ndarray | None:
        """D as a V-long bool table if the graph is a Cayley graph of Z_2^n
        (u ~ v iff u ^ v is in D) with V >= 2, else None: from `connection`
        where the graph holds one set; otherwise read from the edges, where
        a value d that an edge carries must be carried by all V/2 pairs
        {x, x ^ d}."""
        nv = self.n_vertices
        if nv < 2 or nv & (nv - 1):
            return None
        if self.connection is not None:
            if self.connection_odd is not None:
                return None
            in_d = np.zeros(nv, dtype=bool)
            in_d[self.connection] = True
            return in_d
        u, v = self.ends
        counts = np.bincount(u ^ v, minlength=nv)
        in_d = counts > 0
        return in_d if (counts[in_d] == nv // 2).all() else None

    def _check_vertex(self, *vs: int) -> None:
        for v in vs:
            if not 0 <= v < self.n_vertices:
                raise VertexOutOfRange(f"vertex {v} not in 0..{self.n_vertices - 1}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u, v)
        if self.connection is not None:
            return bool(self.mask_tables[u & 1, u ^ v])
        key = min(u, v) * self.n_vertices + max(u, v)
        i = int(np.searchsorted(self.edge_keys, key))
        return i < len(self.edge_keys) and int(self.edge_keys[i]) == key and u != v

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.degrees[v])

    def edge_count(self) -> int:
        if self.connection is not None:
            d0, d1 = self.masks
            return ((self.n_vertices + 1) // 2 * len(d0) + self.n_vertices // 2 * len(d1)) // 2
        return len(self.edge_keys)

    def edges(self):
        u, v = self.ends
        return zip(u.tolist(), v.tolist())

    def neighbors(self, v: int) -> list[int]:
        """The neighbours of v, ascending."""
        self._check_vertex(v)
        if self.connection is not None:
            return np.sort(v ^ self.masks[v & 1]).tolist()
        u, w = self.ends
        return np.concatenate([u[w == v], w[u == v]]).tolist()

    def is_regular(self) -> bool:
        degrees = self.degrees
        return not len(degrees) or bool((degrees == degrees[0]).all())

    def check_valid(self) -> None:
        """Check that the edge keys ascend strictly and are pairs u < v of
        vertices, so that the adjacency they give is symmetric and has an
        empty diagonal."""
        keys, nv = self.edge_keys, self.n_vertices
        u, v = self.ends
        if (np.diff(keys) <= 0).any():
            raise ParameterOutOfRange("the edge keys do not ascend strictly")
        if len(keys) and (keys[0] < 0 or keys[-1] >= nv * nv):
            raise ParameterOutOfRange("an edge key names a vertex out of range")
        if (u == v).any():
            raise ParameterOutOfRange(f"self-loop at {int(u[u == v][0])}")
        if (u > v).any():
            raise ParameterOutOfRange("an edge key has its larger end first")


def graph_from_edges(n_vertices: int, edges, family: FamilySpec | None = None,
                     labels: tuple[int, ...] | None = None) -> Graph:
    """The graph of the pairs `edges` (any order, repeats and loops ignored)."""
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=np.int64).reshape(-1, 2)
    if ((pairs < 0) | (pairs >= n_vertices)).any():
        raise VertexOutOfRange(f"an edge end is not a vertex of 0..{n_vertices - 1}")
    u, v = pairs.min(axis=1), pairs.max(axis=1)
    keys = np.sort((u * n_vertices + v)[u != v])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return Graph(n_vertices, keys, family, labels)


def _neighbor_masks(spec: FamilySpec) -> tuple[list[int], list[int]] | None:
    """The connection sets (D_0, D_1) of the six families on the 2^n binary
    words (x ~ x ^ d for d in D_{x_0}), else None.  The five Cayley graphs
    of Z_2^n have one set, D_0 = D_1 (the same list).  LTQ_n's D_0 is the
    single bits, and its D_1 is 1, 2 and 2^j + 2^(j-1) for 2 <= j < n:
    unrolled, its two-copy recursion (Yang, Evans & Megson, 2005) joins
    each word 0 x2..xn of LTQ_dim's first copy to 1 (x2+xn) x3..xn."""
    n = spec.n
    if spec.kind == LOCALLY_TWISTED:
        return [1 << j for j in range(n)], [1, 2] + [3 << (j - 1) for j in range(2, n)]
    if spec.kind == HYPERCUBE:
        masks = [1 << b for b in range(n)]
    elif spec.kind == POWER:
        k = min(spec.k, n)
        masks = [d for d in range(1, 1 << n) if d.bit_count() <= k]
    elif spec.kind == FOLDED:
        masks = [1 << b for b in range(n)]
        full = (1 << n) - 1
        if n >= 2:
            masks.append(full)
        masks = sorted(set(masks))
    elif spec.kind == ENHANCED:
        suffix = (1 << (n - spec.k + 1)) - 1
        masks = [1 << b for b in range(n)]
        if suffix not in masks:
            masks.append(suffix)
    elif spec.kind == AUGMENTED:
        masks = [1 << b for b in range(n)]
        masks += [(1 << t) - 1 for t in range(2, n + 1)]
        masks = sorted(set(masks))
    else:
        return None
    return masks, masks


def _rule_keys(nbrs: np.ndarray) -> np.ndarray:
    """The edge keys of the V x d int64 table of every vertex's neighbours,
    which it sorts in place."""
    nbrs.sort(axis=1)
    v = np.arange(len(nbrs), dtype=np.int64)[:, None]
    return (v * len(nbrs) + nbrs)[nbrs > v]  # row by row, so ascending


def _hamming_keys(spec: FamilySpec) -> np.ndarray:
    """The edge keys of H(n,m): each digit changed to each other symbol."""
    m = spec.m
    v = np.arange(spec.vertex_count, dtype=np.int64)[:, None]
    place = m ** np.arange(spec.n, dtype=np.int64)
    digit = v // place % m
    return _rule_keys(np.concatenate([v + ((digit + t) % m - digit) * place
                                      for t in range(1, m)], axis=1))


def build_family(spec: FamilySpec, cap: int | None = None) -> Graph:
    """Build the graph of a family spec; raises SizeGuard above the cap."""
    if spec.kind == EXPLICIT:
        raise ParameterOutOfRange("explicit graphs are constructed from edges, not built")
    nv = spec.vertex_count
    limit = cap if cap is not None else vertex_cap()
    if nv > limit:
        raise SizeGuard(f"{spec.name()} has {nv} vertices, above the cap {limit}")
    masks = _neighbor_masks(spec)
    if masks is not None:
        d0, d1 = masks
        return Graph(nv, None, spec, connection=np.array(sorted(d0), dtype=np.int64),
                     connection_odd=None if d1 is d0 else np.array(sorted(d1), dtype=np.int64))
    if spec.kind != HAMMING:
        raise ParameterOutOfRange(f"unhandled family kind {spec.kind!r}")
    return Graph(nv, _hamming_keys(spec), spec)


def distances_from(g: Graph, u: int) -> np.ndarray:
    """The BFS distance of every vertex from u, as an int32 array, -1 for
    the vertices u cannot reach.  On a graph held by its connection sets,
    each level marks the unmarked words x ^ d, d in D_{x_0}, of the
    frontier's x (`Graph._neighbor_table`), a slice of the frontier at a
    time within `_CHECK_BYTES`, so the BFS holds O(V).
    On any other graph each level marks the other end of every edge with
    one end in the frontier, so the BFS holds O(E)."""
    g._check_vertex(u)
    dist = np.full(g.n_vertices, -1, dtype=np.int32)
    dist[u] = 0
    level = 0
    if g.connection is not None:
        step = max(1, _CHECK_BYTES // (8 * max(1, *map(len, g.masks))))
        frontier = np.array([u], dtype=np.int64)
        while len(frontier):
            level += 1
            for lo in range(0, len(frontier), step):
                reached = g._neighbor_table(frontier[lo:lo + step]).ravel()
                dist[reached[dist[reached] < 0]] = level
            frontier = np.flatnonzero(dist == level)
        return dist
    a, b = g.ends
    frontier = dist == 0
    while True:
        reached = np.concatenate([b[frontier[a]], a[frontier[b]]])
        reached = reached[dist[reached] < 0]
        if not len(reached):
            return dist
        level += 1
        dist[reached] = level
        frontier = dist == level


def graph_distance(g: Graph, u: int, v: int) -> int:
    """BFS shortest-path length; raises Unreachable for disconnected pairs."""
    g._check_vertex(u, v)
    dist = int(distances_from(g, u)[v])
    if dist < 0:
        raise Unreachable(f"no path from {u} to {v}")
    return dist


def is_connected(g: Graph) -> bool:
    return g.n_vertices <= 1 or bool((distances_from(g, 0) >= 0).all())


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
    index = np.full(g.n_vertices, -1, dtype=np.int64)
    index[vs] = np.arange(len(vs))
    if g.connection is not None:  # each vertex x of the set against its words x ^ D_{x_0}
        table = g._neighbor_table(np.array(vs, dtype=np.int64))
        a = np.repeat(np.arange(len(vs)), table.shape[1])
        b = index[table.ravel()]
    else:
        a, b = (index[end] for end in g.ends)
    kept = (a >= 0) & (b >= 0)
    base = tuple(g.labels[v] for v in vs) if g.labels is not None else tuple(vs)
    return graph_from_edges(len(vs), np.column_stack([a[kept], b[kept]]),
                            FamilySpec(EXPLICIT), base)


def complement(g: Graph) -> Graph:
    nv = g.n_vertices
    u, v = np.triu_indices(nv, 1)
    keys = np.setdiff1d(u.astype(np.int64) * nv + v, g.edge_keys, assume_unique=True)
    return Graph(nv, keys, FamilySpec(EXPLICIT), g.labels)


def cartesian_product(g: Graph, h: Graph, cap: int | None = None) -> Graph:
    """Cartesian product; vertex (a, b) gets id a * |H| + b (label concatenation)."""
    nv = g.n_vertices * h.n_vertices
    limit = cap if cap is not None else vertex_cap()
    if nv > limit:
        raise SizeGuard(f"product has {nv} vertices, above the cap {limit}")
    nh = h.n_vertices
    a = np.arange(g.n_vertices, dtype=np.int64)[:, None] * nh
    b = np.arange(nh, dtype=np.int64)[:, None]
    (gu, gv), (hu, hv) = g.ends, h.ends
    u = np.concatenate([(gu * nh + b).ravel(), (a + hu).ravel()])
    v = np.concatenate([(gv * nh + b).ravel(), (a + hv).ravel()])
    return Graph(nv, np.sort(u * nv + v), FamilySpec(EXPLICIT))


def same_edges(g: Graph, h: Graph) -> bool:
    return g.n_vertices == h.n_vertices and np.array_equal(g.edge_keys, h.edge_keys)


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
