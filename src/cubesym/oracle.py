"""Brute-force reference engines.

Everything here is written for obviousness, not speed, and deliberately
shares no search machinery with the main solvers: automorphisms come from
plain image-by-image backtracking, parameters from direct enumeration of
subsets or set partitions.  These are the ground truth the fast paths are
validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bitgraph import Graph
from .errors import NotTwoDistinguishable, SizeGuard

NAIVE_VERTEX_LIMIT = 64
PARAM_VERTEX_LIMIT = 32


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: tuple
    nodes_explored: int


def _adjacency(g: Graph) -> list[set[int]]:
    """The neighbour set of every vertex, from the edge list."""
    adj = [set() for _ in range(g.n_vertices)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def enumerate_automorphisms_naive(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms as image tuples, by direct backtracking."""
    n = g.n_vertices
    if n > NAIVE_VERTEX_LIMIT:
        raise SizeGuard(f"naive enumeration capped at {NAIVE_VERTEX_LIMIT} vertices")
    adj = _adjacency(g)
    out = []
    image = [-1] * n
    used = [False] * n

    def extend(v: int):
        if v == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if used[w] or len(adj[w]) != len(adj[v]):
                continue
            ok = True
            for u in range(v):
                if (u in adj[v]) != (image[u] in adj[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
                image[v] = -1

    extend(0)
    return out


def _fixes_pointwise(perm: tuple[int, ...], subset) -> bool:
    return all(perm[v] == v for v in subset)


def _fixes_setwise(perm: tuple[int, ...], subset: frozenset) -> bool:
    for v in subset:
        if perm[v] not in subset:
            return False
    return True


def _preserves_coloring(perm: tuple[int, ...], color: list[int]) -> bool:
    for v, c in enumerate(color):
        if color[perm[v]] != c:
            return False
    return True


def oracle_determining_number(g: Graph) -> OracleResult:
    """Minimum determining set by subset enumeration in lexicographic order."""
    if g.n_vertices > PARAM_VERTEX_LIMIT:
        raise SizeGuard(f"oracle parameters capped at {PARAM_VERTEX_LIMIT} vertices")
    auts = [p for p in enumerate_automorphisms_naive(g) if any(p[v] != v for v in range(g.n_vertices))]
    nodes = 0
    if not auts:
        return OracleResult(0, (), nodes)
    for size in range(1, g.n_vertices + 1):
        for subset in combinations(range(g.n_vertices), size):
            nodes += 1
            if not any(_fixes_pointwise(p, subset) for p in auts):
                return OracleResult(size, subset, nodes)
    raise AssertionError("the full vertex set is always determining")


def _partitions_into_at_most(n: int, d: int):
    """Set partitions of range(n) into <= d blocks, as color vectors.

    Canonical restricted-growth form: vertex 0 always has color 0 and each
    new color index appears only after all smaller ones.
    """
    color = [0] * n

    def rec(v: int, top: int):
        if v == n:
            yield color.copy()
            return
        for c in range(min(top + 1, d - 1) + 1):
            color[v] = c
            yield from rec(v + 1, max(top, c))

    yield from rec(1, 0) if n > 1 else iter([[0]] if n == 1 else [[]])


def oracle_distinguishing_number(g: Graph) -> OracleResult:
    """Least d admitting a distinguishing d-coloring, by partition enumeration."""
    if g.n_vertices > PARAM_VERTEX_LIMIT:
        raise SizeGuard(f"oracle parameters capped at {PARAM_VERTEX_LIMIT} vertices")
    n = g.n_vertices
    auts = [p for p in enumerate_automorphisms_naive(g) if any(p[v] != v for v in range(n))]
    nodes = 0
    if not auts:
        return OracleResult(1, tuple([0] * n), nodes)
    # d = 2 first, as subsets (one color class and its complement)
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            nodes += 1
            fs = frozenset(subset)
            if not any(_fixes_setwise(p, fs) for p in auts):
                color = tuple(1 if v in fs else 0 for v in range(n))
                return OracleResult(2, color, nodes)
    for d in range(3, n + 1):
        for color in _partitions_into_at_most(n, d):
            if max(color) != d - 1:
                continue
            nodes += 1
            if not any(_preserves_coloring(p, color) for p in auts):
                return OracleResult(d, tuple(color), nodes)
    raise AssertionError("an all-distinct coloring is always distinguishing")


def oracle_cost(g: Graph) -> OracleResult:
    """Minimum color-class size over 2-distinguishing colorings."""
    if g.n_vertices > PARAM_VERTEX_LIMIT:
        raise SizeGuard(f"oracle parameters capped at {PARAM_VERTEX_LIMIT} vertices")
    n = g.n_vertices
    auts = [p for p in enumerate_automorphisms_naive(g) if any(p[v] != v for v in range(n))]
    nodes = 0
    if not auts:
        return OracleResult(0, (), nodes)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            nodes += 1
            fs = frozenset(subset)
            if not any(_fixes_setwise(p, fs) for p in auts):
                return OracleResult(size, subset, nodes)
    raise NotTwoDistinguishable("no color class has a trivial setwise stabilizer")


def oracle_transitivity(g: Graph) -> dict[str, bool]:
    """Vertex/edge/arc/distance transitivity from every automorphism and
    plain orbits of vertices, edges and ordered pairs.  Arc- and
    distance-transitivity include vertex-transitivity."""
    n = g.n_vertices
    auts = enumerate_automorphisms_naive(g)
    adj = _adjacency(g)
    dist = {}
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if (s, y) not in dist:
                        dist[s, y] = dist[s, x] + 1
                        nxt.append(y)
            frontier = nxt

    def one_orbit(items, image) -> bool:
        return not items or {image(p, items[0]) for p in auts} == set(items)

    def pair_image(p, pair):
        return p[pair[0]], p[pair[1]]

    edges = list(g.edges())
    arcs = edges + [(v, u) for (u, v) in edges]
    classes: dict[int, list] = {}
    for u in range(n):
        for v in range(n):
            if u != v:
                classes.setdefault(dist.get((u, v), -1), []).append((u, v))
    vertex_t = one_orbit(list(range(n)), lambda p, v: p[v])
    return {
        "vertex_transitive": vertex_t,
        "edge_transitive": one_orbit([frozenset(e) for e in edges],
                                     lambda p, e: frozenset(p[v] for v in e)),
        "arc_transitive": vertex_t and one_orbit(arcs, pair_image),
        "distance_transitive": vertex_t and all(one_orbit(c, pair_image)
                                                for c in classes.values()),
    }
