"""Generic automorphism-group search by equitable refinement and backtracking.

The search tree individualizes one vertex of the first smallest non-singleton
cell at each node and refines to an equitable partition.  Discrete partitions
are leaves.  A leaf is kept when its map from the first leaf (the i-th
vertex of the first leaf to the i-th vertex of this one) passes
`autgroup.is_automorphism`, and that map is a generator.  Siblings are
pruned by the orbits of the already discovered automorphisms that fix the
node's individualized prefix, and subtrees whose refinement trace diverges
from the first path are cut.

The returned group keeps the first path's base (b1, b2, ...), for which
the generators are strong.  Its stabilizer chain (`PermGroup.chain`, built
once) gives the order |orbit(b1)| * |orbit(b2) under stab(b1)| * ..., the
element table and the stabilizers of base prefixes.
`has_nontrivial_automorphism` runs the same search up to its first
generator.
"""

from __future__ import annotations

import numpy as np

from .autgroup import PermGroup, is_automorphism, orbit_roots
from .bitgraph import Graph
from .errors import SearchBudgetExceeded

DEFAULT_SEARCH_VERTEX_CAP = 4096
DEFAULT_NODE_BUDGET = 100_000_000


def _adjacency_rows(g: Graph) -> list[int]:
    """One int bitset per vertex, bit w of row v set iff v ~ w, for the
    refinement's neighbour counts (AND and popcount).  The edge ends are
    set in a V x ceil(V/8) uint8 array, 2 MB at the 4,096-vertex cap."""
    nv = g.n_vertices
    width = -(-nv // 8)
    u, v = g.ends
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    packed = np.zeros((nv, width), dtype=np.uint8)
    np.bitwise_or.at(packed, (src, dst >> 3), np.left_shift(1, dst & 7).astype(np.uint8))
    data = packed.tobytes()
    return [int.from_bytes(data[i * width:(i + 1) * width], "little") for i in range(nv)]


def _cell_mask(cell) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(rows, cells, splitters):
    """Equitable refinement; returns (cells, trace) with a label-free trace."""
    queue = list(splitters)
    trace = []
    while queue:
        wmask = queue.pop()
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((rows[v] & wmask).bit_count(), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            changed = True
            keys = sorted(groups)
            trace.append((len(cell), tuple(keys), tuple(len(groups[k]) for k in keys)))
            for k in keys:
                frag = groups[k]
                new_cells.append(frag)
                queue.append(_cell_mask(frag))
        if changed:
            cells = new_cells
    return cells, tuple(trace)


def search_automorphisms(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET,
                         vertex_cap: int = DEFAULT_SEARCH_VERTEX_CAP) -> PermGroup:
    """The full automorphism group of `g`, found by refinement search."""
    base: list[int] = []
    gens = sorted(set(_generators(g, node_budget, vertex_cap, base)))
    rows = np.array(gens, dtype=np.int32).reshape(len(gens), g.n_vertices)
    return PermGroup(g.n_vertices, rows, None, "searched", g, base=tuple(base))


def has_nontrivial_automorphism(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET,
                                vertex_cap: int = DEFAULT_SEARCH_VERTEX_CAP) -> bool:
    """Whether `g` has an automorphism other than the identity: the search
    stops at its first verified leaf map, which moves a vertex.  The full
    search finds generators of the whole group, so it finds none exactly
    when the group is trivial."""
    return next(_generators(g, node_budget, vertex_cap, []), None) is not None


def _generators(g: Graph, node_budget: int, vertex_cap: int, base: list[int]):
    """The search's generators, image tuples, as it finds them; each is a
    leaf's map from the first leaf, so it moves the vertex on which the two
    paths first differ.  `base` receives the vertices individualized along
    the first path."""
    n = g.n_vertices
    if n > vertex_cap:
        raise SearchBudgetExceeded(f"{n} vertices above the search cap {vertex_cap}")
    rows = _adjacency_rows(g)

    state = {
        "nodes": 0,
        "first_leaf": None,   # labeling array
        "first_path_inv": {},  # depth -> trace invariant
        "found": np.empty((0, n), dtype=np.int32),  # the generators so far, as rows
    }

    def dfs(cells, depth, prefix):
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            raise SearchBudgetExceeded(f"search exceeded {node_budget} nodes")

        target = None
        for cell in cells:
            if len(cell) > 1 and (target is None or len(cell) < len(target)):
                target = cell
        if target is None:
            labeling = [c[0] for c in cells]
            first = state["first_leaf"]
            if first is None:
                state["first_leaf"] = np.array(labeling)
                return
            perm = np.empty(n, dtype=np.int32)
            perm[first] = labeling
            if is_automorphism(g, perm):
                state["found"] = np.concatenate([state["found"], perm[None, :]])
                yield tuple(perm.tolist())
            return

        on_first_path = state["first_leaf"] is None
        explored = []
        # which found generators fix the prefix, and the orbits of those
        fixing, roots = np.zeros(0, dtype=bool), None
        for v in sorted(target):
            if explored:
                found = state["found"]
                if len(fixing) < len(found):
                    fresh = (found[len(fixing):, prefix] == prefix).all(axis=1)
                    fixing = np.concatenate([fixing, fresh])
                    if fresh.any():
                        roots = orbit_roots(n, found[fixing]).tolist()
                if roots is not None and any(roots[v] == roots[w] for w in explored):
                    continue
            rest = [w for w in target if w != v]
            child_cells = []
            for cell in cells:
                if cell is target:
                    child_cells.append([v])
                    child_cells.append(rest)
                else:
                    child_cells.append(cell)
            refined, trace = _refine(rows, child_cells, [1 << v])
            if on_first_path and state["first_leaf"] is None:
                state["first_path_inv"][depth] = trace
                base.append(v)
                yield from dfs(refined, depth + 1, prefix + [v])
            else:
                ref_inv = state["first_path_inv"].get(depth)
                if ref_inv is not None and trace != ref_inv:
                    explored.append(v)
                    continue
                yield from dfs(refined, depth + 1, prefix + [v])
            explored.append(v)

    start_cells, start_trace = _refine(rows, [list(range(n))], [ (1 << n) - 1 ])
    yield from dfs(start_cells, 0, [])
