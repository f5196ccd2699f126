from __future__ import annotations

import numpy as np
import pytest

from cubesym import (
    augmented_hypercube,
    folded_hypercube,
    hamming_graph,
    hypercube,
    hypercube_power,
    locally_twisted_hypercube,
    enhanced_hypercube,
)
from cubesym.bitgraph import graph_from_edges
from cubesym.params import automorphism_group


CORPUS_SPECS = {
    "Q_3": lambda: hypercube(3),
    "Q_4": lambda: hypercube(4),
    "Q_4^2": lambda: hypercube_power(4, 2),
    "FQ_3": lambda: folded_hypercube(3),
    "FQ_4": lambda: folded_hypercube(4),
    "Q_{4,1}": lambda: enhanced_hypercube(4, 1),
    "Q_{4,2}": lambda: enhanced_hypercube(4, 2),
    "Q_{4,3}": lambda: enhanced_hypercube(4, 3),
    "AQ_3": lambda: augmented_hypercube(3),
    "AQ_4": lambda: augmented_hypercube(4),
    "LTQ_3": lambda: locally_twisted_hypercube(3),
    "LTQ_4": lambda: locally_twisted_hypercube(4),
    "H(2,3)": lambda: hamming_graph(3, 2),
    "H(4,2)": lambda: hamming_graph(2, 4),
}


def row_set(table) -> set[tuple[int, ...]]:
    """The rows of an element table (or a list of image tuples) as a set of
    tuples, after checking that no row repeats."""
    rows = np.asarray(table)
    out = {tuple(row.tolist()) for row in rows}
    assert len(out) == len(rows), "an element table repeats a row"
    return out


def reference_closure(nv: int, gens) -> np.ndarray:
    """The reference element table of the group that the image rows `gens`
    generate, for groups that have no table of their own (a model's
    stabilizer): a BFS closure a frontier at a time, each row found so far
    composed with every generator and kept if it is new, the identity first."""
    gens = np.asarray(gens, dtype=np.int32).reshape(-1, nv)
    frontier = np.arange(nv, dtype=np.int32)[None, :]
    seen = {frontier[0].tobytes()}
    out = [frontier]
    while len(frontier):
        fresh = []
        for row in gens[:, frontier].reshape(-1, nv):  # (sigma o tau)(v) = sigma(tau(v))
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(row)
        frontier = np.array(fresh, dtype=np.int32).reshape(-1, nv)
        out.append(frontier)
    return np.concatenate(out)


def z2_cayley(k, connection):
    """The Cayley graph of Z_2^k under XOR whose connection set is
    `connection` (0 ignored)."""
    return graph_from_edges(1 << k, {tuple(sorted((v, v ^ c)))
                                     for v in range(1 << k) for c in connection if c})


def preserves_adjacency(g, row) -> bool:
    """The plain reference for `is_automorphism`: `row` is a bijection of the
    vertices, and every pair keeps its adjacency under it."""
    p = [int(x) for x in row]
    n = g.n_vertices
    if len(p) != n or sorted(p) != list(range(n)):
        return False
    return all(g.has_edge(p[u], p[v]) == g.has_edge(u, v)
               for u in range(n) for v in range(n))


@pytest.fixture(scope="session")
def corpus():
    """The full <=32-vertex cross-validation corpus, graphs only."""
    return {name: make() for name, make in CORPUS_SPECS.items()}


@pytest.fixture(scope="session")
def corpus_groups(corpus):
    return {name: automorphism_group(g) for name, g in corpus.items()}
