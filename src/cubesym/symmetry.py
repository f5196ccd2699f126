"""Determining sets, distinguishing colorings, 2-distinguishing cost,
transitivity checks, and the witnesses that certify each reported value."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

import numpy as np

from .autgroup import (
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    determining_test,
    orbit_roots,
    pointwise_stabilizer,
    pointwise_stabilizer_is_trivial,
    setwise_stabilizer,
    translations_span,
)
from .bitgraph import Graph, distances_from, induced_subgraph
from .errors import NotTwoDistinguishable, SearchBudgetExceeded
from .rowmaps import _rgs_partitions, column_types, row_map_action
from .search import has_nontrivial_automorphism

DETERMINING = "determining_set"
DIST_COLORING = "distinguishing_coloring"
COST_CLASS = "cost_class"


@dataclass(frozen=True)
class Coloring:
    """Total vertex coloring with colors 1..d (unused colors allowed)."""

    assignment: tuple[int, ...]
    d: int

    def __post_init__(self):
        if any(not 1 <= c <= self.d for c in self.assignment):
            raise ValueError("colors must lie in 1..d")

    def classes(self) -> list[tuple[int, ...]]:
        buckets: dict[int, list[int]] = {}
        for v, c in enumerate(self.assignment):
            buckets.setdefault(c, []).append(v)
        return [tuple(buckets[c]) for c in sorted(buckets)]

    def used_colors(self) -> int:
        return len(set(self.assignment))


def two_coloring(n_vertices: int, cls) -> Coloring:
    """The 2-coloring whose color-2 class is `cls`."""
    S = set(cls)
    return Coloring(tuple(2 if v in S else 1 for v in range(n_vertices)), 2)


@dataclass(frozen=True)
class Witness:
    """A certified parameter value: the set/coloring plus how it was checked."""

    kind: str
    payload: tuple
    verified_by: str  # structured | searched | oracle

    def to_dict(self) -> dict:
        if self.kind == DIST_COLORING:
            payload = list(self.payload)
        else:
            payload = sorted(self.payload)
        return {"kind": self.kind, "payload": payload, "verified_by": self.verified_by}


@dataclass(frozen=True)
class TransitivityReport:
    vertex_transitive: bool
    edge_transitive: bool
    arc_transitive: bool
    distance_transitive: bool

    def __post_init__(self):
        if self.arc_transitive and not (self.vertex_transitive and self.edge_transitive):
            raise AssertionError("arc-transitive but not vertex- and edge-transitive")
        if self.distance_transitive and not self.arc_transitive:
            raise AssertionError("distance-transitive but not arc-transitive")

    def to_dict(self) -> dict:
        return {
            "vertex_transitive": self.vertex_transitive,
            "edge_transitive": self.edge_transitive,
            "arc_transitive": self.arc_transitive,
            "distance_transitive": self.distance_transitive,
        }


def _verified_tag(grp: PermGroup) -> str:
    return "structured" if grp.source == "structured" else "searched"


# ---------------------------------------------------------------------------
# determining sets


def is_determining_set(grp: PermGroup, subset) -> bool:
    """True iff only the identity fixes every vertex of `subset`."""
    return pointwise_stabilizer_is_trivial(grp, subset)


def _determining_leaves(test, state, chosen, pool, start: int, r: int):
    """The extensions of `chosen` (in `state`) by r vertices of pool[start:]
    to a determining set, in lex order.

    Depth-first; a branch is cut as soon as the test's bound says its state
    needs more vertices than the branch has left."""
    if r == 0:
        if test.det_done(state):
            yield chosen
        return
    for i in range(start, len(pool) - r + 1):
        nxt = test.det_add(state, pool[i])
        if test.det_need(nxt) < r:
            yield from _determining_leaves(test, nxt, chosen + (pool[i],), pool, i + 1, r - 1)


def _anchored_leaves(test, size: int, roots: np.ndarray):
    """The determining sets of `size` through vertex 0 whose second vertex r
    is the least vertex of its Stab(0)-orbit and whose others lie in r's
    orbit or a later one, in lex order; `roots` gives each vertex's
    Stab(0)-orbit root, its least vertex."""
    root = test.det_add(test.det_start(), 0)
    if size == 1:
        if test.det_done(root):
            yield (0,)
        return
    if test.det_need(root) >= size:
        return
    for r in np.flatnonzero(roots == np.arange(len(roots)))[1:].tolist():  # past {0}
        state = test.det_add(root, r)
        if test.det_need(state) <= size - 2:
            # a set of size 2 draws nothing from the pool
            pool = (np.flatnonzero(roots[r + 1:] >= r) + r + 1).tolist() if size > 2 else []
            yield from _determining_leaves(test, state, (0, r), pool, 0, size - 2)


def _least_determining(grp: PermGroup, sizes, accept=lambda leaf: True,
                       narrow=None) -> tuple[int, ...] | None:
    """The lex-least determining set that `accept` takes, of the least size
    in `sizes` that has one, or None.  `accept` must be preserved by the
    group's elements.  `narrow(test, size)`, when given, is the test that
    the search of each size runs: the determining test, or one that also
    cuts branches without a set of that size that `accept` takes.

    The leaves come from the depth-first search `_determining_leaves`, in
    lex order; the first that `accept` takes is the answer.  A
    vertex-transitive group (one whose generators hold translations that
    span, `translations_span`, read with no orbit pass; else one whose
    generators give one `orbit_roots` orbit) searches only the anchored
    leaves (`_anchored_leaves`), which hold the lex-least set S that
    `accept` takes: an element moves any such set onto 0, so S holds 0;
    and if its second vertex were not the least of its Stab(0)-orbit, or
    another of its vertices lay in an earlier orbit, an element of Stab(0)
    would move S onto a lex-smaller set that `accept` takes."""
    nv = grp.n_vertices
    plain = determining_test(grp)
    roots = None
    if translations_span(grp) or not orbit_roots(nv, grp.generators).any():  # vertex-transitive
        roots = orbit_roots(nv, pointwise_stabilizer(grp, [0]).generators)
    for size in sizes:
        test = plain if narrow is None else narrow(plain, size)
        leaves = (_anchored_leaves(test, size, roots) if roots is not None
                  else _determining_leaves(test, test.det_start(), (), range(nv), 0, size))
        found = next((s for s in leaves if accept(s)), None)
        if found is not None:
            return found
    return None


def determining_number(g: Graph, grp: PermGroup) -> tuple[int, Witness]:
    """Minimum determining set size with the lexicographically least witness,
    re-checked by `is_determining_set`."""
    if grp.is_trivial():
        return 0, Witness(DETERMINING, (), _verified_tag(grp))
    found = _least_determining(grp, range(1, g.n_vertices + 1))
    if found is None:
        raise SearchBudgetExceeded(f"no determining set up to size {g.n_vertices}")
    if not is_determining_set(grp, found):
        raise AssertionError(f"the search returned a set that is not determining: {found}")
    return len(found), Witness(DETERMINING, found, _verified_tag(grp))


def determining_lower_bound_exhaustive(g: Graph, grp: PermGroup, below: int) -> bool:
    """True iff no determining set of size 1..below-1 exists (pruned exhaustive)."""
    return _least_determining(grp, range(1, below)) is None


# ---------------------------------------------------------------------------
# distinguishing colorings


def is_distinguishing(grp: PermGroup, coloring: Coloring) -> bool:
    """True iff no nontrivial element maps every color class onto itself.

    A coloring with two used colors is settled by the setwise stabilizer of
    its smaller class (`_setwise_trivial`), which the Q_n, halved-cube,
    Hamming, AQ_n and LTQ_n models answer without the element table; any
    other by `_only_identity_keeps` on the table.  Otherwise a group too
    large to enumerate is settled only when some color class is determining
    and induces an asymmetric subgraph: an element keeping the coloring
    maps that class onto itself, so it fixes the class pointwise and is the
    identity.  Otherwise SearchBudgetExceeded is raised."""
    if len(coloring.assignment) != grp.n_vertices:
        raise ValueError("coloring not total on the vertex set")
    if grp.is_trivial():
        return True
    classes = coloring.classes()
    try:
        if len(classes) == 2:
            return _setwise_trivial(grp, min(classes, key=len))
        return _only_identity_keeps(grp, np.array(coloring.assignment, dtype=np.int32))
    except SearchBudgetExceeded:
        pass
    if grp.graph is not None and any(two_class_is_distinguishing(grp.graph, grp, cls)
                                     for cls in classes):
        return True
    raise SearchBudgetExceeded("group too large for an exact coloring check")


def two_class_is_distinguishing(g: Graph, grp: PermGroup, cls) -> bool:
    """Sound test: `cls` is a determining set whose induced subgraph is
    asymmetric, hence a color class of a 2-distinguishing coloring."""
    cls = tuple(cls)
    if not is_determining_set(grp, cls):
        return False
    return is_asymmetric(induced_subgraph(g, cls))


# The rows in the first chunk that `_only_identity_keeps` reads, which the
# d >= 3 scan also sieves its colorings on.
_SIEVE_ROWS = 64


def _least_support(grp: PermGroup) -> np.ndarray:
    """The indices of the element table's rows in the order of how many
    vertices they move, by one stable sort: the identity first and ties in
    table order.  Built once and kept on the group."""
    if grp._by_support is None:
        table = grp.elements()
        moved = (table != np.arange(grp.n_vertices)).sum(axis=1)
        grp._by_support = np.argsort(moved, kind="stable")
    return grp._by_support


def _only_identity_keeps(grp: PermGroup, colors: np.ndarray) -> bool:
    """Whether the identity is the only row of the element table that keeps
    every vertex's color; `colors` is a numpy array of bools or non-negative
    integers over the vertices, compared in whatever dtype the caller chose.

    Only the vertices outside the most common color are compared: an
    element that maps every other class into itself maps each of them onto
    itself, and so the last class too.  The rows are read in
    `_least_support` order, in chunks that start at `_SIEVE_ROWS` and double
    up to `_BLOCK_ROWS`, and the count stops at the second row that keeps
    the coloring.  The rows that move the fewest vertices keep most
    colorings that some non-identity element keeps, so most of those stop
    in the first chunk; the verdict does not depend on the order."""
    table, order = grp.elements(), _least_support(grp)
    rest = np.flatnonzero(colors != np.bincount(colors).argmax())
    kept, start, size = 0, 0, _SIEVE_ROWS
    while kept < 2 and start < len(order):
        rows = order[start:start + size]
        kept += int((colors[table[rows[:, None], rest]] == colors[rest]).all(axis=1).sum())
        start, size = start + size, min(2 * size, _BLOCK_ROWS)
    return kept == 1


def _setwise_trivial(grp: PermGroup, cls) -> bool:
    """Exact setwise-stabilizer triviality: the model's `setwise_trivial`
    where it has one (Q_n, the halved cubes and the Hamming graphs), which
    builds no element table; the setwise stabilizer's order from the model's
    setwise search on AQ_n and LTQ_n; otherwise `_only_identity_keeps` of
    the 2-coloring (class, rest)."""
    if hasattr(grp.model, "setwise_trivial"):
        return grp.model.setwise_trivial(cls)
    if hasattr(grp.model, "setwise_stabilizer"):
        return setwise_stabilizer(grp, cls).order() == 1
    member = np.zeros(grp.n_vertices, dtype=bool)
    member[list(cls)] = True
    return _only_identity_keeps(grp, member)


def _least_class(grp: PermGroup, node_budget: int | None = None) -> tuple[int, ...] | None:
    """The lex-least class with a trivial setwise stabilizer among those of
    the least size up to half the vertices, or None.

    Such a class is determining, since an element fixing it pointwise maps
    it onto itself.  On at most `_EXHAUSTIVE_2_LIMIT` vertices the class is
    read from `_kept_sets`, unless `_root_bound_rules_out_classes`: with
    vertex v at bit V-1-v, the lex order of the sorted k-sets is the
    descending order of their masks, so the class is the largest unmarked
    mask of the least size that has one; it is re-checked by
    `_setwise_trivial`.  On more vertices the determining search, from the
    size `_column_floor` leaves open, tests each of its leaves by
    `_setwise_trivial`, so it visits every such class of those sizes in lex
    order, and setwise triviality is kept under conjugation, as its
    anchoring needs.  Where the translations among the generators span, it
    skips size 2: the translation by u ^ v swaps u and v.  On a row-map
    model a size is searched through `_ScanTest` where it has at most
    `_EXHAUSTIVE_2_LIMIT` column types, for the prefix prune, which cuts no
    class, or where `node_budget` is given, which bounds the vertices that
    the search adds to its nodes over all its sizes."""
    nv = grp.n_vertices
    if nv > _EXHAUSTIVE_2_LIMIT:
        floor = _column_floor(grp.model, nv)
        if floor is None:
            return None
        ticks = None if node_budget is None else iter(range(node_budget))

        def narrow(test, size):
            levels = _prefix_levels(grp.model, size)
            return test if levels is None and ticks is None else _ScanTest(test, levels, ticks)

        span = translations_span(grp)
        sizes = (r for r in range(floor, nv // 2 + 1) if r != 2 or not span)
        row_map = hasattr(grp.model, "setwise_trivial")
        return _least_determining(grp, sizes,
                                  lambda cls: _setwise_trivial(grp, cls),
                                  narrow if row_map else None)
    if _root_bound_rules_out_classes(grp):
        return None
    sizes = np.bitwise_count(np.arange(1 << nv))
    free = ~_kept_sets(grp.elements()) & (sizes >= 1) & (sizes <= nv // 2)
    if not free.any():
        return None
    mask = int(np.flatnonzero(free & (sizes == sizes[free].min()))[-1])
    cls = tuple(v for v in range(nv) if mask >> (nv - 1 - v) & 1)
    if not _setwise_trivial(grp, cls):
        raise AssertionError(f"the kept-set table left a class whose setwise stabilizer "
                             f"is not trivial: {cls}")
    return cls


def _root_bound_rules_out_classes(grp: PermGroup) -> bool:
    """Whether the determining test's bound, after any one vertex, already
    needs half the vertices more (as on K_m for m >= 3).  Then no class
    has a trivial setwise stabilizer: such a class is determining, so it
    and its complement, which has the same setwise stabilizer, would both
    have more than half the vertices."""
    test = determining_test(grp)
    start, nv = test.det_start(), grp.n_vertices
    return min(test.det_need(test.det_add(start, v)) for v in range(nv)) >= nv // 2


def _kept_sets(table: np.ndarray) -> np.ndarray:
    """`kept[m]` for every set m of at most 16 points, with point v at bit
    V-1-v of m: whether some non-identity row of `table` maps m onto
    itself.  `table` must be a group of permutations of the V points, one
    per row, as both callers' tables are: a non-identity row that keeps a
    set has a power of prime order, also a row, that keeps it too, so only
    the rows of prime order are marked, those whose cycles but the fixed
    points all have one prime length.

    A row keeps a set iff the set is a union of the row's cycles.  For each
    chunk of `_BLOCK_ROWS` rows, pointer doubling finds every point's cycle
    leader, its least point (`root = min(root, root[step])`, `step =
    step[step]`, ceil(lg V) times); one `bincount` sums each cycle's point
    bits onto its leader, and their count is the cycle's length; and the
    rows of prime order with t cycles besides point 0's mark the 2^t unions
    of those (`_subset_fold` in uint16), at most `_BLOCK_BYTES` at a time.
    A row keeps a set iff it keeps its complement, mask 2^V-1-m, so the
    unions with point 0's cycle are marked at the end, by one mirror of the
    table.  Raises AssertionError unless exactly one row of the whole table
    is the identity, the only row whose longest cycle is a fixed point."""
    nv = table.shape[1]
    kept = np.zeros(1 << nv, dtype=bool)
    bits = np.tile(1 << np.arange(nv - 1, -1, -1), min(len(table), _BLOCK_ROWS))
    is_prime = np.array([k > 1 and all(k % f for f in range(2, k)) for k in range(nv + 1)])
    identities = 0
    for start in range(0, len(table), _BLOCK_ROWS):
        rows = table[start:start + _BLOCK_ROWS]
        # flat indices into the chunk: each vertex's image, and its leader
        step = (rows.astype(np.int32, copy=False)
                + nv * np.arange(len(rows), dtype=np.int32)[:, None]).ravel()
        root = np.arange(rows.size, dtype=np.int32)
        for _ in range((nv - 1).bit_length()):
            root = np.minimum(root, root.take(step))
            step = step.take(step)
        cycles = np.bincount(root, bits[:rows.size], rows.size)
        cycles = cycles.astype(np.uint16).reshape(rows.shape)
        length = np.bitwise_count(cycles)  # at each leader, 0 elsewhere
        top = length.max(axis=1)
        identities += int(np.count_nonzero(top == 1))
        prime = is_prime[top] & ((length <= 1) | (length == top[:, None])).all(axis=1)
        leader, cycles = length[prime, 1:] > 0, cycles[prime, 1:]  # point 0 leads column 0
        n_cycles = leader.sum(axis=1)
        counts = np.bincount(n_cycles, minlength=nv)
        for t in np.flatnonzero(counts).tolist():
            of_t = n_cycles == t
            masks = cycles[of_t][leader[of_t]].reshape(counts[t], t)
            per = max(1, _BLOCK_BYTES >> (t + 1))  # rows of 2^t uint16 unions
            for first in range(0, len(masks), per):
                unions = _subset_fold(masks[first:first + per].T, np.bitwise_or)
                kept[unions.astype(np.intp)] = True  # faster than a uint16 index
    if identities != 1:
        raise AssertionError("the element table does not have exactly one identity row")
    kept |= kept[::-1]
    return kept


def _extension_counts(table: np.ndarray, member: np.ndarray, chosen: list[int]) -> np.ndarray:
    """For every vertex v outside the class `chosen` (flagged in `member`),
    the number of table rows that keep the class with v added, in one pass;
    len(table) + 1 for the members.

    A row keeps S + {v} iff it sends no member of S out of S and fixes v, or
    it sends exactly one member of S out of S, to v, and sends v into S.  The
    fixed points are counted only on the rows that keep S, `_BLOCK_ROWS` rows
    at a time."""
    nv = len(member)
    images = table[:, chosen]
    leaves = ~member[images]
    n_out = leaves.sum(axis=1)
    counts = np.zeros(nv, dtype=np.intp)
    keeping = np.flatnonzero(n_out == 0)
    for start in range(0, len(keeping), _BLOCK_ROWS):
        counts += (table[keeping[start:start + _BLOCK_ROWS]] == np.arange(nv)).sum(axis=0)
    one = np.flatnonzero(n_out == 1)
    target = images[one][leaves[one]]  # where the one leaving member goes
    back = member[table[one, target]]
    counts += np.bincount(target[back], minlength=nv)
    counts[member] = len(table) + 1
    return counts


def _greedy_two_class(grp: PermGroup) -> tuple[int, ...] | None:
    """Deterministic greedy search for a class with trivial setwise stabilizer.

    Grows the class one vertex at a time, always picking the lex-least vertex
    that minimizes the number of class-preserving group elements, which
    `_extension_counts` gives for every vertex in one pass over the table.
    """
    table = grp.elements()
    member = np.zeros(grp.n_vertices, dtype=bool)
    chosen: list[int] = []
    while len(chosen) <= grp.n_vertices // 2 + 1:
        counts = _extension_counts(table, member, chosen)
        best_v = int(counts.argmin())
        member[best_v] = True
        chosen.append(best_v)
        if counts[best_v] == 1:
            return tuple(sorted(chosen))
    return None


_EXHAUSTIVE_2_LIMIT = 16


def _column_floor(model, n_vertices: int) -> int | None:
    """The least class size up to half the vertices that the column view
    leaves open on a model with a row-map setwise test (Q_n, the halved
    cubes and H(n, m)), or None if it rules out every such size; 1 on any
    other model.

    A set of r words is a class iff its columns have distinct types
    (`column_types`) and no row map other than the identity keeps their
    set (`_RowMapSetwise`); on the halved cube the types of the translated
    extended columns also XOR to 0.  So a size r is ruled out when
    `_type_masks` leaves no open set.  The first size with more than
    `_EXHAUSTIVE_2_LIMIT` types is left open, since `_kept_sets` does not
    reach it.  Only the model's shape is read, not its group."""
    if not hasattr(model, "setwise_trivial"):
        return 1
    return next((r for r in range(1, n_vertices // 2 + 1)
                 if (masks := _type_masks(model.m, model.columns, model.even_words, r)) is None
                 or len(masks)), None)


def floor_is_exact(model, n_vertices: int) -> bool:
    """Whether the column floor of a row-map model on `n_vertices` is
    exact: its size has at most `_EXHAUSTIVE_2_LIMIT` types and so an open
    type set.  Then a class of that size exists: the rows of an open set's
    types are distinct words, since a row map swapping two equal rows would
    keep every type, and on the halved cube they have even weight, as the
    types XOR to 0."""
    floor = _column_floor(model, n_vertices)
    return (floor is not None
            and _type_masks(model.m, model.columns, model.even_words, floor) is not None)


@cache
def _type_masks(m: int, columns: int, even_words: bool, r: int) -> np.ndarray | None:
    """The masks of the open sets (`_open_type_sets`) of the column types
    of r rows on a row-map model whose words have `columns` columns over m
    symbols, ascending and read-only; empty when there are fewer types than
    columns, and None when there are more than `_EXHAUSTIVE_2_LIMIT`.  They
    depend on that shape alone, so they are computed once per process for
    the floor and the prefix prune of every group."""
    types = column_types(r, m)
    if len(types) > _EXHAUSTIVE_2_LIMIT:
        return None
    masks = np.zeros(0, dtype=np.intp)
    if len(types) >= columns:
        masks = np.flatnonzero(_open_type_sets(m, columns, even_words, types))
    masks.flags.writeable = False
    return masks


def _prefix_levels(model, size: int) -> list[tuple[dict, np.ndarray]] | None:
    """For j = 1..size, the prefix table of the open type sets of `size`
    rows of a row-map model (`_type_masks`), or None past
    `_EXHAUSTIVE_2_LIMIT` types.

    A type's length-j prefix is the restricted-growth string of its first j
    rows, coded in base m with the first row highest, as the models'
    `column_codes` code a column.  Level j is a dict from each such code to
    its rank among the codes, below 16, and the sorted keys of the open
    sets' multisets of prefixes: the sum of 16^rank over a set's types,
    at every level at once, as the sums over the first types and over the
    last ones (`_subset_fold` of each half of the mask).  An open set has
    fewer types than the 16 that the type list may hold, so each count fits
    its 4 bits; a level whose prefixes take all 16 ranks has counts of at
    most 1, so every key is below 2^61, an int64, which `searchsorted`
    compares with a Python int exactly."""
    masks = _type_masks(model.m, model.columns, model.even_words, size)
    if masks is None:
        return None
    types = column_types(size, model.m)
    codes = np.zeros(len(types), dtype=np.int64)
    ranks, weights = [], []
    for j in range(size):
        codes = codes * model.m + types[:, j]
        rank = np.searchsorted(np.sort(codes), codes)
        ranks.append(dict(zip(codes.tolist(), rank.tolist())))
        weights.append(1 << 4 * rank)
    weights, low = np.column_stack(weights), len(types) // 2
    keys = (_subset_fold(weights[:len(types) - low], np.add)[masks >> low]
            + _subset_fold(weights[len(types) - low:], np.add)[masks & (1 << low) - 1])
    return list(zip(ranks, np.sort(keys.T, axis=1)))


def _subset_fold(values: np.ndarray, op) -> np.ndarray:
    """`op` (a numpy ufunc) folded over each set of the rows of `values`,
    row t at bit T-1-t of the set's mask, for all 2^T masks, with zeros
    for the empty set: filled by doubling."""
    n = len(values)
    out = np.zeros((1 << n,) + values.shape[1:], dtype=values.dtype)
    for b in range(n):  # bit b is row T-1-b
        op(out[:1 << b], values[n - 1 - b], out=out[1 << b:2 << b])
    return out


class _ScanTest:
    """The determining test of a row-map model for the class scan of one
    size.  Its state also counts the words, and where `levels`
    (`_prefix_levels`) is not None, that is, the size has at most
    `_EXHAUSTIVE_2_LIMIT` column types, a node of j words is cut, by a need
    of `size` more, unless its columns' codes (`column_codes`) are the
    length-j prefixes of some open type set's, as multisets.  Where `ticks`,
    an iterator that the searches of every size share, is not None, it
    takes one tick per vertex added to a node, and raises
    SearchBudgetExceeded when they run out.

    A node fixes each column's first j rows, and the prefix of a
    restricted-growth string is the restricted-growth string of the
    prefix; a class's columns have the types of an open set, whatever the
    order of its words, so no node above a class is cut.  At j = size the
    node's types are an open set, which `setwise_trivial` re-checks."""

    def __init__(self, test, levels: list[tuple[dict, np.ndarray]] | None, ticks):
        self.test, self.levels, self.ticks = test, levels, ticks

    def det_start(self):
        return self.test.det_start(), 0

    def det_add(self, state, v: int):
        if self.ticks is not None and next(self.ticks, None) is None:
            raise SearchBudgetExceeded("the class scan ran out of its node budget")
        return self.test.det_add(state[0], v), state[1] + 1

    def det_need(self, state) -> int:
        inner, j = state
        if j and self.levels is not None:
            ranks, keys = self.levels[j - 1]
            key = 0
            for code in self.test.column_codes(inner):
                if code not in ranks:
                    return len(self.levels)
                key += 1 << 4 * ranks[code]
            at = int(np.searchsorted(keys, key))
            if at == len(keys) or keys[at] != key:
                return len(self.levels)
        return self.test.det_need(inner)

    def det_done(self, state) -> bool:
        return self.test.det_done(state[0])


def _open_type_sets(m: int, columns: int, even_words: bool, types: np.ndarray) -> np.ndarray:
    """`open[mask]` for every set of the column types over m symbols (type
    t at bit T-1-t, T at most 16): whether the set has `columns` types, no
    row map but the identity keeps it, and, when `even_words` (the halved
    cube), its types XOR to 0, as the translated extended columns of words
    of even weight do.

    `_kept_sets` reads the row maps' action on the types as its table; when
    a row map other than the identity keeps every type, it keeps every
    set.  The XOR of every set is read from `_subset_fold`."""
    n_types = len(types)
    action = row_map_action(types, m)
    if np.count_nonzero((action == np.arange(n_types)).all(axis=1)) > 1:
        return np.zeros(1 << n_types, dtype=bool)
    found = ~_kept_sets(action) & (np.bitwise_count(np.arange(1 << n_types)) == columns)
    if even_words:
        found &= _subset_fold(types @ (1 << np.arange(types.shape[1])), np.bitwise_xor) == 0
    return found


def distinguishing_number(g: Graph, grp: PermGroup,
                          class_candidates=()) -> tuple[int, Witness]:
    """Least d with a distinguishing d-coloring, plus a checked witness.

    `class_candidates` are externally constructed 2-class suggestions (from
    the family witness constructions); each is verified before use, by the
    sound test and then by its setwise stabilizer.  Then, on an enumerable
    group, the greedy class, except on a row-map model (Q_n, the halved
    cubes and H(n, m)) of more than `_EXHAUSTIVE_2_LIMIT` vertices where
    the column floor rules out every size or `floor_is_exact`.  Where that
    gives no class, the class scan `_least_class` on at most
    `_EXHAUSTIVE_2_LIMIT` vertices or a row-map model, and on the former
    d >= 3 if it finds none; on the latter no class proves dist >= 3, which
    the d >= 3 scan cannot settle.  The scan of a row-map model may add
    as many vertices to its nodes as the greedy's table may have rows,
    `DEFAULT_ELEMENT_CAP`.  On at most `_EXHAUSTIVE_2_LIMIT` vertices the
    greedy and the class scan are skipped when
    `_root_bound_rules_out_classes`.
    """
    nv = g.n_vertices
    tag = _verified_tag(grp)
    if grp.is_trivial():
        return 1, Witness(DIST_COLORING, tuple([1] * nv), tag)

    def two(cls) -> tuple[int, Witness]:
        return 2, Witness(DIST_COLORING, two_coloring(nv, cls).assignment, tag)

    for cand in class_candidates:
        if two_class_is_distinguishing(g, grp, cand):
            return two(cand)
    too_large = "group too large to settle the distinguishing number"
    row_map = nv > _EXHAUSTIVE_2_LIMIT and hasattr(grp.model, "setwise_trivial")
    cls = None
    try:
        for cand in class_candidates:
            if _setwise_trivial(grp, cand):
                return two(cand)
        if nv <= _EXHAUSTIVE_2_LIMIT and _root_bound_rules_out_classes(grp):
            return _distinguishing_d3(grp, tag)
        if not (row_map and (_column_floor(grp.model, nv) is None
                             or floor_is_exact(grp.model, nv))):
            cls = _greedy_two_class(grp)
    except SearchBudgetExceeded:
        if not row_map:
            raise SearchBudgetExceeded(too_large) from None
    if cls is not None:
        if not _setwise_trivial(grp, cls):
            raise AssertionError(f"the greedy class's setwise stabilizer is not trivial: {cls}")
        return two(cls)
    if nv > _EXHAUSTIVE_2_LIMIT and not row_map:
        raise SearchBudgetExceeded(
            "no 2-distinguishing class found and the graph is too large for "
            "an exhaustive scan")
    try:
        cls = _least_class(grp, DEFAULT_ELEMENT_CAP)
    except SearchBudgetExceeded:
        raise SearchBudgetExceeded(too_large) from None
    if cls is None and row_map:
        raise SearchBudgetExceeded(
            "dist >= 3, as no class has a trivial setwise stabilizer, but the d >= 3 "
            f"scan needs at most {_EXHAUSTIVE_2_LIMIT} vertices")
    if cls is None:
        return _distinguishing_d3(grp, tag)
    if not _setwise_trivial(grp, cls):
        raise AssertionError(f"the class scan returned a class whose setwise stabilizer "
                             f"is not trivial: {cls}")
    return two(cls)


# Colorings per block of the d >= 3 scan and table rows read per chunk by
# `_only_identity_keeps`, `_kept_sets` and the greedy counts; and the bytes
# of one chunk of `_kept_sets` unions.
_BLOCK_ROWS = 4096
_BLOCK_BYTES = 1 << 21


def _distinguishing_d3(grp: PermGroup, tag: str) -> tuple[int, Witness]:
    """dist >= 3 established; the least d and the first distinguishing
    coloring in restricted-growth order that uses all d colors.

    Each block of colorings (`_rgs_blocks`) is sieved on the non-identity
    rows among the first `_SIEVE_ROWS` in `_least_support` order (the
    identity is row 0).  The pairs (v, row[v]) of two prefix points are
    settled for every row at once on the block's shared prefix: a row that
    breaks one keeps no coloring of the block and is skipped, and a row
    that moves only prefix points and breaks none keeps every coloring, so
    the block is dropped unbuilt.  The other rows are applied one at a
    time, until the block is empty, each compared only on its open pairs
    (the moved points v with v or row[v] past the prefix), on the block
    held column-major as int8, one colour vector per vertex.
    A coloring that a non-identity row keeps is not distinguishing, so the
    sieve drops no distinguishing coloring and keeps the order; the
    colorings it leaves are tested in order by `_only_identity_keeps`, and
    the first that test takes is the witness."""
    nv = grp.n_vertices
    rows = grp.elements()[_least_support(grp)[1:_SIEVE_ROWS]]
    points = np.arange(nv)
    # d = V is settled below from V = 4 on, where d = V - 1 >= 3 has been
    # scanned; for V = 3 that needs d = 2 ruled out, which a direct call
    # on a 3-vertex graph has not done, so d = 3 is scanned
    for d in range(3, max(nv, 4)):
        pairs = None
        for prefix, suffixes in _rgs_blocks(nv, d, _BLOCK_ROWS):
            if pairs is None:  # the prefix length is the same for every block of d
                p = len(prefix)
                inner = rows[:, :p] < p
                head = np.where(inner, rows[:, :p], 0)
                within = (rows[:, p:] == points[p:]).all(axis=1)
                at, moved = np.nonzero((rows != points) & ((points >= p) | (rows >= p)))
                cuts = np.cumsum(np.bincount(at, minlength=len(rows)))[:-1]
                pairs = list(zip(np.split(rows[at, moved], cuts), np.split(moved, cuts)))
            broken = ((prefix[head] != prefix) & inner).any(axis=1)
            if (within & ~broken).any():
                continue
            block = _rgs_block(prefix, suffixes)
            for i in np.flatnonzero(~broken).tolist():
                if not block.shape[1]:
                    break
                images, moved = pairs[i]
                block = block[:, (block[images] != block[moved]).any(axis=0)]
            for colors in block.T:
                if _only_identity_keeps(grp, colors):
                    return d, Witness(DIST_COLORING, tuple(int(c) + 1 for c in colors), tag)
    # No colouring with V - 1 >= 3 colours, one pair sharing a colour, is
    # distinguishing only if the transposition of every pair is an element:
    # the symmetric group.  Its one colouring with V colours, all distinct,
    # only the identity keeps.
    if grp.order() != factorial(nv):
        raise AssertionError(f"the d >= 3 scan left only the all-distinct coloring, "
                             f"but the group of order {grp.order()} is not S_{nv}")
    return nv, Witness(DIST_COLORING, tuple(range(1, nv + 1)), tag)


def _rgs_blocks(n: int, d: int, max_rows: int):
    """The strings of `_rgs_partitions(n, d, d)`, those that use all d
    colors, in its order, in blocks of at most `max_rows` that share a
    prefix: yields each prefix of n - L colors that can still reach d
    colors, as int8, with the suffixes of length L that follow it, an int8
    array of L rows with one column per suffix (`_rgs_block` writes them
    under the prefix).  L is the longest length below n whose d^L strings
    fit in `max_rows`.

    One base-d digit table of the d^L strings in lex order serves every
    prefix.  A string may follow a prefix whose largest color is `top` iff
    `top` is at least its need, the largest c - 1 over its colors c above
    its running maximum plus 1 (0 if none), and the string or `top`
    reaches d - 1; the strings of each `top` are gathered once."""
    length = 0
    while length < n - 1 and d ** (length + 1) <= max_rows:
        length += 1
    digits = np.indices((d,) * length, dtype=np.int8).reshape(length, d ** length)
    need = np.zeros(d ** length, dtype=np.int8)
    peak = np.full(d ** length, -1, dtype=np.int8)  # each string's running maximum
    for colors in digits:
        need = np.maximum(need, np.where(colors > peak + 1, colors - 1, 0))
        peak = np.maximum(peak, colors)
    suffixes = {top: np.compress((need <= top) & ((peak == d - 1) | (top == d - 1)), digits,
                                 axis=1)
                for top in range(max(0, d - 1 - length), d)}
    for prefix in _rgs_partitions(n - length, d, d - length):
        yield np.array(prefix, dtype=np.int8), suffixes[max(prefix)]


def _rgs_block(prefix: np.ndarray, suffixes: np.ndarray) -> np.ndarray:
    """A block of `_rgs_blocks`: the prefix over each of its suffixes, as
    an int8 array with a row per vertex and a column per coloring."""
    block = np.empty((len(prefix) + len(suffixes), suffixes.shape[1]), dtype=np.int8)
    block[:len(prefix)] = prefix[:, None]
    block[len(prefix):] = suffixes
    return block


# ---------------------------------------------------------------------------
# cost of 2-distinguishing


def cost_2dist(g: Graph, grp: PermGroup) -> tuple[int, Witness]:
    """Minimum color-class size over 2-distinguishing colorings.

    The class scan `_least_class` tries the sizes up to half the vertex
    count, which a minimum class never exceeds; on more than 16 vertices
    it starts at `_column_floor`, below which no size holds a class, and
    otherwise at 1.  So it is complete, and it finds no class exactly when
    the graph is not 2-distinguishable.  No class is smaller than the
    determining number, since every class it accepts is determining.
    """
    tag = _verified_tag(grp)
    if grp.is_trivial():
        # the empty class already has a trivial setwise stabilizer
        return 0, Witness(COST_CLASS, (), tag)
    cls = _least_class(grp)
    if cls is None:
        raise NotTwoDistinguishable(
            "no color class has a trivial setwise stabilizer, so dist >= 3")
    return len(cls), Witness(COST_CLASS, cls, tag)


# ---------------------------------------------------------------------------
# asymmetry and transitivity


def is_asymmetric(g: Graph) -> bool:
    """True iff the only automorphism is the identity; the search stops at
    the first other one."""
    return not has_nontrivial_automorphism(g)


def _search_tree(gens: np.ndarray, source: int, target: int | None = None):
    """Breadth-first search from `source` over the generator rows `gens`:
    the levels of points it reaches, as arrays, and per vertex the point it
    was reached from and the generator that took it there (-1 where it was
    not reached).  With a `target` it stops at the level that reaches it."""
    nv = gens.shape[1]
    parent = np.full(nv, -1, dtype=np.int64)
    via = np.full(nv, -1, dtype=np.int64)
    parent[source] = source
    levels = [np.array([source])]
    while len(levels[-1]) and (target is None or parent[target] < 0):
        frontier = levels[-1]
        points = gens[:, frontier].ravel()  # generator-major
        fresh = np.flatnonzero(parent[points] < 0)
        new, first = np.unique(points[fresh], return_index=True)
        parent[new] = frontier[fresh[first] % len(frontier)]
        via[new] = fresh[first] // len(frontier)
        levels.append(new)
    return levels, parent, via


def _element_taking(gens: np.ndarray, x: int, a: int) -> np.ndarray:
    """The image row of an element mapping x to a: the generators along the
    search-tree path from x to a, composed."""
    _, parent, via = _search_tree(gens, x, a)
    if parent[a] < 0:
        raise AssertionError(f"{a} is not in the orbit of {x}")
    steps = []
    while a != x:
        steps.append(via[a])
        a = parent[a]
    row = np.arange(gens.shape[1], dtype=gens.dtype)
    for i in reversed(steps):
        row = gens[i][row]
    return row


def _schreier_roots(gens: np.ndarray, a: int, nbrs: np.ndarray) -> np.ndarray:
    """A root per neighbour of a (`nbrs`), shared by two iff Stab(a) maps
    one to the other, for a group known only by its generators.

    By Schreier's lemma Stab(a) is generated by u_y^-1 s u_x for each
    generator s and each x in a's orbit, y = s(x), where u_x maps a to x
    along a search tree from a.  Each maps N(a) onto itself, so only u_x's
    values on N(a), the neighbours of x, are built: row x of `on` lists
    u_x(nbrs).  s u_x and u_y list the same vertices, and the Schreier
    generator maps the i-th neighbour of a to the j-th where the i-th of
    the one is the j-th of the other."""
    levels, parent, via = _search_tree(gens, a)
    orbit = np.concatenate(levels)
    at = np.empty(gens.shape[1], dtype=np.int64)
    at[orbit] = np.arange(len(orbit))
    on = np.empty((len(orbit), len(nbrs)), dtype=gens.dtype)
    on[0] = nbrs
    for new in levels[1:]:
        on[at[new]] = gens[via[new][:, None], on[at[parent[new]]]]
    roots = np.arange(len(nbrs), dtype=np.int32)
    for s in gens:
        images, targets = s[on], on[at[s[orbit]]]
        moves = np.empty_like(images)
        np.put_along_axis(moves, np.argsort(images, axis=1), np.argsort(targets, axis=1), axis=1)
        roots = orbit_roots(len(nbrs), np.vstack([moves, roots]))
    return roots


def _one_edge_orbit(gens: np.ndarray, a: int, nbrs: np.ndarray, roots: np.ndarray) -> bool:
    """Whether the edges meeting a form one orbit, for a group that is
    transitive on the ends of those edges; `roots` gives the Stab(a)-orbit
    of each neighbour in `nbrs`.

    The arcs (a, x) of one Stab(a)-orbit make up one arc orbit, and
    reversing arcs pairs the arc orbits, keeping their sizes.  So one
    Stab(a)-orbit is one edge orbit; three or more, or two of unequal
    sizes, are more than one.  Two of equal size are one edge orbit iff an
    element h with h(x) = a for an x of the first maps a into the second:
    h reverses the arc (a, x) into (h(a), a) (Sims, 1967; Godsil & Royle,
    *Algebraic Graph Theory*, ch. 3)."""
    labels, sizes = np.unique(roots, return_counts=True)
    if len(labels) <= 1:
        return True
    if len(labels) > 2 or sizes[0] != sizes[1]:
        return False
    x = int(nbrs[roots == labels[0]][0])
    h = _element_taking(gens, x, a)
    if h[x] != a or h[a] not in nbrs:
        raise AssertionError(f"the element built to map {x} to {a} does not reverse their edge")
    return bool(h[a] in nbrs[roots == labels[1]])


def _edge_transitive_between_orbits(g: Graph, grp: PermGroup, orbit_of: np.ndarray) -> bool:
    """Edge-transitivity of a group that is not vertex-transitive, whose
    vertex orbits are given by their least vertices `orbit_of`.

    Every edge must join the same two orbits X and Y, and then the edge
    orbits are read at one end a, the least vertex of X, from the
    Stab(a)-orbits on N(a) (`_schreier_roots`): from X to Y they match, and
    within X (X = Y) `_one_edge_orbit` decides."""
    u, v = g.ends
    if not len(u):
        return True
    ends = np.sort(np.stack([orbit_of[u], orbit_of[v]]), axis=0)
    if (ends != ends[:, :1]).any():
        return False
    a = int(ends[0, 0])
    nbrs = np.array(g.neighbors(a))
    roots = _schreier_roots(grp.generators, a, nbrs)
    if ends[0, 0] != ends[1, 0]:
        return len(np.unique(roots)) == 1
    return _one_edge_orbit(grp.generators, a, nbrs, roots)


def transitivity_report(g: Graph, grp: PermGroup) -> TransitivityReport:
    """Vertex/edge/arc/distance transitivity from the orbits of one vertex's
    stabilizer; no edge is mapped.

    For a vertex-transitive group, the orbit of an ordered pair (u, v) holds
    the pair (0, x) exactly for the x of one Stab(0)-orbit.  So the group is
    arc-transitive iff the neighbors of 0 are one such orbit, and
    distance-transitive iff each distance sphere around 0, and the set of
    vertices 0 cannot reach, is one; otherwise `_one_edge_orbit` decides
    edge-transitivity.  Arc- and distance-transitivity include
    vertex-transitivity, so a graph that is not vertex-transitive is neither,
    even if its arcs form one orbit (an edge plus an isolated vertex); its
    edge-transitivity is `_edge_transitive_between_orbits`.  A group whose
    generators hold translations that span (`translations_span`) is
    vertex-transitive with no orbit pass over its generators."""
    if g.n_vertices == 0:
        return TransitivityReport(True, True, True, True)
    nv = g.n_vertices
    if not translations_span(grp):
        orbit_of = orbit_roots(nv, grp.generators)
        if orbit_of.any():
            return TransitivityReport(False, _edge_transitive_between_orbits(g, grp, orbit_of),
                                      False, False)
    # a Stab(0)-orbit keeps the distance from 0, so a sphere is one orbit iff
    # its vertices share one root; level 0 holds the unreachable vertices
    roots = orbit_roots(nv, pointwise_stabilizer(grp, [0]).generators)
    distance = distances_from(g, 0)
    pairs = np.sort((distance + 1).astype(np.int64) * nv + roots)
    # the roots per level, 0 where no vertex lies at that level
    n_roots = np.bincount(pairs[np.diff(pairs, prepend=-1) != 0] // nv)
    arc_t = bool((n_roots[2:3] <= 1).all())
    distance_t = bool((n_roots <= 1).all())
    if arc_t:
        return TransitivityReport(True, True, True, distance_t)
    nbrs = np.flatnonzero(distance == 1)
    return TransitivityReport(True, _one_edge_orbit(grp.generators, 0, nbrs, roots[nbrs]),
                              False, False)
