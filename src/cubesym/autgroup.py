"""Automorphism groups of the word families.

A group's generators and its elements are image rows, int32 arrays of
vertex images; a structured group's model builds them in closed form.  On
the 2^n words, a model whose generators are affine maps x -> Lx ^ c holds
them as (L, c) (`Affine`), checked with no image row on the connection
sets of a graph held by them (`Graph.masks`: a Cayley graph of Z_2^n, or
LTQ_n's twisted form); their rows are built only when a reader asks for
them.  Composition convention throughout: (sigma o tau)(v) =
sigma(tau(v)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, prod
from typing import NamedTuple

import numpy as np

from .bitgraph import (
    AUGMENTED,
    DEFAULT_ELEMENT_BYTES,
    ENHANCED,
    FOLDED,
    HAMMING,
    HYPERCUBE,
    LOCALLY_TWISTED,
    POWER,
    FamilySpec,
    Graph,
    _CHECK_BYTES,
)
from .errors import NoStructuredForm, ParameterOutOfRange, SearchBudgetExceeded
from .rowmaps import moving_row_map

DEFAULT_ELEMENT_CAP = 2_000_000


# ---------------------------------------------------------------------------
# image rows
#
# A permutation of the vertices is its image row, an int32 array whose entry v
# is the image of v; a k x V array holds k of them.  Row sigma after row tau
# is sigma[tau], since (sigma o tau)(v) = sigma(tau(v)).


def _linear_rows(n: int, unit_images, shifts=0) -> np.ndarray:
    """The rows of the maps v -> L(v) + c of the n-bit words, L GF(2)-linear
    with images `unit_images[k][b]` of the single bits 1 << b and c
    `shifts[k]` (0 by default), built in place by doubling: the words with
    bit b set are those below 2^b XOR bit b."""
    bits = np.array(unit_images, dtype=np.int32).reshape(-1, n)
    rows = np.empty((len(bits), 1 << n), dtype=np.int32)
    rows[:, 0] = shifts
    for b in range(n):
        np.bitwise_xor(rows[:, :1 << b], bits[:, b:b + 1], out=rows[:, 1 << b:2 << b])
    return rows


def gf2_rank(words) -> int:
    """The GF(2) rank of the words (Python ints): each is reduced by the
    basis word with its highest bit, if any, until it joins the basis under
    a highest bit of its own or vanishes."""
    basis: dict[int, int] = {}
    for t in words:
        while t:
            top = t.bit_length()
            if top not in basis:
                basis[top] = t
                break
            t ^= basis[top]
    return len(basis)


class Affine(NamedTuple):
    """k affine maps x -> Lx ^ c of the n-bit words: `units[i, b]` is the
    image of the single bit 1 << b under L_i, and `shifts[i]` is c_i, as
    int64 arrays of k x n and k entries."""

    units: np.ndarray
    shifts: np.ndarray

    @classmethod
    def of(cls, n: int, unit_images, shifts) -> Affine:
        return cls(np.array(unit_images, dtype=np.int64).reshape(-1, n),
                   np.array(shifts, dtype=np.int64))

    def take(self, which) -> Affine:
        return Affine(self.units[which], self.shifts[which])

    def translations(self) -> np.ndarray:
        """The mask of the maps whose L is the identity."""
        return (self.units == 1 << np.arange(self.units.shape[1])).all(axis=1)

    def rows(self) -> np.ndarray:
        """The maps' image rows; translations' by one XOR, with no doubling."""
        n = self.units.shape[1]
        if self.translations().all():
            return np.arange(1 << n, dtype=np.int32) ^ self.shifts[:, None].astype(np.int32)
        return _linear_rows(n, self.units, self.shifts)


# the eight automorphisms of an augmented cube that fix the zero vertex,
# given as patterns on (first bit, middle block of n-3 bits, last two bits);
# middle ops, as indices into the stacked middles: keep, complement,
# reverse, complement-of-reverse
_KEEP, _COMP, _REV, _CREV = range(4)

_AQ_BASE_PATTERNS = {
    1: {(0, 0b00): (0, _KEEP, 0b00), (0, 0b01): (0, _KEEP, 0b01),
        (0, 0b10): (0, _KEEP, 0b10), (0, 0b11): (0, _KEEP, 0b11),
        (1, 0b00): (1, _KEEP, 0b00), (1, 0b01): (1, _KEEP, 0b01),
        (1, 0b10): (1, _KEEP, 0b10), (1, 0b11): (1, _KEEP, 0b11)},
    2: {(0, 0b00): (0, _KEEP, 0b00), (0, 0b01): (0, _KEEP, 0b01),
        (0, 0b10): (0, _KEEP, 0b10), (0, 0b11): (0, _KEEP, 0b11),
        (1, 0b00): (1, _COMP, 0b11), (1, 0b01): (1, _COMP, 0b10),
        (1, 0b10): (1, _COMP, 0b01), (1, 0b11): (1, _COMP, 0b00)},
    3: {(0, 0b00): (0, _KEEP, 0b00), (0, 0b01): (0, _KEEP, 0b10),
        (0, 0b10): (0, _KEEP, 0b01), (0, 0b11): (0, _KEEP, 0b11),
        (1, 0b00): (1, _KEEP, 0b00), (1, 0b01): (1, _KEEP, 0b10),
        (1, 0b10): (1, _KEEP, 0b01), (1, 0b11): (1, _KEEP, 0b11)},
    4: {(0, 0b00): (0, _KEEP, 0b00), (0, 0b01): (0, _KEEP, 0b10),
        (0, 0b10): (0, _KEEP, 0b01), (0, 0b11): (0, _KEEP, 0b11),
        (1, 0b00): (1, _COMP, 0b11), (1, 0b01): (1, _COMP, 0b01),
        (1, 0b10): (1, _COMP, 0b10), (1, 0b11): (1, _COMP, 0b00)},
    5: {(0, 0b00): (0, _REV, 0b00), (0, 0b01): (1, _CREV, 0b11),
        (0, 0b10): (1, _REV, 0b00), (0, 0b11): (0, _CREV, 0b11),
        (1, 0b00): (0, _REV, 0b10), (1, 0b01): (1, _CREV, 0b01),
        (1, 0b10): (1, _REV, 0b10), (1, 0b11): (0, _CREV, 0b01)},
    6: {(0, 0b00): (0, _REV, 0b00), (0, 0b01): (1, _CREV, 0b11),
        (0, 0b10): (1, _REV, 0b00), (0, 0b11): (0, _CREV, 0b11),
        (1, 0b00): (0, _REV, 0b01), (1, 0b01): (1, _CREV, 0b10),
        (1, 0b10): (1, _REV, 0b01), (1, 0b11): (0, _CREV, 0b10)},
    7: {(0, 0b00): (0, _REV, 0b00), (0, 0b01): (1, _REV, 0b00),
        (0, 0b10): (1, _CREV, 0b11), (0, 0b11): (0, _CREV, 0b11),
        (1, 0b00): (0, _REV, 0b10), (1, 0b01): (1, _REV, 0b10),
        (1, 0b10): (1, _CREV, 0b01), (1, 0b11): (0, _CREV, 0b01)},
    8: {(0, 0b00): (0, _REV, 0b00), (0, 0b01): (1, _REV, 0b00),
        (0, 0b10): (1, _CREV, 0b11), (0, 0b11): (0, _CREV, 0b11),
        (1, 0b00): (0, _REV, 0b01), (1, 0b01): (1, _REV, 0b01),
        (1, 0b10): (1, _CREV, 0b10), (1, 0b11): (0, _CREV, 0b10)},
}


def _aq_units(n: int) -> np.ndarray:
    """The images of the single bits under the eight base maps, 8 x n.  The
    maps are linear (the tests rebuild every word's image from its
    pattern), so these give them.  Bits 0 and 1 are the last two bits'
    patterns (0, 0b01) and (0, 0b10), and bit n-1 the first bit's (1,
    0b00), each with an empty middle, which a complementing middle op fills;
    (0, 0b00) keeps a middle bit b, 2 <= b <= n-2, or under a reversing op
    sends it to bit n-b."""
    if n < 4:
        raise ParameterOutOfRange("augmented base maps need n >= 4")
    middle = ((1 << (n - 3)) - 1) << 2
    out = []
    for idx in range(1, 9):
        pattern = _AQ_BASE_PATTERNS[idx]
        ends = [(f2 << (n - 1)) | (middle if op in (_COMP, _CREV) else 0) | l2
                for f2, op, l2 in (pattern[0, 0b01], pattern[0, 0b10], pattern[1, 0b00])]
        reverse = pattern[0, 0b00][1] == _REV
        out.append(ends[:2] + [1 << (n - b if reverse else b) for b in range(2, n - 1)] + ends[2:])
    return np.array(out, dtype=np.int64)


def aq_base_rows(n: int) -> np.ndarray:
    """The 8 x 2^n rows of the eight augmented-cube automorphisms fixing
    zero."""
    return _linear_rows(n, _aq_units(n))


def aq_base(n: int, idx: int) -> np.ndarray:
    """The row of one of the eight augmented-cube automorphisms fixing zero."""
    rows = aq_base_rows(n)
    if not 1 <= idx <= 8:
        raise ParameterOutOfRange(f"base index {idx} not in 1..8")
    return rows[idx - 1]


def fq_phi_extend(n: int, symbol_perm) -> np.ndarray:
    """The row of the folded-cube automorphism fixing zero that permutes the
    n+1 symbols.

    `symbol_perm[j]` is the image symbol of symbol j (0-based; symbol n is
    the all-ones word).
    """
    if n < 4:
        raise ParameterOutOfRange("folded structured form needs n >= 4")
    sp = tuple(symbol_perm)
    if sorted(sp) != list(range(n + 1)):
        raise ParameterOutOfRange("not a permutation of the n+1 symbols")
    pi = [0] * (n + 1)
    for j, img in enumerate(sp):
        pi[img] = j
    return _linear_rows(n, FoldedModel(n).perm_units([pi]))[0]


# ---------------------------------------------------------------------------
# groups


@dataclass
class PermGroup:
    """A set of automorphisms closed under composition, given by generators,
    a k x V int32 array of image rows (k may be 0), or by their affine form
    `affine` on V = 2^n words, from which `generators` builds the rows on
    first read.

    `model` is the closed form of a structured group.  `base` is set on a
    searched group: the vertices b_1, b_2, ... that its search fixed in turn,
    such that the generators fixing b_1..b_i generate the stabilizer of
    b_1..b_i (a strong generating set), whose chain (`chain()`, built once)
    gives `order_known`, when that is not given, and the element table.

    `_by_support` caches the indices of the element table's rows in the
    order of how many vertices they move, identity first and ties in table
    order (kept by `symmetry`).
    """

    n_vertices: int
    _generators: np.ndarray | None
    order_known: int | None = None
    source: str = "explicit"
    graph: Graph | None = None
    model: GroupModel | None = None
    base: tuple[int, ...] | None = None
    affine: Affine | None = None
    _elements: np.ndarray | None = field(default=None, repr=False)
    _fixers: list[int] | None = field(default=None, repr=False)
    _by_support: np.ndarray | None = field(default=None, repr=False)
    _chain: list[np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.order_known is None and self.base is not None:
            self.order_known = prod(map(len, self.chain()))

    @property
    def generators(self) -> np.ndarray:
        if self._generators is None:
            self._generators = self.affine.rows()
        return self._generators

    def chain(self) -> list[np.ndarray]:
        """The transversals of the base (`transversals`), kept."""
        if self._chain is None:
            self._chain = transversals(self.generators, self.base)
        return self._chain

    def order(self) -> int:
        if self.order_known is None:
            self.elements()
        return self.order_known

    def is_trivial(self) -> bool:
        return self.order() == 1

    def elements(self) -> np.ndarray:
        """The element table: a |G| x V int32 array of image rows, in no
        promised order, from the model or the stabilizer chain, kept.  A
        table above `DEFAULT_ELEMENT_CAP` rows or `DEFAULT_ELEMENT_BYTES`
        bytes raises SearchBudgetExceeded before it is built."""
        if self._elements is None:
            if self.model is None and self.base is None:
                raise ValueError("a group with neither a model nor a base has no element table")
            if self.order_known > DEFAULT_ELEMENT_CAP:
                raise SearchBudgetExceeded(f"group of order {self.order_known} above element "
                                           f"cap {DEFAULT_ELEMENT_CAP}")
            nbytes = 4 * self.order_known * self.n_vertices
            if nbytes > DEFAULT_ELEMENT_BYTES:
                raise SearchBudgetExceeded(f"the element table of {self.order_known} rows would "
                                           f"need {nbytes} bytes, above {DEFAULT_ELEMENT_BYTES}")
            table = (self.model.enumerate() if self.model is not None
                     else _chain_table(self.generators, self.base, self.chain()))
            if self.order_known != len(table):
                raise AssertionError(
                    f"order mismatch: formula {self.order_known}, enumerated {len(table)}")
            self._elements = table
        return self._elements


def orbit_roots(nv: int, gen_images) -> np.ndarray:
    """A root per vertex, as an int32 array, shared by two vertices iff
    they lie in one orbit under the image rows `gen_images` (a k x V array
    or k sequences): the least vertex of the orbit.

    Labels are hooked and jumped as in Shiloach & Vishkin's connectivity
    algorithm.  Each round takes the pairs (v, p[v]) whose labels differ,
    sets the larger label's entry to the smaller, and replaces every label
    by its label's label until every label is a root again, until no pair
    is left.  Only differing pairs are hooked, since numpy keeps the last
    of repeated writes to one entry; a pair once equal stays equal.  The
    rows are hooked a chunk at a time within `_CHECK_BYTES`, at most 32
    bytes per vertex and row (the pairs' ends and labels), so the orbits of
    large rows cost O(V) beyond the rows themselves.  The first chunk's
    pairs are their own labels, and differ, since the rows move them."""
    labels = np.arange(nv, dtype=np.int32)
    identity = labels.copy()
    rows = np.asarray(gen_images, dtype=np.int32).reshape(len(gen_images), nv)
    step = max(1, _CHECK_BYTES // max(32 * nv, 1))
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step]
        moved = chunk != identity
        src, dst = np.broadcast_to(identity, chunk.shape)[moved], chunk[moved]
        a, b = src, dst
        if lo:
            a, b = labels.take(src), labels.take(dst)  # take: faster than [] on int32 indices
            differ = a != b
            src, dst, a, b = src[differ], dst[differ], a[differ], b[differ]
        while len(a):
            labels[np.maximum(a, b)] = np.minimum(a, b)
            up = labels.take(labels)
            while (up != labels).any():
                labels, up = up, up.take(up)
            a, b = labels.take(src), labels.take(dst)
            differ = a != b
            src, dst, a, b = src[differ], dst[differ], a[differ], b[differ]
    return labels


def translations_span(grp: PermGroup) -> bool:
    """Whether the translations v -> v ^ t among the group's generators span
    Z_2^n, V = 2^n.  Then the group holds every translation, and they act
    regularly, so it is vertex-transitive (Godsil & Royle, *Algebraic Graph
    Theory*, ch. 3).  A translation is an affine map whose L is the
    identity, read from `affine` or off the rows (`_affine_of_rows`)."""
    nv = grp.n_vertices
    n = nv.bit_length() - 1
    if nv < 2 or nv != 1 << n:
        return False
    maps = grp.affine
    if maps is None:  # only rows whose images of 0 and the single bits fit L = I are read
        rows, bits = grp.generators, 1 << np.arange(n)
        maps, affine = _affine_of_rows(rows[(rows[:, bits] ^ rows[:, :1] == bits).all(axis=1)])
        maps = maps.take(affine)
    return gf2_rank(maps.shifts[maps.translations()].tolist()) == n


def transversals(gens: np.ndarray, base) -> list[np.ndarray]:
    """The stabilizer chain of the generator rows `gens` along `base`: per
    base point b_i, by orbit BFS under the generators fixing b_1..b_{i-1},
    one row per orbit point mapping b_i to it, the identity first."""
    chain = []
    for i, b in enumerate(base):
        level = gens[_fixing(gens, list(base[:i]))]
        rows = frontier = np.arange(gens.shape[1], dtype=np.int32)[None, :]
        seen = rows[0] == b
        while len(frontier):  # g o u for generator g and frontier row u, u-major
            points = level[:, frontier[:, b]].T.ravel()
            fresh = np.flatnonzero(~seen[points])  # the first of each new point is kept
            by_point = fresh[np.argsort(points[fresh], kind="stable")]
            first = np.sort(by_point[np.diff(points[by_point], prepend=-1) != 0])
            seen[points[first]] = True
            frontier = level[first[:, None] % len(level), frontier[first // len(level)]]
            rows = np.concatenate([rows, frontier])
        chain.append(rows)
    return chain


def _chain_table(gens: np.ndarray, base, chain: list[np.ndarray]) -> np.ndarray:
    """The element table of a strong generating set `gens` for `base`, the
    product of its transversals `chain`, `U[:, table]` a level at a time,
    once each level generator after each row of its transversal sifts to
    the identity (Schreier's lemma; Sims, 1970)."""
    nv = gens.shape[1]
    inverse = [np.argsort(rows, axis=1) for rows in chain]
    # per point, the inverse taking it to b; off the orbit the identity, so it stays moved
    where = [(inv == b).argmax(axis=0) for b, inv in zip(base, inverse)]
    for i in range(len(chain)):
        sift = gens[_fixing(gens, list(base[:i]))][:, chain[i]].reshape(-1, nv)
        for at, b, inv in zip(where[i:], base[i:], inverse[i:]):
            sift = np.take_along_axis(inv[at[sift[:, b]]], sift, axis=1)
        if (sift != np.arange(nv)).any():
            raise AssertionError(f"the generators are not strong for the base {tuple(base)}")
    table = np.arange(nv, dtype=np.int32)[None, :]
    for rows in reversed(chain):
        table = rows[:, table].reshape(-1, nv)
    return table


# The chunks of the automorphism test stay within `_CHECK_BYTES`: for the
# edge sort 32 bytes per edge and row (the two image ends, their minimum and
# maximum, the int64 key), so Q_10's 19 generators are one chunk and Q_14 and
# Q_16 are checked a row at a time, which timed faster than chunks of 16 or
# 32 MB; for the bijection sort and the reading of affine rows at most 16
# per vertex and row; for the affine check 16 per mask of D, bit and map.


def is_automorphism(g: Graph, maps):
    """Whether each map of `maps` is an automorphism of g: k verdicts for an
    `Affine` batch or a k x V batch of image rows, one bool for one row.

    On a graph with connection sets (`g.masks`: held by them, or a Cayley
    graph of Z_2^n given by its edges) an affine map, given as such or read
    off its row (`_affine_of_rows`), takes `_affine_check`, with no image
    row.  Any other row must be a bijection, by a sort, and map the edge set
    onto itself (`_edge_sort`); an `Affine` batch on another graph is
    checked by its rows."""
    nv = g.n_vertices
    d = g.masks
    if isinstance(maps, Affine):
        return _affine_check(g, maps) if d is not None else is_automorphism(g, maps.rows())
    batch = np.asarray(maps)
    single = batch.ndim == 1
    if single:
        batch = batch[None, :]
    if batch.ndim != 2 or batch.shape[1] != nv:
        return False if single else np.zeros(len(batch), dtype=bool)
    ok = np.zeros(len(batch), dtype=bool)
    rest = np.arange(len(batch))
    if d is not None:
        found, affine = _affine_of_rows(batch)
        ok[affine] = _affine_check(g, found.take(affine))
        rest = rest[~affine]
    step = max(1, _CHECK_BYTES // max(16 * nv, 1))
    bijective = np.zeros(len(batch), dtype=bool)
    for lo in range(0, len(rest), step):
        at = rest[lo:lo + step]
        bijective[at] = (np.sort(batch[at], axis=1) == np.arange(nv)).all(axis=1)
    if bijective.any():
        ok[bijective] = _edge_sort(g, batch if bijective.all() else batch[bijective])
    return bool(ok[0]) if single else ok


def _affine_of_rows(rows: np.ndarray) -> tuple[Affine, np.ndarray]:
    """The affine map that each row of a k x 2^n batch would be, read off
    its images of 0 and of the single bits, and whether it is: the rows
    are rebuilt from them (`_linear_rows`) a chunk at a time within
    `_CHECK_BYTES` and compared."""
    k, nv = rows.shape
    n = nv.bit_length() - 1
    shifts = rows[:, 0].astype(np.int64)
    units = rows[:, 1 << np.arange(n)] ^ shifts[:, None]
    affine = np.empty(k, dtype=bool)
    step = max(1, _CHECK_BYTES // max(16 * nv, 1))
    for lo in range(0, k, step):
        built = _linear_rows(n, units[lo:lo + step], shifts[lo:lo + step])
        affine[lo:lo + step] = (built == rows[lo:lo + step]).all(axis=1)
    return Affine(units, shifts), affine


def _affine_check(g: Graph, maps: Affine) -> np.ndarray:
    """Whether each map x -> Lx ^ c of `maps` is an automorphism of g, on V
    = 2^n words, with connection sets (D_0, D_1) (`g.masks`): x ~ x ^ d for
    d in D_{x_0}, a Cayley graph of Z_2^n where D_0 = D_1.  The map sends
    the edge {x, x ^ d} to {y, y ^ Ld}, y = Lx ^ c, which is an edge iff Ld
    is in D_{y_0}.  Where bit 0 of Lx is x_0 for every x (bit 0 of L's
    image of bit b is 1 for b = 0 alone), y_0 = x_0 ^ c_0; otherwise, for
    an invertible L, y_0 takes both values on the x with a given x_0.  So
    the map is an automorphism iff c is a word, L is invertible (its images
    of the single bits are n words of GF(2) rank n), and L maps each D_b
    into D_{b ^ c_0} in the first case and into D_0 & D_1 in the second:
    then it maps the edges one to one into the edges, and so onto them.
    With D_0 = D_1 the last test is that L maps D into D.  A translation (L
    = I) by an even c, or by any c where D_0 = D_1, needs none of them; the
    others' images of each D_b are built by their bits, a chunk of D_b at a
    time within `_CHECK_BYTES`, and looked up in `g.mask_tables`, or in
    `g.xor_connection` where D_0 = D_1."""
    units, shifts = maps
    nv = g.n_vertices
    n = nv.bit_length() - 1
    if units.shape[1] != n:
        return np.zeros(len(units), dtype=bool)
    ok = shifts.astype(np.uint64) < nv
    d0, d1 = g.masks
    twisted = d1 is not d0
    moving = ~maps.translations()
    if twisted:
        moving |= (shifts & 1).astype(bool)
    if moving.any():
        linear = units[moving]
        good = np.array([min(u) >= 0 and max(u) < nv and gf2_rank(u) == n
                         for u in linear.tolist()])
        if twisted:
            flip = shifts[moving] & 1
            keeps = (linear & 1 == (np.arange(n) == 0)).all(axis=1)  # bit 0 of Lx is x_0
        tables = g.mask_tables.ravel() if twisted else g.xor_connection
        step = max(1, _CHECK_BYTES // (16 * len(linear) * n))
        for b, d in enumerate((d0, d1) if twisted else (d0,)):
            if twisted:  # the row of `tables` that D_b must map into
                into = np.where(keeps, b ^ flip, 2)[:, None] * nv
            for lo in range(0, len(d), step):
                has_bit = d[lo:lo + step, None] >> np.arange(n) & 1
                images = np.bitwise_xor.reduce(linear[:, None, :] * has_bit, axis=2)
                # masked into range for an L with images outside the words, not invertible
                at = images & (nv - 1)
                good &= tables[into + at if twisted else at].all(axis=1)
        ok[moving] &= good
    return ok


def _edge_sort(g: Graph, rows: np.ndarray) -> np.ndarray:
    """Whether each bijective row of `rows` maps the edges onto the edges:
    the sorted keys `min * V + max` of its edge images equal `g.edge_keys`."""
    nv = g.n_vertices
    u, v = g.ends
    ok = np.empty(len(rows), dtype=bool)
    step = max(1, _CHECK_BYTES // max(32 * len(u), 1))
    for lo in range(0, len(rows), step):
        a, b = rows[lo:lo + step, u], rows[lo:lo + step, v]
        image = np.minimum(a, b).astype(np.int64) * nv + np.maximum(a, b)
        image.sort(axis=1)
        ok[lo:lo + step] = (image == g.edge_keys).all(axis=1)
    return ok


def trivial_group(nv: int, graph: Graph | None = None) -> PermGroup:
    """The group of the identity alone; on V = 2^n words, with no affine
    generator either."""
    n = nv.bit_length() - 1
    affine = (Affine(np.empty((0, n), dtype=np.int64), np.empty(0, dtype=np.int64))
              if nv == 1 << n else None)
    return PermGroup(nv, np.empty((0, nv), dtype=np.int32), 1, "structured", graph,
                     affine=affine, _elements=np.arange(nv, dtype=np.int32)[None, :])


def _lex_permutations(k: int) -> np.ndarray:
    """The k! permutations of range(k) as int32 rows in lex order: for each
    first entry f in turn, those of k-1 with their entries from f up raised
    by one."""
    table = np.zeros((1, 0), dtype=np.int32)
    for m in range(1, k + 1):
        first = np.arange(m, dtype=np.int32)[:, None, None]
        block = np.empty((m, len(table), m), dtype=np.int32)
        block[:, :, :1] = first
        block[:, :, 1:] = table + (table >= first)
        table = block.reshape(-1, m)
    return table


def _permutation_table(k: int) -> np.ndarray:
    """The k! permutations of range(k) as the rows of an int32 array in lex
    order, the identity first, after checking that they are k! permutations
    and that each row is greater than the last, at the first column where
    the two differ, so that no row repeats."""
    table = _lex_permutations(k)
    later, earlier = table[1:], table[:-1]
    first = (later != earlier).argmax(axis=1)
    at = np.arange(len(first))
    if (len(table) != factorial(k) or not (later[at, first] > earlier[at, first]).all()
            or not (np.sort(table, axis=1) == np.arange(k)).all()):
        raise AssertionError(f"the permutation table of {k} is not {factorial(k)} "
                             "distinct permutations")
    return table


# ---------------------------------------------------------------------------
# determining-set tests
#
# A determining test decides whether only the identity fixes a vertex set,
# one vertex at a time, so that a search can extend a set without starting
# over.  It answers `det_start()`, the state of the empty set;
# `det_add(state, v)`, the state with vertex v added; `det_need(state)`, a
# lower bound on the vertices still to add before the set can be
# determining; and `det_done(state)`, whether the set is determining.  A
# vertex added twice leaves the answers unchanged.


class _DeterminingFold:
    """`pointwise_trivial(words)` as the fold of the words through the
    determining test, so that a search and a one-off check share it."""

    def det_start(self):
        return None

    def det_need(self, state) -> int:
        return 0

    def fold(self, words):
        state = self.det_start()
        for w in words:
            state = self.det_add(state, w)
        return state

    def pointwise_trivial(self, words) -> bool:
        return self.det_done(self.fold(words))


class _TableTest(_DeterminingFold):
    """Determining test of a group without a model, on its element table:
    the state is the set of rows fixing every vertex added so far, as a
    bitmask over the rows.  `_fixers[v]` marks the rows with row[v] == v;
    `det_start` builds them, so a test that is never started (a factor of
    a `ProductModel` that is only asked for its orbits) loads no table."""

    def __init__(self, grp: PermGroup):
        self.grp = grp

    def det_start(self) -> int:
        grp = self.grp
        if grp._fixers is None:
            table = grp.elements()
            fixed = np.packbits(table.T == np.arange(grp.n_vertices)[:, None], axis=1,
                                bitorder="little")
            grp._fixers = [int.from_bytes(row.tobytes(), "little") for row in fixed]
        return (1 << grp.order()) - 1

    def det_add(self, state: int, v: int) -> int:
        return state & self.grp._fixers[v]

    def det_need(self, state: int) -> int:
        """Fixing a vertex divides the stabilizer's order by the vertex's
        orbit, of at most V vertices."""
        left, need = state.bit_count(), 0
        while left > 1:
            left, need = -(-left // self.grp.n_vertices), need + 1
        return need

    def det_done(self, state: int) -> bool:
        return state.bit_count() == 1  # the identity


def determining_test(grp: PermGroup):
    """The group's determining test: its model, or the table test."""
    return grp.model if grp.model is not None else _TableTest(grp)


# ---------------------------------------------------------------------------
# group models
#
# One closed form per structured group.  A model answers `order()`,
# `generators()` (rows), `enumerate()` (the element table; `PermGroup.elements`
# has checked the order against the cap) and the determining test above, which
# gives it `pointwise_trivial(words)`.  A model whose generators are affine
# maps of the 2^n words also answers `affine()`, their (L, c) (`Affine`), or
# None (a product with a factor that is not); its group holds them so, and
# builds their rows only for a reader of `generators`.  Its generators are
# strong for the base (0,): those that fix vertex 0 generate Stab(0), which
# `pointwise_stabilizer` reads off them, as the affine maps with c = 0.  A
# translation model's are unit translations, which move 0, and zero-fixing
# maps that generate all of them: the adjacent column transpositions of Q_n,
# the halved cubes and FQ_n, base maps 2, 3 and 5 of AQ_n, and none for
# LTQ_n, whose Stab(0) is trivial.  The Hamming model's
# column transpositions and symbol swaps (c, s, s+1) with s >= 1 generate
# S_{m-1} wr S_n; the swaps with s = 0 move 0.  The multipartite model's swaps
# that fix 0, the first vertex of the first part, generate S_{a-1} x (S_a wr
# S_{b-1}).  A product's row fixes (0, 0) iff it fixes its own factor's 0, so
# the rule holds for the product when it holds for the factors.  The AQ_n and
# LTQ_n models also answer
# `setwise_stabilizer(S)`, the rows of the elements that map S onto itself,
# and the Q_n, halved-cube and Hamming models `setwise_trivial(S)`, whether
# only the identity does.


class _TranslationModel:
    """A group on n-bit words whose elements are a translation v -> v + c
    after one of the maps fixing the zero word, whose rows
    `zero_fixing_rows()` gives, and whose generators are affine."""

    def __init__(self, n: int):
        self.n = n

    def generators(self) -> np.ndarray:
        return self.affine().rows()

    def translations(self) -> range:
        return range(1 << self.n)

    def order(self) -> int:
        return len(self.translations()) * self.n_zero_fixing()

    def enumerate(self) -> np.ndarray:
        """The elements as a |G| x V int32 array: each zero-fixing map's
        image row XOR each translation.  Two rows agree at the zero word only
        if their translations do, so the table has `order()` distinct rows
        when the zero-fixing rows are `n_zero_fixing()` distinct ones that
        fix zero, which is checked."""
        base = self.zero_fixing_rows()
        ordered = base[np.lexsort(base.T)]
        if (base[:, 0].any() or len(base) != self.n_zero_fixing()
                or not (ordered[1:] != ordered[:-1]).any(axis=1).all()):
            raise AssertionError(f"{type(self).__name__}: the zero-fixing maps are not "
                                 f"{self.n_zero_fixing()} distinct maps fixing zero")
        shifts = np.array(self.translations(), dtype=np.int32)
        return (base[:, None, :] ^ shifts[None, :, None]).reshape(-1, base.shape[1])


class _SetwiseSearch:
    """Setwise stabilizers of a translation model with few zero-fixing maps:
    an element mapping S onto itself sends min S to some t in S, which fixes
    its translation once the zero-fixing map is chosen."""

    def setwise_stabilizer(self, S) -> np.ndarray:
        S = sorted(S)
        base = self.zero_fixing_rows()
        shifts = np.array(S, dtype=np.int32)[None, :] ^ base[:, S[0], None]
        rows = (base[:, None, :] ^ shifts[:, :, None]).reshape(-1, base.shape[1])
        allowed = np.zeros(base.shape[1], dtype=bool)
        allowed[self.translations()] = True
        member = np.zeros(base.shape[1], dtype=bool)
        member[S] = True
        return rows[allowed[shifts.ravel()] & member[rows[:, S]].all(axis=1)]


class _RowMapSetwise:
    """`setwise_trivial(S)` without the element table, for a model whose
    elements permute the columns of the words and relabel each column's
    symbols: S_2 wr S_n for Q_n, S_m wr S_n for H(n, m), and for the
    halved cube the same as Q_{n+1} on the n+1 extended columns (the parity
    column added), with an even number of columns complemented.

    An element mapping S onto itself maps row i of the matrix of S's words
    to some row rho(i).  It then reads each image column from a source
    column with the same row partition, read in rho's order, and relabels
    its symbols accordingly.  So rho is some element's iff it keeps the
    multiset of the columns' partitions; in the halved cube the columns
    complemented are those where the extended words of S[0] and S[rho(0)]
    differ, both of even weight, so they are even in number.  For a
    determining S the partitions are distinct, and each column's symbols
    are all shown but perhaps one, so the column map and relabelling are
    forced: one element per rho, the identity for the identity (Boutin,
    Identifying graph automorphisms using determining sets, 2006).  A set
    that is not determining has a pointwise stabilizer, and so a setwise
    one, above 1.

    For a rho other than the identity, the element's images of S's own
    words are computed from its column map, symbol maps and translation,
    and checked: the column map must be a permutation, the images must be S,
    and a word of S must move.

    The model's words have `columns` columns over `m` symbols; `even_words`
    says that the translated extended words have even weight (the halved
    cube), so that their columns XOR to 0."""

    even_words = False

    def setwise_trivial(self, S) -> bool:
        S = sorted(set(S))
        if not self.pointwise_trivial(S):
            return False
        columns = self._set_columns(S)
        found = moving_row_map(columns)
        if found is None:
            return True
        rho, sources = found
        images = self._row_map_images(S, columns, rho, sources)
        if sorted(sources) != list(range(len(columns))) or sorted(images) != S or images == S:
            raise AssertionError(f"the element of row map {rho} does not move {S} onto "
                                 "itself as a non-identity element")
        return False


class _CubeSetwise(_RowMapSetwise):
    """The row-map test on the columns of `column_mask`, bit b of a word
    being column n-1-b of `unit_images` for b < n and column n for b = n."""

    m = 2

    def _set_columns(self, S):
        masks = [self.column_mask(s ^ S[0]) for s in S]
        return [tuple(m >> b & 1 for m in masks) for b in range(self.columns)]

    def column_codes(self, state) -> list[int]:
        """Per column, its bits in the translated words of a determining
        state (`_ColumnRefinement`) read as a binary number, the first
        word's bit highest: the restricted-growth code of the column's row
        partition, since the first translated word is zero."""
        codes = [0] * self.columns
        for t in state[1]:
            mask = self.column_mask(t)
            codes = [code << 1 | mask >> b & 1 for b, code in enumerate(codes)]
        return codes

    def _row_map_images(self, S, columns, rho, sources) -> list[int]:
        """The images of S under v -> P(v + S[0]) + S[rho(0)], where bit b of
        P(t) is bit sources[b] of t's extended word: column b of `columns`
        holds bit b of each S[i] + S[0], and bit n, the parity column of a
        halved cube, is dropped from the image."""
        shift = S[rho[0]]
        return [sum(columns[src][i] << b for b, src in enumerate(sources[:self.n])) ^ shift
                for i in range(len(S))]


class _ColumnRefinement(_DeterminingFold):
    """Determining state of the cube models: the first word a, the words
    translated by a, and the classes of positions whose translated columns
    agree, as bitmasks over the columns (`column_mask`; the word's own bits
    unless a model extends the word) with singletons dropped.  The
    classes do not depend on which word is the anchor.  A word splits each
    class in at most two, so a class of c positions needs ceil(lg c) more."""

    def column_mask(self, t: int) -> int:
        """The columns in which the translated word t has a 1."""
        return t

    def det_add(self, state, w):
        if state is None:
            full = (1 << self.columns) - 1
            return w, (0,), (full,) if self.columns > 1 else ()
        a, words, classes = state
        t = a ^ w
        ones = self.column_mask(t)
        return a, words + (t,), tuple(part for m in classes for part in (m & ones, m & ~ones)
                                      if part & (part - 1))

    def det_need(self, state) -> int:
        if state is None:  # the empty set: no classes yet
            return 0
        return max(((m.bit_count() - 1).bit_length() for m in state[2]), default=0)


class _PositionModel(_ColumnRefinement, _TranslationModel):
    """A translation model whose zero-fixing maps are the permutations pi of
    `columns` word columns (image column i reads source column pi[i]).
    They are linear: a 1 in source column pi[i] becomes the word of column
    i (`column_words`), and `unit_images(words)` reads the images of the n
    single bits off each row of a table of those words.  A set holding zero
    is fixed by a permutation iff it moves positions only within classes of
    equal columns, so the set is determining iff its columns are
    distinct."""

    last = 0  # the word of column n, where the model has one

    def column_words(self) -> list[int]:
        """The word of each column: position i, bit n-1-i, for i < n, and
        `last` for column n."""
        return ([1 << (self.n - 1 - i) for i in range(self.n)] + [self.last])[:self.columns]

    def perm_units(self, perms) -> np.ndarray:
        """The images of the n single bits under each permutation of the
        table `perms`, one row each."""
        words = np.array(self.column_words(), dtype=np.int64)
        return self.unit_images(words[np.argsort(perms, axis=1)])

    def n_zero_fixing(self) -> int:
        return factorial(self.columns)

    def zero_fixing_rows(self) -> np.ndarray:
        """One row per permutation of the columns, in lex order."""
        return _linear_rows(self.n, self.perm_units(_permutation_table(self.columns)))

    def affine(self) -> Affine:
        """The unit translations, then the adjacent column transpositions,
        each of which swaps two columns' words."""
        n, w = self.n, self.column_words()
        swaps = [w[:i] + [w[i + 1], w[i]] + w[i + 2:] for i in range(self.columns - 1)]
        return Affine(self.unit_images(np.array([w] * n + swaps, dtype=np.int64)),
                      np.array([1 << b for b in range(n)] + [0] * len(swaps), dtype=np.int64))

    def det_done(self, state) -> bool:
        """A fixing position permutation exists iff two columns agree."""
        return state is not None and not state[2]


class HypercubeModel(_CubeSetwise, _PositionModel):
    """Aut(Q_n) = Z_2^n x S_n, also the group of Q_n^k for odd k <= n-2."""

    @property
    def columns(self) -> int:
        return self.n

    def unit_images(self, words) -> np.ndarray:
        return words[:, ::-1]


class HalvedCubeModel(_CubeSetwise, _PositionModel):
    """Aut(Q_n^k) = Z_2^n x S_{n+1} for even k with 2 <= k <= n-2.

    Write N = n+1 and v^ = (v, parity of v), a word of even weight.  The
    distance of v^ and w^ is that of v and w rounded up to even, so Q_n^k
    is the graph on the even words of length N within distance k.  Adjacent
    words at distance 2 have more common neighbors than those at 4, ..., k,
    so every automorphism keeps them, and is one of the halved N-cube.  For
    balls B of radius k and w' = w + e_p + e_q with p, q off w, keep each z
    of B(0) & B(w') that is in B(w), and move the others, which have z_p =
    z_q = 1 and d(z, w') = k, to z + e_p + e_q.  That maps B(0) & B(w') one
    to one into B(0) & B(w), and for |w| = 2 it misses the words of weight
    k with one bit on w and none on p, q, which exist as k + 3 <= N.  The
    halved N-cube's group is Z_2^n x S_N for N >= 5 (Brouwer, Cohen &
    Neumaier, Distance-Regular Graphs, 1989).  Q_3^2 = K_{2,2,2,2} (N = 4)
    has more automorphisms, and so do the powers with k >= n-1."""

    even_words = True

    @property
    def columns(self) -> int:
        return self.n + 1  # bit n is the parity column

    def unit_images(self, words) -> np.ndarray:
        """A single bit has odd weight, so its extended word also has a 1 in
        the parity column n; the image word drops its own parity column."""
        return words[:, self.n - 1::-1] ^ words[:, self.n:]

    def column_mask(self, t: int) -> int:
        return t | (t.bit_count() & 1) << self.n


class FoldedModel(_PositionModel):
    """Aut(FQ_n) = Z_2^n x S_{n+1} (n >= 4), permuting the n positions and
    the all-ones word as n+1 symbols: column n is the all-ones symbol's,
    0 in every word, and an image word with a 1 there is complemented."""

    @property
    def columns(self) -> int:
        return self.n + 1  # bit n, the all-ones symbol's column, stays 0

    @property
    def last(self) -> int:
        return (1 << self.n) - 1

    def unit_images(self, words) -> np.ndarray:
        return words[:, self.n - 1::-1]

    def det_need(self, state) -> int:
        """The class bound r, plus one when every completion by r words keeps
        a shift.  With r more words each class of c columns gets c distinct
        r-bit tails.  A class of 2^r columns then takes every tail, which any
        tail shift e preserves; a class of 2 or 2^r - 2 columns is preserved
        by one nonzero e.  So if no column is alone yet and all classes but
        at most one such class have 2^r columns, the shift (0, e) survives."""
        r = super().det_need(state)
        if state is None:
            return r
        sizes = [m.bit_count() for m in state[2]]
        partial = [c for c in sizes if c != 1 << r]
        keeps_shift = (r > 0 and sum(sizes) == self.columns
                       and (not partial or partial == [2] or partial == [(1 << r) - 2]))
        return r + keeps_shift

    def det_add(self, state, w):
        """The refinement state, with the column values carried along: per
        bit b of the translated words, the bitmask of the words with a 1
        there, and 0 for the all-ones symbol's column."""
        if state is None:
            return (*super().det_add(state, w), (0,) * self.columns)
        refined = super().det_add(state[:3], w)
        values, row, t = list(state[3]), 1 << len(state[1]), refined[1][-1]
        while t:  # the word's 1 bits, lowest first
            low = t & -t
            values[low.bit_length() - 1] |= row
            t ^= low
        return (*refined, tuple(values))

    def det_done(self, state) -> bool:
        """A fixing symbol permutation exists iff two extended columns agree
        or some nonzero column value shifts the column values onto themselves
        (`_folded_shifts` with every class a single column).  Such a shift
        pairs the values off, so there is none when there are an odd number."""
        if state is None or state[2]:
            return False
        if self.columns % 2:
            return True
        values = set(state[3])
        return not any(e and {c ^ e for c in values} == values for e in values)


class AugmentedModel(_DeterminingFold, _SetwiseSearch, _TranslationModel):
    """Aut(AQ_n) (n >= 4): translations after the eight base maps.  These
    are linear, so they are held by their images of the single bits; their
    rows, which the determining test and the element table read, are built
    on first use."""

    def __init__(self, n: int):
        super().__init__(n)
        self._units = _aq_units(n)

    @cached_property
    def _base(self) -> np.ndarray:
        return _linear_rows(self.n, self._units)

    def n_zero_fixing(self) -> int:
        return 8

    def zero_fixing_rows(self) -> np.ndarray:
        return self._base

    def affine(self) -> Affine:
        """The unit translations, then base maps 2, 3 and 5."""
        n = self.n
        units = [1 << b for b in range(n)]
        return Affine.of(n, [units] * n + self._units[[1, 2, 4]].tolist(), units + [0] * 3)

    def det_add(self, state, w):
        """The first word a, and the indices of the base maps fixing every
        word translated by a, the identity's (row 0) first, read from the
        base maps' rows: a lookup per kept map, where the XOR of its images
        of t's bits took 3-4 times as long per call."""
        if state is None:
            return w, np.arange(len(self._units))
        a, keep = state
        t = a ^ w
        return a, keep[self._base[keep, t] == t]

    def det_done(self, state) -> bool:
        return state is not None and len(state[1]) == 1


class LtqModel(_DeterminingFold, _SetwiseSearch, _TranslationModel):
    """Aut(LTQ_n) (n >= 4): the 2^(n-1) translations of the first n-1 bits."""

    def translations(self) -> range:
        return range(0, 1 << self.n, 2)

    def n_zero_fixing(self) -> int:
        return 1

    def zero_fixing_rows(self) -> np.ndarray:
        return np.arange(1 << self.n, dtype=np.int32)[None, :]

    def affine(self) -> Affine:
        n = self.n
        return Affine.of(n, [[1 << b for b in range(n)]] * (n - 1),
                         [2 << b for b in range(n - 1)])

    def det_add(self, state, w) -> bool:
        return True

    def det_done(self, state) -> bool:
        return bool(state)  # only the zero translation fixes any vertex


class ProductModel(_DeterminingFold):
    """Aut(A) x Aut(B) acting blockwise on a Cartesian product, vertex v
    being (v // |B|, v % |B|); the enhanced cube is Q_{k-1} x FQ_{n-k+1}.
    Its determining state is the pair of factor states."""

    def __init__(self, ga: PermGroup, gb: PermGroup):
        self.ga, self.gb = ga, gb
        self.ta, self.tb = determining_test(ga), determining_test(gb)

    def order(self) -> int:
        return self.ga.order() * self.gb.order()

    def affine(self) -> Affine | None:
        """Where both factors' generators are affine, on the words whose
        high bits are A's and low bits B's: a map (L, c) of A acts on the
        high bits, (L << |B| bits, c << |B| bits), and one of B on the low."""
        a, b = self.ga.affine, self.gb.affine
        if a is None or b is None:
            return None
        na, nb = a.units.shape[1], b.units.shape[1]
        low, high = [1 << i for i in range(nb)], [1 << i for i in range(nb, nb + na)]
        units = ([low + [u << nb for u in row] for row in a.units.tolist()]
                 + [row + high for row in b.units.tolist()])
        return Affine.of(na + nb, units, [c << nb for c in a.shifts.tolist()] + b.shifts.tolist())

    def generators(self) -> np.ndarray:
        """Row a of A gives v -> (a[v // |B|], v % |B|); row b of B gives
        v -> (v // |B|, b[v % |B|])."""
        nb = self.gb.n_vertices
        v = np.arange(self.ga.n_vertices * nb, dtype=np.int32)
        return np.concatenate([self.ga.generators[:, v // nb] * nb + v % nb,
                               v // nb * nb + self.gb.generators[:, v % nb]])

    def enumerate(self) -> np.ndarray:
        """Row (a, b) maps vertex v to a[v // |B|] * |B| + b[v % |B|]."""
        nb = self.gb.n_vertices
        v = np.arange(self.ga.n_vertices * nb)
        left, right = self.ga.elements()[:, v // nb] * nb, self.gb.elements()[:, v % nb]
        return (left[:, None, :] + right[None, :, :]).reshape(-1, len(v))

    def det_start(self):
        return self.ta.det_start(), self.tb.det_start()

    def det_add(self, state, v: int):
        nb = self.gb.n_vertices
        return self.ta.det_add(state[0], v // nb), self.tb.det_add(state[1], v % nb)

    def det_need(self, state) -> int:
        return max(self.ta.det_need(state[0]), self.tb.det_need(state[1]))

    def det_done(self, state) -> bool:
        return self.ta.det_done(state[0]) and self.tb.det_done(state[1])


def _extension_need(m: int, n: int) -> list[list[int]]:
    """need[q][c] for 0 <= q <= m and 1 <= c <= n: the least r such that r
    rows can extend a partition with q blocks to c distinct partitions with
    at least m-1 and at most m blocks, whose count is E(q, r) = q E(q, r-1)
    + E(q+1, r-1) (a row joins one of the q blocks or opens one), with
    E(m+1, r) = 0 and E(q, 0) = 1 if q >= m-1 else 0.  From q = 0 this is
    S(r, m) + S(r, m-1), the column budget of `hamming_det_number`."""
    need = [[0] * (n + 1) for _ in range(m + 1)]
    count = [int(q >= m - 1) for q in range(m + 1)] + [0]
    r = 0
    while True:
        for q in range(m + 1):
            for c in range(1, n + 1):
                if count[q] < c:
                    need[q][c] = r + 1
        if min(count[:m + 1]) >= n:
            return need
        count = [q * count[q] + count[q + 1] for q in range(m + 1)] + [0]
        r += 1


class HammingModel(_RowMapSetwise, _DeterminingFold):
    """Aut(H) = S_m wr S_n for the Hamming graph of the words of length n
    over m >= 2 symbols: an element reads image column c from source column
    pi[c] and relabels its symbols by tau_c.  Column c (0-based from the
    left) is the digit of place m^(n-1-c) of a vertex.

    Its determining state is, per column, the symbols the set shows in the
    order they first appear and the row partition they induce, as the base-m
    code of the restricted-growth string (equal codes, equal partitions).
    An element fixes the set pointwise iff pi keeps each class of columns
    with equal partitions, each tau_c carrying the symbols shown in column
    pi[c] onto those in column c row by row; so the set is determining iff
    every column shows at least m-1 symbols and the columns' partitions are
    distinct (Boutin, Identifying graph automorphisms using determining
    sets, 2006)."""

    def __init__(self, spec: FamilySpec):
        self.n, self.m = spec.n, spec.alphabet
        weights = self.m ** np.arange(self.n - 1, -1, -1)
        self._weights = weights.astype(np.int32)
        self._digits = (np.arange(self.m ** self.n)[:, None] // weights % self.m).astype(np.int32)
        self._word_digits = self._digits.tolist()
        self._need = _extension_need(self.m, self.n)

    @property
    def columns(self) -> int:
        return self.n

    def order(self) -> int:
        return factorial(self.n) * factorial(self.m) ** self.n

    def generators(self) -> np.ndarray:
        """The swaps of columns c and c+1, then of symbols s and s+1 in
        column c, c-major: a word moves by the digits' changes times their
        place values."""
        n, m = self.n, self.m
        digits, weights = self._digits.T, self._weights[:, None]
        words = np.arange(digits.shape[1], dtype=np.int32)
        columns = words + (digits[1:] - digits[:-1]) * (weights[:-1] - weights[1:])
        s = np.arange(m - 1, dtype=np.int32)[None, :, None]
        up = digits[:, None, :] == s
        down = digits[:, None, :] == s + 1
        symbols = words + (up.astype(np.int32) - down) * weights[:, :, None]
        return np.concatenate([columns, symbols.reshape(-1, len(words))])

    def enumerate(self) -> np.ndarray:
        """One block of (m!)^n rows per column permutation, written in place:
        the contribution of image column c, a symbol permutation of source
        column pi[c] times its place value, is broadcast along axis c of the
        block, so row (t_0, ..., t_{n-1}) of a block is that of tau_c =
        the t_c-th symbol permutation.  Distinct (pi, tau) give distinct rows,
        as the permutation tables hold distinct permutations."""
        n = self.n
        perms = _permutation_table(self.m)
        block = len(perms) ** n
        nv = len(self._digits)
        out = np.zeros((factorial(n) * block, nv), dtype=np.int32)
        for k, pi in enumerate(_permutation_table(n).tolist()):
            view = out[k * block:(k + 1) * block].reshape((len(perms),) * n + (nv,))
            for c, src in enumerate(pi):
                view += (perms[:, self._digits[:, src]] * self._weights[c]).reshape(
                    (1,) * c + (len(perms),) + (1,) * (n - 1 - c) + (nv,))
        return out

    def _set_columns(self, S):
        return list(zip(*(self._word_digits[s] for s in S)))

    def _row_map_images(self, S, columns, rho, sources) -> list[int]:
        """The images of S when image column c reads column sources[c],
        whose symbol in row i becomes column c's symbol in row rho(i); a
        symbol shown in neither goes to the other."""
        taus = []
        for c, src in zip(columns, sources):
            tau = {s: c[x] for s, x in zip(columns[src], rho)}
            everything = set(range(self.m))
            tau.update(zip(sorted(everything - tau.keys()), sorted(everything - set(tau.values()))))
            taus.append(tau)
        images = []
        for i in range(len(S)):
            word = 0
            for tau, src in zip(taus, sources):
                word = word * self.m + tau[columns[src][i]]
            images.append(word)
        return images

    def det_start(self):
        return ((),) * self.n, (0,) * self.n

    def det_add(self, state, w: int):
        seen, codes = state
        new_seen, new_codes = [], []
        for shown, code, d in zip(seen, codes, self._word_digits[w]):
            if d in shown:
                idx = shown.index(d)
            else:
                idx, shown = len(shown), shown + (d,)
            new_seen.append(shown)
            new_codes.append(code * self.m + idx)
        return tuple(new_seen), tuple(new_codes)

    def column_codes(self, state) -> tuple[int, ...]:
        """Per column, the base-m code of its row partition's
        restricted-growth string in a determining state."""
        return state[1]

    def det_need(self, state) -> int:
        """The most rows any class of c columns with equal partitions, each
        showing q symbols, still needs: the least r with E(q, r) >= c, read
        from `_need[q][c]`.  E(q, r) counts the partitions r more rows can
        extend theirs to that have at least m-1 blocks, and the columns must
        end in distinct such partitions.  As E(q, r) <= m^r, and E(q, r) = 0
        for r < m-1-q, the bound is at least ceil(log_m c) and m-1-q."""
        seen, codes = state
        if len(set(codes)) == len(codes):
            return self._need[min(map(len, seen))][1]
        return max(self._need[len(shown)][codes.count(code)]
                   for shown, code in zip(seen, codes))

    def det_done(self, state) -> bool:
        seen, codes = state
        return (all(len(shown) >= self.m - 1 for shown in seen)
                and len(set(codes)) == len(codes))


def _wreath_generators(nv: int, parts: np.ndarray) -> np.ndarray:
    """The rows of S_a wr S_b on the b x a array `parts` of vertices, every
    other vertex of the nv fixed: the swap of each two neighbouring vertices
    of a part, and of each two neighbouring parts, slot by slot."""
    b, a = parts.shape
    swaps = [(parts[p, i:i + 1], parts[p, i + 1:i + 2]) for p in range(b) for i in range(a - 1)]
    swaps += [(parts[p], parts[p + 1]) for p in range(b - 1)]
    rows = np.tile(np.arange(nv, dtype=np.int32), (len(swaps), 1))
    for row, (x, y) in zip(rows, swaps):
        row[x], row[y] = y, x
    return rows


class MultipartiteModel(_DeterminingFold):
    """Aut(K_{b x a}) = S_a wr S_b for the complete multipartite graph whose
    b parts of a vertices are the rows of `parts`: its complement is b
    disjoint copies of K_a, whose automorphisms permute the parts and the
    vertices within each.  Element (sigma, tau) maps slot i of part p to
    slot tau_p(i) of part sigma(p).

    Its determining state is the set of vertices added, as a bitmask, and
    the count f_p of them in each part.  An element fixes the set pointwise
    iff it keeps each touched part, permuting its a - f_p other vertices,
    and permutes the z untouched parts: a group of order prod (a - f_p)!
    times a!^z z!.  That is 1 iff f_p >= a-1 in every part when a >= 2, and
    iff at most one part is untouched when a = 1, so `det_need` is exact.

    Vertex 0 must be the first vertex of the first part, so that the
    generators that fix it generate Stab(0)."""

    def __init__(self, parts):
        self.parts = np.asarray(parts, dtype=np.int32)
        if self.parts[0, 0] != 0:
            raise AssertionError(f"vertex 0 is not first in part 0: {self.parts[0].tolist()}")
        self.b, self.a = self.parts.shape
        part = np.empty(self.parts.size, dtype=np.int32)
        part[self.parts.ravel()] = np.arange(self.parts.size) // self.a
        self._part = part.tolist()

    def order(self) -> int:
        return factorial(self.a) ** self.b * factorial(self.b)

    def generators(self) -> np.ndarray:
        return _wreath_generators(self.parts.size, self.parts)

    def enumerate(self) -> np.ndarray:
        """One (a!)^b block of the tau per sigma, in slots p*a + i: the
        block gives each vertex its slot after tau, tau_p broadcast along
        axis p, and sigma then reads each slot (p, i) as vertex (sigma(p),
        i) of `parts`.  Distinct (sigma, tau) give distinct rows, as the
        permutation tables hold distinct permutations."""
        a, b = self.a, self.b
        perms = _permutation_table(a)
        within = np.zeros((len(perms),) * b + (b, a), dtype=np.int32)
        for p in range(b):
            within[..., p, :] = (p * a + perms).reshape(
                (1,) * p + (len(perms),) + (1,) * (b - 1 - p) + (a,))
        flat = self.parts.ravel()
        moves = flat[_permutation_table(b)[:, :, None] * a + np.arange(a, dtype=np.int32)]
        slots = within.reshape(-1, b * a)[:, np.argsort(flat)]
        return moves.reshape(-1, b * a)[:, slots].reshape(-1, b * a)

    def det_start(self):
        return 0, (0,) * self.b

    def det_add(self, state, v: int):
        mask, counts = state
        if mask >> v & 1:
            return state
        p = self._part[v]
        return mask | 1 << v, counts[:p] + (counts[p] + 1,) + counts[p + 1:]

    def det_need(self, state) -> int:
        if self.a == 1:
            return max(0, self.b - 1 - sum(state[1]))
        return sum(max(0, self.a - 1 - f) for f in state[1])

    def det_done(self, state) -> bool:
        return self.det_need(state) == 0


def _multipartite_parts(spec: FamilySpec) -> np.ndarray:
    """The parts, one row each, of the complete multipartite family graphs:
    the antipodal pairs of Q_n^{n-1} = K_{2^{n-1} x 2}, the parity classes
    of FQ_3 = K_{4,4}, and singletons for Q_n^k = K_{2^n} (k >= n), FQ_1 =
    K_2 and FQ_2 = K_4."""
    words = np.arange(1 << spec.n, dtype=np.int32)
    if spec.kind == POWER and spec.k == spec.n - 1:
        half = words[:len(words) // 2]
        return np.stack([half, half ^ words[-1]], axis=1)
    if spec.kind == FOLDED and spec.n == 3:
        return words[np.argsort(np.bitwise_count(words) & 1, kind="stable")].reshape(2, -1)
    return words[:, None]


GroupModel = _TranslationModel | ProductModel | HammingModel | MultipartiteModel


def _family_model(spec: FamilySpec) -> GroupModel:
    n = spec.n
    if spec.kind == HYPERCUBE or (spec.kind == POWER and spec.k % 2 == 1 and spec.k <= n - 2):
        return HypercubeModel(n)
    if spec.kind == POWER and spec.k % 2 == 0 and 2 <= spec.k <= n - 2:
        return HalvedCubeModel(n)
    if spec.kind == FOLDED and n >= 4:
        return FoldedModel(n)
    if spec.kind in (POWER, FOLDED):  # k >= n-1; n <= 3
        return MultipartiteModel(_multipartite_parts(spec))
    if spec.kind == AUGMENTED and n >= 4:
        return AugmentedModel(n)
    if spec.kind == LOCALLY_TWISTED and n >= 4:
        return LtqModel(n)
    if spec.kind == HAMMING:
        return HammingModel(spec)
    if spec.kind == ENHANCED:
        k = spec.k
        ga = trivial_group(1) if k == 1 else _model_group(FamilySpec(HYPERCUBE, k - 1))
        return ProductModel(ga, _model_group(FamilySpec(FOLDED, n - k + 1)))
    raise NoStructuredForm(f"no closed form for {spec.name()}")


def _model_group(spec: FamilySpec, g: Graph | None = None) -> PermGroup:
    """The family model's group on `g`, its generators unchecked and held
    by their affine form where the model has one: a product checks its
    factors' through its own, as (x, y) -> (a(x), y) is an automorphism of
    G x H iff a is one of G."""
    model = _family_model(spec)
    affine = model.affine() if hasattr(model, "affine") else None
    rows = model.generators() if affine is None else None
    return PermGroup(spec.vertex_count, rows, model.order(), "structured", g, model, affine=affine)


def structured_group(g: Graph) -> PermGroup:
    """The automorphism group in its closed structural form.

    Raises NoStructuredForm for the families without one, AQ_n and LTQ_n
    for n <= 3, and for graphs without a family tag; callers fall back on
    search.
    """
    spec = g.family
    if spec is None:
        raise NoStructuredForm("no family tag on this graph")
    grp = _model_group(spec, g)
    by_masks = grp.affine is not None and g.masks is not None
    ok = is_automorphism(g, grp.affine if by_masks else grp.generators)
    if not np.all(ok):
        raise AssertionError(f"structured generator {np.argmin(ok)} failed for {spec.name()}")
    return grp


# ---------------------------------------------------------------------------
# stabilizers


def _subgroup_of_rows(grp: PermGroup, rows: np.ndarray) -> PermGroup:
    """The subgroup of `grp` whose elements are the distinct rows `rows`,
    kept as its element table; its non-identity rows generate it."""
    moved = (rows != np.arange(grp.n_vertices)).any(axis=1)
    return PermGroup(grp.n_vertices, rows[moved], len(rows), grp.source, grp.graph,
                     _elements=rows)


def _fixing(rows: np.ndarray, S: list[int]):
    """Mask of the rows that fix every vertex of S."""
    return (rows[:, S] == S).all(axis=1)


def pointwise_stabilizer_is_trivial(grp: PermGroup, subset) -> bool:
    """Fast check that only the identity fixes every vertex of `subset`."""
    S = sorted(set(subset))
    if not S:
        return grp.is_trivial()
    return determining_test(grp).pointwise_trivial(S)


def pointwise_stabilizer(grp: PermGroup, subset) -> PermGroup:
    """Subgroup fixing every vertex of `subset`.

    A group whose generators are strong for a base starting with the
    vertices of `subset` keeps the generators that fix them, which generate
    the stabilizer: a model group's, strong for (0,) (see the group models),
    for Stab(0), with no table and no known order, and for an affine model
    the maps with c = 0, as maps; a searched group's for a
    prefix of its search base, with the rest of its chain.  Other groups and
    subsets are filtered on their element table.
    """
    S = sorted(set(subset))
    if not S:
        return grp
    if grp.model is not None and S == [0]:
        if grp.affine is not None:
            return PermGroup(grp.n_vertices, None, None, grp.source, grp.graph,
                             affine=grp.affine.take(grp.affine.shifts == 0))
        keep = np.flatnonzero(_fixing(grp.generators, S))
        if len(keep) and keep[-1] - keep[0] == len(keep) - 1:  # one run: a view, no copy
            keep = slice(keep[0], keep[-1] + 1)
        return PermGroup(grp.n_vertices, grp.generators[keep], None, grp.source, grp.graph)
    if grp.base is not None and S == sorted(grp.base[:len(S)]):
        return PermGroup(grp.n_vertices, grp.generators[_fixing(grp.generators, S)], None,
                         grp.source, grp.graph, base=grp.base[len(S):],
                         _chain=grp.chain()[len(S):])
    table = grp.elements()
    return _subgroup_of_rows(grp, table[_fixing(table, S)])


def setwise_stabilizer(grp: PermGroup, subset) -> PermGroup:
    """Subgroup mapping `subset` onto itself."""
    S = frozenset(subset)
    nv = grp.n_vertices
    if not S or len(S) == nv:
        return grp
    if hasattr(grp.model, "setwise_stabilizer"):
        return _subgroup_of_rows(grp, grp.model.setwise_stabilizer(S))
    member = np.zeros(nv, dtype=bool)
    member[list(S)] = True
    table = grp.elements()
    return _subgroup_of_rows(grp, table[member[table[:, sorted(S)]].all(axis=1)])
