"""Row maps of a table of symbols that keep its columns' row partitions.

A set S of words is a table whose rows are the words and whose columns are
their positions.  A row map rho is a permutation of the rows; column c
read in rho's order is the column whose row i holds c's symbol of row
rho(i).  In a wreath-product group, S_m wr S_n on the words of length n
over m symbols, an element maps S onto itself exactly when the row map it
induces keeps the multiset of the columns' row partitions (see
`autgroup._RowMapSetwise`), so setwise triviality is a search for such row
maps.

The same view bounds the size of a class from below: a column's row
partition is its type, and each row map acts on the types (`column_types`,
`row_map_action`).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np


def moving_row_map(columns):
    """A row map rho other than the identity under which the columns' row
    partitions, each read in rho's order (row i reading row rho(i)), form
    the same multiset as before, with the source of each column c (the
    column whose partition c read in rho's order has); or None.  The rows,
    read across the columns, are distinct words, and the columns'
    partitions are distinct, as for the words of a determining set.

    Rows are mapped in a base order: each time the first row that splits
    two columns whose partitions agree on the base so far, or shows a
    column a symbol the base does not, until the partitions on the base
    are distinct and show every symbol of their columns.  A row goes only
    to a row with the same sorted block sizes, and the partitions
    restricted to the base rows mapped so far must keep their multiset.
    Once the base is mapped, each column's source and its symbol map are
    forced, and so is the image of every other row, found by its word; the
    identity on the base forces the identity.  A partition on a list of
    rows is coded as a number, to which each row adds the place of the
    first row of the list with its symbol (`labels`, per column)."""
    r, width = len(columns[0]), len(columns)

    def step(codes, labels, k, x):
        return [code * r + lab.get(c[x], k) for code, lab, c in zip(codes, labels, columns)]

    def relabel(labels, k, x):
        return [lab if c[x] in lab else {**lab, c[x]: k} for lab, c in zip(labels, columns)]

    counts = [len(set(c)) for c in columns]
    base, codes, labels, targets = [], [0] * width, [{}] * width, []
    while len(set(codes)) < width or any(len(lab) < m for lab, m in zip(labels, counts)):
        k = len(base)
        for x in range(r):
            if x in base:
                continue
            nxt = step(codes, labels, k, x)
            if len(set(nxt)) > len(set(codes)) or any(c[x] not in lab
                                                       for lab, c in zip(labels, columns)):
                break
        else:
            raise AssertionError("the row map search was given columns with equal partitions")
        base.append(x)
        codes, labels = nxt, relabel(labels, k, x)
        targets.append(sorted(codes))
    rest = [x for x in range(r) if x not in base]
    source_of = {code: s for s, code in enumerate(codes)}
    where = {word: x for x, word in enumerate(zip(*columns))}
    sizes = [{sym: c.count(sym) for sym in set(c)} for c in columns]
    shape = [sorted(size[c[x]] for size, c in zip(sizes, columns)) for x in range(r)]
    options = [[x for x in range(r) if shape[x] == shape[b]] for b in base]

    def complete(images, codes):
        if images == base:
            return None
        sources = [source_of[code] for code in codes]
        maps = [{columns[s][b]: c[x] for b, x in zip(base, images)}
                for c, s in zip(columns, sources)]
        rho = [0] * r
        for b, x in zip(base, images):
            rho[b] = x
        used = set(images)
        for i in rest:
            x = where.get(tuple(m[columns[s][i]] for m, s in zip(maps, sources)))
            if x is None or x in used:
                return None
            rho[i] = x
            used.add(x)
        return tuple(rho), sources

    def extend(images, codes, labels):
        k = len(images)
        if k == len(base):
            return complete(images, codes)
        for x in options[k]:
            if x in images:
                continue
            nxt = step(codes, labels, k, x)
            if sorted(nxt) == targets[k]:
                last = k + 1 == len(base)  # then the labels are not read again
                found = extend(images + [x], nxt, None if last else relabel(labels, k, x))
                if found is not None:
                    return found
        return None

    return extend([], [0] * width, [{}] * width)


def _rgs_partitions(n: int, d: int, least: int = 0):
    """Set partitions of range(n) into at least `least` and at most d
    blocks, in restricted-growth order; a prefix that cannot reach `least`
    blocks is not extended."""
    colors = [0] * n

    def rec(v: int, top: int):
        if v == n:
            yield colors
            return
        for c in range(min(top + 1, d - 1) + 1):
            if max(top, c) + n - v >= least:
                colors[v] = c
                yield from rec(v + 1, max(top, c))

    if n == 0:
        if least == 0:
            yield []
    elif n >= least:
        yield from rec(1, 0)


def column_types(r: int, m: int) -> np.ndarray:
    """The row partitions that a column of r rows over m symbols has in a
    determining set: the set partitions of the rows into m-1 or m blocks
    (every symbol shown but perhaps one), as restricted-growth strings, one
    row each, in lex order."""
    return np.array([tuple(p) for p in _rgs_partitions(r, m, m - 1)],
                    dtype=np.int64).reshape(-1, r)


def row_map_action(types: np.ndarray, m: int) -> np.ndarray:
    """`action[k, t]`: the place in `types`, the restricted-growth strings
    of `column_types` over m symbols, of type t read in the order of the
    k-th row map rho in lex order (row i reading row rho(i)) and
    normalised; row 0 is the identity's.  Normalising relabels each symbol
    by the rank of its first row among the symbols' first rows.  Raises
    AssertionError when a type so read is not in `types`."""
    n_types, r = types.shape
    perms = np.array(list(permutations(range(r))), dtype=np.intp)
    read = types[:, perms]  # (type, row map, row)
    shown = read[..., None] == np.arange(m)  # (type, row map, row, symbol)
    first = np.where(shown.any(axis=2), shown.argmax(axis=2), r)  # (type, row map, symbol)
    label = (first[..., None, :] < first[..., :, None]).sum(axis=3)
    weights = m ** np.arange(r - 1, -1, -1)
    codes, targets = types @ weights, np.take_along_axis(label, read, axis=2) @ weights
    place = np.minimum(np.searchsorted(codes, targets), n_types - 1)
    if (codes[place] != targets).any():
        raise AssertionError("a row map reads a column type that is not in the type list")
    return place.T
