"""Closed-form witness constructions for each family, paired with checks.

Every constructor returns vertices as word values and re-verifies its output
before returning: determining sets through the structural stabilizer tests,
2-distinguishing classes through the determining-plus-asymmetric-induced-
subgraph criterion, counts through independent enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial

from .autgroup import (
    AugmentedModel,
    FoldedModel,
    HalvedCubeModel,
    HypercubeModel,
    setwise_stabilizer,
    structured_group,
)
from .bitgraph import FamilySpec, Graph, graph_from_edges, hamming_words, word_digit
from .errors import ParameterOutOfRange
from .symmetry import determining_lower_bound_exhaustive, is_asymmetric, is_determining_set


def _ceil_lg(n: int) -> int:
    return (n - 1).bit_length()


# ---------------------------------------------------------------------------
# characteristic matrices


@dataclass(frozen=True)
class CharMatrix:
    """Rows are the vertices of an ordered set written factor by factor."""

    entries: tuple[tuple[int, ...], ...]
    alphabet: int = 2

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.n)]


def characteristic_matrix(words, n: int, m: int = 2) -> CharMatrix:
    """Characteristic matrix of an ordered vertex set over K_m^n coordinates."""
    rows = tuple(tuple(word_digit(w, j, n, m) for j in range(1, n + 1)) for w in words)
    return CharMatrix(rows, m)


def columns_isomorphic(a, b, m: int = 2) -> bool:
    """Two columns are isomorphic iff one is a symbol-relabelling of the other,
    i.e. they induce the same partition of the row indices."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ParameterOutOfRange("columns of different length")
    if m == 2:
        return a == b or all(x ^ 1 == y for x, y in zip(a, b))
    part_a = {}
    part_b = {}
    for i, (x, y) in enumerate(zip(a, b)):
        part_a.setdefault(x, []).append(i)
        part_b.setdefault(y, []).append(i)
    return sorted(part_a.values()) == sorted(part_b.values())


def char_matrix_is_determining(x: CharMatrix) -> bool:
    """Pairwise non-isomorphic columns, each holding a determining set of its
    factor (any symbol for K_2, at least m-1 distinct symbols for K_m)."""
    cols = x.columns()
    m = x.alphabet
    for j, col in enumerate(cols):
        if len(set(col)) < m - 1:
            return False
        for k in range(j + 1, len(cols)):
            if columns_isomorphic(col, cols[k], m):
                return False
    return True


# ---------------------------------------------------------------------------
# Stirling numbers and Hamming graphs


def _stirling2_recurrence(r: int, m: int) -> int:
    if r < 0 or m < 0:
        raise ParameterOutOfRange("stirling2 needs r, m >= 0")
    if m == 0 or m > r:
        return 1 if r == m else 0
    table = {(0, 0): 1}
    for rr in range(1, r + 1):
        for mm in range(0, m + 1):
            if mm == 0:
                table[(rr, mm)] = 0
            else:
                table[(rr, mm)] = mm * table.get((rr - 1, mm), 0) + table.get((rr - 1, mm - 1), 0)
    return table[(r, m)]


def _stirling2_formula(r: int, m: int) -> int:
    """Inclusion-exclusion sum; exact in big integers."""
    if m == 0:
        return 1 if r == 0 else 0
    total = sum((-1) ** i * comb(m, i) * (m - i) ** r for i in range(m + 1))
    q, rem = divmod(total, factorial(m))
    if rem:
        raise AssertionError(f"the S({r},{m}) sum is not divisible by {m}!")
    return q


def stirling2(r: int, m: int) -> int:
    """Partitions of an r-set into m nonempty unlabelled parts.

    The recurrence value is cross-checked against the summation formula.
    """
    val = _stirling2_recurrence(r, m)
    if val != _stirling2_formula(r, m):
        raise AssertionError(f"the recurrence and the sum disagree on S({r},{m})")
    return val


def _hamming_threshold(r: int, m: int) -> int:
    return _stirling2_recurrence(r, m) + _stirling2_recurrence(r, m - 1)


def _hamming_threshold_closed(r: int, m: int) -> int:
    """The same count of usable non-isomorphic columns, in closed form."""
    if m == 2:
        return 2 ** (r - 1)
    total = (-1) ** (m - 1)
    total += sum((-1) ** i * comb(m - 1, i) * ((m - i) ** (r - 1) + (m - i - 1) ** r)
                 for i in range(m - 1))
    q, rem = divmod(total, factorial(m - 1))
    if rem:
        raise AssertionError(f"the Hamming column count sum at r={r}, m={m} is not "
                             f"divisible by {m - 1}!")
    return q


def hamming_det_number(m: int, n: int) -> int:
    """det of the Hamming graph H(n,m), n positions over m symbols: the least
    r whose column budget S(r,m)+S(r,m-1) covers n.

    Both the Stirling form and the closed form are evaluated and must agree.
    """
    if m < 2 or n < 1:
        raise ParameterOutOfRange("hamming_det_number needs m >= 2, n >= 1")
    r = 1
    while True:
        t = _hamming_threshold(r, m)
        tc = _hamming_threshold_closed(r, m)
        if t != tc:
            raise AssertionError(f"the Hamming column counts at r={r}, m={m} disagree: "
                                 f"{t} by Stirling numbers, {tc} in closed form")
        if n <= t:
            return r
        r += 1


def hamming_is_two_distinguishable(m: int, n: int) -> bool:
    return (m == 2 and n >= 4) or (m == 3 and n >= 3) or (m >= 4 and n >= 2)


@dataclass(frozen=True)
class HammingCostBounds:
    applicable: bool
    lo: int | None = None
    hi: int | None = None
    reason: str | None = None


def hamming_cost_bounds(m: int, n: int) -> HammingCostBounds:
    """Cost window {det, det+1} when the product-cost theorem applies."""
    if m < 2 or n < 1:
        raise ParameterOutOfRange("hamming_cost_bounds needs m >= 2, n >= 1")
    if not hamming_is_two_distinguishable(m, n):
        return HammingCostBounds(False, reason="not 2-distinguishable")
    if m - 1 < 2:
        return HammingCostBounds(False, reason="m - 1 < 2")
    if n < m - 1:
        return HammingCostBounds(False, reason="n < m - 1")
    det = hamming_det_number(m, n)
    return HammingCostBounds(True, det, det + 1)


# ---------------------------------------------------------------------------
# closed-form determining numbers


def hypercube_det_number(n: int) -> int:
    if n < 1:
        return 0
    return _ceil_lg(n) + 1


def folded_det_number(n: int) -> int:
    if n == 1:
        return 1
    if n == 2:
        return 3
    if n == 3:
        return 6
    if _is_exceptional_folded(n):
        return _ceil_lg(n) + 2
    return _ceil_lg(n + 1) + 1


def _is_exceptional_folded(n: int) -> bool:
    """n of the form 2^m - 1 or 2^m - 3 with m >= 3."""
    for delta in (1, 3):
        t = n + delta
        if t >= 8 and t & (t - 1) == 0:
            return True
    return False


def enhanced_det_number(n: int, k: int) -> int:
    """det of the enhanced cube via its product decomposition."""
    if n < 2 or not 1 <= k <= n - 1:
        raise ParameterOutOfRange("enhanced_det_number needs n >= 2, 1 <= k <= n-1")
    return max(hypercube_det_number(k - 1), folded_det_number(n - k + 1))


# ---------------------------------------------------------------------------
# small induced subgraphs straight from the word rules


def _check_dist_class(model, cls, induced, n: int, name: str):
    """The 2-class check: `cls` is determining for `model` and its subgraph
    induced by the word rule `induced` is asymmetric."""
    if not model.pointwise_trivial(cls):
        raise AssertionError(f"the {name} distinguishing class is not determining")
    if not is_asymmetric(induced(cls, n)):
        raise AssertionError(f"the {name} distinguishing class induces a symmetric subgraph")


def _induced_by_rule(words, adjacent) -> Graph:
    ws = list(words)
    edges = [(i, j) for i, j in combinations(range(len(ws)), 2) if adjacent(ws[i], ws[j])]
    return graph_from_edges(len(ws), edges, FamilySpec("explicit"), tuple(ws))


def folded_induced(words, n: int) -> Graph:
    return _induced_by_rule(words, lambda u, v: hamming_words(u, v, n) in (1, n))


def hypercube_induced(words, n: int) -> Graph:
    return _induced_by_rule(words, lambda u, v: hamming_words(u, v, n) == 1)


def power2_induced(words, n: int) -> Graph:
    return _induced_by_rule(words, lambda u, v: 1 <= hamming_words(u, v, n) <= 2)


# ---------------------------------------------------------------------------
# hypercubes and their even powers


def hypercube_det_set(n: int) -> tuple[int, ...]:
    """Minimum determining set {V_0..V_r} of Q_n: V_i alternates blocks of
    2^(i-1) ones and zeros, truncated to length n; V_0 is the zero word."""
    if n < 2:
        raise ParameterOutOfRange("hypercube_det_set needs n >= 2")
    out = [0] + _bo_vectors(n)
    if not HypercubeModel(n).pointwise_trivial(out):
        raise AssertionError(f"the Q_{n} determining set construction is not determining")
    if len(out) != hypercube_det_number(n):
        raise AssertionError(f"the Q_{n} determining set has {len(out)} vertices, "
                             f"not det = {hypercube_det_number(n)}")
    return tuple(sorted(out))


def hypercube_dist_class(n: int) -> tuple[int, ...]:
    """A color class of a 2-distinguishing coloring of Q_n (n >= 5): the
    prefix-ones path plus a pendant neighbour of its third vertex, giving a
    determining set with an asymmetric induced subgraph."""
    if n < 5:
        raise ParameterOutOfRange("hypercube_dist_class needs n >= 5")
    path = [_prefix_ones(i, n) for i in range(n + 1)]
    pendant = path[2] | 1  # flips the last position of the third path vertex
    cls = path + [pendant]
    _check_dist_class(HypercubeModel(n), cls, hypercube_induced, n, f"Q_{n}")
    return tuple(sorted(cls))


def _prefix_ones(i: int, n: int) -> int:
    return ((1 << i) - 1) << (n - i)


def _q2_sets(n: int) -> tuple[list[int], list[int]]:
    if n <= 3:
        raise ParameterOutOfRange("q2_witnesses needs n > 3")
    S = [_prefix_ones(i, n) for i in range(n)]
    w = (1 << (n - 1)) - 1  # zero in position 1, ones elsewhere
    return S, S + [w]


def q2_witnesses(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Determining set and candidate 2-distinguishing class for the square of Q_n.

    S is the prefix-ones chain U_0..U_{n-1}, certified determining by the
    group model of Q_n^2 (`HalvedCubeModel`).  T = S + {w} induces the
    square of a path with a pendant edge at one end.  For n >= 5 that graph
    is asymmetric, so T is a 2-distinguishing color class.  At n = 4 it is
    not (see `q2_class_is_asymmetric`): T is returned unchecked there, and
    no class of size n + 1 exists, since rho(Q_4^2) = 8.
    """
    S, T = _q2_sets(n)
    if not q2_det_set_is_determining(n):
        raise AssertionError(f"the Q_{n}^2 determining set construction is not determining")
    gS = power2_induced(S, n)
    if not all(gS.has_edge(i, j) == (abs(i - j) <= 2)
               for i in range(n) for j in range(i + 1, n)):
        raise AssertionError(f"the Q_{n}^2 determining set does not induce the square of a path")
    return tuple(S), tuple(sorted(T))


def q2_det_set_is_determining(n: int) -> bool:
    """Whether the q2 set S is determining in Q_n^2, by its group model."""
    S, _ = _q2_sets(n)
    return HalvedCubeModel(n).pointwise_trivial(S)


def q2_class_is_asymmetric(n: int) -> bool:
    """Whether the q2 class T induces an asymmetric subgraph.

    True for n >= 5.  For n = 4 the induced subgraph is the square of P_4
    (K_4 minus an edge) with a pendant at an end, which keeps an internal
    swap of the two middle path vertices, so T is not a valid class there.
    """
    _, T = _q2_sets(n)
    return is_asymmetric(power2_induced(T, n))


# ---------------------------------------------------------------------------
# folded hypercubes


def fq_det_set(n: int) -> tuple[int, ...]:
    """Minimum determining set of FQ_n, following the parity/exception cases."""
    if n < 1:
        raise ParameterOutOfRange("fq_det_set needs n >= 1")
    if n <= 3:
        out = _fq_det_small(n)
    else:
        if _is_exceptional_folded(n):
            out = sorted(set(hypercube_det_set(n)) | {(1 << n) - 1})
        elif n % 2 == 0:
            out = _fq_det_even(n)
        else:
            out = _fq_det_odd(n)
        if not FoldedModel(n).pointwise_trivial(out):
            raise AssertionError(f"the FQ_{n} determining set construction is not determining")
    if len(out) != folded_det_number(n):
        raise AssertionError(f"the FQ_{n} determining set has {len(out)} vertices, "
                             f"not det = {folded_det_number(n)}")
    return tuple(sorted(out))


_FQ_DET_LITERALS = {1: (0,), 2: (0, 1, 2), 3: (0, 1, 2, 3, 4, 5)}


def _fq_det_small(n: int) -> list[int]:
    """FQ_1 = K_2, FQ_2 = K_4 and FQ_3 = K_{4,4}: their literal sets are
    checked determining, with no smaller one, on the complete multipartite
    model."""
    from .bitgraph import folded_hypercube

    out = list(_FQ_DET_LITERALS[n])
    g = folded_hypercube(n)
    grp = structured_group(g)
    if not is_determining_set(grp, out):
        raise AssertionError(f"the FQ_{n} determining set literal is not determining")
    if not determining_lower_bound_exhaustive(g, grp, len(out)):
        raise AssertionError(f"FQ_{n} has a determining set smaller than its literal")
    return out


def _words_from_columns(cols: list[tuple[int, ...]], n: int) -> list[int]:
    """Rows of a column-listed 0/1 matrix as words (row t, position j)."""
    height = len(cols[0])
    words = []
    for t in range(height):
        w = 0
        for j, col in enumerate(cols):
            if col[t]:
                w |= 1 << (n - 1 - j)
        words.append(w)
    return words


def _fq_det_even(n: int) -> list[int]:
    m = _ceil_lg(n + 1)
    cols = [tuple((j >> (m - 1 - t)) & 1 for t in range(m)) for j in range(1, n + 1)]
    words = _words_from_columns(cols, n)
    return [0] + words


def _fq_odd_columns(n: int) -> list[tuple[int, ...]]:
    """Odd n that is not adjacent to a power of two: pair complementary
    column vectors so the column sum lands outside the used columns."""
    m = _ceil_lg(n + 1)
    half = 1 << (m - 1)
    q = n - half
    if not (q % 2 == 1 and 1 <= q <= half - 5):
        raise AssertionError(f"the odd FQ_n columns need n = 2^k + q, odd q <= 2^k - 5; "
                             f"n = {n} has q = {q}")
    width = m - 1
    full = (1 << width) - 1
    c = [None] * (half)  # c[1..half-1]
    c[1] = full
    for t in range(1, (half >> 1)):
        c[2 * t] = t
        c[2 * t + 1] = full ^ t
    cvec = lambda x: tuple((x >> (width - 1 - s)) & 1 for s in range(width))  # noqa: E731
    cols = [(1,) + cvec(c[j]) for j in range(1, half - 1)]
    cols.append((0,) + cvec(c[half - 1]))
    cols += [(0,) + cvec(c[i]) for i in range(1, q + 2)]
    return cols


def _fq_det_odd(n: int) -> list[int]:
    """The odd-n determining set: zero and the rows of the paired columns,
    after checking that there are n columns and where their sum falls."""
    cols = _fq_odd_columns(n)
    if len(cols) != n:
        raise AssertionError(f"the odd FQ_{n} construction has {len(cols)} columns")
    colsum = tuple(sum(bits) % 2 for bits in zip(*cols))
    if n % 4 == 1 and colsum in cols:
        raise AssertionError(f"the odd FQ_{n} column sum is one of the columns")
    if n % 4 == 3 and not any(colsum):
        raise AssertionError(f"the odd FQ_{n} column sum is zero")
    return [0] + _words_from_columns(cols, n)


_FQ_CLASS_LITERALS = {
    # n = 4, 5: lexicographically least sets that are determining with an
    # asymmetric induced subgraph (no path-shaped set works at these sizes;
    # the natural flip-path constructions pick up chords and keep a swap)
    4: ["0000", "0001", "0010", "0011", "0100", "0101", "1000", "1011"],
    5: ["00000", "00001", "00010", "00011", "00100", "01001", "10100"],
    6: ["101010", "100010", "110010", "110011", "111011", "111111", "111101",
        "111100", "000000"],
    7: ["1010101", "1110101", "1100101", "1100111", "1100110", "1110110",
        "1111110", "1111100", "1111000", "1111111", "0000000", "1000000"],
}


def _flip_path(frm: int, to: int, n: int, reverse: bool = False) -> list[int]:
    """Vertices after `frm` obtained by flipping differing positions one at a
    time, leftmost first (rightmost first when `reverse`); ends with `to`."""
    out = []
    cur = frm
    positions = range(1, n + 1) if not reverse else range(n, 0, -1)
    for j in positions:
        bit = 1 << (n - j)
        if (cur ^ to) & bit:
            cur ^= bit
            out.append(cur)
    if cur != to:
        raise AssertionError(f"flipping the {n} positions of {frm} does not reach {to}")
    return out


def _path_flaws(path: list[int], n: int) -> tuple[int, int]:
    """(collisions, chords): repeated vertices, and non-consecutive pairs at
    Hamming distance 1 or n (folded adjacencies inside the path)."""
    collisions = len(path) - len(set(path))
    chords = 0
    for i in range(len(path)):
        for j in range(i + 2, len(path)):
            if hamming_words(path[i], path[j], n) in (1, n):
                chords += 1
    return collisions, chords


def fq_dist_structure(n: int) -> dict:
    """Path-and-branch data behind fq_dist_class for n >= 8.

    Each leg flips the differing positions leftmost first.  Truncation to a
    non-power-of-two length can make the literal flip order revisit a vertex
    or run a chord back into an earlier leg, so all per-leg orientation
    choices (leftmost- vs rightmost-first) are tried in lexicographic order
    and the first chord-free collision-free combination wins.
    """
    if n < 8:
        raise ParameterOutOfRange("the general construction starts at n = 8")
    from itertools import product

    full = (1 << n) - 1
    chain = _bo_vectors(n)
    legs = len(chain) - 1
    best = None
    for orient in product((False, True), repeat=legs):
        path = [chain[0]]
        for (a, b), rev in zip(zip(chain, chain[1:]), orient):
            path.extend(_flip_path(a, b, n, reverse=rev))
        collisions, chords = _path_flaws(path, n)
        if collisions == 0 and chords == 0:
            best = path
            break
        if collisions == 0 and best is None:
            best = path
    if best is None:
        raise AssertionError(f"every FQ_{n} path orientation revisits a vertex")
    path = best
    hub = min(enumerate(path), key=lambda t: (hamming_words(t[1], full, n), t[0]))[1]
    branch = []
    if hub != full:
        seen = set(path)
        for rev in (False, True):
            branch = _flip_path(hub, full, n, reverse=rev)
            if not seen & set(branch):
                break
        if seen & set(branch):
            raise AssertionError(f"both FQ_{n} branches run into the path")
    vertices = path + branch + [0]
    if len(set(vertices)) != len(vertices):
        raise AssertionError(f"the FQ_{n} path, branch and zero share a vertex")
    return {"path": path, "hub": hub, "branch": branch, "vertices": vertices}


def _bo_vectors(n: int) -> list[int]:
    """V_1..V_r, r = ceil(lg n), of the Q_n determining set."""
    r = _ceil_lg(n)
    out = []
    for i in range(1, r + 1):
        block = 1 << (i - 1)
        w = 0
        for j in range(1, n + 1):
            if ((j - 1) // block) % 2 == 0:
                w |= 1 << (n - j)
        out.append(w)
    return out


def fq_dist_class(n: int) -> tuple[int, ...]:
    """A 2-distinguishing color class of FQ_n (n >= 4): a determining set
    inducing an asymmetric subgraph.  Literal sets for 4 <= n <= 7, the
    path-tree construction beyond."""
    if n < 4:
        raise ParameterOutOfRange("fq_dist_class needs n >= 4")
    if n <= 7:
        cls = [int(s, 2) for s in _FQ_CLASS_LITERALS[n]]
    else:
        data = fq_dist_structure(n)
        cls = list(data["vertices"])
        if not is_asymmetric(folded_induced(cls, n)):
            cls = _fq_break_symmetry(cls, n)
    _check_dist_class(FoldedModel(n), cls, folded_induced, n, f"FQ_{n}")
    return tuple(sorted(cls))


def _fq_break_symmetry(cls: list[int], n: int) -> list[int]:
    """Deterministically extend a determining class until its induced
    subgraph is asymmetric: first the pendant 10..0 at the zero vertex, then
    the lex-least word with exactly one neighbour in the class that works.
    (Truncation to non-power-of-two lengths can collapse the path-and-branch
    tree into a plain path, which a well-placed pendant repairs.)
    """
    base = set(cls)
    candidates = [1 << (n - 1)]
    candidates += [w for w in range(1 << n) if w not in base]
    for w in candidates:
        if w in base:
            continue
        deg = sum(1 for v in cls if hamming_words(w, v, n) in (1, n))
        if deg != 1:
            continue
        trial = cls + [w]
        if is_asymmetric(folded_induced(trial, n)):
            return trial
    raise AssertionError(f"no single pendant restores asymmetry for n={n}")


def fq_dist_class_size_bound(n: int) -> int:
    """Size budget for the constructed class (n >= 5): the path length bound
    plus the branch-and-pendants allowance.

    The formula gives 7 at n = 4, but rho(FQ_4) = 8 (FQ_4 is the Clebsch
    graph; no set of 7 or fewer vertices has a trivial setwise stabilizer),
    so no class meets it there and n = 4 is out of range.
    """
    if n < 5:
        raise ParameterOutOfRange("fq_dist_class_size_bound needs n >= 5")
    r = _ceil_lg(n)
    return 1 + (r - 1) * n // 2 + n // 4 + 3


# ---------------------------------------------------------------------------
# augmented hypercubes


def aq_det_witness(n: int) -> tuple[int, ...]:
    """Minimum determining set of AQ_n for n >= 4; oracle literals below."""
    if n < 4:
        from .bitgraph import augmented_hypercube
        from .oracle import oracle_determining_number

        return tuple(oracle_determining_number(augmented_hypercube(n)).witness)
    if n >= 6:
        y = (1 << (n - 1)) | (((1 << (n - 4)) - 1) << 3) | 1
        out = (0, y)
    else:
        out = (0, 1, 1 << (n - 1))
    if not AugmentedModel(n).pointwise_trivial(out):
        raise AssertionError(f"the AQ_{n} determining set construction is not determining")
    return tuple(sorted(out))


def aq_no_2subset_is_determining(n: int) -> bool:
    """Exhaustively confirms that no 2-subset of AQ_n (n in {4, 5}) is
    determining (via translation to the zero vertex)."""
    model = AugmentedModel(n)
    return not any(model.pointwise_trivial((0, v)) for v in range(1, 1 << n))


def aq_cost_class(n: int) -> tuple[int, ...]:
    """3-element class {0, 1..0..1, 0 1..1 0} with trivial setwise stabilizer."""
    if n < 4:
        raise ParameterOutOfRange("aq_cost_class needs n >= 4")
    cls = (0, (1 << (n - 1)) | 1, (1 << (n - 1)) - 2)
    if len(AugmentedModel(n).setwise_stabilizer(cls)) != 1:
        raise AssertionError(f"the AQ_{n} cost class has a nontrivial setwise stabilizer")
    return cls


def aq_no_2subset_cost_class(g: Graph) -> bool:
    """Exhaustive over 2-subsets: True iff each pair of `g` has a nontrivial
    setwise stabilizer in its structured group, so that no 2-subset is a
    cost class.  In AQ_n the translation by a + b swaps a and b."""
    grp = structured_group(g)
    return all(setwise_stabilizer(grp, pair).order() > 1
               for pair in combinations(range(g.n_vertices), 2))


# ---------------------------------------------------------------------------
# locally twisted hypercubes


def ltq_witnesses(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(determining set, 2-distinguishing class) for LTQ_n."""
    if n < 3:
        raise ParameterOutOfRange("ltq_witnesses needs n >= 3")
    if n == 3:
        from .bitgraph import locally_twisted_hypercube
        from .oracle import oracle_cost, oracle_determining_number

        g = locally_twisted_hypercube(3)
        det = oracle_determining_number(g)
        cost = oracle_cost(g)
        return tuple(det.witness), tuple(cost.witness)
    # only the zero translation fixes any single vertex
    return (0,), (0,)


# ---------------------------------------------------------------------------
# enhanced hypercubes: 2-distinguishing class candidates


def enhanced_dist_class_candidates(n: int, k: int) -> list[tuple[int, ...]]:
    """Candidate 2-distinguishing classes for the enhanced cube, built from
    the product structure; each must still be verified by the caller."""
    if k == 1:
        return [fq_dist_class(n)] if n >= 4 else []
    na, nb = 1 << (k - 1), 1 << (n - k + 1)
    out = []
    # rows = prefix factor with pairwise distinct row sizes, columns chained so
    # the pinned prefix of the chain is a determining set of the suffix factor,
    # built only when it fits (`fq_det_set` checks its length is det)
    if folded_det_number(n - k + 1) <= na - 1 <= nb:
        det_b = list(fq_det_set(n - k + 1))
        chain = det_b + [v for v in range(nb) if v not in det_b]
        cls = []
        for i in range(na):
            cls.extend(i * nb + c for c in chain[:i])
        out.append(tuple(sorted(cls)))
    det_a = [0] if k == 2 else list(hypercube_det_set(k - 1))
    if nb - 1 <= na and len(det_a) <= nb - 1:
        chain = det_a + [v for v in range(na) if v not in det_a]
        cls = []
        for j in range(nb):
            cls.extend(a * nb + j for a in chain[:j])
        out.append(tuple(sorted(cls)))
    if k == 2 and n - 1 >= 4:
        out.append(fq_dist_class(n - 1))  # one K_2 copy colored, the other plain
    return out
