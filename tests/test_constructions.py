from __future__ import annotations

from itertools import combinations

import pytest

from cubesym import constructions as cons
from cubesym.autgroup import AugmentedModel, FoldedModel, HypercubeModel, structured_group
from cubesym.bitgraph import (
    augmented_hypercube,
    folded_hypercube,
    hamming_graph,
    hamming_words,
    hypercube,
    locally_twisted_hypercube,
)
from cubesym.errors import ParameterOutOfRange
from cubesym.params import automorphism_group
from cubesym.symmetry import (
    _setwise_trivial,
    is_asymmetric,
    is_determining_set,
)


# ---------------------------------------------------------------------------
# characteristic matrices


def test_characteristic_matrix_transcription():
    x = cons.characteristic_matrix([0b00, 0b11], 2)
    assert x.entries == ((0, 0), (1, 1))
    x = cons.characteristic_matrix([0b0000, 0b1100, 0b1010], 4)
    assert x.entries == ((0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0))
    # even-case folded determining matrix: zero row, distinct nonzero columns
    words = cons.fq_det_set(4)
    x = cons.characteristic_matrix(sorted(words), 4)
    assert x.entries[0] == (0, 0, 0, 0)
    cols = x.columns()
    assert len(set(cols)) == 4 and all(any(c) for c in cols)


def test_columns_isomorphic():
    assert cons.columns_isomorphic((0, 1, 1, 0), (0, 1, 1, 0))
    assert cons.columns_isomorphic((0, 1, 1, 0), (1, 0, 0, 1))
    assert not cons.columns_isomorphic((0, 1, 1, 0), (0, 1, 0, 1))
    assert not cons.columns_isomorphic((0, 1, 1, 2), (1, 0, 2, 1), 3)
    assert cons.columns_isomorphic((0, 1, 1, 2), (1, 0, 0, 2), 3)


def test_char_matrix_is_determining():
    x = cons.characteristic_matrix([0b000, 0b110, 0b101], 3)
    assert cons.char_matrix_is_determining(x)
    dup = cons.CharMatrix(((0, 0), (1, 1)))
    assert not cons.char_matrix_is_determining(dup)
    # a Hamming column missing m-1 distinct symbols fails
    x = cons.characteristic_matrix([0, 4], 2, 3)  # words 00, 11 over K_3
    assert not cons.char_matrix_is_determining(x)


@pytest.mark.parametrize("make,n,m", [
    (lambda: hypercube(3), 3, 2),
    (lambda: hypercube(4), 4, 2),
    (lambda: hamming_graph(3, 2), 2, 3),
])
def test_char_matrix_criterion_equals_stabilizer_test(make, n, m):
    g = make()
    grp = automorphism_group(g)
    for size in range(1, 5):
        for subset in combinations(range(g.n_vertices), size):
            x = cons.characteristic_matrix(subset, n, m)
            assert cons.char_matrix_is_determining(x) == \
                is_determining_set(grp, subset), subset


# ---------------------------------------------------------------------------
# Stirling numbers and Hamming formulas


def _count_partitions(r: int, m: int) -> int:
    """Independent oracle: enumerate set partitions of range(r) into exactly
    m nonempty blocks via canonical color vectors."""
    if r == 0:
        return 1 if m == 0 else 0
    total = 0
    colors = [0] * r

    def rec(v, top):
        nonlocal total
        if v == r:
            total += top + 1 == m
            return
        for c in range(min(top + 1, m - 1) + 1):
            colors[v] = c
            rec(v + 1, max(top, c))

    rec(1, 0)
    return total


def test_stirling_values_against_enumeration():
    assert cons.stirling2(3, 2) == _count_partitions(3, 2) == 3
    assert cons.stirling2(4, 2) == _count_partitions(4, 2) == 7
    assert all(cons.stirling2(r, 1) == 1 for r in range(1, 13))
    for r in range(0, 9):
        for m in range(0, r + 1):
            assert cons.stirling2(r, m) == _count_partitions(r, m)


def test_stirling_recurrence_equals_formula():
    for r in range(0, 13):
        for m in range(0, r + 1):
            assert cons._stirling2_recurrence(r, m) == cons._stirling2_formula(r, m)
            if 1 <= m <= r:
                assert cons._stirling2_recurrence(r, m) == \
                    m * cons._stirling2_recurrence(r - 1, m) + \
                    cons._stirling2_recurrence(r - 1, m - 1)


def test_hamming_det_number():
    assert cons.hamming_det_number(3, 3) == 3
    assert cons.hamming_det_number(3, 2) == 3
    for m in range(2, 9):
        assert cons.hamming_det_number(m, 1) == m - 1
    for n in (1, 2, 3, 10, 100, 1000):
        assert cons.hamming_det_number(2, n) == cons.hypercube_det_number(n)


def test_hamming_threshold_closed_form_agreement():
    for m in range(2, 9):
        r = 1
        while cons._hamming_threshold(r, m) < 10**6:
            assert cons._hamming_threshold(r, m) == cons._hamming_threshold_closed(r, m)
            r += 1
        assert cons._hamming_threshold(r, m) == cons._hamming_threshold_closed(r, m)


def test_hamming_cost_bounds():
    b = cons.hamming_cost_bounds(3, 3)
    assert b.applicable and (b.lo, b.hi) == (3, 4)
    assert not cons.hamming_cost_bounds(3, 2).applicable
    assert cons.hamming_cost_bounds(3, 2).reason == "not 2-distinguishable"
    assert cons.hamming_cost_bounds(5, 2).reason == "n < m - 1"
    assert cons.hamming_cost_bounds(2, 6).reason == "m - 1 < 2"


# ---------------------------------------------------------------------------
# hypercube witnesses


def test_hypercube_det_set_values():
    assert set(cons.hypercube_det_set(8)) == \
        {0, 0b10101010, 0b11001100, 0b11110000}
    s10 = {format(w, "010b") for w in cons.hypercube_det_set(10)}
    assert {"1100110011", "1111000011"} <= s10
    assert set(cons.hypercube_det_set(4)) == {0, 0b1010, 0b1100}
    for n in range(2, 17):
        s = cons.hypercube_det_set(n)
        assert len(s) == cons.hypercube_det_number(n)


def test_hypercube_det_set_minimal_small():
    for n in (2, 3, 4, 5):
        g = hypercube(n)
        grp = structured_group(g)
        from cubesym.symmetry import determining_lower_bound_exhaustive

        assert determining_lower_bound_exhaustive(g, grp, cons.hypercube_det_number(n))


def test_hypercube_dist_class():
    for n in range(5, 9):
        cls = cons.hypercube_dist_class(n)
        assert len(cls) == n + 2
    with pytest.raises(ParameterOutOfRange):
        cons.hypercube_dist_class(4)


def test_q2_witnesses():
    S, T = cons.q2_witnesses(4)
    assert S == (0b0000, 0b1000, 0b1100, 0b1110)
    assert 0b0111 in T
    assert cons.q2_det_set_is_determining(4)
    for n in (5, 6):
        S, T = cons.q2_witnesses(n)
        assert len(S) == n and len(T) == n + 1
        assert cons.q2_det_set_is_determining(n)
        assert cons.q2_class_is_asymmetric(n)
    # the n = 4 class keeps a swap of the two middle path vertices
    assert not cons.q2_class_is_asymmetric(4)


# ---------------------------------------------------------------------------
# folded witnesses


def test_fq_det_set_sizes_match_formula():
    for n in range(1, 65):
        assert len(cons.fq_det_set(n)) == cons.folded_det_number(n), n


def test_fq_det_set_examples():
    assert len(cons.fq_det_set(6)) == 4
    assert len(cons.fq_det_set(7)) == 5
    assert len(cons.fq_det_set(5)) == 5
    assert len(cons.fq_det_set(9)) == 5
    # 9 = 1 mod 4 branch: extended column sum is not a column
    words = cons.fq_det_set(9)
    x = cons.characteristic_matrix(sorted(words), 9)
    cols = x.columns()
    colsum = tuple(sum(c[i] for c in cols) % 2 for i in range(len(cols[0])))
    assert colsum not in cols


def test_fq_det_verified_in_group():
    for n in (4, 5, 6, 7):
        g = folded_hypercube(n)
        grp = automorphism_group(g)
        assert is_determining_set(grp, cons.fq_det_set(n)), n


def test_fq_det_exhaustive_minimality():
    from cubesym.symmetry import determining_lower_bound_exhaustive

    for n in (4, 5, 6):
        g = folded_hypercube(n)
        grp = structured_group(g)
        assert determining_lower_bound_exhaustive(g, grp, cons.folded_det_number(n))


def test_fq_necessary_conditions():
    # a determining set for the folded cube determines the plain cube, has a
    # zero-containing translate, and covers every position with a one
    for n in (4, 6, 9, 12):
        words = cons.fq_det_set(n)
        assert HypercubeModel(n).pointwise_trivial(words)
        a = min(words)
        moved = [a ^ w for w in words]
        assert 0 in moved
        assert FoldedModel(n).pointwise_trivial(moved)
        union = 0
        for w in moved:
            union |= w
        assert union == (1 << n) - 1


def test_fq_dist_class_literals():
    assert set(cons.fq_dist_class(6)) == {int(s, 2) for s in (
        "101010", "100010", "110010", "110011", "111011", "111111",
        "111101", "111100", "000000")}
    assert set(cons.fq_dist_class(7)) == {int(s, 2) for s in (
        "1010101", "1110101", "1100101", "1100111", "1100110", "1110110",
        "1111110", "1111100", "1111000", "1111111", "0000000", "1000000")}


def test_fq_published_small_panels_are_not_asymmetric():
    # the drawn 4- and 5-vertex panels contain single-bit chords; the n = 4
    # one is preserved by the bit swap (1 3) and is not even a valid class,
    # and the n = 5 one induces a symmetric subgraph, so fq_dist_class
    # substitutes lex-least verified classes at those two sizes
    panel4 = [int(s, 2) for s in ("1111", "0000", "1000", "1010", "0010",
                                  "0110", "1100")]
    assert FoldedModel(4).pointwise_trivial(panel4)
    assert not is_asymmetric(cons.folded_induced(panel4, 4))
    g4 = structured_group(folded_hypercube(4))
    assert not _setwise_trivial(g4, panel4)
    panel5 = [int(s, 2) for s in ("10101", "10001", "11001", "11101", "11111",
                                  "11110", "00000", "01000")]
    assert not is_asymmetric(cons.folded_induced(panel5, 5))
    g5 = structured_group(folded_hypercube(5))
    assert _setwise_trivial(g5, panel5)  # still a valid class, by luck


def test_fq_dist_class_verified():
    for n in range(4, 13):
        cls = cons.fq_dist_class(n)
        assert FoldedModel(n).pointwise_trivial(cls)
        assert is_asymmetric(cons.folded_induced(cls, n))


def test_fq_dist_class_path_properties():
    for n in range(8, 15):
        path = cons.fq_dist_structure(n)["path"]
        for i in range(len(path)):
            for j in range(i + 1, len(path)):
                h = hamming_words(path[i], path[j], n)
                if j == i + 1:
                    assert h == 1
                else:
                    assert h >= 2 and h != n


def test_fq_dist_class_n8_matches_general_construction():
    expected = {int(s, 2) for s in (
        "10101010", "11101010", "11001010", "11001110", "11001100",
        "11101100", "11111100", "11110100", "11110000", "11111110",
        "11111111", "00000000")}
    assert set(cons.fq_dist_class(8)) == expected
    path = cons.fq_dist_structure(8)["path"]
    assert path[:5] == [0b10101010, 0b11101010, 0b11001010, 0b11001110,
                        0b11001100]


# ---------------------------------------------------------------------------
# augmented / locally twisted witnesses


def test_aq_det_witness():
    assert cons.aq_det_witness(6) == (0, 0b111001)
    assert cons.aq_det_witness(4) == (0, 1, 0b1000)
    assert len(cons.aq_det_witness(5)) == 3
    assert cons.aq_no_2subset_is_determining(4)
    assert cons.aq_no_2subset_is_determining(5)
    assert not cons.aq_no_2subset_is_determining(6)
    for n in (4, 5, 6, 7):
        assert AugmentedModel(n).pointwise_trivial(cons.aq_det_witness(n))
    assert cons.aq_det_witness(1) == (0,)
    assert cons.aq_det_witness(2) == (0, 1, 2)
    assert len(cons.aq_det_witness(3)) == 4


def test_aq_cost_class():
    assert cons.aq_cost_class(4) == (0, 0b1001, 0b0110)
    assert cons.aq_cost_class(5) == (0, 0b10001, 0b01110)
    for n in (4, 5, 6):
        cls = cons.aq_cost_class(n)
        grp = structured_group(augmented_hypercube(n))
        assert _setwise_trivial(grp, cls)
    # every pair of AQ_n is swapped by a translation; LTQ_n has no odd ones
    for n in (4, 5, 6):
        assert cons.aq_no_2subset_cost_class(augmented_hypercube(n))
        assert not cons.aq_no_2subset_cost_class(locally_twisted_hypercube(n))


def test_ltq_witnesses():
    assert cons.ltq_witnesses(4) == ((0,), (0,))
    assert cons.ltq_witnesses(5) == ((0,), (0,))
    det3, cost3 = cons.ltq_witnesses(3)
    assert len(det3) == 2 and len(cost3) == 3
    g = locally_twisted_hypercube(3)
    grp = automorphism_group(g)
    assert is_determining_set(grp, det3)
    assert _setwise_trivial(grp, cost3)


def test_enhanced_det_number():
    assert cons.enhanced_det_number(5, 3) == 6
    assert cons.enhanced_det_number(8, 5) == 4
    for n in (2, 3, 4, 5):
        assert cons.enhanced_det_number(n, 1) == cons.folded_det_number(n)
    with pytest.raises(ParameterOutOfRange):
        cons.enhanced_det_number(5, 5)


def test_enhanced_dist_candidates_verified():
    from cubesym.bitgraph import enhanced_hypercube

    for (n, k) in [(5, 2), (5, 4), (6, 4)]:
        cands = cons.enhanced_dist_class_candidates(n, k)
        assert cands
        g = enhanced_hypercube(n, k)
        grp = automorphism_group(g)
        assert any(_setwise_trivial(grp, c) for c in cands), (n, k)


def _candidates_with_det_set_first(n, k):
    """The enhanced-cube candidates with the FQ determining set built before
    its fit is tested, as the rule was first written."""
    if k == 1:
        return [cons.fq_dist_class(n)] if n >= 4 else []
    na, nb = 1 << (k - 1), 1 << (n - k + 1)
    out = []
    det_b = list(cons.fq_det_set(n - k + 1))
    if len(det_b) <= na - 1 <= nb:
        chain = det_b + [v for v in range(nb) if v not in det_b]
        out.append(tuple(sorted(i * nb + c for i in range(na) for c in chain[:i])))
    det_a = [0] if k == 2 else list(cons.hypercube_det_set(k - 1))
    if nb - 1 <= na and len(det_a) <= nb - 1:
        chain = det_a + [v for v in range(na) if v not in det_a]
        out.append(tuple(sorted(a * nb + j for j in range(nb) for a in chain[:j])))
    if k == 2 and n - 1 >= 4:
        out.append(cons.fq_dist_class(n - 1))
    return out


def test_enhanced_dist_candidates_build_the_det_set_only_when_it_fits(monkeypatch):
    """Testing the FQ determining set's fit by its size first gives the same
    candidates for n = 4..8 and every k, and for Q_{4,2}, where it does not
    fit, the set (checked on the K_{4,4} model) is never built."""
    for n in range(4, 9):
        for k in range(1, n):
            assert cons.enhanced_dist_class_candidates(n, k) == \
                _candidates_with_det_set_first(n, k), (n, k)

    def unused(n):
        raise AssertionError(f"fq_det_set({n}) built for a chain it cannot pin")

    monkeypatch.setattr(cons, "fq_det_set", unused)
    assert cons.enhanced_dist_class_candidates(4, 2) == []


def test_det_set_checks_survive_python_O():
    """The witness constructions check themselves with code that `python -O`
    keeps: with one check made to fail, each construction behind it raises,
    and a failed check exits 3 from the CLI.  So do the count cross-checks
    and the folded column, path and branch invariants, each broken by a
    stand-in or an out-of-range argument.  A transitivity report with
    inconsistent flags raises too, and so do a model's element table from
    repeated zero-fixing rows or repeated permutations, a structured group
    whose batched generator check fails, for Q_n, for Q_n with a linear
    generator that breaks its edges, for Q_5 held by a connection set
    that lacks one mask (`param det` exits 3), for a Hamming graph and
    for AQ_n built from a base-map table with two entries of a row swapped,
    the d >= 3 dist scan of Q_3 when the table test refuses every coloring
    (K_7, whose group is symmetric, then still answers 7), the class
    scan's kept-set table when the element table has a second identity
    row, the class scan's re-check when that table marks no set or lacks its complement mirror, the column view's action
    of the row maps when the type list lacks a type, the class scan of Q_5 when its prefix table lacks
    the open type set of its lex-least class, which then changes, dist of
    H(4,3) when the class scan returns a kept class, dist of Q_4 when the
    greedy class is kept, the element table of a
    searched group when its stabilizer chain has a wrong coset
    representative or its generators are not strong for its base, the
    element table of K_{4,4} when its model drops a row, the
    transitivity of K_{4,4} when vertex 0 sits in a middle slot of its
    part, the edge-transitivity of Q_{5,4} when the element built to map a neighbour
    x of 0 to 0 does not, and the setwise
    test of the cube and Hamming models when the images of the set under
    the element of a row map it finds move no vertex of it, leave it, or
    come from a column map that is no permutation, and the row map search
    when it is given columns with equal partitions."""
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    script = textwrap.dedent("""
        import sys
        from contextlib import nullcontext
        from unittest import mock
        import numpy as np
        from cubesym import autgroup, bitgraph, constructions as cons, symmetry, tables
        from math import factorial
        from cubesym.bitgraph import (FamilySpec, augmented_hypercube, enhanced_hypercube,
                                      folded_hypercube, hamming_graph,
                                      hypercube, hypercube_power)
        from cubesym.cli import main
        from cubesym.rowmaps import column_types
        from cubesym.search import search_automorphisms
        from cubesym.symmetry import TransitivityReport

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        never = lambda *args: False
        two_elements = lambda self, S: [None, None]
        edgeless = lambda words, n: cons._induced_by_rule(words, never)
        # (owner, name, stand-in, constructions whose check it must fail)
        checks = [
            (autgroup.HypercubeModel, "pointwise_trivial", never,
             [(cons.hypercube_det_set, 5), (cons.hypercube_dist_class, 5),
              (tables.summary_table, 5)]),
            (autgroup.FoldedModel, "pointwise_trivial", never,
             [(cons.fq_det_set, 6), (cons.fq_det_set, 9), (cons.fq_dist_class, 5),
              (cons.fq_dist_class, 8)]),
            (autgroup.AugmentedModel, "pointwise_trivial", never,
             [(cons.aq_det_witness, 5), (cons.aq_det_witness, 6)]),
            (autgroup.AugmentedModel, "setwise_stabilizer", two_elements,
             [(cons.aq_cost_class, 5)]),
            (cons, "is_asymmetric", never,
             [(cons.hypercube_dist_class, 5), (cons.fq_dist_class, 5)]),
            # an edgeless induced graph is symmetric; only the Q_n class reads it
            (cons, "hypercube_induced", edgeless,
             [(cons.hypercube_dist_class, 5), (tables.summary_table, 5)]),
            (cons, "q2_det_set_is_determining", never, [(cons.q2_witnesses, 5)]),
            (cons, "is_determining_set", never, [(cons.fq_det_set, 2), (cons.fq_det_set, 3)]),
            (cons, "determining_lower_bound_exhaustive", never, [(cons.fq_det_set, 3)]),
            (cons, "power2_induced", cons.hypercube_induced, [(cons.q2_witnesses, 5)]),
        ]
        for owner, name, stand_in, builds in checks:
            with mock.patch.object(owner, name, stand_in):
                for build, n in builds:
                    try:
                        build(n)
                    except AssertionError:
                        continue
                    sys.exit(f"{build.__name__}({n}) passed a failed {name} check")
        odd_columns = cons._fq_odd_columns
        xor = lambda *cols: tuple(sum(bits) % 2 for bits in zip(*cols))
        # (stand-ins in constructions, calls whose check they must fail)
        invariants = [
            ({"factorial": lambda m: 1_000_003},
             [(cons.stirling2, (3, 2)), (cons.hamming_det_number, (3, 5))]),
            ({"_stirling2_recurrence": lambda r, m: -1}, [(cons.stirling2, (3, 2))]),
            ({"_hamming_threshold_closed": lambda r, m: -1}, [(cons.hamming_det_number, (3, 5))]),
            ({"_fq_odd_columns": lambda n: odd_columns(n)[:-1]}, [(cons._fq_det_odd, (11,))]),
            ({"_fq_odd_columns": lambda n: odd_columns(n)[:-1] + [xor(*odd_columns(n)[:-1])]},
             [(cons._fq_det_odd, (11,))]),
            ({"_fq_odd_columns": lambda n: odd_columns(n)[:-1]
              + [xor(*odd_columns(n)[:-1], odd_columns(n)[0])]},
             [(cons._fq_det_odd, (21,))]),
            ({"_path_flaws": lambda path, n: (1, 0)}, [(cons.fq_dist_structure, (8,))]),
            ({"_bo_vectors": lambda n: [0, 0b11111111]}, [(cons.fq_dist_structure, (8,))]),
            # the hub farthest from the all-ones word, so both branches meet the path
            ({"_bo_vectors": lambda n: [0b11110000, 0b11111111],
              "hamming_words": lambda u, v, n: -(u ^ v).bit_count()},
             [(cons.fq_dist_structure, (8,))]),
        ]
        out_of_range = [(cons._fq_odd_columns, (8,)), (cons._flip_path, (0, 1 << 4, 4))]
        for stand_ins, calls in invariants + [({}, out_of_range)]:
            with mock.patch.multiple(cons, **stand_ins) if stand_ins else nullcontext():
                for call, args in calls:
                    try:
                        call(*args)
                    except AssertionError:
                        continue
                    sys.exit(f"{call.__name__}{args} passed a failed check ({sorted(stand_ins)})")
        # arc- without edge-transitivity, distance- without arc-transitivity
        for flags in [(True, False, True, False), (False, True, True, False),
                      (True, True, False, True)]:
            try:
                TransitivityReport(*flags)
            except AssertionError:
                continue
            sys.exit(f"TransitivityReport{flags} passed its check")
        with mock.patch.object(autgroup.HypercubeModel, "pointwise_trivial", never):
            if main(["construct", "hypercube-det", "-n", "5"]) != 3:
                sys.exit("construct hypercube-det did not exit 3")
        # the row checks: unit images that map every bit to one word give
        # repeated zero-fixing rows, and a generator check that fails
        with mock.patch.object(autgroup.HypercubeModel, "unit_images",
                               lambda self, pi: [1] * self.n):
            try:
                autgroup.HypercubeModel(4).enumerate()
            except AssertionError:
                pass
            else:
                sys.exit("enumerate passed broken unit images")
        with mock.patch.object(autgroup, "is_automorphism", never):
            try:
                autgroup.structured_group(hypercube(5))
            except AssertionError:
                pass
            else:
                sys.exit("structured_group passed a failed generator check")
            if main(["param", "det", "hypercube", "-n", "5", "--no-cache"]) != 3:
                sys.exit("param det hypercube did not exit 3")
        # a generator row with two of its images swapped is not affine, so a
        # model that gives rows, not an affine form, sends it to the edge
        # sort, which fails it
        real_rows = autgroup.HypercubeModel(5).generators()

        def one_row_swapped(self):
            rows = real_rows.copy()
            rows[0, [0, 1]] = rows[0, [1, 0]]
            return rows

        with mock.patch.multiple(autgroup.HypercubeModel, affine=lambda self: None,
                                 generators=one_row_swapped):
            try:
                autgroup.structured_group(hypercube(5))
            except AssertionError:
                pass
            else:
                sys.exit("structured_group passed a generator with two images swapped")
            if main(["param", "det", "hypercube", "-n", "5", "--no-cache"]) != 3:
                sys.exit("param det hypercube with a swapped generator did not exit 3")
        # the affine check looks the images of the connection set up: the
        # transvection e_0 -> e_0 + e_1 of Q_5 sends the edge value 1 to 3,
        # not an edge's; and it must show L invertible: e_0 -> e_1, which
        # maps D = {1, 2, 4, 8, 16} into D, is singular
        real_affine = autgroup.HypercubeModel.affine

        def with_unit_images(images):
            def stand_in(self):
                maps = real_affine(self)
                return autgroup.Affine(np.vstack([maps.units, [images]]),
                                       np.append(maps.shifts, 0))
            return stand_in

        for images, what in [([3, 2, 4, 8, 16], "a transvection that breaks the edges"),
                             ([2, 2, 4, 8, 16], "a singular map of D into D")]:
            with mock.patch.object(autgroup.HypercubeModel, "affine", with_unit_images(images)):
                try:
                    autgroup.structured_group(hypercube(5))
                except AssertionError:
                    pass
                else:
                    sys.exit(f"structured_group passed {what}")
                if main(["param", "det", "hypercube", "-n", "5", "--no-cache"]) != 3:
                    sys.exit(f"param det hypercube with {what} did not exit 3")
        real_hamming_generators = autgroup.HammingModel.generators

        def hamming_row_swapped(self):
            rows = real_hamming_generators(self).copy()
            rows[0, [0, 1]] = rows[0, [1, 0]]
            return rows

        with mock.patch.object(autgroup.HammingModel, "generators", hamming_row_swapped):
            try:
                autgroup.structured_group(hamming_graph(3, 3))
            except AssertionError:
                pass
            else:
                sys.exit("structured_group passed a Hamming generator with two images swapped")
            if main(["param", "det", "hamming", "-n", "3", "-m", "3", "--no-cache"]) != 3:
                sys.exit("param det hamming with a swapped generator did not exit 3")
        # AQ_n's generators include base map 2, held by its images of the
        # single bits, read from the patterns: its images of bits 0 and 2
        # swapped fail the check
        real_aq_units = autgroup._aq_units

        def aq_units_swapped(n):
            units = real_aq_units(n)
            units[1, [0, 2]] = units[1, [2, 0]]
            return units

        with mock.patch.object(autgroup, "_aq_units", aq_units_swapped):
            try:
                autgroup.structured_group(augmented_hypercube(5))
            except AssertionError:
                pass
            else:
                sys.exit("structured_group passed an AQ_n base map with two unit images swapped")
            if main(["param", "det", "augmented", "-n", "5", "--no-cache"]) != 3:
                sys.exit("param det augmented with a swapped base map did not exit 3")
        # a permutation table that repeats the identity fails the Hamming
        # model's table check
        with mock.patch.object(autgroup, "_lex_permutations",
                               lambda k: np.tile(np.arange(k), (factorial(k), 1))):
            try:
                autgroup.HammingModel(FamilySpec("hamming", 3, m=3)).enumerate()
            except AssertionError:
                pass
            else:
                sys.exit("the Hamming table passed repeated permutations")
        # the permutation table checks that each row is greater than the
        # last: two rows swapped, or a row repeated in place of the next,
        # fail it
        real_permutations = autgroup._lex_permutations

        def rows_swapped(k):
            rows = real_permutations(k)
            rows[[3, 4]] = rows[[4, 3]]
            return rows

        def row_repeated(k):
            rows = real_permutations(k)
            rows[4] = rows[3]
            return rows

        for stand_in in (rows_swapped, row_repeated):
            with mock.patch.object(autgroup, "_lex_permutations", stand_in):
                try:
                    autgroup._permutation_table(4)
                except AssertionError:
                    continue
            sys.exit(f"the permutation table passed {stand_in.__name__}")
        # a table test that refuses every coloring leaves the d >= 3 scan of
        # Q_3, whose class scan finds no class, with only the all-distinct
        # coloring once it has walked its 4,011 restricted-growth colorings
        # of 3-7 colors, and only the symmetric group needs that one
        with mock.patch.object(symmetry, "_only_identity_keeps", never):
            try:
                symmetry.distinguishing_number(hypercube(3), autgroup.structured_group(hypercube(3)))
            except AssertionError as exc:
                if "is not S_8" not in str(exc):
                    sys.exit(f"the d >= 3 scan of Q_3 failed elsewhere: {exc}")
            else:
                sys.exit("the d >= 3 scan of Q_3 passed without a distinguishing coloring")
            if main(["param", "dist", "hypercube", "-n", "3", "--no-cache"]) != 3:
                sys.exit("param dist hypercube with a refusing table test did not exit 3")
            # K_7's 5,040 rows pass the sieve's rows, which drop every
            # coloring of 3-6 colors, and its group is S_7: the all-distinct
            # witness needs no table test
            found = symmetry._distinguishing_d3(autgroup.structured_group(hamming_graph(7, 1)),
                                                "structured")
            if (found[0], found[1].payload) != (7, tuple(range(1, 8))):
                sys.exit(f"the d >= 3 scan of K_7 gave {found}")
        # an element table with a second identity row fails the class scan's
        # kept-set table
        q4 = autgroup.structured_group(hypercube(4))
        try:
            symmetry._kept_sets(np.vstack([q4.elements(), np.arange(16, dtype=np.int32)]))
        except AssertionError:
            pass
        else:
            sys.exit("the kept-set table passed a second identity row")
        # a kept-set table that leaves every set unmarked offers the class
        # (0,) of FQ_4, which the re-check refuses
        with mock.patch.object(symmetry, "_kept_sets",
                               lambda table: np.zeros(1 << table.shape[1], dtype=bool)):
            try:
                symmetry._least_class(autgroup.structured_group(folded_hypercube(4)))
            except AssertionError as exc:
                if "(0,)" not in str(exc):
                    sys.exit(f"the class scan of FQ_4 failed elsewhere: {exc}")
            else:
                sys.exit("the class scan passed a class the kept-set table left wrongly")
            if main(["param", "cost", "folded", "-n", "4", "--no-cache"]) != 3:
                sys.exit("param cost folded with an empty kept-set table did not exit 3")
        # a kept-set table without its complement mirror, which is the table
        # on the sets without vertex 0 (bit V-1) and marks none through it,
        # offers the class (0,) of FQ_4 too
        real_kept = symmetry._kept_sets

        def unmirrored(table):
            nv = table.shape[1]
            return real_kept(table) & (np.arange(1 << nv) < 1 << (nv - 1))

        with mock.patch.object(symmetry, "_kept_sets", unmirrored):
            try:
                symmetry._least_class(autgroup.structured_group(folded_hypercube(4)))
            except AssertionError as exc:
                if "(0,)" not in str(exc):
                    sys.exit(f"the unmirrored class scan of FQ_4 failed elsewhere: {exc}")
            else:
                sys.exit("the class scan passed a class the unmirrored kept-set table left")
            if main(["param", "cost", "folded", "-n", "4", "--no-cache"]) != 3:
                sys.exit("param cost folded with an unmirrored kept-set table did not exit 3")
        # a type list without its last type: the row maps read some type
        # into that one, which the column view's action refuses.  The open
        # type sets are cached per shape for the whole process, so the cache
        # is cleared before the stand-in, for it to be read, and after it,
        # so that no set computed from the short list outlives it
        real_types = symmetry.column_types
        symmetry._type_masks.cache_clear()
        with mock.patch.object(symmetry, "column_types", lambda r, m: real_types(r, m)[:-1]):
            try:
                symmetry._column_floor(autgroup.HypercubeModel(5), 32)
            except AssertionError as exc:
                if "not in the type list" not in str(exc):
                    sys.exit(f"the column floor of Q_5 failed elsewhere: {exc}")
            else:
                sys.exit("the column floor passed an action outside its type list")
            if main(["param", "cost", "hypercube", "-n", "5", "--no-cache"]) != 3:
                sys.exit("param cost hypercube with a short type list did not exit 3")
        symmetry._type_masks.cache_clear()
        # a prefix table without the open type set of the lex-least class
        # of Q_5, [0, 1, 2, 5, 11], as its columns read in that row order,
        # cuts that class at its last word, so cost finds another class
        q5 = autgroup.structured_group(hypercube(5))
        types = [tuple(t) for t in column_types(5, 2).tolist()]
        least = (0, 1, 2, 5, 11)
        dropped = sum(1 << (len(types) - 1 - types.index(c))
                      for c in q5.model._set_columns(least))
        real_masks = symmetry._type_masks

        def one_set_dropped(*shape):
            masks = real_masks(*shape)
            return None if masks is None else masks[masks != dropped]

        real_masks.cache_clear()
        if dropped not in real_masks(2, 5, False, 5):
            sys.exit("the lex-least class of Q_5 has no open type set")
        with mock.patch.object(symmetry, "_type_masks", one_set_dropped):
            try:
                found = symmetry.cost_2dist(q5.graph, q5)[1].payload
            except AssertionError:
                pass
            else:
                if found == least:
                    sys.exit("the prefix prune kept a class whose open set it lacks")
        real_masks.cache_clear()
        # a class scan that returns a kept class makes dist of H(4,3), whose
        # column floor is exact, fail its re-check
        with mock.patch.object(symmetry, "_least_class", lambda grp, node_budget: (0, 1, 2, 3)):
            if main(["param", "dist", "hamming", "-n", "4", "-m", "3", "--no-cache"]) != 3:
                sys.exit("param dist hamming with a kept class from the scan did not exit 3")
        # a greedy class that is kept makes dist of Q_4 fail its re-check
        with mock.patch.object(symmetry, "_greedy_two_class", lambda grp: (0,)):
            if main(["param", "dist", "hypercube", "-n", "4", "--no-cache"]) != 3:
                sys.exit("param dist hypercube with a kept greedy class did not exit 3")
        # a stabilizer chain whose first level has one wrong coset
        # representative, its last row replaced by its second, leaves the
        # last point of the orbit of b_1 without a row, so a Schreier
        # generator does not sift; and the searched generators of K_8 that
        # move b_1, without those that fix it, are not strong for the base
        real_transversals = autgroup.transversals

        def one_wrong_representative(gens, base):
            chain = real_transversals(gens, base)
            chain[0][-1] = chain[0][1]
            return chain

        with mock.patch.object(autgroup, "transversals", one_wrong_representative):
            if main(["param", "dist", "augmented", "-n", "3", "--no-cache"]) != 3:
                sys.exit("param dist augmented -n 3 with a wrong coset representative "
                         "did not exit 3")
        # a K_{b x a} table with one row dropped fails the order check of
        # the element table, for FQ_3 = K_{4,4} and for its factor of Q_{4,2}
        real_multipartite = autgroup.MultipartiteModel.enumerate
        with mock.patch.object(autgroup.MultipartiteModel, "enumerate",
                               lambda self: real_multipartite(self)[1:]):
            try:
                autgroup.structured_group(folded_hypercube(3)).elements()
            except AssertionError:
                pass
            else:
                sys.exit("the K_{4,4} table passed with a row dropped")
            if main(["param", "dist", "enhanced", "-n", "4", "-k", "2", "--no-cache"]) != 3:
                sys.exit("param dist enhanced -n 4 -k 2 with a K_{4,4} row dropped did not exit 3")
        # K_{4,4} with vertex 0 in a middle slot of its part: the swaps that
        # fix 0 would generate S_1 x S_2 in that part, not S_3, so Stab(0)
        # would split the sphere {3, 5, 6}, and the model refuses the parts
        real_parts = autgroup._multipartite_parts

        def zero_in_a_middle_slot(spec):
            parts = real_parts(spec)
            if spec.kind == "folded" and spec.n == 3:
                parts[0] = [3, 0, 5, 6]
            return parts

        with mock.patch.object(autgroup, "_multipartite_parts", zero_in_a_middle_slot):
            if main(["param", "transitivity", "folded", "-n", "3", "--no-cache"]) != 3:
                sys.exit("param transitivity folded -n 3 with 0 in a middle slot did not exit 3")
        k8 = search_automorphisms(hypercube_power(3, 3))
        moving = k8.generators[k8.generators[:, k8.base[0]] != k8.base[0]]
        try:
            autgroup._chain_table(moving, k8.base, autgroup.transversals(moving, k8.base))
        except AssertionError:
            pass
        else:
            sys.exit("the chain table passed generators that are not strong for the base")
        # the edge-transitivity of Q_{5,4}, whose Stab(0) has two orbits of
        # equal size on the neighbours of 0, reads an element h with h(x) = 0
        # for a neighbour x: a stand-in whose h is the identity fails its
        # check
        with mock.patch.object(symmetry, "_element_taking",
                               lambda gens, x, a: np.arange(gens.shape[1], dtype=gens.dtype)):
            try:
                g = enhanced_hypercube(5, 4)
                symmetry.transitivity_report(g, autgroup.structured_group(g))
            except AssertionError:
                pass
            else:
                sys.exit("transitivity passed an element that does not map x to 0")
            if main(["param", "transitivity", "enhanced", "-n", "5", "-k", "4", "--no-cache"]) != 3:
                sys.exit("param transitivity enhanced -n 5 -k 4 with a wrong element did not exit 3")
        # the setwise test of the cube and Hamming models computes the
        # images of the set under the element of each row map it finds:
        # images that move no vertex of the set, or that leave it, fail its
        # check.  Zero and the unit words are determining and kept by
        # swapping two columns.
        def broken(owner, kind):
            real = owner._row_map_images

            def stand_in(self, S, columns, rho, sources):
                images = real(self, S, columns, rho, sources)
                if kind == "identity":
                    return list(S)
                return [min(set(range(len(S) + 1)) - set(S))] + images[1:]
            return stand_in

        # The CLI cases are scans whose column floor is left open, so that
        # their leaves meet kept sets: Q_5^2 (32 types of 6 rows) and H(3,4)
        # (35 types of 5 rows); at an exact floor the prefix prune leaves
        # only classes.
        hamming_units = [0, 1, 3, 9]
        setwise_cases = [
            (autgroup._CubeSetwise, autgroup.HypercubeModel(5), [0, 1, 2, 4, 8, 16], None),
            (autgroup._CubeSetwise, autgroup.HalvedCubeModel(5), [0, 1, 2, 4, 8, 16],
             ["param", "cost", "power", "-n", "5", "-k", "2", "--no-cache"]),
            (autgroup.HammingModel, autgroup.HammingModel(FamilySpec("hamming", 3, m=3)),
             hamming_units, ["param", "cost", "hamming", "-n", "3", "-m", "4", "--no-cache"]),
        ]
        for owner, model, S, argv in setwise_cases:
            if not model.pointwise_trivial(S) or model.setwise_trivial(S):
                sys.exit(f"{S} is not a determining set with a setwise stabilizer")
            for kind in ("identity", "moved"):
                with mock.patch.object(owner, "_row_map_images", broken(owner, kind)):
                    try:
                        model.setwise_trivial(S)
                    except AssertionError:
                        pass
                    else:
                        sys.exit(f"setwise_trivial passed a {kind} element for {S}")
                    if argv and main(argv) != 3:
                        sys.exit(f"{' '.join(argv)} with a {kind} element did not exit 3")
        # a row map that does not keep the columns' partitions gives images
        # that are not the set, a column map that is no permutation fails
        # the check, and the row map search refuses columns with equal
        # partitions
        with mock.patch.object(autgroup, "moving_row_map",
                               lambda columns: ((4, 3, 2, 1, 0), list(range(len(columns))))):
            try:
                autgroup.HypercubeModel(5).setwise_trivial([0, 1, 2, 5, 11])
            except AssertionError:
                pass
            else:
                sys.exit("setwise_trivial passed a row map that moves a column partition")
        real_search = autgroup.moving_row_map

        def one_source_repeated(columns):
            found = real_search(columns)
            return found and (found[0], [found[1][0]] * len(found[1]))

        with mock.patch.object(autgroup, "moving_row_map", one_source_repeated):
            try:
                autgroup.HypercubeModel(5).setwise_trivial([0, 1, 2, 4, 8, 16])
            except AssertionError:
                pass
            else:
                sys.exit("setwise_trivial passed a column map that is no permutation")
        try:
            autgroup.moving_row_map([(0, 1, 1), (0, 1, 1)])
        except AssertionError:
            pass
        else:
            sys.exit("the row map search took columns with equal partitions")
        # Q_5 held by four of its five masks: the model's generators fail
        # the structured check
        real_masks = bitgraph._neighbor_masks
        with mock.patch.object(bitgraph, "_neighbor_masks", lambda spec: real_masks(spec)[:-1]):
            if main(["param", "det", "hypercube", "-n", "5", "--no-cache"]) != 3:
                sys.exit("Q_5 without one of its masks did not exit 3")
        with mock.patch.object(autgroup.AugmentedModel, "setwise_stabilizer", two_elements):
            sys.exit(main(["construct", "aq-cost-class", "-n", "5"]))
    """)
    src = Path(cons.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "internal inconsistency" in proc.stderr
