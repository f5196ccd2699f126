"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 9 (the brute-force cross-validation corpus) is opt-in:
`pytest -m oracle_suite`.

Errata.  Four published values are refuted by exhaustive computation, and the
tests assert the corrected values, each also checked against `cubesym.oracle`:

* dist(Q_{3,2}) = dist(Q_{4,2}) = 3, not 2 (criterion 2).  By the product
  decomposition Q_{n,k} = Q_{k-1} x FQ_{n-k+1}, Q_{3,2} = K_2 x K_4 and
  Q_{4,2} = K_2 x K_{4,4}.  In a 2-coloring every K_4 vertex (every vertex
  of one side of K_{4,4}) carries a pair of colors, one per K_2 copy, of 4
  types; the symmetric group on those 4 vertices forces all 4 types to
  appear.  Swapping the two copies and exchanging the `01` and `10`
  vertices (in K_{4,4}: swapping the two sides type for type) is then a
  non-identity automorphism that keeps the coloring.
* rho(Q_4^2) = 8, not <= n+1 = 5 (criterion 4).  Q_4^2 is the complement of
  the Clebsch graph (|Aut| = 1920), and no set of 7 or fewer vertices has a
  trivial setwise stabilizer; the q2 class T induces the square of P_4 with a
  pendant, which keeps a swap of the two middle vertices.  The construction
  holds for n >= 5.
* rho(FQ_4) = 8, not <= 7 (criterion 5).  FQ_4 is the Clebsch graph, so the
  same scan applies; the class-size bound holds for n >= 5 and
  `fq_dist_class_size_bound` rejects n = 4.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from conftest import row_set

from cubesym import constructions as cons
from cubesym.autgroup import FoldedModel, structured_group
from cubesym.bitgraph import (
    FamilySpec,
    augmented_hypercube,
    build_family,
    complement,
    enhanced_hypercube,
    folded_hypercube,
    hamming_graph,
    hypercube,
    hypercube_power,
    locally_twisted_hypercube,
    same_edges,
)
from cubesym.errors import NotTwoDistinguishable, ParameterOutOfRange
from cubesym.oracle import (
    enumerate_automorphisms_naive,
    oracle_cost,
    oracle_determining_number,
    oracle_distinguishing_number,
)
from cubesym.params import (
    automorphism_group,
    compute_parameter,
    dist_class_candidates,
    verify_witness,
)
from cubesym.search import search_automorphisms
from cubesym.symmetry import (
    cost_2dist,
    determining_lower_bound_exhaustive,
    determining_number,
    distinguishing_number,
    is_asymmetric,
    is_determining_set,
    transitivity_report,
    two_class_is_distinguishing,
)


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {tag}{': ' + detail if detail else ''}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_group_structure():
    """Searched |Aut| equals the structured-group order for every family."""
    cases = [
        (hypercube(3), 48), (hypercube(4), 384), (hypercube(5), 3840),
        (folded_hypercube(4), 1920), (folded_hypercube(5), (1 << 5) * 720),
        (augmented_hypercube(4), 128), (augmented_hypercube(5), 256),
        (locally_twisted_hypercube(4), 8), (locally_twisted_hypercube(5), 16),
    ]
    bad = []
    for g, order in cases:
        sg = structured_group(g)
        se = search_automorphisms(g)
        if not (sg.order() == se.order() == order
                and row_set(sg.elements()) == row_set(se.elements())):
            bad.append((g.family.name(), sg.order(), se.order(), order))
    _report("1 group structure", not bad, f"mismatches: {bad}" if bad else
            "searched == structured for Q_3..Q_5, FQ_4/5, AQ_4/5, LTQ_4/5")


# -- 2 -----------------------------------------------------------------------

PAPER_ENHANCED_GRID = {
    (2, 1): 4, (3, 1): 5, (3, 2): 2,
    (4, 1): 2, (4, 2): 2, (4, 3): 2,
    (5, 1): 2, (5, 2): 2, (5, 3): 2, (5, 4): 2,
    (6, 4): 2,
}

# cell -> (published, correct); see the module docstring for the proof
ENHANCED_GRID_ERRATA = {(3, 2): (2, 3), (4, 2): (2, 3)}

ENHANCED_GRID = {**PAPER_ENHANCED_GRID,
                 **{cell: right for cell, (_, right) in ENHANCED_GRID_ERRATA.items()}}


def test_criterion_2_enhanced_grid():
    """dist(Q_{n,k}) over the published grid, with the errata applied, via
    structured groups; the corrected cells are re-checked by the oracle."""
    for cell, (published, _) in ENHANCED_GRID_ERRATA.items():
        assert PAPER_ENHANCED_GRID[cell] == published, cell
    computed = {}
    for (n, k) in ENHANCED_GRID:
        g = enhanced_hypercube(n, k)
        grp = automorphism_group(g)
        computed[(n, k)], _ = distinguishing_number(
            g, grp, cons.enhanced_dist_class_candidates(n, k))
    mismatch = {c: (computed[c], ENHANCED_GRID[c])
                for c in ENHANCED_GRID if computed[c] != ENHANCED_GRID[c]}
    oracle = {(n, k): oracle_distinguishing_number(enhanced_hypercube(n, k)).value
              for (n, k) in ENHANCED_GRID_ERRATA}
    bad_oracle = {c: v for c, v in oracle.items() if v != ENHANCED_GRID[c]}
    _report("2 enhanced-cube grid", not mismatch and not bad_oracle,
            "computed == published grid, except dist(Q_{3,2}) = dist(Q_{4,2}) "
            "= 3 (published 2), which the oracle confirms"
            if not mismatch and not bad_oracle else
            f"computed (ours, expected) = {mismatch}; oracle on the errata "
            f"cells = {bad_oracle}")


def test_criterion_2_enhanced_grid_self_consistent():
    """The computed grid agrees with the independent oracle where it runs."""
    for (n, k) in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]:
        g = enhanced_hypercube(n, k)
        grp = automorphism_group(g)
        value, _ = distinguishing_number(g, grp,
                                         cons.enhanced_dist_class_candidates(n, k))
        assert value == oracle_distinguishing_number(g).value, (n, k)


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_hypercube_line():
    detail = []
    for n in range(2, 6):
        g = hypercube(n)
        grp = structured_group(g)
        value, wit = determining_number(g, grp)
        assert value == cons.hypercube_det_number(n) == len(wit.payload)
        assert determining_lower_bound_exhaustive(g, grp, value)
    for n in range(6, 17):
        s = cons.hypercube_det_set(n)  # construction verifies while building
        assert len(s) == cons.hypercube_det_number(n) == (n - 1).bit_length() + 1
    detail.append("det(Q_n) = ceil(lg n)+1 for 2..16")

    g3 = hypercube(3)
    d3, _ = distinguishing_number(g3, structured_group(g3))
    assert d3 == 3
    g4 = hypercube(4)
    grp4 = structured_group(g4)
    d4, _ = distinguishing_number(g4, grp4)
    assert d4 == 2
    for n in range(5, 9):
        g = hypercube(n)
        grp = structured_group(g)
        cls = cons.hypercube_dist_class(n)
        assert two_class_is_distinguishing(g, grp, cls), n
        assert grp.order() > 1
    detail.append("dist(Q_3) = 3, dist(Q_4..Q_8) = 2")

    cost, wit = cost_2dist(g4, grp4)
    assert cost == 5 and len(wit.payload) == 5
    detail.append("rho(Q_4) = 5 exhaustively")
    _report("3 hypercube line", True, "; ".join(detail))


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_powers_determining_and_groups():
    detail = []
    for n, want in [(4, 4), (5, 5), (6, 4)]:
        g = hypercube_power(n, 2)
        grp = search_automorphisms(g)
        value, _ = determining_number(g, grp)
        assert value == want, (n, value)
        assert determining_lower_bound_exhaustive(g, grp, want)
    detail.append("det(Q_4^2, Q_5^2, Q_6^2) = 4, 5, 4 exhaustively")
    q5 = row_set(search_automorphisms(hypercube(5)).elements())
    q53 = row_set(search_automorphisms(hypercube_power(5, 3)).elements())
    q52 = row_set(search_automorphisms(hypercube_power(5, 2)).elements())
    assert q53 == q5 and q52 != q5
    detail.append("Aut(Q_5^3) = Aut(Q_5), Aut(Q_5^2) != Aut(Q_5)")
    _report("4 powers (groups and determining)", True, "; ".join(detail))


def test_criterion_4_q2_witnesses():
    bad = []
    for n in range(5, 11):
        S, T = cons.q2_witnesses(n)
        if not (len(S) <= n and len(T) <= n + 1):
            bad.append((n, "sizes"))
        if not cons.q2_class_is_asymmetric(n):
            bad.append((n, "class T is not a valid 2-distinguishing class"))
    # erratum: no class of size n + 1 = 5 exists at n = 4
    if cons.q2_class_is_asymmetric(4):
        bad.append((4, "class T reported valid, but it keeps a swap of the "
                       "two middle path vertices"))
    g = hypercube_power(4, 2)
    cost, _ = cost_2dist(g, automorphism_group(g))
    ocost = oracle_cost(g).value
    if not cost == ocost == 8:
        bad.append((4, f"rho(Q_4^2): solver {cost}, oracle {ocost}, expected 8"))
    _report("4 powers (q2 witnesses 5..10, rho(Q_4^2) = 8)", not bad,
            "witnesses verified for 5..10; at n = 4 the class is rejected and "
            "rho(Q_4^2) = 8 (published <= 5), solver and oracle agree"
            if not bad else str(bad))


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_folded_determining():
    for n in range(4, 21):
        s = cons.fq_det_set(n)  # verifies determining on construction
        assert len(s) == cons.folded_det_number(n)
    for n in range(4, 8):
        g = folded_hypercube(n)
        grp = structured_group(g)
        assert determining_lower_bound_exhaustive(g, grp, cons.folded_det_number(n)), n
    _report("5 folded determining", True,
            "det(FQ_n) matches the case formula, constructions verified "
            "4..20, exhaustive minimality 4..7")


def test_criterion_5_folded_dist_classes():
    bad = []
    for n in range(4, 13):
        cls = cons.fq_dist_class(n)
        if not FoldedModel(n).pointwise_trivial(cls):
            bad.append((n, "not determining"))
        if not is_asymmetric(cons.folded_induced(cls, n)):
            bad.append((n, "induced subgraph not asymmetric"))
        if n >= 5 and len(cls) > cons.fq_dist_class_size_bound(n):
            bad.append((n, f"size {len(cls)} > bound {cons.fq_dist_class_size_bound(n)}"))
    # erratum: the bound's formula gives 7 at n = 4, but rho(FQ_4) = 8
    g = folded_hypercube(4)
    cost, _ = cost_2dist(g, automorphism_group(g))
    ocost = oracle_cost(g).value
    if not len(cons.fq_dist_class(4)) == cost == ocost == 8:
        bad.append((4, f"class {len(cons.fq_dist_class(4))}, solver {cost}, "
                       f"oracle {ocost}, expected 8"))
    with pytest.raises(ParameterOutOfRange):
        cons.fq_dist_class_size_bound(4)
    _report("5 folded 2-distinguishing classes", not bad,
            "classes verified for 4..12, within the size bound for 5..12; "
            "rho(FQ_4) = 8 (published <= 7), solver and oracle agree"
            if not bad else str(bad))


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_hamming():
    # threshold agreement covers every n <= 10^6 because hamming_det_number
    # is determined by the (r -> column budget) thresholds, which are checked
    # in both forms up to the first budget beyond 10^6
    for m in range(2, 9):
        r = 1
        while True:
            a = cons._hamming_threshold(r, m)
            b = cons._hamming_threshold_closed(r, m)
            assert a == b, (m, r)
            if a > 10**6:
                break
            r += 1
    for m in range(2, 9):
        for n in (1, 2, 3, 17, 1000, 10**6):
            cons.hamming_det_number(m, n)  # asserts both forms agree internally

    g = hamming_graph(3, 2)
    grp = search_automorphisms(g)
    value, _ = determining_number(g, grp)
    assert value == cons.hamming_det_number(3, 2) == 3
    assert determining_lower_bound_exhaustive(g, grp, 3)

    assert cons.hamming_cost_bounds(3, 3) == cons.HammingCostBounds(True, 3, 4)
    assert not cons.hamming_cost_bounds(3, 2).applicable
    assert not cons.hamming_cost_bounds(5, 2).applicable
    _report("6 hamming", True,
            "Stirling and closed forms agree for 2<=m<=8 up to n=10^6; "
            "det(H(2,3)) = 3 exhaustively; cost bounds gated correctly")


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_augmented():
    detail = []
    want = {1: 1, 2: 3, 3: 4, 4: 3, 5: 3, 6: 2, 7: 2}
    for n in (1, 2, 3, 4):
        g = augmented_hypercube(n)
        grp = automorphism_group(g)
        value, _ = determining_number(g, grp)
        assert value == want[n], (n, value)
    g5 = augmented_hypercube(5)
    grp5 = structured_group(g5)
    assert is_determining_set(grp5, cons.aq_det_witness(5))
    assert cons.aq_no_2subset_is_determining(5)
    for n in (6, 7):
        grp = structured_group(augmented_hypercube(n))
        assert is_determining_set(grp, cons.aq_det_witness(n))
        assert len(cons.aq_det_witness(n)) == 2
    detail.append("det(AQ_1..7) = 1,3,4,3,3,2,2")

    for n in (4, 5, 6):
        g = augmented_hypercube(n)
        grp = structured_group(g)
        assert cons.aq_no_2subset_cost_class(g)
        value, wit = cost_2dist(g, grp)
        assert value == 3 == len(cons.aq_cost_class(n)), (n, value)
    detail.append("rho(AQ_4..6) = 3 (2-subsets eliminated exhaustively)")

    for n in (3, 4):
        g = augmented_hypercube(n)
        rep = transitivity_report(g, automorphism_group(g))
        assert rep.vertex_transitive and not rep.edge_transitive \
            and not rep.arc_transitive, n
    detail.append("AQ_3, AQ_4 vertex- but not edge/arc-transitive")
    _report("7 augmented", True, "; ".join(detail))


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_locally_twisted():
    want = {3: (2, 2, 3), 4: (1, 2, 1), 5: (1, 2, 1), 6: (1, 2, 1)}
    for n, (wd, wdist, wcost) in want.items():
        g = locally_twisted_hypercube(n)
        grp = automorphism_group(g)
        det, _ = determining_number(g, grp)
        dist, _ = distinguishing_number(g, grp, dist_class_candidates(g))
        cost, _ = cost_2dist(g, grp)
        assert (det, dist, cost) == (wd, wdist, wcost), (n, det, dist, cost)
    for n in (3, 4):
        g = locally_twisted_hypercube(n)
        assert oracle_determining_number(g).value == want[n][0]
        assert oracle_distinguishing_number(g).value == want[n][1]
        assert oracle_cost(g).value == want[n][2]
    _report("8 locally twisted", True,
            "det/dist/rho = 2/2/3 at n=3 and 1/2/1 at n=4..6, oracle-confirmed "
            "for n=3,4")


# -- 9 (opt-in) ---------------------------------------------------------------

CORPUS = [
    ("Q_3", lambda: hypercube(3)),
    ("Q_4", lambda: hypercube(4)),
    ("Q_4^2", lambda: hypercube_power(4, 2)),
    ("FQ_3", lambda: folded_hypercube(3)),
    ("FQ_4", lambda: folded_hypercube(4)),
    ("Q_{4,1}", lambda: enhanced_hypercube(4, 1)),
    ("Q_{4,2}", lambda: enhanced_hypercube(4, 2)),
    ("Q_{4,3}", lambda: enhanced_hypercube(4, 3)),
    ("AQ_3", lambda: augmented_hypercube(3)),
    ("AQ_4", lambda: augmented_hypercube(4)),
    ("LTQ_3", lambda: locally_twisted_hypercube(3)),
    ("LTQ_4", lambda: locally_twisted_hypercube(4)),
    ("H(2,3)", lambda: hamming_graph(3, 2)),
    ("H(4,2)", lambda: hamming_graph(2, 4)),
]


@pytest.mark.oracle_suite
def test_criterion_9_oracle_cross_validation():
    mismatches = []
    for name, make in CORPUS:
        g = make()
        grp = automorphism_group(g)
        det, _ = determining_number(g, grp)
        dist, _ = distinguishing_number(g, grp, dist_class_candidates(g))
        try:
            cost = cost_2dist(g, grp)[0]
        except NotTwoDistinguishable:
            cost = None
        odet = oracle_determining_number(g).value
        odist = oracle_distinguishing_number(g).value
        try:
            ocost = oracle_cost(g).value
        except NotTwoDistinguishable:
            ocost = None
        if (det, dist, cost) != (odet, odist, ocost):
            mismatches.append((name, (det, dist, cost), (odet, odist, ocost)))
        naive = row_set(enumerate_automorphisms_naive(g))
        searched = row_set(search_automorphisms(g).elements())
        if naive != searched:
            mismatches.append((name, "automorphism sets differ"))
    _report("9 oracle cross-validation", not mismatches,
            "solver == oracle on det/dist/rho and automorphism sets for the "
            f"{len(CORPUS)}-graph corpus" if not mismatches else str(mismatches))


# -- 10 ------------------------------------------------------------------------

def test_criterion_10_regularity_and_counts():
    specs = [
        FamilySpec("hypercube", 5), FamilySpec("power", 5, k=2),
        FamilySpec("power", 6, k=3), FamilySpec("hamming", 2, m=3),
        FamilySpec("hamming", 3, m=3), FamilySpec("folded", 5),
        FamilySpec("enhanced", 5, k=2), FamilySpec("enhanced", 6, k=4),
        FamilySpec("augmented", 5), FamilySpec("locally_twisted", 6),
    ]
    for spec in specs:
        g = build_family(spec)
        assert g.n_vertices == spec.vertex_count
        assert g.is_regular() and g.degree(0) == spec.expected_degree(), spec
    assert same_edges(enhanced_hypercube(5, 1), folded_hypercube(5))
    _report("10 property suite: regularity/counts", True,
            "all families regular with the expected degree and vertex count")


def test_criterion_10_complement_identities():
    for name, make in CORPUS:
        g = make()
        grp = automorphism_group(g)
        cg = complement(g)
        cgrp = search_automorphisms(cg)
        assert determining_number(g, grp)[0] == determining_number(cg, cgrp)[0], name
        d, _ = distinguishing_number(g, grp, dist_class_candidates(g))
        dc, _ = distinguishing_number(cg, cgrp)
        assert d == dc, name
    _report("10 property suite: complement identities", True,
            "det(G) = det(~G) and dist(G) = dist(~G) across the corpus")


def test_criterion_10_char_matrix_equivalence():
    for make, n, m in [(lambda: hypercube(3), 3, 2), (lambda: hypercube(4), 4, 2),
                       (lambda: hamming_graph(3, 2), 2, 3)]:
        g = make()
        grp = automorphism_group(g)
        for size in range(1, 5):
            for subset in combinations(range(g.n_vertices), size):
                x = cons.characteristic_matrix(subset, n, m)
                assert cons.char_matrix_is_determining(x) == \
                    is_determining_set(grp, subset), (n, m, subset)
    _report("10 property suite: characteristic-matrix criterion", True,
            "matrix test == stabilizer test for all sets up to size 4 in "
            "Q_3, Q_4, H(2,3)")


def test_criterion_10_witness_roundtrips():
    cases = [
        (folded_hypercube(4), "det"), (folded_hypercube(4), "dist"),
        (augmented_hypercube(4), "cost"), (locally_twisted_hypercube(4), "det"),
        (hypercube(4), "cost"), (hamming_graph(3, 2), "dist"),
    ]
    for g, parameter in cases:
        grp = automorphism_group(g)
        report = compute_parameter(g, parameter, grp)
        assert verify_witness(g, report, grp), (g.family.name(), parameter)
    _report("10 property suite: witness round-trips", True,
            "every emitted witness re-verifies")
