"""Seeded random-graph cross-validation of the fast engines against the
deliberately naive oracle: automorphism sets, determining, distinguishing,
and cost must agree on every instance."""

from __future__ import annotations

import random

from conftest import row_set

from cubesym.bitgraph import graph_from_edges
from cubesym.errors import NotTwoDistinguishable
from cubesym.oracle import (
    enumerate_automorphisms_naive,
    oracle_cost,
    oracle_determining_number,
    oracle_distinguishing_number,
)
from cubesym.params import compute_parameter, verify_witness
from cubesym.search import search_automorphisms
from cubesym.symmetry import cost_2dist, determining_number, distinguishing_number


def _random_graph(rnd: random.Random):
    nv = rnd.randint(1, 9)
    p = rnd.choice([0.2, 0.4, 0.6, 0.8])
    edges = [(u, v) for u in range(nv) for v in range(u + 1, nv)
             if rnd.random() < p]
    return graph_from_edges(nv, edges)


def test_random_graphs_agree_with_oracle():
    rnd = random.Random(20260809)
    for trial in range(120):
        g = _random_graph(rnd)
        grp = search_automorphisms(g)
        assert row_set(grp.elements()) == row_set(enumerate_automorphisms_naive(g)), trial
        det, _ = determining_number(g, grp)
        assert det == oracle_determining_number(g).value, trial
        dist, _ = distinguishing_number(g, grp)
        assert dist == oracle_distinguishing_number(g).value, trial
        try:
            cost = cost_2dist(g, grp)[0]
        except NotTwoDistinguishable:
            cost = None
        try:
            ocost = oracle_cost(g).value
        except NotTwoDistinguishable:
            ocost = None
        assert cost == ocost, trial


def test_asymmetric_graph_degenerate_parameters():
    # smallest asymmetric nontrivial graph: det 0, dist 1, cost 0 by stern
    # application of the set-based definitions
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]
    g = graph_from_edges(7, edges)
    grp = search_automorphisms(g)
    assert grp.order() == 1
    assert determining_number(g, grp) == (0, determining_number(g, grp)[1])
    assert determining_number(g, grp)[0] == 0
    assert distinguishing_number(g, grp)[0] == 1
    assert cost_2dist(g, grp)[0] == 0
    assert oracle_determining_number(g).value == 0
    assert oracle_distinguishing_number(g).value == 1
    assert oracle_cost(g).value == 0


def test_cost_report_of_an_asymmetric_graph():
    # a triangle with two pendant paths: only the identity, so rho = 0 by
    # the empty class
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])
    report = compute_parameter(g, "cost")
    assert report["value"] == 0 == oracle_cost(g).value
    assert report["witness"]["payload"] == []
    assert verify_witness(g, report) is True
