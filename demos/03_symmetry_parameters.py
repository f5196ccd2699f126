"""Determining number, distinguishing number, and 2-distinguishing cost.

Computes the three parameters with certified witnesses for one graph of each
family, then cross-checks a few against the brute-force oracle.
"""

from cubesym import (
    augmented_hypercube,
    folded_hypercube,
    hamming_graph,
    hypercube,
    locally_twisted_hypercube,
)
from cubesym.bitgraph import word_str
from cubesym.errors import NotTwoDistinguishable
from cubesym.oracle import oracle_cost, oracle_determining_number
from cubesym.params import automorphism_group, dist_class_candidates
from cubesym.symmetry import cost_2dist, determining_number, distinguishing_number

graphs = [hypercube(4), folded_hypercube(4), augmented_hypercube(4),
          locally_twisted_hypercube(4), hamming_graph(3, 2)]

print(f"{'graph':8s} {'|Aut|':>6s} {'det':>4s} {'dist':>4s} {'cost':>4s}   witness (determining set)")
for g in graphs:
    grp = automorphism_group(g)
    det, wdet = determining_number(g, grp)
    dist, _ = distinguishing_number(g, grp, dist_class_candidates(g))
    try:
        cost, _ = cost_2dist(g, grp)
        cost_s = str(cost)
    except NotTwoDistinguishable:
        cost_s = "-"
    n = g.family.n
    words = " ".join(word_str(v, n, g.family.alphabet) for v in sorted(wdet.payload))
    print(f"{g.family.name():8s} {grp.order():6d} {det:4d} {dist:4d} {cost_s:>4s}   {{{words}}}")

print()
print("brute-force oracle agreement (independent engines):")
for g in (augmented_hypercube(4), locally_twisted_hypercube(4)):
    grp = automorphism_group(g)
    det, _ = determining_number(g, grp)
    cost, _ = cost_2dist(g, grp)
    print(f"  {g.family.name()}: solver det={det} cost={cost}; "
          f"oracle det={oracle_determining_number(g).value} "
          f"cost={oracle_cost(g).value}")

print()
print("a cost-3 class for AQ_5: the zero word plus the antipodal-ish pair")
from cubesym.constructions import aq_cost_class  # noqa: E402

print(" ", " ".join(word_str(v, 5) for v in aq_cost_class(5)))
print("no 2-element class can work: the translation by a+b swaps any a, b")
