"""Tour of the seven graph families.

Builds each family at small n, prints the basic shape data, and checks the
identities that tie the families together (the enhanced cube as a Cartesian
product, the k=1 enhanced cube as the folded cube, Hamming graphs as clique
powers).
"""

from cubesym import (
    FamilySpec,
    augmented_hypercube,
    build_family,
    cartesian_product,
    enhanced_hypercube,
    folded_hypercube,
    hamming_graph,
    hypercube,
    hypercube_power,
    locally_twisted_hypercube,
)
from cubesym.bitgraph import same_edges, word_str
from cubesym.graphio import to_graph6

specs = [
    FamilySpec("hypercube", 4),
    FamilySpec("power", 4, k=2),
    FamilySpec("hamming", 2, m=3),
    FamilySpec("folded", 4),
    FamilySpec("enhanced", 4, k=2),
    FamilySpec("augmented", 4),
    FamilySpec("locally_twisted", 4),
]

print(f"{'family':12s} {'vertices':>8s} {'degree':>6s} {'edges':>6s}  graph6")
for spec in specs:
    g = build_family(spec)
    print(f"{spec.name():12s} {g.n_vertices:8d} {g.degree(0):6d} "
          f"{g.edge_count():6d}  {to_graph6(g)}")

print()
print("Q_2 box FQ_2 is the enhanced cube Q_{4,3}:",
      same_edges(cartesian_product(hypercube(2), folded_hypercube(2)),
                 enhanced_hypercube(4, 3)))
print("K_3 box K_3 is the Hamming graph H(2,3):",
      same_edges(cartesian_product(hamming_graph(3, 1), hamming_graph(3, 1)),
                 hamming_graph(3, 2)))
print("Q_{4,1} is the folded cube FQ_4:",
      same_edges(enhanced_hypercube(4, 1), folded_hypercube(4)))

print()
print("neighbours of 0000 in AQ_4 (one-position flips plus all-ones suffixes):")
aq4 = augmented_hypercube(4)
print("  " + " ".join(word_str(v, 4) for v in aq4.neighbors(0)))
print("neighbours of 0000 in LTQ_4 (the twist acts on the second position):")
print("  " + " ".join(word_str(v, 4) for v in locally_twisted_hypercube(4).neighbors(0)))
print("distance from 0000 to 1111: Q_4 = 4 flips, Q_4^2 = 2 hops, FQ_4 = 1 hop")
from cubesym import graph_distance  # noqa: E402

for g in (hypercube(4), hypercube_power(4, 2), folded_hypercube(4)):
    print(f"  {g.family.name():6s}: {graph_distance(g, 0, 15)}")
