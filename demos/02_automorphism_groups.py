"""Automorphism groups, two ways.

Each family's group is modeled structurally (translations composed with
coordinate data) and found independently by refinement search; the demo shows
the two agree element for element, and reads a few structural maps off their
image rows (entry v of a row is the image of vertex v).
"""

from math import factorial

from cubesym import (
    augmented_hypercube,
    folded_hypercube,
    hypercube,
    hypercube_power,
    locally_twisted_hypercube,
)
from cubesym.autgroup import aq_base, fq_phi_extend, structured_group
from cubesym.bitgraph import word_str
from cubesym.search import search_automorphisms


def element_set(grp):
    """The group's element table as a set of image tuples."""
    return set(map(tuple, grp.elements().tolist()))


print(f"{'graph':8s} {'structured':>10s} {'searched':>9s}  formula")
rows = [
    ("Q_4", hypercube(4), "2^n n!", (1 << 4) * factorial(4)),
    ("FQ_4", folded_hypercube(4), "2^n (n+1)!", (1 << 4) * factorial(5)),
    ("AQ_4", augmented_hypercube(4), "2^n * 8", (1 << 4) * 8),
    ("LTQ_4", locally_twisted_hypercube(4), "2^(n-1)", 1 << 3),
]
for name, g, formula, value in rows:
    sg = structured_group(g)
    se = search_automorphisms(g)
    same = element_set(sg) == element_set(se)
    print(f"{name:8s} {sg.order():10d} {se.order():9d}  {formula} = {value}"
          f"  identical element sets: {same}")

print()
print("odd powers inherit the cube group; even powers gain the extra symbol:")
q5 = search_automorphisms(hypercube(5))
for k in (2, 3):
    gk = search_automorphisms(hypercube_power(5, k))
    rel = "==" if element_set(gk) == element_set(q5) else "!="
    print(f"  Aut(Q_5^{k}) {rel} Aut(Q_5)   (orders {gk.order()} vs {q5.order()})")

print()
print("the eight augmented-cube maps fixing 0000, as images of 1011:")
for idx in range(1, 9):
    print(f"  base {idx}: 1011 -> {word_str(int(aq_base(4, idx)[0b1011]), 4)}")

print()
print("a folded-cube symbol map: swap position 1 with the all-ones word.")
phi = fq_phi_extend(4, [4, 1, 2, 3, 0]).tolist()
moved = [v for v in range(16) if phi[v] != v]
print("  vertices moved:", " ".join(word_str(v, 4) for v in moved))
print("  (everything with a 0 in position 1 is fixed)")
