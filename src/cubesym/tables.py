"""Recomputed versions of the survey tables: transitivity flags per family,
the per-family parameter summary, and the enhanced-cube distinguishing grid.

Each cell is computed at desk scale and tagged with how it was obtained
(formula, witness, or the source of the group the solvers ran on:
structured or searched) or marked out-of-budget; cells are never copied
from the literature unverified.
"""

from __future__ import annotations

from . import constructions as cons
from .autgroup import HypercubeModel
from .bitgraph import FamilySpec, build_family, vertex_cap
from .errors import CubeSymError, ParameterOutOfRange, SearchBudgetExceeded
from .params import automorphism_group, compute_parameter
from .symmetry import floor_is_exact, transitivity_report

TRANSITIVITY_FAMILIES = (
    ("hypercube", lambda n: FamilySpec("hypercube", n)),
    ("hypercube-square", lambda n: FamilySpec("power", n, k=2)),
    ("hamming-m3", lambda n: FamilySpec("hamming", n, m=3)),
    ("folded", lambda n: FamilySpec("folded", n)),
    ("enhanced-k2", lambda n: FamilySpec("enhanced", n, k=2)),
    ("augmented", lambda n: FamilySpec("augmented", n)),
    ("locally-twisted", lambda n: FamilySpec("locally_twisted", n)),
)


# Graphs above this many vertices are out-of-budget in the transitivity table.
TRANSITIVITY_VERTEX_BUDGET = 4096


def transitivity_table(n: int) -> dict:
    """Transitivity flags for each family at a given n, from
    `transitivity_report` on the family's group (structured or searched).

    A family whose graph has more than `TRANSITIVITY_VERTEX_BUDGET`
    vertices, or whose group search runs out of budget, is marked
    out-of-budget; one not defined at this n is marked not-applicable."""
    rows = {}
    for name, make in TRANSITIVITY_FAMILIES:
        try:
            spec = make(n)
            g = build_family(spec)
            if g.n_vertices > TRANSITIVITY_VERTEX_BUDGET:
                rows[name] = {"status": "out-of-budget"}
                continue
            grp = automorphism_group(g)
            rep = transitivity_report(g, grp)
            rows[name] = {"status": "ok", "method": grp.source, **rep.to_dict()}
        except ParameterOutOfRange as exc:  # e.g. enhanced needs n >= 3
            rows[name] = {"status": "not-applicable", "detail": str(exc)}
        except CubeSymError as exc:
            rows[name] = {"status": "out-of-budget", "detail": str(exc)}
    return {"n": n, "rows": rows}


# The enhanced-cube grid's first n, and the cells (n, k) it adds beyond n_max.
ENHANCED_N_MIN = 2
ENHANCED_EXTRA_CELLS = ((6, 4),)


def enhanced_dist_table(n_max: int) -> dict:
    """dist(Q_{n,k}) for ENHANCED_N_MIN <= n <= n_max, 1 <= k <= n-1,
    computed exactly where the group is enumerable, plus the
    `ENHANCED_EXTRA_CELLS` beyond n_max."""
    cells: dict[str, dict] = {}
    todo = [(n, k) for n in range(ENHANCED_N_MIN, n_max + 1) for k in range(1, n)]
    todo += [c for c in ENHANCED_EXTRA_CELLS if c[0] > n_max]
    for (n, k) in todo:
        key = f"{n},{k}"
        try:
            g = build_family(FamilySpec("enhanced", n, k=k))
            grp = automorphism_group(g)
            cells[key] = {"value": compute_parameter(g, "dist", grp)["value"],
                          "method": grp.source}
        except SearchBudgetExceeded as exc:
            cells[key] = {"value": None, "method": "out-of-budget", "detail": str(exc)}
    return {"n_min": ENHANCED_N_MIN, "n_max": n_max, "cells": cells}


def _computed(spec: FamilySpec, parameters) -> dict:
    """Cells computed by the `param` solvers on the family's group, tagged
    with the group's source (structured or searched)."""
    g = build_family(spec)
    grp = automorphism_group(g)
    cells = {}
    for parameter in parameters:
        cells[parameter] = compute_parameter(g, parameter, grp)["value"]
        cells[f"{parameter}_method"] = grp.source
    return cells


def _hypercube_row(n: int) -> dict:
    det = cons.hypercube_det_number(n)
    row = {"det": det, "det_method": "formula+witness" if n >= 2 else "formula"}
    if n >= 2:
        cons.hypercube_det_set(n)  # verifies while constructing
    if n <= 4:
        row.update(_computed(FamilySpec("hypercube", n),
                             ("dist", "cost") if n == 4 else ("dist",)))
    else:
        cons.hypercube_dist_class(n)  # verifies while constructing
        row.update(dist=2, dist_method="witness")
        # where the class scan starts at an exact column floor (n <= 12) its
        # cost takes milliseconds; the floor reads only the model and the
        # vertex count, not the group, which Q_18 takes seconds to build
        if floor_is_exact(HypercubeModel(n), 1 << n):
            row.update(_computed(FamilySpec("hypercube", n), ("cost",)))
        else:
            row.update(cost=[1 + cons._ceil_lg(n), 2 + cons._ceil_lg(n)], cost_method="range")
    return row


# The square of Q_n gets computed cells up to this n (and the vertex cap),
# and the witnesses' bounds above: det(Q_8^2) takes 0.01 s on its model,
# det(Q_9^2) about 4 s of the anchored search (2-vCPU Xeon, in-process).
SQUARE_MAX_N = 8


def summary_table(n: int) -> dict:
    """det/dist/cost summary for every family at a given n."""
    rows: dict[str, dict] = {}
    rows["hypercube"] = _hypercube_row(n)
    if n >= 2:
        fdet = cons.folded_det_number(n)
        cons.fq_det_set(n)
        frow = {"det": fdet, "det_method": "formula+witness"}
        if n >= 4:
            cls = cons.fq_dist_class(n)
            frow.update(dist=2, dist_method="witness",
                        cost=[fdet, len(cls)], cost_method="range")
        else:
            frow.update(_computed(FamilySpec("folded", n), ("dist",)))
        rows["folded"] = frow
    if n >= 4:
        rows["augmented"] = {"det": len(cons.aq_det_witness(n)), "det_method": "witness",
                             "dist": 2, "dist_method": "witness",
                             "cost": len(cons.aq_cost_class(n)), "cost_method": "witness"}
    elif n >= 2:
        rows["augmented"] = _computed(FamilySpec("augmented", n), ("det", "dist"))
    if n >= 3:
        if n >= 4:
            det_set, cost_class = cons.ltq_witnesses(n)
            rows["locally-twisted"] = {"det": len(det_set), "det_method": "witness",
                                       "dist": 2, "dist_method": "witness",
                                       "cost": len(cost_class), "cost_method": "witness"}
        else:
            rows["locally-twisted"] = _computed(FamilySpec("locally_twisted", n),
                                                ("det", "dist", "cost"))
    if n >= 4:
        s, t = cons.q2_witnesses(n)
        row = {"det": ["<=", len(s)], "det_method": "witness"}
        if cons.q2_class_is_asymmetric(n):  # T is no class at n = 4
            row.update(dist=2, dist_method="witness",
                       cost=["<=", len(t)], cost_method="witness")
        if n <= SQUARE_MAX_N and 1 << n <= vertex_cap():
            row.update(_computed(FamilySpec("power", n, k=2),
                                 ("det",) if "dist" in row else ("det", "dist", "cost")))
        rows["hypercube-square"] = row
    if n >= 2:
        for k in range(1, n):
            key = f"enhanced-k{k}"
            rows[key] = {"det": cons.enhanced_det_number(n, k), "det_method": "formula"}
    for m in (3, 4):
        rows[f"hamming-m{m}"] = {"det": cons.hamming_det_number(m, n),
                                 "det_method": "formula"}
        b = cons.hamming_cost_bounds(m, n)
        if b.applicable:
            rows[f"hamming-m{m}"]["cost"] = [b.lo, b.hi]
            rows[f"hamming-m{m}"]["cost_method"] = "range"
    return {"n": n, "rows": rows}
