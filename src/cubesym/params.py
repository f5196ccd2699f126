"""Family-aware parameter computation: pick the right group model, route the
solvers, attach witnesses, and emit JSON-ready reports."""

from __future__ import annotations

import time

from . import constructions as cons
from .autgroup import PermGroup, structured_group
from .bitgraph import (
    AUGMENTED,
    ENHANCED,
    FOLDED,
    HYPERCUBE,
    LOCALLY_TWISTED,
    POWER,
    FamilySpec,
    Graph,
)
from .errors import (
    MalformedRecord,
    NoStructuredForm,
    ParameterOutOfRange,
)
from .search import search_automorphisms
from .symmetry import (
    COST_CLASS,
    DIST_COLORING,
    Coloring,
    cost_2dist,
    determining_number,
    distinguishing_number,
    is_determining_set,
    is_distinguishing,
    transitivity_report,
    two_coloring,
)

PARAMETERS = ("det", "dist", "cost", "aut-order", "transitivity")


def automorphism_group(g: Graph) -> PermGroup:
    """Structured group when the family has one, search otherwise."""
    try:
        return structured_group(g)
    except NoStructuredForm:
        return search_automorphisms(g)


def dist_class_candidates(g: Graph) -> list[tuple[int, ...]]:
    """Constructed 2-distinguishing class candidates for the graph's family.

    Each construction checks itself; a failed check raises AssertionError."""
    spec = g.family
    if spec is None:
        return []
    n = spec.n
    if spec.kind == HYPERCUBE and n >= 5:
        return [cons.hypercube_dist_class(n)]
    if spec.kind == POWER and spec.k is not None and n > 3:
        if spec.k % 2 == 1 and spec.k <= n - 2 and n >= 5:
            return [cons.hypercube_dist_class(n)]
        if spec.k == 2 and n >= 5:
            return [cons.q2_witnesses(n)[1]]
    if spec.kind == FOLDED and n >= 4:
        return [cons.fq_dist_class(n)]
    if spec.kind == ENHANCED and n >= 4:
        return cons.enhanced_dist_class_candidates(n, spec.k)
    if spec.kind == AUGMENTED and n >= 4:
        return [cons.aq_cost_class(n)]
    if spec.kind == LOCALLY_TWISTED and n >= 4:
        return [cons.ltq_witnesses(n)[1]]
    return []


def compute_parameter(g: Graph, parameter: str, grp: PermGroup | None = None) -> dict:
    """One report: {parameter, value, witness, verified_by, group_order, elapsed_ms}."""
    t0 = time.perf_counter()
    if grp is None:
        grp = automorphism_group(g)
    report: dict = {"parameter": parameter, "family": g.family.name() if g.family else None}
    if parameter == "aut-order":
        report["value"] = grp.order()
        report["witness"] = None
        report["verified_by"] = grp.source
    elif parameter in ("det", "dist", "cost"):
        if parameter == "det":
            value, witness = determining_number(g, grp)
        elif parameter == "dist":
            value, witness = distinguishing_number(g, grp, dist_class_candidates(g))
        else:
            value, witness = cost_2dist(g, grp)
        report["value"] = value
        report["witness"] = witness.to_dict()
        report["verified_by"] = witness.verified_by
    elif parameter == "transitivity":
        rep = transitivity_report(g, grp)
        report["value"] = rep.to_dict()
        report["witness"] = None
        report["verified_by"] = grp.source
    else:
        raise ValueError(f"unknown parameter {parameter!r}")
    report["group_order"] = grp.order_known
    report["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return report


def _require(ok: bool, what: str):
    if not ok:
        raise MalformedRecord(f"malformed record: {what}")


def record_spec(record) -> FamilySpec:
    """The family of a witness record, after checking that `params` holds a
    string `kind`, an integer `n` and integer or absent `k` and `m`."""
    _require(isinstance(record, dict), "not a JSON object")
    params = record.get("params")
    _require(isinstance(params, dict), "no params object")
    _require(isinstance(params.get("kind"), str), "params.kind is not a string")
    _require(type(params.get("n")) is int, "params.n is not an integer")
    for key in ("k", "m"):
        _require(params.get(key) is None or type(params[key]) is int,
                 f"params.{key} is not an integer")
    return FamilySpec(params["kind"], params["n"], k=params.get("k"), m=params.get("m"))


def _is_vertex_set(payload, nv: int) -> bool:
    return (all(type(v) is int and 0 <= v < nv for v in payload)
            and len(set(payload)) == len(payload))


def verify_witness(g: Graph, record: dict, grp: PermGroup | None = None) -> bool:
    """Re-check an emitted witness record against the graph's group.

    Set payloads must be distinct vertices of the graph, and a coloring must
    give every vertex a color in 1..value.  A coloring that `is_distinguishing`
    cannot settle within its budget raises SearchBudgetExceeded: it is not
    checked, which is not the same as wrong.  A record without an integer
    `value`, or whose witness lacks a string `kind` and a list `payload`,
    raises MalformedRecord.
    """
    witness = record.get("witness")
    if witness is None:
        return False
    _require(type(record.get("value")) is int, "value is not an integer")
    _require(isinstance(witness, dict) and isinstance(witness.get("kind"), str),
             "witness.kind is not a string")
    _require(isinstance(witness.get("payload"), list), "witness.payload is not a list")
    if grp is None:
        grp = automorphism_group(g)
    kind = witness["kind"]
    payload = witness["payload"]
    value = record["value"]
    nv = g.n_vertices
    if kind == "determining_set":
        return (len(payload) == value and _is_vertex_set(payload, nv)
                and is_determining_set(grp, payload))
    if kind == DIST_COLORING:
        if len(payload) != nv or not all(type(c) is int and 1 <= c <= value for c in payload):
            return False
        coloring = Coloring(tuple(payload), max(payload, default=1))
        if coloring.used_colors() != value:
            return False
    elif kind == COST_CLASS:
        if len(payload) != value or not _is_vertex_set(payload, nv):
            return False
        coloring = two_coloring(nv, payload)
    else:
        return False
    return is_distinguishing(grp, coloring)


# ---------------------------------------------------------------------------
# constructions exposed to the CLI


def _witness(w, method: str = "structured") -> dict:
    return dict(witness=sorted(w), size=len(w), verified=True, method=method)


def _pair(det_set, cls, method: str, verified: bool = True) -> dict:
    return dict(witness={"determining_set": sorted(det_set), "dist_class": sorted(cls)},
                size=len(det_set), verified=verified, method=method)


def _formula(**fields) -> dict:
    return dict(witness=None, verified=True, method="formula", **fields)


def _need(value, message: str):
    if value is None:
        raise ParameterOutOfRange(message)
    return value


def _hamming_det(n: int, k, m) -> dict:
    value = cons.hamming_det_number(_need(m, "hamming-det needs -m"), n)
    return _formula(value=value, size=value,
                    evidence={f"S({value},{m})": cons.stirling2(value, m),
                              f"S({value},{m - 1})": cons.stirling2(value, m - 1)})


def _hamming_cost_bounds(n: int, k, m) -> dict:
    b = cons.hamming_cost_bounds(_need(m, "hamming-cost-bounds needs -m"), n)
    return _formula(applicable=b.applicable, lo=b.lo, hi=b.hi, reason=b.reason)


def _enhanced_det(n: int, k, m) -> dict:
    value = cons.enhanced_det_number(n, _need(k, "enhanced-det needs -k"))
    return _formula(value=value, size=value)


# construction name -> builder(n, k, m) of its report fields; every constructor
# re-verifies before returning, except the q2 class, which is no class at
# n = 4 (its `verified` reports both checks)
_CONSTRUCTIONS = {
    "hypercube-det": lambda n, k, m: _witness(cons.hypercube_det_set(n)),
    "hypercube-dist-class": lambda n, k, m: _witness(cons.hypercube_dist_class(n)),
    "q2-witnesses": lambda n, k, m: _pair(
        *cons.q2_witnesses(n), "structured",
        cons.q2_det_set_is_determining(n) and cons.q2_class_is_asymmetric(n)),
    "fq-det": lambda n, k, m: _witness(cons.fq_det_set(n)),
    "fq-dist-class": lambda n, k, m: _witness(cons.fq_dist_class(n)),
    "aq-det": lambda n, k, m: _witness(cons.aq_det_witness(n),
                                       "oracle" if n <= 3 else "structured"),
    "aq-cost-class": lambda n, k, m: _witness(cons.aq_cost_class(n)),
    "ltq-witnesses": lambda n, k, m: _pair(*cons.ltq_witnesses(n),
                                           "oracle" if n == 3 else "structured"),
    "hamming-det": _hamming_det,
    "hamming-cost-bounds": _hamming_cost_bounds,
    "enhanced-det": _enhanced_det,
}

CONSTRUCTION_NAMES = tuple(_CONSTRUCTIONS)


def run_construction(name: str, n: int, k: int | None = None,
                     m: int | None = None) -> dict:
    """Run a named witness construction and report it with verification
    metadata."""
    t0 = time.perf_counter()
    out: dict = {"construction": name, "params": {"n": n}}
    if k is not None:
        out["params"]["k"] = k
    if m is not None:
        out["params"]["m"] = m
    if name not in _CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}")
    out.update(_CONSTRUCTIONS[name](n, k, m))
    out["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return out
