"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions listed in `HOOKS` with
wrappers that record one span per call: name, start, end, parent span, query
id and a size (elements enumerated, vertices searched, bytes encoded, cache
hit).  A function is patched in every `cubesym` module that binds it, since
`from .x import f` gives each importer its own name for `f`.  A hook whose
target no longer exists is reported as missing; its metrics read 0.

Spans stay in flat arrays while the pass runs and are written once, by
`Tracer.write`, when it is over.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np


def _first_enumeration(args) -> bool:
    # PermGroup.elements caches its list; only the call that builds it works
    return getattr(args[0], "_elements", None) is None


def _count(args, result) -> int:
    return len(result)


def _searched_vertices(args, result) -> int:
    return args[0].n_vertices


def _encoded_bytes(args, result) -> int:
    text = result if isinstance(result, str) else json.dumps(result)
    return len(text.encode())


def _hit(args, result) -> int:
    return int(result is not None)


@dataclass(frozen=True)
class Hook:
    span: str
    module: str            # cubesym submodule that defines the target
    target: str            # function, or Class.method
    only_in: str | None = None   # patch only this module's binding
    gate: Callable | None = None  # calls for which it returns False get no span
    size: Callable | None = None


HOOKS = [
    Hook("bitgraph.build", "bitgraph", "build_family"),
    Hook("autgroup.group", "autgroup", "structured_group"),
    # as bound in symmetry: the determining scans and is_determining_set
    Hook("autgroup.pointwise", "autgroup", "pointwise_stabilizer_is_trivial",
         only_in="symmetry"),
    Hook("autgroup.stabilizer", "autgroup", "pointwise_stabilizer"),
    Hook("autgroup.stabilizer", "autgroup", "setwise_stabilizer"),
    Hook("autgroup.elements", "autgroup", "PermGroup.elements",
         gate=_first_enumeration, size=_count),
    Hook("search", "search", "search_automorphisms", size=_searched_vertices),
    Hook("symmetry.det", "symmetry", "determining_number"),
    Hook("symmetry.dist", "symmetry", "distinguishing_number"),
    Hook("symmetry.cost", "symmetry", "cost_2dist"),
    Hook("symmetry.transitivity", "symmetry", "transitivity_report"),
    Hook("constructions.candidates", "params", "dist_class_candidates"),
    Hook("params.verify", "params", "verify_witness"),
    Hook("graphio.encode", "graphio", "to_graph6", size=_encoded_bytes),
    Hook("graphio.encode", "graphio", "to_descriptor", size=_encoded_bytes),
    Hook("cache.get", "cache", "ResultCache.get", size=_hit),
    Hook("cache.put", "cache", "ResultCache.put"),
    Hook("cli", "cli", "main"),
]

# metric -> (span, statistic, end-to-end metric it should move, workloads).
# calls: spans recorded; size: summed sizes; total_s: time inside the span,
# counted once where it nests in itself; self_s: time not inside a child span.
LAYER_METRICS = {
    "bitgraph.build_s": ("bitgraph.build", "total_s", "wall_s (expected ~0)", "all"),
    "autgroup.group_s": ("autgroup.group", "total_s", "wall_s",
                         "det-structured, certify"),
    "autgroup.pointwise_calls": ("autgroup.pointwise", "calls", "wall_s",
                                 "det-structured"),
    "autgroup.pointwise_s": ("autgroup.pointwise", "total_s", "wall_s", "det-structured"),
    "autgroup.stabilizer_s": ("autgroup.stabilizer", "total_s", "wall_s",
                              "det-structured, enumerated-groups"),
    "autgroup.elements": ("autgroup.elements", "size", "wall_s, peak_rss_mb; verify_s",
                          "enumerated-groups; certify"),
    "autgroup.elements_s": ("autgroup.elements", "total_s", "wall_s, peak_rss_mb; verify_s",
                            "enumerated-groups; certify"),
    "search.calls": ("search", "calls", "wall_s", "enumerated-groups"),
    "search.vertices": ("search", "size", "wall_s", "enumerated-groups"),
    "search.s": ("search", "total_s", "wall_s", "enumerated-groups"),
    "symmetry.det_s": ("symmetry.det", "total_s", "wall_s", "det-structured"),
    "symmetry.det_self_s": ("symmetry.det", "self_s", "wall_s", "det-structured"),
    "symmetry.dist_s": ("symmetry.dist", "total_s", "wall_s", "enumerated-groups"),
    "symmetry.dist_self_s": ("symmetry.dist", "self_s", "wall_s", "enumerated-groups"),
    "symmetry.cost_s": ("symmetry.cost", "total_s", "wall_s", "enumerated-groups"),
    "symmetry.cost_self_s": ("symmetry.cost", "self_s", "wall_s", "enumerated-groups"),
    "symmetry.transitivity_s": ("symmetry.transitivity", "total_s", "wall_s", "certify"),
    "constructions.candidates_s": ("constructions.candidates", "total_s", "wall_s",
                                   "enumerated-groups"),
    "params.verify_calls": ("params.verify", "calls", "verify_s", "certify"),
    "params.verify_s": ("params.verify", "total_s", "verify_s", "certify"),
    "graphio.bytes": ("graphio.encode", "size", "wall_s", "certify"),
    "graphio.encode_s": ("graphio.encode", "total_s", "wall_s", "certify"),
    "cache.hits": ("cache.get", "size", "replay_ms_p90", "certify"),
    "cache.misses": ("cache.get", "misses", "replay_ms_p90", "certify"),
    "cache.get_s": ("cache.get", "total_s", "replay_ms_p90", "certify"),
    "cache.put_s": ("cache.put", "total_s", "replay_ms_p90", "certify"),
    "cli.self_s": ("cli", "self_s", "replay_ms_p90", "certify"),
}

# Work counts that must repeat exactly between runs of the same code.
WORK_COUNTS = ("autgroup.pointwise_calls", "autgroup.elements", "search.calls",
               "params.verify_calls", "cache.hits")


class Tracer:
    def __init__(self):
        self.query = -1
        self.span_names: list[str] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._name = array("i")
        self._query = array("i")
        self._outer = array("b")
        self._size = array("q")

    def _name_id(self, span: str) -> int:
        if span not in self.span_names:
            self.span_names.append(span)
            self._depth.append(0)
        return self.span_names.index(span)

    def _wrap(self, fn, nid: int, gate, size):
        start, end, parent, name = self._start, self._end, self._parent, self._name
        query, outer, sizes = self._query, self._outer, self._size
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if gate is not None and not gate(args):
                return fn(*args, **kwargs)
            sid = len(name)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            query.append(self.query)
            outer.append(depth[nid] == 0)
            start.append(0)
            end.append(0)
            sizes.append(0)
            depth[nid] += 1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                depth[nid] -= 1
                start[sid] = t0
                end[sid] = t1
            if size is not None:
                sizes[sid] = size(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "cubesym" or key.startswith("cubesym.")]
        for hook in HOOKS:
            nid = self._name_id(hook.span)
            where = f"cubesym.{hook.module}.{hook.target}"
            owner = sys.modules.get(f"cubesym.{hook.module}")
            *path, attr = hook.target.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(where)
                continue
            wrapper = self._wrap(original, nid, hook.gate, hook.size)
            if path:
                binders = [owner]
            else:
                binders = [m for m in modules
                           if vars(m).get(attr) is original
                           and (hook.only_in is None
                                or m.__name__ == f"cubesym.{hook.only_in}")]
            if not binders:
                self.missing.append(where)
            for obj in binders:
                self._patched.append((obj, attr, original))
                setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def missing_metrics(self) -> list[str]:
        covered = {h.span for h in HOOKS
                   if f"cubesym.{h.module}.{h.target}" not in self.missing}
        return [m for m, (span, *_rest) in LAYER_METRICS.items() if span not in covered]

    def _arrays(self):
        start = np.frombuffer(self._start, dtype=np.int64)
        dur = np.frombuffer(self._end, dtype=np.int64) - start
        parent = np.frombuffer(self._parent, dtype=np.int64)
        name = np.frombuffer(self._name, dtype=np.int32)
        query = np.frombuffer(self._query, dtype=np.int32)
        outer = np.frombuffer(self._outer, dtype=np.int8).astype(bool)
        size = np.frombuffer(self._size, dtype=np.int64)
        return start, dur, parent, name, query, outer, size

    def stats(self, n_queries: int) -> tuple[dict, dict]:
        """Per-layer metrics, and the work counts of each query id."""
        start, dur, parent, name, query, outer, size = self._arrays()
        k = len(self.span_names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        by = {
            "calls": np.bincount(name, minlength=k),
            "size": np.bincount(name[outer], weights=size[outer], minlength=k),
            "total_s": np.bincount(name[outer], weights=dur[outer], minlength=k) / 1e9,
            "self_s": np.bincount(name, weights=self_ns, minlength=k) / 1e9,
        }
        by["misses"] = by["calls"] - by["size"]
        metrics = {}
        for metric, (span, stat, *_rest) in LAYER_METRICS.items():
            value = by[stat][self.span_names.index(span)]
            metrics[metric] = float(value) if stat.endswith("_s") else int(value)
        per_query = {}
        for metric in WORK_COUNTS:
            span, stat, *_rest = LAYER_METRICS[metric]
            sel = name == self.span_names.index(span)
            if stat == "size":
                sel &= outer
            weights = size[sel] if stat == "size" else None
            counts = np.bincount(query[sel], weights=weights, minlength=n_queries)
            per_query[metric] = [int(c) for c in counts]
        return metrics, per_query

    def write(self, path, queries: list[str]) -> None:
        """All spans, as arrays, with the span and query names they index."""
        start, dur, parent, name, query, _outer, size = self._arrays()
        np.savez_compressed(path, start_ns=start, duration_ns=dur, parent=parent,
                            name=name, query=query, size=size,
                            span_names=np.array(self.span_names),
                            query_labels=np.array(queries))
