"""Command-line front end.

Subcommands: gen, param, tables, construct, verify, export.
Exit codes: 0 ok, 1 usage, 2 budget or size limit, 3 internal inconsistency
(a checker rejected a witness, or an oracle cross-check disagreed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .bitgraph import EXPLICIT, FAMILY_KINDS, FamilySpec, build_family
from .cache import ResultCache
from .errors import CubeSymError, MalformedRecord, ParameterOutOfRange, SearchBudgetExceeded
from .graphio import to_descriptor, to_edgelist, to_graph6
from .params import (
    CONSTRUCTION_NAMES,
    PARAMETERS,
    automorphism_group,
    compute_parameter,
    record_spec,
    run_construction,
    verify_witness,
)
from .tables import enhanced_dist_table, summary_table, transitivity_table

FAMILY_NAMES = {k.replace("_", "-"): k for k in FAMILY_KINDS if k != EXPLICIT}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _family_args(p: argparse.ArgumentParser):
    p.add_argument("family", choices=sorted(FAMILY_NAMES))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-m", type=int, default=None)


def _spec_from_args(args) -> FamilySpec:
    return FamilySpec(FAMILY_NAMES[args.family], args.n, k=args.k, m=args.m)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--cache-dir", default=None,
                        help="cache directory (default: $CUBE_SYM_CACHE or "
                             ".cube-symmetry-cache)")
    common.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    common.add_argument("--max-vertices", type=int, default=None,
                        help="vertex cap override (default 2^20 or "
                             "$CUBE_SYM_MAX_VERTICES)")

    p = _Parser(prog="cubesym",
                description="Symmetry parameters of hypercube-variant graphs")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a family graph", parents=[common])
    _family_args(g)
    g.add_argument("--format", choices=("graph6", "edgelist", "json"), default="json")
    g.add_argument("-o", "--output", default=None)

    q = sub.add_parser("param", help="compute a symmetry parameter", parents=[common])
    q.add_argument("parameter", choices=PARAMETERS)
    _family_args(q)
    q.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force oracle")
    q.add_argument("--witness", action="store_true", help="include the certificate")

    t = sub.add_parser("tables", help="recompute a survey table", parents=[common])
    t.add_argument("which", choices=("transitivity", "summary", "enhanced-dist"))
    t.add_argument("--n", type=int, default=3)
    t.add_argument("--n-max", type=int, default=5)

    c = sub.add_parser("construct", help="run a witness construction", parents=[common])
    c.add_argument("name", choices=sorted(CONSTRUCTION_NAMES))
    c.add_argument("-n", type=int, required=True)
    c.add_argument("-k", type=int, default=None)
    c.add_argument("-m", type=int, default=None)

    v = sub.add_parser("verify", help="re-check an emitted witness record",
                       parents=[common])
    v.add_argument("file", help="JSON report produced by `param --witness`")

    e = sub.add_parser("export", help="graph plus all computable parameters as JSON",
                       parents=[common])
    _family_args(e)
    e.add_argument("-o", "--output", default=None)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and kept for the
    process.  Parsing leaves no state on it: each call gets a new namespace,
    streams are looked up when printing, and help is formatted at the
    width `COLUMNS` gives then."""
    return build_parser()


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _build(args):
    spec = _spec_from_args(args)
    return build_family(spec, cap=args.max_vertices)


def _cmd_gen(args) -> int:
    g = _build(args)
    if args.format == "graph6":
        _emit(to_graph6(g), args.output)
    elif args.format == "edgelist":
        _emit(to_edgelist(g), args.output)
    else:
        _emit(_dump(to_descriptor(g)), args.output)
    return 0


def _cmd_param(args) -> int:
    spec = _spec_from_args(args)
    cache = ResultCache(args.cache_dir, enabled=not args.no_cache)
    suffix = "+witness" if args.witness else ""
    cached = cache.get(spec.kind, spec.to_dict(), args.parameter + suffix)
    if cached is not None and not args.oracle:
        print(cached)
        return 0
    g = _build(args)
    grp = automorphism_group(g)
    report = compute_parameter(g, args.parameter, grp)
    report["params"] = spec.to_dict()
    if not args.witness:
        report.pop("witness", None)
    if args.oracle:
        agreement = _oracle_check(g, args.parameter, report)
        if agreement is not None:
            report["oracle_agrees"] = agreement
            if not agreement:
                print(_dump(report))
                print("oracle cross-check disagreed", file=sys.stderr)
                return 3
    text = cache.put(spec.kind, spec.to_dict(), args.parameter + suffix, report)
    print(text)
    return 0


def _oracle_check(g, parameter: str, report: dict):
    from .errors import NotTwoDistinguishable, SizeGuard
    from .oracle import (
        enumerate_automorphisms_naive,
        oracle_cost,
        oracle_determining_number,
        oracle_distinguishing_number,
    )

    try:
        if parameter == "det":
            return oracle_determining_number(g).value == report["value"]
        if parameter == "dist":
            return oracle_distinguishing_number(g).value == report["value"]
        if parameter == "cost":
            return oracle_cost(g).value == report["value"]
        if parameter == "aut-order":
            return len(enumerate_automorphisms_naive(g)) == report["value"]
    except SizeGuard:
        return None
    except NotTwoDistinguishable:
        return False
    return None


def _cmd_tables(args) -> int:
    if args.which == "transitivity":
        out = transitivity_table(args.n)
    elif args.which == "summary":
        out = summary_table(args.n)
    else:
        out = enhanced_dist_table(args.n_max)
    print(_dump(out))
    return 0


def _cmd_construct(args) -> int:
    out = run_construction(args.name, args.n, k=args.k, m=args.m)
    print(_dump(out))
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            record = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc.strerror}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedRecord(f"{args.file} is not JSON: {exc}") from exc
    g = build_family(record_spec(record), cap=args.max_vertices)
    if record.get("witness") is None:
        print(_dump({"verified": False, "detail": "record carries no witness"}))
        return 1
    try:
        ok = verify_witness(g, record)
    except SearchBudgetExceeded as exc:  # not checked, which is not wrong
        print(_dump({"verified": False, "detail": f"not checked: {exc}"}))
        return 2
    print(_dump({"verified": bool(ok)}))
    return 0 if ok else 3


def _cmd_export(args) -> int:
    g = _build(args)
    grp = automorphism_group(g)
    bundle = {"graph": to_descriptor(g), "graph6": to_graph6(g), "parameters": {}}
    for parameter in PARAMETERS:
        try:
            bundle["parameters"][parameter] = compute_parameter(g, parameter, grp)
        except CubeSymError as exc:
            bundle["parameters"][parameter] = {"error": type(exc).__name__,
                                               "detail": str(exc)}
    _emit(_dump(bundle), args.output)
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": _cmd_gen,
        "param": _cmd_param,
        "tables": _cmd_tables,
        "construct": _cmd_construct,
        "verify": _cmd_verify,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except (ParameterOutOfRange, MalformedRecord) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CubeSymError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
