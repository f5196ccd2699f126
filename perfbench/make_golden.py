"""Regenerate the benchmark's expected outputs from the current program.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

Writes `golden/records/<query>.json`, the `--witness` record of every det
and enumerated-group query exactly as the CLI prints it, and
`golden/expected.json`: the value of every solve query (the transitivity
report for `param transitivity`), and the SHA-256 and length of each graph6
output.  The expected values are this program's outputs, not published ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import workloads as wl
from run import GOLDEN, import_cubesym


def _cli(argv: list[str]) -> str:
    from cubesym.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv + ["--no-cache"])
    if rc != 0:
        raise SystemExit(f"{wl.label(argv)} exited {rc}")
    return out.getvalue()


def main() -> int:
    import_cubesym()
    (GOLDEN / "records").mkdir(parents=True, exist_ok=True)
    expected = {}
    for q in wl.WITNESS_QUERIES:
        text = _cli(q + ["--witness"])
        (GOLDEN / "records" / wl.record_name(q)).write_text(text, encoding="utf-8")
        expected[wl.label(q)] = json.loads(text)["value"]
    for q in wl.TRANSITIVITY_QUERIES:
        expected[wl.label(q)] = json.loads(_cli(q))["value"]
    for q in wl.GEN_QUERIES:
        data = _cli(q).encode()
        expected[wl.label(q)] = {"sha256": hashlib.sha256(data).hexdigest(),
                                 "bytes": len(data)}
    (GOLDEN / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for lbl, value in expected.items():
        print(lbl, json.dumps(value, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
