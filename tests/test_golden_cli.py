"""Golden CLI outputs: refactors must keep every output byte-identical,
ignoring `elapsed_ms` at any depth.

The cases cover each structured group model (Q_n and an odd power, the
halved cube of an even power, FQ_n, AQ_n, LTQ_n, the enhanced product, the
Hamming graph, and the complete multipartite graphs FQ_3 = K_{4,4}, Q_3^2
= K_{2,2,2,2}, Q_4^3 and Q_3^3 = K_8, whose dist takes the d >= 3 scan)
and the searched path (AQ_3 and LTQ_3), also for det on K_{4,4} and on the
K_{4,4} factor of the enhanced cube Q_{6,4}, and for dist on the K_{4,4}
factor of Q_{4,2}.  Cost is covered on Q_5, the enhanced product, the
Hamming model (H(3,3)) and a searched group (LTQ_3), and the cost error of
a graph that is not 2-distinguishable in the FQ_3 export.  To rewrite the stored
files from the current program, run
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cubesym import params
from cubesym.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"

CASES = {
    "export-hypercube-n-4": ["export", "hypercube", "-n", "4"],
    "export-folded-n-4": ["export", "folded", "-n", "4"],
    "export-augmented-n-5": ["export", "augmented", "-n", "5"],
    "export-locally-twisted-n-5": ["export", "locally-twisted", "-n", "5"],
    "export-folded-n-3": ["export", "folded", "-n", "3"],
    "det-hypercube-n-12": ["param", "det", "hypercube", "-n", "12", "--witness"],
    "det-enhanced-n-5-k-2": ["param", "det", "enhanced", "-n", "5", "-k", "2", "--witness"],
    "cost-enhanced-n-5-k-2": ["param", "cost", "enhanced", "-n", "5", "-k", "2", "--witness"],
    "cost-hypercube-n-5": ["param", "cost", "hypercube", "-n", "5", "--witness"],
    "cost-hamming-n-3-m-3": ["param", "cost", "hamming", "-n", "3", "-m", "3", "--witness"],
    "cost-locally-twisted-n-3": ["param", "cost", "locally-twisted", "-n", "3", "--witness"],
    "det-power-n-5-k-3": ["param", "det", "power", "-n", "5", "-k", "3", "--witness"],
    "det-enhanced-n-6-k-4": ["param", "det", "enhanced", "-n", "6", "-k", "4", "--witness"],
    "det-hamming-n-3-m-3": ["param", "det", "hamming", "-n", "3", "-m", "3", "--witness"],
    "det-folded-n-3": ["param", "det", "folded", "-n", "3", "--witness"],
    "aut-order-power-n-4-k-3": ["param", "aut-order", "power", "-n", "4", "-k", "3"],
    "dist-power-n-4-k-2": ["param", "dist", "power", "-n", "4", "-k", "2", "--witness"],
    "dist-power-n-3-k-2": ["param", "dist", "power", "-n", "3", "-k", "2", "--witness"],
    "dist-power-n-3-k-3": ["param", "dist", "power", "-n", "3", "-k", "3", "--witness"],
    "dist-enhanced-n-4-k-2": ["param", "dist", "enhanced", "-n", "4", "-k", "2", "--witness"],
    "dist-enhanced-n-3-k-2": ["param", "dist", "enhanced", "-n", "3", "-k", "2", "--witness"],
    "dist-hamming-n-2-m-3": ["param", "dist", "hamming", "-n", "2", "-m", "3", "--witness"],
    "summary-n-4": ["tables", "summary", "--n", "4"],
    "summary-n-5": ["tables", "summary", "--n", "5"],
    "transitivity-n-3": ["tables", "transitivity", "--n", "3"],
    "transitivity-hamming-n-3-m-3": ["param", "transitivity", "hamming", "-n", "3", "-m", "3"],
    "transitivity-locally-twisted-n-5": ["param", "transitivity", "locally-twisted", "-n", "5"],
    "transitivity-augmented-n-5": ["param", "transitivity", "augmented", "-n", "5"],
    "construct-aq-cost-class-n-5": ["construct", "aq-cost-class", "-n", "5"],
}


def _drop_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _drop_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_drop_elapsed(v) for v in obj]
    return obj


def run_case(argv: list[str]) -> dict:
    """Exit code and parsed stdout of one uncached CLI call."""
    argv = argv + ["--no-cache"] if argv[0] == "param" else argv
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"argv": argv, "exit": code, "output": _drop_elapsed(json.loads(buf.getvalue()))}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stored = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert _canonical(run_case(CASES[name])) == _canonical(stored)


def test_cost_runs_neither_det_nor_dist(tmp_path, monkeypatch):
    # cost is the class scan alone: with the det and dist solvers and the
    # class candidates made to raise, its reports are the stored ones
    def never(*args):
        raise AssertionError("cost must not call this")

    for name in ("determining_number", "distinguishing_number", "dist_class_candidates"):
        monkeypatch.setattr(params, name, never)
    monkeypatch.chdir(tmp_path)
    for name in ("cost-hypercube-n-5", "cost-hamming-n-3-m-3", "cost-locally-twisted-n-3"):
        stored = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert _canonical(run_case(CASES[name])) == _canonical(stored), name
    stored = json.loads((GOLDEN_DIR / "export-folded-n-4.json").read_text())
    cost = stored["output"]["parameters"]["cost"]
    got = run_case(["param", "cost", "folded", "-n", "4", "--witness"])
    assert got["exit"] == 0
    assert {key: got["output"][key] for key in cost} == cost


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN_DIR / f"{name}.json").write_text(_canonical(run_case(argv)) + "\n")
        print(name, file=sys.stderr)
