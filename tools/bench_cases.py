"""Cold CLI timings of the ROADMAP baseline cases.

Each case runs `python -m cubesym.cli <argv>` in a fresh interpreter, with
`--no-cache` on `param` queries, from the `src` tree beside this script.
The runner records its wall time, the child's peak resident memory
(`ru_maxrss` from `os.wait4`) and its exit code, and, when stdout is a JSON
report, its `value` and `elapsed_ms`.  A case past `TIMEOUT_S` is killed
and recorded with `"timed_out": true`.  Each case runs under an address-space
limit of `MEMORY_CAP` bytes (`RLIMIT_AS`), so that a case too large for the
tree it runs from fails there with a MemoryError (exit 1) instead of
driving a shared host out of memory.

    python tools/bench_cases.py OUT.json
    python tools/bench_cases.py OUT.json --parent ../parent-checkout

The cases run one at a time, so the memory of one is not shared with
another; the numbers are those of whatever host runs them, which the output
records (`platform`, `cpus`), and are a floor, not a gate.  A case whose
first run finishes in under `REPEAT_UNDER_S` seconds runs `REPEATS` times in
all; its row is the run of median wall time, with the least and greatest
wall times beside it (`wall_min_s`, `wall_max_s`, `runs`), since a single
cold run on a shared host can be off by a third.

With `--parent`, the root of a second checkout (say, of the parent commit),
each case also runs from that checkout's `src` tree, into `parent_cases`.
The two trees take turns run by run, case by case, one run at a time, the
first tree alternating from run to run, so that a slow spell of the host
falls on both and neither tree's runs share the host with the other's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
REPEAT_UNDER_S = 10
REPEATS = 3
MEMORY_CAP = 3 << 30

CASES = [
    "param det hypercube -n 16",
    "param det hypercube -n 18",
    "param det hypercube -n 20",
    "param aut-order hypercube -n 20",
    "param det folded -n 17",
    "param det power -n 9 -k 2",
    "param det enhanced -n 8 -k 6",
    "param det augmented -n 14",
    "param det augmented -n 16",
    "param det locally-twisted -n 20",
    "param det power -n 4 -k 3",
    "param det power -n 19 -k 3",
    "param det hamming -n 10 -m 3",
    "param dist power -n 4 -k 3",
    "param dist power -n 3 -k 3",
    "param dist hamming -n 1 -m 9",
    "param dist hamming -n 4 -m 3",
    "param dist hamming -n 5 -m 3",
    "param dist hamming -n 6 -m 3",
    "param dist hamming -n 7 -m 3",
    "param dist hamming -n 4 -m 4",
    "param dist hamming -n 5 -m 4",
    "param dist hamming -n 3 -m 5",
    "param dist hamming -n 2 -m 6",
    "param dist hamming -n 2 -m 7",
    "param dist hamming -n 3 -m 6",
    "param dist enhanced -n 4 -k 2",
    "param cost hypercube -n 8",
    "param cost hypercube -n 9",
    "param cost hypercube -n 10",
    "param cost hypercube -n 11",
    "param cost hypercube -n 12",
    "param cost power -n 6 -k 2",
    "param cost hamming -n 2 -m 6",
    "param cost folded -n 6",
    "param cost folded -n 7",
    "param cost enhanced -n 6 -k 4",
    "param cost enhanced -n 10 -k 2",
    "param cost augmented -n 16",
    "param cost augmented -n 17",
    "param transitivity hypercube -n 16",
    "param transitivity hypercube -n 18",
    "param transitivity augmented -n 14",
    "param transitivity augmented -n 16",
    "param transitivity enhanced -n 16 -k 8",
    "param transitivity enhanced -n 15 -k 9",
    "param transitivity locally-twisted -n 16",
    "param transitivity locally-twisted -n 18",
    "param transitivity hamming -n 8 -m 4",
    "param transitivity folded -n 16",
    "param transitivity power -n 18 -k 3",
    "tables summary --n 8",
    "export hypercube -n 9",
    "gen power -n 20 -k 10 --format graph6",
    "gen hypercube -n 20 --format graph6",
]


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_case(case: str, root: Path = ROOT) -> dict:
    argv = case.split() + (["--no-cache"] if case.startswith("param") else [])
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryDirectory() as cwd:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "cubesym.cli", *argv], stdout=out,
                                stderr=subprocess.DEVNULL, cwd=cwd, env=env,
                                preexec_fn=_cap_memory)
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        killer = threading.Timer(TIMEOUT_S, kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    row = {"case": case, "wall_s": round(wall, 3),
           "peak_rss_mb": round(usage.ru_maxrss / 1024, 1), "exit": proc.returncode,
           "timed_out": bool(killed)}
    try:
        report = json.loads(text)
    except ValueError:
        return row
    if isinstance(report, dict):
        row.update({key: report[key] for key in ("value", "elapsed_ms") if key in report})
    return row


def summary(runs: list[dict]) -> dict:
    """The run of median wall time, with the spread of all the runs."""
    walls = sorted(run["wall_s"] for run in runs)
    median = next(run for run in runs if run["wall_s"] == walls[len(walls) // 2])
    return {**median, "wall_min_s": walls[0], "wall_max_s": walls[-1], "runs": len(runs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--parent", type=Path,
                        help="the root of a second checkout to run each case on, in turns")
    args = parser.parse_args(argv)
    roots = [ROOT] if args.parent is None else [ROOT, args.parent.resolve()]
    rows: list[list[dict]] = [[] for _ in roots]
    for case in CASES:
        runs: list[list[dict]] = [[] for _ in roots]
        for turn in range(REPEATS):
            for i in (range(len(roots)) if turn % 2 == 0 else reversed(range(len(roots)))):
                runs[i].append(run_case(case, roots[i]))
            if turn == 0 and all(tree[0]["wall_s"] >= REPEAT_UNDER_S for tree in runs):
                break
        for i, tree in enumerate(runs):
            rows[i].append(summary(tree))
            print(json.dumps(rows[i][-1]), file=sys.stderr, flush=True)
    result = {"platform": platform.platform(), "python": platform.python_version(),
              "cpus": os.cpu_count(), "timeout_s": TIMEOUT_S, "cases": rows[0]}
    if args.parent is not None:
        result["note"] = ("cases: this tree; parent_cases: the --parent checkout; each case's "
                          "runs alternate between the two trees, one run at a time")
        result["parent_cases"] = rows[1]
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
