"""Benchmark of the cubesym CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload det-structured --seed 1 --seconds 30 --trace 0

One client, one process, one thread, closed loop: `cubesym.cli.main` is
called in-process with an argv list, and each call waits for the previous
one.  The seed permutes the order of the operations within a run and the
order of the replays; the program sees only the argv.  Operations are
described in `workloads.py`, and their expected outputs are the stored
records and values in `golden/` (regenerate with `make_golden.py`).

`--trace 0` runs every operation the number of times `workloads.py` gives
for a run of `workloads.RUN_SECONDS`, scaled by `--seconds` and at least
once, so that every run on every host computes its figures from the same
samples; a run takes about 30-45 s, depending on the workload, on a shared
2-vCPU x86_64 host.  It reports the end-to-end metrics: `wall_s`, one pass
as the sum of each operation's median time in the run; the 90th percentile
of the replay latency over every replay of the run; the peak resident set;
and `setup_s`, the median time from process start to ready over several
fresh processes, run between the operations.  Times are in reference
seconds (see `speed.py`): a shared host runs the same code in fast and slow
periods about 1.6x apart, in a mix that drifts over minutes, so each stretch
of an operation is scaled by how much slower than its reference time a fixed
calibration loop ran during it.  The raw wall times are printed and stored
next to them (`wall_raw_s`, `setup_raw_s`, `replay_raw_ms_p90`), with the
median slowdown the samples saw.  `--trace 1` runs every operation once
untraced and then once more with the layer hooks of `tracing.py` installed,
and reports the per-layer metrics; their times are raw, and include the
speed sampling (2-3%).  Both print, but do not report, `verify_s` (the
verify operations' part of `wall_s`), the median replay latency and
`fail_ratio`.

Every operation's output is checked after the run, outside the timed
region.  An operation fails if it raises, exits nonzero, gives another value
than the stored one, gives a witness that neither equals the stored one nor
passes `params.verify_witness`, does not verify, replays other bytes than
the cache stored, or is still running after `OP_LIMIT_S` or at the run's
overall limit `RUN_LIMIT_S`, whichever comes first.

Writes go to `.perfbench-out/` under the repository root: `results.jsonl`
(one line per run, with its context), the traced run's spans, and the
replay cache, which is removed when the run ends.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from speed import REF_S, SpeedClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden"
OUT = ROOT / ".perfbench-out"

OP_LIMIT_S = 60          # an operation still running then is stopped and failed,
RUN_LIMIT_S = 150        # and so is one still running this long after start
REPLAY_SAMPLES = 240     # per run; ten or more lie beyond p90
SETUP_PROBES = 15


class OpTimeout(BaseException):
    """Raised by the operation's alarm; a BaseException so `except Exception`
    blocks in the program cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_cubesym():
    """Import cubesym from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cubesym" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cubesym sources under {src}")
    sys.path.insert(0, str(src))
    import cubesym.cli  # noqa: F401  (imports every module the CLI uses)


@dataclass
class Golden:
    expected: dict            # label -> value, or graph6 digest
    records: dict             # label -> stored `--witness` record text
    replay_bytes: dict = field(default_factory=dict)  # label -> cache hit stdout


def set_up(cache_dir: Path) -> tuple[Golden, float]:
    """Import the program, load the stored records, prime the replay cache."""
    t0 = time.perf_counter()
    import_cubesym()
    import_s = time.perf_counter() - t0
    from cubesym.cache import ResultCache

    golden = Golden(
        json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8")),
        {wl.label(q): (GOLDEN / "records" / wl.record_name(q)).read_text(encoding="utf-8")
         for q in wl.WITNESS_QUERIES})
    cache = ResultCache(cache_dir)
    for lbl, text in golden.records.items():
        record = json.loads(text)
        params = record["params"]
        stored = cache.put(params["kind"], params, record["parameter"] + "+witness", record)
        golden.replay_bytes[lbl] = stored + "\n"
    return golden, import_s


def probe_setup() -> None:
    """Child side of the set-up measurement: set up, then say so with the
    set-up's raw and reference seconds."""
    cache_dir = OUT / f"probe-{os.getpid()}"
    clock = SpeedClock()
    try:
        clock.start()
        set_up(cache_dir)
        raw, ref = clock.stop()
        print(f"ready {raw!r} {ref!r}", flush=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def time_setup() -> tuple[float, float]:
    """Seconds from the start of a fresh process to the end of its set-up,
    raw and in reference seconds.  The process start, before the child can
    sample, is scaled by the slowdown the child's samples saw."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=60)
    word, *times = line.split() or [""]
    if word != "ready" or len(times) != 2 or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    child_raw, child_ref = map(float, times)
    return t1 - t0, (t1 - t0) * child_ref / child_raw


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class Op:
    kind: str          # "solve", "verify" or "replay"
    label: str
    query: str         # label of the query it stands for
    argv: tuple
    repeats: int = 1   # runs per run


def build_ops(workload: str, cache_dir: Path,
              scale: float | None) -> tuple[list[Op], list[Op]]:
    """The workload's operations, each run `repeats` times: the workload's
    count times `scale`, at least one; once when `scale` is None."""
    solve, verified, replayed = wl.WORKLOADS[workload]

    def runs(n: int) -> int:
        return 1 if scale is None else max(1, round(n * scale))

    ops = []
    for q, n in solve:
        extra = ["--witness"] if q in wl.WITNESS_QUERIES else []
        ops.append(Op("solve", wl.label(q), wl.label(q), tuple(q + extra + ["--no-cache"]),
                      runs(n)))
    for q, n in verified:
        record = GOLDEN / "records" / wl.record_name(q)
        ops.append(Op("verify", "verify " + wl.label(q), wl.label(q),
                      ("verify", str(record), "--no-cache"), runs(n)))
    replays = [Op("replay", "replay " + wl.label(q), wl.label(q),
                  tuple(q + ["--witness", "--cache-dir", str(cache_dir)]))
               for q in replayed]
    return ops, replays


CLOCK = SpeedClock()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Outcome:
    op: Op
    seconds: float     # reference seconds
    raw_s: float
    rc: int | None
    stdout: str
    cpu_s: float
    error: str | None = None
    timed_out: bool = False


def run_op(op: Op, deadline: float) -> Outcome:
    cli = sys.modules["cubesym.cli"]  # looked up per call: the tracer patches it
    out, err = io.StringIO(), io.StringIO()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return Outcome(op, 0.0, 0.0, None, "", 0.0,
                       "run time limit reached before it started", True)
    limit = min(OP_LIMIT_S, remaining)
    rc, error, timed_out = None, None, False
    raw_s = seconds = 0.0
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            CLOCK.start()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw_s, seconds = CLOCK.stop()
    except OpTimeout:
        which = "operation" if limit == OP_LIMIT_S else "run"
        error = f"stopped at the {which} time limit after {time.perf_counter() - t0:.1f} s"
        timed_out = True
    except Exception as exc:  # a crash of the program is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    cpu_s = _cpu_s() - cpu0
    if rc not in (0, None) and not error:
        error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
    return Outcome(op, seconds, raw_s, rc, out.getvalue(), cpu_s, error, timed_out)


def _witness_checks(report: dict) -> bool:
    from cubesym.bitgraph import FamilySpec, build_family
    from cubesym.params import verify_witness

    p = report["params"]
    g = build_family(FamilySpec(p["kind"], p["n"], k=p.get("k"), m=p.get("m")))
    return verify_witness(g, report)


def check(outcome: Outcome, golden: Golden) -> str | None:
    """Why the operation failed, or None if its output is correct."""
    if outcome.error:
        return outcome.error
    op, text = outcome.op, outcome.stdout
    if op.kind == "replay":
        return None if text == golden.replay_bytes[op.query] \
            else "replayed bytes differ from the stored record"
    try:
        if op.kind == "verify":
            return None if json.loads(text).get("verified") is True else "not verified"
        expected = golden.expected[op.label]
        if op.argv[0] == "gen":
            digest = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                      "bytes": len(text.encode())}
            return None if digest == expected else "graph6 output differs"
        report = json.loads(text)
        if report.get("value") != expected:
            return f"value {report.get('value')!r}, expected {expected!r}"
        if "witness" in report:
            stored = json.loads(golden.records[op.label])["witness"]
            if report["witness"] != stored and not _witness_checks(report):
                return "witness differs from the stored one and fails verify_witness"
    except Exception as exc:  # malformed output is a failed operation
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def run_ops(ops, replays, rng, deadline, golden, failures, tracer=None,
             query_ids=None, setup_samples=None) -> list[Outcome]:
    """Run every operation `op.repeats` times in seed order, with the replays
    (and, when `setup_samples` is given, the set-up probes) spread evenly
    between them, then check every output.

    Spreading the repeats and the short measurements over the run lets each
    meet the host's fast and slow periods, rather than one snapshot.  A
    garbage collection after each operation but a replay starts the next
    from a heap as clean as a new process's, so that the peak resident set
    does not depend on the order."""
    order = [op for op in ops for _ in range(op.repeats)]
    rng.shuffle(order)
    replay_order = replays * -(-REPLAY_SAMPLES // len(replays))
    rng.shuffle(replay_order)
    per_gap = -(-len(replay_order) // len(order))
    schedule = []
    for i, op in enumerate(order):
        schedule += [op] + replay_order[i * per_gap:(i + 1) * per_gap]
    if setup_samples is not None:
        for i in range(SETUP_PROBES):
            schedule.insert(len(schedule) * (2 * i + 1) // (2 * SETUP_PROBES) + i, None)
    outcomes = []
    for op in schedule:
        if op is None:
            setup_samples.append(time_setup())
            continue
        if tracer is not None:
            tracer.query = query_ids[op.label]
        outcomes.append(run_op(op, deadline))
        if outcomes[-1].timed_out:
            break
        if op.kind != "replay":
            gc.collect()
    if tracer is not None:
        tracer.uninstall()
    for o in outcomes:
        reason = check(o, golden)
        if reason:
            failures.append(f"{o.op.label}: {reason}")
        o.stdout = ""  # outputs are checked; keep only times
    return outcomes


@dataclass
class Summary:
    wall_s: float      # one pass: summed per-operation medians, replays excluded
    wall_raw_s: float  # the same, from raw times
    verify_s: float    # the verify operations' share of wall_s
    cpu_s: float       # user+sys CPU, summed the same way as wall_s
    replay_ms: list[float]
    replay_raw_ms: list[float]
    per_op_s: dict


def summarize(outcomes: list[Outcome]) -> Summary:
    runs: dict[Op, list[Outcome]] = {}
    for o in outcomes:
        if o.op.kind != "replay":
            runs.setdefault(o.op, []).append(o)

    def per_op(attr):
        return {op: statistics.median(getattr(o, attr) for o in v) for op, v in runs.items()}

    median = per_op("seconds")
    replays = [o for o in outcomes if o.op.kind == "replay"]
    return Summary(
        sum(median.values()),
        sum(per_op("raw_s").values()),
        sum(t for op, t in median.items() if op.kind == "verify"),
        sum(per_op("cpu_s").values()),
        [o.seconds * 1000 for o in replays],
        [o.raw_s * 1000 for o in replays],
        {op.label: t for op, t in sorted(median.items(), key=lambda kv: kv[0].label)})


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else 0.0


# ---------------------------------------------------------------------------
# context and reporting


def _commit() -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def run_context(loadavg) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cubesym").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(loadavg),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def _declared_metrics(trace: bool) -> dict:
    """name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _previous_counts(workload: str) -> dict | None:
    try:
        lines = (OUT / "results.jsonl").read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    for line in reversed(lines):
        row = json.loads(line)
        if row["workload"] == workload and row["trace"] and not row["failures"]:
            return row["work_counts"]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        probe_setup()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    deadline = time.monotonic() + RUN_LIMIT_S
    loadavg = os.getloadavg()
    declared = _declared_metrics(bool(args.trace))
    cache_dir = OUT / f"cache-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        golden, import_s = set_up(cache_dir)
        context = run_context(loadavg)
        setup_samples: list[tuple[float, float]] = []  # (raw, reference seconds)
        scale = None if args.trace else args.seconds / wl.RUN_SECONDS
        ops, replays = build_ops(args.workload, cache_dir, scale)
        rng = random.Random(args.seed)
        failures: list[str] = []
        traced, per_layer, work_counts, missing = [], None, None, []
        untraced = run_ops(ops, replays, rng, deadline, golden, failures,
                            setup_samples=setup_samples)
        plain = summarize(untraced)
        if args.trace and not (untraced and untraced[-1].timed_out):
            from tracing import WORK_COUNTS, Tracer

            labels = [op.label for op in ops + replays]
            query_ids = {lbl: i for i, lbl in enumerate(labels)}
            tracer = Tracer()
            tracer.install()
            traced = run_ops(ops, replays, rng, deadline, golden, failures,
                              tracer, query_ids)
            per_layer, by_query = tracer.stats(len(labels))
            per_layer["process.import_s"] = import_s
            per_layer["process.cpu_s"] = plain.cpu_s
            per_layer["trace.overhead_s"] = summarize(traced).wall_s - plain.wall_s
            work_counts = {m: {"total": per_layer[m],
                               "by_query": {labels[i]: c for i, c in enumerate(by_query[m])
                                            if c}}
                           for m in WORK_COUNTS}
            missing = tracer.missing + tracer.missing_metrics()
            tracer.write(OUT / f"spans-{args.workload}.npz", labels)
        loop_q = statistics.quantiles(CLOCK.loop_s, n=4)
        context["slowdown"] = {"q1": loop_q[0] / REF_S, "median": loop_q[1] / REF_S,
                               "q3": loop_q[2] / REF_S, "samples": len(CLOCK.loop_s)}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    attempted = max(1, len(untraced) + len(traced))
    replay_ms = plain.replay_ms
    e2e = {
        "wall_s": plain.wall_s,
        "setup_s": statistics.median(ref for _, ref in setup_samples) if setup_samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "replay_ms_p90": p90(replay_ms),
    }
    # Printed and stored, but not reported in the JSON line: the raw times,
    # verify_s and the median replay latency, which move with the rest, and
    # fail_ratio, which is 0 when the program is right (the JSON line
    # carries `failed` and `attempted` instead).
    shown = dict(e2e, verify_s=plain.verify_s,
                 replay_ms_p50=statistics.median(replay_ms) if replay_ms else 0.0,
                 fail_ratio=len(failures) / attempted,
                 wall_raw_s=plain.wall_raw_s,
                 setup_raw_s=(statistics.median(raw for raw, _ in setup_samples)
                              if setup_samples else 0.0),
                 replay_raw_ms_p90=p90(plain.replay_raw_ms))
    units = dict(_declared_metrics(False), verify_s="s", replay_ms_p50="ms",
                 fail_ratio="ratio", wall_raw_s="s", setup_raw_s="s", replay_raw_ms_p90="ms")

    print(f"context: {json.dumps(context, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations run "
          f"{len(untraced) - len(replay_ms)} times untraced; {len(replay_ms)} replay samples "
          f"({len(replay_ms) - int(0.9 * len(replay_ms))} beyond p90)")
    for name, value in shown.items():
        print(f"  {name:<16} {value:.6g} {units[name]}")
    for line in failures:
        print(f"FAIL {line}")

    if args.trace:
        metrics = per_layer or {}
        from tracing import LAYER_METRICS

        print("per layer (traced pass):")
        for name in declared:
            moves = LAYER_METRICS.get(name, (None, None, "", ""))
            note = f"-> {moves[2]} on {moves[3]}" if moves[2] else ""
            print(f"  {name:<28} {metrics.get(name, 0):.6g} {declared[name]} {note}")
        for name in missing:
            print(f"  missing: {name} (a hook target is gone; its metrics read 0)")
        previous = _previous_counts(args.workload)
        if previous is not None and work_counts is not None:
            print("  work counts vs the previous traced run of this workload: " + ", ".join(
                f"{m} same" if previous.get(m, {}).get("total") == c["total"]
                else f"{m} {previous.get(m, {}).get('total')} -> {c['total']}"
                for m, c in work_counts.items()))
    else:
        metrics = e2e

    if per_layer is not None or not args.trace:
        undeclared = set(metrics) ^ set(declared)
        if undeclared:
            raise SystemExit(f"perfbench: BENCHMARK.json and run.py disagree on {undeclared}")
    reported = {name: {"value": metrics.get(name, 0), "unit": unit}
                for name, unit in declared.items()}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "context": context, "end_to_end": shown,
            "setup_samples_s": setup_samples, "replay_samples": len(replay_ms),
            "repeats": {op.label: op.repeats for op in ops}, "per_op_s": plain.per_op_s,
            "per_layer": per_layer,
            "work_counts": work_counts, "missing": missing, "failures": failures,
        }, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
