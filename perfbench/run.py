"""Benchmark of the default commit path: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no wrapper installed; its result line carries
the bounded end-to-end metrics.  ``--trace 1`` alternates untraced and
traced blocks (U T T U, repeated) inside the same timed phase: the traced
blocks give the per-layer metrics, the untraced ones the end-to-end metrics
that carry no bound, and the ratio of their throughputs is the tracing
overhead.  Either way the run prints a readable report with every metric,
writes the full result (and the spans) under ``perfbench/out/``, and prints
one JSON object as its last line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is timed in samples: a sample sets up again and again until its
# set-ups have taken SETUP_SAMPLE_S (at least once) and gives their mean.
# A run takes at least SETUP_MIN samples and, while set-up is cheap, more
# until its set-ups have taken SETUP_BUDGET_S; setup_s is the median
# sample.  Cheap set-ups (a few ms) come in fast and slow stretches of a
# few hundred ms on a shared host; a sample spans such stretches, so the
# median does not jump between the two speeds.
SETUP_MIN, SETUP_SAMPLE_S, SETUP_BUDGET_S = 3, 0.5, 4.0
# Untraced and traced blocks alternate finely (U T T U, repeated the
# workload's TRACE_ROUNDS times), so a workload that slows down as it runs
# loads both kinds alike.
TRACE_ROUND = (False, True, True, False)
P99_MIN_SAMPLES = 1000

# The end-to-end metrics the result line of an untraced run carries: the
# ones steady enough here to bound (see README.md, "Steadiness").  The
# others are reported by a traced run, from its untraced blocks.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------


class Recorder:
    """Outcomes and latencies of one timed phase, split by block kind."""

    def __init__(self) -> None:
        self.ops = {False: [], True: []}  # traced? -> [(cls, outcome, seconds)]
        self.elapsed = {False: 0.0, True: 0.0}
        self.counters = {False: {}, True: {}}

    def add_counters(self, traced: bool, before: dict, after: dict) -> None:
        acc = self.counters[traced]
        for key, value in after.items():
            acc[key] = acc.get(key, 0) + value - before.get(key, 0)


def run_block(workload, seconds: float, tracer, traced: bool, rec: Recorder) -> None:
    """Closed loop: each caller sends its next request after the reply."""
    start = time.perf_counter()
    deadline = start + seconds

    def caller(c: int) -> None:
        local = []
        n = 0
        while time.perf_counter() < deadline:
            op = workload.next_op(c)
            if tracer is not None:
                tracer.begin_op(f"{c}:{n}")
            t0 = time.perf_counter()
            outcome = workload.execute(op, c)
            local.append((op.cls, outcome, time.perf_counter() - t0))
            n += 1
        rec.ops[traced].extend(local)

    if workload.callers == 1:
        caller(0)
    else:
        threads = [threading.Thread(target=caller, args=(c,)) for c in range(workload.callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    rec.elapsed[traced] += time.perf_counter() - start


def set_tracing(workload, tracer, on: bool) -> None:
    if hasattr(workload, "set_tracing"):
        workload.set_tracing(on)
    elif on:
        tracer.install()
    else:
        tracer.uninstall()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(ops, elapsed: float, counters: dict, probes: dict) -> dict:
    """Every end-to-end metric, as (value, unit, sample count)."""
    commits = [s for _c, o, s in ops if o in ("commit", "refusal")]
    queries = [s for _c, o, s in ops if o == "query"]
    completed = len(commits) + len(queries)
    failed = sum(1 for _c, o, _s in ops if o in ("failed", "defect"))
    failed += probes.get("failed", 0)
    attempted = len(ops) + probes.get("attempted", 0)
    committed = sum(1 for _c, o, _s in ops if o == "commit")
    out = {
        "ops_per_s": (completed / elapsed if elapsed else 0.0, "1/s", completed),
        "failed_ratio": (failed / attempted if attempted else 0.0, "ratio", attempted),
        "disk_bytes_per_commit": (
            counters.get("wchar", 0) / committed if committed else 0.0, "B", committed
        ),
    }
    for prefix, samples in (("commit", commits), ("query", queries)):
        for q in (50, 90, 99):
            # A p99 needs 1000 samples; with fewer it reads 0, as does a
            # percentile of a class the workload does not run.
            enough = samples and (q < 99 or len(samples) >= P99_MIN_SAMPLES)
            value = percentile(samples, q / 100) * 1000 if enough else 0.0
            out[f"{prefix}_p{q}_ms"] = (value, "ms", len(samples))
    return out


def per_layer(summary: dict, rec: Recorder, workload, journal_bytes: int) -> dict:
    """The per-layer metrics from the traced blocks (see README.md)."""
    from workloads import Constrained

    traced = rec.ops[True]
    commits_t = sum(1 for _c, o, _s in traced if o in ("commit", "refusal"))
    queries_t = sum(1 for c, _o, _s in traced if c in ("lookup", "count", "project"))
    cross_t = sum(1 for c, _o, _s in traced if c == "cross")
    rtt_t = sum(s for _c, _o, s in traced)
    ctr_t = rec.counters[True]

    def per(value, n):
        return value / n if n else 0.0

    def span(name, key="self_s"):
        return summary.get(name, {}).get(key, 0.0)

    checks = summary.get("constraints.check", {"count": 0, "tags": {}})
    states = sum(t["sum"] for t in checks["tags"].values())
    submit = summary.get("concurrent.submit", {"count": 0, "total_s": 0.0, "tags": {}})
    attempts = sum(t["sum"] for t in submit["tags"].values())
    untraced = rec.ops[False]
    all_ops = traced + untraced
    attempts_all = sum(1 for _c, o, _s in all_ops if o in ("commit", "refusal"))
    refusals_all = sum(1 for _c, o, _s in all_ops if o == "refusal")
    ctr_all = {k: ctr_t.get(k, 0) + rec.counters[False].get(k, 0) for k in ctr_t}
    served = workload.name == "served"
    requests, requests_t = (len(all_ops), len(traced)) if served else (0, 0)
    shard_commits = ctr_all.get("single", 0) + ctr_all.get("cross", 0)

    m = {
        "db.state_update_ms": (per(span("db.state_update") * 1e3, commits_t), "ms/commit"),
        "db.evolution_ms": (per(span("db.evolution") * 1e3, commits_t), "ms/commit"),
        "db.evolution_states": (workload.evolution_states(), "count"),
        "db.history_ms": (per(span("db.history") * 1e3, commits_t), "ms/commit"),
        "storage.log_commit_ms": (per(span("storage.log_commit") * 1e3, commits_t), "ms/commit"),
        "storage.serialize_ms": (per(span("storage.serialize") * 1e3, commits_t), "ms/commit"),
        "storage.fsyncs_per_commit": (per(ctr_all.get("fsyncs", 0), attempts_all), "count"),
        "storage.journal_bytes_per_commit": (per(journal_bytes, commits_t), "B"),
        "storage.checkpoints": (ctr_all.get("checkpoints", 0), "count"),
        "storage.checkpoint_ms": (
            per(span("storage.checkpoint", "total_s") * 1e3, span("storage.checkpoint", "count")),
            "ms",
        ),
        "transactions.run_ms": (per(span("transactions.run") * 1e3, commits_t), "ms/commit"),
        "transactions.query_ms": (per(span("transactions.query") * 1e3, queries_t), "ms/query"),
        "constraints.checks_per_commit": (per(checks["count"], commits_t), "count"),
        "constraints.states_checked_per_commit": (per(states, commits_t), "count"),
        "constraints.check_ms": (per(span("constraints.check") * 1e3, commits_t), "ms/commit"),
    }
    for name in Constrained.CONSTRAINTS:
        tagged = checks["tags"].get(name, {"self_s": 0.0})
        m[f"constraints.check_ms.{name}"] = (per(tagged["self_s"] * 1e3, commits_t), "ms/commit")
    evaluations = checks["count"] + queries_t
    in_server = submit["total_s"] + span("transactions.query", "total_s")
    m.update(
        {
            "constraints.refused_share": (per(refusals_all, attempts_all), "ratio"),
            "eval.skipped_share": (
                per(ctr_t.get("eval_skipped", 0), ctr_t.get("eval_skipped", 0) + checks["count"]),
                "ratio",
            ),
            "algebra.planned_share": (per(ctr_t.get("planner_exec", 0), evaluations), "ratio"),
            "concurrent.queue_wait_ms": (
                per(
                    (submit["total_s"] - span("transactions.run", "total_s")
                     - span("concurrent.apply", "total_s")) * 1e3,
                    submit["count"],
                ),
                "ms/commit",
            ),
            "concurrent.attempts_per_commit": (per(attempts, submit["count"]), "count"),
            "concurrent.conflicts_per_commit": (per(ctr_all.get("conflicts", 0), attempts_all), "count"),
            "concurrent.apply_ms": (per(span("concurrent.apply") * 1e3, commits_t), "ms/commit"),
            "server.overhead_ms": (per((rtt_t - in_server) * 1e3, requests_t), "ms/request"),
            "server.bytes_per_request": (
                per(ctr_all.get("bytes_in", 0) + ctr_all.get("bytes_out", 0), requests),
                "B",
            ),
            "sharding.cross_share": (per(ctr_all.get("cross", 0), shard_commits), "ratio"),
            "sharding.prepare_ms": (
                per((span("sharding.rehearse", "total_s") + span("sharding.log_prepare", "total_s"))
                    * 1e3, cross_t),
                "ms/xcommit",
            ),
            "sharding.decide_ms": (per(span("sharding.decide", "total_s") * 1e3, cross_t), "ms/xcommit"),
            "sharding.outcome_ms": (
                per(span("sharding.log_outcome", "total_s") * 1e3, cross_t), "ms/xcommit"
            ),
        }
    )
    ops_u = per(sum(1 for _c, o, _s in untraced if o in ("commit", "refusal", "query")),
                rec.elapsed[False])
    ops_t = per(sum(1 for _c, o, _s in traced if o in ("commit", "refusal", "query")),
                rec.elapsed[True])
    m["trace.overhead_ratio"] = (per(ops_u, ops_t), "ratio")
    m["trace.untraced_ops"] = (len(untraced), "count")
    m["trace.traced_ops"] = (len(traced), "count")
    return m


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fs_type(path: str) -> str:
    """Filesystem type of the mount that holds ``path``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def environment(args, workdir: str) -> dict:
    from workloads import SYNC

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "git_sha": git_sha(ROOT),
        "store_fs": fs_type(workdir),
        "sync": SYNC,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(args, workdir: str) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setups = []  # seconds per set-up, one entry per sample
    spent, count = 0.0, 0
    workload = None
    problems = []
    try:
        # Every set-up but the last is closed here, the last one in the
        # finally clause, so no server child outlives a failed run.
        while len(setups) < SETUP_MIN or spent < SETUP_BUDGET_S:
            sample, n = 0.0, 0
            while n == 0 or sample < SETUP_SAMPLE_S:
                if workload is not None:
                    workload.close()
                    shutil.rmtree(setup_dir, ignore_errors=True)
                workload = cls(args.seed)
                setup_dir = os.path.join(workdir, f"setup{count}")
                # Each set-up starts from a collected heap, so the garbage
                # of the set-ups before it does not put a collection in its
                # time.
                gc.collect()
                started = time.perf_counter()
                workload.setup(setup_dir)
                sample += time.perf_counter() - started
                n += 1
                count += 1
            setups.append(sample / n)
            spent += sample
        tracer = Tracer() if args.trace and not hasattr(workload, "set_tracing") else None
        # A fixed number of operations warms the system up; peak RSS is
        # read after them, so it measures memory for a fixed amount of
        # work, not how many operations the timed phase gets through.
        warm = []
        for n in range(workload.RSS_OPS):
            caller = n % workload.callers
            warm.append(workload.execute(workload.next_op(caller), caller))
        rss = workload.peak_rss_mb()
        rec = Recorder()
        pattern = TRACE_ROUND * workload.TRACE_ROUNDS if args.trace else (False,)
        block = args.seconds / len(pattern)
        for traced in pattern:
            if args.trace:
                set_tracing(workload, tracer, traced)
            before = workload.counters()
            run_block(workload, block, tracer, traced, rec)
            rec.add_counters(traced, before, workload.counters())
        if args.trace:
            set_tracing(workload, tracer, False)
        probes = {}
        if hasattr(workload, "probe"):
            workload.probe()
            probes = workload.probes
        layers = {}
        if args.trace:
            spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
            if tracer is not None:
                summary, journal_bytes = tracer.summary(), tracer.journal_bytes
                tracer.dump(spans)
            else:  # the layers ran in the server child
                summary, journal_bytes = workload.trace_summary()
                workload.dump_spans(spans)
            layers = per_layer(summary, rec, workload, journal_bytes)
        problems += workload.check()
    finally:
        if workload is not None:
            workload.close()

    all_ops = rec.ops[False] + rec.ops[True]
    unexpected = warm.count("failed") + sum(1 for _c, o, _s in all_ops if o == "failed")
    defects = sum(1 for _c, o, _s in all_ops if o == "defect")
    if unexpected:
        problems.append(f"{unexpected} operations failed or gave a wrong answer or verdict")
    e2e = end_to_end(rec.ops[False], rec.elapsed[False], rec.counters[False], probes)
    e2e["setup_s"] = (statistics.median(setups), "s", count)
    e2e["peak_rss_mb"] = (rss, "MB", workload.RSS_OPS)
    if args.trace:
        for name, (value, unit, _n) in e2e.items():
            if name not in END_TO_END:  # reported here, without a bound
                layers[name] = (value, unit)
    classes = {}
    for c, o, _s in all_ops:
        classes.setdefault(c, {}).setdefault(o, 0)
        classes[c][o] += 1
    return {
        "problems": problems,
        "attempted": len(warm) + len(all_ops) + probes.get("attempted", 0),
        "unexpected": unexpected,
        "defects": defects + probes.get("failed", 0),
        "setups_s": setups,
        "end_to_end": e2e,
        "per_layer": layers,
        "classes": classes,
        "probes": probes,
        "elapsed_s": rec.elapsed,
    }


def report(env: dict, result: dict) -> list[str]:
    lines = ["environment: " + json.dumps(env, sort_keys=True)]
    lines.append("operations by class and outcome: " + json.dumps(result["classes"], sort_keys=True))
    if result["probes"]:
        lines.append("multi-row projection probes: " + json.dumps(result["probes"]))
    lines.append("end-to-end (untraced blocks):")
    for name, (value, unit, n) in sorted(result["end_to_end"].items()):
        note = "" if value or not name.endswith("_ms") else "  (not reported: too few samples)"
        lines.append(f"  {name:<28} {value:14.4f} {unit:<6} n={n}{note}")
    if result["per_layer"]:
        lines.append("per layer (traced blocks):")
        for name, (value, unit) in sorted(result["per_layer"].items()):
            lines.append(f"  {name:<52} {value:14.4f} {unit}")
    for problem in result["problems"]:
        lines.append("PROBLEM: " + problem)
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so the clean-up clauses stop the
    # server child and wait for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    try:
        env = environment(args, workdir)
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in report(env, result):
        print(line)
    chosen = result["per_layer"] if args.trace else {
        name: result["end_to_end"][name][:2] for name in END_TO_END
    }
    final = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["unexpected"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "summary": final}, fh, indent=1,
                  default=str)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
