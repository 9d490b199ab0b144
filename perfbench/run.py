#!/usr/bin/env python3
"""Benchmark for cerifrdf: three workloads timed from outside the library.

    python3 perfbench/run.py --workload publish|harvest|lookup \\
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  The command builds the seeded inputs
under perfbench/work/, then runs the workload in a child process of its own
(hash seed fixed, so set and dict layouts repeat between runs), repeating
rounds until S seconds of timed rounds have passed.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, from spans
recorded around every library call, and the spans are written to
perfbench/results/.  Lines before it show the workload's own figures.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("publish", "harvest", "lookup")
#: the workload process may take twice --seconds plus this long (warm-up,
#: checks and the last round), then it is stopped
CHILD_MARGIN_S = 120
#: set-up runs this many times per round, each one a sample of setup_s
SETUP_REPEATS = 3

#: per-layer span names, each reported as <name>.self_s and <name>.growth
LAYER_CALLS = [
    "rdfxml.parse_document", "rdfxml.serialize_document",
    "validation.check_document_uniqueness", "validation.validate_record",
    "validation.apply_discard_cascade",
    "sgml.parse_sgml", "sgml.map_record", "sgml.build_record_set",
    "exchange.plan_session", "exchange.check_session", "exchange.registry_load",
    "exchange.parse_name",
    "htmlbridge.render_html", "htmlbridge.extract_rdf",
    "store.merge", "store.save", "store.load", "store.query",
]
#: per-layer counts, reported for the last traced full-size round
LAYER_COUNTS = [
    "rdfxml.parse_document.bytes_in", "rdfxml.serialize_document.bytes_out",
    "validation.discarded_invalid", "validation.discarded_cascade",
    "sgml.records_in", "exchange.files_planned", "exchange.relations_planned",
    "exchange.registry_entries", "htmlbridge.pages_rendered",
    "htmlbridge.blocks_extracted", "htmlbridge.extract_bytes_in",
    "store.records_merged", "store.save.files_written", "store.save.bytes_written",
    "store.load.files_read", "store.query.results", "store.triples",
]


def _import_paths() -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "tests"), str(ROOT / "src")]


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# child process: runs rounds of one workload and reports raw figures


def run_rounds(wl, tracer, seconds: float, min_rounds: int) -> dict:
    """Warm-up round (checked in full), then timed rounds until *seconds* of
    them have passed and at least *min_rounds* are done."""
    from spans import CallFailed

    rounds, problems = [], []
    started = None
    index = 0
    while index <= min_rounds or time.perf_counter() - started < seconds:
        # the last round's outputs go before this round starts, so they do
        # not count toward its memory
        out = None
        tracer.counts.clear()
        wl.prepare()
        # start each round with the benchmark's own objects out of the
        # collector's way, as in a fresh command-line process
        gc.collect()
        gc.freeze()
        setups = []
        try:
            for _ in range(SETUP_REPEATS):
                # the trace keeps the last set-up only, as one CLI call does
                tracer.counts.clear()
                mark = len(tracer.spans)
                t0 = time.perf_counter()
                with tracer.span("bench.setup"):
                    wl.setup()
                t1 = time.perf_counter()
                setups.append(t1 - t0)
            with tracer.span("bench.round"):
                out = wl.work(full=index == 0)
            t2 = time.perf_counter()
        except CallFailed as exc:
            print(f"round {index}: {exc}", file=sys.stderr)
            out = None
        gc.unfreeze()
        if out is not None:
            wl.count(out)
            problems += wl.check(out, full=index == 0)
            if index > 0:
                rounds.append({
                    "setup_s": setups, "round_s": t2 - t1 - out["excluded_s"],
                    "update_s": out.get("update_s"),
                    "latencies": out.get("latencies", []),
                    "self_s": tracer.self_times(mark) if tracer.enabled else {},
                    "counts": dict(tracer.counts)})
        if started is None:
            started = time.perf_counter()
        index += 1
    return {"rounds": rounds, "problems": problems}


def _load(workload: str, root: Path, tracer):
    import workloads

    with open(root / "expect.pickle", "rb") as handle:
        expect = pickle.load(handle)
    return workloads.WORKLOADS[workload](root, expect, tracer)


def child(args) -> int:
    _import_paths()
    from spans import Tracer

    work = Path(args.dir)
    result = {}
    if not args.trace:
        tracer = Tracer(enabled=False)
        result["full"] = run_rounds(_load(args.workload, work / "full", tracer),
                                    tracer, args.seconds, min_rounds=5)
    else:
        # a third of the time each: untraced and traced at full size, then
        # traced at a quarter of the size for the growth estimates
        third = args.seconds / 3
        plain = Tracer(enabled=False)
        result["plain"] = run_rounds(_load(args.workload, work / "full", plain),
                                     plain, third, min_rounds=2)
        tracer = Tracer(enabled=True)
        result["full"] = run_rounds(_load(args.workload, work / "full", tracer),
                                    tracer, third, min_rounds=2)
        quarter = Tracer(enabled=True)
        result["quarter"] = run_rounds(_load(args.workload, work / "quarter", quarter),
                                       quarter, third, min_rounds=2)
        tracer.attempted += plain.attempted + quarter.attempted
        tracer.failed += plain.failed + quarter.failed
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        tracer.write(results / f"trace-{args.workload}-seed{args.seed}.jsonl")
    result["attempted"] = tracer.attempted
    result["failed"] = tracer.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent process: builds inputs, starts the child, derives the metrics


def _end_to_end(workload: str, raw: dict) -> tuple[dict, list[str]]:
    rounds = raw["full"]["rounds"]
    setup = _median([x for r in rounds for x in r["setup_s"]])
    round_s = _median([r["round_s"] for r in rounds])
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "round_s": {"value": round_s, "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MiB"},
    }
    info = [f"rounds {len(rounds)} (after one checked warm-up round)"]
    records = rounds[0]["counts"].get("bench.records_in") if rounds else None
    if records:
        info.append(f"records_per_s {records / round_s:.1f} records/s "
                    f"({records} records per round)")
    if workload == "harvest":
        info.append(f"update_s {_median([r['update_s'] for r in rounds]):.4f} s")
    if workload == "lookup":
        latencies = sorted(x for r in rounds for x in r["latencies"])
        if len(latencies) >= 100:
            p50, p90 = (statistics.quantiles(latencies, n=10)[i] for i in (4, 8))
            info.append(f"query_p50_ms {1000 * p50:.3f} ms, query_p90_ms "
                        f"{1000 * p90:.3f} ms ({len(latencies)} queries)")
    return metrics, info


def _per_layer(raw: dict) -> tuple[dict, list[str]]:
    def layer_medians(rounds):
        names = {name for r in rounds for name in r["self_s"]}
        return {name: _median([r["self_s"].get(name, 0.0) for r in rounds])
                for name in names}

    full, quarter = raw["full"]["rounds"], raw["quarter"]["rounds"]
    full_s, quarter_s = layer_medians(full), layer_medians(quarter)
    metrics = {}
    for name in LAYER_CALLS:
        t_full, t_quarter = full_s.get(name, 0.0), quarter_s.get(name, 0.0)
        metrics[f"{name}.self_s"] = {"value": t_full, "unit": "s"}
        growth = (math.log(t_full / t_quarter) / math.log(4)
                  if t_full > 0 and t_quarter > 0 else 0.0)
        metrics[f"{name}.growth"] = {"value": growth, "unit": "ratio"}
    counts = full[-1]["counts"] if full else {}
    for name in LAYER_COUNTS:
        unit = "B" if name.endswith(("bytes_in", "bytes_out", "bytes_written")) \
            else "count"
        metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    changed = counts.get("store.save.files_changed", 0)
    metrics["store.save.rewrite_ratio"] = {
        "value": counts.get("store.save.files_written", 0) / changed if changed else 0.0,
        "unit": "ratio"}
    metrics["rdfxml.parse_document.calls"] = {
        "value": counts.get("rdfxml.parse_document.calls", 0), "unit": "count"}

    def total(rounds):
        return _median([r["setup_s"][-1] + r["round_s"] for r in rounds])

    metrics["bench.trace_overhead_s"] = {
        "value": total(full) - total(raw["plain"]["rounds"]), "unit": "s"}
    info = [f"traced rounds {len(full)} full, {len(quarter)} quarter; "
            f"untraced rounds {len(raw['plain']['rounds'])}"]
    return metrics, info


def parent(args) -> int:
    _import_paths()
    import gen

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        started = time.perf_counter()
        for scale, sub in ((1.0, "full"), (0.25, "quarter")):
            if scale != 1.0 and not args.trace:
                continue
            expect = gen.build(args.workload, args.seed, scale, work / sub)
            with open(work / sub / "expect.pickle", "wb") as handle:
                pickle.dump(expect, handle)
        print(f"inputs built in {time.perf_counter() - started:.1f} s")
        env = dict(os.environ, PYTHONHASHSEED="0")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--dir", str(work), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=2 * args.seconds + CHILD_MARGIN_S)
        except subprocess.TimeoutExpired:
            print("error: workload process timed out and was stopped", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = [p for part in ("plain", "full", "quarter") if part in raw
                for p in raw[part]["problems"]]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        metrics, info = _per_layer(raw)
    else:
        metrics, info = _end_to_end(args.workload, raw)
    for line in info:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cerifrdf").is_dir() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print("error: perfbench must sit in a checkout holding src/cerifrdf and "
              "tests/", file=sys.stderr)
        return 2
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
