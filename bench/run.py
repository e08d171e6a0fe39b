"""cubecrawl benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload explore --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

One client sends one operation at a time (a closed loop).  The run repeats
the workload's operations until ``--seconds`` have passed and reports the
mean time of an iteration and the median set-up time.  ``--trace 1`` then
runs one more iteration with spans around the engine's public calls and
reports the per-layer split instead of the end-to-end metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
ENGINE_MODULES = ("cli", "core", "crawler", "models", "attribution", "join", "store")
WORKLOADS = ("explore", "stores")

#: all end-to-end metrics, with the operations each one times; a workload
#: without those operations prints n/a
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_failed_frac": "ratio",
    "crawl_s": "s", "topn_s": "s", "naive_s": "s", "write_s": "s", "store_bytes": "bytes",
    "cellset_crawl_s": "s", "join_s": "s", "store_crawl_s": "s",
    "chunked_read_p50_ms": "ms", "chunked_read_p90_ms": "ms",
    "rechunked_read_p50_ms": "ms", "rechunked_read_p90_ms": "ms",
}
OP_METRICS = {
    "crawl_s": ("crawl",), "topn_s": ("topn",), "naive_s": ("naive",),
    "write_s": ("materialize", "chunk", "rechunk"),
    "cellset_crawl_s": ("cellset_crawl", "joined_crawl", "result_crawl"),
    "join_s": ("join",), "store_crawl_s": ("outlier_crawl",),
}
READ_METRICS = {"chunked": "window_chunked", "rechunked": "window_rechunked"}

class BenchError(Exception):
    """The benchmark cannot run here (no engine sources, bad arguments)."""


def load_engine() -> dict:
    """Import ``cubecrawl`` from the checkout's ``src`` and return its modules by short name."""
    src = ROOT / "src"
    if not (src / "cubecrawl" / "__init__.py").is_file():
        raise BenchError(f"no cubecrawl sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cubecrawl

    if Path(cubecrawl.__file__).resolve().parent != (src / "cubecrawl").resolve():
        raise BenchError(f"imported cubecrawl from {cubecrawl.__file__}, not from {src}")
    return {name: importlib.import_module(f"cubecrawl.{name}") for name in ENGINE_MODULES}


class Run:
    """Times operations, keeps the first output of each and flags any that differ."""

    def __init__(self):
        self.iteration = 0
        self.tracer = None
        self.records: list[tuple] = []  # (iteration, key, seconds, error or None)
        self.first: dict = {}

    def op(self, key: str, fn, collect=None):
        t0 = perf_counter()
        try:
            out = self.tracer.op(key, fn) if self.tracer else fn()
            error = None
        except Exception as exc:  # an operation boundary: record the failure, go on
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if error is None and collect is not None:
            value = collect(out)
            if key not in self.first:
                self.first[key] = value
            elif value != self.first[key]:
                error = "output differs from the first iteration's"
        self.records.append((self.iteration, key, seconds, error))
        return out if error is None else None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(1, math.ceil(len(s) * q / 100)) - 1]


def end_to_end(run: Run, setup_times, peak_mb: float, failed: int, counts: dict) -> dict:
    per_iter: dict = defaultdict(lambda: defaultdict(float))
    samples: dict = defaultdict(list)
    for it, key, seconds, _ in run.records:
        if it == "trace":
            continue
        name = key.split("#")[0]
        per_iter[it][name] += seconds
        samples[name].append(seconds)
    iterations = list(per_iter.values())
    # Operation times are means over the run's iterations, not medians: the
    # machine's speed shifts in spells of several seconds to minutes, and the
    # median of a few iterations then jumps between the fast and slow spells,
    # while the mean follows the share of the run each one took.
    out = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(sum(ops.values()) for ops in iterations),
        "peak_rss_mb": peak_mb,
        "ops_failed_frac": failed / len(run.records),
    }
    for metric, names in OP_METRICS.items():
        if any(n in samples for n in names):
            out[metric] = statistics.fmean(sum(ops.get(n, 0.0) for n in names)
                                           for ops in iterations)
    if counts.get("store.bytes"):
        out["store_bytes"] = counts["store.bytes"]
    for layout, name in READ_METRICS.items():
        if name in samples:
            out[f"{layout}_read_p50_ms"] = percentile(samples[name], 50) * 1e3
            out[f"{layout}_read_p90_ms"] = percentile(samples[name], 90) * 1e3
            out[f"{layout}_read_samples"] = len(samples[name])
    return out


def per_layer(tracer, workload, counts: dict, traced_wall: float,
              untraced_wall: float, expectations: dict) -> dict:
    split = tracing.layer_split(tracer.spans)
    calls, inc, own = split["calls"], split["inclusive_s"], split["self_s"]
    crawl = workload.crawl_counts()
    primary = workload.counters.get(workload.PRIMARY, {})
    model_names = sorted(n for n in calls if n.startswith("models."))
    out = {
        "core.csv_parse_s": inc.get("core.csv_parse", 0.0),
        "core.build_s": inc.get("core.build", 0.0),
        "core.frame_rows": split["frame_rows"],
        "core.build_cellset_s": inc.get("core.build_cellset", 0.0),
        "crawler.regions_evaluated": crawl["regions_evaluated"],
        "crawler.regions_emitted": crawl["regions_emitted"],
        "crawler.frames_materialized": crawl["frames_materialized"],
        "crawler.emit_ratio": crawl["regions_emitted"] / max(1, crawl["regions_evaluated"]),
        "crawler.prune_ratio": primary.get("regions_evaluated", 0)
        / expectations["lattice_regions"],
        "models.calls": sum(calls[n] for n in model_names),
        "models.s": sum(inc[n] for n in model_names),
        "attribution.calls": calls.get("attribution.attribute_density", 0),
        "attribution.s": inc.get("attribution.attribute_density", 0.0),
        "join.build_s": inc.get("join.build", 0.0),
        "store.open_s": inc.get("store.open", 0.0),
        "store.chunked_reads_per_view": 0.0,
        "store.rechunked_reads_per_view": 0.0,
        "store.chunk_reads": 0, "store.slice_reads": 0, "join.cells": 0,
        "cli.config_s": inc.get("cli.config", 0.0),
        "cli.output_s": inc.get("cli.output", 0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name in ("bind", "view", "child", "values", "cellset_view", "table_view"):
        out[f"core.{name}_calls"] = calls.get(f"core.{name}", 0)
        out[f"core.{name}_s"] = inc.get(f"core.{name}", 0.0)
    for name in ("join.view", "store.view"):
        out[f"{name}_calls"] = calls.get(name, 0)
        out[f"{name}_s"] = inc.get(name, 0.0)
    for kind in ("materialize", "chunk", "rechunk"):
        out[f"store.write_s.{kind}"] = inc.get(f"store.write.{kind}", 0.0)
    for n in model_names:
        out[f"{n}.calls"] = calls[n]
        out[f"{n}.s"] = inc[n]
    for op, counters in workload.counters.items():
        for k in ("regions_evaluated", "regions_emitted", "frames_materialized"):
            out[f"crawler.{op}.{k}"] = counters.get(k, 0)
    total = sum(own.values())
    for layer, seconds in own.items():
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.self_pct"] = 100.0 * seconds / total
    out.update(counts)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_root: Path = ROOT / ".bench_work") -> dict:
    """Generate, set up, measure, optionally trace, and check one workload."""
    modules = load_engine()
    import workloads

    workdir = work_root / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, workdir)

    def setup() -> None:
        gc.collect()  # leave no earlier garbage for a collection inside the timed load
        t0 = perf_counter()
        workload.load_input()
        setup_times.append(perf_counter() - t0)

    # set-up samples are spread over the run, a few before each iteration, so
    # their median does not hang on one stretch of a noisy machine
    setup_times: list[float] = []
    run = Run()
    start = perf_counter()
    while True:
        for _ in range(SETUP_SAMPLES):
            setup()
        gc.collect()
        run.iteration += 1
        workload.iteration(run)
        elapsed = perf_counter() - start
        if elapsed + elapsed / run.iteration > seconds:  # the next one would overrun
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced_walls = [sum(s for it, _, s, _ in run.records if it == i)
                      for i in range(1, run.iteration + 1)]

    tracer = traced_wall = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            run.tracer, run.iteration = tracer, "trace"
            tracer.op("setup", workload.load_input)
            n_before = len(run.records)
            workload.iteration(run)
            traced_wall = sum(r[2] for r in run.records[n_before:])
        finally:
            tracer.uninstall()
        tracer.write(workdir / "spans.csv")
    # an operation that failed may have left nothing to count
    counts = {} if any(r[3] for r in run.records) else workload.layer_counts()

    expectations = workload.expectations()
    problems = {}
    for key, value in run.first.items():
        found = workload.check(key, value, expectations, run.first)
        if found:
            problems[key] = found
    failed_records = [r for r in run.records if r[3] is not None or r[1] in problems]
    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "iterations": len(untraced_walls),
        "iteration_wall_s": untraced_walls,
        "workers": workloads.WORKERS, "workers_reason": workloads.WORKERS_REASON,
        "cpu_count": os.cpu_count(),
        "attempted": len(run.records), "failed": len(failed_records),
        "errors": sorted({f"{r[1]}: {r[3]}" for r in failed_records if r[3]})[:20],
        "problems": {k: v[:5] for k, v in problems.items()},
        "end_to_end": end_to_end(run, setup_times, peak_mb, len(failed_records), counts),
    }
    if trace:
        report["per_layer"] = per_layer(tracer, workload, counts, traced_wall,
                                        statistics.fmean(untraced_walls), expectations)
        report["spans"] = len(tracer.spans)
    (workdir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}  {report['iterations']} iterations "
          f"in {report['seconds']} s  closed loop, 1 client")
    print(f"   workers {report['workers']} on cpu_count {report['cpu_count']}: "
          f"{report['workers_reason']}")
    print(f"   operations attempted {report['attempted']}, failed {report['failed']}")
    for line in report["errors"] + [p for ps in report["problems"].values() for p in ps]:
        print(f"   FAILED {line}")
    e2e = report["end_to_end"]
    print("   end-to-end (untraced):")
    for name, unit in END_TO_END.items():
        value = e2e.get(name)
        text = "n/a" if value is None else f"{value:.6g} {unit}"
        if name.endswith("_p90_ms") and value is not None:
            text += f"  ({e2e[name.replace('_p90_ms', '_samples')]} samples)"
        print(f"     {name:24s} {text}")
    if "per_layer" in report:
        print(f"   per layer (one traced iteration, {report['spans']} spans):")
        for name, value in sorted(report["per_layer"].items()):
            print(f"     {name:34s} {value:.6g}")


def declared_metrics(section: str) -> dict:
    """Names and units of one metric section of BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def result_line(report: dict, trace: bool) -> dict:
    source = report["per_layer" if trace else "end_to_end"]
    units = declared_metrics("per_layer" if trace else "end_to_end")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        # a metric is missing only from a run whose operations failed
        "metrics": {name: {"value": source.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run each workload in a child process of its own, so that each
    ``peak_rss_mb`` is that workload's, and print one combined result line."""
    lines = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *table, last = proc.stdout.splitlines()
        print("\n".join(table))
        lines[name] = json.loads(last)
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{name}.{k}": v for name, line in lines.items()
                    for k, v in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report a benchmark bug without printing a result line
        traceback.print_exc()
        sys.exit(1)
