"""Run the benchmark once per seed and print each metric's median and spread.

    python3 bench/spread.py --workloads explore stores --seeds 1-10

Runs are sequential, one process at a time, from the repository root.  The
spread is the interquartile range (``statistics.quantiles(values, n=4)``) as
a share of the median, the figure BENCHMARK.json bounds are compared with.
Every end-to-end metric of the run's report is listed, gated or not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report = json.loads((ROOT / ".bench_work" / workload / "report.json").read_text())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall_s={report['end_to_end']['wall_s']:.4f}", flush=True)
            ok &= proc.returncode == 0 and result["correct"]
            for name, value in report["end_to_end"].items():
                values.setdefault(name, []).append(value)
        print(f"== {workload}: {len(args.seeds)} seeds")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f}  {'ok' if spread < bound / 3 else 'WIDE'}"
                ok &= spread < bound
            print(f"   {name:26s} median {med:12.6g}  spread {spread:7.2%}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
