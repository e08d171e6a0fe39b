"""Self-tests of the benchmark: seeding, checkers, count repeatability, span accounting.

    python3 -m pytest -q bench/test_bench.py

The repeatability tests run each full-size workload twice with one traced
iteration; the file takes about three minutes on a 2-core machine.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_engine()

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


def _inputs(workdir: Path) -> dict[str, bytes]:
    """Every generated input file, with the work directory's path masked."""
    return {str(p.relative_to(workdir)): p.read_bytes().replace(str(workdir).encode(), b"<dir>")
            for p in sorted(workdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    cls = workloads.WORKLOADS[name]
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    cls(7, a), cls(7, b), cls(8, c)
    assert _inputs(a) == _inputs(b)
    assert _inputs(a) != _inputs(c)


class SmallExplore(workloads.Explore):
    N_ROWS = 2000
    THRESHOLD = 2000
    TOP_N = 20


def _one_iteration(workload):
    r = run.Run()
    r.iteration = 1
    workload.iteration(r)
    assert all(rec[3] is None for rec in r.records), r.records
    return r.first


def test_checker_flags_corrupted_explore_output(tmp_path):
    wl = SmallExplore(3, tmp_path)
    first = _one_iteration(wl)
    exp = wl.expectations()
    for key, value in first.items():
        assert wl.check(key, value, exp, first) == [], key

    lines = first["crawl"].splitlines(keepends=True)
    rec = json.loads(lines[5])
    rec["signals"]["total_weight"] += 1.0
    corrupted = b"".join(lines[:5] + [json.dumps(rec).encode() + b"\n"] + lines[6:])
    assert wl.check("crawl", corrupted, exp, first)
    # a dropped record fails the crawl check and the naive byte comparison
    dropped = b"".join(lines[:5] + lines[6:])
    assert wl.check("crawl", dropped, exp, first)
    assert wl.check("naive", first["naive"], exp, {**first, "crawl": dropped})

    ranked = first["topn"].splitlines(keepends=True)
    swapped = b"".join([ranked[1], ranked[0]] + ranked[2:])
    assert wl.check("topn", swapped, exp, first)


def test_checker_flags_corrupted_window_and_records(tmp_path):
    wl = workloads.Timeseries(3, tmp_path)
    r = run.Run()
    r.iteration = 1
    wl.iteration(r)
    exp = wl.expectations()
    key = "window_chunked#4"
    assert wl.check(key, r.first[key], exp, r.first) == []
    (date, ), (value, ) = r.first[key][0]
    bad = (((date, ), (value + 1, )), ) + r.first[key][1:]
    assert wl.check(key, bad, exp, r.first)

    records = r.first["outlier_crawl"]
    region, signals = records[-1]
    tampered = records[:-1] + [(region, {**signals, "region_share": signals["region_share"] / 2})]
    assert wl.check("outlier_crawl", tampered, exp, r.first)


def _spans(path: Path) -> list[list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[int(r[0]), int(r[1]), int(r[2]), r[3], r[4], float(r[5]), float(r[6]), 0]
            for r in rows]


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_and_self_times_add_up(tmp_path, name):
    reports = [run.run_workload(name, 11, 0, True, tmp_path / f"run{i}") for i in range(2)]
    for report in reports:
        assert report["failed"] == 0, report["errors"] + list(report["problems"].items())
    exact = ("crawler.regions_evaluated", "crawler.frames_materialized", "store.chunk_reads",
             "store.slice_reads", "store.bytes")
    first, second = (r["per_layer"] for r in reports)
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["crawler.regions_evaluated"] > 0

    spans = _spans(tmp_path / "run0" / name / "spans.csv")
    own = tracing.self_times(spans)
    assert min(own) > -1e-7
    per_op = defaultdict(float)
    for span, self_s in zip(spans, own):
        per_op[span[2]] += self_s
    for span in spans:
        if span[1] < 0:  # an operation's root span
            assert per_op[span[2]] <= span[6] - span[5] + 1e-6


def test_explore_shows_pruning_and_stores_shows_read_amplification(tmp_path):
    explore = run.run_workload("explore", 5, 0, True, tmp_path)["per_layer"]
    assert 0 < explore["crawler.prune_ratio"] < 1
    stores = run.run_workload("stores", 5, 0, True, tmp_path)["per_layer"]
    assert stores["store.chunked_reads_per_view"] > stores["store.rechunked_reads_per_view"] > 0


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "explore", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_and_oracle_helpers():
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile(range(1, 101), 90) == 90
    rows = [{"a": "x", "b": "y", "m": 2}, {"a": "x", "b": "z", "m": 3}]
    cube = oracle.lattice(rows, ["a", "b"], sums=("m",))
    assert cube[()][None] == [5]
    assert cube[(("a", "x"), ("b", "z"))][None] == [3]
