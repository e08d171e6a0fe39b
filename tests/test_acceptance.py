"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import csv
import json
import random
import subprocess
import sys
import time

import pytest

from cubecrawl import (
    EMPTY_REGION,
    BaseTableGroupByCube,
    CrawlSpec,
    Dimension,
    DimensionSchema,
    EntityWeightModel,
    FeatureRequest,
    Instrumentation,
    JoinSpec,
    Measure,
    Region,
    SegmentedMetrics,
    Table,
    attribute_density,
    chunk_by_partition,
    density_model,
    density_ras,
    density_ras_degenerate,
    exhaustive_top_n,
    fd_holds,
    frequent_itemsets,
    join_cubes,
    load_cellset,
    materialize,
    naive_crawl,
    numeric_path_ras,
    rechunk,
    summable_ras,
    top_down_crawl,
    topn_crawl,
)

import oracles
from test_attribution import random_density_metrics
from test_cli import fim_config, t1_crawl_config


def _report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def _acceptance_table(rng: random.Random):
    """Random table within the stated caps: <=6 dims, <=8 values, <=2000 rows."""
    n_dims = rng.randint(2, 6)
    n_values = rng.randint(2, 8)
    n_rows = rng.choice([rng.randint(20, 200), rng.randint(200, 800),
                         rng.randint(800, 2000)])
    dims = tuple(Dimension(f"d{i}") for i in range(n_dims))
    columns = {d.name: [f"v{rng.randint(0, n_values - 1)}" for _ in range(n_rows)]
               for d in dims}
    columns["m0"] = [rng.randint(0, 20) for _ in range(n_rows)]
    schema = DimensionSchema(dims, (Measure.sum("m0"),))
    return Table(columns), schema


def test_criterion_1_crawl_oracle_equivalence():
    rng = random.Random(101)
    failures = []
    start = time.monotonic()
    for case in range(50):
        table, schema = _acceptance_table(rng)
        dims = list(schema.dimension_names)
        if len(dims) <= 4:
            grouping_sets = None  # all subsets
        else:
            pool = [rng.sample(dims, rng.randint(1, len(dims))) for _ in range(12)]
            grouping_sets = [[]] + pool
        spec = CrawlSpec(
            models=[EntityWeightModel("m0")],
            dimensions=dims,
            grouping_sets=grouping_sets,
            thresholds={"total_weight": float(rng.randint(0, 60))},
            exploration=rng.choice(["bfs", "dfs"]),
            batch_size=rng.choice([8, 64]),
        )
        cube = BaseTableGroupByCube(table, schema)
        pruned = top_down_crawl(cube, spec)
        exhaustive = naive_crawl(cube, spec)
        if pruned.entries != exhaustive.entries:
            failures.append(case)
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"suite took {elapsed:.1f}s (budget 60s)")
    _report(1, "crawl oracle equivalence", failures)


def test_criterion_2_apriori_pruning_effectiveness():
    failures = []
    # fixture at min_support 3: item C (support 2) fails
    fixture = [{"A", "B", "C"}, {"A", "B"}, {"A", "C"}, {"B"}]
    pruned, exhaustive = Instrumentation(), Instrumentation()
    frequent_itemsets(fixture, 3, instrumentation=pruned)
    frequent_itemsets(fixture, 3, mode="naive", instrumentation=exhaustive)
    if not pruned.get("regions_evaluated") < exhaustive.get("regions_evaluated"):
        failures.append("fixture")
    rng = random.Random(103)
    done = 0
    while done < 20:
        txns = [set(rng.sample("abcdefgh", rng.randint(2, 5)))
                for _ in range(rng.randint(6, 50))]
        supports = {i: sum(1 for t in txns if i in t) for t in txns for i in t}
        if len(set(supports.values())) < 2:
            continue
        # choose min_support so that at least one degree-1 itemset fails
        min_support = max(2, min(supports.values()) + 1)
        if not any(s < min_support for s in supports.values()):
            continue
        if all(s < min_support for s in supports.values()):
            continue
        instr_p, instr_n = Instrumentation(), Instrumentation()
        got = frequent_itemsets(txns, min_support, instrumentation=instr_p)
        want = frequent_itemsets(txns, min_support, mode="naive", instrumentation=instr_n)
        if got != want:
            failures.append(f"case {done}: outputs differ")
        if not instr_p.get("regions_evaluated") < instr_n.get("regions_evaluated"):
            failures.append(
                f"case {done}: pruned {instr_p.get('regions_evaluated')} "
                f">= naive {instr_n.get('regions_evaluated')}")
        done += 1
    _report(2, "apriori pruning effectiveness", failures)


def test_criterion_3_attribution_completeness():
    rng = random.Random(107)
    failures = []
    for case in range(1000):
        degenerate = case % 2 == 1
        blocks, _ = random_density_metrics(rng, degenerate=degenerate)
        total = sum(attribute_density(b).ras for b in blocks)
        c_rho = blocks[0].population_density_change()
        if abs(total - c_rho) > 1e-9:
            failures.append((case, abs(total - c_rho)))
    for case in range(1000):
        blocks, _ = random_density_metrics(rng)
        total = sum(summable_ras(b).ras for b in blocks)
        delta = blocks[0].population_delta()
        if abs(total - delta) > 1e-12:
            failures.append(("summable", case, abs(total - delta)))
    _report(3, "attribution completeness", failures)


def test_criterion_4_attribution_additivity():
    rng = random.Random(109)
    failures = []
    for case in range(1000):
        degenerate = case % 3 == 0
        (beta, gamma, *_), _ = random_density_metrics(rng, degenerate=degenerate, k_hint=3)
        union = beta.union(gamma)
        err = abs(attribute_density(union).ras
                  - attribute_density(beta).ras - attribute_density(gamma).ras)
        if err > 1e-9:
            failures.append((case, err))
    _report(4, "attribution additivity", failures)


def test_criterion_5_closed_form_vs_quadrature():
    rng = random.Random(113)
    failures = []
    done = 0
    while done < 1000:
        (m, *_), _ = random_density_metrics(rng, k_hint=2)
        closed = density_ras(m)
        if abs(closed.ras) < 1e-6:
            continue  # relative error is meaningless at a zero crossing
        numeric = numeric_path_ras(density_model(m), coords=(0, 1))
        rel = abs(closed.ras - numeric.ras) / abs(closed.ras)
        if rel > 1e-9:
            failures.append((done, rel))
        done += 1
    # degenerate continuity: shrinking epsilon brings the closed form to the
    # degenerate value, within 1e-3 relative at epsilon = 1e-8
    for case in range(100):
        (m0, *_), _ = random_density_metrics(rng, degenerate=True, k_hint=2)
        base = density_ras_degenerate(m0).ras
        diffs = []
        for eps in (1e-4, 1e-6, 1e-8):
            m_eps = SegmentedMetrics(
                w_r_c=m0.w_r_c, w_r_t=m0.w_r_t, s_r_c=m0.s_r_c, s_r_t=m0.s_r_t,
                w_p_c=m0.w_p_c, w_p_t=m0.w_p_t,
                s_p_c=m0.s_p_c, s_p_t=m0.s_p_c * (1 + eps))
            diffs.append(abs(density_ras(m_eps).ras - base))
        if not (diffs[0] >= diffs[1] >= diffs[2] - 1e-15):
            failures.append(("continuity-monotone", case, diffs))
        if abs(base) > 1e-9 and diffs[2] > 1e-3 * abs(base):
            failures.append(("continuity-limit", case, diffs[2], base))
    _report(5, "closed form vs quadrature", failures)


def test_criterion_6_fim_exactness():
    rng = random.Random(127)
    failures = []
    for case in range(20):
        n_items = rng.randint(3, 8)
        items = [chr(ord("a") + i) for i in range(n_items)]
        txns = [set(rng.sample(items, rng.randint(1, n_items)))
                for _ in range(rng.randint(4, 50))]
        min_support = rng.randint(2, 6)
        got = frequent_itemsets(txns, min_support)
        want = oracles.apriori_itemsets(txns, min_support)
        if got != want:
            failures.append(case)
    _report(6, "frequent itemset exactness", failures)


def test_criterion_7_fd_verification():
    rng = random.Random(131)
    failures = []
    for case in range(50):
        n = rng.randint(3, 40)
        plant_fd = rng.random() < 0.5
        rows = []
        mapping = {}
        for _ in range(n):
            key = (rng.randint(0, 4), rng.randint(0, 2))
            if plant_fd:
                value = mapping.setdefault(key, (rng.choice("pqr"), rng.randint(0, 3)))
            else:
                value = (rng.choice("pqr"), rng.randint(0, 3))
            rows.append({"X": key[0], "Y": key[1], "Z": value[0], "W": value[1]})
        table = Table.from_rows(["X", "Y", "Z", "W"],
                                [(r["X"], r["Y"], r["Z"], r["W"]) for r in rows])
        expected = oracles.fd_check(rows, ("X", "Y"), ("Z", "W"))
        verdicts = [fd_holds(table, ("X", "Y"), ("Z", "W"), approach=a) for a in (1, 2, 3)]
        if verdicts != [expected] * 3:
            failures.append((case, verdicts, expected))
    _report(7, "functional dependency verification", failures)


def test_criterion_8_topn_exactness():
    rng = random.Random(137)
    failures = []
    for case in range(100):
        table, schema = _acceptance_table(rng)
        cube = BaseTableGroupByCube(table, schema)
        base = CrawlSpec(models=[EntityWeightModel("m0")])
        exhaustive = naive_crawl(cube, base)
        for n in (1, 3, 10):
            spec = CrawlSpec(models=[EntityWeightModel("m0")],
                             top_n=("total_weight", n),
                             exploration=rng.choice(["bfs", "dfs"]),
                             batch_size=rng.choice([4, 64]))
            got = topn_crawl(cube, spec)
            want = exhaustive_top_n(exhaustive, "total_weight", n)
            if list(got.entries.items()) != list(want.entries.items()):
                failures.append((case, n))
    _report(8, "top-n exactness", failures)


def test_criterion_9_join_strategy_equivalence():
    rng = random.Random(139)
    failures = []
    for case in range(50):
        def side(extra, measure):
            cols = {"j0": [], "j1": [], extra: [], measure: []}
            for _ in range(rng.randint(4, 60)):
                cols["j0"].append(f"v{rng.randint(0, 3)}")
                cols["j1"].append(f"w{rng.randint(0, 2)}")
                cols[extra].append(f"e{rng.randint(0, 2)}")
                cols[measure].append(rng.randint(0, 9))
            schema = DimensionSchema(
                (Dimension("j0"), Dimension("j1"), Dimension(extra)),
                (Measure.sum(measure),))
            rows = [dict(zip(cols, r)) for r in zip(*cols.values())]
            return BaseTableGroupByCube(Table(cols), schema), rows

        (left, left_rows), (right, right_rows) = side("la", "ml"), side("rb", "mr")
        kind = rng.choice(["inner", "left"])
        spec = JoinSpec(on=("j0", "j1"), kind=kind)
        local = join_cubes(left, right, spec, "local")
        glob = join_cubes(left, right, spec, "global")
        dims = local.schema.dimension_names
        for _ in range(10):
            bound = rng.sample(dims, rng.randint(0, 2))
            region = Region({d: (f"v{rng.randint(0, 3)}" if d == "j0" else
                                 f"w{rng.randint(0, 2)}" if d == "j1" else
                                 f"e{rng.randint(0, 2)}") for d in bound})
            free = [d for d in dims if d not in bound]
            attrs = tuple(rng.sample(free, rng.randint(0, len(free))))
            request = FeatureRequest(attrs, ("left.ml", "right.mr"))
            want = oracles.join_view(left_rows, right_rows, spec.on, region.bindings(), attrs,
                                     ("ml",), ("mr",), kind)
            got = local.view(region, request)
            if got != glob.view(region, request) or dict(got.iter_rows()) != want:
                failures.append((case, region, attrs, kind))
    _report(9, "join strategy equivalence", failures)


def test_criterion_10_encoding_invariance(tmp_path):
    rng = random.Random(149)
    failures = []
    for case in range(10):
        n_days = rng.randint(3, 9)
        devices = [f"dev{i}" for i in range(rng.randint(1, 4))]
        rows = []
        for device in devices:
            for i in range(n_days):
                if rng.random() < 0.9:
                    rows.append((device, f"d{i:02d}", rng.randint(1, 30)))
        table = Table.from_rows(["Device", "date", "Revenue"], rows)
        schema = DimensionSchema((Dimension("Device"), Dimension("date")),
                                 (Measure.sum("Revenue"),))
        cube = BaseTableGroupByCube(table, schema)
        base = tmp_path / f"case{case}"
        materialize(cube, ["Device", "date"], base / "flat")
        flat = load_cellset(base / "flat")
        chunked = chunk_by_partition(cube, "date", ["Device"], base / "chunks")
        sliced = rechunk(chunked, base / "slices")
        dates = chunked.partition_values()
        for _ in range(6):
            bindings = {}
            if rng.random() < 0.7:
                bindings["Device"] = rng.choice(devices)
            if rng.random() < 0.3 and dates:
                bindings["date"] = rng.choice(dates)
            region = Region(bindings)
            attrs = () if "date" in bindings else ("date",)
            request = FeatureRequest(attrs, ("Revenue",))
            live = cube.view(region, request)
            for encoding, other in (("flat", flat), ("chunked", chunked),
                                    ("rechunked", sliced)):
                if other.view(region, request) != live:
                    failures.append((case, encoding, region))
        # windowed reads: rechunked never reads more parts than chunked
        if len(dates) >= 3:
            window = (dates[0], dates[2])
            region = Region({"Device": rng.choice(devices)})
            request = FeatureRequest(("date",), ("Revenue",))
            c0 = chunked.counters["chunk_reads"]
            chunked.view(region, request, partition_range=window)
            s0 = sliced.counters["slice_reads"]
            sliced.view(region, request, partition_range=window)
            if (sliced.counters["slice_reads"] - s0) > (chunked.counters["chunk_reads"] - c0):
                failures.append((case, "read amplification"))
    _report(10, "encoding invariance", failures)


def test_criterion_11_worker_determinism(tmp_path):
    failures = []
    fixture_configs = []
    t1_dir = tmp_path / "t1"
    t1_dir.mkdir()
    fixture_configs.append(("t1-threshold", t1_crawl_config(t1_dir)))
    fim_dir = tmp_path / "fim"
    fim_dir.mkdir()
    fixture_configs.append(("fim", fim_config(fim_dir)))
    topn_dir = tmp_path / "topn"
    topn_dir.mkdir()
    fixture_configs.append(
        ("t1-topn", t1_crawl_config(topn_dir, thresholds={},
                                    top_n={"signal": "total_weight", "n": 4})))
    for name, config_path in fixture_configs:
        for fmt in ("jsonl", "csv"):
            outputs = []
            for workers in (1, 2, 8):
                out = tmp_path / f"{name}-{fmt}-w{workers}.out"
                proc = subprocess.run(
                    [sys.executable, "-m", "cubecrawl", "crawl",
                     "--config", str(config_path), "--output", str(out),
                     "--format", fmt, "--workers", str(workers)],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    failures.append((name, fmt, workers, proc.stderr))
                    continue
                outputs.append(out.read_bytes())
            if len(set(outputs)) != 1:
                failures.append((name, fmt, "outputs differ"))
    _report(11, "worker determinism", failures)
