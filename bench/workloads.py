"""The benchmark workloads: seeded inputs, operations and checks.

Each workload writes its inputs (CSVs and JSON run configs) from the seed,
then runs its operations one at a time through the ``cubecrawl`` CLI and
library, always with one crawl worker.  Engine calls go through module
attributes (``cli.main``, ``cc.top_down_crawl``, ...) so the tracer's patches
apply to them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
from pathlib import Path

import cubecrawl as cc
from cubecrawl import cli

import oracle

#: every crawl runs with this many workers
WORKERS = 1
WORKERS_REASON = (
    "--workers defaults to os.cpu_count(); with threads the pruned explore crawl measured "
    "a 2.96 s median with a 47% IQR on 2 cores, against 1.92 s with a 9% IQR at 1 worker, "
    "so the default would measure the scheduler rather than the program"
)

REV = "Revenue"


class OpFailed(Exception):
    """An operation exited nonzero or could not run."""


def need(value):
    if value is None:
        raise OpFailed("an earlier operation of this iteration failed")
    return value


def run_cli(*argv) -> None:
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    if code != 0:
        raise OpFailed(f"cubecrawl {argv[0]} exited with {code}")


# -- input generation ---------------------------------------------------------


def quota_column(rng: random.Random, n_rows: int, n_values: int, skew: float) -> list[str]:
    """Values v00.. with fixed counts (Zipf weights when skew > 0), shuffled.

    The counts per value are the same for every seed; the seed decides which
    rows get which value, so the joint distribution varies while every
    marginal stays put.
    """
    weights = [(k + 1) ** -skew for k in range(n_values)]
    raw = [w * n_rows / sum(weights) for w in weights]
    counts = [int(r) for r in raw]
    by_remainder = sorted(range(n_values), key=lambda k: (counts[k] - raw[k], k))
    for k in by_remainder[:n_rows - sum(counts)]:
        counts[k] += 1
    col = [f"v{k:02d}" for k, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(col)
    return col


def make_rows(rng: random.Random, n_rows: int, dims: dict, **extra) -> list[dict]:
    """Rows with quota dimension columns; ``extra`` maps column -> list of values."""
    cols = {d: quota_column(rng, n_rows, card, skew) for d, (card, skew) in dims.items()}
    cols.update(extra)
    return [{c: values[i] for c, values in cols.items()} for i in range(n_rows)]


def write_csv(path: Path, rows: list[dict], columns) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in rows:
            writer.writerow(["true" if r[c] is True else "false" if r[c] is False else r[c]
                             for c in columns])


def schema(dims, measures, boolean=()) -> dict:
    return {
        "dimensions": [{"name": d, "domain": "boolean" if d in boolean else "string"}
                       for d in dims],
        "measures": [{"name": m, "agg": "sum", "sources": [m]} for m in measures],
    }


def write_config(path: Path, **sections) -> Path:
    path.write_text(json.dumps({"spec_version": 1, **sections}, indent=1), encoding="utf-8")
    return path


def store_signature(path: Path) -> tuple:
    """(file name, sha256) of every file of a store directory, sorted."""
    return tuple(sorted((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                        for p in path.iterdir()))


def store_stats(path: Path) -> tuple[int, int, int]:
    """(bytes on disk, parts written, rows over all parts) of one store."""
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    size = sum(p.stat().st_size for p in path.iterdir())
    return size, len(manifest["parts"]), sum(p["rows"] for p in manifest["parts"])


def read_counters(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["counters"]


class Workload:
    """Shared plumbing: a work directory, a setup config and per-op counters."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        # counters of the latest iteration, per operation
        self.counters: dict[str, dict] = {}
        self.stores: list[Path] = []
        self.cli_outputs: list[Path] = []

    def instrument(self, key: str) -> Path:
        return self.dir / f"{key}.instrument.json"

    def load_input(self) -> None:
        """The timed set-up: load the workload's input CSV into a cube."""
        cli.load_config(self.setup_config).input.load_cube()

    def library_crawl(self, key: str, cube, spec):
        instr = cc.Instrumentation()
        result = cc.top_down_crawl(cube, spec, WORKERS, instr)
        self.counters[key] = instr.counters
        return result

    def cli_crawl(self, key: str, config: Path, *extra) -> None:
        out = self.dir / f"{key}.jsonl"
        run_cli("crawl", "--config", config, "--output", out, "--workers", WORKERS,
                "--instrument", self.instrument(key), *extra)

    def cli_store(self, command: str, key: str, config: Path, out: Path) -> None:
        if out.exists():
            shutil.rmtree(out)
        run_cli(command, "--config", config, "--output", out, "--workers", WORKERS,
                "--instrument", self.instrument(key))

    def crawl_counts(self) -> dict:
        """Crawler counters summed over the latest iteration's crawls."""
        keys = ("regions_evaluated", "regions_emitted", "frames_materialized")
        out = {k: 0 for k in keys}
        for counters in self.counters.values():
            for k in keys:
                out[k] += counters.get(k, 0)
        return out

    def store_counts(self) -> dict:
        size = parts = 0
        for path in self.stores:
            s, p, _ = store_stats(path)
            size += s
            parts += p
        return {"store.bytes": size, "store.parts_written": parts,
                "cli.output_bytes": sum(p.stat().st_size for p in self.cli_outputs)}


# -- explore: one base table, three CLI crawls -------------------------------------


class Explore(Workload):
    """An analyst crawling a 20k-row base table through ``cubecrawl crawl``."""

    name = "explore"
    N_ROWS = 20_000
    DIMS = {"d0": (3, 0.0), "d1": (5, 0.0), "d2": (8, 1.16), "d3": (12, 0.0), "d4": (20, 1.16)}
    THRESHOLD = 5000
    TOP_N = 100
    NAIVE_MAX_DEGREE = 2
    PRIMARY = "crawl"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        n = self.N_ROWS
        is_test = [i % 2 == 0 for i in range(n)]
        rng.shuffle(is_test)
        self.rows = make_rows(rng, n, self.DIMS, is_test=is_test,
                              Revenue=[rng.randint(1, 99) for _ in range(n)],
                              Clicks=[rng.randint(1, 9) for _ in range(n)])
        dims = list(self.DIMS)
        columns = dims + ["is_test", REV, "Clicks"]
        write_csv(self.dir / "explore.csv", self.rows, columns)
        source = {"csv": str(self.dir / "explore.csv"),
                  "schema": schema(dims + ["is_test"], [REV, "Clicks"], boolean=("is_test",))}
        models = [
            {"model": "entity_weight", "params": {"metric": REV}, "gate": True},
            {"model": "diff", "params": {"weight_measure": REV}},
            {"model": "attribution", "params": {"numerator": REV, "denominator": "Clicks"}},
        ]
        crawl = {"models": models, "dimensions": dims,
                 "thresholds": {"total_weight": self.THRESHOLD}}
        self.setup_config = write_config(self.dir / "input.json", input=source)
        self.configs = {
            "crawl": write_config(self.dir / "crawl.json", input=source, crawl=crawl),
            "topn": write_config(self.dir / "topn.json", input=source, crawl={
                "models": models[:1], "dimensions": dims,
                "top_n": {"signal": "total_weight", "n": self.TOP_N}}),
            "naive": write_config(self.dir / "naive.json", input=source,
                                  crawl={**crawl, "max_degree": self.NAIVE_MAX_DEGREE}),
        }
        self.cli_outputs = [self.dir / f"{k}.jsonl" for k in self.configs]

    def iteration(self, run) -> None:
        for key, config in self.configs.items():
            extra = ("--oracle", "naive") if key == "naive" else ()
            run.op(key, lambda: self.cli_crawl(key, config, *extra),
                   collect=lambda _: (self.dir / f"{key}.jsonl").read_bytes())

    def layer_counts(self) -> dict:
        self.counters = {k: read_counters(self.instrument(k)) for k in self.configs}
        return self.store_counts()

    def expectations(self) -> dict:
        cube = oracle.lattice(self.rows, list(self.DIMS), "is_test", (REV, "Clicks"))
        return oracle.explore_expectations(cube, list(self.DIMS), self.THRESHOLD, self.TOP_N)

    def check(self, key: str, value, exp: dict, first: dict) -> list[str]:
        if key == "crawl":
            return oracle.check_records(oracle.parse_jsonl(value), exp["crawl"],
                                        exp["crawl_order"], "pruned crawl")
        if key == "topn":
            return oracle.check_records(oracle.parse_jsonl(value), exp["topn"],
                                        exp["topn_order"], "top-n crawl")
        # the spec is apriori-valid, so the exhaustive crawl must print the
        # pruned crawl's bytes for every region within its degree limit
        if "crawl" not in first:
            return ["no pruned crawl output to compare the naive crawl with"]
        if value != oracle.degree_filtered(first["crawl"], self.NAIVE_MAX_DEGREE):
            return ["naive crawl bytes differ from the pruned crawl's degree<=2 records"]
        return []


# -- compose: a store, a join, and crawls over composed cubes ---------------------


class Compose(Workload):
    """Cubes built from cubes: cellset store, GLOBAL join, crawls over the results."""

    name = "compose"
    N_ROWS = 6_000
    N_DATES = 28
    DIMS = {"d0": (3, 0.0), "d1": (5, 0.0), "d2": (8, 1.16), "d3": (12, 0.0)}
    RIGHT_DIMS = {"d0": (3, 0.0), "d1": (5, 0.0), "r0": (4, 0.0)}
    RIGHT_ROWS = 600
    ON = ("d0", "d1")
    CELLSET_THRESHOLD = 3000
    JOIN_CRAWL_DIMS = ("d0", "d1", "d2", "r0")
    JOIN_THRESHOLD = 4000
    RESULT_THRESHOLD = 12000
    PRIMARY = "cellset_crawl"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        n = self.N_ROWS
        is_test = [i % 2 == 0 for i in range(n)]
        rng.shuffle(is_test)
        self.rows = make_rows(rng, n, self.DIMS, is_test=is_test,
                              date=quota_column(rng, n, self.N_DATES, 0.0),
                              Revenue=[rng.randint(1, 99) for _ in range(n)],
                              Clicks=[rng.randint(1, 9) for _ in range(n)])
        self.right_rows = make_rows(rng, self.RIGHT_ROWS, self.RIGHT_DIMS,
                                    Cost=[rng.randint(1, 30) for _ in range(self.RIGHT_ROWS)])
        dims = list(self.DIMS)
        write_csv(self.dir / "compose.csv", self.rows,
                  dims + ["is_test", "date", REV, "Clicks"])
        write_csv(self.dir / "right.csv", self.right_rows, list(self.RIGHT_DIMS) + ["Cost"])
        source = {"csv": str(self.dir / "compose.csv"),
                  "schema": schema(dims + ["is_test", "date"], [REV, "Clicks"],
                                   boolean=("is_test",))}
        self.right_source = {"csv": str(self.dir / "right.csv"),
                             "schema": schema(list(self.RIGHT_DIMS), ["Cost"])}
        self.cellset_path = self.dir / "cellset.store"
        self.joined_path = self.dir / "joined.store"
        self.stores = [self.cellset_path, self.joined_path]
        self.setup_config = write_config(self.dir / "input.json", input=source)
        self.right_config = write_config(self.dir / "right.json", input=self.right_source)
        self.materialize_config = write_config(self.dir / "materialize.json", materialize={
            "action": "materialize", "source": {"kind": "base_table", **source}, "dims": dims})
        self.join_config = write_config(self.dir / "join.json", join={
            "left": {"kind": "store", "path": str(self.cellset_path)},
            "right": {"kind": "base_table", **self.right_source},
            "on": list(self.ON), "strategy": "global"})

    def _spec(self, models, dims, thresholds):
        return cc.CrawlSpec(models=models, dimensions=list(dims), thresholds=thresholds)

    def iteration(self, run) -> None:
        run.op("materialize", lambda: self.cli_store(
            "materialize", "materialize", self.materialize_config, self.cellset_path),
            collect=lambda _: store_signature(self.cellset_path))
        cellset = run.op("open_cellset", lambda: cc.load_store(self.cellset_path),
                         collect=lambda cube: cube.cells)
        run.op("cellset_crawl", lambda: self.library_crawl(
            "cellset_crawl", need(cellset), self._spec(
                [cc.EntityWeightModel(REV)], self.DIMS, {"total_weight": self.CELLSET_THRESHOLD})),
            collect=oracle.result_records)
        run.op("join", lambda: self.cli_store("join", "join", self.join_config, self.joined_path),
               collect=lambda _: store_signature(self.joined_path))
        joined = run.op("join_build", self._join_global,
                        collect=lambda j: len(j.to_cellset().cells))
        signals = ["left.Revenue", "right.Cost"]
        result = run.op("joined_crawl", lambda: self.library_crawl(
            "joined_crawl", need(joined), self._spec(
                [cc.IdModel(signals, apriori={"left.Revenue": True})], self.JOIN_CRAWL_DIMS,
                {"left.Revenue": self.JOIN_THRESHOLD})),
            collect=oracle.result_records)
        run.op("result_crawl", lambda: self.library_crawl(
            "result_crawl", need(result), self._spec(
                [cc.IdModel(["left.Revenue"], apriori={"left.Revenue": True})],
                self.JOIN_CRAWL_DIMS, {"left.Revenue": self.RESULT_THRESHOLD})),
            collect=oracle.result_records)

    def _join_global(self, strategy: str = "global"):
        left = cc.load_store(self.cellset_path)
        right = cli.load_config(self.right_config).input.load_cube()
        return cc.join_cubes(left, right, cc.JoinSpec(on=self.ON), strategy)

    def layer_counts(self) -> dict:
        out = self.store_counts()
        out["join.cells"] = store_stats(self.joined_path)[2]
        return out

    def expectations(self) -> dict:
        dims = list(self.DIMS)
        right_dims = list(self.RIGHT_DIMS)
        left = oracle.cellset(oracle.lattice(self.rows, dims, sums=(REV, "Clicks")), dims)
        right = oracle.cellset(oracle.lattice(self.right_rows, right_dims, sums=("Cost",)),
                               right_dims)
        joined = oracle.joined_cells(left, dims, right, right_dims, self.ON)
        joined_dims = dims + [d for d in right_dims if d not in self.ON]
        joined_crawl = oracle.crawl_from_cells(
            joined, joined_dims, self.JOIN_CRAWL_DIMS, {"left.Revenue": 0, "right.Cost": 2},
            "left.Revenue", self.JOIN_THRESHOLD)
        return {
            "cellset": left,
            "joined": joined,
            "cellset_crawl": oracle.crawl_from_cells(left, dims, dims, {"total_weight": 0},
                                                     "total_weight", self.CELLSET_THRESHOLD),
            "joined_crawl": joined_crawl,
            "result_crawl": {r: {"left.Revenue": s["left.Revenue"]}
                             for r, s in joined_crawl.items()
                             if s["left.Revenue"] >= self.RESULT_THRESHOLD},
            "lattice_regions": len(left),
        }

    def check(self, key: str, value, exp: dict, first: dict) -> list[str]:
        if key == "materialize":
            return oracle.check_cells(cc.load_store(self.cellset_path).cells, exp["cellset"],
                                      (REV, "Clicks"), "materialized store")
        if key == "open_cellset":
            return oracle.check_cells(value, exp["cellset"], (REV, "Clicks"), "loaded cellset")
        if key == "join":
            return oracle.check_cells(cc.load_store(self.joined_path).cells, exp["joined"],
                                      ("left.Revenue", "left.Clicks", "right.Cost"),
                                      "joined store")
        if key == "join_build":
            if value != len(exp["joined"]):
                return [f"GLOBAL join built {value} cells, expected {len(exp['joined'])}"]
            return self._check_local_join()
        return oracle.check_records(value, exp[key], None, key)

    def _check_local_join(self, samples: int = 40) -> list[str]:
        """GLOBAL and LOCAL joins must answer sampled views identically."""
        glob, local = self._join_global("global"), self._join_global("local")
        rng = random.Random(f"join-sample:{self.seed}")
        dims = list(glob.schema.dimension_names)
        measures = ("left.Revenue", "right.Cost")
        problems = []
        for _ in range(samples):
            bound = rng.sample(dims, rng.randint(0, 2))
            region = {}
            for d in bound:
                values = glob.region_values(cc.Region(region), d)
                if values:
                    region[d] = rng.choice(values)
            free = [d for d in dims if d not in region]
            request = cc.FeatureRequest(tuple(rng.sample(free, rng.randint(0, 1))), measures)
            if glob.view(cc.Region(region), request) != local.view(cc.Region(region), request):
                problems.append(f"GLOBAL and LOCAL views differ at {region} {request}")
        return problems


# -- timeseries: chunked and re-chunked stores, window reads, outlier crawl ---------


class Timeseries(Workload):
    """Date-partitioned stores: writes, then 7-date window reads on both layouts."""

    name = "timeseries"
    N_ROWS = 6_000
    N_DATES = 28
    DIMS = {"d0": (3, 0.0), "d1": (5, 0.0), "d2": (8, 1.16)}
    WINDOW = 7
    WINDOWS_PER_STORE = 150
    OUTLIER_DIMS = ("d0", "d1", "d2")
    MIN_SHARE = 0.1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        n = self.N_ROWS
        self.dates = [f"2024-02-{k + 1:02d}" for k in range(self.N_DATES)]
        dates = [self.dates[int(v[1:])] for v in quota_column(rng, n, self.N_DATES, 0.0)]
        self.rows = make_rows(rng, n, self.DIMS, date=dates,
                              Revenue=[rng.randint(1, 99) for _ in range(n)])
        dims = list(self.DIMS)
        write_csv(self.dir / "timeseries.csv", self.rows, dims + ["date", REV])
        source = {"csv": str(self.dir / "timeseries.csv"),
                  "schema": schema(dims + ["date"], [REV])}
        self.chunked_path = self.dir / "chunked.store"
        self.rechunked_path = self.dir / "rechunked.store"
        self.stores = [self.chunked_path, self.rechunked_path]
        self.setup_config = write_config(self.dir / "input.json", input=source)
        self.chunk_config = write_config(self.dir / "chunk.json", materialize={
            "action": "chunk", "source": {"kind": "base_table", **source},
            "partition_dim": "date", "dims": dims})
        self.rechunk_config = write_config(self.dir / "rechunk.json", materialize={
            "action": "rechunk", "source": {"kind": "store", "path": str(self.chunked_path)}})
        self.windows = self._sample_windows()
        self.window_stores: dict[str, object] = {}
        self._live_cube = None

    def _sample_windows(self) -> list[tuple[dict, tuple]]:
        """Seeded (region of degree 0-2, 7-date range) pairs over observed values."""
        rng = random.Random(f"windows:{self.seed}")
        observed = {d: sorted({r[d] for r in self.rows}) for d in self.DIMS}
        out = []
        for _ in range(self.WINDOWS_PER_STORE):
            dims = rng.sample(sorted(self.DIMS), rng.randint(0, 2))
            region = {d: rng.choice(observed[d]) for d in dims}
            start = rng.randint(0, self.N_DATES - self.WINDOW)
            out.append((region, (self.dates[start], self.dates[start + self.WINDOW - 1])))
        return out

    def iteration(self, run) -> None:
        run.op("chunk", lambda: self.cli_store("materialize", "chunk", self.chunk_config,
                                               self.chunked_path),
               collect=lambda _: store_signature(self.chunked_path))
        run.op("rechunk", lambda: self.cli_store("materialize", "rechunk", self.rechunk_config,
                                                 self.rechunked_path),
               collect=lambda _: store_signature(self.rechunked_path))
        request = cc.FeatureRequest(("date",), (REV,))
        for layout, path in (("chunked", self.chunked_path), ("rechunked", self.rechunked_path)):
            store = run.op(f"open_{layout}", lambda: cc.load_store(path),
                           collect=lambda s: type(s).__name__)
            self.window_stores[layout] = store
            for i, (bindings, window) in enumerate(self.windows):
                run.op(f"window_{layout}#{i}", lambda: need(store).view(
                    cc.Region(bindings), request, partition_range=window),
                    collect=lambda frame: tuple(frame.iter_rows()))
        spec = cc.CrawlSpec(
            models=[cc.WindowOutlierModel("date", REV, self.WINDOW)],
            dimensions=list(self.OUTLIER_DIMS), thresholds={"region_share": self.MIN_SHARE})
        run.op("outlier_crawl", lambda: self._outlier_crawl(spec), collect=oracle.result_records)

    def _outlier_crawl(self, spec):
        store = cc.load_store(self.chunked_path)
        result = self.library_crawl("outlier_crawl", store, spec)
        self.counters["outlier_crawl"]["chunk_reads"] = store.counters["chunk_reads"]
        return result

    def layer_counts(self) -> dict:
        out = self.store_counts()
        rechunk = read_counters(self.instrument("rechunk"))
        window_reads = {"chunked": self.window_stores["chunked"].counters["chunk_reads"],
                        "rechunked": self.window_stores["rechunked"].counters["slice_reads"]}
        out["store.chunk_reads"] = (rechunk.get("chunk_reads", 0) + window_reads["chunked"]
                                    + self.counters["outlier_crawl"]["chunk_reads"])
        out["store.slice_reads"] = rechunk.get("slice_reads", 0) + window_reads["rechunked"]
        # physical reads per logical window view, per layout
        for layout, reads in window_reads.items():
            out[f"store.{layout}_reads_per_view"] = reads / len(self.windows)
        return out

    def expectations(self) -> dict:
        dims = list(self.DIMS)
        cube = oracle.lattice(self.rows, dims, "date", (REV,))
        outlier_cube = oracle.lattice(self.rows, list(self.OUTLIER_DIMS), "date", (REV,))
        windows = []
        for bindings, (lo, hi) in self.windows:
            dates = [d for d in self.dates if lo <= d <= hi]
            windows.append(oracle.window_frame(cube, tuple(sorted(bindings.items())), dates))
        return {
            "windows": windows,
            "outlier_crawl": oracle.outlier_expectations(outlier_cube, self.dates, self.WINDOW,
                                                         self.MIN_SHARE),
        }

    def check(self, key: str, value, exp: dict, first: dict) -> list[str]:
        if key.startswith("window_"):
            i = int(key.split("#")[1])
            bindings, (lo, hi) = self.windows[i]
            if list(value) != exp["windows"][i]:
                return [f"{key}: window view differs from the brute-force group-by"]
            live = self._live().view(cc.Region(bindings), cc.FeatureRequest(("date",), (REV,)))
            if list(value) != [row for row in live.iter_rows() if lo <= row[0][0] <= hi]:
                return [f"{key}: window view differs from the live base-table cube"]
            return []
        if key == "outlier_crawl":
            return oracle.check_records(value, exp["outlier_crawl"], None, "outlier crawl")
        # the stores are checked through the window views and the crawl they serve
        return []

    def _live(self):
        if self._live_cube is None:
            self._live_cube = cli.load_config(self.setup_config).input.load_cube()
        return self._live_cube


# -- stores: compose and timeseries, one after the other in each iteration ----------


class Stores(Workload):
    """Every store, join and cellset operation: a compose iteration, then a timeseries one.

    The two run as one workload so that each benchmark run lasts long enough
    to average over the machine's slow and fast spells; each keeps its own
    inputs, directory and checks.
    """

    name = "stores"
    PRIMARY = Compose.PRIMARY

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.parts = []
        for cls in (Compose, Timeseries):
            (workdir / cls.name).mkdir()
            self.parts.append(cls(seed, workdir / cls.name))
        self.stores = [path for part in self.parts for path in part.stores]
        self.owner: dict[str, Workload] = {}

    def load_input(self) -> None:
        for part in self.parts:
            part.load_input()

    def iteration(self, run) -> None:
        for part in self.parts:
            n_before = len(run.records)
            part.iteration(run)
            self.owner.update((record[1], part) for record in run.records[n_before:])

    def layer_counts(self) -> dict:
        out: dict = {}
        for part in self.parts:
            for key, value in part.layer_counts().items():
                out[key] = out.get(key, 0) + value
            self.counters.update(part.counters)
        return out

    def expectations(self) -> dict:
        exp = {part.name: part.expectations() for part in self.parts}
        exp["lattice_regions"] = exp[Compose.name]["lattice_regions"]  # of PRIMARY's cube
        return exp

    def check(self, key: str, value, exp: dict, first: dict) -> list[str]:
        part = self.owner[key]
        return part.check(key, value, exp[part.name], first)


WORKLOADS = {w.name: w for w in (Explore, Stores)}
