"""Command-line surface: declarative crawl, attribute, join, and materialize runs.

A run is described by a JSON config (strictly validated, versioned via
``spec_version``) plus a handful of flags.  Results are emitted as JSON lines
(lossless) or CSV, with regions flattened to ``dim=value`` pairs joined by
``;``.  Exit codes: 0 success, 2 config/spec errors, 3 I/O errors, 4 engine
errors, 5 safety-cap refusals.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import store as store_mod
from .attribution import SegmentedMetrics, attribute_density, summable_ras
from .core import (
    NULL,
    BaseTableGroupByCube,
    CellsetCube,
    DimensionSchema,
    Region,
    Table,
    format_value,
    schema_from_dict,
    schema_to_dict,
)
from .crawler import (
    CrawlSpec,
    Instrumentation,
    ResultCube,
    naive_crawl,
    top_down_crawl,
)
from .errors import (
    ConfigError,
    CubeError,
    DomainError,
    RefusalError,
    RequestError,
    SchemaError,
    SpecError,
    StoreError,
)
from .join import JoinSpec, join_cubes
from .models import build_model

SPEC_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ENGINE = 4
EXIT_REFUSED = 5


def _expect(mapping: Mapping, where: str, allowed: Sequence[str], required: Sequence[str] = ()):
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


@dataclass
class InputConfig:
    csv: str
    schema: DimensionSchema
    constants: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping, where: str) -> "InputConfig":
        _expect(data, where, ("csv", "schema", "constants"), ("csv", "schema"))
        try:
            schema = schema_from_dict(data["schema"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{where}.schema: malformed ({exc})") from None
        return cls(csv=data["csv"], schema=schema, constants=dict(data.get("constants", {})))

    def to_dict(self) -> dict:
        out = {"csv": self.csv, "schema": schema_to_dict(self.schema)}
        if self.constants:
            out["constants"] = dict(self.constants)
        return out

    def load_cube(self) -> BaseTableGroupByCube:
        table = Table.from_csv(self.csv, self.schema, self.constants)
        return BaseTableGroupByCube(table, self.schema)


@dataclass
class ModelConfig:
    kind: str
    params: dict = field(default_factory=dict)
    gate: bool = False
    pushdown: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: Mapping, where: str) -> "ModelConfig":
        _expect(data, where, ("model", "params", "gate", "pushdown"), ("model",))
        pushdown = data.get("pushdown", [])
        for term in pushdown:
            if not (isinstance(term, (list, tuple)) and len(term) == 3):
                raise ConfigError(f"{where}.pushdown: each term is [measure, comparator, value]")
        return cls(kind=data["model"], params=dict(data.get("params", {})),
                   gate=bool(data.get("gate", False)),
                   pushdown=[list(t) for t in pushdown])

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"model": self.kind}
        if self.params:
            out["params"] = dict(self.params)
        if self.gate:
            out["gate"] = True
        if self.pushdown:
            out["pushdown"] = [list(t) for t in self.pushdown]
        return out

    def build(self):
        return build_model(self.kind, self.params, gate=self.gate,
                           pushdown=[tuple(t) for t in self.pushdown])


_CRAWL_KEYS = ("models", "dimensions", "grouping_sets", "thresholds", "top_n", "exploration",
               "dimension_order", "hierarchies", "max_degree", "dimension_values",
               "batch_size", "mode")


@dataclass
class CrawlConfig:
    models: list
    dimensions: list | None = None
    grouping_sets: list | None = None
    thresholds: dict = field(default_factory=dict)
    top_n: tuple | None = None
    exploration: str = "bfs"
    dimension_order: Any = "ascending_cardinality"
    hierarchies: list | None = None
    max_degree: int | None = None
    dimension_values: dict | None = None
    batch_size: int = 64
    mode: str = "pruned"

    @classmethod
    def from_dict(cls, data: Mapping, where: str) -> "CrawlConfig":
        _expect(data, where, _CRAWL_KEYS, ("models",))
        models = [ModelConfig.from_dict(m, f"{where}.models[{i}]")
                  for i, m in enumerate(data["models"])]
        top_n = None
        if data.get("top_n") is not None:
            _expect(data["top_n"], f"{where}.top_n", ("signal", "n"), ("signal", "n"))
            top_n = (data["top_n"]["signal"], int(data["top_n"]["n"]))
        mode = data.get("mode", "pruned")
        if mode not in ("pruned", "naive"):
            raise ConfigError(f"{where}.mode: must be 'pruned' or 'naive'")
        return cls(
            models=models,
            dimensions=list(data["dimensions"]) if data.get("dimensions") is not None else None,
            grouping_sets=[list(g) for g in data["grouping_sets"]]
            if data.get("grouping_sets") is not None else None,
            thresholds=dict(data.get("thresholds", {})),
            top_n=top_n,
            exploration=data.get("exploration", "bfs"),
            dimension_order=data.get("dimension_order", "ascending_cardinality"),
            hierarchies=[list(h) for h in data["hierarchies"]]
            if data.get("hierarchies") is not None else None,
            max_degree=data.get("max_degree"),
            dimension_values={k: list(v) for k, v in data["dimension_values"].items()}
            if data.get("dimension_values") is not None else None,
            batch_size=int(data.get("batch_size", 64)),
            mode=mode,
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"models": [m.to_dict() for m in self.models]}
        if self.dimensions is not None:
            out["dimensions"] = list(self.dimensions)
        if self.grouping_sets is not None:
            out["grouping_sets"] = [list(g) for g in self.grouping_sets]
        if self.thresholds:
            out["thresholds"] = dict(self.thresholds)
        if self.top_n is not None:
            out["top_n"] = {"signal": self.top_n[0], "n": self.top_n[1]}
        if self.exploration != "bfs":
            out["exploration"] = self.exploration
        if self.dimension_order != "ascending_cardinality":
            out["dimension_order"] = list(self.dimension_order)
        if self.hierarchies is not None:
            out["hierarchies"] = [list(h) for h in self.hierarchies]
        if self.max_degree is not None:
            out["max_degree"] = self.max_degree
        if self.dimension_values is not None:
            out["dimension_values"] = {k: list(v) for k, v in self.dimension_values.items()}
        if self.batch_size != 64:
            out["batch_size"] = self.batch_size
        if self.mode != "pruned":
            out["mode"] = self.mode
        return out

    def build_spec(self) -> CrawlSpec:
        return CrawlSpec(
            models=[m.build() for m in self.models],
            dimensions=self.dimensions,
            grouping_sets=self.grouping_sets,
            thresholds=self.thresholds,
            top_n=self.top_n,
            exploration=self.exploration,
            dimension_order=self.dimension_order,
            hierarchies=self.hierarchies,
            max_degree=self.max_degree,
            dimension_values=self.dimension_values,
            batch_size=self.batch_size,
        )


_ATTR_COLUMNS = ("region", "w_control", "w_test", "s_control", "s_test")


@dataclass
class AttributeConfig:
    metrics_csv: str
    kind: str = "density"
    columns: dict = field(default_factory=dict)
    population: dict | None = None

    @classmethod
    def from_dict(cls, data: Mapping, where: str) -> "AttributeConfig":
        _expect(data, where, ("metrics_csv", "kind", "columns", "population"), ("metrics_csv",))
        kind = data.get("kind", "density")
        if kind not in ("density", "summable"):
            raise ConfigError(f"{where}.kind: must be 'density' or 'summable'")
        columns = dict(data.get("columns", {}))
        _expect(columns, f"{where}.columns", _ATTR_COLUMNS)
        population = data.get("population")
        if population is not None:
            _expect(population, f"{where}.population",
                    ("w_control", "w_test", "s_control", "s_test"), ("w_control", "w_test"))
            population = {k: float(v) for k, v in population.items()}
        return cls(metrics_csv=data["metrics_csv"], kind=kind, columns=columns,
                   population=population)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"metrics_csv": self.metrics_csv}
        if self.kind != "density":
            out["kind"] = self.kind
        if self.columns:
            out["columns"] = dict(self.columns)
        if self.population is not None:
            out["population"] = dict(self.population)
        return out

    def column(self, role: str) -> str:
        return self.columns.get(role, role)


@dataclass
class SourceConfig:
    kind: str
    csv: str | None = None
    schema: DimensionSchema | None = None
    constants: dict = field(default_factory=dict)
    path: str | None = None
    dimensions: list | None = None
    signals: list | None = None

    @classmethod
    def from_dict(cls, data: Mapping, where: str) -> "SourceConfig":
        _expect(data, where, ("kind", "csv", "schema", "constants", "path", "dimensions", "signals"),
                ("kind",))
        kind = data["kind"]
        if kind == "base_table":
            _expect(data, where, ("kind", "csv", "schema", "constants"), ("kind", "csv", "schema"))
            return cls(kind=kind, csv=data["csv"], schema=schema_from_dict(data["schema"]),
                       constants=dict(data.get("constants", {})))
        if kind == "store":
            _expect(data, where, ("kind", "path"), ("kind", "path"))
            return cls(kind=kind, path=data["path"])
        if kind == "result_csv":
            _expect(data, where, ("kind", "path", "dimensions", "signals"),
                    ("kind", "path", "dimensions", "signals"))
            dims = [dict(d) for d in data["dimensions"]]
            return cls(kind=kind, path=data["path"], dimensions=dims,
                       signals=list(data["signals"]))
        raise ConfigError(f"{where}.kind: unknown source kind {kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "base_table":
            out: dict[str, Any] = {"kind": self.kind, "csv": self.csv,
                                   "schema": schema_to_dict(self.schema)}
            if self.constants:
                out["constants"] = dict(self.constants)
            return out
        if self.kind == "store":
            return {"kind": self.kind, "path": self.path}
        return {"kind": self.kind, "path": self.path,
                "dimensions": [dict(d) for d in self.dimensions],
                "signals": list(self.signals)}

    def load_cube(self):
        if self.kind == "base_table":
            table = Table.from_csv(self.csv, self.schema, self.constants)
            return BaseTableGroupByCube(table, self.schema)
        if self.kind == "store":
            return store_mod.load_store(self.path)
        return _load_result_csv(self.path, self.dimensions, self.signals)


@dataclass
class JoinConfig:
    left: SourceConfig
    right: SourceConfig
    on: list
    left_prefix: str = "left"
    right_prefix: str = "right"
    kind: str = "inner"
    strategy: str = "global"

    @classmethod
    def from_dict(cls, data: Mapping, where: str) -> "JoinConfig":
        _expect(data, where,
                ("left", "right", "on", "left_prefix", "right_prefix", "kind", "strategy"),
                ("left", "right", "on"))
        return cls(
            left=SourceConfig.from_dict(data["left"], f"{where}.left"),
            right=SourceConfig.from_dict(data["right"], f"{where}.right"),
            on=list(data["on"]),
            left_prefix=data.get("left_prefix", "left"),
            right_prefix=data.get("right_prefix", "right"),
            kind=data.get("kind", "inner"),
            strategy=data.get("strategy", "global"),
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"left": self.left.to_dict(), "right": self.right.to_dict(),
                               "on": list(self.on)}
        if self.left_prefix != "left":
            out["left_prefix"] = self.left_prefix
        if self.right_prefix != "right":
            out["right_prefix"] = self.right_prefix
        if self.kind != "inner":
            out["kind"] = self.kind
        if self.strategy != "global":
            out["strategy"] = self.strategy
        return out


@dataclass
class MaterializeConfig:
    action: str
    source: SourceConfig
    dims: list | None = None
    partition_dim: str | None = None

    @classmethod
    def from_dict(cls, data: Mapping, where: str) -> "MaterializeConfig":
        _expect(data, where, ("action", "source", "dims", "partition_dim"), ("action", "source"))
        action = data["action"]
        if action not in ("materialize", "chunk", "rechunk"):
            raise ConfigError(f"{where}.action: unknown action {action!r}")
        return cls(action=action,
                   source=SourceConfig.from_dict(data["source"], f"{where}.source"),
                   dims=list(data["dims"]) if data.get("dims") is not None else None,
                   partition_dim=data.get("partition_dim"))

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"action": self.action, "source": self.source.to_dict()}
        if self.dims is not None:
            out["dims"] = list(self.dims)
        if self.partition_dim is not None:
            out["partition_dim"] = self.partition_dim
        return out


@dataclass
class RunConfig:
    spec_version: int = SPEC_VERSION
    input: InputConfig | None = None
    crawl: CrawlConfig | None = None
    attribute: AttributeConfig | None = None
    join: JoinConfig | None = None
    materialize: MaterializeConfig | None = None

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        _expect(data, "config", ("spec_version", "input", "crawl", "attribute", "join",
                                 "materialize"), ("spec_version",))
        if data["spec_version"] != SPEC_VERSION:
            raise ConfigError(f"unsupported spec_version {data['spec_version']!r}")
        return cls(
            spec_version=data["spec_version"],
            input=InputConfig.from_dict(data["input"], "input") if "input" in data else None,
            crawl=CrawlConfig.from_dict(data["crawl"], "crawl") if "crawl" in data else None,
            attribute=AttributeConfig.from_dict(data["attribute"], "attribute")
            if "attribute" in data else None,
            join=JoinConfig.from_dict(data["join"], "join") if "join" in data else None,
            materialize=MaterializeConfig.from_dict(data["materialize"], "materialize")
            if "materialize" in data else None,
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"spec_version": self.spec_version}
        for name in ("input", "crawl", "attribute", "join", "materialize"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value.to_dict()
        return out


def load_config(path) -> RunConfig:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# record emission
# ---------------------------------------------------------------------------

def _json_value(value):
    if value is NULL:
        return None
    return value


def format_region(region: Region, schema: DimensionSchema) -> str:
    items = sorted(region.items(), key=lambda kv: schema.dim_index(kv[0]))
    return ";".join(f"{d}={format_value(v)}" for d, v in items)


def parse_region(text: str, schema: DimensionSchema) -> Region:
    if not text:
        return Region()
    bindings = {}
    for part in text.split(";"):
        dim, _, raw = part.partition("=")
        if not _:
            raise RequestError(f"malformed region binding {part!r}")
        value = NULL if raw == "NULL" else schema.dimension(dim).parse(raw)
        bindings[dim] = value
    return Region(bindings)


def result_records(result: ResultCube, ranked: bool) -> list[dict]:
    pairs = result.records() if ranked else result.sorted_records()
    schema = result.schema
    records = []
    for region, signals in pairs:
        region_map = {d: _json_value(v) for d, v in
                      sorted(region.items(), key=lambda kv: schema.dim_index(kv[0]))}
        records.append({"region": region_map, "region_key": format_region(region, schema),
                        "signals": {s: signals[s] for s in result.signal_names if s in signals}})
    return records


def write_records(records: list[dict], signal_names: Sequence[str], fmt: str, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                out = {"region": rec["region"], "signals": rec["signals"]}
                if "error" in rec:
                    out["error"] = rec["error"]
                fh.write(json.dumps(out, separators=(", ", ": ")) + "\n")
        return
    if fmt != "csv":
        raise ConfigError(f"unknown output format {fmt!r}")
    has_error = any("error" in rec for rec in records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["region"] + list(signal_names) + (["error"] if has_error else [])
        writer.writerow(header)
        for rec in records:
            row = [rec["region_key"]]
            for s in signal_names:
                v = rec["signals"].get(s)
                row.append("" if v is None else repr(float(v)))
            if has_error:
                row.append(rec.get("error", ""))
            writer.writerow(row)


def _load_result_csv(path, dim_dicts: Sequence[Mapping], signals: Sequence[str]) -> CellsetCube:
    """Read a crawl output CSV back as a cellset over its region dimensions."""
    schema = schema_from_dict({
        "dimensions": list(dim_dicts),
        "measures": [{"name": s, "agg": "sum", "sources": [s]} for s in signals],
    })
    from .core import ANY

    cells = {}
    names = schema.dimension_names
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            region = parse_region(row["region"], schema)
            bindings = region.bindings()
            cell = tuple(bindings.get(d, ANY) for d in names)
            cells[cell] = {s: float(row[s]) for s in signals}
    return CellsetCube(schema, cells)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _require(value, name: str):
    if value is None:
        raise ConfigError(f"this command needs a {name!r} config section")
    return value


def cmd_crawl(config: RunConfig, args) -> int:
    crawl_cfg = _require(config.crawl, "crawl")
    input_cfg = _require(config.input, "input")
    cube = input_cfg.load_cube()
    spec = crawl_cfg.build_spec()
    instr = Instrumentation()
    use_naive = args.oracle == "naive" or crawl_cfg.mode == "naive"
    result = (naive_crawl if use_naive else top_down_crawl)(cube, spec, instrumentation=instr)
    records = result_records(result, spec.top_n is not None)
    write_records(records, result.signal_names, args.format, args.output)
    _write_instrumentation(args, instr)
    return EXIT_OK


def cmd_attribute(config: RunConfig, args) -> int:
    cfg = _require(config.attribute, "attribute")
    density = cfg.kind == "density"
    col = cfg.column
    rows = []
    try:
        with open(cfg.metrics_csv, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                rows.append(row)
    except OSError as exc:
        raise StoreError(f"cannot read metrics CSV: {exc}") from None

    def floats(row, *names):
        return tuple(float(row[col(n)]) for n in names)

    population = cfg.population
    body = []
    for row in rows:
        if row[col("region")] == "" and population is None:
            w_c, w_t = floats(row, "w_control", "w_test")
            s_c, s_t = floats(row, "s_control", "s_test") if density else (0.0, 0.0)
            population = {"w_control": w_c, "w_test": w_t, "s_control": s_c, "s_test": s_t}
        else:
            body.append(row)
    if population is None:
        raise ConfigError("attribute needs population metrics: add a config 'population' "
                          "section or a CSV row with an empty region")
    w_p_c, w_p_t = population["w_control"], population["w_test"]
    s_p_c = population.get("s_control", 0.0)
    s_p_t = population.get("s_test", 0.0)

    records = []
    total = 0.0
    warnings = 0
    for row in body:
        region_text = row[col("region")]
        w_c, w_t = floats(row, "w_control", "w_test")
        s_c, s_t = floats(row, "s_control", "s_test") if density else (0.0, 0.0)
        metrics = SegmentedMetrics(w_r_c=w_c, w_r_t=w_t, s_r_c=s_c, s_r_t=s_t,
                                   w_p_c=w_p_c, w_p_t=w_p_t, s_p_c=s_p_c, s_p_t=s_p_t)
        record = {"region": region_text, "region_key": region_text, "signals": {}}
        try:
            if density:
                result = attribute_density(metrics)
                num, den = result.components
                record["signals"] = {"ras": result.ras, "numerator_part": num,
                                     "denominator_part": den}
            else:
                result = summable_ras(metrics)
                record["signals"] = {"ras": result.ras}
            total += result.ras
        except DomainError as exc:
            record["error"] = str(exc)
            warnings += 1
        records.append(record)

    pop_metrics = SegmentedMetrics(w_p_c=w_p_c, w_p_t=w_p_t, s_p_c=s_p_c, s_p_t=s_p_t)
    completeness = {
        "region": "(completeness)",
        "region_key": "(completeness)",
        "signals": {"sum_ras": total, "warnings": float(warnings)},
    }
    try:
        change = (pop_metrics.population_density_change() if density
                  else pop_metrics.population_delta())
        completeness["signals"].update(population_change=change,
                                       abs_error=abs(total - change))
    except DomainError as exc:
        completeness["error"] = str(exc)
    signal_names = (("ras", "numerator_part", "denominator_part") if density else ("ras",))
    write_records(records + [completeness],
                  tuple(signal_names) + ("sum_ras", "population_change", "abs_error", "warnings"),
                  args.format, args.output)
    if warnings:
        print(f"attribute: {warnings} region(s) skipped with error markers", file=sys.stderr)
    return EXIT_OK


def cmd_join(config: RunConfig, args) -> int:
    cfg = _require(config.join, "join")
    left = cfg.left.load_cube()
    right = cfg.right.load_cube()
    spec = JoinSpec(on=tuple(cfg.on), left_prefix=cfg.left_prefix,
                    right_prefix=cfg.right_prefix, kind=cfg.kind)
    joined = join_cubes(left, right, spec, strategy=cfg.strategy)
    cellset = joined.to_cellset()
    store_mod.materialize(cellset, cellset.schema.dimension_names, args.output)
    _write_instrumentation(args, _store_instrumentation(joined))
    return EXIT_OK


def cmd_materialize(config: RunConfig, args) -> int:
    cfg = _require(config.materialize, "materialize")
    if cfg.action == "rechunk":
        source = cfg.source.load_cube()
        if not isinstance(source, store_mod.ChunkStore):
            raise ConfigError("rechunk needs a 'store' source pointing at a chunked store")
        result_store = store_mod.rechunk(source, args.output)
        _write_instrumentation(args, _store_instrumentation(source, result_store))
        return EXIT_OK
    cube = cfg.source.load_cube()
    if cfg.action == "materialize":
        dims = cfg.dims if cfg.dims is not None else list(cube.schema.dimension_names)
        store_mod.materialize(cube, dims, args.output)
        _write_instrumentation(args, Instrumentation())
        return EXIT_OK
    if cfg.partition_dim is None:
        raise ConfigError("chunk action needs 'partition_dim'")
    dims = cfg.dims
    if dims is None:
        dims = [d for d in cube.schema.dimension_names if d != cfg.partition_dim]
    chunked = store_mod.chunk_by_partition(cube, cfg.partition_dim, dims, args.output)
    _write_instrumentation(args, _store_instrumentation(chunked))
    return EXIT_OK


def _store_instrumentation(*stores) -> Instrumentation:
    instr = Instrumentation()
    for s in stores:
        for name, value in s.counters.items():
            instr.incr(name, value)
    return instr


def _write_instrumentation(args, instr: Instrumentation) -> None:
    if getattr(args, "instrument", None):
        path = Path(args.instrument)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(instr.snapshot(), indent=1, sort_keys=True), encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubecrawl",
                                     description="Region-lattice cube analysis runs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_format in (("crawl", True), ("attribute", True),
                               ("join", False), ("materialize", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--output", required=True, help="output file (or store directory)")
        if needs_format:
            p.add_argument("--format", choices=("csv", "jsonl"), default="jsonl")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="accepted for compatibility; every run is serial")
        p.add_argument("--instrument", help="write an instrumentation JSON report here")
        if name == "crawl":
            p.add_argument("--oracle", choices=("naive",),
                           help="run the exhaustive baseline instead of the pruned crawl")
    return parser


_HANDLERS = {"crawl": cmd_crawl, "attribute": cmd_attribute, "join": cmd_join,
             "materialize": cmd_materialize}


def _exit_code_for(exc: CubeError) -> int:
    if isinstance(exc, RefusalError):
        return EXIT_REFUSED
    if isinstance(exc, (ConfigError, SpecError, SchemaError, RequestError)):
        return EXIT_CONFIG
    if isinstance(exc, StoreError):
        return EXIT_IO
    return EXIT_ENGINE


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "oracle"):
        args.oracle = None
    try:
        config = load_config(args.config)
        return _HANDLERS[args.command](config, args)
    except CubeError as exc:
        code = _exit_code_for(exc)
        record = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
        print(json.dumps(record), file=sys.stderr)
        return code
    except OSError as exc:
        record = {"error": {"type": "OSError", "message": str(exc), "exit_code": EXIT_IO}}
        print(json.dumps(record), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
