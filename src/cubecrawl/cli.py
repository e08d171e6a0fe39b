"""Command-line surface: declarative crawl, attribute, join, and materialize runs.

A run is described by a JSON config plus a handful of flags.  The config is
versioned via ``spec_version`` and strictly validated: unknown keys and
wrongly typed values are rejected (exit 2), and integers must be JSON
integers.  Each key is read once, by one type-checked reader, straight into
the object its command uses: a model kind's params are the keywords of its
class in ``MODEL_KINDS``, each read by the one reader of its name; a join or
materialize source, and a join, become the function that loads their cube;
the attribute and materialize sections stay the dicts their readers return.
Results are emitted as JSON lines (lossless) or CSV, with regions flattened
to ``dim=value`` pairs joined by ``;``, into a sibling file that replaces the
output only once it is whole.  Exit codes: 0 success, 2 config/spec errors,
3 I/O errors, 4 engine errors, 5 safety-cap refusals.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import store as store_mod
from .attribution import ATTRIBUTION_KINDS, SegmentedMetrics, attribution_signals
from .core import (
    NULL,
    AbstractCube,
    BaseTableGroupByCube,
    DimensionSchema,
    Instrumentation,
    Region,
    Table,
    finite_number,
    format_value,
    integer,
    parse_number,
    read_csv,
    schema_from_dict,
)
from .crawler import CrawlSpec, ResultCube, naive_crawl, top_down_crawl
from .errors import (
    ConfigError,
    CubeError,
    DataError,
    DomainError,
    RefusalError,
    RequestError,
    SchemaError,
    SpecError,
    StoreError,
)
from .join import JoinSpec, join_cubes
from .models import MODEL_KINDS, build_model

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


def _reader(kind: str, ok):
    """A reader of one config value: the value if ``ok(value)``, else a ConfigError at ``where``."""
    def read(value, where: str):
        if not ok(value):
            raise ConfigError(f"{where}: expected {kind}, got {value!r}")
        return value
    return read


_integer = _reader("an integer", integer)
_finite = _reader("a finite number", finite_number)
_string = _reader("a string", lambda v: isinstance(v, str))
_path = _reader("a file path", lambda v: isinstance(v, str) and "\0" not in v)
_boolean = _reader("true or false", lambda v: isinstance(v, bool))
_object = _reader("an object", lambda v: isinstance(v, dict))
_scalar = _reader("a string, number, boolean or null",
                  lambda v: v is None or isinstance(v, (str, int, float)))
_is_list = _reader("a list", lambda v: isinstance(v, list))


def _number(value, where: str) -> float:
    return float(_finite(value, where))


def _choice(*options):
    return _reader(f"one of {list(options)}", lambda v: v in options)


def _list(read):
    """A reader of a list whose items ``read`` reads."""
    return lambda value, where: [read(item, f"{where}[{i}]")
                                 for i, item in enumerate(_is_list(value, where))]


def _map(read):
    """A reader of an object whose values ``read`` reads."""
    return lambda value, where: {key: read(item, f"{where}.{key}")
                                 for key, item in _object(value, where).items()}


def _nullable(read):
    return lambda value, where: None if value is None else read(value, where)


_names = _list(_string)
# a constant column holds what its column's typing could give a cell: a dimension's
# domain type, a finite number for a SUM source, else text or a finite number
_DOMAIN_CONSTANTS = {"string": _string, "integer": _integer, "boolean": _boolean}
_text_or_finite = _reader("a string or a finite number",
                          lambda v: isinstance(v, str) or finite_number(v))


def _section(data, where: str, readers: Mapping, required: Sequence[str] = ()) -> dict:
    """The keys of the object ``data``, each read by its reader in ``readers``."""
    _expect(data, where, readers, required)
    return {key: readers[key](value, f"{where}.{key}") for key, value in data.items()}


def _schema(value, where: str) -> DimensionSchema:
    try:
        return schema_from_dict(_object(value, where))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{where}: malformed ({exc})") from None


@dataclass
class InputConfig:
    csv: str
    schema: DimensionSchema
    constants: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping, where: str) -> "InputConfig":
        fields = _section(data, where, {"csv": _path, "schema": _schema, "constants": _object},
                          ("csv", "schema"))
        readers = {m.sources[0]: _finite for m in fields["schema"].measures if m.agg == "sum"}
        readers.update((d.name, _DOMAIN_CONSTANTS[d.domain]) for d in fields["schema"].dimensions)
        for name, value in fields.get("constants", {}).items():
            readers.get(name, _text_or_finite)(value, f"{where}.constants.{name}")
        return cls(**fields)

    def load_cube(self) -> BaseTableGroupByCube:
        table = Table.from_csv(self.csv, self.schema, self.constants)
        return BaseTableGroupByCube(table, self.schema)


def _pushdown_term(value, where: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{where}: each term is [measure, comparator, value]")
    measure, op, number = value
    return (_string(measure, f"{where}[0]"), _string(op, f"{where}[1]"),
            _number(number, f"{where}[2]"))


# param name -> its reader, alike in every model kind that takes it; build_model
# checks which of a kind's params are required
_PARAMS = {
    "name": _string, "metrics": _names, "apriori": _nullable(_map(_boolean)),
    "metric": _string, "min_weight_pushdown": _nullable(_number),
    "support_measure": _string, "weight_measure": _string, "segment_dim": _string,
    "test_value": _scalar, "epsilon": _number, "entity_columns": _names,
    "entity_measure": _string, "date_dim": _string, "window": _integer,
    "numerator": _string, "denominator": _nullable(_string),
}

_MODEL_KEYS = {"model": _choice(*MODEL_KINDS), "params": _object, "gate": _boolean,
               "pushdown": _list(_pushdown_term)}


def _model(data, where: str):
    """A model of the kind ``model``, whose params are its class's keywords."""
    fields = _section(data, where, _MODEL_KEYS, ("model",))
    kind = fields.pop("model")
    names = inspect.signature(MODEL_KINDS[kind]).parameters.keys() - {"gate", "pushdown"}
    params = _section(fields.pop("params", {}), f"{where}.params",
                      {name: _PARAMS[name] for name in names})
    return build_model(kind, params, **fields)


def _top_n(value, where: str) -> tuple:
    top_n = _section(value, where, {"signal": _string, "n": _integer}, ("signal", "n"))
    return top_n["signal"], top_n["n"]


# crawl config key -> reader; a key the config leaves out keeps CrawlSpec's default
_CRAWL_KEYS = {
    "models": _list(_model),
    "dimensions": _nullable(_names),
    "grouping_sets": _nullable(_list(_names)),
    "thresholds": _object,
    "top_n": _nullable(_top_n),
    "exploration": _string,
    "dimension_order": lambda value, where: (value if isinstance(value, str)
                                             else _names(value, where)),
    "hierarchies": _nullable(_list(_names)),
    "max_degree": _nullable(_integer),
    "dimension_values": _nullable(_map(_list(_scalar))),
    "batch_size": _integer,
    "mode": _choice("pruned", "naive"),
}


def _crawl(data, where: str) -> tuple[CrawlSpec, str]:
    """The crawl section as a spec plus its ``mode``."""
    fields = _section(data, where, _CRAWL_KEYS, ("models",))
    mode = fields.pop("mode", "pruned")
    return CrawlSpec(**fields), mode


def _source(data, where: str) -> Callable[[Instrumentation], AbstractCube]:
    """A join or materialize input as the function that loads its cube, given the run's
    instrumentation: a base table, a store directory, or a crawl output CSV, read as a
    crawl result over its region ``dimensions`` with its ``signals`` as SUM measures."""
    _expect(data, where, ("kind", "csv", "schema", "constants", "path", "dimensions", "signals"),
            ("kind",))
    kind = data["kind"]
    rest = {k: v for k, v in data.items() if k != "kind"}
    if kind == "base_table":
        table = InputConfig.from_dict(rest, where)
        return lambda instr: table.load_cube()
    if kind == "store":
        path = _section(rest, where, {"path": _path}, ("path",))["path"]
        return lambda instr: store_mod.load_store(path, instr)
    if kind == "result_csv":
        fields = _section(rest, where, {"path": _path, "dimensions": _list(_object),
                                        "signals": _names}, ("path", "dimensions", "signals"))
        measures = [{"name": s, "agg": "sum", "sources": [s]} for s in fields["signals"]]
        schema = _schema({"dimensions": fields["dimensions"], "measures": measures}, where)
        return lambda instr: _load_result_csv(fields["path"], schema)
    raise ConfigError(f"{where}.kind: unknown source kind {kind!r}")


_JOIN_KEYS = {"left": _source, "right": _source, "on": _names, "left_prefix": _string,
              "right_prefix": _string, "kind": _string, "strategy": _string}


def _join(data, where: str) -> Callable[[Instrumentation], AbstractCube]:
    """The join section as the function that loads the joined cube, given the run's
    instrumentation: both sources load, then join by ``strategy``."""
    fields = _section(data, where, _JOIN_KEYS, ("left", "right", "on"))
    left, right = fields.pop("left"), fields.pop("right")
    strategy = fields.pop("strategy", "global")
    spec = JoinSpec(**fields)
    return lambda instr: join_cubes(left(instr), right(instr), spec, strategy=strategy,
                                    instrumentation=instr)


_ATTR_COLUMNS = ("region", "w_control", "w_test", "s_control", "s_test")
_ATTR_KEYS = {
    "metrics_csv": _path,
    "kind": _choice(*ATTRIBUTION_KINDS),
    "columns": lambda value, where: _section(value, where, dict.fromkeys(_ATTR_COLUMNS, _string)),
    "population": _nullable(lambda value, where: _section(
        value, where, dict.fromkeys(_ATTR_COLUMNS[1:], _number), ("w_control", "w_test"))),
}

_MATERIALIZE_KEYS = {"action": _choice("materialize", "chunk", "rechunk"), "source": _source,
                     "dims": _nullable(_names), "partition_dim": _nullable(_string)}

_SECTIONS = {
    "input": InputConfig.from_dict, "crawl": _crawl,
    "attribute": lambda data, where: _section(data, where, _ATTR_KEYS, ("metrics_csv",)),
    "join": _join,
    "materialize": lambda data, where: _section(data, where, _MATERIALIZE_KEYS,
                                                ("action", "source")),
}


@dataclass
class RunConfig:
    input: InputConfig | None = None
    crawl: CrawlSpec | None = None
    crawl_mode: str = "pruned"  # the crawl section's "mode": "pruned" or "naive"
    attribute: dict | None = None
    join: Callable[[Instrumentation], AbstractCube] | None = None
    materialize: dict | None = None

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        _expect(data, "config", ("spec_version", *_SECTIONS), ("spec_version",))
        if _integer(data["spec_version"], "spec_version") != SPEC_VERSION:
            raise ConfigError(f"unsupported spec_version {data['spec_version']!r}")
        fields = {key: read(data[key], key) for key, read in _SECTIONS.items() if key in data}
        if "crawl" in fields:
            fields["crawl"], fields["crawl_mode"] = fields["crawl"]
        return cls(**fields)


def load_config(path) -> RunConfig:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config {path} is not UTF-8 text") from None
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


def parse_region(text: str, schema: DimensionSchema) -> Region:
    if not text:
        return Region()
    bindings = {}
    for part in text.split(";"):
        dim, _, raw = part.partition("=")
        if not _:
            raise RequestError(f"malformed region binding {part!r}")
        if dim in bindings:
            raise RequestError(f"region {text!r} binds {dim!r} twice")
        bindings[dim] = NULL if raw == "NULL" else schema.dimension(dim).parse(raw)
    return Region(bindings)


def result_records(result: ResultCube, ranked: bool) -> list[dict]:
    pairs = result.records() if ranked else result.sorted_records()
    dim_index = result.schema.dim_index
    records = []
    for region, signals in pairs:
        items = sorted(region.items(), key=lambda kv: dim_index(kv[0]))
        records.append({"region": {d: _json_value(v) for d, v in items},
                        "region_key": ";".join(f"{d}={format_value(v)}" for d, v in items),
                        "signals": {s: signals[s] for s in result.signal_names if s in signals}})
    return records


def _reads_back(record: dict, schema: DimensionSchema) -> bool:
    """Whether the record's ``region_key`` parses back to the record's own region."""
    try:
        region = parse_region(record["region_key"], schema)
    except (RequestError, SchemaError, DataError):
        return False
    return {d: _json_value(v) for d, v in region.items()} == record["region"]


def write_records(records: list[dict], signal_names: Sequence[str], fmt: str, path) -> None:
    """Write ``records`` as ``fmt`` to ``path``, whole: see ``store.write_whole``."""
    if fmt not in ("jsonl", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}")

    def write(into: Path) -> None:
        with open(into, "w", newline=None if fmt == "jsonl" else "", encoding="utf-8") as fh:
            if fmt == "jsonl":
                for rec in records:
                    out = {"region": rec["region"], "signals": rec["signals"]}
                    if "error" in rec:
                        out["error"] = rec["error"]
                    fh.write(json.dumps(out, separators=(", ", ": ")) + "\n")
                return
            has_error = any("error" in rec for rec in records)
            writer = csv.writer(fh)
            writer.writerow(["region"] + list(signal_names) + (["error"] if has_error else []))
            for rec in records:
                row = [rec["region_key"]]
                for s in signal_names:
                    v = rec["signals"].get(s)
                    row.append("" if v is None else repr(float(v)))
                if has_error:
                    row.append(rec.get("error", ""))
                writer.writerow(row)
    store_mod.write_whole(path, write)


def _positions(path, header: Sequence[str], columns: Sequence[str]) -> list[int]:
    """Where each of ``columns`` is in the ``header`` of the CSV at ``path``."""
    for column in columns:
        if column not in header:
            raise SchemaError(f"{path}: no column {column!r}")
    return [header.index(column) for column in columns]


def _floats(row: Sequence[str], positions: Sequence[int], columns: Sequence[str]) -> list:
    """The cells of ``row`` at ``positions``, as floats read by ``parse_number``."""
    return [float(parse_number(f"column {column!r}", row[i]))
            for i, column in zip(positions, columns)]


def _load_result_csv(path, schema: DimensionSchema) -> ResultCube:
    """Read a crawl output CSV back as a crawl result over its region dimensions."""
    records = read_csv(path)
    region_at, *signals_at = _positions(path, next(records), ("region", *schema.measure_names))
    entries = {}
    for line, row in records:
        try:
            region = parse_region(row[region_at], schema)
            if region in entries:
                raise DataError(f"region {region!r} is listed twice")
            entries[region] = dict(zip(schema.measure_names,
                                       _floats(row, signals_at, schema.measure_names)))
        except (RequestError, SchemaError, DataError) as exc:
            raise DataError(f"{path}:{line}: {exc}") from None
    return ResultCube(schema.dimension_names, schema.measure_names, entries, schema)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _require(value, name: str):
    if value is None:
        raise ConfigError(f"this command needs a {name!r} config section")
    return value


def cmd_crawl(config: RunConfig, args, instr: Instrumentation) -> int:
    spec = _require(config.crawl, "crawl")
    cube = _require(config.input, "input").load_cube()
    use_naive = args.oracle == "naive" or config.crawl_mode == "naive"
    result = (naive_crawl if use_naive else top_down_crawl)(cube, spec, instrumentation=instr)
    records = result_records(result, spec.top_n is not None)
    if args.format == "csv":
        for rec in records:
            if not _reads_back(rec, result.schema):
                raise DataError(f"region {rec['region']!r} has no CSV region key that reads "
                                "back as itself; write it with --format jsonl")
    write_records(records, result.signal_names, args.format, args.output)
    return EXIT_OK


def cmd_attribute(config: RunConfig, args, instr: Instrumentation) -> int:
    cfg = _require(config.attribute, "attribute")
    kind_name = cfg.get("kind", "density")
    kind = ATTRIBUTION_KINDS[kind_name]
    path = cfg["metrics_csv"]
    try:
        header, *rows = read_csv(path)
    except OSError as exc:
        raise StoreError(f"cannot read metrics CSV: {exc}") from None
    names = cfg.get("columns", {})
    columns = [names.get(role, role) for role in _ATTR_COLUMNS[1:1 + kind.totals]]
    region_at, *metrics_at = _positions(path, header, [names.get("region", "region"), *columns])

    # the row with the empty region is the population: it is never scored as a region,
    # and a config 'population' section takes its place
    given = cfg.get("population")
    population = None if given is None else [given.get(role, 0.0) for role in _ATTR_COLUMNS[1:]]
    first = {}  # region text -> the line that lists it first
    body = []  # (region text, the totals it lists)
    for line, row in rows:
        region = row[region_at]
        if region in first:
            repeat = (f"region {region!r} is listed twice" if region
                      else "a second population row (empty region)")
            raise DataError(f"{path}:{line}: {repeat}; the first is line {first[region]}")
        first[region] = line
        if region or population is None:
            try:
                totals = _floats(row, metrics_at, columns)
            except DataError as exc:
                raise DataError(f"{path}:{line}: {exc}") from None
            if region:
                body.append((region, totals))
            else:
                population = totals
    if population is None:
        raise ConfigError("attribute needs population metrics: add a config 'population' "
                          "section or a CSV row with an empty region")

    records = []
    total = 0.0
    warnings = 0
    for region, totals in body:
        record = {"region": region, "region_key": region, "signals": {}}
        try:
            record["signals"] = attribution_signals(SegmentedMetrics.of(totals, population),
                                                    kind_name)
            total += record["signals"]["ras"]
        except DomainError as exc:
            record["error"] = str(exc)
            warnings += 1
        records.append(record)

    completeness = {"region": "(completeness)", "region_key": "(completeness)",
                    "signals": {"sum_ras": total, "warnings": float(warnings)}}
    try:
        change = kind.population_change(SegmentedMetrics.of((), population))
        completeness["signals"].update(population_change=change,
                                       abs_error=abs(total - change))
    except DomainError as exc:
        completeness["error"] = str(exc)
    write_records(records + [completeness],
                  kind.signals + ("sum_ras", "population_change", "abs_error", "warnings"),
                  args.format, args.output)
    if warnings:
        print(f"attribute: {warnings} region(s) skipped with error markers", file=sys.stderr)
    return EXIT_OK


def cmd_join(config: RunConfig, args, instr: Instrumentation) -> int:
    joined = _require(config.join, "join")(instr)
    store_mod.materialize(joined, joined.schema.dimension_names, args.output)
    return EXIT_OK


def cmd_materialize(config: RunConfig, args, instr: Instrumentation) -> int:
    cfg = _require(config.materialize, "materialize")
    cube = cfg["source"](instr)
    dims, partition_dim = cfg.get("dims"), cfg.get("partition_dim")
    if cfg["action"] == "rechunk":
        if not isinstance(cube, store_mod.ChunkStore):
            raise ConfigError("rechunk needs a 'store' source pointing at a chunked store")
        store_mod.rechunk(cube, args.output)
    elif cfg["action"] == "materialize":
        dims = dims if dims is not None else list(cube.schema.dimension_names)
        store_mod.materialize(cube, dims, args.output)
    else:
        if partition_dim is None:
            raise ConfigError("chunk action needs 'partition_dim'")
        if dims is None:
            dims = [d for d in cube.schema.dimension_names if d != partition_dim]
        store_mod.chunk_by_partition(cube, partition_dim, dims, args.output)
    return EXIT_OK


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
    instr = Instrumentation()
    try:
        config = load_config(args.config)
        code = _HANDLERS[args.command](config, args, instr)
        if args.instrument:
            path = Path(args.instrument)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(instr.snapshot(), indent=1, sort_keys=True),
                            encoding="utf-8")
        return code
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
