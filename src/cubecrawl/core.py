"""Schemas, regions, feature frames, and the two foundational cube types.

A cube is a function from (region, requested features) to a grouped,
aggregated table.  ``BaseTableGroupByCube`` computes that function from an
immutable in-memory base table; ``CellsetCube`` serves it from materialized
cells keyed by full-width value patterns where ``ANY`` marks a dimension
that was aggregated over.
"""

from __future__ import annotations

import csv
import itertools
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import DataError, SchemaError


class _Singleton:
    _name = "?"

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return (self.__class__, ())


class _Null(_Singleton):
    """Sentinel for a missing dimension value; it participates in grouping."""

    _name = "NULL"
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


class _Any(_Singleton):
    """Wildcard slot of a cellset cell: the dimension was aggregated over."""

    _name = "*"
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


NULL = _Null()
ANY = _Any()

#: value domains accepted for dimension columns
DOMAINS = ("string", "integer", "boolean")

_TRUE_WORDS = {"true", "t", "1", "yes", "y"}
_FALSE_WORDS = {"false", "f", "0", "no", "n"}


def _value_sort_key(value):
    # NULL groups last; within a column values share one concrete type.
    if value is NULL:
        return (2, "")
    if isinstance(value, bool):
        return (0, int(value))
    return (0, value)


def _row_sort_key(values):
    return tuple(_value_sort_key(v) for v in values)


def format_value(value) -> str:
    """Stable text form of a dimension value (used by keys, CSV, stores)."""
    if value is NULL:
        return "NULL"
    if value is ANY:
        return "*"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class Dimension:
    name: str
    domain: str = "string"

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise SchemaError(f"unknown domain {self.domain!r} for dimension {self.name!r}")

    def parse(self, text: str):
        """Parse a CSV cell into a typed value; empty text becomes NULL."""
        if text == "":
            return NULL
        if self.domain == "string":
            return text
        if self.domain == "integer":
            try:
                return int(text)
            except ValueError:
                raise DataError(f"dimension {self.name!r}: {text!r} is not an integer") from None
        low = text.strip().lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise DataError(f"dimension {self.name!r}: {text!r} is not a boolean")


@dataclass(frozen=True)
class Measure:
    """An aggregated column: SUM over one source, or COUNT_DISTINCT over source tuples."""

    name: str
    agg: str = "sum"
    sources: tuple[str, ...] = ()

    def __post_init__(self):
        if self.agg not in ("sum", "count_distinct"):
            raise SchemaError(f"unknown aggregator {self.agg!r} for measure {self.name!r}")
        if not self.sources:
            object.__setattr__(self, "sources", (self.name,))
        if self.agg == "sum" and len(self.sources) != 1:
            raise SchemaError(f"sum measure {self.name!r} needs exactly one source column")

    @classmethod
    def sum(cls, name: str, source: str | None = None) -> "Measure":
        return cls(name, "sum", (source or name,))

    @classmethod
    def count_distinct(cls, name: str, *sources: str) -> "Measure":
        return cls(name, "count_distinct", sources or (name,))


@dataclass(frozen=True)
class DimensionSchema:
    """Ordered dimensions + measures, with optional hierarchy chains (coarse to fine)."""

    dimensions: tuple[Dimension, ...]
    measures: tuple[Measure, ...]
    hierarchies: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "measures", tuple(self.measures))
        object.__setattr__(self, "hierarchies", tuple(tuple(h) for h in self.hierarchies))
        dim_names = [d.name for d in self.dimensions]
        measure_names = [m.name for m in self.measures]
        all_names = dim_names + measure_names
        if len(set(all_names)) != len(all_names):
            raise SchemaError("dimension and measure names must be disjoint and unique")
        for chain in self.hierarchies:
            if len(set(chain)) != len(chain):
                raise SchemaError(f"hierarchy {chain} repeats a dimension")
            for name in chain:
                if name not in dim_names:
                    raise SchemaError(f"hierarchy references unknown dimension {name!r}")

    @property
    def dimension_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    @property
    def measure_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.measures)

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise SchemaError(f"unknown dimension {name!r}")

    def measure(self, name: str) -> Measure:
        for m in self.measures:
            if m.name == name:
                return m
        raise SchemaError(f"unknown measure {name!r}")

    def dim_index(self, name: str) -> int:
        for i, d in enumerate(self.dimensions):
            if d.name == name:
                return i
        raise SchemaError(f"unknown dimension {name!r}")

    def region_key(self, region: "Region") -> tuple:
        """Canonical sort key: bound dimensions in schema order, values as text."""
        items = sorted(((self.dim_index(d), format_value(v)) for d, v in region.items()))
        return tuple(items)

    def sort_regions(self, regions: Iterable["Region"]) -> list["Region"]:
        return sorted(regions, key=self.region_key)


class Region:
    """An immutable tuple of dimension=value bindings; the empty region is the population."""

    __slots__ = ("_items",)

    def __init__(self, bindings: Mapping[str, Any] | Iterable[tuple[str, Any]] = ()):
        if isinstance(bindings, Mapping):
            pairs = bindings.items()
        else:
            pairs = tuple(bindings)
        items = tuple(sorted(pairs))
        if len({d for d, _ in items}) != len(items):
            raise SchemaError("region binds a dimension more than once")
        self._items = items

    @property
    def degree(self) -> int:
        return len(self._items)

    @property
    def dims(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self._items)

    def items(self) -> tuple[tuple[str, Any], ...]:
        return self._items

    def bindings(self) -> dict:
        return dict(self._items)

    def get(self, dim: str, default=None):
        for d, v in self._items:
            if d == dim:
                return v
        return default

    def __contains__(self, dim: str) -> bool:
        return any(d == dim for d, _ in self._items)

    def with_binding(self, dim: str, value) -> "Region":
        return Region(self._items + ((dim, value),))

    def __eq__(self, other):
        return isinstance(other, Region) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        if not self._items:
            return "Region([])"
        inner = ", ".join(f"{d}={format_value(v)}" for d, v in self._items)
        return f"Region({inner})"


EMPTY_REGION = Region()


def region_precedes(g1: Region, g2: Region) -> bool:
    """True iff g2's bindings are a subset of g1's (g1 is at least as fine-grained)."""
    b1 = dict(g1.items())
    return all(d in b1 and b1[d] == v for d, v in g2.items())


@dataclass(frozen=True)
class FeatureRequest:
    """Requested attribute (dimension) columns and metric (measure) columns."""

    attribute_features: tuple[str, ...] = ()
    metric_features: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "attribute_features", tuple(self.attribute_features))
        object.__setattr__(self, "metric_features", tuple(self.metric_features))
        for names, what in ((self.attribute_features, "attribute"), (self.metric_features, "metric")):
            if len(set(names)) != len(names):
                raise SchemaError(f"duplicate {what} feature in request")

    def validate(self, schema: DimensionSchema) -> None:
        for name in self.attribute_features:
            schema.dimension(name)
        for name in self.metric_features:
            schema.measure(name)


class FeatureFrame:
    """Grouped result table: distinct attribute tuples plus aggregated measures.

    Rows are sorted by attribute tuple so equal views compare equal.  Measure
    cells are numbers, or None for an absent-side sentinel in left joins.
    """

    __slots__ = ("attribute_names", "measure_names", "_rows")

    def __init__(self, attribute_names, measure_names, rows):
        self.attribute_names = tuple(attribute_names)
        self.measure_names = tuple(measure_names)
        rows = [(tuple(a), tuple(m)) for a, m in rows]
        rows.sort(key=lambda r: _row_sort_key(r[0]))
        if len({r[0] for r in rows}) != len(rows):
            raise SchemaError("feature frame attribute tuples are not distinct")
        for a, m in rows:
            if len(a) != len(self.attribute_names) or len(m) != len(self.measure_names):
                raise SchemaError("feature frame row width mismatch")
        self._rows = tuple(rows)

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    def iter_rows(self) -> Iterator[tuple[tuple, tuple]]:
        return iter(self._rows)

    def attribute_column(self, name: str) -> tuple:
        i = self.attribute_names.index(name)
        return tuple(r[0][i] for r in self._rows)

    def measure_column(self, name: str) -> tuple:
        i = self.measure_names.index(name)
        return tuple(r[1][i] for r in self._rows)

    def value(self, measure: str | None = None):
        """The single aggregate of a one-row frame (grand-total views)."""
        if self.n_rows != 1:
            raise SchemaError(f"value() needs exactly one row, frame has {self.n_rows}")
        name = measure if measure is not None else self.measure_names[0]
        return self.measure_column(name)[0]

    def __eq__(self, other):
        return (
            isinstance(other, FeatureFrame)
            and self.attribute_names == other.attribute_names
            and self.measure_names == other.measure_names
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.attribute_names, self.measure_names, self._rows))

    def __repr__(self):
        return f"FeatureFrame({self.attribute_names}+{self.measure_names}, {self.n_rows} rows)"


class Table:
    """Immutable columnar base table."""

    __slots__ = ("columns", "n_rows")

    def __init__(self, columns: Mapping[str, Sequence]):
        cols = {name: tuple(values) for name, values in columns.items()}
        lengths = {len(v) for v in cols.values()}
        if len(lengths) > 1:
            raise SchemaError("table columns have unequal lengths")
        self.columns = cols
        self.n_rows = lengths.pop() if lengths else 0

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> tuple:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def with_constant(self, name: str, value) -> "Table":
        if name in self.columns:
            raise SchemaError(f"column {name!r} already exists")
        cols = dict(self.columns)
        cols[name] = (value,) * self.n_rows
        return Table(cols)

    def subset(self, row_ids: Sequence[int]) -> "Table":
        return Table({name: [col[i] for i in row_ids] for name, col in self.columns.items()})

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Iterable[Sequence]) -> "Table":
        names = list(names)
        cols = {n: [] for n in names}
        for row in rows:
            if len(row) != len(names):
                raise SchemaError("row width does not match column names")
            for n, v in zip(names, row):
                cols[n].append(v)
        return cls(cols)

    @classmethod
    def from_csv(cls, path, schema: DimensionSchema, constants: Mapping[str, Any] | None = None) -> "Table":
        """Load a CSV, typing each column per the schema.

        Dimension columns are parsed per their domain (empty cell -> NULL).
        SUM sources are parsed as numbers (int when integral).  Any other
        column is kept as raw text so COUNT_DISTINCT can reference it.
        """
        dim_by_name = {d.name: d for d in schema.dimensions}
        sum_sources = {m.sources[0] for m in schema.measures if m.agg == "sum"}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = utf8_rows(path, csv.reader(fh))
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty CSV") from None
            cols = {name: [] for name in header}
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
                for name, text in zip(header, row):
                    if name in dim_by_name:
                        cols[name].append(dim_by_name[name].parse(text))
                    elif name in sum_sources:
                        cols[name].append(_parse_number(name, text))
                    else:
                        cols[name].append(text)
        table = cls(cols)
        for name, value in (constants or {}).items():
            table = table.with_constant(name, value)
        return table


def utf8_rows(path, rows: Iterable) -> Iterator:
    """The rows of a CSV reader over ``path``; text that is not UTF-8 is a DataError."""
    try:
        yield from rows
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _parse_number(name: str, text: str):
    if text == "":
        raise DataError(f"measure source {name!r}: empty cell")
    try:
        f = float(text)
    except ValueError:
        raise DataError(f"measure source {name!r}: {text!r} is not a number") from None
    return int(f) if f.is_integer() and "." not in text and "e" not in text.lower() else f


def filter_by_region(table: Table, region: Region) -> Table:
    """Rows of ``table`` matching every binding; the empty region keeps all rows."""
    cols = []
    for dim, value in region.items():
        cols.append((table.column(dim), value))
    keep = [
        i
        for i in range(table.n_rows)
        if all(col[i] is value or col[i] == value for col, value in cols)
    ]
    return table.subset(keep)


class Instrumentation:
    """Run counters and per-model invocation counts, added to by every layer of a run.

    A counter appears once something has counted it.  An instance belongs to
    one thread: nothing guards concurrent updates.
    """

    def __init__(self):
        self.counters: Counter[str] = Counter()
        self.model_invocations: Counter[str] = Counter()

    def get(self, name: str) -> int:
        return self.counters[name]

    def snapshot(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "model_invocations": dict(sorted(self.model_invocations.items())),
        }


class RegionCursor:
    """A cube bound at one region: cheap views, child values, and refinement.

    This cursor answers through the cube's own ``view``, ``region_values`` and
    ``bind``; a cube with a faster way to refine a region subclasses it.
    """

    def __init__(self, cube: "AbstractCube", region: Region):
        self.cube = cube
        self.region = region

    def view(self, request: FeatureRequest) -> FeatureFrame:
        return self.cube.view(self.region, request)

    def values(self, dim: str) -> tuple:
        return self.cube.region_values(self.region, dim)

    def child(self, dim: str, value) -> "RegionCursor":
        return self.cube.bind(self.region.with_binding(dim, value))


class AbstractCube(ABC):
    """The cube contract: a function (region, feature request) -> FeatureFrame."""

    @property
    @abstractmethod
    def schema(self) -> DimensionSchema: ...

    @abstractmethod
    def view(self, region: Region, request: FeatureRequest) -> FeatureFrame: ...

    def region_values(self, region: Region, dim: str) -> tuple:
        """Distinct values of ``dim`` observed inside ``region``, sorted."""
        frame = self.view(region, FeatureRequest((dim,), ()))
        return frame.attribute_column(dim)

    def bind(self, region: Region) -> RegionCursor:
        return RegionCursor(self, region)

    def to_cellset(self) -> "CellsetCube":
        """The cube materialized as a cellset over all of its dimensions."""
        return build_cellset(self, self.schema.dimension_names)

    def _check(self, region: Region, request: FeatureRequest) -> None:
        request.validate(self.schema)
        for dim in region.dims:
            self.schema.dimension(dim)


class BaseTableGroupByCube(AbstractCube):
    """Cube computed on demand by filter + group-by + aggregate over a base table."""

    def __init__(self, table: Table, schema: DimensionSchema):
        for d in schema.dimensions:
            table.column(d.name)
        for m in schema.measures:
            for src in m.sources:
                table.column(src)
        self._table = table
        self._schema = schema
        # a root cursor's state; holding the cursor would make a reference cycle
        self._all_rows = tuple(range(table.n_rows))
        self._root_partitions: dict[str, dict[Any, list[int]]] = {}

    @property
    def schema(self) -> DimensionSchema:
        return self._schema

    @property
    def table(self) -> Table:
        return self._table

    def _aggregate(self, row_ids: Sequence[int], request: FeatureRequest,
                   grand_total: bool) -> FeatureFrame:
        attrs = request.attribute_features
        measures = [self._schema.measure(m) for m in request.metric_features]
        attr_cols = [self._table.column(a) for a in attrs]
        groups: dict[tuple, list[int]] = {}
        if not attrs:
            # the root's grand total always exists (zero aggregates on an empty
            # table); a nonempty region filtered to zero rows has no groups
            if grand_total or row_ids:
                groups[()] = list(row_ids)
        else:
            for i in row_ids:
                key = tuple(col[i] for col in attr_cols)
                groups.setdefault(key, []).append(i)
        rows = []
        for key, ids in groups.items():
            vals = []
            for m in measures:
                if m.agg == "sum":
                    src = self._table.column(m.sources[0])
                    vals.append(sum(src[i] for i in ids))
                else:
                    src_cols = [self._table.column(s) for s in m.sources]
                    vals.append(len({tuple(col[i] for col in src_cols) for i in ids}))
            rows.append((key, tuple(vals)))
        return FeatureFrame(attrs, request.metric_features, rows)

    def view(self, region: Region, request: FeatureRequest) -> FeatureFrame:
        return self.bind(region).view(request)

    def region_values(self, region: Region, dim: str) -> tuple:
        return self.bind(region).values(dim)

    def bind(self, region: Region) -> RegionCursor:
        root = _TableCursor(self, EMPTY_REGION, self._all_rows, self._root_partitions)
        if not region.degree:
            return root
        postings = (root._partition(d).get(v, ()) for d, v in region.items())
        rows, *others = sorted(postings, key=len)
        for other in others:
            members = set(other)
            rows = tuple(i for i in rows if i in members)
        return _TableCursor(self, region, rows, {})


class _TableCursor(RegionCursor):
    """A base-table region's row ids, ascending so that sums add in table order.

    ``_partition(dim)`` splits them by value in one memoised pass (BUC's
    partition step): ``values`` is its sorted keys, ``child`` a lookup in it.
    """

    def __init__(self, cube: BaseTableGroupByCube, region: Region, row_ids: Sequence[int],
                 partitions: dict):
        super().__init__(cube, region)
        self.row_ids = row_ids
        self._partitions = partitions

    def _partition(self, dim: str) -> dict[Any, list[int]]:
        part = self._partitions.get(dim)
        if part is None:
            self.cube.schema.dimension(dim)
            col = self.cube.table.column(dim)
            part = self._partitions[dim] = {}
            for i in self.row_ids:
                part.setdefault(col[i], []).append(i)
        return part

    def view(self, request):
        # ``bind`` and ``child`` have checked the region's dimensions
        request.validate(self.cube.schema)
        return self.cube._aggregate(self.row_ids, request, self.region.degree == 0)

    def values(self, dim):
        return tuple(sorted(self._partition(dim), key=_value_sort_key))

    def child(self, dim, value):
        rows = self._partition(dim).get(value, ())
        return _TableCursor(self.cube, self.region.with_binding(dim, value), rows, {})


class CellsetCube(AbstractCube):
    """Materialized cube: full-width cells (value or ANY per dimension) -> measure
    tuple in ``schema.measure_names`` order; ``cells`` is the by-name view.

    Every view is a ``cells_at`` lookup, also for crawl results, GLOBAL joins and stores."""

    def __init__(self, schema: DimensionSchema, cells: Mapping[tuple, Sequence]):
        self._schema = schema
        width, n_measures = len(schema.dimensions), len(schema.measures)
        norm: dict[tuple, tuple] = {}
        for cell, values in cells.items():
            cell, values = tuple(cell), tuple(values)
            if len(cell) != width:
                raise SchemaError(f"cell {cell!r} width != {width}")
            if len(values) != n_measures:
                raise SchemaError(f"cell {cell!r} holds {len(values)} measures, not {n_measures}")
            norm[cell] = values
        self._cells = norm
        # mask index: frozenset of concrete dimension names -> cells
        self._by_mask: dict[frozenset, list[tuple]] = {}
        names = schema.dimension_names
        for cell in norm:
            mask = frozenset(names[i] for i, v in enumerate(cell) if v is not ANY)
            self._by_mask.setdefault(mask, []).append(cell)
        self._by_shape: dict[tuple, dict[tuple, list[tuple]]] = {}

    @property
    def schema(self) -> DimensionSchema:
        return self._schema

    @property
    def cells(self) -> dict[tuple, dict]:
        """Each cell's measures by name, built on access."""
        names = self._schema.measure_names
        return {cell: dict(zip(names, values)) for cell, values in self._cells.items()}

    def to_cellset(self) -> "CellsetCube":
        return self

    def cells_at(self, region: Region, attrs: Sequence[str]) -> list[tuple]:
        """The cells of a view of ``region`` with attributes ``attrs``: a mask's cells are
        grouped once per (bound, free) shape, by the cell with its free attributes ANY.

        Without free attributes the view is the region's one cell, found by a probe."""
        names = self._schema.dimension_names
        bound = frozenset(region.dims)
        free = frozenset(attrs) - bound
        bindings = region.bindings()
        probe = tuple(bindings.get(d, ANY) for d in names)
        if not free:
            # a cell's values are its mask's dimensions, so a region binding ANY has no cell
            found = probe in self._cells and sum(v is not ANY for v in probe) == len(bound)
            return [probe] if found else []
        groups = self._by_shape.get((bound, free))
        if groups is None:
            groups = self._by_shape[(bound, free)] = {}
            for cell in self._by_mask.get(bound | free, ()):
                key = tuple(ANY if d in free else v for d, v in zip(names, cell))
                groups.setdefault(key, []).append(cell)
        return groups.get(probe, [])

    def view(self, region: Region, request: FeatureRequest) -> FeatureFrame:
        self._check(region, request)
        at = [self._schema.dim_index(a) for a in request.attribute_features]
        names = self._schema.measure_names
        picks = [names.index(m) for m in request.metric_features]
        rows = []
        for cell in self.cells_at(region, request.attribute_features):
            values = self._cells[cell]
            rows.append((tuple(cell[i] for i in at), tuple(values[j] for j in picks)))
        return FeatureFrame(request.attribute_features, request.metric_features, rows)


def build_cellset(cube: AbstractCube, dims: Sequence[str]) -> CellsetCube:
    """Materialize every grouping set over ``dims`` into a cellset.

    Only value combinations observed in the data are stored; for a group-by
    cube the all-ANY cell always exists (zero aggregates for an empty base
    table), while materializing a partial cellset preserves its holes.
    """
    dims = tuple(dims)
    for d in dims:
        cube.schema.dimension(d)
    sub_schema = DimensionSchema(
        tuple(d for d in cube.schema.dimensions if d.name in dims),
        cube.schema.measures,
        tuple(h for h in cube.schema.hierarchies if all(n in dims for n in h)),
    )
    ordered = sub_schema.dimension_names
    measure_names = sub_schema.measure_names
    cells: dict[tuple, tuple] = {}
    for k in range(len(ordered) + 1):
        for subset in itertools.combinations(ordered, k):
            frame = cube.view(EMPTY_REGION, FeatureRequest(subset, measure_names))
            for attrs, measures in frame.iter_rows():
                by_name = dict(zip(subset, attrs))
                cell = tuple(by_name.get(d, ANY) for d in ordered)
                cells[cell] = measures
    return CellsetCube(sub_schema, cells)


def schema_to_dict(schema: DimensionSchema) -> dict:
    """JSON-ready form of a schema (used by store manifests)."""
    return {
        "dimensions": [{"name": d.name, "domain": d.domain} for d in schema.dimensions],
        "measures": [
            {"name": m.name, "agg": m.agg, "sources": list(m.sources)} for m in schema.measures
        ],
        "hierarchies": [list(h) for h in schema.hierarchies],
    }


def schema_from_dict(data: Mapping) -> DimensionSchema:
    dims = tuple(Dimension(d["name"], d.get("domain", "string")) for d in data.get("dimensions", ()))
    measures = tuple(
        Measure(m["name"], m.get("agg", "sum"), tuple(m.get("sources", ()) or (m["name"],)))
        for m in data.get("measures", ())
    )
    hierarchies = tuple(tuple(h) for h in data.get("hierarchies", ()))
    return DimensionSchema(dims, measures, hierarchies)
