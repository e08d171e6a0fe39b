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
import math
import sys
from abc import ABC, abstractmethod
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial, reduce, total_ordering
from operator import add, itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import DataError, SchemaError


class _Singleton:
    _name = "?"

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return (self.__class__, ())


@total_ordering
class _Null(_Singleton):
    """Sentinel for a missing dimension value; it groups like a value and sorts after all."""

    _name = "NULL"
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return other is not self


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


def sum_in_order(values):
    """``values`` added left to right, also on Python 3.12 and later, whose ``sum``
    compensates float rounding; float sums keep their bytes on every Python."""
    return reduce(add, values, 0)


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
        # by dimension alone: two values of one dimension need not compare
        items = tuple(sorted(pairs, key=itemgetter(0)))
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
        rows.sort(key=itemgetter(0))
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
        if len(cols) != len(names):
            raise SchemaError(f"column {_repeated(names)!r} is named twice")
        for row in rows:
            if len(row) != len(names):
                raise SchemaError("row width does not match column names")
            for n, v in zip(names, row):
                cols[n].append(v)
        return cls(cols)

    @classmethod
    def from_csv(cls, path, schema: DimensionSchema, constants: Mapping[str, Any] | None = None) -> "Table":
        """Load a CSV by ``read_csv``, typing each column by one parser chosen from the schema:
        a dimension's domain (empty cell -> NULL), ``parse_number`` for a SUM source, else
        the text as is, for COUNT_DISTINCT.  Each distinct text of a column is parsed once,
        and the rows holding it share the value.  A bad cell is a DataError naming its line.
        """
        parsers = {m.sources[0]: partial(parse_number, f"measure source {m.sources[0]!r}")
                   for m in schema.measures if m.agg == "sum"}
        parsers.update((d.name, d.parse) for d in schema.dimensions)
        records = read_csv(path)
        header = next(records)
        columns = [(parsers.get(name, str), {}, []) for name in header]
        for line, row in records:
            try:
                for text, (parse, typed, values) in zip(row, columns):
                    value = typed.get(text)
                    if value is None:
                        value = typed[text] = parse(text)
                    values.append(value)
            except DataError as exc:
                raise DataError(f"{path}:{line}: {exc}") from None
        table = cls({name: values for name, (_, _, values) in zip(header, columns)})
        for name, value in (constants or {}).items():
            table = table.with_constant(name, value)
        return table


def read_csv(path) -> Iterator:
    """The header of the CSV file at ``path``, then each record as ``(line, cells)``, where
    ``line`` is the line the record ends on.  The one reader of CSV input: the file is
    UTF-8 text, the header names no column twice, and every record is as wide as the
    header; a broken rule is a DataError naming the file and, where there is one, the line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty CSV")
            name = _repeated(header)
            if name is not None:
                raise DataError(f"{path}: column {name!r} is named twice in the header")
            yield header
            for row in reader:
                if len(row) != len(header):
                    raise DataError(f"{path}:{reader.line_num}: "
                                    f"expected {len(header)} cells, got {len(row)}")
                yield reader.line_num, row
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _repeated(names: Iterable[str]):
    """The first name that ``names`` repeats, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def parse_number(label: str, text: str):
    """``text`` as a finite number, int when integral; else a DataError led by ``label``."""
    if text == "":
        raise DataError(f"{label}: empty cell")
    if "." not in text and "e" not in text and "E" not in text:
        try:
            # integral text is parsed once, and stays exact beyond 2**53
            n = int(text)
        except ValueError:
            pass  # "inf", "nan" or not a number: the float parse tells which
        else:
            if abs(n) > sys.float_info.max:
                raise DataError(f"{label}: {text!r} is not a finite number")
            return n
    try:
        f = float(text)
    except ValueError:
        raise DataError(f"{label}: {text!r} is not a number") from None
    if not math.isfinite(f):
        raise DataError(f"{label}: {text!r} is not a finite number")
    return f


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
        self._codes: dict[str, tuple[list[int], list]] = {}

    @property
    def schema(self) -> DimensionSchema:
        return self._schema

    @property
    def table(self) -> Table:
        return self._table

    def _coded(self, dim: str) -> tuple[list[int], list]:
        """``dim``'s column dictionary-encoded on first use: one int code per row, codes
        assigned in value order, and the code -> value list."""
        coded = self._codes.get(dim)
        if coded is None:
            col = self._table.column(dim)
            values = sorted(dict.fromkeys(col))
            code = {v: c for c, v in enumerate(values)}
            coded = self._codes[dim] = (list(map(code.__getitem__, col)), values)
        return coded

    def _aggregate(self, groups: Mapping[tuple, Sequence[int]],
                   request: FeatureRequest) -> FeatureFrame:
        """One row per group: each measure over the group's ascending row ids."""
        measures = [self._schema.measure(m) for m in request.metric_features]
        sources = [(m.agg, [self._table.column(s) for s in m.sources]) for m in measures]
        rows = []
        for key, ids in groups.items():
            vals = []
            for agg, cols in sources:
                if agg == "sum":
                    total = sum(map(cols[0].__getitem__, ids))
                    if type(total) is float:
                        # ``sum`` compensates floats from Python 3.12: add them again
                        # left to right in table order, so float sums keep their bytes
                        total = sum_in_order(map(cols[0].__getitem__, ids))
                    vals.append(total)
                else:
                    vals.append(len({tuple(col[i] for col in cols) for i in ids}))
            rows.append((key, tuple(vals)))
        return FeatureFrame(request.attribute_features, request.metric_features, rows)

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


def _split(coded: tuple[list[int], list], row_ids: Sequence[int]) -> dict[Any, list[int]]:
    """BUC's partition step: ``row_ids`` by their code in ``coded``, in one pass that keeps
    their order within each value; the result is in value order.

    Only the codes the rows hold get a list, so a small region of a wide dimension makes
    no list per value."""
    codes, values = coded
    parts: defaultdict[int, list[int]] = defaultdict(list)
    for i in row_ids:
        parts[codes[i]].append(i)
    return {values[c]: parts[c] for c in sorted(parts)}


class _TableCursor(RegionCursor):
    """A base-table region's row ids, ascending so that sums add in table order.

    ``_split`` is the one partition step, over the cube's coded columns.
    ``_partition(dim)`` memoises its split of the rows by ``dim``, in value order:
    ``values`` is its keys, ``child`` a lookup in it.  A view splits its rows by each
    requested attribute in turn and adds nothing to the memo.
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
            part = self._partitions[dim] = _split(self.cube._coded(dim), self.row_ids)
        return part

    def _groups(self, attrs: Sequence[str]) -> dict[tuple, Sequence[int]]:
        """The rows grouped by ``attrs``, keyed in request order: each group is split by
        each attribute in turn.  The root's grand total always exists (zero aggregates on
        an empty table); a nonempty region filtered to zero rows has no groups."""
        groups = {(): self.row_ids} if self.row_ids or not self.region.degree else {}
        for attr in attrs:
            coded = self.cube._coded(attr)
            groups = {key + (v,): ids for key, rows in groups.items()
                      for v, ids in _split(coded, rows).items()}
        return groups

    def view(self, request):
        # ``bind`` and ``child`` have checked the region's dimensions
        request.validate(self.cube.schema)
        return self.cube._aggregate(self._groups(request.attribute_features), request)

    def values(self, dim):
        return tuple(self._partition(dim))

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
        # mask index, built by the first view that groups: concrete dimension names -> cells
        self._by_mask: dict[frozenset, list[tuple]] | None = None
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
            if self._by_mask is None:
                self._by_mask = {}
                for cell in self._cells:
                    mask = frozenset(d for d, v in zip(names, cell) if v is not ANY)
                    self._by_mask.setdefault(mask, []).append(cell)
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


def build_cellset(cube: AbstractCube, dims: Sequence[str],
                  region: Region = EMPTY_REGION) -> CellsetCube:
    """Materialize every grouping set over ``dims`` of the cube at ``region`` into a cellset.

    Only value combinations observed in the data are stored; for a group-by
    cube the all-ANY cell of the whole cube always exists (zero aggregates for
    an empty base table), a nonempty region with no rows has no cells, and
    materializing a partial cellset preserves its holes.
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
            frame = cube.view(region, FeatureRequest(subset, measure_names))
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
