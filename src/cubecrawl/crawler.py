"""Region-lattice search over a cube.

``naive_crawl`` enumerates every region of every grouping set and is the
correctness oracle.  ``top_down_crawl`` explores the lattice from the empty
region, skipping a region's children once an apriori-flagged signal fails its
threshold.  With ``spec.top_n`` set the same loop finds the exact top-n
regions by one apriori signal: the n-th best value found so far acts as an
apriori threshold that tightens as the crawl runs.  ``topn_crawl`` is that
crawl with ``top_n`` required.  Crawls run serially in the calling thread;
the ``workers`` parameter is accepted for compatibility and ignored.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import (
    ANY,
    EMPTY_REGION,
    AbstractCube,
    CellsetCube,
    Dimension,
    DimensionSchema,
    FeatureRequest,
    Instrumentation,
    Measure,
    Region,
    RegionCursor,
    Table,
)
from .errors import AprioriViolationError, ConfigError, RefusalError, SchemaError, SpecError
from .models import (
    PRUNING_OPS,
    EntityMeasureModel,
    EntityModel,
    EvaluationContext,
    FrequentItemsetModel,
    IdModel,
    RegionAnalysisModel,
)

DEFAULT_SAFETY_CAP = 1_000_000
SAFETY_CAP_ENV = "HOCA_SAFETY_CAP"


@dataclass
class CrawlSpec:
    """Declarative description of one crawl.

    ``thresholds`` maps signal name -> minimum value (emit iff signal >=
    threshold).  A key prefixed with ``-`` thresholds the negated signal,
    which expresses a maximum; negated thresholds never prune.
    ``dimension_values`` optionally restricts which values of a dimension are
    enumerated (e.g. indicator dimensions crawled only at 1).  ``batch_size``
    is the number of frontier entries expanded between two tightenings of the
    top-n threshold; without ``top_n`` it does not change the result or the
    work done.  ``naive_cap`` bounds how many regions ``naive_crawl`` may
    enumerate (default: the ``HOCA_SAFETY_CAP`` environment variable, else
    one million).
    """

    models: Sequence[RegionAnalysisModel]
    dimensions: Sequence[str] | None = None
    grouping_sets: Sequence[Sequence[str]] | None = None
    thresholds: Mapping[str, float] = field(default_factory=dict)
    top_n: tuple[str, int] | None = None
    exploration: str = "bfs"
    dimension_order: Sequence[str] | str = "ascending_cardinality"
    hierarchies: Sequence[Sequence[str]] | None = None
    max_degree: int | None = None
    dimension_values: Mapping[str, Sequence] | None = None
    batch_size: int = 64
    allow_exhaustive_topn: bool = False
    naive_cap: int | None = None


class ResultCube(AbstractCube):
    """Crawl output: region -> signal vector, itself viewable as a cube."""

    def __init__(self, dimensions: Sequence[str], signal_names: Sequence[str],
                 entries: Mapping[Region, Mapping[str, float]], source_schema: DimensionSchema):
        self.dimensions = tuple(dimensions)
        self.signal_names = tuple(signal_names)
        self.entries: dict[Region, dict[str, float]] = {r: dict(s) for r, s in entries.items()}
        dims = tuple(d for d in source_schema.dimensions if d.name in self.dimensions)
        self._schema = DimensionSchema(dims, tuple(Measure.sum(s) for s in self.signal_names))
        self._cellset: CellsetCube | None = None

    @property
    def schema(self) -> DimensionSchema:
        return self._schema

    def to_cellset(self) -> CellsetCube:
        if self._cellset is None:
            names = self._schema.dimension_names
            cells = {}
            for region, signals in self.entries.items():
                bindings = region.bindings()
                cell = tuple(bindings.get(d, ANY) for d in names)
                try:
                    cells[cell] = tuple(signals[s] for s in self.signal_names)
                except KeyError as exc:
                    raise SchemaError(f"measure {exc.args[0]!r} not stored in cellset") from None
            self._cellset = CellsetCube(self._schema, cells)
        return self._cellset

    def view(self, region, request):
        return self.to_cellset().view(region, request)

    def records(self) -> list[tuple[Region, dict[str, float]]]:
        """Entries in insertion order; ``sorted_records`` gives canonical order."""
        return [(r, dict(self.entries[r])) for r in self.entries]

    def sorted_records(self) -> list[tuple[Region, dict[str, float]]]:
        regions = self._schema.sort_regions(self.entries)
        return [(r, dict(self.entries[r])) for r in regions]

    def __eq__(self, other):
        return isinstance(other, ResultCube) and self.entries == other.entries

    def __repr__(self):
        return f"ResultCube({len(self.entries)} regions, signals={self.signal_names})"


@dataclass(slots=True)
class _Entry:
    """An evaluated region: its cursor, signals, and threshold outcome."""

    cursor: RegionCursor
    signals: dict[str, float]
    passed: bool
    prune: bool


class _Resolved:
    """A CrawlSpec validated and normalized against one cube."""

    def __init__(self, spec: CrawlSpec, cube: AbstractCube):
        schema = cube.schema
        self.models = tuple(spec.models)
        if not self.models:
            raise SpecError("a crawl needs at least one model")
        declared: dict[str, RegionAnalysisModel] = {}
        for model in self.models:
            model.validate_against(schema)
            for s in model.signal_names:
                if s in declared:
                    raise SpecError(f"signal {s!r} declared by both "
                                    f"{declared[s].name!r} and {model.name!r}")
                declared[s] = model
        self.apriori_flags = {s: m.is_apriori(s) for s, m in declared.items()}

        self.min_thresholds: dict[str, float] = {}
        self.neg_thresholds: dict[str, float] = {}
        for key, value in dict(spec.thresholds).items():
            name = key[1:] if key.startswith("-") else key
            if name not in declared:
                raise SpecError(f"threshold on undeclared signal {name!r}")
            try:
                number = float(value)
            except (TypeError, ValueError, OverflowError):
                number = math.nan
            if not math.isfinite(number):
                raise SpecError(f"threshold {key!r} must be a finite number, got {value!r}")
            if key.startswith("-"):
                self.neg_thresholds[name] = number
            else:
                self.min_thresholds[name] = number

        # crawl dimensions
        if spec.dimensions is not None:
            dims = tuple(spec.dimensions)
        elif spec.grouping_sets is not None:
            seen: list[str] = []
            for g in spec.grouping_sets:
                for d in g:
                    if d not in seen:
                        seen.append(d)
            dims = tuple(seen)
        else:
            dims = schema.dimension_names
        for d in dims:
            schema.dimension(d)
        if len(set(dims)) != len(dims):
            raise SpecError("duplicate crawl dimension")
        self.dims = dims

        self.max_degree = spec.max_degree if spec.max_degree is not None else len(dims)
        if self.max_degree < 0:
            raise SpecError("max_degree must be nonnegative")

        self.hierarchies = tuple(
            tuple(h) for h in (spec.hierarchies if spec.hierarchies is not None
                               else schema.hierarchies)
        )
        self.order = self._resolve_order(spec, cube)
        self.order_index = {d: i for i, d in enumerate(self.order)}

        # effective grouping sets: hierarchy-consistent, within max_degree
        if spec.grouping_sets is not None:
            raw = []
            for g in spec.grouping_sets:
                g = tuple(g)
                for d in g:
                    if d not in dims:
                        raise SpecError(f"grouping set member {d!r} is not a crawl dimension")
                if len(set(g)) != len(g):
                    raise SpecError(f"grouping set {g} repeats a dimension")
                raw.append(frozenset(g))
        else:
            raw = [frozenset(c) for k in range(len(dims) + 1)
                   for c in itertools.combinations(dims, k)]
        self.grouping_sets = {
            g for g in raw if len(g) <= self.max_degree and self._hierarchy_consistent(g)
        }

        self.dimension_values = None
        if spec.dimension_values is not None:
            self.dimension_values = {}
            for d, values in spec.dimension_values.items():
                schema.dimension(d)
                self.dimension_values[d] = set(values)

        if spec.exploration not in ("bfs", "dfs"):
            raise SpecError(f"unknown exploration strategy {spec.exploration!r}")
        self.exploration = spec.exploration
        if spec.batch_size < 1:
            raise SpecError("batch_size must be at least 1")
        self.batch_size = int(spec.batch_size)

        self.top_n = None
        if spec.top_n is not None:
            signal, n = spec.top_n
            if signal not in declared:
                raise SpecError(f"top-n signal {signal!r} is not declared by any model")
            if int(n) < 1:
                raise SpecError("top-n needs n >= 1")
            self.top_n = (signal, int(n))
        self.allow_exhaustive_topn = bool(spec.allow_exhaustive_topn)
        self.schema = schema

    def _resolve_order(self, spec: CrawlSpec, cube: AbstractCube) -> tuple[str, ...]:
        if isinstance(spec.dimension_order, str):
            if spec.dimension_order != "ascending_cardinality":
                raise SpecError(f"unknown dimension order {spec.dimension_order!r}")
            cards = {d: len(cube.region_values(EMPTY_REGION, d)) for d in self.dims}
            order = sorted(self.dims, key=lambda d: (cards[d], d))
        else:
            order = list(spec.dimension_order)
            if sorted(order) != sorted(self.dims):
                raise SpecError("dimension_order must list exactly the crawl dimensions")
        # hierarchy chains must appear coarse-to-fine in the order
        constraints = []
        for chain in self.hierarchies:
            members = [d for d in chain if d in self.dims]
            constraints.extend(zip(members, members[1:]))
        if not constraints:
            return tuple(order)
        placed: list[str] = []
        remaining = list(order)
        while remaining:
            for d in remaining:
                if all(a in placed for a, b in constraints if b == d):
                    placed.append(d)
                    remaining.remove(d)
                    break
            else:
                raise SpecError("hierarchy chains are cyclic")
        return tuple(placed)

    def _hierarchy_consistent(self, group: frozenset) -> bool:
        for chain in self.hierarchies:
            for i, d in enumerate(chain):
                if d in group and not all(p in group for p in chain[:i]):
                    return False
        return True

    def emits(self, region: Region) -> bool:
        return frozenset(region.dims) in self.grouping_sets

    def value_allowed(self, dim: str, value) -> bool:
        if self.dimension_values is None:
            return True
        allowed = self.dimension_values.get(dim)
        return allowed is None or value in allowed


def _population_frames(cube, resolved, instr) -> dict[str, object]:
    frames = {}
    for model in resolved.models:
        if model.population_request is not None:
            frames[model.name] = cube.view(EMPTY_REGION, model.population_request)
            instr.counters["population_frames"] += 1
    return frames


def _pushdown_passes(cursor: RegionCursor, model: RegionAnalysisModel) -> bool:
    """True iff each of ``model``'s pushdown terms passes on its measure's SUM at ``cursor``."""
    measures = tuple(dict.fromkeys(t.measure for t in model.pushdown))
    frame = cursor.view(FeatureRequest((), measures))
    return all(t.passes(sum(frame.measure_column(t.measure))) for t in model.pushdown)


def _evaluate_region(cursor: RegionCursor, resolved: _Resolved, pop_frames: dict,
                     instr: Instrumentation) -> _Entry:
    signals: dict[str, float] = {}
    passed = True
    prune = False
    for model in resolved.models:
        if model.pushdown:
            instr.counters["pushdown_evaluations"] += 1
            if not _pushdown_passes(cursor, model):
                instr.counters["pushdown_rejections"] += 1
                passed = False
                if any(t.op in PRUNING_OPS for t in model.pushdown):
                    prune = True
                if model.gate:
                    break
                continue
        frame = cursor.view(model.request)
        instr.counters["frames_materialized"] += 1
        instr.model_invocations[model.name] += 1
        ctx = EvaluationContext(cursor.region, frame, pop_frames.get(model.name))
        signals.update(model.run(ctx))
        model_failed = False
        for s in model.signal_names:
            t = resolved.min_thresholds.get(s)
            if t is not None and signals[s] < t:
                passed = False
                model_failed = True
                if resolved.apriori_flags.get(s, False):
                    prune = True
            nt = resolved.neg_thresholds.get(s)
            if nt is not None and -signals[s] < nt:
                passed = False
                model_failed = True
        if model.gate and model_failed:
            break
    # thresholds on signals a gate or pushdown skipped can never pass
    for s in itertools.chain(resolved.min_thresholds, resolved.neg_thresholds):
        if s not in signals:
            passed = False
    return _Entry(cursor, signals, passed, prune)


def _children(cursor: RegionCursor, resolved: _Resolved) -> list[RegionCursor]:
    region = cursor.region
    bound = frozenset(region.dims)
    if len(bound) >= resolved.max_degree:
        return []
    last = max((resolved.order_index[d] for d in bound), default=-1)
    out = []
    for i in range(last + 1, len(resolved.order)):
        dim = resolved.order[i]
        extended = bound | {dim}
        # a grouping set must remain reachable by adding only later-ordered dims;
        # grouping sets are hierarchy-consistent and the order puts each chain
        # coarse-to-fine, so this also requires dim's hierarchy parents bound
        reachable = any(
            extended <= g and all(resolved.order_index[x] > i for x in g - extended)
            for g in resolved.grouping_sets
        )
        if not reachable:
            continue
        for value in cursor.values(dim):
            if not resolved.value_allowed(dim, value):
                continue
            out.append(cursor.child(dim, value))
    return out


def region_children(region: Region, spec: CrawlSpec, cube: AbstractCube) -> list[Region]:
    """The regions a crawl would enqueue below ``region`` (one new binding each)."""
    resolved = _Resolved(spec, cube)
    return [c.region for c in _children(cube.bind(region), resolved)]


def apply_pushdown(model: RegionAnalysisModel, cube: AbstractCube, region: Region) -> bool:
    """Evaluate a model's pushdown predicate from SUM aggregates only."""
    if not model.pushdown:
        raise SpecError(f"model {model.name!r} declares no pushdown predicate")
    model.validate_against(cube.schema)
    return _pushdown_passes(cube.bind(region), model)


def _signal_names(resolved: _Resolved) -> tuple[str, ...]:
    names: list[str] = []
    for model in resolved.models:
        names.extend(model.signal_names)
    return tuple(names)


def _safety_cap(spec: CrawlSpec) -> int:
    if spec.naive_cap is not None:
        return spec.naive_cap
    raw = os.environ.get(SAFETY_CAP_ENV, str(DEFAULT_SAFETY_CAP))
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SAFETY_CAP_ENV} must be an integer, got {raw!r}") from None


def naive_crawl(cube: AbstractCube, spec: CrawlSpec, workers: int = 1,
                instrumentation: Instrumentation | None = None) -> ResultCube:
    """Evaluate every observed region of every grouping set (plus the root).

    With ``spec.top_n`` set, the passing regions are ranked by
    ``exhaustive_top_n``.  ``workers`` is ignored.
    """
    instr = instrumentation or Instrumentation()
    resolved = _Resolved(spec, cube)
    cap = _safety_cap(spec)

    ordered_sets = sorted(
        (g for g in resolved.grouping_sets if g),
        key=lambda g: (len(g), tuple(sorted(resolved.order_index[d] for d in g))),
    )
    regions: list[Region] = [EMPTY_REGION]
    for g in ordered_sets:
        dims = tuple(sorted(g, key=resolved.order_index.get))
        frame = cube.view(EMPTY_REGION, FeatureRequest(dims, ()))
        for attrs, _ in frame.iter_rows():
            if all(resolved.value_allowed(d, v) for d, v in zip(dims, attrs)):
                regions.append(Region(zip(dims, attrs)))
    if len(regions) > cap:
        raise RefusalError(
            f"naive enumeration of {len(regions)} regions exceeds the safety cap "
            f"of {cap} (set {SAFETY_CAP_ENV} to raise it)"
        )

    pop_frames = _population_frames(cube, resolved, instr)
    entries: dict[Region, dict[str, float]] = {}
    for region in regions:
        entry = _evaluate_region(cube.bind(region), resolved, pop_frames, instr)
        instr.counters["regions_evaluated"] += 1
        if entry.passed and resolved.emits(region):
            entries[region] = entry.signals
            instr.counters["regions_emitted"] += 1
    result = ResultCube(resolved.dims, _signal_names(resolved), entries, resolved.schema)
    if resolved.top_n is not None:
        result = exhaustive_top_n(result, *resolved.top_n)
    return result


def top_down_crawl(cube: AbstractCube, spec: CrawlSpec, workers: int = 1,
                   instrumentation: Instrumentation | None = None,
                   validate_apriori: bool = False) -> ResultCube:
    """Lattice exploration with apriori early stopping.

    The frontier holds evaluated regions.  Each batch of ``spec.batch_size``
    entries is popped; an entry that an apriori signal pruned, or whose top-n
    signal is below the current threshold, is skipped, and the children of the
    rest are evaluated and pushed.  With ``spec.top_n = (sigma, n)`` the
    threshold is the n-th best sigma recorded so far, re-ranked after each
    batch; ties break by canonical region key, as in ``exhaustive_top_n``.  A
    non-apriori sigma falls back to ``naive_crawl`` when
    ``spec.allow_exhaustive_topn`` is set.  ``workers`` is ignored.
    """
    instr = instrumentation or Instrumentation()
    resolved = _Resolved(spec, cube)
    sigma, n = resolved.top_n or (None, 0)
    if sigma is not None and not resolved.apriori_flags.get(sigma, False):
        if not resolved.allow_exhaustive_topn:
            raise SpecError(
                f"top-n signal {sigma!r} is not apriori; "
                "set allow_exhaustive_topn to fall back to exhaustive search"
            )
        return naive_crawl(cube, spec, instrumentation=instr)

    pop_frames = _population_frames(cube, resolved, instr)
    # each region's key is computed once, however often the pool is re-ranked
    region_key = functools.lru_cache(maxsize=None)(resolved.schema.region_key)
    entries: dict[Region, dict[str, float]] = {}

    def evaluate(cursor: RegionCursor, parent: _Entry | None) -> _Entry:
        entry = _evaluate_region(cursor, resolved, pop_frames, instr)
        instr.counters["regions_evaluated"] += 1
        if validate_apriori and parent is not None:
            for s, flag in resolved.apriori_flags.items():
                if (flag and s in entry.signals and s in parent.signals
                        and entry.signals[s] > parent.signals[s] + 1e-9):
                    raise AprioriViolationError(
                        f"signal {s!r} rose from {parent.signals[s]!r} to "
                        f"{entry.signals[s]!r} at {cursor.region!r}"
                    )
        if entry.passed and resolved.emits(cursor.region):
            entries[cursor.region] = entry.signals
            if sigma is None:
                instr.counters["regions_emitted"] += 1
        return entry

    threshold = -math.inf
    # pending regions: a stack gives DFS, a queue BFS.  No set of seen regions
    # is kept: ``_children`` binds only dimensions ordered after a region's
    # last bound one, so every region has exactly one parent.
    frontier = deque([evaluate(cube.bind(EMPTY_REGION), None)])
    pop = frontier.pop if resolved.exploration == "dfs" else frontier.popleft
    while frontier:
        for entry in [pop() for _ in range(min(resolved.batch_size, len(frontier)))]:
            if entry.prune or entry.signals.get(sigma, threshold) < threshold:
                continue
            frontier.extend([evaluate(c, entry) for c in _children(entry.cursor, resolved)])
        if sigma is not None and len(entries) >= n:
            ranked = _ranked(entries, sigma, region_key)
            threshold = ranked[n - 1][1][sigma]
            # entries strictly below the n-th value can never re-enter the top n
            for region, signals in ranked[n:]:
                if signals[sigma] < threshold:
                    del entries[region]

    if sigma is not None:
        entries = dict(_ranked(entries, sigma, region_key)[:n])
        if entries:  # like the threshold crawl, write no counter for zero regions
            instr.counters["regions_emitted"] += len(entries)
    return ResultCube(resolved.dims, _signal_names(resolved), entries, resolved.schema)


def topn_crawl(cube: AbstractCube, spec: CrawlSpec, workers: int = 1,
               instrumentation: Instrumentation | None = None) -> ResultCube:
    """Exact top-n regions by one apriori signal: ``top_down_crawl`` with ``top_n`` required."""
    if spec.top_n is None:
        raise SpecError("topn_crawl needs spec.top_n")
    return top_down_crawl(cube, spec, instrumentation=instrumentation)


def _ranked(entries: Mapping[Region, Mapping[str, float]], sigma: str,
            region_key) -> list[tuple[Region, Mapping[str, float]]]:
    """Entries best first by ``sigma``, ties broken by region key ascending."""
    return sorted(entries.items(), key=lambda kv: (-kv[1][sigma], region_key(kv[0])))


def exhaustive_top_n(result: ResultCube, sigma: str, n: int) -> ResultCube:
    """Rank an exhaustive crawl's entries by one signal and keep the best n.

    Ties break by canonical region key ascending, matching ``top_down_crawl``.
    """
    ranked = _ranked(result.entries, sigma, result.schema.region_key)[:n]
    return ResultCube(result.dimensions, result.signal_names, dict(ranked), result.schema)


# ---------------------------------------------------------------------------
# Frequent itemset mining harness
# ---------------------------------------------------------------------------

def transactions_to_table(transactions: Sequence[Iterable]) -> tuple[Table, DimensionSchema]:
    """Encode transactions as one row per transaction-item pair.

    Each item becomes an integer indicator dimension carrying the whole
    transaction's membership, and ``support`` counts distinct transaction ids.
    """
    txns = [frozenset(t) for t in transactions]
    items = sorted({item for t in txns for item in t})
    columns: dict[str, list] = {"tid": []}
    for item in items:
        columns[item] = []
    for tid, txn in enumerate(txns):
        for item in sorted(txn):
            columns["tid"].append(f"t{tid}")
            for other in items:
                columns[other].append(1 if other in txn else 0)
    table = Table(columns)
    schema = DimensionSchema(
        tuple(Dimension(item, "integer") for item in items),
        (Measure.count_distinct("support", "tid"),),
    )
    return table, schema


def fim_crawl_spec(cube: AbstractCube, min_support: int, batch_size: int = 64) -> CrawlSpec:
    """Crawl spec whose result regions are exactly the frequent itemsets.

    Items are ordered by ascending support (rare items first) so failing items
    prune as much of the lattice as possible; only the =1 indicator value is
    enumerated, and the empty itemset is not emitted.
    """
    items = cube.schema.dimension_names
    supports = {}
    for item in items:
        frame = cube.view(Region({item: 1}), FeatureRequest((), ("support",)))
        supports[item] = frame.value("support")
    order = sorted(items, key=lambda d: (supports[d], d))
    grouping_sets = [
        c for k in range(1, len(items) + 1) for c in itertools.combinations(items, k)
    ]
    return CrawlSpec(
        models=[FrequentItemsetModel()],
        dimensions=items,
        grouping_sets=grouping_sets,
        thresholds={"support": float(min_support)},
        dimension_order=order,
        dimension_values={item: [1] for item in items},
        batch_size=batch_size,
    )


def frequent_itemsets(transactions: Sequence[Iterable], min_support: int,
                      mode: str = "pruned",
                      instrumentation: Instrumentation | None = None) -> dict[frozenset, int]:
    """Mine frequent itemsets by cube crawling; returns itemset -> support."""
    from .core import BaseTableGroupByCube

    table, schema = transactions_to_table(transactions)
    cube = BaseTableGroupByCube(table, schema)
    spec = fim_crawl_spec(cube, min_support)
    if mode == "pruned":
        result = top_down_crawl(cube, spec, instrumentation=instrumentation)
    elif mode == "naive":
        result = naive_crawl(cube, spec, instrumentation=instrumentation)
    else:
        raise SpecError(f"unknown mode {mode!r}")
    return {
        frozenset(region.dims): int(signals["support"])
        for region, signals in result.entries.items()
    }


# ---------------------------------------------------------------------------
# Functional dependency verification harness
# ---------------------------------------------------------------------------

def _infer_dimension(name: str, values: Sequence) -> Dimension:
    concrete = [v for v in values if v is not None]
    if concrete and all(isinstance(v, bool) for v in concrete):
        return Dimension(name, "boolean")
    if concrete and all(isinstance(v, int) and not isinstance(v, bool) for v in concrete):
        return Dimension(name, "integer")
    return Dimension(name, "string")


def fd_violations(table: Table, determinants: Sequence[str], dependents: Sequence[str],
                  approach: int = 1,
                  instrumentation: Instrumentation | None = None) -> ResultCube:
    """Regions of the determinant grouping set with more than one dependent tuple.

    Three equivalent encodings: (1) a COUNT_DISTINCT measure over the
    dependent columns read through an id model, (2) an entity-counting model
    grouping by the dependent columns, (3) the same with a constant-one SUM
    measure attached to each entity row.
    """
    determinants = tuple(determinants)
    dependents = tuple(dependents)
    from .core import BaseTableGroupByCube

    if approach == 1:
        dims = tuple(_infer_dimension(d, table.column(d)) for d in determinants)
        schema = DimensionSchema(dims, (Measure.count_distinct("distinct_target_count", *dependents),))
        model = IdModel(("distinct_target_count",))
        thresholds = {"distinct_target_count": 2.0}
    elif approach == 2:
        dims = tuple(_infer_dimension(d, table.column(d)) for d in determinants + dependents)
        schema = DimensionSchema(dims, ())
        model = EntityModel(dependents)
        thresholds = {"entity_count": 2.0}
    elif approach == 3:
        table = table.with_constant("const_one", 1)
        dims = tuple(_infer_dimension(d, table.column(d)) for d in determinants + dependents)
        schema = DimensionSchema(dims, (Measure.sum("const_one"),))
        model = EntityMeasureModel(dependents, "const_one")
        thresholds = {"entity_count": 2.0}
    else:
        raise SpecError(f"unknown approach {approach!r}")
    cube = BaseTableGroupByCube(table, schema)
    spec = CrawlSpec(
        models=[model],
        dimensions=determinants,
        grouping_sets=[determinants],
        thresholds=thresholds,
    )
    return top_down_crawl(cube, spec, instrumentation=instrumentation)


def fd_holds(table: Table, determinants: Sequence[str], dependents: Sequence[str],
             approach: int = 1) -> bool:
    """True iff the functional dependency determinants -> dependents holds."""
    return not fd_violations(table, determinants, dependents, approach).entries
