"""Region-lattice search over a cube.

``naive_crawl`` enumerates every region of every grouping set and is the
correctness oracle.  ``top_down_crawl`` explores the lattice from the empty
region, skipping a region's children once an apriori-flagged signal fails its
threshold.  A region's children extend it by one dimension ordered after the
ones it binds, and only where the extension is a crawl-order prefix of some
grouping set, so each region is reached once.  As in Apriori's candidate step,
a child is skipped unevaluated when one of its other one-smaller sub-regions
is known to have failed.  With ``spec.top_n`` set the same
loop finds the exact top-n regions by one apriori signal: the n-th best value
found so far acts as an apriori threshold that tightens as the crawl runs.
``topn_crawl`` is that crawl with ``top_n`` required.  Crawls run serially in
the calling thread; the ``workers`` parameter is accepted for compatibility
and ignored.
"""

from __future__ import annotations

import functools
import heapq
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
    _count,
    _flag,
    _getter,
    _mapping,
    _names,
    _sequence,
    finite_number,
    integer,
)
from .errors import AprioriViolationError, ConfigError, RefusalError, SchemaError, SpecError
from .models import (
    COMPARATORS,
    EntityMeasureModel,
    EntityModel,
    EvaluationContext,
    FrequentItemsetModel,
    IdModel,
    RegionAnalysisModel,
    _sum_column,
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
    """Crawl output: region -> signal vector, itself viewable as a cube through the
    cellset of its entries, built on first use, and that cellset's cursor."""

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
            values = _getter(self.signal_names)
            try:
                cells = {tuple(map(r.bindings().get, names, itertools.repeat(ANY))): values(s)
                         for r, s in self.entries.items()}
            except KeyError as exc:
                raise SchemaError(f"measure {exc.args[0]!r} not stored in cellset") from None
            self._cellset = CellsetCube(self._schema, cells)
        return self._cellset

    def bind(self, region):
        return self.to_cellset().bind(region)

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

    cursor: RegionCursor | None
    signals: dict[str, float]
    passed: bool
    prune: bool


# every pruned or skipped region's place in the frontier: it is never expanded, so
# the frontier holds neither its cursor nor its signals
_DOOMED = _Entry(None, {}, False, True)


def _top_n_count(n) -> int:
    """The n of a top-n crawl: an integer of at least 1."""
    if _count(n, "top-n's n") < 1:
        raise SpecError("top-n needs n >= 1")
    return n


class _Resolved:
    """A CrawlSpec validated and normalized against one cube."""

    def __init__(self, spec: CrawlSpec, cube: AbstractCube):
        schema = cube.schema
        self.models = _sequence(spec.models, "models")
        if not self.models:
            raise SpecError("a crawl needs at least one model")
        declared: dict[str, RegionAnalysisModel] = {}
        for model in self.models:
            if not isinstance(model, RegionAnalysisModel):
                raise SpecError(f"a crawl's models must be analysis models, got {model!r}")
            model.validate_against(schema)
            for s in model.signal_names:
                if s in declared:
                    raise SpecError(f"signal {s!r} declared by both "
                                    f"{declared[s].name!r} and {model.name!r}")
                declared[s] = model
        self.apriori_flags = {s: m.is_apriori(s) for s, m in declared.items()}
        self.signal_names = tuple(declared)

        # signal -> [(test, bound, prunes)]: a region fails iff not test(signal, bound),
        # and only a failed minimum on an apriori signal prunes its children
        self.thresholds: dict[str, list[tuple]] = {}
        for key, value in _mapping(spec.thresholds, "thresholds").items():
            if not isinstance(key, str):
                raise SpecError(f"a threshold is keyed by a signal name, got {key!r}")
            negated = key.startswith("-")
            name = key[1:] if negated else key
            if name not in declared:
                raise SpecError(f"threshold on undeclared signal {name!r}")
            if not finite_number(value):
                raise SpecError(f"threshold {key!r} must be a finite number, got {value!r}")
            test, is_minimum = COMPARATORS["<=" if negated else ">="]  # "-s": v is s <= -v
            bound = -float(value) if negated else float(value)
            self.thresholds.setdefault(name, []).append(
                (test, bound, is_minimum and self.apriori_flags[name]))

        # crawl dimensions
        grouping_sets = None if spec.grouping_sets is None else [
            _names(g, "a grouping_sets member")
            for g in _sequence(spec.grouping_sets, "grouping_sets")]
        if spec.dimensions is not None:
            dims = _names(spec.dimensions, "dimensions")
        elif grouping_sets is not None:
            dims = tuple(dict.fromkeys(d for g in grouping_sets for d in g))
        else:
            dims = schema.dimension_names
        for d in dims:
            schema.dimension(d)
        if len(set(dims)) != len(dims):
            raise SpecError("duplicate crawl dimension")
        self.dims = dims

        max_degree = len(dims) if spec.max_degree is None else _count(spec.max_degree, "max_degree")
        if max_degree < 0:
            raise SpecError("max_degree must be nonnegative")

        hierarchies = (schema.hierarchies if spec.hierarchies is None
                       else _sequence(spec.hierarchies, "hierarchies"))
        self.hierarchies = tuple(_names(h, "a hierarchies member") for h in hierarchies)
        for d in itertools.chain.from_iterable(self.hierarchies):
            schema.dimension(d)
        self.order = self._resolve_order(spec, cube)
        self.order_index = {d: i for i, d in enumerate(self.order)}

        # effective grouping sets: hierarchy-consistent, within max_degree
        if grouping_sets is not None:
            raw = []
            for g in grouping_sets:
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
            g for g in raw if len(g) <= max_degree and self._hierarchy_consistent(g)
        }
        # each nonempty grouping set's dimensions in crawl order, by degree and then
        # by those orders; a region is expanded only towards a prefix of one of them
        self.ordered_sets = sorted(
            (tuple(sorted(g, key=self.order_index.get)) for g in self.grouping_sets if g),
            key=lambda dims: (len(dims), [self.order_index[d] for d in dims]),
        )
        self.prefixes = {frozenset(dims[:k]) for dims in self.ordered_sets
                         for k in range(1, len(dims) + 1)}

        self.dimension_values = None
        if spec.dimension_values is not None:
            self.dimension_values = {}
            for d, values in _mapping(spec.dimension_values, "dimension_values").items():
                schema.dimension(d)
                values = _sequence(values, f"dimension_values[{d!r}]")
                try:
                    self.dimension_values[d] = set(values)
                except TypeError:
                    raise SpecError(f"dimension_values[{d!r}] holds an unhashable value, "
                                    f"got {values!r}") from None

        if spec.exploration not in ("bfs", "dfs"):
            raise SpecError(f"unknown exploration strategy {spec.exploration!r}")
        self.exploration = spec.exploration
        self.batch_size = _count(spec.batch_size, "batch_size")
        if self.batch_size < 1:
            raise SpecError("batch_size must be at least 1")

        self.top_n = None
        if spec.top_n is not None:
            top_n = _sequence(spec.top_n, "top_n")
            if len(top_n) != 2 or not isinstance(top_n[0], str):
                raise SpecError(f"top_n must be a (signal, n) pair, got {spec.top_n!r}")
            signal, n = top_n
            if signal not in declared:
                raise SpecError(f"top-n signal {signal!r} is not declared by any model")
            self.top_n = (signal, _top_n_count(n))
        self.allow_exhaustive_topn = _flag(spec.allow_exhaustive_topn, "allow_exhaustive_topn")
        if spec.naive_cap is not None:
            _count(spec.naive_cap, "naive_cap")
        self.schema = schema

    def _resolve_order(self, spec: CrawlSpec, cube: AbstractCube) -> tuple[str, ...]:
        if isinstance(spec.dimension_order, str):
            if spec.dimension_order != "ascending_cardinality":
                raise SpecError(f"unknown dimension order {spec.dimension_order!r}")
            root = cube.bind(EMPTY_REGION)
            cards = {d: len(root.values(d)) for d in self.dims}
            order = sorted(self.dims, key=lambda d: (cards[d], d))
        else:
            order = list(_names(spec.dimension_order, "dimension_order"))
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


def _population_frames(cube, resolved, instr) -> dict[RegionAnalysisModel, object]:
    frames = {}
    for model in resolved.models:
        if model.population_request is not None:
            frames[model] = cube.view(EMPTY_REGION, model.population_request)
            instr.counters["population_frames"] += 1
    return frames


def _pushdown_failures(cursor: RegionCursor, model: RegionAnalysisModel) -> list[bool]:
    """For each of ``model``'s pushdown terms that fails on its measure's SUM at
    ``cursor``, whether it prunes: only a failed minimum does."""
    measures = tuple(dict.fromkeys(t.measure for t in model.pushdown))
    frame = cursor.view(FeatureRequest((), measures))
    return [COMPARATORS[t.op][1] for t in model.pushdown
            if not t.passes(_sum_column(frame, t.measure))]


def _evaluate_region(cursor: RegionCursor, resolved: _Resolved, pop_frames: dict,
                     instr: Instrumentation) -> _Entry:
    signals: dict[str, float] = {}
    passed = True
    prune = False
    for model in resolved.models:
        # whether each failed pushdown term or threshold prunes; a failed term skips the frame
        failed = []
        if model.pushdown:
            instr.counters["pushdown_evaluations"] += 1
            failed = _pushdown_failures(cursor, model)
            if failed:
                instr.counters["pushdown_rejections"] += 1
        if not failed:
            frame = cursor.view(model.request)
            instr.counters["frames_materialized"] += 1
            instr.model_invocations[model.name] += 1
            ctx = EvaluationContext(cursor.region, frame, pop_frames.get(model))
            signals.update(model.run(ctx))
            failed = [prunes for s in model.signal_names
                      for test, bound, prunes in resolved.thresholds.get(s, ())
                      if not test(signals[s], bound)]
        if failed:
            passed = False
            prune = prune or any(failed)
            if model.gate:
                break
    return _Entry(cursor, signals, passed, prune)


def _children(cursor: RegionCursor, resolved: _Resolved) -> list[tuple[str, list]]:
    """Each dimension a crawl refines ``cursor``'s region by, with its allowed values."""
    bound = frozenset(cursor.region.dims)
    last = max((resolved.order_index[d] for d in bound), default=-1)
    out = []
    for dim in resolved.order[last + 1:]:
        # every dim bound so far is ordered before dim, so a grouping set stays
        # reachable iff the extension is one of its crawl-order prefixes
        if bound | {dim} in resolved.prefixes:
            out.append((dim, [v for v in cursor.values(dim) if resolved.value_allowed(dim, v)]))
    return out


def region_children(region: Region, spec: CrawlSpec, cube: AbstractCube) -> list[Region]:
    """The regions a crawl would reach below ``region`` (one new binding each), whether
    it evaluates them or skips them."""
    resolved = _Resolved(spec, cube)
    return [region.with_binding(dim, v)
            for dim, values in _children(cube.bind(region), resolved) for v in values]


def apply_pushdown(model: RegionAnalysisModel, cube: AbstractCube, region: Region) -> bool:
    """Evaluate a model's pushdown predicate from SUM aggregates only."""
    if not model.pushdown:
        raise SpecError(f"model {model.name!r} declares no pushdown predicate")
    model.validate_against(cube.schema)
    return not _pushdown_failures(cube.bind(region), model)


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

    The regions of a grouping set are the rows of one view of it, so the crawl is
    exact over a partial cube too.  Each region's cursor is its prefix cursor's
    child, the prefix binding the region's dimensions but the last in crawl order.
    Cursors are kept while their dimensions lead the grouping set in hand, so a
    grouping set's regions share their prefixes' splits and a crawl holds one chain
    of prefixes, not the lattice.  With ``spec.top_n`` set, the passing regions are
    ranked by ``exhaustive_top_n``.  ``workers`` is ignored.
    """
    instr = instrumentation or Instrumentation()
    resolved = _Resolved(spec, cube)
    cap = _safety_cap(spec)

    # each grouping set's dimensions in crawl order, with its regions as bindings
    by_set: list[tuple[tuple, list[tuple]]] = [((), [()])]
    for dims in resolved.ordered_sets:
        frame = cube.view(EMPTY_REGION, FeatureRequest(dims, ()))
        by_set.append((dims, [
            tuple(zip(dims, attrs)) for attrs, _ in frame.iter_rows()
            if all(resolved.value_allowed(d, v) for d, v in zip(dims, attrs))
        ]))
    n_regions = sum(len(regions) for _, regions in by_set)
    if n_regions > cap:
        raise RefusalError(
            f"naive enumeration of {n_regions} regions exceeds the safety cap "
            f"of {cap} (set {SAFETY_CAP_ENV} to raise it)"
        )

    cursors: dict[tuple, RegionCursor] = {(): cube.bind(EMPTY_REGION)}

    def cursor_of(bindings: tuple) -> RegionCursor:
        cursor = cursors.get(bindings)
        if cursor is None:
            cursor = cursors[bindings] = cursor_of(bindings[:-1]).child(*bindings[-1])
        return cursor

    pop_frames = _population_frames(cube, resolved, instr)
    entries: dict[Region, dict[str, float]] = {}
    for dims, regions in by_set:
        # keep the cursors on this set's chain of prefixes; the sets of one degree
        # that share a prefix are adjacent
        cursors = {b: c for b, c in cursors.items()
                   if tuple(d for d, _ in b) == dims[:len(b)]}
        for bindings in regions:
            cursor = cursor_of(bindings)
            region = cursor.region
            entry = _evaluate_region(cursor, resolved, pop_frames, instr)
            instr.counters["regions_evaluated"] += 1
            if entry.passed and resolved.emits(region):
                entries[region] = entry.signals
                instr.counters["regions_emitted"] += 1
    result = ResultCube(resolved.dims, resolved.signal_names, entries, resolved.schema)
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
    rest are evaluated and pushed.  A child is skipped unevaluated when a
    one-smaller sub-region of it other than its parent was pruned or skipped,
    or, in a top-n crawl, has its sigma below the current threshold: an apriori
    signal never rises under refinement, so neither the child nor a region
    below it could be emitted.  A sub-region not reached yet (in DFS, or
    outside the grouping-set prefixes) skips nothing.
    ``regions_skipped`` counts the skips.  With ``spec.top_n = (sigma, n)`` the pool
    of recorded regions is cut to its n best after each batch, and the
    threshold is the n-th best sigma; ties break by canonical region key, as
    in ``exhaustive_top_n``.  An entry cut from the pool never returns, since
    later entries only raise the n-th place.  A
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
    # each region's key is computed once, however often the pool is cut
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
        return _DOOMED if entry.prune else entry

    threshold = -math.inf
    # (region items, dim) -> value -> outcome of the region's child dim=value: None if
    # that child failed (pruned or skipped), else, in a top-n crawl, its sigma
    outcomes: dict[tuple, dict] = {}

    def expand(parent: _Entry) -> list[_Entry]:
        cursor = parent.cursor
        items = cursor.region.items()
        children = []
        for dim, values in _children(cursor, resolved):
            # each other one-smaller sub-region of a child drops a binding of the parent;
            # dim is ordered after it, so it was that smaller region's child along dim
            known = (outcomes.get((items[:i] + items[i + 1:], dim), {})
                     for i in range(len(items)))
            doomed = {v for k in known for v, o in k.items() if o is None or o < threshold}
            mine = {}
            for value in values:
                if value in doomed:
                    instr.counters["regions_skipped"] += 1
                    child = _DOOMED
                else:
                    child = evaluate(cursor.child(dim, value), parent)
                if child is _DOOMED:
                    mine[value] = None
                elif sigma in child.signals:
                    mine[value] = child.signals[sigma]
                children.append(child)
            if mine:
                outcomes[items, dim] = mine
        return children

    # pending regions: a stack gives DFS, a queue BFS.  No set of seen regions
    # is kept: ``_children`` binds only dimensions ordered after a region's
    # last bound one, so every region has exactly one parent.  A pruned or
    # skipped child keeps its own frontier slot as the shared ``_DOOMED`` entry.
    # A skipped region is never expanded, so where it failed only a non-pruning
    # gate, the children its evaluation would have pushed take no later slots.
    frontier = deque([evaluate(cube.bind(EMPTY_REGION), None)])
    pop = frontier.pop if resolved.exploration == "dfs" else frontier.popleft
    while frontier:
        for entry in [pop() for _ in range(min(resolved.batch_size, len(frontier)))]:
            if entry.prune or entry.signals.get(sigma, threshold) < threshold:
                continue
            frontier.extend(expand(entry))
        if sigma is not None and len(entries) >= n:
            best = _best(entries, sigma, n, region_key)
            entries, threshold = dict(best), best[-1][1][sigma]

    if sigma is not None:
        entries = dict(_best(entries, sigma, n, region_key))
        if entries:  # like the threshold crawl, write no counter for zero regions
            instr.counters["regions_emitted"] += len(entries)
    return ResultCube(resolved.dims, resolved.signal_names, entries, resolved.schema)


def topn_crawl(cube: AbstractCube, spec: CrawlSpec, workers: int = 1,
               instrumentation: Instrumentation | None = None) -> ResultCube:
    """Exact top-n regions by one apriori signal: ``top_down_crawl`` with ``top_n`` required."""
    if spec.top_n is None:
        raise SpecError("topn_crawl needs spec.top_n")
    return top_down_crawl(cube, spec, instrumentation=instrumentation)


def _best(entries: Mapping[Region, Mapping[str, float]], sigma: str, n: int,
          key) -> list[tuple[Region, Mapping[str, float]]]:
    """The n best entries, best first by ``sigma``, ties broken by ``key(region)``.

    Only the entries at or above the n-th best sigma are ranked.
    """
    nth = min(heapq.nlargest(n, (s[sigma] for s in entries.values())), default=0.0)
    top = [kv for kv in entries.items() if kv[1][sigma] >= nth]
    return sorted(top, key=lambda kv: (-kv[1][sigma], key(kv[0])))[:n]


def exhaustive_top_n(result: ResultCube, sigma: str, n: int) -> ResultCube:
    """Rank an exhaustive crawl's entries by one signal and keep the best n.

    Ties break by canonical region key ascending, matching ``top_down_crawl``.
    """
    best = _best(result.entries, sigma, _top_n_count(n), result.schema.region_key)
    return ResultCube(result.dimensions, result.signal_names, dict(best), result.schema)


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
    if concrete and all(integer(v) for v in concrete):
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
