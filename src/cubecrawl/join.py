"""Joining two cubes on shared dimensions.

Both strategies run one hash join of (attributes, measures) rows on their
join-dimension values, ``_join_rows``.  The LOCAL strategy defers all work:
``bind`` gives a ``_JoinCursor`` over each side's cursor at its projection of
the region, and each view joins the rows of both sides' views.  The GLOBAL
strategy joins once, at construction, the cells of each side's ``to_cellset()``
(a cellset side as it is, any other cube built once), with ANY a key value like
any other (Gray et al.'s ALL): each left cell meets exactly the right cells that
the LOCAL view at the union of their masks joins it with.  Every later view is a
cellset lookup, and ``bind`` gives the joined cellset's own cursor, so both
strategies answer every (region, request) identically.  Measures are named with
their side's prefix: ``JoinedCube.view`` also resolves an unambiguous
unprefixed name, and a cursor of either strategy takes prefixed names only.

View semantics: each side is aggregated at its own granularity and the frames
are joined on the join dimensions that appear among the requested attributes.
Join dimensions left out of a request are pre-aggregated on both sides before
combining.  In a left join, rows without a right match carry ``None`` in
right measure columns (models must opt into handling that sentinel); since
such rows have no right-side values at all, they drop out of any view whose
region or attributes touch a right-only dimension.  Over cells, a left cell
whose key has no right cell with every right-only value ANY joins ANY and
``None``, which holds for a partial right cellset with holes too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ANY,
    EMPTY_REGION,
    AbstractCube,
    CellsetCube,
    DimensionSchema,
    FeatureFrame,
    FeatureRequest,
    Instrumentation,
    Measure,
    Region,
    RegionCursor,
    _getter,
    _sequence,
)
from .errors import JoinError, RequestError, SchemaError, SpecError


@dataclass(frozen=True)
class JoinSpec:
    """Shared key dimensions, per-side measure prefixes, and the join kind."""

    on: tuple[str, ...]
    left_prefix: str = "left"
    right_prefix: str = "right"
    kind: str = "inner"

    def __post_init__(self):
        object.__setattr__(self, "on", _sequence(self.on, "join dimensions 'on'"))
        if not self.on:
            raise SpecError("join needs at least one join dimension")
        for value in self.on + (self.left_prefix, self.right_prefix):
            if not isinstance(value, str):
                raise SpecError(f"join dimensions and prefixes are strings, got {value!r}")
        if self.kind not in ("inner", "left"):
            raise SpecError(f"unknown join kind {self.kind!r}")
        if not self.left_prefix or not self.right_prefix or self.left_prefix == self.right_prefix:
            raise SpecError("join sides need two distinct non-empty prefixes")


class JoinedCube(AbstractCube):
    """Two cubes melded on their join dimensions; strategy LOCAL or GLOBAL."""

    def __init__(self, left: AbstractCube, right: AbstractCube, spec: JoinSpec,
                 strategy: str = "local", instrumentation: Instrumentation | None = None):
        if strategy not in ("local", "global"):
            raise SpecError(f"unknown join strategy {strategy!r}")
        self.left = left
        self.right = right
        self.spec = spec
        self.strategy = strategy
        self.counters = (instrumentation or Instrumentation()).counters

        left_schema, right_schema = left.schema, right.schema
        for name in spec.on:
            try:
                ld = left_schema.dimension(name)
                rd = right_schema.dimension(name)
            except SchemaError as exc:
                raise JoinError(f"join dimension {name!r} missing: {exc}") from None
            if ld.domain != rd.domain:
                raise JoinError(f"join dimension {name!r} has mismatched domains")
        self._join_dims = set(spec.on)
        left_only = [d for d in left_schema.dimensions if d.name not in self._join_dims]
        right_only = [d for d in right_schema.dimensions if d.name not in self._join_dims]
        overlap = {d.name for d in left_only} & {d.name for d in right_only}
        if overlap:
            raise JoinError(f"non-join dimensions appear on both sides: {sorted(overlap)}")
        self._left_dims = {d.name for d in left_schema.dimensions}
        self._right_dims = {d.name for d in right_schema.dimensions}
        self._right_only = {d.name for d in right_only}

        measures = []
        self._measure_map: dict[str, tuple[str, str]] = {}  # prefixed -> (side, original)
        for prefix, schema, side in ((spec.left_prefix, left_schema, "left"),
                                     (spec.right_prefix, right_schema, "right")):
            for m in schema.measures:
                name = f"{prefix}.{m.name}"
                measures.append(Measure(name, m.agg, m.sources))
                self._measure_map[name] = (side, m.name)
        merged_dims = tuple(left_schema.dimensions) + tuple(right_only)
        self._schema = DimensionSchema(merged_dims, tuple(measures))

        self._cellset: CellsetCube | None = None
        if strategy == "global":
            # a joined cell is the left cell then the right cell's right-only values
            left_names, right_names = left_schema.dimension_names, right_schema.dimension_names
            pad = ((ANY,) * len(right_only), (None,) * len(right_schema.measures))
            cells = _join_rows(
                left.to_cellset()._cells.items(), right.to_cellset()._cells.items(),
                _getter([left_names.index(d) for d in spec.on]),
                _getter([right_names.index(d) for d in spec.on]),
                _getter([right_names.index(d.name) for d in right_only]),
                pad if spec.kind == "left" else None)
            self._cellset = CellsetCube(self._schema, cells)
            self.counters["global_cellset_joins"] += 1

    @property
    def schema(self) -> DimensionSchema:
        return self._schema

    def resolve_measure(self, name: str) -> str:
        """Map a requested measure name (prefixed or unambiguous) to its prefixed form."""
        if name in self._measure_map:
            return name
        hits = [full for full, (_, orig) in self._measure_map.items() if orig == name]
        if len(hits) == 1:
            return hits[0]
        if len(hits) > 1:
            raise RequestError(f"measure name {name!r} is ambiguous; use a side prefix")
        raise SchemaError(f"unknown measure {name!r}")

    def view(self, region: Region, request: FeatureRequest) -> FeatureFrame:
        metrics = tuple(map(self.resolve_measure, request.metric_features))
        return super().view(region, FeatureRequest(request.attribute_features, metrics))

    def bind(self, region: Region) -> RegionCursor:
        """GLOBAL: the joined cellset's cursor; LOCAL: a ``_JoinCursor`` over each side's
        cursor at its projection of ``region``."""
        if self._cellset is not None:
            return self._cellset.bind(region)
        return _JoinCursor(self, EMPTY_REGION, self.left.bind(EMPTY_REGION),
                           self.right.bind(EMPTY_REGION)).refine(region)

    def to_cellset(self) -> CellsetCube:
        """GLOBAL returns the cellset it joined at construction; LOCAL builds one
        with one view join per mask of the merged dimensions."""
        return self._cellset or super().to_cellset()


class _JoinCursor(RegionCursor):
    """A LOCAL join bound at a region: each side's cursor at its projection of the
    region.  ``child`` refines the side that has the dimension, or both sides for a
    join dimension, and a view joins the two sides' views with ``_join_rows``."""

    def __init__(self, cube: JoinedCube, region: Region, left: RegionCursor,
                 right: RegionCursor):
        super().__init__(cube, region)
        self.left = left
        self.right = right

    def view(self, request):
        cube = self.cube
        request.validate(cube.schema)
        frames = []
        for side, cursor, dims in (("left", self.left, cube._left_dims),
                                   ("right", self.right, cube._right_dims)):
            attrs = tuple(a for a in request.attribute_features if a in dims)
            metrics = tuple(orig for m in request.metric_features
                            for s, orig in (cube._measure_map[m],) if s == side)
            frames.append(cursor.view(FeatureRequest(attrs, metrics)))
        left_frame, right_frame = frames
        l_attrs, r_attrs = left_frame.attribute_names, right_frame.attribute_names
        cube.counters["local_view_joins"] += 1

        keys = [a for a in l_attrs if a in cube._join_dims]
        rest = tuple(a for a in r_attrs if a in cube._right_only)
        # unmatched left rows have no right-side values at all, so they drop out
        # of any view whose region or attributes touch a right-only dimension
        right_only_involved = rest or any(d in cube._right_only for d in self.region.dims)
        pad = ((), (None,) * len(right_frame.measure_names))
        rows = _join_rows(left_frame.iter_rows(), right_frame.iter_rows(),
                          _getter([l_attrs.index(k) for k in keys]),
                          _getter([r_attrs.index(k) for k in keys]),
                          _getter([r_attrs.index(a) for a in rest]),
                          None if right_only_involved or cube.spec.kind != "left" else pad)
        # a joined row holds the left attributes then the right-only ones, and the
        # left measures then the right ones: put both in the request's order
        joined_attrs = l_attrs + rest
        joined_metrics = sorted(request.metric_features,
                                key=lambda m: cube._measure_map[m][0] == "right")
        attrs = _getter([joined_attrs.index(a) for a in request.attribute_features])
        metrics = _getter([joined_metrics.index(m) for m in request.metric_features])
        return FeatureFrame(request.attribute_features, request.metric_features,
                            [(attrs(a), metrics(m)) for a, m in rows.items()])

    def values(self, dim):
        return self.view(FeatureRequest((dim,), ())).attribute_column(dim)

    def child(self, dim, value):
        cube = self.cube
        cube.schema.dimension(dim)
        left = self.left.child(dim, value) if dim in cube._left_dims else self.left
        right = self.right.child(dim, value) if dim in cube._right_dims else self.right
        return _JoinCursor(cube, self.region.with_binding(dim, value), left, right)


def join_cubes(left: AbstractCube, right: AbstractCube, spec: JoinSpec,
               strategy: str = "local",
               instrumentation: Instrumentation | None = None) -> JoinedCube:
    """Meld two cubes into one; LOCAL defers all work, GLOBAL materializes the join now."""
    return JoinedCube(left, right, spec, strategy, instrumentation)


def _join_rows(left_rows, right_rows, left_key, right_key, right_rest, pad) -> dict:
    """The hash join of (attributes, measures) rows on ``left_key`` = ``right_key``, as
    attributes -> measures: a left row and each right row of its key give its attributes
    + ``right_rest`` of the right row's -> its measures + the right row's.  With ``pad``
    an (attributes, measures) pair, a left row whose key has no right row with
    ``right_rest`` equal to ``pad[0]`` also gives its attributes + ``pad[0]`` -> its
    measures + ``pad[1]``."""
    by_key: dict[tuple, list[tuple]] = {}
    covered = set()  # keys with a right row that ``pad`` would stand in for
    for attrs, measures in right_rows:
        key, rest = right_key(attrs), right_rest(attrs)
        by_key.setdefault(key, []).append((rest, measures))
        if pad is not None and rest == pad[0]:
            covered.add(key)
    joined = {}
    for attrs, measures in left_rows:
        key = left_key(attrs)
        for rest, values in by_key.get(key, ()):
            joined[attrs + rest] = measures + values
        if pad is not None and key not in covered:
            joined[attrs + pad[0]] = measures + pad[1]
    return joined
