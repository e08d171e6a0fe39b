"""Joining two cubes on shared dimensions.

The LOCAL strategy defers all work: each view loads both sides' frames and
joins them as tables (one relational join per view).  The GLOBAL strategy is
the LOCAL join materialized once: at construction it takes each side's
``to_cellset()`` (a cellset side as it is, any other cube built once), joins
the two with LOCAL views, one per mask of the merged dimensions, and keeps
the result, so every later view is a cellset lookup and ``to_cellset()``
returns it without another view.  With one join algorithm, both strategies
answer every (region, request) identically.

View semantics: each side is aggregated at its own granularity and the frames
are joined on the join dimensions that appear among the requested attributes.
Join dimensions left out of a request are pre-aggregated on both sides before
combining.  In a left join, rows without a right match carry ``None`` in
right measure columns (models must opt into handling that sentinel); since
such rows have no right-side values at all, they drop out of any view whose
region or attributes touch a right-only dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AbstractCube,
    CellsetCube,
    DimensionSchema,
    FeatureFrame,
    FeatureRequest,
    Instrumentation,
    Measure,
    Region,
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
            # the LOCAL join of the sides' cellsets, counted as one cellset join
            # (the nested cube counts its view joins into its own counters).  It
            # views each side once per mask of the merged dimensions: a base table
            # would be grouped 2^k times as often, k = dimensions only the other has.
            self._cellset = JoinedCube(left.to_cellset(), right.to_cellset(), spec).to_cellset()
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

    def _canonical_request(self, request: FeatureRequest) -> FeatureRequest:
        metrics = tuple(self.resolve_measure(m) for m in request.metric_features)
        return FeatureRequest(request.attribute_features, metrics)

    def view(self, region: Region, request: FeatureRequest) -> FeatureFrame:
        request = self._canonical_request(request)
        if self._cellset is not None:
            return self._cellset.view(region, request)  # checks against the same schema
        self._check(region, request)
        return self._local_view(region, request)

    def _side_inputs(self, region: Region, request: FeatureRequest, side: str):
        dims = self._left_dims if side == "left" else self._right_dims
        bindings = {d: v for d, v in region.items() if d in dims}
        attrs = tuple(a for a in request.attribute_features if a in dims)
        metrics = tuple(orig for m in request.metric_features
                        for s, orig in (self._measure_map[m],) if s == side)
        return Region(bindings), FeatureRequest(attrs, metrics)

    def _local_view(self, region: Region, request: FeatureRequest) -> FeatureFrame:
        left_region, left_request = self._side_inputs(region, request, "left")
        right_region, right_request = self._side_inputs(region, request, "right")
        left_frame = self.left.view(left_region, left_request)
        right_frame = self.right.view(right_region, right_request)
        self.counters["local_view_joins"] += 1

        keys = tuple(a for a in request.attribute_features if a in self._join_dims)
        l_attr_idx = {a: i for i, a in enumerate(left_request.attribute_features)}
        r_attr_idx = {a: i for i, a in enumerate(right_request.attribute_features)}
        l_meas_idx = {m: i for i, m in enumerate(left_request.metric_features)}
        r_meas_idx = {m: i for i, m in enumerate(right_request.metric_features)}

        right_by_key: dict[tuple, list] = {}
        for attrs, measures in right_frame.iter_rows():
            key = tuple(attrs[r_attr_idx[k]] for k in keys)
            right_by_key.setdefault(key, []).append((attrs, measures))

        # unmatched left rows have no right-side values at all, so they drop out
        # of any view whose region or attributes touch a right-only dimension
        right_only_involved = (
            any(a in self._right_only for a in request.attribute_features)
            or any(d in self._right_only for d in region.dims)
        )
        rows = []
        for l_attrs, l_measures in left_frame.iter_rows():
            key = tuple(l_attrs[l_attr_idx[k]] for k in keys)
            matches = right_by_key.get(key, ())
            if not matches:
                if self.spec.kind != "left" or right_only_involved:
                    continue
                matches = (None,)
            for match in matches:
                # an unmatched row (match None) requests no right-only attribute
                out_attrs = [l_attrs[l_attr_idx[a]] if a in l_attr_idx else match[0][r_attr_idx[a]]
                             for a in request.attribute_features]
                out_measures = []
                for m in request.metric_features:
                    side, orig = self._measure_map[m]
                    if side == "left":
                        out_measures.append(l_measures[l_meas_idx[orig]])
                    elif match is not None:
                        out_measures.append(match[1][r_meas_idx[orig]])
                    else:
                        out_measures.append(None)
                rows.append((tuple(out_attrs), tuple(out_measures)))
        return FeatureFrame(request.attribute_features, request.metric_features, rows)

    def to_cellset(self) -> CellsetCube:
        """GLOBAL returns the cellset it built at construction; LOCAL builds one
        with one view join per mask of the merged dimensions."""
        if self._cellset is not None:
            return self._cellset
        return super().to_cellset()


def join_cubes(left: AbstractCube, right: AbstractCube, spec: JoinSpec,
               strategy: str = "local",
               instrumentation: Instrumentation | None = None) -> JoinedCube:
    """Meld two cubes into one; LOCAL defers all work, GLOBAL materializes the join now."""
    return JoinedCube(left, right, spec, strategy, instrumentation)
