"""Property tests on random inputs: base-table cursors agree with the row
oracle, the pruned crawl agrees with the naive oracle, and every materialized
cube kind gives the base table's views and crawls."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cubecrawl import (
    EMPTY_REGION,
    NULL,
    BaseTableGroupByCube,
    CrawlSpec,
    Dimension,
    DimensionSchema,
    EntityWeightModel,
    FeatureRequest,
    IdModel,
    JoinSpec,
    Measure,
    Region,
    Table,
    build_cellset,
    chunk_by_partition,
    join_cubes,
    load_cellset,
    load_store,
    materialize,
    naive_crawl,
    rechunk,
    top_down_crawl,
)

from oracles import group_by, rows_matching

DOMAIN_VALUES = {
    "string": ("a", "b", "c"),
    "integer": (-1, 0, 7),
    "boolean": (True, False),
}


@st.composite
def cubes(draw):
    domains = draw(st.lists(st.sampled_from(sorted(DOMAIN_VALUES)), min_size=1, max_size=3))
    dims = tuple(Dimension(f"d{i}", domain) for i, domain in enumerate(domains))
    row = st.tuples(
        *(st.sampled_from(DOMAIN_VALUES[d.domain] + (NULL,)) for d in dims),
        st.integers(0, 20),
        st.integers(-5, 20),
    )
    rows = draw(st.lists(row, min_size=1, max_size=12))
    names = [d.name for d in dims] + ["m0", "m1"]
    table = Table.from_rows(names, rows)
    schema = DimensionSchema(dims, (Measure.sum("m0"), Measure.sum("m1")))
    return BaseTableGroupByCube(table, schema)


@st.composite
def spec_builders(draw, dims):
    """A crawl spec over ``dims``, with at most one hierarchy chain among them, as a
    function of the prefix of the measure names its models read."""
    chain = draw(st.permutations(dims))[:draw(st.integers(0, len(dims)))]
    gate, pushdown = draw(st.booleans()), draw(st.sampled_from([None, 5.0]))
    with_id = draw(st.booleans())
    weight_threshold = float(draw(st.integers(0, 60))) if draw(st.booleans()) else None
    id_threshold = float(draw(st.integers(-10, 30))) if with_id and draw(st.booleans()) else None
    top_n = draw(st.one_of(st.none(), st.tuples(st.just("total_weight"), st.integers(1, 10))))
    exploration = draw(st.sampled_from(["bfs", "dfs"]))
    batch_size = draw(st.sampled_from([1, 2, 64]))

    def build(prefix=""):
        models = [EntityWeightModel(prefix + "m0", gate=gate, min_weight_pushdown=pushdown)]
        if with_id:
            models.append(IdModel([prefix + "m1"]))
        thresholds = {}
        if weight_threshold is not None:
            thresholds["total_weight"] = weight_threshold
        if id_threshold is not None:
            thresholds[prefix + "m1"] = id_threshold
        return CrawlSpec(models=models, thresholds=thresholds, top_n=top_n,
                         hierarchies=[chain] if len(chain) > 1 else [],
                         exploration=exploration, batch_size=batch_size)
    return build


def specs(dims):
    return spec_builders(dims).map(lambda build: build())


@settings(max_examples=300, deadline=None)
@given(cubes().flatmap(lambda cube: st.tuples(st.just(cube),
                                              specs(cube.schema.dimension_names))))
def test_top_down_crawl_matches_naive_crawl(case):
    cube, spec = case
    pruned = top_down_crawl(cube, spec)
    naive = naive_crawl(cube, spec)
    if spec.top_n is None:
        assert pruned.entries == naive.entries
    else:
        assert list(pruned.entries.items()) == list(naive.entries.items())


def _null_last(value):
    return (value is NULL, 0 if value is NULL else value)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cursors_match_the_row_oracle(data):
    """``bind``, ``child`` chains in any order and ``values`` read the rows the
    region matches, for observed and unobserved values up to full degree."""
    cube = data.draw(cubes())
    dims = cube.schema.dimension_names
    columns = cube.table.columns
    rows = [dict(zip(columns, r)) for r in zip(*columns.values())]
    order = data.draw(st.permutations(dims))[:data.draw(st.integers(0, len(dims)))]
    bindings = [(d, data.draw(st.sampled_from(DOMAIN_VALUES[cube.schema.dimension(d).domain]
                                               + (NULL,)))) for d in order]
    region = Region(bindings)
    matching = rows_matching(rows, dict(bindings))

    split = data.draw(st.integers(0, len(bindings)))
    chained = cube.bind(Region(bindings[:split]))
    for d, v in bindings[split:]:
        chained = chained.child(d, v)
    from_root = cube.bind(EMPTY_REGION)
    for d, v in bindings:
        from_root = from_root.child(d, v)
    for cursor in (cube.bind(region), chained, from_root):
        assert cursor.region == region
        for d in dims:
            assert cursor.values(d) == tuple(sorted({r[d] for r in matching}, key=_null_last))
        for attrs in [()] + [(d,) for d in dims] + [dims]:
            frame = cursor.view(FeatureRequest(attrs, ("m0", "m1")))
            assert {a: dict(zip(("m0", "m1"), m)) for a, m in frame.iter_rows()} == \
                group_by(matching, attrs, ("m0", "m1"))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_crawl_gives_the_same_entries_over_every_cube_kind(data):
    """A crawl over a cellset, its loaded store, a chunked store, its rechunked
    store, a crawl result holding every region, and a LOCAL and a GLOBAL join
    whose right side matches each left row once gives the base table's entries,
    in the same order."""
    cube = data.draw(cubes())
    dims = cube.schema.dimension_names
    build = data.draw(spec_builders(dims))
    partition = data.draw(st.sampled_from(dims))
    domain = cube.schema.dimension(partition).domain
    right = BaseTableGroupByCube(
        Table.from_rows([partition, "r"], [(v, 1) for v in DOMAIN_VALUES[domain] + (NULL,)]),
        DimensionSchema((Dimension(partition, domain),), (Measure.sum("r"),)))
    want = list(top_down_crawl(cube, build()).entries.items())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        materialize(cube, dims, tmp / "cellset")
        chunked = chunk_by_partition(cube, partition, [d for d in dims if d != partition],
                                     tmp / "chunked")
        kinds = {"cellset": build_cellset(cube, dims), "loaded": load_cellset(tmp / "cellset"),
                 "chunked": load_store(tmp / "chunked"),
                 "rechunked": rechunk(chunked, tmp / "rechunked"),
                 "result": top_down_crawl(cube, CrawlSpec(models=[IdModel(["m0", "m1"])]))}
        for kind, other in kinds.items():
            assert list(top_down_crawl(other, build()).entries.items()) == want, kind
    for strategy in ("local", "global"):
        joined = join_cubes(cube, right, JoinSpec(on=(partition,)), strategy)
        got = [(region, {s.removeprefix("left."): v for s, v in signals.items()})
               for region, signals in top_down_crawl(joined, build("left.")).entries.items()]
        assert got == want, strategy


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_materialized_cubes_give_the_base_tables_views(data):
    """A cellset, its loaded store, a chunked store and its rechunked store give
    the base table's frame, for observed, unobserved and NULL bindings, with the
    partition dimension bound, free or requested, and attributes the region binds.
    Each store serves several views, so later views read parts it decoded already;
    a partitioned store, given a partition range, gives the frame of the rows in it."""
    cube = data.draw(cubes())
    dims = cube.schema.dimension_names
    partition = data.draw(st.sampled_from(dims))
    others = [d for d in dims if d != partition]
    partition_values = DOMAIN_VALUES[cube.schema.dimension(partition).domain] + (NULL,)
    column = cube.table.column(partition)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        materialize(cube, dims, tmp / "cellset")
        rechunk(chunk_by_partition(cube, partition, others, tmp / "chunked"), tmp / "rechunked")
        kinds = {"cellset": build_cellset(cube, dims), "loaded": load_cellset(tmp / "cellset"),
                 "chunked": load_store(tmp / "chunked"),
                 "rechunked": load_store(tmp / "rechunked")}
        for _ in range(data.draw(st.integers(1, 8))):
            names = st.lists(st.sampled_from(others), unique=True) if others else st.just([])
            bound, attrs = list(data.draw(names)), list(data.draw(names))
            role = data.draw(st.sampled_from(("bound", "free", "requested",
                                              "bound and requested")))
            if "bound" in role:
                bound.append(partition)
            if "requested" in role:
                attrs.insert(data.draw(st.integers(0, len(attrs))), partition)
            region = Region({d: data.draw(st.sampled_from(
                DOMAIN_VALUES[cube.schema.dimension(d).domain] + (NULL,))) for d in bound})
            metrics = data.draw(st.sampled_from(((), ("m0",), ("m1", "m0"), ("m0", "m1"))))
            request = FeatureRequest(tuple(attrs), metrics)
            want = cube.view(region, request)
            for kind, materialized in kinds.items():
                assert materialized.view(region, request) == want, (kind, region, request)
            bound_value = st.one_of(st.none(), st.sampled_from(partition_values))
            lo, hi = data.draw(bound_value), data.draw(bound_value)
            in_range = [i for i, v in enumerate(column)
                        if (lo is None or _null_last(v) >= _null_last(lo))
                        and (hi is None or _null_last(v) <= _null_last(hi))]
            want = BaseTableGroupByCube(cube.table.subset(in_range), cube.schema).view(
                region, request)
            for kind in ("chunked", "rechunked"):
                assert kinds[kind].view(region, request, partition_range=(lo, hi)) == want, \
                    (kind, region, request, (lo, hi))
        for kind in ("chunked", "rechunked"):
            store = kinds[kind]
            assert store.counters["parts_decoded"] <= len(store.manifest["parts"]), kind
