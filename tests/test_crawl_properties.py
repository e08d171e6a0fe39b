"""Property tests on random inputs: base-table cursors agree with the row
oracle, the pruned crawl agrees with the naive oracle, top-n crawls agree with
a ranking oracle, and every materialized cube kind gives the base table's views
and crawls."""

import itertools
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
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
    PushdownTerm,
    Region,
    ResultCube,
    Table,
    build_cellset,
    chunk_by_partition,
    exhaustive_top_n,
    join_cubes,
    load_cellset,
    load_store,
    materialize,
    naive_crawl,
    rechunk,
    top_down_crawl,
    topn_crawl,
)

from oracles import brute_force_crawl, group_by, ranked_top_n, rows_matching

DOMAIN_VALUES = {
    "string": ("a", "b", "c"),
    # 10 sorts before 7 as text, so value order is checked against numeric order
    "integer": (-1, 0, 7, 10),
    "boolean": (True, False),
}


@st.composite
def cubes(draw, max_dims=3):
    domains = draw(st.lists(st.sampled_from(sorted(DOMAIN_VALUES)), min_size=1,
                            max_size=max_dims))
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


def _observed_regions(cube):
    """Every region that binds observed values of some dimensions -> its rows' m0 total."""
    columns = cube.table.columns
    rows = [dict(zip(columns, r)) for r in zip(*columns.values())]
    dims = cube.schema.dimension_names
    return {Region(dict(zip(attrs, key))): agg["m0"]
            for k in range(len(dims) + 1) for attrs in itertools.combinations(dims, k)
            for key, agg in group_by(rows, attrs, ("m0",)).items()}


@st.composite
def spec_builders(draw, schema):
    """A crawl spec over ``schema``'s dimensions, with at most one hierarchy chain among
    them and maybe grouping sets, a maximum degree, allowed values, a maximum on an
    id signal and up to two pushdown terms on the id model, as a function of the prefix
    of the measure names its models read.  A pushdown minimum reads only m0, whose rows
    are nonnegative; a maximum reads m0 or m1."""
    dims = schema.dimension_names
    chain = draw(st.permutations(dims))[:draw(st.integers(0, len(dims)))]
    gate, pushdown = draw(st.booleans()), draw(st.sampled_from([None, 5.0]))
    with_id = draw(st.booleans())
    weight_threshold = float(draw(st.integers(0, 60))) if draw(st.booleans()) else None
    id_threshold = float(draw(st.integers(-10, 30))) if with_id and draw(st.booleans()) else None
    id_maximum = float(draw(st.integers(-30, 10))) if with_id and draw(st.booleans()) else None
    pushdown_term = st.one_of(
        st.tuples(st.just("m0"), st.sampled_from([">=", ">"]), st.integers(-5, 20)),
        st.tuples(st.sampled_from(["m0", "m1"]), st.sampled_from(["<=", "<"]),
                  st.integers(-5, 30)))
    id_pushdown = [draw(pushdown_term) for _ in range(draw(st.integers(0, 2)) if with_id else 0)]
    top_n = draw(st.one_of(st.none(), st.tuples(st.just("total_weight"), st.integers(1, 10))))
    exploration = draw(st.sampled_from(["bfs", "dfs"]))
    batch_size = draw(st.sampled_from([1, 2, 64]))
    # a grouping set is drawn in any order; the crawl orders its dimensions itself
    subsets = st.permutations(dims).flatmap(
        lambda p: st.sampled_from([p[:k] for k in range(len(p) + 1)]))
    grouping_sets = draw(st.one_of(st.none(), st.lists(subsets, max_size=4)))
    max_degree = draw(st.one_of(st.none(), st.integers(0, len(dims))))
    dimension_values = {d: draw(st.lists(st.sampled_from(
        DOMAIN_VALUES[schema.dimension(d).domain] + (NULL,)), unique=True))
        for d in draw(st.lists(st.sampled_from(dims), unique=True))}

    def build(prefix=""):
        models = [EntityWeightModel(prefix + "m0", gate=gate, min_weight_pushdown=pushdown)]
        if with_id:
            models.append(IdModel([prefix + "m1"], pushdown=[
                PushdownTerm(prefix + measure, op, value) for measure, op, value in id_pushdown]))
        thresholds = {}
        if weight_threshold is not None:
            thresholds["total_weight"] = weight_threshold
        if id_threshold is not None:
            thresholds[prefix + "m1"] = id_threshold
        if id_maximum is not None:  # m1 <= -id_maximum
            thresholds["-" + prefix + "m1"] = id_maximum
        return CrawlSpec(models=models, thresholds=thresholds, top_n=top_n,
                         hierarchies=[chain] if len(chain) > 1 else [],
                         grouping_sets=grouping_sets, max_degree=max_degree,
                         dimension_values=dimension_values,
                         exploration=exploration, batch_size=batch_size)
    return build


def specs(schema):
    return spec_builders(schema).map(lambda build: build())


def _a_failed_maximum_beside_a_minimum():
    """A pushdown case random draws seldom reach: the root (m0 = 11) fails m0 <= 5, a
    maximum, and three regions below it pass both terms."""
    table = Table.from_rows(["d0", "d1", "m0", "m1"],
                            [("a", "x", 3, 0), ("a", "y", 7, 0), ("b", "x", 1, 0)])
    schema = DimensionSchema((Dimension("d0"), Dimension("d1")),
                             (Measure.sum("m0"), Measure.sum("m1")))
    model = IdModel(["m1"], pushdown=[PushdownTerm("m0", ">=", 0), PushdownTerm("m0", "<=", 5)])
    return BaseTableGroupByCube(table, schema), CrawlSpec(models=[EntityWeightModel("m0"), model])


def _a_degree_three_skip():
    """A skip random draws seldom reach: {d0=a, d1=x} passes the weight minimum of 3, but
    its child {d0=a, d1=x, d2=p} is skipped unevaluated, as its sub-region {d0=a, d2=p}
    (weight 1) was pruned."""
    table = Table.from_rows(["d0", "d1", "d2", "m0", "m1"],
                            [("a", "x", "p", 1, 0), ("a", "x", "q", 5, 0),
                             ("a", "y", "q", 5, 0), ("b", "x", "p", 2, 0)])
    schema = DimensionSchema((Dimension("d0"), Dimension("d1"), Dimension("d2")),
                             (Measure.sum("m0"), Measure.sum("m1")))
    return (BaseTableGroupByCube(table, schema),
            CrawlSpec(models=[EntityWeightModel("m0")], thresholds={"total_weight": 3.0}))


# up to four dimensions, so that a region of degree 3 can be skipped
@settings(max_examples=300, deadline=None)
@given(cubes(max_dims=4).flatmap(lambda cube: st.tuples(st.just(cube), specs(cube.schema))))
@example(_a_failed_maximum_beside_a_minimum())
@example(_a_degree_three_skip())
def test_top_down_crawl_matches_naive_crawl(case):
    """The pruned crawl gives the naive crawl's entries, and the brute-force crawl's,
    which shares no code with either."""
    cube, spec = case
    pruned = top_down_crawl(cube, spec)
    naive = naive_crawl(cube, spec)
    columns = cube.table.columns
    rows = [dict(zip(columns, r)) for r in zip(*columns.values())]
    brute = brute_force_crawl(rows, cube.schema.dimension_names, spec)
    if spec.top_n is None:
        assert pruned.entries == naive.entries == dict(brute)
    else:
        assert list(pruned.entries.items()) == list(naive.entries.items()) == brute


def _exactly(items):
    """(region, signals) pairs with each signal's repr, so 0.0 and -0.0 differ."""
    return [(region, {s: repr(v) for s, v in signals.items()}) for region, signals in items]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_n_matches_the_ranking_oracle(data):
    """``exhaustive_top_n`` over crawl results whose signals tie, including at 0.0 and
    -0.0, and ``topn_crawl`` over a base table keep the n entries a full sort ranks
    first, in its order."""
    cube = data.draw(cubes())
    dims = cube.schema.dimension_names
    weights = _observed_regions(cube)
    n = data.draw(st.integers(1, 12))
    regions = data.draw(st.lists(st.sampled_from(list(weights)), unique=True))
    signals = st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.0])
    entries = {region: {"s": data.draw(signals)} for region in regions}
    result = ResultCube(dims, ("s",), entries, cube.schema)
    assert _exactly(exhaustive_top_n(result, "s", n).entries.items()) == \
        _exactly(ranked_top_n(entries, "s", n, dims))

    spec = CrawlSpec(models=[EntityWeightModel("m0")], top_n=("total_weight", n),
                     exploration=data.draw(st.sampled_from(["bfs", "dfs"])),
                     batch_size=data.draw(st.sampled_from([1, 2, 64])))
    want = ranked_top_n({r: {"total_weight": float(w)} for r, w in weights.items()},
                        "total_weight", n, dims)
    assert _exactly(topn_crawl(cube, spec).entries.items()) == _exactly(want)


def _null_last(value):
    return (value is NULL, 0 if value is NULL else value)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cursors_match_the_row_oracle(data):
    """``bind``, ``child`` chains in any order and ``values`` read the rows the
    region matches, for observed and unobserved values up to full degree, and
    views group them by any ordered selection of the dimensions, with SUM and
    COUNT_DISTINCT measures."""
    drawn = data.draw(cubes())
    dims = drawn.schema.dimension_names
    distinct = Measure.count_distinct("n", data.draw(st.sampled_from(dims)), "m1")
    cube = BaseTableGroupByCube(drawn.table, DimensionSchema(
        drawn.schema.dimensions, drawn.schema.measures + (distinct,)))
    columns = cube.table.columns
    rows = [dict(zip(columns, r)) for r in zip(*columns.values())]
    order = data.draw(st.permutations(dims))[:data.draw(st.integers(0, len(dims)))]
    bindings = [(d, data.draw(st.sampled_from(DOMAIN_VALUES[cube.schema.dimension(d).domain]
                                               + (NULL,)))) for d in order]
    region = Region(bindings)
    matching = rows_matching(rows, dict(bindings))
    selection = data.draw(st.permutations(dims))[:data.draw(st.integers(0, len(dims)))]

    split = data.draw(st.integers(0, len(bindings)))
    chained = cube.bind(Region(bindings[:split]))
    for d, v in bindings[split:]:
        chained = chained.child(d, v)
    from_root = cube.bind(EMPTY_REGION)
    for d, v in bindings:
        from_root = from_root.child(d, v)
    measures = ("m0", "m1", "n")
    for cursor in (cube.bind(region), chained, from_root):
        assert cursor.region == region
        for d in dims:
            assert cursor.values(d) == tuple(sorted({r[d] for r in matching}, key=_null_last))
        for attrs in [()] + [(d,) for d in dims] + [tuple(selection)]:
            frame = cursor.view(FeatureRequest(attrs, measures))
            assert {a: dict(zip(measures, m)) for a, m in frame.iter_rows()} == \
                group_by(matching, attrs, ("m0", "m1"), (("n", distinct.sources),))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_crawl_gives_the_same_entries_over_every_cube_kind(data):
    """A crawl over a cellset, its loaded store, a chunked store, its rechunked
    store, a crawl result holding every region, and a LOCAL and a GLOBAL join
    whose right side matches each left row once gives the base table's entries,
    in the same order; so does the naive crawl."""
    cube = data.draw(cubes())
    dims = cube.schema.dimension_names
    build = data.draw(spec_builders(cube.schema))
    partition = data.draw(st.sampled_from(dims))
    domain = cube.schema.dimension(partition).domain
    right = BaseTableGroupByCube(
        Table.from_rows([partition, "r"], [(v, 1) for v in DOMAIN_VALUES[domain] + (NULL,)]),
        DimensionSchema((Dimension(partition, domain),), (Measure.sum("r"),)))
    want = list(top_down_crawl(cube, build()).entries.items())
    want_naive = list(naive_crawl(cube, build()).entries.items())
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
            assert list(naive_crawl(other, build()).entries.items()) == want_naive, kind
    for strategy in ("local", "global"):
        joined = join_cubes(cube, right, JoinSpec(on=(partition,)), strategy)
        for crawl, expected in ((top_down_crawl, want), (naive_crawl, want_naive)):
            got = [(region, {s.removeprefix("left."): v for s, v in signals.items()})
                   for region, signals in crawl(joined, build("left.")).entries.items()]
            assert got == expected, (strategy, crawl.__name__)


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
