import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecrawl import (
    EMPTY_REGION,
    BaseTableGroupByCube,
    CrawlSpec,
    Dimension,
    DimensionSchema,
    EntityWeightModel,
    FeatureRequest,
    IdModel,
    JoinedCube,
    JoinSpec,
    Measure,
    PushdownTerm,
    Region,
    Table,
    apply_pushdown,
    join_cubes,
    load_cellset,
    materialize,
    naive_crawl,
    region_children,
    top_down_crawl,
)
from cubecrawl.core import ANY, NULL, FeatureFrame, _CellCursor
from cubecrawl.join import _JoinCursor
from cubecrawl.errors import JoinError, RequestError, SchemaError, SpecError

from conftest import assert_values_match_view, random_table, t1_cube
import oracles


def two_sided_tables(rng, join_dims=("k0", "k1"), max_values=3):
    """Two random tables sharing the join dimensions, one extra dim per side."""
    def build(extra, measure):
        cols = {d: [] for d in join_dims}
        cols[extra] = []
        cols[measure] = []
        for _ in range(rng.randint(4, 40)):
            for d in join_dims:
                cols[d].append(f"v{rng.randint(0, max_values - 1)}")
            cols[extra].append(f"e{rng.randint(0, 2)}")
            cols[measure].append(rng.randint(0, 9))
        dims = tuple(Dimension(d) for d in join_dims) + (Dimension(extra),)
        schema = DimensionSchema(dims, (Measure.sum(measure),))
        return BaseTableGroupByCube(Table(cols), schema)

    return build("la", "m_left"), build("rb", "m_right")


class TestJoinValidation:
    def test_join_dims_must_exist_on_both_sides(self, sales_cube):
        other = BaseTableGroupByCube(
            Table.from_rows(["Region", "score"], [("NA", 1.0)]),
            DimensionSchema((Dimension("Region"),), (Measure.sum("score"),)))
        with pytest.raises(JoinError):
            join_cubes(sales_cube, other, JoinSpec(on=("Device",)))

    def test_kind_and_strategy_validation(self, sales_cube):
        with pytest.raises(SpecError):
            JoinSpec(on=("Device",), kind="outer")
        with pytest.raises(SpecError):
            join_cubes(sales_cube, sales_cube, JoinSpec(on=("Device",)), strategy="hybrid")

    @pytest.mark.parametrize("fields", [
        {"on": "Device"},                  # else read as its characters
        {"on": 5},
        {"on": ("Device", 5)},
        {"on": ("Device",), "left_prefix": 5},
        {"on": ("Device",), "right_prefix": ("r",)},
        {"on": ("Device",), "left_prefix": ""},
        {"on": ("Device",), "left_prefix": "x", "right_prefix": "x"},
    ])
    def test_join_dimensions_and_prefixes_are_strings(self, fields):
        with pytest.raises(SpecError):
            JoinSpec(**fields)

    def test_ambiguous_measure_needs_prefix(self, sales_cube):
        joined = join_cubes(sales_cube, sales_cube, JoinSpec(on=("Device", "Browser", "is_test")))
        with pytest.raises(RequestError):
            joined.view(EMPTY_REGION, FeatureRequest((), ("Revenue",)))
        frame = joined.view(EMPTY_REGION, FeatureRequest((), ("left.Revenue",)))
        assert frame.value() == 125


class TestSelfJoinIdentity:
    def test_every_view_duplicates_measures(self, sales_cube):
        spec = JoinSpec(on=("Device", "Browser", "is_test"), left_prefix="cur",
                        right_prefix="hist")
        for strategy in ("local", "global"):
            joined = join_cubes(sales_cube, sales_cube, spec, strategy)
            for region in (EMPTY_REGION, Region({"Device": "Pixel"}),
                           Region({"Device": "iPhone", "Browser": "Safari"})):
                frame = joined.view(region, FeatureRequest(
                    ("Browser",), ("cur.Revenue", "hist.Revenue")))
                for _, (a, b) in frame.iter_rows():
                    assert a == b


class TestJoinUseCase:
    def test_crawl_joined_with_historical_scores(self, sales_cube):
        spec = CrawlSpec(models=[EntityWeightModel("Revenue")],
                         dimensions=["Device", "Browser"],
                         thresholds={"total_weight": 40.0})
        current = top_down_crawl(sales_cube, spec)
        history = top_down_crawl(sales_cube, spec)  # stands in for last week's crawl
        jspec = JoinSpec(on=("Device", "Browser"), left_prefix="cur", right_prefix="hist")
        joined = join_cubes(current, history, jspec, "local")
        frame = joined.view(Region({"Device": "Pixel"}),
                            FeatureRequest((), ("cur.total_weight", "hist.total_weight")))
        assert list(frame.iter_rows()) == [((), (70.0, 70.0))]

    def test_inner_join_missing_region_is_empty(self, sales_cube):
        spec_all = CrawlSpec(models=[EntityWeightModel("Revenue")],
                             dimensions=["Device"], thresholds={"total_weight": 0.0})
        spec_high = CrawlSpec(models=[EntityWeightModel("Revenue")],
                              dimensions=["Device"], thresholds={"total_weight": 60.0})
        everything = top_down_crawl(sales_cube, spec_all)
        only_pixel = top_down_crawl(sales_cube, spec_high)  # iPhone (55) filtered out
        jspec = JoinSpec(on=("Device",), left_prefix="all", right_prefix="top")
        for strategy in ("local", "global"):
            joined = join_cubes(everything, only_pixel, jspec, strategy)
            request = FeatureRequest((), ("all.total_weight", "top.total_weight"))
            assert joined.view(Region({"Device": "iPhone"}), request).n_rows == 0
            assert joined.view(Region({"Device": "Pixel"}), request).n_rows == 1
            for cube in (everything, only_pixel, joined):
                for region in (EMPTY_REGION, Region({"Device": "iPhone"})):
                    assert_values_match_view(cube, region, ("Device",))

    def test_left_join_carries_absent_right_sentinel(self, sales_cube):
        spec_all = CrawlSpec(models=[EntityWeightModel("Revenue")],
                             dimensions=["Device"], thresholds={"total_weight": 0.0})
        spec_high = CrawlSpec(models=[EntityWeightModel("Revenue")],
                              dimensions=["Device"], thresholds={"total_weight": 60.0})
        everything = top_down_crawl(sales_cube, spec_all)
        only_pixel = top_down_crawl(sales_cube, spec_high)
        jspec = JoinSpec(on=("Device",), left_prefix="all", right_prefix="top", kind="left")
        request = FeatureRequest((), ("all.total_weight", "top.total_weight"))
        for strategy in ("local", "global"):
            joined = join_cubes(everything, only_pixel, jspec, strategy)
            frame = joined.view(Region({"Device": "iPhone"}), request)
            assert list(frame.iter_rows()) == [((), (55.0, None))]


class TestStrategyEquivalence:
    def test_left_join_with_a_partial_right_result_cube(self, sales_cube):
        # the right crawl keeps only its (Device, OS) cells: no cell leaves OS free
        installs = BaseTableGroupByCube(
            Table.from_rows(["Device", "OS", "Installs"],
                            [("Pixel", "Android", 3), ("Pixel", "Lineage", 1),
                             ("iPhone", "iOS", 4)]),
            DimensionSchema((Dimension("Device"), Dimension("OS")), (Measure.sum("Installs"),)))
        right = top_down_crawl(installs, CrawlSpec(
            models=[EntityWeightModel("Installs")], dimensions=["Device", "OS"],
            grouping_sets=[("Device", "OS")], thresholds={"total_weight": 2.0}))
        spec = JoinSpec(on=("Device",), left_prefix="sales", right_prefix="os", kind="left")
        local = join_cubes(sales_cube, right, spec, "local")
        glob = join_cubes(sales_cube, right, spec, "global")
        dims = local.schema.dimension_names
        measures = ("sales.Revenue", "os.total_weight")
        # the unmatched left rows stay, with None for the right measure
        assert list(glob.view(EMPTY_REGION, FeatureRequest(("Device",), measures))
                    .iter_rows()) == [(("Pixel",), (70, None)), (("iPhone",), (55, None))]
        regions = [EMPTY_REGION] + [Region({d: v}) for d in dims
                                    for v in local.region_values(EMPTY_REGION, d)]
        for region in regions:
            free = [d for d in dims if d not in region.dims]
            for k in range(len(free) + 1):
                for attrs in itertools.combinations(free, k):
                    request = FeatureRequest(attrs, measures)
                    assert local.view(region, request) == glob.view(region, request), \
                        (region, attrs)

    def test_local_equals_global_randomized(self):
        rng = random.Random(67)
        for _ in range(25):
            left, right = two_sided_tables(rng)
            for kind in ("inner", "left"):
                spec = JoinSpec(on=("k0", "k1"), kind=kind)
                local = join_cubes(left, right, spec, "local")
                glob = join_cubes(left, right, spec, "global")
                dims = local.schema.dimension_names
                measures = ("left.m_left", "right.m_right")
                for _ in range(12):
                    bound = rng.sample(dims, rng.randint(0, 2))
                    region = Region({d: f"v{rng.randint(0, 2)}" if d.startswith("k")
                                     else f"e{rng.randint(0, 2)}" for d in bound})
                    free = [d for d in dims if d not in bound]
                    attrs = tuple(rng.sample(free, rng.randint(0, len(free))))
                    request = FeatureRequest(attrs, measures)
                    assert local.view(region, request) == glob.view(region, request)
                    assert_values_match_view(local, region, dims)
                    assert_values_match_view(glob, region, dims)

    def test_join_count_accounting(self):
        rng = random.Random(71)
        left, right = two_sided_tables(rng)
        spec = JoinSpec(on=("k0", "k1"))
        local = join_cubes(left, right, spec, "local")
        glob = join_cubes(left, right, spec, "global")
        assert glob.counters["global_cellset_joins"] == 1
        assert local.counters["local_view_joins"] == 0
        requests = [FeatureRequest((), ("left.m_left",)),
                    FeatureRequest(("k0",), ("right.m_right",)),
                    FeatureRequest(("k1", "la"), ("left.m_left", "right.m_right"))]
        for request in requests:
            local.view(EMPTY_REGION, request)
            glob.view(EMPTY_REGION, request)
        assert local.counters["local_view_joins"] == len(requests)
        assert glob.counters["global_cellset_joins"] == 1

    def test_a_global_view_checks_its_request_once(self, monkeypatch):
        left, right = two_sided_tables(random.Random(73))
        glob = join_cubes(left, right, JoinSpec(on=("k0", "k1")), "global")
        checks = []
        validate = FeatureRequest.validate
        monkeypatch.setattr(FeatureRequest, "validate",
                            lambda request, schema: checks.append(request)
                            or validate(request, schema))
        glob.view(Region({"k0": "v0"}), FeatureRequest(("la",), ("left.m_left",)))
        assert len(checks) == 1
        with pytest.raises(SchemaError):
            glob.view(Region({"nope": "v0"}), FeatureRequest((), ("left.m_left",)))


def _table_rows(cube):
    """The rows of a base-table cube as dicts."""
    columns = cube.table.columns
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _oracle_join(left, right, spec):
    """The reference cube of a join of two base-table cubes: every view is
    ``oracles.join_view`` over their rows, with the measures in the request's order."""
    rows = [_table_rows(left), _table_rows(right)]
    dims = (left.schema.dimension_names, right.schema.dimension_names)
    glob = join_cubes(left, right, spec, "global")

    def answer(region, request):
        sides = [[m.split(".", 1)[1] for m in request.metric_features
                  if m.split(".", 1)[0] == prefix]
                 for prefix in (spec.left_prefix, spec.right_prefix)]
        joined = [f"{p}.{m}" for p, side in zip((spec.left_prefix, spec.right_prefix), sides)
                  for m in side]
        order = [joined.index(m) for m in request.metric_features]
        got = oracles.join_view(rows[0], rows[1], spec.on, region.bindings(),
                                request.attribute_features, *sides, spec.kind, dims=dims)
        return FeatureFrame(request.attribute_features, request.metric_features,
                            {k: tuple(v[i] for i in order) for k, v in got.items()})

    return oracles.ViewCube(glob.schema, answer)


class TestCellsetCursors:
    """A GLOBAL join and a crawl result bind their cellset's cursor, and a crawl, the
    children it reaches and a pushdown read the same through it as through a reference
    cube that reads values and children off an oracle's views: the rows joined by
    ``oracles.join_view``, and the crawl result's cells read one by one."""

    @staticmethod
    def _answers(cube, m0, m1, regions):
        model = IdModel([m0], apriori={m0: True}, pushdown=[PushdownTerm(m1, ">=", 4)])
        spec = CrawlSpec(models=[model], thresholds={m0: 6})
        return (list(top_down_crawl(cube, spec).entries.items()),
                [region_children(region, spec, cube) for region in regions],
                [apply_pushdown(model, cube, region) for region in regions])

    def test_crawls_read_through_the_cellset_cursor_as_through_the_oracle(self):
        left, right = two_sided_tables(random.Random(29))
        spec = JoinSpec(on=("k0", "k1"))
        glob = join_cubes(left, right, spec, "global")
        m0, m1 = "left.m_left", "right.m_right"
        result = top_down_crawl(glob, CrawlSpec(models=[IdModel([m0, m1])],
                                                thresholds={m1: 3}))
        regions = list(result.entries)[:40] + [Region({"k0": "none"}), Region({"k0": ANY}),
                                               Region({"k0": "v0", "rb": ANY})]
        cells = result.to_cellset()
        references = (_oracle_join(left, right, spec), oracles.ViewCube(
            result.schema, lambda region, request: oracles.cells_view(cells, region, request)))
        for cube, reference in zip((glob, result), references):
            assert type(cube.bind(EMPTY_REGION)) is _CellCursor
            own = self._answers(cube, m0, m1, regions)
            assert self._answers(reference, m0, m1, regions) == own, type(cube).__name__
            assert any(own[1]) and len(set(own[2])) == 2

    def test_a_global_join_takes_unprefixed_measures_in_views_only(self):
        left, right = two_sided_tables(random.Random(31))
        glob = join_cubes(left, right, JoinSpec(on=("k0", "k1")), "global")
        assert glob.view(EMPTY_REGION, FeatureRequest(("la",), ("m_left",))).measure_names \
            == ("left.m_left",)
        # a crawl validates its models against the joined schema before any view
        with pytest.raises(SchemaError, match="unknown measure 'm_left'"):
            top_down_crawl(glob, CrawlSpec(models=[EntityWeightModel("m_left")]))
        with pytest.raises(SchemaError, match="unknown measure 'm_left'"):
            glob.bind(EMPTY_REGION).view(FeatureRequest((), ("m_left",)))

    def test_a_local_join_binds_a_cursor_over_its_sides_cursors(self):
        left, right = two_sided_tables(random.Random(37))
        local = join_cubes(left, right, JoinSpec(on=("k0", "k1")), "local")
        cursor = local.bind(Region({"k0": "v0", "rb": "e1"}))
        assert type(cursor) is _JoinCursor
        assert (cursor.left.region, cursor.right.region) == \
            (Region({"k0": "v0"}), Region({"k0": "v0", "rb": "e1"}))
        # a join dimension refines both sides, a one-sided dimension its side only
        keyed = cursor.child("k1", "v1")
        child = keyed.child("la", "e0")
        assert child.left.region == Region({"k0": "v0", "k1": "v1", "la": "e0"})
        assert child.right is keyed.right
        assert keyed.right.region == Region({"k0": "v0", "k1": "v1", "rb": "e1"})


_KEY_VALUES = {"string": st.sampled_from(["a", "b", "c"]), "integer": st.integers(-1, 1),
               "boolean": st.booleans()}


@st.composite
def _join_side(draw, keys, extra, measure):
    """(cube, its oracle rows at a mask, its dimension names, its measure): a random
    table over the join dimensions ``keys`` (name -> domain) and ``extra`` with NULLs,
    or a crawl of it whose grouping sets and threshold leave holes."""
    values = {k: _KEY_VALUES[domain] | st.just(NULL) for k, domain in keys.items()}
    values[extra] = st.sampled_from(["x", "y"]) | st.just(NULL)
    values[measure] = st.integers(0, 9)
    rows = draw(st.lists(st.fixed_dictionaries(values), min_size=1, max_size=10))
    names = (*keys, extra)
    schema = DimensionSchema(tuple(Dimension(k, d) for k, d in keys.items()) + (Dimension(extra),),
                             (Measure.sum(measure),))
    table = BaseTableGroupByCube(
        Table({c: [r[c] for r in rows] for c in (*names, measure)}), schema)
    if not draw(st.booleans()):
        return table, lambda mask: rows, names, measure
    masks = [c for k in range(len(names) + 1) for c in itertools.combinations(names, k)]
    result = top_down_crawl(table, CrawlSpec(
        models=[EntityWeightModel(measure)], dimensions=list(names),
        grouping_sets=draw(st.lists(st.sampled_from(masks), min_size=1, unique=True)),
        thresholds={"total_weight": float(draw(st.integers(0, 15)))}))
    # the crawl's cells at a mask, one oracle row each
    cells = [({d: region.get(d, ANY) for d in names}, signals["total_weight"])
             for region, signals in result.entries.items()]
    return (result,
            lambda mask: [dict(cell, total_weight=w) for cell, w in cells
                          if {d for d, v in cell.items() if v is not ANY} == set(mask) & set(names)],
            names, "total_weight")


class TestOnePassJoin:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), domain=st.sampled_from(sorted(_KEY_VALUES)), two_keys=st.booleans(),
           kind=st.sampled_from(["inner", "left"]))
    def test_global_cells_are_the_oracle_join_at_every_mask(self, data, domain, two_keys, kind):
        keys = {"k": domain, **({"j": "string"} if two_keys else {})}
        left, left_rows, left_names, lm = data.draw(_join_side(keys, "la", "ml"))
        right, right_rows, right_names, rm = data.draw(_join_side(keys, "rb", "mr"))
        spec = JoinSpec(on=tuple(keys), kind=kind)
        glob = join_cubes(left, right, spec, "global")
        names = glob.schema.dimension_names
        cells = glob.to_cellset().cells
        for k in range(len(names) + 1):
            for mask in itertools.combinations(names, k):
                at = [names.index(d) for d in mask]
                got = {tuple(cell[i] for i in at): (values[f"left.{lm}"], values[f"right.{rm}"])
                       for cell, values in cells.items()
                       if all((v is not ANY) == (d in mask) for d, v in zip(names, cell))}
                want = oracles.join_view(left_rows(mask), right_rows(mask), spec.on, {}, mask,
                                         (lm,), (rm,), kind, dims=(left_names, right_names))
                assert got == want, mask
        local = join_cubes(left, right, spec, "local")
        assert local.to_cellset().cells == cells


class TestLocalAndGlobalCursors:
    """A LOCAL join's cursor and a GLOBAL join's answer every request alike, bound at a
    region or reached by a chain of children, and both take prefixed measure names
    only; ``JoinedCube.view`` resolves an unprefixed name on both alike."""

    VALUES = ["a", "b", 0, 1, True, "x", "y", "zz", NULL, ANY]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), domain=st.sampled_from(sorted(_KEY_VALUES)),
           kind=st.sampled_from(["inner", "left"]))
    def test_local_and_global_cursors_answer_every_request_alike(self, data, domain, kind):
        keys = {"k": domain}
        left, _, _, lm = data.draw(_join_side(keys, "la", "ml"), label="left")
        right, _, _, rm = data.draw(_join_side(keys, "rb", "mr"), label="right")
        spec = JoinSpec(on=("k",), kind=kind)
        local, glob = (join_cubes(left, right, spec, strategy) for strategy in ("local", "global"))
        dims = glob.schema.dimension_names
        measures = (f"left.{lm}", f"right.{rm}")
        requests = [FeatureRequest(attrs, metrics)
                    for k in range(3) for attrs in itertools.permutations(dims, k)
                    for metrics in ((), measures[:1], measures[1:], measures, measures[::-1])]
        bindings = data.draw(st.lists(st.tuples(st.sampled_from(dims),
                                                st.sampled_from(self.VALUES)),
                                      unique_by=lambda b: b[0], max_size=3), label="bindings")
        region = Region(bindings)
        split = data.draw(st.integers(0, len(bindings)), label="split")
        cursors = []
        for cube in (local, glob):
            chained = cube.bind(Region(bindings[:split]))
            for d, v in bindings[split:]:
                chained = chained.child(d, v)
            cursors.append((cube.bind(region), chained))
        (local_bound, local_chained), (glob_bound, glob_chained) = cursors
        assert type(local_bound) is type(local_chained) is _JoinCursor
        for request in requests:
            want = glob_bound.view(request)
            for cursor in (glob_chained, local_bound, local_chained):
                assert cursor.view(request) == want, (region, request)
        for d in dims:
            want = glob_bound.values(d)
            assert all(cursor.values(d) == want
                       for cursor in (glob_chained, local_bound, local_chained))
            if d not in region:
                for v in want + ("zz", NULL, ANY):
                    for request in requests[:6]:
                        assert local_bound.child(d, v).view(request) == \
                            glob_bound.child(d, v).view(request)
        unprefixed = FeatureRequest((), (lm,))
        for cursor in (local_bound, glob_bound):
            with pytest.raises(SchemaError, match=f"unknown measure {lm!r}"):
                cursor.view(unprefixed)
        if lm == rm:  # both sides are crawl results, whose signal names agree
            for cube in (local, glob):
                with pytest.raises(RequestError, match="ambiguous"):
                    cube.view(region, unprefixed)
        else:
            assert local.view(region, unprefixed) == glob.view(region, unprefixed) == \
                glob_bound.view(FeatureRequest((), measures[:1]))


class TestMaterializeJoinedCube:
    def test_global_join_is_written_without_a_view(self, tmp_path, monkeypatch, sales_cube):
        installs = BaseTableGroupByCube(
            Table.from_rows(["Device", "Installs"], [("Pixel", 3), ("iPhone", 4)]),
            DimensionSchema((Dimension("Device"),), (Measure.sum("Installs"),)))
        sales = BaseTableGroupByCube(sales_cube.table, DimensionSchema(
            (Dimension("Device"), Dimension("Browser")), (Measure.sum("Revenue"),)))
        spec = JoinSpec(on=("Device",))
        glob = join_cubes(sales, installs, spec, "global")
        views = []
        view = JoinedCube.view
        monkeypatch.setattr(JoinedCube, "view",
                            lambda cube, *args: views.append(args) or view(cube, *args))
        # a rebuild would view the joined cube once per mask of (Device, Browser)
        materialize(glob, glob.schema.dimension_names, tmp_path / "joined")
        assert views == []
        monkeypatch.undo()
        local = join_cubes(sales, installs, spec, "local")
        assert load_cellset(tmp_path / "joined").cells == local.to_cellset().cells


class TestCrawlOverJoinedCube:
    def test_equals_crawl_over_prejoined_base_table(self):
        rng = random.Random(73)
        for _ in range(10):
            # one logical table split into two measure sets over identical dims
            cols = {"a": [], "b": [], "m1": [], "m2": []}
            for _ in range(rng.randint(5, 40)):
                cols["a"].append(f"v{rng.randint(0, 2)}")
                cols["b"].append(f"w{rng.randint(0, 2)}")
                cols["m1"].append(rng.randint(0, 9))
                cols["m2"].append(rng.randint(0, 9))
            dims = (Dimension("a"), Dimension("b"))
            pre = BaseTableGroupByCube(
                Table(cols), DimensionSchema(dims, (Measure.sum("m1"), Measure.sum("m2"))))
            left = BaseTableGroupByCube(
                Table({k: cols[k] for k in ("a", "b", "m1")}),
                DimensionSchema(dims, (Measure.sum("m1"),)))
            right = BaseTableGroupByCube(
                Table({k: cols[k] for k in ("a", "b", "m2")}),
                DimensionSchema(dims, (Measure.sum("m2"),)))
            joined = join_cubes(left, right, JoinSpec(on=("a", "b")), "global")
            threshold = float(rng.randint(0, 30))
            spec_joined = CrawlSpec(models=[EntityWeightModel("left.m1")],
                                    dimensions=["a", "b"],
                                    thresholds={"total_weight": threshold})
            spec_pre = CrawlSpec(models=[EntityWeightModel("m1")],
                                 dimensions=["a", "b"],
                                 thresholds={"total_weight": threshold})
            got = top_down_crawl(joined, spec_joined)
            want = top_down_crawl(pre, spec_pre)
            assert got.entries == want.entries

    def test_result_cubes_compose(self, sales_cube):
        spec = CrawlSpec(models=[EntityWeightModel("Revenue")], dimensions=["Device"],
                         thresholds={"total_weight": 0.0})
        first = top_down_crawl(sales_cube, spec)
        jspec = JoinSpec(on=("Device",), left_prefix="l", right_prefix="r")
        joined = join_cubes(first, first, jspec, "local")
        crawl2 = CrawlSpec(models=[IdModel(["l.total_weight"], apriori={"l.total_weight": True})],
                           dimensions=["Device"],
                           thresholds={"l.total_weight": 60.0})
        second = top_down_crawl(joined, crawl2)
        assert set(second.entries) == {EMPTY_REGION, Region({"Device": "Pixel"})}
