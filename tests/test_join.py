import itertools
import random

import pytest

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
    Region,
    Table,
    join_cubes,
    load_cellset,
    materialize,
    naive_crawl,
    top_down_crawl,
)
from cubecrawl.core import NULL
from cubecrawl.errors import JoinError, RequestError, SpecError

from conftest import assert_values_match_view, random_table, t1_cube


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
