import dataclasses
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
    Instrumentation,
    JoinSpec,
    Measure,
    PushdownTerm,
    Region,
    ResultCube,
    Table,
    WindowOutlierModel,
    apply_pushdown,
    exhaustive_top_n,
    fim_crawl_spec,
    frequent_itemsets,
    join_cubes,
    naive_crawl,
    region_children,
    top_down_crawl,
    topn_crawl,
    transactions_to_table,
)
from cubecrawl.errors import ModelError, RefusalError, SchemaError, SpecError

from conftest import T2_TRANSACTIONS, random_table, t1_cube
import oracles


def weight_spec(threshold=0.0, **kwargs):
    return CrawlSpec(models=[EntityWeightModel("Revenue")],
                     dimensions=["Device", "Browser"],
                     thresholds={"total_weight": threshold}, **kwargs)


class TestNaiveCrawl:
    def test_fixture_enumerates_all_regions(self, sales_cube):
        result = naive_crawl(sales_cube, weight_spec(0.0))
        # 7 observed nonempty regions plus the population
        assert len(result.entries) == 8
        assert result.entries[EMPTY_REGION] == {"total_weight": 125.0}
        assert result.entries[Region({"Device": "Pixel"})] == {"total_weight": 70.0}
        assert result.entries[Region({"Device": "iPhone"})] == {"total_weight": 55.0}
        assert Region({"Device": "iPhone", "Browser": "Chrome"}) not in result.entries

    def test_nothing_passes_a_high_threshold(self, sales_cube):
        assert naive_crawl(sales_cube, weight_spec(1000.0)).entries == {}

    def test_fim_fixture(self):
        out = frequent_itemsets(T2_TRANSACTIONS, 2, mode="naive")
        assert out == {frozenset("A"): 3, frozenset("B"): 3, frozenset("C"): 2,
                       frozenset("AB"): 2, frozenset("AC"): 2}

    def test_safety_cap(self, sales_cube):
        spec = weight_spec(0.0)
        spec.naive_cap = 3
        with pytest.raises(RefusalError):
            naive_crawl(sales_cube, spec)

    def test_a_partial_cube_is_crawled_exactly(self):
        # {d0=a,d1=b} is held without its parent {d0=a}, so no value of d0 is
        # observed at the root; the crawl must still evaluate and emit it
        schema = DimensionSchema((Dimension("d0"), Dimension("d1")), ())
        deep = Region({"d0": "a", "d1": "b"})
        partial = ResultCube(("d0", "d1"), ("s",),
                             {EMPTY_REGION: {"s": 1.0}, deep: {"s": 2.0}}, schema)
        instr = Instrumentation()
        result = naive_crawl(partial, CrawlSpec(models=[IdModel(["s"])]), instrumentation=instr)
        assert result.entries == {EMPTY_REGION: {"s": 1.0}, deep: {"s": 2.0}}
        assert instr.get("regions_evaluated") == 2

    def test_threshold_on_undeclared_signal(self, sales_cube):
        spec = CrawlSpec(models=[EntityWeightModel("Revenue")],
                         thresholds={"nope": 1.0})
        with pytest.raises(SpecError):
            naive_crawl(sales_cube, spec)


class TestSpecArguments:
    """A CrawlSpec value of the wrong kind is an error, never read as another value."""

    @staticmethod
    def cube():
        table = Table.from_rows(["d", "e", "m"], [("a", "x", 3), ("b", "y", 7), ("ab", "x", 1)])
        schema = DimensionSchema((Dimension("d"), Dimension("e")), (Measure.sum("m"),))
        return BaseTableGroupByCube(table, schema)

    @staticmethod
    def spec(**kwargs):
        return CrawlSpec(models=[IdModel(["m"], apriori={"m": True})], **kwargs)

    @pytest.mark.parametrize("field, value", [
        ("top_n", ("m", 2.7)), ("top_n", ("m", True)), ("top_n", ("m", "3")),
        ("batch_size", 2.5), ("batch_size", "4"), ("batch_size", True),
        ("max_degree", 1.5), ("max_degree", "1"), ("max_degree", True),
        ("naive_cap", "9"), ("naive_cap", True), ("naive_cap", 9.0),
        ("allow_exhaustive_topn", "no"), ("allow_exhaustive_topn", 0),
        ("dimensions", "de"), ("grouping_sets", "de"), ("grouping_sets", ["de"]),
        ("hierarchies", "de"), ("hierarchies", ["de"]), ("dimension_values", {"d": "ab"}),
    ])
    def test_a_value_of_the_wrong_kind_is_a_spec_error(self, field, value):
        for crawl in (top_down_crawl, naive_crawl):
            with pytest.raises(SpecError, match=field if field != "top_n" else "top-n"):
                crawl(self.cube(), self.spec(**{field: value}))

    @pytest.mark.parametrize("field, value, message", [
        ("models", [None], "models"), ("models", None, "models"),
        ("dimension_values", ["d"], "dimension_values"),
        ("thresholds", {None: 1}, "threshold"), ("thresholds", [("m", 1)], "thresholds"),
        ("top_n", ("m", 1, 2), "top_n"), ("top_n", (["m"], 1), "top_n"),
    ])
    def test_a_spec_field_of_the_wrong_shape_is_a_spec_error(self, field, value, message):
        spec = dataclasses.replace(self.spec(), **{field: value})
        for crawl in (top_down_crawl, naive_crawl):
            with pytest.raises(SpecError, match=message):
                crawl(self.cube(), spec)

    def test_a_hierarchy_member_must_be_a_schema_dimension(self):
        for crawl in (top_down_crawl, naive_crawl):
            with pytest.raises(SchemaError, match="'zz'"):
                crawl(self.cube(), self.spec(hierarchies=[["d", "zz"]]))

    def test_exhaustive_top_n_needs_an_integer_n(self):
        result = naive_crawl(self.cube(), self.spec())
        for n in (2.5, "2", True):
            with pytest.raises(SpecError, match="top-n"):
                exhaustive_top_n(result, "m", n)

    def test_a_value_is_not_read_as_its_characters(self):
        spec = self.spec(dimensions=["d"], dimension_values={"d": ["ab"]})
        for crawl in (top_down_crawl, naive_crawl):
            assert crawl(self.cube(), spec).entries == {
                EMPTY_REGION: {"m": 11}, Region({"d": "ab"}): {"m": 1}}


class TestRegionChildren:
    def test_root_children(self, sales_cube):
        spec = weight_spec(dimension_order=["Device", "Browser"])
        kids = region_children(EMPTY_REGION, spec, sales_cube)
        assert set(kids) == {
            Region({"Device": "Pixel"}), Region({"Device": "iPhone"}),
            Region({"Browser": "Chrome"}), Region({"Browser": "Safari"}),
        }

    def test_children_never_rebind_and_follow_order(self, sales_cube):
        spec = weight_spec(dimension_order=["Device", "Browser"])
        kids = region_children(Region({"Device": "Pixel"}), spec, sales_cube)
        assert set(kids) == {
            Region({"Device": "Pixel", "Browser": "Chrome"}),
            Region({"Device": "Pixel", "Browser": "Safari"}),
        }
        # Browser is after Device in the order, so nothing extends a Browser region with Device=...
        assert region_children(Region({"Device": "Pixel", "Browser": "Chrome"}), spec,
                               sales_cube) == []

    def test_only_observed_values_under_parent(self, sales_cube):
        spec = weight_spec(dimension_order=["Device", "Browser"])
        kids = region_children(Region({"Device": "iPhone"}), spec, sales_cube)
        assert kids == [Region({"Device": "iPhone", "Browser": "Safari"})]

    def test_hierarchy_requires_coarse_dimension_first(self):
        rows = [("US", "CA", 5), ("US", "NY", 3), ("CA", "ON", 2)]
        table = Table.from_rows(["Country", "State", "m"], rows)
        schema = DimensionSchema((Dimension("Country"), Dimension("State")),
                                 (Measure.sum("m"),), (("Country", "State"),))
        cube = BaseTableGroupByCube(table, schema)
        spec = CrawlSpec(models=[EntityWeightModel("m")], thresholds={"total_weight": 0})
        kids = region_children(EMPTY_REGION, spec, cube)
        assert all(r.dims == ("Country",) for r in kids)
        result = top_down_crawl(cube, spec)
        for region in result.entries:
            if "State" in region:
                assert "Country" in region
        # grouping set {State} alone is filtered out, {Country} and {Country, State} remain
        assert Region({"Country": "US", "State": "CA"}) in result.entries


class TestTopDownCrawl:
    def test_output_matches_naive_on_fixture(self, sales_cube):
        for threshold in (0.0, 30.0, 50.0, 80.0):
            spec = weight_spec(threshold)
            assert top_down_crawl(sales_cube, spec).entries == \
                naive_crawl(sales_cube, spec).entries

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(41)
        for _ in range(50):
            table, schema = random_table(rng, n_measures=1)
            cube = BaseTableGroupByCube(table, schema)
            dims = list(schema.dimension_names)
            crawl_dims = rng.sample(dims, rng.randint(1, len(dims)))
            spec = CrawlSpec(models=[EntityWeightModel("m0")],
                             dimensions=crawl_dims,
                             thresholds={"total_weight": float(rng.randint(0, 40))},
                             exploration=rng.choice(["bfs", "dfs"]),
                             batch_size=rng.choice([1, 3, 64]))
            pruned = top_down_crawl(cube, spec, validate_apriori=True)
            exhaustive = naive_crawl(cube, spec)
            assert pruned.entries == exhaustive.entries

    def test_pruning_soundness(self):
        rng = random.Random(43)
        for _ in range(10):
            table, schema = random_table(rng, n_measures=1)
            cube = BaseTableGroupByCube(table, schema)
            threshold = float(rng.randint(5, 50))
            spec = CrawlSpec(models=[EntityWeightModel("m0")],
                             thresholds={"total_weight": threshold})
            pruned = top_down_crawl(cube, spec)
            # absent regions must fail the threshold themselves
            base = CrawlSpec(models=[EntityWeightModel("m0")],
                             thresholds={"total_weight": 0.0})
            everything = naive_crawl(cube, base)
            for region, signals in everything.entries.items():
                if region not in pruned.entries:
                    assert signals["total_weight"] < threshold or region not in everything.entries

    def test_exploration_strategies_agree(self, sales_cube):
        bfs = top_down_crawl(sales_cube, weight_spec(40.0, exploration="bfs"))
        dfs = top_down_crawl(sales_cube, weight_spec(40.0, exploration="dfs"))
        assert bfs.entries == dfs.entries

    def test_parallel_determinism(self, sales_cube):
        results = [top_down_crawl(sales_cube, weight_spec(40.0), workers=w)
                   for w in (1, 2, 8)]
        assert results[0].entries == results[1].entries == results[2].entries
        assert (results[0].sorted_records() == results[1].sorted_records()
                == results[2].sorted_records())

    def test_fim_pruned_equals_naive(self):
        assert frequent_itemsets(T2_TRANSACTIONS, 2) == \
            frequent_itemsets(T2_TRANSACTIONS, 2, mode="naive")

    def test_fim_pruning_skips_regions(self):
        # at min_support 3 item C fails, so its extensions are never evaluated
        pruned, exhaustive = Instrumentation(), Instrumentation()
        frequent_itemsets(T2_TRANSACTIONS, 3, instrumentation=pruned)
        frequent_itemsets(T2_TRANSACTIONS, 3, mode="naive", instrumentation=exhaustive)
        assert pruned.get("regions_evaluated") < exhaustive.get("regions_evaluated")
        # at min_support 2 every item is frequent and the lattice is dense:
        # pruning saves nothing, but it must never evaluate more than naive
        pruned2, exhaustive2 = Instrumentation(), Instrumentation()
        frequent_itemsets(T2_TRANSACTIONS, 2, instrumentation=pruned2)
        frequent_itemsets(T2_TRANSACTIONS, 2, mode="naive", instrumentation=exhaustive2)
        assert pruned2.get("regions_evaluated") <= exhaustive2.get("regions_evaluated")

    def test_abc_support_one_excluded(self):
        out = frequent_itemsets(T2_TRANSACTIONS, 2)
        assert frozenset("ABC") not in out
        assert oracles.apriori_itemsets(T2_TRANSACTIONS, 2) == out


def small_cube(rows, dims, measures=("m",)):
    table = Table.from_rows(list(dims) + list(measures), rows)
    return BaseTableGroupByCube(table, DimensionSchema(
        tuple(Dimension(d) for d in dims), tuple(Measure.sum(m) for m in measures)))


class TestSubRegionSkips:
    """A child whose one-smaller sub-region other than its parent failed, or in a
    top-n crawl fell below the n-th best, is skipped without being evaluated."""

    def crawl(self, cube, spec):
        instr = Instrumentation()
        result = top_down_crawl(cube, spec, instrumentation=instr, validate_apriori=True)
        naive = naive_crawl(cube, spec)
        # a top-n result is ranked; a threshold crawl's is in crawl order
        assert (list(result.entries.items()) == list(naive.entries.items()) if spec.top_n
                else result.entries == naive.entries)
        return result, instr

    def test_a_child_of_a_passing_region_is_skipped_when_its_other_sub_region_was_pruned(self):
        # {d1=x} (weight 1) is pruned, so {d0=a, d1=x} is skipped though {d0=a} passes
        cube = small_cube([("a", "x", 1), ("a", "y", 5), ("b", "y", 5)], ("d0", "d1"))
        spec = CrawlSpec(models=[EntityWeightModel("m")], thresholds={"total_weight": 3.0},
                         dimension_order=["d0", "d1"])
        result, instr = self.crawl(cube, spec)
        # the root, {d0=a}, {d0=b}, {d1=x}, {d1=y}, {d0=a, d1=y} and {d0=b, d1=y}
        assert instr.get("regions_evaluated") == 7
        assert instr.get("regions_skipped") == 1
        assert Region({"d0": "a", "d1": "x"}) not in result.entries
        assert region_children(Region({"d0": "a"}), spec, cube) == \
            [Region({"d0": "a", "d1": "x"}), Region({"d0": "a", "d1": "y"})]

    def test_a_top_n_child_is_skipped_when_its_other_sub_region_is_below_the_nth_best(self):
        # after the root's batch the 2nd best is {d0=a} at 11, so {d0=a, d1=x} and
        # {d0=b, d1=x} are skipped: {d1=x} weighs 2, though nothing was pruned
        cube = small_cube([("a", "x", 1), ("a", "y", 10), ("b", "x", 1), ("b", "y", 10)],
                          ("d0", "d1"))
        spec = CrawlSpec(models=[EntityWeightModel("m")], top_n=("total_weight", 2),
                         grouping_sets=[["d0"], ["d1"], ["d0", "d1"]],
                         dimension_order=["d0", "d1"], batch_size=1)
        result, instr = self.crawl(cube, spec)
        assert instr.get("regions_evaluated") == 7
        assert instr.get("regions_skipped") == 2
        assert list(result.entries) == [Region({"d1": "y"}), Region({"d0": "a"})]

    def test_a_region_a_gate_fails_is_skipped_with_its_subtree(self):
        # {d0=a, d1=x} fails the gate g >= 3, which does not prune, so a crawl that
        # evaluated it would expand it; its sub-region {d1=x} failed the apriori
        # weight minimum, so it and {d0=b, d1=x} are skipped, and so is every region
        # below them
        cube = small_cube([("a", "x", "p", 1, 1), ("a", "x", "q", 1, 1),
                           ("b", "x", "p", 2, 1), ("a", "y", "p", 5, 10)],
                          ("d0", "d1", "d2"), ("g", "m"))
        for exploration in ("bfs", "dfs"):
            spec = CrawlSpec(models=[IdModel(["g"], gate=True), EntityWeightModel("m")],
                             thresholds={"g": 3.0, "total_weight": 5.0},
                             dimension_order=["d0", "d1", "d2"], exploration=exploration)
            result, instr = self.crawl(cube, spec)
            assert instr.get("regions_evaluated") == 13
            assert instr.get("regions_skipped") == 2
            assert len(result.entries) == 8

    def test_bfs_and_dfs_give_equal_entries(self):
        rng = random.Random(29)
        skipped = 0
        for _ in range(40):
            table, schema = random_table(rng, n_measures=1)
            cube = BaseTableGroupByCube(table, schema)
            top_n = rng.choice([None, ("total_weight", rng.randint(1, 6))])
            thresholds = {} if top_n else {"total_weight": rng.randint(0, 40)}
            batch_size = rng.choice([1, 3, 64])
            results = []
            for exploration in ("bfs", "dfs"):
                spec = CrawlSpec(models=[EntityWeightModel("m0")], top_n=top_n,
                                 thresholds=thresholds, exploration=exploration,
                                 batch_size=batch_size)
                result, instr = self.crawl(cube, spec)
                results.append(result.entries)
                skipped += instr.get("regions_skipped")
            assert results[0] == results[1]
        assert skipped > 0


class TestGating:
    def make_timeseries_cube(self):
        rows = []
        for device, series in (("A", [10, 10, 10, 10, 20]), ("B", [1, 1, 1, 1, 1])):
            rows.extend((device, f"d{i}", v) for i, v in enumerate(series))
        table = Table.from_rows(["Device", "date", "m"], rows)
        schema = DimensionSchema((Dimension("Device"), Dimension("date")),
                                 (Measure.sum("m"),))
        return BaseTableGroupByCube(table, schema)

    def test_gate_skips_expensive_model(self):
        cube = self.make_timeseries_cube()
        instr = Instrumentation()
        spec = CrawlSpec(
            models=[EntityWeightModel("m", gate=True),
                    WindowOutlierModel("date", "m", window=4)],
            dimensions=["Device"],
            thresholds={"total_weight": 50.0},
        )
        result = top_down_crawl(cube, spec, instrumentation=instr)
        # regions with weight >= 50: population (65) and device A (60)
        assert instr.model_invocations["window_outlier"] == 2
        assert instr.model_invocations["entity_weight"] == 3
        assert set(result.entries) == {EMPTY_REGION, Region({"Device": "A"})}
        assert result.entries[Region({"Device": "A"})]["z_score"] > 1e6

    def test_gate_failure_blocks_emission_even_without_later_thresholds(self):
        cube = self.make_timeseries_cube()
        spec = CrawlSpec(
            models=[EntityWeightModel("m", gate=True),
                    WindowOutlierModel("date", "m", window=4)],
            dimensions=["Device"],
            thresholds={"total_weight": 50.0, "region_share": 0.0},
        )
        result = top_down_crawl(cube, spec)
        assert Region({"Device": "B"}) not in result.entries


class TestPopulationFrames:
    def test_models_sharing_a_name_each_get_their_own_frame(self, sales_cube):
        from cubecrawl import AttributionModel, DiffModel

        def spec(diff_name, attribution_name):
            return CrawlSpec(models=[DiffModel("Revenue", name=diff_name),
                                     AttributionModel("Clicks", name=attribution_name)],
                             dimensions=["Device", "Browser"])

        for crawl in (top_down_crawl, naive_crawl):
            want = crawl(sales_cube, spec("diff", "attribution"))
            assert len(want.entries) == 8
            assert crawl(sales_cube, spec("x", "x")) == want, crawl.__name__


class TestPushdown:
    def test_predicate_values_on_fixture(self, sales_cube):
        model = EntityWeightModel("Revenue", min_weight_pushdown=50.0)
        assert apply_pushdown(model, sales_cube, Region({"Device": "iPhone"}))  # 55
        assert apply_pushdown(model, sales_cube, Region({"Device": "Pixel"}))  # 70
        assert not apply_pushdown(model, sales_cube,
                                  Region({"Device": "Pixel", "Browser": "Chrome"}))  # 25

    def test_pushdown_equals_plain_crawl(self):
        rng = random.Random(47)
        for _ in range(20):
            table, schema = random_table(rng, n_measures=1)
            cube = BaseTableGroupByCube(table, schema)
            threshold = float(rng.randint(0, 40))
            plain = CrawlSpec(models=[EntityWeightModel("m0")],
                              thresholds={"total_weight": threshold})
            pushed = CrawlSpec(
                models=[EntityWeightModel("m0", min_weight_pushdown=threshold)],
                thresholds={"total_weight": threshold})
            assert top_down_crawl(cube, pushed).entries == top_down_crawl(cube, plain).entries

    def test_pushdown_avoids_frames(self, sales_cube):
        instr = Instrumentation()
        spec = CrawlSpec(models=[EntityWeightModel("Revenue", min_weight_pushdown=50.0)],
                         dimensions=["Device", "Browser"],
                         thresholds={"total_weight": 50.0})
        result = top_down_crawl(sales_cube, spec, instrumentation=instr)
        # frames only for regions passing the pushdown
        assert instr.get("frames_materialized") == len(result.entries)
        assert instr.get("pushdown_rejections") > 0

    def test_vacuous_predicate_filters_nothing(self, sales_cube):
        spec0 = weight_spec(0.0)
        pushed = CrawlSpec(models=[EntityWeightModel("Revenue", min_weight_pushdown=0.0)],
                           dimensions=["Device", "Browser"],
                           thresholds={"total_weight": 0.0})
        assert top_down_crawl(sales_cube, pushed).entries == \
            top_down_crawl(sales_cube, spec0).entries

    def test_pushdown_on_count_distinct_rejected(self):
        from cubecrawl import PushdownTerm

        table, schema = transactions_to_table(T2_TRANSACTIONS)
        cube = BaseTableGroupByCube(table, schema)
        model = IdModel(["support"], pushdown=(PushdownTerm("support", ">=", 1.0),))
        spec = CrawlSpec(models=[model], thresholds={})
        with pytest.raises(SpecError):
            top_down_crawl(cube, spec)

    def test_only_a_failed_minimum_prunes(self):
        table = Table.from_rows(["d", "e", "m"], [("a", "x", 3), ("a", "y", 7), ("b", "x", 1)])
        schema = DimensionSchema((Dimension("d"), Dimension("e")), (Measure.sum("m"),))
        cube = BaseTableGroupByCube(table, schema)
        model = IdModel(["m"], pushdown=[PushdownTerm("m", ">=", 0), PushdownTerm("m", "<=", 5)])
        spec = CrawlSpec(models=[model])
        naive = naive_crawl(cube, spec)
        # the root (11) fails m <= 5, a maximum, so its children are still crawled
        assert len(naive.entries) == 4
        assert top_down_crawl(cube, spec).entries == naive.entries

    def test_a_pushdown_on_an_absent_right_side_is_a_model_error(self):
        def cube(dim_values, measure, values):
            return BaseTableGroupByCube(Table({"k": dim_values, measure: values}),
                                        DimensionSchema((Dimension("k"),), (Measure.sum(measure),)))

        left, right = cube(["a", "b"], "v", [1, 2]), cube(["a"], "w", [5])
        model = IdModel(["left.v"], pushdown=[PushdownTerm("right.w", ">=", 1)])
        for strategy in ("local", "global"):
            joined = join_cubes(left, right, JoinSpec(on=("k",), kind="left"), strategy)
            for crawl in (top_down_crawl, naive_crawl):
                with pytest.raises(ModelError):
                    crawl(joined, CrawlSpec(models=[model]))


class TestTopN:
    def test_fixture_top3(self, sales_cube):
        spec = weight_spec(0.0, top_n=("total_weight", 3))
        result = topn_crawl(sales_cube, spec)
        assert list(result.entries) == [
            EMPTY_REGION, Region({"Browser": "Safari"}), Region({"Device": "Pixel"})]

    def test_tie_broken_by_canonical_key(self, sales_cube):
        # rank 4 is a tie at 55 between (Device=iPhone) and (Device=iPhone, Browser=Safari)
        spec = weight_spec(0.0, top_n=("total_weight", 4))
        result = topn_crawl(sales_cube, spec)
        assert list(result.entries)[-1] == Region({"Device": "iPhone"})
        spec5 = weight_spec(0.0, top_n=("total_weight", 5))
        result5 = topn_crawl(sales_cube, spec5)
        assert list(result5.entries)[-1] == Region({"Device": "iPhone", "Browser": "Safari"})

    def test_n_larger_than_space(self, sales_cube):
        spec = weight_spec(0.0, top_n=("total_weight", 50))
        result = topn_crawl(sales_cube, spec)
        exhaustive = naive_crawl(sales_cube, weight_spec(0.0))
        assert result.entries == exhaustive.entries
        sigmas = [s["total_weight"] for s in result.entries.values()]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_matches_exhaustive_oracle_randomized(self):
        rng = random.Random(53)
        for _ in range(40):
            table, schema = random_table(rng, n_measures=1)
            cube = BaseTableGroupByCube(table, schema)
            for n in (1, 3, 10):
                spec = CrawlSpec(models=[EntityWeightModel("m0")],
                                 top_n=("total_weight", n),
                                 exploration=rng.choice(["bfs", "dfs"]),
                                 batch_size=rng.choice([2, 64]))
                got = topn_crawl(cube, spec)
                base = CrawlSpec(models=[EntityWeightModel("m0")])
                want = exhaustive_top_n(naive_crawl(cube, base), "total_weight", n)
                assert list(got.entries.items()) == list(want.entries.items())

    def test_exhaustive_top_n_needs_n_at_least_one(self, sales_cube):
        result = naive_crawl(sales_cube, CrawlSpec(models=[EntityWeightModel("Revenue")],
                                                   dimensions=["Device"]))
        assert len(result.entries) == 3
        for n in (0, -1):
            with pytest.raises(SpecError, match="top-n needs n >= 1"):
                exhaustive_top_n(result, "total_weight", n)

    def test_parallel_determinism(self, sales_cube):
        spec = weight_spec(0.0, top_n=("total_weight", 4), batch_size=2)
        outs = [topn_crawl(sales_cube, spec, workers=w) for w in (1, 2, 8)]
        assert list(outs[0].entries.items()) == list(outs[1].entries.items()) \
            == list(outs[2].entries.items())

    def test_prunes_compared_to_naive_on_friendly_data(self):
        rng = random.Random(59)
        rows = [(f"v{i}", f"w{rng.randint(0, 9)}", max(1, 200 - i * 7 + rng.randint(0, 3)))
                for i in range(30)]
        table = Table.from_rows(["a", "b", "m"], rows)
        schema = DimensionSchema((Dimension("a"), Dimension("b")), (Measure.sum("m"),))
        cube = BaseTableGroupByCube(table, schema)
        instr_top, instr_naive = Instrumentation(), Instrumentation()
        spec = CrawlSpec(models=[EntityWeightModel("m")], top_n=("total_weight", 3))
        topn_crawl(cube, spec, instrumentation=instr_top)
        naive_crawl(cube, CrawlSpec(models=[EntityWeightModel("m")]),
                    instrumentation=instr_naive)
        assert instr_top.get("regions_evaluated") < instr_naive.get("regions_evaluated")

    def test_non_apriori_signal_rejected_without_fallback(self, sales_cube):
        spec = CrawlSpec(models=[IdModel(["Revenue"])], top_n=("Revenue", 2))
        with pytest.raises(SpecError):
            topn_crawl(sales_cube, spec)
        spec.allow_exhaustive_topn = True
        result = topn_crawl(sales_cube, spec)
        assert len(result.entries) == 2


class TestFrequentItemsetsRandomized:
    def test_matches_brute_force(self):
        rng = random.Random(61)
        for _ in range(20):
            txns = [set(rng.sample("abcdef", rng.randint(1, 4)))
                    for _ in range(rng.randint(4, 30))]
            min_support = rng.randint(2, 5)
            assert frequent_itemsets(txns, min_support) == \
                oracles.apriori_itemsets(txns, min_support)


class TestDiffEmulation:
    def test_flagged_regions_match_two_table_oracle(self):
        from cubecrawl import DiffModel

        rng = random.Random(83)
        checked = 0
        while checked < 15:
            table, schema = random_table(rng, n_dims=3, with_segment=True)
            rows = [dict(zip(table.column_names, vals))
                    for vals in zip(*(table.column(c) for c in table.column_names))]
            pop_t = sum(r["m0"] for r in rows if r["is_test"])
            pop_c = sum(r["m0"] for r in rows if not r["is_test"])
            if pop_t <= 0 or pop_c <= 0:
                continue
            checked += 1
            cube = BaseTableGroupByCube(table, schema)
            min_share = rng.choice([0.05, 0.2, 0.4])
            crawl_dims = [d for d in schema.dimension_names if d != "is_test"]
            spec = CrawlSpec(models=[DiffModel("m0", epsilon=1e-12)],
                             dimensions=crawl_dims,
                             thresholds={"support_ratio": min_share})
            flagged = set(top_down_crawl(cube, spec).entries)
            # brute force: every observed region of every grouping set
            expected = set()
            import itertools as it

            for k in range(len(crawl_dims) + 1):
                for subset in it.combinations(crawl_dims, k):
                    combos = {tuple(r[d] for d in subset) for r in rows}
                    for combo in combos:
                        bindings = dict(zip(subset, combo))
                        support, _ = oracles.diff_statistics(rows, bindings, "m0")
                        if support >= min_share:
                            expected.add(Region(bindings))
            assert flagged == expected
