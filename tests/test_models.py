import inspect
import math
import random

import pytest

from cubecrawl import (
    EMPTY_REGION,
    AttributionModel,
    BaseTableGroupByCube,
    CrawlSpec,
    DiffModel,
    Dimension,
    DimensionSchema,
    EntityMeasureModel,
    EntityModel,
    EntityWeightModel,
    EvaluationContext,
    FeatureRequest,
    FrequentItemsetModel,
    IdModel,
    Measure,
    PushdownTerm,
    Region,
    Table,
    WindowOutlierModel,
    fd_holds,
    fd_violations,
    SegmentedMetrics,
    attribute_density,
    naive_crawl,
    region_precedes,
    summable_ras,
)
from cubecrawl.errors import ContractError, DataError, ModelError, SchemaError, SpecError
from cubecrawl.cli import _MODEL_PARAMS
from cubecrawl.models import MODEL_KINDS, build_model

from conftest import random_table, t1_cube, t1_row_dicts
import oracles


def evaluate_at(cube, model, region):
    model.validate_against(cube.schema)
    pop = cube.view(EMPTY_REGION, model.population_request) if model.population_request else None
    ctx = EvaluationContext(region, cube.view(region, model.request), pop)
    return model.run(ctx)


class TestEvaluateContract:
    def test_id_model_reads_metric(self):
        table = Table.from_rows(["X", "tid"], [(1, "a"), (1, "b"), (1, "c")])
        schema = DimensionSchema((Dimension("X", "integer"),),
                                 (Measure.count_distinct("distinct_target_count", "tid"),))
        cube = BaseTableGroupByCube(table, schema)
        model = IdModel(["distinct_target_count"])
        out = evaluate_at(cube, model, Region({"X": 1}))
        assert out == {"distinct_target_count": 3.0}
        assert model.is_apriori("distinct_target_count")

    def test_entity_weight_fixture(self, sales_cube):
        model = EntityWeightModel("Revenue")
        assert evaluate_at(sales_cube, model, Region({"Device": "Pixel"})) == {"total_weight": 70.0}
        assert evaluate_at(sales_cube, model, EMPTY_REGION) == {"total_weight": 125.0}

    def test_entity_weight_monotone_on_fixture(self, sales_cube):
        model = EntityWeightModel("Revenue")
        coarse = evaluate_at(sales_cube, model, Region({"Device": "Pixel"}))
        fine = evaluate_at(sales_cube, model,
                           Region({"Device": "Pixel", "Browser": "Chrome"}))
        assert fine["total_weight"] == 25.0 <= coarse["total_weight"] == 70.0

    def test_empty_region_frame_gives_zero_weight(self, sales_cube):
        model = EntityWeightModel("Revenue")
        assert evaluate_at(sales_cube, model, Region({"Device": "Nokia"})) == {"total_weight": 0.0}

    def test_frame_request_mismatch(self, sales_cube):
        model = EntityWeightModel("Revenue")
        model.validate_against(sales_cube.schema)
        wrong = sales_cube.view(EMPTY_REGION, FeatureRequest((), ("Clicks",)))
        with pytest.raises(ContractError):
            model.run(EvaluationContext(EMPTY_REGION, wrong))

    def test_non_finite_signal_rejected(self, sales_cube):
        from cubecrawl import LambdaModel, SignalSpec

        model = LambdaModel("bad", FeatureRequest((), ("Revenue",)),
                            (SignalSpec("x"),), lambda ctx: {"x": math.nan})
        model.validate_against(sales_cube.schema)
        frame = sales_cube.view(EMPTY_REGION, model.request)
        with pytest.raises(ModelError):
            model.run(EvaluationContext(EMPTY_REGION, frame))

    @pytest.mark.parametrize("model, signal", [(EntityWeightModel("m"), "total_weight"),
                                               (IdModel(["m"]), "m")])
    def test_a_sum_past_the_float_range_is_a_model_error(self, model, signal):
        # each cell is a finite number; their sum is not
        table = Table.from_rows(["X", "m"], [("a", 10 ** 308), ("b", 10 ** 308)])
        cube = BaseTableGroupByCube(table, DimensionSchema((Dimension("X"),), (Measure.sum("m"),)))
        spec = CrawlSpec(models=[model], dimensions=["X"], thresholds={signal: 0})
        with pytest.raises(ModelError, match="overflowed the float range"):
            naive_crawl(cube, spec)

    def test_an_integer_signal_past_the_float_range_is_a_model_error(self, sales_cube):
        from cubecrawl import LambdaModel, SignalSpec

        model = LambdaModel("big", FeatureRequest((), ("Revenue",)),
                            (SignalSpec("x"),), lambda ctx: {"x": 10 ** 400})
        model.validate_against(sales_cube.schema)
        frame = sales_cube.view(EMPTY_REGION, model.request)
        with pytest.raises(ModelError, match="not a finite number"):
            model.run(EvaluationContext(EMPTY_REGION, frame))

    def test_signal_names_are_kept_and_follow_a_reassignment(self, sales_cube):
        from cubecrawl import SignalSpec

        model = IdModel(["Revenue", "Clicks"])
        assert model.signal_names == ("Revenue", "Clicks")
        assert model.signal_names is model.signal_names
        model.validate_against(sales_cube.schema)
        assert model.signal_names == ("Revenue", "Clicks")
        model.signals = [SignalSpec("x"), SignalSpec("y", apriori=True)]
        assert model.signals == (SignalSpec("x"), SignalSpec("y", apriori=True))
        assert model.signal_names == ("x", "y") and model.is_apriori("y")

    def test_purity(self, sales_cube):
        model = DiffModel("Revenue")
        r = Region({"Device": "iPhone"})
        assert evaluate_at(sales_cube, model, r) == evaluate_at(sales_cube, model, r)

    def test_negative_weight_rejected(self):
        table = Table.from_rows(["X", "m"], [("a", -5)])
        schema = DimensionSchema((Dimension("X"),), (Measure.sum("m"),))
        cube = BaseTableGroupByCube(table, schema)
        with pytest.raises(DataError):
            evaluate_at(cube, EntityWeightModel("m"), Region({"X": "a"}))


def test_pushdown_values_and_epsilon_must_be_finite():
    for value in (math.nan, math.inf, -math.inf, 10 ** 400, "1", True):
        with pytest.raises(SpecError):
            PushdownTerm("Revenue", ">=", value)
    for value in (math.nan, math.inf, -math.inf, True, "5"):
        with pytest.raises(SpecError):
            EntityWeightModel("Revenue", min_weight_pushdown=value)
    for epsilon in (math.nan, math.inf, -1.0, True):
        with pytest.raises(SpecError):
            DiffModel("Revenue", epsilon=epsilon)


@pytest.mark.parametrize("build", [
    lambda: IdModel("mn"),  # would crawl the signals m and n
    lambda: EntityModel("de"),  # would count the columns d and e
    lambda: EntityMeasureModel("de", "m"),
    lambda: IdModel(["m"], apriori={"m": "yes"}),  # would flag m apriori
    lambda: IdModel(["m"], apriori={"m": 1}),
    lambda: IdModel(["m"], apriori="m"),
], ids=["id-metrics", "entity-columns", "entity-measure-columns", "apriori-string",
        "apriori-int", "apriori-not-a-mapping"])
def test_model_constructors_refuse_arguments_of_the_wrong_kind(build):
    with pytest.raises(SpecError):
        build()


@pytest.mark.parametrize("kind, params", [
    ("id", {"metrics": ["Revenue"]}),
    ("entity_weight", {"metric": "Revenue", "min_weight_pushdown": 5}),
    ("frequent_itemset", {}),
    ("diff", {"weight_measure": "Revenue"}),
    ("entity", {"entity_columns": ["Browser"]}),
    ("entity_measure", {"entity_columns": ["Browser"], "entity_measure": "Revenue"}),
    ("window_outlier", {"date_dim": "date", "metric": "Revenue", "window": 3}),
    ("attribution", {"numerator": "Revenue"}),
])
def test_build_model_keeps_gate_and_pushdown_for_every_kind(kind, params):
    term = PushdownTerm("Revenue", ">=", 1e9)
    model = build_model(kind, params, gate=True, pushdown=[("Revenue", ">=", 1e9)])
    assert model.gate is True
    # the kind's own pushdown (entity_weight's min_weight_pushdown) comes first
    own = build_model(kind, params)
    assert own.gate is False
    assert model.pushdown == own.pushdown + (term,)


def test_model_kind_params_are_its_class_keywords():
    assert set(MODEL_KINDS) == set(_MODEL_PARAMS)
    for kind, cls in MODEL_KINDS.items():
        keywords = set(inspect.signature(cls).parameters) - {"gate", "pushdown"}
        assert keywords == set(_MODEL_PARAMS[kind]), kind


@pytest.mark.parametrize("kind, params, message", [
    ("lasso", {}, "unknown model kind 'lasso'"),
    ("diff", {}, "missing a required argument: 'weight_measure'"),
    ("diff", {"weight_measure": "Revenue", "bogus": 1}, "unexpected keyword argument 'bogus'"),
    ("diff", {"weight_measure": "Revenue", "gate": True}, "go beside 'params'"),
    ("id", {"metrics": ["Revenue"], "pushdown": []}, "go beside 'params'"),
    ("frequent_itemset", {"gate": False}, "go beside 'params'"),
])
def test_build_model_rejects_bad_params(kind, params, message):
    with pytest.raises(SpecError, match=message):
        build_model(kind, params)


class TestDiffModel:
    def test_whole_population_risk_one(self, sales_cube):
        out = evaluate_at(sales_cube, DiffModel("Revenue"), EMPTY_REGION)
        assert out["risk_ratio"] == pytest.approx(1.0)
        assert out["support_ratio"] == pytest.approx(1.0)

    def test_iphone_fixture_values(self, sales_cube):
        out = evaluate_at(sales_cube, DiffModel("Revenue"), Region({"Device": "iPhone"}))
        assert out["support_ratio"] == pytest.approx(25 / 65)
        assert out["risk_ratio"] == pytest.approx((25 / 65) / (30 / 60))
        assert out["risk_ratio"] == pytest.approx(0.7692, abs=1e-4)

    def test_no_test_rows(self):
        rows = [("a", False, 10), ("b", False, 5), ("b", True, 5)]
        table = Table.from_rows(["X", "is_test", "m"], rows)
        schema = DimensionSchema((Dimension("X"), Dimension("is_test", "boolean")),
                                 (Measure.sum("m"),))
        cube = BaseTableGroupByCube(table, schema)
        out = evaluate_at(cube, DiffModel("m", epsilon=1e-9), Region({"X": "a"}))
        assert out["support_ratio"] == 0.0

    def test_zero_control_share_errors_without_epsilon(self):
        rows = [("a", True, 10), ("b", False, 5), ("b", True, 5)]
        table = Table.from_rows(["X", "is_test", "m"], rows)
        schema = DimensionSchema((Dimension("X"), Dimension("is_test", "boolean")),
                                 (Measure.sum("m"),))
        cube = BaseTableGroupByCube(table, schema)
        with pytest.raises(ModelError):
            evaluate_at(cube, DiffModel("m"), Region({"X": "a"}))
        smoothed = evaluate_at(cube, DiffModel("m", epsilon=1e-6), Region({"X": "a"}))
        assert math.isfinite(smoothed["risk_ratio"])

    def test_matches_two_table_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            table, schema = random_table(rng, with_segment=True)
            # both segments need positive weight for the statistics to exist
            if not (sum(m for m, s in zip(table.column("m0"), table.column("is_test")) if s) > 0
                    and sum(m for m, s in zip(table.column("m0"), table.column("is_test"))
                            if not s) > 0):
                continue
            cube = BaseTableGroupByCube(table, schema)
            rows = [dict(zip(table.column_names, vals))
                    for vals in zip(*(table.column(c) for c in table.column_names))]
            model = DiffModel("m0", epsilon=1e-12)
            d = schema.dimension_names[0]
            for value in sorted(set(table.column(d))):
                region = Region({d: value})
                got = evaluate_at(cube, model, region)
                support, risk = oracles.diff_statistics(rows, region.bindings(), "m0")
                assert got["support_ratio"] == pytest.approx(support, abs=1e-12)
                if math.isfinite(risk) and risk > 0:
                    assert got["risk_ratio"] == pytest.approx(risk, rel=1e-6)


class TestAttributionModel:
    @pytest.mark.parametrize("denominator", [None, "m1"])
    def test_signals_are_the_formulas_of_the_oracle_segment_totals(self, denominator):
        rng = random.Random(23)
        measures = ("m0",) if denominator is None else ("m0", "m1")
        crawled = 0
        for _ in range(20):
            table, schema = random_table(rng, n_dims=2, max_rows=30, n_measures=2,
                                         with_segment=True)
            rows = [dict(zip(table.column_names, vals))
                    for vals in zip(*(table.column(c) for c in table.column_names))]
            # a density needs positive population denominators in both segments
            population = oracles.segment_totals(rows, {}, measures)
            if denominator is not None and min(population[2:]) <= 0:
                continue
            cube = BaseTableGroupByCube(table, schema)
            result = naive_crawl(cube, CrawlSpec(models=[AttributionModel("m0", denominator)],
                                                 dimensions=["d0", "d1"]))
            for region, signals in result.sorted_records():
                m = SegmentedMetrics.of(
                    oracles.segment_totals(rows, region.bindings(), measures), population)
                if denominator is None:
                    assert signals == {"ras": summable_ras(m).ras}, region
                else:
                    expected = attribute_density(m)
                    assert signals == {"ras": expected.ras,
                                       "numerator_part": expected.components[0],
                                       "denominator_part": expected.components[1]}, region
            crawled += 1
            assert len(result.entries) == len({
                Region(dict(zip(attrs, (r[a] for a in attrs))))
                for attrs in ((), ("d0",), ("d1",), ("d0", "d1")) for r in rows})
        assert crawled >= 10


class TestEntityModels:
    def test_fd_satisfied(self):
        table = Table.from_rows(["X", "Z"], [(1, "a"), (1, "a"), (2, "b")])
        schema = DimensionSchema((Dimension("X", "integer"), Dimension("Z")), ())
        cube = BaseTableGroupByCube(table, schema)
        out = evaluate_at(cube, EntityModel(["Z"]), Region({"X": 1}))
        assert out == {"entity_count": 1.0}

    def test_fd_violation_detected(self):
        table = Table.from_rows(["X", "Z"], [(1, "a"), (1, "b")])
        schema = DimensionSchema((Dimension("X", "integer"), Dimension("Z")), ())
        cube = BaseTableGroupByCube(table, schema)
        out = evaluate_at(cube, EntityModel(["Z"]), Region({"X": 1}))
        assert out["entity_count"] == 2.0

    def test_three_approaches_agree_with_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(3, 30)
            rows = [{"X": rng.randint(0, 3), "Y": rng.randint(0, 2),
                     "Z": rng.choice("pq"), "W": rng.randint(0, 2)} for _ in range(n)]
            table = Table.from_rows(["X", "Y", "Z", "W"], [tuple(r.values()) for r in rows])
            expected = oracles.fd_check(rows, ("X", "Y"), ("Z", "W"))
            verdicts = [fd_holds(table, ("X", "Y"), ("Z", "W"), approach=a) for a in (1, 2, 3)]
            assert verdicts == [expected] * 3
            expected_keys = oracles.fd_violating_keys(rows, ("X", "Y"), ("Z", "W"))
            for a in (1, 2, 3):
                got = fd_violations(table, ("X", "Y"), ("Z", "W"), approach=a)
                got_keys = {(r.get("X"), r.get("Y")) for r in got.entries}
                assert got_keys == expected_keys


class TestWindowOutlier:
    def make_cube(self, series_by_device):
        rows = []
        dates = None
        for device, series in series_by_device.items():
            dates = [f"d{i}" for i in range(len(series))]
            rows.extend((device, d, v) for d, v in zip(dates, series))
        table = Table.from_rows(["Device", "date", "m"], rows)
        schema = DimensionSchema((Dimension("Device"), Dimension("date")), (Measure.sum("m"),))
        return BaseTableGroupByCube(table, schema)

    def test_full_coverage_share_one(self):
        cube = self.make_cube({"A": [3, 4, 5, 6, 7]})
        out = evaluate_at(cube, WindowOutlierModel("date", "m", 4), Region({"Device": "A"}))
        assert out["region_share"] == pytest.approx(1.0)

    def test_constant_series_scores_zero(self):
        cube = self.make_cube({"A": [5, 5, 5, 5, 5]})
        out = evaluate_at(cube, WindowOutlierModel("date", "m", 4), Region({"Device": "A"}))
        assert out["z_score"] == 0.0 and out["hybrid_score"] == 0.0

    def test_jump_off_flat_window_scores_large(self):
        cube = self.make_cube({"A": [10, 10, 10, 10, 20]})
        out = evaluate_at(cube, WindowOutlierModel("date", "m", 4), Region({"Device": "A"}))
        assert out["z_score"] > 1e6

    def test_z_score_matches_reference_statistics(self):
        series = [12, 15, 11, 14, 30]
        cube = self.make_cube({"A": series})
        out = evaluate_at(cube, WindowOutlierModel("date", "m", 4), Region({"Device": "A"}))
        mean, std = oracles.mean_std(series[:4])
        assert out["z_score"] == pytest.approx((series[-1] - mean) / std)
        assert out["hybrid_score"] == pytest.approx(abs(out["z_score"]) * 1.0)

    def test_too_few_dates(self):
        cube = self.make_cube({"A": [1, 2, 3]})
        with pytest.raises(ModelError):
            evaluate_at(cube, WindowOutlierModel("date", "m", 4), Region({"Device": "A"}))

    @pytest.mark.parametrize("window", [2.7, 1.0, True, False, "3", None, 0, -2])
    def test_window_must_be_an_integer_of_at_least_one(self, window):
        # an int() of 2.7 or True would crawl a 2- or 1-point window
        with pytest.raises(SpecError, match="window"):
            WindowOutlierModel("date", "m", window)

    def test_missing_dates_align_to_population(self):
        cube = self.make_cube({"A": [10, 10, 10, 10, 10], "B": [1, 0, 1, 0, 8]})
        # device B has zero rows on d1/d3 only if encoded; here all dates exist
        out = evaluate_at(cube, WindowOutlierModel("date", "m", 4), Region({"Device": "B"}))
        assert out["region_share"] == pytest.approx(10 / 60)


class TestAprioriProperty:
    def test_apriori_signals_never_increase_on_refinement(self):
        rng = random.Random(29)
        for _ in range(10):
            table, schema = random_table(rng, n_measures=1)
            schema = DimensionSchema(
                schema.dimensions,
                schema.measures + (Measure.count_distinct("uniq", schema.dimensions[0].name),),
            )
            cube = BaseTableGroupByCube(table, schema)
            models = [EntityWeightModel("m0"), IdModel(["uniq"])]
            dims = list(schema.dimension_names)
            for _ in range(20):
                k = rng.randint(1, len(dims))
                chosen = rng.sample(dims, k)
                values = {d: rng.choice(sorted(set(table.column(d)))) for d in chosen}
                fine = Region(values)
                coarse_dims = rng.sample(chosen, rng.randint(0, k - 1)) if k > 1 else []
                coarse = Region({d: values[d] for d in coarse_dims})
                assert region_precedes(fine, coarse)
                for model in models:
                    f = evaluate_at(cube, model, fine)
                    c = evaluate_at(cube, model, coarse)
                    for spec_ in model.signals:
                        if spec_.apriori:
                            assert f[spec_.name] <= c[spec_.name] + 1e-12


class TestFrequentItemsetModel:
    def test_support_measure_must_be_count_distinct(self, sales_cube):
        with pytest.raises(SchemaError):
            FrequentItemsetModel("Revenue").validate_against(sales_cube.schema)
