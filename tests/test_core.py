import gc
import random
import weakref

import pytest

from cubecrawl import (
    EMPTY_REGION,
    BaseTableGroupByCube,
    CellsetCube,
    Dimension,
    DimensionSchema,
    FeatureFrame,
    FeatureRequest,
    Measure,
    Region,
    Table,
    build_cellset,
    filter_by_region,
    region_precedes,
)
from cubecrawl.core import ANY, NULL
from cubecrawl.errors import SchemaError

from conftest import (T1_COLUMNS, T1_ROWS, assert_values_match_view, random_table, t1_cube,
                      t1_row_dicts, t1_schema)
import oracles


def t1_table():
    return Table.from_rows(T1_COLUMNS, T1_ROWS)


class TestFilterByRegion:
    def test_single_binding(self):
        sub = filter_by_region(t1_table(), Region({"Device": "Pixel"}))
        assert sub.n_rows == 4
        assert set(sub.column("Device")) == {"Pixel"}

    def test_empty_region_is_population(self):
        assert filter_by_region(t1_table(), EMPTY_REGION).n_rows == 6

    def test_no_match(self):
        assert filter_by_region(t1_table(), Region({"Device": "Nokia"})).n_rows == 0

    def test_unknown_dimension(self):
        with pytest.raises(SchemaError):
            filter_by_region(t1_table(), Region({"Color": "red"}))

    def test_filter_composition(self):
        table = t1_table()
        rng = random.Random(7)
        dims = ["Device", "Browser", "is_test"]
        values = {d: sorted(set(table.column(d)), key=str) for d in dims}
        for _ in range(30):
            d1, d2 = rng.sample(dims, 2)
            g1 = Region({d1: rng.choice(values[d1])})
            g2 = Region({d2: rng.choice(values[d2])})
            combined = Region({**g1.bindings(), **g2.bindings()})
            a = filter_by_region(filter_by_region(table, g1), g2)
            b = filter_by_region(table, combined)
            assert a.columns == b.columns


class TestCubeView:
    def test_population_total(self, sales_cube):
        frame = sales_cube.view(EMPTY_REGION, FeatureRequest((), ("Revenue",)))
        assert frame.n_rows == 1
        assert frame.value("Revenue") == 125

    def test_grouped_view(self, sales_cube):
        frame = sales_cube.view(Region({"Device": "Pixel"}),
                                FeatureRequest(("Browser",), ("Revenue",)))
        assert list(frame.iter_rows()) == [(("Chrome",), (25,)), (("Safari",), (45,))]

    def test_single_row_filter(self, sales_cube):
        region = Region({"Device": "Pixel", "Browser": "Chrome", "is_test": True})
        frame = sales_cube.view(region, FeatureRequest((), ("Clicks",)))
        assert frame.value("Clicks") == 5

    def test_unknown_feature(self, sales_cube):
        with pytest.raises(SchemaError):
            sales_cube.view(EMPTY_REGION, FeatureRequest((), ("Margin",)))
        with pytest.raises(SchemaError):
            sales_cube.view(EMPTY_REGION, FeatureRequest(("Revenue",), ()))

    def test_matches_plain_dict_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            table, schema = random_table(rng, n_measures=2)
            cube = BaseTableGroupByCube(table, schema)
            rows = [dict(zip(table.column_names, vals))
                    for vals in zip(*(table.column(c) for c in table.column_names))]
            dims = list(schema.dimension_names)
            attrs = tuple(rng.sample(dims, rng.randint(0, len(dims))))
            frame = cube.view(EMPTY_REGION, FeatureRequest(attrs, ("m0", "m1")))
            expected = oracles.group_by(rows, attrs, sum_cols=("m0", "m1"))
            got = {a: {"m0": m[0], "m1": m[1]} for a, m in frame.iter_rows()}
            assert got == expected

    def test_empty_region_equals_full_aggregation(self, sales_cube):
        by_hand = sum(r[3] for r in T1_ROWS)
        frame = sales_cube.view(EMPTY_REGION, FeatureRequest((), ("Revenue",)))
        assert frame.value() == by_hand

    def test_count_distinct(self):
        table = Table.from_rows(["X", "tid"], [(1, "a"), (1, "a"), (1, "b"), (2, "c")])
        schema = DimensionSchema((Dimension("X", "integer"),),
                                 (Measure.count_distinct("ids", "tid"),))
        cube = BaseTableGroupByCube(table, schema)
        assert cube.view(Region({"X": 1}), FeatureRequest((), ("ids",))).value() == 2
        assert cube.view(EMPTY_REGION, FeatureRequest((), ("ids",))).value() == 3

    def test_null_values_group(self):
        table = Table.from_rows(["X", "m"], [("a", 1), (NULL, 2), (NULL, 3)])
        schema = DimensionSchema((Dimension("X"),), (Measure.sum("m"),))
        cube = BaseTableGroupByCube(table, schema)
        frame = cube.view(EMPTY_REGION, FeatureRequest(("X",), ("m",)))
        assert list(frame.iter_rows()) == [(("a",), (1,)), ((NULL,), (5,))]
        assert cube.view(Region({"X": NULL}), FeatureRequest((), ("m",))).value() == 5


class TestTableCursor:
    def test_a_refined_cube_is_freed_by_reference_counting(self):
        # a cursor points at its cube, so a cube holding a cursor would be a
        # cycle that only the cycle collector frees
        gc.disable()
        try:
            cube = t1_cube()
            root = cube.bind(EMPTY_REGION)
            leaf = root.child("Device", "Pixel").child("Browser", "Chrome")
            leaf.view(FeatureRequest(("is_test",), ("Revenue",)))
            cube.bind(Region({"Device": "Pixel", "is_test": True})).values("Browser")
            ref = weakref.ref(cube)
            del cube, root, leaf
            assert ref() is None
        finally:
            gc.enable()

    def test_refinement_checks_the_dimension(self, sales_cube):
        root = sales_cube.bind(EMPTY_REGION)
        for read in (lambda: root.values("Revenue"), lambda: root.child("Revenue", 10),
                     lambda: sales_cube.bind(Region({"Color": "red"}))):
            with pytest.raises(SchemaError):
                read()


class TestRegionPrecedes:
    def test_paper_example(self):
        fine = Region({"State": "CA", "City": "MTV"})
        coarse = Region({"State": "CA"})
        assert region_precedes(fine, coarse)
        assert not region_precedes(coarse, fine)

    def test_reflexive(self):
        g = Region({"State": "CA"})
        assert region_precedes(g, g)

    def test_conflicting_binding(self):
        assert not region_precedes(Region({"State": "CA"}), Region({"State": "NY"}))

    def test_partial_order_properties(self):
        rng = random.Random(3)
        dims = ["a", "b", "c"]
        regions = []
        for _ in range(40):
            bound = rng.sample(dims, rng.randint(0, 3))
            regions.append(Region({d: rng.randint(0, 2) for d in bound}))
        for g in regions:
            assert region_precedes(g, g)
        for g1 in regions:
            for g2 in regions:
                if region_precedes(g1, g2) and region_precedes(g2, g1):
                    assert g1 == g2
                for g3 in regions:
                    if region_precedes(g1, g2) and region_precedes(g2, g3):
                        assert region_precedes(g1, g3)

    def test_equal_binding_sets_compare_equal(self):
        a = Region([("x", 1), ("y", 2)])
        b = Region([("y", 2), ("x", 1)])
        assert a == b and hash(a) == hash(b)


class TestCellset:
    def test_device_cells(self, sales_cube):
        cellset = build_cellset(sales_cube, ["Device"])
        revenue = {cell: vals["Revenue"] for cell, vals in cellset.cells.items()}
        assert revenue == {("Pixel",): 70, ("iPhone",): 55, (ANY,): 125}

    def test_empty_base_table(self):
        table = Table({c: [] for c in T1_COLUMNS})
        cube = BaseTableGroupByCube(table, t1_schema())
        cellset = build_cellset(cube, ["Device"])
        assert cellset.cells == {(ANY,): {"Revenue": 0, "Clicks": 0}}
        frame = cellset.view(EMPTY_REGION, FeatureRequest((), ("Revenue",)))
        assert frame.value() == 0

    def test_wildcard_view_matches_cube_view(self, sales_cube):
        cellset = build_cellset(sales_cube, ["Device", "Browser"])
        region = Region({"Device": "Pixel"})
        for request in (FeatureRequest((), ("Revenue", "Clicks")),
                        FeatureRequest(("Browser",), ("Revenue",))):
            assert cellset.view(region, request) == sales_cube.view(region, request)

    def test_cube_function_equivalence_randomized(self):
        rng = random.Random(23)
        absent = 0
        for _ in range(15):
            table, schema = random_table(rng, n_measures=2)
            cube = BaseTableGroupByCube(table, schema)
            dims = list(schema.dimension_names)
            cellset = build_cellset(cube, dims)
            for _ in range(10):
                bound = rng.sample(dims, rng.randint(0, len(dims)))
                region = Region({d: rng.choice(sorted(set(table.column(d)))) for d in bound})
                free = [d for d in dims if d not in bound]
                attrs = tuple(rng.sample(free, rng.randint(0, len(free))))
                request = FeatureRequest(attrs, ("m0", "m1"))
                assert cellset.view(region, request) == cube.view(region, request)
                absent += not cube.view(region, FeatureRequest((), ("m0",))).n_rows
                assert_values_match_view(cube, region, dims)
                assert_values_match_view(cellset, region, dims)
        assert absent

    def test_a_view_without_free_attributes_is_one_probe(self, sales_cube):
        cellset = build_cellset(sales_cube, ["Device", "Browser"])
        assert cellset.cells_at(EMPTY_REGION, ()) == [(ANY, ANY)]
        assert cellset.cells_at(Region({"Device": "Pixel"}), ("Device",)) == [("Pixel", ANY)]
        assert cellset.cells_at(Region({"Device": "Nokia"}), ()) == []
        # a region may bind ANY, which names the aggregated cell but is no value of it
        request = FeatureRequest((), ("Revenue",))
        for region in (Region({"Device": ANY}), Region({"Device": "Pixel", "Browser": ANY})):
            assert cellset.cells_at(region, ()) == []
            assert cellset.view(region, request) == sales_cube.view(region, request)
            assert cellset.view(region, request).n_rows == 0
        assert cellset._by_shape == {}

    def test_a_measure_tuple_of_the_wrong_width_is_a_schema_error(self, sales_cube):
        schema = build_cellset(sales_cube, ["Device"]).schema
        assert CellsetCube(schema, {("Pixel",): (70, 5)}).cells == \
            {("Pixel",): {"Revenue": 70, "Clicks": 5}}
        for values in ((70,), (70, 5, 1), ()):
            with pytest.raises(SchemaError, match=f"holds {len(values)} measures, not 2"):
                CellsetCube(schema, {(ANY,): (125, 9), ("Pixel",): values})

    def test_region_values(self, sales_cube):
        cellset = build_cellset(sales_cube, ["Device", "Browser"])
        assert cellset.region_values(Region({"Device": "iPhone"}), "Browser") == ("Safari",)
        assert sales_cube.region_values(Region({"Device": "iPhone"}), "Browser") == ("Safari",)


class TestFeatureFrame:
    def test_rows_sorted_and_distinct(self):
        frame = FeatureFrame(("x",), ("m",), [(("b",), (1,)), (("a",), (2,))])
        assert [a for a, _ in frame.iter_rows()] == [("a",), ("b",)]
        with pytest.raises(SchemaError):
            FeatureFrame(("x",), ("m",), [(("a",), (1,)), (("a",), (2,))])

    def test_duplicate_request_features_rejected(self):
        with pytest.raises(SchemaError):
            FeatureRequest(("x", "x"), ())


class TestSchema:
    def test_name_collision(self):
        with pytest.raises(SchemaError):
            DimensionSchema((Dimension("x"),), (Measure.sum("x"),))

    def test_hierarchy_must_reference_dimensions(self):
        with pytest.raises(SchemaError):
            DimensionSchema((Dimension("Country"),), (), (("Country", "State"),))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "t1.csv"
        lines = ["Device,Browser,is_test,Revenue,Clicks"]
        for device, browser, is_test, revenue, clicks in T1_ROWS:
            lines.append(f"{device},{browser},{'T' if is_test else 'F'},{revenue},{clicks}")
        path.write_text("\n".join(lines) + "\n")
        table = Table.from_csv(path, t1_schema())
        cube = BaseTableGroupByCube(table, t1_schema())
        assert cube.view(EMPTY_REGION, FeatureRequest((), ("Revenue",))).value() == 125
        assert table.column("is_test")[3] is True
