import csv
import functools
import gc
import itertools
import math
import operator
import random
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecrawl import (
    EMPTY_REGION,
    BaseTableGroupByCube,
    CellsetCube,
    CrawlSpec,
    Dimension,
    DimensionSchema,
    FeatureFrame,
    FeatureRequest,
    IdModel,
    Measure,
    Region,
    Table,
    build_cellset,
    filter_by_region,
    region_precedes,
    top_down_crawl,
)
import cubecrawl.core
from cubecrawl.core import ANY, NULL, RegionCursor, _CellCursor, sum_in_order
from cubecrawl.errors import DataError, SchemaError

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

    def test_a_float_sum_adds_in_table_order_in_every_group(self):
        # 1e16 + 1.0 rounds back to 1e16, so each sum depends on its addition order
        rows = [("a", "p", 1e16), ("a", "q", 1.0), ("a", "p", -1e16), ("a", "q", 1.0),
                ("b", "p", 1.0), ("b", "q", 2.0)]
        schema = DimensionSchema((Dimension("X"), Dimension("Y")), (Measure.sum("v"),))
        cube = BaseTableGroupByCube(Table.from_rows(["X", "Y", "v"], rows), schema)
        root = cube.bind(EMPTY_REGION)
        named = [dict(zip("XYv", r)) for r in rows]
        for cursor in (root, root.child("X", "a"), cube.bind(Region({"X": "a"}))):
            in_region = [r for r in named if all(r[d] == v for d, v in cursor.region.items())]
            for attrs in [(), ("X",), ("Y",), ("X", "Y"), ("Y", "X")]:
                groups = {}
                for r in in_region:
                    groups.setdefault(tuple(r[a] for a in attrs), []).append(r["v"])
                frame = cursor.view(FeatureRequest(attrs, ("v",)))
                assert {a: m[0] for a, m in frame.iter_rows()} == \
                    {key: functools.reduce(operator.add, vs) for key, vs in groups.items()}
        assert root.view(FeatureRequest((), ("v",))).value() == 4.0
        assert math.fsum(r[2] for r in rows) == 5.0
        assert root.child("X", "a").view(FeatureRequest((), ("v",))).value() == 1.0

    def test_sum_in_order_adds_left_to_right_without_compensation(self):
        values = [1e16, 1.0, -1e16, 1.0]
        assert sum_in_order(values) == functools.reduce(operator.add, values) == 1.0
        assert math.fsum(values) == 2.0
        assert sum_in_order([]) == 0 and sum_in_order(iter([2, 3])) == 5
        assert sum_in_order([10 ** 400, 1]) == 10 ** 400 + 1


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


_DIMS = ("d0", "d1", "d2")
# 1e16 + 1.0 rounds back to 1e16, so a float sum depends on its addition order
_FLOATS = st.sampled_from([0.1, 0.7, 1.0, 1e16, -1e16, 2.5])
_INTS = st.integers(-5, 5)
_SUMS = (("i", _INTS), ("f", _FLOATS), ("x", st.one_of(_INTS, _FLOATS)))


@st.composite
def _tables(draw):
    """A small base table (possibly empty) with NULL dimension values, int, float and
    mixed SUM sources and a COUNT_DISTINCT measure, and its rows as dicts."""
    n = draw(st.integers(0, 14))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    columns = {d: column(st.sampled_from(["a", "b", "c", NULL])) for d in _DIMS}
    columns.update((name, column(values)) for name, values in _SUMS)
    columns["t0"] = column(st.sampled_from(["p", "q", "r"]))
    columns["t1"] = column(st.integers(0, 2))
    schema = DimensionSchema(tuple(Dimension(d) for d in _DIMS),
                             tuple(Measure.sum(name) for name, _ in _SUMS)
                             + (Measure.count_distinct("ids", "t0", "t1"),))
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    return BaseTableGroupByCube(Table(columns), schema), rows


_REGIONS = st.dictionaries(st.sampled_from(_DIMS), st.sampled_from(["a", "b", "z", NULL]),
                           max_size=2).map(Region)


def _oracle_frame(rows, region, attrs, measures):
    """The view of ``region`` by ``attrs`` from the brute-force group-by."""
    in_region = oracles.rows_matching(rows, region.bindings())
    groups = oracles.group_by(in_region, attrs, [name for name, _ in _SUMS],
                              [("ids", ("t0", "t1"))])
    if not attrs and not region.degree and not rows:
        groups = {(): {m: 0 for m in measures}}  # an empty table's grand total
    return FeatureFrame(attrs, measures,
                        {key: tuple(agg[m] for m in measures) for key, agg in groups.items()})


class TestTableViews:
    """Every base-table view is the brute-force group-by, whatever the cursor viewed,
    split or refined before."""

    @settings(max_examples=150, deadline=None)
    @given(_tables(), _REGIONS)
    def test_views_values_and_children_match_the_oracle_and_a_fresh_cursor(self, table, region):
        cube, rows = table
        measures = cube.schema.measure_names
        child_of_root = cube.bind(EMPTY_REGION)
        for dim, value in region.items():
            child_of_root = child_of_root.child(dim, value)
        for cursor in (cube.bind(region), child_of_root):
            assert cursor.region == region
            for k in range(4):
                for attrs in itertools.permutations(_DIMS, k):
                    request = FeatureRequest(attrs, measures)
                    expected = _oracle_frame(rows, region, attrs, measures)
                    assert cursor.view(request) == expected
                    assert cursor.view(request) == expected  # the same cursor again
            fresh = cube.bind(region)
            for dim in _DIMS:
                assert cursor.values(dim) == fresh.values(dim)
                for value in cursor.values(dim) + ("z",):
                    if dim not in region:
                        request = FeatureRequest((), measures)
                        assert cursor.child(dim, value).view(request) == \
                            fresh.child(dim, value).view(request)

    def test_a_region_splits_its_rows_by_a_dimension_once(self, monkeypatch):
        # the diff and attribution models both view a region by its segment dimension
        splits = []
        split = cubecrawl.core._split
        monkeypatch.setattr(cubecrawl.core, "_split",
                            lambda coded, rows: splits.append(len(rows)) or split(coded, rows))
        cursor = t1_cube().bind(EMPTY_REGION).child("Device", "Pixel")
        splits.clear()
        for metrics in (("Revenue",), ("Revenue", "Clicks")):
            cursor.view(FeatureRequest(("is_test",), metrics))
        assert cursor.values("is_test") == (False, True)
        assert cursor.child("is_test", True).region == Region({"Device": "Pixel", "is_test": True})
        assert splits == [4]
        # a further attribute splits each group of the kept split
        cursor.view(FeatureRequest(("is_test", "Browser"), ("Revenue",)))
        assert splits == [4, 2, 2]


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

    @pytest.mark.parametrize("pairs", [
        [("d", 1), ("d", "a")],
        [("d", "a"), ("e", 1), ("d", 2)],
        [("d", NULL), ("d", "a")],
        [("d", 1), ("d", 1)],
    ])
    def test_binding_a_dimension_twice_is_a_schema_error_whatever_its_values(self, pairs):
        with pytest.raises(SchemaError, match="more than once"):
            Region(pairs)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=3), st.integers(), max_size=5),
           st.text(max_size=3), st.one_of(st.integers(), st.just(NULL)))
    def test_with_binding_is_the_region_of_the_extended_items(self, bindings, dim, value):
        region = Region(bindings)

        def outcome(build):
            try:
                built = build()
            except SchemaError as exc:
                return "raised", str(exc)
            return built, built.items()

        extended = outcome(lambda: region.with_binding(dim, value))
        assert extended == outcome(lambda: Region(region.items() + ((dim, value),)))
        assert (extended[0] == "raised") == (dim in bindings)


class TestValueOrder:
    """NULL orders itself after every value, as the retired sort key ordered it."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([st.text(max_size=3), st.integers(-5, 5), st.booleans()]).flatmap(
        lambda values: st.lists(st.tuples(st.one_of(st.just(NULL), values),
                                          st.one_of(st.just(NULL), values)), max_size=12)))
    def test_the_natural_order_is_the_retired_key_order(self, rows):
        assert sorted(rows) == sorted(rows, key=lambda r: tuple(map(oracles.value_sort_key, r)))
        column = [a for a, _ in rows]
        assert sorted(column) == sorted(column, key=oracles.value_sort_key)

    def test_null_compares_after_every_value_and_equal_to_itself(self):
        for value in ("", "zzz", -(10 ** 30), 10 ** 30, True, False, None):
            assert value < NULL and value <= NULL and not value >= NULL
            assert NULL > value and NULL >= value and not NULL <= value
        assert NULL <= NULL and NULL >= NULL and not NULL < NULL and not NULL > NULL
        assert max(["b", NULL, "a"]) is NULL


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
        # a nonempty region with no rows has no grand total, so no cells
        assert build_cellset(cube, ["Device"], Region({"Browser": "Safari"})).cells == {}

    def test_a_cellset_at_a_region_is_the_cellset_of_its_rows(self):
        rng = random.Random(5)
        rows = [(rng.choice(["a", "b", NULL]), rng.choice(["x", NULL]), rng.choice(["p", "q"]),
                 rng.choice([0.1, 0.2, 0.7, 1e16]), rng.randint(0, 3)) for _ in range(40)]
        table = Table.from_rows(["d0", "d1", "d2", "m", "tid"], rows)
        schema = DimensionSchema((Dimension("d0"), Dimension("d1"), Dimension("d2")),
                                 (Measure.sum("m"), Measure.count_distinct("ids", "tid")))
        cube = BaseTableGroupByCube(table, schema)
        for region, dims in ((Region({"d1": NULL}), ["d0", "d2"]),
                             (Region({"d0": "a", "d1": NULL}), ["d2"]),
                             (Region({"d0": NULL}), ["d0", "d1", "d2"])):
            of_rows = BaseTableGroupByCube(table.subset(cube.bind(region).row_ids), schema)
            cells = build_cellset(cube, dims, region).cells
            assert cells == build_cellset(of_rows, dims).cells
            assert any(type(m["m"]) is float for m in cells.values())
        assert build_cellset(cube, ["d2"], Region({"d0": "a", "d2": "none"})).cells == {}

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
        assert cellset.bind(EMPTY_REGION).cells(()) == [(ANY, ANY)]
        assert cellset.bind(Region({"Device": "Pixel"})).cells(("Device",)) == [("Pixel", ANY)]
        assert cellset.bind(Region({"Device": "Nokia"})).cells(()) == []
        # a region may bind ANY, which names the aggregated cell but is no value of it
        request = FeatureRequest((), ("Revenue",))
        for region in (Region({"Device": ANY}), Region({"Device": "Pixel", "Browser": ANY})):
            assert cellset.bind(region).cells(()) == []
            assert cellset.view(region, request) == sales_cube.view(region, request)
            assert cellset.view(region, request).n_rows == 0
        assert cellset._by_shape == {}

    def test_the_mask_index_is_built_by_the_first_grouping_view(self, sales_cube):
        cellset = build_cellset(sales_cube, ["Device", "Browser"])
        assert cellset._by_mask is None
        assert cellset.bind(EMPTY_REGION).cells(()) == [(ANY, ANY)]
        assert cellset._by_mask is None  # a probe needs no index
        request = FeatureRequest(("Device",), ("Revenue",))
        assert cellset.view(EMPTY_REGION, request) == sales_cube.view(EMPTY_REGION, request)
        assert frozenset({"Device"}) in cellset._by_mask

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


class TestCellCursor:
    """A cellset's own cursor answers as the cells read one by one, and a region's
    values as the distinct values of the view of that one attribute, for a cellset
    built from a table, the same cells in another order, and a crawl result with
    holes."""

    @settings(max_examples=150, deadline=None)
    @given(_tables(), st.lists(st.sampled_from(_DIMS), unique=True, max_size=3),
           st.integers(-3, 6), st.data())
    def test_bind_and_child_chains_answer_as_the_cells_read_one_by_one(self, table, dims,
                                                                        threshold, data):
        cube, _ = table
        # a crawl result holds only the regions whose "i" passes: a cellset with holes
        result = top_down_crawl(cube, CrawlSpec(models=[IdModel(["i"])], dimensions=dims,
                                                thresholds={"i": threshold}))
        values = st.sampled_from(["a", "b", "z", NULL, ANY])
        built = build_cellset(cube, dims)
        # cells in any order: ``values`` must sort as a view's rows do
        shuffled = CellsetCube(built.schema, dict(data.draw(st.permutations(
            list(built._cells.items())), label="cell order")))
        for kind in (built, shuffled, result):
            cellset = kind.to_cellset()
            bindings = data.draw(st.lists(st.tuples(st.sampled_from(dims), values),
                                          unique_by=operator.itemgetter(0)) if dims
                                 else st.just([]), label="bindings")
            region = Region(bindings)
            split = data.draw(st.integers(0, len(bindings)), label="split")
            chained = kind.bind(Region(bindings[:split]))
            for d, v in bindings[split:]:
                chained = chained.child(d, v)
            measures = kind.schema.measure_names
            requests = [FeatureRequest(attrs, measures)
                        for k in range(3) for attrs in itertools.permutations(dims, k)]

            def values_of(region, d):
                return oracles.cells_view(cellset, region, FeatureRequest((d,), ())).attribute_column(d)

            for cursor in (kind.bind(region), chained):
                assert type(cursor) is _CellCursor and cursor.region == region
                for request in requests:
                    assert cursor.view(request) == kind.view(region, request) == \
                        oracles.cells_view(cellset, region, request), (region, request)
                for d in dims:
                    assert cursor.values(d) == kind.region_values(region, d) == \
                        values_of(region, d)
                    if d in region:
                        continue
                    for v in values_of(region, d) + ("z", NULL, ANY):
                        child = cursor.child(d, v)
                        assert child.region == region.with_binding(d, v)
                        for request in requests[:1 + len(dims)]:
                            assert child.view(request) == \
                                oracles.cells_view(cellset, child.region, request)
                        for e in dims:
                            assert child.values(e) == values_of(child.region, e)


class TestEveryCubeBindsItsOwnCursor:
    """``bind`` is the one read of every cube kind, and the cursor it gives is a direct
    subclass of ``RegionCursor``: the benchmark's tracer finds cursors there alone."""

    def test_every_cube_kind_binds_a_direct_region_cursor_subclass(self, sales_cube, tmp_path):
        from cubecrawl import JoinSpec, chunk_by_partition, join_cubes, rechunk

        result = top_down_crawl(sales_cube, CrawlSpec(models=[IdModel(["Revenue"])],
                                                      dimensions=["Device"]))
        chunked = chunk_by_partition(sales_cube, "Device", ["Browser"], tmp_path / "chunks")
        spec = JoinSpec(on=("Device",))
        cubes = {"base table": sales_cube, "cellset": build_cellset(sales_cube, ["Device"]),
                 "crawl result": result, "chunked store": chunked,
                 "re-chunked store": rechunk(chunked, tmp_path / "slices"),
                 "LOCAL join": join_cubes(sales_cube, result, spec, "local"),
                 "GLOBAL join": join_cubes(sales_cube, result, spec, "global")}
        direct = RegionCursor.__subclasses__()
        for kind, cube in cubes.items():
            for region in (EMPTY_REGION, Region({"Device": "Pixel"})):
                assert type(cube.bind(region)) in direct, kind
        assert len({type(cube.bind(EMPTY_REGION)) for cube in cubes.values()}) == 4


class TestFeatureFrame:
    def test_rows_sorted_and_distinct(self):
        frame = FeatureFrame(("x",), ("m",), {("b",): (1,), ("a",): (2,)})
        assert [a for a, _ in frame.iter_rows()] == [("a",), ("b",)]

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

    def test_a_column_named_twice_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="column 'd0' is named twice"):
            Table.from_rows(["d0", "d0", "m"], [("a", "b", 1)])

    @pytest.mark.parametrize("text", ["d0,m,d0,m\na,1,b,2\n", "d0,d0,m\na,b,1\n"])
    def test_a_csv_header_naming_a_column_twice_is_a_data_error(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        schema = DimensionSchema((Dimension("d0"),), (Measure.sum("m"),))
        with pytest.raises(DataError) as info:
            Table.from_csv(path, schema)
        assert str(info.value) == f"{path}: column 'd0' is named twice in the header"

    def test_an_integer_measure_beyond_2_to_the_53_loads_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("d0,m\na,9007199254740993\na,12345678901234567891\nb,-9007199254740993\n")
        schema = DimensionSchema((Dimension("d0"),), (Measure.sum("m"),))
        cube = BaseTableGroupByCube(Table.from_csv(path, schema), schema)
        frame = cube.view(EMPTY_REGION, FeatureRequest(("d0",), ("m",)))
        assert list(frame.iter_rows()) == [(("a",), (9007199254740993 + 12345678901234567891,)),
                                           (("b",), (-9007199254740993,))]

    @pytest.mark.parametrize("text, message", [
        ("d0,m\n1,2\nx,3\n", "{path}:3: dimension 'd0': 'x' is not an integer"),
        # a quoted cell spans lines 3 and 4; the record is named by its last line
        ('d0,m\n1,2\n"\n2",y\n', "{path}:4: measure source 'm': 'y' is not a number"),
        ("d0,m\n1,2\n2,3,4\n", "{path}:3: expected 2 cells, got 3"),
        ("d0,m\n1,2\n\n", "{path}:3: expected 2 cells, got 0"),
        ("", "{path}: empty CSV"),
    ])
    def test_a_csv_cell_that_does_not_parse_names_its_file_and_line(self, tmp_path, text,
                                                                    message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        schema = DimensionSchema((Dimension("d0", "integer"),), (Measure.sum("m"),))
        with pytest.raises(DataError) as info:
            Table.from_csv(path, schema)
        assert str(info.value) == message.format(path=path)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_csv_loads_each_column_by_its_typing(self, data):
        # the CSV text of each value, and the value it loads as, built without the engine
        text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
                       max_size=6)
        pool = data.draw(st.lists(text, min_size=1, max_size=4), label="string pool")
        words = [(w, True) for w in ("true", "t", "1", "yes", "y")] + \
            [(w, False) for w in ("false", "f", "0", "no", "n")]

        def cased(word_value, upper, pad):
            word, value = word_value
            return (" " * pad + "".join(c.upper() if u else c for c, u in zip(word, upper))
                    + " " * pad, value)
        cells = {
            "s": st.sampled_from(pool).map(lambda t: (t, t or NULL)),
            "i": st.one_of(st.just(("", NULL)),
                           st.integers(-2**70, 2**70).map(lambda n: (str(n), n))),
            "b": st.one_of(st.just(("", NULL)),
                           st.builds(cased, st.sampled_from(words),
                                     st.lists(st.booleans(), min_size=5, max_size=5),
                                     st.integers(0, 1))),
            "m": st.one_of(st.integers(-2**80, 2**80).map(lambda n: (str(n), n)),
                           st.floats(allow_nan=False, allow_infinity=False)
                           .map(lambda f: (repr(f), f))),
            "note": text.map(lambda t: (t, t)),
        }
        header = data.draw(st.permutations(list(cells)), label="header")
        rows = data.draw(st.lists(st.tuples(*(cells[name] for name in header)), max_size=12),
                         label="rows")
        schema = DimensionSchema(
            (Dimension("s"), Dimension("i", "integer"), Dimension("b", "boolean")),
            (Measure.sum("m"), Measure.count_distinct("notes", "note")))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header, *([t for t, _ in row] for row in rows)])
            table = Table.from_csv(path, schema)
        assert table.n_rows == len(rows)
        for at, name in enumerate(header):
            expected = [row[at][1] for row in rows]
            loaded = table.column(name)
            assert [(type(v), repr(v)) for v in loaded] == \
                [(type(v), repr(v)) for v in expected], name
        first = {}
        assert all(first.setdefault(v, v) is v for v in table.column("s"))

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
