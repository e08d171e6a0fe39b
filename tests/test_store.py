import errno
import itertools
import json
import math
import os
import random
import shutil
import struct
import tempfile
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
    EntityWeightModel,
    FeatureFrame,
    FeatureRequest,
    Measure,
    Region,
    ResultCube,
    Table,
    WindowOutlierModel,
    build_cellset,
    chunk_by_partition,
    load_cellset,
    load_store,
    materialize,
    rechunk,
    top_down_crawl,
)
import cubecrawl.store
from cubecrawl.cli import main
from cubecrawl.core import ANY, NULL, _CellCursor
from cubecrawl.errors import RequestError, SchemaError, SpecError, StoreError
from cubecrawl.store import _StoreCursor, _canonical_items

from conftest import assert_values_match_view, random_table, t1_cube
import oracles


def daily_cube(n_days=10, devices=("A", "B", "C"), seed=0):
    rng = random.Random(seed)
    rows = []
    for device in devices:
        for i in range(n_days):
            rows.append((device, f"d{i:02d}", rng.randint(1, 30), rng.randint(1, 9)))
    table = Table.from_rows(["Device", "date", "Revenue", "tid"], rows)
    schema = DimensionSchema(
        (Dimension("Device"), Dimension("date")),
        (Measure.sum("Revenue"), Measure.count_distinct("ids", "tid")),
    )
    return BaseTableGroupByCube(table, schema)


class TestWriteTarget:
    """A store is written into a missing or empty directory or over a store, which it
    replaces whole; any other target is refused before anything is written."""

    def test_a_cellset_over_a_chunked_store_leaves_no_chunk(self, tmp_path):
        cube, path = daily_cube(n_days=2), tmp_path / "store"
        chunk_by_partition(cube, "date", ["Device"], path)
        assert sorted(p.name for p in path.iterdir()) == [
            "chunk-00000.bin", "chunk-00001.bin", "manifest.json"]
        materialize(cube, ["Device", "date"], path)
        assert sorted(p.name for p in path.iterdir()) == ["cells.bin", "manifest.json"]
        assert load_store(path).cells == build_cellset(cube, ["Device", "date"]).cells

    def test_fewer_chunks_over_more_leave_none_behind(self, tmp_path):
        path = tmp_path / "store"
        chunk_by_partition(daily_cube(n_days=4), "date", ["Device"], path)
        chunk_by_partition(daily_cube(n_days=2), "date", ["Device"], path)
        assert sorted(p.name for p in path.iterdir()) == [
            "chunk-00000.bin", "chunk-00001.bin", "manifest.json"]
        assert load_store(path).region_values(EMPTY_REGION, "date") == ("d00", "d01")

    def test_an_empty_directory_is_written_into(self, tmp_path):
        (tmp_path / "store").mkdir()
        materialize(daily_cube(), ["Device"], tmp_path / "store")
        assert load_store(tmp_path / "store").cells

    @pytest.mark.parametrize("foreign", ["notes", "file", "broken store"])
    def test_a_target_that_is_no_store_is_refused(self, tmp_path, foreign):
        path = tmp_path / "store"
        if foreign == "file":
            path.write_text("notes")
        else:
            path.mkdir()
            name = "notes.txt" if foreign == "notes" else "manifest.json"
            (path / name).write_text("notes")
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(StoreError, match="holds no cube store"):
            materialize(daily_cube(), ["Device"], path)
        with pytest.raises(StoreError, match="holds no cube store"):
            chunk_by_partition(daily_cube(), "date", ["Device"], path)
        assert sorted(tmp_path.rglob("*")) == before

    @staticmethod
    def fail_on_step(patch, n):
        """Make the ``n``-th disk step of a store write raise OSError: each part or
        manifest write and each directory rename."""
        steps = itertools.count(1)

        def step(real):
            def stepped(*args, **kwargs):
                if next(steps) == n:
                    raise OSError(f"step {n} fails")
                return real(*args, **kwargs)
            return stepped
        for name in ("write_bytes", "write_text"):
            patch.setattr(Path, name, step(getattr(Path, name)))
        patch.setattr(os, "replace", step(os.replace))

    @pytest.mark.parametrize("existing", [False, True], ids=["missing", "over-a-store"])
    def test_a_write_that_fails_leaves_the_old_store_or_nothing(self, tmp_path, monkeypatch,
                                                                existing):
        path = tmp_path / "store"
        if existing:
            chunk_by_partition(daily_cube(n_days=4), "date", ["Device"], path)
        old = {p.name: p.read_bytes() for p in path.iterdir()} if existing else None
        for n in itertools.count(1):
            with monkeypatch.context() as patch:
                self.fail_on_step(patch, n)
                try:
                    chunk_by_partition(daily_cube(n_days=2), "date", ["Device"], path)
                except OSError:
                    assert list(tmp_path.iterdir()) == ([path] if existing else [])
                    assert (({p.name: p.read_bytes() for p in path.iterdir()} if existing
                             else None) == old)
                    continue
            break
        # two parts, the manifest, and one rename into place, or two over a store
        assert n == 5 + existing
        assert list(tmp_path.iterdir()) == [path]
        assert load_store(path).region_values(EMPTY_REGION, "date") == ("d00", "d01")

    def test_a_store_that_cannot_be_renamed_is_left_as_it_was(self, tmp_path, monkeypatch,
                                                                capsys):
        # as a mount point or a store in a directory the writer may not change is
        path, source = tmp_path / "store", tmp_path / "source"
        chunk_by_partition(daily_cube(n_days=4), "date", ["Device"], path)
        materialize(daily_cube(), ["Device"], source)
        old = {p.name: p.read_bytes() for p in path.iterdir()}

        def replace(src, dst, _real=os.replace):
            if Path(src) == path:
                raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), str(src))
            return _real(src, dst)
        monkeypatch.setattr(os, "replace", replace)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"spec_version": 1, "materialize": {
            "action": "materialize", "source": {"kind": "store", "path": str(source)}}}))
        assert main(["materialize", "--config", str(config), "--output", str(path)]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "OSError"
        assert sorted(tmp_path.iterdir()) == [config, source, path]
        assert {p.name: p.read_bytes() for p in path.iterdir()} == old

    def test_a_replaced_store_that_cannot_be_removed_is_still_written(self, tmp_path,
                                                                      monkeypatch):
        path = tmp_path / "store"
        chunk_by_partition(daily_cube(n_days=4), "date", ["Device"], path)
        def rmtree(path, ignore_errors=False):
            if not ignore_errors:
                raise OSError(f"cannot remove {path}")
        monkeypatch.setattr(shutil, "rmtree", rmtree)
        chunk_by_partition(daily_cube(n_days=2), "date", ["Device"], path)
        assert load_store(path).region_values(EMPTY_REGION, "date") == ("d00", "d01")

    def test_a_store_is_written_through_a_symlink(self, tmp_path):
        chunk_by_partition(daily_cube(n_days=2), "date", ["Device"], tmp_path / "real")
        (tmp_path / "link").symlink_to("real")
        materialize(daily_cube(), ["Device"], tmp_path / "link")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]
        assert (tmp_path / "link").is_symlink()
        assert sorted(p.name for p in (tmp_path / "real").iterdir()) == [
            "cells.bin", "manifest.json"]

    def test_a_store_has_the_modes_of_a_plain_mkdir_and_open(self, tmp_path):
        materialize(daily_cube(), ["Device"], tmp_path / "store")
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_bytes(b"")
        assert (tmp_path / "store").stat().st_mode == (tmp_path / "dir").stat().st_mode
        for part in (tmp_path / "store").iterdir():
            assert part.stat().st_mode == (tmp_path / "file").stat().st_mode

    def test_a_replaced_store_keeps_its_mode(self, tmp_path):
        materialize(daily_cube(), ["Device"], tmp_path / "store")
        (tmp_path / "store").chmod(0o700)
        materialize(daily_cube(), ["Device"], tmp_path / "store")
        assert (tmp_path / "store").stat().st_mode & 0o777 == 0o700


class TestMaterialize:
    def test_round_trip_views_equal_live(self, tmp_path, sales_cube):
        materialize(sales_cube, ["Device", "Browser"], tmp_path / "cells")
        loaded = load_cellset(tmp_path / "cells")
        for region in (EMPTY_REGION, Region({"Device": "Pixel"}),
                       Region({"Device": "iPhone", "Browser": "Safari"}),
                       Region({"Device": "Nokia"})):
            for attrs in ((), ("Browser",)):
                attrs = tuple(a for a in attrs if a not in region.dims)
                request = FeatureRequest(attrs, ("Revenue", "Clicks"))
                assert loaded.view(region, request) == sales_cube.view(region, request)

    def test_empty_cube(self, tmp_path):
        table = Table({"Device": [], "Revenue": []})
        schema = DimensionSchema((Dimension("Device"),), (Measure.sum("Revenue"),))
        cube = BaseTableGroupByCube(table, schema)
        materialize(cube, ["Device"], tmp_path / "empty")
        loaded = load_cellset(tmp_path / "empty")
        frame = loaded.view(EMPTY_REGION, FeatureRequest((), ("Revenue",)))
        assert frame.value() == 0

    def test_checksum_corruption_detected(self, tmp_path, sales_cube):
        materialize(sales_cube, ["Device"], tmp_path / "cells")
        part = tmp_path / "cells" / "cells.bin"
        data = bytearray(part.read_bytes())
        data[-1] ^= 0xFF
        part.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="checksum"):
            load_cellset(tmp_path / "cells")

    def test_manifest_kind_checked(self, tmp_path, sales_cube):
        materialize(sales_cube, ["Device"], tmp_path / "cells")
        manifest = json.loads((tmp_path / "cells" / "manifest.json").read_text())
        manifest["kind"] = "chunked"
        (tmp_path / "cells" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError):
            load_cellset(tmp_path / "cells")

    def test_preserves_value_types(self, tmp_path):
        rows = [(1, True, 2.5, "x"), (2, False, 3, "y"), (1, True, 4, "x")]
        table = Table.from_rows(["n", "flag", "m", "tid"], rows)
        schema = DimensionSchema(
            (Dimension("n", "integer"), Dimension("flag", "boolean")),
            (Measure.sum("m"), Measure.count_distinct("ids", "tid")),
        )
        cube = BaseTableGroupByCube(table, schema)
        materialize(cube, ["n", "flag"], tmp_path / "typed")
        loaded = load_cellset(tmp_path / "typed")
        region = Region({"n": 1, "flag": True})
        request = FeatureRequest((), ("m", "ids"))
        assert loaded.view(region, request) == cube.view(region, request)
        assert loaded.view(region, request).value("ids") == 1


    def test_a_cellset_is_written_as_it_is(self, tmp_path, sales_cube):
        dims = ["Device", "Browser"]
        materialize(sales_cube, dims, tmp_path / "cells")
        materialize(load_cellset(tmp_path / "cells"), dims, tmp_path / "again")
        for name in ("cells.bin", "manifest.json"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (tmp_path / "cells" / name).read_bytes()

    def test_result_cube_writes_the_cells_its_views_give(self, tmp_path, sales_cube):
        result = top_down_crawl(sales_cube, CrawlSpec(
            models=[EntityWeightModel("Revenue")], dimensions=["Device", "Browser"],
            thresholds={"total_weight": 20.0}))
        dims = result.schema.dimension_names
        materialize(result, dims, tmp_path / "held")
        materialize(build_cellset(result, dims), dims, tmp_path / "rebuilt")
        for name in ("cells.bin", "manifest.json"):
            assert (tmp_path / "held" / name).read_bytes() == \
                (tmp_path / "rebuilt" / name).read_bytes()

    def test_result_cube_missing_a_signal_is_a_schema_error(self, tmp_path, sales_schema):
        entries = {EMPTY_REGION: {"a": 1.0, "b": 2.0}, Region({"Device": "Pixel"}): {"a": 1.0}}
        result = ResultCube(("Device",), ("a", "b"), entries, sales_schema)
        with pytest.raises(SchemaError, match="measure 'b' not stored in cellset"):
            materialize(result, ["Device"], tmp_path / "cells")


class TestFailedInput:
    def test_a_writer_whose_input_fails_leaves_no_directory(self, tmp_path):
        cube = daily_cube(n_days=3)
        with pytest.raises(SchemaError):
            materialize(cube, ["Device", "nope"], tmp_path / "cells")
        with pytest.raises(SchemaError):
            chunk_by_partition(cube, "nope", ["Device"], tmp_path / "chunks")
        chunked = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunked")
        part = tmp_path / "chunked" / chunked.manifest["parts"][1]["file"]
        part.write_bytes(part.read_bytes()[:-1])
        with pytest.raises(StoreError, match="checksum"):
            rechunk(chunked, tmp_path / "slices")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chunked"]


class TestChunking:
    def test_one_chunk_per_partition_value(self, tmp_path):
        cube = daily_cube(n_days=4)
        store = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        assert store.partition_values() == ("d00", "d01", "d02", "d03")
        files = sorted(p.name for p in (tmp_path / "chunks").glob("chunk-*.bin"))
        assert len(files) == 4

    def test_windowed_reads_share_chunks(self, tmp_path):
        cube = daily_cube(n_days=10)
        store = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        dates = store.partition_values()
        request = FeatureRequest(("date",), ("Revenue",))
        reads_per_window = []
        for end in range(6, 10):
            before = store.counters["chunk_reads"]
            store.view(Region({"Device": "A"}), request,
                       partition_range=(dates[end - 6], dates[end]))
            reads_per_window.append(store.counters["chunk_reads"] - before)
        # each 7-day window reads exactly 7 chunks; consecutive windows share 6
        assert reads_per_window == [7, 7, 7, 7]
        assert len(set(dates[0:10])) == 10

    def test_single_partition_equals_plain_materialization(self, tmp_path):
        cube = daily_cube(n_days=1)
        store = chunk_by_partition(cube, "date", ["Device"], tmp_path / "one")
        materialize(cube, ["Device", "date"], tmp_path / "flat")
        flat = load_cellset(tmp_path / "flat")
        request = FeatureRequest(("date",), ("Revenue",))
        for device in ("A", "B", "C"):
            region = Region({"Device": device})
            assert store.view(region, request) == flat.view(region, request)

    def test_views_equal_live(self, tmp_path):
        cube = daily_cube()
        store = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        request = FeatureRequest(("date",), ("Revenue", "ids"))
        for region in (EMPTY_REGION, Region({"Device": "A"}),
                       Region({"Device": "B", "date": "d03"})):
            assert store.view(region, request if "date" not in region.dims
                              else FeatureRequest((), ("Revenue", "ids"))) == \
                cube.view(region, request if "date" not in region.dims
                          else FeatureRequest((), ("Revenue", "ids")))
        # SUM re-aggregation across chunks matches live totals
        assert store.view(EMPTY_REGION, FeatureRequest(("Device",), ("Revenue",))) == \
            cube.view(EMPTY_REGION, FeatureRequest(("Device",), ("Revenue",)))

    def test_count_distinct_cannot_cross_partitions(self, tmp_path):
        cube = daily_cube()
        store = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        with pytest.raises(StoreError, match="re-aggregated"):
            store.view(EMPTY_REGION, FeatureRequest((), ("ids",)))

    def test_partition_range_puts_null_last(self, tmp_path):
        table = Table.from_rows(["Device", "date", "Revenue"], [
            ("A", "d1", 1), ("A", "d2", 2), ("A", NULL, 4), ("B", "d1", 8)])
        schema = DimensionSchema((Dimension("Device"), Dimension("date")),
                                 (Measure.sum("Revenue"),))
        chunked = chunk_by_partition(BaseTableGroupByCube(table, schema), "date", ["Device"],
                                     tmp_path / "chunks")
        sliced = rechunk(chunked, tmp_path / "slices")
        assert chunked.partition_values() == ("d1", "d2", NULL)
        request = FeatureRequest(("date",), ("Revenue",))
        for window, want in (((None, None), ["d1", "d2", NULL]), (("d2", None), ["d2", NULL]),
                             (("d1", "d2"), ["d1", "d2"]), ((NULL, NULL), [NULL]),
                             ((None, "d1"), ["d1"])):
            for store in (chunked, sliced):
                frame = store.view(Region({"Device": "A"}), request, partition_range=window)
                assert list(frame.attribute_column("date")) == want, (store, window)

    def test_a_chunk_dimension_listed_twice_is_a_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="distinct"):
            chunk_by_partition(daily_cube(n_days=2), "date", ["Device", "Device"],
                               tmp_path / "chunks")
        assert not (tmp_path / "chunks").exists()

    def test_partition_range_of_another_type_is_a_request_error(self, tmp_path):
        chunked = chunk_by_partition(daily_cube(n_days=2, devices=("A",)), "date", ["Device"],
                                     tmp_path / "chunks")
        sliced = rechunk(chunked, tmp_path / "slices")
        request = FeatureRequest(("date",), ("Revenue",))
        for window, bad in (((1, None), "1"), (("d00", True), "True"), ((None, 2.5), "2.5")):
            for store in (chunked, sliced):
                with pytest.raises(RequestError, match=f"bound {bad} is not a value of 'date'"):
                    store.view(Region({"Device": "A"}), request, partition_range=window)

    def test_a_partition_range_that_is_not_a_pair_is_a_request_error(self, tmp_path):
        chunked = chunk_by_partition(daily_cube(n_days=2, devices=("A",)), "date", ["Device"],
                                     tmp_path / "chunks")
        sliced = rechunk(chunked, tmp_path / "slices")
        request = FeatureRequest(("date",), ("Revenue",))
        for window in ("d1", ("d00",), ("d00", "d01", "d01"), {"d00", "d01"}):
            for store in (chunked, sliced):
                with pytest.raises(RequestError, match="partition_range .* is not a"):
                    store.view(Region({"Device": "A"}), request, partition_range=window)


class TestCanonicalOrder:
    """The writers sort cells by per-dimension ranks; the order is the canonical cell key's."""

    # 9 and 10 sort as text; "9" and 9, "true" and True share a text and so a rank
    VALUES = (ANY, NULL, 9, 10, True, False, "9", "true")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3).flatmap(
        lambda width: st.lists(st.tuples(*[st.sampled_from(TestCanonicalOrder.VALUES)] * width),
                               max_size=20)))
    def test_rank_order_is_the_canonical_cell_key_order(self, cells):
        cells = {cell: (i,) for i, cell in enumerate(cells)}
        assert _canonical_items(cells) == \
            sorted(cells.items(), key=lambda item: oracles.cell_sort_key(item[0]))


class TestRechunk:
    def test_region_series_is_one_slice_read(self, tmp_path):
        cube = daily_cube(n_days=7)
        chunked = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        sliced = rechunk(chunked, tmp_path / "slices")
        request = FeatureRequest(("date",), ("Revenue",))
        before_chunks = chunked.counters["chunk_reads"]
        chunked.view(Region({"Device": "A"}), request)
        chunk_reads = chunked.counters["chunk_reads"] - before_chunks
        before_slices = sliced.counters["slice_reads"]
        sliced.view(Region({"Device": "A"}), request)
        slice_reads = sliced.counters["slice_reads"] - before_slices
        assert chunk_reads == 7 and slice_reads == 1

    def test_round_trip_views_equal(self, tmp_path):
        cube = daily_cube()
        chunked = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        sliced = rechunk(chunked, tmp_path / "slices")
        request = FeatureRequest(("date",), ("Revenue", "ids"))
        for device in ("A", "B", "C"):
            region = Region({"Device": device})
            assert sliced.view(region, request) == chunked.view(region, request) \
                == cube.view(region, request)

    def test_empty_store(self, tmp_path):
        table = Table({"Device": [], "date": [], "Revenue": [], "tid": []})
        schema = DimensionSchema(
            (Dimension("Device"), Dimension("date")),
            (Measure.sum("Revenue"), Measure.count_distinct("ids", "tid")))
        cube = BaseTableGroupByCube(table, schema)
        chunked = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        sliced = rechunk(chunked, tmp_path / "slices")
        assert sliced.partition_values() == ()
        frame = sliced.view(EMPTY_REGION, FeatureRequest((), ("Revenue",)))
        assert frame.value() == 0


class TestEncodingInvariance:
    def test_all_encodings_agree_randomized(self, tmp_path):
        rng = random.Random(79)
        for case in range(8):
            cube = daily_cube(n_days=rng.randint(2, 6),
                              devices=tuple(f"dev{i}" for i in range(rng.randint(1, 4))),
                              seed=rng.randint(0, 999))
            base = tmp_path / f"case{case}"
            materialize(cube, ["Device", "date"], base / "flat")
            flat = load_cellset(base / "flat")
            chunked = chunk_by_partition(cube, "date", ["Device"], base / "chunks")
            sliced = rechunk(chunked, base / "slices")
            dates = chunked.partition_values()
            devices = cube.region_values(EMPTY_REGION, "Device")
            for _ in range(8):
                region = {}
                if rng.random() < 0.7:
                    region["Device"] = rng.choice(devices)
                if rng.random() < 0.3:
                    region["date"] = rng.choice(dates)
                region = Region(region)
                attrs = () if "date" in region.dims else ("date",)
                request = FeatureRequest(attrs, ("Revenue", "ids"))
                live = cube.view(region, request)
                assert flat.view(region, request) == live
                assert chunked.view(region, request) == live
                assert sliced.view(region, request) == live
                for store in (chunked, sliced):
                    assert_values_match_view(store, region, ("Device", "date"))

    def test_a_merged_float_total_adds_the_partition_totals(self, tmp_path):
        # live, 1e16 + 1.0 rounds back to 1e16 before -1e16 cancels it; the chunks hold
        # the totals d1 = 0.0 and d2 = 1.0, which a view over both dates adds
        table = Table.from_rows(["Device", "date", "Revenue"],
                                [("a", "d1", 1e16), ("a", "d2", 1.0), ("a", "d1", -1e16)])
        schema = DimensionSchema((Dimension("Device"), Dimension("date")),
                                 (Measure.sum("Revenue"),))
        cube = BaseTableGroupByCube(table, schema)
        materialize(cube, ["Device", "date"], tmp_path / "flat")
        chunked = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        stores = {"flat": load_cellset(tmp_path / "flat"), "chunked": chunked,
                  "rechunked": rechunk(chunked, tmp_path / "slices")}

        def exactly(source, region, attrs=()):
            frame = source.view(region, FeatureRequest(attrs, ("Revenue",)))
            return [(values, repr(total)) for values, (total,) in frame.iter_rows()]

        merged = {"flat": "0.0", "chunked": "1.0", "rechunked": "1.0"}
        for region in (EMPTY_REGION, Region({"Device": "a"})):
            assert exactly(cube, region) == [((), "0.0")]
            by_date = [(("d1",), "0.0"), (("d2",), "1.0")]
            assert exactly(cube, region, ("date",)) == by_date
            for kind, store in stores.items():
                assert exactly(store, region) == [((), merged[kind])], kind
                assert exactly(store, region, ("date",)) == by_date, kind
                for (date,), total in by_date:
                    bound = Region({**region.bindings(), "date": date})
                    assert exactly(store, bound) == exactly(cube, bound) == [((), total)], kind

    def test_windowed_read_amplification_ordering(self, tmp_path):
        cube = daily_cube(n_days=9)
        chunked = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        sliced = rechunk(chunked, tmp_path / "slices")
        dates = chunked.partition_values()
        request = FeatureRequest(("date",), ("Revenue",))
        for start in range(0, 5):
            window = (dates[start], dates[start + 4])
            c0 = chunked.counters["chunk_reads"]
            chunked.view(Region({"Device": "B"}), request, partition_range=window)
            s0 = sliced.counters["slice_reads"]
            sliced.view(Region({"Device": "B"}), request, partition_range=window)
            assert (sliced.counters["slice_reads"] - s0) <= \
                (chunked.counters["chunk_reads"] - c0)


class TestDecodeOnce:
    """A store decodes each part at most once; chunk and slice reads stay one per part a
    view consults."""

    def test_window_views_read_seven_chunks_and_decode_each_chunk_once(self, tmp_path):
        chunk_by_partition(daily_cube(n_days=10), "date", ["Device"], tmp_path / "chunks")
        store = load_store(tmp_path / "chunks")
        dates = store.partition_values()
        request = FeatureRequest(("date",), ("Revenue",))
        windows = [(dates[end - 6], dates[end]) for end in range(6, 10)] * 3
        for i, window in enumerate(windows, 1):
            frame = store.view(Region({"Device": "B"}), request, partition_range=window)
            assert list(frame.attribute_column("date")) == \
                [d for d in dates if window[0] <= d <= window[1]]
            assert store.counters["chunk_reads"] == 7 * i
        assert store.counters["parts_decoded"] == len(dates) == 10

    def test_a_slice_viewed_twice_is_decoded_once(self, tmp_path):
        chunked = chunk_by_partition(daily_cube(n_days=5), "date", ["Device"],
                                     tmp_path / "chunks")
        rechunk(chunked, tmp_path / "slices")
        sliced = load_store(tmp_path / "slices")
        request = FeatureRequest(("date",), ("Revenue",))
        frames = [sliced.view(Region({"Device": "A"}), request) for _ in range(2)]
        assert frames[0] == frames[1] == chunked.view(Region({"Device": "A"}), request)
        assert sliced.counters["slice_reads"] == 2
        assert sliced.counters["parts_decoded"] == 1

    def test_a_chunked_view_reads_cells_without_a_cellset_view(self, tmp_path, monkeypatch):
        cube = daily_cube(n_days=4)
        chunked = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")

        def refuse(*args):
            raise AssertionError("a chunk read went through CellsetCube.view")

        monkeypatch.setattr(CellsetCube, "view", refuse)
        for region in (EMPTY_REGION, Region({"Device": "B"}), Region({"date": "d01"})):
            for attrs in ((), ("date",), ("Device",), ("Device", "date")):
                request = FeatureRequest(attrs, ("Revenue",))
                assert chunked.view(region, request) == cube.view(region, request)

    def test_a_chunked_view_looks_one_probe_up_in_every_chunk(self, tmp_path):
        # device CC sells on even dates only, so its cells are absent from half the chunks
        rows = [(device, f"d{i:02d}", 10 * i + len(device)) for i in range(6)
                for device in ("A", "B", "CC") if device != "CC" or i % 2 == 0]
        schema = DimensionSchema((Dimension("Device"), Dimension("date")),
                                 (Measure.sum("Revenue"),))
        cube = BaseTableGroupByCube(Table.from_rows(["Device", "date", "Revenue"], rows), schema)
        chunked = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        for region in (EMPTY_REGION, Region({"Device": "CC"}), Region({"Device": "Z"}),
                       Region({"Device": ANY})):
            cursor = chunked.bind(region)
            # one cell cursor at the region serves every chunk
            assert type(cursor.probe) is _CellCursor and cursor.probe.region == region
            assert cursor.partitions == set(chunked.partition_values())
            for attrs in ((), ("Device",), ("date",), ("date", "Device")):
                request = FeatureRequest(attrs, ("Revenue",))
                frame = cursor.view(request)
                union = {}
                for date, part in chunked._parts:
                    chunk = chunked._read(date, part)
                    cells = chunk.bind(region).cells([a for a in attrs if a != "date"])
                    assert cursor.probe.cells([a for a in attrs if a != "date"], chunk) == cells
                    for cell in cells:
                        slots = {"Device": cell[0], "date": date}
                        key = tuple(slots[a] for a in attrs)
                        union[key] = union.get(key, 0) + chunk.cells[cell]["Revenue"]
                assert {a: m for a, (m,) in frame.iter_rows()} == union, (region, attrs)
                assert frame == cube.view(region, request)

    def test_partitioned_stores_bind_their_own_cursor(self, tmp_path):
        chunked = chunk_by_partition(daily_cube(n_days=3), "date", ["Device"],
                                     tmp_path / "chunks")
        for store in (chunked, rechunk(chunked, tmp_path / "slices")):
            assert type(store.bind(Region({"Device": "A"}))) is _StoreCursor

    def test_rechunk_reads_through_the_decoded_chunks(self, tmp_path):
        chunked = chunk_by_partition(daily_cube(n_days=4), "date", ["Device"],
                                     tmp_path / "chunks")
        chunked.view(EMPTY_REGION, FeatureRequest(("date",), ("Revenue",)))
        rechunk(chunked, tmp_path / "slices")
        assert chunked.counters["chunk_reads"] == 8
        assert chunked.counters["parts_decoded"] == 4

    @pytest.mark.parametrize("kind", ["chunked", "rechunked"])
    def test_a_part_that_fails_to_decode_is_not_kept(self, tmp_path, kind):
        chunked = chunk_by_partition(daily_cube(n_days=3), "date", ["Device"],
                                     tmp_path / "chunked")
        rechunk(chunked, tmp_path / "rechunked")
        store = load_store(tmp_path / kind)
        part = tmp_path / kind / store.manifest["parts"][0]["file"]
        original = part.read_bytes()
        part.write_bytes(original[:-1] + bytes([original[-1] ^ 0xFF]))
        request = FeatureRequest(("date",), ("Revenue",))
        for _ in range(2):
            with pytest.raises(StoreError, match="checksum"):
                store.view(EMPTY_REGION, request)
        part.write_bytes(original)
        assert store.view(EMPTY_REGION, request) == chunked.view(EMPTY_REGION, request)
        # the view consults every chunk, or the one slice of the empty region
        assert store.counters["parts_decoded"] == {"chunked": 3, "rechunked": 1}[kind]


class TestManifestScan:
    def test_chunk_disjointness_and_completeness(self, tmp_path):
        cube = daily_cube(n_days=6)
        chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        manifest = json.loads((tmp_path / "chunks" / "manifest.json").read_text())
        keys = [json.dumps(p["key"], sort_keys=True) for p in manifest["parts"]]
        # no partition value appears in two chunks
        assert len(keys) == len(set(keys))
        # every observed partition value is covered, every file exists and verifies
        from cubecrawl.store import _checksum

        observed = cube.region_values(Region(), "date")
        assert len(keys) == len(observed)
        for part in manifest["parts"]:
            payload = (tmp_path / "chunks" / part["file"]).read_bytes()
            assert _checksum(payload) == part["checksum"]


class TestStoreAsCube:
    def test_load_store_reads_the_manifest_once(self, tmp_path, monkeypatch):
        import cubecrawl.store as store_mod

        cube = daily_cube(n_days=3)
        materialize(cube, ["Device", "date"], tmp_path / "cellset")
        rechunk(chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunked"),
                tmp_path / "rechunked")
        reads = []
        read_manifest = store_mod._read_manifest
        monkeypatch.setattr(store_mod, "_read_manifest",
                            lambda path: reads.append(path) or read_manifest(path))
        for kind in ("cellset", "chunked", "rechunked"):
            reads.clear()
            load_store(tmp_path / kind)
            assert reads == [tmp_path / kind], kind

    def test_crawl_over_loaded_cellset(self, tmp_path, sales_cube):
        materialize(sales_cube, ["Device", "Browser"], tmp_path / "cells")
        loaded = load_store(tmp_path / "cells")
        spec = CrawlSpec(models=[EntityWeightModel("Revenue")],
                         dimensions=["Device", "Browser"],
                         thresholds={"total_weight": 40.0})
        live = top_down_crawl(sales_cube, spec)
        stored = top_down_crawl(loaded, spec)
        assert live.entries == stored.entries

    def test_outlier_crawl_over_stores_counts_reads(self, tmp_path):
        rows = []
        for device, series in (("A", [10, 10, 10, 10, 20]), ("B", [9, 9, 9, 9, 9])):
            rows.extend((device, f"d{i}", v) for i, v in enumerate(series))
        table = Table.from_rows(["Device", "date", "m"], rows)
        schema = DimensionSchema((Dimension("Device"), Dimension("date")),
                                 (Measure.sum("m"),))
        cube = BaseTableGroupByCube(table, schema)
        chunked = chunk_by_partition(cube, "date", ["Device"], tmp_path / "chunks")
        sliced = rechunk(chunked, tmp_path / "slices")
        spec = CrawlSpec(models=[WindowOutlierModel("date", "m", window=4)],
                         dimensions=["Device"], thresholds={"hybrid_score": 1.0})
        chunk_start = chunked.counters["chunk_reads"]
        slice_start = sliced.counters["slice_reads"]
        out_chunked = top_down_crawl(chunked, spec)
        out_sliced = top_down_crawl(sliced, spec)
        assert out_chunked.entries == out_sliced.entries
        # the population series itself jumps at the end, so [] is flagged too
        assert set(out_chunked.entries) == {EMPTY_REGION, Region({"Device": "A"})}
        assert (sliced.counters["slice_reads"] - slice_start) < \
            (chunked.counters["chunk_reads"] - chunk_start)


@st.composite
def _partitioned_tables(draw):
    """A small base table, possibly empty, with NULL values in every dimension, the
    partition ``p`` among them, and its rows as dicts."""
    rows = draw(st.lists(st.fixed_dictionaries({
        "d0": st.sampled_from(["a", "b", NULL]), "d1": st.sampled_from([0, 1, NULL]),
        "p": st.sampled_from(["p0", "p1", "p2", NULL]), "m": st.integers(-5, 5)}), max_size=12))
    schema = DimensionSchema((Dimension("d0"), Dimension("d1", "integer"), Dimension("p")),
                             (Measure.sum("m"),))
    table = Table({c: [r[c] for r in rows] for c in ("d0", "d1", "p", "m")})
    return BaseTableGroupByCube(table, schema), rows


def _store_oracle(rows, region, attrs, window=(None, None)):
    """The view of ``region`` by ``attrs`` over the partitions in the inclusive
    ``window`` from the brute-force group-by of ``rows``."""
    lo, hi = window
    rows = [r for r in oracles.rows_matching(rows, region.bindings())
            if (lo is None or r["p"] >= lo) and (hi is None or r["p"] <= hi)]
    groups = oracles.group_by(rows, attrs, ["m"])
    if not attrs and not region.degree and not groups:
        groups = {(): {"m": 0}}  # the grand total of no rows
    return FeatureFrame(attrs, ("m",), {key: (agg["m"],) for key, agg in groups.items()})


class TestStoreCursor:
    """A partitioned store's own cursor answers as the brute-force group-by of the rows,
    bound at a region or reached by a chain of children, on chunked and re-chunked
    stores, at regions with absent values, NULL and ANY, and through windows."""

    DIMS = ("d0", "d1", "p")
    VALUES = {"d0": ["a", "b", "z", NULL, ANY], "d1": [0, 1, 7, NULL, ANY],
              "p": ["p0", "p2", "p9", NULL, ANY]}

    @settings(max_examples=60, deadline=None)
    @given(_partitioned_tables(), st.data())
    def test_bind_child_chains_and_windows_answer_as_the_group_by(self, table, data):
        cube, rows = table
        requests = [FeatureRequest(attrs, ("m",))
                    for k in range(3) for attrs in itertools.permutations(self.DIMS, k)]
        with tempfile.TemporaryDirectory() as tmp:
            chunked = chunk_by_partition(cube, "p", ["d0", "d1"], Path(tmp) / "chunks")
            for store in (chunked, rechunk(chunked, Path(tmp) / "slices")):
                bound = data.draw(st.lists(st.sampled_from(self.DIMS), unique=True, max_size=3),
                                  label="bound")
                bindings = [(d, data.draw(st.sampled_from(self.VALUES[d]), label=d))
                            for d in bound]
                region = Region(bindings)
                split = data.draw(st.integers(0, len(bindings)), label="split")
                chained = store.bind(Region(bindings[:split]))
                for d, v in bindings[split:]:
                    chained = chained.child(d, v)
                for cursor in (store.bind(region), chained):
                    assert type(cursor) is _StoreCursor and cursor.region == region
                    for request in requests:
                        assert cursor.view(request) == store.view(region, request) == \
                            _store_oracle(rows, region, request.attribute_features), request
                    for d in self.DIMS:
                        observed = _store_oracle(rows, region, (d,)).attribute_column(d)
                        assert cursor.values(d) == store.region_values(region, d) == observed
                        if d in region:
                            continue
                        for v in observed + tuple(self.VALUES[d][2:]):
                            child = cursor.child(d, v)
                            assert child.region == region.with_binding(d, v)
                            for request in requests[:4]:
                                assert child.view(request) == _store_oracle(
                                    rows, child.region, request.attribute_features)
                window = tuple(data.draw(st.sampled_from(["p0", "p1", "p2", NULL, None]),
                                         label=bound) for bound in ("lo", "hi"))
                for request in requests:
                    assert store.view(region, request, partition_range=window) == \
                        _store_oracle(rows, region, request.attribute_features, window)


class TestDecoderFuzz:
    """A part whose checksum matches but whose bytes do not decode is a StoreError."""

    REQUESTS = (FeatureRequest((), ("Revenue",)), FeatureRequest(("Device",), ("Revenue",)),
                FeatureRequest(("date",), ("Revenue", "ids")))

    @staticmethod
    def _stores(base: Path) -> dict:
        cube = daily_cube(n_days=4)
        materialize(cube, ["Device", "date"], base / "cellset")
        chunked = chunk_by_partition(cube, "date", ["Device"], base / "chunked")
        rechunk(chunked, base / "rechunked")
        return {kind: base / kind for kind in ("cellset", "chunked", "rechunked")}

    @staticmethod
    def _replace_part(store_dir: Path, index: int, data: bytes) -> None:
        from cubecrawl.store import _checksum

        manifest = json.loads((store_dir / "manifest.json").read_text())
        part = manifest["parts"][index]
        (store_dir / part["file"]).write_bytes(data)
        part["checksum"] = _checksum(data)
        (store_dir / "manifest.json").write_text(json.dumps(manifest))

    def _read_all(self, store_dir: Path) -> None:
        store = load_store(store_dir)
        for request in self.REQUESTS:
            for region in (EMPTY_REGION, Region({"Device": "B"})):
                store.view(region, request)

    @pytest.mark.parametrize("kind", ["cellset", "chunked", "rechunked"])
    def test_mutated_part_is_a_store_error(self, tmp_path, kind):
        store_dir = self._stores(tmp_path)[kind]
        files = [p["file"] for p in json.loads((store_dir / "manifest.json").read_text())["parts"]]
        originals = [(store_dir / f).read_bytes() for f in files]
        rng = random.Random(f"fuzz:{kind}")
        for _ in range(200):
            index = rng.randrange(len(files))
            data = bytearray(originals[index])
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            self._replace_part(store_dir, index, bytes(data))
            try:
                self._read_all(store_dir)
            except StoreError:
                pass
            self._replace_part(store_dir, index, originals[index])
        self._read_all(store_dir)

    def test_slice_part_in_place_of_a_chunk_part(self, tmp_path):
        stores = self._stores(tmp_path)
        slice_bytes = (stores["rechunked"] / "slice-00000.bin").read_bytes()
        self._replace_part(stores["chunked"], 0, slice_bytes)
        with pytest.raises(StoreError, match="manifest schema"):
            self._read_all(stores["chunked"])

    def test_a_boolean_byte_other_than_0_or_1(self, tmp_path):
        schema = DimensionSchema((Dimension("flag", "boolean"),), (Measure.sum("m"),))
        cube = BaseTableGroupByCube(Table.from_rows(["flag", "m"], [(False, 1)]), schema)
        store_dir = tmp_path / "store"
        materialize(cube, ["flag"], store_dir)
        part = json.loads((store_dir / "manifest.json").read_text())["parts"][0]["file"]
        data = bytearray((store_dir / part).read_bytes())
        # the flag column: its name, role and type, a marker per row, then a byte per row
        markers = data.index(b"flag") + len("flag") + 2
        assert data[markers:markers + 4] == b"\x01\x00\x00\x00"  # (*,), then (False,)
        data[markers + 3] = 7
        self._replace_part(store_dir, 0, bytes(data))
        with pytest.raises(StoreError, match="bad boolean value"):
            load_cellset(store_dir)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_float_that_is_not_finite(self, tmp_path, value):
        schema = DimensionSchema((Dimension("d"),), (Measure.sum("m"),))
        cube = BaseTableGroupByCube(Table.from_rows(["d", "m"], [("a", 0.5)]), schema)
        store_dir = tmp_path / "store"
        materialize(cube, ["d"], store_dir)
        part = json.loads((store_dir / "manifest.json").read_text())["parts"][0]["file"]
        data = (store_dir / part).read_bytes()
        self._replace_part(store_dir, 0, data.replace(struct.pack("<d", 0.5),
                                                      struct.pack("<d", value)))
        with pytest.raises(StoreError, match="FLOAT64 value is not finite"):
            load_cellset(store_dir)

    @pytest.mark.parametrize("kind, dims", [("chunked", ("Device",)), ("rechunked", ("date",)),
                                            ("cellset", ("Device", "date"))],
                             ids=["chunked-Device", "rechunked-date", "cellset-Device-date"])
    def test_part_listing_a_cell_twice(self, tmp_path, kind, dims):
        from cubecrawl.store import _pack_part

        store_dir = self._stores(tmp_path)[kind]
        self._replace_part(store_dir, 0, _pack_part(tuple(Dimension(d) for d in dims),
                                                    ("Revenue", "ids"),
                                                    [(("d00",) * len(dims), (1, 1))] * 2))
        with pytest.raises(StoreError, match="a cell is listed twice"):
            self._read_all(store_dir)


def _drop(manifest: dict, key: str) -> dict:
    return {k: v for k, v in manifest.items() if k != key}


def _part(manifest: dict, **fields) -> dict:
    """``manifest`` with ``fields`` set on its first part; a None value drops that field."""
    first = {k: v for k, v in dict(manifest["parts"][0], **fields).items() if v is not None}
    return dict(manifest, parts=[first] + manifest["parts"][1:])


class TestManifestChecks:
    """A manifest lacking a key its kind reads, or holding one in the wrong shape,
    is a StoreError from ``load_store`` and one JSON error record (exit 3) from the CLI."""

    # case -> (store kind, edit of (manifest, store directory))
    CASES = {
        "only_format_version_kind": ("chunked", lambda m, d: {
            "format": "cube-store", "version": 1, "kind": "chunked"}),
        "not_an_object": ("cellset", lambda m, d: [m]),
        "no_schema": ("chunked", lambda m, d: _drop(m, "schema")),
        "schema_dimension_without_name": (
            "cellset", lambda m, d: dict(m, schema={"dimensions": [{}]})),
        "no_partition_dim": ("chunked", lambda m, d: _drop(m, "partition_dim")),
        "partition_dim_not_in_schema": ("rechunked", lambda m, d: dict(m, partition_dim="Nope")),
        "no_cell_dims": ("rechunked", lambda m, d: _drop(m, "cell_dims")),
        "cell_dims_not_a_list": ("chunked", lambda m, d: dict(m, cell_dims="Device")),
        "cell_dim_not_in_schema": ("chunked", lambda m, d: dict(m, cell_dims=["Nope"])),
        "partition_dim_among_cell_dims": (
            "chunked", lambda m, d: dict(m, cell_dims=["Device", "date"])),
        "schema_dimension_neither_partition_nor_cell": (
            "chunked", lambda m, d: dict(m, cell_dims=[])),
        "parts_not_a_list": ("chunked", lambda m, d: dict(m, parts=m["parts"][0])),
        "cellset_with_two_parts": ("cellset", lambda m, d: dict(m, parts=m["parts"] * 2)),
        "part_not_an_object": ("chunked", lambda m, d: dict(m, parts=["chunk-00000.bin"])),
        "part_without_checksum": ("chunked", lambda m, d: _part(m, checksum=None)),
        "part_without_file": ("chunked", lambda m, d: _part(m, file=None)),
        # both name a valid part, but from outside the store directory
        "part_file_absolute": (
            "cellset", lambda m, d: _part(m, file=str(d / m["parts"][0]["file"]))),
        "part_file_outside_store": (
            "chunked", lambda m, d: _part(m, file=f"../{d.name}/{m['parts'][0]['file']}")),
        "chunk_key_missing": ("chunked", lambda m, d: _part(m, key=None)),
        "chunk_key_malformed": ("chunked", lambda m, d: _part(m, key={"x": 1})),
        "chunk_key_two_tags": ("chunked", lambda m, d: _part(m, key={"s": "d00", "i": 0})),
        "chunk_key_of_another_domain": ("chunked", lambda m, d: _part(m, key={"i": 7})),
        "chunk_key_listed_twice": ("chunked", lambda m, d: _part(m, key=m["parts"][1]["key"])),
        "slice_key_too_short": ("rechunked", lambda m, d: _part(m, key=[])),
        "slice_key_not_a_list": ("rechunked", lambda m, d: _part(m, key={"s": "A"})),
        "slice_key_of_another_domain": ("rechunked", lambda m, d: _part(m, key=[{"b": True}])),
        "slice_key_listed_twice": (
            "rechunked", lambda m, d: _part(m, key=m["parts"][1]["key"])),
        "no_partition_values": ("rechunked", lambda m, d: _drop(m, "partition_values")),
        "partition_value_malformed": ("rechunked", lambda m, d: dict(m, partition_values=[5])),
        "partition_value_of_another_domain": (
            "rechunked", lambda m, d: dict(m, partition_values=[{"i": 0}])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_manifest_is_a_store_error(self, tmp_path, capsys, case):
        kind, edit = self.CASES[case]
        store_dir = TestDecoderFuzz._stores(tmp_path)[kind]
        manifest_path = store_dir / "manifest.json"
        manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()),
                                                 store_dir)))
        with pytest.raises(StoreError):
            load_store(store_dir)
        config = tmp_path / "materialize.json"
        config.write_text(json.dumps({"spec_version": 1, "materialize": {
            "action": "materialize", "source": {"kind": "store", "path": str(store_dir)}}}))
        out_dir = tmp_path / "out"
        assert main(["materialize", "--config", str(config), "--output", str(out_dir)]) == 3
        assert not out_dir.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"]["type"] == "StoreError"
