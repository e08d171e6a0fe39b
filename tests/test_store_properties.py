"""Properties of stores at their edges: numbers near the end of a column type's range,
and bytes changed on disk.

* Each store command (``materialize``, ``chunk``, ``rechunk`` and ``join``) over SUMs
  drawn near +-2**63 and near the float maximum either exits 0 with every stored
  number equal to the brute-force SUM and in range, or exits with a documented code,
  writes one JSON error record and leaves its target as it was.
* A small random store of each kind with one byte of a part or of its manifest
  changed opens and views with nothing but a ``CubeError``; with the part's checksum
  left as it was, every change to a part is a ``StoreError``.
"""

import contextlib
import io
import itertools
import json
import sys
import tempfile
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecrawl import (
    ANY,
    EMPTY_REGION,
    BaseTableGroupByCube,
    Dimension,
    DimensionSchema,
    FeatureRequest,
    Measure,
    Table,
    chunk_by_partition,
    load_cellset,
    load_store,
    materialize,
    rechunk,
)
from cubecrawl.cli import main
from cubecrawl.errors import CubeError, StoreError
from cubecrawl.store import MANIFEST_NAME, _checksum

from oracles import group_by

I64 = 2 ** 63
FLOAT_MAX = sys.float_info.max
# SUM inputs at the edges of the INT64 and FLOAT64 columns, with small ones to mix in
EDGE_NUMBERS = (st.integers(I64 - 3, I64 + 1) | st.integers(-I64 - 1, -I64 + 3)
                | st.sampled_from([2 ** 62, -2 ** 62, 0, 1, -1])
                | st.sampled_from([FLOAT_MAX, -FLOAT_MAX, 1e308, -1e308, 9e307, 0.5]))
EDGE_ROWS = st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["d0", "d1"]),
                               EDGE_NUMBERS), min_size=1, max_size=4)
SCHEMA = {"dimensions": [{"name": "d"}, {"name": "date"}],
          "measures": [{"name": "m", "agg": "sum", "sources": ["m"]}]}


def _source(path: Path, rows) -> dict:
    """A base-table source of (d, date, m) rows, written to ``path``."""
    path.write_text("d,date,m\n" + "".join(f"{d},{date},{m!r}\n" for d, date, m in rows))
    return {"kind": "base_table", "csv": str(path), "schema": SCHEMA}


def _run(command: str, section: dict, tmp: Path, target: Path) -> tuple[int, str]:
    config = tmp / "run.json"
    config.write_text(json.dumps({"spec_version": 1, **section}))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config), "--output", str(target)])
    return code, stderr.getvalue()


def _snapshot(path: Path):
    """Every file under ``path`` with its bytes, or None when nothing is there."""
    if not path.exists():
        return None
    return {str(f.relative_to(path)): f.read_bytes() for f in sorted(path.rglob("*"))}


def _in_range(value) -> bool:
    if isinstance(value, int):
        return -I64 <= value < I64
    return abs(value) <= FLOAT_MAX


def _sum(rows, **bindings):
    """The SUM of m over ``rows`` that hold ``bindings``, added in row order."""
    return reduce(add, (m for d, date, m in rows
                        if all(dict(d=d, date=date)[k] == v for k, v in bindings.items())), 0)


def _check_stored(command: str, target: Path, rows) -> None:
    """Every number the store holds is in range and equals its brute-force SUM."""
    if command in ("materialize", "join"):
        names = ("d", "date")
        for cell, measures in load_cellset(target).cells.items():
            want = _sum(rows, **{n: v for n, v in zip(names, cell) if v is not ANY})
            for value in measures.values():
                assert _in_range(value) and value == want, (cell, measures)
        return
    store = load_store(target)
    dicts = [dict(d=d, date=date, m=m) for d, date, m in rows]
    for attrs in (("date",), ("d", "date")):
        # the partition is an attribute, so each row reads one stored total as it is
        frame = store.view(EMPTY_REGION, FeatureRequest(attrs, ("m",)))
        want = {key: agg["m"] for key, agg in group_by(dicts, attrs, ["m"]).items()}
        got = dict(zip(zip(*map(frame.attribute_column, attrs)), frame.measure_column("m")))
        assert all(map(_in_range, got.values()))
        assert got == want


def _check_outcome(code: int, stderr: str, command: str, target: Path, before, rows) -> None:
    if code == 0:
        assert stderr == ""
        _check_stored(command, target, rows)
        return
    assert code in (2, 3, 4, 5)
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"]["exit_code"] == code
    assert _snapshot(target) == before


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["materialize", "chunk", "rechunk", "join"]), rows=EDGE_ROWS,
       strategy=st.sampled_from(["local", "global"]), replaces=st.booleans())
def test_a_store_command_keeps_sums_in_range_or_leaves_its_target(command, rows, strategy,
                                                                   replaces):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        source = _source(tmp / "numbers.csv", rows)
        target = tmp / "target"
        if replaces:  # a store the command replaces whole, or leaves as it was
            small = _source(tmp / "small.csv", [("a", "d0", 1)])
            assert _run("materialize", {"materialize": {
                "action": "materialize", "source": small}}, tmp, target) == (0, "")
        before = _snapshot(target)
        chunk = {"materialize": {"action": "chunk", "source": source, "partition_dim": "date"}}
        if command == "rechunk":
            chunks = tmp / "chunks"
            code, stderr = _run("materialize", chunk, tmp, chunks)
            _check_outcome(code, stderr, "chunk", chunks, None, rows)
            if code:
                return
            section = {"materialize": {"action": "rechunk",
                                       "source": {"kind": "store", "path": str(chunks)}}}
        elif command == "chunk":
            section = chunk
        elif command == "join":
            section = {"join": {"left": source, "right": source, "on": ["d", "date"],
                                "strategy": strategy}}
        else:
            section = {"materialize": {"action": "materialize", "source": source}}
        code, stderr = _run("join" if command == "join" else "materialize", section, tmp, target)
        _check_outcome(code, stderr, command, target, before, rows)


@st.composite
def stores(draw):
    """A small random base table: two cell dimensions, a partition and two SUMs."""
    row = st.tuples(st.sampled_from(["a", "b", ""]), st.integers(-2, 2),
                    st.sampled_from(["p0", "p1", "p2"]), st.integers(-9, 9),
                    st.floats(-1e3, 1e3, allow_nan=False))
    rows = draw(st.lists(row, min_size=1, max_size=6))
    schema = DimensionSchema((Dimension("d0"), Dimension("d1", "integer"), Dimension("p")),
                             (Measure.sum("m"), Measure.sum("x")))
    table = Table.from_rows(["d0", "d1", "p", "m", "x"], rows)
    kind = draw(st.sampled_from(["cellset", "chunked", "rechunked"]))
    return BaseTableGroupByCube(table, schema), kind


def _write(cube, kind: str, path: Path) -> None:
    if kind == "cellset":
        materialize(cube, cube.schema.dimension_names, path)
        return
    chunks = path.with_name("chunks") if kind == "rechunked" else path
    chunked = chunk_by_partition(cube, "p", ("d0", "d1"), chunks)
    if kind == "rechunked":
        rechunk(chunked, path)


def _open_and_view(path: Path) -> None:
    """Open the store and view it by every set of its dimensions, which reads every part."""
    store = load_store(path)
    names, measures = store.schema.dimension_names, store.schema.measure_names
    for k in range(len(names) + 1):
        for attrs in itertools.combinations(names, k):
            store.view(EMPTY_REGION, FeatureRequest(attrs, measures))


@settings(max_examples=300, deadline=None)
@given(case=stores(), data=st.data())
def test_a_changed_byte_is_a_cube_error(case, data):
    cube, kind = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store"
        _write(cube, kind, path)
        _open_and_view(path)
        files = sorted(f.name for f in path.iterdir() if f.is_file())
        name = data.draw(st.sampled_from(files), label="file")
        raw = bytearray((path / name).read_bytes())
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        raw[at] ^= data.draw(st.integers(1, 255), label="xor")
        (path / name).write_bytes(raw)
        recompute = name != MANIFEST_NAME and data.draw(st.booleans(), label="recompute")
        if recompute:
            manifest = json.loads((path / MANIFEST_NAME).read_text())
            for part in manifest["parts"]:
                if part["file"] == name:
                    part["checksum"] = _checksum(bytes(raw))
            (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        if name == MANIFEST_NAME or recompute:
            with contextlib.suppress(CubeError):
                _open_and_view(path)
        else:
            with pytest.raises(StoreError):
                _open_and_view(path)
