"""Write-once physical cube encodings, all serving the same logical cube.

A store directory holds one binary columnar file per part plus a JSON
manifest with per-part checksums.  Three kinds exist: a plain materialized
cellset, a cellset chunked by a partition dimension (one chunk per partition
value), and the re-chunked form where each region's rows across all partition
values sit in one contiguous slice.  An opened partitioned store decodes a
part on its first read only, verifying its checksum, and keeps the decoded
form.  Reads are counted twice over: logical reads (``chunk_reads`` and
``slice_reads``, one per part a view consults) keep read-amplification claims
testable, and ``parts_decoded`` counts the physical decodes.

Chunk file layout (little-endian, column-major)::

    magic "CCSTORE1" | version u32 | n_cols u32 | n_rows u64
    per column: name_len u16 | name utf-8 | role u8 (0 dim, 1 measure) | type u8
    per column payload: markers (n_rows u8: 0 value, 1 wildcard, 2 null)
                        then INT64 -> n_rows i64, FLOAT64 -> n_rows f64,
                        BOOL -> n_rows u8,
                        STRING -> offsets (n_rows+1) u32 + utf-8 blob

Non-value rows occupy zeroed payload slots so every column is fixed-shape.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Mapping, Sequence

from .core import (
    ANY,
    NULL,
    AbstractCube,
    BaseTableGroupByCube,
    CellsetCube,
    Dimension,
    DimensionSchema,
    FeatureFrame,
    FeatureRequest,
    Instrumentation,
    Region,
    _value_sort_key,
    build_cellset,
    format_value,
    schema_from_dict,
    schema_to_dict,
)
from .errors import RequestError, SchemaError, SpecError, StoreError

MAGIC = b"CCSTORE1"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

_INT64, _FLOAT64, _STRING, _BOOL = 1, 2, 3, 4
_ROLE_DIM, _ROLE_MEASURE = 0, 1
_MARK_VALUE, _MARK_WILDCARD, _MARK_NULL = 0, 1, 2
# row markers each role may hold: a measure is never a wildcard
_MARKERS = {_ROLE_DIM: bytes((_MARK_VALUE, _MARK_WILDCARD, _MARK_NULL)),
            _ROLE_MEASURE: bytes((_MARK_VALUE, _MARK_NULL))}

_DOMAIN_TYPE = {"string": _STRING, "integer": _INT64, "boolean": _BOOL}
# a domain's encode_value tag and Python type
_DOMAIN_TAG = {"string": ("s", str), "integer": ("i", int), "boolean": ("b", bool)}


def _checksum(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def encode_value(value) -> dict:
    if value is ANY:
        return {"any": True}
    if value is NULL:
        return {"null": True}
    if isinstance(value, bool):
        return {"b": value}
    if isinstance(value, int):
        return {"i": value}
    return {"s": str(value)}


def decode_value(data: Mapping, dim: Dimension):
    """The value of ``dim`` that ``encode_value`` wrote as ``data``: ANY, NULL or of its domain.

    Any other shape is a StoreError.
    """
    if isinstance(data, Mapping) and len(data) == 1:
        ((tag, value),) = data.items()
        if tag in ("any", "null") and value is True:
            return ANY if tag == "any" else NULL
        if (tag, type(value)) == _DOMAIN_TAG[dim.domain]:
            return value
    raise StoreError(f"manifest holds {data!r} where a value of {dim.name!r} belongs")


def _pack_column(name: str, role: int, col_type: int, markers: list[int], values: list) -> bytes:
    out = [struct.pack("<H", len(name.encode()))]
    out.append(name.encode())
    out.append(struct.pack("<BB", role, col_type))
    out.append(bytes(markers))
    n = len(markers)
    if col_type == _INT64:
        out.append(struct.pack(f"<{n}q", *(int(v) for v in values)))
    elif col_type == _FLOAT64:
        out.append(struct.pack(f"<{n}d", *(float(v) for v in values)))
    elif col_type == _BOOL:
        out.append(bytes(1 if v else 0 for v in values))
    else:
        blobs = [str(v).encode() for v in values]
        offsets = [0]
        for b in blobs:
            offsets.append(offsets[-1] + len(b))
        out.append(struct.pack(f"<{n + 1}I", *offsets))
        out.append(b"".join(blobs))
    return b"".join(out)


def _write_part(path: Path, dims: Sequence[Dimension], measure_names: Sequence[str],
                rows: Sequence[tuple[tuple, Sequence]]) -> dict:
    """Write one part file; returns its manifest entry fields."""
    n = len(rows)
    header = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(dims) + len(measure_names)),
              struct.pack("<Q", n)]
    body = []
    for j, dim in enumerate(dims):
        markers, values = [], []
        zero = {"string": "", "integer": 0, "boolean": False}[dim.domain]
        for cell, _ in rows:
            v = cell[j]
            if v is ANY:
                markers.append(_MARK_WILDCARD)
                values.append(zero)
            elif v is NULL:
                markers.append(_MARK_NULL)
                values.append(zero)
            else:
                markers.append(_MARK_VALUE)
                values.append(v)
        body.append(_pack_column(dim.name, _ROLE_DIM, _DOMAIN_TYPE[dim.domain], markers, values))
    for j, name in enumerate(measure_names):
        markers, values = [], []
        all_int = True
        for _, measures in rows:
            v = measures[j]
            if v is None:
                markers.append(_MARK_NULL)
                values.append(0)
            else:
                markers.append(_MARK_VALUE)
                values.append(v)
                if not isinstance(v, int) or isinstance(v, bool):
                    all_int = False
        col_type = _INT64 if all_int else _FLOAT64
        body.append(_pack_column(name, _ROLE_MEASURE, col_type, markers, values))
    data = b"".join(header + body)
    path.write_bytes(data)
    return {"file": path.name, "rows": n, "checksum": _checksum(data)}


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise StoreError("part file truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _text(raw: bytes, path: Path) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError:
        raise StoreError(f"{path.name}: text is not UTF-8") from None


def _read_column(r: _Reader, path: Path, n_rows: int, role: int, col_type: int) -> list:
    """One column's payload, with wildcard and null markers applied."""
    markers = r.take(n_rows)
    if markers.translate(None, _MARKERS[role]):
        raise StoreError(f"{path.name}: bad row marker")
    if col_type == _INT64:
        raw = r.unpack(f"<{n_rows}q")
    elif col_type == _FLOAT64:
        raw = r.unpack(f"<{n_rows}d")
    elif col_type == _BOOL:
        raw = [b == 1 for b in r.take(n_rows)]
    else:
        offsets = r.unpack(f"<{n_rows + 1}I")
        blob = r.take(offsets[-1])
        pieces = [blob[offsets[i]:offsets[i + 1]] for i in range(n_rows)]
        # one str per distinct value, shared by the rows that hold it
        texts = {piece: _text(piece, path) for piece in set(pieces)}
        raw = [texts[piece] for piece in pieces]
    null = NULL if role == _ROLE_DIM else None
    return [v if m == _MARK_VALUE else ANY if m == _MARK_WILDCARD else null
            for m, v in zip(markers, raw)]


def _read_part(path: Path, expected_checksum: str, dims: Sequence[Dimension],
               measure_names: Sequence[str]) -> dict[tuple, tuple]:
    """Read, verify and decode one part file into its cells -> measure tuples.

    The part must hold exactly the columns ``dims`` and ``measure_names``, with
    the role and type the manifest implies for each, and list each cell once; a
    cell lists its values in the order of ``dims``, its measures in the order of
    ``measure_names``.  Anything else is a ``StoreError``.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StoreError(f"cannot read {path}: {exc}") from None
    if _checksum(data) != expected_checksum:
        raise StoreError(f"checksum mismatch for {path.name}: store is corrupt")
    expected = {d.name: (_ROLE_DIM, (_DOMAIN_TYPE[d.domain],)) for d in dims}
    expected.update((m, (_ROLE_MEASURE, (_INT64, _FLOAT64))) for m in measure_names)
    r = _Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise StoreError(f"{path.name}: bad magic")
    version, n_cols = r.unpack("<II")
    if version != FORMAT_VERSION:
        raise StoreError(f"{path.name}: unsupported format version {version}")
    if n_cols != len(expected):
        raise StoreError(f"{path.name}: {n_cols} columns, the manifest schema has {len(expected)}")
    (n_rows,) = r.unpack("<Q")
    columns = {}
    for _ in range(n_cols):
        (name_len,) = r.unpack("<H")
        name = _text(r.take(name_len), path)
        role, col_type = r.unpack("<BB")
        if name in columns or name not in expected or role != expected[name][0] \
                or col_type not in expected[name][1]:
            raise StoreError(f"{path.name}: column {name!r} does not match the manifest schema")
        columns[name] = _read_column(r, path, n_rows, role, col_type)
    if r.pos != len(data):
        raise StoreError(f"{path.name}: trailing bytes after the last column")
    cells = zip(*(columns[d.name] for d in dims)) if dims else [()] * n_rows
    measures = zip(*(columns[m] for m in measure_names)) if measure_names else [()] * n_rows
    out = dict(zip(cells, measures))
    if len(out) != n_rows:
        raise StoreError(f"{path.name}: a cell is listed twice")
    return out


def _cell_sort_key(cell: tuple) -> tuple:
    out = []
    for v in cell:
        if v is ANY:
            out.append((0, ""))
        elif v is NULL:
            out.append((1, ""))
        else:
            out.append((2, format_value(v)))
    return tuple(out)


def _write_manifest(path: Path, payload: dict) -> None:
    (path / MANIFEST_NAME).write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def _plain_name(name) -> bool:
    """True iff ``name`` names a file directly inside the store directory."""
    return (isinstance(name, str) and name not in ("", "..") and "\0" not in name
            and Path(name).name == name)


def _read_manifest(path: Path) -> tuple[dict, DimensionSchema]:
    """The manifest of the store at ``path`` and its parsed schema.

    Each key the store's kind reads must be present with the shape it is read
    as, down to the part keys, whose values ``decode_value`` checks against
    their dimensions' domains as the store decodes them (a key listed twice
    fails there too); a part's file must be a plain name inside the store, and
    a partitioned store's schema has exactly its partition and cell
    dimensions.  Anything else is a ``StoreError``.
    """
    manifest_path = Path(path) / MANIFEST_NAME
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StoreError(f"cannot read manifest: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreError(f"manifest is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != "cube-store" \
            or payload.get("version") != FORMAT_VERSION:
        raise StoreError("not a cube store directory")
    kind = payload.get("kind")
    if kind not in ("cellset", "chunked", "rechunked"):
        raise StoreError(f"unknown store kind {kind!r}")
    try:
        schema = schema_from_dict(payload["schema"])
    except (KeyError, TypeError, AttributeError, SchemaError) as exc:
        raise StoreError(f"manifest schema is malformed ({exc!r})") from None
    parts = payload.get("parts")
    if not isinstance(parts, list):
        raise StoreError("manifest 'parts' must be a list")
    if kind == "cellset" and len(parts) != 1:
        raise StoreError(f"a cellset store has one part, its manifest lists {len(parts)}")
    for part in parts:
        if not (isinstance(part, dict) and _plain_name(part.get("file"))
                and isinstance(part.get("checksum"), str)):
            raise StoreError(f"manifest part {part!r} needs a checksum and a plain file name")
    if kind == "cellset":
        return payload, schema
    names = schema.dimension_names
    partition_dim, cell_dims = payload.get("partition_dim"), payload.get("cell_dims")
    if not (isinstance(partition_dim, str) and isinstance(cell_dims, list)
            and all(isinstance(d, str) for d in cell_dims)
            and sorted([partition_dim, *cell_dims]) == sorted(names)):
        raise StoreError("manifest 'partition_dim' and 'cell_dims' must name each dimension "
                         "of its schema once")
    if any("key" not in part for part in parts):
        raise StoreError("manifest part lacks its 'key'")
    if kind == "rechunked" and not (
            isinstance(payload.get("partition_values"), list)
            and all(isinstance(part["key"], list) and len(part["key"]) == len(cell_dims)
                    for part in parts)):
        raise StoreError("manifest needs 'partition_values' and one key value per cell dimension")
    return payload, schema


def materialize(cube: AbstractCube, dims: Sequence[str], path) -> None:
    """Persist the cellset of ``cube`` over ``dims`` as a loadable store; over all
    of its dimensions that is ``cube.to_cellset()``, a cellset it may hold already."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    whole = set(dims) == set(cube.schema.dimension_names)
    cellset = cube.to_cellset() if whole else build_cellset(cube, dims)
    rows = sorted(cellset._cells.items(), key=lambda r: _cell_sort_key(r[0]))
    entry = _write_part(path / "cells.bin", cellset.schema.dimensions,
                        cellset.schema.measure_names, rows)
    _write_manifest(path, {
        "format": "cube-store",
        "version": FORMAT_VERSION,
        "kind": "cellset",
        "schema": schema_to_dict(cellset.schema),
        "sort": "canonical-cell-key",
        "parts": [dict(entry, key=None)],
    })


def load_cellset(path, opened: tuple[dict, DimensionSchema] | None = None) -> CellsetCube:
    """Load a materialized cellset store, verifying its checksum.

    ``opened`` is the store's manifest and schema as ``_read_manifest``
    returned them, for a caller that has already read them.
    """
    path = Path(path)
    manifest, schema = opened or _read_manifest(path)
    if manifest["kind"] != "cellset":
        raise StoreError(f"store at {path} is kind {manifest['kind']!r}, not a plain cellset")
    (part,) = manifest["parts"]
    return CellsetCube(schema, _read_part(path / part["file"], part["checksum"],
                                          schema.dimensions, schema.measure_names))


def chunk_by_partition(cube: BaseTableGroupByCube, partition_dim: str,
                       dims: Sequence[str], path) -> "ChunkStore":
    """Materialize one chunk of per-region aggregates per partition value."""
    if not isinstance(cube, BaseTableGroupByCube):
        raise SpecError("chunking needs a base-table cube to partition")
    schema = cube.schema
    root = cube.bind(Region())
    values = root.values(partition_dim)  # checks the partition dimension
    dims = tuple(dims)
    if partition_dim in dims or len(set(dims)) != len(dims):
        raise SpecError("chunk dimensions must be distinct and exclude the partition dimension")
    for d in dims:
        schema.dimension(d)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    cell_dims = tuple(d for d in schema.dimensions if d.name in dims)
    parts = []
    for i, value in enumerate(values):
        sub_table = cube.table.subset(root.child(partition_dim, value).row_ids)
        sub_cube = BaseTableGroupByCube(sub_table, schema)
        cellset = build_cellset(sub_cube, dims)
        rows = sorted(cellset._cells.items(), key=lambda r: _cell_sort_key(r[0]))
        entry = _write_part(path / f"chunk-{i:05d}.bin", cell_dims, schema.measure_names, rows)
        parts.append(dict(entry, key=encode_value(value)))
    view_schema = DimensionSchema(
        tuple(d for d in schema.dimensions if d.name in dims or d.name == partition_dim),
        schema.measures,
    )
    _write_manifest(path, {
        "format": "cube-store",
        "version": FORMAT_VERSION,
        "kind": "chunked",
        "schema": schema_to_dict(view_schema),
        "partition_dim": partition_dim,
        "cell_dims": list(dims),
        "sort": "canonical-cell-key",
        "parts": parts,
    })
    return ChunkStore(path)


class _PartitionedStore(AbstractCube):
    """Shared view assembly for the chunked and re-chunked encodings.

    A view is a lookup: a decoded chunk is a ``CellsetCube`` over the cell
    dimensions, and a re-chunked store finds the slices to read in a cellset of
    its slice keys.  ``view`` selects partition values and merges the rows that
    each kind's ``_partition_rows`` yields as (partition value, attributes, measures).
    Each part is decoded at most once per store: ``_read`` keeps the decoded
    form of every part that decoded cleanly, so later views reuse it (a
    chunk's ``CellsetCube`` with its lookup index, or a slice's cells, each
    cell -> its measure tuple in ``measure_names`` order).
    """

    def __init__(self, path, instrumentation: Instrumentation | None = None,
                 opened: tuple[dict, DimensionSchema] | None = None):
        self.path = Path(path)
        self.manifest, self._schema = opened or _read_manifest(self.path)
        if self.manifest["kind"] != self._kind:
            raise StoreError(
                f"store at {self.path} is kind {self.manifest['kind']!r}, expected {self._kind!r}"
            )
        self.partition_dim = self.manifest["partition_dim"]
        self.cell_dims = tuple(self.manifest["cell_dims"])
        self._cell_schema = DimensionSchema(
            tuple(self._schema.dimension(d) for d in self.cell_dims), self._schema.measures)
        self.counters = (instrumentation or Instrumentation()).counters
        self._decoded: dict = {}

    @property
    def schema(self) -> DimensionSchema:
        return self._schema

    def partition_values(self) -> tuple:
        raise NotImplementedError

    def _read(self, key, part: dict):
        """The decoded form of the part at ``key``, counting one logical read.

        The first read decodes and checks the part file into its cells, which
        list ``_part_dims``, each -> its measure tuple, and keeps ``_form`` of
        them; a part that fails is not kept, so every read of it fails again.
        """
        if key not in self._decoded:
            cells = _read_part(self.path / part["file"], part["checksum"], self._part_dims,
                               self._schema.measure_names)
            # parts are written from base-table aggregates, which are never NULL
            if any(None in measures for measures in cells.values()):
                raise StoreError(f"{part['file']}: NULL measure in a partitioned store")
            self._decoded[key] = self._form(cells)
            self.counters["parts_decoded"] += 1
        self.counters[self._read_counter] += 1
        return self._decoded[key]

    def _form(self, cells: dict[tuple, tuple]):
        return cells

    def view(self, region: Region, request: FeatureRequest,
             partition_range: tuple | None = None) -> FeatureFrame:
        self._check(region, request)
        bindings = region.bindings()
        partition_binding = bindings.pop(self.partition_dim, None)

        values = set(self.partition_values())
        if partition_binding is not None:
            values = {v for v in values if v == partition_binding}
        if partition_range is not None:
            if not (isinstance(partition_range, (tuple, list)) and len(partition_range) == 2):
                raise RequestError(f"partition_range {partition_range!r} is not a (lo, hi) pair")
            # bounds are inclusive, in sort-key order: NULL sorts after every value
            lo, hi = partition_range
            domain = _DOMAIN_TAG[self._schema.dimension(self.partition_dim).domain][1]
            for bound in (lo, hi):
                if not (bound is None or bound is NULL or type(bound) is domain):
                    raise RequestError(f"partition_range bound {bound!r} is not a value of "
                                       f"{self.partition_dim!r}")
            key = _value_sort_key
            values = {v for v in values if (lo is None or key(v) >= key(lo))
                      and (hi is None or key(v) <= key(hi))}

        attrs = request.attribute_features
        timeseries = self.partition_dim in attrs
        # merging rows across partitions is only sound for SUM; a single bound
        # partition value or a timeseries view never merges across partitions
        if not timeseries and partition_binding is None:
            for m in request.metric_features:
                if self._schema.measure(m).agg != "sum":
                    raise StoreError(
                        f"measure {m!r} cannot be re-aggregated across partitions; "
                        f"request {self.partition_dim!r} as an attribute instead"
                    )

        at = attrs.index(self.partition_dim) if timeseries else None
        cell_request = FeatureRequest(tuple(a for a in attrs if a != self.partition_dim),
                                      request.metric_features)
        rows: dict[tuple, list] = {}
        for value, key, picked in self._partition_rows(Region(bindings), cell_request, values):
            if at is not None:
                key = key[:at] + (value,) + key[at:]
            if key in rows:
                acc = rows[key]
                for i, v in enumerate(picked):
                    acc[i] += v
            else:
                rows[key] = list(picked)
        if not rows and not attrs and region.degree == 0:
            rows[()] = [0 for _ in request.metric_features]
        return FeatureFrame(attrs, request.metric_features,
                            [(k, tuple(v)) for k, v in rows.items()])


class ChunkStore(_PartitionedStore):
    """Per-partition chunks of region aggregates; a window of k dates reads k chunks."""

    _kind = "chunked"
    _read_counter = "chunk_reads"

    def __init__(self, path, instrumentation: Instrumentation | None = None,
                 opened: tuple[dict, DimensionSchema] | None = None):
        super().__init__(path, instrumentation, opened)
        partition = self._schema.dimension(self.partition_dim)
        self._parts = [(decode_value(p["key"], partition), p) for p in self.manifest["parts"]]
        if len({v for v, _ in self._parts}) != len(self._parts):
            raise StoreError("manifest lists a chunk key twice")
        self._part_dims = self._cell_schema.dimensions

    def partition_values(self) -> tuple:
        return tuple(v for v, _ in self._parts)

    def _form(self, cells: dict[tuple, tuple]) -> CellsetCube:
        return CellsetCube(self._cell_schema, cells)

    def _partition_rows(self, region, request, wanted):
        for value, part in self._parts:
            if value in wanted:
                for key, picked in self._read(value, part).view(region, request).iter_rows():
                    yield value, key, picked


def rechunk(store: ChunkStore, path) -> "RechunkedStore":
    """Pivot a chunked store so each region's rows across partitions are one slice."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    slices: dict[tuple, list] = {}
    for value, part in store._parts:
        for cell, measures in store._read(value, part)._cells.items():
            slices.setdefault(cell, []).append(((value,), measures))
    partition_dimension = store.schema.dimension(store.partition_dim)
    parts = []
    for i, cell in enumerate(sorted(slices, key=_cell_sort_key)):
        rows = sorted(slices[cell], key=lambda r: _value_sort_key(r[0][0]))
        entry = _write_part(path / f"slice-{i:05d}.bin", (partition_dimension,),
                            store.schema.measure_names, rows)
        parts.append(dict(entry, key=[encode_value(v) for v in cell]))
    _write_manifest(path, {
        "format": "cube-store",
        "version": FORMAT_VERSION,
        "kind": "rechunked",
        "schema": schema_to_dict(store.schema),
        "partition_dim": store.partition_dim,
        "cell_dims": list(store.cell_dims),
        "partition_values": [encode_value(v) for v in store.partition_values()],
        "sort": "canonical-cell-key",
        "parts": parts,
    })
    return RechunkedStore(path)


class RechunkedStore(_PartitionedStore):
    """Region-keyed slices; any one region's whole timeseries is a single read."""

    _kind = "rechunked"
    _read_counter = "slice_reads"

    def __init__(self, path, instrumentation: Instrumentation | None = None,
                 opened: tuple[dict, DimensionSchema] | None = None):
        super().__init__(path, instrumentation, opened)
        cell_dims = self._cell_schema.dimensions
        self._slices = {tuple(decode_value(v, d) for v, d in zip(p["key"], cell_dims)): p
                        for p in self.manifest["parts"]}
        if len(self._slices) != len(self.manifest["parts"]):
            raise StoreError("manifest lists a slice key twice")
        self._keys = CellsetCube(DimensionSchema(cell_dims, ()), dict.fromkeys(self._slices, ()))
        self._part_dims = (self._schema.dimension(self.partition_dim),)
        self._values = tuple(decode_value(v, self._part_dims[0])
                             for v in self.manifest["partition_values"])

    def partition_values(self) -> tuple:
        return self._values

    def _partition_rows(self, region, request, wanted):
        at = [self.cell_dims.index(a) for a in request.attribute_features]
        names = self._schema.measure_names
        picks = [names.index(m) for m in request.metric_features]
        for cell in self._keys.cells_at(region, request.attribute_features):
            key = tuple(cell[i] for i in at)
            for (value,), measures in self._read(cell, self._slices[cell]).items():
                if value in wanted:
                    yield value, key, tuple(measures[j] for j in picks)


def load_store(path, instrumentation: Instrumentation | None = None) -> AbstractCube:
    """Open any store directory as a cube (cellset, chunked, or rechunked)."""
    opened = _read_manifest(Path(path))
    kind = opened[0]["kind"]
    if kind == "cellset":
        return load_cellset(path, opened)
    store_class = ChunkStore if kind == "chunked" else RechunkedStore
    return store_class(path, instrumentation, opened)
