"""Write-once physical cube encodings, all serving the same logical cube.

A store directory holds one binary columnar file per part plus a JSON
manifest with per-part checksums.  Three kinds exist: a plain materialized
cellset, a cellset chunked by a partition dimension (one chunk per partition
value, the cellset of the cube at that value), and the re-chunked form where
each region's rows across all partition values sit in one contiguous slice.
Each kind's writer only computes its parts; one writer, ``_write_store``,
writes them once all that can fail on the input has run, with the manifest,
into a new sibling directory that then takes the place of the target, so a
write that fails leaves the target as it was.
An opened partitioned store decodes a part on its first read only, verifying
its checksum, and keeps the decoded form.  Reads are counted twice over:
logical reads (``chunk_reads`` and ``slice_reads``, one per part a view
consults) keep read-amplification claims testable, and ``parts_decoded``
counts the physical decodes.

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
import math
import os
import shutil
import stat
import struct
from itertools import accumulate, chain, groupby, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    ANY,
    EMPTY_REGION,
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
    RegionCursor,
    _CellCursor,
    _getter,
    build_cellset,
    finite_number,
    format_value,
    schema_from_dict,
    schema_to_dict,
)
from .errors import DataError, RequestError, SchemaError, SpecError, StoreError

MAGIC = b"CCSTORE1"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

_INT64, _FLOAT64, _STRING, _BOOL = 1, 2, 3, 4
# the struct code of each fixed-width column type's payload slot
_SLOT = {_INT64: "q", _FLOAT64: "d", _BOOL: "?"}
_ROLE_DIM, _ROLE_MEASURE = 0, 1
_MARK_VALUE, _MARK_WILDCARD, _MARK_NULL = 0, 1, 2
# a row's marker: ANY is a wildcard, NULL or None a null, anything else a value
_MARK_OF = {ANY: _MARK_WILDCARD, NULL: _MARK_NULL, None: _MARK_NULL}
# the payload of a non-value row, per column type
_ZERO = {_INT64: 0, _FLOAT64: 0.0, _STRING: "", _BOOL: False}
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


def _pack_column(name: str, role: int, col_type: int, column: Sequence) -> bytes:
    """One column of a part: its header, a marker per row, then the payload, where each
    non-value row holds its type's zero.  ``struct`` refuses an int that its slot cannot
    hold, and a FLOAT64 slot refuses a float that is not finite and an int that is no
    float exactly."""
    markers = bytes(map(_MARK_OF.get, column, repeat(_MARK_VALUE)))
    fill = dict.fromkeys(_MARK_OF, _ZERO[col_type])
    values = list(map(fill.get, column, column))  # a value stands for itself
    text = name.encode()
    head = struct.pack(f"<H{len(text)}sBB", len(text), text, role, col_type)
    if col_type != _STRING:
        if col_type == _FLOAT64 and not (all(map(math.isfinite, values))
                                         and values == list(map(float, values))):
            raise OverflowError(f"{name!r} holds a number that is no finite float")
        return b"".join([head, markers, struct.pack(f"<{len(values)}{_SLOT[col_type]}", *values)])
    blobs = [str(v).encode() for v in values]
    offsets = struct.pack(f"<{len(blobs) + 1}I", 0, *accumulate(map(len, blobs)))
    return b"".join([head, markers, offsets, b"".join(blobs)])


# the values of each numeric column type: the i64 range, and finite floats exactly
_HOLDS = {_INT64: lambda v: -2 ** 63 <= v < 2 ** 63,
          _FLOAT64: lambda v: finite_number(v) and float(v) == v}


def _pack_part(dims: Sequence[Dimension], measure_names: Sequence[str],
               rows: Sequence[tuple[tuple, Sequence]]) -> bytes:
    """One part file of (cell, measure tuple) rows, packed a column at a time.  A measure
    column is INT64 when it holds ints only, besides the None of an absent join side.  A
    value past its column type's range is a DataError naming the column and the cell."""
    names = [d.name for d in dims] + list(measure_names)
    cells, measures = [cell for cell, _ in rows], [values for _, values in rows]
    columns = chain((list(map(itemgetter(j), cells)) for j in range(len(dims))),
                    (list(map(itemgetter(j), measures)) for j in range(len(measure_names))))
    roles = [_ROLE_DIM] * len(dims) + [_ROLE_MEASURE] * len(measure_names)
    types = [_DOMAIN_TYPE[d.domain] for d in dims] + [
        _INT64 if set(map(type, map(itemgetter(j), measures))) <= {int, type(None)} else _FLOAT64
        for j in range(len(measure_names))]
    try:
        return b"".join([MAGIC, struct.pack("<IIQ", FORMAT_VERSION, len(names), len(rows)),
                         *map(_pack_column, names, roles, types, columns)])
    except (struct.error, OverflowError):
        for cell, values in rows:
            for name, col_type, value in zip(names, types, cell + tuple(values)):
                if col_type in _HOLDS and value not in _MARK_OF and not _HOLDS[col_type](value):
                    raise DataError(f"column {name!r} holds {value!r} at the cell {cell!r}, "
                                    f"which a store cannot hold") from None
        raise


def _write_store(path, manifest: dict, dims: Sequence[Dimension], measure_names: Sequence[str],
                 parts: Iterable[tuple[str, object, Sequence]]) -> None:
    """Write each (file name, manifest key, rows) of ``parts`` as a part over ``dims`` and
    ``measure_names``, then the manifest: ``manifest`` plus the keys every store shares.

    A store at ``path``, or a missing or empty directory, is replaced whole; any other
    ``path`` is a StoreError, before any part is computed.  Every part is packed before
    anything is written, into a new sibling directory that takes the place of ``path``
    once it is whole, so a write that fails, on its input or on the disk, leaves ``path``
    as it was and no sibling behind."""
    path = Path(path)
    if path.exists() and (not path.is_dir() or any(path.iterdir())):
        try:
            _read_manifest(path)
        except StoreError:
            raise StoreError(f"{path} is not empty and holds no cube store to replace") from None
    packed = [(name, key, len(rows), _pack_part(dims, measure_names, rows))
              for name, key, rows in parts]

    def write(into: Path) -> None:
        entries = []
        for name, key, n_rows, data in packed:
            (into / name).write_bytes(data)
            entries.append({"file": name, "rows": n_rows, "checksum": _checksum(data), "key": key})
        payload = dict(manifest, format="cube-store", version=FORMAT_VERSION,
                       sort="canonical-cell-key", parts=entries)
        (into / MANIFEST_NAME).write_text(json.dumps(payload, indent=1, sort_keys=True),
                                          encoding="utf-8")
    write_whole(path, write, is_dir=True)


_DESCRIPTOR_PATHS = ("/dev/stdin", "/dev/stdout", "/dev/stderr", "/dev/fd/", "/proc/")


def write_whole(path, write: Callable[[Path], None], is_dir: bool = False) -> None:
    """Call ``write`` with a new sibling of ``path`` (a directory made for it if
    ``is_dir``, else a file name for it to open) and put the sibling in the place of
    ``path`` once ``write`` returns, so a write that fails leaves ``path`` as it was and
    no sibling behind.  A symlink is written through; a replaced target keeps its mode
    but not its owner or hard links.  A target that exists and is not a regular file (a
    directory, if ``is_dir``), such as a device or a FIFO, or a file named by a file
    descriptor (``/dev/stdout``, ``/dev/fd/3``), is handed to ``write`` to write in place,
    as ``open(path, "w")`` would."""
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    path = Path(path).absolute()
    if old is not None and (not (stat.S_ISDIR if is_dir else stat.S_ISREG)(old.st_mode)
                            or not is_dir and str(path).startswith(_DESCRIPTOR_PATHS)):
        write(path)
        return
    path = path.resolve()
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = _sibling(path)
    if is_dir:
        fresh.mkdir()
    aside = _sibling(path) if old is not None and is_dir else None
    try:
        write(fresh)
        if old is not None:
            os.chmod(fresh, stat.S_IMODE(old.st_mode))
        if aside is not None:
            os.replace(path, aside)  # a directory that cannot be renamed fails here
        try:
            os.replace(fresh, path)
        except BaseException:
            if aside is not None:
                os.replace(aside, path)
            raise
    except BaseException:
        if is_dir:
            shutil.rmtree(fresh, ignore_errors=True)
        else:
            fresh.unlink(missing_ok=True)
        raise
    if aside is not None:
        shutil.rmtree(aside, ignore_errors=True)


def _sibling(path: Path) -> Path:
    """A new name beside ``path``, for what is written whole before it takes the place of
    ``path``."""
    return path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")


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
    if col_type != _STRING:
        raw = r.unpack(f"<{n_rows}{_SLOT[col_type]}")
        # struct reads any nonzero byte as True; a BOOL slot holds 0 or 1
        if col_type == _BOOL and r.data[r.pos - n_rows:r.pos].translate(None, b"\0\1"):
            raise StoreError(f"{path.name}: bad boolean value")
        if col_type == _FLOAT64 and not all(map(math.isfinite, raw)):
            raise StoreError(f"{path.name}: a FLOAT64 value is not finite")
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


def _value_key(value) -> tuple:
    return (0, "") if value is ANY else (1, "") if value is NULL else (2, format_value(value))


def _canonical_items(cells: Mapping[tuple, object]) -> list[tuple]:
    """The items of ``cells`` in canonical-cell-key order: each dimension sorts ANY,
    then NULL, then values by their text.  Each distinct value of a dimension is
    ranked once, values of one text sharing a rank, and the cells sort by rank."""
    ranked = []
    for column in zip(*cells):
        by_key = groupby(sorted(set(column), key=_value_key), key=_value_key)
        rank = {v: r for r, (_, values) in enumerate(by_key) for v in values}
        ranked.append(map(rank.__getitem__, column))
    keys = zip(*ranked) if ranked else [()] * len(cells)
    return [item for _, item in sorted(zip(keys, cells.items()), key=itemgetter(0))]


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
    whole = set(dims) == set(cube.schema.dimension_names)
    cellset = cube.to_cellset() if whole else build_cellset(cube, dims)
    schema = cellset.schema
    _write_store(path, {"kind": "cellset", "schema": schema_to_dict(schema)},
                 schema.dimensions, schema.measure_names,
                 [("cells.bin", None, _canonical_items(cellset._cells))])


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
    """Materialize one chunk per partition value: the cellset over ``dims`` of the
    cube at that value."""
    if not isinstance(cube, BaseTableGroupByCube):
        raise SpecError("chunking needs a base-table cube to partition")
    schema = cube.schema
    values = cube.region_values(EMPTY_REGION, partition_dim)  # checks the partition dimension
    dims = tuple(dims)
    if partition_dim in dims or len(set(dims)) != len(dims):
        raise SpecError("chunk dimensions must be distinct and exclude the partition dimension")
    for d in dims:
        schema.dimension(d)
    view_schema = DimensionSchema(
        tuple(d for d in schema.dimensions if d.name in dims or d.name == partition_dim),
        schema.measures)
    parts = ((f"chunk-{i:05d}.bin", encode_value(value),
              _canonical_items(build_cellset(cube, dims, Region({partition_dim: value}))._cells))
             for i, value in enumerate(values))
    _write_store(path, {"kind": "chunked", "schema": schema_to_dict(view_schema),
                        "partition_dim": partition_dim, "cell_dims": list(dims)},
                 tuple(d for d in schema.dimensions if d.name in dims), schema.measure_names,
                 parts)
    return ChunkStore(path)


class _PartitionedStore(AbstractCube):
    """Shared cursor assembly for the chunked and re-chunked encodings: a store binds a
    ``_StoreCursor``, and each kind's ``_rows`` yields the (partition value, cell,
    measures) rows of its view, reading each part it consults through ``_read``.
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
        self._open()

    @property
    def schema(self) -> DimensionSchema:
        return self._schema

    def partition_values(self) -> tuple:
        return self._values

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

    def bind(self, region: Region) -> "_StoreCursor":
        return _StoreCursor(self, EMPTY_REGION, frozenset(self._values),
                            self._keys.bind(EMPTY_REGION)).refine(region)

    def view(self, region: Region, request: FeatureRequest,
             partition_range: tuple | None = None) -> FeatureFrame:
        """The frame from the partitions in the inclusive ``partition_range``, or all: the
        view of the store's cursor at ``region`` restricted to those partitions."""
        cursor = self.bind(region)
        if partition_range is not None:
            if not (isinstance(partition_range, (tuple, list)) and len(partition_range) == 2):
                raise RequestError(f"partition_range {partition_range!r} is not a (lo, hi) pair")
            # bounds are inclusive: NULL sorts after every value
            lo, hi = partition_range
            domain = _DOMAIN_TAG[self._schema.dimension(self.partition_dim).domain][1]
            for bound in (lo, hi):
                if not (bound is None or bound is NULL or type(bound) is domain):
                    raise RequestError(f"partition_range bound {bound!r} is not a value of "
                                       f"{self.partition_dim!r}")
            cursor.partitions = frozenset(v for v in cursor.partitions
                                          if (lo is None or v >= lo) and (hi is None or v <= hi))
        return cursor.view(request)


class _StoreCursor(RegionCursor):
    """A partitioned store bound at a region: the partition values it reads, and the
    probe, a ``_CellCursor`` at the region's cell bindings in a cellset of the store's
    slice keys (none for a chunked store).  The probe finds a view's cells in every
    part, since a chunk is a ``CellsetCube`` over the cell dimensions and a slice's
    key a cell.  ``child`` on the partition dimension keeps the partition of its
    value, and on a cell dimension refines the probe.  ``view`` merges the parts'
    rows once, in partition order: a view that binds or requests the partition reads
    the stored totals as they are; any other adds them, so a float SUM can differ
    from the live cube's."""

    def __init__(self, cube: _PartitionedStore, region: Region, partitions: frozenset,
                 probe: _CellCursor):
        super().__init__(cube, region)
        self.partitions = partitions
        self.probe = probe

    def view(self, request):
        store = self.cube
        request.validate(store.schema)
        attrs, partition_dim = request.attribute_features, store.partition_dim
        timeseries = partition_dim in attrs
        # merging rows across partitions is only sound for SUM; a single bound
        # partition value or a timeseries view never merges across partitions
        merges = not timeseries and partition_dim not in self.region
        for m in request.metric_features if merges else ():
            if store.schema.measure(m).agg != "sum":
                raise StoreError(f"measure {m!r} cannot be re-aggregated across partitions; "
                                 f"request {partition_dim!r} as an attribute instead")
        # a timeseries row's key reads its cell followed by its partition value
        cells = store.cell_dims + (partition_dim,)
        at = _getter([cells.index(a) for a in attrs])
        metrics = request.metric_features
        pick = _getter([store.schema.measure_names.index(m) for m in metrics])
        rows: dict[tuple, tuple] = {}
        for value, cell, measures in store._rows(self.partitions, self.probe,
                                                 frozenset(attrs) - {partition_dim}):
            key = at(cell + (value,)) if timeseries else at(cell)
            total = rows.get(key)
            if total is None:
                rows[key] = pick(measures)
            elif metrics:
                rows[key] = tuple(map(add, total, pick(measures)))
        if merges and not all(map(finite_number, chain.from_iterable(rows.values()))):
            raise DataError(f"a SUM over the partitions of {store.path} is not a finite number")
        if not rows and not attrs and not self.region.degree:
            rows[()] = (0,) * len(metrics)
        return FeatureFrame(attrs, metrics, rows)

    def child(self, dim, value):
        region = self.region.with_binding(dim, value)
        if dim == self.cube.partition_dim:
            return _StoreCursor(self.cube, region, self.partitions & {value}, self.probe)
        return _StoreCursor(self.cube, region, self.partitions, self.probe.child(dim, value))


class ChunkStore(_PartitionedStore):
    """Per-partition chunks of region aggregates; a window of k dates reads k chunks."""

    _kind = "chunked"
    _read_counter = "chunk_reads"

    def _open(self):
        partition = self._schema.dimension(self.partition_dim)
        self._parts = [(decode_value(p["key"], partition), p) for p in self.manifest["parts"]]
        if len({v for v, _ in self._parts}) != len(self._parts):
            raise StoreError("manifest lists a chunk key twice")
        self._values = tuple(v for v, _ in self._parts)
        self._part_dims = self._cell_schema.dimensions
        # a chunk has no key to find: the probe binds an empty cellset of its dimensions
        self._keys = CellsetCube(DimensionSchema(self._part_dims, ()), {})

    def _form(self, cells: dict[tuple, tuple]) -> CellsetCube:
        return CellsetCube(self._cell_schema, cells)

    def _rows(self, partitions, probe, attrs):
        for value, part in self._parts:
            if value in partitions:
                chunk = self._read(value, part)
                for cell in probe.cells(attrs, chunk):
                    yield value, cell, chunk._cells[cell]


def rechunk(store: ChunkStore, path) -> "RechunkedStore":
    """Pivot a chunked store so each region's rows, in partition value order, are one slice."""
    slices: dict[tuple, list] = {}
    for value, part in sorted(store._parts, key=itemgetter(0)):
        for cell, measures in store._read(value, part)._cells.items():
            slices.setdefault(cell, []).append(((value,), measures))
    parts = ((f"slice-{i:05d}.bin", [encode_value(v) for v in cell], rows)
             for i, (cell, rows) in enumerate(_canonical_items(slices)))
    _write_store(path, {"kind": "rechunked", "schema": schema_to_dict(store.schema),
                        "partition_dim": store.partition_dim, "cell_dims": list(store.cell_dims),
                        "partition_values": [encode_value(v) for v in store.partition_values()]},
                 (store.schema.dimension(store.partition_dim),), store.schema.measure_names,
                 parts)
    return RechunkedStore(path)


class RechunkedStore(_PartitionedStore):
    """Region-keyed slices; any one region's whole timeseries is a single read."""

    _kind = "rechunked"
    _read_counter = "slice_reads"

    def _open(self):
        cell_dims = self._cell_schema.dimensions
        self._slices = {tuple(decode_value(v, d) for v, d in zip(p["key"], cell_dims)): p
                        for p in self.manifest["parts"]}
        if len(self._slices) != len(self.manifest["parts"]):
            raise StoreError("manifest lists a slice key twice")
        self._keys = CellsetCube(DimensionSchema(cell_dims, ()), dict.fromkeys(self._slices, ()))
        self._part_dims = (self._schema.dimension(self.partition_dim),)
        self._values = tuple(decode_value(v, self._part_dims[0])
                             for v in self.manifest["partition_values"])

    def _rows(self, partitions, probe, attrs):
        for cell in probe.cells(attrs):
            for (value,), measures in self._read(cell, self._slices[cell]).items():
                if value in partitions:
                    yield value, cell, measures


def load_store(path, instrumentation: Instrumentation | None = None) -> AbstractCube:
    """Open any store directory as a cube (cellset, chunked, or rechunked)."""
    opened = _read_manifest(Path(path))
    kind = opened[0]["kind"]
    if kind == "cellset":
        return load_cellset(path, opened)
    store_class = ChunkStore if kind == "chunked" else RechunkedStore
    return store_class(path, instrumentation, opened)
