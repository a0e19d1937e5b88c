"""On-disk formats: the one module that encodes and decodes artifacts.

Text formats (CSV, UTF-8, comma separated, one header row):

* stations: ``station_id,lat,lon``
* zenith delays: ``timestamp,station_id,ztd_m`` with ISO-8601 UTC timestamps;
  missing observations are simply absent rows, and rows may come in any order
* wind: ``timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms``
  preceded by a metadata line ``# level_kind=height_m|pressure_hPa``
* gridded baseline: ``timestamp,lat,lon,level,u_ms,v_ms,w_ms``, optionally
  preceded by a ``# level_kind=...`` line (pressure_hPa when absent), with one
  row for every combination of its times, lats, lons and levels

Binary formats are little-endian, row-major float64, and round-trip
bit-exactly (NaN payloads included). Each starts with an 8-byte magic:

* ``GWCPANL1`` delay panel   * ``GWCCUBE1`` wind cube
* ``GWCSERS1`` wind series   * ``GWCNARR1`` named-array container

The named-array container is a JSON manifest (array names, shapes, free-form
``extra`` metadata) followed by the concatenated float64 payloads in manifest
order; model checkpoints use it with the model configuration in ``extra``.

Text and JSON artifacts are written UTF-8 with LF line ends, JSON in the
canonical form of :func:`canonical_json`. Every reader turns a malformed file
into a :class:`DataError` naming it; that includes content a container
refuses at construction, such as a station listed twice or a non-finite
observed value.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from itertools import islice

import numpy as np

from .core import (
    HEIGHT_M,
    LEVEL_KINDS,
    PRESSURE_HPA,
    GriddedBaseline,
    LevelSpec,
    StationTable,
    TimeAxis,
    WindCube,
    WindSeries,
    ZtdPanel,
    format_iso8601,
    parse_iso8601,
)
from .errors import DataError, NegativeSpeed
from .preprocess import compose_wind, decompose_wind

_MAGIC = {ZtdPanel: b"GWCPANL1", WindCube: b"GWCCUBE1", WindSeries: b"GWCSERS1"}
_WHAT = {ZtdPanel: "delay panel", WindCube: "wind cube", WindSeries: "wind series"}
_ARRAYS_MAGIC = b"GWCNARR1"

# what decoding a malformed field raises: bad numbers, bad UTF-8 and bad JSON
# are ValueErrors, a missing key or an out-of-range index a LookupError, a
# value of the wrong type a TypeError
_MALFORMED = (ValueError, LookupError, TypeError)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def sha256_of_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fmt(x) -> str:
    return repr(float(x))


def _build(path, make, *args):
    """make(*args), the ValueError of a container's checks a DataError
    naming the file at path."""
    try:
        return make(*args)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


# ------------------------------------------------------- text and JSON ----


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def write_json(path, obj) -> None:
    """Write obj as canonical JSON plus a newline."""
    write_text(path, canonical_json(obj) + "\n")


def read_json(path, what: str, build):
    """build(the JSON value in the file at path).

    Malformed JSON, or a field that build finds missing or of the wrong type
    (a LookupError, TypeError or ValueError), is a DataError naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            return build(json.load(f))
    except _MALFORMED as e:
        raise DataError(f"{path}: malformed {what} ({e})") from e


# ------------------------------------------------------------------ CSV ----


CSV_BLOCK_ROWS = 1024  # lines a CSV read splits and converts at a time


def read_csv_rows(path, what: str, header: str, columns, level_kind=None):
    """Read a CSV file by columns in one pass; returns (level kind, columns).

    When ``level_kind`` gives a default kind, an optional first line
    ``# level_kind=...`` may override it; otherwise the kind is None. The
    next line must equal ``header``. Each non-blank line after it, stripped,
    is a row with one field per ``(convert, dtype)`` pair in ``columns``:
    the field's column holds ``convert(text)`` of every row, in an ndarray
    of that dtype, or in a list when the dtype is None.

    The file is read ``CSV_BLOCK_ROWS`` lines at a time, so a read holds its
    columns and one block of text. A block's rows are split in one
    ``str.split`` and each column is converted with one ``map``. A row with
    the wrong field count or a field whose ``convert`` raises ValueError is
    a DataError naming the file and line: the failed block is parsed again
    row by row, each row's fields in order, to find the first bad one. A byte
    that is not UTF-8 is one too, named after any bad row the text decoder
    returned before it, and so is a file with no data rows.
    """
    cols = [[] for _ in columns]
    kind = level_kind
    with open(path, "r", encoding="utf-8") as f:
        try:
            line, lineno = f.readline().strip(), 1
            if level_kind is not None and line.startswith("#"):
                key, _, kind = (s.strip() for s in line.lstrip("# ").partition("="))
                if key != "level_kind" or kind not in LEVEL_KINDS:
                    raise DataError(f"{path}: unexpected {what} metadata line: {line!r}")
                line, lineno = f.readline().strip(), 2
            if line != header:
                raise DataError(f"{path}: unexpected {what} file header: {line!r}")
            while True:
                lines = []
                try:  # a byte that is not UTF-8 keeps the lines decoded before it
                    lines.extend(map(str.strip, islice(f, CSV_BLOCK_ROWS)))
                    _extend_columns(cols, columns, list(filter(None, lines)))
                except ValueError:
                    _raise_at_first_bad_row(path, lines, lineno + 1, columns)
                    raise
                if not lines:
                    break
                lineno += len(lines)
        except UnicodeDecodeError as e:  # e places the byte in a decoded chunk, not a line
            with open(path, "rb") as raw:  # bytes break lines where text mode does
                for lineno, line in enumerate(raw.read().splitlines(), 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as in_line:
                        e = in_line
                        break
            raise DataError(f"{path}, line {lineno}: malformed row ({e})") from e
    if not cols[0]:
        raise DataError(f"{path}: {what} file contains no data rows")
    return kind, [col if dtype is None else np.concatenate(col)
                  for col, (_, dtype) in zip(cols, columns)]


def _extend_columns(cols, columns, rows) -> None:
    """Append the fields of the stripped, non-blank ``rows`` to their
    columns: a list extended, or one ndarray per block appended. A ValueError
    when a row has the wrong field count or a field does not convert, with
    the columns left part-extended."""
    n, m = len(cols), len(rows)
    if not m:
        return
    # a line holds no line break, so a "\n" field marks each row's end, and
    # every row has n fields when each of them sits n + 1 after the last
    fields = ",\n,".join(rows).split(",")
    if len(fields) != (n + 1) * m - 1 or fields[n::n + 1].count("\n") != m - 1:
        raise ValueError("wrong field count")
    for j, (col, (conv, dtype)) in enumerate(zip(cols, columns)):
        if dtype is not None:
            col.append(np.fromiter(map(conv, fields[j::n + 1]), dtype, m))
        else:
            col.extend(map(conv, fields[j::n + 1]))


def _raise_at_first_bad_row(path, lines, lineno: int, columns) -> None:
    """Convert the stripped ``lines``, numbered from ``lineno``, one by one,
    each row's fields in order; the first row that fails is a DataError
    naming its line, with the message unpacking or converting gives."""
    n = len(columns)
    for lineno, line in enumerate(lines, lineno):
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) < n:
                raise ValueError(f"not enough values to unpack (expected {n}, got {len(fields)})")
            if len(fields) > n:
                raise ValueError(f"too many values to unpack (expected {n})")
            for (conv, _), text in zip(columns, fields):
                conv(text)
        except ValueError as e:
            raise DataError(f"{path}, line {lineno}: malformed row ({e})") from e


def check_no_repeats(path, what: str, n_rows: int, n_set: int, keys) -> None:
    """After the rows are placed: if they set fewer than ``n_rows`` cells, a
    later row overwrote an earlier one, and the DataError names the first
    repeated key in ``keys``, an iterator over each row's key (its timestamp
    and the fields that place it) in file order, read only then. The readers
    build their container first, so a bad value is reported as such."""
    if n_set == n_rows:
        return
    seen = set()
    for key in keys:
        if key in seen:
            shown = ",".join([format_iso8601(key[0]), *map(str, key[1:])])
            raise DataError(f"{path}: repeated {what} row for {shown}")
        seen.add(key)


class Timestamps(dict):
    """A memo of :func:`parse_iso8601` for one read: ``memo[text]`` parses
    each distinct text once. A reader makes one and drops it when it returns,
    so the memo holds no text past the read. A bad timestamp raises its
    ValueError at each lookup and is never stored."""

    def __missing__(self, text: str) -> int:
        self[text] = when = parse_iso8601(text)
        return when


class Codes(dict):
    """``memo[text]`` is the index of text among the distinct texts looked
    up so far, in first-seen order; ``list(memo)`` gives the texts back. A
    reader codes station ids with one, so its rows hold integers."""

    def __missing__(self, text: str) -> int:
        self[text] = code = len(self)
        return code


# the grid step, in seconds, of a CSV file with a single timestamp
SINGLE_TIME_STEP_S = 300
# the most grid times a CSV read allocates: about 9.5 years at a 300 s step,
# 250 times the default scene's 4000. Stations and levels are bounded by the
# rows a file holds, the times between its first and last row are not.
MAX_GRID_STEPS = 1_000_000


def _row_axis(path, times) -> TimeAxis:
    """The grid through the timestamps: its step is the smallest positive gap
    between them, ``SINGLE_TIME_STEP_S`` when there is one time. A grid of
    more than ``MAX_GRID_STEPS`` times is a DataError."""
    times = sorted(set(times))
    step = min((b - a for a, b in zip(times, times[1:])), default=SINGLE_TIME_STEP_S)
    if any((t - times[0]) % step for t in times):
        raise DataError(f"{path}: timestamps do not sit on one {step}s grid")
    count = (times[-1] - times[0]) // step + 1
    if count > MAX_GRID_STEPS:
        raise DataError(f"{path}: timestamps span {count} steps of {step}s, "
                        f"more than the {MAX_GRID_STEPS} a read allows")
    return TimeAxis(times[0], step, count)


def _grid_rows(path, what: str, stations: StationTable, when: Timestamps, t, sid, ids, upto=None):
    """The grid through the timestamps the read parsed into ``when``, and
    each row's grid row and station column, from each row's timestamp ``t``
    and the index ``sid`` of its station id in ``ids``.

    A row among the first ``upto`` (all by default) that names a station not
    in ``stations`` is a DataError naming the first such station."""
    axis = _row_axis(path, when.values())
    col = {name: i for i, name in enumerate(stations.ids)}
    s = np.array([col.get(name, -1) for name in ids], np.int64)[sid]
    unknown = np.flatnonzero(s[:upto] < 0)
    if unknown.size:
        raise DataError(f"{path}: unknown station id in {what} file: {ids[sid[unknown[0]]]!r}")
    k = t - axis.start
    k //= axis.step
    return axis, k, s


def write_station_csv(path, table: StationTable) -> None:
    write_text(path, "station_id,lat,lon\n"
               + "".join(f"{sid},{_fmt(la)},{_fmt(lo)}\n" for sid, la, lo in table.entries))


def read_station_csv(path) -> StationTable:
    _, cols = read_csv_rows(path, "station", "station_id,lat,lon",
                            ((str, None), (float, np.float64), (float, np.float64)))
    return _build(path, StationTable, *cols)


def write_ztd_csv(path, panel: ZtdPanel) -> None:
    times = panel.axis.timestamps()
    lines = ["timestamp,station_id,ztd_m\n"]
    for k in range(panel.axis.count):
        iso = format_iso8601(times[k])
        for s, sid in enumerate(panel.stations.ids):
            if panel.mask[k, s]:
                lines.append(f"{iso},{sid},{_fmt(panel.values[k, s])}\n")
    write_text(path, "".join(lines))


def read_ztd_csv(path, stations: StationTable) -> ZtdPanel:
    """Read delay rows onto the grid implied by the timestamps present.

    The grid step is the smallest positive gap between distinct timestamps
    (``SINGLE_TIME_STEP_S`` when only one timestamp is present); every
    timestamp must sit on that grid. Stations not in ``stations`` are
    rejected.
    """
    when, sids = Timestamps(), Codes()
    _, (t, sid, ztd) = read_csv_rows(
        path, "delay", "timestamp,station_id,ztd_m",
        ((when.__getitem__, np.int64), (sids.__getitem__, np.int64), (float, np.float64)),
    )
    ids = list(sids)
    axis, k, s = _grid_rows(path, "delay", stations, when, t, sid, ids)
    values = np.full((axis.count, len(stations)), np.nan)
    mask = np.zeros_like(values, dtype=bool)
    values[k, s] = ztd
    mask[k, s] = True
    panel = _build(path, ZtdPanel, axis, stations, values, mask)
    check_no_repeats(path, "delay", len(k), int(mask.sum()),
                     zip(map(int, t), map(ids.__getitem__, sid)))
    return panel


def write_wind_csv(path, cube: WindCube) -> None:
    speed, direction = compose_wind(cube.values[..., 0], cube.values[..., 1])
    times = cube.axis.timestamps()
    lines = [f"# level_kind={cube.levels.kind}\n",
             "timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n"]
    for k in range(cube.axis.count):
        iso = format_iso8601(times[k])
        for l, lev in enumerate(cube.levels.values):
            for s, sid in enumerate(cube.stations.ids):
                if cube.mask[k, l, s].all():
                    lines.append(
                        f"{iso},{sid},{_fmt(lev)},{_fmt(speed[k, l, s])},"
                        f"{_fmt(direction[k, l, s])},{_fmt(cube.values[k, l, s, 2])}\n"
                    )
    write_text(path, "".join(lines))


def read_wind_csv(path, stations: StationTable) -> WindCube:
    """Read wind rows onto the grid implied by their timestamps, as
    :func:`read_ztd_csv` does; levels ascend for heights and descend for
    pressures. An unknown station or a negative speed is a DataError naming
    the first row, in file order, that has either."""
    when, sids = Timestamps(), Codes()
    kind, (t, sid, level, speed, direction, w) = read_csv_rows(
        path, "wind", "timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms",
        ((when.__getitem__, np.int64), (sids.__getitem__, np.int64), *[(float, np.float64)] * 4),
        level_kind=HEIGHT_M,
    )
    ids = list(sids)
    negative = np.flatnonzero(speed < 0)
    axis, k, s = _grid_rows(path, "wind", stations, when, t, sid, ids,
                            upto=negative[0] if negative.size else None)
    if negative.size:
        ts, i, lev, spd = (col[negative[0]].item() for col in (t, sid, level, speed))
        raise NegativeSpeed(f"{path}: negative wind speed {spd!r} at "
                            f"{format_iso8601(ts)}, station {ids[i]}, level {lev!r}")
    # a level keeps its first row's value (0.0 or -0.0), as a set would
    unique, first, l = np.unique(level, return_index=True, return_inverse=True)
    descending = kind != HEIGHT_M
    levels = _build(path, LevelSpec, kind, level[first[::-1] if descending else first])
    if descending:
        l = len(unique) - 1 - l
    values = np.full((axis.count, len(levels), len(stations), 3), np.nan)
    mask = np.zeros(values.shape, dtype=bool)
    u, v = decompose_wind(speed, direction)
    values[k, l, s] = np.stack((u, v, w), axis=-1)
    mask[k, l, s] = True
    cube = _build(path, WindCube, axis, levels, stations, values, mask)
    check_no_repeats(path, "wind", len(k), int(mask[..., 0].sum()),
                     zip(map(int, t), map(ids.__getitem__, sid), map(float, level)))
    return cube


def read_baseline_csv(path) -> GriddedBaseline:
    """Read a gridded baseline; every grid combination must appear."""
    kind, cols = read_csv_rows(path, "baseline", "timestamp,lat,lon,level,u_ms,v_ms,w_ms",
                               ((Timestamps().__getitem__, None), *[(float, None)] * 6),
                               level_kind=PRESSURE_HPA)
    times, lats, lons = (sorted(set(col)) for col in cols[:3])
    levs = sorted(set(cols[3]), reverse=(kind == PRESSURE_HPA))
    levels = _build(path, LevelSpec, kind, tuple(levs))
    shape = (len(times), len(levs), len(lats), len(lons))
    t_i = {t: i for i, t in enumerate(times)}
    la_i = {v: i for i, v in enumerate(lats)}
    lo_i = {v: i for i, v in enumerate(lons)}
    le_i = {v: i for i, v in enumerate(levs)}
    values = np.empty(shape + (3,))
    filled = np.zeros(shape, dtype=bool)
    for ts, la, lo, lev, u, v, w in zip(*cols):
        cell = t_i[ts], le_i[lev], la_i[la], lo_i[lo]
        values[cell] = (u, v, w)
        filled[cell] = True
    n_rows = len(cols[0])
    check_no_repeats(path, "baseline", n_rows, int(filled.sum()), zip(*cols[:4]))
    if n_rows != filled.size:
        raise DataError(f"{path}: baseline grid incomplete: {n_rows} rows for shape {shape}")
    return _build(path, GriddedBaseline, np.array(times, dtype=np.int64), levels,
                  np.array(lats), np.array(lons), values)


# --------------------------------------------------------------- binary ----


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0:
            raise DataError(f"negative length {n} in binary file")
        if self.pos + n > len(self.data):
            raise DataError("binary file truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def count(self) -> int:
        n = self.unpack("<q")[0]
        if n < 0:
            raise DataError(f"negative count {n} in binary file")
        return n

    def f64_array(self, shape) -> np.ndarray:
        arr = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        return arr.astype(np.float64, copy=True)

    def bool_array(self, shape) -> np.ndarray:
        return np.frombuffer(self.take(math.prod(shape)), dtype=np.uint8).reshape(shape).astype(bool)


def _put_f64(buf, arr) -> None:
    buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _decode(data: bytes, magic: bytes, what: str, body):
    """The one binary decode entry: check the magic, then run body on a
    cursor past it. A malformed field (a bad count or level-kind byte, bytes
    that are not UTF-8, a bad JSON manifest) becomes a DataError, and so do
    bytes left over after the body."""
    cur = _Cursor(data)
    if cur.take(8) != magic:
        raise DataError(f"not a {what} file")
    try:
        out = body(cur)
    except _MALFORMED as e:
        raise DataError(f"malformed {what} file ({e})") from e
    if cur.pos != len(data):
        raise DataError(f"malformed {what} file ({len(data) - cur.pos} trailing bytes)")
    return out


def _to_bytes(obj) -> bytes:
    """Magic and time header of a panel, cube or series, then the body they
    share: levels when present, stations, float64 values, uint8 mask."""
    buf = io.BytesIO()
    buf.write(_MAGIC[type(obj)])
    if isinstance(obj, WindSeries):
        buf.write(struct.pack("<q", len(obj.times)))
        buf.write(np.ascontiguousarray(obj.times, dtype="<i8").tobytes())
    else:
        buf.write(struct.pack("<qqq", obj.axis.start, obj.axis.step, obj.axis.count))
    if not isinstance(obj, ZtdPanel):
        buf.write(struct.pack("<q", len(obj.levels)))
        buf.write(bytes([LEVEL_KINDS.index(obj.levels.kind)]))
        _put_f64(buf, np.array(obj.levels.values))
    buf.write(struct.pack("<q", len(obj.stations)))
    for sid, la, lo in obj.stations.entries:
        raw = sid.encode("utf-8")
        buf.write(struct.pack("<H", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<dd", la, lo))
    _put_f64(buf, obj.values)
    buf.write(np.ascontiguousarray(obj.mask, dtype=np.uint8).tobytes())
    return buf.getvalue()


def _from_bytes(data: bytes, kind):
    """Inverse of :func:`_to_bytes` for the class ``kind``."""

    def body(cur: _Cursor):
        if kind is WindSeries:
            n_t = cur.count()
            parts = [np.frombuffer(cur.take(8 * n_t), dtype="<i8").astype(np.int64)]
        else:
            axis = TimeAxis(*cur.unpack("<qqq"))
            n_t, parts = axis.count, [axis]
        if kind is not ZtdPanel:
            n_lev, kind_byte = cur.count(), cur.unpack("<B")[0]
            if kind_byte >= len(LEVEL_KINDS):
                raise ValueError(f"level kind byte {kind_byte} not in [0, {len(LEVEL_KINDS) - 1}]")
            parts.append(LevelSpec(LEVEL_KINDS[kind_byte], tuple(cur.f64_array((n_lev,)))))
        entries = []
        for _ in range(cur.count()):
            sid = cur.take(cur.unpack("<H")[0]).decode("utf-8")
            entries.append((sid, *cur.unpack("<dd")))
        stations = StationTable.from_entries(entries)
        shape = (n_t, len(stations)) if kind is ZtdPanel else (n_t, len(parts[1]), len(stations), 3)
        return kind(*parts, stations, cur.f64_array(shape), cur.bool_array(shape))

    return _decode(data, _MAGIC[kind], _WHAT[kind], body)


def _write_bytes(path, data: bytes) -> None:
    with open(path, "wb") as f:
        f.write(data)


def _read_decoded(path, decode):
    """decode(the bytes of the file at path), its DataError naming the file."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return decode(data)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


# a panel, cube and series share one encoder
panel_to_bytes = cube_to_bytes = series_to_bytes = _to_bytes


def panel_from_bytes(data: bytes) -> ZtdPanel:
    return _from_bytes(data, ZtdPanel)


def cube_from_bytes(data: bytes) -> WindCube:
    return _from_bytes(data, WindCube)


def series_from_bytes(data: bytes) -> WindSeries:
    return _from_bytes(data, WindSeries)


def write_panel(path, panel: ZtdPanel) -> None:
    _write_bytes(path, _to_bytes(panel))


def read_panel(path) -> ZtdPanel:
    return _read_decoded(path, panel_from_bytes)


def write_cube(path, cube: WindCube) -> None:
    _write_bytes(path, _to_bytes(cube))


def read_cube(path) -> WindCube:
    return _read_decoded(path, cube_from_bytes)


def write_series(path, series: WindSeries) -> None:
    _write_bytes(path, _to_bytes(series))


def read_series(path) -> WindSeries:
    return _read_decoded(path, series_from_bytes)


# --------------------------------------------- named-array container ----


def named_arrays_to_bytes(arrays: dict, extra: dict | None = None) -> bytes:
    """Serialize an ordered name->float64-array mapping plus JSON metadata."""
    manifest = {
        "arrays": [
            {"name": str(name), "shape": list(np.asarray(arr).shape)}
            for name, arr in arrays.items()
        ],
        "extra": extra or {},
    }
    raw = canonical_json(manifest).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_ARRAYS_MAGIC)
    buf.write(struct.pack("<Q", len(raw)))
    buf.write(raw)
    for arr in arrays.values():
        _put_f64(buf, np.asarray(arr, dtype=np.float64))
    return buf.getvalue()


def named_arrays_from_bytes(data: bytes):
    """Inverse of :func:`named_arrays_to_bytes`; returns (arrays, extra)."""

    def body(cur: _Cursor):
        manifest = json.loads(cur.take(cur.unpack("<Q")[0]).decode("utf-8"))
        arrays = {e["name"]: cur.f64_array(tuple(e["shape"])) for e in manifest["arrays"]}
        return arrays, manifest.get("extra", {})

    return _decode(data, _ARRAYS_MAGIC, "named-array container", body)


def write_named_arrays(path, arrays: dict, extra: dict | None = None) -> None:
    _write_bytes(path, named_arrays_to_bytes(arrays, extra))


def read_named_arrays(path):
    return _read_decoded(path, named_arrays_from_bytes)
