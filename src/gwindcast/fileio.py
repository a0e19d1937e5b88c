"""On-disk formats.

Text formats (CSV, UTF-8, comma separated, one header row):

* stations: ``station_id,lat,lon``
* zenith delays: ``timestamp,station_id,ztd_m`` with ISO-8601 UTC timestamps;
  missing observations are simply absent rows
* wind: ``timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms``
  preceded by a metadata line ``# level_kind=height_m|pressure_hPa``

Binary formats are little-endian, row-major float64, and round-trip
bit-exactly (NaN payloads included). Each starts with an 8-byte magic:

* ``GWCPANL1`` delay panel   * ``GWCCUBE1`` wind cube
* ``GWCSERS1`` wind series   * ``GWCNARR1`` named-array container

The named-array container is a JSON manifest (array names, shapes, free-form
``extra`` metadata) followed by the concatenated float64 payloads in manifest
order; model checkpoints use it with the model configuration in ``extra``.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct

import numpy as np

from .core import (
    HEIGHT_M,
    LEVEL_KINDS,
    LevelSpec,
    StationTable,
    TimeAxis,
    WindCube,
    WindSeries,
    ZtdPanel,
    format_iso8601,
    parse_iso8601,
)
from .errors import DataError

_PANEL_MAGIC = b"GWCPANL1"
_CUBE_MAGIC = b"GWCCUBE1"
_SERIES_MAGIC = b"GWCSERS1"
_ARRAYS_MAGIC = b"GWCNARR1"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def sha256_of_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_of_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(x) -> str:
    return repr(float(x))


# ------------------------------------------------------------------ CSV ----


def malformed_row(path, lineno: int, exc: ValueError) -> DataError:
    """The error for a CSV row with a bad number, timestamp or field count."""
    return DataError(f"{path}, line {lineno}: malformed row ({exc})")


def read_level_kind(f, what: str, default: str):
    """Read the optional ``# level_kind=...`` line and the header line.

    Returns (level kind, header, line number of the first data row)."""
    line = f.readline().strip()
    if not line.startswith("#"):
        return default, line, 2
    key, _, val = line.lstrip("# ").partition("=")
    if key.strip() != "level_kind" or val.strip() not in LEVEL_KINDS:
        raise DataError(f"unexpected {what} metadata line: {line!r}")
    return val.strip(), f.readline().strip(), 3


def _row_axis(path, rows, step: int) -> TimeAxis:
    """The grid through the rows' timestamps (first field): its step is the
    smallest positive gap between them, ``step`` when there is one time."""
    times = sorted({r[0] for r in rows})
    if len(times) > 1:
        step = min(b - a for a, b in zip(times, times[1:]))
    if any((t - times[0]) % step for t in times):
        raise DataError(f"{path}: timestamps do not sit on one {step}s grid")
    return TimeAxis(times[0], step, (times[-1] - times[0]) // step + 1)


def write_station_csv(path, table: StationTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("station_id,lat,lon\n")
        for sid, la, lo in table.entries:
            f.write(f"{sid},{_fmt(la)},{_fmt(lo)}\n")


def read_station_csv(path) -> StationTable:
    entries = []
    with open(path, "r", encoding="utf-8") as f:
        lineno = 1  # the header; text decodes in chunks, so it can fail here
        try:
            header = f.readline().strip()
            if header != "station_id,lat,lon":
                raise DataError(f"unexpected station file header: {header!r}")
            for lineno, line in enumerate(f, 2):
                line = line.strip()
                if not line:
                    continue
                sid, la, lo = line.split(",")
                entries.append((sid, float(la), float(lo)))
        except ValueError as e:
            raise malformed_row(path, lineno, e) from e
    return StationTable.from_entries(entries)


def write_ztd_csv(path, panel: ZtdPanel) -> None:
    times = panel.axis.timestamps()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("timestamp,station_id,ztd_m\n")
        for k in range(panel.axis.count):
            iso = format_iso8601(times[k])
            for s, sid in enumerate(panel.stations.ids):
                if panel.mask[k, s]:
                    f.write(f"{iso},{sid},{_fmt(panel.values[k, s])}\n")


def read_ztd_csv(path, stations: StationTable, step: int = 300) -> ZtdPanel:
    """Read delay rows onto the grid implied by the timestamps present.

    The grid step is the smallest positive gap between distinct timestamps
    (``step`` when only one timestamp is present); every timestamp must sit
    on that grid. Stations not in ``stations`` are rejected.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        lineno = 1  # the header; text decodes in chunks, so it can fail here
        try:
            header = f.readline().strip()
            if header != "timestamp,station_id,ztd_m":
                raise DataError(f"unexpected delay file header: {header!r}")
            for lineno, line in enumerate(f, 2):
                line = line.strip()
                if not line:
                    continue
                ts, sid, val = line.split(",")
                rows.append((parse_iso8601(ts), sid, float(val)))
        except ValueError as e:
            raise malformed_row(path, lineno, e) from e
    if not rows:
        raise DataError("delay file contains no data rows")
    axis = _row_axis(path, rows, step)
    col = {sid: i for i, sid in enumerate(stations.ids)}
    values = np.full((axis.count, len(stations)), np.nan)
    mask = np.zeros_like(values, dtype=bool)
    for ts, sid, val in rows:
        if sid not in col:
            raise DataError(f"unknown station id in delay file: {sid!r}")
        k = axis.index_of(ts)
        values[k, col[sid]] = val
        mask[k, col[sid]] = True
    return ZtdPanel(axis, stations, values, mask)


def write_wind_csv(path, cube: WindCube) -> None:
    # local import: preprocess depends on core only, so no cycle at import time
    from .preprocess import compose_wind

    speed, direction = compose_wind(cube.values[..., 0], cube.values[..., 1])
    times = cube.axis.timestamps()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# level_kind={cube.levels.kind}\n")
        f.write("timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n")
        for k in range(cube.axis.count):
            iso = format_iso8601(times[k])
            for l, lev in enumerate(cube.levels.values):
                for s, sid in enumerate(cube.stations.ids):
                    if cube.mask[k, l, s].all():
                        f.write(
                            f"{iso},{sid},{_fmt(lev)},{_fmt(speed[k, l, s])},"
                            f"{_fmt(direction[k, l, s])},{_fmt(cube.values[k, l, s, 2])}\n"
                        )


def read_wind_csv(path, stations: StationTable, step: int = 300) -> WindCube:
    from .preprocess import decompose_wind

    rows = []
    with open(path, "r", encoding="utf-8") as f:
        lineno = 1  # the header; text decodes in chunks, so it can fail here
        try:
            kind, line, lineno = read_level_kind(f, "wind", HEIGHT_M)
            if line != "timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms":
                raise DataError(f"unexpected wind file header: {line!r}")
            for lineno, line in enumerate(f, lineno):
                line = line.strip()
                if not line:
                    continue
                ts, sid, lev, spd, drc, w = line.split(",")
                rows.append((parse_iso8601(ts), sid, float(lev), float(spd), float(drc), float(w)))
        except ValueError as e:
            raise malformed_row(path, lineno, e) from e
    if not rows:
        raise DataError("wind file contains no data rows")
    axis = _row_axis(path, rows, step)
    lev_values = sorted({r[2] for r in rows}, reverse=(kind != HEIGHT_M))
    levels = LevelSpec(kind, tuple(lev_values))
    lev_idx = {v: i for i, v in enumerate(levels.values)}
    col = {sid: i for i, sid in enumerate(stations.ids)}
    values = np.full((axis.count, len(levels), len(stations), 3), np.nan)
    mask = np.zeros(values.shape, dtype=bool)
    for ts, sid, lev, spd, drc, w in rows:
        if sid not in col:
            raise DataError(f"unknown station id in wind file: {sid!r}")
        u, v = decompose_wind(spd, drc)
        k, l, s = axis.index_of(ts), lev_idx[lev], col[sid]
        values[k, l, s] = (u, v, w)
        mask[k, l, s] = True
    return WindCube(axis, levels, stations, values, mask)


# --------------------------------------------------------------- binary ----


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DataError("binary file truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def f64_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(self.take(8 * n), dtype="<f8").reshape(shape)
        return arr.astype(np.float64, copy=True)

    def bool_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        return np.frombuffer(self.take(n), dtype=np.uint8).reshape(shape).astype(bool)

    def string(self) -> str:
        n = struct.unpack("<H", self.take(2))[0]
        return self.take(n).decode("utf-8")


def _put_string(buf, text: str) -> None:
    raw = text.encode("utf-8")
    buf.write(struct.pack("<H", len(raw)))
    buf.write(raw)


def _put_f64(buf, arr) -> None:
    buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _put_stations(buf, table: StationTable) -> None:
    buf.write(struct.pack("<q", len(table)))
    for sid, la, lo in table.entries:
        _put_string(buf, sid)
        buf.write(struct.pack("<dd", la, lo))


def _take_stations(cur: _Cursor) -> StationTable:
    n = cur.i64()
    entries = []
    for _ in range(n):
        sid = cur.string()
        la, lo = struct.unpack("<dd", cur.take(16))
        entries.append((sid, la, lo))
    return StationTable.from_entries(entries)


def _put_levels(buf, levels: LevelSpec) -> None:
    buf.write(struct.pack("<q", len(levels)))
    buf.write(bytes([LEVEL_KINDS.index(levels.kind)]))
    _put_f64(buf, np.array(levels.values))


def _take_levels(cur: _Cursor) -> LevelSpec:
    n = cur.i64()
    kind = LEVEL_KINDS[cur.u8()]
    return LevelSpec(kind, tuple(cur.f64_array((n,))))


def panel_to_bytes(panel: ZtdPanel) -> bytes:
    buf = io.BytesIO()
    buf.write(_PANEL_MAGIC)
    buf.write(struct.pack("<qqq", panel.axis.start, panel.axis.step, panel.axis.count))
    _put_stations(buf, panel.stations)
    _put_f64(buf, panel.values)
    buf.write(np.ascontiguousarray(panel.mask, dtype=np.uint8).tobytes())
    return buf.getvalue()


def panel_from_bytes(data: bytes) -> ZtdPanel:
    cur = _Cursor(data)
    if cur.take(8) != _PANEL_MAGIC:
        raise DataError("not a delay panel file")
    start, step, count = (cur.i64() for _ in range(3))
    stations = _take_stations(cur)
    shape = (count, len(stations))
    values = cur.f64_array(shape)
    mask = cur.bool_array(shape)
    return ZtdPanel(TimeAxis(start, step, count), stations, values, mask)


def cube_to_bytes(cube: WindCube) -> bytes:
    buf = io.BytesIO()
    buf.write(_CUBE_MAGIC)
    buf.write(struct.pack("<qqq", cube.axis.start, cube.axis.step, cube.axis.count))
    _put_levels(buf, cube.levels)
    _put_stations(buf, cube.stations)
    _put_f64(buf, cube.values)
    buf.write(np.ascontiguousarray(cube.mask, dtype=np.uint8).tobytes())
    return buf.getvalue()


def cube_from_bytes(data: bytes) -> WindCube:
    cur = _Cursor(data)
    if cur.take(8) != _CUBE_MAGIC:
        raise DataError("not a wind cube file")
    start, step, count = (cur.i64() for _ in range(3))
    levels = _take_levels(cur)
    stations = _take_stations(cur)
    shape = (count, len(levels), len(stations), 3)
    values = cur.f64_array(shape)
    mask = cur.bool_array(shape)
    return WindCube(TimeAxis(start, step, count), levels, stations, values, mask)


def series_to_bytes(series: WindSeries) -> bytes:
    buf = io.BytesIO()
    buf.write(_SERIES_MAGIC)
    buf.write(struct.pack("<q", len(series.times)))
    buf.write(np.ascontiguousarray(series.times, dtype="<i8").tobytes())
    _put_levels(buf, series.levels)
    _put_stations(buf, series.stations)
    _put_f64(buf, series.values)
    buf.write(np.ascontiguousarray(series.mask, dtype=np.uint8).tobytes())
    return buf.getvalue()


def series_from_bytes(data: bytes) -> WindSeries:
    cur = _Cursor(data)
    if cur.take(8) != _SERIES_MAGIC:
        raise DataError("not a wind series file")
    n_t = cur.i64()
    times = np.frombuffer(cur.take(8 * n_t), dtype="<i8").astype(np.int64)
    levels = _take_levels(cur)
    stations = _take_stations(cur)
    shape = (n_t, len(levels), len(stations), 3)
    values = cur.f64_array(shape)
    mask = cur.bool_array(shape)
    return WindSeries(times, levels, stations, values, mask)


def write_panel(path, panel: ZtdPanel) -> None:
    with open(path, "wb") as f:
        f.write(panel_to_bytes(panel))


def read_panel(path) -> ZtdPanel:
    with open(path, "rb") as f:
        return panel_from_bytes(f.read())


def write_cube(path, cube: WindCube) -> None:
    with open(path, "wb") as f:
        f.write(cube_to_bytes(cube))


def read_cube(path) -> WindCube:
    with open(path, "rb") as f:
        return cube_from_bytes(f.read())


def write_series(path, series: WindSeries) -> None:
    with open(path, "wb") as f:
        f.write(series_to_bytes(series))


def read_series(path) -> WindSeries:
    with open(path, "rb") as f:
        return series_from_bytes(f.read())


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
    cur = _Cursor(data)
    if cur.take(8) != _ARRAYS_MAGIC:
        raise DataError("not a named-array container")
    n = struct.unpack("<Q", cur.take(8))[0]
    manifest = json.loads(cur.take(n).decode("utf-8"))
    arrays = {}
    for entry in manifest["arrays"]:
        arrays[entry["name"]] = cur.f64_array(tuple(entry["shape"]))
    return arrays, manifest.get("extra", {})


def write_named_arrays(path, arrays: dict, extra: dict | None = None) -> None:
    with open(path, "wb") as f:
        f.write(named_arrays_to_bytes(arrays, extra))


def read_named_arrays(path):
    with open(path, "rb") as f:
        return named_arrays_from_bytes(f.read())
