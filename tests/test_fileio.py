import json
import struct

import numpy as np
import pytest

from gwindcast import cli, fileio
from gwindcast.core import (
    HEIGHT_M,
    PRESSURE_HPA,
    LevelSpec,
    StationTable,
    TimeAxis,
    WindCube,
    WindSeries,
    ZtdPanel,
    parse_iso8601,
)
from gwindcast.errors import DataError, NegativeSpeed
from gwindcast.fileio import (
    canonical_json,
    cube_from_bytes,
    cube_to_bytes,
    named_arrays_from_bytes,
    named_arrays_to_bytes,
    panel_from_bytes,
    panel_to_bytes,
    read_cube,
    read_named_arrays,
    read_panel,
    read_series,
    read_station_csv,
    read_wind_csv,
    read_ztd_csv,
    series_from_bytes,
    series_to_bytes,
    write_cube,
    write_named_arrays,
    write_panel,
    write_series,
    write_station_csv,
    write_wind_csv,
    write_ztd_csv,
)


def stations(n=3, prefix="Z"):
    return StationTable(
        ids=tuple(f"{prefix}{i:03d}" for i in range(n)),
        lats=29.0 + 0.05 * np.arange(n),
        lons=120.0 + 0.05 * np.arange(n),
    )


def sample_panel(seed=0, n_t=7, n_s=3, with_gaps=True):
    rng = np.random.default_rng(seed)
    values = 2.4 + 0.01 * rng.normal(size=(n_t, n_s))
    mask = np.ones(values.shape, dtype=bool)
    if with_gaps:
        mask[2, 1] = False
        mask[5, 0] = False
        values = np.where(mask, values, np.nan)
    return ZtdPanel(TimeAxis(1746595800, 300, n_t), stations(n_s), values, mask)


def sample_cube(seed=1, n_t=6, n_l=2, n_s=2):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=3.0, size=(n_t, n_l, n_s, 3))
    mask = np.ones(values.shape, dtype=bool)
    return WindCube(
        TimeAxis(1746595800, 300, n_t),
        LevelSpec(HEIGHT_M, (110.0, 1870.0)),
        stations(n_s, "W"),
        values,
        mask,
    )


def sample_series(seed=2, n_t=5):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_t, 2, 2, 3))
    return WindSeries(
        times=1746595800 + 300 * np.arange(n_t, dtype=np.int64),
        levels=LevelSpec(PRESSURE_HPA, (1000.0, 850.0)),
        stations=stations(2, "W"),
        values=values,
        mask=np.ones(values.shape, dtype=bool),
    )


# ---------------------------------------------------------------- CSV ------


def test_station_csv_round_trip(tmp_path):
    table = stations(5)
    path = tmp_path / "stations.csv"
    write_station_csv(path, table)
    loaded = read_station_csv(path)
    assert loaded.ids == table.ids
    np.testing.assert_array_equal(loaded.lats, table.lats)
    np.testing.assert_array_equal(loaded.lons, table.lons)
    assert path.read_text().splitlines()[0] == "station_id,lat,lon"


def test_station_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,latitude,longitude\nA,1,2\n")
    with pytest.raises(DataError):
        read_station_csv(path)
    # a missing field or a bad number names the file and line
    for row in ("A,1", "A,north,2"):
        path.write_text(f"station_id,lat,lon\nB,3,4\n{row}\n")
        with pytest.raises(DataError, match=r"bad\.csv, line 3"):
            read_station_csv(path)


def test_ztd_csv_round_trip_preserves_grid_and_gaps(tmp_path):
    panel = sample_panel()
    path = tmp_path / "ztd.csv"
    write_ztd_csv(path, panel)
    loaded = read_ztd_csv(path, panel.stations)
    assert loaded.axis == panel.axis
    np.testing.assert_array_equal(loaded.mask, panel.mask)
    np.testing.assert_array_equal(
        loaded.values[loaded.mask], panel.values[panel.mask]
    )
    assert np.isnan(loaded.values[~loaded.mask]).all()


def test_ztd_csv_missing_rows_are_absent(tmp_path):
    panel = sample_panel()
    path = tmp_path / "ztd.csv"
    write_ztd_csv(path, panel)
    n_rows = len(path.read_text().splitlines()) - 1
    assert n_rows == int(panel.mask.sum())


def test_ztd_csv_with_one_timestamp_reads_onto_one_row(tmp_path):
    path = tmp_path / "ztd.csv"
    path.write_text("timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z001,2.4\n")
    panel = read_ztd_csv(path, stations(2))
    assert panel.axis == TimeAxis(parse_iso8601("2025-05-07T05:30:00Z"), 300, 1)
    assert panel.mask.tolist() == [[False, True]]
    assert panel.values[0, 1] == 2.4


def test_csv_grid_longer_than_the_bound_is_a_data_error(tmp_path, monkeypatch):
    # two rows one second apart set a 1 s step; a third 10**9 s later would
    # need a grid of 10**9 rows, which is refused before anything is allocated
    path = tmp_path / "ztd.csv"
    path.write_text("timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z000,2.4\n"
                    "2025-05-07T05:30:01Z,Z000,2.4\n2057-01-13T07:16:40Z,Z001,2.5\n")
    with pytest.raises(DataError, match=r"ztd\.csv: timestamps span 1000000001 steps of 1s"):
        read_ztd_csv(path, stations(2))
    wind = tmp_path / "wind.csv"
    wind.write_text("timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n"
                    "2025-05-07T05:30:00Z,W000,110.0,3.0,90.0,0.1\n"
                    "2025-05-07T05:30:01Z,W000,110.0,3.0,90.0,0.1\n"
                    "2057-01-13T07:16:40Z,W000,110.0,3.0,90.0,0.1\n")
    with pytest.raises(DataError, match=r"wind\.csv: timestamps span 1000000001 steps"):
        read_wind_csv(wind, stations(1, "W"))
    # the bound itself is allowed
    monkeypatch.setattr(fileio, "MAX_GRID_STEPS", 3)
    path.write_text("timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z000,2.4\n"
                    "2025-05-07T05:35:00Z,Z000,2.4\n2025-05-07T05:40:00Z,Z001,2.5\n")
    assert read_ztd_csv(path, stations(2)).axis.count == 3
    path.write_text("timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z000,2.4\n"
                    "2025-05-07T05:35:00Z,Z000,2.4\n2025-05-07T05:45:00Z,Z001,2.5\n")
    with pytest.raises(DataError, match=r"span 4 steps of 300s, more than the 3"):
        read_ztd_csv(path, stations(2))


def test_ztd_csv_rejects_unknown_station(tmp_path):
    path = tmp_path / "ztd.csv"
    path.write_text(
        "timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,NOPE,2.4\n"
    )
    with pytest.raises(DataError):
        read_ztd_csv(path, stations(2))
    # a second row for one timestamp and station would overwrite the first
    path.write_text("timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z000,2.4\n"
                    "2025-05-07T05:35:00Z,Z001,2.5\n2025-05-07T05:30:00Z,Z000,9.9\n")
    with pytest.raises(DataError, match=r"ztd\.csv: repeated delay row for 2025-05-07T05:30:00Z,Z000"):
        read_ztd_csv(path, stations(2))
    # the error names the first unknown station in row order, not in sort order
    path.write_text("timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z000,2.4\n"
                    "2025-05-07T05:35:00Z,ZZZ9,2.5\n2025-05-07T05:30:00Z,AAA1,2.6\n")
    with pytest.raises(DataError, match=r"ztd\.csv: unknown station id in delay file: 'ZZZ9'"):
        read_ztd_csv(path, stations(2))


def _rewrite_rows(path, order):
    """Rewrite a delay or wind CSV file with its data rows in ``order(rows)``."""
    lines = path.read_text().splitlines(keepends=True)
    head = 2 if lines[0].startswith("#") else 1
    path.write_text("".join(lines[:head] + order(lines[head:])))


_ROW_ORDERS = {
    "station-major": lambda rows: sorted(rows, key=lambda r: r.split(",")[1]),
    "reversed": lambda rows: rows[::-1],
}


@pytest.mark.parametrize("order", sorted(_ROW_ORDERS))
def test_csv_rows_in_any_order_read_to_the_same_arrays(tmp_path, order):
    panel = sample_panel()
    cube = sample_cube(n_t=9)
    mask = np.array(cube.mask)
    mask[[1, 4], 0, 1] = False
    mask[7, 1, 0] = False
    cube = WindCube(cube.axis, cube.levels, cube.stations, cube.values, mask)
    for write, read, to_bytes, obj in ((write_ztd_csv, read_ztd_csv, panel_to_bytes, panel),
                                       (write_wind_csv, read_wind_csv, cube_to_bytes, cube)):
        time_major = tmp_path / "time_major.csv"
        write(time_major, obj)
        reordered = tmp_path / f"{order}.csv"
        write(reordered, obj)
        _rewrite_rows(reordered, _ROW_ORDERS[order])
        assert reordered.read_text() != time_major.read_text()
        want, got = read(time_major, obj.stations), read(reordered, obj.stations)
        assert got.axis == want.axis
        assert to_bytes(got) == to_bytes(want)


def test_one_instant_in_two_spellings_lands_on_one_grid_row(tmp_path):
    path = tmp_path / "ztd.csv"
    path.write_text("timestamp,station_id,ztd_m\n"
                    "2025-05-07T05:30:00Z,Z000,2.4\n2025-05-07T05:30:00+00:00,Z001,2.5\n"
                    "2025-05-07T05:35:00+00:00,Z000,2.6\n2025-05-07T05:35:00Z,Z001,2.7\n")
    panel = read_ztd_csv(path, stations(2))
    assert panel.axis == TimeAxis(1746595800, 300, 2)
    np.testing.assert_array_equal(panel.values, [[2.4, 2.5], [2.6, 2.7]])
    assert panel.mask.all()


def test_ztd_csv_rejects_empty_and_bad_header(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp,station_id,ztd_m\n")
    with pytest.raises(DataError):
        read_ztd_csv(empty, stations(2))
    bad = tmp_path / "bad.csv"
    bad.write_text("time,id,val\n")
    with pytest.raises(DataError):
        read_ztd_csv(bad, stations(2))
    # bad number, bad timestamp, wrong field count: file and line named
    for row in ("2025-05-07T05:30:00Z,Z0001,abc", "2025-05-07T25:30:00Z,Z0001,2.4",
                "2025-05-07T05:30:00Z,Z0001", "2025-05-07T05:30:00Z,Z0001,2.4,7"):
        bad.write_text(f"timestamp,station_id,ztd_m\n\n{row}\n")
        with pytest.raises(DataError, match=r"bad\.csv, line 3"):
            read_ztd_csv(bad, stations(2))
    # a byte that is not UTF-8
    bad.write_bytes(b"timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z\xff,2.4\n")
    with pytest.raises(DataError, match=r"bad\.csv, line"):
        read_ztd_csv(bad, stations(2))
    # a timestamp off the grid the others set
    bad.write_text("timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z0000,2.4\n"
                   "2025-05-07T05:35:00Z,Z0000,2.4\n2025-05-07T05:37:00Z,Z0000,2.4\n")
    with pytest.raises(DataError, match="grid"):
        read_ztd_csv(bad, stations(2))


def test_wind_csv_round_trip_through_speed_direction(tmp_path):
    cube = sample_cube()
    path = tmp_path / "wind.csv"
    write_wind_csv(path, cube)
    first = path.read_text().splitlines()[0]
    assert first == "# level_kind=height_m"
    loaded = read_wind_csv(path, cube.stations)
    assert loaded.axis == cube.axis
    assert loaded.levels == cube.levels
    # u,v pass through speed/direction text and back; repr round-trips
    # floats, but the trig composition costs a few ulps
    np.testing.assert_allclose(loaded.values, cube.values, atol=1e-9)
    assert loaded.mask.all()


def test_wind_csv_pressure_kind_round_trip(tmp_path):
    cube = sample_cube()
    pressure = WindCube(
        cube.axis,
        LevelSpec(PRESSURE_HPA, (1000.0, 850.0)),
        cube.stations,
        np.array(cube.values),
        np.array(cube.mask),
    )
    path = tmp_path / "wind.csv"
    write_wind_csv(path, pressure)
    loaded = read_wind_csv(path, cube.stations)
    assert loaded.levels.kind == PRESSURE_HPA
    assert loaded.levels.values == (1000.0, 850.0)  # descending for pressure


def test_wind_csv_rejects_bad_metadata(tmp_path):
    path = tmp_path / "wind.csv"
    path.write_text("# level_kind=fathoms\ntimestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n")
    with pytest.raises(DataError):
        read_wind_csv(path, stations(1, "W"))
    # a bad row is named by file and line, counting the metadata line
    path.write_text("# level_kind=height_m\ntimestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n"
                    "2025-05-07T05:30:00Z,W0000,110.0,3.0,calm,0.1\n")
    with pytest.raises(DataError, match=r"wind\.csv, line 3"):
        read_wind_csv(path, stations(1, "W"))
    # a second row for one timestamp, station and level
    path.write_text("# level_kind=height_m\ntimestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n"
                    "2025-05-07T05:30:00Z,W000,110.0,3.0,90.0,0.1\n"
                    "2025-05-07T05:30:00Z,W000,220.0,3.0,90.0,0.1\n"
                    "2025-05-07T05:30:00Z,W000,110.0,9.0,180.0,0.2\n")
    with pytest.raises(DataError, match=r"wind\.csv: repeated wind row for "
                                        r"2025-05-07T05:30:00Z,W000,110\.0"):
        read_wind_csv(path, stations(1, "W"))
    # a negative speed names the file and the first such row; an unknown
    # station in an earlier row is reported first
    head = "# level_kind=height_m\ntimestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n"
    rows = ["2025-05-07T05:30:00Z,W000,110.0,3.0,90.0,0.1\n",
            "2025-05-07T05:35:00Z,W000,220.0,-0.5,90.0,0.1\n",
            "2025-05-07T05:40:00Z,W000,110.0,-2.0,90.0,0.1\n"]
    path.write_text(head + "".join(rows))
    with pytest.raises(NegativeSpeed, match=r"wind\.csv: negative wind speed -0\.5 at "
                                           r"2025-05-07T05:35:00Z, station W000, level 220\.0"):
        read_wind_csv(path, stations(1, "W"))
    path.write_text(head + "2025-05-07T05:30:00Z,NOPE,110.0,3.0,90.0,0.1\n" + "".join(rows))
    with pytest.raises(DataError, match=r"wind\.csv: unknown station id in wind file: 'NOPE'"):
        read_wind_csv(path, stations(1, "W"))


# ------------------------------------------------------------- binary ------


@pytest.mark.parametrize("case", ["panel", "cube", "series"])
def test_binary_round_trips_bit_exactly(tmp_path, case):
    if case == "panel":
        obj = sample_panel()
        to_bytes, from_bytes = panel_to_bytes, panel_from_bytes
        write, read = write_panel, read_panel
    elif case == "cube":
        obj = sample_cube()
        to_bytes, from_bytes = cube_to_bytes, cube_from_bytes
        write, read = write_cube, read_cube
    else:
        obj = sample_series()
        to_bytes, from_bytes = series_to_bytes, series_from_bytes
        write, read = write_series, read_series

    blob = to_bytes(obj)
    loaded = from_bytes(blob)
    assert to_bytes(loaded) == blob  # byte-identical re-encode

    path = tmp_path / f"{case}.bin"
    write(path, obj)
    again = read(path)
    assert to_bytes(again) == blob
    np.testing.assert_array_equal(
        np.asarray(loaded.values), np.asarray(obj.values)
    )


def test_binary_preserves_nan_payload_bits():
    panel = sample_panel()
    weird = np.array(panel.values)
    payload = np.frombuffer(np.uint64(0x7FF8000000000123).tobytes(), dtype=np.float64)[0]
    weird[2, 1] = payload
    mask = np.array(panel.mask)
    panel2 = ZtdPanel(panel.axis, panel.stations, weird, mask)
    loaded = panel_from_bytes(panel_to_bytes(panel2))
    assert loaded.values[2, 1] != loaded.values[2, 1]  # still NaN
    assert (
        np.asarray(loaded.values[2, 1]).tobytes()
        == np.asarray(panel2.values[2, 1]).tobytes()
    )


def test_binary_rejects_wrong_magic_and_truncation():
    blob = panel_to_bytes(sample_panel())
    with pytest.raises(DataError):
        cube_from_bytes(blob)
    with pytest.raises(DataError):
        series_from_bytes(blob)
    with pytest.raises(DataError):
        panel_from_bytes(blob[: len(blob) // 2])


def put(blob: bytes, offset: int, data: bytes) -> bytes:
    return blob[:offset] + data + blob[offset + len(data):]


def test_binary_rejects_malformed_fields_and_invalid_content(tmp_path):
    # after the magic: a panel's axis (start, step, count), then its station
    # count, then each station's id length and id; a cube's axis, level count
    # and level-kind byte; a series' time count
    panel = panel_to_bytes(sample_panel())
    cube = cube_to_bytes(sample_cube())
    series = series_to_bytes(sample_series())
    bad = [
        (panel_from_bytes, put(panel, 24, struct.pack("<q", -1)), "malformed"),  # axis count
        (panel_from_bytes, put(panel, 32, struct.pack("<q", -1)), "negative count"),
        (panel_from_bytes, put(panel, 42, b"\xff"), "malformed"),  # station id not UTF-8
        (cube_from_bytes, put(cube, 40, b"\x07"), "malformed"),  # level kind
        (series_from_bytes, put(series, 8, struct.pack("<q", -1)), "negative count"),
        (named_arrays_from_bytes, b"GWCNARR1" + struct.pack("<Q", 5) + b"{oops", "malformed"),
    ]
    raw = b'{"arrays":[{"name":"a","shape":[-1]}],"extra":{}}'
    bad.append((named_arrays_from_bytes, b"GWCNARR1" + struct.pack("<Q", len(raw)) + raw, "negative"))
    raw = b'{"arrays":{"a":[2]},"extra":{}}'
    bad.append((named_arrays_from_bytes, b"GWCNARR1" + struct.pack("<Q", len(raw)) + raw, "malformed"))
    # a byte appended after the last field
    arrays = named_arrays_to_bytes({"a": np.ones(2)})
    for decode, blob in ((panel_from_bytes, panel), (cube_from_bytes, cube),
                         (series_from_bytes, series), (named_arrays_from_bytes, arrays)):
        bad.append((decode, blob + b"\x00", "1 trailing bytes"))
    for decode, blob, message in bad:
        with pytest.raises(DataError, match=message):
            decode(blob)
    # content a container refuses is malformed too; a reader names its file
    path = tmp_path / "inf.gwcp"
    path.write_bytes(_gwc(b"GWCPANL1", [[np.inf, 2.4]]))
    with pytest.raises(DataError, match=r"inf\.gwcp: malformed delay panel file \(non-finite value"):
        read_panel(path)


# ------------------------------------------------- invalid content ------

_CSV_SCENE = {
    "ztd_stations": "station_id,lat,lon\nZ0,29.0,120.0\nZ1,29.1,120.1\n",
    "ztd": "timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z0,2.4\n"
           "2025-05-07T05:35:00Z,Z1,2.5\n",
    "wind_stations": "station_id,lat,lon\nW0,29.0,120.0\n",
    "wind": "# level_kind=height_m\ntimestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n"
            "2025-05-07T05:30:00Z,W0,110.0,3.0,90.0,0.1\n",
}


def _gwc(magic, values, ids=("A", "B"), lats=(29.0, 29.1), lons=(120.0, 120.1),
         kind=0, levels=(110.0,)):
    """A binary panel, cube or series written field by field, every value
    observed, so that its content can break an invariant a container keeps."""
    values = np.asarray(values, dtype="<f8")
    n_t = values.shape[0]
    out = [magic]
    if magic == b"GWCSERS1":
        out += [struct.pack("<q", n_t), (300 * np.arange(n_t)).astype("<i8").tobytes()]
    else:
        out.append(struct.pack("<qqq", 0, 300, n_t))
    if magic != b"GWCPANL1":
        out += [struct.pack("<qB", len(levels), kind), np.array(levels, "<f8").tobytes()]
    out.append(struct.pack("<q", len(ids)))
    for sid, la, lo in zip(ids, lats, lons):
        raw = sid.encode()
        out += [struct.pack("<H", len(raw)), raw, struct.pack("<dd", la, lo)]
    out += [values.tobytes(), np.ones(values.shape, np.uint8).tobytes()]
    return b"".join(out)


_PANEL = np.full((2, 2), 2.4)
_WIND = np.zeros((2, 2, 2, 3))
_NAN_PANEL, _INF_WIND = _PANEL.copy(), _WIND.copy()
_NAN_PANEL[1, 0] = np.nan
_INF_WIND[0, 1, 1, 2] = np.inf

# (file, its content, the error text after the file's name); a CSV file
# replaces one file of a valid files scene read by preprocess, a panel or
# cube one file of a valid binary scene read by preprocess, and a series is
# read by evaluate. No reader can make a values or mask shape that differs
# from the counts it read, so those two invariants have no case here.
_INVALID = {
    "station-duplicate-id": ("ztd_stations", "station_id,lat,lon\nZ0,29.0,120.0\nZ1,29.1,120.1\n"
                             "Z0,29.2,120.2\n", "station_id not unique: 'Z0' at rows 0 and 2"),
    "station-lat": ("ztd_stations", "station_id,lat,lon\nZ0,29.0,120.0\nZ1,95.0,120.1\n",
                    "lat out of [-90, 90] at row 1: 95.0"),
    "station-lon": ("wind_stations", "station_id,lat,lon\nW0,29.0,-181.0\n",
                    "lon out of [-180, 180] at row 0: -181.0"),
    "station-four-problems": ("ztd_stations", "station_id,lat,lon\nZ0,nan,120.0\nZ1,29.1,200.0\n"
                              "Z0,29.2,120.2\nZ1,-91.0,120.3\n",
                              "station_id not unique: 'Z0' at rows 0 and 2"),
    "delay-non-finite": ("ztd", "timestamp,station_id,ztd_m\n2025-05-07T05:30:00Z,Z0,2.4\n"
                         "2025-05-07T05:35:00Z,Z1,nan\n",
                         "non-finite value under observed mask at (1, 1)"),
    "wind-level-kind": ("wind", "# level_kind=sigma\n" + _CSV_SCENE["wind"].split("\n", 1)[1],
                        "unexpected wind metadata line: '# level_kind=sigma'"),
    "wind-level-nan": ("wind", _CSV_SCENE["wind"] + "2025-05-07T05:30:00Z,W0,nan,3.0,90.0,0.1\n"
                       "2025-05-07T05:30:00Z,W0,220.0,3.0,90.0,0.1\n",
                       "level not finite: nan"),
    "wind-non-finite-speed": ("wind", _CSV_SCENE["wind"].replace(",3.0,", ",nan,"),
                              "non-finite value under observed mask at (0, 0, 0, 0)"),
    "wind-non-finite-w": ("wind", _CSV_SCENE["wind"].replace(",0.1\n", ",inf\n"),
                          "non-finite value under observed mask at (0, 0, 0, 2)"),
    "panel-duplicate-id": ("panel.gwcp", _gwc(b"GWCPANL1", _PANEL, ids=("A", "A")),
                           "malformed delay panel file (station_id not unique: 'A' at rows 0 and 1)"),
    "panel-lat": ("panel.gwcp", _gwc(b"GWCPANL1", _PANEL, lats=(29.0, -90.5)),
                  "malformed delay panel file (lat out of [-90, 90] at row 1: -90.5)"),
    "panel-lon": ("panel.gwcp", _gwc(b"GWCPANL1", _PANEL, lons=(180.5, 120.0)),
                  "malformed delay panel file (lon out of [-180, 180] at row 0: 180.5)"),
    "panel-non-finite": ("panel.gwcp", _gwc(b"GWCPANL1", _NAN_PANEL),
                         "malformed delay panel file (non-finite value under observed mask at (1, 0))"),
    "cube-level-kind": ("cube.gwcc", _gwc(b"GWCCUBE1", _WIND, kind=7, levels=(110.0, 220.0)),
                        "malformed wind cube file (level kind byte 7 not in [0, 1])"),
    "cube-level-order": ("cube.gwcc", _gwc(b"GWCCUBE1", _WIND, levels=(220.0, 110.0)),
                         "malformed wind cube file (height levels not strictly ascending)"),
    "cube-non-finite": ("cube.gwcc", _gwc(b"GWCCUBE1", _INF_WIND, levels=(110.0, 220.0)),
                        "malformed wind cube file (non-finite value under observed mask at (0, 1, 1, 2))"),
    "series-duplicate-id": ("pred.gwcs", _gwc(b"GWCSERS1", _WIND, ids=("B", "B"),
                                              levels=(110.0, 220.0)),
                            "malformed wind series file (station_id not unique: 'B' at rows 0 and 1)"),
    "series-lat": ("pred.gwcs", _gwc(b"GWCSERS1", _WIND, lats=(91.0, 0.0), levels=(110.0, 220.0)),
                   "malformed wind series file (lat out of [-90, 90] at row 0: 91.0)"),
    "series-level-kind": ("pred.gwcs", _gwc(b"GWCSERS1", _WIND, kind=2, levels=(110.0, 220.0)),
                          "malformed wind series file (level kind byte 2 not in [0, 1])"),
    "series-level-order": ("pred.gwcs", _gwc(b"GWCSERS1", _WIND, kind=1, levels=(500.0, 850.0)),
                           "malformed wind series file (pressure levels not strictly descending)"),
    "series-non-finite": ("pred.gwcs", _gwc(b"GWCSERS1", _INF_WIND, levels=(110.0, 220.0)),
                          "malformed wind series file (non-finite value under observed mask "
                          "at (0, 1, 1, 2))"),
}


@pytest.mark.parametrize("case", sorted(_INVALID))
def test_every_reader_names_the_file_and_the_violation(tmp_path, capsys, case):
    name, content, text = _INVALID[case]
    out = str(tmp_path / "out")
    if name in _CSV_SCENE:
        files = {key: str(tmp_path / f"{key}.csv") for key in _CSV_SCENE}
        for key, csv in _CSV_SCENE.items():
            with open(files[key], "w", encoding="utf-8") as f:
                f.write(content if key == name else csv)
        bad = files[name]
        argv = ["preprocess", "--set", "data=" + json.dumps({"kind": "files", **files}),
                "--out", out]
    else:
        write_panel(tmp_path / "panel.gwcp", sample_panel())
        write_cube(tmp_path / "cube.gwcc", sample_cube())
        bad = str(tmp_path / name)
        with open(bad, "wb") as f:
            f.write(content)
        argv = (["preprocess", "--data", str(tmp_path), "--out", out] if name != "pred.gwcs"
                else ["evaluate", "--pred", bad, "--truth", bad, "--out", out])
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: {bad}: {text}\n"


def test_named_arrays_round_trip_and_order():
    arrays = {
        "b_second": np.arange(6, dtype=np.float64).reshape(2, 3),
        "a_first": np.array(3.5),
        "c_third": np.zeros((2, 1, 2)),
    }
    extra = {"kind": "test", "note": {"nested": [1, 2]}}
    blob = named_arrays_to_bytes(arrays, extra)
    loaded, got_extra = named_arrays_from_bytes(blob)
    assert list(loaded) == list(arrays)  # insertion order preserved
    assert got_extra == extra
    for k in arrays:
        np.testing.assert_array_equal(loaded[k], np.asarray(arrays[k], dtype=np.float64))
        assert loaded[k].shape == np.asarray(arrays[k]).shape
    assert named_arrays_to_bytes(loaded, got_extra) == blob


def test_named_arrays_file_round_trip(tmp_path):
    path = tmp_path / "arrays.bin"
    arrays = {"w": np.random.default_rng(0).normal(size=(4, 4))}
    write_named_arrays(path, arrays, extra={"v": 1})
    loaded, extra = read_named_arrays(path)
    np.testing.assert_array_equal(loaded["w"], arrays["w"])
    assert extra == {"v": 1}


def test_named_arrays_rejects_wrong_magic():
    with pytest.raises(DataError):
        named_arrays_from_bytes(b"NOTMAGIC" + b"\x00" * 16)


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 2, "x": 1}})
    assert text == '{"a":[1,2],"b":1,"c":{"x":1,"y":2}}'
    assert canonical_json({"a": 1}) == canonical_json({"a": 1})


def test_float_text_round_trip_is_exact(tmp_path):
    # repr-formatted floats parse back to the identical double
    rng = np.random.default_rng(12)
    values = 2.4 + 0.01 * rng.normal(size=(4, 2))
    panel = ZtdPanel(
        TimeAxis(1746595800, 300, 4),
        stations(2),
        values,
        np.ones(values.shape, dtype=bool),
    )
    path = tmp_path / "ztd.csv"
    write_ztd_csv(path, panel)
    loaded = read_ztd_csv(path, panel.stations)
    np.testing.assert_array_equal(loaded.values, panel.values)
