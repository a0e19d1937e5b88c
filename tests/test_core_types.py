import numpy as np
import pytest

from gwindcast.core import (
    LevelSpec,
    NormStats,
    StationTable,
    TimeAxis,
    WindCube,
    WindSeries,
    ZtdPanel,
    format_iso8601,
    parse_iso8601,
    validate,
)


def make_stations(n, prefix="S"):
    ids = tuple(f"{prefix}{i:03d}" for i in range(n))
    lats = 29.0 + 0.01 * np.arange(n)
    lons = 120.0 + 0.01 * np.arange(n)
    return StationTable(ids=ids, lats=lats, lons=lons)


def test_iso8601_round_trip():
    assert parse_iso8601("2025-05-07T05:30:00Z") == 1746595800
    assert format_iso8601(1746595800) == "2025-05-07T05:30:00Z"
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = int(rng.integers(0, 2_000_000_000))
        assert parse_iso8601(format_iso8601(t)) == t


def test_time_axis_basic():
    ax = TimeAxis(start=1000, step=300, count=4)
    assert list(ax.timestamps()) == [1000, 1300, 1600, 1900]
    assert ax.end == 1900
    assert ax.time_at(2) == 1600
    with pytest.raises(ValueError):
        TimeAxis(start=0, step=0, count=3)
    with pytest.raises(ValueError):
        TimeAxis(start=0, step=300, count=0)


def test_station_table_index_and_subset():
    st = make_stations(5)
    sub = st.subset([4, 1])
    assert sub.ids == ("S004", "S001")
    assert sub.lats[0] == pytest.approx(29.04)


def test_frozen_arrays_are_immutable():
    st = make_stations(3)
    with pytest.raises(ValueError):
        st.lats[0] = 0.0
    panel = ZtdPanel(
        axis=TimeAxis(0, 300, 2),
        stations=st,
        values=np.zeros((2, 3)),
        mask=np.ones((2, 3), dtype=bool),
    )
    with pytest.raises(ValueError):
        panel.values[0, 0] = 1.0
    # every container freezes its arrays, including the copies its methods make
    levels = LevelSpec("height_m", (100.0,))
    vals = np.zeros((2, 1, 3, 3))
    cube = WindCube(TimeAxis(0, 300, 2), levels, st, vals, np.ones(vals.shape, bool))
    series = WindSeries([0, 300], levels, st, vals, np.ones(vals.shape, bool))
    stats = NormStats(*(np.zeros(2) for _ in range(4)))
    for arr in (panel.mask, panel.select_stations([1]).values, panel.slice_time(0, 1).mask,
                cube.values, series.times, cube.select_stations([0]).mask,
                stats.input_std, stats.target_mean):
        assert not arr.flags.writeable



def test_level_spec_labels():
    levels = LevelSpec("pressure_hPa", (1000.0, 925.0, 850.0))
    assert levels.labels() == ["1000", "925", "850"]
    assert len(levels) == 3


def test_panel_select_and_slice():
    st = make_stations(4)
    vals = np.arange(12, dtype=float).reshape(3, 4)
    panel = ZtdPanel(TimeAxis(0, 300, 3), st, vals, np.ones((3, 4), dtype=bool))
    sub = panel.select_stations([2, 0])
    assert sub.stations.ids == ("S002", "S000")
    assert sub.values[1, 0] == 6.0
    sl = panel.slice_time(1, 3)
    assert sl.axis.start == 300
    assert sl.axis.count == 2
    assert sl.values[0, 0] == 4.0


def test_cube_and_series_select_stations_along_the_station_axis():
    st = make_stations(3, "W")
    levels = LevelSpec("height_m", (100.0, 500.0))
    vals = np.arange(4 * 2 * 3 * 3, dtype=float).reshape(4, 2, 3, 3)
    cube = WindCube(TimeAxis(0, 300, 4), levels, st, vals, np.ones(vals.shape, bool))
    sub = cube.select_stations(range(2, -1, -2))
    assert sub.stations.ids == ("W002", "W000")
    assert np.array_equal(sub.values, vals[:, :, [2, 0]])
    sl = cube.slice_time(1, 3)
    assert (sl.axis.start, sl.axis.count, sl.levels) == (300, 2, levels)
    assert np.array_equal(sl.values, vals[1:3])
    series = WindSeries([0, 900], levels, st, vals[[0, 3]], np.ones((2, 2, 3, 3), bool))
    series = series.select_stations([1])
    assert list(series.times) == [0, 900]
    assert np.array_equal(series.values, vals[[0, 3]][:, :, [1]])
    assert not hasattr(series, "slice_time")  # a series has no TimeAxis to slice


def test_norm_stats_zero_std_is_safe():
    stats = NormStats(
        input_mean=np.array([1.0]),
        input_std=np.array([0.0]),
        target_mean=np.array([2.0]),
        target_std=np.array([4.0]),
    )
    x = stats.normalize_inputs(np.array([[5.0]]))
    assert np.isfinite(x).all()
    assert x[0, 0] == 4.0  # unit divisor replaces the zero spread
    y = stats.normalize_targets(np.array([[10.0]]))
    back = stats.denormalize_targets(y)
    assert back[0, 0] == pytest.approx(10.0)


def test_validate_flags_shape_and_coordinate_problems():
    st = make_stations(2)
    bad_lat = StationTable(ids=("A", "B"), lats=np.array([0.0, 95.0]), lons=np.zeros(2))
    assert any("lat" in v for v in validate(bad_lat))

    dup = StationTable(ids=("A", "A"), lats=np.zeros(2), lons=np.zeros(2))
    assert any("unique" in v for v in validate(dup))

    panel = ZtdPanel(TimeAxis(0, 300, 2), st, np.zeros((3, 2)), np.ones((3, 2), bool))
    assert any("shape" in v for v in validate(panel))

    vals = np.zeros((2, 2))
    vals[0, 1] = np.nan
    masked_ok = ZtdPanel(TimeAxis(0, 300, 2), st,
                         vals, np.array([[True, False], [True, True]]))
    assert validate(masked_ok) == []
    exposed = ZtdPanel(TimeAxis(0, 300, 2), st, vals, np.ones((2, 2), bool))
    assert any("finite" in v for v in validate(exposed))


def test_validate_level_monotonicity():
    st = make_stations(1, "W")
    ax = TimeAxis(0, 300, 1)
    good_h = LevelSpec("height_m", (100.0, 200.0))
    bad_h = LevelSpec("height_m", (200.0, 100.0))
    good_p = LevelSpec("pressure_hPa", (900.0, 500.0))
    bad_p = LevelSpec("pressure_hPa", (500.0, 900.0))
    shape = (1, 2, 1, 3)
    ones = np.ones(shape)
    mask = np.ones(shape, bool)
    assert validate(WindCube(ax, good_h, st, ones, mask)) == []
    assert any("ascending" in v for v in validate(WindCube(ax, bad_h, st, ones, mask)))
    assert validate(WindCube(ax, good_p, st, ones, mask)) == []
    assert any("descending" in v for v in validate(WindCube(ax, bad_p, st, ones, mask)))
