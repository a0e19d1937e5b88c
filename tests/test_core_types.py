from dataclasses import replace

import numpy as np
import pytest

from gwindcast.core import (
    GriddedBaseline,
    LevelSpec,
    NormStats,
    SampleSet,
    StationTable,
    TimeAxis,
    WindCube,
    WindSeries,
    ZtdPanel,
    format_iso8601,
    parse_iso8601,
)
from reference_impls import prior_denormalize, prior_normalize, sample_windows


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


def test_iso8601_refuses_a_time_that_is_not_a_whole_second():
    # once truncated: .9 landed on the second before, and 23:59:59.5 before
    # the epoch rounded forward onto it
    assert parse_iso8601("2025-05-07T05:30:00.000Z") == 1746595800
    for text in ("2025-05-07T05:30:00.900Z", "1969-12-31T23:59:59.500Z",
                 "2025-05-07T05:30:00.000001+00:00"):
        with pytest.raises(ValueError) as err:
            parse_iso8601(text)
        assert str(err.value) == f"timestamp {text!r} is not a whole second"
    with pytest.raises(ValueError):  # Python 3.10 cannot parse one fraction digit at all
        parse_iso8601("2025-05-07T05:30:00.9Z")


def test_iso8601_parses_only_the_times_it_can_print():
    # the first and last second of UTC years 1-9999 round-trip, the year in
    # four digits; a second either side of them, in any offset, is refused
    for text in ("0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z"):
        assert format_iso8601(parse_iso8601(text)) == text
    assert parse_iso8601("0001-01-01T01:00:00+01:00") == parse_iso8601("0001-01-01T00:00:00Z")
    for text in ("0001-01-01T00:00:00+01:00", "0001-01-01T00:59:59+01:00",
                 "9999-12-31T23:59:59-01:00", "9999-12-31T23:00:00-01:00"):
        with pytest.raises(ValueError) as err:
            parse_iso8601(text)
        assert str(err.value) == f"timestamp {text!r} lies outside UTC years 1-9999"


def test_time_axis_basic():
    ax = TimeAxis(start=1000, step=300, count=4)
    assert list(ax.timestamps()) == [1000, 1300, 1600, 1900]
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


@pytest.mark.parametrize("rows", [1, 87, 2049])
def test_norm_stats_keep_the_bits_of_the_prior_formulas(rows):
    # the division and the shift work in the array the first step made; the
    # caller's array is never written
    rng = np.random.default_rng(rows)
    in_std, out_std = rng.uniform(0.5, 2.0, size=60), rng.uniform(0.5, 2.0, size=27)
    in_std[3] = out_std[5] = 0.0
    stats = NormStats(input_mean=rng.normal(size=60), input_std=in_std,
                      target_mean=rng.normal(size=27), target_std=out_std)
    x, y = rng.normal(3.0, 2.0, size=(rows, 6, 60)), rng.normal(size=(rows, 27))
    kept = x.copy(), y.copy()
    cases = [(stats.normalize_inputs(x), prior_normalize(x, stats.input_mean, in_std)),
             (stats.normalize_targets(y), prior_normalize(y, stats.target_mean, out_std)),
             (stats.denormalize_targets(y), prior_denormalize(y, stats.target_mean, out_std))]
    for got, want in cases:
        assert got.tobytes() == want.tobytes()
    assert (x.tobytes(), y.tobytes()) == (kept[0].tobytes(), kept[1].tobytes())


def test_containers_check_shape_coordinates_and_finiteness_at_construction():
    st = make_stations(2)
    ax = TimeAxis(0, 300, 2)
    ones = np.ones((2, 2), bool)
    with pytest.raises(ValueError, match=r"lat out of \[-90, 90\] at row 1: 95\.0"):
        StationTable(ids=("A", "B"), lats=np.array([0.0, 95.0]), lons=np.zeros(2))
    with pytest.raises(ValueError, match=r"lon out of \[-180, 180\] at row 0: nan"):
        StationTable(ids=("A", "B"), lats=np.zeros(2), lons=np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="station_id not unique: 'A' at rows 0 and 1"):
        StationTable(ids=("A", "A"), lats=np.zeros(2), lons=np.zeros(2))

    with pytest.raises(ValueError, match=r"values shape \(3, 2\) != \(time, station\) \(2, 2\)"):
        ZtdPanel(ax, st, np.zeros((3, 2)), np.ones((3, 2), bool))
    with pytest.raises(ValueError, match=r"mask shape \(2, 1\) != values shape \(2, 2\)"):
        ZtdPanel(ax, st, np.zeros((2, 2)), np.ones((2, 1), bool))

    vals = np.zeros((2, 2))
    vals[0, 1] = np.nan
    ZtdPanel(ax, st, vals, np.array([[True, False], [True, True]]))  # NaN where unobserved
    with pytest.raises(ValueError, match=r"non-finite value under observed mask at \(0, 1\)"):
        ZtdPanel(ax, st, vals, ones)

    # wind: a component axis other than (u, v, w), a time count that differs
    # from the series' times, an infinite observed value
    levels = LevelSpec("height_m", (100.0,))
    with pytest.raises(ValueError, match=r"\(2, 1, 2, 2\) != \(time, level, station, 3\) "
                                         r"\(2, 1, 2, 3\)"):
        WindCube(ax, levels, st, np.zeros((2, 1, 2, 2)), np.ones((2, 1, 2, 2), bool))
    wind = np.zeros((2, 1, 2, 3))
    with pytest.raises(ValueError, match=r"values shape \(2, 1, 2, 3\) != .* \(3, 1, 2, 3\)"):
        WindSeries([0, 300, 600], levels, st, wind, np.ones(wind.shape, bool))
    wind[1, 0, 1, 2] = np.inf
    with pytest.raises(ValueError, match=r"non-finite value under observed mask at \(1, 0, 1, 2\)"):
        WindSeries([0, 300], levels, st, wind, np.ones(wind.shape, bool))


def test_sample_set_checks_lengths_and_that_every_window_fits():
    # 3 samples of 2-step windows over 5 delay rows of 2 stations
    delays = np.arange(10.0).reshape(5, 2)
    good = dict(delays=delays, starts=[0, 1, 3], window_steps=2, targets=np.zeros((3, 3)),
                target_times=[0, 300, 600], split_labels=[0, 1, 2],
                levels=LevelSpec("height_m", (100.0,)), target_stations=make_stations(1),
                norm_stats=None)
    ss = SampleSet(**good)
    assert sample_windows(ss, [2, 0]).tobytes() == np.stack([delays[3:5], delays[0:2]]).tobytes()
    for change, message in (
            (dict(split_labels=[0, 1]), r"starts, targets, target_times and split_labels "
                                        r"differ in length: \[3, 3, 3, 2\]"),
            (dict(targets=np.zeros((4, 3))), r"differ in length: \[3, 4, 3, 3\]"),
            (dict(window_steps=0), "window_steps must be at least 1, got 0"),
            (dict(delays=np.arange(5.0)), r"delays must be \(time, station\), got shape \(5,\)"),
            (dict(starts=[0, 4, 1]), r"the window of sample 1 \(start 4, 2 steps\) leaves "
                                     "the 5 delay rows"),
            (dict(starts=[0, -1, 1]), r"the window of sample 1 \(start -1, 2 steps\)"),
            (dict(window_steps=6, starts=[0, 0, 0]), r"the window of sample 0 \(start 0, "
                                                     r"6 steps\)")):
        with pytest.raises(ValueError, match=message):
            SampleSet(**{**good, **change})
    with pytest.raises(ValueError, match="differ in length"):
        replace(ss, starts=[0, 1])


def test_derived_containers_are_checked_too():
    # select_stations, replace and slice_time build through the constructor
    panel = ZtdPanel(TimeAxis(0, 300, 3), make_stations(2), np.zeros((3, 2)), np.ones((3, 2), bool))
    with pytest.raises(ValueError, match="station_id not unique: 'S000' at rows 0 and 1"):
        panel.select_stations([0, 0])
    with pytest.raises(ValueError, match=r"values shape \(2, 2\) != \(time, station\) \(3, 2\)"):
        replace(panel, values=np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"values shape \(1, 2\) != \(time, station\) \(2, 2\)"):
        panel.slice_time(2, 4)  # past the end: a 2-step axis over 1 row
    levels = LevelSpec("height_m", (100.0,))
    wind = np.zeros((2, 1, 2, 3))
    series = WindSeries([0, 300], levels, make_stations(2), wind, np.ones(wind.shape, bool))
    with pytest.raises(ValueError, match="non-finite value under observed mask at"):
        replace(series, values=np.full(wind.shape, np.nan))
    with pytest.raises(ValueError, match="station_id not unique"):
        series.select_stations([1, 1])


def test_level_spec_checks_kind_and_order():
    LevelSpec("height_m", (100.0, 200.0))
    LevelSpec("pressure_hPa", (900.0, 500.0))
    for kind, values, message in (("height_m", (200.0, 100.0), "height levels not strictly ascending"),
                                  ("height_m", (100.0, 100.0), "height levels not strictly ascending"),
                                  ("pressure_hPa", (500.0, 900.0),
                                   "pressure levels not strictly descending"),
                                  ("sigma", (1.0,), "level kind unknown: 'sigma'"),
                                  ("height_m", (float("nan"), 110.0, 220.0),
                                   "level not finite: nan"),
                                  ("pressure_hPa", (850.0, float("nan")),
                                   "level not finite: nan"),
                                  ("height_m", (float("nan"),), "level not finite: nan"),
                                  ("height_m", (100.0, float("inf")),
                                   "level not finite: inf")):
        with pytest.raises(ValueError, match=message):
            LevelSpec(kind, values)


def test_gridded_baseline_is_finite_and_on_the_globe():
    def grid(lats=(29.0,), lons=(120.0,), value=0.0):
        values = np.full((1, 1, len(lats), len(lons), 3), value)
        return GriddedBaseline(np.array([0]), LevelSpec("height_m", (500.0,)),
                               np.array(lats), np.array(lons), values)

    assert grid().values.shape == (1, 1, 1, 1, 3)
    with pytest.raises(ValueError, match=r"lat out of \[-90, 90\] at grid index 1: 200\.0"):
        grid(lats=(29.0, 200.0))
    with pytest.raises(ValueError, match=r"lon out of \[-180, 180\] at grid index 0: -180\.5"):
        grid(lons=(-180.5,))
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"non-finite value at \(0, 0, 0, 0, 0\)"):
            grid(value=value)
