import tracemalloc

import numpy as np
import pytest

from gwindcast import geo
from gwindcast.core import (
    LevelSpec,
    SampleSet,
    StationTable,
    TimeAxis,
    WindCube,
    ZtdPanel,
)
from gwindcast.errors import (
    AllMissing,
    ConfigError,
    Misaligned,
    NoSamples,
    NumericError,
)
from gwindcast.preprocess import (
    PressureMapParams,
    SplitConfig,
    build_samples,
    compose_wind,
    decompose_wind,
    fill_gaps,
    gap_report,
    height_to_pressure,
)
from reference_impls import loop_build_samples, loop_decompose, loop_pressure, sample_windows


def make_panel(values, mask=None, start=0, step=300):
    values = np.asarray(values, dtype=float)
    n_t, n_s = values.shape
    st = StationTable(
        ids=tuple(f"S{i}" for i in range(n_s)),
        lats=29.0 + 0.01 * np.arange(n_s),
        lons=120.0 + 0.01 * np.arange(n_s),
    )
    if mask is None:
        mask = np.isfinite(values)
    return ZtdPanel(TimeAxis(start, step, n_t), st, values, np.asarray(mask, bool))


# ----------------------------------------------------------- fill_gaps ----


def test_fill_gaps_interpolates_interior():
    vals = np.array([[1.0, 0.0], [np.nan, 0.0], [3.0, 0.0]])
    panel = make_panel(vals)
    filled = fill_gaps(panel)
    assert filled.mask.all()
    assert filled.values[1, 0] == pytest.approx(2.0)
    # observed cells never change
    assert filled.values[0, 0] == 1.0
    assert filled.values[2, 0] == 3.0


def test_fill_gaps_clamps_edges():
    vals = np.array([[np.nan, 5.0], [2.0, 5.0], [np.nan, 5.0]])
    filled = fill_gaps(make_panel(vals))
    assert filled.values[0, 0] == 2.0
    assert filled.values[2, 0] == 2.0


def test_fill_gaps_empty_station_uses_nearby_average():
    # station 0 has no observations; stations 1..4 are constant in space
    n_t = 4
    vals = np.full((n_t, 5), np.nan)
    vals[:, 1:] = np.arange(1.0, 5.0)  # station j observes constant j
    filled = fill_gaps(make_panel(vals))
    assert filled.mask.all()
    # inverse-distance-weighted combination of the 4 nearest stations stays
    # within their value range
    assert (filled.values[:, 0] > 1.0).all()
    assert (filled.values[:, 0] < 4.0).all()
    # weights favor the closest donor (station 1)
    assert (filled.values[:, 0] < 2.5).all()


def test_fill_gaps_all_missing_raises():
    vals = np.full((3, 2), np.nan)
    with pytest.raises(AllMissing):
        fill_gaps(make_panel(vals))


def test_fill_gaps_is_idempotent():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(20, 4))
    holes = rng.random(vals.shape) < 0.3
    vals[holes] = np.nan
    p1 = fill_gaps(make_panel(vals))
    p2 = fill_gaps(p1)
    assert np.array_equal(p1.values, p2.values)


def test_gap_report_counts():
    vals = np.array([[1.0, np.nan], [np.nan, np.nan]])
    rep = gap_report(make_panel(vals))
    assert rep["total_cells"] == 4
    assert rep["missing_cells"] == 3
    assert rep["stations_fully_missing"] == ["S1"]
    assert rep["stations"]["S0"]["method"] == "temporal_interpolation"
    assert rep["stations"]["S1"]["method"] == "inverse_distance_weighting"
    assert rep["stations"]["S0"]["missing"] == 1


# ------------------------------------------- pressure level machinery ----


def test_height_to_pressure_known_values():
    assert height_to_pressure(0.0) == pytest.approx(1013.25, abs=1e-12)
    assert height_to_pressure(7160.0) == pytest.approx(loop_pressure(7160.0), rel=1e-15)
    assert height_to_pressure(8000.0) == pytest.approx(1013.25 / np.e, rel=1e-12)
    arr = height_to_pressure(np.array([0.0, 8000.0, 16000.0]))
    assert arr.shape == (3,)
    assert arr[2] == pytest.approx(1013.25 / np.e**2, rel=1e-12)
    custom = PressureMapParams(p0_hpa=1000.0, h_scale_m=7000.0)
    assert height_to_pressure(7000.0, custom) == pytest.approx(1000.0 / np.e, rel=1e-12)


# -------------------------------------------------- wind decomposition ----


def test_decompose_known_directions():
    u, v = decompose_wind(10.0, 0.0)  # wind FROM north blows southward
    assert u == pytest.approx(0.0, abs=1e-12)
    assert v == pytest.approx(-10.0)
    u, v = decompose_wind(10.0, 90.0)  # from east -> blows westward
    assert u == pytest.approx(-10.0)
    assert v == pytest.approx(0.0, abs=1e-12)
    u, v = decompose_wind(10.0, 270.0)
    assert u == pytest.approx(10.0)


def test_decompose_compose_round_trip_and_energy():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        speed = float(rng.uniform(0.0, 40.0))
        direction = float(rng.uniform(0.0, 360.0))
        u, v = decompose_wind(speed, direction)
        assert u * u + v * v == pytest.approx(speed * speed, rel=1e-12, abs=1e-12)
        ru, rv = loop_decompose(speed, direction)
        assert u == pytest.approx(ru, abs=1e-12)
        assert v == pytest.approx(rv, abs=1e-12)
        s2, d2 = compose_wind(u, v)
        assert s2 == pytest.approx(speed, rel=1e-9, abs=1e-9)
        if speed > 1e-9:
            assert d2 == pytest.approx(direction, abs=1e-6) or abs(d2 - direction) == pytest.approx(360.0, abs=1e-6)


def test_compose_calm_gives_zero_direction():
    s, d = compose_wind(0.0, 0.0)
    assert s == 0.0
    assert d == 0.0


def test_decompose_rejects_negative_speed():
    from gwindcast.errors import NegativeSpeed

    with pytest.raises(NegativeSpeed):
        decompose_wind(-1.0, 45.0)


# -------------------------------------------------- station selection ----


def test_select_nearest_orders_by_distance_then_id():
    st = StationTable(
        ids=("far", "near", "tie_b", "tie_a"),
        lats=np.array([30.0, 29.0, 29.5, 29.5]),
        lons=np.array([121.0, 120.0, 120.0, 120.0]),
    )
    order = geo.nearest_station_order(st, 29.0, 120.0)
    assert [st.ids[i] for i in order] == ["near", "tie_a", "tie_b", "far"]


# ------------------------------------------------------- build_samples ----


def make_aligned_scene(n_t=40, n_s=5, n_levels=2, n_targets=2, seed=0):
    rng = np.random.default_rng(seed)
    panel = make_panel(rng.normal(size=(n_t, n_s)))
    cube_vals = rng.normal(size=(n_t, n_levels, n_targets, 3))
    st = StationTable(
        ids=tuple(f"W{i}" for i in range(n_targets)),
        lats=29.0 + 0.05 * np.arange(n_targets),
        lons=120.0 + 0.05 * np.arange(n_targets),
    )
    cube = WindCube(
        TimeAxis(0, 300, n_t),
        LevelSpec("height_m", tuple(100.0 * (i + 1) for i in range(n_levels))),
        st, cube_vals, np.ones(cube_vals.shape, bool),
    )
    return panel, cube


def test_build_samples_shapes_and_alignment():
    panel, cube = make_aligned_scene()
    split = SplitConfig(seed=4)
    ss = build_samples(panel, cube, window_steps=6, lead_steps=2, split=split)
    assert isinstance(ss, SampleSet)
    # windows end at index >= window-1; target at end + lead
    n_expect = 40 - (6 - 1) - 2
    windows = sample_windows(ss, np.arange(n_expect))
    assert windows.shape == (n_expect, 6, 5)
    assert ss.targets.shape == (n_expect, 2 * 2 * 3)
    # first sample: window rows 0..5, target row 7
    assert np.array_equal(windows[0], panel.values[0:6])
    assert np.array_equal(ss.targets[0], cube.values[7].reshape(-1))
    assert ss.target_times[0] == cube.axis.time_at(7)


@pytest.mark.parametrize("wind_offset", [-2, 0, 3])
def test_build_samples_matches_loop_oracle_on_a_scene_with_gaps(wind_offset):
    # gaps in both inputs, one of them over a NaN, and a wind axis that starts
    # wind_offset steps after the delays and ends early
    panel, cube = make_aligned_scene(seed=7, n_t=40)
    mask = np.array(panel.mask)
    mask[[3, 17, 18, 25], [0, 4, 1, 2]] = False
    values = np.array(panel.values)
    values[25, 2] = np.nan
    panel = ZtdPanel(panel.axis, panel.stations, values, mask)
    n_w = 40 - wind_offset - 4 if wind_offset > 0 else 36
    cmask = np.array(cube.mask[:n_w])
    cmask[[8, 21, 30], [0, 1, 1], [1, 0, 1], [2, 0, 1]] = False
    cvalues = np.array(cube.values[:n_w])
    cvalues[30, 1, 1, 1] = np.inf
    cube = WindCube(TimeAxis(wind_offset * 300, 300, n_w), cube.levels, cube.stations,
                    cvalues, cmask)
    split = SplitConfig(seed=6)
    for window, lead in ((1, 1), (4, 2), (6, 5)):
        got = build_samples(panel, cube, window, lead, split)
        want = loop_build_samples(panel, cube, window, lead, split)
        n = len(got.starts)
        assert 0 < n < 40
        assert (np.diff(got.starts) > 1).any()  # the gaps drop windows between kept ones
        windows = sample_windows(got, np.arange(n))
        assert windows.flags.c_contiguous
        for a, b in zip((windows, got.targets, got.target_times, got.split_labels), want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_build_samples_skips_incomplete_windows_and_targets():
    panel, cube = make_aligned_scene()
    vals = panel.values.copy()
    mask = panel.mask.copy()
    mask[10, 2] = False
    panel = ZtdPanel(panel.axis, panel.stations, vals, mask)
    cmask = cube.mask.copy()
    cmask[30, 0, 1, 2] = False
    cube = WindCube(cube.axis, cube.levels, cube.stations, cube.values, cmask)
    ss = build_samples(panel, cube, window_steps=6, lead_steps=2, split=SplitConfig(seed=1))
    # windows covering row 10 are gone: ends 10..15; target row 30 is gone too
    banned_times = {cube.axis.time_at(e + 2) for e in range(10, 16)}
    banned_times.add(cube.axis.time_at(30))
    got = set(int(t) for t in ss.target_times)
    assert got.isdisjoint(banned_times)


def _array_bytes(ss):
    return sum(getattr(ss, name).nbytes for name in SampleSet._ARRAYS)


def test_sample_set_holds_its_delay_rows_once_whatever_the_window():
    # a set once held a copy of every window, so its bytes grew with window_steps
    panel, cube = make_aligned_scene(n_t=400, n_s=60)
    short, long = (build_samples(panel, cube, w, 2, SplitConfig(seed=1)) for w in (6, 24))
    assert short.delays.tobytes() == long.delays.tobytes() == panel.values.tobytes()
    per_sample = sum(getattr(short, name)[:1].nbytes
                     for name in ("starts", "targets", "target_times", "split_labels"))
    assert len(short.starts) - len(long.starts) == 24 - 6
    assert _array_bytes(short) - _array_bytes(long) == (24 - 6) * per_sample


def test_build_samples_peak_memory_is_bounded():
    # 1000 steps x 60 stations at window 24: 683 train windows of 7.50 MiB,
    # gathered once for the norm stats, their deviations written in place.
    # tracemalloc peak measured at 8.26 MiB; 15.25 MiB when std made a
    # copy of the deviations, and 29.21 MiB when the set held a copy of all
    # 975 windows (10.71 MiB) and gathered the train ones from it
    panel, cube = make_aligned_scene(n_t=1000, n_s=60)
    tracemalloc.start()
    try:
        build_samples(panel, cube, 24, 2, SplitConfig(seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("n_stations", [1, 2, 60])
@pytest.mark.parametrize("window_steps", [1, 6, 24])
def test_norm_stats_keep_the_bits_of_numpy_mean_and_std(window_steps, n_stations):
    # build_samples takes the input std as np.std does, in the gathered
    # train windows' own array: the same sums over the same array, so the
    # same bits. The trap is one station: its windows are one contiguous
    # column, which numpy sums pairwise, so a running sum over blocks of
    # windows, which matched np.std at 2 to 60 stations, does not match it
    panel, cube = make_aligned_scene(n_t=400, n_s=n_stations, seed=n_stations)
    ss = build_samples(panel, cube, window_steps, 1, SplitConfig(seed=window_steps))
    tr_in = sample_windows(ss, ss.indices("train"))
    assert ss.norm_stats.input_mean.tobytes() == np.mean(tr_in, axis=(0, 1)).tobytes()
    assert ss.norm_stats.input_std.tobytes() == np.std(tr_in, axis=(0, 1)).tobytes()


def test_build_samples_split_sizes_largest_remainder():
    panel, cube = make_aligned_scene(n_t=40)
    ss = build_samples(panel, cube, 6, 2, SplitConfig(ratios=(0.7, 0.15, 0.15), seed=9))
    n = len(ss.starts)
    tr = len(ss.indices("train"))
    va = len(ss.indices("val"))
    te = len(ss.indices("test"))
    assert tr + va + te == n
    assert tr == 23 and va == 5 and te == 5  # n = 33
    # split is a permutation: no index appears twice
    all_idx = np.concatenate([ss.indices(s) for s in ("train", "val", "test")])
    assert len(np.unique(all_idx)) == n


def test_build_samples_norm_stats_come_from_train_only():
    panel, cube = make_aligned_scene(seed=5)
    ss = build_samples(panel, cube, 4, 1, SplitConfig(seed=2))
    tr = ss.indices("train")
    # the same C-ordered gather of the train windows: the same bits
    tr_in = sample_windows(ss, tr)
    assert ss.norm_stats.input_mean.tobytes() == tr_in.mean(axis=(0, 1)).tobytes()
    assert ss.norm_stats.input_std.tobytes() == tr_in.std(axis=(0, 1)).tobytes()
    want_tmean = ss.targets[tr].mean(axis=0)
    assert np.allclose(ss.norm_stats.target_mean, want_tmean)
    # deliberately not the pooled mean
    assert not np.allclose(ss.norm_stats.target_mean, ss.targets.mean(axis=0))


def test_build_samples_misaligned_axes_raise():
    panel, cube = make_aligned_scene()
    shifted = WindCube(
        TimeAxis(150, 300, cube.axis.count), cube.levels, cube.stations,
        cube.values, cube.mask,
    )
    with pytest.raises(Misaligned):
        build_samples(panel, shifted, 6, 2, SplitConfig())


def test_build_samples_no_usable_windows_raises():
    panel, cube = make_aligned_scene(n_t=6)
    # a window that fits but leaves no target, and one longer than the panel
    for window in (6, 8):
        with pytest.raises(NoSamples):
            build_samples(panel, cube, window, 2, SplitConfig())


def test_fill_gaps_overflow_is_a_numeric_error():
    # interpolating across a gap between delays near the float range
    # overflows, and the filled panel would hold an infinite observed value
    panel, _ = make_aligned_scene(n_t=6)
    values, mask = np.array(panel.values), np.array(panel.mask)
    values[:, 0] = [-1e308, np.nan, np.nan, np.nan, np.nan, 1e308]
    mask[1:5, 0] = False
    with pytest.raises(NumericError, match=r"gap filling left a non-finite delay \(non-finite "
                                           r"value under observed mask at \(1, 0\)\)"):
        with np.errstate(over="ignore", invalid="ignore"):
            fill_gaps(ZtdPanel(panel.axis, panel.stations, values, mask))


def test_split_config_validation():
    with pytest.raises(ConfigError, match="split ratios must sum to 1"):
        SplitConfig(ratios=(0.5, 0.2, 0.2))
    with pytest.raises(ConfigError, match="split ratios must be 3 non-negative numbers"):
        SplitConfig(ratios=(1.2, -0.1, -0.1))
    SplitConfig(ratios=(0.8, 0.1, 0.1))


def test_build_samples_deterministic_given_seed():
    panel, cube = make_aligned_scene(seed=11)
    a = build_samples(panel, cube, 5, 2, SplitConfig(seed=3))
    b = build_samples(panel, cube, 5, 2, SplitConfig(seed=3))
    assert np.array_equal(a.split_labels, b.split_labels)
    c = build_samples(panel, cube, 5, 2, SplitConfig(seed=4))
    assert not np.array_equal(a.split_labels, c.split_labels)
