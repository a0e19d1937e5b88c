import numpy as np
import pytest

from gwindcast.core import HEIGHT_M
from gwindcast.errors import ConfigError
from gwindcast.synthgen import SynthConfig, generate
from reference_impls import oracle_linear_fit


def small_cfg(**kwargs):
    base = dict(
        seed=77,
        n_ztd_stations=12,
        n_wind_stations=2,
        n_levels=2,
        n_steps=600,
        latent_dim=4,
        noise_std=0.05,
        missing_rate=0.03,
        lead_coupling_steps=3,
        step_seconds=300,
    )
    base.update(kwargs)
    return SynthConfig(**base)


def test_generate_is_bit_deterministic():
    a = generate(small_cfg())
    b = generate(small_cfg())
    assert a[0].ids == b[0].ids
    np.testing.assert_array_equal(a[1].values, b[1].values)
    np.testing.assert_array_equal(a[1].mask, b[1].mask)
    np.testing.assert_array_equal(a[2].values, b[2].values)
    np.testing.assert_array_equal(a[3], b[3])


def test_generate_seed_changes_output():
    a = generate(small_cfg(seed=1))
    b = generate(small_cfg(seed=2))
    assert not np.array_equal(np.nan_to_num(a[1].values), np.nan_to_num(b[1].values))


def test_generate_shapes_and_axes():
    cfg = small_cfg()
    stations, panel, cube, latent = generate(cfg)
    assert len(stations) == cfg.n_ztd_stations
    assert panel.values.shape == (cfg.n_steps, cfg.n_ztd_stations)
    assert panel.axis.start == cfg.start_epoch
    assert panel.axis.step == cfg.step_seconds
    assert cube.values.shape == (cfg.n_steps, cfg.n_levels, cfg.n_wind_stations, 3)
    assert cube.axis.start == panel.axis.start
    assert latent.shape == (cfg.n_steps, cfg.latent_dim)
    assert cube.levels.kind == HEIGHT_M
    assert list(cube.levels.values) == sorted(cube.levels.values)


def test_missing_entries_are_masked_nan_at_roughly_requested_rate():
    cfg = small_cfg(n_steps=2000, missing_rate=0.05)
    _, panel, cube, _ = generate(cfg)
    assert np.isnan(panel.values[~panel.mask]).all()
    assert np.isfinite(panel.values[panel.mask]).all()
    rate = 1.0 - panel.mask.mean()
    assert 0.03 < rate < 0.07
    assert cube.mask.all()
    assert np.isfinite(cube.values).all()


def test_zero_missing_rate_gives_full_mask():
    _, panel, _, _ = generate(small_cfg(missing_rate=0.0))
    assert panel.mask.all()


def test_ztd_values_look_like_delays_in_meters():
    _, panel, _, _ = generate(small_cfg())
    observed = panel.values[panel.mask]
    assert 2.0 < observed.mean() < 2.8
    assert observed.std() < 0.3


def test_wind_amplitude_grows_with_height_and_w_is_small():
    cfg = small_cfg(n_levels=3, n_steps=1500)
    _, _, cube, _ = generate(cfg)
    u = cube.values[..., 0]
    w = cube.values[..., 2]
    std_by_level = u.std(axis=(0, 2))
    assert std_by_level[0] < std_by_level[-1]
    assert w.std() < u.std()


def test_station_coordinates_near_center_and_unique_ids():
    cfg = small_cfg()
    stations, panel, cube, _ = generate(cfg)
    assert len(set(stations.ids)) == len(stations.ids)
    assert np.all(np.abs(stations.lats - cfg.center_lat) < 2.0)
    assert np.all(np.abs(stations.lons - cfg.center_lon) < 2.0)
    assert len(set(cube.stations.ids)) == cfg.n_wind_stations


def test_config_validation():
    with pytest.raises(ConfigError):
        generate(small_cfg(n_steps=0))
    with pytest.raises(ConfigError):
        generate(small_cfg(missing_rate=1.0))
    with pytest.raises(ConfigError):
        generate(small_cfg(noise_std=-0.1))
    with pytest.raises(ConfigError):
        generate(small_cfg(center_lat=91.0))
    # a center that leaves room for no station grid, and gains so large the
    # winds overflow, make a scene no container holds
    for kwargs, message in (({"center_lat": -89.9}, r"lat out of \[-90, 90\] at row"),
                            ({"center_lon": -179.9}, r"lon out of \[-180, 180\] at row"),
                            ({"linear_gain": 1e308}, "non-finite value under observed mask")):
        with pytest.raises(ConfigError, match="the synth config makes an invalid scene .*" + message):
            with np.errstate(over="ignore", invalid="ignore"):
                generate(small_cfg(**kwargs))


def test_windows_predict_future_wind_linear_probe():
    # the scene is built so lagged delay windows nearly determine the wind;
    # an OLS probe should reach high correlation at the coupling lead
    cfg = small_cfg(n_steps=1200, noise_std=0.02, missing_rate=0.0)
    _, panel, cube, _ = generate(cfg)
    report = oracle_linear_fit(panel, cube, window_steps=6, lead_steps=cfg.lead_coupling_steps)
    row = report.row("all", "all")
    assert row.r > 0.95
    assert report.lead_minutes == cfg.lead_coupling_steps * cfg.step_seconds / 60.0


def test_raising_tanh_gain_degrades_linear_probe():
    mild = small_cfg(n_steps=1200, noise_std=0.0, missing_rate=0.0, tanh_gain=0.0)
    hard = small_cfg(n_steps=1200, noise_std=0.0, missing_rate=0.0, tanh_gain=3.0)
    reports = {}
    for name, cfg in (("mild", mild), ("hard", hard)):
        _, panel, cube, _ = generate(cfg)
        # noiseless delays make the window features collinear, so the
        # probe falls back to its ridge and says so
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            reports[name] = oracle_linear_fit(panel, cube, 6, cfg.lead_coupling_steps)
    rmse_mild = reports["mild"].row("all", "all").rmse
    rmse_hard = reports["hard"].row("all", "all").rmse
    assert rmse_mild < rmse_hard
