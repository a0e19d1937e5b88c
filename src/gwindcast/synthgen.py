"""Seeded synthetic delay/wind scenes with a known latent driver.

A latent process (AR(1) memory plus 3-hour and 24-hour sinusoids) drives
everything. Delay panels observe the latent state through spatially smooth
station weights plus observation noise and random dropouts. Wind fields are
per-channel affine-plus-tanh mixtures of the latent state from
``lead_coupling_steps`` earlier, so a window of past delays genuinely
determines the wind a few steps ahead. With ``tanh_gain`` at its mild
default the map is near-linear; raising it produces a regime where a purely
linear readout leaves structured residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geo
from .core import (
    HEIGHT_M,
    LevelSpec,
    StationTable,
    TimeAxis,
    WindCube,
    ZtdPanel,
)
from .errors import ConfigError

_AR_COEFF = 0.95
_PERIODS_S = (3 * 3600, 24 * 3600)
_SIN_AMP = 0.75
_ZTD_BASE_M = 2.4
_ZTD_SCALE_M = 0.05
_RBF_LENGTH_KM = 40.0


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 20250601
    n_ztd_stations: int = 60
    n_wind_stations: int = 3
    n_levels: int = 3
    n_steps: int = 4000
    latent_dim: int = 8
    noise_std: float = 0.05
    missing_rate: float = 0.02
    lead_coupling_steps: int = 6
    step_seconds: int = 300
    linear_gain: float = 1.0
    tanh_gain: float = 0.35
    center_lat: float = 29.36
    center_lon: float = 120.07
    start_epoch: int = 1746595800

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("n_ztd_stations", "n_wind_stations", "n_levels", "n_steps",
                     "latent_dim", "lead_coupling_steps", "step_seconds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in ("noise_std", "missing_rate"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")
        if not -90 <= self.center_lat <= 90 or not -180 <= self.center_lon <= 180:
            raise ConfigError("center coordinates out of range")


def _jittered_grid(rng, n, center_lat, center_lon, spread_deg):
    side = int(np.ceil(np.sqrt(n)))
    coords = np.linspace(-spread_deg, spread_deg, side) if side > 1 else np.zeros(1)
    lats, lons = [], []
    cell = 2 * spread_deg / max(side - 1, 1)
    for i in range(side):
        for j in range(side):
            if len(lats) == n:
                break
            lats.append(center_lat + coords[i] + rng.uniform(-0.3, 0.3) * cell)
            lons.append(center_lon + coords[j] + rng.uniform(-0.3, 0.3) * cell)
    return np.array(lats), np.array(lons)


def _latent(rng, cfg: SynthConfig) -> np.ndarray:
    t = np.arange(cfg.n_steps, dtype=np.float64) * cfg.step_seconds
    eps = rng.normal(size=(cfg.n_steps, cfg.latent_dim))
    ar = np.empty_like(eps)
    ar[0] = eps[0]
    damp = np.sqrt(1.0 - _AR_COEFF**2)
    for k in range(1, cfg.n_steps):
        ar[k] = _AR_COEFF * ar[k - 1] + damp * eps[k]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.latent_dim)
    periods = np.array([_PERIODS_S[j % len(_PERIODS_S)] for j in range(cfg.latent_dim)])
    sines = _SIN_AMP * np.sin(2.0 * np.pi * t[:, None] / periods[None, :] + phases[None, :])
    return ar + sines


def generate(cfg: SynthConfig = SynthConfig()):
    """Generate one scene; returns (ztd_stations, panel, wind_cube, latent).

    Identical configs give bit-identical outputs. Missing delay entries are
    NaN with mask False; wind cubes are fully observed.
    """
    ss = np.random.SeedSequence(cfg.seed)
    r_geo, r_lat, r_wts, r_mix, r_noise, r_mask = (np.random.default_rng(s) for s in ss.spawn(6))

    zlats, zlons = _jittered_grid(r_geo, cfg.n_ztd_stations, cfg.center_lat, cfg.center_lon, 0.9)
    wlats, wlons = _jittered_grid(r_geo, cfg.n_wind_stations, cfg.center_lat, cfg.center_lon, 0.35)
    latent = _latent(r_lat, cfg)
    axis = TimeAxis(cfg.start_epoch, cfg.step_seconds, cfg.n_steps)

    # spatially smooth station weights: RBF features of position x random mix
    n_centers = cfg.latent_dim
    clats = cfg.center_lat + r_wts.uniform(-0.9, 0.9, n_centers)
    clons = cfg.center_lon + r_wts.uniform(-0.9, 0.9, n_centers)
    d = geo.haversine_km(zlats[:, None], zlons[:, None], clats[None, :], clons[None, :])
    k_feat = np.exp(-(d**2) / (2.0 * _RBF_LENGTH_KM**2))
    mix = r_wts.normal(size=(n_centers, cfg.latent_dim)) / np.sqrt(n_centers)
    weights = k_feat @ mix + 0.15 * r_wts.normal(size=(cfg.n_ztd_stations, cfg.latent_dim))

    signal = latent @ weights.T
    sig_std = signal.std() or 1.0
    ztd = _ZTD_BASE_M + signal * (_ZTD_SCALE_M / sig_std)
    ztd = ztd + cfg.noise_std * _ZTD_SCALE_M * r_noise.normal(size=ztd.shape)
    mask = r_mask.random(ztd.shape) >= cfg.missing_rate
    values = np.where(mask, ztd, np.nan)

    # wind: per-channel affine + tanh mixture of the lagged latent state
    n_ch = cfg.n_levels * cfg.n_wind_stations * 3
    lin = r_mix.normal(size=(n_ch, cfg.latent_dim)) / np.sqrt(cfg.latent_dim)
    nlin = r_mix.normal(size=(n_ch, cfg.latent_dim)) / np.sqrt(cfg.latent_dim)
    bias = 0.2 * r_mix.normal(size=n_ch)
    lag_index = np.maximum(np.arange(cfg.n_steps) - cfg.lead_coupling_steps, 0)
    z = latent[lag_index]
    core = cfg.linear_gain * (z @ lin.T) + cfg.tanh_gain * np.tanh(z @ nlin.T) + bias
    core_std = core.std(axis=0)
    core = core + cfg.noise_std * core_std * r_noise.normal(size=core.shape)

    amp = np.empty((cfg.n_levels, cfg.n_wind_stations, 3))
    lev_frac = np.arange(cfg.n_levels) / max(cfg.n_levels - 1, 1)
    amp[..., 0] = amp[..., 1] = (2.0 + 3.0 * lev_frac)[:, None]
    amp[..., 2] = 0.4
    wind_values = core.reshape(cfg.n_steps, cfg.n_levels, cfg.n_wind_stations, 3) * amp

    heights = tuple(np.linspace(110.0, 7160.0, cfg.n_levels)) if cfg.n_levels > 1 else (110.0,)
    # a center near a pole or the antimeridian puts stations off the globe,
    # and large gains overflow the winds
    try:
        ztd_stations = StationTable(
            ids=tuple(f"Z{i:04d}" for i in range(cfg.n_ztd_stations)), lats=zlats, lons=zlons
        )
        wind_stations = StationTable(
            ids=tuple(f"W{i:02d}" for i in range(cfg.n_wind_stations)), lats=wlats, lons=wlons
        )
        panel = ZtdPanel(axis, ztd_stations, values, mask)
        cube = WindCube(
            axis=axis,
            levels=LevelSpec(HEIGHT_M, heights),
            stations=wind_stations,
            values=wind_values,
            mask=np.ones(wind_values.shape, dtype=bool),
        )
    except ValueError as e:
        raise ConfigError(f"the synth config makes an invalid scene ({e})") from e
    return ztd_stations, panel, cube, latent
