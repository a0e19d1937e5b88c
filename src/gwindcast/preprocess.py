"""Turning raw observations into model-ready tensors.

Covers gap filling of delay panels, the height->pressure map,
speed/direction <-> (u, v) conversion, and sliding-window sample assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import geo
from .core import (
    NormStats,
    SampleSet,
    WindCube,
    ZtdPanel,
    gather_windows,
)
from .errors import (
    AllMissing,
    ConfigError,
    Misaligned,
    NegativeSpeed,
    NoSamples,
    NumericError,
)

_IDW_NEIGHBORS = 4


@dataclass(frozen=True)
class PressureMapParams:
    """Exponential pressure profile: p(h) = p0 * exp(-h / h_scale)."""

    p0_hpa: float = 1013.25
    h_scale_m: float = 8000.0


@dataclass(frozen=True)
class SplitConfig:
    """Seeded random train/val/test split proportions (must sum to 1)."""

    ratios: tuple = (0.7, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3 or any(r < 0 for r in self.ratios):
            raise ConfigError(f"split ratios must be 3 non-negative numbers, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {sum(self.ratios)}")


def fill_gaps(panel: ZtdPanel) -> ZtdPanel:
    """Fill missing delay entries; observed entries are never altered.

    Interior gaps are linearly interpolated in time per station; gaps at the
    series boundary take the nearest observed value. Stations with no
    observations at all are reconstructed per time step by inverse-distance
    weighting of the 4 nearest stations that do have observations.
    """
    mask = panel.mask
    if not mask.any():
        raise AllMissing("panel has no observed values")
    n_t, n_s = panel.values.shape
    filled = panel.values.copy()
    t = np.arange(n_t, dtype=np.float64)
    has_obs = mask.any(axis=0)
    for s in np.nonzero(has_obs)[0]:
        obs = np.nonzero(mask[:, s])[0]
        if len(obs) < n_t:
            # np.interp clamps to edge values, which is the wanted boundary rule
            filled[:, s] = np.interp(t, t[obs], panel.values[obs, s])
    for s in np.nonzero(~has_obs)[0]:
        donors = np.nonzero(has_obs)[0]
        d = geo.haversine_km(
            panel.stations.lats[s], panel.stations.lons[s],
            panel.stations.lats[donors], panel.stations.lons[donors],
        )
        order = np.argsort(d, kind="stable")[:_IDW_NEIGHBORS]
        nb, nd = donors[order], d[order]
        if nd[0] == 0.0:
            filled[:, s] = filled[:, nb[0]]
        else:
            w = 1.0 / nd
            filled[:, s] = filled[:, nb] @ (w / w.sum())
    try:
        return ZtdPanel(panel.axis, panel.stations, filled, np.ones_like(mask))
    except ValueError as e:  # delays near the float range overflow the interpolation
        raise NumericError(f"gap filling left a non-finite delay ({e})") from e


def gap_report(panel: ZtdPanel) -> dict:
    """Per-station counts of entries a fill_gaps call would synthesize."""
    missing = (~panel.mask).sum(axis=0)
    has_obs = panel.mask.any(axis=0)
    per_station = {}
    for i, sid in enumerate(panel.stations.ids):
        per_station[sid] = {
            "missing": int(missing[i]),
            "observed": int(panel.axis.count - missing[i]),
            "method": "temporal_interpolation" if has_obs[i] else "inverse_distance_weighting",
        }
    return {
        "n_stations": len(panel.stations),
        "n_steps": panel.axis.count,
        "total_cells": int(panel.mask.size),
        "missing_cells": int(missing.sum()),
        "stations_fully_missing": [
            sid for sid, ok in zip(panel.stations.ids, has_obs) if not ok
        ],
        "stations": per_station,
    }


def height_to_pressure(height_m, params: PressureMapParams = PressureMapParams()):
    """Map height above the surface to pressure via p0 * exp(-h / h_scale)."""
    return params.p0_hpa * np.exp(-np.asarray(height_m, dtype=np.float64) / params.h_scale_m)


def decompose_wind(speed_ms, direction_deg):
    """Speed and meteorological direction (degrees the wind blows *from*,
    clockwise from north) -> eastward u and northward v components."""
    speed = np.asarray(speed_ms, dtype=np.float64)
    if np.any(speed < 0):
        raise NegativeSpeed("wind speed must be non-negative")
    rad = np.radians(np.asarray(direction_deg, dtype=np.float64))
    u = -speed * np.sin(rad)
    v = -speed * np.cos(rad)
    return u, v


def compose_wind(u_ms, v_ms):
    """(u, v) components -> speed and meteorological direction in [0, 360).

    Calm air (speed exactly 0) reports direction 0 by convention.
    """
    u = np.asarray(u_ms, dtype=np.float64)
    v = np.asarray(v_ms, dtype=np.float64)
    speed = np.hypot(u, v)
    direction = np.degrees(np.arctan2(-u, -v)) % 360.0
    direction = np.where(speed == 0.0, 0.0, direction)
    if direction.ndim == 0:
        return float(speed), float(direction)
    return speed, direction


def check_window_fits(window_steps: int, n_steps: int) -> None:
    """NoSamples unless a window of ``window_steps`` rows fits in ``n_steps``."""
    if window_steps > n_steps:
        raise NoSamples(f"a {window_steps}-step window is longer than the "
                        f"{n_steps}-step delay panel")


def build_samples(
    ztd: ZtdPanel,
    wind: WindCube,
    window_steps: int,
    lead_steps: int,
    split: SplitConfig = SplitConfig(),
) -> SampleSet:
    """Assemble sliding-window samples: a window of delay rows ending at time
    t paired with the flattened wind field at t + lead_steps.

    Both inputs must sit on the same time grid (equal step, offsets congruent
    modulo the step). Windows or targets touching any unobserved entry are
    dropped. Normalization statistics come from the train split only.
    """
    if window_steps < 1:
        raise ConfigError("window_steps must be at least 1")
    if lead_steps < 1:
        raise ConfigError("lead_steps must be at least 1")
    step = ztd.axis.step
    if wind.axis.step != step:
        raise Misaligned(f"time steps differ: delays {step}s, wind {wind.axis.step}s")
    if (wind.axis.start - ztd.axis.start) % step != 0:
        raise Misaligned("delay and wind axes are offset by a fraction of the step")

    check_window_fits(window_steps, ztd.axis.count)
    obs_row = ztd.mask.all(axis=1)
    starts = np.flatnonzero(sliding_window_view(obs_row, window_steps).all(axis=1))
    # the wind row of each window's target: the window's last row plus the lead
    rows = starts + (window_steps - 1 + lead_steps + (ztd.axis.start - wind.axis.start) // step)
    target_ok = wind.mask.reshape(wind.axis.count, -1).all(axis=1)
    keep = (rows >= 0) & (rows < wind.axis.count)
    keep[keep] = target_ok[rows[keep]]
    starts, rows = starts[keep], rows[keep]
    n = len(starts)
    if not n:
        raise NoSamples("no (window, target) pair satisfies the alignment constraints")

    targets = wind.values.reshape(wind.axis.count, -1)[rows]
    times = wind.axis.start + rows * step

    labels = _assign_splits(n, split)
    train = labels == 0
    if train.any():
        tr_in = gather_windows(ztd.values, window_steps, starts[train])
        tr_tg = targets[train]
        stats = NormStats(
            input_mean=tr_in.mean(axis=(0, 1)),
            input_std=tr_in.std(axis=(0, 1)),
            target_mean=tr_tg.mean(axis=0),
            target_std=tr_tg.std(axis=0),
        )
    else:
        stats = None

    return SampleSet(
        delays=ztd.values,
        starts=starts,
        window_steps=window_steps,
        targets=targets,
        target_times=times,
        split_labels=labels,
        levels=wind.levels,
        target_stations=wind.stations,
        norm_stats=stats,
    )


def _assign_splits(n: int, split: SplitConfig) -> np.ndarray:
    """Largest-remainder quota split of a seeded shuffle; each split size is
    within one sample of its exact proportion."""
    quotas = np.array(split.ratios, dtype=np.float64) * n
    sizes = np.floor(quotas).astype(int)
    frac_order = np.argsort(-(quotas - sizes), kind="stable")
    for j in range(n - sizes.sum()):
        sizes[frac_order[j % 3]] += 1
    rng = np.random.default_rng(split.seed)
    perm = rng.permutation(n)
    labels = np.empty(n, dtype=np.uint8)
    pos = 0
    for code, size in enumerate(sizes):
        labels[perm[pos : pos + size]] = code
        pos += size
    return labels
