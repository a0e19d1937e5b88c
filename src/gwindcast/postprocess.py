"""Distribution calibration of model outputs by CDF matching.

A :class:`CdfMap` is fitted per output channel from the *train split only*:
the source distribution is the model's train-split predictions, the target
distribution the train-split observations. Two modes:

* ``gaussian_affine`` -- y' = (y - mu_src) / sigma_src * sigma_tgt + mu_tgt;
  channels whose source std is 0 pass through unchanged.
* ``empirical_quantile`` -- y is pushed through the piecewise-linear source
  CDF built on evenly spaced quantiles, then through the inverse target CDF;
  values beyond the sampled range clamp to the end quantiles.

Both modes are monotone non-decreasing per channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import ChannelMismatch, ConfigError, EmptyTrain

MODES = ("gaussian_affine", "empirical_quantile")
_FORMAT_VERSION = 1
_ARRAYS = {"gaussian_affine": ("mu_src", "sigma_src", "mu_tgt", "sigma_tgt"),  # per mode
           "empirical_quantile": ("src_quantiles", "tgt_quantiles")}


@dataclass(frozen=True)
class CdfMap:
    mode: str
    n_channels: int
    mu_src: np.ndarray | None = None
    sigma_src: np.ndarray | None = None
    mu_tgt: np.ndarray | None = None
    sigma_tgt: np.ndarray | None = None
    src_quantiles: np.ndarray | None = None
    tgt_quantiles: np.ndarray | None = None

    @property
    def n_quantiles(self) -> int:
        return 0 if self.src_quantiles is None else self.src_quantiles.shape[1]


def check_cdf_options(mode: str, n_quantiles: int) -> None:
    """ConfigError unless mode is one of MODES and n_quantiles at least 2."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if n_quantiles < 2:
        raise ConfigError("n_quantiles must be at least 2")


def fit_cdf_map(model, samples, mode: str = "gaussian_affine", n_quantiles: int = 101) -> CdfMap:
    """Fit a calibration map on the train split of ``samples``.

    Touches only train inputs and train targets; val/test rows never enter.
    """
    check_cdf_options(mode, n_quantiles)
    tr = samples.indices("train")
    if len(tr) == 0:
        raise EmptyTrain("calibration requires a non-empty train split")
    stats = samples.norm_stats
    preds = stats.denormalize_targets(model.predict(stats.normalize_inputs(samples.inputs[tr])))
    targets = samples.targets[tr]
    n_channels = targets.shape[1]
    if mode == "gaussian_affine":
        return CdfMap(
            mode=mode,
            n_channels=n_channels,
            mu_src=preds.mean(axis=0),
            sigma_src=preds.std(axis=0),
            mu_tgt=targets.mean(axis=0),
            sigma_tgt=targets.std(axis=0),
        )
    q = np.linspace(0.0, 1.0, n_quantiles)
    return CdfMap(
        mode=mode,
        n_channels=n_channels,
        src_quantiles=np.quantile(preds, q, axis=0).T,
        tgt_quantiles=np.quantile(targets, q, axis=0).T,
    )


def apply_cdf_map(cdf: CdfMap, raw: np.ndarray) -> np.ndarray:
    """Calibrate raw per-channel outputs, shape (n, n_channels)."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != cdf.n_channels:
        got = raw.shape[1] if raw.ndim == 2 else raw.ndim
        raise ChannelMismatch(f"map has {cdf.n_channels} channels, input has {got}")
    if cdf.mode == "gaussian_affine":
        gain = np.where(cdf.sigma_src > 0, cdf.sigma_tgt / np.where(cdf.sigma_src > 0, cdf.sigma_src, 1.0), 1.0)
        offset = np.where(cdf.sigma_src > 0, cdf.mu_tgt - cdf.mu_src * gain, 0.0)
        out = raw * gain
        out += offset
        return out
    out = np.empty_like(raw)
    positions = np.linspace(0.0, 1.0, cdf.n_quantiles)
    for c in range(cdf.n_channels):
        src = cdf.src_quantiles[c]
        # collapse ties so the forward CDF keeps a strictly increasing support;
        # a tied node maps to the top of its probability jump
        values = np.unique(src)
        top = np.searchsorted(src, values, side="right") - 1
        u = np.interp(raw[:, c], values, positions[top])
        out[:, c] = np.interp(u, positions, cdf.tgt_quantiles[c])
    return out


def cdf_map_to_dict(cdf: CdfMap) -> dict:
    d = {"format_version": _FORMAT_VERSION, "mode": cdf.mode, "n_channels": cdf.n_channels}
    d.update((name, getattr(cdf, name).tolist()) for name in _ARRAYS[cdf.mode])
    return d


def cdf_map_from_dict(d: dict) -> CdfMap:
    """Inverse of :func:`cdf_map_to_dict`. An unknown version is a
    ConfigError; a missing field a KeyError; an unknown mode, or arrays that
    are not numbers of the map's shape, a ValueError."""
    if d["format_version"] != _FORMAT_VERSION:
        raise ConfigError(f"unsupported calibration file version: {d['format_version']}")
    mode, n = d["mode"], int(d["n_channels"])
    if mode not in MODES:
        raise ValueError(f"unknown calibration mode {mode!r}")
    arrays = {name: np.array(d[name], dtype=np.float64) for name in _ARRAYS[mode]}
    shape = (n,) if mode == "gaussian_affine" else (n, arrays["src_quantiles"].shape[-1])
    for name, arr in arrays.items():
        if arr.shape != shape:
            raise ValueError(f"{name} has shape {arr.shape}, not {shape}")
    return CdfMap(mode=mode, n_channels=n, **arrays)


def write_cdf_map(path, cdf: CdfMap) -> None:
    fileio.write_json(path, cdf_map_to_dict(cdf))


def read_cdf_map(path) -> CdfMap:
    return fileio.read_json(path, "calibration map", cdf_map_from_dict)
