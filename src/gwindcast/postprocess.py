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

A map's arrays are frozen copies, and what depends on the map alone is
computed once, when the map is made: the affine gain and offset, or each
channel's tie-collapsed source nodes with their probabilities and the
lookups that interpolate every channel at once, which grow as channels
times quantiles. Applying a map then runs only the affine multiply-add,
or, for the empirical map, one of two paths with the same bits as
``np.interp``: up to ``ONE_PASS_MAX_ROWS`` rows (a serving cycle's one
window) one pass over every channel, and for longer inputs, or a short one
the pass gives a non-finite result, two ``np.interp`` calls per channel. A
map no fit can produce (a non-finite entry, a decreasing quantile row or a
negative sigma) is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fileio
from .core import frozen_copy
from .errors import ChannelMismatch, ConfigError, EmptyTrain, NumericError
from .model import forecast

MODES = ("gaussian_affine", "empirical_quantile")
_FORMAT_VERSION = 1
_ARRAYS = {"gaussian_affine": ("mu_src", "sigma_src", "mu_tgt", "sigma_tgt"),  # per mode
           "empirical_quantile": ("src_quantiles", "tgt_quantiles")}

# the most rows apply_cdf_map calibrates in one pass over every channel;
# longer inputs take the per-channel np.interp loop. One pass pays a
# binary search of each value over every channel's nodes, the loop numpy's
# per-call cost; see apply_cdf_map for the measurements.
ONE_PASS_MAX_ROWS = 16


class _Lookup(NamedTuple):
    """One piecewise-linear interpolation of every channel at once.

    Channel c's node x is the complex key c + x*j, and ``keys`` holds every
    channel's keys in numpy's complex order (real part, then imaginary
    part), so one sorted array serves every channel. The number of keys at
    or below c + x*j, plus c, is the row of ``table`` for the interval x
    lies in; a row holds the interval's (node, value, slope), each
    channel's rows one block.
    """

    keys: np.ndarray
    table: np.ndarray


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
    # per-map constants: gaussian_affine's gain and offset, or the quantile
    # positions, each channel's (source nodes, their probabilities), the
    # channel index and the two lookups of the one-pass path, source CDF
    # then inverse target CDF
    _gain: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _offset: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _positions: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _nodes: tuple = field(default=(), init=False, repr=False, compare=False)
    _channel: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _lookups: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown calibration mode {self.mode!r}")
        for name in _ARRAYS[self.mode]:
            object.__setattr__(self, name, frozen_copy(getattr(self, name), np.float64))
        n = self.n_channels
        shape = (n,) if self.mode == "gaussian_affine" else (n, *self.src_quantiles.shape[-1:])
        for name in _ARRAYS[self.mode]:
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, not {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a non-finite entry")
        if self.mode == "gaussian_affine":
            if (self.sigma_src < 0).any() or (self.sigma_tgt < 0).any():
                raise ValueError("a sigma is negative")
            ok = self.sigma_src > 0
            gain = np.where(ok, self.sigma_tgt / np.where(ok, self.sigma_src, 1.0), 1.0)
            offset = np.where(ok, self.mu_tgt - self.mu_src * gain, 0.0)
            object.__setattr__(self, "_gain", _readonly(gain))
            object.__setattr__(self, "_offset", _readonly(offset))
            return
        if self.n_quantiles < 2:
            raise ValueError("a quantile row needs at least 2 entries")
        if (np.diff(self.src_quantiles) < 0).any() or (np.diff(self.tgt_quantiles) < 0).any():
            raise ValueError("a quantile row decreases")
        positions = _readonly(np.linspace(0.0, 1.0, self.n_quantiles))
        nodes = []
        for src in self.src_quantiles:
            # collapse ties so the forward CDF keeps a strictly increasing
            # support; a tied node maps to the top of its probability jump
            values = np.unique(src)
            top = np.searchsorted(src, values, side="right") - 1
            nodes.append((_readonly(values), _readonly(positions[top])))
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_nodes", tuple(nodes))
        object.__setattr__(self, "_channel", _readonly(np.arange(n)))
        object.__setattr__(self, "_lookups", (
            _lookup(nodes), _lookup([(positions, row) for row in self.tgt_quantiles])))

    @property
    def n_quantiles(self) -> int:
        return 0 if self.src_quantiles is None else self.src_quantiles.shape[1]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _segments(xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, fp) as one (node, value, slope) row per interval x
    can lie in: below xp[0], then from each node on. The slope is numpy's
    own (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]). The end rows have slope +0.0
    below the first node and -0.0 from the last, so their product with
    x - node is -0.0 for every finite x, and -0.0 + fp is fp exactly."""
    rows = np.empty((len(xp) + 1, 3))
    rows[0] = xp[0], fp[0], 0.0
    rows[1:, 0] = xp
    rows[1:, 1] = fp
    with np.errstate(over="ignore", invalid="ignore"):
        rows[1:-1, 2] = (fp[1:] - fp[:-1]) / (xp[1:] - xp[:-1])
    rows[-1, 2] = -0.0
    return rows


def _lookup(curves) -> _Lookup:
    """The piecewise-linear maps np.interp(x, xp, fp) of every channel, one
    (xp, fp) per channel with xp strictly increasing."""
    counts = [len(xp) for xp, _ in curves]
    keys = np.empty(sum(counts), np.complex128)
    keys.real = np.repeat(np.arange(len(curves)), counts)
    keys.imag = np.concatenate([xp for xp, _ in curves])
    table = np.concatenate([_segments(xp, fp) for xp, fp in curves])
    return _Lookup(_readonly(keys), _readonly(table))


def _interp_all(key: np.ndarray, channel: np.ndarray, lookup: _Lookup) -> np.ndarray:
    """Every value x of key = c + x*j, shape (n, channels), through its
    channel's piecewise-linear map, with np.interp's formula
    slope * (x - node) + value. On an exact node, as at both clamps, the
    result is the node's value itself, so a value of -0.0 stays -0.0 as
    np.interp keeps it, and a -0.0 finds a node of 0.0. A value np.interp
    does not evaluate with the formula (NaN or infinite, or with an
    infinite slope) comes out non-finite; an infinite one stays in its
    channel's rows, and a NaN one, which sorts after every key, indexes a
    row within the table."""
    k = np.searchsorted(lookup.keys, key, side="right")
    k += channel
    rows = lookup.table.take(k, axis=0)
    node, value, slope = rows[..., 0], rows[..., 1], rows[..., 2]
    d = np.subtract(key.imag, node)
    out = np.multiply(slope, d)
    out += value
    np.copyto(out, value, where=d == 0)  # an exact node
    return out


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
    preds = forecast(model, samples.norm_stats, samples.windows(tr))
    targets = samples.targets[tr]
    if mode == "gaussian_affine":
        arrays = dict(mu_src=preds.mean(axis=0), sigma_src=preds.std(axis=0),
                      mu_tgt=targets.mean(axis=0), sigma_tgt=targets.std(axis=0))
    else:
        q = np.linspace(0.0, 1.0, n_quantiles)
        arrays = dict(src_quantiles=np.quantile(preds, q, axis=0).T,
                      tgt_quantiles=np.quantile(targets, q, axis=0).T)
    try:
        return CdfMap(mode=mode, n_channels=targets.shape[1], **arrays)
    except ValueError as e:  # the targets are finite: the model's outputs are not
        raise NumericError(f"calibration fit on non-finite predictions ({e})") from e


def apply_cdf_map(cdf: CdfMap, raw: np.ndarray) -> np.ndarray:
    """Calibrate raw per-channel outputs, shape (n, n_channels).

    An empirical map pushes each channel through its source CDF and its
    inverse target CDF, both as np.interp computes them and with its bits.
    Up to ``ONE_PASS_MAX_ROWS`` rows this runs once over every channel:
    one binary search of all values, each keyed by its channel, over every
    channel's source nodes and one over every channel's quantile positions,
    each followed by one table gather and np.interp's formula. If any
    result comes out non-finite (an infinite or NaN input, or an infinite
    slope), the whole input takes the reference path instead, which keeps
    np.interp's NaN and one-node cases: two np.interp calls per channel.
    Longer inputs always take it, since its search starts from the last
    interval found and so costs less than the keyed search there. Per
    call, in microseconds, for 27 channels of 101 quantiles (Python 3.11,
    numpy 2.4, one BLAS thread, shared 2-core host; the lower of two runs,
    each the best of 5 x 200; building the map takes 630). The channel
    index is the map's own constant, which saves about 1 us per one-row
    call against building it each call:

    ========  ====  ====  ====  ====  =====  =====  =====
    rows         1     2     4     8     16     32     87
    one pass  20.3  22.6  26.8  34.5   49.8   84.6  330.5
    loop      80.2  84.6  86.1  89.9   94.4  106.6  239.4
    ========  ====  ====  ====  ====  =====  =====  =====
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != cdf.n_channels:
        got = raw.shape[1] if raw.ndim == 2 else raw.ndim
        raise ChannelMismatch(f"map has {cdf.n_channels} channels, input has {got}")
    if cdf.mode == "gaussian_affine":
        out = raw * cdf._gain
        out += cdf._offset
        return out
    if len(raw) <= ONE_PASS_MAX_ROWS:
        source, target = cdf._lookups
        # each part assigned on its own: c + 1j * x gives an infinite x a NaN
        # real part
        key = np.empty(raw.shape, np.complex128)
        key.real, key.imag = cdf._channel, raw
        with np.errstate(all="ignore"):
            key.imag = _interp_all(key, cdf._channel, source)
            out = _interp_all(key, cdf._channel, target)
        if np.isfinite(out).all():  # a non-finite u always gives a non-finite result
            return out
    out = np.empty_like(raw)
    for c, (values, probs) in enumerate(cdf._nodes):
        u = np.interp(raw[:, c], values, probs)
        out[:, c] = np.interp(u, cdf._positions, cdf.tgt_quantiles[c])
    return out


def cdf_map_to_dict(cdf: CdfMap) -> dict:
    d = {"format_version": _FORMAT_VERSION, "mode": cdf.mode, "n_channels": cdf.n_channels}
    d.update((name, getattr(cdf, name).tolist()) for name in _ARRAYS[cdf.mode])
    return d


def cdf_map_from_dict(d: dict) -> CdfMap:
    """Inverse of :func:`cdf_map_to_dict`. An unknown version is a
    ConfigError; a missing field a KeyError; an unknown mode, or arrays that
    are not numbers of the map's shape or that no fit can produce, a
    ValueError."""
    if d["format_version"] != _FORMAT_VERSION:
        raise ConfigError(f"unsupported calibration file version: {d['format_version']}")
    arrays = {name: d[name] for name in _ARRAYS.get(d["mode"], ())}
    return CdfMap(mode=d["mode"], n_channels=int(d["n_channels"]), **arrays)


def write_cdf_map(path, cdf: CdfMap) -> None:
    fileio.write_json(path, cdf_map_to_dict(cdf))


def read_cdf_map(path) -> CdfMap:
    return fileio.read_json(path, "calibration map", cdf_map_from_dict)
