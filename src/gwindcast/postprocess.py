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
lookup tables that interpolate every channel at once. Applying a map then
runs only the affine multiply-add, or, for the empirical map, one of two
paths with the same bits as ``np.interp``: up to ``ONE_PASS_MAX_ROWS``
rows (a serving cycle's one window) one pass over every channel, longer
inputs two ``np.interp`` calls per channel. A map no fit can produce (a
non-finite entry, a decreasing quantile row or a negative sigma) is a
ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fileio
from .core import frozen_copy
from .errors import ChannelMismatch, ConfigError, EmptyTrain, NumericError

MODES = ("gaussian_affine", "empirical_quantile")
_FORMAT_VERSION = 1
_ARRAYS = {"gaussian_affine": ("mu_src", "sigma_src", "mu_tgt", "sigma_tgt"),  # per mode
           "empirical_quantile": ("src_quantiles", "tgt_quantiles")}

# the most rows apply_cdf_map calibrates in one pass over every channel;
# longer inputs take the per-channel np.interp loop. One pass pays a
# binary search of each value over every channel's merged nodes, the loop
# numpy's per-call cost; see apply_cdf_map for the measurements.
ONE_PASS_MAX_ROWS = 16


class _Lookup(NamedTuple):
    """One piecewise-linear interpolation of every channel at once.

    A value x of channel c is searched in the sorted nodes ``grid``;
    ``start[c]`` plus the number of grid nodes at or below x indexes
    ``entry``, which gives the row of ``table`` for the interval x lies in
    (``entry`` None: the index is that row). A row holds the interval's
    (node, value, slope), each channel's rows one block.
    """

    grid: np.ndarray
    start: np.ndarray
    entry: np.ndarray | None
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
    # positions, each channel's (source nodes, their probabilities) and the
    # two lookups of the one-pass path, source CDF then inverse target CDF
    _gain: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _offset: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _positions: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _nodes: tuple = field(default=(), init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_lookups", (_source_lookup(nodes),
                                              _target_lookup(positions, self.tgt_quantiles)))

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


def _source_lookup(nodes) -> _Lookup:
    """The source CDFs of every channel: the grid merges every channel's
    nodes, and entry[start[c] + k] is channel c's first table row plus the
    number of its nodes among the k lowest grid nodes, in the narrowest
    unsigned dtype that holds every row index."""
    grid = np.unique(np.concatenate([values for values, _ in nodes]))
    first = np.cumsum([0] + [len(values) + 1 for values, _ in nodes])
    entry = np.empty((len(nodes), len(grid) + 1), np.min_scalar_type(first[-1] - 1))
    entry[:, 0] = first[:-1]
    for c, (values, _) in enumerate(nodes):
        entry[c, 1:] = first[c] + np.searchsorted(values, grid, side="right")
    table = np.concatenate([_segments(values, probs) for values, probs in nodes])
    return _Lookup(_readonly(grid), _readonly(np.arange(len(nodes)) * entry.shape[1]),
                   _readonly(entry.ravel()), _readonly(table))


def _target_lookup(positions: np.ndarray, tgt_quantiles: np.ndarray) -> _Lookup:
    """The inverse target CDFs of every channel, all on the shared
    positions, so no entry map is needed."""
    table = np.concatenate([_segments(positions, row) for row in tgt_quantiles])
    return _Lookup(positions, _readonly(np.arange(len(tgt_quantiles)) * (len(positions) + 1)),
                   None, _readonly(table))


def _interp_all(x: np.ndarray, lookup: _Lookup) -> np.ndarray:
    """Every channel of x, shape (n, channels), through its piecewise-linear
    map, with np.interp's formula slope * (x - node) + value. On an exact
    node, as at both clamps, the result is the node's value itself, so a
    value of -0.0 stays -0.0 as np.interp keeps it. A key np.interp does not
    evaluate with the formula (NaN or infinite, or with an infinite slope)
    comes out non-finite."""
    k = np.searchsorted(lookup.grid, x, side="right")
    k += lookup.start
    rows = lookup.table.take(k if lookup.entry is None else lookup.entry.take(k), axis=0)
    node, value, slope = rows[..., 0], rows[..., 1], rows[..., 2]
    d = np.subtract(x, node)
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
    stats = samples.norm_stats
    preds = stats.denormalize_targets(model.predict(stats.normalize_inputs(samples.inputs[tr])))
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
    Up to ``ONE_PASS_MAX_ROWS`` rows this runs once over every channel: one
    binary search of all values over the merged source nodes and one over
    the shared quantile positions, each followed by one table gather and
    np.interp's formula. A result that comes out non-finite (an infinite or
    NaN input, or an infinite slope) is computed again by np.interp, which
    keeps its NaN and one-node cases. Longer inputs run two np.interp calls
    per channel, whose search starts from the last interval found and so
    costs less than the merged search there. Per call, in microseconds, for
    27 channels of 101 quantiles (Python 3.11, numpy 2.4, one BLAS thread,
    shared 2-core host; the lower of two runs, each the best of 5 x 200):

    ========  ====  ====  ====  ====  =====  =====  =====
    rows         1     2     4     8     16     32     87
    one pass  20.3  22.2  23.9  29.9   50.0  131.0  439.4
    loop      91.3  98.3  96.6 100.6  110.6  120.0  244.9
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
    if len(raw) > ONE_PASS_MAX_ROWS:
        out = np.empty_like(raw)
        for c, (values, probs) in enumerate(cdf._nodes):
            u = np.interp(raw[:, c], values, probs)
            out[:, c] = np.interp(u, cdf._positions, cdf.tgt_quantiles[c])
        return out
    source, target = cdf._lookups
    with np.errstate(all="ignore"):
        out = _interp_all(_interp_all(raw, source), target)
        if np.isfinite(out).all():  # a non-finite u always gives a non-finite result
            return out
    for r, c in np.argwhere(~np.isfinite(out)):
        values, probs = cdf._nodes[c]
        u = np.interp(raw[r, c], values, probs)
        out[r, c] = np.interp(u, cdf._positions, cdf.tgt_quantiles[c])
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
