"""Shared data model: stations, time axes, delay panels, wind cubes, sample sets.

Conventions used throughout the package:

* timestamps are integer epoch seconds (UTC), on a uniform grid;
* arrays are float64, row-major, frozen (read-only) after construction: each
  container lists its array fields and their dtypes in ``_ARRAYS``, and the
  one base class :class:`_FrozenArrays` copies and freezes them;
* missing values are NaN in ``values`` plus ``False`` in the parallel ``mask``;
* wind cubes carry exactly three components, ordered ``(u, v, w)`` where
  u is the eastward, v the northward and w the vertical component in m/s.

Each container checks its invariants when it is made, after its arrays are
frozen, and raises ValueError at the first violation, so an invalid one
cannot exist, whether it was read, built or derived by ``replace``,
``select_stations`` or ``slice_time``. Station ids are unique and
coordinates lie on the globe; levels have a known kind, are finite and run
bottom-up; values have the shape the other fields give, mask has the shape
of values, and every observed value is finite. The readers in
:mod:`gwindcast.fileio` turn the ValueError into a DataError naming the
file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from .errors import NumericError

COMPONENTS = ("u", "v", "w")
HEIGHT_M = "height_m"
PRESSURE_HPA = "pressure_hPa"
LEVEL_KINDS = (HEIGHT_M, PRESSURE_HPA)

SPLIT_NAMES = ("train", "val", "test")


def frozen_copy(a, dtype):
    # canonical C layout so reductions sum in one fixed order regardless of
    # how the source array was produced (views, transposes, disk round trips)
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


class _FrozenArrays:
    """Base of the containers: after construction, each field that
    ``_ARRAYS`` names holds a frozen C-ordered copy in the dtype listed."""

    _ARRAYS = {}

    def __post_init__(self):
        for name, dtype in self._ARRAYS.items():
            object.__setattr__(self, name, frozen_copy(getattr(self, name), dtype))


def _check_on_globe(lats, lons, at: str) -> None:
    """ValueError naming the first lat outside [-90, 90], else the first lon
    outside [-180, 180]; NaN is outside both."""
    for name, coords, bound in (("lat", lats, 90), ("lon", lons, 180)):
        bad = np.flatnonzero(~(np.abs(coords) <= bound))
        if bad.size:
            raise ValueError(f"{name} out of [-{bound}, {bound}] at {at} {bad[0]}: {coords[bad[0]]}")


class _StationValues(_FrozenArrays):
    """A container of ``values`` plus ``mask``, time first, whose stations
    run along axis ``_STATION_AXIS``: 1 for delays, 2 for wind, which has
    levels before the stations and the three components after them."""

    _ARRAYS = {"values": np.float64, "mask": bool}
    _STATION_AXIS = 1

    def __post_init__(self):
        super().__post_init__()
        shape, n_s = self.values.shape, len(self.stations)
        if self._STATION_AXIS == 1:
            expect, axes = (self._n_times(), n_s), "(time, station)"
        else:
            expect, axes = (self._n_times(), len(self.levels), n_s, 3), "(time, level, station, 3)"
        if shape != expect:
            raise ValueError(f"values shape {shape} != {axes} {expect}")
        if self.mask.shape != shape:
            raise ValueError(f"mask shape {self.mask.shape} != values shape {shape}")
        bad = ~np.isfinite(self.values)
        bad &= self.mask
        if bad.any():
            at = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"non-finite value under observed mask at {at}")

    def select_stations(self, indices):
        indices = list(indices)
        ax = self._STATION_AXIS
        return replace(self, stations=self.stations.subset(indices),
                       values=np.take(self.values, indices, axis=ax),
                       mask=np.take(self.mask, indices, axis=ax))


class _OnAxis(_StationValues):
    """A :class:`_StationValues` whose time axis is a :class:`TimeAxis`."""

    def _n_times(self) -> int:
        return self.axis.count

    def slice_time(self, i0: int, i1: int):
        axis = TimeAxis(self.axis.time_at(i0), self.axis.step, i1 - i0)
        return replace(self, axis=axis, values=self.values[i0:i1], mask=self.mask[i0:i1])


def parse_iso8601(text: str) -> int:
    """ISO-8601 UTC timestamp -> epoch seconds."""
    text = text.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_iso8601(epoch_s: int) -> str:
    return datetime.fromtimestamp(int(epoch_s), tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


@dataclass(frozen=True)
class StationTable(_FrozenArrays):
    """Stations in a fixed column order: ids plus coordinates in degrees."""

    _ARRAYS = {"lats": np.float64, "lons": np.float64}

    ids: tuple
    lats: np.ndarray
    lons: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        super().__post_init__()
        first = {}
        for i, sid in enumerate(self.ids):
            j = first.setdefault(sid, i)
            if j != i:
                raise ValueError(f"station_id not unique: {sid!r} at rows {j} and {i}")
        _check_on_globe(self.lats, self.lons, "row")

    @classmethod
    def from_entries(cls, entries) -> "StationTable":
        """Build from an iterable of (station_id, lat, lon)."""
        entries = list(entries)
        return cls(
            ids=tuple(e[0] for e in entries),
            lats=np.array([e[1] for e in entries], dtype=np.float64),
            lons=np.array([e[2] for e in entries], dtype=np.float64),
        )

    @property
    def entries(self):
        return [(i, float(la), float(lo)) for i, la, lo in zip(self.ids, self.lats, self.lons)]

    def __len__(self) -> int:
        return len(self.ids)

    def subset(self, indices) -> "StationTable":
        indices = list(indices)
        return StationTable(
            ids=tuple(self.ids[i] for i in indices),
            lats=self.lats[indices],
            lons=self.lons[indices],
        )


@dataclass(frozen=True)
class TimeAxis:
    """Uniform time grid: timestamps are ``start + k*step`` for k in [0, count)."""

    start: int
    step: int = 300
    count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "step", int(self.step))
        object.__setattr__(self, "count", int(self.count))
        if self.step <= 0:
            raise ValueError("TimeAxis.step must be positive")
        if self.count <= 0:
            raise ValueError("TimeAxis.count must be positive")

    @property
    def end(self) -> int:
        return self.start + (self.count - 1) * self.step

    def timestamps(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count, dtype=np.int64)

    def time_at(self, index: int) -> int:
        if not 0 <= index < self.count:
            raise IndexError(f"index {index} outside [0, {self.count})")
        return self.start + index * self.step


@dataclass(frozen=True)
class LevelSpec:
    """Vertical levels, either heights in meters (ascending) or pressures in
    hPa (descending, i.e. also bottom-up)."""

    kind: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.kind not in LEVEL_KINDS:
            raise ValueError(f"level kind unknown: {self.kind!r}")
        v = self.values
        bad = [x for x in v if not math.isfinite(x)]
        if bad:
            raise ValueError(f"level not finite: {bad[0]}")
        # "not b > a" rather than "b <= a", so the order check alone fails NaN
        if self.kind == HEIGHT_M and any(not b > a for a, b in zip(v, v[1:])):
            raise ValueError("height levels not strictly ascending")
        if self.kind == PRESSURE_HPA and any(not b < a for a, b in zip(v, v[1:])):
            raise ValueError("pressure levels not strictly descending")

    def __len__(self) -> int:
        return len(self.values)

    def labels(self) -> list:
        return [format(v, "g") for v in self.values]


@dataclass(frozen=True)
class ZtdPanel(_OnAxis):
    """Zenith total delay series, shape (time, station), delays in meters."""

    axis: TimeAxis
    stations: StationTable
    values: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class WindCube(_OnAxis):
    """Wind fields, shape (time, level, station, component); components (u, v, w)."""

    _STATION_AXIS = 2

    axis: TimeAxis
    levels: LevelSpec
    stations: StationTable
    values: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class WindSeries(_StationValues):
    """Wind values at an explicit (possibly non-uniform) list of timestamps.

    Used for split-level predictions where target times are a scattered
    subset of the original axis. Shape (time, level, station, component).
    """

    _ARRAYS = {"times": np.int64, **_StationValues._ARRAYS}
    _STATION_AXIS = 2

    times: np.ndarray
    levels: LevelSpec
    stations: StationTable
    values: np.ndarray
    mask: np.ndarray

    def _n_times(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class GriddedBaseline(_FrozenArrays):
    """A regular lat/lon/level/time wind grid, e.g. extracted reanalysis.

    values has shape (time, level, lat, lon, 3) with components (u, v, w);
    every value is finite and every grid point on the globe.
    """

    _ARRAYS = {"times": np.int64, "lats": np.float64, "lons": np.float64, "values": np.float64}

    times: np.ndarray
    levels: LevelSpec
    lats: np.ndarray
    lons: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        _check_on_globe(self.lats, self.lons, "grid index")
        bad = np.argwhere(~np.isfinite(self.values))
        if len(bad):
            raise ValueError(f"non-finite value at {tuple(int(i) for i in bad[0])}")


@dataclass(frozen=True)
class NormStats(_FrozenArrays):
    """Per-input-station and per-target-channel mean/std, from the train split.

    Stds of constant series are stored as 0; normalization treats them as 1
    so constant channels pass through centered instead of dividing by zero.
    Those safe stds are computed once, at construction.
    """

    _ARRAYS = dict.fromkeys(("input_mean", "input_std", "target_mean", "target_std"), np.float64)

    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray
    _input_scale: np.ndarray = field(init=False, repr=False, compare=False)
    _target_scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        for name, std in (("_input_scale", self.input_std), ("_target_scale", self.target_std)):
            object.__setattr__(self, name, frozen_copy(np.where(std > 0, std, 1.0), np.float64))

    @staticmethod
    def _standardize(x, mean, scale):
        """(x - mean) / scale, the division done in the difference's array."""
        out = np.subtract(x, mean)
        out /= scale
        return out

    def normalize_inputs(self, x):
        return self._standardize(x, self.input_mean, self._input_scale)

    def normalize_targets(self, y):
        return self._standardize(y, self.target_mean, self._target_scale)

    def denormalize_targets(self, y):
        out = np.multiply(y, self._target_scale)
        out += self.target_mean
        return out


@dataclass(frozen=True)
class SampleSet(_FrozenArrays):
    """Windowed (input, target) pairs ready for model training.

    inputs   -- (n_samples, window_steps, n_input_stations), unnormalized
    targets  -- (n_samples, output_dim), unnormalized; output_dim flattens
                (level, station, component) row-major
    split_labels -- per-sample code: 0 train, 1 val, 2 test
    """

    _ARRAYS = {"inputs": np.float64, "targets": np.float64,
               "target_times": np.int64, "split_labels": np.uint8}

    inputs: np.ndarray
    targets: np.ndarray
    window_steps: int
    lead_steps: int
    step_seconds: int
    target_times: np.ndarray
    split_labels: np.ndarray
    levels: LevelSpec
    target_stations: StationTable
    input_stations: StationTable
    norm_stats: NormStats | None

    @property
    def output_dim(self) -> int:
        return self.targets.shape[1]

    def indices(self, split) -> np.ndarray:
        """Sample indices of a split ('train'|'val'|'test' or code), in sample order."""
        code = SPLIT_NAMES.index(split) if isinstance(split, str) else int(split)
        return np.nonzero(self.split_labels == code)[0]

    def time_ordered(self, split) -> np.ndarray:
        """Sample indices of a split in stable ascending target-time order."""
        idx = self.indices(split)
        return idx[np.argsort(self.target_times[idx], kind="stable")]

    def series(self, idx, rows) -> WindSeries:
        """Per-sample rows (one ``output_dim`` row per index in ``idx``) as a
        fully observed WindSeries at those samples' target times, unfolded to
        (time, level, station, component). A non-finite row value, which only
        a model or map can make, is a NumericError."""
        values = np.reshape(rows, (len(idx), len(self.levels), len(self.target_stations), 3))
        try:
            return WindSeries(self.target_times[idx], self.levels, self.target_stations,
                              values, np.ones(values.shape, dtype=bool))
        except ValueError as e:
            raise NumericError(f"predicted series is not finite ({e})") from e

