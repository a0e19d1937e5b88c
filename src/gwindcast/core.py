"""Shared data model: stations, time axes, delay panels, wind cubes, sample sets.

Conventions used throughout the package:

* timestamps are integer epoch seconds (UTC), on a uniform grid;
* arrays are float64, row-major, frozen (read-only) after construction: each
  container lists its array fields and their dtypes in ``_ARRAYS``, and the
  one base class :class:`_FrozenArrays` copies and freezes them;
* missing values are NaN in ``values`` plus ``False`` in the parallel ``mask``;
* wind cubes carry exactly three components, ordered ``(u, v, w)`` where
  u is the eastward, v the northward and w the vertical component in m/s.

Container constructors are deliberately permissive about content so that
:func:`validate` can report invariant violations as data instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

COMPONENTS = ("u", "v", "w")
HEIGHT_M = "height_m"
PRESSURE_HPA = "pressure_hPa"
LEVEL_KINDS = (HEIGHT_M, PRESSURE_HPA)

SPLIT_NAMES = ("train", "val", "test")


def _frozen(a, dtype):
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
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))


class _StationValues(_FrozenArrays):
    """A container of ``values`` plus ``mask``, time first, whose stations
    run along axis ``_STATION_AXIS``."""

    _ARRAYS = {"values": np.float64, "mask": bool}
    _STATION_AXIS = 1

    def select_stations(self, indices):
        indices = list(indices)
        ax = self._STATION_AXIS
        return replace(self, stations=self.stations.subset(indices),
                       values=np.take(self.values, indices, axis=ax),
                       mask=np.take(self.mask, indices, axis=ax))


class _OnAxis(_StationValues):
    """A :class:`_StationValues` whose time axis is a :class:`TimeAxis`."""

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


@dataclass(frozen=True)
class NormStats(_FrozenArrays):
    """Per-input-station and per-target-channel mean/std, from the train split.

    Stds of constant series are stored as 0; normalization treats them as 1
    so constant channels pass through centered instead of dividing by zero.
    """

    _ARRAYS = dict.fromkeys(("input_mean", "input_std", "target_mean", "target_std"), np.float64)

    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray

    @staticmethod
    def _safe(std):
        return np.where(std > 0, std, 1.0)

    @classmethod
    def _standardize(cls, x, mean, std):
        """(x - mean) / std, the division done in the difference's array."""
        out = np.subtract(x, mean)
        out /= cls._safe(std)
        return out

    def normalize_inputs(self, x):
        return self._standardize(x, self.input_mean, self.input_std)

    def normalize_targets(self, y):
        return self._standardize(y, self.target_mean, self.target_std)

    def denormalize_targets(self, y):
        out = np.multiply(y, self._safe(self.target_std))
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
        (time, level, station, component)."""
        values = np.reshape(rows, (len(idx), len(self.levels), len(self.target_stations), 3))
        return WindSeries(self.target_times[idx], self.levels, self.target_stations,
                          values, np.ones(values.shape, dtype=bool))


def validate(obj) -> list:
    """Check container invariants; returns a list of violation strings.

    Violations are data, not failures: callers decide whether to raise.
    """
    out = []
    if isinstance(obj, StationTable):
        seen = {}
        for i, sid in enumerate(obj.ids):
            if sid in seen:
                out.append(f"station_id not unique: {sid!r} at rows {seen[sid]} and {i}")
            seen.setdefault(sid, i)
        for i, la in enumerate(obj.lats):
            if not (-90.0 <= la <= 90.0):
                out.append(f"lat out of [-90, 90] at row {i}: {la}")
        for i, lo in enumerate(obj.lons):
            if not (-180.0 <= lo <= 180.0):
                out.append(f"lon out of [-180, 180] at row {i}: {lo}")
        return out

    if isinstance(obj, LevelSpec):
        if obj.kind not in LEVEL_KINDS:
            out.append(f"level kind unknown: {obj.kind!r}")
        v = obj.values
        if obj.kind == HEIGHT_M and any(b <= a for a, b in zip(v, v[1:])):
            out.append("height levels not strictly ascending")
        if obj.kind == PRESSURE_HPA and any(b >= a for a, b in zip(v, v[1:])):
            out.append("pressure levels not strictly descending")
        return out

    if isinstance(obj, ZtdPanel):
        expect = (obj.axis.count, len(obj.stations))
        if obj.values.shape != expect:
            out.append(f"values shape {obj.values.shape} != (time, station) {expect}")
        if obj.mask.shape != obj.values.shape:
            out.append(f"mask shape {obj.mask.shape} != values shape {obj.values.shape}")
        else:
            bad = obj.mask & ~np.isfinite(obj.values)
            for idx in np.argwhere(bad):
                out.append(f"non-finite value under observed mask at {tuple(int(i) for i in idx)}")
        out.extend(validate(obj.stations))
        return out

    if isinstance(obj, (WindCube, WindSeries)):
        n_t = obj.axis.count if isinstance(obj, WindCube) else len(obj.times)
        expect = (n_t, len(obj.levels), len(obj.stations), 3)
        if obj.values.ndim != 4 or obj.values.shape[3] != 3:
            got = obj.values.shape[3] if obj.values.ndim == 4 else obj.values.ndim
            out.append(f"component axis must have exactly 3 entries (u, v, w); got {got}")
        if obj.values.shape != expect:
            out.append(f"values shape {obj.values.shape} != (time, level, station, 3) {expect}")
        if obj.mask.shape != obj.values.shape:
            out.append(f"mask shape {obj.mask.shape} != values shape {obj.values.shape}")
        elif obj.values.shape == expect:
            bad = obj.mask & ~np.isfinite(obj.values)
            for idx in np.argwhere(bad):
                out.append(f"non-finite value under observed mask at {tuple(int(i) for i in idx)}")
        out.extend(validate(obj.levels))
        out.extend(validate(obj.stations))
        return out

    raise TypeError(f"validate() does not know type {type(obj).__name__}")
