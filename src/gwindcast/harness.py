"""Experiment orchestration: config handling, seeded end-to-end runs,
lead sweeps, station-count ablations, gridded-baseline comparison, and
plot-ready table emission.

Every run writes a ``manifest.json`` recording the full configuration, its
hash, library versions and input digests; identical configurations produce
byte-identical artifacts. Randomness is derived per (base seed, lead,
purpose) so that runs sharing a lead share their split, initialization and
batch order regardless of which entry point launched them.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, fileio, geo
from .core import (
    COMPONENTS,
    GriddedBaseline,
    TimeAxis,
    WindCube,
    WindSeries,
    ZtdPanel,
    format_iso8601,
    parse_iso8601,
)
from .errors import (ConfigError, DataError, EmptySplit, KTooLarge, Misaligned, NoTemporalOverlap,
                     NumericError)
from .metrics import MetricReport, _fmt, evaluate_series, write_mosaic_tables, write_report
from .model import ModelConfig, WindModel, forecast, save_model
from .postprocess import apply_cdf_map, check_cdf_options, fit_cdf_map, write_cdf_map
from .preprocess import SplitConfig, build_samples, check_window_fits, fill_gaps
from .synthgen import SynthConfig, generate
from .trainer import TrainConfig, train, write_history

DEFAULT_CONFIG = {
    "seed": 20250807,
    "data": {"kind": "synthetic"},
    "synth": asdict(SynthConfig()),
    "window_steps": 6,
    "leads_minutes": [5, 10, 15, 20, 25, 30],
    "ablation_lead_minutes": 30,
    "station_counts": [5, 10, 20, 60],
    "reference": {"lat": 29.3619, "lon": 120.0717},
    "split": {"ratios": [0.7, 0.15, 0.15]},
    "model": {"arch": "transformer", "n_encoder_blocks": 2, "heads": 4},
    "train": {
        "lr": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "max_epochs": 120,
        "patience": 30,
        "batch_size": 128,
    },
    "postprocess": {"mode": "gaussian_affine", "n_quantiles": 101},
    "time_start": None,
    "time_end": None,
}

# the data section of a files scene; a synthetic one holds only its kind
_FILES_DATA = {"kind": "files", "ztd_stations": "", "ztd": "", "wind_stations": "", "wind": ""}
# integer defaults that may take fractional values (checked against the grid)
_MINUTES = ("leads_minutes", "ablation_lead_minutes")

_SEED_SPLIT, _SEED_INIT, _SEED_TRAIN = 1, 2, 3


def merge_config(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins, nested dicts merge key-wise."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def parse_override(text: str) -> dict:
    """'a.b=value' -> nested dict; values parse as JSON, else stay strings."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"override must look like key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    out = value
    for part in reversed(key.split(".")):
        if not part:
            raise ConfigError(f"bad override key {key!r}")
        out = {part: out}
    return out


def _is_number(x, integral: bool = False) -> bool:
    """A finite number but not a bool; with ``integral``, one without a fraction."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, int) or (math.isfinite(x) and (not integral or x.is_integer()))


def _numbers(val, default, name: str):
    """val, checked to have the kind of its numeric default: a number or a
    list of numbers. Where the default is integral (lead minutes aside) so
    must val be, and a float such as 5.0 becomes the int 5."""
    many = isinstance(default, list)
    integral = isinstance(default[0] if many else default, int) and name not in _MINUTES
    items = val if many and isinstance(val, list) else [val]
    if many != isinstance(val, list) or not all(_is_number(x, integral) for x in items):
        raise ConfigError(f"{name} must be {'a list of numbers' if many else 'a number'}"
                          f"{' with no fraction' if integral else ''}, got {val!r}")
    items = [int(x) if integral else x for x in items]
    return items if many else items[0]


def _check_timestamp(val, name: str):
    """val must be null or a string that parse_iso8601 accepts; returns
    None or its epoch seconds."""
    if val is None:
        return None
    if isinstance(val, str):
        try:
            return parse_iso8601(val)
        except ValueError:
            pass
    raise ConfigError(f"{name} must be null or an ISO-8601 timestamp, got {val!r}")


def _expect_types(d: dict, defaults: dict, where: str = "") -> None:
    """Each key must be one of the defaults' keys, and each value must have
    the kind of its default: an object, a string, or as :func:`_numbers`
    checks. Integral numbers are stored as ints."""
    unknown = set(d) - set(defaults)
    if unknown:
        section = where.rstrip(".") or "config"
        raise ConfigError(f"unknown config keys in {section}: {sorted(unknown)}")
    for key, default in defaults.items():
        val, name = d.get(key), where + key
        if isinstance(default, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{name} must be an object, got {val!r}")
            _expect_types(val, default, name + ".")
        elif isinstance(default, str) and not isinstance(val, str):
            raise ConfigError(f"{name} must be a string, got {val!r}")
        elif _is_number(default) or isinstance(default, list):
            d[key] = _numbers(val, default, name)


@dataclass(frozen=True)
class ExperimentConfig:
    """The checked experiment config: the merged dict, which the manifest
    records, and the section configs built from it once at load. The scene
    sets the model's sizes and each lead its seeds, with ``replace``."""

    raw: dict
    synth: SynthConfig
    train: TrainConfig
    model: ModelConfig
    split: SplitConfig

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = merge_config(DEFAULT_CONFIG, d)
        if not isinstance(d["data"], dict) or d["data"].get("kind") not in ("synthetic", "files"):
            raise ConfigError("data.kind must be 'synthetic' or 'files'")
        files = d["data"]["kind"] == "files"
        _expect_types(d, dict(DEFAULT_CONFIG, data=_FILES_DATA) if files else DEFAULT_CONFIG)
        t0 = _check_timestamp(d["time_start"], "time_start")
        t1 = _check_timestamp(d["time_end"], "time_end")
        if t0 is not None and t1 is not None and t0 > t1:
            raise ConfigError(f"time_start {d['time_start']} is later than "
                              f"time_end {d['time_end']}")
        check_cdf_options(d["postprocess"]["mode"], d["postprocess"]["n_quantiles"])
        if d["seed"] < 0:
            raise ConfigError(f"seed must be non-negative, got {d['seed']}")
        counts = d["station_counts"]
        if any(b <= a for a, b in zip(counts, counts[1:])) or any(k < 1 for k in counts):
            raise ConfigError("station_counts must be strictly ascending and at least 1, "
                              f"got {counts}")
        lat, lon = d["reference"]["lat"], d["reference"]["lon"]
        if not (-90 <= lat <= 90 and -180 <= lon <= 180):
            raise ConfigError("reference lat must lie in [-90, 90] and lon in [-180, 180], "
                              f"got ({lat}, {lon})")
        # each section checks itself when built, in this order
        cfg = cls(raw=d, synth=SynthConfig(**d["synth"]), train=TrainConfig(**d["train"]),
                  model=ModelConfig(window_steps=d["window_steps"], **d["model"]),
                  split=SplitConfig(ratios=tuple(d["split"]["ratios"])))
        for key in ("leads_minutes", "station_counts"):
            if not d[key]:
                raise ConfigError(f"{key} must not be empty")
        leads = d["leads_minutes"]
        for i, lead in enumerate(leads):
            if lead in leads[:i]:  # 5 and 5.0 are one lead, trained into one directory
                raise ConfigError(f"leads_minutes repeats the lead of {format(lead, 'g')} min, "
                                  f"got {leads}")
        return cfg

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def window_steps(self) -> int:
        return self.raw["window_steps"]

    @property
    def leads_minutes(self) -> list:
        return [float(x) for x in self.raw["leads_minutes"]]

    @property
    def station_counts(self) -> list:
        return list(self.raw["station_counts"])

    @property
    def ablation_lead_minutes(self) -> float:
        return float(self.raw["ablation_lead_minutes"])

    @property
    def reference(self) -> tuple:
        return (float(self.raw["reference"]["lat"]), float(self.raw["reference"]["lon"]))


def derive_seed(base: int, *key: int) -> int:
    """Stable per-purpose seed derivation from a base seed and integer keys."""
    ss = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def lead_steps_for(cfg: ExperimentConfig, lead_minutes: float, step_seconds: int) -> int:
    lead_s = lead_minutes * 60.0
    steps = int(round(lead_s / step_seconds)) if math.isfinite(lead_s) else 0
    if steps < 1 or abs(steps * step_seconds - lead_s) > 1e-9:
        raise ConfigError(
            f"lead of {lead_minutes} min is not a positive multiple of the {step_seconds}s step"
        )
    return steps


def load_raw_scene(cfg: ExperimentConfig):
    """Generate or read the (panel, cube) pair, time-sliced but unfilled;
    check every configured lead against its time step before any work."""
    data = cfg.raw["data"]
    if data["kind"] == "synthetic":
        _, panel, cube, _ = generate(cfg.synth)
    else:
        zst = fileio.read_station_csv(data["ztd_stations"])
        wst = fileio.read_station_csv(data["wind_stations"])
        panel = fileio.read_ztd_csv(data["ztd"], zst)
        cube = fileio.read_wind_csv(data["wind"], wst)
    for lead in cfg.leads_minutes + [cfg.ablation_lead_minutes]:
        lead_steps_for(cfg, lead, panel.axis.step)
    t0, t1 = cfg.raw.get("time_start"), cfg.raw.get("time_end")
    if t0 is not None or t1 is not None:
        panel = panel.slice_time(*_time_window_indices(panel.axis, t0, t1))
        cube = cube.slice_time(*_time_window_indices(cube.axis, t0, t1))
    return panel, cube


def finish_scene(panel: ZtdPanel, cube: WindCube, cfg: ExperimentConfig):
    """Fill delay gaps and order delay stations by ascending distance from
    the reference point (ties by id), so the first k stations of every run
    are the k nearest."""
    panel = fill_gaps(panel)
    ref_lat, ref_lon = cfg.reference
    order = geo.nearest_station_order(panel.stations, ref_lat, ref_lon)
    return panel.select_stations(order), cube


def prepare_scene(cfg: ExperimentConfig):
    """load_raw_scene followed by finish_scene; NoSamples unless a window
    fits in the finished scene."""
    panel, cube = finish_scene(*load_raw_scene(cfg), cfg)
    check_window_fits(cfg.window_steps, panel.axis.count)
    return panel, cube


def _time_window_indices(axis: TimeAxis, t0, t1):
    ts = axis.timestamps()
    lo = 0 if t0 is None else int(np.searchsorted(ts, parse_iso8601(t0), side="left"))
    hi = axis.count if t1 is None else int(np.searchsorted(ts, parse_iso8601(t1), side="right"))
    if hi <= lo:
        raise DataError("time window leaves no samples")
    return lo, hi


# ---------------------------------------------------- per-lead stages ----
# Each staged command makes one of the *_stage calls and run_single_lead makes
# them in sequence, so both routes write the same bytes by running the same code.


def build_run_samples(panel: ZtdPanel, cube: WindCube, cfg: ExperimentConfig, lead_steps: int):
    split = replace(cfg.split, seed=derive_seed(cfg.seed, lead_steps, _SEED_SPLIT))
    return build_samples(panel, cube, cfg.window_steps, lead_steps, split)


def train_stage(samples, cfg: ExperimentConfig, lead_steps: int, out_dir):
    """Train one lead's model; write checkpoint.gwc and history.csv."""
    mcfg = replace(cfg.model, n_stations=samples.delays.shape[1], output_dim=samples.output_dim)
    model = WindModel(mcfg, seed=derive_seed(cfg.seed, lead_steps, _SEED_INIT))
    tcfg = replace(cfg.train, seed=derive_seed(cfg.seed, lead_steps, _SEED_TRAIN))
    result = train(model, samples, tcfg)
    os.makedirs(out_dir, exist_ok=True)
    save_model(os.path.join(out_dir, "checkpoint.gwc"), model)
    write_history(os.path.join(out_dir, "history.csv"), result.history)
    return model, result


def calibrate_stage(model, samples, cfg: ExperimentConfig, path):
    """Fit the calibration map the ``postprocess`` config sets; write it to path."""
    pp = cfg.raw["postprocess"]
    cdf = fit_cdf_map(model, samples, mode=pp["mode"], n_quantiles=pp["n_quantiles"])
    write_cdf_map(path, cdf)
    return cdf


def predict_stage(model, samples, split, cdf, out_dir):
    """Predict one split, push it through ``cdf`` unless that is None, and
    write predictions.gwcs and truth.gwcs, rows in ascending target time.

    Returns (prediction WindSeries, truth WindSeries)."""
    idx = samples.time_ordered(split)
    if len(idx) == 0:
        raise EmptySplit(f"split {split!r} has no samples")
    rows = forecast(model, samples.norm_stats, samples.windows(idx))
    if cdf is not None:
        if not np.isfinite(rows).all():  # an empirical map clamps an infinite forecast
            raise NumericError("predicted series is not finite before calibration")
        rows = apply_cdf_map(cdf, rows)
    pred = samples.series(idx, rows)
    truth = samples.series(idx, samples.targets[idx])
    os.makedirs(out_dir, exist_ok=True)
    fileio.write_series(os.path.join(out_dir, "predictions.gwcs"), pred)
    fileio.write_series(os.path.join(out_dir, "truth.gwcs"), truth)
    return pred, truth


def evaluate_stage(pred: WindSeries, truth: WindSeries, lead_minutes: float, path) -> MetricReport:
    """Score predictions against truth; write the report to path."""
    report = evaluate_series(pred, truth, lead_minutes)
    write_report(path, report)
    return report


def calibrated_predictions(model, samples, cfg: ExperimentConfig, out_dir):
    """The calibrate and predict stages on the test split, written to out_dir.

    Returns (calibrated WindSeries, truth WindSeries)."""
    cdf = calibrate_stage(model, samples, cfg, os.path.join(out_dir, "cdf_map.json"))
    return predict_stage(model, samples, "test", cdf, out_dir)


def run_single_lead(
    panel: ZtdPanel,
    cube: WindCube,
    cfg: ExperimentConfig,
    lead_minutes: float,
    out_dir,
    eval_station: int | None = None,
):
    """Train, calibrate, predict and evaluate one lead, as the staged commands
    do, and score the constant per-channel train-mean prediction against the
    same truth; write the run artifacts."""
    lead_steps = lead_steps_for(cfg, lead_minutes, panel.axis.step)
    samples = build_run_samples(panel, cube, cfg, lead_steps)
    model, _ = train_stage(samples, cfg, lead_steps, out_dir)
    pred, truth = calibrated_predictions(model, samples, cfg, out_dir)
    mean = samples.targets[samples.indices("train")].mean(axis=0)
    baseline = replace(truth, values=np.broadcast_to(mean.reshape(truth.values.shape[1:]),
                                                     truth.values.shape))
    if eval_station is not None:
        pred, truth, baseline = (series.select_stations([eval_station])
                                 for series in (pred, truth, baseline))
    report = evaluate_stage(pred, truth, lead_minutes, os.path.join(out_dir, "report.json"))
    write_report(os.path.join(out_dir, "baseline_mean_report.json"),
                 evaluate_series(baseline, truth, lead_minutes))
    return report


def _run_jobs(cfg: ExperimentConfig, out_dir, panel: ZtdPanel, cube: WindCube, jobs: dict) -> dict:
    """Run each job, key -> (delay panel, lead minutes, directory name,
    top-level report file, evaluation station), in list order under out_dir;
    write each job's top-level report and the manifest. Returns the reports
    by key."""
    os.makedirs(out_dir, exist_ok=True)
    reports = {}
    for key, (sub, lead, name, _, station) in jobs.items():
        reports[key] = run_single_lead(sub, cube, cfg, lead, os.path.join(out_dir, name), station)
    for key, (_, _, _, report_file, _) in jobs.items():
        write_report(os.path.join(out_dir, report_file), reports[key])
    write_manifest(out_dir, cfg, panel, cube)
    return reports


def run_lead_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Full sweep over ``leads_minutes``; writes per-lead artifacts, the
    (level x lead) mosaic tables, and the run manifest."""
    panel, cube = prepare_scene(cfg)
    jobs = {lead: (panel, lead, f"lead_{format(lead, 'g')}min",
                   f"report_lead_{format(lead, 'g')}min.json", None)
            for lead in cfg.leads_minutes}
    reports = _run_jobs(cfg, out_dir, panel, cube, jobs)
    write_mosaic_tables(out_dir, reports)
    return reports


def reference_wind_station(cube: WindCube, cfg: ExperimentConfig) -> int:
    ref_lat, ref_lon = cfg.reference
    return geo.nearest_station_order(cube.stations, ref_lat, ref_lon)[0]


def run_station_ablation(cfg: ExperimentConfig, out_dir) -> dict:
    """Retrain with the k nearest delay stations for each configured k and
    evaluate at the wind station nearest the reference point."""
    panel, cube = prepare_scene(cfg)
    counts = cfg.station_counts
    if counts[-1] > len(panel.stations):
        raise KTooLarge(
            f"station count {counts[-1]} exceeds the {len(panel.stations)} stations available"
        )
    ref_idx = reference_wind_station(cube, cfg)
    jobs = {k: (panel.select_stations(range(k)), cfg.ablation_lead_minutes, f"k_{k}",
                f"report_k{k}.json", ref_idx)
            for k in counts}
    reports = _run_jobs(cfg, out_dir, panel, cube, jobs)
    _write_ablation_tables(out_dir, reports)
    return reports


def _write_ablation_tables(out_dir, reports: dict) -> None:
    lines = ["stations,component,metric,value"]
    radar = ["stations,component,rmse_over_10,mae_over_10,rmspe,one_minus_r"]
    for k in sorted(reports):
        for comp in COMPONENTS:
            row = reports[k].row("all", comp)
            for metric in ("rmse", "mae", "rmspe", "r"):
                lines.append(f"{k},{comp},{metric},{_fmt(getattr(row, metric))}")
            radar.append(
                f"{k},{comp},{_fmt(row.rmse / 10.0)},{_fmt(row.mae / 10.0)},"
                f"{_fmt(row.rmspe)},{_fmt(1.0 - row.r)}"
            )
    fileio.write_text(os.path.join(out_dir, "ablation_metrics.csv"), "\n".join(lines) + "\n")
    fileio.write_text(os.path.join(out_dir, "ablation_radar.csv"), "\n".join(radar) + "\n")


def write_manifest(out_dir, cfg: ExperimentConfig, panel: ZtdPanel, cube: WindCube) -> None:
    manifest = {
        "config": cfg.raw,
        "config_sha256": fileio.sha256_of_bytes(fileio.canonical_json(cfg.raw).encode()),
        "seed": cfg.seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "inputs": {
            "panel_sha256": fileio.sha256_of_bytes(fileio.panel_to_bytes(panel)),
            "cube_sha256": fileio.sha256_of_bytes(fileio.cube_to_bytes(cube)),
        },
    }
    fileio.write_json(os.path.join(out_dir, "manifest.json"), manifest)


# ------------------------------------------------- gridded baseline ----


def compare_gridded_baseline(baseline: GriddedBaseline, truth: WindCube) -> MetricReport:
    """Score nearest-neighbor baseline extraction against observed winds.

    For each truth station the closest grid point (great-circle), for each
    truth time the closest baseline time (earlier wins ties; no temporal
    interpolation), and for each truth level the closest baseline level are
    taken. Only time steps with a fully observed truth enter the score,
    reported with lead label 0.
    """
    if baseline.levels.kind != truth.levels.kind:
        raise Misaligned(
            f"level kinds differ: baseline {baseline.levels.kind}, truth {truth.levels.kind}"
        )
    t_truth = truth.axis.timestamps()
    if t_truth[-1] < baseline.times[0] or t_truth[0] > baseline.times[-1]:
        raise NoTemporalOverlap("baseline and truth time ranges do not intersect")

    # nearest baseline time per truth time; ties -> earlier baseline time
    pos = np.searchsorted(baseline.times, t_truth)
    pos_lo = np.clip(pos - 1, 0, len(baseline.times) - 1)
    pos_hi = np.clip(pos, 0, len(baseline.times) - 1)
    d_lo = np.abs(t_truth - baseline.times[pos_lo])
    d_hi = np.abs(baseline.times[pos_hi] - t_truth)
    t_idx = np.where(d_lo <= d_hi, pos_lo, pos_hi)

    lev_idx = [
        int(np.argmin(np.abs(np.array(baseline.levels.values) - lv)))
        for lv in truth.levels.values
    ]
    grid_lat, grid_lon = np.meshgrid(baseline.lats, baseline.lons, indexing="ij")
    st_idx = []
    for la, lo in zip(truth.stations.lats, truth.stations.lons):
        d = geo.haversine_km(la, lo, grid_lat.ravel(), grid_lon.ravel())
        st_idx.append(int(np.argmin(d)))
    ii = [i // len(baseline.lons) for i in st_idx]
    jj = [i % len(baseline.lons) for i in st_idx]

    matched = baseline.values[t_idx][:, lev_idx][:, :, ii, jj]
    # fancy-indexing the paired (lat, lon) lists puts stations on one axis
    rows_ok = truth.mask.reshape(truth.axis.count, -1).all(axis=1)
    if not rows_ok.any():
        raise DataError("truth cube has no fully observed time steps")
    truth_series = WindSeries(t_truth[rows_ok], truth.levels, truth.stations,
                              truth.values[rows_ok], truth.mask[rows_ok])
    pred = replace(truth_series, values=matched[rows_ok],
                   mask=np.ones(truth_series.mask.shape, dtype=bool))
    return evaluate_series(pred, truth_series, lead_minutes=0.0)


# ------------------------------------------------------- time series ----


def emit_timeseries(pred: WindSeries, truth: WindSeries, out_dir) -> list:
    """Write plot-ready per-(level, component) station-mean series.

    Files ``timeseries_{level}_{component}.csv`` with columns
    ``timestamp,pred,truth``; one row per target time.
    """
    if not np.array_equal(pred.times, truth.times):
        raise Misaligned("prediction and truth target times differ")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for l, lab in enumerate(pred.levels.labels()):
        safe = lab.replace(".", "p").replace("-", "m")
        for c, comp in enumerate(COMPONENTS):
            p_mean = pred.values[:, l, :, c].mean(axis=1)
            t_mean = truth.values[:, l, :, c].mean(axis=1)
            path = os.path.join(out_dir, f"timeseries_{safe}_{comp}.csv")
            fileio.write_text(path, "timestamp,pred,truth\n" + "".join(
                f"{format_iso8601(ts)},{_fmt(pv)},{_fmt(tv)}\n"
                for ts, pv, tv in zip(pred.times, p_mean, t_mean)))
            paths.append(path)
    return paths
