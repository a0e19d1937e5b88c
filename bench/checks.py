"""Output checks computed apart from the program.

Nothing here imports gwindcast. The input CSVs and the binary series files
are read by readers written from the format descriptions, the split rule is
re-derived from its documented definition, and every metric is recomputed
in plain numpy. Each check returns a list of error strings; an empty list
means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from datetime import datetime, timezone

import numpy as np

COMPONENTS = ("u", "v", "w")
METRIC_REL = 1e-9  # report rows against the recomputation
MOMENT_REL = 1e-12  # calibration moments against the train split
CYCLE_REL = 1e-10  # one-window forecast against its batch row
ERROR_LIMIT = 0.15  # range-relative u and v error the method must stay under


def close(a, b, rel) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ok = (np.abs(a - b) <= rel * np.abs(b) + 1e-13) | (np.isnan(a) & np.isnan(b))
    return a.shape == b.shape and bool(np.all(ok))


# ----------------------------------------------------------- readers ----


def epoch_seconds(text: str) -> int:
    return int(datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
               .replace(tzinfo=timezone.utc).timestamp())


def read_stations(path):
    """``station_id,lat,lon`` -> (ids, lats, lons) in file order."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["station_id", "lat", "lon"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    ids = [r[0] for r in rows[1:] if r]
    lats = np.array([float(r[1]) for r in rows[1:] if r])
    lons = np.array([float(r[2]) for r in rows[1:] if r])
    return ids, lats, lons


class Scene:
    """The input CSVs of one run, as the checks see them.

    winds has shape (time, level, station, 3) with u = -s sin d,
    v = -s cos d and w as written; levels ascend (heights)."""

    def __init__(self, raw_dir):
        self.wind_ids, self.wind_lats, self.wind_lons = read_stations(
            os.path.join(raw_dir, "wind_stations.csv"))
        ztd_times = set()
        with open(os.path.join(raw_dir, "ztd.csv"), encoding="utf-8") as f:
            if f.readline().strip() != "timestamp,station_id,ztd_m":
                raise ValueError("unexpected delay header")
            for line in f:
                ztd_times.add(line.split(",", 1)[0])
        self.ztd_times = np.array(sorted(epoch_seconds(t) for t in ztd_times), dtype=np.int64)
        rows = []
        with open(os.path.join(raw_dir, "wind.csv"), encoding="utf-8") as f:
            if f.readline().strip() != "# level_kind=height_m":
                raise ValueError("unexpected wind metadata line")
            if f.readline().strip() != "timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms":
                raise ValueError("unexpected wind header")
            for line in f:
                ts, sid, lev, spd, drc, w = line.strip().split(",")
                rows.append((epoch_seconds(ts), sid, float(lev), float(spd), float(drc), float(w)))
        times = sorted({r[0] for r in rows})
        self.levels = np.array(sorted({r[2] for r in rows}))
        self.wind_times = np.array(times, dtype=np.int64)
        t_idx = {t: i for i, t in enumerate(times)}
        l_idx = {v: i for i, v in enumerate(self.levels)}
        s_idx = {s: i for i, s in enumerate(self.wind_ids)}
        self.winds = np.full((len(times), len(self.levels), len(self.wind_ids), 3), np.nan)
        for ts, sid, lev, spd, drc, w in rows:
            rad = math.radians(drc)
            self.winds[t_idx[ts], l_idx[lev], s_idx[sid]] = (
                -spd * math.sin(rad), -spd * math.cos(rad), w)
        self._t_idx = t_idx

    def winds_at(self, times) -> np.ndarray:
        return self.winds[[self._t_idx[int(t)] for t in times]]

    def reference_station(self, ref_lat: float, ref_lon: float) -> int:
        """Index of the wind station nearest the point (haversine, ties by id)."""
        la1, lo1 = math.radians(ref_lat), math.radians(ref_lon)
        best = None
        for i, sid in enumerate(self.wind_ids):
            la2, lo2 = math.radians(self.wind_lats[i]), math.radians(self.wind_lons[i])
            a = (math.sin((la2 - la1) / 2) ** 2
                 + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2) ** 2)
            key = (2 * math.asin(math.sqrt(min(max(a, 0.0), 1.0))), sid)
            if best is None or key < best[0]:
                best = (key, i)
        return best[1]


def read_series(path) -> dict:
    with open(path, "rb") as f:
        return series_from_bytes(f.read(), path)


def series_from_bytes(data: bytes, path="series") -> dict:
    """``.gwcs``: magic, int64 count, int64 times, levels, stations,
    float64 values (time, level, station, 3), uint8 mask."""
    if data[:8] != b"GWCSERS1":
        raise ValueError(f"{path}: not a wind series file")
    pos = 8
    (n_t,) = struct.unpack_from("<q", data, pos)
    pos += 8
    times = np.frombuffer(data, "<i8", n_t, pos).astype(np.int64)
    pos += 8 * n_t
    (n_l,) = struct.unpack_from("<q", data, pos)
    kind = data[pos + 8]
    pos += 9
    levels = np.frombuffer(data, "<f8", n_l, pos).copy()
    pos += 8 * n_l
    (n_s,) = struct.unpack_from("<q", data, pos)
    pos += 8
    ids = []
    for _ in range(n_s):
        (n,) = struct.unpack_from("<H", data, pos)
        ids.append(data[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n + 16
    count = n_t * n_l * n_s * 3
    values = np.frombuffer(data, "<f8", count, pos).reshape(n_t, n_l, n_s, 3).copy()
    pos += 8 * count
    mask = np.frombuffer(data, np.uint8, count, pos).reshape(n_t, n_l, n_s, 3).astype(bool)
    if pos + count != len(data):
        raise ValueError(f"{path}: {len(data) - pos - count} trailing bytes")
    return {"times": times, "level_kind": kind, "levels": levels, "stations": ids,
            "values": values, "mask": mask}


def read_history(path):
    with open(path, encoding="utf-8") as f:
        if f.readline().strip() != "epoch,train_mse,val_mse":
            raise ValueError(f"{path}: unexpected history header")
        return [tuple(float(x) for x in line.split(",")) for line in f if line.strip()]


def tree_digest(root) -> dict:
    """Relative path -> sha256 of every file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


# -------------------------------------------------- split and samples ----


def derive_seed(base: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def split_labels(n: int, ratios, seed: int) -> np.ndarray:
    """Largest-remainder quotas over a seeded permutation: 0 train, 1 val, 2 test."""
    quotas = np.array(ratios, dtype=np.float64) * n
    sizes = np.floor(quotas).astype(int)
    order = np.argsort(-(quotas - sizes), kind="stable")
    for j in range(n - sizes.sum()):
        sizes[order[j % 3]] += 1
    perm = np.random.default_rng(seed).permutation(n)
    labels = np.empty(n, dtype=np.uint8)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    for code in range(3):
        labels[perm[bounds[code] : bounds[code + 1]]] = code
    return labels


class Samples:
    """Sample layout for one lead: window ends on the delay axis whose
    target time exists in the wind file, split as the program documents."""

    def __init__(self, scene: Scene, cfg: dict, lead_minutes: float):
        step = int(scene.ztd_times[1] - scene.ztd_times[0])
        lead_steps = int(round(lead_minutes * 60 / step))
        window = cfg["window_steps"]
        wind_set = set(scene.wind_times.tolist())
        ends = [i for i in range(window - 1, len(scene.ztd_times))
                if int(scene.ztd_times[i]) + lead_steps * step in wind_set]
        self.ends = np.array(ends)
        self.target_times = scene.ztd_times[self.ends] + lead_steps * step
        seed = derive_seed(cfg["seed"], lead_steps, 1)
        self.labels = split_labels(len(ends), cfg["split"]["ratios"], seed)
        self.targets = scene.winds_at(self.target_times)  # (n, level, station, 3)

    def split(self, code: int):
        """(target times, targets) of one split in ascending target time."""
        idx = np.nonzero(self.labels == code)[0]
        idx = idx[np.argsort(self.target_times[idx], kind="stable")]
        return self.target_times[idx], self.targets[idx]


# ------------------------------------------------------------ metrics ----


def _cell_scores(p: np.ndarray, t: np.ndarray):
    """rmse, mae, range-relative rmse and Pearson r of (time, cells...) arrays."""
    p = p.reshape(p.shape[0], -1)
    t = t.reshape(t.shape[0], -1)
    err = p - t
    rmse = math.sqrt(float(np.mean(err * err)))
    mae = float(np.mean(np.abs(err)))
    cell_rmse = np.sqrt(np.mean(err * err, axis=0))
    rng = t.max(axis=0) - t.min(axis=0)
    ok = rng > 0
    rmspe = float(np.mean(cell_rmse[ok] / rng[ok])) if ok.any() else float("nan")
    pc = p - p.mean(axis=0)
    tc = t - t.mean(axis=0)
    sp = np.sqrt(np.sum(pc * pc, axis=0))
    st = np.sqrt(np.sum(tc * tc, axis=0))
    ok = (sp > 0) & (st > 0)
    r = float(np.mean(np.sum(pc * tc, axis=0)[ok] / (sp[ok] * st[ok]))) if ok.any() else float("nan")
    return {"rmse": rmse, "mae": mae, "rmspe": rmspe, "r": r}


def report_rows(pred: np.ndarray, truth: np.ndarray, level_labels) -> dict:
    """(level label, component) -> scores, for (time, level, station, 3) arrays."""
    out = {}
    for l, lab in enumerate(level_labels):
        for c, comp in enumerate(COMPONENTS):
            out[(lab, comp)] = _cell_scores(pred[:, l, :, c], truth[:, l, :, c])
    for c, comp in enumerate(COMPONENTS):
        out[("all", comp)] = _cell_scores(pred[..., c], truth[..., c])
    out[("all", "all")] = _cell_scores(pred, truth)
    return out


def uv_error(pred, truth) -> float:
    """Mean over u and v of the pooled range-relative error."""
    rows = report_rows(pred, truth, [])
    return (rows[("all", "u")]["rmspe"] + rows[("all", "v")]["rmspe"]) / 2


def _degenerate_r(a, b) -> bool:
    """Pearson r of a constant forecast: undefined (NaN) on one side and a
    rounding residue on the other, since the column mean of a constant
    column need not equal the constant in floating point."""
    return (math.isnan(a) and abs(b) < 1e-9) or (math.isnan(b) and abs(a) < 1e-9)


def check_report(path, pred, truth, where) -> list:
    """Every row of a report.json against the plain-numpy recomputation."""
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    want = report_rows(pred, truth, report["level_labels"])
    errors = []
    if len(report["rows"]) != len(want):
        errors.append(f"{where}: {len(report['rows'])} report rows, expected {len(want)}")
    for row in report["rows"]:
        key = (row["level"], row["component"])
        if key not in want:
            errors.append(f"{where}: unexpected row {key}")
            continue
        for metric, value in want[key].items():
            if metric == "r" and _degenerate_r(row[metric], value):
                continue
            if not close(row[metric], value, METRIC_REL):
                errors.append(f"{where}: {key} {metric} {row[metric]!r} != recomputed {value!r}")
    return errors


# ------------------------------------------------------------- checks ----


def check_lead_dir(scene: Scene, cfg: dict, lead_dir, lead_minutes, eval_station=None,
                   check_quality=True):
    """Artifacts of one trained lead or ablation arm. Returns the errors and
    the recomputed u and v test error at the scored stations."""
    errors = []
    where = lead_dir
    samples = Samples(scene, cfg, lead_minutes)
    pred = read_series(os.path.join(lead_dir, "predictions.gwcs"))
    truth = read_series(os.path.join(lead_dir, "truth.gwcs"))
    test_times, test_truth = samples.split(2)
    if not np.array_equal(truth["times"], test_times):
        return [f"{where}: truth times are not the test-split target times"], math.nan
    if not np.array_equal(pred["times"], test_times):
        return [f"{where}: prediction times are not the test-split target times"], math.nan
    if not close(truth["values"], test_truth, 1e-12):
        errors.append(f"{where}: truth series differs from the CSV winds at the target times")
    p, t = pred["values"], test_truth
    _, train_targets = samples.split(0)
    mean_pred = np.broadcast_to(train_targets.mean(axis=0), t.shape)
    if eval_station is not None:
        p, t, mean_pred = (a[:, :, [eval_station]] for a in (p, t, mean_pred))
    errors += check_report(os.path.join(lead_dir, "report.json"), p, t, where)
    errors += check_report(os.path.join(lead_dir, "baseline_mean_report.json"),
                           mean_pred, t, where + " (mean predictor)")
    if check_quality:
        errors += check_quality_bound(p, t, mean_pred, where)
    with open(os.path.join(lead_dir, "cdf_map.json"), encoding="utf-8") as f:
        cdf = json.load(f)
    errors += check_cdf_map(cdf, train_targets.reshape(len(train_targets), -1), where)
    return errors, uv_error(p, t)


def check_quality_bound(pred, truth, mean_pred, where) -> list:
    """u and v range-relative error under the limit and under the train mean."""
    errors = []
    model = report_rows(pred, truth, [])
    base = report_rows(mean_pred, truth, [])
    for comp in ("u", "v"):
        e, b = model[("all", comp)]["rmspe"], base[("all", comp)]["rmspe"]
        if not e < ERROR_LIMIT:
            errors.append(f"{where}: {comp} error {e:.4g} not below {ERROR_LIMIT}")
        if not e < b:
            errors.append(f"{where}: {comp} error {e:.4g} not below the train-mean {b:.4g}")
    return errors


def check_cdf_map(cdf: dict, train_targets: np.ndarray, where) -> list:
    """Affine maps carry the train moments; quantile maps are monotone and
    end at the extreme train quantiles."""
    errors = []
    if cdf["mode"] == "gaussian_affine":
        if not close(cdf["mu_tgt"], train_targets.mean(axis=0), MOMENT_REL):
            errors.append(f"{where}: affine target means differ from the train split")
        if not close(cdf["sigma_tgt"], train_targets.std(axis=0), MOMENT_REL):
            errors.append(f"{where}: affine target stds differ from the train split")
        return errors
    for name in ("src_quantiles", "tgt_quantiles"):
        q = np.array(cdf[name])
        if not np.all(np.diff(q, axis=1) >= 0):
            errors.append(f"{where}: {name} not monotone in every channel")
    ends = np.quantile(train_targets, [0.0, 1.0], axis=0).T
    tgt = np.array(cdf["tgt_quantiles"])
    if not close(tgt[:, [0, -1]], ends, MOMENT_REL):
        errors.append(f"{where}: end target quantiles differ from the train split")
    return errors


def check_history(history_path, best_val, where) -> list:
    hist = read_history(history_path)
    low = min(h[2] for h in hist)
    if best_val != low:
        return [f"{where}: best_val {best_val!r} != history minimum {low!r}"]
    return []


def check_identical(dirs) -> list:
    """Every round's artifact tree byte-identical to the first."""
    first = tree_digest(dirs[0])
    errors = []
    for d in dirs[1:]:
        other = tree_digest(d)
        if other != first:
            diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
            errors.append(f"{d}: differs from {dirs[0]} in {diff[:5]}")
    return errors


def check_cycles(cycles: np.ndarray, batch: np.ndarray, where) -> list:
    """Per row: |cycle - batch| within CYCLE_REL of the batch row's norm."""
    a = cycles.reshape(len(cycles), -1)
    b = batch.reshape(len(batch), -1)
    if a.shape != b.shape:
        return [f"{where}: {a.shape} cycle rows against {b.shape} batch rows"]
    gap = np.linalg.norm(a - b, axis=1)
    bad = np.nonzero(~(gap <= CYCLE_REL * np.linalg.norm(b, axis=1)))[0]
    if len(bad):
        return [f"{where}: {len(bad)} cycle rows differ from the batch re-forecast, first {bad[0]}"]
    return []
