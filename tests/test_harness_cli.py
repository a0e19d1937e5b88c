import functools
import json
import os
import shutil
import struct

import numpy as np
import pytest

from gwindcast import cli, fileio, harness
from gwindcast.core import (
    HEIGHT_M,
    PRESSURE_HPA,
    LevelSpec,
    StationTable,
    TimeAxis,
    WindCube,
    WindSeries,
)
from gwindcast.errors import (
    ConfigError,
    DataError,
    KTooLarge,
    Misaligned,
    NoTemporalOverlap,
)
from gwindcast.harness import (
    ExperimentConfig,
    compare_gridded_baseline,
    derive_seed,
    emit_timeseries,
    lead_steps_for,
    merge_config,
    parse_override,
    prepare_scene,
    reference_wind_station,
    run_lead_sweep,
    run_single_lead,
    run_station_ablation,
)
from gwindcast.fileio import read_baseline_csv
from gwindcast.metrics import evaluate_series, read_report


SMALL = {
    "seed": 4242,
    "synth": {
        "seed": 11,
        "n_ztd_stations": 12,
        "n_wind_stations": 2,
        "n_levels": 2,
        "n_steps": 320,
        "latent_dim": 4,
        "noise_std": 0.05,
        "missing_rate": 0.02,
        "lead_coupling_steps": 2,
        "step_seconds": 300,
    },
    "window_steps": 4,
    "leads_minutes": [5.0],
    "ablation_lead_minutes": 5.0,
    "station_counts": [4, 12],
    "model": {"n_encoder_blocks": 1, "heads": 2},
    "train": {"lr": 1e-3, "max_epochs": 4, "patience": 4, "batch_size": 64},
}


def small_config(**extra) -> ExperimentConfig:
    return ExperimentConfig.from_dict(merge_config(SMALL, extra))


# --------------------------------------------------------------- config ----


def test_merge_config_is_deep_and_override_wins():
    base = {"a": 1, "nest": {"x": 1, "y": 2}, "list": [1, 2]}
    out = merge_config(base, {"nest": {"y": 20, "z": 3}, "list": [9]})
    assert out == {"a": 1, "nest": {"x": 1, "y": 20, "z": 3}, "list": [9]}
    assert base["nest"] == {"x": 1, "y": 2}  # untouched


def test_parse_override_types():
    assert parse_override("train.lr=0.01") == {"train": {"lr": 0.01}}
    assert parse_override("leads_minutes=[5,10]") == {"leads_minutes": [5, 10]}
    assert parse_override("data.kind=synthetic") == {"data": {"kind": "synthetic"}}
    assert parse_override("model.arch=mlp") == {"model": {"arch": "mlp"}}
    with pytest.raises(ConfigError):
        parse_override("no_equals_sign")
    with pytest.raises(ConfigError):
        parse_override("=5")
    with pytest.raises(ConfigError):
        parse_override("a..b=5")


def test_experiment_config_defaults_and_validation():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.seed == 20250807
    assert cfg.window_steps == 6
    assert cfg.leads_minutes == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"not_a_key": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"train": {"seed": 3}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"synth": {"n_steps": 0}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"data": {"kind": "database"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"leads_minutes": []})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"window_steps": 0})
    # an integral float is stored as an int; lead minutes may have a fraction
    cfg = ExperimentConfig.from_dict({"train": {"batch_size": 32.0}, "ablation_lead_minutes": 2.5})
    assert type(cfg.raw["train"]["batch_size"]) is int and cfg.ablation_lead_minutes == 2.5
    # a files scene names its four files
    with pytest.raises(ConfigError, match="data.ztd_stations must be a string"):
        ExperimentConfig.from_dict({"data": {"kind": "files"}})


def test_derive_seed_is_stable_and_keyed():
    assert derive_seed(100, 1, 2) == derive_seed(100, 1, 2)
    assert derive_seed(100, 1, 2) != derive_seed(100, 2, 1)
    assert derive_seed(100, 1, 2) != derive_seed(101, 1, 2)
    assert derive_seed(100, 1) != derive_seed(100, 1, 2)
    assert 0 <= derive_seed(0) < 2**64


def test_lead_steps_for():
    cfg = small_config()
    assert lead_steps_for(cfg, 5.0, 300) == 1
    for bad in (7.0, 0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="not a positive multiple"):
            lead_steps_for(cfg, bad, 300)
    assert lead_steps_for(cfg, 30.0, 300) == 6
    with pytest.raises(ConfigError):
        lead_steps_for(cfg, 2.5, 300)
    with pytest.raises(ConfigError):
        lead_steps_for(cfg, 0.0, 300)
    with pytest.raises(ConfigError):
        lead_steps_for(cfg, 7.0, 600)


# ---------------------------------------------------------------- scene ----


def test_prepare_scene_fills_and_orders_by_reference_distance():
    cfg = small_config()
    panel, cube = prepare_scene(cfg)
    assert panel.mask.all()
    assert np.isfinite(panel.values).all()
    from gwindcast import geo

    ref_lat, ref_lon = cfg.reference
    d = geo.haversine_km(panel.stations.lats, panel.stations.lons, ref_lat, ref_lon)
    assert np.all(np.diff(d) >= 0)
    assert cube.values.shape[0] == panel.axis.count


def test_reference_wind_station_picks_nearest():
    cfg = small_config()
    _, cube = prepare_scene(cfg)
    idx = reference_wind_station(cube, cfg)
    from gwindcast import geo

    d = geo.haversine_km(cube.stations.lats, cube.stations.lons, *cfg.reference)
    assert d[idx] == d.min()


# ------------------------------------------------------------ run paths ----


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = small_config()
    reports = run_lead_sweep(cfg, out)
    return cfg, out, reports


def test_run_single_lead_artifacts_are_consistent(small_sweep):
    cfg, out, reports = small_sweep
    lead_dir = os.path.join(out, "lead_5min")
    for name in (
        "checkpoint.gwc",
        "history.csv",
        "cdf_map.json",
        "predictions.gwcs",
        "truth.gwcs",
        "report.json",
        "baseline_mean_report.json",
    ):
        assert os.path.exists(os.path.join(lead_dir, name)), name
    pred = fileio.read_series(os.path.join(lead_dir, "predictions.gwcs"))
    truth = fileio.read_series(os.path.join(lead_dir, "truth.gwcs"))
    saved = read_report(os.path.join(lead_dir, "report.json"))
    recomputed = evaluate_series(pred, truth, 5.0)
    for a, b in zip(saved.rows, recomputed.rows):
        assert a == b
    assert reports[5.0].rows == saved.rows
    # predictions are ordered by target time and live in the test span
    assert np.all(np.diff(pred.times) > 0)


def test_sweep_writes_mosaics_reports_and_manifest(small_sweep):
    cfg, out, reports = small_sweep
    table = (
        open(os.path.join(out, "mosaic_rmse_u.csv"), encoding="utf-8").read().strip().split("\n")
    )
    assert table[0] == "level,lead_5min"
    assert len(table) == 1 + 2  # two height levels
    assert os.path.exists(os.path.join(out, "report_lead_5min.json"))
    manifest = json.load(open(os.path.join(out, "manifest.json"), encoding="utf-8"))
    assert manifest["seed"] == cfg.seed
    assert manifest["config"]["window_steps"] == 4
    assert set(manifest["inputs"]) == {"panel_sha256", "cube_sha256"}
    assert len(manifest["config_sha256"]) == 64
    assert manifest["package_version"]


def test_mean_predictor_report_matches_manual(small_sweep):
    # the run scores the constant train-mean prediction against its test truth
    cfg, out, _ = small_sweep
    panel, cube = prepare_scene(cfg)
    lead_steps = lead_steps_for(cfg, 5.0, panel.axis.step)
    samples = harness.build_run_samples(panel, cube, cfg, lead_steps)
    report = read_report(os.path.join(out, "lead_5min", "baseline_mean_report.json"))
    tr = samples.indices("train")
    te = samples.indices("test")
    mean = samples.targets[tr].mean(axis=0)
    diffs = samples.targets[te] - mean
    want_rmse = float(np.sqrt(np.mean(diffs**2)))
    assert report.row("all", "all").rmse == pytest.approx(want_rmse, rel=1e-12)


def test_sweep_is_byte_deterministic(tmp_path):
    cfg = small_config()
    a = tmp_path / "run_a"
    b = tmp_path / "run_b"
    run_lead_sweep(cfg, a)
    run_lead_sweep(cfg, b)
    for rel in (
        "lead_5min/checkpoint.gwc",
        "lead_5min/history.csv",
        "lead_5min/predictions.gwcs",
        "lead_5min/cdf_map.json",
        "mosaic_rmspe_v.csv",
        "manifest.json",
    ):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_ablation_layout_and_tables(tmp_path):
    cfg = small_config()
    out = tmp_path / "ablation"
    reports = run_station_ablation(cfg, out)
    assert sorted(reports) == [4, 12]
    for k in (4, 12):
        assert (out / f"k_{k}" / "checkpoint.gwc").exists()
        assert (out / f"report_k{k}.json").exists()
    metrics_lines = (out / "ablation_metrics.csv").read_text().strip().split("\n")
    assert metrics_lines[0] == "stations,component,metric,value"
    # 2 counts x 3 components x 4 metrics
    assert len(metrics_lines) == 1 + 2 * 3 * 4
    radar_lines = (out / "ablation_radar.csv").read_text().strip().split("\n")
    assert radar_lines[0] == "stations,component,rmse_over_10,mae_over_10,rmspe,one_minus_r"
    assert len(radar_lines) == 1 + 2 * 3
    first = radar_lines[1].split(",")
    assert first[0] == "4" and first[1] == "u"
    row = reports[4].row("all", "u")
    assert float(first[2]) == pytest.approx(row.rmse / 10.0, rel=1e-7)
    assert float(first[5]) == pytest.approx(1.0 - row.r, rel=1e-7)
    # ablation evaluates a single station, the model and the baseline alike
    assert reports[4].row("all", "all").n_samples == reports[12].row("all", "all").n_samples
    for k in (4, 12):
        truth = fileio.read_series(out / f"k_{k}" / "truth.gwcs")
        baseline = read_report(out / f"k_{k}" / "baseline_mean_report.json")
        n = read_report(out / f"k_{k}" / "report.json").row("all", "all").n_samples
        assert n == truth.values.size // len(truth.stations) < truth.values.size
        assert baseline.row("all", "all").n_samples == n


def test_ablation_rejects_bad_counts(tmp_path):
    # unordered or repeated counts fail when the config loads; a count beyond
    # the scene's stations only when the ablation sees the scene
    for counts in ([12, 4], [4, 4, 12]):
        with pytest.raises(ConfigError):
            small_config(station_counts=counts)
    with pytest.raises(KTooLarge):
        run_station_ablation(small_config(station_counts=[4, 999]), tmp_path / "z")


# ------------------------------------------------------------- baseline ----


def _baseline_csv_text(times, lats, lons, levels, value_fn, kind="pressure_hPa"):
    from gwindcast.core import format_iso8601

    lines = [f"# level_kind={kind}", "timestamp,lat,lon,level,u_ms,v_ms,w_ms"]
    for t in times:
        for la in lats:
            for lo in lons:
                for lev in levels:
                    u, v, w = value_fn(t, la, lo, lev)
                    lines.append(
                        f"{format_iso8601(t)},{la},{lo},{lev},{u},{v},{w}"
                    )
    return "\n".join(lines) + "\n"


def test_read_baseline_csv_grid(tmp_path):
    path = tmp_path / "baseline.csv"
    path.write_text(
        _baseline_csv_text(
            [0, 600], [29.0, 29.5], [120.0, 120.5], [1000.0, 850.0],
            lambda t, la, lo, lev: (t / 600.0, la, lev),
        )
    )
    grid = read_baseline_csv(path)
    assert grid.levels.kind == PRESSURE_HPA
    assert grid.levels.values == (1000.0, 850.0)
    assert grid.values.shape == (2, 2, 2, 2, 3)
    assert grid.values[1, 0, 0, 0, 0] == 1.0  # u at t=600
    assert grid.values[0, 1, 1, 0, 1] == 29.5  # v carries lat
    assert grid.values[0, 0, 0, 0, 2] == 1000.0  # w carries level
    for arr in (grid.times, grid.lats, grid.lons, grid.values):
        with pytest.raises(ValueError):  # frozen like every core container
            arr[0] = 0


def test_read_baseline_csv_rejects_incomplete_grid(tmp_path):
    text = _baseline_csv_text(
        [0, 600], [29.0], [120.0], [1000.0, 850.0], lambda t, la, lo, lev: (1, 2, 3)
    )
    lines = text.strip().split("\n")
    path = tmp_path / "partial.csv"
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one grid row
    with pytest.raises(DataError):
        read_baseline_csv(path)
    # one grid point twice and another missing: the row count matches the grid
    path.write_text("\n".join(lines[:-1] + [lines[2]]) + "\n")
    with pytest.raises(DataError, match=r"partial\.csv: repeated baseline row for "
                                        r"1970-01-01T00:00:00Z,29\.0,120\.0,1000\.0"):
        read_baseline_csv(path)


def test_read_baseline_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# level_kind=pressure_hPa\ttime,lat\n")
    with pytest.raises(DataError):
        read_baseline_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("# level_kind=pressure_hPa\ntimestamp,lat,lon,level,u_ms,v_ms,w_ms\n")
    with pytest.raises(DataError):
        read_baseline_csv(empty)
    short = tmp_path / "short.csv"
    short.write_text("timestamp,lat,lon,level,u_ms,v_ms,w_ms\n1970-01-01T00:00:00Z,29,120,1000,1,2\n")
    with pytest.raises(DataError, match=r"short\.csv, line 2"):
        read_baseline_csv(short)


def _truth_cube(times_start, step, count, lats, lons, levels, values, kind=HEIGHT_M):
    stations = StationTable(
        ids=tuple(f"W{i}" for i in range(len(lats))),
        lats=np.array(lats),
        lons=np.array(lons),
    )
    return WindCube(
        TimeAxis(times_start, step, count),
        LevelSpec(kind, levels),
        stations,
        values,
        np.ones(values.shape, dtype=bool),
    )


def test_compare_baseline_nearest_matching_and_tie(tmp_path):
    # baseline times 0 and 600; truth times 300 and 900: 300 ties -> earlier
    # (t=0), 900 is nearer 600. Baseline u encodes its own time.
    path = tmp_path / "baseline.csv"
    path.write_text(
        _baseline_csv_text(
            [0, 600], [29.0, 29.5], [120.0, 120.5], [500.0],
            lambda t, la, lo, lev: (t / 600.0, 0.0, 0.0),
            kind="height_m",
        )
    )
    grid = read_baseline_csv(path)
    truth_vals = np.zeros((2, 1, 1, 3))
    truth_vals[0, 0, 0, 0] = 0.0  # matches baseline t=0
    truth_vals[1, 0, 0, 0] = 1.0  # matches baseline t=600
    truth = _truth_cube(300, 600, 2, [29.01], [120.01], (500.0,), truth_vals)
    report = compare_gridded_baseline(grid, truth)
    assert report.lead_minutes == 0.0
    assert report.row("all", "u").rmse == pytest.approx(0.0, abs=1e-15)


def test_compare_baseline_clamps_beyond_grid_and_skips_gaps(tmp_path):
    path = tmp_path / "baseline.csv"
    path.write_text(
        _baseline_csv_text(
            [0, 600], [29.0], [120.0], [500.0],
            lambda t, la, lo, lev: (t / 600.0, 0.0, 0.0),
            kind="height_m",
        )
    )
    grid = read_baseline_csv(path)
    values = np.ones((3, 1, 1, 3))
    values[:, 0, 0, 0] = [1.0, 1.0, 1.0]
    truth = _truth_cube(500, 600, 3, [29.0], [120.0], (500.0,), values)
    mask = np.ones(values.shape, dtype=bool)
    mask[1] = False  # drop the middle step entirely
    truth = WindCube(truth.axis, truth.levels, truth.stations, values, mask)
    report = compare_gridded_baseline(grid, truth)
    # remaining rows are t=500 and t=1700, both matched to baseline t=600 (u=1)
    assert report.row("all", "u").rmse == pytest.approx(0.0, abs=1e-15)
    assert report.row("all", "u").n_samples == 2


def test_compare_baseline_rejects_mismatched_kind_and_disjoint_times(tmp_path):
    path = tmp_path / "baseline.csv"
    path.write_text(
        _baseline_csv_text(
            [0, 600], [29.0], [120.0], [850.0],
            lambda t, la, lo, lev: (0.0, 0.0, 0.0),
        )
    )
    grid = read_baseline_csv(path)
    values = np.zeros((2, 1, 1, 3))
    height_truth = _truth_cube(0, 600, 2, [29.0], [120.0], (500.0,), values, kind=HEIGHT_M)
    with pytest.raises(Misaligned):
        compare_gridded_baseline(grid, height_truth)
    far_truth = _truth_cube(10_000, 600, 2, [29.0], [120.0], (850.0,), values, kind=PRESSURE_HPA)
    with pytest.raises(NoTemporalOverlap):
        compare_gridded_baseline(grid, far_truth)


# ----------------------------------------------------------- timeseries ----


def test_emit_timeseries_names_and_content(tmp_path):
    times = 1746595800 + 300 * np.arange(4, dtype=np.int64)
    stations = StationTable(("A", "B"), np.array([29.0, 29.1]), np.array([120.0, 120.1]))
    levels = LevelSpec(PRESSURE_HPA, (1000.0, 852.5))
    rng = np.random.default_rng(0)
    pv = rng.normal(size=(4, 2, 2, 3))
    tv = rng.normal(size=(4, 2, 2, 3))
    pred = WindSeries(times, levels, stations, pv, np.ones(pv.shape, bool))
    truth = WindSeries(times, levels, stations, tv, np.ones(tv.shape, bool))
    paths = emit_timeseries(pred, truth, tmp_path)
    names = sorted(os.path.basename(p) for p in paths)
    assert "timeseries_1000_u.csv" in names
    assert "timeseries_852p5_w.csv" in names  # dot becomes p
    assert len(paths) == 2 * 3
    body = open(os.path.join(tmp_path, "timeseries_1000_u.csv"), encoding="utf-8").read()
    lines = body.strip().split("\n")
    assert lines[0] == "timestamp,pred,truth"
    first = lines[1].split(",")
    assert first[0] == "2025-05-07T05:30:00Z"
    assert float(first[1]) == pytest.approx(pv[0, 0, :, 0].mean(), rel=1e-7)
    assert float(first[2]) == pytest.approx(tv[0, 0, :, 0].mean(), rel=1e-7)

    moved = WindSeries(times + 300, levels, stations, tv, np.ones(tv.shape, bool))
    with pytest.raises(Misaligned):
        emit_timeseries(pred, moved, tmp_path)


# ------------------------------------------------------------------ CLI ----


def _write_config(tmp_path, extra=None) -> str:
    d = merge_config(SMALL, extra or {})
    path = os.path.join(tmp_path, "config.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(d, f)
    return path


def test_cli_staged_pipeline_matches_integrated_sweep(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    raw = os.path.join(tmp_path, "raw")
    prep = os.path.join(tmp_path, "prep")
    trained = os.path.join(tmp_path, "trained")
    preds = os.path.join(tmp_path, "preds")
    cdf_path = os.path.join(tmp_path, "cdf_map.json")
    report_path = os.path.join(tmp_path, "report.json")

    assert cli.main(["synth", "--config", cfg_path, "--out", raw]) == 0
    assert cli.main(["preprocess", "--config", cfg_path, "--data", raw, "--out", prep]) == 0
    assert cli.main([
        "train", "--config", cfg_path, "--data", prep, "--lead", "5", "--out", trained,
    ]) == 0
    assert cli.main([
        "calibrate", "--config", cfg_path, "--data", prep, "--lead", "5",
        "--model", os.path.join(trained, "checkpoint.gwc"), "--out", cdf_path,
    ]) == 0
    assert cli.main([
        "predict", "--config", cfg_path, "--data", prep, "--lead", "5",
        "--model", os.path.join(trained, "checkpoint.gwc"), "--cdf", cdf_path,
        "--split", "test", "--out", preds,
    ]) == 0
    assert cli.main([
        "evaluate", "--pred", os.path.join(preds, "predictions.gwcs"),
        "--truth", os.path.join(preds, "truth.gwcs"),
        "--lead", "5", "--out", report_path,
    ]) == 0

    sweep = os.path.join(tmp_path, "sweep")
    assert cli.main(["run-lead-sweep", "--config", cfg_path, "--out", sweep]) == 0
    lead_dir = os.path.join(sweep, "lead_5min")

    def bytes_of(path):
        with open(path, "rb") as f:
            return f.read()

    pairs = [
        (os.path.join(trained, "checkpoint.gwc"), os.path.join(lead_dir, "checkpoint.gwc")),
        (os.path.join(trained, "history.csv"), os.path.join(lead_dir, "history.csv")),
        (cdf_path, os.path.join(lead_dir, "cdf_map.json")),
        (os.path.join(preds, "predictions.gwcs"), os.path.join(lead_dir, "predictions.gwcs")),
        (os.path.join(preds, "truth.gwcs"), os.path.join(lead_dir, "truth.gwcs")),
        (report_path, os.path.join(lead_dir, "report.json")),
    ]
    for staged, integrated in pairs:
        assert bytes_of(staged) == bytes_of(integrated), staged

    out = capsys.readouterr().out
    assert "wrote sweep artifacts" in out


def test_cli_preprocess_from_config_without_data_dir(tmp_path):
    cfg_path = _write_config(tmp_path)
    prep = os.path.join(tmp_path, "prep")
    assert cli.main(["preprocess", "--config", cfg_path, "--out", prep]) == 0
    report = json.load(open(os.path.join(prep, "gap_report.json"), encoding="utf-8"))
    assert report["total_cells"] == 320 * 12
    panel = fileio.read_panel(os.path.join(prep, "panel_prepared.gwcp"))
    assert panel.mask.all()


def test_cli_overrides_change_the_run(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = os.path.join(tmp_path, "scene")
    assert cli.main([
        "synth", "--config", cfg_path, "--set", "synth.n_ztd_stations=7", "--out", out,
    ]) == 0
    stations = fileio.read_station_csv(os.path.join(out, "ztd_stations.csv"))
    assert len(stations) == 7


def test_cli_show_report_and_emit_timeseries(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    sweep = os.path.join(tmp_path, "sweep")
    assert cli.main(["run-lead-sweep", "--config", cfg_path, "--out", sweep]) == 0
    lead_dir = os.path.join(sweep, "lead_5min")
    capsys.readouterr()
    assert cli.main(["show-report", "--report", os.path.join(lead_dir, "report.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("level,component,rmse,mae,rmspe,r,n_samples")
    ts_dir = os.path.join(tmp_path, "series")
    assert cli.main([
        "emit-timeseries", "--pred", os.path.join(lead_dir, "predictions.gwcs"),
        "--truth", os.path.join(lead_dir, "truth.gwcs"), "--out", ts_dir,
    ]) == 0
    assert os.path.exists(os.path.join(ts_dir, "timeseries_110_u.csv"))


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    # unknown config key -> configuration error
    assert cli.main([
        "synth", "--config", cfg_path, "--set", "nonsense=1",
        "--out", os.path.join(tmp_path, "x"),
    ]) == 2
    # missing input file -> data error
    assert cli.main([
        "evaluate", "--pred", os.path.join(tmp_path, "missing.gwcs"),
        "--truth", os.path.join(tmp_path, "missing2.gwcs"),
        "--out", os.path.join(tmp_path, "r.json"),
    ]) == 3
    # malformed config file -> configuration error
    bad = os.path.join(tmp_path, "bad.json")
    with open(bad, "w", encoding="utf-8") as f:
        f.write("{not json")
    assert cli.main(["synth", "--config", bad, "--out", os.path.join(tmp_path, "y")]) == 2
    # a config file that is not UTF-8 -> configuration error
    with open(bad, "wb") as f:
        f.write(b'{"seed": "\xff"}')
    assert cli.main(["synth", "--config", bad, "--out", os.path.join(tmp_path, "y")]) == 2
    assert "not valid UTF-8 JSON" in capsys.readouterr().err
    # an integer too long for Python to convert -> configuration error
    with open(bad, "w", encoding="utf-8") as f:
        f.write('{"seed": ' + "1" * 5000 + "}")
    assert cli.main(["synth", "--config", bad, "--out", os.path.join(tmp_path, "y")]) == 2
    # a directory where a file is expected -> data error
    assert cli.main(["synth", "--config", str(tmp_path), "--out", os.path.join(tmp_path, "y")]) == 3
    # a value of another kind than its default, or a model the package cannot
    # build -> configuration error
    for override in ('train.batch_size="abc"', "synth.n_steps=true", "synth=5",
                     'leads_minutes="abc"', "split.ratios=5", 'station_counts=["a"]',
                     'model.arch="cnn"', "model.heads=0", "synth.n_steps=300.5",
                     "train.batch_size=2.5", "model.heads=2.5", "split.ratios=[0.5,0.5]",
                     "time_start=5", 'time_end="garbage"', 'postprocess.mode="bogus"',
                     "postprocess.n_quantiles=1", "station_counts=[20,5]", "station_counts=[0,5]",
                     "reference.lat=500", "reference.lon=-180.5", "seed=-1", "synth.seed=-1",
                     "leads_minutes=[5,7]", "train.lr=NaN", "synth.linear_gain=Infinity"):
        assert cli.main([
            "synth", "--config", cfg_path, "--set", override, "--out", os.path.join(tmp_path, "z"),
        ]) == 2
    assert "train.batch_size must be a number" in capsys.readouterr().err
    # a malformed delay row in a data.kind="files" scene -> data error
    raw = os.path.join(tmp_path, "raw")
    assert cli.main(["synth", "--config", cfg_path, "--out", raw]) == 0
    files = {name: os.path.join(raw, name + ".csv")
             for name in ("ztd_stations", "ztd", "wind_stations", "wind")}
    with open(files["ztd"], "a", encoding="utf-8") as f:
        f.write("2025-05-07T05:30:00Z,Z0001,abc\n")
    assert cli.main([
        "preprocess", "--config", cfg_path, "--set", "data=" + json.dumps({"kind": "files", **files}),
        "--out", os.path.join(tmp_path, "prep"),
    ]) == 3
    assert "ztd.csv, line" in capsys.readouterr().err
    # a delay row holding nan, or a station listed twice, is refused by the
    # container the reader builds -> data error
    for name, row, problem in (("ztd", "2025-05-07T05:30:00Z,Z0001,nan", "non-finite value"),
                               ("ztd_stations", "Z0001,29.3,120.1", "not unique")):
        assert cli.main(["synth", "--config", cfg_path, "--out", raw]) == 0
        with open(files[name], "a", encoding="utf-8") as f:
            f.write(row + "\n")
        assert cli.main([
            "preprocess", "--config", cfg_path, "--set", "data=" + json.dumps({"kind": "files", **files}),
            "--out", os.path.join(tmp_path, "prep"),
        ]) == 3
        err = capsys.readouterr().err
        assert f"{name}.csv: " in err and problem in err


@pytest.mark.parametrize("lead", ["nan", "inf", "-inf", "-5"])
def test_cli_evaluate_lead_must_be_finite_and_non_negative(tmp_path, capsys, lead):
    # a configuration error before any file is read: the prediction and
    # truth paths do not exist, which would exit 3, and no report is written
    out = os.path.join(tmp_path, "report.json")
    assert cli.main(["evaluate", "--pred", os.path.join(tmp_path, "missing.gwcs"),
                     "--truth", os.path.join(tmp_path, "missing2.gwcs"),
                     f"--lead={lead}", "--out", out]) == 2
    assert "--lead must be a finite, non-negative number" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_bad_config_exits_2_before_any_work(tmp_path, capsys):
    # the whole config is checked at load, so a bad calibration mode stops the
    # sweep before its first lead trains
    cfg_path = _write_config(tmp_path)
    out = os.path.join(tmp_path, "sweep")
    assert cli.main(["run-lead-sweep", "--config", cfg_path, "--set", "postprocess.mode=bogus",
                     "--out", out]) == 2
    assert "mode must be one of" in capsys.readouterr().err
    assert not os.path.exists(out)
    # a lead off the scene's 5-minute grid stops either run before its output
    # directory is made, whichever lead it is
    for command, override in (("run-lead-sweep", "leads_minutes=[5,7]"),
                              ("run-station-ablation", "ablation_lead_minutes=7")):
        assert cli.main([command, "--config", cfg_path, "--set", override, "--out", out]) == 2
        assert "not a positive multiple of the 300s step" in capsys.readouterr().err
        assert not os.path.exists(out)
    # an ablation over no station counts
    assert cli.main(["run-station-ablation", "--config", cfg_path, "--set", "station_counts=[]",
                     "--out", out]) == 2
    assert "station_counts must not be empty" in capsys.readouterr().err
    assert not os.path.exists(out)
    # a time bound that is not a whole second, or whose UTC year is 0 or 10000
    for key, when in (("time_start", "2025-05-07T00:00:00.500Z"),
                      ("time_start", "0001-01-01T00:00:00+01:00"),
                      ("time_end", "9999-12-31T23:59:59-01:00")):
        assert cli.main(["run-lead-sweep", "--config", cfg_path,
                         "--set", f'{key}="{when}"', "--out", out]) == 2
        assert f"{key} must be null or an ISO-8601 timestamp, got '{when}'" \
            in capsys.readouterr().err
        assert not os.path.exists(out)
    # a lead listed twice, once as an int and once as a float, was trained twice
    # into one directory
    assert cli.main(["run-lead-sweep", "--config", cfg_path, "--set", "leads_minutes=[5,10,5.0]",
                     "--out", out]) == 2
    assert "leads_minutes repeats the lead of 5 min, got [5, 10, 5.0]" in capsys.readouterr().err
    assert not os.path.exists(out)
    # a time window that ends before it starts (one that misses the data is exit 3)
    assert cli.main(["run-lead-sweep", "--config", cfg_path,
                     "--set", 'time_start="2025-05-08T00:00:00Z"',
                     "--set", 'time_end="2025-05-07T00:00:00Z"', "--out", out]) == 2
    assert "time_start 2025-05-08T00:00:00Z is later than time_end" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_window_longer_than_the_scene_exits_3_before_any_work(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = os.path.join(tmp_path, "run")
    for command in ("run-lead-sweep", "run-station-ablation"):
        assert cli.main([command, "--config", cfg_path, "--set", "window_steps=400",
                         "--out", out]) == 3
        assert "400-step window is longer than the 320-step delay panel" in capsys.readouterr().err
        assert not os.path.exists(out)
    # more stations than the scene holds is the ablation's next check, also
    # before --out exists; a window too long is reported first
    for extra, err in (([], "station count 999 exceeds the 12 stations available"),
                       (["--set", "window_steps=400"], "400-step window is longer")):
        assert cli.main(["run-station-ablation", "--config", cfg_path,
                         "--set", "station_counts=[4,999]", *extra, "--out", out]) == 3
        assert err in capsys.readouterr().err
        assert not os.path.exists(out)
    # a one-instant time window is a valid config but too short a scene, and
    # one that misses the scene leaves no samples
    for when, err in (("2025-05-07T06:00:00Z", "4-step window is longer than the 1-step"),
                      ("2030-01-01T00:00:00Z", "time window leaves no samples")):
        assert cli.main(["run-lead-sweep", "--config", cfg_path, "--set", f'time_start="{when}"',
                         "--set", f'time_end="{when}"', "--out", out]) == 3
        assert err in capsys.readouterr().err
        assert not os.path.exists(out)


def _config_keys(defaults: dict, prefix: str = ""):
    """Every key of the defaults as a dotted name, sections and nested keys alike."""
    for key, val in defaults.items():
        yield prefix + key
        if isinstance(val, dict):
            yield from _config_keys(val, prefix + key + ".")


def test_cli_every_config_value_ends_with_a_documented_exit_code(tmp_path, capsys):
    # each key set to each value of a pool holding no valid size above 2, so
    # no case can start a large run; none may raise or exit 1
    cfg_path = _write_config(tmp_path)
    out = os.path.join(tmp_path, "scene")
    pool = ('"x"', "null", "true", "[]", "{}", "-1", "0", "0.5", "NaN", "1e-300")
    for key in _config_keys(harness.DEFAULT_CONFIG):
        for value in pool:
            code = cli.main(["synth", "--config", cfg_path, "--set", f"{key}={value}",
                             "--out", out])
            assert code in (0, 2, 3, 4), (key, value, code)
    capsys.readouterr()


def test_staged_predict_on_a_model_of_another_window_names_the_field(tmp_path, capsys):
    # a model trained on 4-step windows, asked for 6-step ones: exit 3, and
    # the message names window_steps and both values
    cfg_path = _write_config(tmp_path)
    path = functools.partial(os.path.join, str(tmp_path))
    lead = ["--config", cfg_path, "--data", path("prep"), "--lead", "5"]
    for argv in (["synth", "--config", cfg_path, "--out", path("raw")],
                 ["preprocess", "--config", cfg_path, "--data", path("raw"), "--out", path("prep")],
                 ["train", *lead, "--out", path("trained")]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(["predict", *lead, "--set", "window_steps=6", "--out", path("preds"),
                     "--model", path("trained", "checkpoint.gwc")]) == 3
    assert capsys.readouterr().err == (
        "error: window_steps: the model takes 4, the input has 6\n")
    assert not os.path.exists(path("preds"))


def test_cli_malformed_artifacts_exit_3(tmp_path, capsys):
    # each command that reads an artifact ends a malformed one in a data error
    cfg_path = _write_config(tmp_path)
    path = functools.partial(os.path.join, str(tmp_path))
    lead = ["--config", cfg_path, "--data", path("prep"), "--lead", "5"]
    for argv in (["synth", "--config", cfg_path, "--out", path("raw")],
                 ["preprocess", "--config", cfg_path, "--data", path("raw"), "--out", path("prep")],
                 ["train", *lead, "--out", path("trained")],
                 ["calibrate", *lead, "--model", path("trained", "checkpoint.gwc"),
                  "--out", path("cdf.json")],
                 ["predict", *lead, "--model", path("trained", "checkpoint.gwc"), "--out", path("preds")],
                 ["evaluate", "--pred", path("preds", "predictions.gwcs"),
                  "--truth", path("preds", "truth.gwcs"), "--out", path("report.json")]):
        assert cli.main(argv) == 0

    def spoiled(src, dst, edit):  # dst holds edit(the bytes of src)
        with open(src, "rb") as f:
            blob = f.read()
        with open(dst, "wb") as f:
            f.write(edit(blob))
        return dst

    def put(offset, data):
        return lambda blob: blob[:offset] + data + blob[offset + len(data):]

    with open(path("report.json"), encoding="utf-8") as f:
        report = json.load(f)
    del report["rows"][0]["rmse"]
    with open(path("no_rmse.json"), "w", encoding="utf-8") as f:
        json.dump(report, f)
    with open(path("baseline.csv"), "w", encoding="utf-8") as f:
        f.write("# level_kind=height_m\ntimestamp,lat,lon,level,u_ms,v_ms,w_ms\n"
                "2025-05-07T05:30:00Z,29.3,120.1,110,1,2,0\n")
    # a calibration map no fit can produce: a negative sigma or a decreasing
    # quantile row
    with open(path("cdf.json"), encoding="utf-8") as f:
        cdf_map = json.load(f)
    if cdf_map["mode"] == "gaussian_affine":
        cdf_map["sigma_src"][0] = -1.0
    else:
        cdf_map["tgt_quantiles"][0].reverse()
    with open(path("bad.json"), "w", encoding="utf-8") as f:
        json.dump(cdf_map, f)
    os.makedirs(path("bad_prep"))
    shutil.copy(path("prep", "cube_prepared.gwcc"), path("bad_prep"))
    # offsets: a panel's station count follows its 8-byte magic and 24-byte
    # axis, a cube's level-kind byte its axis and level count, and a
    # checkpoint's JSON manifest its magic and manifest length
    spoiled(path("prep", "panel_prepared.gwcp"), path("bad_prep", "panel_prepared.gwcp"),
            put(32, struct.pack("<q", -1)))
    cases = [
        ["evaluate", "--pred", spoiled(path("preds", "predictions.gwcs"), path("cut.gwcs"),
                                       lambda blob: blob[: len(blob) // 2]),
         "--truth", path("preds", "truth.gwcs"), "--out", path("r.json")],
        ["compare-baseline", "--baseline", path("baseline.csv"), "--out", path("r.json"),
         "--truth", spoiled(path("raw", "cube.gwcc"), path("kind.gwcc"), put(40, b"\x07"))],
        ["predict", *lead, "--model", path("trained", "checkpoint.gwc"), "--out", path("p2"),
         "--cdf", spoiled(path("cdf.json"), path("cdf_bad.json"), lambda blob: b"not json")],
        ["predict", *lead, "--model", path("trained", "checkpoint.gwc"), "--out", path("p3"),
         "--cdf", path("bad.json")],
        ["show-report", "--report", path("no_rmse.json")],
        ["calibrate", *lead, "--out", path("c2.json"),
         "--model", spoiled(path("trained", "checkpoint.gwc"), path("garbled.gwc"),
                            put(16, b"garbled!"))],
        ["train", "--config", cfg_path, "--data", path("bad_prep"), "--lead", "5",
         "--out", path("t2")],
    ]
    # a checkpoint with a batch-norm buffer or a parameter of the wrong
    # shape, or a named-array file of another kind, names its file
    arrays, extra = fileio.read_named_arrays(path("trained", "checkpoint.gwc"))
    named = []  # (the file the error names, argv)
    for command, name in (("predict", "enc0.bn1.running_mean"), ("calibrate", "head.b")):
        wrong = {**arrays, name: np.zeros(arrays[name].size + 3)}
        fileio.write_named_arrays(path(f"{name}.gwc"), wrong, extra=extra)
        named.append((path(f"{name}.gwc"), [command, *lead, "--model", path(f"{name}.gwc"),
                                            "--out", path(f"{name}.out")]))
    fileio.write_named_arrays(path("other.gwc"), arrays, extra={"kind": "other"})
    named.append((path("other.gwc"), ["predict", *lead, "--model", path("other.gwc"),
                                      "--out", path("o")]))
    # a baseline grid with a non-finite value or level or a point off the
    # globe names its file
    for name, row in (("nan", "29.3,120.1,110,nan,2,0"), ("inf", "29.3,120.1,110,1,inf,0"),
                      ("lat", "200,120.1,110,1,2,0"), ("level", "29.3,120.1,nan,1,2,0")):
        grid = path(f"grid_{name}.csv")
        with open(grid, "w", encoding="utf-8") as f:
            f.write("# level_kind=height_m\ntimestamp,lat,lon,level,u_ms,v_ms,w_ms\n"
                    f"2025-05-07T05:30:00Z,{row}\n")
        named.append((grid, ["compare-baseline", "--baseline", grid, "--truth", path("raw", "cube.gwcc"),
                             "--out", path(f"grid_{name}.json")]))
    # so does a wind CSV with a NaN level among its levels
    with open(path("raw", "wind_stations.csv"), encoding="utf-8") as f:
        sid = f.read().splitlines()[1].split(",")[0]
    wind = path("wind_nan.csv")
    with open(wind, "w", encoding="utf-8") as f:
        f.write("# level_kind=height_m\ntimestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n"
                + "".join(f"2025-05-07T05:30:00Z,{sid},{lev},3.0,90.0,0.1\n" for lev in (220, "nan", 110)))
    scene = {"kind": "files", "wind": wind,
             **{name: path("raw", f"{name}.csv") for name in ("ztd_stations", "ztd", "wind_stations")}}
    named.append((wind, ["preprocess", "--config", cfg_path, "--set", "data=" + json.dumps(scene),
                         "--out", path("wind_nan")]))
    capsys.readouterr()
    for file, argv in [("", argv) for argv in cases] + named:
        assert cli.main(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {file}") and "Traceback" not in err, (argv[0], err)
        assert not file or not os.path.exists(argv[-1])


def test_cli_non_finite_model_output_exits_4(tmp_path, capsys):
    # a checkpoint or calibration map that makes a non-finite prediction ends
    # in a numeric error, and no predictions are written
    cfg_path = _write_config(tmp_path)
    path = functools.partial(os.path.join, str(tmp_path))
    lead = ["--config", cfg_path, "--data", path("prep"), "--lead", "5"]
    for argv in (["synth", "--config", cfg_path, "--out", path("raw")],
                 ["preprocess", "--config", cfg_path, "--data", path("raw"), "--out", path("prep")],
                 ["train", *lead, "--out", path("trained")],
                 ["calibrate", *lead, "--model", path("trained", "checkpoint.gwc"),
                  "--out", path("cdf.json")],
                 ["calibrate", *lead, "--model", path("trained", "checkpoint.gwc"),
                  "--set", "postprocess.mode=empirical_quantile", "--out", path("emp.json")]):
        assert cli.main(argv) == 0
    arrays, extra = fileio.read_named_arrays(path("trained", "checkpoint.gwc"))
    fileio.write_named_arrays(path("nan.gwc"), {**arrays, "head.b": arrays["head.b"] * np.nan},
                              extra=extra)
    fileio.write_named_arrays(path("huge.gwc"), {**arrays, "head.w": arrays["head.w"] * 0 + 1e307},
                              extra=extra)
    with open(path("cdf.json"), encoding="utf-8") as f:
        cdf_map = json.load(f)
    cdf_map["sigma_src"] = [5e-324] * len(cdf_map["sigma_src"])  # an infinite gain
    with open(path("tiny.json"), "w", encoding="utf-8") as f:
        json.dump(cdf_map, f)
    capsys.readouterr()
    for argv, message in (
            (["predict", *lead, "--model", path("nan.gwc"), "--out", path("p1")],
             "predicted series is not finite"),
            (["predict", *lead, "--model", path("huge.gwc"), "--out", path("p2")],
             "predicted series is not finite"),
            # an empirical map would clamp the infinite forecast to a finite one
            (["predict", *lead, "--model", path("huge.gwc"), "--cdf", path("emp.json"),
              "--out", path("p4")], "predicted series is not finite"),
            (["predict", *lead, "--model", path("trained", "checkpoint.gwc"),
              "--cdf", path("tiny.json"), "--out", path("p3")], "predicted series is not finite"),
            (["calibrate", *lead, "--model", path("nan.gwc"), "--out", path("c.json")],
             "calibration fit on non-finite predictions")):
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv) == 4, argv
        assert message in capsys.readouterr().err
        assert not os.path.exists(argv[-1])


def test_cli_ablation_runs(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"station_counts": [4, 12]})
    out = os.path.join(tmp_path, "ablation")
    assert cli.main(["run-station-ablation", "--config", cfg_path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "ablation_radar.csv"))
    text = capsys.readouterr().out
    assert "k=  4 stations" in text


def test_cli_compare_baseline(tmp_path, capsys):
    # synthesize truth, then a baseline grid that copies one wind station
    cfg = small_config()
    _, cube = prepare_scene(cfg)
    small = cube.slice_time(0, 3)
    truth_path = os.path.join(tmp_path, "truth.gwcc")
    fileio.write_cube(truth_path, small)

    from gwindcast.core import format_iso8601

    sid = 0
    lines = ["# level_kind=height_m", "timestamp,lat,lon,level,u_ms,v_ms,w_ms"]
    for k, ts in enumerate(small.axis.timestamps()):
        for l, lev in enumerate(small.levels.values):
            u, v, w = (float(x) for x in small.values[k, l, sid])
            lines.append(
                f"{format_iso8601(ts)},{float(small.stations.lats[sid])!r},"
                f"{float(small.stations.lons[sid])!r},{lev},{u!r},{v!r},{w!r}"
            )
    baseline_path = os.path.join(tmp_path, "baseline.csv")
    with open(baseline_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

    report_path = os.path.join(tmp_path, "baseline_report.json")
    assert cli.main([
        "compare-baseline", "--baseline", baseline_path,
        "--truth", truth_path, "--out", report_path,
    ]) == 0
    report = read_report(report_path)
    assert report.lead_minutes == 0.0
    # the station the grid copies is matched exactly
    assert report.row("all", "all").rmse >= 0.0
    capsys.readouterr()
