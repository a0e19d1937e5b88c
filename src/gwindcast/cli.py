"""Command-line entry points.

Every subcommand reads one JSON experiment config (``--config``), optionally
patched with repeatable dotted overrides (``--set train.lr=1e-4``). Staged
subcommands (synth, preprocess, train, calibrate, predict, evaluate) compose
into exactly the artifacts the integrated ``run-lead-sweep`` writes: each of
train, calibrate, predict and evaluate makes one call to the harness stage
function that ``run_single_lead`` also calls, with the same per-purpose seeds.
``run-lead-sweep`` and ``run-station-ablation`` each build one list of
(sub-panel, lead, directory) jobs, and one harness loop runs
``run_single_lead`` for each.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import fileio, harness
from .errors import ConfigError, GwindcastError
from .harness import ExperimentConfig, merge_config, parse_override
from .metrics import read_report, write_report
from .model import load_model
from .postprocess import read_cdf_map
from .preprocess import gap_report


def _load_config(args) -> ExperimentConfig:
    d = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                d = json.load(f)
        except ValueError as e:  # bad JSON, bad UTF-8, or an oversized integer
            raise ConfigError(f"config file is not valid UTF-8 JSON: {e}") from e
        if not isinstance(d, dict):
            raise ConfigError("config file must hold a JSON object")
    for text in args.set or []:
        d = merge_config(d, parse_override(text))
    return ExperimentConfig.from_dict(d)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a JSON experiment config")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="dotted config override, repeatable (values parse as JSON)",
    )


# (panel, cube) file names of the scene synth writes and of the one
# preprocess writes for train, calibrate and predict
RAW_SCENE = ("panel.gwcp", "cube.gwcc")
PREPARED_SCENE = ("panel_prepared.gwcp", "cube_prepared.gwcc")


def _read_scene(data_dir, names):
    return (fileio.read_panel(os.path.join(data_dir, names[0])),
            fileio.read_cube(os.path.join(data_dir, names[1])))


def _write_scene(out_dir, names, panel, cube) -> None:
    fileio.write_panel(os.path.join(out_dir, names[0]), panel)
    fileio.write_cube(os.path.join(out_dir, names[1]), cube)


def _samples_for(args, cfg: ExperimentConfig):
    panel, cube = _read_scene(args.data, PREPARED_SCENE)
    lead_steps = harness.lead_steps_for(cfg, args.lead, panel.axis.step)
    return harness.build_run_samples(panel, cube, cfg, lead_steps), lead_steps


# ------------------------------------------------------------ commands ----


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    panel, cube = harness.load_raw_scene(cfg)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_station_csv(os.path.join(args.out, "ztd_stations.csv"), panel.stations)
    fileio.write_station_csv(os.path.join(args.out, "wind_stations.csv"), cube.stations)
    fileio.write_ztd_csv(os.path.join(args.out, "ztd.csv"), panel)
    fileio.write_wind_csv(os.path.join(args.out, "wind.csv"), cube)
    _write_scene(args.out, RAW_SCENE, panel, cube)
    print(f"wrote synthetic scene to {args.out}: "
          f"{len(panel.stations)} delay stations x {panel.axis.count} steps, "
          f"{len(cube.stations)} wind stations x {len(cube.levels.values)} levels")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _load_config(args)
    if args.data:
        panel, cube = _read_scene(args.data, RAW_SCENE)
    else:
        panel, cube = harness.load_raw_scene(cfg)
    report = gap_report(panel)
    panel, cube = harness.finish_scene(panel, cube, cfg)
    os.makedirs(args.out, exist_ok=True)
    _write_scene(args.out, PREPARED_SCENE, panel, cube)
    fileio.write_json(os.path.join(args.out, "gap_report.json"), report)
    print(f"prepared scene in {args.out} "
          f"({report['missing_cells']} of {report['total_cells']} delay cells filled)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    samples, lead_steps = _samples_for(args, cfg)
    model, result = harness.train_stage(samples, cfg, lead_steps, args.out)
    print(f"trained {model.config.arch} for lead {format(args.lead, 'g')} min: "
          f"best val mse {result.best_val:.6g} at epoch {result.best_epoch} "
          f"({len(result.history)} epochs run)")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    samples, _ = _samples_for(args, cfg)
    cdf = harness.calibrate_stage(load_model(args.model), samples, cfg, args.out)
    print(f"fit {cdf.mode} calibration over {cdf.n_channels} channels -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    samples, _ = _samples_for(args, cfg)
    model = load_model(args.model)
    cdf = read_cdf_map(args.cdf) if args.cdf else None
    pred, _ = harness.predict_stage(model, samples, args.split, cdf, args.out)
    print(f"wrote {len(pred.times)} {args.split}-split predictions to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if not (math.isfinite(args.lead) and args.lead >= 0.0):
        raise ConfigError(f"--lead must be a finite, non-negative number of minutes, "
                          f"got {args.lead}")
    pred = fileio.read_series(args.pred)
    truth = fileio.read_series(args.truth)
    report = harness.evaluate_stage(pred, truth, args.lead, args.out)
    for comp in ("u", "v", "w"):
        row = report.row("all", comp)
        print(f"{comp}: rmse={row.rmse:.6g} mae={row.mae:.6g} "
              f"rmspe={row.rmspe:.6g} r={row.r:.6g}")
    print(f"wrote {args.out}")
    return 0


def _print_runs(reports: dict, label, what: str, out) -> None:
    """Each run's pooled scores, labelled by ``label(key)``, in key order."""
    for key in sorted(reports):
        row = reports[key].row("all", "all")
        print(f"{label(key)}: rmse={row.rmse:.6g} rmspe={row.rmspe:.6g} r={row.r:.6g}")
    print(f"wrote {what} artifacts to {out}")


def cmd_run_lead_sweep(args) -> int:
    reports = harness.run_lead_sweep(_load_config(args), args.out)
    _print_runs(reports, lambda lead: f"lead {format(lead, 'g'):>3} min", "sweep", args.out)
    return 0


def cmd_run_station_ablation(args) -> int:
    reports = harness.run_station_ablation(_load_config(args), args.out)
    _print_runs(reports, lambda k: f"k={k:>3} stations", "ablation", args.out)
    return 0


def cmd_compare_baseline(args) -> int:
    baseline = fileio.read_baseline_csv(args.baseline)
    truth = fileio.read_cube(args.truth)
    report = harness.compare_gridded_baseline(baseline, truth)
    write_report(args.out, report)
    row = report.row("all", "all")
    print(f"baseline vs observations: rmse={row.rmse:.6g} mae={row.mae:.6g} "
          f"r={row.r:.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_emit_timeseries(args) -> int:
    pred = fileio.read_series(args.pred)
    truth = fileio.read_series(args.truth)
    paths = harness.emit_timeseries(pred, truth, args.out)
    print(f"wrote {len(paths)} series files to {args.out}")
    return 0


def cmd_show_report(args) -> int:
    report = read_report(args.report)
    print("level,component,rmse,mae,rmspe,r,n_samples")
    for row in report.rows:
        print(f"{row.level},{row.component},{row.rmse:.9g},{row.mae:.9g},"
              f"{row.rmspe:.9g},{row.r:.9g},{row.n_samples}")
    return 0


# --------------------------------------------------------------- main ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwindcast",
        description="Short-term multi-level wind retrieval from dense GNSS "
        "zenith-delay series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate and save a synthetic scene")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="fill gaps and canonicalize station order")
    _add_common(p)
    p.add_argument("--data", help="directory with {}/{} (else per config)".format(*RAW_SCENE))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train one model for one lead")
    _add_common(p)
    p.add_argument("--data", required=True, help="directory from the preprocess step")
    p.add_argument("--lead", type=float, required=True, help="forecast lead in minutes")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fit the distribution-matching map")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--lead", type=float, required=True)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="predict a split and save series")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--lead", type=float, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--cdf", help="calibration map JSON (omit for raw output)")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score saved predictions against truth")
    p.add_argument("--pred", required=True, help="predictions .gwcs path")
    p.add_argument("--truth", required=True, help="truth .gwcs path")
    p.add_argument("--lead", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-lead-sweep", help="train and evaluate every configured lead")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run_lead_sweep)

    p = sub.add_parser(
        "run-station-ablation", help="retrain with the k nearest stations for each k"
    )
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run_station_ablation)

    p = sub.add_parser("compare-baseline", help="score a gridded product at the stations")
    p.add_argument("--baseline", required=True, help="gridded baseline CSV")
    p.add_argument("--truth", required=True, help="observed cube .gwcc path")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_compare_baseline)

    p = sub.add_parser("emit-timeseries", help="write plot-ready mean series CSVs")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emit_timeseries)

    p = sub.add_parser("show-report", help="print a saved report as CSV text")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_show_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GwindcastError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # a missing, unreadable or unwritable path
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
