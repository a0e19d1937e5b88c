"""Check that the working tree writes the same bytes as another commit.

Usage: python tools/same_bytes.py BASE_REF

Runs a fixed list of gwindcast commands twice: once on the package source
of BASE_REF (exported with ``git archive``) and once on the working tree's
``src/``. Every command runs with one BLAS thread, because artifacts are
byte-identical only at a fixed thread count. Each side runs in its own
temporary directory under the same relative paths, so printed paths match.
Then every file the commands wrote and every line they printed (stderr
too) is compared; the ones that differ are listed. The exit status is 1 if
any differ, or if a command exits at BASE_REF with a status other than the
one it expects: 0, unless its entry names another, as an error path's does.

Needs git on PATH; uses only the standard library.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the tests' small scene: 12 delay stations, one 2-head block, 4 epochs
SMALL = {
    "seed": 4242,
    "synth": {"seed": 11, "n_ztd_stations": 12, "n_wind_stations": 2, "n_levels": 2,
              "n_steps": 320, "latent_dim": 4, "noise_std": 0.05, "missing_rate": 0.02,
              "lead_coupling_steps": 2, "step_seconds": 300},
    "window_steps": 4,
    "leads_minutes": [5.0],
    "ablation_lead_minutes": 5.0,
    "station_counts": [4, 12],
    "model": {"n_encoder_blocks": 1, "heads": 2},
    "train": {"lr": 1e-3, "max_epochs": 4, "patience": 4, "batch_size": 64},
}

_STAGED = ["--config", "small.json", "--set", 'postprocess.mode="empirical_quantile"',
           "--set", "leads_minutes=[5,10]"]


def _files_scene(top: str) -> str:
    """A data.kind="files" scene of the four CSV files under top."""
    return json.dumps({"kind": "files", **{name: f"{top}/{name}.csv" for name in
                                           ("ztd_stations", "ztd", "wind_stations", "wind")}})


# the staged synth's CSV files as a data.kind="files" scene
_CSV_SCENE = _files_scene("staged/raw")

# a 3-time x 2-lat x 2-lon x 3-level height grid over the small scene
BASELINE = "# level_kind=height_m\ntimestamp,lat,lon,level,u_ms,v_ms,w_ms\n" + "".join(
    f"2025-05-07T{hhmm}:00Z,{lat},{lon},{lev},{k + 0.5 * i},{lev / 1000 - j},{0.01 * k}\n"
    for k, hhmm in enumerate(("06:00", "09:00", "12:00"))
    for i, lat in enumerate((29.1, 29.6)) for j, lon in enumerate((119.8, 120.3))
    for lev in (100.0, 3000.0, 7000.0))

# a 12-step scene of 4 delay and 2 wind stations, its rows station-major, with
# gaps, and with some instants spelled +00:00 instead of Z, so the CSV readers
# place rows that are not time-major
_STAMP = "2025-05-07T06:{:02d}:00{}"
SCENE_FILES = {
    "reordered/ztd_stations.csv": "station_id,lat,lon\n" + "".join(
        f"Z{i},{29.2 + 0.1 * i},{120.0 + 0.05 * i}\n" for i in range(4)),
    "reordered/wind_stations.csv": "station_id,lat,lon\nW0,29.35,120.05\nW1,29.45,120.1\n",
    "reordered/ztd.csv": "timestamp,station_id,ztd_m\n" + "".join(
        f"{_STAMP.format(5 * k, 'Z' if (i + k) % 3 else '+00:00')},Z{i},{2.4 + 0.001 * i * k}\n"
        for i in range(4) for k in range(12) if (7 * i + k) % 5),
    "reordered/wind.csv": "# level_kind=height_m\n"
    "timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms\n" + "".join(
        f"{_STAMP.format(5 * k, 'Z' if (j + k) % 4 else '+00:00')},W{j},{lev},"
        f"{3.0 + 0.5 * k + lev / 1000},{(37 * k + 90 * j) % 360},{0.01 * k}\n"
        for j in range(2) for lev in (100.0, 1500.0) for k in range(12) if (3 * j + k) % 7),
}


def _crlf(text: str) -> str:
    """text with CRLF line ends and, after its third line, a blank line and
    a whitespace-only one."""
    lines = text.splitlines()
    return "\r\n".join([*lines[:3], "", " \t", *lines[3:]]) + "\r\n"


# the reordered scene once more, its files with CRLF line ends and blank lines
SCENE_FILES.update({name.replace("reordered/", "reordered_crlf/"): _crlf(text)
                    for name, text in SCENE_FILES.items()})
_REORDERED_SCENE = _files_scene("reordered")
# a synth scene of 60 delay stations x 600 steps: its ztd.csv holds about
# 35 000 rows, many of fileio.CSV_BLOCK_ROWS lines, read back by preprocess
_MANY_BLOCKS = ["--config", "small.json", "--set", "synth.n_ztd_stations=60",
                "--set", "synth.n_steps=600"]
# the reordered scene trained and calibrated in empirical_quantile mode: its
# calibrated test (1 row) and train (3 rows) predictions are short enough for
# postprocess's one pass over every channel (postprocess.ONE_PASS_MAX_ROWS)
_SHORT = ["--config", "small.json", "--set", 'postprocess.mode="empirical_quantile"',
          "--data", "reordered/prep", "--lead", "5"]
_SHORT_CDF = ["--model", "reordered/run/checkpoint.gwc", "--cdf", "reordered/run/cdf_map.json"]
# the same with 5001 quantiles: a map of 12 channels this large once took the
# per-channel loop even for the 1-row test prediction, and now takes the one pass
_SHORT_5001 = [*_SHORT, "--set", "postprocess.n_quantiles=5001",
               "--model", "reordered/run/checkpoint.gwc"]

# the default scene and model (60 delay stations, two 4-head blocks) staged
# for one epoch: its 2792-row train split is predicted in two chunks
_DEFAULT_SHAPE = ["--set", "train.max_epochs=1", "--set", "train.patience=1",
                  "--set", 'postprocess.mode="empirical_quantile"']
_DEFAULT_RUN = ["--data", "default/prep", "--lead", "30"]
# the same at 24-step windows, whose 3971 samples gather their windows from
# the 1.8 MiB of delay rows on request (held as a copy they took 43.6 MiB)
_WINDOW_24 = [*_DEFAULT_SHAPE, "--set", "window_steps=24"]
_WINDOW_24_RUN = ["--data", "window24/prep", "--lead", "30"]

# (output name, command line[, expected exit status, 0 if left out]) in run
# order; later commands may read what earlier ones wrote
COMMANDS = [
    ("sweep_1block", ["run-lead-sweep", "--config", "small.json", "--out", "sweep_1block"]),
    ("sweep_3blocks", ["run-lead-sweep", "--config", "small.json",
                       "--set", "model.n_encoder_blocks=3", "--out", "sweep_3blocks"]),
    ("sweep_padded", ["run-lead-sweep", "--config", "small.json", "--set", "model.heads=4",
                      "--set", "synth.n_ztd_stations=10", "--out", "sweep_padded"]),
    ("sweep_mlp", ["run-lead-sweep", "--config", "small.json",
                   "--set", 'model.arch="mlp"', "--out", "sweep_mlp"]),
    ("sweep_off_default", ["run-lead-sweep", "--config", "small.json", "--set", "window_steps=5",
                           "--set", "split.ratios=[0.6,0.25,0.15]", "--set", "train.beta1=0.8",
                           "--set", "train.beta2=0.99", "--set", "train.eps=1e-6",
                           "--set", "synth.tanh_gain=0.5", "--set", "synth.noise_std=0.1",
                           "--set", 'postprocess.mode="empirical_quantile"',
                           "--set", "postprocess.n_quantiles=51", "--out", "sweep_off_default"]),
    ("ablation", ["run-station-ablation", "--config", "small.json", "--out", "ablation"]),
    # two error paths, each exit 3 before --out exists: more stations than
    # the scene holds, and a window longer than the scene
    ("ablation_k_too_large", ["run-station-ablation", "--config", "small.json",
                              "--set", "station_counts=[4,999]", "--out", "k_too_large"], 3),
    ("sweep_window_too_long", ["run-lead-sweep", "--config", "small.json",
                               "--set", "window_steps=400", "--out", "window_too_long"], 3),
    # token widths 8 and 12, whose predicts run whole chunks, and 20 and 60,
    # whose predicts run in blocks (model.WindModel.predict)
    ("ablation_default", ["run-station-ablation", *_DEFAULT_SHAPE,
                          "--set", "station_counts=[5,10,20,60]", "--out", "ablation_default"]),
    ("sweep_default", ["run-lead-sweep", "--set", "train.max_epochs=2", "--set", "train.patience=2",
                       "--set", "leads_minutes=[5,30]", "--out", "sweep_default"]),
    ("synth", ["synth", *_STAGED, "--out", "staged/raw"]),
    ("preprocess", ["preprocess", *_STAGED, "--data", "staged/raw", "--out", "staged/prep"]),
    ("train", ["train", *_STAGED, "--data", "staged/prep", "--lead", "10",
               "--out", "staged/run"]),
    ("calibrate", ["calibrate", *_STAGED, "--data", "staged/prep", "--lead", "10",
                   "--model", "staged/run/checkpoint.gwc", "--out", "staged/run/cdf_map.json"]),
    ("predict", ["predict", *_STAGED, "--data", "staged/prep", "--lead", "10",
                 "--model", "staged/run/checkpoint.gwc", "--cdf", "staged/run/cdf_map.json",
                 "--out", "staged/run"]),
    ("predict_raw_val", ["predict", *_STAGED, "--data", "staged/prep", "--lead", "10",
                         "--model", "staged/run/checkpoint.gwc", "--split", "val",
                         "--out", "staged/raw_val"]),
    ("evaluate", ["evaluate", "--pred", "staged/run/predictions.gwcs",
                  "--truth", "staged/run/truth.gwcs", "--lead", "10",
                  "--out", "staged/run/report.json"]),
    ("preprocess_csv", ["preprocess", *_STAGED, "--set", "data=" + _CSV_SCENE,
                        "--out", "staged/prep_csv"]),
    ("preprocess_reordered", ["preprocess", "--config", "small.json", "--set",
                              "data=" + _REORDERED_SCENE, "--out", "reordered/prep"]),
    ("preprocess_crlf", ["preprocess", "--config", "small.json", "--set",
                         "data=" + _files_scene("reordered_crlf"), "--out", "reordered_crlf/prep"]),
    ("synth_many_blocks", ["synth", *_MANY_BLOCKS, "--out", "many/raw"]),
    ("preprocess_many_blocks", ["preprocess", *_MANY_BLOCKS, "--set",
                                "data=" + _files_scene("many/raw"), "--out", "many/prep"]),
    ("short_train", ["train", *_SHORT, "--out", "reordered/run"]),
    ("short_calibrate", ["calibrate", *_SHORT, "--model", "reordered/run/checkpoint.gwc",
                         "--out", "reordered/run/cdf_map.json"]),
    ("short_predict", ["predict", *_SHORT, *_SHORT_CDF, "--out", "reordered/run"]),
    ("short_predict_train", ["predict", *_SHORT, *_SHORT_CDF, "--split", "train",
                             "--out", "reordered/train"]),
    ("short_calibrate_5001", ["calibrate", *_SHORT_5001,
                              "--out", "reordered/run/cdf_map_5001.json"]),
    ("short_predict_5001", ["predict", *_SHORT_5001, "--cdf", "reordered/run/cdf_map_5001.json",
                            "--out", "reordered/run_5001"]),
    ("emit_timeseries", ["emit-timeseries", "--pred", "staged/run/predictions.gwcs",
                         "--truth", "staged/run/truth.gwcs", "--out", "staged/timeseries"]),
    ("show_report", ["show-report", "--report", "staged/run/report.json"]),
    ("default_preprocess", ["preprocess", *_DEFAULT_SHAPE, "--out", "default/prep"]),
    ("default_train", ["train", *_DEFAULT_SHAPE, *_DEFAULT_RUN, "--out", "default/run"]),
    ("default_calibrate", ["calibrate", *_DEFAULT_SHAPE, *_DEFAULT_RUN,
                           "--model", "default/run/checkpoint.gwc",
                           "--out", "default/run/cdf_map.json"]),
    ("default_predict", ["predict", *_DEFAULT_SHAPE, *_DEFAULT_RUN,
                         "--model", "default/run/checkpoint.gwc",
                         "--cdf", "default/run/cdf_map.json", "--out", "default/run"]),
    ("default_predict_train", ["predict", *_DEFAULT_SHAPE, *_DEFAULT_RUN,
                               "--model", "default/run/checkpoint.gwc", "--split", "train",
                               "--out", "default/train"]),
    ("window24_preprocess", ["preprocess", *_WINDOW_24, "--out", "window24/prep"]),
    ("window24_train", ["train", *_WINDOW_24, *_WINDOW_24_RUN, "--out", "window24/run"]),
    ("window24_calibrate", ["calibrate", *_WINDOW_24, *_WINDOW_24_RUN,
                            "--model", "window24/run/checkpoint.gwc",
                            "--out", "window24/run/cdf_map.json"]),
    ("window24_predict", ["predict", *_WINDOW_24, *_WINDOW_24_RUN,
                          "--model", "window24/run/checkpoint.gwc",
                          "--cdf", "window24/run/cdf_map.json", "--out", "window24/run"]),
    ("compare_baseline", ["compare-baseline", "--baseline", "baseline.csv",
                          "--truth", "staged/raw/cube.gwcc", "--out", "staged/baseline.json"]),
]


def export_ref(ref: str, dest: str) -> str:
    """Write the tree of ``ref`` into dest; returns its src directory."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def run_side(src: str, cwd: str) -> dict:
    """Run every command with ``src`` first on the path; returns each
    command's exit status and printed lines, by name."""
    os.makedirs(cwd)
    with open(os.path.join(cwd, "small.json"), "w", encoding="utf-8") as f:
        json.dump(SMALL, f)
    for name, text in {"baseline.csv": BASELINE, **SCENE_FILES}.items():
        os.makedirs(os.path.join(cwd, os.path.dirname(name)), exist_ok=True)
        with open(os.path.join(cwd, name), "w", encoding="utf-8", newline="") as f:
            f.write(text)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    printed = {}
    for name, argv, *_ in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "gwindcast.cli", *argv], cwd=cwd,
                              env=env, capture_output=True, text=True)
        printed[name] = [f"exit {proc.returncode}", *proc.stdout.splitlines(),
                         *proc.stderr.splitlines()]
        print(f"  {name}: exit {proc.returncode}", flush=True)
    return printed


def files_under(top: str) -> set:
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", help="commit to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        base_dir, work_dir = os.path.join(tmp, "base"), os.path.join(tmp, "work")
        print(f"{args.base_ref}:", flush=True)
        base_out = run_side(export_ref(args.base_ref, os.path.join(tmp, "base_tree")), base_dir)
        print("working tree:", flush=True)
        work_out = run_side(os.path.join(ROOT, "src"), work_dir)
        names = files_under(base_dir) | files_under(work_dir)
        differ = sorted(n for n in names if not (
            os.path.isfile(os.path.join(base_dir, n)) and os.path.isfile(os.path.join(work_dir, n))
            and filecmp.cmp(os.path.join(base_dir, n), os.path.join(work_dir, n), shallow=False)))
        differ += [f"printed output of {name}" for name, *_ in COMMANDS
                   if base_out[name] != work_out[name]]
    expected = {name: expect[0] if expect else 0 for name, _, *expect in COMMANDS}
    failed = [name for name, code in expected.items() if base_out[name][0] != f"exit {code}"]
    print(f"compared {len(names)} files and the printed output of {len(COMMANDS)} commands")
    for name in failed:
        print(f"command failed at {args.base_ref}: {name} ({base_out[name][0]}, "
              f"expected exit {expected[name]})")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
