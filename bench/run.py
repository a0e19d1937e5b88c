"""End-to-end benchmark of gwindcast.

    python3 bench/run.py --workload sweep|nowcast|ablation --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The seed makes a synthetic scene that is
written as CSV files before any timing; the program reads only those. The
measured process (bench/child.py) runs with one BLAS thread. Outputs are
checked by bench/checks.py, which does not import the program. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
End-to-end timings are scaled to a reference speed by the probe of
bench/speed.py; the line before the result gives them raw.
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sweep", "nowcast", "ablation")
LEADS = [5, 10, 15, 20, 25, 30]
STATION_COUNTS = [5, 10, 20, 60]
REFERENCE = {"lat": 29.3619, "lon": 120.0717}
WINDOW_STEPS = 6
SPLIT = [0.7, 0.15, 0.15]
DEADLINE_S = 165.0  # for the processes; the checks after them take seconds

# Scene and run size. "full" is what the benchmark measures; "toy" exists
# for the self-test, which runs every workload end to end in seconds.
# cycles: serving cycles per run (nowcast: the measured phase; sweep and
# ablation: the serving after training), enough that p99 has ten or more
# samples beyond it; they are split over serve_parts fresh processes.
SIZES = {
    "full": {"n_steps": 4000, "epochs": 2, "repeat_cycles": 100,
             "cycles": {"sweep": 3000, "nowcast": 2000, "ablation": 3000},
             "serve_parts": {"sweep": 2, "nowcast": 3, "ablation": 2}},
    "toy": {"n_steps": 1500, "epochs": 2, "repeat_cycles": 10,
            "cycles": {"sweep": 60, "nowcast": 400, "ablation": 60},
            "serve_parts": {"sweep": 3, "nowcast": 3, "ablation": 3}},
}

# (name, unit, better); run.py prints these and the self-test compares
# them with BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("test_rmspe_uv", "ratio", "lower"),
    ("cycle_p50_ms", "ms", "lower"),
    ("cycle_p99_ms", "ms", "lower"),
    ("infer_rows_per_s", "1/s", "higher"),
]
PER_LAYER = [
    ("fileio.read_csv_s", "s", "lower"),
    ("fileio.write_artifacts_ms", "ms", "lower"),
    ("preprocess.fill_gaps_ms", "ms", "lower"),
    ("preprocess.build_samples_ms", "ms", "lower"),
    ("neural.attention_fwd_ms", "ms", "lower"),
    ("neural.batchnorm_fwd_ms", "ms", "lower"),
    ("neural.dense_fwd_ms", "ms", "lower"),
    ("neural.backward_ms", "ms", "lower"),
    ("neural.tensors_per_step", "count", "lower"),
    ("neural.tensors_per_predict", "count", "lower"),
    ("neural.cycle_objects_per_step", "count", "lower"),
    ("neural.cycle_objects_per_predict", "count", "lower"),
    ("neural.gc_pause_ms", "ms", "lower"),
    ("neural.gc_collections", "count", "lower"),
    ("model.forward_batch_ms", "ms", "lower"),
    ("model.predict_one_ms", "ms", "lower"),
    ("model.predict_rows_per_s", "1/s", "higher"),
    ("model.load_model_ms", "ms", "lower"),
    ("trainer.adam_step_ms", "ms", "lower"),
    ("trainer.val_pass_ms", "ms", "lower"),
    ("trainer.epochs_run", "count", "lower"),
    ("postprocess.fit_cdf_map_ms", "ms", "lower"),
    ("postprocess.apply_cdf_map_us", "us", "lower"),
    ("metrics.evaluate_series_ms", "ms", "lower"),
    ("harness.prepare_scene_s", "s", "lower"),
    ("harness.calibrated_predictions_ms", "ms", "lower"),
    ("harness.run_single_lead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload, seed, size):
        self.workload = workload
        self.size = SIZES[size]
        self.seed = seed % 2**31
        self.work = os.path.join(".bench_out", f"{workload}-{seed}-{os.getpid()}")
        self.raw = os.path.join(self.work, "raw")
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")] + ([self.env["PYTHONPATH"]] if "PYTHONPATH" in self.env else []))
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def call(self, argv) -> str:
        """Run a process to its end (killed at the deadline); returns stdout."""
        try:
            done = subprocess.run(argv, env=self.env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{argv[1:3]} ran past the deadline") from e
        sys.stderr.write(done.stdout)
        if done.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited with {done.returncode}")
        return done.stdout

    def child(self, *args) -> str:
        return self.call([sys.executable, os.path.join(HERE, "child.py"), args[0], self.work,
                          *[str(a) for a in args[1:]]])

    def make_inputs(self) -> dict:
        """Scene CSVs and the experiment config, all from the seed."""
        os.makedirs(self.work)
        self.call([sys.executable, "-m", "gwindcast.cli", "synth",
                   "--set", f"synth.seed={2 * self.seed}",
                   "--set", f"synth.n_steps={self.size['n_steps']}", "--out", self.raw])
        for name in ("panel.gwcp", "cube.gwcc"):  # the program reads the CSVs only
            os.remove(os.path.join(self.raw, name))
        epochs = self.size["epochs"]
        cfg = {
            "seed": 2 * self.seed + 1,
            "data": {"kind": "files",
                     **{k: os.path.join(self.raw, f"{k}.csv")
                        for k in ("ztd_stations", "ztd", "wind_stations", "wind")}},
            "window_steps": WINDOW_STEPS,
            "leads_minutes": LEADS,
            "station_counts": STATION_COUNTS,
            "ablation_lead_minutes": LEADS[-1],
            "reference": REFERENCE,
            "split": {"ratios": SPLIT},
            "train": {"max_epochs": epochs, "patience": epochs, "batch_size": 128},
            "postprocess": {"mode": "empirical_quantile" if self.workload == "nowcast"
                            else "gaussian_affine"},
        }
        with open(os.path.join(self.work, "cfg.json"), "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        with open(os.path.join(self.work, "bench.json"), "w", encoding="utf-8") as f:
            json.dump({"cycles": self.size["cycles"][self.workload],
                       "repeat_cycles": self.size["repeat_cycles"]}, f)
        return cfg

    def measure(self, seconds, trace):
        """Inputs, the measured processes and the checks; returns the result
        object run.py prints."""
        self.cfg = self.make_inputs()
        nowcast = self.workload == "nowcast"
        self.prep = self.result = None
        if nowcast:
            self.child("prep")
            self.prep = self.load("prep.json")
        else:
            self.child("measure", self.workload, time.monotonic(), seconds, trace)
            self.result = self.load("result.json")
        parts = 1 if trace else self.size["serve_parts"][self.workload]
        self.serving = []
        for part in range(parts):
            self.child("serve", self.workload, time.monotonic(), trace, part, parts)
            self.serving.append(self.load(f"serve-{part}.json"))
        errors = self.check()

        table = END_TO_END
        if trace:
            table, values = PER_LAYER, self.layers()
        else:
            values, raw = self.timings(True), self.timings(False)
        info = {"workload": self.workload, "seed": self.seed,
                "measured_walls_s": self.result["walls"] if self.result else
                [s["wall_s"] for s in self.serving],
                "env": self.serving[0]["env"], "check_errors": errors}
        if not trace:
            info["raw"] = raw
            info["slowdown"] = [m["speed"] for m in
                                ([self.result] if self.result else []) + self.serving]
        print(json.dumps({"info": info}))
        attempted = sum(s["attempted"] for s in self.serving)
        return {
            "correct": not errors,
            "attempted": attempted + (0 if nowcast else self.result["attempted"]),
            "failed": 0,
            "metrics": {n: {"value": values[n], "unit": u} for n, u, _ in table},
        }

    def timings(self, scaled: bool) -> dict:
        """End-to-end metrics, scaled to the reference speed (speed.py) or
        as the clock read them."""
        s = "_scaled" if scaled else ""
        measured = self.serving if self.workload == "nowcast" else [self.result]
        setups = [m[f"setup{s}_s"] for m in ([self.result] if self.result else []) + self.serving]
        trainings = (self.prep or self.result)["trainings"]
        lat_file = "lat-scaled" if scaled else "lat"
        lat = np.concatenate([np.load(os.path.join(self.work, f"{lat_file}-{i}.npy"))
                              for i in range(len(self.serving))])
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(m[f"wall{s}_s"] for m in measured),
            "cpu_s": statistics.median(m[f"cpu{s}_s"] for m in measured),
            "peak_rss_mib": statistics.median(m["peak_rss_mib"] for m in measured),
            "train_samples_per_s": sum(t["samples"] for t in trainings)
            / sum(t["scaled_s" if scaled else "seconds"] for t in trainings),
            "test_rmspe_uv": self.test_error,
            "cycle_p50_ms": 1e3 * float(np.percentile(lat, 50)),
            "cycle_p99_ms": 1e3 * float(np.percentile(lat, 99)),
            "infer_rows_per_s": statistics.median(r for m in self.serving
                                                  for r in m[f"rows_per_s{s}"]),
        }

    def load(self, name):
        with open(os.path.join(self.work, name), encoding="utf-8") as f:
            return json.load(f)

    def layers(self) -> dict:
        """Per-layer metrics from the spans of the training and serving
        processes; the merged spans are kept in .bench_out."""
        serving = self.serving[0]
        traced = self.result or serving  # the process whose rounds were traced
        spans = self.load("spans-serve-0.json")
        if self.result:
            spans = tracing.concat(self.load("spans.json"), spans)
        with open(os.path.join(".bench_out", f"spans-{self.workload}-{self.seed}.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "meta"], "spans": spans}, f)
        out = tracing.layer_metrics(spans, traced["round_span"])
        out.update(serving["counts"])
        out["neural.gc_pause_ms"] = 1e3 * traced["gc_pause_s"]
        out["neural.gc_collections"] = traced["gc_collections"]
        out["trace.overhead_s"] = traced["overhead_s"]
        return out

    # ---------------------------------------------------------- checks --

    def check(self) -> list:
        """Every output check on the files the measured processes left;
        sets self.test_error to the recomputed test error."""
        scene = checks.Scene(self.raw)
        errors = []
        for m in self.serving + ([self.result] if self.result else []):
            if m["env"]["blas_threads"] != 1:
                errors.append(f"a measured process ran with {m['env']['blas_threads']} BLAS threads")
        parts = range(len(self.serving))
        cycles = np.concatenate([np.load(os.path.join(self.work, f"cycles-{i}.npy")) for i in parts])
        batch = np.concatenate([np.load(os.path.join(self.work, f"batch-{i}.npy")) for i in parts])
        errors += checks.check_cycles(cycles, batch, "cycles")
        again = np.load(os.path.join(self.work, "cycles-again.npy"))
        if again.tobytes() != cycles[: len(again)].tobytes():
            errors.append("repeated cycles are not byte-identical to the first")
        if self.workload == "nowcast":
            errors += self.check_nowcast(scene, cycles)
        else:
            errors += self.check_training_run(scene)
        return errors

    def check_training_run(self, scene) -> list:
        result = self.result
        errors = checks.check_identical(result["rounds"])
        last = result["rounds"][-1]
        if self.workload == "sweep":
            units = [(os.path.join(last, f"lead_{ld}min"), ld, None, True) for ld in LEADS]
        else:
            ref = scene.reference_station(REFERENCE["lat"], REFERENCE["lon"])
            units = [(os.path.join(last, f"k_{k}"), LEADS[-1], ref, k == STATION_COUNTS[-1])
                     for k in STATION_COUNTS]
        errs = []
        for lead_dir, lead, station, full_network in units:
            found, err = checks.check_lead_dir(scene, self.cfg, lead_dir, lead, station,
                                               full_network)
            errors += found
            errs.append(err)
        self.test_error = result["test_rmspe_uv"]
        want = statistics.mean(errs)
        if not checks.close(self.test_error, want, checks.METRIC_REL):
            errors.append(f"test_rmspe_uv {self.test_error!r} != recomputed {want!r}")
        trainings = result["trainings"]
        if len(trainings) != len(units) * len(result["rounds"]):
            errors.append(f"{len(trainings)} trainings for {len(result['rounds'])} rounds")
        for r, round_dir in enumerate(result["rounds"]):
            for j, (lead_dir, *_) in enumerate(units):
                hist = os.path.join(round_dir, os.path.relpath(lead_dir, last), "history.csv")
                errors += checks.check_history(hist, trainings[r * len(units) + j]["best_val"], hist)
        return errors

    def check_nowcast(self, scene, cycles) -> list:
        """Prep artifacts and the served forecasts; the test error of the
        served forecasts is computed here, apart from the program."""
        errors = []
        ends = scene.ztd_times[WINDOW_STEPS - 1:][-len(cycles):]
        errs = []
        for j, lead in enumerate(LEADS):
            lead_dir = os.path.join(self.work, "prep", f"lead_{lead}min")
            where = f"nowcast lead {lead}"
            samples = checks.Samples(scene, self.cfg, lead)
            train = samples.split(0)[1]
            with open(os.path.join(lead_dir, "cdf_map.json"), encoding="utf-8") as f:
                errors += checks.check_cdf_map(json.load(f), train.reshape(len(train), -1), where)
            errors += checks.check_history(os.path.join(lead_dir, "history.csv"),
                                           self.prep["trainings"][j]["best_val"], where)
            test_times = set(samples.split(2)[0].tolist())
            rows = [c for c, t in enumerate(ends + lead * 60) if int(t) in test_times]
            truth = scene.winds_at(ends[rows] + lead * 60)
            pred = cycles[rows, j].reshape(truth.shape)
            mean_pred = np.broadcast_to(train.mean(axis=0), truth.shape)
            errors += checks.check_quality_bound(pred, truth, mean_pred, where)
            errs.append(checks.uv_error(pred, truth))
        self.test_error = statistics.mean(errs)
        return errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "gwindcast", "__init__.py")):
        print("error: run from the root of a gwindcast checkout (src/gwindcast missing)",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.size)
    try:
        out = runner.measure(args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
