"""The processes the benchmark measures. Each imports gwindcast from the
checkout and runs with one BLAS thread. Modes:

    child.py prep    WORK                                   trains the nowcast models
    child.py measure WORK WORKLOAD SPAWNED SECONDS TRACE    set-up, training rounds
    child.py serve   WORK WORKLOAD SPAWNED TRACE PART PARTS set-up, serving

SPAWNED is time.monotonic() just before the parent started the process, so
set-up time counts interpreter start and imports. Untraced processes time
the speed probe (speed.py) between units of work and report each timing
both raw and scaled to the reference speed: after set-up, around every
training, and every PROBE_EVERY serving cycles. Serving is split over
PARTS fresh processes, each serving its slice of the newest windows: one
process's latency moves by a third from one process to the next on a 2-core
VM, the pool of three by under a tenth. Results go to WORK as JSON and .npy
files; run.py checks them and prints the metrics.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import gwindcast
from gwindcast import cli, fileio, harness, metrics, model, neural, postprocess, trainer
from speed import LIGHT, WHOLE, Probe, factors, probe_seconds
from tracing import Tracer

# run.py puts the checkout's src/ first on PYTHONPATH; refuse any other copy
if not os.path.abspath(gwindcast.__file__).startswith(os.path.abspath("src") + os.sep):
    sys.exit(f"gwindcast imported from {gwindcast.__file__}, not from this checkout")


def blas_info() -> dict:
    """BLAS name, version and the thread count the library reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "numpy": np.__version__,
            "python": sys.version.split()[0], "nproc": os.cpu_count()}


PROBE_EVERY = 100  # serving cycles between two probes


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


class TrainMeter:
    """Times every harness.train call and keeps what the checks need; with
    a probe, probes before and after each call, outside its time."""

    def __init__(self, probe=None):
        self.calls = []
        orig = harness.train

        def timed(mdl, samples, cfg):
            if probe:
                probe.run()
            t0 = time.perf_counter()
            result = orig(mdl, samples, cfg)
            seconds = time.perf_counter() - t0
            speed = factors(probe.samples[-1:] + [probe.run()], WHOLE)[0] if probe else 1.0
            rows = len(samples.indices("train"))
            self.calls.append({"seconds": seconds, "scaled_s": seconds / speed,
                               "samples": rows * len(result.history),
                               "best_val": result.best_val})
            return result

        harness.train = timed


# ------------------------------------------------------------ serving ----


@dataclass
class Slot:
    """One served model: a lead (nowcast, sweep) or an arm (ablation)."""

    stats: object
    model: object
    cdf: object
    n_stations: int
    samples: object


def load_slot(panel, cube, cfg, lead_minutes, run_dir, n_stations) -> Slot:
    sub = panel.select_stations(range(n_stations))
    steps = harness.lead_steps_for(cfg, lead_minutes, panel.axis.step)
    samples = harness.build_run_samples(sub, cube, cfg, steps)
    mdl = model.load_model(os.path.join(run_dir, "checkpoint.gwc"))
    cdf = postprocess.read_cdf_map(os.path.join(run_dir, "cdf_map.json"))
    return Slot(samples.norm_stats, mdl, cdf, n_stations, samples)


def all_windows(panel, window_steps) -> np.ndarray:
    """Every delay window of the prepared scene, oldest first: (n, window, station)."""
    view = np.lib.stride_tricks.sliding_window_view(panel.values, window_steps, axis=0)
    return np.ascontiguousarray(view.transpose(0, 2, 1))


def forecast_cycle(slots, window) -> list:
    """One serving cycle: every slot's calibrated forecast for one window."""
    out = []
    for s in slots:
        x = s.stats.normalize_inputs(window[None, :, : s.n_stations])
        y = s.stats.denormalize_targets(s.model.predict(x))
        out.append(postprocess.apply_cdf_map(s.cdf, y)[0])
    return out


def reforecast(slots, windows) -> np.ndarray:
    """Batch re-forecast of many windows per slot: (n, slot, channel)."""
    out = []
    for s in slots:
        x = s.stats.normalize_inputs(windows[:, :, : s.n_stations])
        y = s.stats.denormalize_targets(s.model.predict(x))
        out.append(postprocess.apply_cdf_map(s.cdf, y))
    return np.stack(out, axis=1)


def serve(slots, cycle_windows, windows, probe=None) -> dict:
    """Closed loop over cycle_windows, oldest first, then one batch
    re-forecast of every window. Returns the cycle latencies, cycle
    outputs, batch outputs and each slot's batch rows per second, raw and
    scaled. With
    a probe, the cycles run in blocks of PROBE_EVERY with a probe before
    and after each block and around each slot's batch; each block is
    scaled by the mean of its two probes' light part, each batch by the
    whole probes, and the probes' time is left out of wall_s and cpu_s."""
    n = len(cycle_windows)
    lat = np.empty(n)
    scaled = np.empty(n)
    outs = np.empty((n, len(slots), slots[0].samples.output_dim))
    wall = cpu = wall_scaled = cpu_scaled = 0.0

    def unit(work, parts):
        nonlocal wall, cpu, wall_scaled, cpu_scaled
        before = probe.samples[-1:] if probe else []
        t0, c0 = time.perf_counter(), cpu_seconds()
        work()
        dt, dc = time.perf_counter() - t0, cpu_seconds() - c0
        fw, fc = factors(before + [probe.run()], parts) if probe else (1.0, 1.0)
        wall, cpu = wall + dt, cpu + dc
        wall_scaled, cpu_scaled = wall_scaled + dt / fw, cpu_scaled + dc / fc
        return dt, fw

    def block(rows):
        for i in rows:
            t0 = time.perf_counter()
            outs[i] = forecast_cycle(slots, cycle_windows[i])
            lat[i] = time.perf_counter() - t0

    if probe:
        probe.run()
    for b0 in range(0, n, PROBE_EVERY):
        rows = range(b0, min(n, b0 + PROBE_EVERY))
        fw = unit(lambda: block(rows), LIGHT)[1]
        scaled[rows.start:rows.stop] = lat[rows.start:rows.stop] / fw
    batch, rates, rates_scaled = [], [], []
    for s in slots:
        dt, fw = unit(lambda: batch.append(reforecast([s], windows)), WHOLE)
        rates.append(len(windows) / dt)
        rates_scaled.append(len(windows) * fw / dt)
    return {"lat": lat, "lat_scaled": scaled, "outs": outs,
            "batch": np.concatenate(batch, axis=1),
            "rows_per_s": rates, "rows_per_s_scaled": rates_scaled,
            "wall_s": wall, "cpu_s": cpu, "wall_scaled_s": wall_scaled,
            "cpu_scaled_s": cpu_scaled}


# ---------------------------------------------------------- workloads ----


class Workload:
    """Set-up, one training round and the served models of a workload."""

    min_rounds = 2

    def __init__(self, work):
        self.work = work
        self.cfg_path = os.path.join(work, "cfg.json")
        with open(self.cfg_path, encoding="utf-8") as f:
            self.cfg = harness.ExperimentConfig.from_dict(json.load(f))
        with open(os.path.join(work, "bench.json"), encoding="utf-8") as f:
            self.bench = json.load(f)
        self.rounds = []

    def setup(self):
        self.panel, self.cube = harness.prepare_scene(self.cfg)
        self.windows = all_windows(self.panel, self.cfg.window_steps)

    def round(self, i) -> int:
        out = os.path.join(self.work, f"round{i}")
        if cli.main([self.command, "--config", self.cfg_path, "--out", out]) != 0:
            raise RuntimeError(f"{self.command} failed")
        self.rounds.append(out)
        return len(self.report_names())

    def test_error(self) -> float:
        """Mean over leads or arms of the u and v test errors in the reports."""
        errs = []
        for name in self.report_names():
            with open(os.path.join(self.rounds[-1], name), encoding="utf-8") as f:
                rows = json.load(f)["rows"]
            errs += [r["rmspe"] for r in rows
                     if r["level"] == "all" and r["component"] in ("u", "v")]
        return statistics.mean(errs)

    def last_round(self) -> str:
        with open(os.path.join(self.work, "result.json"), encoding="utf-8") as f:
            return json.load(f)["rounds"][-1]


class Sweep(Workload):
    command = "run-lead-sweep"

    def report_names(self):
        return [f"report_lead_{format(ld, 'g')}min.json" for ld in self.cfg.leads_minutes]

    def serving_slots(self):
        run_dir, n = self.last_round(), len(self.panel.stations)
        return [load_slot(self.panel, self.cube, self.cfg, ld,
                          os.path.join(run_dir, f"lead_{format(ld, 'g')}min"), n)
                for ld in self.cfg.leads_minutes]


class Ablation(Workload):
    command = "run-station-ablation"

    def report_names(self):
        return [f"report_k{k}.json" for k in self.cfg.station_counts]

    def serving_slots(self):
        run_dir = self.last_round()
        return [load_slot(self.panel, self.cube, self.cfg, self.cfg.ablation_lead_minutes,
                          os.path.join(run_dir, f"k_{k}"), k)
                for k in self.cfg.station_counts]


class Nowcast(Workload):
    """Serves forecasts from the checkpoints prep made; set-up loads them."""

    def setup(self):
        super().setup()
        self.slots = self.serving_slots()

    def serving_slots(self):
        n = len(self.panel.stations)
        return [load_slot(self.panel, self.cube, self.cfg, ld,
                          os.path.join(self.work, "prep", f"lead_{format(ld, 'g')}min"), n)
                for ld in self.cfg.leads_minutes]


WORKLOADS = {"sweep": Sweep, "ablation": Ablation, "nowcast": Nowcast}


# ------------------------------------------------------------- tracing ----


def install_tracer(tr: Tracer) -> None:
    rows = lambda a, k: {"rows": int(a[1].shape[0])}  # noqa: E731
    training = lambda a, k: {"training": bool(k.get("training", a[2] if len(a) > 2 else False))}  # noqa: E731
    for name in ("read_station_csv", "read_ztd_csv", "read_wind_csv"):
        tr.wrap(fileio, name, "fileio.read_csv")
    tr.wrap(fileio, "write_series", "fileio.write")
    for name in ("save_model", "write_history", "write_cdf_map", "write_report",
                 "write_mosaic_tables", "write_manifest"):
        tr.wrap(harness, name, "fileio.write")
    tr.wrap(harness, "fill_gaps", "preprocess.fill_gaps")
    tr.wrap(harness, "build_samples", "preprocess.build_samples")
    tr.wrap(neural.MultiHeadAttention, "forward", "neural.attention_fwd")
    tr.wrap(neural.BatchNorm, "forward", "neural.batchnorm_fwd")
    tr.wrap(neural.Dense, "forward", "neural.dense_fwd")
    tr.wrap(neural.Tensor, "backward", "neural.backward")
    tr.wrap(model.WindModel, "forward_batch", "model.forward_batch", meta=training)
    tr.wrap(model.WindModel, "predict", "model.predict", meta=rows)
    tr.wrap(model, "load_model", "model.load_model")
    tr.wrap(trainer, "adam_step", "trainer.adam_step")
    tr.wrap(harness, "train", "trainer.train", after=lambda r: {"epochs": len(r.history)})
    tr.wrap(harness, "fit_cdf_map", "postprocess.fit_cdf_map")
    tr.wrap(harness, "apply_cdf_map", "postprocess.apply_cdf_map")
    tr.wrap(postprocess, "apply_cdf_map", "postprocess.apply_cdf_map")
    tr.wrap(harness, "evaluate_series", "metrics.evaluate_series")
    tr.wrap(metrics, "evaluate_series", "metrics.evaluate_series")
    tr.wrap(harness, "prepare_scene", "harness.prepare_scene")
    tr.wrap(harness, "calibrated_predictions", "harness.calibrated_predictions")
    tr.wrap(harness, "run_single_lead", "harness.run_single_lead")


def count_probe(slot: Slot) -> dict:
    """Tensors built by, and cyclic garbage left after, one training step
    at batch 128 and one single-window predict. Runs last: it updates the
    slot's model."""
    made = [0]
    init = neural.Tensor.__init__

    def counting(self, *a, **k):
        made[0] += 1
        init(self, *a, **k)

    mdl = slot.model
    rng = np.random.default_rng(0)
    x = rng.normal(size=(128, mdl.config.window_steps, mdl.config.n_stations))
    y = rng.normal(size=(128, mdl.config.output_dim))
    params = mdl.params()
    adam = trainer.AdamState.for_params(params)
    gc.collect()
    gc.disable()
    neural.Tensor.__init__ = counting
    try:
        loss = neural.mse_loss(mdl.forward_batch(x, training=True), y)
        loss.backward()
        trainer.adam_step(params, adam, trainer.TrainConfig())
        del loss
        step_tensors, made[0] = made[0], 0
        step_objects = gc.collect()
        mdl.predict(x[:1])
        predict_tensors = made[0]
        predict_objects = gc.collect()
    finally:
        neural.Tensor.__init__ = init
        gc.enable()
    return {"neural.tensors_per_step": step_tensors,
            "neural.tensors_per_predict": predict_tensors,
            "neural.cycle_objects_per_step": step_objects,
            "neural.cycle_objects_per_predict": predict_objects}


# --------------------------------------------------------------- modes ----


SETUP_PROBES = 9  # probes right after set-up, the first a warm-up


def start(work, name, spawned, traced):
    """Tracer, workload and set-up; returns them with the probe (None when
    traced) and the set-up time, raw and scaled by the probes that follow
    it."""
    tr = Tracer()
    if traced:
        install_tracer(tr)
        tr.active = True
    wl = WORKLOADS[name](work)
    wl.setup()
    setup = {"setup_s": time.monotonic() - spawned}
    tr.active = False
    probe = None if traced else Probe()
    meter = TrainMeter(probe)
    if probe:
        for _ in range(SETUP_PROBES):
            probe.run()
        setup["setup_scaled_s"] = setup["setup_s"] / factors(probe.samples[1:], LIGHT)[0]
    return tr, wl, meter, probe, setup


def mode_prep(work) -> None:
    """Brief training with the program's own staged commands: preprocess,
    then train and calibrate per lead."""
    wl = Workload(work)
    meter = TrainMeter(Probe())
    prep = os.path.join(work, "prep")
    data = os.path.join(prep, "data")
    base = ["--config", wl.cfg_path]
    steps = [["preprocess", *base, "--out", data]]
    for ld in wl.cfg.leads_minutes:
        out = os.path.join(prep, f"lead_{format(ld, 'g')}min")
        lead = ["--data", data, "--lead", repr(ld)]
        steps.append(["train", *base, *lead, "--out", out])
        steps.append(["calibrate", *base, *lead, "--model", os.path.join(out, "checkpoint.gwc"),
                      "--out", os.path.join(out, "cdf_map.json")])
    for argv in steps:
        if cli.main(argv) != 0:
            raise RuntimeError(f"gwindcast {argv[0]} failed")
    write_json(os.path.join(work, "prep.json"), {"trainings": meter.calls})


def timed_passes(tr: Tracer, traced: bool, n_untraced: int, run_pass):
    """Run run_pass(i) n_untraced times, or, traced, as a warm-up, a traced
    and an untraced pass; each pass starts from a collected heap. Returns
    the wall and CPU times per pass and the traced pass's span range."""
    plan = ["warm-up", "traced", "untraced"] if traced else ["untraced"] * n_untraced
    walls, cpus, span = [], [], [0, 0]
    for i, kind in enumerate(plan):
        gc.collect()  # every pass starts from the same collector state
        if kind == "traced":
            span[0] = len(tr.spans)
            tr.start_round()
        t0, c0 = time.perf_counter(), cpu_seconds()
        run_pass(i)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        if kind == "traced":
            tr.end_round()
            span[1] = len(tr.spans)
    return walls, cpus, span


def speed_result(probe) -> dict:
    """Mean slowdown of each probe part over the process, for the record."""
    if not probe:
        return {}
    return {"speed": {p: factors(probe.samples[1:], (p,))[0] for p in ("light", "heavy")}}


def trace_result(tr, walls, span) -> dict:
    return {"round_span": span, "gc_pause_s": tr.gc_pause_s,
            "gc_collections": tr.gc_collections, "overhead_s": walls[1] - walls[2]}


def mode_measure(work, name, spawned, seconds, traced) -> None:
    """Sweep and ablation: set-up, then training rounds, at least two,
    while the next is expected to end within `seconds` (traced: a warm-up,
    a traced and an untraced round)."""
    tr, wl, meter, probe, setup = start(work, name, spawned, traced)
    ops = []
    if traced:
        walls, cpus, span = timed_passes(tr, True, 0, lambda i: ops.append(wl.round(i)))
    else:
        walls, net_walls, net_cpus, scaled_walls, scaled_cpus = [], [], [], [], []
        while len(walls) < wl.min_rounds or sum(walls) + statistics.median(walls) <= seconds:
            first = len(probe.samples)
            w, c, _ = timed_passes(tr, False, 1, lambda _: ops.append(wl.round(len(walls))))
            # the round's probes ran inside it, around each training
            inside = probe.samples[first:]
            fw, fc = factors(inside, WHOLE)
            probe_wall, probe_cpu = probe_seconds(inside)
            walls += w
            net_walls.append(w[0] - probe_wall)
            net_cpus.append(c[0] - probe_cpu)
            scaled_walls.append(net_walls[-1] / fw)
            scaled_cpus.append(net_cpus[-1] / fc)
        walls, cpus = net_walls, net_cpus
    result = {
        "rounds": wl.rounds, "walls": walls, "attempted": sum(ops), **setup,
        "wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trainings": meter.calls, "env": blas_info(), **speed_result(probe),
    }
    if not traced:
        result.update(wall_scaled_s=statistics.median(scaled_walls),
                      cpu_scaled_s=statistics.median(scaled_cpus),
                      scaled_walls=scaled_walls)
    tr.active = traced
    result["test_rmspe_uv"] = wl.test_error()
    tr.active = False
    if traced:
        result.update(trace_result(tr, walls, span))
        write_json(os.path.join(work, "spans.json"), tr.spans)
    write_json(os.path.join(work, "result.json"), result)


def mode_serve(work, name, spawned, traced, part, parts) -> None:
    """Set-up, then serve slice `part` of `parts` of the newest windows with
    the workload's models: nowcast's measured phase, or the serving that
    follows sweep and ablation training."""
    tr, wl, _, probe, setup = start(work, name, spawned, traced)
    tr.active = traced
    slots = wl.slots if isinstance(wl, Nowcast) else wl.serving_slots()
    tr.active = False
    n = wl.bench["cycles"]
    newest = np.arange(len(wl.windows))[-n:]
    rows = np.array_split(newest, parts)[part]
    out = {}

    def run_pass(_):
        out.update(serve(slots, wl.windows[rows], wl.windows, probe))

    walls, cpus, span = timed_passes(tr, traced, 1, run_pass)
    np.save(os.path.join(work, f"lat-{part}.npy"), out["lat"])
    np.save(os.path.join(work, f"lat-scaled-{part}.npy"), out["lat_scaled"])
    np.save(os.path.join(work, f"cycles-{part}.npy"), out["outs"])
    np.save(os.path.join(work, f"batch-{part}.npy"), out["batch"][rows])
    result = {
        **setup, **{k: out[k] for k in ("wall_s", "cpu_s", "wall_scaled_s", "cpu_scaled_s",
                                         "rows_per_s", "rows_per_s_scaled")},
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(walls) * (len(rows) + len(slots)), "env": blas_info(),
        **speed_result(probe),
    }
    if part == 0:  # the first cycles again, for the byte-identity check
        again = [forecast_cycle(slots, w) for w in wl.windows[rows[: wl.bench["repeat_cycles"]]]]
        np.save(os.path.join(work, "cycles-again.npy"), np.array(again))
        result["attempted"] += len(again)
    if traced:
        result.update(trace_result(tr, walls, span), counts=count_probe(slots[-1]))
        write_json(os.path.join(work, f"spans-serve-{part}.json"), tr.spans)
    write_json(os.path.join(work, f"serve-{part}.json"), result)


def main(argv) -> None:
    mode, work = argv[0], argv[1]
    if mode == "prep":
        mode_prep(work)
    elif mode == "measure":
        mode_measure(work, argv[2], float(argv[3]), float(argv[4]), argv[5] == "1")
    elif mode == "serve":
        mode_serve(work, argv[2], float(argv[3]), argv[4] == "1", int(argv[5]), int(argv[6]))
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
