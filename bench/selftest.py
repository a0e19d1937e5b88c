"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the root of a checkout. It shows that each output check passes on
good output and fails on corrupted output (a report metric off by 1e-6, one
flipped checkpoint bit, a train-mean forecast, a cycle row off by 1e-7, an
unordered quantile map, a history that disagrees with best_val), then runs
every workload at toy size, traced and untraced, and compares the names,
units and directions it prints with BENCHMARK.json. Exits 0 when all pass.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def corrupted(runner, path, mutate, needle, what) -> None:
    """Apply mutate to a copy of path's bytes; the checks must name needle."""
    with open(path, "rb") as f:
        good = f.read()
    with open(path, "wb") as f:
        f.write(mutate(good))
    try:
        errors = runner.check()
    finally:
        with open(path, "wb") as f:
            f.write(good)
    expect(any(needle in e for e in errors), f"{what} is caught ({needle!r})")


def scale_metric(data: bytes) -> bytes:
    report = json.loads(data)
    report["rows"][0]["rmse"] *= 1 + 1e-6
    return json.dumps(report).encode()


def flip_bit(data: bytes) -> bytes:
    out = bytearray(data)
    out[-8] ^= 0x01
    return bytes(out)


def train_mean_forecast(runner, lead):
    """A mutation that replaces every value of a .gwcs file by the
    train-split mean of its channel."""
    mean = checks.Samples(checks.Scene(runner.raw), runner.cfg, lead).split(0)[1].mean(axis=0)

    def mutate(data: bytes) -> bytes:
        values = checks.series_from_bytes(data)["values"]
        start = len(data) - 9 * values.size  # float64 values, then one mask byte each
        flat = np.broadcast_to(mean, values.shape).astype("<f8")
        return data[:start] + flat.tobytes() + data[start + 8 * values.size:]

    return mutate


def unorder_quantiles(data: bytes) -> bytes:
    cdf = json.loads(data)
    row = cdf["src_quantiles"][0]
    row[10], row[11] = row[11] + 1.0, row[10]
    return json.dumps(cdf).encode()


def shift_history(data: bytes) -> bytes:
    lines = data.decode().splitlines()
    epoch, train, val = lines[-1].split(",")
    lines[-1] = f"{epoch},{train},{float(val) * 0.5!r}"
    return ("\n".join(lines) + "\n").encode()


def scale_cycle_row(data: bytes) -> bytes:
    arr = np.load(io.BytesIO(data))
    arr[3] *= 1 + 1e-7
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def check_corruptions() -> None:
    sweep = run.Runner("sweep", 5, "toy")
    nowcast = run.Runner("nowcast", 5, "toy")
    try:
        for runner in (sweep, nowcast):
            with open(os.devnull, "w") as sink:
                stdout, sys.stdout = sys.stdout, sink
                try:
                    out = runner.measure(1, 0)
                finally:
                    sys.stdout = stdout
            expect(out["correct"] and not runner.check(), f"{runner.workload}: good output passes")
        first, last = sweep.result["rounds"][0], sweep.result["rounds"][-1]
        lead = os.path.join(last, "lead_30min")
        corrupted(sweep, os.path.join(lead, "report.json"), scale_metric,
                  "!= recomputed", "a report metric off by 1e-6")
        corrupted(sweep, os.path.join(first, "lead_30min", "checkpoint.gwc"), flip_bit,
                  "differs from", "one flipped checkpoint bit")
        corrupted(sweep, os.path.join(lead, "predictions.gwcs"), train_mean_forecast(sweep, 30),
                  "not below the train-mean", "a train-mean forecast")
        corrupted(sweep, os.path.join(lead, "history.csv"), shift_history,
                  "history minimum", "a history that disagrees with best_val")
        corrupted(sweep, os.path.join(sweep.work, "cycles-0.npy"), scale_cycle_row,
                  "differ from the batch re-forecast", "a sweep cycle row off by 1e-7")
        corrupted(nowcast, os.path.join(nowcast.work, "cycles-0.npy"), scale_cycle_row,
                  "differ from the batch re-forecast", "a nowcast cycle row off by 1e-7")
        corrupted(nowcast, os.path.join(nowcast.work, "prep", "lead_5min", "cdf_map.json"),
                  unorder_quantiles, "not monotone", "an unordered quantile map")
    finally:
        for runner in (sweep, nowcast):
            shutil.rmtree(runner.work, ignore_errors=True)


def check_toy_runs() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    expect({w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS),
           "every workload of BENCHMARK.json is a workload of run.py")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        expect(declared == table, f"{key} names, units and directions match BENCHMARK.json")
    for workload in run.WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
                capture_output=True, text=True, timeout=600)
            what = f"{workload} toy run, trace {trace}"
            try:
                out = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{what}: prints a result ({done.stderr[-500:]})")
                continue
            expect(done.returncode == 0 and out["correct"], f"{what}: correct")
            expect(sorted(out) == ["attempted", "correct", "failed", "metrics"]
                   and out["attempted"] >= 1 and out["failed"] == 0, f"{what}: counts")
            got = [(n, v["unit"]) for n, v in out["metrics"].items()]
            expect(got == [(n, u) for n, u, _ in table], f"{what}: metric names and units")
            values = [v["value"] for v in out["metrics"].values()]
            expect(all(isinstance(x, (int, float)) and math.isfinite(x) for x in values),
                   f"{what}: finite values")
            if trace == 0:
                expect(all(x > 0 for x in values), f"{what}: end-to-end values above 0")


def main() -> int:
    if not os.path.isfile(os.path.join("src", "gwindcast", "__init__.py")):
        print("error: run from the root of a gwindcast checkout", file=sys.stderr)
        return 2
    check_corruptions()
    check_toy_runs()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
