"""Paired benchmark runs of a base commit against HEAD.

Usage: python tools/bench_pairs.py BASE_REF --pairs N --out BENCH_<n>.json

Exports BASE_REF and HEAD with ``git archive`` and runs ``bench/run.py``
(untraced, for BENCHMARK.json's ``run_seconds``) on each, once per seed
1..N and per workload of BENCHMARK.json, so each seed gives one pair of
runs. Which side runs first alternates from pair to pair, because the side
that runs second can read a few percent slower. It refuses to run while
tracked files have uncommitted changes, so HEAD is the code measured. The
JSON file written holds both SHAs with the tree id of each side's ``src/``
(which a rebase or squash keeps), and per workload and end-to-end metric the
median and quartiles of each side (scaled and raw, as
``statistics.quantiles(values, n=4)`` gives them), the number of pairs HEAD
won, every run's figures and the BLAS each side ran with, and the lines
added and deleted under ``src/`` from BASE_REF to HEAD with their net change
(``git diff --numstat``). Where a metric's runs of both sides, pooled and
sorted, have a gap wider than its ``bound`` in BENCHMARK.json times their
median, it also records that gap and how many runs of each side fall below
and above it, so a metric with two modes (sweep ``peak_rss_mib``) shows
which mode each side's runs took. A run that exits non-zero, prints no
result or fails its checks counts as failed: it is listed with its error
and its pair is left out of the wins. It ends by printing the net ``src/``
line change, then each metric's medians and wins, scaled and raw side by
side, and the mode counts where there are any.

Run from anywhere inside the repository; needs git on PATH and uses only
the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from same_bytes import ROOT, export_ref

SIDES = ("base", "change")


def parse_run(stdout: str, returncode: int) -> dict:
    """One run's outcome from its standard output: the result object is the
    last line, the info object (raw timings, BLAS) the line before."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
        metrics = result["metrics"]
    except (IndexError, KeyError, TypeError, ValueError):
        return {"ok": False, "error": f"exit {returncode} without a result line"}
    run = {"ok": False, "scaled": {k: m["value"] for k, m in metrics.items()},
           "raw": info.get("raw", {}), "env": info.get("env", {})}
    if returncode != 0 or not result.get("correct"):
        run["error"] = f"exit {returncode}, check errors: {info.get('check_errors')}"
    elif result.get("failed"):
        run["error"] = f"{result['failed']} of {result.get('attempted')} operations failed"
    else:
        run["ok"] = True
    return run


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def modes(values: dict, bound: float):
    """Where both sides' runs, pooled and sorted, have a gap wider than
    ``bound`` times their median, the widest such gap as [below, above]
    and, per side, how many runs fall below and above it; else None.
    values holds each side's list of run values."""
    pooled = sorted(values["base"] + values["change"])
    width, i = max((hi - lo, i) for i, (lo, hi) in enumerate(zip(pooled, pooled[1:])))
    if width <= bound * statistics.median(pooled):
        return None
    lo, hi = pooled[i], pooled[i + 1]
    return {"gap": [lo, hi], **{side: {"below": sum(v <= lo for v in values[side]),
                                       "above": sum(v >= hi for v in values[side])}
                                for side in SIDES}}


def summarize(pairs: list, better: dict, bounds=None) -> dict:
    """Per metric and kind (scaled, raw): each side's median and quartiles
    over its successful runs, and in how many of the complete pairs the
    change was strictly better. A metric with a bound in ``bounds`` (name
    to bound) also records its two modes when :func:`modes` finds them.
    pairs holds {"base": run, "change": run}."""
    complete = [p for p in pairs if p["base"]["ok"] and p["change"]["ok"]]
    out = {"pairs": len(complete),
           "failed": {side: sum(not p[side]["ok"] for p in pairs) for side in SIDES},
           "metrics": {}}
    for name, direction in better.items():
        entry = {"better": direction}
        for kind in ("scaled", "raw"):
            values = {side: [p[side][kind][name] for p in pairs
                             if p[side]["ok"] and name in p[side][kind]] for side in SIDES}
            if not all(values.values()):
                continue
            stats = {side: quartiles(values[side]) for side in SIDES}
            sign = 1 if direction == "higher" else -1
            stats["change_wins"] = sum(
                sign * (p["change"][kind][name] - p["base"][kind][name]) > 0 for p in complete)
            if name in (bounds or {}) and (found := modes(values, bounds[name])):
                stats["modes"] = found
            entry[kind] = stats
        out["metrics"][name] = entry
    return out


def src_line_change(numstat: str) -> dict:
    """Lines added and deleted, and the net change, from ``git diff
    --numstat`` output; a binary file, counted as "-", adds no lines."""
    added = deleted = 0
    for line in numstat.splitlines():
        a, d, _ = line.split("\t", 2)
        if a != "-":
            added, deleted = added + int(a), deleted + int(d)
    return {"added": added, "deleted": deleted, "net": added - deleted}


def summary_lines(workloads: dict, src_lines=None) -> list:
    """The closing summary: the net src/ line change when given, then per
    workload its pair and failure counts, then per metric each side's
    median and the change's wins, scaled and then raw, and below it the
    runs of each side on either side of a modes gap. Raw stands beside
    scaled because the benchmark's scaling can reverse a direction the raw
    clock shows."""
    lines = []
    if src_lines is not None:
        lines.append(f"src/ lines: net {src_lines['net']:+d} "
                     f"({src_lines['added']} added, {src_lines['deleted']} deleted)")
    for workload, summary in workloads.items():
        lines.append(f"{workload}: {summary['pairs']} pairs, failed {summary['failed']}")
        for name, entry in summary["metrics"].items():
            parts = [f"{kind} {s['base']['median']:.6g} -> {s['change']['median']:.6g} "
                     f"(change better in {s['change_wins']})"
                     for kind in ("scaled", "raw") if (s := entry.get(kind))]
            if parts:
                lines.append(f"  {name}: " + "; ".join(parts))
            for kind in ("scaled", "raw"):
                if m := entry.get(kind, {}).get("modes"):
                    counts = "; ".join(f"{side} {m[side]['below']} below, "
                                       f"{m[side]['above']} above" for side in SIDES)
                    lines.append(f"    {kind} modes {m['gap'][0]:.6g} | {m['gap'][1]:.6g}: "
                                 + counts)
    return lines


def git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return parse_run(proc.stdout, proc.returncode)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref", help="commit to compare HEAD against")
    parser.add_argument("--pairs", type=int, required=True, help="seeds per workload")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_12.json")
    args = parser.parse_args(argv)
    if git("status", "--porcelain", "--untracked-files=no").stdout.strip():
        sys.exit("error: tracked files have uncommitted changes; commit them first")
    report = {}
    for side, ref in zip(SIDES, (args.base_ref, "HEAD")):
        sha = git("rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}").stdout.strip()
        if not sha:
            sys.exit(f"error: {ref} is not a commit")
        report[side] = {"ref": ref, "sha": sha,
                        "src_tree": git("rev-parse", f"{sha}:src").stdout.strip()}
    report["src_lines"] = src_line_change(git(
        "diff", "--numstat", report["base"]["sha"], report["change"]["sha"], "--", "src/").stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    seeds = list(range(1, args.pairs + 1))
    report.update(command=f"python3 bench/run.py --workload W --seed S --seconds {seconds!r} "
                          "--trace 0", seeds=seeds, workloads={})
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: os.path.dirname(export_ref(report[side]["sha"], os.path.join(tmp, side)))
                 for side in SIDES}
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(trees[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{'ok' if pair[side]['ok'] else pair[side]['error']}", flush=True)
                pairs.append(pair)
            summary = summarize(pairs, better, bounds)
            summary["env"] = {side: next((p[side]["env"] for p in pairs if p[side]["ok"]), None)
                              for side in SIDES}
            summary["runs"] = pairs
            report["workloads"][workload] = summary
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print("\n".join(summary_lines(report["workloads"], report["src_lines"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
