"""Spans around calls into the program's public functions, and the
per-layer metrics computed from them.

The benchmark patches module and class attributes of gwindcast so that each
call records [name, start, end, parent, meta]. Spans stay in memory and are
written once, when the process ends. With ``active`` false a patched
function costs one attribute test per call. Nothing here imports gwindcast.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time

NAME, START, END, PARENT, META = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = None

    def wrap(self, owner, attr, name, meta=None, after=None):
        """Replace owner.attr by a recording wrapper.

        meta(args, kwargs) and after(result) give the span's metadata
        before and after the call."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    meta(args, kwargs) if meta else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if after:
                span[META] = after(result)
            return result

        setattr(owner, attr, traced)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def start_round(self):
        """Record spans and time collector pauses until end_round."""
        self.active = True
        gc.callbacks.append(self._on_gc)

    def end_round(self):
        self.active = False
        gc.callbacks.remove(self._on_gc)


def concat(first: list, second: list) -> list:
    """Span lists of two processes as one list (parents re-indexed)."""
    off = len(first)
    return first + [[n, s, e, p + off if p >= 0 else -1, m] for n, s, e, p, m in second]


def layer_metrics(spans: list, round_span) -> dict:
    """Per-layer reductions; 0 where a layer is not called on a workload.

    round_span is the [start, end) index range of the traced round's spans,
    over which per-lead write time is taken."""
    dur = [s[END] - s[START] for s in spans]
    kids = [0.0] * len(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            kids[s[PARENT]] += dur[i]

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    def durs(name):
        return [dur[i] for i in by_name.get(name, [])]

    def ancestor(i, name):
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        return p

    steps = [i for i in by_name.get("model.forward_batch", []) if spans[i][META]["training"]]
    per_step = {}
    for layer in ("neural.attention_fwd", "neural.batchnorm_fwd", "neural.dense_fwd"):
        acc = dict.fromkeys(steps, 0.0)
        for i in by_name.get(layer, []):
            step = ancestor(i, "model.forward_batch")
            if step in acc:
                acc[step] += dur[i]
        per_step[layer] = med(list(acc.values()))

    predicts = by_name.get("model.predict", [])
    one = [dur[i] for i in predicts if spans[i][META]["rows"] == 1]
    multi = [i for i in predicts if spans[i][META]["rows"] > 1]
    val = [dur[i] for i in multi
           if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "trainer.train"]

    reads = {}
    for i in by_name.get("fileio.read_csv", []):
        scene = ancestor(i, "harness.prepare_scene")
        reads[scene] = reads.get(scene, 0.0) + dur[i]
    lo, hi = round_span
    writes = [dur[i] for i in by_name.get("fileio.write", []) if lo <= i < hi]
    leads = [i for i in by_name.get("harness.run_single_lead", []) if lo <= i < hi]

    return {
        "fileio.read_csv_s": med(list(reads.values())),
        "fileio.write_artifacts_ms": 1e3 * sum(writes) / len(leads) if leads else 0.0,
        "preprocess.fill_gaps_ms": 1e3 * med(durs("preprocess.fill_gaps")),
        "preprocess.build_samples_ms": 1e3 * med(durs("preprocess.build_samples")),
        "neural.attention_fwd_ms": 1e3 * per_step["neural.attention_fwd"],
        "neural.batchnorm_fwd_ms": 1e3 * per_step["neural.batchnorm_fwd"],
        "neural.dense_fwd_ms": 1e3 * per_step["neural.dense_fwd"],
        "neural.backward_ms": 1e3 * med(durs("neural.backward")),
        "model.forward_batch_ms": 1e3 * med([dur[i] for i in steps]),
        "model.predict_one_ms": 1e3 * med(one),
        "model.predict_rows_per_s": sum(spans[i][META]["rows"] for i in multi)
        / sum(dur[i] for i in multi) if multi else 0.0,
        "model.load_model_ms": 1e3 * med(durs("model.load_model")),
        "trainer.adam_step_ms": 1e3 * med(durs("trainer.adam_step")),
        "trainer.val_pass_ms": 1e3 * med(val),
        "trainer.epochs_run": med([spans[i][META]["epochs"] for i in by_name.get("trainer.train", [])]),
        "postprocess.fit_cdf_map_ms": 1e3 * med(durs("postprocess.fit_cdf_map")),
        "postprocess.apply_cdf_map_us": 1e6 * med(durs("postprocess.apply_cdf_map")),
        "metrics.evaluate_series_ms": 1e3 * med(durs("metrics.evaluate_series")),
        "harness.prepare_scene_s": med(durs("harness.prepare_scene")),
        "harness.calibrated_predictions_ms": 1e3 * med(durs("harness.calibrated_predictions")),
        "harness.run_single_lead_s": med([dur[i] - kids[i] for i in leads]),
    }
