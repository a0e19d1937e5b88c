"""Forecast verification metrics and reports.

Array arguments pair a prediction with a truth of identical shape. Axis 0 is
time; any remaining axes enumerate cells (for example level x station). Four
metrics are reported:

* rmse, mae -- pooled over every element;
* rmspe -- per cell, temporal RMSE divided by the temporal range
  (max - min) of the truth, averaged over cells; cells with zero truth
  range are excluded and counted;
* pearson_r -- per cell, the temporal Pearson correlation, averaged over
  cells; cells where either series is constant (or shorter than 2 valid
  steps) are excluded and counted.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import fileio
from .core import COMPONENTS, WindSeries
from .errors import AllCellsDegenerate, EmptyInput, Misaligned, ShapeMismatch


def _check(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeMismatch(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if pred.size == 0:
        raise EmptyInput("metric called on zero elements")
    return pred, truth


def rmse(pred, truth) -> float:
    pred, truth = _check(pred, truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def mae(pred, truth) -> float:
    pred, truth = _check(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


def _cells(a) -> np.ndarray:
    return a.reshape(a.shape[0], -1)


def rmspe_cells(pred, truth):
    """Per-cell range-relative RMSE and its validity mask."""
    pred, truth = _check(pred, truth)
    p, t = _cells(pred), _cells(truth)
    cell_rmse = np.sqrt(np.mean((p - t) ** 2, axis=0))
    rng = t.max(axis=0) - t.min(axis=0)
    valid = rng > 0
    values = np.full(p.shape[1], np.nan)
    values[valid] = cell_rmse[valid] / rng[valid]
    return values, valid


def rmspe(pred, truth) -> float:
    values, valid = rmspe_cells(pred, truth)
    if not valid.any():
        raise AllCellsDegenerate("every cell has zero truth range")
    return float(values[valid].mean())


def pearson_cells(pred, truth):
    """Per-cell temporal Pearson correlation and its validity mask."""
    pred, truth = _check(pred, truth)
    p, t = _cells(pred), _cells(truth)
    if p.shape[0] < 2:
        return np.full(p.shape[1], np.nan), np.zeros(p.shape[1], dtype=bool)
    pc = p - p.mean(axis=0)
    tc = t - t.mean(axis=0)
    sp = np.sqrt((pc * pc).sum(axis=0))
    st = np.sqrt((tc * tc).sum(axis=0))
    valid = (sp > 0) & (st > 0)
    values = np.full(p.shape[1], np.nan)
    denom = np.where(valid, sp * st, 1.0)
    values[valid] = ((pc * tc).sum(axis=0) / denom)[valid]
    return values, valid


def pearson_r(pred, truth) -> float:
    values, valid = pearson_cells(pred, truth)
    if not valid.any():
        raise AllCellsDegenerate("every cell is constant in prediction or truth")
    return float(values[valid].mean())


@dataclass(frozen=True)
class MetricRow:
    """One evaluation slice. ``level``/``component`` are labels; the pooled
    rows use the label 'all'. Degenerate-cell counts record exclusions."""

    lead_minutes: float
    level: str
    component: str
    rmse: float
    mae: float
    rmspe: float
    r: float
    n_samples: int
    n_cells: int
    n_range_degenerate: int
    n_r_degenerate: int


_ROW_TYPES = {"float": float, "int": int, "str": str}  # MetricRow's field annotations


@dataclass(frozen=True)
class MetricReport:
    lead_minutes: float
    level_labels: tuple
    rows: tuple

    def row(self, level: str, component: str) -> MetricRow:
        for r in self.rows:
            if r.level == level and r.component == component:
                return r
        raise KeyError((level, component))

    def to_dict(self) -> dict:
        return {
            "lead_minutes": self.lead_minutes,
            "level_labels": list(self.level_labels),
            "rows": [asdict(r) for r in self.rows],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        """Inverse of :meth:`to_dict`; a missing field is a KeyError, a value
        that does not convert to its field's type a ValueError or TypeError."""
        return cls(
            lead_minutes=float(d["lead_minutes"]),
            level_labels=tuple(str(lab) for lab in d["level_labels"]),
            rows=tuple(MetricRow(**{f.name: _ROW_TYPES[f.type](r[f.name])
                                    for f in fields(MetricRow)}) for r in d["rows"]),
        )


def _slice_row(lead_minutes, level_label, component, pred, truth) -> MetricRow:
    """Metrics for one (time, station) slice of aligned series."""
    rmspe_vals, rmspe_valid = rmspe_cells(pred, truth)
    r_vals, r_valid = pearson_cells(pred, truth)
    return MetricRow(
        lead_minutes=lead_minutes,
        level=level_label,
        component=component,
        rmse=rmse(pred, truth),
        mae=mae(pred, truth),
        rmspe=float(rmspe_vals[rmspe_valid].mean()) if rmspe_valid.any() else float("nan"),
        r=float(r_vals[r_valid].mean()) if r_valid.any() else float("nan"),
        n_samples=int(pred.size),
        n_cells=int(rmspe_vals.size),
        n_range_degenerate=int((~rmspe_valid).sum()),
        n_r_degenerate=int((~r_valid).sum()),
    )


def evaluate_series(pred: WindSeries, truth: WindSeries, lead_minutes: float) -> MetricReport:
    """Full per-(level, component) report over aligned wind series.

    Emits one row per (level, component), a pooled row per component
    (level = 'all', cells pooled across levels), and one overall row
    (level = 'all', component = 'all').
    """
    if not np.array_equal(pred.times, truth.times):
        raise Misaligned("prediction and truth target times differ")
    if pred.levels != truth.levels:
        raise Misaligned("prediction and truth levels differ")
    if pred.stations.ids != truth.stations.ids:
        raise Misaligned("prediction and truth stations differ")
    if pred.values.shape != truth.values.shape:
        raise ShapeMismatch(f"{pred.values.shape} != {truth.values.shape}")
    labels = truth.levels.labels()
    rows = []
    for l, lab in enumerate(labels):
        for c, comp in enumerate(COMPONENTS):
            rows.append(_slice_row(lead_minutes, lab, comp,
                                   pred.values[:, l, :, c], truth.values[:, l, :, c]))
    for c, comp in enumerate(COMPONENTS):
        rows.append(_slice_row(lead_minutes, "all", comp,
                               pred.values[:, :, :, c], truth.values[:, :, :, c]))
    rows.append(_slice_row(lead_minutes, "all", "all", pred.values, truth.values))
    return MetricReport(lead_minutes=lead_minutes, level_labels=tuple(labels), rows=tuple(rows))


def write_report(path, report: MetricReport) -> None:
    fileio.write_json(path, report.to_dict())


def read_report(path) -> MetricReport:
    return fileio.read_json(path, "metric report", MetricReport.from_dict)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def mosaic_table(reports: dict, metric: str, component: str) -> str:
    """One (level x lead) delimited table for a metric/component pair.

    ``reports`` maps lead minutes -> MetricReport. Rows are levels in level
    order; columns are leads in ascending order; 9-significant-digit values.
    """
    leads = sorted(reports)
    level_labels = reports[leads[0]].level_labels
    lines = ["level," + ",".join(f"lead_{format(ld, 'g')}min" for ld in leads)]
    for lab in level_labels:
        cells = [_fmt(getattr(reports[ld].row(lab, component), metric)) for ld in leads]
        lines.append(f"{lab}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def write_mosaic_tables(out_dir, reports: dict) -> list:
    """Write mosaic_{metric}_{component}.csv for all metrics and components;
    returns the file paths written."""
    paths = []
    for metric in ("rmse", "mae", "rmspe", "r"):
        for comp in COMPONENTS:
            path = os.path.join(out_dir, f"mosaic_{metric}_{comp}.csv")
            fileio.write_text(path, mosaic_table(reports, metric, comp))
            paths.append(path)
    return paths
