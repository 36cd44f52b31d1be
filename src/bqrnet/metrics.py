"""Dataset-level metrics: empirical coverage, confidence-binned
misclassification and retention, calibration fit, pair-count AUC, and accuracy.

Undefined values (empty retained sets, empty bins, an R^2 of constant rates)
are surfaced as None, never silently dropped, so report shapes stay fixed.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

import numpy as np

from . import datasets, smoothing
from .datasets import write_rows
from .losses import check_labels
from .network import TauGrid

DELTA_BIN_CENTERS = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclasses.dataclass
class CoverageTable:
    grid: TauGrid
    coverage: np.ndarray

    def to_csv(self, path, dataset_name: str = ""):
        write_rows(path, ["dataset"] + [f"{t:g}" for t in self.grid.levels],
                   [[dataset_name] + [f"{c:.4f}" for c in self.coverage]])


def coverage(ds, preds, grid: TauGrid) -> CoverageTable:
    """Share of rows whose latent lies strictly below each quantile column,
    both normalized by datasets.normalize_for_coverage; nominally tau."""
    latent, preds = datasets.normalize_for_coverage(ds, preds, grid)
    return CoverageTable(grid, (latent[:, None] < preds).mean(axis=0))


def accuracy(predicted, actual) -> float:
    """Share of n predicted 0/1 labels equal to the n actual ones."""
    actual = check_labels(actual, np.size(predicted))
    predicted = check_labels(predicted, actual.size)
    if actual.size == 0:
        raise ValueError("accuracy of an empty sample is undefined")
    return float(np.mean(predicted == actual))


def r_squared(observed, predicted) -> Optional[float]:
    """Coefficient of determination of predicted against observed; can be
    arbitrarily negative for a poor fit, and is None (undefined) when the
    observed values do not vary."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    ss_res = float(np.sum((observed - predicted) ** 2))
    ss_tot = float(np.sum((observed - observed.mean()) ** 2))
    return None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


@dataclasses.dataclass
class DeltaBinReport:
    """The share of labels the rows' signs get right, the figures per
    threshold at DELTA_BIN_CENTERS, and the per-bin fit's r2."""

    accuracy: float
    misclassification: list  # per threshold; None when nothing retained
    retention: list
    r2: Optional[float]

    def to_csv(self, path, dataset_name: str = ""):
        fmt = lambda v: "NA" if v is None else f"{v:.4f}"
        write_rows(path, ["dataset", "rate"]
                   + [f"{t:g}" for t in DELTA_BIN_CENTERS] + ["r2"],
                   [[dataset_name, "m_r"]
                    + [fmt(v) for v in self.misclassification]
                    + [fmt(self.r2)],
                    [dataset_name, "r_r"]
                    + [f"{v:.4f}" for v in self.retention] + [""]])


def delta_report(pred_matrix, grid: TauGrid, labels) -> DeltaBinReport:
    """Accuracy, misclassification and retention per confidence threshold,
    plus the calibration fit of per-bin misclassification against
    0.5 - mean(delta); smoothing.delta_scores applies the rows rule to
    ``pred_matrix`` and gives each row's delta and label.

    The thresholds and the bin centers are both DELTA_BIN_CENTERS. A row is
    retained at threshold t when its delta >= t; bins assign each row to the
    nearest center.
    """
    scores = smoothing.delta_scores(pred_matrix, grid)
    deltas = scores.delta
    wrong = scores.predicted_label != check_labels(labels, deltas.size)
    centers = np.asarray(DELTA_BIN_CENTERS)
    # (thresholds, rows): the rows kept at each threshold
    keep = deltas >= centers[:, None]
    kept, missed = keep.sum(axis=1), (keep & wrong).sum(axis=1)
    m_r = [float(w / k) if k else None for w, k in zip(missed, kept)]
    assign = np.argmin(np.abs(deltas[:, None] - centers[None, :]), axis=1)
    bins = assign == np.arange(len(centers))[:, None]
    bin_mean_delta = [float(deltas[b].mean()) if b.any() else None for b in bins]
    bin_m = [float(wrong[b].mean()) if b.any() else None for b in bins]
    obs = [m for m in bin_m if m is not None]
    pred = [0.5 - d for d in bin_mean_delta if d is not None]
    r2 = r_squared(obs, pred) if len(obs) >= 2 else None
    return DeltaBinReport(accuracy=float(np.mean(~wrong)),
                          misclassification=m_r,
                          retention=(kept / deltas.size).tolist(), r2=r2)


def roc_auc(scores, labels) -> Optional[float]:
    """Probability that a random positive outscores a random negative, ties
    counting half (the Mann-Whitney pair count). None when one class is
    absent, NaN when a score is NaN."""
    scores = np.asarray(scores, dtype=float)
    pos = check_labels(labels, scores.size) == 1.0
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    if np.isnan(scores).any():
        return float("nan")
    # positives in order too: the same counts, found faster
    neg, top = np.sort(scores[~pos]), np.sort(scores[pos])
    below = np.searchsorted(neg, top, side="left")
    tied = np.searchsorted(neg, top, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (n_pos * n_neg))


def roc_auc_at_delta(pred_matrix, grid: TauGrid, labels,
                     delta_min: float) -> Optional[float]:
    """AUC of the median column over the rows whose delta meets delta_min;
    smoothing.delta_scores applies the rows rule to ``pred_matrix``."""
    if not 0.0 <= delta_min <= 0.5:
        raise ValueError("delta_min must lie in [0, 0.5]")
    keep = smoothing.delta_scores(pred_matrix, grid).delta >= delta_min
    median = np.asarray(pred_matrix, dtype=float)[keep, grid.median_index]
    return roc_auc(median, check_labels(labels, keep.size)[keep])


def summary_json(path, payload: dict) -> None:
    """Write a reproducibility summary (config, seeds, metrics) as strict
    JSON: a NaN or infinite value is a ValueError, and nothing is written."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonify,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
