"""Time-aware evaluation: temporal split, per-slot confusion metrics,
partial AUC at a false-positive-rate cap, and decay-slope summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import DataError, Dataset, LinearModel, check_bound, score_dataset
from .drift import DriftConfig, fit_slope, slot_layout


@dataclass(frozen=True)
class SplitSpec:
    """Temporal split boundary: train strictly before, test at/after."""

    boundary: int


def temporal_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition by time so no training sample is at or after the boundary.

    Every sample lands on exactly one side; both sides must be nonempty.
    """
    if dataset.n == 0:
        raise DataError("cannot split an empty dataset")
    train_mask = dataset.timestamps < spec.boundary
    n_train = int(train_mask.sum())
    if n_train == 0:
        raise DataError(f"temporal split at {spec.boundary}: training side is empty")
    if n_train == dataset.n:
        raise DataError(f"temporal split at {spec.boundary}: test side is empty")
    return dataset.subset(train_mask), dataset.subset(~train_mask)


@dataclass
class SlotMetrics:
    """Confusion counts and derived metrics for one evaluation slot.

    precision/recall/pauc are None when their denominator is empty
    (explicit nulls, never silently 0).
    """

    slot: int
    start: int
    end: int
    n_pos: int
    n_neg: int
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float | None
    recall: float | None
    pauc: float | None = None


def _confusion_for_slot(labels: np.ndarray, preds: np.ndarray) -> tuple[int, int, int, int]:
    tp = int(np.sum((labels == 1) & (preds == 1)))
    fp = int(np.sum((labels == 0) & (preds == 1)))
    fn = int(np.sum((labels == 1) & (preds == 0)))
    tn = int(np.sum((labels == 0) & (preds == 0)))
    return tp, fp, fn, tn


def _slot_metrics(model: LinearModel, test: Dataset, config: DriftConfig,
                  fpr_cap: float | None) -> list[SlotMetrics]:
    """Per-slot confusion counts, plus partial AUC when fpr_cap is given.

    The slot layout and the scores are computed once for all slots.
    """
    check_bound(model, test)
    if test.n == 0:
        raise DataError("cannot evaluate an empty dataset")
    layout = slot_layout(test, config)
    scores = score_dataset(model, test)
    preds = (scores >= 0.0).astype(np.int8)
    out = []
    for k, (start, end) in enumerate(layout.bounds):
        sel = layout.slot_ids == k
        labels = test.labels[sel]
        tp, fp, fn, tn = _confusion_for_slot(labels, preds[sel])
        n_pos = tp + fn
        n_neg = fp + tn
        precision = tp / (tp + fp) if (tp + fp) > 0 else None
        recall = tp / n_pos if n_pos > 0 else None
        pauc = None
        if fpr_cap is not None and n_pos and n_neg:
            slot_scores = scores[sel]
            pauc = _partial_auc_from_scores(slot_scores[labels == 1],
                                            slot_scores[labels == 0], fpr_cap)
        out.append(SlotMetrics(k, start, end, n_pos, n_neg, tp, fp, fn, tn,
                               precision, recall, pauc))
    return out


def slot_confusion(model: LinearModel, test: Dataset, config: DriftConfig) -> list[SlotMetrics]:
    """Per-slot confusion counts, precision and recall on the test set."""
    return _slot_metrics(model, test, config, None)


def _roc_vertices(pos_scores: np.ndarray, neg_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical ROC polyline from (0,0) to (1,1).

    Equal-score groups are processed atomically, so a tie group spanning
    both classes produces one sloped segment (the unbiased convention).
    """
    n_pos = len(pos_scores)
    n_neg = len(neg_scores)
    all_scores = np.concatenate([pos_scores, neg_scores])
    is_pos = np.concatenate([np.ones(n_pos, bool), np.zeros(n_neg, bool)])
    order = np.argsort(-all_scores, kind="stable")
    sorted_scores = all_scores[order]
    sorted_pos = is_pos[order]
    # group boundaries where the (descending) score changes
    change = np.flatnonzero(np.diff(sorted_scores)) + 1
    group_ends = np.concatenate([change, [len(sorted_scores)]])
    tp_cum = np.cumsum(sorted_pos)[group_ends - 1]
    fp_cum = group_ends - tp_cum
    fpr = np.concatenate([[0.0], fp_cum / n_neg])
    tpr = np.concatenate([[0.0], tp_cum / n_pos])
    return fpr, tpr


def _partial_auc_from_scores(pos_scores: np.ndarray, neg_scores: np.ndarray,
                             fpr_cap: float) -> float:
    """Trapezoidal area under the ROC up to fpr_cap, normalized by fpr_cap."""
    if not 0.0 < fpr_cap <= 1.0:
        raise DataError(f"fpr_cap must be in (0, 1], got {fpr_cap}")
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        raise DataError("partial AUC requires samples from both classes")
    fpr, tpr = _roc_vertices(np.asarray(pos_scores, float), np.asarray(neg_scores, float))
    area = 0.0
    for i in range(1, len(fpr)):
        x0, y0, x1, y1 = fpr[i - 1], tpr[i - 1], fpr[i], tpr[i]
        if x0 >= fpr_cap:
            break
        if x1 <= x0:
            continue
        if x1 > fpr_cap:
            y1 = y0 + (y1 - y0) * (fpr_cap - x0) / (x1 - x0)
            x1 = fpr_cap
        area += 0.5 * (y0 + y1) * (x1 - x0)
        if x1 >= fpr_cap:
            break
    return area / fpr_cap


def partial_auc(model: LinearModel, samples: Dataset, fpr_cap: float) -> float:
    """Area under the empirical ROC restricted to FPR <= fpr_cap, in [0, 1].

    The raw clipped area is divided by fpr_cap so a perfect separator
    scores 1.0 at any cap.
    """
    check_bound(model, samples)
    s = score_dataset(model, samples)
    pos = s[samples.labels == 1]
    neg = s[samples.labels == 0]
    return _partial_auc_from_scores(pos, neg, fpr_cap)


def evaluate_slots(model: LinearModel, test: Dataset, config: DriftConfig,
                   fpr_cap: float) -> list[SlotMetrics]:
    """slot_confusion plus per-slot partial AUC (None for single-class slots)."""
    return _slot_metrics(model, test, config, fpr_cap)


def decay_slope(series: Iterable[tuple[int, float | None]]) -> float:
    """OLS slope of a per-slot metric over slot index, skipping None points.

    The scalar summary of how fast a metric decays across the test period;
    requires at least two defined points.
    """
    pts = [(k, v) for k, v in series if v is not None]
    if len(pts) < 2:
        raise DataError(f"decay slope needs >= 2 defined points, got {len(pts)}")
    fit = fit_slope(pts)
    if fit.degenerate:
        raise DataError("decay slope is degenerate: all points share one slot index")
    return fit.slope
