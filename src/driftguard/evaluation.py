"""Time-aware evaluation: temporal split, per-slot confusion metrics,
partial AUC at a false-positive-rate cap, and decay-slope summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import DataError, Dataset, LinearModel, check_bound, score_dataset
from .drift import DriftConfig, SlotView, fit_slope


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


def slot_confusion(model: LinearModel, test: Dataset, config: DriftConfig) -> list[SlotMetrics]:
    """Per-slot confusion counts, precision and recall on the test set."""
    return evaluate_slots(model, test, config, None)


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


def check_fpr_cap(fpr_cap: float) -> None:
    """Raise DataError unless fpr_cap is in (0, 1]."""
    if not 0.0 < fpr_cap <= 1.0:
        raise DataError(f"fpr_cap must be in (0, 1], got {fpr_cap}")


def _partial_auc_from_scores(pos_scores: np.ndarray, neg_scores: np.ndarray,
                             fpr_cap: float) -> float:
    """Trapezoidal area under the ROC up to fpr_cap, normalized by fpr_cap."""
    check_fpr_cap(fpr_cap)
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        raise DataError("partial AUC requires samples from both classes")
    fpr, tpr = _roc_vertices(np.asarray(pos_scores, float), np.asarray(neg_scores, float))
    # fpr runs from 0 to 1 without decreasing, so fpr[k - 1] < fpr_cap <= fpr[k]:
    # segments 1..k-1 lie wholly below the cap, and segment k is the last one.
    k = int(np.searchsorted(fpr, fpr_cap))
    x0, y0, x1, y1 = fpr[k - 1], tpr[k - 1], fpr[k], tpr[k]
    if x1 > fpr_cap:
        y1 = y0 + (y1 - y0) * (fpr_cap - x0) / (x1 - x0)
        x1 = fpr_cap
    last = 0.5 * (y0 + y1) * (x1 - x0)
    widths = fpr[1:k] - fpr[:k - 1]
    terms = (0.5 * (tpr[:k - 1] + tpr[1:k]) * widths)[widths > 0]
    # cumsum adds left to right, so the area is summed in vertex order
    area = np.cumsum(np.append(terms, last))[-1]
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
                   fpr_cap: float | None, *, view: SlotView | None = None) -> list[SlotMetrics]:
    """Per-slot confusion counts, precision and recall, plus partial AUC when
    fpr_cap is given (None for single-class slots).

    ``view``, when given, is ``SlotView.build(test, config).scored(model, test)``
    computed once by the caller.
    """
    check_bound(model, test)
    if view is None:  # an empty test set has no slots and fails here
        view = SlotView.build(test, config).scored(model, test)
    out = []
    for k, (start, end) in enumerate(view.layout.bounds):
        neg, pos = view.group(k, 0), view.group(k, 1)
        n_pos, n_neg = len(pos), len(neg)
        tp, fp = int(np.count_nonzero(pos >= 0.0)), int(np.count_nonzero(neg >= 0.0))
        precision = tp / (tp + fp) if (tp + fp) > 0 else None
        recall = tp / n_pos if n_pos > 0 else None
        pauc = None
        if fpr_cap is not None and n_pos and n_neg:
            pauc = _partial_auc_from_scores(pos, neg, fpr_cap)
        out.append(SlotMetrics(k, start, end, n_pos, n_neg, tp, fp, n_pos - tp, n_neg - fp,
                               precision, recall, pauc))
    return out


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
