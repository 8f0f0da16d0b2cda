"""Temporal drift analysis: slot quantization, per-slot class-conditional
feature means, regression slopes, and the per-feature stability metric.

The stability value of feature j is delta_j = w_j * m_j, where w_j is the
model weight and m_j is the least-squares slope of the feature's per-slot
mean within the analyzed class. Large negative values mark features that
accelerate score decay over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels
from .core import DataError, Dataset, LinearModel, check_bound, score_dataset

SLOT_MODES = ("fixed", "month")


@dataclass(frozen=True)
class DriftConfig:
    """How to quantize time and which class to analyze.

    ``fixed`` mode uses windows of dt_seconds anchored at the dataset's
    earliest timestamp; ``month`` mode uses UTC calendar months.
    class_filter selects the label whose per-slot feature means are studied
    (1 = positive class, matching decay analysis of detector recall).
    """

    slot_mode: str = "month"
    dt_seconds: int = 2_592_000
    class_filter: int = 1

    def __post_init__(self):
        if self.slot_mode == "calendar_month":  # accepted alias
            object.__setattr__(self, "slot_mode", "month")
        if self.slot_mode == "fixed_seconds":
            object.__setattr__(self, "slot_mode", "fixed")
        if self.slot_mode not in SLOT_MODES:
            raise DataError(f"unknown slot mode {self.slot_mode!r}; expected one of {SLOT_MODES}")
        if self.slot_mode == "fixed" and self.dt_seconds <= 0:
            raise DataError(f"dt_seconds must be > 0, got {self.dt_seconds}")
        if self.class_filter not in (0, 1):
            raise DataError(f"class_filter must be 0 or 1, got {self.class_filter}")


class SlotLayout(NamedTuple):
    """Slot assignment for one dataset: per-sample slot ids plus slot bounds."""

    slot_ids: np.ndarray            # int64, one per sample
    bounds: tuple[tuple[int, int], ...]  # per-slot (start, end) epoch seconds

    @property
    def n_slots(self) -> int:
        return len(self.bounds)


def _month_index(ts: int) -> int:
    dt = datetime.fromtimestamp(int(ts), tz=timezone.utc)
    return dt.year * 12 + (dt.month - 1)


def _month_start_epoch(month_index: int) -> int:
    year, month = divmod(month_index, 12)
    return int(datetime(year, month + 1, 1, tzinfo=timezone.utc).timestamp())


def slot_layout(dataset: Dataset, config: DriftConfig) -> SlotLayout:
    """Assign every sample to exactly one slot.

    Fixed mode partitions [t_min, t_max] into half-open windows
    [t_min + k*dt, t_min + (k+1)*dt), the final window right-closed so the
    latest sample always lands inside. Month mode spans every UTC calendar
    month from t_min's to t_max's inclusive, empty months included.
    """
    if dataset.n == 0:
        raise DataError("cannot slot an empty dataset")
    ts = dataset.timestamps
    if config.slot_mode == "fixed":
        t_min = int(ts.min())
        t_max = int(ts.max())
        dt = config.dt_seconds
        n_slots = max(1, -((t_min - t_max) // dt))  # ceil((t_max - t_min) / dt)
        ids = (ts - t_min) // dt
        ids = np.minimum(ids, n_slots - 1).astype(np.int64)
        bounds = tuple((t_min + k * dt, t_min + (k + 1) * dt) for k in range(n_slots))
        return SlotLayout(ids, bounds)
    first = _month_index(int(ts.min()))
    last = _month_index(int(ts.max()))
    ids = np.fromiter((_month_index(t) - first for t in ts), dtype=np.int64, count=len(ts))
    bounds = tuple(
        (_month_start_epoch(first + k), _month_start_epoch(first + k + 1))
        for k in range(last - first + 1)
    )
    return SlotLayout(ids, bounds)


def slot_count(dataset: Dataset, config: DriftConfig) -> int:
    """Number of time slots the dataset spans under config (>= 1)."""
    return slot_layout(dataset, config).n_slots


@dataclass
class SlotMeans:
    """Per-slot mean feature activations of the filtered class.

    matrix is (d, T) with entries in [0, 1]. Slots with no samples of the
    filtered class keep zero columns but are flagged via ``empty``; they
    must be excluded from any trend fitting, never treated as observed
    zeros.
    """

    matrix: np.ndarray
    counts: np.ndarray
    bounds: tuple[tuple[int, int], ...]

    @property
    def n_slots(self) -> int:
        return len(self.counts)

    @property
    def empty(self) -> np.ndarray:
        return self.counts == 0


def slot_means(dataset: Dataset, config: DriftConfig) -> SlotMeans:
    """Mean binary feature vector of the filtered class, per slot."""
    layout = slot_layout(dataset, config)
    mask = dataset.labels == config.class_filter
    sums, counts = _kernels.slot_sums(
        dataset.indptr, dataset.indices, layout.slot_ids, mask,
        dataset.d, layout.n_slots,
    )
    matrix = np.zeros_like(sums)
    filled = counts > 0
    matrix[:, filled] = sums[:, filled] / counts[filled]
    return SlotMeans(matrix=matrix, counts=counts, bounds=layout.bounds)


class SlopeFit(NamedTuple):
    """Least-squares slope plus a degeneracy flag.

    degenerate is True when fewer than two usable points were supplied (or
    all abscissae coincide); the slope is then reported as 0.0.
    """

    slope: float
    degenerate: bool


def fit_slope(points: Iterable[tuple[float, float]]) -> SlopeFit:
    """Ordinary least-squares slope of value against position.

    points are (k, value) pairs; callers exclude empty slots before fitting.
    """
    pts = [(float(k), float(v)) for k, v in points]
    if len(pts) < 2:
        return SlopeFit(0.0, True)
    ks = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    kc = ks - ks.mean()
    denom = float(np.dot(kc, kc))
    if denom == 0.0:
        return SlopeFit(0.0, True)
    return SlopeFit(float(np.dot(kc, vs) / denom), False)


def _slopes_for_matrix(matrix: np.ndarray, empty: np.ndarray) -> tuple[np.ndarray, bool]:
    """Row-wise OLS slopes over the non-empty slots; (slopes, degenerate)."""
    usable = np.flatnonzero(~empty)
    if usable.size < 2:
        return np.zeros(matrix.shape[0]), True
    ks = usable.astype(np.float64)
    kc = ks - ks.mean()
    denom = float(np.dot(kc, kc))
    slopes = matrix[:, usable] @ kc / denom
    return slopes, False


@dataclass(frozen=True)
class DriftRecord:
    """Stability record of one feature."""

    index: int
    name: str
    weight: float
    slope: float
    delta: float
    observed: bool


@dataclass
class DriftReport:
    """Per-feature stability, sorted most-destabilizing first.

    records are ordered by delta ascending, ties broken by feature index.
    ``delta``, ``slopes`` and ``observed`` are index-aligned vectors for
    programmatic use. Features never seen in the analyzed class carry
    slope 0 (hence delta 0) and observed=False.
    """

    records: tuple[DriftRecord, ...]
    delta: np.ndarray
    slopes: np.ndarray
    observed: np.ndarray
    slot_counts: np.ndarray
    slot_bounds: tuple[tuple[int, int], ...]


def stability_values(weights: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Elementwise stability: delta_j = w_j * m_j."""
    weights = np.asarray(weights, dtype=np.float64)
    slopes = np.asarray(slopes, dtype=np.float64)
    if weights.shape != slopes.shape:
        raise DataError(
            f"weights and slopes must align, got {weights.shape} vs {slopes.shape}"
        )
    return weights * slopes


def t_stability(model: LinearModel, dataset: Dataset, config: DriftConfig) -> DriftReport:
    """Full drift analysis: slot means, per-feature slopes, delta = w * m."""
    check_bound(model, dataset)
    means = slot_means(dataset, config)
    slopes, _ = _slopes_for_matrix(means.matrix, means.empty)
    observed = means.matrix.max(axis=1) > 0.0
    delta = stability_values(model.weights, slopes)
    names = dataset.dictionary.names
    order = np.argsort(delta, kind="stable")
    records = tuple(
        DriftRecord(
            index=int(j),
            name=names[j],
            weight=float(model.weights[j]),
            slope=float(slopes[j]),
            delta=float(delta[j]),
            observed=bool(observed[j]),
        )
        for j in order
    )
    return DriftReport(
        records=records,
        delta=delta,
        slopes=slopes,
        observed=observed,
        slot_counts=means.counts,
        slot_bounds=means.bounds,
    )


@dataclass(frozen=True)
class SlotScoreStats:
    """Score statistics of one class within one slot; stats are None when empty."""

    slot: int
    start: int
    end: int
    count: int
    mean: float | None
    std: float | None
    min: float | None
    max: float | None


def score_trend(model: LinearModel, dataset: Dataset, config: DriftConfig,
                class_label: int = 1) -> list[SlotScoreStats]:
    """Per-slot score statistics (mean/std/min/max) for one class.

    std is the population standard deviation. Slots with no samples of the
    class are emitted with count 0 and None statistics.
    """
    layout = slot_layout(dataset, config)
    s = score_dataset(model, dataset)
    mask = dataset.labels == class_label
    out = []
    for k, (start, end) in enumerate(layout.bounds):
        sel = s[mask & (layout.slot_ids == k)]
        if sel.size == 0:
            out.append(SlotScoreStats(k, start, end, 0, None, None, None, None))
        else:
            out.append(SlotScoreStats(
                k, start, end, int(sel.size),
                float(sel.mean()), float(sel.std()),
                float(sel.min()), float(sel.max()),
            ))
    return out
