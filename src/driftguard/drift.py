"""Temporal drift analysis: slot quantization, per-slot class-conditional
feature means, regression slopes, and the per-feature stability metric.

The stability value of feature j is delta_j = w_j * m_j, where w_j is the
model weight and m_j is the least-squares slope of the feature's per-slot
mean within the analyzed class. Large negative values mark features that
accelerate score decay over time.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class SlotView(NamedTuple):
    """One dataset's samples grouped by (slot, class), plus optionally one model's scores.

    ``order`` is the stable argsort of ``slot_ids * 2 + labels``, so group
    ``2k + c`` (the class-c samples of slot k) is the contiguous run
    ``order[cuts[2k + c]:cuts[2k + c + 1]]``, in file order. ``scores`` holds
    one model's scores in that order; ``group`` slices them.
    """

    layout: SlotLayout
    order: np.ndarray
    cuts: np.ndarray                 # 2 * n_slots + 1 group boundaries into order
    scores: np.ndarray | None = None

    @classmethod
    def build(cls, dataset: Dataset, config: DriftConfig) -> "SlotView":
        layout = slot_layout(dataset, config)
        keys = layout.slot_ids * 2 + dataset.labels
        order = np.argsort(keys, kind="stable")
        return cls(layout, order, np.searchsorted(keys[order], np.arange(2 * layout.n_slots + 1)))

    def scored(self, model: LinearModel, dataset: Dataset) -> "SlotView":
        """This view carrying model's scores of dataset, the dataset it was built from."""
        if dataset.n != len(self.order):
            raise DataError(f"slot view of {len(self.order)} samples does not fit "
                            f"a dataset of {dataset.n}")
        return self._replace(scores=score_dataset(model, dataset)[self.order])

    def group(self, slot: int, label: int) -> np.ndarray:
        """Scores of slot's class-label samples, in file order."""
        g = 2 * slot + label
        return self.scores[self.cuts[g]:self.cuts[g + 1]]


# Month mode covers years 1 through 9999 UTC, epoch seconds in [_YEAR_1, _YEAR_10000).
_YEAR_1, _YEAR_10000 = np.array(["0001-01-01", "10000-01-01"],
                                dtype="datetime64[s]").astype(np.int64).tolist()
# Month mode makes at most 9999 * 12 slots; fixed mode is held to the same count.
MAX_SLOTS = 9999 * 12


def _slot_span(dataset: Dataset, config: DriftConfig) -> tuple[int, int]:
    """(t_min, slot count) of dataset under config, once the span can be slotted."""
    if dataset.n == 0:
        raise DataError("cannot slot an empty dataset")
    t_min, t_max = int(dataset.timestamps.min()), int(dataset.timestamps.max())
    if config.slot_mode == "fixed":
        dt = config.dt_seconds
        n_slots = max(1, -((t_min - t_max) // dt))  # ceil((t_max - t_min) / dt)
        if n_slots > MAX_SLOTS:
            raise DataError(f"{dt}-second slots over epochs {t_min}..{t_max} make {n_slots} "
                            f"slots; at most {MAX_SLOTS} are supported")
        return t_min, n_slots
    if t_min < _YEAR_1 or t_max >= _YEAR_10000:
        raise DataError(f"month slots need timestamps in years 1-9999 UTC, "
                        f"got {t_min if t_min < _YEAR_1 else t_max}")
    first, last = np.array([t_min, t_max], dtype="datetime64[s]").astype("datetime64[M]")
    return t_min, int((last - first).astype(np.int64)) + 1


def slot_layout(dataset: Dataset, config: DriftConfig) -> SlotLayout:
    """Assign every sample to exactly one slot.

    Fixed mode partitions [t_min, t_max] into half-open windows
    [t_min + k*dt, t_min + (k+1)*dt), the final window right-closed so the
    latest sample always lands inside. Month mode spans every UTC calendar
    month from t_min's to t_max's inclusive, empty months included. Either
    mode makes at most MAX_SLOTS slots.
    """
    t_min, n_slots = _slot_span(dataset, config)
    ts = dataset.timestamps
    if config.slot_mode == "fixed":
        dt = config.dt_seconds
        # offsets from t_min in uint64 arithmetic, exact for any span of int64 epochs
        offsets = ts.astype(np.uint64) - np.uint64(t_min % 2**64)
        ids = np.minimum(offsets // np.uint64(min(dt, 2**64 - 1)), n_slots - 1).astype(np.int64)
        bounds = tuple((t_min + k * dt, t_min + (k + 1) * dt) for k in range(n_slots))
        return SlotLayout(ids, bounds)
    months = ts.astype("datetime64[s]").astype("datetime64[M]")
    first = months.min()
    ids = (months - first).astype(np.int64)
    starts = np.arange(first, months.max() + 2).astype("datetime64[s]").astype(np.int64).tolist()
    bounds = tuple(zip(starts[:-1], starts[1:]))
    return SlotLayout(ids, bounds)


def slot_count(dataset: Dataset, config: DriftConfig) -> int:
    """Number of time slots the dataset spans under config (>= 1).

    Checks the span as slot_layout does, without assigning any sample.
    """
    return _slot_span(dataset, config)[1]


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
    sums /= np.maximum(counts, 1)  # an empty slot's sums are all zero
    return SlotMeans(matrix=sums, counts=counts)


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
    """Per-feature stability as index-aligned vectors, the only storage.

    ``order`` ranks the features by delta ascending, ties broken by index,
    most destabilizing first; ``records`` builds them as DriftRecord objects
    on demand. Features never seen in the analyzed class carry slope 0
    (hence delta 0) and observed=False.
    """

    weights: np.ndarray
    slopes: np.ndarray
    delta: np.ndarray
    observed: np.ndarray
    order: np.ndarray
    names: np.ndarray

    @property
    def records(self) -> tuple[DriftRecord, ...]:
        """The ranking as DriftRecord objects, built anew on each access."""
        columns = (arr[self.order].tolist()
                   for arr in (self.names, self.weights, self.slopes, self.delta, self.observed))
        return tuple(DriftRecord(*values) for values in zip(self.order.tolist(), *columns))


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
    delta = stability_values(model.weights, slopes)
    return DriftReport(
        weights=model.weights,
        slopes=slopes,
        delta=delta,
        observed=means.matrix.max(axis=1) > 0.0,
        order=np.argsort(delta, kind="stable"),
        names=dataset.dictionary.names,
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
                class_label: int = 1, *, view: SlotView | None = None) -> list[SlotScoreStats]:
    """Per-slot score statistics (mean/std/min/max) for one class.

    std is the population standard deviation. Slots with no samples of the
    class are emitted with count 0 and None statistics. ``view``, when given,
    is ``SlotView.build(dataset, config).scored(model, dataset)`` computed
    once by the caller.
    """
    if class_label not in (0, 1):
        raise DataError(f"class_label must be 0 or 1, got {class_label}")
    if view is None:
        view = SlotView.build(dataset, config).scored(model, dataset)
    out = []
    for k, (start, end) in enumerate(view.layout.bounds):
        sel = view.group(k, class_label)
        if sel.size == 0:
            out.append(SlotScoreStats(k, start, end, 0, None, None, None, None))
        else:
            out.append(SlotScoreStats(
                k, start, end, int(sel.size),
                float(sel.mean()), float(sel.std()),
                float(sel.min()), float(sel.max()),
            ))
    return out
